"""Balanced k-way graph partitioning via linear embedding.

Embed vertices on a line (random, space-filling-curve, or affinity order),
refine the order with semilocal moves, optimize part boundaries inside
imbalance windows, and iterate to a fixed point.
"""

from .boundary import (
    ContractedGraph,
    DpResult,
    SplitPoints,
    Windows,
    apply_window_stage,
    contract_blocks,
    dp_partition,
    make_split_points,
    make_windows,
    mincut_window,
)
from .graph import (
    BalanceReport,
    Graph,
    GraphFormatError,
    Partition,
    check_balance,
    common_neighbors_similarity,
    cross_shard_rate,
    cut_weight,
    query_weighted_graph,
)
from .io import (
    load_graph,
    load_ordering,
    load_partition,
    load_queries,
    write_graph,
    write_hierarchy,
    write_ordering,
    write_partition,
    write_splits,
)
from .ordering import (
    AffinityHierarchy,
    Ordering,
    affinity_ordering,
    hilbert_ordering,
    random_ordering,
)
from .pipeline import (
    PipelineConfig,
    PipelineReport,
    StageRecord,
    combine,
    run_stage,
)
from .refine import (
    MinLAState,
    minla_objective,
    minla_refine,
    rank_swap_round,
)

__version__ = "0.1.0"
