"""Correctness gate for one ``combine`` run, independent of ``linepart``.

Everything is recomputed here with numpy from the generated inputs, so a
defect in ``linepart.cut_weight`` or ``check_balance`` cannot hide itself.
Every generated graph has unit vertex and edge weights.
"""

from __future__ import annotations

import numpy as np

from workloads import Inputs

# ``combine`` prints cut fractions with four decimals.
PRINT_TOL = 5e-5 + 1e-9


def parse_partition(data: bytes) -> tuple[np.ndarray, np.ndarray]:
    """(external ids, parts) from ``id <tab> part`` rows; raises ValueError."""
    ids, parts = [], []
    for line in data.decode("utf-8").splitlines():
        fields = line.split("\t")
        if len(fields) != 2:
            raise ValueError(f"malformed partition row {line!r}")
        ids.append(int(fields[0]))
        parts.append(int(fields[1]))
    return np.array(ids, dtype=np.int64), np.array(parts, dtype=np.int64)


def printed_cuts(stdout: str) -> tuple[float, float]:
    """(init chop, final) cut fractions from ``combine``'s stdout table."""
    init = final = None
    for line in stdout.splitlines():
        fields = line.split("\t")
        if fields[:2] == ["0", "init"]:
            init = float(fields[3])
        elif fields[0] == "final_cut_fraction":
            final = float(fields[1])
    if init is None or final is None:
        raise ValueError("stdout lacks the init row or final_cut_fraction")
    return init, final


def check(
    inputs: Inputs,
    k: int,
    alpha: float,
    exit_code: int,
    partition: bytes | None,
    stdout: str,
    reference: bytes | None,
) -> tuple[float | None, list[str]]:
    """(recomputed cut fraction, reasons the run failed); no reasons = pass.

    ``reference`` is the partition of the first run of the same inputs, or
    None for that first run.
    """
    if exit_code != 0:
        return None, [f"exit status {exit_code}"]
    if partition is None:
        return None, ["no partition file"]
    reasons = []
    if reference is not None and partition != reference:
        reasons.append("partition bytes differ from the first run")
    try:
        ids, parts = parse_partition(partition)
        init, final = printed_cuts(stdout)
    except ValueError as exc:
        return None, reasons + [str(exc)]

    order = np.argsort(ids, kind="stable")
    if len(ids) != len(inputs.ids) or not np.array_equal(ids[order], inputs.ids):
        return None, reasons + [
            f"partition names {len(ids)} rows, graph has {len(inputs.ids)} vertices"
        ]
    part_of = parts[order]  # aligned with the sorted inputs.ids
    if part_of.min() < 0 or part_of.max() >= k:
        return None, reasons + [f"part ids outside [0, {k})"]
    sizes = np.bincount(part_of, minlength=k)
    target = len(inputs.ids) / k
    tol = 1e-9 * max(1.0, target)
    if sizes.min() == 0:
        reasons.append(f"only {np.count_nonzero(sizes)} of {k} parts are used")
    if sizes.min() < (1 - alpha) * target - tol or sizes.max() > (1 + alpha) * target + tol:
        reasons.append(
            f"part sizes {sizes.min()}..{sizes.max()} outside "
            f"(1 +/- {alpha}) * {target:.1f}"
        )
    pu = part_of[np.searchsorted(inputs.ids, inputs.edge_u)]
    pv = part_of[np.searchsorted(inputs.ids, inputs.edge_v)]
    cut = float(np.count_nonzero(pu != pv)) / len(inputs.edge_u)
    if abs(cut - final) > PRINT_TOL:
        reasons.append(f"recomputed cut {cut:.6f} != printed final {final:.4f}")
    if cut > init + PRINT_TOL:
        reasons.append(f"recomputed cut {cut:.6f} exceeds the init chop {init:.4f}")
    return cut, reasons
