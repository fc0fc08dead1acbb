"""2-D Hilbert curve indexing.

Maps grid cells to positions along the space-filling curve so that cells
close on the curve are close in the plane. The order-1 curve visits
(0,0), (0,1), (1,1), (1,0); higher orders refine recursively.
"""

from __future__ import annotations

import numpy as np

__all__ = ["hilbert_index"]


def hilbert_index(x, y, order: int) -> np.ndarray:
    """Curve position of each cell (x, y) on the 2^order x 2^order grid.

    Vectorized form of the classic bit-twiddling conversion; the per-cell
    rotations are xor masks, not masked gathers. Coordinates must lie in
    [0, 2^order); positions fit in int64 for order <= 31.
    """
    if not 1 <= order <= 31:
        raise ValueError(f"curve order must be in [1, 31], got {order}")
    x = np.array(x, dtype=np.int64, copy=True)
    y = np.array(y, dtype=np.int64, copy=True)
    side = np.int64(1) << order
    if x.size and (x.min() < 0 or x.max() >= side or y.min() < 0 or y.max() >= side):
        raise ValueError("grid coordinate out of range for curve order")
    d = np.zeros_like(x)
    s = side >> 1
    while s > 0:
        rx = (x & s) != 0
        ry = (y & s) != 0
        d += s * s * ((3 * rx) ^ ry)
        # Rotate the quadrant so the sub-curve orientation lines up, without
        # branches: on [0, side), side - 1 - x is x ^ (side - 1), and x and y
        # trade places where ry is 0 by xoring both with x ^ y.
        flip = np.where(rx & ~ry, side - 1, 0)
        x ^= flip
        y ^= flip
        swap = np.where(ry, 0, x ^ y)
        x ^= swap
        y ^= swap
        s >>= 1
    return d
