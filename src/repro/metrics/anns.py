"""Average Nearest Neighbor Stretch (ANNS) and its radius generalisation.

Xu & Tirthapura (IPDPS'12) define the nearest-neighbour stretch of an
SFC as the multiplicative increase in distance between points that are
adjacent in space (Manhattan distance 1) once they are mapped to the
linear order; the ANNS averages this over all such pairs.  §V of the
paper reproduces the metric empirically and generalises it to larger
Manhattan radii: for a pair at spatial distance ``d <= r`` the stretch is
``|index(a) - index(b)| / d``.

The computation feeds every lattice point through the curve's index
grid and accumulates one vectorised pass per stencil offset, so a
512x512 lattice (the paper's largest, Fig. 5) takes milliseconds.
Index grids are memoised in the shared
:class:`~repro.topology.cache.TopologyCache` (keyed by curve name and
order), so sweeping the radius over the same curve decodes the lattice
once.

Analytic cross-checks
---------------------
:func:`analytic_anns_rowmajor` and :func:`analytic_anns_zcurve` compute
the exact ANNS of the two curves Xu & Tirthapura analysed, from closed
forms derived in their paper's spirit (trailing-ones counting for the
Z-curve); the test-suite verifies the empirical pipeline against both.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.quadtree.cells import aligned_views, half_space_offsets
from repro.sfc.base import SpaceFillingCurve
from repro.sfc.registry import get_curve
from repro.topology.cache import get_topology_cache
from repro.util.validation import check_order

__all__ = [
    "StretchResult",
    "neighbor_stretch",
    "index_grid_stretch",
    "anns",
    "analytic_anns_rowmajor",
    "analytic_anns_zcurve",
    "analytic_anns_gray",
]


@dataclass(frozen=True)
class StretchResult:
    """Aggregate stretch statistics over all in-radius pairs."""

    total_stretch: float
    count: int
    max_stretch: float

    @property
    def mean(self) -> float:
        """Average stretch (the ANNS when radius == 1)."""
        return self.total_stretch / self.count if self.count else 0.0


def neighbor_stretch(
    curve: SpaceFillingCurve | str,
    order: int | None = None,
    radius: int = 1,
) -> StretchResult:
    """Stretch statistics of a curve over all pairs within ``radius``.

    Parameters
    ----------
    curve:
        Curve instance, or registry name (then ``order`` is required).
    radius:
        Manhattan radius of the neighbourhood (1 = classic ANNS;
        Fig. 5(b) of the paper uses 6).
    """
    if isinstance(curve, str):
        if order is None:
            raise ValueError("order is required when passing a curve name")
        curve = get_curve(curve, order)
    if radius < 1:
        raise ValueError(f"radius must be >= 1, got {radius}")
    the_curve = curve
    grid = get_topology_cache().table(
        ("index_grid", type(the_curve).__name__, the_curve.name, the_curve.order),
        lambda: the_curve.index_grid().astype(np.float64),
    )
    return index_grid_stretch(grid, radius)


def index_grid_stretch(grid: np.ndarray, radius: int) -> StretchResult:
    """Stretch statistics of a float curve-index grid (2D or 3D).

    Each pair of lattice points within Manhattan distance ``radius`` is
    visited once, offset by offset: one vectorised pass per half-space
    offset of the stencil.
    """
    total = 0.0
    count = 0
    worst = 0.0
    for offset in half_space_offsets(radius, "manhattan", grid.ndim):
        a, b = aligned_views(grid, offset)
        if a.size == 0:
            continue  # offset longer than the lattice: no valid pairs
        stretches = np.abs(a - b) / float(np.abs(offset).sum())
        total += float(stretches.sum())
        count += int(stretches.size)
        worst = max(worst, float(stretches.max()))
    return StretchResult(total_stretch=total, count=count, max_stretch=worst)


def anns(curve: SpaceFillingCurve | str, order: int | None = None) -> float:
    """The classic ANNS (radius-1 mean stretch) of a curve."""
    return neighbor_stretch(curve, order, radius=1).mean


def analytic_anns_rowmajor(order: int) -> float:
    """Exact ANNS of the row-major order on a ``2**order`` lattice.

    Vertical neighbours are consecutive (stretch 1); horizontal
    neighbours are a full column apart (stretch ``side``); both pair
    families have the same cardinality, so the mean is
    ``(side + 1) / 2``.
    """
    k = check_order(order)
    side = 1 << k
    if side == 1:
        return 0.0
    return (side + 1) / 2.0


def analytic_anns_zcurve(order: int) -> float:
    """Exact ANNS of the Z-curve on a ``2**order`` lattice.

    For a ``+1`` step in ``y`` (the low interleaved coordinate), a value
    ``y`` with exactly ``t`` trailing one-bits jumps by
    ``4**t - (4**t - 1)/3 = (2 * 4**t + 1) / 3`` in the Morton code,
    independent of ``x``; a step in ``x`` (the high coordinate) jumps by
    exactly twice that.  Counting how many ``y`` in ``[0, side-1)`` have
    ``t`` trailing ones gives the exact total.
    """
    k = check_order(order)
    side = 1 << k
    if side == 1:
        return 0.0
    total = 0
    for t in range(k):
        # values in [0, side-1) with exactly t trailing ones
        n_vals = side >> (t + 1)
        jump = (2 * 4**t + 1) // 3
        # y-steps: `side` columns worth of pairs; x-steps: double jump
        total += n_vals * side * jump  # dy = +1 pairs
        total += n_vals * side * 2 * jump  # dx = +1 pairs
    pairs = 2 * side * (side - 1)
    return total / pairs


def analytic_anns_gray(order: int) -> float:
    """Exact ANNS of the Gray order on a ``2**order`` lattice: ``3 * side / 4``.

    The Gray-rank flip pattern averages out remarkably cleanly: summing
    the rank gaps of the ``y`` steps (which flip the trailing run of
    even Morton bits plus one) and the doubled ``x`` steps over the full
    lattice gives exactly ``3 * side / 4`` at every order — 1.5x the
    Z-curve/row-major value and the worst of the four study curves.
    The test-suite verifies this closed form against the empirical
    pipeline to machine precision for orders 1-9.
    """
    k = check_order(order)
    side = 1 << k
    if side == 1:
        return 0.0
    return 3 * side / 4
