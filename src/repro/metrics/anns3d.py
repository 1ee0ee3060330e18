"""3D nearest-neighbour stretch (extension for future-work item ii)."""

from __future__ import annotations

import numpy as np

from repro.metrics.anns import StretchResult, index_grid_stretch
from repro.sfc.curves3d import Curve3D, get_curve3d

__all__ = ["neighbor_stretch3d", "anns3d"]


def neighbor_stretch3d(
    curve: Curve3D | str,
    order: int | None = None,
    radius: int = 1,
) -> StretchResult:
    """Stretch statistics of a 3D curve over all in-radius pairs.

    The 3D analogue of :func:`repro.metrics.neighbor_stretch`: for every
    pair of lattice points within Manhattan distance ``radius`` the
    stretch is the curve-index gap divided by the spatial distance.
    """
    if isinstance(curve, str):
        if order is None:
            raise ValueError("order is required when passing a curve name")
        curve = get_curve3d(curve, order)
    if radius < 1:
        raise ValueError(f"radius must be >= 1, got {radius}")
    side = curve.side
    ax = np.arange(side, dtype=np.int64)
    x, y, z = np.meshgrid(ax, ax, ax, indexing="ij")
    grid = curve.encode(x.ravel(), y.ravel(), z.ravel()).reshape(side, side, side)
    return index_grid_stretch(grid.astype(np.float64), radius)


def anns3d(curve: Curve3D | str, order: int | None = None) -> float:
    """The radius-1 average nearest-neighbour stretch of a 3D curve."""
    return neighbor_stretch3d(curve, order, radius=1).mean
