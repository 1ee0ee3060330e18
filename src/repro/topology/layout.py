"""Processor layouts: how ranks are placed onto physical positions.

§IV step 3 of the paper orders the processors of a mesh or torus with a
*processor-order SFC*: rank ``i`` is placed at the lattice position whose
curve index is ``i``.  :class:`GridLayout` realises that bijection and
precomputes the rank → coordinate tables the distance kernels index
into.

As an extension, :func:`hypercube_labels` offers the classical
Gray-coded hypercube embedding (consecutive ranks are physical
neighbours), selectable through the hypercube topology's ``layout``
argument.
"""

from __future__ import annotations

import numpy as np

from repro._typing import IntArray
from repro.errors import TopologySizeError
from repro.sfc.registry import get_curve
from repro.util.bits import gray_encode, is_power_of_two

__all__ = ["GridLayout", "hypercube_labels"]


class GridLayout:
    """SFC-driven bijection between ranks and a square grid of positions.

    Parameters
    ----------
    num_processors:
        Must be ``4**m`` so the grid side is a power of two (required by
        the curve constructions; the paper's 65 536-processor torus is
        ``4**8``).
    curve:
        Name of the processor-order SFC (default row-major, the
        conventional rank labelling communication libraries apply when
        no SFC is requested).
    """

    def __init__(self, num_processors: int, curve: str = "rowmajor"):
        p = int(num_processors)
        side = int(round(p**0.5))
        if side * side != p or not is_power_of_two(side):
            raise TopologySizeError(
                f"grid layouts need 4**m processors (a power-of-two square side), got {p}"
            )
        self._side = side
        self._curve_name = curve
        order = side.bit_length() - 1
        sfc = get_curve(curve, order)
        if sfc.side != side:
            raise TopologySizeError(
                f"curve {curve!r} fills a {sfc.side}x{sfc.side} lattice at order "
                f"{order}; grid layouts need a power-of-two side ({side})"
            )
        # int32 tables halve the bytes each distance gather moves; the
        # distance kernels' sums are widened to int64 by their callers.
        gx, gy = sfc.decode(np.arange(p, dtype=np.int64))
        self._gx = gx.astype(np.int32)
        self._gy = gy.astype(np.int32)

    @property
    def side(self) -> int:
        """Grid side length (``sqrt(p)``)."""
        return self._side

    @property
    def curve_name(self) -> str:
        """Name of the processor-order SFC realising the layout."""
        return self._curve_name

    @property
    def num_processors(self) -> int:
        """Number of grid positions (= ranks)."""
        return self._side * self._side

    def coords(self, ranks: IntArray) -> tuple[IntArray, IntArray]:
        """Grid coordinates ``(gx, gy)`` of each rank (vectorised ``int32`` lookup)."""
        return self._gx[ranks], self._gy[ranks]

    def rank_grid(self) -> IntArray:
        """Return ``R`` with ``R[gx, gy]`` = rank placed at that position."""
        grid = np.empty((self._side, self._side), dtype=np.int64)
        grid[self._gx, self._gy] = np.arange(self.num_processors, dtype=np.int64)
        return grid


def hypercube_labels(num_processors: int, layout: str = "identity") -> IntArray:
    """Rank → node-label table for a hypercube.

    ``"identity"`` assigns rank ``i`` to node ``i`` (the paper's setting,
    where processor-order SFCs do not apply to the hypercube);
    ``"gray"`` assigns rank ``i`` to node ``gray(i)`` so that consecutive
    ranks sit on adjacent corners — the classical ring-in-hypercube
    embedding, included as an extension.
    """
    p = int(num_processors)
    if not is_power_of_two(p):
        raise TopologySizeError(f"hypercubes need 2**d processors, got {p}")
    ranks = np.arange(p, dtype=np.int64)
    if layout == "identity":
        return ranks
    if layout == "gray":
        return gray_encode(ranks)
    raise ValueError(f"unknown hypercube layout {layout!r}; use 'identity' or 'gray'")
