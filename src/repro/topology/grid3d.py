"""3D grid topologies: mesh, torus and octree switch tree (extension).

Future-work item (iii) of the paper asks about mappings "from
multi-dimensional space to 2D/3D intraconnect network"; these classes
provide the 3D networks so the 3D FMM model has somewhere to live.
Ranks are placed on a ``p**(1/3)`` cube by a 3D processor-order SFC.
"""

from __future__ import annotations

import numpy as np

from repro._typing import IntArray
from repro.errors import TopologySizeError
from repro.sfc.curves3d import get_curve3d
from repro.topology.base import DirectTopology, Topology
from repro.util.bits import bit_length, interleave3, is_power_of_two

__all__ = ["GridLayout3D", "Mesh3DTopology", "Torus3DTopology", "OctreeTopology"]


class GridLayout3D:
    """SFC-driven bijection between ranks and a cube grid of positions."""

    def __init__(self, num_processors: int, curve: str = "rowmajor3d"):
        p = int(num_processors)
        side = round(p ** (1 / 3))
        # fight float cube-root imprecision for large powers
        for cand in (side - 1, side, side + 1):
            if cand > 0 and cand**3 == p:
                side = cand
                break
        else:
            raise TopologySizeError(
                f"3D grid layouts need 8**m processors (a power-of-two cube side), got {p}"
            )
        if not is_power_of_two(side):
            raise TopologySizeError(
                f"3D grid layouts need a power-of-two cube side, got side {side}"
            )
        self._side = side
        self._curve_name = curve
        sfc = get_curve3d(curve, side.bit_length() - 1)
        # int32 tables, as in the 2D GridLayout.
        gx, gy, gz = sfc.decode(np.arange(p, dtype=np.int64))
        self._gx, self._gy, self._gz = (g.astype(np.int32) for g in (gx, gy, gz))

    @property
    def side(self) -> int:
        """Grid side length (``p**(1/3)``)."""
        return self._side

    @property
    def curve_name(self) -> str:
        """Name of the 3D processor-order SFC realising the layout."""
        return self._curve_name

    def coords(self, ranks: IntArray) -> tuple[IntArray, IntArray, IntArray]:
        """Grid coordinates of each rank (vectorised ``int32`` lookup)."""
        return self._gx[ranks], self._gy[ranks], self._gz[ranks]


class Mesh3DTopology(DirectTopology):
    """Cubic 3D mesh; distance = 3D Manhattan distance between positions."""

    name = "mesh3d"

    def __init__(self, num_processors: int, processor_curve: str = "rowmajor3d"):
        super().__init__(num_processors)
        self._layout = GridLayout3D(num_processors, processor_curve)

    @property
    def layout(self) -> GridLayout3D:
        """The rank → grid-position bijection."""
        return self._layout

    @property
    def side(self) -> int:
        """Grid side length."""
        return self._layout.side

    @property
    def diameter(self) -> int:
        return 3 * (self.side - 1)

    def _distance(self, a: IntArray, b: IntArray) -> IntArray:
        ax, ay, az = self._layout.coords(a)
        bx, by, bz = self._layout.coords(b)
        return np.abs(ax - bx) + np.abs(ay - by) + np.abs(az - bz)

    def links(self) -> IntArray:
        side = self.side
        rank = np.empty((side, side, side), dtype=np.int64)
        gx, gy, gz = self._layout.coords(np.arange(self.num_processors, dtype=np.int64))
        rank[gx, gy, gz] = np.arange(self.num_processors, dtype=np.int64)
        pairs = []
        for axis in range(3):
            lead = [slice(None)] * 3
            trail = [slice(None)] * 3
            lead[axis] = slice(1, None)
            trail[axis] = slice(None, -1)
            pairs.append(
                np.stack([rank[tuple(trail)].ravel(), rank[tuple(lead)].ravel()], axis=1)
            )
        return np.sort(np.concatenate(pairs), axis=1)


class Torus3DTopology(Mesh3DTopology):
    """Cubic 3D torus; every axis wraps around."""

    name = "torus3d"

    @property
    def diameter(self) -> int:
        return 3 * (self.side // 2)

    def _distance(self, a: IntArray, b: IntArray) -> IntArray:
        side = self.side
        ax, ay, az = self.layout.coords(a)
        bx, by, bz = self.layout.coords(b)
        dx = np.abs(ax - bx)
        dy = np.abs(ay - by)
        dz = np.abs(az - bz)
        return (
            np.minimum(dx, side - dx)
            + np.minimum(dy, side - dy)
            + np.minimum(dz, side - dz)
        )

    def links(self) -> IntArray:
        side = self.side
        rank = np.empty((side, side, side), dtype=np.int64)
        gx, gy, gz = self.layout.coords(np.arange(self.num_processors, dtype=np.int64))
        rank[gx, gy, gz] = np.arange(self.num_processors, dtype=np.int64)
        pairs = []
        for axis in range(3):
            pairs.append(
                np.stack([rank.ravel(), np.roll(rank, -1, axis=axis).ravel()], axis=1)
            )
        links = np.sort(np.concatenate(pairs), axis=1)
        return np.unique(links, axis=0)


class OctreeTopology(Topology):
    """Complete 8-ary switch tree over ``8**m`` leaf processors.

    The 3D sibling of :class:`~repro.topology.QuadtreeTopology`, with the
    same ``hop_convention`` choices.
    """

    name = "octree"

    def __init__(
        self,
        num_processors: int,
        processor_curve: str = "morton3d",
        hop_convention: str = "updown",
    ):
        super().__init__(num_processors)
        p = int(num_processors)
        # The height/code arithmetic below assumes a complete 8-ary tree.
        if not (is_power_of_two(p) and (p.bit_length() - 1) % 3 == 0):
            raise TopologySizeError(
                f"octree topologies need 8**m leaf processors "
                f"(a complete 8-ary switch tree), got {p}"
            )
        if hop_convention not in ("updown", "levels"):
            raise ValueError(
                f"unknown hop_convention {hop_convention!r}; use 'updown' or 'levels'"
            )
        self._hop_factor = 2 if hop_convention == "updown" else 1
        self._layout = GridLayout3D(num_processors, processor_curve)
        self._height = self._layout.side.bit_length() - 1
        gx, gy, gz = self._layout.coords(np.arange(num_processors, dtype=np.int64))
        self._codes = interleave3(gx, gy, gz)

    @property
    def layout(self) -> GridLayout3D:
        """The rank → leaf-position bijection."""
        return self._layout

    @property
    def height(self) -> int:
        """Tree height ``m`` (levels between a leaf and the root)."""
        return self._height

    @property
    def diameter(self) -> int:
        return self._hop_factor * self._height

    def _distance(self, a: IntArray, b: IntArray) -> IntArray:
        diff = self._codes[a] ^ self._codes[b]
        levels = (bit_length(diff) + 2) // 3
        return self._hop_factor * levels
