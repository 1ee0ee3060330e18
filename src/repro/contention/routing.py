"""Deterministic routing: expand rank pairs into link-level paths.

The contention simulator needs the exact sequence of directed links a
message crosses.  Each topology gets its textbook deterministic router:

* bus / ring — walk the line (shorter arc on the ring),
* mesh / torus — XY dimension-ordered routing (shorter wrap per axis),
* hypercube — e-cube routing (fix differing bits from the lowest),
* quadtree / octree — up to the lowest common ancestor switch and down,
* fat tree — the same up/down tree walk, over leaf ranks directly,
* dragonfly — minimal direct routing (gateway router, global link,
  gateway router),
* mesh3d / torus3d — XYZ dimension-ordered routing.

Every hop is a directed edge between *network nodes*; for the quadtree
the interior switches appear as ``("sw", level, cx, cy)`` nodes, for the
direct networks nodes are the ranks themselves.  Paths are minimal: the
number of hops always equals :meth:`Topology.distance` (property-tested),
so simulated latencies are directly comparable to the ACD.

Two entry points share the same per-topology route definitions:

* :func:`route` — one scalar path as a Python list of nodes (handy for
  inspection and property tests),
* :func:`route_batch` — the whole event batch in one vectorised pass,
  returning a :class:`RoutedBatch` of dense integer link ids in CSR
  layout.  This is what the simulator consumes; node sequences are
  built with NumPy repeat/scatter kernels (no per-message Python loop)
  and per-topology lookup tables are memoised through the shared
  :mod:`repro.topology.cache`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable

import numpy as np

from repro._typing import IntArray
from repro.topology.base import Topology
from repro.topology.bus import BusTopology
from repro.topology.cache import TopologyCache, get_topology_cache
from repro.topology.dragonfly import DragonflyTopology
from repro.topology.fat_tree import FatTreeTopology
from repro.topology.grid3d import Mesh3DTopology, OctreeTopology, Torus3DTopology
from repro.topology.hypercube import HypercubeTopology
from repro.topology.mesh import MeshTopology
from repro.topology.quadtree import QuadtreeTopology
from repro.topology.ring import RingTopology
from repro.topology.torus import TorusTopology
from repro.util.bits import bit_length, popcount

__all__ = ["route", "route_events", "route_batch", "RoutedBatch"]

Node = Hashable


def _line_path(a: int, b: int) -> list[Node]:
    step = 1 if b >= a else -1
    return list(range(a, b + step, step))


def _ring_path(a: int, b: int, p: int) -> list[Node]:
    forward = (b - a) % p
    if forward <= p - forward:
        return [(a + i) % p for i in range(forward + 1)]
    back = p - forward
    return [(a - i) % p for i in range(back + 1)]


def _axis_walk(start: int, target: int, side: int, wrap: bool) -> list[int]:
    """Coordinates visited along one axis (inclusive of both ends)."""
    if not wrap:
        step = 1 if target >= start else -1
        return list(range(start, target + step, step))
    forward = (target - start) % side
    if forward <= side - forward:
        return [(start + i) % side for i in range(forward + 1)]
    back = side - forward
    return [(start - i) % side for i in range(back + 1)]


def _grid_path(topo: MeshTopology, a: int, b: int, wrap: bool) -> list[Node]:
    gax, gay = topo.layout.coords(np.array([a]))
    gbx, gby = topo.layout.coords(np.array([b]))
    ax, ay, bx, by = int(gax[0]), int(gay[0]), int(gbx[0]), int(gby[0])
    grid = topo.layout.rank_grid()
    path = [grid[x, ay] for x in _axis_walk(ax, bx, topo.side, wrap)]
    path.extend(grid[bx, y] for y in _axis_walk(ay, by, topo.side, wrap)[1:])
    return [int(r) for r in path]


def _hypercube_path(topo: HypercubeTopology, a: int, b: int) -> list[Node]:
    labels = topo._labels  # rank -> node label
    inv = np.empty(topo.num_processors, dtype=np.int64)
    inv[labels] = np.arange(topo.num_processors)
    cur = int(labels[a])
    target = int(labels[b])
    path = [a]
    bit = 0
    while cur != target:
        if (cur ^ target) & (1 << bit):
            cur ^= 1 << bit
            path.append(int(inv[cur]))
        bit += 1
    return path


def _tree_path(a: int, b: int, za: int, zb: int, m: int, bits: int) -> list[Node]:
    """Leaf-LCA-leaf walk through a complete switch tree.

    ``bits`` is the digit width (2 for quadtree, 3 for octree); the
    switch at level ``l`` is identified by the leading ``bits * l`` code
    bits of the leaves it covers.
    """
    if a == b:
        return [a]
    common = m
    diff = za ^ zb
    if diff:
        common = m - ((diff.bit_length() + bits - 1) // bits)
    path: list[Node] = [a]
    for level in range(m - 1, common - 1, -1):
        path.append(("sw", level, za >> (bits * (m - level))))
    for level in range(common + 1, m):
        path.append(("sw", level, zb >> (bits * (m - level))))
    path.append(b)
    return path


def _dragonfly_path(topo: DragonflyTopology, a: int, b: int) -> list[Node]:
    """Minimal direct routing: gateway router, global link, gateway router."""
    s = topo.group_size
    gi, ri = a // s, a % s
    gj, rj = b // s, b % s
    if gi == gj:
        return [a] if a == b else [a, b]
    attach_i = gj if gj < gi else gj - 1
    attach_j = gi if gi < gj else gi - 1
    path: list[Node] = [a]
    if ri != attach_i:
        path.append(gi * s + attach_i)
    path.append(gj * s + attach_j)
    if rj != attach_j:
        path.append(b)
    return path


def _grid3d_path(topo: Mesh3DTopology, a: int, b: int, wrap: bool) -> list[Node]:
    gax, gay, gaz = topo.layout.coords(np.array([a]))
    gbx, gby, gbz = topo.layout.coords(np.array([b]))
    ax, ay, az = int(gax[0]), int(gay[0]), int(gaz[0])
    bx, by, bz = int(gbx[0]), int(gby[0]), int(gbz[0])
    side = topo.side
    rank = np.empty((side, side, side), dtype=np.int64)
    gx, gy, gz = topo.layout.coords(np.arange(topo.num_processors, dtype=np.int64))
    rank[gx, gy, gz] = np.arange(topo.num_processors, dtype=np.int64)
    path = [int(rank[x, ay, az]) for x in _axis_walk(ax, bx, side, wrap)]
    path.extend(int(rank[bx, y, az]) for y in _axis_walk(ay, by, side, wrap)[1:])
    path.extend(int(rank[bx, by, z]) for z in _axis_walk(az, bz, side, wrap)[1:])
    return path


def route(topology: Topology, src: int, dst: int) -> list[Node]:
    """The node sequence a message visits from ``src`` to ``dst``.

    The returned list includes both endpoints; consecutive entries are
    the directed links crossed.  ``len(path) - 1`` equals the topology's
    hop distance.
    """
    a, b = int(src), int(dst)
    if isinstance(topology, RingTopology):
        return _ring_path(a, b, topology.num_processors)
    if isinstance(topology, BusTopology):
        return _line_path(a, b)
    if isinstance(topology, TorusTopology):
        return _grid_path(topology, a, b, wrap=True)
    if isinstance(topology, MeshTopology):
        return _grid_path(topology, a, b, wrap=False)
    if isinstance(topology, HypercubeTopology):
        return _hypercube_path(topology, a, b)
    if isinstance(topology, QuadtreeTopology):
        return _tree_path(
            a, b, int(topology._zcodes[a]), int(topology._zcodes[b]), topology.height, 2
        )
    if isinstance(topology, FatTreeTopology):
        return _tree_path(a, b, a, b, topology.height, 2)
    if isinstance(topology, DragonflyTopology):
        return _dragonfly_path(topology, a, b)
    if isinstance(topology, OctreeTopology):
        return _tree_path(
            a, b, int(topology._codes[a]), int(topology._codes[b]), topology.height, 3
        )
    if isinstance(topology, Torus3DTopology):
        return _grid3d_path(topology, a, b, wrap=True)
    if isinstance(topology, Mesh3DTopology):
        return _grid3d_path(topology, a, b, wrap=False)
    raise TypeError(f"no router registered for {type(topology).__name__}")


def route_events(topology: Topology, src, dst) -> list[list[Node]]:
    """Route a batch of rank pairs; one path per event."""
    return [route(topology, int(a), int(b)) for a, b in zip(src, dst)]


# ----------------------------------------------------------------------
# Batched routing
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class RoutedBatch:
    """All routed paths of an event batch, as integer link ids in CSR form.

    Message ``i`` crosses the directed links
    ``links[offsets[i]:offsets[i + 1]]`` in order.  Link ids come from a
    per-topology analytic encoding ``node * degree + direction`` (no
    hashing or deduplication pass), so ids lie in ``[0, num_links)``
    where ``num_links`` is the size of the id space — a small multiple
    of the node count; per-link state fits in flat arrays.
    """

    links: IntArray
    offsets: IntArray
    num_links: int

    @property
    def num_messages(self) -> int:
        """Number of routed messages."""
        return self.offsets.size - 1

    @property
    def total_hops(self) -> int:
        """Total link crossings over all messages."""
        return int(self.links.size)

    def hop_counts(self) -> IntArray:
        """Per-message path length in hops."""
        return np.diff(self.offsets)

    def link_loads(self) -> IntArray:
        """Messages crossing each link id (congestion profile).

        Ids never used by the batch (or by the topology) report zero.
        """
        return np.bincount(self.links, minlength=self.num_links)

    @property
    def congestion(self) -> int:
        """Max messages sharing one directed link."""
        return int(self.link_loads().max()) if self.links.size else 0

    @property
    def dilation(self) -> int:
        """Longest routed path in hops."""
        return int(self.hop_counts().max()) if self.num_messages else 0


def csr_expand(lengths: IntArray) -> tuple[IntArray, IntArray, IntArray]:
    """CSR layout of variable-length rows: ``offsets``, ``owner``, ``within``.

    ``offsets`` has ``lengths.size + 1`` entries (``offsets[-1]`` is the
    total slot count); slot ``j`` belongs to row ``owner[j]`` at
    position ``within[j]`` inside that row.  This is the expansion
    every batched router builds its per-hop gathers on.
    """
    lengths = np.asarray(lengths, dtype=np.int64)
    offsets = np.concatenate([np.zeros(1, dtype=np.int64), np.cumsum(lengths)])
    owner = np.repeat(np.arange(lengths.size, dtype=np.int64), lengths)
    within = np.arange(offsets[-1], dtype=np.int64) - offsets[owner]
    return offsets, owner, within


def _axis_legs(a: IntArray, b: IntArray, side: int, wrap: bool) -> tuple[IntArray, IntArray]:
    """Signed unit step and leg length along one axis (shorter arc on wrap)."""
    if not wrap:
        return np.sign(b - a), np.abs(b - a)
    forward = (b - a) % side
    use_forward = forward <= side - forward
    step = np.where(use_forward, 1, -1)
    length = np.where(use_forward, forward, side - forward)
    return step, length


def _line_links(a: IntArray, b: IntArray, p: int, wrap: bool) -> tuple[IntArray, IntArray, int]:
    # link id = source node * 2 + (0 for the +1 direction, 1 for -1)
    step, length = _axis_legs(a, b, p, wrap)
    offsets, owner, within = csr_expand(length)
    source = a[owner] + step[owner] * within
    if wrap:
        source %= p
    links = source * 2 + (step[owner] < 0)
    return links, offsets, 2 * p


def _grid_links(
    topo: MeshTopology, a: IntArray, b: IntArray, wrap: bool, cache: TopologyCache
) -> tuple[IntArray, IntArray, int]:
    # link id = source rank * 4 + direction (0:+x, 1:-x, 2:+y, 3:-y)
    side = topo.side
    grid = cache.topology_table(
        topo, "rank_grid_i32", lambda: topo.layout.rank_grid().astype(np.int32)
    )
    ax, ay = topo.layout.coords(a)
    bx, by = topo.layout.coords(b)
    sx, dx = _axis_legs(ax, bx, side, wrap)
    sy, dy = _axis_legs(ay, by, side, wrap)
    offsets, owner, within = csr_expand(dx + dy)
    # The per-hop gathers are memory-bound; int32 intermediates halve
    # the traffic (coordinates and ranks comfortably fit 32 bits, and
    # the layout's coordinates already are int32).
    within = within.astype(np.int32)
    sx, sy = sx.astype(np.int32), sy.astype(np.int32)
    dxo = dx.astype(np.int32)[owner]
    on_x = within < dxo
    axo, ayo, sxo = ax[owner], ay[owner], sx[owner]
    x = np.where(on_x, axo + sxo * within, bx[owner])
    y = np.where(on_x, ayo, ayo + sy[owner] * (within - dxo))
    if wrap:
        x %= side
        y %= side
    direction = np.where(
        on_x,
        np.where(sxo > 0, 0, 1),
        np.where(sy[owner] > 0, 2, 3),
    ).astype(np.int32)
    links = (grid[x, y] * 4 + direction).astype(np.int64)
    return links, offsets, 4 * topo.num_processors


def _grid3d_links(
    topo: Mesh3DTopology, a: IntArray, b: IntArray, wrap: bool, cache: TopologyCache
) -> tuple[IntArray, IntArray, int]:
    # link id = source rank * 6 + direction (0:+x, 1:-x, ..., 5:-z)
    side = topo.side

    def build_rank_cube():
        cube = np.empty((side, side, side), dtype=np.int64)
        gx, gy, gz = topo.layout.coords(np.arange(topo.num_processors, dtype=np.int64))
        cube[gx, gy, gz] = np.arange(topo.num_processors, dtype=np.int64)
        return cube

    cube = cache.topology_table(topo, "rank_cube", build_rank_cube)
    ax, ay, az = topo.layout.coords(a)
    bx, by, bz = topo.layout.coords(b)
    sx, dx = _axis_legs(ax, bx, side, wrap)
    sy, dy = _axis_legs(ay, by, side, wrap)
    sz, dz = _axis_legs(az, bz, side, wrap)
    offsets, owner, within = csr_expand(dx + dy + dz)
    dxo, dyo = dx[owner], dy[owner]
    on_x = within < dxo
    on_y = ~on_x & (within < dxo + dyo)
    on_z = ~on_x & ~on_y
    x = np.where(on_x, ax[owner] + sx[owner] * within, bx[owner])
    y = np.where(on_x, ay[owner], np.where(on_y, ay[owner] + sy[owner] * (within - dxo), by[owner]))
    z = np.where(on_z, az[owner] + sz[owner] * (within - dxo - dyo), az[owner])
    if wrap:
        x %= side
        y %= side
        z %= side
    direction = np.where(
        on_x,
        np.where(sx[owner] > 0, 0, 1),
        np.where(
            on_y,
            np.where(sy[owner] > 0, 2, 3),
            np.where(sz[owner] > 0, 4, 5),
        ),
    )
    links = cube[x, y, z] * 6 + direction
    return links, offsets, 6 * topo.num_processors


def _hypercube_links(
    topo: HypercubeTopology, a: IntArray, b: IntArray, cache: TopologyCache
) -> tuple[IntArray, IntArray, int]:
    # link id = source rank * dimension + flipped bit (direction is implied:
    # the source fixes which way the bit flips)
    p = topo.num_processors
    dim = max(topo.dimension, 1)
    labels = topo._labels

    def build_inverse():
        inv = np.empty(p, dtype=np.int64)
        inv[labels] = np.arange(p, dtype=np.int64)
        return inv

    inv = cache.topology_table(topo, "label_inverse", build_inverse)
    la, lb = labels[a], labels[b]
    diff = la ^ lb
    offsets, _, _ = csr_expand(popcount(diff))
    links = np.empty(offsets[-1], dtype=np.int64)
    starts = offsets[:-1]
    for bit in range(topo.dimension):
        sel = np.flatnonzero((diff >> bit) & 1)
        if not sel.size:
            continue
        # e-cube order: this bit is fixed after the lower set bits of diff
        hop = popcount(diff[sel] & ((1 << bit) - 1))
        source = la[sel] ^ (diff[sel] & ((1 << bit) - 1))
        links[starts[sel] + hop] = inv[source] * dim + bit
    return links, offsets, p * dim


def _tree_links(
    topo: Topology, codes: IntArray, a: IntArray, b: IntArray, bits: int, cache: TopologyCache
) -> tuple[IntArray, IntArray, int]:
    # Every tree edge joins a child node to its parent switch; the child end
    # identifies the edge, so  link id = child node id * 2 + (0 up, 1 down).
    # Node ids: leaves are their ranks; the switch at level ``l`` (root = 0)
    # with code prefix ``c`` gets id  p + (fanout**l - 1)//(fanout - 1) + c.
    p = topo.num_processors
    m: int = topo.height  # type: ignore[attr-defined]
    fanout = 1 << bits
    switch_base = [p + (fanout**level - 1) // (fanout - 1) for level in range(m + 1)]
    num_nodes = switch_base[m]
    za, zb = codes[a], codes[b]
    diff = za ^ zb
    common = m - ((bit_length(diff) + bits - 1) // bits)
    up = m - common  # tree edges climbed (>= 1 for distinct leaves)
    offsets, _, _ = csr_expand(2 * up)
    links = np.empty(offsets[-1], dtype=np.int64)
    starts = offsets[:-1]
    links[starts] = a * 2  # first hop: leaf ``a`` up to its switch
    links[offsets[1:] - 1] = b * 2 + 1  # last hop: down into leaf ``b``
    for level in range(m):
        shift = bits * (m - level)
        # switches at this level appear strictly below the LCA
        sel = np.flatnonzero(common <= level - 1)
        if not sel.size:
            continue
        # climbing out of the level-l switch: hop index  m - level
        links[starts[sel] + (m - level)] = (switch_base[level] + (za[sel] >> shift)) * 2
        # descending into the level-l switch: hop index  up + (level-common) - 1
        pos = up[sel] + (level - common[sel]) - 1
        links[starts[sel] + pos] = (switch_base[level] + (zb[sel] >> shift)) * 2 + 1
    return links, offsets, 2 * num_nodes


def _dragonfly_links(
    topo: DragonflyTopology, a: IntArray, b: IntArray
) -> tuple[IntArray, IntArray, int]:
    # link id = source rank * group_size + local target router index; the
    # source's own index marks its (unique) global link, a slot no local
    # hop uses.  Id space: p * group_size.
    s = topo.group_size
    gi, ri = a // s, a % s
    gj, rj = b // s, b % s
    same = gi == gj
    attach_i = topo.attach_router(gi, gj)
    attach_j = topo.attach_router(gj, gi)
    first_local = ~same & (ri != attach_i)
    last_local = ~same & (rj != attach_j)
    lengths = np.where(same, 1, 1 + first_local + last_local)
    offsets, _, _ = csr_expand(lengths)
    links = np.empty(offsets[-1], dtype=np.int64)
    starts = offsets[:-1]
    links[starts[same]] = (a * s + rj)[same]
    links[starts[first_local]] = (a * s + attach_i)[first_local]
    gateway = starts + first_local
    diff = ~same
    links[gateway[diff]] = ((gi * s + attach_i) * s + attach_i)[diff]
    links[(gateway + 1)[last_local]] = ((gj * s + attach_j) * s + rj)[last_local]
    return links, offsets, topo.num_processors * s


def _link_paths(
    topology: Topology, a: IntArray, b: IntArray, cache: TopologyCache
) -> tuple[IntArray, IntArray, int]:
    """CSR link-id sequences for all pairs plus the id-space size."""
    if isinstance(topology, RingTopology):
        return _line_links(a, b, topology.num_processors, wrap=True)
    if isinstance(topology, BusTopology):
        return _line_links(a, b, topology.num_processors, wrap=False)
    if isinstance(topology, TorusTopology):
        return _grid_links(topology, a, b, wrap=True, cache=cache)
    if isinstance(topology, MeshTopology):
        return _grid_links(topology, a, b, wrap=False, cache=cache)
    if isinstance(topology, HypercubeTopology):
        return _hypercube_links(topology, a, b, cache=cache)
    if isinstance(topology, QuadtreeTopology):
        return _tree_links(topology, topology._zcodes, a, b, bits=2, cache=cache)
    if isinstance(topology, FatTreeTopology):
        return _tree_links(topology, topology._codes, a, b, bits=2, cache=cache)
    if isinstance(topology, DragonflyTopology):
        return _dragonfly_links(topology, a, b)
    if isinstance(topology, OctreeTopology):
        return _tree_links(topology, topology._codes, a, b, bits=3, cache=cache)
    if isinstance(topology, Torus3DTopology):
        return _grid3d_links(topology, a, b, wrap=True, cache=cache)
    if isinstance(topology, Mesh3DTopology):
        return _grid3d_links(topology, a, b, wrap=False, cache=cache)
    raise TypeError(f"no router registered for {type(topology).__name__}")


def route_batch(
    topology: Topology, src, dst, *, cache: TopologyCache | None = None
) -> RoutedBatch:
    """Route every ``(src, dst)`` pair in one vectorised pass.

    Every pair must be a genuine network message (``src != dst``);
    callers filter local traffic first.  Per-topology lookup tables are
    memoised in ``cache`` (the shared default when omitted), so repeated
    batches on the same network only pay for the path construction.

    The hop sequences agree link-for-link with the scalar :func:`route`
    (property-tested); only the representation differs.
    """
    a = np.ascontiguousarray(np.asarray(src, dtype=np.int64))
    b = np.ascontiguousarray(np.asarray(dst, dtype=np.int64))
    if a.shape != b.shape or a.ndim != 1:
        raise ValueError(f"src and dst must be equal-length 1D arrays, got {a.shape} vs {b.shape}")
    if a.size and np.any(a == b):
        raise ValueError("route_batch requires src != dst for every pair")
    if cache is None:
        cache = get_topology_cache()
    if not a.size:
        return RoutedBatch(
            links=np.empty(0, dtype=np.int64),
            offsets=np.zeros(1, dtype=np.int64),
            num_links=0,
        )
    links, offsets, num_links = _link_paths(topology, a, b, cache)
    return RoutedBatch(links=links, offsets=offsets, num_links=num_links)
