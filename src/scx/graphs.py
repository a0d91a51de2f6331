"""The 1-skeleton graph and its connectivity machinery.

This module owns the vertex adjacency of a complex (``_adjacency_masks``):
per vertex, the OR of the facet masks holding it.  ``skeleton(c)`` wraps
that same tuple, which the clique search and neighborhood checks also read.

Every connectivity question of the package is answered by ``_reach``, a
frontier search over neighbor bitmasks: the skeleton's connectivity and
the check of each cut certificate here, the vertices outside a closed
neighborhood (``is_outside_connected``, on the complex's adjacency
bitmasks, so no subcomplex is built), strong connectivity and vertex
antistars on the facet ridge graph (``manifold``), and the facet
components of L4.4-homological (``analysis``).

Vertex connectivity and independent path families come out of one
unit-vertex-capacity flow network per graph.  Every vertex w is split
into an in-node 2w and an out-node 2w+1 joined by a capacity-1 arc, and
every edge a-b becomes the arcs 2a+1 -> 2b and 2b+1 -> 2a of capacity n,
so that minimum cuts consist of split arcs only.  A u-v flow runs from
the out-node of u to the in-node of v, so the split arcs of u and v
never carry flow.  Augmenting paths are found by BFS with
ascending-neighbor order, so path families and cut certificates are
deterministic.

Flow plan of ``vertex_connectivity`` (Esfahanian & Hakimi, Networks 14,
1984, with the grown source side of Even, SIAM J. Comput. 4, 1975, and
Henzinger, Rao & Gabow, J. Algorithms 34, 2000).  Let m be the
lowest-id vertex of minimum degree.  A minimum separator either contains
m, and then separates two non-adjacent neighbors of m, since every
vertex of a minimum separator has a neighbor on each side, or misses m,
and then separates m from one of its non-neighbors.  Each non-adjacent
pair of neighbors takes one flow.  The non-neighbors join m's side A
one at a time, starting from k = deg(m) and A = N(m); the next is the
one with the most neighbors in A, lowest id first.  If it has fewer
than k of them, one flow from m to it may lower k; otherwise it needs
no flow.  The final k is K, the least of deg(m) and the flows from m to
all its non-neighbors, none of which exceeds deg(m).  It is not below K,
as no flow is.  Nor is it above: if a separator of s < deg(m) vertices,
m not among them, cuts a part W off from m, the first vertex of W to be
taken has its neighbors in A inside the separator, so unless k <= s
already, its flow runs and is at most s.  (Even's algorithm also joins
m to each absorbed vertex; the argument does not need that edge, which
only raises later flows.)  The certificate then comes from a scan of
the non-adjacent pairs in lexicographic order that stops at the first
pair whose flow equals kappa, skipping neighbor pairs already known to
need more; that pair's cut is read off the source side that the flow's
last search labeled.  The residual arcs of the split network are built
once per call (``flow_network``) and every pair's flow starts from the
shared capacity vector; an adjacent pair gets a copy with its two
direct arcs set to 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .complexes import Label, SimplicialComplex, _iter_bits
from .errors import EmptyOutside, SameVertex, UnknownVertex
from .kernels import flow_network, unit_maxflow


class SkeletonGraph:
    """Simple undirected graph on dense vertex ids with display labels;
    bit x of ``masks[w]`` joins w and x."""

    __slots__ = ("n", "labels", "masks", "_index", "_connectivity")

    def __init__(
        self,
        n: int,
        edges: Iterable[tuple[int, int]],
        labels: Sequence[str] | None = None,
    ):
        labels = tuple(map(str, labels if labels is not None else range(n)))
        if len(labels) != n:
            raise ValueError("label count must match vertex count")
        if len(set(labels)) != n:
            raise ValueError("labels must be distinct")
        masks = [0] * n
        for a, b in edges:
            if not (0 <= a < n and 0 <= b < n):
                raise ValueError(f"edge ({a}, {b}) has an endpoint outside 0 ... {n - 1}")
            if a == b:
                raise ValueError("loops are not allowed")
            masks[a] |= 1 << b
            masks[b] |= 1 << a
        self._set(labels, {lab: i for i, lab in enumerate(labels)}, tuple(masks))

    def _set(self, labels: tuple[str, ...], index: dict[str, int], masks: tuple[int, ...]) -> None:
        self.n = len(labels)
        self.labels = labels
        self._index = index
        self.masks = masks
        self._connectivity: ConnectivityResult | None = None  # vertex_connectivity's memo

    @property
    def adj(self) -> tuple[tuple[int, ...], ...]:
        """``adj[w]`` lists w's neighbors, ascending."""
        return tuple(tuple(_iter_bits(m)) for m in self.masks)

    @property
    def n_edges(self) -> int:
        return sum(m.bit_count() for m in self.masks) // 2

    def id_of(self, label: str) -> int:
        try:
            return self._index[str(label)]
        except KeyError:
            raise UnknownVertex(f"unknown vertex {label!r}") from None

    def adjacent(self, u: int, v: int) -> bool:
        return self.masks[u] >> v & 1 == 1

    def is_complete(self) -> bool:
        return all(m.bit_count() == self.n - 1 for m in self.masks)

    def is_connected(self) -> bool:
        full = (1 << self.n) - 1
        return self.n > 0 and _reach(self.masks, 1, full) == full


def _adjacency_masks(c: SimplicialComplex) -> tuple[int, ...]:
    """Bit j of entry i says that ids i and j span an edge, that is, lie in
    one facet; kept in ``c``'s memo."""
    return c._cached("adjacency_masks", _build_adjacency_masks)


def _build_adjacency_masks(c: SimplicialComplex) -> tuple[int, ...]:
    masks = [0] * c.n_vertices
    for f, m in zip(c._facets, c._masks):
        for v in f:
            masks[v] |= m
    return tuple(m ^ (1 << v) for v, m in enumerate(masks))


def skeleton(c: SimplicialComplex) -> SkeletonGraph:
    """The graph with the complex's vertices as nodes and its edges as edges.

    Kept in the complex's memo, so repeated calls return the same graph.
    """
    return c._cached("skeleton", _skeleton)


def _skeleton(c: SimplicialComplex) -> SkeletonGraph:
    g = SkeletonGraph.__new__(SkeletonGraph)
    g._set(c.vertices, c._index, _adjacency_masks(c))
    return g


def neighborhood(c: SimplicialComplex, vertex: Label) -> frozenset[Label]:
    """The vertex together with all its skeleton neighbors."""
    g = skeleton(c)
    i = g.id_of(vertex)
    return frozenset(g.labels[j] for j in _iter_bits(g.masks[i] | 1 << i))


@dataclass(frozen=True)
class CutSet:
    vertices: tuple[str, ...]
    pair: tuple[str, str]


@dataclass(frozen=True)
class ConnectivityResult:
    value: int
    complete: bool
    cut: CutSet | None


@dataclass(frozen=True)
class PathFamily:
    endpoints: tuple[str, str]
    paths: tuple[tuple[str, ...], ...]

    def __len__(self) -> int:
        return len(self.paths)


# -- flow plumbing -----------------------------------------------------


@dataclass(frozen=True)
class _SplitNetwork:
    """The vertex-split flow network of a whole graph, shared by all pairs.

    Arc w < n is the split arc 2w -> 2w+1; the edge arcs follow, and
    ``arc_of`` maps each edge (a, b) to the index of its arc
    2a+1 -> 2b, in arc order.  ``network`` is the kernel's residual
    structure and ``caps`` the capacity of each arc.
    """

    network: tuple[list[list[int]], list[int]]
    caps: list[int]
    arc_of: dict[tuple[int, int], int]


def _split_network(g: SkeletonGraph) -> _SplitNetwork:
    big = g.n  # effectively infinite for unit vertex capacities
    tails = [2 * w for w in range(g.n)]
    heads = [2 * w + 1 for w in range(g.n)]
    caps = [1] * g.n
    arc_of: dict[tuple[int, int], int] = {}
    for a, mask in enumerate(g.masks):
        for b in _iter_bits(mask):
            arc_of[a, b] = len(tails)
            tails.append(2 * a + 1)
            heads.append(2 * b)
            caps.append(big)
    return _SplitNetwork(flow_network(2 * g.n, tails, heads), caps, arc_of)


def _pair_flow(g: SkeletonGraph, net: _SplitNetwork, u: int, v: int):
    """Maximum flow of internally disjoint u-v paths as ``(value, flows, reach)``.

    A direct edge u-v is left out (its arcs get capacity 0); callers
    account for it.
    """
    caps = net.caps
    if g.adjacent(u, v):
        caps = caps.copy()
        caps[net.arc_of[u, v]] = caps[net.arc_of[v, u]] = 0
    return unit_maxflow(net.network, caps, 2 * u + 1, 2 * v)


def local_connectivity(g: SkeletonGraph, u: int, v: int) -> int:
    """Maximum number of independent u-v paths."""
    if u == v:
        raise SameVertex("need two distinct vertices")
    value = _pair_flow(g, _split_network(g), u, v)[0]
    return value + (1 if g.adjacent(u, v) else 0)


def vertex_connectivity(g: SkeletonGraph) -> ConnectivityResult:
    """Vertex connectivity with a certificate.

    Complete graphs (and the one-vertex graph) have no cut; otherwise the
    certificate is a minimum cut set together with the lexicographically
    first non-adjacent pair it separates.  The result is kept on ``g``.

    Flows run for the non-adjacent pairs of neighbors of a minimum-degree
    vertex m, for the non-neighbors of m that the grown-side test of the
    module docstring cannot skip, and for the certificate scan's pairs.
    """
    if g._connectivity is None:
        g._connectivity = _vertex_connectivity(g)
    return g._connectivity


def _vertex_connectivity(g: SkeletonGraph) -> ConnectivityResult:
    if g.n <= 1:
        return ConnectivityResult(0, False, None)
    if g.is_complete():
        return ConnectivityResult(g.n - 1, True, None)
    full = (1 << g.n) - 1
    reached = _reach(g.masks, 1, full)
    if reached != full:
        outside = next(_iter_bits(full ^ reached))
        return ConnectivityResult(0, False, CutSet((), (g.labels[0], g.labels[outside])))
    net = _split_network(g)
    m = min(range(g.n), key=lambda w: g.masks[w].bit_count())
    near = tuple(_iter_bits(g.masks[m]))
    known = {
        (x, y): _pair_flow(g, net, x, y)[0]
        for i, x in enumerate(near)
        for y in near[i + 1 :]
        if not g.adjacent(x, y)
    }
    kappa = min([_absorbed_bound(g, net, m), *known.values()])
    for u in range(g.n):
        for v in range(u + 1, g.n):
            if g.adjacent(u, v) or known.get((u, v), kappa) > kappa:
                continue
            value, _, reach = _pair_flow(g, net, u, v)
            if value == kappa:
                # the separator: vertices whose in-node, but not out-node,
                # lies on the source side of the flow's minimum cut
                cut = tuple(
                    w
                    for w in range(g.n)
                    if w != u and w != v and reach[2 * w] and not reach[2 * w + 1]
                )
                _check_cut(g, cut, u, v)
                return ConnectivityResult(
                    kappa,
                    False,
                    CutSet(tuple(g.labels[w] for w in cut), (g.labels[u], g.labels[v])),
                )
    raise AssertionError("no non-adjacent pair attains the connectivity")


def _absorbed_bound(g: SkeletonGraph, net: _SplitNetwork, m: int) -> int:
    """min(deg m, least flow from ``m`` to a non-neighbor), as the module
    docstring argues."""
    k = g.masks[m].bit_count()
    in_side = [0] * g.n  # neighbors in m's side
    for x in _iter_bits(g.masks[m]):
        for y in _iter_bits(g.masks[x]):
            in_side[y] += 1
    rest = [w for w in range(g.n) if w != m and not g.adjacent(m, w)]
    while rest:
        w = max(rest, key=in_side.__getitem__)
        rest.remove(w)
        if in_side[w] < k:
            k = min(k, _pair_flow(g, net, m, w)[0])
        for y in _iter_bits(g.masks[w]):
            in_side[y] += 1
    return k


def _reach(masks: Sequence[int], seen: int, allowed: int) -> int:
    """The nodes reachable from the node set ``seen`` through nodes of ``allowed``.

    Bit j of ``masks[i]`` joins nodes i and j, and node sets are bitmasks;
    the result is ``seen`` with every node of ``allowed`` that a path inside
    ``allowed`` joins to it, found one frontier at a time.
    """
    frontier = seen
    while frontier:
        reach = 0
        for w in _iter_bits(frontier):
            reach |= masks[w]
        frontier = reach & allowed & ~seen
        seen |= frontier
    return seen


def _check_cut(g: SkeletonGraph, cut: tuple[int, ...], u: int, v: int) -> None:
    around = (1 << g.n) - 1 - sum(1 << w for w in cut)
    if _reach(g.masks, 1 << u, around) >> v & 1:
        raise AssertionError("flow cut certificate failed independent validation")


def independent_paths(g: SkeletonGraph, u_label: str, v_label: str) -> PathFamily:
    """A maximum family of u-v paths sharing no interior vertices."""
    u, v = g.id_of(u_label), g.id_of(v_label)
    if u == v:
        raise SameVertex("need two distinct vertices")
    net = _split_network(g)
    value, flows, _ = _pair_flow(g, net, u, v)

    # Decompose the flow: walk saturated edge arcs from u, consuming them.
    out_of: dict[int, list[int]] = {}
    for (a, b), i in net.arc_of.items():
        if flows[i] > 0:
            out_of.setdefault(a, []).append(b)
    for lst in out_of.values():
        lst.sort(reverse=True)  # pop() yields ascending ids

    paths = []
    starts = sorted(out_of.get(u, []), reverse=True)
    while starts:
        node = starts.pop()
        path = [u, node]
        while node != v:
            node = out_of[node].pop()
            path.append(node)
        paths.append(tuple(g.labels[w] for w in path))
    if g.adjacent(u, v):
        paths.insert(0, (g.labels[u], g.labels[v]))

    family = PathFamily((g.labels[u], g.labels[v]), tuple(paths))
    _validate_family(g, family)
    expected = value + (1 if g.adjacent(u, v) else 0)
    if len(family) != expected:
        raise AssertionError("flow decomposition lost a path")
    return family


def _validate_family(g: SkeletonGraph, family: PathFamily) -> None:
    """Re-check edge membership and interior disjointness, independently."""
    u, v = family.endpoints
    seen_interior: set[str] = set()
    for path in family.paths:
        if path[0] != u or path[-1] != v:
            raise AssertionError("path endpoints mismatch")
        for a, b in zip(path, path[1:]):
            if not g.adjacent(g.id_of(a), g.id_of(b)):
                raise AssertionError(f"family uses a non-edge {a}-{b}")
        interior = set(path[1:-1])
        if len(interior) != len(path) - 2 or interior & seen_interior:
            raise AssertionError("paths share an interior vertex")
        if u in interior or v in interior:
            raise AssertionError("endpoint reappears inside a path")
        seen_interior |= interior


# -- outside the closed neighborhood ------------------------------------


def is_outside_connected(c: SimplicialComplex, vertex: Label) -> bool:
    """Is the subcomplex induced on the vertices outside the closed
    neighborhood of ``vertex`` connected?

    The 1-skeleton of an induced subcomplex is the induced subgraph of the
    1-skeleton, so no subcomplex is built: the search runs over the
    parent's adjacency bitmasks, restricted to the outside vertices.
    """
    i = c._index.get(str(vertex))  # noqa: SLF001 - intra-package id view
    if i is None:
        raise UnknownVertex(f"unknown vertex {vertex!r}")
    masks = _adjacency_masks(c)
    rest = ((1 << c.n_vertices) - 1) & ~(masks[i] | 1 << i)
    if not rest:
        raise EmptyOutside(f"every vertex is adjacent to {vertex!r}")
    return _reach(masks, rest & -rest, rest) == rest
