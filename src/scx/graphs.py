"""The 1-skeleton graph and its connectivity machinery.

This module owns the vertex adjacency of a complex: ``skeleton(c).masks``
holds, per vertex, the OR of the facet masks holding it, less the vertex
itself.  The clique search and the neighborhood checks read that tuple.

Every graph search of the package but one is ``_reach``, a frontier
search over neighbor bitmasks: the skeleton's connectivity and the check
of each cut certificate here, the vertices outside a closed neighborhood
(``is_outside_connected``, on the skeleton's bitmasks, so no subcomplex
is built), strong connectivity and vertex antistars on the facet ridge
graph (``manifold``), and the facet components of L4.4-homological
(``analysis``).  The exception is the link connectivity of normality,
which ``manifold._connected`` decides by merging residue bitmasks.

Vertex connectivity and independent path families come out of
``kernels.unit_maxflow``, run on the skeleton's adjacency bitmasks
(``g.masks``) themselves.  Its flow network is the vertex split of
Even: every vertex w has an in-node and an out-node joined by an arc of
capacity 1, and every edge a-b gives uncapacitated arcs out(a) -> in(b)
and out(b) -> in(a), so that minimum cuts consist of split arcs only.
The network is never built.  Each augmenting search grows alternating
in-node and out-node layers as bitmasks with four moves: out(x) -> in(y)
along every edge, OR-ing neighbor masks; in(w) -> out(w) when w carries
no path; out(w) -> in(w) when it does; and in(y) -> out(pred y) back
along a path.  A u-v flow runs from out(u) to in(v), and the direct edge
u-v is left out.  Paths are recovered through the lowest-id node of each
layer, so path families and cut certificates are deterministic.

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
need more.  That pair's cut holds the vertices other than u and v whose
in-node, but not out-node, the flow's last search reached.  The nodes
that a residual search reaches from the source are the same for every
maximum flow, so the cut does not depend on which paths the flow found.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .complexes import Label, SimplicialComplex, _iter_bits, _memoized, _Record
from .errors import EmptyOutside, SameVertex, UnknownVertex
from .kernels import unit_maxflow


class SkeletonGraph:
    """Simple undirected graph on dense vertex ids with display labels;
    bit x of ``masks[w]`` joins w and x."""

    __slots__ = ("n", "labels", "masks", "_index", "_memo")

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
        self._memo: dict[str, object] = {}  # vertex_connectivity's

    @property
    def adj(self) -> tuple[tuple[int, ...], ...]:
        """``adj[w]`` lists w's neighbors, ascending."""
        return tuple(tuple(_iter_bits(m)) for m in self.masks)

    @property
    def n_edges(self) -> int:
        return sum(map(int.bit_count, self.masks)) // 2

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


@_memoized("skeleton")
def skeleton(c: SimplicialComplex) -> SkeletonGraph:
    """The graph with the complex's vertices as nodes and its edges as edges.

    Bit j of ``masks[i]`` says that ids i and j span an edge, that is, lie
    in one facet.  Kept in the complex's memo, so repeated calls return
    the same graph.
    """
    masks = [0] * c.n_vertices
    for f, m in zip(c._facets, c._masks):
        for v in f:
            masks[v] |= m
    g = SkeletonGraph.__new__(SkeletonGraph)
    g._set(c.vertices, c._index, tuple(m ^ (1 << v) for v, m in enumerate(masks)))
    return g


def neighborhood(c: SimplicialComplex, vertex: Label) -> frozenset[Label]:
    """The vertex together with all its skeleton neighbors."""
    g = skeleton(c)
    i = g.id_of(vertex)
    return frozenset(g.labels[j] for j in _iter_bits(g.masks[i] | 1 << i))


class CutSet(_Record):
    __slots__ = ()
    vertices: tuple[str, ...]
    pair: tuple[str, str]


class ConnectivityResult(_Record):
    __slots__ = ()
    value: int
    complete: bool
    cut: CutSet | None


class PathFamily(_Record):
    __slots__ = ()
    endpoints: tuple[str, str]
    paths: tuple[tuple[str, ...], ...]

    def __len__(self) -> int:
        return len(self.paths)


def local_connectivity(g: SkeletonGraph, u: int, v: int) -> int:
    """Maximum number of independent u-v paths."""
    if u == v:
        raise SameVertex("need two distinct vertices")
    value = unit_maxflow(g.masks, u, v)[0]
    return value + (1 if g.adjacent(u, v) else 0)


@_memoized("connectivity")
def vertex_connectivity(g: SkeletonGraph) -> ConnectivityResult:
    """Vertex connectivity with a certificate.

    Complete graphs (and the one-vertex graph) have no cut; otherwise the
    certificate is a minimum cut set together with the lexicographically
    first non-adjacent pair it separates.  The result is kept in ``g``'s memo.

    Flows run for the non-adjacent pairs of neighbors of a minimum-degree
    vertex m, for the non-neighbors of m that the grown-side test of the
    module docstring cannot skip, and for the certificate scan's pairs.
    """
    if g.n <= 1:
        return ConnectivityResult(0, False, None)
    if g.is_complete():
        return ConnectivityResult(g.n - 1, True, None)
    full = (1 << g.n) - 1
    reached = _reach(g.masks, 1, full)
    if reached != full:
        outside = next(_iter_bits(full ^ reached))
        return ConnectivityResult(0, False, CutSet((), (g.labels[0], g.labels[outside])))
    m = min(range(g.n), key=lambda w: g.masks[w].bit_count())
    near = tuple(_iter_bits(g.masks[m]))
    known = {
        (x, y): unit_maxflow(g.masks, x, y)[0]
        for i, x in enumerate(near)
        for y in near[i + 1 :]
        if not g.adjacent(x, y)
    }
    kappa = min([_absorbed_bound(g, m), *known.values()])
    for u in range(g.n):
        for v in range(u + 1, g.n):
            if g.adjacent(u, v) or known.get((u, v), kappa) > kappa:
                continue
            value, _, reach_in, reach_out = unit_maxflow(g.masks, u, v)
            if value == kappa:
                # the separator: vertices whose in-node, but not out-node,
                # lies on the source side of the flow's minimum cut
                cut = tuple(_iter_bits(reach_in & ~reach_out & ~(1 << u | 1 << v)))
                _check_cut(g, cut, u, v, kappa)
                return ConnectivityResult(
                    kappa,
                    False,
                    CutSet(tuple(g.labels[w] for w in cut), (g.labels[u], g.labels[v])),
                )
    raise AssertionError("no non-adjacent pair attains the connectivity")


def _absorbed_bound(g: SkeletonGraph, m: int) -> int:
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
            k = min(k, unit_maxflow(g.masks, m, w)[0])
        for y in _iter_bits(g.masks[w]):
            in_side[y] += 1
    return k


def _reach(masks: Sequence[int], seen: int, allowed: int) -> int:
    """The nodes reachable from the node set ``seen`` through nodes of ``allowed``.

    Node sets are bitmasks, and bit j of ``masks[i]`` joins nodes i and j.  The
    result adds to ``seen`` every node of ``allowed`` that a path inside ``allowed``
    joins to it.  It grows one frontier at a time, walked inline lowest bit first.
    """
    frontier = seen
    while frontier:
        reach = 0
        while frontier:
            low = frontier & -frontier
            reach |= masks[low.bit_length() - 1]
            frontier ^= low
        frontier = reach & allowed & ~seen
        seen |= frontier
    return seen


def _check_cut(g: SkeletonGraph, cut: tuple[int, ...], u: int, v: int, kappa: int) -> None:
    """Raise unless ``cut`` has ``kappa`` vertices and separates u from v."""
    around = (1 << g.n) - 1 - sum(1 << w for w in cut)
    if len(cut) != kappa or _reach(g.masks, 1 << u, around) >> v & 1:
        raise AssertionError("flow cut certificate failed independent validation")


def independent_paths(g: SkeletonGraph, u_label: str, v_label: str) -> PathFamily:
    """A maximum family of u-v paths sharing no interior vertices."""
    u, v = g.id_of(u_label), g.id_of(v_label)
    if u == v:
        raise SameVertex("need two distinct vertices")
    value, succ, _, _ = unit_maxflow(g.masks, u, v)

    # Decompose the flow: follow each path from its first hop, ascending.
    paths = []
    for node in _iter_bits(succ[u]):
        path = [u, node]
        while node != v:
            node = succ[node].bit_length() - 1
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
    parent's skeleton bitmasks, restricted to the outside vertices.
    """
    i = c._index.get(str(vertex))  # noqa: SLF001 - intra-package id view
    if i is None:
        raise UnknownVertex(f"unknown vertex {vertex!r}")
    masks = skeleton(c).masks
    rest = ((1 << c.n_vertices) - 1) & ~(masks[i] | 1 << i)
    if not rest:
        raise EmptyOutside(f"every vertex is adjacent to {vertex!r}")
    return _reach(masks, rest & -rest, rest) == rest
