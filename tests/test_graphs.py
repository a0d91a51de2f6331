import itertools
import random

import pytest

import scx.graphs
from scx.banner import classify
from scx.complexes import _iter_bits, from_facets
from scx.errors import EmptyOutside, SameVertex
from scx.generators import (
    cross_polytope_boundary,
    cycle,
    fan_ball,
    ring_ball,
    simplex_boundary,
    stacked_sphere,
)
from scx.graphs import (
    SkeletonGraph,
    independent_paths,
    is_outside_connected,
    local_connectivity,
    neighborhood,
    skeleton,
    vertex_connectivity,
)
from scx.kernels import unit_maxflow
from scx.manifold import is_pseudomanifold

from oracles import (
    all_pairs_connectivity,
    brute_max_independent_family,
    brute_min_separator,
    brute_min_vertex_cut,
    outside_subcomplex,
    pair_cuts_by_split_network,
)


def random_graph(n, p, seed):
    rng = random.Random(seed)
    edges = [
        (a, b) for a, b in itertools.combinations(range(n), 2) if rng.random() < p
    ]
    return SkeletonGraph(n, edges)


def test_skeleton_counts():
    g = skeleton(ring_ball())
    assert g.n == 16 and g.n_edges == 54
    assert skeleton(simplex_boundary(4)).is_complete()


@pytest.mark.parametrize("edges", [[(0, -1), (1, 2)], [(0, 3)]])
def test_skeleton_graph_rejects_an_endpoint_out_of_range(edges):
    bad = edges[0]
    with pytest.raises(ValueError, match=rf"edge \({bad[0]}, {bad[1]}\) has an endpoint outside"):
        SkeletonGraph(3, edges)


@pytest.mark.parametrize("labels", [("a", "a", "b"), ("1", 1, "b")])
def test_skeleton_graph_rejects_repeated_labels(labels):
    # a repeated label would let a cut certificate name an endpoint's label
    with pytest.raises(ValueError, match="labels must be distinct"):
        SkeletonGraph(3, [(0, 1), (1, 2)], labels=labels)


def test_skeleton_graph_keeps_labels_as_strings():
    g = SkeletonGraph(3, [(0, 1), (1, 2)], labels=(10, 11, 12))
    assert g.labels == ("10", "11", "12")
    assert [g.id_of(v) for v in (10, "11", 12)] == [0, 1, 2]
    assert vertex_connectivity(g).cut.vertices == ("11",)
    assert independent_paths(g, 10, 12).paths == (("10", "11", "12"),)


def test_skeleton_of_a_complex_shares_its_adjacency():
    c = cross_polytope_boundary(2)
    g = skeleton(c)
    assert skeleton(c) is g and g.labels is c.vertices
    rebuilt = SkeletonGraph(c.n_vertices, c.faces_ids(2), labels=c.vertices)
    assert (g.n, g.masks, g.adj) == (rebuilt.n, rebuilt.masks, rebuilt.adj)
    assert [g.id_of(v) for v in c.vertices] == list(range(c.n_vertices))


def test_skeleton_graph_adjacency_from_masks():
    g = SkeletonGraph(4, [(2, 0), (0, 1), (1, 2), (0, 1)])
    assert g.masks == (0b0110, 0b0101, 0b0011, 0)
    assert g.adj == ((1, 2), (0, 2), (0, 1), ())
    assert g.adjacent(0, 2) and g.adjacent(2, 0) and not g.adjacent(0, 3)
    assert g.n_edges == 3 and not g.is_connected()
    with pytest.raises(ValueError, match="loops"):
        SkeletonGraph(2, [(1, 1)])


def test_neighborhood_includes_self():
    c = cycle(4)
    assert neighborhood(c, "c0") == frozenset({"c0", "c1", "c3"})


def test_connectivity_known_values():
    assert vertex_connectivity(skeleton(cycle(6))).value == 2
    assert vertex_connectivity(skeleton(simplex_boundary(4))).value == 4  # K5
    octa = vertex_connectivity(skeleton(cross_polytope_boundary(2)))
    assert octa.value == 4 and not octa.complete
    assert vertex_connectivity(SkeletonGraph(1, [])).value == 0
    assert vertex_connectivity(SkeletonGraph(4, [(0, 1), (2, 3)])).value == 0


def test_connectivity_cut_certificate():
    res = vertex_connectivity(skeleton(cycle(5)))
    assert res.cut is not None
    assert len(res.cut.vertices) == res.value == 2


def test_connectivity_matches_brute_force_corpus(corpus):
    for name, c in corpus.items():
        g = skeleton(c)
        if g.n > 10:
            continue
        assert vertex_connectivity(g).value == brute_min_vertex_cut(g), name


def test_menger_agreement_on_corpus(corpus):
    for name, c in corpus.items():
        g = skeleton(c)
        if g.n > 12:
            continue
        for u in range(g.n):
            for v in range(u + 1, g.n):
                if g.adjacent(u, v):
                    continue
                flow = local_connectivity(g, u, v)
                assert flow == brute_min_separator(g, u, v), (name, u, v)


def test_independent_paths_examples():
    k4 = skeleton(simplex_boundary(3))
    fam = independent_paths(k4, "v0", "v1")
    assert len(fam) == 3

    path = SkeletonGraph(3, [(0, 1), (1, 2)], labels=("a", "b", "c"))
    fam = independent_paths(path, "a", "c")
    assert fam.paths == (("a", "b", "c"),)

    octa = skeleton(cross_polytope_boundary(2))
    fam = independent_paths(octa, "p0", "m0")
    assert len(fam) == 4


def test_independent_paths_same_vertex():
    with pytest.raises(SameVertex):
        independent_paths(skeleton(cycle(4)), "c1", "c1")


def test_independent_paths_deterministic():
    g = skeleton(cross_polytope_boundary(3))
    a = independent_paths(g, "p0", "m0")
    b = independent_paths(g, "p0", "m0")
    assert a == b


def test_cut_check_searches_around_the_cut():
    g = skeleton(cycle(5))
    u, v = g.id_of("c0"), g.id_of("c2")
    full = (1 << 5) - 1
    assert scx.graphs._reach(g.masks, 1 << u, full - (1 << 1 | 1 << 3)) == 1 << 0 | 1 << 4
    assert scx.graphs._reach(g.masks, 1 << u, full) == full
    scx.graphs._check_cut(g, (1, 3), u, v, 2)
    with pytest.raises(AssertionError, match="independent validation"):
        scx.graphs._check_cut(g, (1,), u, v, 1)
    with pytest.raises(AssertionError, match="independent validation"):
        scx.graphs._check_cut(g, (1, 3, 4), u, v, 2)  # separates, but is not least


def test_connectivity_rejects_a_cut_larger_than_kappa(monkeypatch):
    """A flow whose source side reaches one in-node too many gives a cut of
    kappa + 1 vertices that still separates its pair; it must not pass."""
    g = skeleton(stacked_sphere(2, 5, 11))
    kernel = scx.graphs.unit_maxflow

    def widened(masks, source, sink):
        value, succ, reach_in, reach_out = kernel(masks, source, sink)
        spare = ((1 << len(masks)) - 1) & ~(reach_in | reach_out | 1 << source | 1 << sink)
        return value, succ, reach_in | spare & -spare, reach_out

    assert vertex_connectivity.__wrapped__(g).value == 3  # not kept on g
    monkeypatch.setattr(scx.graphs, "unit_maxflow", widened)
    with pytest.raises(AssertionError, match="independent validation"):
        vertex_connectivity(g)


def test_neighborhood_containment_absent_in_banner_pseudomanifolds(corpus):
    # edges of banner closed pseudomanifolds never have nested neighborhoods
    for name, c in corpus.items():
        if not c.is_pure or is_pseudomanifold(c) != "closed":
            continue
        if not classify(c).banner:
            continue
        hoods = {v: neighborhood(c, v) for v in c.vertices}
        for x, y in c.faces(2):
            assert not hoods[y] <= hoods[x], (name, x, y)
            assert not hoods[x] <= hoods[y], (name, x, y)


def test_banner_pseudomanifold_skeleton_not_complete(corpus):
    for name, c in corpus.items():
        if not c.is_pure or is_pseudomanifold(c) != "closed":
            continue
        if classify(c).banner:
            assert not skeleton(c).is_complete(), name


def test_outside_subcomplex_on_cycle():
    c = cycle(4)
    out = outside_subcomplex(c, "c0")
    assert out.vertices == ("c2",)
    assert is_outside_connected(c, "c0")


def test_outside_subcomplex_empty():
    with pytest.raises(EmptyOutside):
        outside_subcomplex(simplex_boundary(3), "v0")


def test_outside_connected_raises_on_an_empty_outside():
    with pytest.raises(EmptyOutside, match="every vertex is adjacent to 'v0'"):
        is_outside_connected(simplex_boundary(3), "v0")


def test_outside_connected_for_banner_pseudomanifolds(corpus):
    for name, c in corpus.items():
        if not c.is_pure or is_pseudomanifold(c) != "closed":
            continue
        if not classify(c).banner:
            continue
        for v in c.vertices:
            assert is_outside_connected(c, v), (name, v)


def test_fan_sphere_outside_disconnected():
    # the two interior fan centers survive as a disconnected non-neighborhood
    ball = fan_ball()
    sphere = ball.tilde()
    apex = (set(sphere.vertices) - set(ball.vertices)).pop()
    assert not classify(sphere).banner
    out = outside_subcomplex(sphere, apex)
    assert set(out.vertices) == {"u", "w"}
    assert not is_outside_connected(sphere, apex)


def test_flow_kappa_matches_brute_on_random_graphs():
    cases = 0
    for seed in range(40):
        n = 5 + seed % 6
        g = random_graph(n, 0.25 + 0.1 * (seed % 5), seed=900 + seed)
        assert vertex_connectivity(g).value == brute_min_vertex_cut(g), seed
        cases += 1
    assert cases == 40


def test_flow_paths_match_brute_families_on_random_graphs():
    for seed in range(25):
        g = random_graph(5 + seed % 5, 0.4, seed=300 + seed)
        for u in range(g.n):
            for v in range(u + 1, g.n):
                if g.adjacent(u, v):
                    continue
                flow = local_connectivity(g, u, v)
                assert flow == brute_max_independent_family(g, u, v), (seed, u, v)


def _certificate(g):
    res = vertex_connectivity(g)
    assert res.complete == (g.n > 1 and g.is_complete())
    if res.cut is None:
        return res.value, None, None
    return res.value, res.cut.vertices, res.cut.pair


def _special_graphs():
    for n in range(0, 7):
        yield f"complete {n}", SkeletonGraph(n, itertools.combinations(range(n), 2))
    for n in range(2, 9):
        yield f"path {n}", SkeletonGraph(n, [(i, i + 1) for i in range(n - 1)])
    for n in range(3, 9):
        yield f"star {n}", SkeletonGraph(n, [(0, i) for i in range(1, n)])
    yield "two edges", SkeletonGraph(4, [(0, 1), (2, 3)])
    yield "isolated vertices", SkeletonGraph(3, [])
    yield "triangle and isolated vertex", SkeletonGraph(4, [(1, 2), (2, 3), (1, 3)])
    yield "later absorbed flow is larger", _absorbed_flows_rise()


def _absorbed_flows_rise():
    """A graph where a later absorbed vertex needs a larger flow than an
    earlier one, so ``_absorbed_bound`` must keep the least flow.

    m (degree 4) sees the clique abcd.  The clique u u2 u3 u4 hangs off abc,
    so abc separates m from u, which is absorbed first with flow 3.  The
    clique x1 x2 x3 w is joined by the matching a-x1, b-x2, c-x3, d-w, so x1
    comes later with flow 4.  Kappa is 3, with the cut abc for the pair m u.
    """
    labels = ("m", "a", "b", "c", "d", "u", "u2", "u3", "u4", "x1", "x2", "x3", "w")
    at = {v: i for i, v in enumerate(labels)}
    edges = [("m", v) for v in "abcd"]
    for clique in ("abcd", ("u", "u2", "u3", "u4"), ("x1", "x2", "x3", "w")):
        edges += itertools.combinations(clique, 2)
    edges += [(u, v) for u in ("u", "u2", "u3", "u4") for v in "abc"]
    edges += [("a", "x1"), ("b", "x2"), ("c", "x3"), ("d", "w")]
    return SkeletonGraph(len(labels), [(at[a], at[b]) for a, b in edges], labels=labels)


def test_connectivity_certificate_matches_all_pairs_reference():
    cases = list(_special_graphs())
    for seed in range(120):
        n = 2 + seed % 11
        p = (0.15, 0.3, 0.5, 0.7, 0.9)[seed % 5]
        cases.append((f"random seed {seed}", random_graph(n, p, seed=5000 + seed)))
    # enough 10-vertex graphs that a flow whose last search reaches one
    # in-node too many shows up as a cut larger than kappa
    cases += [(f"10 vertices seed {seed}", random_graph(10, 0.4, seed=seed)) for seed in range(300)]
    kinds = {"disconnected": 0, "complete": 0, "other": 0}
    for name, g in cases:
        expected = all_pairs_connectivity(g)
        assert _certificate(g) == expected, name
        if expected[1] == ():
            kinds["disconnected"] += 1
        elif expected[1] is None:
            kinds["complete"] += 1
        else:
            kinds["other"] += 1
    assert len(cases) >= 100 and min(kinds.values()) >= 10, kinds


def _counted_flows(monkeypatch):
    calls = []
    kernel = scx.graphs.unit_maxflow

    def counted(*args):
        calls.append(args[-2:])
        return kernel(*args)

    monkeypatch.setattr(scx.graphs, "unit_maxflow", counted)
    return calls


def test_connectivity_flow_count_on_large_stacked_sphere(monkeypatch):
    # each non-neighbor of m has at least deg(m) = 3 neighbors in m's grown
    # side when it is taken, so the one flow is the certificate scan's
    calls = _counted_flows(monkeypatch)
    res = vertex_connectivity(skeleton(stacked_sphere(2, 150, 7)))
    assert len(calls) == 1
    assert res.value == 3 and not res.complete
    assert res.cut.vertices == ("v0", "v2", "v3")
    assert res.cut.pair == ("s0", "s1")


def _barycentric(c):
    """The barycentric subdivision: one vertex per face, one facet per chain."""
    facets = []
    for facet in c.facets:
        for order in itertools.permutations(facet):
            facets.append(["-".join(sorted(order[:k])) for k in range(1, len(order) + 1)])
    return from_facets(facets)


def test_connectivity_flow_count_on_subdivided_octahedron(monkeypatch):
    # m is an octahedron vertex of degree 4 with 21 non-neighbors, of which 16
    # have fewer than 4 neighbors in m's grown side when absorbed
    g = skeleton(_barycentric(cross_polytope_boundary(2)))
    calls = _counted_flows(monkeypatch)
    res = vertex_connectivity(g)
    adj = g.adj
    m = min(range(g.n), key=lambda w: len(adj[w]))
    assert (g.n, len(adj[m])) == (26, 4)
    # the absorbed flows leave m, which here no other flow does
    assert sum(source == m for source, _ in calls) == 16
    assert len(calls) == 19  # and two neighbor pairs and one certificate flow
    assert res.value == 4
    assert res.cut.vertices == ("m0-m1-m2", "m1", "m1-m2-p0", "m2")
    assert res.cut.pair == ("m0", "m1-m2")


def _two_blobs(seed):
    """Two dense blobs joined by a separator S of 1 to 3 vertices, shuffled.

    A planted hub in the first blob has more neighbors than S has vertices
    and none in S, so S separates the hub's side from the second blob and
    holds neither the hub nor a neighbor of it.  Returns the graph, the
    hub's id and the size of S.
    """
    rng = random.Random(seed)
    s = rng.randint(1, 3)
    t = s + rng.randint(1, 2)
    a, b = rng.randint(t + 2, 8), rng.randint(t + 1, 7)
    first, second = list(range(1, a)), list(range(a, a + b))
    edges = {(0, x) for x in rng.sample(first, t)}
    for part in (first, second):
        edges |= {e for e in itertools.combinations(part, 2) if rng.random() < 0.9}
    for x in range(a + b, a + b + s):
        edges |= {(rng.choice(first), x), (rng.choice(second), x)}
        edges |= {(y, x) for y in first + second if rng.random() < 0.6}
    perm = list(range(a + b + s))
    rng.shuffle(perm)
    return SkeletonGraph(len(perm), [(perm[x], perm[y]) for x, y in edges]), perm[0], s


def test_absorbing_matches_all_pairs_reference_on_two_blobs():
    below_degree = 0
    for seed in range(200):
        g, hub, s = _two_blobs(3000 + seed)
        expected = all_pairs_connectivity(g)
        assert _certificate(g) == expected, seed
        adj = g.adj
        m = min(range(g.n), key=lambda w: len(adj[w]))
        if m == hub and expected[0] == s < len(adj[m]):
            below_degree += 1
    assert below_degree >= 100, below_degree


def test_pair_cuts_match_the_split_network_oracle_on_random_graphs():
    """Value and cut of the flow at every ordered pair against flows on an
    explicit split network.  On these graphs a search sometimes walks a
    path back two vertices, in(succ w) -> out(w) -> in(w) -> out(pred w),
    to reach the out-node of a vertex that is then not in the cut; no
    skeleton on five vertices needs that move."""
    for seed in range(12):
        g = random_graph(12, 0.3, seed)
        pairs = itertools.permutations(range(g.n), 2)
        for (u, v), expected in pair_cuts_by_split_network(g, pairs).items():
            value, _, reach_in, reach_out = unit_maxflow(g.masks, u, v)
            cut = tuple(_iter_bits(reach_in & ~reach_out & ~(1 << u | 1 << v)))
            assert (value, cut) == expected, (seed, u, v)


def test_connectivity_runs_every_flow_on_the_skeleton_masks(monkeypatch):
    """No flow network is built: each flow reads the skeleton's own masks."""
    seen = []
    kernel = scx.graphs.unit_maxflow

    def counted(masks, source, sink):
        seen.append(masks)
        return kernel(masks, source, sink)

    monkeypatch.setattr(scx.graphs, "unit_maxflow", counted)
    graphs = [skeleton(stacked_sphere(2, 40, 3)), skeleton(cross_polytope_boundary(3))]
    graphs += [random_graph(6 + seed % 5, 0.5, seed=800 + seed) for seed in range(20)]
    for g in graphs:
        seen.clear()
        vertex_connectivity(g)
        flows_needed = g.n > 1 and g.is_connected() and not g.is_complete()
        assert bool(seen) == flows_needed
        assert all(masks is g.masks for masks in seen)
    assert sum(1 for g in graphs if g.is_connected() and not g.is_complete()) >= 10
