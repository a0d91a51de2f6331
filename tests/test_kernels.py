import itertools
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from scx.complexes import _iter_bits
from scx.generators import cross_polytope_boundary
from scx.graphs import SkeletonGraph, _reach, skeleton
from scx.kernels import gf2_rank, unit_maxflow
from oracles import brute_max_independent_family, brute_min_separator, gf2_rank_dense


@st.composite
def gf2_matrices(draw):
    ncols = draw(st.integers(min_value=1, max_value=70))
    nrows = draw(st.integers(min_value=0, max_value=40))
    rows = [
        draw(st.integers(min_value=0, max_value=(1 << ncols) - 1))
        for _ in range(nrows)
    ]
    return rows, ncols


@given(gf2_matrices())
@settings(max_examples=200, deadline=None)
def test_gf2_rank_matches_dense_oracle(data):
    rows, ncols = data
    assert gf2_rank(rows) == gf2_rank_dense(rows, ncols)


def test_gf2_rank_edge_cases():
    assert gf2_rank([]) == 0
    assert gf2_rank([0, 0]) == 0
    assert gf2_rank([1, 2, 4]) == 3
    assert gf2_rank([0b11, 0b110, 0b101]) == 2
    # duplicated rows collapse
    assert gf2_rank([7, 7, 7]) == 1


def test_gf2_rank_wide_matrix():
    # more than one 64-bit word per row
    rows = [1 << i for i in range(0, 200, 13)]
    assert gf2_rank(rows) == len(rows)


@st.composite
def pair_graphs(draw):
    """A graph on 2 to 9 vertices with two distinct vertices u and v."""
    n = draw(st.integers(min_value=2, max_value=9))
    pairs = list(itertools.combinations(range(n), 2))
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs)))
    u, v = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
    return SkeletonGraph(n, edges), u, v


def _paths(succ, u, v):
    """The paths of a flow, read off its successor masks."""
    paths = []
    for node in _iter_bits(succ[u]):
        path = [u, node]
        while node != v:
            node = succ[node].bit_length() - 1
            path.append(node)
        paths.append(path)
    return paths


@given(pair_graphs())
@settings(max_examples=150, deadline=None)
def test_maxflow_value_matches_brute_force(inst):
    g, u, v = inst
    value = unit_maxflow(g.masks, u, v)[0]
    if g.adjacent(u, v):
        assert value + 1 == brute_max_independent_family(g, u, v)
    else:
        assert value == brute_min_separator(g, u, v)


@given(pair_graphs())
@settings(max_examples=200, deadline=None)
def test_maxflow_returns_a_max_flow_min_cut_certificate(inst):
    """The paths avoid the direct edge and share no interior vertex, and
    the vertices whose in-node but not out-node was reached separate u
    from v without that edge, with as many vertices as there are paths."""
    g, u, v = inst
    value, succ, reach_in, reach_out = unit_maxflow(g.masks, u, v)
    paths = _paths(succ, u, v)
    assert len(paths) == value
    interiors = [w for path in paths for w in path[1:-1]]
    assert len(set(interiors)) == len(interiors) and not {u, v} & set(interiors)
    for path in paths:
        assert len(path) > 2
        assert all(g.adjacent(a, b) for a, b in zip(path, path[1:]))
    assert succ[v] == 0 and all(succ[w] == 0 for w in range(g.n) if w not in interiors and w != u)
    assert reach_out >> u & 1 and not (reach_in | reach_out) >> v & 1
    cut = reach_in & ~reach_out & ~(1 << u | 1 << v)
    assert cut.bit_count() == value
    masks = list(g.masks)
    masks[u] &= ~(1 << v)
    masks[v] &= ~(1 << u)
    around = ((1 << g.n) - 1) & ~cut
    assert not _reach(masks, 1 << u, around) >> v & 1


@given(pair_graphs())
@settings(max_examples=100, deadline=None)
def test_maxflow_deterministic_repeat(inst):
    g, u, v = inst
    first = unit_maxflow(g.masks, u, v)
    assert unit_maxflow(g.masks, u, v) == first
    assert unit_maxflow(list(g.masks), u, v) == first


def test_maxflow_known_values():
    octahedron = skeleton(cross_polytope_boundary(2))
    u, v = octahedron.id_of("m0"), octahedron.id_of("p0")
    value, succ, reach_in, reach_out = unit_maxflow(octahedron.masks, u, v)
    assert value == 4 and _paths(succ, u, v) == [[u, w, v] for w in range(6) if w not in (u, v)]
    assert (reach_in, reach_out) == (0b111111 & ~(1 << u | 1 << v), 1 << u)
    # an adjacent pair: the direct edge is left out
    assert unit_maxflow(octahedron.masks, u, octahedron.id_of("m1"))[0] == 3
    # two components: nothing flows and the search stays in u's component
    two = SkeletonGraph(5, [(0, 1), (1, 2), (3, 4)])
    assert unit_maxflow(two.masks, 0, 4) == (0, [0] * 5, 0b111, 0b111)
    # 0-1-2-5 is found first and 0-3-2 must then hand over 2, back from
    # in(2) to out(1), for 0-3-2-5 and 0-1-4-5
    trap = SkeletonGraph(6, [(0, 1), (0, 3), (1, 2), (1, 4), (2, 3), (2, 5), (4, 5)])
    value, succ, _, _ = unit_maxflow(trap.masks, 0, 5)
    assert value == 2 and _paths(succ, 0, 5) == [[0, 1, 4, 5], [0, 3, 2, 5]]
    # the path is 2-0-4-3-5; the last search reaches in(3) from out(6) and
    # walks back along the path, out(4) -> in(4) -> out(0), so the cut is {3}
    walk = SkeletonGraph(7, [(0, 2), (0, 4), (0, 6), (1, 2), (1, 6), (2, 5), (3, 4), (3, 5), (3, 6)])
    value, succ, reach_in, reach_out = unit_maxflow(walk.masks, 2, 5)
    assert value == 1 and _paths(succ, 2, 5) == [[2, 0, 4, 3, 5]]
    assert (reach_in, reach_out) == (0b1011111, 0b1010111)


def test_maxflow_reuses_one_network():
    """The skeleton's masks are the whole network: one tuple serves every
    pair of terminals and is left as it was."""
    rng = random.Random(11)
    for _ in range(30):
        n = rng.randint(3, 12)
        edges = [(a, b) for a, b in itertools.combinations(range(n), 2) if rng.random() < 0.4]
        masks = SkeletonGraph(n, edges).masks
        before = tuple(masks)
        for s, t in itertools.permutations(range(n), 2):
            assert unit_maxflow(masks, s, t) == unit_maxflow(tuple(before), s, t)
        assert masks == before
