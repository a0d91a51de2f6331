import random

from hypothesis import given, settings
from hypothesis import strategies as st

from scx.kernels import flow_network, gf2_rank, unit_maxflow
from oracles import gf2_rank_dense


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
    assert gf2_rank(rows, ncols) == gf2_rank_dense(rows, ncols)


def test_gf2_rank_edge_cases():
    assert gf2_rank([], 10) == 0
    assert gf2_rank([0, 0], 4) == 0
    assert gf2_rank([1, 2, 4], 3) == 3
    assert gf2_rank([0b11, 0b110, 0b101], 3) == 2
    # duplicated rows collapse
    assert gf2_rank([7, 7, 7], 3) == 1


def test_gf2_rank_wide_matrix():
    # more than one 64-bit word per row
    rows = [1 << i for i in range(0, 200, 13)]
    assert gf2_rank(rows, 200) == len(rows)


@st.composite
def flow_instances(draw):
    n = draw(st.integers(min_value=2, max_value=14))
    m = draw(st.integers(min_value=0, max_value=42))
    arcs = []
    for _ in range(m):
        t = draw(st.integers(min_value=0, max_value=n - 1))
        h = draw(st.integers(min_value=0, max_value=n - 1))
        if t != h:
            arcs.append((t, h, draw(st.integers(min_value=1, max_value=3))))
    return n, arcs


@given(flow_instances())
@settings(max_examples=200, deadline=None)
def test_maxflow_returns_a_max_flow_min_cut_certificate(inst):
    n, arcs = inst
    tails = [a[0] for a in arcs]
    heads = [a[1] for a in arcs]
    caps = [a[2] for a in arcs]
    value, flows, reach = unit_maxflow(flow_network(n, tails, heads), caps, 0, n - 1)
    # conservation at interior nodes, capacity bounds
    assert all(0 <= f <= c for f, c in zip(flows, caps))
    net = [0] * n
    for (t, h), f in zip(zip(tails, heads), flows):
        net[t] -= f
        net[h] += f
    assert net[0] == -value and net[n - 1] == value
    assert all(net[i] == 0 for i in range(1, n - 1))
    # reach is the source side of a cut whose capacity equals the flow
    assert len(reach) == n and reach[0] and not reach[n - 1]
    side = [(reach[t], reach[h]) for t, h in zip(tails, heads)]
    assert sum(c for c, s in zip(caps, side) if s == (True, False)) == value
    assert all(f == 0 for f, s in zip(flows, side) if s == (False, True))


def test_maxflow_known_values():
    # two disjoint length-2 routes from 0 to 3
    net = flow_network(4, [0, 1, 0, 2], [1, 3, 2, 3])
    value, _, reach = unit_maxflow(net, [1, 1, 1, 1], 0, 3)
    assert value == 2 and reach == [True, False, False, False]
    # bottleneck through one middle vertex arc
    value, _, reach = unit_maxflow(flow_network(3, [0, 1], [1, 2]), [5, 2], 0, 2)
    assert value == 2 and reach == [True, True, False]


def test_maxflow_deterministic_repeat():
    rng = random.Random(5)
    for _ in range(30):
        n = rng.randint(3, 12)
        arcs = [
            (rng.randrange(n), rng.randrange(n))
            for _ in range(rng.randint(0, 30))
        ]
        arcs = [(t, h) for t, h in arcs if t != h]
        tails = [a[0] for a in arcs]
        heads = [a[1] for a in arcs]
        caps = [1] * len(arcs)
        first = unit_maxflow(flow_network(n, tails, heads), caps, 0, n - 1)
        second = unit_maxflow(flow_network(n, tails, heads), caps, 0, n - 1)
        assert first == second


def test_flow_network_lists_residual_arcs_in_input_order():
    out, to = flow_network(3, [0, 1, 0], [1, 2, 2])
    assert out == [[0, 4], [1, 2], [3, 5]]
    assert to == [1, 0, 2, 1, 2, 0]


def test_maxflow_reuses_one_network():
    rng = random.Random(11)
    for _ in range(30):
        n = rng.randint(3, 12)
        arcs = [
            (rng.randrange(n), rng.randrange(n))
            for _ in range(rng.randint(0, 30))
        ]
        arcs = [(t, h) for t, h in arcs if t != h]
        tails = [a[0] for a in arcs]
        heads = [a[1] for a in arcs]
        net = flow_network(n, tails, heads)
        before = ([list(x) for x in net[0]], list(net[1]))
        for _ in range(6):
            caps = [rng.randint(0, 3) for _ in arcs]
            s, t = rng.sample(range(n), 2)
            fresh = unit_maxflow(flow_network(n, tails, heads), caps, s, t)
            assert unit_maxflow(net, caps, s, t) == fresh
        assert net == before
