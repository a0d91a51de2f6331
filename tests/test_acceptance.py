"""Acceptance suite: one test per numbered criterion, each printing a
PASS/FAIL line and enforcing its time budget.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import itertools
import random
import sys
import time
from contextlib import contextmanager

import pytest

from scx.analysis import verify_corpus, verify_property
from scx.banner import banner_number, classify, cliques, is_triangle_cycle
from scx.complexes import from_facets
from scx.generators import (
    banana,
    catalog,
    complete_graph_edges,
    cross_polytope_boundary,
    display_name,
    ring_ball,
    simplex_boundary,
)
from scx.graphs import (
    SkeletonGraph,
    is_outside_connected,
    local_connectivity,
    neighborhood,
    skeleton,
    vertex_connectivity,
)
from scx.homology import sphere_pattern, z2_betti, z2_relative_betti
from scx.manifold import find_shelling, is_homology_manifold, is_pseudomanifold, manifold_class

from oracles import brute_max_independent_family, brute_min_vertex_cut, euler_characteristic_checks


@contextmanager
def criterion(tag, description, budget_seconds):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[{tag}] {description}: FAIL", file=sys.stderr)
        raise
    elapsed = time.perf_counter() - start
    print(f"[{tag}] {description}: PASS ({elapsed:.2f}s)")
    assert elapsed < budget_seconds, f"{tag} exceeded {budget_seconds}s budget"


def _closed_normal_entries():
    out = []
    for spec, c in catalog():
        if not c.is_pure:
            continue
        mc = manifold_class(c)
        if mc.pseudomanifold == "closed" and mc.normal:
            out.append((display_name(spec), c))
    return out


def test_c1_ring_ball_reproduction():
    with criterion("C1", "ring ball reproduction", 5.0):
        ball = ring_ball()
        assert ball.f_vector() == (1, 16, 54, 65, 26)
        bd = ball.boundary()
        assert bd is not None and bd.f_vector() == (1, 15, 39, 26)

        empty_triangles = [
            t for t in cliques(ball, 3) if not ball.has_face(t)
        ]
        assert empty_triangles == [("x1", "x2", "x3")]

        cls = classify(ball)
        assert cls.strongly_banner and not cls.flag

        star = ball.star("y").facets
        assert len(star) == 8
        order = find_shelling(ball, star)
        assert order is not None
        assert set(order.facets[:8]) == set(star)


def test_c2_banana_reproduction():
    with criterion("C2", "banana classifications", 1.0):
        k3 = classify(banana(complete_graph_edges(3)))
        assert k3.strongly_banner and not k3.flag
        k4 = classify(banana(complete_graph_edges(4)))
        assert k4.banner and not k4.strongly_banner


def test_c3_connectivity_bound_over_corpus():
    with criterion("C3", "connectivity bound on all closed normal entries", 60.0):
        entries = _closed_normal_entries()
        assert len(entries) >= 20
        for name, c in entries:
            assert c.dim <= 4 and c.n_vertices <= 30, name
            bn = banner_number(c)
            assert bn.value is not None, name
            kappa = vertex_connectivity(skeleton(c)).value
            assert kappa >= 2 * c.dim - bn.value, (name, kappa, bn.value)
            assert kappa >= c.dim + 1, (name, kappa)  # pseudomanifold floor


def test_c3_barnette_tight_endpoints():
    with criterion("C3", "simplex boundaries sit at the d+1 endpoint", 60.0):
        for d in (1, 2, 3, 4):
            c = simplex_boundary(d + 1)
            assert banner_number(c).value == max(d - 1, 0)
            res = vertex_connectivity(skeleton(c))
            assert res.complete and res.value == d + 1
            assert d + 1 == 2 * d - (d - 1)


def test_c3_athanasiadis_tight_octahedron():
    with criterion("C3", "octahedron meets the 2d endpoint exactly", 60.0):
        c = cross_polytope_boundary(2)
        assert banner_number(c).value == 0
        assert vertex_connectivity(skeleton(c)).value == 4 == 2 * c.dim


def test_c3_athanasiadis_tight_ring_sphere():
    # The coned ring ball would have to be strongly banner with a
    # 6-connected skeleton to sit at the 2d endpoint.  The built complex
    # is neither: the apex forms critical non-spanning 4-cliques over
    # interior edges of the ball (for example apex-a1-a2-b1), its banner
    # number is 2, and vertices of the outer squares have degree 5, which
    # caps the connectivity at 5.  Kept as stated and expected to fail.
    with criterion("C3", "ring sphere meets the 2d endpoint", 60.0):
        c = ring_ball().tilde()
        cls = classify(c)
        kappa = vertex_connectivity(skeleton(c)).value
        assert cls.strongly_banner, (
            f"not strongly banner; witness {cls.witness}"
        )
        assert kappa == 2 * c.dim, f"connectivity is {kappa}, not {2 * c.dim}"


LEMMA_SUITE = ("L2.1", "L4.2", "L4.3", "L4.4", "L5.2", "P3.7", "P3.8i", "P3.8ii")


def test_c4_lemma_suite_zero_failures():
    with criterion("C4", "lemma suite clean over the corpus", 120.0):
        summary = verify_corpus(properties=LEMMA_SUITE)
        assert summary.failures == ()
        verdicts = {(r.name, r.property_id): r.verdict for r in summary.rows}
        # hypothesis-unmet cases surface as skip, never as pass
        assert verdicts[("ring-sphere", "L4.2")] == "skip"
        assert verdicts[("banana-complete-4", "L4.3")] == "skip"
        assert verdicts[("fan-sphere", "L4.4")] == "skip"
        assert verdicts[("cycle-5", "P3.7")] == "skip"
        assert verdicts[("cross-polytope-3", "L4.4")] == "pass"
        assert any(v == "pass" for v in verdicts.values())


def test_c5_homological_cross_check():
    with criterion("C5", "relative homology matches outside connectivity", 60.0):
        checked = 0
        for spec, c in catalog():
            if not c.is_pure or not classify(c).banner:
                continue
            ok, _ = is_homology_manifold(c)
            if not ok:
                continue
            d = c.dim
            for v in c.vertices:
                hood = c.induced(neighborhood(c, v))
                betti = z2_betti(hood) + (0,) * (d + 1 - len(z2_betti(hood)))
                assert betti[d] == 0, (display_name(spec), v)
                if d >= 1:
                    assert betti[d - 1] == 0, (display_name(spec), v)
                rel = z2_relative_betti(c, hood)
                assert rel[d] == 1, (display_name(spec), v)
                assert is_outside_connected(c, v) == (rel[d] == 1)
                checked += 1
        assert checked >= 40  # several complexes, every vertex


def _random_graph(n, p, seed):
    rng = random.Random(seed)
    edges = [
        (a, b)
        for a, b in itertools.combinations(range(n), 2)
        if rng.random() < p
    ]
    return SkeletonGraph(n, edges)


def test_c6_oracle_equivalence():
    with criterion("C6", "flow equals brute force on corpus and random graphs", 120.0):
        graphs = []
        for spec, c in catalog():
            g = skeleton(c)
            if g.n <= 10:
                graphs.append((display_name(spec), g))
        for i in range(100):
            n = 5 + i % 6
            p = (25 + (i * 7) % 40) / 100
            graphs.append((f"random-{i}", _random_graph(n, p, seed=5000 + i)))
        assert sum(1 for name, _ in graphs if name.startswith("random-")) == 100

        for name, g in graphs:
            assert vertex_connectivity(g).value == brute_min_vertex_cut(g), name
            for u in range(g.n):
                for v in range(u + 1, g.n):
                    if g.adjacent(u, v):
                        continue
                    flow = local_connectivity(g, u, v)
                    brute = brute_max_independent_family(g, u, v)
                    assert flow == brute, (name, u, v)


def test_c7_homology_sanity():
    with criterion("C7", "homology identities on the corpus", 30.0):
        for d in (1, 2, 3, 4):
            assert z2_betti(simplex_boundary(d + 1)) == sphere_pattern(d, d + 1)
        for spec, c in catalog():
            name = display_name(spec)
            coned = c.cone()
            assert z2_betti(coned) == (0,) * (coned.dim + 1), name
            assert z2_betti(c.suspension()) == (0,) + z2_betti(c), name
            lhs, rhs = euler_characteristic_checks(c)
            assert lhs == rhs, name
