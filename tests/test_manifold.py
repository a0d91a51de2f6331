import itertools

import pytest

from scx import manifold
from scx.complexes import from_facets
from scx.errors import BadSeed, NotPseudomanifold, NotPure, ScxError, SearchBudgetExceeded
from scx.generators import (
    banana,
    complete_graph_edges,
    cross_polytope_boundary,
    cycle,
    cyclic_polytope_boundary,
    fan_ball,
    ring_ball,
    simplex,
    simplex_boundary,
    stacked_sphere,
    torus_7,
)
from scx.manifold import (
    facet_graph,
    find_shelling,
    is_homology_manifold,
    is_homology_sphere,
    is_normal,
    is_pseudomanifold,
    is_strongly_connected,
    manifold_class,
    verify_barnette_antistar,
    verify_shelling,
)

from scx.homology import z2_betti

from oracles import (
    barnette_antistar_by_complexes,
    closed_by_ridge_count,
    homology_manifold_ascending,
    normal_by_links,
)


def test_facet_graph_of_simplex_boundary():
    g = facet_graph(simplex_boundary(3))
    assert len(g.facets) == 4
    assert len(g.edges) == 6  # K4: facets pairwise share an edge


def test_strong_connectivity():
    assert is_strongly_connected(simplex_boundary(3))
    two_tets = from_facets([["a", "b", "c", "x"], ["x", "p", "q", "r"]])
    assert not is_strongly_connected(two_tets)


def test_is_pseudomanifold_values():
    assert is_pseudomanifold(simplex_boundary(4)) == "closed"
    assert is_pseudomanifold(ring_ball()) == "with_boundary"
    fan3 = from_facets([["a", "b", "c"], ["a", "b", "d"], ["a", "b", "e"]])
    assert is_pseudomanifold(fan3) == "no"  # shared edge in three facets
    assert is_pseudomanifold(banana(complete_graph_edges(3))) == "no"


def test_is_pseudomanifold_requires_pure():
    with pytest.raises(NotPure):
        is_pseudomanifold(from_facets([["a", "b", "c"], ["c", "d"]]))


def test_ring_sphere_is_closed_by_independent_ridge_count():
    closed = ring_ball().tilde()
    assert is_pseudomanifold(closed) == "closed"
    assert closed_by_ridge_count(closed)
    assert closed.n_vertices == 17


def test_is_normal():
    assert is_normal(simplex_boundary(4)).normal
    assert is_normal(cycle(5)).normal  # vacuous in dimension one
    assert is_normal(ring_ball().tilde()).normal
    with pytest.raises(NotPseudomanifold):
        is_normal(banana(complete_graph_edges(3)))


def test_wedge_of_spheres_not_pseudomanifold():
    # two hollow tetrahedra sharing one vertex: the facet graph splits at p
    pinched = from_facets(
        [
            ["p", "a", "b"],
            ["p", "b", "c"],
            ["p", "a", "c"],
            ["a", "b", "c"],
            ["p", "x", "y"],
            ["p", "y", "z"],
            ["p", "x", "z"],
            ["x", "y", "z"],
        ]
    )
    assert is_pseudomanifold(pinched) == "no"


def _pinched_torus():
    # a sphere made of two polar cones over triangle rings joined by an
    # antiprism band, with the two poles identified into one vertex P
    facets = [
        ["P", "a1", "a2"],
        ["P", "a2", "a3"],
        ["P", "a1", "a3"],
        ["P", "b1", "b2"],
        ["P", "b2", "b3"],
        ["P", "b1", "b3"],
        ["a1", "a2", "b1"],
        ["a2", "b1", "b2"],
        ["a2", "a3", "b2"],
        ["a3", "b2", "b3"],
        ["a3", "a1", "b3"],
        ["a1", "b3", "b1"],
    ]
    return from_facets(facets)


def _twice_pinched_sphere():
    # a tube of four triangle rings r0..r3 joined by antiprism bands, capped
    # by cones N over r0 and S over r3, with S and r10 identified into P and
    # r02 and r30 into Q; the first facet, (N, Q, r00), meets Q before P
    glued = {"S": "P", "r10": "P", "r02": "Q", "r30": "Q"}
    facets = [["N", f"r0{j}", f"r0{(j + 1) % 3}"] for j in range(3)]
    facets += [["S", f"r3{j}", f"r3{(j + 1) % 3}"] for j in range(3)]
    for i in range(3):
        for j in range(3):
            a, b = f"r{i}{j}", f"r{i}{(j + 1) % 3}"
            x, y = f"r{i + 1}{j}", f"r{i + 1}{(j + 1) % 3}"
            facets += [[a, b, x], [b, x, y]]
    return from_facets([[glued.get(v, v) for v in f] for f in facets])


def test_pinched_torus_closed_but_not_normal():
    pinched = _pinched_torus()
    assert is_pseudomanifold(pinched) == "closed"
    res = is_normal(pinched)
    assert not res.normal and res.witness == ("P",)
    ok, witness = is_homology_manifold(pinched)
    assert not ok and witness == ("P",)


def test_suspension_of_torus_normal_but_not_homology_manifold():
    c = torus_7().suspension()
    assert is_pseudomanifold(c) == "closed"
    assert is_normal(c).normal
    ok, witness = is_homology_manifold(c)
    assert not ok
    assert witness is not None and len(witness) == 1  # an apex link is a torus


def test_manifold_class_witnesses_are_read_only():
    pinched = _pinched_torus()
    mc = manifold_class(pinched)
    assert mc.witnesses == {"normal": ("P",), "homology_manifold": ("P",)}
    with pytest.raises(TypeError):
        mc.witnesses["normal"] = ("Q",)
    with pytest.raises(TypeError):
        del mc.witnesses["homology_manifold"]
    again = manifold_class(pinched)
    assert again.witnesses == {"normal": ("P",), "homology_manifold": ("P",)}
    assert not again.normal and not again.homology_manifold


def test_barnette_antistar():
    ok, _ = verify_barnette_antistar(simplex_boundary(3))
    assert ok
    ok, _ = verify_barnette_antistar(cross_polytope_boundary(2))
    assert ok
    ok, _ = verify_barnette_antistar(ring_ball().tilde())
    assert ok


@pytest.mark.parametrize(
    "build, expected",
    [
        (lambda: cycle(4).cone(), ("value", (True, None))),  # the apex lies in every facet
        (fan_ball, ("value", (False, "p"))),  # the facets avoiding p fall apart
        (ring_ball, ("raise", NotPure)),  # a boundary ridge left as an antistar facet
    ],
    ids=["cone-apex-in-every-facet", "fan-ball-fails", "ring-ball-not-pure"],
)
def test_barnette_antistar_outcomes(build, expected):
    c = build()
    assert _outcome(verify_barnette_antistar, c) == expected
    assert _outcome(barnette_antistar_by_complexes, c) == expected


def test_homology_manifold_examples():
    assert is_homology_sphere(simplex_boundary(4))
    assert is_homology_sphere(cross_polytope_boundary(3))
    ok, witness = is_homology_manifold(ring_ball())
    assert not ok and witness is not None  # boundary vertices have ball links
    assert is_homology_sphere(simplex_boundary(3).suspension())
    torus = torus_7()
    ok, _ = is_homology_manifold(torus)
    assert ok
    assert not is_homology_sphere(torus)


def _pseudomanifolds(corpus):
    for name, c in corpus.items():
        if c.is_pure and is_pseudomanifold(c) != "no":
            yield name, c
    yield "pinched-torus", _pinched_torus()
    yield "torus-7-suspension", torus_7().suspension()


def test_manifold_class_normality_matches_is_normal(corpus):
    # manifold_class reads normality off the homology-manifold check
    for name, c in corpus.items():
        if c.is_pure and is_pseudomanifold(c) == "no":
            assert manifold_class(c).normal is None, name
    for name, c in _pseudomanifolds(corpus):
        mc, res = manifold_class(c), is_normal(c)
        assert mc.normal == res.normal, name
        assert mc.witnesses.get("normal") == res.witness, name


def test_manifold_class_runs_is_normal_only_off_homology_manifolds(monkeypatch):
    calls = []

    def counted(c):
        calls.append(c)
        return is_normal(c)

    monkeypatch.setattr(manifold, "is_normal", counted)
    assert manifold_class(cross_polytope_boundary(3)).normal
    assert calls == []
    assert not manifold_class(_pinched_torus()).normal
    assert len(calls) == 1


def _outcome(fn, c):
    try:
        return "value", fn(c)
    except ScxError as exc:
        return "raise", type(exc)


def _normality(c):
    res = is_normal(c)
    return res.normal, res.witness


def test_normality_matches_link_oracle(corpus):
    pinched = _pinched_torus()
    subjects = [(name, c) for name, c in corpus.items() if c.is_pure]
    subjects += [
        ("pinched-torus", pinched),
        ("pinched-torus-cone", pinched.cone()),
        ("pinched-torus-suspension", pinched.suspension()),
        ("twice-pinched-sphere", _twice_pinched_sphere()),
        ("torus-7-suspension", torus_7().suspension()),
    ]
    for d, k, seed in [(2, 6, 1), (3, 5, 2), (4, 3, 3)]:
        sphere = stacked_sphere(d, k, seed)
        name = f"stacked-{d}-{k}-{seed}"
        subjects += [(name + "-cone", sphere.cone()), (name + "-suspension", sphere.suspension())]
    seen = set()
    for name, c in subjects:
        got = _outcome(_normality, c)
        assert got == _outcome(normal_by_links, c), name
        seen.add(got[0] if got[0] == "raise" else got[1][0])
    assert seen == {True, False, "raise"}
    assert _normality(pinched) == (False, ("P",))
    twice = _twice_pinched_sphere()
    assert len(twice.facets) == 24 and is_pseudomanifold(twice) == "closed"
    assert _normality(twice) == (False, ("P",))  # the first by label, not by facet order


def test_barnette_antistar_matches_built_antistars(corpus):
    seen = set()
    for name, c in _pseudomanifolds(corpus):
        got = _outcome(verify_barnette_antistar, c)
        assert got == _outcome(barnette_antistar_by_complexes, c), name
        seen.add(got[0] if got[0] == "raise" else got[1][0])
        seen.add(is_pseudomanifold(c))
    # every outcome occurs, and closed complexes take the ridge-graph branch
    assert seen == {True, False, "raise", "closed", "with_boundary"}


def _s2_times_s1():
    """S^2 x S^1: the staircase triangulation of the boundary of a tetrahedron
    times a 4-cycle, 48 tetrahedra on the 16 vertices x<a><t>."""
    facets = []
    for tri in itertools.combinations(range(4), 3):
        for t in range(4):
            lo, hi = sorted((t, (t + 1) % 4))
            for turn in range(3):
                chain = [(a, lo) for a in tri[: turn + 1]] + [(a, hi) for a in tri[turn:]]
                facets.append([f"x{a}{u}" for a, u in chain])
    return from_facets(facets)


def _homology_manifold_subjects(corpus):
    """Pure complexes with links of every dimension up to 5, and their face links."""
    s2s1 = _s2_times_s1()
    complexes = [(name, c) for name, c in corpus.items() if c.is_pure]
    complexes += [
        ("pinched-torus", _pinched_torus()),
        ("torus-7-suspension", torus_7().suspension()),
        ("s2xs1", s2s1),
        ("s2xs1-suspension", s2s1.suspension()),
        ("cross-polytope-5", cross_polytope_boundary(5)),
        ("cyclic-polytope-8-6", cyclic_polytope_boundary(8, 6)),
        ("simplex-boundary-6", simplex_boundary(6)),
    ]
    for name, c in complexes:
        yield name, c
        for k in range(1, c.dim + 1):
            for face in sorted(c.faces(k)):
                yield (name, face), c.link(face)


def test_homology_manifold_matches_ascending_oracle(corpus):
    verdicts = set()
    for name, c in _homology_manifold_subjects(corpus):
        got = is_homology_manifold(c)
        assert got == homology_manifold_ascending(c), name
        verdicts.add((got[0], c.dim))
    assert {(ok, d) for ok in (True, False) for d in range(5)} <= verdicts


def test_homology_manifold_fails_first_on_a_three_dimensional_link(monkeypatch):
    s2s1 = _s2_times_s1()
    assert len(s2s1.facets) == 48 and is_pseudomanifold(s2s1) == "closed"
    assert z2_betti(s2s1) == (0, 1, 1, 1)
    assert is_homology_manifold(s2s1) == (True, None)
    tested = []
    real = manifold._manifold_link_is_sphere

    def recorded(residues, m):
        ok = real(residues, m)
        tested.append((m, ok))
        return ok

    monkeypatch.setattr(manifold, "_manifold_link_is_sphere", recorded)
    # an apex link is S^2 x S^1, whose b_1 = 1 the rank path must see
    assert is_homology_manifold(s2s1.suspension()) == (False, ("_apex0",))
    assert tested[-1] == (3, False)
    assert all(ok for _, ok in tested[:-1])


def test_stacked_spheres_closed(corpus):
    for d, k, seed in [(2, 5, 11), (3, 4, 11)]:
        c = stacked_sphere(d, k, seed)
        assert is_pseudomanifold(c) == "closed"
        assert c.n_vertices == d + 2 + k
        assert is_homology_sphere(c)


# -- shelling ------------------------------------------------------------


def test_single_simplex_shelling():
    order = find_shelling(simplex(3))
    assert order is not None and len(order.facets) == 1


def test_boundary_sphere_shelling():
    order = find_shelling(simplex_boundary(3))
    assert order is not None
    assert verify_shelling(simplex_boundary(3), order.facets)


def test_disjoint_triangles_have_no_shelling():
    c = from_facets([["a", "b", "c"], ["x", "y", "z"]])
    assert find_shelling(c) is None
    # nor do two disjoint edges, unlike two points
    edges = from_facets([["a", "b"], ["x", "y"]])
    assert find_shelling(edges) is None
    assert not verify_shelling(edges, edges.facets)


def test_points_shell_in_every_order():
    # each point meets the earlier ones in the empty face, a (-1)-sphere
    for points in (["a", "b"], ["a", "b", "c"]):
        c = from_facets([[p] for p in points])
        order = find_shelling(c)
        assert order is not None and len(order.facets) == len(points)
        for perm in itertools.permutations(c.facets):
            assert verify_shelling(c, perm)


def test_ring_ball_shelling_seeded_by_central_star():
    ball = ring_ball()
    star_facets = ball.star("y").facets
    assert len(star_facets) == 8
    order = find_shelling(ball, star_facets)
    assert order is not None
    assert set(order.facets[:8]) == set(star_facets)
    assert verify_shelling(ball, order.facets)


def test_ordered_seed_validation():
    c = simplex_boundary(3)
    facets = sorted(c.facets)
    order = find_shelling(c, facets[:2], ordered=True)
    assert order is not None and order.facets[:2] == tuple(facets[:2])
    with pytest.raises(BadSeed):
        find_shelling(c, [("v0", "v1", "zz")], ordered=True)
    # a repeated prefix entry breaks the shelling condition
    with pytest.raises(BadSeed):
        find_shelling(c, [facets[0], facets[0]], ordered=True)


def test_shelling_budget():
    with pytest.raises(SearchBudgetExceeded):
        find_shelling(ring_ball(), budget=3)


@pytest.mark.parametrize("budget", [0, -1])
def test_shelling_rejects_a_budget_below_one(budget):
    # a budget that allows no expansion is a bad argument, not an undecided search
    with pytest.raises(ValueError, match=f"at least 1, not {budget}"):
        find_shelling(cycle(5), budget=budget)


def test_shelling_orders_reverify(corpus):
    for name in ("ring-ball", "cross-polytope-2", "simplex-boundary-4", "cone-cycle-4"):
        c = corpus[name]
        order = find_shelling(c)
        assert order is not None, name
        assert verify_shelling(c, order.facets), name
        # permuting a shellable order usually breaks it; the checker must notice
        facets = list(order.facets)
        if len(facets) > 2:
            swapped = [facets[-1]] + facets[1:-1] + [facets[0]]
            verify_shelling(c, swapped)  # just must not crash


def test_verify_shelling_rejects_wrong_facets():
    c = simplex_boundary(3)
    assert not verify_shelling(c, c.facets[:2])
