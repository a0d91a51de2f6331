import itertools

import pytest
from hypothesis import given, settings

from scx.analysis import verify_property
from scx.banner import (
    BannerNumber,
    _link_banner,
    banner_number,
    banner_or_triangle,
    classify,
    classify_tilde_cliques,
    cliques,
    cliques_ids,
    contains_simplex_boundary,
    is_critical,
    is_spanning,
    is_triangle_cycle,
)
from scx.complexes import SimplicialComplex, from_facets
from scx.errors import NoBoundary, NotAClique, NotPure, ScxError
from scx.generators import (
    banana,
    complete_graph_edges,
    cross_polytope_boundary,
    cycle,
    cyclic_polytope_boundary,
    ring_ball,
    simplex,
    simplex_boundary,
    stacked_sphere,
)
from scx.manifold import NormalityResult, is_normal, is_pseudomanifold

from oracles import brute_is_flag, classify_by_labels, link_banner_by_complexes
from test_fuzz import _FACETS


def test_classify_matches_label_oracle_on_corpus_links(corpus):
    for name, c in corpus.items():
        for k in range(0, c.dim + 1):
            for face in sorted(c.faces(k)) if k else [()]:
                lk = c.link(face)
                if lk.is_pure:
                    assert classify(lk) == classify_by_labels(lk), (name, face)


def test_cliques_of_complete_skeleton():
    c = simplex_boundary(3)
    assert list(cliques(c, 4)) == [("v0", "v1", "v2", "v3")]
    assert len(list(cliques(c, 2))) == 6


def test_cliques_ids_at_the_edge_sizes():
    """No clique has no vertex or more vertices than the complex, and the
    1-cliques are the vertices, on a point, the 0-sphere and a solid
    triangle; the boundary of a tetrahedron has the one 4-clique."""
    for c in (simplex(0), simplex_boundary(1), simplex(2)):
        n = c.n_vertices
        assert list(cliques_ids(c, 0)) == [], c.facets
        assert list(cliques_ids(c, 1)) == [(i,) for i in range(n)], c.facets
        assert list(cliques_ids(c, n + 1)) == [], c.facets
    assert list(cliques_ids(simplex_boundary(3), 4)) == [(0, 1, 2, 3)]


def test_cliques_respect_lexicographic_order():
    c = ring_ball()
    out = list(cliques(c, 3))
    assert out == sorted(out)
    assert ("x1", "x2", "x3") in out


def test_no_triangles_in_square():
    assert list(cliques(cycle(4), 3)) == []


def test_spanning_and_critical():
    c = ring_ball()
    facet = c.facets[0]
    assert is_spanning(c, facet) and is_critical(c, facet)
    empty_triangle = ("x1", "x2", "x3")
    assert not is_spanning(c, empty_triangle)
    assert is_critical(c, empty_triangle)  # its edges are faces


def test_banana_original_clique_not_critical():
    c = banana(complete_graph_edges(4))
    original = ("g0", "g1", "g2", "g3")
    assert not is_spanning(c, original)
    assert not is_critical(c, original)


def test_not_a_clique():
    with pytest.raises(NotAClique):
        is_spanning(cycle(4), ("c0", "c2"))


def test_contains_simplex_boundary():
    c = simplex_boundary(4)
    assert contains_simplex_boundary(c, 4) == ("v0", "v1", "v2", "v3", "v4")
    assert contains_simplex_boundary(ring_ball(), 4) is None
    assert contains_simplex_boundary(banana(complete_graph_edges(3)), 4) is None
    with pytest.raises(ValueError):
        contains_simplex_boundary(c, 1)


def test_classify_bananas():
    k3 = classify(banana(complete_graph_edges(3)))
    assert k3.strongly_banner and not k3.flag
    k4 = classify(banana(complete_graph_edges(4)))
    assert k4.banner and not k4.strongly_banner
    assert k4.witness is not None and k4.witness.vertices == ("g0", "g1", "g2", "g3")


def test_strongly_banner_witness_is_the_first_of_several_non_spanning_cliques():
    # all five 4-subsets of the graph's vertices are non-spanning, none critical
    c = banana(complete_graph_edges(5))
    cls = classify(c)
    assert cls == classify_by_labels(c)
    assert (cls.banner, cls.strongly_banner) == (True, False)
    assert cls.witness.vertices == ("g0", "g1", "g2", "g3")


def test_simplex_boundary_witness_comes_before_a_non_spanning_clique():
    # the banana's non-spanning 4-cliques refute strongly banner only; the
    # disjoint boundary of a 4-simplex refutes banner, so it is the witness
    c = from_facets(list(banana(complete_graph_edges(5)).facets) + list(simplex_boundary(4).facets))
    cls = classify(c)
    assert cls == classify_by_labels(c)
    assert (cls.banner, cls.witness.kind) == (False, "simplex_boundary")
    assert cls.witness.vertices == ("v0", "v1", "v2", "v3", "v4")


def test_classify_ring_ball():
    cls = classify(ring_ball())
    assert cls.strongly_banner and not cls.flag
    assert cls.witness.vertices == ("x1", "x2", "x3")


def test_classify_cross_polytopes_flag():
    for d in (2, 3, 4):
        c = cross_polytope_boundary(d)
        cls = classify(c)
        assert cls.flag and cls.strongly_banner and cls.banner, d
        if c.n_vertices <= 8:
            assert brute_is_flag(c), d


def test_classify_simplex_boundary_not_banner():
    for d in (1, 2, 3):
        cls = classify(simplex_boundary(d + 1))
        assert not cls.banner
        assert cls.witness.kind == "simplex_boundary"


def test_classify_requires_pure():
    with pytest.raises(NotPure):
        classify(from_facets([["a", "b", "c"], ["c", "d"]]))


def test_classify_cycles():
    assert not classify(cycle(3)).banner
    four = classify(cycle(4))
    assert four.banner and four.flag


def test_flag_matches_brute_oracle_small(corpus):
    for name, c in corpus.items():
        if c.n_vertices <= 9 and c.is_pure:
            assert classify(c).flag == brute_is_flag(c), name


def test_monotone_chain_on_corpus(corpus):
    for name, c in corpus.items():
        if not c.is_pure:
            continue
        cls = classify(c)
        assert (not cls.flag or cls.strongly_banner) and (
            not cls.strongly_banner or cls.banner
        ), name
        assert (cls.witness is None) == (cls.flag and cls.strongly_banner and cls.banner)


def test_banner_equals_flag_in_dimension_two(corpus):
    for name, c in corpus.items():
        if c.is_pure and c.dim == 2:
            cls = classify(c)
            assert cls.banner == cls.flag, name


def test_cone_and_suspension_preserve_hierarchy(corpus):
    for name, c in corpus.items():
        if not c.is_pure or c.dim < 1:
            continue
        base = classify(c)
        for derived in (classify(c.cone()), classify(c.suspension())):
            assert base.flag == derived.flag, name
            assert base.strongly_banner == derived.strongly_banner, name
            assert base.banner == derived.banner, name


def test_banner_links_inherit(corpus):
    # link inheritance for banner and strongly banner, dimension >= 2
    for name, c in corpus.items():
        if not c.is_pure or c.dim < 2:
            continue
        cls = classify(c)
        if not cls.banner:
            continue
        for v in c.vertices:
            sub = classify(c.link((v,)))
            assert sub.banner, (name, v)
            if cls.strongly_banner:
                assert sub.strongly_banner, (name, v)


def test_triangle_cycle_detection():
    assert is_triangle_cycle(cycle(3))
    assert not is_triangle_cycle(cycle(4))
    assert not is_triangle_cycle(simplex(2))
    assert banner_or_triangle(cycle(3))
    assert banner_or_triangle(cycle(7))


def test_banner_number_values():
    assert banner_number(cycle(3)).value == 0
    assert banner_number(cycle(5)).value == 0
    assert banner_number(simplex_boundary(3)).value == 1
    assert banner_number(simplex_boundary(4)).value == 2
    assert banner_number(simplex_boundary(5)).value == 3
    assert banner_number(ring_ball()).value == 0
    assert banner_number(cross_polytope_boundary(3)).value == 0


def test_banner_number_structure_for_4_sphere_boundary():
    # the accepted level consists of triangle-cycle links only
    c = simplex_boundary(4)
    for face in sorted(c.faces(2)):
        assert is_triangle_cycle(c.link(face))
    some_vertex_link = c.link(("v0",))
    assert not banner_or_triangle(some_vertex_link)


def test_banner_number_certificate():
    bn = banner_number(simplex_boundary(4))
    assert bn.value == 2
    assert bn.passed_faces == len(simplex_boundary(4).faces(2))
    assert bn.failing_face is not None and len(bn.failing_face) == 1


def test_banner_number_zero_iff_banner_or_triangle(corpus):
    for name, c in corpus.items():
        if not c.is_pure:
            continue
        bn = banner_number(c)
        expected = classify(c).banner or is_triangle_cycle(c)
        assert (bn.value == 0) == expected, name


def test_banner_number_range(corpus):
    for name, c in corpus.items():
        if not c.is_pure:
            continue
        bn = banner_number(c)
        assert bn.value is not None, name
        assert 0 <= bn.value <= max(c.dim - 1, 0), name


def test_banner_number_undefined_for_triangle_plus_square():
    c = from_facets([["a", "b"], ["b", "c"], ["a", "c"], ["p", "q"], ["q", "r"], ["r", "s"], ["p", "s"]])
    bn = banner_number(c)
    assert bn.value is None and bn.failing_face == ()


def test_link_banner_number_inequality(corpus):
    for name, c in corpus.items():
        if not c.is_pure:
            continue
        value = banner_number(c).value
        if not value:
            continue
        for size in range(1, value + 1):
            for face in sorted(c.faces(size)):
                sub = banner_number(c.link(face)).value
                assert sub is not None and sub <= value - size, (name, face)


def _compare_link_banner(c, kinds: set[str]) -> None:
    """Check ``_link_banner`` against the oracle on every face with a non-empty link.

    ``kinds`` collects what the compared links were: "triangle", the kind
    of banner witness of a link that fails, or "not_pure".
    """
    for k in range(0, c.dim + 1):
        for ids in sorted(c.faces_ids(k)) if k else [()]:
            try:
                lk = c.link(c._face_labels(ids))
            except ScxError:  # a facet of a complex that is not pure
                continue
            expected = link_banner_by_complexes(c, ids)
            assert _link_banner(c, ids) == expected, (c.facets, ids)
            if is_triangle_cycle(lk):
                kinds.add("triangle")
            elif not lk.is_pure:
                kinds.add("not_pure")
            elif not expected:
                kinds.add(classify(lk).witness.kind)


def test_link_banner_matches_built_links(corpus):
    kinds: set[str] = set()
    pure = [c for c in corpus.values() if c.is_pure]
    for c in pure + [cyclic_polytope_boundary(8, 6), cross_polytope_boundary(5)]:
        _compare_link_banner(c, kinds)
    assert {"triangle", "critical_non_spanning_clique", "simplex_boundary"} <= kinds


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_FACETS)
def test_link_banner_matches_built_links_on_random_complexes(facets):
    _compare_link_banner(from_facets(facets), set())


def test_link_banner_matches_built_links_that_are_not_pure():
    kinds: set[str] = set()
    _compare_link_banner(from_facets([["a", "b"], ["b", "c"], ["a", "c"], ["a", "d", "e"]]), kinds)
    assert "not_pure" in kinds


def test_banner_number_and_l52_build_no_link(monkeypatch):
    from scx import banner

    c = cyclic_polytope_boundary(7, 4)  # the corpus 4-sphere "cyclic-polytope-7-4"
    calls, asked = [], []
    link, entry = SimplicialComplex.link, banner._link_banner

    def counted(self, face):
        calls.append(face)
        return link(self, face)

    def counted_faces(cx, ids):
        asked.append(ids)
        return entry(cx, ids)

    monkeypatch.setattr(SimplicialComplex, "link", counted)
    monkeypatch.setattr(banner, "_link_banner", counted_faces)
    assert banner_number(c) == BannerNumber(3, 34, ("t0", "t1"))
    assert verify_property("L5.2", c).verdict == "pass"
    assert calls == []
    # levels 0, 1 and 2 each stop at their first failing face; level 3 = d - 1
    # of this closed normal pseudomanifold holds by rule, so none of its 34
    # faces is asked (37 questions before the rule)
    assert len(asked) == 3


def test_l52_reads_the_banner_number_and_asks_the_link_table_nothing(monkeypatch):
    """On a ball level b = 2 < d = 3 is scanned, not accepted by rule, and
    that scan is L5.2's certificate: the check asks about no face link."""
    from scx import banner

    c = simplex_boundary(3).cone()  # the corpus entry "cone-simplex-boundary-3"
    assert is_pseudomanifold(c) == "with_boundary"
    assert (c.dim, banner_number(c).value) == (3, 2)
    calls = []
    entry = banner._link_banner

    def counted(cx, ids):
        calls.append(ids)
        return entry(cx, ids)

    monkeypatch.setattr(banner, "_link_banner", counted)
    res = verify_property("L5.2", c)
    assert (res.verdict, res.detail, res.payload) == (
        "pass",
        "inequality holds below level 2",
        None,
    )
    assert calls == []


def _pinched_octahedron():
    # the octahedron on +-1, +-2, +-3 with one vertex x stacked on the face
    # p1 p2 p3 and the same x stacked on the opposite face m1 m2 m3
    octahedron = [
        [f"{a}1", f"{b}2", f"{c}3"] for a in "pm" for b in "pm" for c in "pm"
    ]
    facets = [f for f in octahedron if f[0][0] != f[1][0] or f[1][0] != f[2][0]]
    for s in "pm":
        facets += [["x", f"{s}{i}", f"{s}{j}"] for i, j in ((1, 2), (2, 3), (1, 3))]
    return from_facets(facets)


def test_banner_number_scans_level_d_minus_1_of_a_closed_pseudomanifold_that_is_not_normal():
    """Level d - 1 is accepted by rule only on a normal complex: here the
    link of x is two triangles, neither banner nor a triangle."""
    c = _pinched_octahedron()
    assert (c.dim, is_pseudomanifold(c)) == (2, "closed")
    assert is_normal(c) == NormalityResult(False, ("x",))
    assert classify(c.link(("x",))).witness.kind == "simplex_boundary"
    assert banner_number(c) == BannerNumber(None, 0, ("x",))
    assert banner_number(c.link(("m1",))).value == 0  # other vertex links are 5-cycles


def test_level_rule_is_not_tested_below_level_d_minus_1():
    """A banner 3-sphere stops at level 0, so neither its pseudomanifold
    status nor its normality is computed."""
    c = cross_polytope_boundary(3)
    assert banner_number(c).value == 0
    assert "pseudomanifold" not in c._memo and "normal" not in c._memo


def test_stacked_spheres_are_barnette_tight():
    for d in (2, 3):
        c = stacked_sphere(d, 3, seed=5)
        assert not classify(c).banner
        assert banner_number(c).value == d - 1


def test_tilde_cliques_of_solid_triangle():
    t = simplex(2)
    part = classify_tilde_cliques(t, 3)
    assert part.plain == (("v0", "v1", "v2"),)
    assert len(part.from_boundary) == 3
    assert part.stranded == ()


def test_tilde_cliques_level_one():
    part = classify_tilde_cliques(simplex(2), 1)
    assert len(part.plain) == 3
    assert part.from_boundary == ((part.apex,),)
    assert part.stranded == ()


def test_tilde_cliques_need_boundary():
    with pytest.raises(NoBoundary):
        classify_tilde_cliques(simplex_boundary(3), 3)


def test_ring_ball_has_stranded_tilde_cliques():
    # the nine interior edges between boundary vertices each strand a
    # 3-clique through the apex, so the boundary-cone product rule cannot
    # be applied to this ball
    part = classify_tilde_cliques(ring_ball(), 3)
    assert len(part.stranded) == 9
    stripped = {tuple(v for v in t if v != part.apex) for t in part.stranded}
    assert ("x1", "x2") in stripped and ("a1", "b1") in stripped


def test_tilde_clique_partition_is_exhaustive():
    ball = ring_ball()
    closed = ball.tilde()
    for j in (1, 2, 3, 4):
        part = classify_tilde_cliques(ball, j)
        together = set(part.plain) | set(part.from_boundary) | set(part.stranded)
        assert together == set(cliques(closed, j)), j
        assert len(part.plain) + len(part.from_boundary) + len(part.stranded) == len(
            together
        ), j


def test_tilde_clique_types_match_definitions():
    # independent recomputation of the three classes for the fan ball
    from scx.generators import fan_ball

    ball = fan_ball()
    bd = ball.boundary()
    part = classify_tilde_cliques(ball, 3)
    assert set(part.plain) == set(cliques(ball, 3))
    expected_boundary = {
        tuple(sorted(t + (part.apex,))) for t in cliques(bd, 2)
    }
    assert set(part.from_boundary) == expected_boundary
    interior = set(ball.vertices) - set(bd.vertices)
    bd_edges = set(bd.faces(2))
    expected_stranded = set()
    for t in cliques(ball, 2):
        if any(v in interior for v in t):
            continue
        if all(
            tuple(sorted(p)) in bd_edges for p in itertools.combinations(t, 2)
        ):
            continue
        expected_stranded.add(tuple(sorted(t + (part.apex,))))
    assert set(part.stranded) == expected_stranded
