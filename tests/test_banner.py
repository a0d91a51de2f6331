import itertools

import pytest
from hypothesis import given, settings

from scx.analysis import verify_property
from scx.banner import (
    _link_banner,
    banner_number,
    banner_or_triangle,
    classify,
    classify_tilde_cliques,
    cliques,
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
    c = cyclic_polytope_boundary(7, 4)  # the corpus 4-sphere "cyclic-polytope-7-4"
    calls = []
    link = SimplicialComplex.link

    def counted(self, face):
        calls.append(face)
        return link(self, face)

    monkeypatch.setattr(SimplicialComplex, "link", counted)
    assert banner_number(c).value == 3
    assert verify_property("L5.2", c).verdict == "pass"
    assert calls == []
    assert len(c._memo["link_banner"]) == 37  # banner_number's entries only


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
