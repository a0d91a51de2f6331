import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scx.complexes import SimplicialComplex, _maximal, dumps, from_facets, loads
from scx.errors import (
    EmptyComplex,
    LabelClash,
    MalformedFace,
    NoBoundary,
    NotAFace,
    UnknownVertex,
)
from scx.generators import (
    cycle,
    cyclic_polytope_boundary,
    ring_ball,
    simplex,
    simplex_boundary,
    stacked_sphere,
)

from oracles import brute_f_vector, join_route_outcomes, maximal_by_pairs


def test_maximal_matches_pairwise_oracle_on_corpus_antistars(corpus):
    # the pieces of an antistar mix facets with ridges, so absorption happens
    for name, c in corpus.items():
        for k in range(0, c.dim + 1):
            for face in sorted(c.faces(k)) if k else [()]:
                lk = c.link(face)
                for i in range(lk.n_vertices):
                    pieces = {tuple(v for v in f if v != i) for f in lk._facets} - {()}
                    kept = _maximal(pieces)
                    assert len(set(kept)) == len(kept), (name, face, i)
                    assert set(kept) <= pieces, (name, face, i)
                    assert set(map(frozenset, kept)) == maximal_by_pairs(map(frozenset, pieces)), (
                        name, face, i)


def test_two_triangles():
    c = from_facets([["a", "b", "c"], ["a", "b", "d"]])
    assert c.is_pure and c.dim == 2
    assert c.f_vector() == (1, 4, 5, 2)


def test_ring_ball_f_vector():
    assert ring_ball().f_vector() == (1, 16, 54, 65, 26)


def test_empty_input_rejected():
    with pytest.raises(EmptyComplex):
        from_facets([])


def test_duplicate_vertex_rejected():
    with pytest.raises(MalformedFace):
        from_facets([["a", "a", "b"]])


def test_whitespace_label_rejected():
    with pytest.raises(MalformedFace):
        from_facets([["a b", "c"]])


def test_nonmaximal_absorbed_with_count():
    c = from_facets([["a", "b", "c"], ["a", "b"], ["a", "b", "c"]])
    assert c.facets == (("a", "b", "c"),)
    assert c.absorbed == 2


def test_link_of_cone_apex_is_base():
    base = cycle(4)
    coned = base.cone("top")
    assert coned.link(("top",)) == base


def test_link_of_ring_ball_center():
    assert len(ring_ball().link(("y",)).facets) == 8


def test_link_of_boundary_simplex_vertex():
    c = simplex_boundary(3)
    assert c.link(("v0",)) == SimplicialComplex([["v1", "v2"], ["v2", "v3"], ["v1", "v3"]])


def test_link_errors():
    c = simplex_boundary(3)
    with pytest.raises(NotAFace):
        c.link(("v0", "v1", "v2", "v3"))
    with pytest.raises(NotAFace):
        c.link(("nope",))
    with pytest.raises(EmptyComplex):
        c.link(("v0", "v1", "v2"))  # a facet has an empty link


def test_link_reports_non_faces_by_normalized_labels():
    c = from_facets([["1", "2", "3"], ["3", "4", "5"]])
    for face in ([1, "4"], (v for v in ["1", "4"]), ("4", 1)):
        with pytest.raises(NotAFace, match=r"^\('1', '4'\) is not a face$"):
            c.link(face)
    with pytest.raises(NotAFace, match=r"^\('9',\) is not a face$"):
        c.link(v for v in [9])
    assert c.link(v for v in [3, "4"]) == from_facets([["5"]])


def test_star_of_boundary_vertex():
    star = simplex_boundary(3).star("v0")
    assert len(star.facets) == 3
    assert all("v0" in f for f in star.facets)


def test_star_intersect_antistar_is_link_everywhere(corpus):
    for name, c in corpus.items():
        for v in c.vertices:
            if c.n_vertices < 2:
                continue
            star_faces = c.star(v).all_faces()
            astar_faces = c.antistar(v).all_faces()
            link_faces = c.link((v,)).all_faces()
            assert star_faces & astar_faces == link_faces, (name, v)


def test_induced_empty_rejected():
    with pytest.raises(EmptyComplex):
        simplex_boundary(2).induced([])
    with pytest.raises(UnknownVertex):
        simplex_boundary(2).induced(["v0", "zz"])


def test_cone_and_suspension_counts():
    c = cycle(3)
    coned = c.cone()
    assert coned.dim == 2 and coned.n_vertices == 4 and len(coned.facets) == 3
    susp = c.suspension()
    assert susp.f_vector() == (1, 5, 9, 6)
    assert susp.n_vertices == c.n_vertices + 2


def test_cone_f_vector_recurrence(corpus):
    for name, c in corpus.items():
        f = c.f_vector()
        g = c.cone().f_vector()
        assert g[1] == f[1] + 1, name
        for k in range(2, len(f)):
            assert g[k] == f[k] + f[k - 1], (name, k)
        assert g[len(f)] == f[len(f) - 1], name


def test_cone_label_clash():
    with pytest.raises(LabelClash):
        cycle(3).cone("c0")


def test_suspension_rejects_apexes_equal_as_labels():
    # 1 and "1" differ as values but name the same vertex
    with pytest.raises(LabelClash):
        cycle(4).suspension(1, "1")


@pytest.mark.parametrize("bad", ["#x", "a b", ""])
def test_apex_labels_obey_the_label_rules(bad):
    with pytest.raises(MalformedFace):
        cycle(4).cone(bad)
    with pytest.raises(MalformedFace):
        cycle(4).suspension(bad, "n")
    with pytest.raises(MalformedFace):
        cycle(4).suspension("n", bad)
    with pytest.raises(MalformedFace):
        simplex(2).tilde(bad)


def test_apex_label_in_use_clashes():
    used = cycle(4).vertices[0]
    with pytest.raises(LabelClash):
        cycle(4).cone(used)
    with pytest.raises(LabelClash):
        cycle(4).suspension("n", used)
    with pytest.raises(LabelClash):
        simplex(2).tilde(simplex(2).vertices[0])


def test_joins_skip_the_public_constructor(monkeypatch):
    ball = ring_ball()

    def refuse(self, facets):
        raise AssertionError("SimplicialComplex(...) called")

    monkeypatch.setattr(SimplicialComplex, "__init__", refuse)
    assert ball.cone().absorbed == ball.suspension().absorbed == ball.tilde().absorbed == 0


def test_joins_match_label_routes(corpus):
    balls = [stacked_sphere(d, k, seed) for d, k, seed in [(1, 3, 0), (2, 4, 1), (3, 3, 2)]]
    subjects = list(corpus.items()) + [
        (f"stacked-{d}-{k}-{seed}", stacked_sphere(d, k, seed))
        for d, k, seed in [(1, 2, 0), (2, 6, 1), (3, 5, 2), (4, 3, 3)]
    ] + [
        (f"cyclic-{n}-{d}", cyclic_polytope_boundary(n, d))
        for n, d in [(7, 3), (8, 4), (9, 5)]
    ] + [
        (f"stacked-ball-{b.dim}", from_facets(b.facets[1:])) for b in balls
    ]
    built = 0
    for name, c in subjects:
        for construction, apexes, trusted, by_labels in join_route_outcomes(c):
            assert trusted == by_labels, (name, construction, apexes)
            built += trusted[0] == "value"
    assert built >= 8 * len(subjects)  # every cone and suspension, and some tildes


def test_boundary_of_simplex():
    assert simplex(3).boundary() == simplex_boundary(3)


def test_boundary_of_ring_ball():
    bd = ring_ball().boundary()
    assert bd is not None
    assert bd.f_vector() == (1, 15, 39, 26)


def test_boundary_of_closed_is_none(corpus, corpus_specs):
    for spec, c in corpus_specs:
        if spec.closed:
            assert c.boundary() is None, spec


def test_tilde_of_simplex_is_simplex_boundary():
    closed = simplex(2).tilde("v3")
    assert closed == simplex_boundary(3)


def test_tilde_closes_the_ring_ball():
    closed = ring_ball().tilde()
    assert closed.n_vertices == 17
    assert closed.boundary() is None


def test_tilde_requires_boundary():
    with pytest.raises(NoBoundary):
        simplex_boundary(3).tilde()


def test_tilde_closes_whenever_boundary_is_closed(corpus):
    from scx.manifold import is_pseudomanifold

    for name, c in corpus.items():
        bd = c.boundary() if c.is_pure else None
        if bd is None:
            continue
        if is_pseudomanifold(bd) == "closed":
            assert c.tilde().boundary() is None, name


def test_faces_and_has_face():
    c = simplex_boundary(3)
    assert len(c.faces(3)) == 4
    assert c.faces(5) == frozenset()
    assert c.faces(0) == frozenset()
    assert not c.has_face(("v0", "v1", "v2", "v3"))
    assert c.has_face(("v2", "v0"))
    assert not c.has_face(("v0", "missing"))


def test_f_vector_matches_subset_enumeration(corpus):
    for name in ("ring-ball", "cross-polytope-2", "banana-complete-3", "torus-7"):
        c = corpus[name]
        assert c.f_vector() == brute_f_vector(c), name


def test_link_facet_sizes_in_pure_complexes(corpus):
    for name, c in corpus.items():
        if not c.is_pure:
            continue
        for k in range(1, c.dim + 1):
            for face in sorted(c.faces(k))[:20]:
                lk = c.link(face)
                assert lk.is_pure and lk.dim == c.dim - k, (name, face)


def test_roundtrip_serialization(corpus):
    for name, c in corpus.items():
        again = loads(dumps(c))
        assert again == c, name
        assert dumps(again) == dumps(c), name


def test_serialization_is_sorted():
    text = dumps(from_facets([["b", "z"], ["a", "q"]]))
    assert text.splitlines() == ["a q", "b z"]


def test_hash_label_rejected():
    # a facet line led by such a label would read back as a comment
    for facets in ([["#x", "a", "b"], ["a", "b", "c"]], [["#"]]):
        with pytest.raises(MalformedFace):
            from_facets(facets)
    assert from_facets([["a#", "b"]]).vertices == ("a#", "b")


_LABELS = st.text(
    st.characters(codec="utf-8"), min_size=1, max_size=4
).filter(lambda s: not s.startswith("#") and not any(ch.isspace() for ch in s))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.sets(_LABELS, min_size=1, max_size=4), min_size=1, max_size=5))
def test_roundtrip_over_accepted_labels(facets):
    c = from_facets(facets)
    assert loads(dumps(c)) == c


def test_comments_and_blank_lines():
    c = loads("# header\n\na b c\n# tail\nb c d\n")
    assert len(c.facets) == 2


def test_face_memoization_is_thread_safe():
    from concurrent.futures import ThreadPoolExecutor

    c = ring_ball()
    with ThreadPoolExecutor(max_workers=8) as pool:
        results = list(pool.map(lambda k: c.faces(1 + k % 4), range(64)))
    for k in range(4):
        assert results[k] == c.faces(1 + k % 4)
    assert c.f_vector() == (1, 16, 54, 65, 26)
