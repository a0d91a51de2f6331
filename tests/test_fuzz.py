"""Random small complexes through the whole pipeline.

Each example is a complex on at most 8 vertices with facets of 1 to 4
vertices, so dimensions 0 to 3 and non-pure inputs all occur: either
random facets, or a stacked sphere, optionally with one facet removed,
so that the closed-pseudomanifold hypotheses are met too.  Every
entry point may only answer with a verdict or raise an ``ScxError``
subclass, and the per-object memo must not change any answer: a check
run inside ``verify_corpus``, next to the other checks on the same
object, agrees with the same check run alone on a fresh copy.  The
id-based classification, absorption and strong-connectivity search
agree with the label-based and pairwise oracles of ``oracles.py``, and
so do the homology-manifold verdict, normality on facet residues
and the antistar check, on every complex and every pure face link.  Under
the hypotheses of P3.7 ``_link_banner``'s verdict on a vertex is the
banner status of its built link.  Outside connectivity, the
facet component count and the L4.4-homological conclusion agree with
the built complexes and full relative ranks of ``oracles.py``.  Cones,
suspensions and boundary cones store the same labels, ids and facets as
their label routes through the public constructor, and the pseudomanifold
status agrees with plain ridge counts.  Vertex connectivity, its cut and
its pair agree with one flow per non-adjacent pair.  The examples are
derandomized so that the suite gives the same verdict on every run.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from scx.analysis import (
    PROPERTY_IDS,
    _outside_facet_components,
    _relative_homology_matches,
    analyze,
    report_from_json,
    report_json,
    verify_corpus,
    verify_property,
)
from scx.banner import _link_banner, classify
from scx.complexes import SimplicialComplex, _maximal, from_facets
from scx.errors import ScxError
from scx.generators import stacked_sphere
from scx.graphs import is_outside_connected, skeleton, vertex_connectivity
from scx.manifold import (
    is_homology_manifold,
    is_normal,
    is_pseudomanifold,
    is_strongly_connected,
    manifold_class,
    verify_barnette_antistar,
)

from oracles import (
    all_pairs_connectivity,
    barnette_antistar_by_complexes,
    classify_by_labels,
    homology_manifold_ascending,
    join_route_outcomes,
    maximal_by_pairs,
    normal_by_links,
    outside_connected_by_complexes,
    pseudomanifold_by_ridge_counts,
    relative_betti_by_complexes,
    relative_homology_matches_by_complexes,
    strongly_connected_by_pairs,
)

_RANDOM = st.lists(
    st.sets(st.integers(0, 7), min_size=1, max_size=4), min_size=1, max_size=8
).map(lambda facets: [[f"v{i}" for i in f] for f in facets])


def _sphere(d: int, k: int, seed: int, ball: bool) -> list[tuple[str, ...]]:
    facets = list(stacked_sphere(d, k, seed).facets)
    return facets[1:] if ball else facets


_SPHERES = st.integers(1, 3).flatmap(
    lambda d: st.builds(
        _sphere, st.just(d), st.integers(0, 6 - d), st.integers(0, 99), st.booleans()
    )
)
_FACETS = st.one_of(_RANDOM, _SPHERES)


def _build(facets) -> SimplicialComplex:
    return from_facets(facets)


def _outcome(fn, *args):
    """What a call did: ("value", result) or ("raise", exception type)."""
    try:
        return "value", fn(*args)
    except ScxError as exc:
        return "raise", type(exc)


def _normality(c: SimplicialComplex):
    res = is_normal(c)
    return res.normal, res.witness


def _faces(c: SimplicialComplex):
    yield ()
    for k in range(1, c.dim + 2):
        yield from sorted(c.faces(k))


@settings(max_examples=80, deadline=None, derandomize=True)
@given(_FACETS)
def test_random_complex_pipeline(facets):
    c = _build(facets)

    kind, report = _outcome(analyze, c, "fuzz")
    if kind == "value":
        assert report_from_json(report_json(report)) == report

    for pid in PROPERTY_IDS:
        kind, res = _outcome(verify_property, pid, _build(facets))
        assert kind == "raise" or res.verdict in ("pass", "fail", "skip")

    rows = verify_corpus([("fuzz", c)]).rows
    assert [r.property_id for r in rows] == sorted(PROPERTY_IDS)
    for row in rows:
        alone = verify_corpus([("fuzz", _build(facets))], properties=[row.property_id])
        assert alone.rows == (row,)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_FACETS, st.data())
def test_from_ids_matches_public_constructor(facets, data):
    c = _build(facets)
    ids = st.sets(st.integers(0, c.n_vertices - 1), min_size=1, max_size=4)
    pieces = data.draw(st.lists(ids, min_size=1, max_size=8))
    trusted = SimplicialComplex._from_ids(c.vertices, [sum(1 << i for i in p) for p in pieces])
    public = from_facets([[c.vertices[i] for i in p] for p in pieces])
    assert trusted == public
    assert trusted.vertices == public.vertices
    assert trusted.dim == public.dim
    assert trusted.is_pure == public.is_pure
    assert trusted.absorbed == public.absorbed
    assert trusted.f_vector() == public.f_vector()


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_FACETS)
def test_joins_match_label_routes(facets):
    c = _build(facets)
    for construction, apexes, trusted, by_labels in join_route_outcomes(c):
        assert trusted == by_labels, (construction, apexes)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_FACETS)
def test_id_paths_match_oracles(facets):
    c = _build(facets)
    ids = {tuple(sorted(c.vertices.index(v) for v in f)) for f in facets}
    assert set(map(frozenset, _maximal(ids))) == maximal_by_pairs(map(frozenset, ids))
    for face in _faces(c):
        kind, lk = _outcome(c.link, face)
        if kind == "value" and lk.is_pure:
            assert classify(lk) == classify_by_labels(lk), face
            assert is_strongly_connected(lk) == strongly_connected_by_pairs(lk), face
            assert is_pseudomanifold(lk) == pseudomanifold_by_ridge_counts(lk), face
            assert is_homology_manifold(lk) == homology_manifold_ascending(lk), face
            assert _outcome(_normality, lk) == _outcome(normal_by_links, lk), face
            assert _outcome(verify_barnette_antistar, lk) == _outcome(
                barnette_antistar_by_complexes, lk
            ), face


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_FACETS)
def test_neighborhood_routes_match_oracles(facets):
    c = _build(facets)
    for v in c.vertices:
        got = _outcome(is_outside_connected, c, v)
        assert got == _outcome(outside_connected_by_complexes, c, v), v
    if c.is_pure and c.dim >= 1 and manifold_class(c).homology_manifold:
        adjacency = skeleton(c).masks
        for i, v in enumerate(c.vertices):
            count = _outside_facet_components(c, adjacency[i] | 1 << i)
            assert count == relative_betti_by_complexes(c, v)[c.dim], v
        assert _relative_homology_matches(c) == relative_homology_matches_by_complexes(c)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_FACETS)
def test_connectivity_matches_all_pairs_reference(facets):
    g = skeleton(_build(facets))
    if g.n <= 12:
        res = vertex_connectivity(g)
        cut = (None, None) if res.cut is None else (res.cut.vertices, res.cut.pair)
        assert (res.value, *cut) == all_pairs_connectivity(g)


def _suspended(facets) -> list[tuple[str, ...]]:
    return list(_build(facets).suspension().facets)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.one_of(_FACETS, _FACETS.map(_suspended)))
def test_vertex_link_table_is_banner_under_p37_hypotheses(facets):
    # suspensions keep banner status (P3.8ii) and reach d >= 2 more often
    c = _build(facets)
    if c.is_pure and c.dim >= 2 and classify(c).banner:
        for i, v in enumerate(c.vertices):
            assert _link_banner(c, (i,)) == classify(c.link((v,))).banner, v
