"""An exhaustive tier: every pure complex on at most five vertices, and
every antichain on at most four.

The fast paths rest on short combinatorial arguments whose edge cases are
the small complexes (d = 0 and d = 1, triangles, single facets, simplex
boundaries).  Rather than sample them, these tests take every family of
k-subsets of {0, ..., n-1} that uses all n vertices, for n <= 5: 1,817
complexes, one per family (relabelings included).  The antichains, the
families of subsets none inside another, add the non-pure complexes on
n <= 4 vertices, which pin the skip reasons.
"""

import itertools
from dataclasses import astuple

import pytest

from scx.analysis import (
    _outside_facet_components,
    _relative_homology_matches,
    analyze,
    report_from_json,
    report_json,
    verify_corpus,
    verify_property,
)
from scx.banner import _link_banner_value, banner_number, classify, classify_tilde_cliques
from scx.complexes import SimplicialComplex, _maximal
from scx.errors import EmptyComplex, ScxError
from scx.generators import catalog
from scx.graphs import _adjacency_masks, is_outside_connected, skeleton, vertex_connectivity
from scx.manifold import (
    facet_graph,
    is_homology_manifold,
    is_normal,
    is_pseudomanifold,
    is_strongly_connected,
    verify_barnette_antistar,
)

from oracles import (
    all_pairs_connectivity,
    barnette_antistar_by_complexes,
    brute_is_flag,
    built_fields,
    classify_by_labels,
    homology_manifold_ascending,
    link_values_bounded_by_links,
    links_inherit_by_links,
    mask_sets,
    maximal_by_pairs,
    normal_by_links,
    outside_connected_by_complexes,
    pseudomanifold_by_ridge_counts,
    relative_betti_by_complexes,
    relative_homology_matches_by_complexes,
    strongly_connected_by_pairs,
)


def _every_pure_complex(max_n: int) -> list[SimplicialComplex]:
    out = []
    for n in range(1, max_n + 1):
        for k in range(1, n + 1):
            subsets = list(itertools.combinations(range(n), k))
            for r in range(1, len(subsets) + 1):
                for family in itertools.combinations(subsets, r):
                    if len({v for s in family for v in s}) == n:
                        out.append(SimplicialComplex([[f"x{v}" for v in s] for s in family]))
    return out


def _every_antichain(max_n: int) -> list[list[tuple[int, ...]]]:
    out = []
    for n in range(1, max_n + 1):
        subsets = [s for k in range(1, n + 1) for s in itertools.combinations(range(n), k)]
        for r in range(1, len(subsets) + 1):
            for family in itertools.combinations(subsets, r):
                if len({v for s in family for v in s}) == n and not any(
                    set(a) < set(b) for a, b in itertools.permutations(family, 2)
                ):
                    out.append(list(family))
    return out


def _outcome(fn, *args):
    """What a call did: ("value", result) or ("raise", exception type)."""
    try:
        return "value", fn(*args)
    except ScxError as exc:
        return "raise", type(exc)


def _built(fn, *args):
    """``_outcome`` of a construction, with a built complex read as its stored fields."""
    kind, value = _outcome(fn, *args)
    return (kind, built_fields(value)) if kind == "value" else (kind, value)


def _faces(c: SimplicialComplex):
    """Every face of ``c`` as a label tuple, the empty face first."""
    yield ()
    for k in range(1, c.dim + 2):
        yield from sorted(c.faces(k))


SMALL = _every_pure_complex(5)


def test_classify_matches_label_oracle_on_every_small_complex():
    assert len(SMALL) == 1817
    for c in SMALL:
        assert classify(c) == classify_by_labels(c), c.facets


def test_manifold_recognition_and_flagness_match_oracles_on_every_small_complex():
    """Normality on facet residues against built links, the top-down
    homology-manifold pass against full Betti vectors, and flagness."""
    pseudomanifolds = 0
    for c in SMALL:
        assert is_homology_manifold(c) == homology_manifold_ascending(c), c.facets
        assert classify(c).flag == brute_is_flag(c), c.facets
        if is_pseudomanifold(c) != "no":
            pseudomanifolds += 1
            res = is_normal(c)
            assert (res.normal, res.witness) == normal_by_links(c), c.facets
    assert pseudomanifolds == 411


def test_link_banner_values_match_built_links_on_every_small_face():
    """On the 20,009 faces with a link, the empty face included, and on the
    9,521 facets, whose links raise."""
    faces = 0
    for c in SMALL:
        for face in _faces(c):
            faces += 1
            via_table = _outcome(_link_banner_value, c, face)
            direct = _outcome(lambda: banner_number(c.link(face)).value)
            assert via_table == direct, (c.facets, face)
    assert faces == 20009 + 9521


def test_l52_rows_match_exact_link_values_on_every_small_complex():
    """The level-b scan's pass against the banner number of every built link
    of a face of at most b vertices; a complex without a banner number skips."""
    checked = 0
    for c in SMALL:
        res = verify_property("L5.2", c)
        if banner_number(c).value is None:
            assert res.verdict == "skip", c.facets
            continue
        checked += 1
        row = (res.verdict, res.detail) + ((res.payload,) if res.payload else ())
        assert row == link_values_bounded_by_links(c), c.facets
    assert checked > 0


def test_p37_rows_match_built_vertex_links():
    """P3.7's one scan of the vertex link table against classifying every
    built vertex link, on the small complexes and on the pure catalog
    entries with their cones and suspensions."""
    pure = [c for _, c in catalog() if c.is_pure]
    subjects = SMALL + pure + [c.cone() for c in pure] + [c.suspension() for c in pure]
    checked = small = 0
    for i, c in enumerate(subjects):
        res = verify_property("P3.7", c)
        if res.verdict == "skip":
            assert c.dim < 2 or not classify_by_labels(c).banner, c.facets
            continue
        checked += 1
        small += i < len(SMALL)
        row = (res.verdict, res.detail) + ((res.payload,) if res.payload else ())
        assert row == links_inherit_by_links(c), c.facets
    assert small == 119 and checked > small


def test_subcomplexes_match_label_sets_on_every_small_complex():
    """The link of every face, and the star, antistar and closed neighborhood
    (``_induced``) of every vertex, against the public constructor on the
    label sets they stand for, absorption counts and errors included."""
    for c in SMALL:
        facets = [frozenset(f) for f in c.facets]
        for face in _faces(c):
            f = frozenset(face)
            residues = [g - f for g in facets if f <= g and g != f]
            assert _built(c.link, face) == _built(SimplicialComplex, residues), (c.facets, face)
        for v in c.vertices:
            star = [g for g in facets if v in g]
            assert _built(c.star, v) == _built(SimplicialComplex, star), (c.facets, v)
            pieces = {g - {v} for g in facets} - {frozenset()}
            assert _built(c.antistar, v) == _built(SimplicialComplex, pieces), (c.facets, v)
            hood = frozenset().union(*star)
            near = sum(1 << c.vertices.index(u) for u in hood)
            pieces = {g & hood for g in facets} - {frozenset()}
            assert _built(c._induced, near) == _built(SimplicialComplex, pieces), (c.facets, v)


def test_skeleton_edges_are_the_edge_faces_on_every_small_complex():
    for c in SMALL:
        g = skeleton(c)
        edges = {frozenset((a, b)) for a, near in enumerate(g.adj) for b in near}
        assert edges == {frozenset(e) for e in c.faces_ids(2)}, c.facets
        assert g.n_edges == len(c.faces_ids(2)), c.facets


def test_p38iii_stranded_skip_is_the_least_stranded_clique_size():
    """P3.8iii's edge scan skips exactly when some j <= d+2 has stranded j-cliques.

    The cone apex is adjacent to the boundary vertices only, so the least
    stranded clique is the apex with one edge of c between two boundary
    vertices that is no boundary edge: j = 3.
    """
    balls = [c for c in SMALL if c.dim >= 2 and is_pseudomanifold(c) == "with_boundary"]
    assert len(balls) == 305
    skipped = 0
    for c in balls:
        sizes = [
            j for j in range(1, c.dim + 3) if classify_tilde_cliques(c, j).stranded
        ]
        res = verify_property("P3.8iii", c)
        stranded = res.detail == "stranded 3-cliques block the product rule"
        assert stranded == bool(sizes), c.facets
        assert not sizes or sizes[0] == 3, c.facets
        skipped += stranded
    assert 0 < skipped < len(balls)


def test_ridge_graph_searches_match_pairwise_oracles_on_every_small_complex():
    """Strong connectivity, pseudomanifolds, antistars and the facet graph."""
    for c in SMALL:
        assert is_strongly_connected(c) == strongly_connected_by_pairs(c), c.facets
        assert is_pseudomanifold(c) == pseudomanifold_by_ridge_counts(c), c.facets
        assert _outcome(verify_barnette_antistar, c) == _outcome(
            barnette_antistar_by_complexes, c
        ), c.facets
        facets = [set(f) for f in c.facets]
        ridges = tuple(
            (a, b)
            for a, b in itertools.combinations(range(len(facets)), 2)
            if len(facets[a] & facets[b]) == c.dim
        )
        assert facet_graph(c).edges == ridges, c.facets


def test_skeleton_searches_match_built_complexes_on_every_small_complex():
    """Outsides of closed neighborhoods, and vertex connectivity with its
    certificate, the empty cut of a disconnected skeleton included."""
    disconnected = 0
    for c in SMALL:
        for v in c.vertices:
            assert _outcome(is_outside_connected, c, v) == _outcome(
                outside_connected_by_complexes, c, v
            ), (c.facets, v)
        g = skeleton(c)
        res = vertex_connectivity(g)
        got = (res.value, None, None) if res.cut is None else (res.value, *astuple(res.cut))
        expected = all_pairs_connectivity(g)
        assert got == expected, c.facets
        disconnected += expected[1] == ()
    assert disconnected > 0


def test_outside_facet_components_match_relative_betti_on_every_small_manifold():
    """L4.4-homological's component count against the full ranks of the pair."""
    manifolds = [c for c in SMALL if c.dim >= 1 and is_homology_manifold(c)[0]]
    counts = set()
    for c in manifolds:
        adjacency = _adjacency_masks(c)
        for i, v in enumerate(c.vertices):
            count = _outside_facet_components(c, adjacency[i] | 1 << i)
            assert count == relative_betti_by_complexes(c, v)[c.dim], (c.facets, v)
            counts.add(count)
        assert _relative_homology_matches(c) == relative_homology_matches_by_complexes(c), c.facets
    assert counts == {0, 1}


def test_every_small_complex_verifies_analyzes_and_round_trips():
    named = [(f"c{i}", c) for i, c in enumerate(SMALL)]
    summary = verify_corpus(named)
    assert len(summary.rows) == 13 * len(SMALL)
    assert {r.verdict for r in summary.rows} <= {"pass", "skip"}
    for name, c in named:
        report = analyze(c, name=name)
        assert report_from_json(report_json(report)) == report, c.facets


ANTICHAINS = _every_antichain(4)


def test_every_small_antichain_passes_or_skips():
    assert len(ANTICHAINS) == 126
    complexes = [SimplicialComplex([[f"x{v}" for v in s] for s in a]) for a in ANTICHAINS]
    assert sum(not c.is_pure for c in complexes) == 63
    summary = verify_corpus((f"a{i}", c) for i, c in enumerate(complexes))
    assert summary.errors == ()
    assert {r.verdict for r in summary.rows} <= {"pass", "skip"}
    for i, c in enumerate(complexes):
        if c.is_pure:
            report = analyze(c, name=f"a{i}")
            assert report_from_json(report_json(report)) == report, c.facets


def test_every_small_antichain_absorbs_its_closure_through_both_constructors():
    """Each antichain with all its non-empty subsets added comes back as
    itself, from label lists and from bitmasks, with unused labels dropped."""
    labels = tuple(f"x{v}" for v in range(4))
    for a in ANTICHAINS:
        closure = {
            frozenset(s)
            for f in a
            for k in range(1, len(f) + 1)
            for s in itertools.combinations(f, k)
        }
        kept = maximal_by_pairs(closure)
        assert kept == {frozenset(f) for f in a}, a
        masks = [sum(1 << v for v in s) for s in closure]
        assert mask_sets(_maximal(set(masks))) == kept, a
        public = SimplicialComplex([[labels[v] for v in s] for s in closure])
        assert {frozenset(int(v[1:]) for v in f) for f in public.facets} == kept, a
        assert public.absorbed == len(closure) - len(a), a
        assert built_fields(SimplicialComplex._from_ids(labels, masks)) == built_fields(public), a
        shifted = SimplicialComplex._from_ids(("w",) + labels, [m << 1 for m in masks])
        assert built_fields(shifted) == built_fields(public), a


def test_the_empty_family_is_no_complex():
    with pytest.raises(EmptyComplex):
        SimplicialComplex([])
