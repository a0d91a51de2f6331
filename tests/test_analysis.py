import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from scx import analysis, cli, generators, homology, kernels
from scx.analysis import (
    PROPERTY_IDS,
    analyze,
    report_from_json,
    report_json,
    verify_corpus,
    verify_property,
)
from scx.banner import classify
from scx.complexes import SimplicialComplex, dumps, from_facets, loads
from scx.errors import EmptyOutside, NotAFace, ScxError, UnknownProperty
from scx.generators import (
    banana,
    catalog,
    complete_graph_edges,
    cross_polytope_boundary,
    cycle,
    cyclic_polytope_boundary,
    display_name,
    fan_ball,
    ring_ball,
    simplex,
    simplex_boundary,
    stacked_sphere,
    torus_7,
)
from scx.graphs import (
    PathFamily,
    _validate_family,
    is_outside_connected,
    local_connectivity,
    skeleton,
)
from scx.manifold import manifold_class

from oracles import (
    outside_connected_by_complexes,
    relative_betti_by_complexes,
    relative_homology_matches_by_complexes,
)


def test_analyze_simplex_boundary_4():
    r = analyze(simplex_boundary(4), name="b4")
    assert r.dim == 3
    assert r.banner_number == 2
    assert r.bound == 4
    assert r.connectivity == 4  # K5 skeleton
    assert r.bound_checked and r.bound_satisfied


def test_analyze_octahedron_tight():
    r = analyze(cross_polytope_boundary(2))
    assert r.flag and r.banner_number == 0
    assert r.bound == 4 and r.connectivity == 4
    assert r.bound_satisfied


def test_analyze_ring_sphere():
    # the boundary cone of the ring ball: closed, normal, not banner;
    # its banner number is 2 so the bound is 4, met by connectivity 5
    r = analyze(ring_ball().tilde(), name="ring-sphere")
    assert r.pseudomanifold == "closed" and r.normal
    assert not r.banner and not r.strongly_banner
    assert r.banner_number == 2
    assert r.bound == 4 and r.connectivity == 5
    assert r.bound_checked and r.bound_satisfied


def test_analyze_zero_sphere_leaves_the_bound_unchecked(tmp_path, capsys):
    # T1.1 skips the 0-sphere, so its report must not call the bound checked
    r = analyze(from_facets([["a"], ["b"]]))
    assert (r.banner_number, r.bound, r.bound_satisfied) == (None, None, None)
    assert r.bound_checked is False
    path = tmp_path / "s0.scx"
    path.write_text("a\nb\n")
    assert cli.main(["analyze", str(path), "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["bound_checked"] is False


_PLAIN_REPORTS = {
    # a flag catalog entry, and one whose banner witness gets its own line
    "cross-polytope-2": (cross_polytope_boundary(2), """\
name:               cross-polytope-2.scx
dimension:          2
f-vector:           (1, 6, 12, 8)
pseudomanifold:     closed
normal:             True
homology manifold:  True
homology sphere:    True
reduced Betti:      (0, 0, 1)
flag:               True
strongly banner:    True
banner:             True
banner number:      0
connectivity:       4
bound 2d-b:         4
bound checked:      True
bound satisfied:    True
"""),
    "stacked-sphere-2-5-11": (stacked_sphere(2, 5, 11), """\
name:               stacked-sphere-2-5-11.scx
dimension:          2
f-vector:           (1, 9, 21, 14)
pseudomanifold:     closed
normal:             True
homology manifold:  True
homology sphere:    True
reduced Betti:      (0, 0, 1)
flag:               False
strongly banner:    False
banner:             False
witness:            {'level': 'banner', 'kind': 'critical_non_spanning_clique', 'vertices': ['s0', 'v0', 'v2']}
banner number:      1
connectivity:       3
bound 2d-b:         3
bound checked:      True
bound satisfied:    True
"""),
}


@pytest.mark.parametrize("name", sorted(_PLAIN_REPORTS))
def test_analyze_prints_the_plain_text_report(name, tmp_path, monkeypatch, capsys):
    c, expected = _PLAIN_REPORTS[name]
    monkeypatch.chdir(tmp_path)
    (tmp_path / f"{name}.scx").write_text(dumps(c))
    assert cli.main(["analyze", f"{name}.scx"]) == 0
    assert capsys.readouterr().out == expected


def test_bound_checked_is_t11_not_skipping_on_the_catalog():
    for spec, c in catalog():
        if c.is_pure:
            skipped = verify_property("T1.1", c).verdict == "skip"
            assert analyze(c).bound_checked is not skipped, display_name(spec)


def test_analyze_triangle_report_values():
    r = analyze(cycle(3), name="c3")
    assert r.banner_number == 0
    assert r.connectivity == 2
    assert not r.banner


def test_report_json_fields():
    r = analyze(simplex_boundary(3), name="b3")
    data = json.loads(report_json(r))
    assert data["schema"] == "scx-report/1"
    assert data["banner"] is False
    assert data["banner_number"] == 1
    assert data["connectivity"] == 3
    assert list(data)[0] == "schema"


def test_report_json_roundtrip():
    r = analyze(cross_polytope_boundary(2), name="octa")
    assert report_from_json(report_json(r)) == r


def test_report_rejects_unknown_fields():
    r = analyze(cycle(4), name="c4")
    data = json.loads(report_json(r))
    data["extra"] = 1
    with pytest.raises(ScxError):
        report_from_json(json.dumps(data))
    data = json.loads(report_json(r))
    data["schema"] = "scx-report/0"
    with pytest.raises(ScxError):
        report_from_json(json.dumps(data))
    data = json.loads(report_json(r))
    del data["bound"]
    with pytest.raises(ScxError, match=r"missing report fields: \['bound'\]"):
        report_from_json(json.dumps(data))


@pytest.mark.parametrize("text", ["", "{", "not json", "[]", "3", "null", '"report"'])
def test_report_rejects_text_that_is_not_a_json_object(text):
    with pytest.raises(ScxError):
        report_from_json(text)


@pytest.mark.parametrize(
    "key, value",
    [
        ("f_vector", 3),
        ("betti", None),
        ("dim", "x"),
        ("banner", "yes"),
        ("connectivity_certificate", [1]),
        ("dim", True),
        ("connectivity", 4.0),
        ("f_vector", [1, "4", 4]),
        ("betti", [0, False]),
        ("name", 3),
        ("normal", "no"),
        ("banner_number_witness", None),
        ("bound", [4]),
        ("banner_number_witness", {}),
        ("banner_number_witness", {"passed_faces": "x", "failing_face": None}),
        ("banner_number_witness", {"passed_faces": 1, "failing_face": [1]}),
        ("banner_number_witness", {"passed_faces": 1, "failing_face": None, "more": 0}),
        ("connectivity_certificate", {"cut": 3}),
        ("connectivity_certificate", {"cut": ["c1"], "pair": "c0"}),
        ("connectivity_certificate", {"complete": 1}),
        ("banner_witness", {"level": "banner", "kind": 2, "vertices": ["c0"]}),
        ("banner_witness", {"level": "banner", "kind": "simplex_boundary"}),
    ],
)
def test_report_rejects_values_of_the_wrong_type(key, value):
    data = json.loads(report_json(analyze(cycle(4), name="c4")))
    data[key] = value
    with pytest.raises(ScxError):
        report_from_json(json.dumps(data))


def test_golden_reports_read_back():
    golden = Path(__file__).parent / "golden" / "analyze"
    paths = sorted(golden.glob("*.json"))
    assert paths
    for path in paths:
        text = path.read_text()
        assert report_json(report_from_json(text)) == text, path.name


def test_report_self_consistent_after_reserialization():
    for c, name in [(ring_ball(), "rb"), (cross_polytope_boundary(2), "oct")]:
        direct = report_json(analyze(c, name=name))
        again = report_json(analyze(loads(dumps(c)), name=name))
        assert direct == again


def test_verify_property_gating():
    # hypothesis gates must report skip, never pass
    res = verify_property("L4.3", banana(complete_graph_edges(4)))
    assert res.verdict == "skip"
    res = verify_property("L4.2", ring_ball().tilde())
    assert res.verdict == "skip"  # the coned ball is not banner
    res = verify_property("P3.8ii", ring_ball())
    assert res.verdict == "pass"
    res = verify_property("P3.8iii", ring_ball())
    assert res.verdict == "skip"  # stranded apex cliques block the rule
    res = verify_property("P3.8iii", simplex_boundary(3).cone())
    assert res.verdict == "pass"  # cones over closed complexes never strand
    res = verify_property("P3.8iii", cycle(4).cone())
    assert res.verdict == "pass"
    res = verify_property("P3.7", cycle(5))
    assert res.verdict == "skip"  # links in dimension one are vertex pairs
    res = verify_property("T1.1", cross_polytope_boundary(3))
    assert res.verdict == "pass"
    res = verify_property("L4.4-homological", cross_polytope_boundary(2))
    assert res.verdict == "pass"


def test_verify_property_fail_payload():
    from scx.generators import fan_ball

    sphere = fan_ball().tilde()
    res = verify_property("T1.1", sphere)
    assert res.verdict == "pass"  # bound is 2*2-1=3, connectivity is 3 or more
    res = verify_property("L2.1", sphere)
    assert res.verdict == "pass"


_NOT_CLOSED = ("skip", "not a closed pseudomanifold")
_NOT_CLOSED_NORMAL = ("skip", "not a closed normal pseudomanifold")
_LOW_DIM = {
    "P3.7": ("skip", "links of a 1-dimensional complex are bare vertex pairs"),
    "P3.8i": ("skip", "cone equivalence starts at dimension 1"),
    "P3.8ii": ("skip", "suspension equivalence starts at dimension 1"),
    "P3.8iii": ("skip", "a 0-dimensional complex has no boundary to cone over"),
}

# The corpus holds only pure complexes of dimension at least 1, so these
# inputs are the only place where the other skip reasons are pinned.
_DEGENERATE = {
    "not-pure": (
        [["a", "b", "c"], ["c", "d"]],
        {pid: ("skip", "complex is not pure") for pid in PROPERTY_IDS}
        | {"L2.1": _NOT_CLOSED},
    ),
    "0-sphere": (
        [["a"], ["b"]],
        {
            "T1.1": ("skip", "the 0-sphere has no banner number"),
            "T4.1": ("skip", "not banner"),
            "L2.1": ("pass", "all 2 antistars strongly connected"),
            "L4.2": ("skip", "not banner"),
            "L4.3": ("skip", "not banner"),
            "L4.4": ("skip", "not banner"),
            "L4.4-homological": ("skip", "non-neighborhoods are empty in dimension 0"),
            "L5.2": ("skip", "banner number undefined"),
            **_LOW_DIM,
            "A3.2-special-case": ("pass", "connectivity 0 >= 0"),
        },
    ),
    "vertex": (
        [["a"]],
        {
            "T1.1": _NOT_CLOSED_NORMAL,
            "T4.1": _NOT_CLOSED_NORMAL,
            "L2.1": _NOT_CLOSED,
            "L4.2": _NOT_CLOSED,
            "L4.3": _NOT_CLOSED,
            "L4.4": _NOT_CLOSED,
            "L4.4-homological": ("skip", "non-neighborhoods are empty in dimension 0"),
            "L5.2": ("pass", "inequality holds below level 0"),
            **_LOW_DIM,
            "A3.2-special-case": _NOT_CLOSED,
        },
    ),
    "path": (
        [["v0", "v1"], ["v1", "v6"]],  # its boundary is two bare points
        {
            "T1.1": _NOT_CLOSED_NORMAL,
            "T4.1": _NOT_CLOSED_NORMAL,
            "L2.1": _NOT_CLOSED,
            "L4.2": _NOT_CLOSED,
            "L4.3": _NOT_CLOSED,
            "L4.4": _NOT_CLOSED,
            "L4.4-homological": ("skip", "not a homology manifold"),
            "L5.2": ("pass", "inequality holds below level 0"),
            "P3.7": _LOW_DIM["P3.7"],
            "P3.8i": ("pass", "cone preserves flag / strongly banner / banner"),
            "P3.8ii": ("pass", "suspension preserves flag / strongly banner / banner"),
            "P3.8iii": (
                "skip",
                "a 1-dimensional boundary is bare points, which are never banner",
            ),
            "A3.2-special-case": _NOT_CLOSED,
        },
    ),
}


@pytest.mark.parametrize(
    "pid, facets",
    [
        ("P3.8iii", [["a"]]),
        ("L4.4-homological", [["a"]]),
        ("T1.1", [["a"], ["b"]]),
        ("P3.8iii", [["v0", "v1"], ["v1", "v6"]]),  # boundary of two bare points
    ],
)
def test_degenerate_inputs_skip_with_a_reason(pid, facets):
    expected = next(e for f, e in _DEGENERATE.values() if f == facets)
    res = verify_property(pid, from_facets(facets))
    assert res.verdict == "skip" and (res.verdict, res.detail) == expected[pid]


@pytest.mark.parametrize("name", list(_DEGENERATE))
def test_degenerate_inputs_pin_every_check(name):
    facets, expected = _DEGENERATE[name]
    c = from_facets(facets)
    results = [verify_property(pid, c) for pid in PROPERTY_IDS]
    assert {r.property_id: (r.verdict, r.detail) for r in results} == expected


def test_unknown_property():
    with pytest.raises(UnknownProperty):
        verify_property("T9.9", cycle(3))


def test_verify_corpus_clean(corpus):
    summary = verify_corpus()
    assert summary.failures == ()
    assert summary.exit_code == 0
    verdicts = {r.verdict for r in summary.rows}
    assert verdicts <= {"pass", "skip"}
    assert "skip" in verdicts and "pass" in verdicts


def test_verify_corpus_isolates_a_raising_check(monkeypatch):
    hypotheses, conclusion = analysis._STATEMENTS["L4.3"]

    def raising(c):
        if c.n_vertices == 5:
            raise NotAFace("boom")
        return conclusion(c)

    monkeypatch.setitem(analysis._STATEMENTS, "L4.3", (hypotheses, raising))
    named = [("c4", cycle(4)), ("c5", cycle(5)), ("c6", cycle(6))]
    summary = verify_corpus(named)
    assert len(summary.rows) == 3 * len(PROPERTY_IDS)
    errors = [r for r in summary.rows if r.verdict == "error"]
    assert [(r.name, r.property_id) for r in errors] == [("c5", "L4.3")]
    assert "boom" in errors[0].detail
    assert len(summary.errors) == 1 and "c5" in summary.errors[0]
    assert summary.exit_code == 2
    assert verify_corpus(named[:1]).rows == tuple(
        r for r in summary.rows if r.name == "c4"
    )


def test_cli_verify_reports_error_rows(monkeypatch, tmp_path, capsys):
    def raising(c):
        raise NotAFace("boom")

    hypotheses = analysis._STATEMENTS["L4.3"][0]
    monkeypatch.setitem(analysis._STATEMENTS, "L4.3", (hypotheses, raising))
    path = tmp_path / "c6.scx"
    path.write_text(dumps(cycle(6)))
    assert cli.main(["verify", str(path)]) == 2
    captured = capsys.readouterr()
    assert "1 errored" in captured.out and "boom" in captured.err
    assert cli.main(["verify", str(path), "--json"]) == 2
    data = json.loads(capsys.readouterr().out)
    assert [r["verdict"] for r in data["rows"]].count("error") == 1
    assert len(data["errors"]) == 1


MEMO_KEYS = ("normal", "shelled", "homology_manifold", "classify", "banner_number", "skeleton", "ridge_graph")


class _CountingMemo(dict):
    """A memo that counts its stores per key, so each count is a build."""

    def __init__(self):
        super().__init__()
        self.stores = Counter()

    def __setitem__(self, key, value):
        self.stores[key] += 1
        super().__setitem__(key, value)


def _count_index_levels(*complexes) -> None:
    """Give each complex a face cache that counts its stores per face size;
    each level is built once on a miss and stored, so a store is a build."""
    for c in complexes:
        c._face_cache = _CountingMemo()


def _one_ridge_pass(c) -> bool:
    """Did ``c`` build its ridge level once, each other level at most once,
    and keep holder lists only at the ridge level?"""
    cache = c._face_cache
    lists = {k for k, level in cache.items() if isinstance(level, dict)}
    return cache.stores[c.dim] == 1 and max(cache.stores.values()) == 1 and lists == {c.dim}


def test_verify_corpus_computes_each_invariant_once(monkeypatch):
    """Each invariant is computed at most once per complex, and each
    hypothesis computes only the invariant it names: no manifold bundle,
    and the homology-manifold check only where a check reaches
    HOMOLOGY_MANIFOLD, which a non-banner input never does.  Normality
    comes from the greedy shelling, which L4.4-homological's check then
    reads too; the residue scan runs only where the pass stalls, as on the
    torus.  A build is a store into the memo of the complex, or into the
    memo of its skeleton for the connectivity."""
    from scx import graphs, manifold

    banner_input = cross_polytope_boundary(3)
    other = cyclic_polytope_boundary(7, 4)  # closed and normal, not banner
    torus = torus_7()  # closed and normal, not banner, and does not shell
    subjects = (banner_input, other, torus)
    for c in subjects:
        c._memo = _CountingMemo()
    set_graph = graphs.SkeletonGraph._set

    def counting_set(g, *args):
        set_graph(g, *args)
        g._memo = _CountingMemo()

    monkeypatch.setattr(graphs.SkeletonGraph, "_set", counting_set)
    names = [
        (analysis, "manifold_class"),
        (manifold, "_residue_scan"),
        (manifold, "is_homology_sphere"),
    ]
    calls = {(c, name): 0 for c in subjects for _, name in names}

    def count(module, name):
        body = getattr(module, name)

        def counted(x):
            for c in subjects:
                if x is c:
                    calls[c, name] += 1
            return body(x)

        monkeypatch.setattr(module, name, counted)

    for module, name in names:
        count(module, name)
    _count_index_levels(*subjects)
    summary = verify_corpus([("octahedral-3-sphere", banner_input), ("cyclic", other), ("torus", torus)])
    rows = {(r.name, r.property_id): (r.verdict, r.detail) for r in summary.rows}
    for name in ("octahedral-3-sphere", "cyclic", "torus"):
        assert rows[name, "T1.1"][0] == rows[name, "L5.2"][0] == "pass"
    assert rows["octahedral-3-sphere", "L4.4-homological"][0] == "pass"
    assert rows["cyclic", "L4.4-homological"] == rows["torus", "L4.4-homological"] == ("skip", "not banner")

    def counts(c):
        stores = {key: c._memo.stores[key] for key in MEMO_KEYS}
        stores["connectivity"] = graphs.skeleton(c)._memo.stores["connectivity"]
        return {**stores, **{name: calls[c, name] for _, name in names}}

    once = dict.fromkeys([*MEMO_KEYS, "connectivity"], 1)
    once["manifold_class"] = once["is_homology_sphere"] = once["_residue_scan"] = 0
    assert counts(banner_input) == once
    once["homology_manifold"] = 0
    assert counts(other) == once
    once["_residue_scan"] = 1
    assert counts(torus) == once
    assert banner_input._memo["shelled"] is not None and other._memo["shelled"] is not None
    assert torus._memo["shelled"] is None
    assert all(_one_ridge_pass(c) for c in subjects)  # the shared ridge level


def test_balls_with_boundary_make_one_ridge_pass():
    for ball in (fan_ball(), ring_ball()):
        _count_index_levels(ball)
        verify_corpus([("ball", ball)])
        assert _one_ridge_pass(ball)
        fresh = from_facets(ball.facets)
        _count_index_levels(fresh)
        assert fresh.boundary() == ball.boundary()
        assert fresh._face_cache.stores == {fresh.dim: 1}  # boundary() builds only the ridge level
        assert _one_ridge_pass(fresh)


def test_p37_failure_row_on_a_strongly_banner_input(monkeypatch):
    c = cross_polytope_boundary(3)
    assert classify(c).strongly_banner
    v = c.vertices[1]
    entry = analysis._link_banner

    def rejecting(cx, ids):
        return False if cx is c and ids == (1,) else entry(cx, ids)

    def unbuilt(cx, face):
        raise AssertionError("a strongly banner input builds no link")

    monkeypatch.setattr(analysis, "_link_banner", rejecting)
    monkeypatch.setattr(SimplicialComplex, "link", unbuilt)
    res = verify_property("P3.7", c)
    assert (res.verdict, res.detail) == ("fail", f"link of {v} loses the property")
    assert res.payload == {"vertex": v}


def test_p37_failure_row_on_a_banner_input_reads_the_link_table(monkeypatch):
    # the one catalog input with d >= 2 that is banner but not strongly banner
    c = banana(complete_graph_edges(4))
    cls = classify(c)
    assert c.dim >= 2 and cls.banner and not cls.strongly_banner
    assert verify_property("P3.7", c).verdict == "pass"
    v = c.vertices[2]
    entry = analysis._link_banner

    def rejecting(cx, ids):
        return False if cx is c and ids == (2,) else entry(cx, ids)

    def unbuilt(cx, face):
        raise AssertionError("a banner input that is not strongly banner builds no link")

    monkeypatch.setattr(analysis, "_link_banner", rejecting)
    monkeypatch.setattr(SimplicialComplex, "link", unbuilt)
    res = verify_property("P3.7", c)
    assert (res.verdict, res.detail) == ("fail", f"link of {v} loses the property")
    assert res.payload == {"vertex": v}


def test_only_witnesses_build_links(monkeypatch):
    """No check builds a link by label: the scans that need a face link,
    such as the rank scan of torus-7, which the greedy shelling does not
    certify, build it from the residues of the face."""
    callers = []
    real = SimplicialComplex.link

    def traced(cx, face):
        callers.append(sys._getframe(1).f_code.co_name)
        return real(cx, face)

    monkeypatch.setattr(SimplicialComplex, "link", traced)
    verify_corpus([(display_name(spec), c) for spec, c in catalog()])
    for spec, c in catalog():  # fresh complexes, as the memo would answer the old ones
        if c.is_pure:
            analyze(c, display_name(spec))
    assert callers == []


def test_analyze_of_a_shelled_sphere_takes_no_rank(monkeypatch):
    # the greedy shelling certifies the homology manifold and its Betti numbers
    calls = []

    def counted(rows):
        calls.append(len(rows))
        return kernels.gf2_rank(rows)

    monkeypatch.setattr(homology, "gf2_rank", counted)
    report = analyze(cross_polytope_boundary(4), "cross-4")
    assert report.homology_sphere and report.betti == (0, 0, 0, 0, 1)
    assert calls == []


def _neighborhood_subjects(corpus):
    """Pure complexes of the corpus, stacked, cyclic and cross-polytope
    spheres, and the cones and suspensions of those spheres."""
    spheres = [
        ("stacked-2-6-1", stacked_sphere(2, 6, 1)),
        ("stacked-3-5-2", stacked_sphere(3, 5, 2)),
        ("stacked-4-3-3", stacked_sphere(4, 3, 3)),
        ("cyclic-7-3", cyclic_polytope_boundary(7, 3)),
        ("cyclic-8-4", cyclic_polytope_boundary(8, 4)),
        ("cyclic-9-5", cyclic_polytope_boundary(9, 5)),
        ("cross-polytope-2", cross_polytope_boundary(2)),
        ("cross-polytope-4", cross_polytope_boundary(4)),
    ]
    subjects = [(name, c) for name, c in corpus.items() if c.is_pure]
    for name, c in spheres:
        subjects += [(name, c), (name + "-cone", c.cone()), (name + "-suspension", c.suspension())]
    return subjects


def _outcome(fn, *args):
    try:
        return "value", fn(*args)
    except ScxError as exc:
        return "raise", type(exc)


def test_outside_routes_match_the_built_complexes_per_vertex(corpus):
    seen = set()
    for name, c in _neighborhood_subjects(corpus):
        homology_manifold = manifold_class(c).homology_manifold
        adjacency = skeleton(c).masks
        for i, v in enumerate(c.vertices):
            got = _outcome(is_outside_connected, c, v)
            assert got == _outcome(outside_connected_by_complexes, c, v), (name, v)
            seen.add(got[1])
            if homology_manifold:
                count = analysis._outside_facet_components(c, adjacency[i] | 1 << i)
                assert count == relative_betti_by_complexes(c, v)[c.dim], (name, v)
                seen.add(("components", count))
        if homology_manifold and c.dim >= 1:
            assert analysis._relative_homology_matches(c) == (
                relative_homology_matches_by_complexes(c)
            ), name
    # connected and disconnected outsides, empty ones, and a homology
    # manifold whose outside falls into two facet components all occur
    assert {True, False, EmptyOutside, ("components", 0), ("components", 2)} <= seen


def test_l44_failure_rows(monkeypatch):
    c = cross_polytope_boundary(3)
    connected = analysis.is_outside_connected

    def failing(cx, v):
        return False if cx is c and v == "p1" else connected(cx, v)

    monkeypatch.setattr(analysis, "is_outside_connected", failing)
    res = verify_property("L4.4", c)
    assert (res.verdict, res.detail, res.payload) == (
        "fail",
        "non-neighborhood of p1 is disconnected",
        {"vertex": "p1"},
    )
    res = verify_property("L4.4-homological", c)
    assert (res.verdict, res.detail) == (
        "fail",
        "relative top Betti 1 vs outside connected False at p1",
    )
    # the pair's full Betti numbers: the outside of p1 is the vertex m1
    assert res.payload == {"vertex": "p1", "relative_betti": [0, 0, 0, 1]}
    assert res.payload["relative_betti"] == list(relative_betti_by_complexes(c, "p1"))


def test_l44_homological_failure_path_rechecks_the_component_count(monkeypatch):
    c = cross_polytope_boundary(3)
    count = analysis._outside_facet_components
    monkeypatch.setattr(
        analysis, "_outside_facet_components", lambda cx, near: count(cx, near) + 1
    )
    with pytest.raises(AssertionError, match="facet components disagree"):
        verify_property("L4.4-homological", c)


_L42_ROW = """
from scx import analysis
from scx.generators import cross_polytope_boundary
from scx.graphs import skeleton

c = cross_polytope_boundary(3)
full = (1 << c.n_vertices) - 1
assert analysis.classify(c).banner  # memoized before the skeleton is widened
skeleton(c).masks = (full,) * c.n_vertices  # every edge fails
res = analysis.verify_property("L4.2", c)
print(res.verdict, res.detail, res.payload)
"""


def test_l42_failure_row_does_not_depend_on_the_hash_seed():
    src = str(Path(analysis.__file__).parents[1])
    rows = set()
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        done = subprocess.run(
            [sys.executable, "-c", _L42_ROW], env=env, capture_output=True, text=True
        )
        assert done.returncode == 0, done.stderr
        rows.add(done.stdout)
    # the first edge in label order
    assert rows == {"fail neighborhood containment on edge m0-m1 {'edge': ['m0', 'm1']}\n"}


def test_p38iii_builds_one_boundary_and_one_tilde(monkeypatch):
    """The stranded test reads the ball's edges, so only a passing ball builds a cone."""
    from scx.complexes import SimplicialComplex

    cases = [
        (fan_ball(), "stranded 3-cliques block the product rule", 0),
        (simplex(3), "boundary cone preserves the property conjunction", 1),
    ]
    for ball, detail, tildes in cases:
        calls = {"boundary": 0, "_tilde": 0, "tilde": 0}

        def count(name):
            body = getattr(SimplicialComplex, name)

            def counted(self, *args):
                if self is ball:
                    calls[name] += 1
                return body(self, *args)

            monkeypatch.setattr(SimplicialComplex, name, counted)

        for name in calls:
            count(name)
        assert verify_property("P3.8iii", ball).detail == detail
        assert calls == {"boundary": 1, "_tilde": tildes, "tilde": 0}
        monkeypatch.undo()


def test_p38iii_decides_the_skip_without_an_edge_level():
    """The stranded-edge scan counts the ball's skeleton edges between
    boundary vertices against the boundary's own, so the ball keeps only
    the ridge level that ``boundary()`` reads."""
    c = ring_ball()
    assert verify_property("P3.8iii", c).detail == "stranded 3-cliques block the product rule"
    assert set(c._face_cache) == {c.dim}


def test_verify_corpus_rejects_bad_property():
    with pytest.raises(UnknownProperty):
        verify_corpus(properties=["nope"])


def test_property_ids_complete():
    assert set(PROPERTY_IDS) == {
        "T1.1",
        "T4.1",
        "L2.1",
        "L4.2",
        "L4.3",
        "L4.4",
        "L4.4-homological",
        "L5.2",
        "P3.7",
        "P3.8i",
        "P3.8ii",
        "P3.8iii",
        "A3.2-special-case",
    }


# -- CLI ------------------------------------------------------------------


def test_cli_gen_analyze_pipeline(tmp_path, capsys):
    out = tmp_path / "octa.scx"
    assert cli.main(["gen", "cross-polytope", "2", "-o", str(out)]) == 0
    assert cli.main(["analyze", str(out), "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["flag"] is True and data["connectivity"] == 4


def test_python_m_scx_runs_the_cli():
    env = dict(os.environ, PYTHONPATH=str(Path(analysis.__file__).parents[1]))
    done = subprocess.run(
        [sys.executable, "-m", "scx", "--help"], env=env, capture_output=True, text=True
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("usage: scx ")
    probe = "import sys, scx; print('scx.__main__' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True)
    assert done.stdout == "False\n", done.stderr


@pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
def test_cli_stops_quietly_when_the_reader_closes_the_pipe(unbuffered):
    """``scx verify --corpus --json | head -1``: the JSON is larger than a
    64 KiB pipe buffer, so a write fails once the reader has gone, either
    in ``print`` or, with buffered stdout, in the flush after it."""
    env = dict(
        os.environ,
        PYTHONPATH=str(Path(analysis.__file__).parents[1]),
        PYTHONUNBUFFERED=unbuffered,
    )
    command = [sys.executable, "-m", "scx", "verify", "--corpus", "--json"]
    proc = subprocess.Popen(
        command, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, bufsize=0
    )
    assert proc.stdout.readline() == b"{\n"
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    status = proc.wait(timeout=60)
    assert err == ""  # no traceback, no "Exception ignored" at exit
    assert status == cli.CLOSED_PIPE  # not 1, which means a failed check


def test_cli_gen_list(capsys):
    assert cli.main(["gen", "--list"]) == 0
    assert "ring-ball" in capsys.readouterr().out


def test_cli_gen_stdout(capsys):
    assert cli.main(["gen", "cycle", "4"]) == 0
    assert capsys.readouterr().out.count("\n") == 4


def test_cli_gen_unknown_name_lists_the_known_ones(capsys):
    assert cli.main(["gen", "nope"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    known = ", ".join(sorted(generators.REGISTRY))
    assert captured.err == f"error: unknown generator 'nope'; known: {known}\n"
    assert "cross-polytope, cycle, cyclic-polytope" in known


def test_cli_verify_unknown_property_lists_the_known_ones(capsys):
    assert cli.main(["verify", "--corpus", "--property", "nope"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: unknown property 'nope'; known: {', '.join(PROPERTY_IDS)}\n"
    assert "T1.1" in captured.err


@pytest.mark.parametrize(
    "argv",
    [["cycle", "2"], ["simplex-boundary", "0"], ["cross-polytope", "0"], ["cyclic-polytope", "4", "4"]],
)
def test_cli_gen_out_of_range_parameters_are_usage_errors(argv, capsys):
    assert cli.main(["gen", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: generator {argv[0]!r}: ")
    assert "Traceback" not in captured.err


def test_cli_verify_single_file(tmp_path, capsys):
    path = tmp_path / "c6.scx"
    assert cli.main(["gen", "cycle", "6", "-o", str(path)]) == 0
    code = cli.main(["verify", str(path), "--property", "T1.1"])
    out = capsys.readouterr().out
    assert code == 0
    assert "pass" in out


def test_cli_verify_without_inputs_is_a_usage_error(capsys):
    # a shell glob that matches nothing must not verify the corpus instead
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "--property", "T1.1"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "files to verify" in captured.err and "--corpus" in captured.err


def test_cli_verify_missing_file(capsys):
    assert cli.main(["verify", "/nonexistent/file.scx"]) == 2


def test_cli_verify_reports_an_undecodable_file_and_keeps_the_others(tmp_path, capsys):
    good = tmp_path / "good.scx"
    bad = tmp_path / "bad.scx"
    good.write_text(dumps(cycle(6)))
    bad.write_bytes(b"a b\n\xff\xfe c\n")
    assert cli.main(["verify", str(good), str(bad), "--property", "T1.1"]) == 2
    captured = capsys.readouterr()
    assert str(good) in captured.out and "1 passed" in captured.out
    assert captured.err.startswith(f"error: cannot read {bad}: ")
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("target", ["missing/c4.scx", "."])
def test_cli_gen_reports_an_unwritable_output(target, tmp_path, capsys):
    path = tmp_path / target
    assert cli.main(["gen", "cycle", "4", "-o", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: cannot write {path}: ")


def test_cli_verify_corpus_json(capsys):
    code = cli.main(["verify", "--corpus", "--property", "L4.3", "--json"])
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    assert all(row["verdict"] in ("pass", "skip") for row in data["rows"])


def test_cli_homology(tmp_path, capsys):
    path = tmp_path / "t7.scx"
    cli.main(["gen", "torus-7", "-o", str(path)])
    assert cli.main(["homology", str(path)]) == 0
    assert "(0, 2, 1)" in capsys.readouterr().out
    assert cli.main(["homology", str(path), "--link", "t0"]) == 0
    assert "(0, 1)" in capsys.readouterr().out  # a vertex link is a hexagon


def test_cli_homology_link_of_the_empty_face(tmp_path, capsys):
    path = tmp_path / "t7.scx"
    cli.main(["gen", "torus-7", "-o", str(path)])
    assert cli.main(["homology", str(path), "--link", ""]) == 0
    assert capsys.readouterr().out == "link Betti: (0, 2, 1)\n"
    assert cli.main(["homology", str(path), "--link", "", "--json"]) == 0
    assert json.loads(capsys.readouterr().out) == {"link_Betti": [0, 2, 1]}


def test_cli_homology_relative(tmp_path, capsys):
    whole = tmp_path / "c5.scx"
    part = tmp_path / "path.scx"
    cli.main(["gen", "cycle", "5", "-o", str(whole)])
    part.write_text("c0 c1\nc1 c2\n")
    assert cli.main(["homology", str(whole), "--relative", str(part), "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["relative_Betti"] == [0, 1]


def test_cli_homology_relative_to_an_empty_path(tmp_path, capsys):
    path = tmp_path / "c5.scx"
    cli.main(["gen", "cycle", "5", "-o", str(path)])
    capsys.readouterr()
    assert cli.main(["homology", str(path), "--relative", ""]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "cannot read" in captured.err


def test_cli_shelling_seeded(tmp_path, capsys):
    path = tmp_path / "ball.scx"
    cli.main(["gen", "ring-ball", "-o", str(path)])
    assert cli.main(["shelling", str(path), "--seed-star", "y"]) == 0
    lines = [l for l in capsys.readouterr().out.splitlines() if l.strip()]
    assert len(lines) == 26
    assert all("y" in l.split() for l in lines[:8])


def test_cli_shelling_with_an_empty_seed(tmp_path, capsys):
    path = tmp_path / "c5.scx"
    cli.main(["gen", "cycle", "5", "-o", str(path)])
    capsys.readouterr()
    assert cli.main(["shelling", str(path), "--seed-star", ""]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unknown vertex ''" in captured.err


def test_cli_shelling_no_shelling(tmp_path, capsys):
    path = tmp_path / "two.scx"
    path.write_text("a b c\nx y z\n")
    assert cli.main(["shelling", str(path)]) == 1


def test_cli_shelling_of_two_points(tmp_path, capsys):
    path = tmp_path / "s0.scx"
    path.write_text("a\nb\n")
    assert cli.main(["shelling", str(path)]) == 0
    assert capsys.readouterr().out.split() == ["a", "b"]


@pytest.mark.parametrize("budget", ["-1", "0"])
def test_cli_shelling_rejects_a_budget_below_one(tmp_path, capsys, budget):
    path = tmp_path / "c5.scx"
    cli.main(["gen", "cycle", "5", "-o", str(path)])
    with pytest.raises(SystemExit) as exc:
        cli.main(["shelling", str(path), "--budget", budget])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"--budget must be at least 1, not {budget}" in captured.err


def test_cli_connectivity(tmp_path, capsys):
    path = tmp_path / "octa.scx"
    cli.main(["gen", "cross-polytope", "2", "-o", str(path)])
    assert cli.main(["connectivity", str(path), "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["connectivity"] == 4
    assert cli.main(["connectivity", str(path), "--paths", "p0", "m0"]) == 0
    out = capsys.readouterr().out
    assert "4 independent paths" in out


@pytest.mark.parametrize(("dim", "u", "v", "size"), [(2, "p0", "m0", 4), (3, "p0", "p1", 6)])
def test_cli_connectivity_paths_json(tmp_path, capsys, dim, u, v, size):
    """The JSON family is valid and as large as the local connectivity, for
    a non-adjacent pair of the octahedron and for an adjacent pair of the
    3-dimensional cross-polytope, whose edge is a path of its own."""
    path = tmp_path / "cross.scx"
    cli.main(["gen", "cross-polytope", str(dim), "-o", str(path)])
    capsys.readouterr()
    assert cli.main(["connectivity", str(path), "--paths", u, v, "--json"]) == 0
    paths = json.loads(capsys.readouterr().out)["paths"]
    g = skeleton(loads(path.read_text()))
    family = PathFamily((u, v), tuple(map(tuple, paths)))
    _validate_family(g, family)
    assert len(family) == local_connectivity(g, g.id_of(u), g.id_of(v)) == size
    assert ([u, v] in paths) == g.adjacent(g.id_of(u), g.id_of(v))


def test_cli_connectivity_prints_the_cut_in_certificate_order(tmp_path, capsys):
    path = tmp_path / "ring-sphere.scx"
    cli.main(["gen", "ring-sphere", "-o", str(path)])
    capsys.readouterr()
    assert cli.main(["connectivity", str(path)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "connectivity: 5",
        "minimum cut ('_apex0', 'b1', 'd1', 'x1', 'x2') separates ('a1', 'c1')",
    ]


def test_cli_corrupted_input(tmp_path, capsys):
    bad = tmp_path / "bad.scx"
    bad.write_text("a a b\n")
    assert cli.main(["analyze", str(bad)]) == 2
    assert cli.main(["verify", str(bad)]) == 2


def test_cli_nonpure_input(tmp_path, capsys):
    mixed = tmp_path / "mixed.scx"
    mixed.write_text("a b c\nc d\n")
    assert cli.main(["analyze", str(mixed)]) == 2
    # property harness classifies non-pure inputs as skips, not crashes
    assert cli.main(["verify", str(mixed), "--property", "T1.1"]) == 0
    assert "skip" in capsys.readouterr().out
