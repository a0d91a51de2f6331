import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from scx import analysis, cli
from scx.analysis import (
    PROPERTY_IDS,
    analyze,
    report_from_json,
    report_json,
    verify_corpus,
    verify_property,
)
from scx.banner import banner_number, classify
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
)
from scx.graphs import _adjacency_masks, is_outside_connected
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
    check = analysis._CHECKS["L4.3"]

    def raising(c):
        if c.n_vertices == 5:
            raise NotAFace("boom")
        return check(c)

    monkeypatch.setitem(analysis._CHECKS, "L4.3", raising)
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

    monkeypatch.setitem(analysis._CHECKS, "L4.3", raising)
    path = tmp_path / "c6.scx"
    path.write_text(dumps(cycle(6)))
    assert cli.main(["verify", str(path)]) == 2
    captured = capsys.readouterr()
    assert "1 errored" in captured.out and "boom" in captured.err
    assert cli.main(["verify", str(path), "--json"]) == 2
    data = json.loads(capsys.readouterr().out)
    assert [r["verdict"] for r in data["rows"]].count("error") == 1
    assert len(data["errors"]) == 1


def _count_index_levels(monkeypatch) -> list:
    """Record each face-index level built, as (facets, k), during the test."""
    from scx import complexes

    built = []
    body = complexes._face_members

    def counted(facets, k):
        built.append((facets, k))
        return body(facets, k)

    monkeypatch.setattr(complexes, "_face_members", counted)
    return built


def test_verify_corpus_computes_each_invariant_once(monkeypatch):
    from scx import banner, graphs, manifold

    c = cross_polytope_boundary(3)
    counts = dict.fromkeys(
        [
            "_manifold_class",
            "_classify",
            "_banner_number",
            "_vertex_connectivity",
            "_build_adjacency_masks",
            "_build_ridge_graph",
        ],
        0,
    )

    def count(module, name, is_subject):
        body = getattr(module, name)

        def counted(x):
            if is_subject(x):
                counts[name] += 1
            return body(x)

        monkeypatch.setattr(module, name, counted)

    count(manifold, "_manifold_class", lambda x: x is c)
    count(banner, "_classify", lambda x: x is c)
    count(banner, "_banner_number", lambda x: x is c)
    count(graphs, "_vertex_connectivity", lambda g: g is graphs.skeleton(c))
    count(graphs, "_build_adjacency_masks", lambda x: x is c)
    count(manifold, "_build_ridge_graph", lambda x: x is c)
    built = _count_index_levels(monkeypatch)
    summary = verify_corpus([("octahedral-3-sphere", c)])
    verdicts = {r.property_id: r.verdict for r in summary.rows}
    assert verdicts["T1.1"] == verdicts["T4.1"] == verdicts["L5.2"] == "pass"
    assert counts == dict.fromkeys(counts, 1)
    # built holds each facet tuple, so no id is reused within the run
    assert len({(id(f), k) for f, k in built}) == len(built)  # each level at most once
    assert c.dim in [k for f, k in built if f is c._facets]  # the shared ridge level


def test_balls_with_boundary_make_one_ridge_pass(monkeypatch):
    built = _count_index_levels(monkeypatch)
    for ball in (fan_ball(), ring_ball()):
        built.clear()
        verify_corpus([("ball", ball)])
        assert [k for f, k in built if f is ball._facets].count(ball.dim) == 1
        # built holds each facet tuple, so no id is reused within the run
        assert len({(id(f), k) for f, k in built}) == len(built)
        fresh = from_facets(ball.facets)
        assert fresh.boundary() == ball.boundary()
        assert list(fresh._face_cache) == [fresh.dim]  # boundary() reads the index


def test_l52_failure_row(monkeypatch):
    from scx import banner

    c = from_facets([["v0", "v4", "v5", "v6"], ["v1", "v2", "v3", "v6"], ["v2", "v3", "v4", "v5"]])
    assert banner_number(c).value == 1  # kept in the memo before the table is tampered with
    table_entry = banner._link_banner

    def rejecting(cx, ids):
        return False if cx is c and ids == (0,) else table_entry(cx, ids)

    monkeypatch.setattr(banner, "_link_banner", rejecting)
    res = verify_property("L5.2", c)
    assert (res.verdict, res.detail) == (
        "fail",
        "link of ('v0',) breaks the banner-number inequality",
    )
    # the link of v0 is one triangle: level 0 is rejected, its three edges pass
    assert res.payload == {"face": ["v0"], "link_value": 1, "value": 1}


def test_l52_level_b_miss_reaches_the_exact_loop(monkeypatch):
    from scx import banner

    c = cyclic_polytope_boundary(7, 4)
    assert banner_number(c).value == 3
    rejected = c._face_ids(("t1", "t2", "t3"))
    table_entry = banner._link_banner

    def rejecting(cx, ids):
        return False if cx is c and ids == rejected else table_entry(cx, ids)

    monkeypatch.setattr(banner, "_link_banner", rejecting)
    res = verify_property("L5.2", c)
    assert (res.verdict, res.detail) == (
        "fail",
        "link of ('t1',) breaks the banner-number inequality",
    )
    # t1 t2 t3 sits at level 2, the top one, of the link of t1, and the
    # lower levels of that link fail untampered
    assert res.payload == {"face": ["t1"], "link_value": None, "value": 3}


def test_p37_failure_row_on_a_strongly_banner_input(monkeypatch):
    c = cross_polytope_boundary(3)
    assert classify(c).strongly_banner
    v = c.vertices[1]
    table_entry = analysis._link_banner

    def rejecting(cx, ids):
        return False if cx is c and ids == (1,) else table_entry(cx, ids)

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
    table_entry = analysis._link_banner

    def rejecting(cx, ids):
        return False if cx is c and ids == (2,) else table_entry(cx, ids)

    def unbuilt(cx, face):
        raise AssertionError("a banner input that is not strongly banner builds no link")

    monkeypatch.setattr(analysis, "_link_banner", rejecting)
    monkeypatch.setattr(SimplicialComplex, "link", unbuilt)
    res = verify_property("P3.7", c)
    assert (res.verdict, res.detail) == ("fail", f"link of {v} loses the property")
    assert res.payload == {"vertex": v}


def test_only_witnesses_build_links(monkeypatch):
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
    assert set(callers) == {"_first_deviating_face"}


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
        adjacency = _adjacency_masks(c)
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

c = cross_polytope_boundary(3)
full = (1 << c.n_vertices) - 1
analysis._adjacency_masks = lambda cx: (full,) * cx.n_vertices  # every edge fails
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


def test_cli_gen_list(capsys):
    assert cli.main(["gen", "--list"]) == 0
    assert "ring-ball" in capsys.readouterr().out


def test_cli_gen_stdout(capsys):
    assert cli.main(["gen", "cycle", "4"]) == 0
    assert capsys.readouterr().out.count("\n") == 4


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
