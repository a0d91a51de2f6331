#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of scx.

Run from the repository root:

    python3 perfbench/run.py --workload catalog|spheres|highdim \\
        --seed N --seconds S --trace 0|1

The program is imported from ``src/`` of the checkout and driven, on one
thread, only through its public entry points: ``verify_corpus`` for all
13 property checks and ``analyze`` + ``report_json`` for the report.  A
round verifies and analyzes every complex of the workload once, one call
per complex.  Each call gets a complex freshly parsed from ``.scx`` text
whose labels carry a prefix no earlier call used, so not even a cache
keyed by content can turn a later call into a hit.  Rounds repeat until
``--seconds`` is used up (at least three), and every output of every
round is checked by ``checks.py``.

End-to-end times are normalized to the host's momentary speed.  On a
shared host the same work takes up to 1.7x longer at one moment than at
another, in bursts that last from milliseconds to minutes, which moves
raw times of whole runs by 20 to 40%.  So each timed call sits between two
runs of a fixed probe (``probe``), and the metric is the median over
rounds of (call time / mean adjacent probe time), times the probe's
reference time ``PROBE_REF_S``: seconds at the reference speed.
``verify_s`` and ``analyze_s`` sum this over the complexes; ``setup_s``
does the same for one set-up (a fresh import of scx plus building the
inputs) made before each round.

With ``--trace 1`` untraced and traced rounds alternate; the per-layer
metrics come from the traced ones (times: medians over traced rounds,
each round's span times scaled by that round's normalization; counts: the
first traced round), the spans of the first traced round are written to
``.bench_out/`` and a per-layer table is printed.  The last line of
standard output is always one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import itertools
import json
import os
import re
import resource
import statistics
import sys
import time

import checks
import inputs
import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")

MIN_ROUNDS = 3
LAST_START_S = 120.0  # never start a round after this, whatever --seconds says
PROBE_REF_S = 0.003  # the probe's best time on the reference machine (README)

# The property ids when this benchmark was written; metric names must not
# depend on the code being measured.
PROPERTY_IDS = ("T1.1", "T4.1", "L2.1", "L4.2", "L4.3", "L4.4", "L4.4-homological", "L5.2",
                "P3.7", "P3.8i", "P3.8ii", "P3.8iii", "A3.2-special-case")

# Degenerate operations of the catalog workload, on inputs that do not
# depend on the seed.  Each runs in its own call; a raise or a "fail"
# counts as failed.  Four fail on the code this benchmark was written
# against (ROADMAP open item 2): P3.8iii and L4.4-homological on the
# point, T1.1 on the 0-sphere, and the round trip of a "#" label.
DEGENERATE = (("point", [["a"]]), ("0-sphere", [["a"], ["b"]]))
HASH_LABEL = [["#x", "a", "b"], ["a", "b", "c"]]

# What the mathematics fixes for the built-in corpus, by display name:
# (pattern, connectivity from the match and vertex count, sphere, flag).
CATALOG_FORMS = (
    (r"simplex-boundary-\d+", lambda m, n: n - 1, True, False),
    (r"cross-polytope-(\d+)", lambda m, n: 2 * int(m[1]), True, True),
    (r"cycle-3", lambda m, n: 2, True, False),
    (r"cycle-\d+", lambda m, n: 2, True, True),
    (r"stacked-sphere-(\d+)-[1-9]\d*-\d+", lambda m, n: int(m[1]) + 1, True, False),
    (r"cyclic-polytope-\d+-[3-9]", lambda m, n: n - 1, True, False),
    (r"suspension-cycle-\d+|suspension-simplex-boundary-\d+|ring-sphere|fan-sphere",
     lambda m, n: None, True, False),
)


def probe() -> float:
    """Time a fixed piece of pure-Python work; it tracks the host's momentary speed.

    The work (Gale's evenness test over the 6-subsets of 12 points) never
    changes, since ``PROBE_REF_S`` is its reference time.
    """
    t = time.perf_counter()
    for combo in itertools.combinations(range(12), 6):
        members = set(combo)
        gaps = [i for i in range(12) if i not in members]
        all(sum(1 for m in combo if lo < m < hi) % 2 == 0 for lo, hi in zip(gaps, gaps[1:]))
    return time.perf_counter() - t


def load_scx():
    """Import scx from this checkout's ``src/``, dropping any earlier import."""
    for name in [m for m in sys.modules if m == "scx" or m.startswith("scx.")]:
        del sys.modules[name]
    scx = importlib.import_module("scx")
    if not os.path.abspath(scx.__file__).startswith(os.path.join(SRC, "scx")):
        raise ImportError(f"scx imported from {scx.__file__}, not from {SRC}")
    return scx


def setup(workload: str, built: list):
    """One set-up as a user pays it: import scx, then build the complexes."""
    scx = load_scx()
    if workload == "catalog":
        named = [(scx.generators.display_name(spec), c) for spec, c in scx.generators.catalog()]
    else:
        named = [(inp.name, scx.loads(inp.text)) for inp in built]
    return scx, named


def catalog_cases(scx, named) -> list[inputs.Input]:
    cases = []
    for name, c in named:
        facets = tuple(tuple(line.split()) for line in scx.dumps(c).splitlines())
        kappa, sphere, flag = None, False, False
        for pattern, form, is_sphere, is_flag in CATALOG_FORMS:
            m = re.fullmatch(pattern, name)
            if m:
                kappa, sphere, flag = form(m, c.n_vertices), is_sphere, is_flag
                break
        cases.append(inputs.Input(name, c.dim, facets, kappa, sphere, flag))
    return cases


class Bench:
    """Rounds of calls into the program, with their timings and checks."""

    def __init__(self, scx, workload: str, cases: list[inputs.Input]):
        self.scx = scx
        self.workload = workload
        self.cases = cases
        self.calls = 0
        self.problems: list[str] = []
        self.verify = [[] for _ in cases]  # per-case call times over rounds
        self.analyze = [[] for _ in cases]
        self.must_pass = [(("T1.1",) if c.sphere else ())
                          + (("T4.1", "A3.2-special-case") if c.flag else ()) for c in cases]

    def fresh(self, case: inputs.Input):
        """The case relabeled with a prefix no earlier call used, and parsed.

        A common prefix keeps the order of the labels, so the work is the same.
        """
        self.calls += 1
        tag = f"p{self.calls:05d}."
        facets = tuple(tuple(tag + v for v in f) for f in case.facets)
        return facets, self.scx.loads("".join(" ".join(f) + "\n" for f in facets))

    def call(self, tracer, name: str, fn):
        """Time one call into the program; an exception is returned, not raised."""
        root = tracer.root(name) if tracer else None
        t = time.perf_counter()
        try:
            out = fn()
        except Exception as exc:  # this operation failed; the others go on
            out = exc
        t = time.perf_counter() - t
        if tracer:
            tracer.close(root)
        return out, t

    def round(self, tracer=None) -> tuple[float, float, int, int]:
        """Verify and analyze each case once.

        Returns the time spent in calls, raw and normalized, and the counts
        of operations attempted and failed.
        """
        scx = self.scx
        n_props = len(scx.PROPERTY_IDS)
        wall = norm = 0.0
        attempted = failed = 0
        gc.collect()
        for i, case in enumerate(self.cases):
            _, c = self.fresh(case)
            facets, c2 = self.fresh(case)

            def report():
                r = scx.analyze(c2, case.name)
                return r, scx.report_json(r)

            p0 = probe()
            summary, tv = self.call(tracer, "bench.verify", lambda: scx.verify_corpus([(case.name, c)]))
            p1 = probe()
            analyzed, ta = self.call(tracer, "bench.analyze", report)
            p2 = probe()
            pv, pa = (p0 + p1) / 2, (p1 + p2) / 2
            self.verify[i].append((tv, pv))
            self.analyze[i].append((ta, pa))
            wall += tv + ta
            norm += PROBE_REF_S * (tv / pv + ta / pa)

            attempted += n_props + 1
            for name, out in (("verify_corpus", summary), ("analyze", analyzed)):
                if isinstance(out, Exception):
                    print(f"{case.name}: {name} raised {out!r}", file=sys.stderr)
            if isinstance(summary, Exception):
                failed += n_props
            else:
                rows = summary.rows
                failed += n_props - sum(1 for r in rows if r.verdict in ("pass", "skip"))
                self.problems += checks.check_rows(rows, {case.name: self.must_pass[i]})
            if isinstance(analyzed, Exception):
                failed += 1
            else:
                r, text = analyzed
                for p in checks.check_report(r, facets, kappa=case.kappa, sphere=case.sphere,
                                             from_json=scx.report_from_json(text)):
                    self.problems.append(f"{case.name}: {p}")

        if self.workload == "catalog":
            a, f = self.degenerate()
            attempted += a
            failed += f
        return wall, norm, attempted, failed

    def degenerate(self) -> tuple[int, int]:
        scx = self.scx
        attempted = failed = 0
        for _, facets in DEGENERATE:
            c = scx.from_facets(facets)
            for pid in scx.PROPERTY_IDS:
                attempted += 1
                try:
                    failed += scx.verify_property(pid, c).verdict == "fail"
                except Exception:
                    failed += 1
        attempted += 1
        try:
            c = scx.from_facets(HASH_LABEL)
            failed += scx.loads(scx.dumps(c)) != c
        except Exception:
            failed += 1
        return attempted, failed


def more(walls: list[float], started: float, seconds: float) -> bool:
    """Start another round?  Stop once the next would overrun ``seconds``."""
    if not walls:
        return True
    elapsed = time.perf_counter() - started
    est = statistics.median(walls)
    if elapsed + est > LAST_START_S:
        return False
    return len(walls) < MIN_ROUNDS or elapsed + est <= seconds


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def normalized(samples) -> float:
    """Median over rounds of (call time / adjacent probe time), in reference seconds."""
    return PROBE_REF_S * statistics.median(t / p for t, p in samples)


def run_plain(bench: Bench, workload: str, built: list, seconds: float):
    setups, walls = [], []
    attempted = failed = 0
    started = time.perf_counter()
    while more(walls, started, seconds):
        p0 = probe()
        t = time.perf_counter()
        bench.scx, _ = setup(workload, built)
        t = time.perf_counter() - t
        setups.append((t, (p0 + probe()) / 2))
        t = time.perf_counter()
        _, _, n, f = bench.round()
        walls.append(time.perf_counter() - t)
        attempted += n
        failed += f
    raw = sum(min(t for t, _ in ts) for ts in bench.verify + bench.analyze)
    print(f"rounds {len(walls)}  round walls {[round(w, 3) for w in walls]}  "
          f"fastest calls sum to {raw:.4f} s")
    metrics = {
        "verify_s": metric(sum(normalized(ts) for ts in bench.verify), "s"),
        "analyze_s": metric(sum(normalized(ts) for ts in bench.analyze), "s"),
        "setup_s": metric(normalized(setups), "s"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    return metrics, attempted, failed


def layer_metrics(s: tracing.Summary) -> dict:
    """The per-layer figures of one traced round, as name -> (value, unit)."""
    def calls(name):
        return s.hook_calls.get(name, 0)

    def self_s(*names):
        return sum(s.self_s.get(n, 0.0) for n in names)

    def ratio(name):
        return s.distinct_ratio.get(name, 1.0)

    init, link = "complexes.SimplicialComplex.__init__", "complexes.SimplicialComplex.link"
    betti = ("homology.z2_betti", "homology.unreduced_betti", "homology.z2_relative_betti")
    kappa_calls = calls("graphs.vertex_connectivity")
    m = {
        "complexes.built": (calls(init), "count"),
        "complexes.init_s": (self_s(init), "s"),
        "complexes.link_calls": (calls(link), "count"),
        "complexes.link_s": (self_s(link), "s"),
        "complexes.link_distinct_ratio": (ratio(link), "ratio"),
        "banner.cliques_yielded": (s.yields.get("banner.cliques_ids", 0), "count"),
        "banner.cliques_s": (self_s("banner.cliques_ids", "banner.cliques"), "s"),
        "banner.classify_calls": (calls("banner.classify"), "count"),
        "banner.classify_s": (self_s("banner.classify"), "s"),
        "banner.classify_distinct_ratio": (ratio("banner.classify"), "ratio"),
        "banner.banner_number_calls": (calls("banner.banner_number"), "count"),
        "banner.banner_number_s": (self_s("banner.banner_number"), "s"),
        "manifold.manifold_class_calls": (calls("manifold.manifold_class"), "count"),
        "manifold.manifold_class_distinct_ratio": (ratio("manifold.manifold_class"), "ratio"),
        "manifold.is_normal_s": (self_s("manifold.is_normal"), "s"),
        "manifold.is_homology_manifold_s": (self_s("manifold.is_homology_manifold"), "s"),
        "manifold.antistar_s": (self_s("manifold.verify_barnette_antistar"), "s"),
        "homology.betti_calls": (sum(calls(n) for n in betti), "count"),
        "homology.betti_s": (self_s(*betti), "s"),
        "kernels.gf2_rank_calls": (calls("kernels.gf2_rank"), "count"),
        "kernels.gf2_rank_rows": (s.sizes.get("kernels.gf2_rank", 0), "count"),
        "kernels.gf2_rank_s": (self_s("kernels.gf2_rank"), "s"),
        "kernels.maxflow_calls": (calls("kernels.unit_maxflow"), "count"),
        "kernels.maxflow_arcs": (s.sizes.get("kernels.unit_maxflow", 0), "count"),
        "kernels.maxflow_s": (self_s("kernels.unit_maxflow"), "s"),
        "graphs.skeleton_calls": (calls("graphs.skeleton"), "count"),
        "graphs.kappa_calls": (kappa_calls, "count"),
        "graphs.kappa_distinct_ratio": (ratio("graphs.vertex_connectivity"), "ratio"),
        "graphs.flows_per_kappa": (s.flows_in_kappa / kappa_calls if kappa_calls else 0.0,
                                   "flows/call"),
        "graphs.kappa_s": (self_s("graphs.vertex_connectivity"), "s"),
    }
    for pid in PROPERTY_IDS:
        m[f"analysis.check_s.{pid}"] = (s.incl_s.get(f"analysis.verify_property[{pid}]", 0.0), "s")
    for layer in tracing.LAYERS:
        m[f"{layer}.self_s"] = (s.layer_self_s[layer], "s")
    m["trace.wall_s"] = (s.wall_s, "s")
    m["trace.spans"] = (s.spans, "count")
    m["trace.hooks_absent"] = (len(s.absent), "count")
    return m


def run_traced(bench: Bench, seconds: float, tag: str):
    plain, traced, figures = [], [], []
    walls: list[float] = []
    attempted = failed = 0
    started = time.perf_counter()
    while more(walls, started, seconds):
        t = time.perf_counter()
        _, norm, n, f = bench.round()
        plain.append(norm)
        attempted += n
        failed += f
        tracer = tracing.Tracer()
        tracer.install()
        try:
            wall, norm, n, f = bench.round(tracer)
        finally:
            tracer.uninstall()
        walls.append(time.perf_counter() - t)
        traced.append(norm)
        attempted += n
        failed += f
        summary = tracing.Summary(tracer)
        if abs(sum(summary.layer_self_s.values()) - summary.wall_s) > 1e-6 * summary.wall_s:
            bench.problems.append("layer self times do not add up to the traced wall time")
        # Scale this round's span times by its normalization, as for end-to-end times.
        figures.append({k: (v * norm / wall if u == "s" else v, u)
                        for k, (v, u) in layer_metrics(summary).items()})
        if len(figures) == 1:
            os.makedirs(OUT, exist_ok=True)
            tracer.write_spans(os.path.join(OUT, f"spans-{tag}.tsv.gz"))
            text = summary.table()
            with open(os.path.join(OUT, f"layers-{tag}.txt"), "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
            print(text)
    metrics = {}
    for name, (value, unit) in figures[0].items():
        if unit == "s":
            value = statistics.median(fig[name][0] for fig in figures)
        elif any(fig[name][0] != value for fig in figures):
            print(f"warning: {name} differs between traced rounds", file=sys.stderr)
        metrics[name] = metric(value, unit)
    metrics["trace.overhead_s"] = metric(statistics.median(traced) - statistics.median(plain), "s")
    print(f"rounds {len(traced)} traced, {len(plain)} untraced")
    return metrics, attempted, failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="scx end-to-end and per-layer benchmark")
    parser.add_argument("--workload", choices=inputs.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "scx", "__init__.py")):
        print(f"error: no scx sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    built = inputs.build(args.workload, args.seed)
    scx, named = setup(args.workload, built)
    cases = catalog_cases(scx, named) if args.workload == "catalog" else built
    print(f"workload {args.workload}  seed {args.seed}  backend {scx.BACKEND}  "
          f"complexes {len(cases)}  digest {inputs.digest(cases)}")

    bench = Bench(scx, args.workload, cases)
    if args.trace:
        tag = f"{args.workload}-{args.seed}"
        metrics, attempted, failed = run_traced(bench, args.seconds, tag)
    else:
        metrics, attempted, failed = run_plain(bench, args.workload, built, args.seconds)
    problems = sorted(set(bench.problems))
    for p in problems[:20]:
        print(f"problem: {p}", file=sys.stderr)
    if len(problems) > 20:
        print(f"... and {len(problems) - 20} more problems", file=sys.stderr)
    print(json.dumps({"correct": not bench.problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
