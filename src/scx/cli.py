"""Command-line interface.

Exit codes: 0 on success, 1 when a verification check fails, 2 for usage
or input errors, and 141 (128 + SIGPIPE, as a shell reports a command
that SIGPIPE ends) when the reader closes the output pipe early.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import analysis, complexes, generators
from .banner import banner_number, classify
from .errors import ScxError, SearchBudgetExceeded
from .graphs import independent_paths, skeleton, vertex_connectivity
from .homology import z2_betti, z2_relative_betti
from .manifold import find_shelling, is_pseudomanifold
from .kernels import BACKEND

CLOSED_PIPE = 141


def _load(path: str) -> complexes.SimplicialComplex:
    try:
        return complexes.load(path)
    except (OSError, UnicodeDecodeError) as exc:
        raise ScxError(f"cannot read {path}: {exc}") from exc


def _cmd_analyze(args) -> int:
    c = _load(args.file)
    report = analysis.analyze(c, name=args.file)
    if args.json:
        sys.stdout.write(analysis.report_json(report))
        return 0
    print(f"name:               {report.name}")
    print(f"dimension:          {report.dim}")
    print(f"f-vector:           {report.f_vector}")
    print(f"pseudomanifold:     {report.pseudomanifold}")
    print(f"normal:             {report.normal}")
    print(f"homology manifold:  {report.homology_manifold}")
    print(f"homology sphere:    {report.homology_sphere}")
    print(f"reduced Betti:      {report.betti}")
    print(f"flag:               {report.flag}")
    print(f"strongly banner:    {report.strongly_banner}")
    print(f"banner:             {report.banner}")
    if report.banner_witness:
        print(f"witness:            {report.banner_witness}")
    print(f"banner number:      {report.banner_number}")
    print(f"connectivity:       {report.connectivity}")
    print(f"bound 2d-b:         {report.bound}")
    print(f"bound checked:      {report.bound_checked}")
    print(f"bound satisfied:    {report.bound_satisfied}")
    return 0


def _cmd_gen(args) -> int:
    if args.list:
        for name, (_, arity) in sorted(generators.REGISTRY.items()):
            print(f"{name}  ({arity} parameter{'s' if arity != 1 else ''})")
        return 0
    if not args.name:
        raise ScxError("gen needs a generator name (or --list)")
    c = generators.build(args.name, tuple(args.params))
    text = complexes.dumps(c)
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise ScxError(f"cannot write {args.output}: {exc}") from exc
    else:
        sys.stdout.write(text)
    return 0


def _cmd_verify(args) -> int:
    errors: list[str] = []
    named = None
    if args.files:
        named = []
        for path in args.files:
            try:
                named.append((path, _load(path)))
            except ScxError as exc:
                errors.append(str(exc))
    props = [args.property] if args.property else None
    summary = analysis.verify_corpus(named, properties=props)
    rows = summary.rows
    errors += summary.errors
    if args.json:
        payload = {
            "rows": [
                {
                    "name": r.name,
                    "property": r.property_id,
                    "verdict": r.verdict,
                    "detail": r.detail,
                    "payload": r.payload,
                }
                for r in rows
            ],
            "errors": errors,
        }
        print(json.dumps(payload, indent=2))
    else:
        width = max((len(r.name) for r in rows), default=4)
        for r in rows:
            print(f"{r.name:<{width}}  {r.property_id:<18} {r.verdict:<5} {r.detail}")
        counts = {"pass": 0, "fail": 0, "skip": 0, "error": 0}
        for r in rows:
            counts[r.verdict] += 1
        print(
            f"\n{counts['pass']} passed, {counts['fail']} failed, "
            f"{counts['skip']} skipped"
            + (f", {counts['error']} errored" if counts["error"] else "")
        )
        for e in errors:
            print(f"error: {e}", file=sys.stderr)
    return 2 if errors else summary.exit_code


def _cmd_homology(args) -> int:
    c = _load(args.file)
    if args.relative is not None:
        sub = _load(args.relative)
        betti = z2_relative_betti(c, sub)
        label = "relative Betti"
    elif args.link is not None:
        betti = z2_betti(c.link(tuple(args.link.split())))
        label = "link Betti"
    else:
        betti = z2_betti(c)
        label = "reduced Betti"
    if args.json:
        print(json.dumps({label.replace(" ", "_"): list(betti)}))
    else:
        print(f"{label}: {betti}")
    return 0


def _cmd_shelling(args) -> int:
    c = _load(args.file)
    seed = None
    if args.seed_star is not None:
        seed = c.star(args.seed_star).facets
    try:
        order = find_shelling(c, seed, budget=args.budget)
    except SearchBudgetExceeded as exc:
        print(f"undecided: {exc}")
        return 1
    if order is None:
        print("no shelling exists" + (" with that seed" if seed else ""))
        return 1
    if args.json:
        print(json.dumps({"shelling": [list(f) for f in order.facets]}))
    else:
        for f in order.facets:
            print(" ".join(f))
    return 0


def _cmd_connectivity(args) -> int:
    c = _load(args.file)
    g = skeleton(c)
    if args.paths:
        u, v = args.paths
        family = independent_paths(g, u, v)
        if args.json:
            print(json.dumps({"paths": [list(p) for p in family.paths]}))
        else:
            for p in family.paths:
                print(" -> ".join(p))
            print(f"{len(family)} independent paths")
        return 0
    res = vertex_connectivity(g)
    if args.json:
        payload = {"connectivity": res.value, "complete": res.complete}
        if res.cut is not None:
            payload["cut"] = list(res.cut.vertices)
            payload["pair"] = list(res.cut.pair)
        print(json.dumps(payload))
    else:
        print(f"connectivity: {res.value}")
        if res.complete:
            print("skeleton is a complete graph")
        elif res.cut is not None:
            print(f"minimum cut {res.cut.vertices} separates {res.cut.pair}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="scx",
        description="Analyze facet-list complexes: banner hierarchy, GF(2) "
        f"homology, skeleton connectivity (kernel backend: {BACKEND}).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="full invariant report for one complex")
    p.add_argument("file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("gen", help="emit a generated complex")
    p.add_argument("name", nargs="?")
    p.add_argument("params", nargs="*", type=int)
    p.add_argument("-o", "--output")
    p.add_argument("--list", action="store_true", help="list generator names")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("verify", help="run property checks on files or the corpus")
    p.add_argument("files", nargs="*")
    p.add_argument("--corpus", action="store_true", help="use the built-in corpus")
    p.add_argument("--property", help="restrict to one property id")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("homology", help="reduced, relative or link Betti numbers")
    p.add_argument("file")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--relative", metavar="SUBFILE")
    group.add_argument("--link", metavar="VERTICES", help='e.g. --link "v1 v2"')
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_homology)

    p = sub.add_parser("shelling", help="search for a shelling order")
    p.add_argument("file")
    p.add_argument("--seed-star", metavar="VERTEX", help="start with this star")
    p.add_argument("--budget", type=int, default=10_000_000)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_shelling)

    p = sub.add_parser("connectivity", help="vertex connectivity or path families")
    p.add_argument("file")
    p.add_argument("--paths", nargs=2, metavar=("U", "V"))
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_connectivity)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "verify" and args.files and args.corpus:
        parser.error("give files or --corpus, not both")
    if args.command == "verify" and not (args.files or args.corpus):
        parser.error("give .scx files to verify, or --corpus for the built-in corpus")
    if args.command == "shelling" and args.budget < 1:
        parser.error(f"--budget must be at least 1, not {args.budget}")
    try:
        status = args.func(args)
        sys.stdout.flush()  # a buffered write to a closed pipe fails here
        return status
    except BrokenPipeError:
        # the reader stopped early: what is left, and the flush at exit, goes nowhere
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return CLOSED_PIPE
    except ScxError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
