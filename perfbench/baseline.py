#!/usr/bin/env python3
"""Re-measure the baseline table of ROADMAP open item 1.

Run from the repository root:

    python3 perfbench/baseline.py [--repeat N]

Prints, for the backend scx selected at import, the minimum wall time
over N runs of: ``verify_corpus()``, ``analyze`` over the catalog, and
the vertex connectivity of two seeded stacked spheres.  Each run builds
its complexes afresh.  The two spheres take the longest (about 15 s and
2 s per run on the pure backend), so N defaults to 2.
"""

from __future__ import annotations

import argparse
import os
import platform
import sys
import time

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def best(fn, repeat: int) -> float:
    times = []
    for _ in range(repeat):
        t = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t)
    return min(times)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="ROADMAP item 1 baseline")
    parser.add_argument("--repeat", type=int, default=2)
    args = parser.parse_args(argv)
    sys.path.insert(0, SRC)
    import scx
    from scx.generators import catalog, display_name, stacked_sphere

    def analyze_catalog():
        for spec, c in catalog():
            scx.report_json(scx.analyze(c, display_name(spec)))

    rows = [
        ("verify_corpus()", scx.verify_corpus),
        ("analyze over the catalog", analyze_catalog),
        ("kappa of stacked_sphere(2,150,7)",
         lambda: scx.vertex_connectivity(scx.skeleton(stacked_sphere(2, 150, 7)))),
        ("kappa of stacked_sphere(3,60,7)",
         lambda: scx.vertex_connectivity(scx.skeleton(stacked_sphere(3, 60, 7)))),
    ]
    print(f"backend {scx.BACKEND}  python {platform.python_version()}  "
          f"cpus {os.cpu_count()}  min of {args.repeat} runs")
    for name, fn in rows:
        print(f"{name:<36} {best(fn, args.repeat):8.3f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
