#!/usr/bin/env python3
"""Benchmark the pure-Python kernels against the compiled extension.

Workloads mirror what the library actually does: boundary-matrix ranks
from corpus complexes plus random dense GF(2) matrices, and vertex-split
flow networks from corpus skeletons plus random graphs.

Usage: python benchmarks/bench_kernels.py [--repeat N]
"""

import argparse
import itertools
import random
import statistics
import time

from scx import _kernels_py
from scx.generators import catalog, display_name
from scx.graphs import _split_network, skeleton
from scx.homology import z2_betti

try:
    from scx import _fastcore
except ImportError:
    _fastcore = None


def gf2_workload():
    rng = random.Random(2024)
    cases = []
    for ncols, nrows in [(64, 64), (192, 160), (384, 320), (640, 512)]:
        rows = [rng.getrandbits(ncols) for _ in range(nrows)]
        cases.append((f"dense {nrows}x{ncols}", rows, ncols))
    # sparse boundary-matrix style rows: a handful of bits per row
    for ncols, nrows, bits in [(300, 400, 4), (800, 1000, 5)]:
        rows = []
        for _ in range(nrows):
            mask = 0
            for _ in range(bits):
                mask |= 1 << rng.randrange(ncols)
            rows.append(mask)
        cases.append((f"sparse {nrows}x{ncols}", rows, ncols))
    return cases


def flow_workload():
    """Networks of non-adjacent pairs only, as the library queries them."""
    rng = random.Random(77)
    cases = []
    for name, c in [(display_name(s), c) for s, c in catalog()][:8]:
        g = skeleton(c)
        pairs = [
            (u, v)
            for u in range(g.n)
            for v in range(u + 1, g.n)
            if not g.adjacent(u, v)
        ][:6]
        net = _split_network(g)
        for u, v in pairs:
            cases.append(
                (f"{name} {u}-{v}", net.num_nodes, net.tails, net.heads, net.caps,
                 2 * u + 1, 2 * v)
            )
    for n, p in [(40, 0.2), (80, 0.12), (120, 0.08)]:
        # the flow runs from vertex 0 to vertex n-1; an edge between them
        # is dropped, as _pair_flow zeroes a direct edge's arcs
        edges = [
            (a, b)
            for a, b in itertools.combinations(range(n), 2)
            if rng.random() < p and (a, b) != (0, n - 1)
        ]
        tails, heads, caps = [], [], []
        for w in range(1, n - 1):
            tails.append(2 * w)
            heads.append(2 * w + 1)
            caps.append(1)
        for a, b in edges:
            for x, y in ((a, b), (b, a)):
                tails.append(2 * x + 1)
                heads.append(2 * y)
                caps.append(n)
        cases.append((f"random n={n}", 2 * n, tails, heads, caps, 1, 2 * (n - 1)))
    for name, _, tails, heads, caps, s, t in cases:
        direct = any(a == s and b == t and cap for a, b, cap in zip(tails, heads, caps))
        assert not direct, f"{name}: source and sink are adjacent"
    return cases


def time_call(fn, repeat):
    best = []
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn()
        best.append(time.perf_counter() - t0)
    return min(best)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--repeat", type=int, default=5)
    args = parser.parse_args()

    backends = [("pure", _kernels_py)]
    if _fastcore is not None:
        backends.append(("compiled", _fastcore))
    else:
        print("compiled extension not built; timing the pure backend only\n")

    print("== GF(2) rank ==")
    speedups = []
    for name, rows, ncols in gf2_workload():
        times = {}
        expected = None
        for label, impl in backends:
            result = impl.gf2_rank(rows, ncols)
            if expected is None:
                expected = result
            assert result == expected
            times[label] = time_call(lambda: impl.gf2_rank(rows, ncols), args.repeat)
        line = f"{name:<22} rank={expected:<5}"
        line += "  ".join(f"{k}={v * 1e3:7.2f}ms" for k, v in times.items())
        if len(times) == 2:
            ratio = times["pure"] / times["compiled"]
            speedups.append(ratio)
            line += f"  speedup={ratio:5.1f}x"
        print(line)

    print("\n== unit max flow ==")
    for name, num, tails, heads, caps, s, t in flow_workload():
        times = {}
        expected = None
        for label, impl in backends:
            result = impl.unit_maxflow(num, tails, heads, caps, s, t)
            if expected is None:
                expected = result
            assert result == expected
            times[label] = time_call(
                lambda: impl.unit_maxflow(num, tails, heads, caps, s, t),
                args.repeat,
            )
        line = f"{name:<22} flow={expected[0]:<4}"
        line += "  ".join(f"{k}={v * 1e3:7.2f}ms" for k, v in times.items())
        if len(times) == 2:
            ratio = times["pure"] / times["compiled"]
            speedups.append(ratio)
            line += f"  speedup={ratio:5.1f}x"
        print(line)

    print("\n== end to end: reduced Betti of every corpus entry ==")
    t0 = time.perf_counter()
    for _, c in catalog():
        z2_betti(c)
    print(f"selected backend finished in {time.perf_counter() - t0:.2f}s")

    if speedups:
        print(f"\nmedian kernel speedup: {statistics.median(speedups):.1f}x")


if __name__ == "__main__":
    main()
