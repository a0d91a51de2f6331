"""Seeded benchmark inputs, built without the program under test.

Every random choice comes from Knuth's MMIX linear congruential sequence,
so one seed gives the same facets on every platform.  The constructions
are bistellar flips (Pachner moves, as in Björner & Lutz, Exp. Math. 9,
2000), barycentric subdivision, suspension, cyclic polytopes by Gale's
evenness condition and cross-polytopes.  Before an input is used its
facets are checked here to form a closed pseudomanifold: every ridge lies
in exactly two facets and the facet graph is connected.  The program
under test only ever sees the ``.scx`` text that this module writes.

Regenerate and inspect the inputs of one workload with

    python3 perfbench/inputs.py --workload spheres --seed 1 [--out DIR]

which prints one line per input and the digest of the whole set.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import os
import sys
from dataclasses import dataclass

WORKLOADS = ("catalog", "spheres", "highdim")

_MULT = 6364136223846793005
_INC = 1442695040888963407
_MASK64 = (1 << 64) - 1


class Lcg:
    """MMIX linear congruential generator; ``below(n)`` draws from range(n)."""

    def __init__(self, seed: int):
        self.state = seed & _MASK64

    def below(self, n: int) -> int:
        self.state = (self.state * _MULT + _INC) & _MASK64
        return (self.state >> 33) % n

    def shuffled(self, items):
        items = list(items)
        for i in range(len(items) - 1, 0, -1):
            j = self.below(i + 1)
            items[i], items[j] = items[j], items[i]
        return items


@dataclass(frozen=True)
class Input:
    """One benchmark complex, with what its construction tells about it.

    ``kappa`` is the closed-form vertex connectivity of the skeleton when
    the construction has one, else None.  ``sphere`` says the complex is a
    PL sphere by construction, ``flag`` that it is flag by construction
    (a barycentric subdivision or a cross-polytope).
    """

    name: str
    dim: int
    facets: tuple[tuple[str, ...], ...]
    kappa: int | None
    sphere: bool
    flag: bool

    @property
    def text(self) -> str:
        return "".join(" ".join(f) + "\n" for f in self.facets)

    @property
    def n_vertices(self) -> int:
        return len({v for f in self.facets for v in f})


# -- constructions on facet sets of integer vertices ----------------------


def simplex_boundary(d: int) -> set[frozenset[int]]:
    """Boundary of the (d+1)-simplex: a d-sphere on d+2 vertices."""
    return {frozenset(f) for f in itertools.combinations(range(d + 2), d + 1)}


def cross_polytope(d: int) -> set[frozenset[int]]:
    """Boundary of the (d+1)-cross-polytope; vertices 2i and 2i+1 are antipodal."""
    return {
        frozenset(2 * i + pick for i, pick in enumerate(choice))
        for choice in itertools.product((0, 1), repeat=d + 1)
    }


def cyclic_polytope(n: int, d: int) -> set[frozenset[int]]:
    """Boundary of the cyclic (d+1)-polytope on n vertices (Gale evenness)."""
    facets = set()
    for combo in itertools.combinations(range(n), d + 1):
        members = set(combo)
        gaps = [i for i in range(n) if i not in members]
        if all(
            sum(1 for m in combo if lo < m < hi) % 2 == 0
            for lo, hi in zip(gaps, gaps[1:])
        ):
            facets.add(frozenset(combo))
    return facets


def suspension(facets: set[frozenset[int]]) -> set[frozenset[int]]:
    """Join with two new points."""
    top = max(v for f in facets for v in f)
    north, south = top + 1, top + 2
    return {f | {apex} for f in facets for apex in (north, south)}


def barycentric(facets: set[frozenset[int]]) -> set[frozenset[int]]:
    """Barycentric subdivision: vertices are faces, facets are maximal chains."""
    faces = sorted(
        {frozenset(s) for f in facets for k in range(1, len(f) + 1)
         for s in itertools.combinations(sorted(f), k)},
        key=lambda s: (len(s), sorted(s)),
    )
    index = {s: i for i, s in enumerate(faces)}
    out = set()
    for f in facets:
        for order in itertools.permutations(sorted(f)):
            out.add(frozenset(index[frozenset(order[:k])] for k in range(1, len(order) + 1)))
    return out


class Flipper:
    """A closed combinatorial d-manifold under bistellar moves.

    A move picks a face A whose link is the boundary of a simplex B that
    is not itself a face, and replaces the star A * dB by dA * B.  When A
    is a facet, B is a new vertex (a stellar subdivision).  Moves keep the
    PL type, so starting from a sphere gives a sphere.
    """

    def __init__(self, facets: set[frozenset[int]]):
        self.dim = len(next(iter(facets))) - 1
        self.order: list[frozenset[int]] = sorted(facets, key=sorted)
        self.pos = {f: i for i, f in enumerate(self.order)}
        self.star: dict[int, set[frozenset[int]]] = {}
        for f in self.order:
            for v in f:
                self.star.setdefault(v, set()).add(f)
        self.fresh = max(self.star) + 1

    @property
    def n_vertices(self) -> int:
        return len(self.star)

    def _containing(self, face) -> set[frozenset[int]]:
        verts = iter(face)
        out = set(self.star.get(next(verts), ()))
        for v in verts:
            out &= self.star.get(v, set())
        return out

    def _remove(self, f):
        i = self.pos.pop(f)
        last = self.order.pop()
        if i < len(self.order):
            self.order[i] = last
            self.pos[last] = i
        for v in f:
            self.star[v].discard(f)
            if not self.star[v]:
                del self.star[v]

    def _add(self, f):
        self.pos[f] = len(self.order)
        self.order.append(f)
        for v in f:
            self.star.setdefault(v, set()).add(f)

    def move(self, a: frozenset[int]) -> bool:
        """Apply the move at face ``a`` if it is legal; report whether it was."""
        d = self.dim
        if len(a) == d + 1:
            old, b = {a}, frozenset((self.fresh,))
            self.fresh += 1
        else:
            old = self._containing(a)
            if len(old) != d + 2 - len(a):
                return False
            b = frozenset().union(*old) - a
            if len(b) != d + 2 - len(a) or self._containing(b):
                return False
        for f in old:
            self._remove(f)
        for x in a:
            self._add((a - {x}) | b)
        return True

    def random_move(self, rng: Lcg, size: int) -> bool:
        """Try the move at a random ``size``-subset of a random facet."""
        facet = self.order[rng.below(len(self.order))]
        return self.move(frozenset(rng.shuffled(sorted(facet))[:size]))

    def facets(self) -> set[frozenset[int]]:
        return set(self.order)


def stacked(d: int, n: int, rng: Lcg) -> set[frozenset[int]]:
    """A stacked d-sphere on n vertices: repeated stellar subdivisions of facets."""
    fl = Flipper(simplex_boundary(d))
    while fl.n_vertices < n:
        fl.random_move(rng, d + 1)
    return fl.facets()


def mixed(facets: set[frozenset[int]], flips: int, rng: Lcg, attempts: int) -> set[frozenset[int]]:
    """Apply up to ``flips`` vertex-preserving bistellar moves at random faces.

    Only faces with 2..d vertices are tried, so the vertex count stays;
    ``attempts`` caps the tries, which keeps neighbourly inputs (where
    most moves are illegal) finite.
    """
    fl = Flipper(facets)
    done = 0
    for _ in range(attempts):
        if done == flips:
            break
        if fl.random_move(rng, 2 + rng.below(fl.dim - 1)):
            done += 1
    return fl.facets()


# -- validation and serialization -----------------------------------------


def check_closed(facets: set[frozenset[int]], d: int) -> None:
    """Raise ValueError unless the facets form a closed d-pseudomanifold."""
    if any(len(f) != d + 1 for f in facets):
        raise ValueError("facets of mixed dimension")
    ridges: dict[frozenset[int], list[frozenset[int]]] = {}
    for f in facets:
        for v in f:
            ridges.setdefault(f - {v}, []).append(f)
    bad = [r for r, around in ridges.items() if len(around) != 2]
    if bad:
        raise ValueError(f"{len(bad)} ridges do not lie in exactly two facets")
    seen, todo = {next(iter(facets))}, [next(iter(facets))]
    while todo:
        f = todo.pop()
        for v in f:
            for g in ridges[f - {v}]:
                if g not in seen:
                    seen.add(g)
                    todo.append(g)
    if len(seen) != len(facets):
        raise ValueError("facet graph is not connected")


def make_input(name, facets, d, *, kappa=None, sphere=True, flag=False) -> Input:
    """Check, relabel densely in sorted vertex order and freeze one input."""
    check_closed(facets, d)
    verts = sorted({v for f in facets for v in f})
    width = len(str(len(verts) - 1))
    label = {v: f"v{i:0{width}d}" for i, v in enumerate(verts)}
    rows = sorted(tuple(sorted(label[v] for v in f)) for f in facets)
    return Input(name, d, tuple(rows), kappa, sphere, flag)


# -- the workloads ---------------------------------------------------------


def spheres(seed: int) -> list[Input]:
    """Stacked, flip-random and subdivided 2- and 3-spheres on 28 to 40 vertices.

    Their skeletons are sparse, so vertex connectivity takes most of the
    time.  The sizes keep each call under about half a second, which gives
    each complex enough timed calls per run for a steady median.
    """
    rng = Lcg(seed)
    out = [
        make_input("stacked-2-40", stacked(2, 40, rng), 2, kappa=3),
        make_input("stacked-2-34", stacked(2, 34, rng), 2, kappa=3),
        make_input("stacked-3-30", stacked(3, 30, rng), 3, kappa=4),
    ]
    for d, n in ((2, 36), (2, 40), (3, 28)):
        s = mixed(stacked(d, n, rng), 4 * n, rng, 40 * n)
        out.append(make_input(f"random-{d}-{n}", s, d))
    base = mixed(stacked(2, 7, rng), 14, rng, 280)
    out.append(make_input("subdivided-2-7", barycentric(base), 2, kappa=4, flag=True))
    return out


def highdim(seed: int) -> list[Input]:
    """Closed complexes of dimension 4 to 6 on at most 12 vertices.

    Their skeletons are complete or nearly so: connectivity is cheap, and
    links, manifold tests, GF(2) ranks and cliques take the time.
    """
    rng = Lcg(seed)
    out = [
        make_input("cross-4", cross_polytope(4), 4, kappa=8, flag=True),
        make_input("cyclic-10-4", cyclic_polytope(10, 4), 4, kappa=9),
        make_input("cyclic-9-5", cyclic_polytope(9, 5), 5, kappa=8),
        make_input("cyclic-9-6", cyclic_polytope(9, 6), 6, kappa=8),
    ]
    for d, n in ((2, 8), (3, 6)):
        base = mixed(stacked(d, n, rng), 10, rng, 400)
        out.append(make_input(f"double-suspension-{d + 2}", suspension(suspension(base)), d + 2))
    out.append(make_input("flipped-cross-4", mixed(cross_polytope(4), 6, rng, 600), 4))
    return out


BUILDERS = {"spheres": spheres, "highdim": highdim}


def build(workload: str, seed: int) -> list[Input]:
    """The seeded inputs of a workload; ``catalog`` uses the program's own corpus."""
    if workload == "catalog":
        return []
    return BUILDERS[workload](seed)


def digest(inputs: list[Input]) -> str:
    h = hashlib.sha256()
    for inp in inputs:
        h.update(inp.name.encode() + b"\n" + inp.text.encode())
    return h.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(BUILDERS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", help="directory to write one .scx file per input into")
    args = parser.parse_args(argv)
    inputs = build(args.workload, args.seed)
    for inp in inputs:
        print(f"{inp.name:<22} dim {inp.dim}  vertices {inp.n_vertices:>3}  "
              f"facets {len(inp.facets):>4}")
        if args.out:
            os.makedirs(args.out, exist_ok=True)
            with open(os.path.join(args.out, inp.name + ".scx"), "w", encoding="utf-8") as fh:
                fh.write(inp.text)
    print(f"digest {digest(inputs)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
