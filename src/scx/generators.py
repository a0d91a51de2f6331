"""Deterministic builders for the verification corpus.

Every generator is a pure function of its arguments; the stacked-sphere
builder draws its choices from a fixed 64-bit linear congruential
sequence (Knuth's MMIX multiplier), so the whole catalog serializes
bit-identically across platforms and runs.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .complexes import SimplicialComplex, dumps
from .errors import ScxError
from .manifold import is_pseudomanifold


class NoEdges(ScxError):
    """The banana construction needs a graph with at least one edge."""


# -- elementary complexes -------------------------------------------------


def simplex(d: int) -> SimplicialComplex:
    """The solid d-simplex on vertices v0..vd."""
    if d < 0:
        raise ValueError("dimension must be non-negative")
    return SimplicialComplex([[f"v{i}" for i in range(d + 1)]])


def simplex_boundary(d: int) -> SimplicialComplex:
    """The boundary of the d-simplex: a (d-1)-sphere on d+1 vertices."""
    if d < 1:
        raise ValueError("need dimension at least 1")
    verts = [f"v{i}" for i in range(d + 1)]
    return SimplicialComplex(itertools.combinations(verts, d))


def cross_polytope_boundary(d: int) -> SimplicialComplex:
    """The d-sphere joined from d+1 antipodal vertex pairs (p_i, m_i)."""
    if d < 1:
        raise ValueError("need dimension at least 1")
    pairs = [(f"p{i}", f"m{i}") for i in range(d + 1)]
    facets = [
        [pair[pick] for pair, pick in zip(pairs, choice)]
        for choice in itertools.product((0, 1), repeat=d + 1)
    ]
    return SimplicialComplex(facets)


def cycle(n: int) -> SimplicialComplex:
    """The n-cycle as a one-dimensional complex on c0..c(n-1)."""
    if n < 3:
        raise ValueError("cycles need at least 3 vertices")
    return SimplicialComplex(
        [[f"c{i}", f"c{(i + 1) % n}"] for i in range(n)]
    )


# -- banana complexes ------------------------------------------------------


def banana(edges) -> SimplicialComplex:
    """Expand each graph edge into a tetrahedron glued at shared endpoints.

    Edge k between u and v becomes the facet {u, v, e{k}a, e{k}b} with two
    fresh vertices per edge, so facets meet exactly in shared endpoints.
    """
    edge_list = sorted({tuple(sorted((str(a), str(b)))) for a, b in edges})
    if not edge_list:
        raise NoEdges("banana complexes need at least one edge")
    facets = []
    for k, (a, b) in enumerate(edge_list):
        facets.append([a, b, f"e{k}a", f"e{k}b"])
    return SimplicialComplex(facets)


def complete_graph_edges(n: int) -> list[tuple[str, str]]:
    return [
        (f"g{a}", f"g{b}") for a, b in itertools.combinations(range(n), 2)
    ]


def cycle_graph_edges(n: int) -> list[tuple[str, str]]:
    return [(f"g{i}", f"g{(i + 1) % n}") for i in range(n)]


def path_graph_edges(n: int) -> list[tuple[str, str]]:
    return [(f"g{i}", f"g{i + 1}") for i in range(n - 1)]


# -- the 16-vertex ring ball ------------------------------------------------


def ring_ball() -> SimplicialComplex:
    """A shellable 3-ball on 16 vertices: three solid octahedra around a
    shared axis triple x1,x2,x3, with the central hole filled around y.

    Index arithmetic is mod 3 with 1-based names x1..x3, a1..a3, b1..b3,
    c1..c3, d1..d3 and the interior vertex y.
    """

    def x(i):
        return f"x{(i - 1) % 3 + 1}"

    def a(i):
        return f"a{(i - 1) % 3 + 1}"

    def b(i):
        return f"b{(i - 1) % 3 + 1}"

    def c(i):
        return f"c{(i - 1) % 3 + 1}"

    def d(i):
        return f"d{(i - 1) % 3 + 1}"

    facets = []
    for i in (1, 2, 3):
        facets += [
            [x(i), x(i + 1), a(i), b(i)],
            [x(i), x(i + 1), b(i), c(i)],
            [x(i), x(i + 1), c(i), d(i)],
            [x(i), x(i + 1), a(i), d(i)],
            [x(i), a(i), b(i), b(i - 1)],
            [x(i), a(i), a(i - 1), b(i - 1)],
            ["y", a(i), b(i), a(i + 1)],
            ["y", b(i), a(i + 1), b(i + 1)],
        ]
    facets += [["y", "a1", "a2", "a3"], ["y", "b1", "b2", "b3"]]
    return SimplicialComplex(facets)


# -- seeded stacked spheres --------------------------------------------------

_LCG_MULT = 6364136223846793005
_LCG_INC = 1442695040888963407
_MASK64 = (1 << 64) - 1


def _lcg(seed: int):
    state = seed & _MASK64
    while True:
        state = (state * _LCG_MULT + _LCG_INC) & _MASK64
        yield state >> 33


def stacked_sphere(d: int, k: int, seed: int) -> SimplicialComplex:
    """Stack k new vertices onto the boundary of a (d+1)-simplex.

    Each step replaces one facet (chosen by the seeded LCG from the
    sorted facet list) with the cone of its boundary over a new vertex.
    """
    if d < 1 or k < 0:
        raise ValueError("need d >= 1 and k >= 0")
    facets = {frozenset(f) for f in simplex_boundary(d + 1).facets}
    rng = _lcg(seed)
    for step in range(k):
        ordered = sorted(tuple(sorted(f)) for f in facets)
        target = ordered[next(rng) % len(ordered)]
        apex = f"s{step}"
        facets.remove(frozenset(target))
        for drop in target:
            facets.add(frozenset(set(target) - {drop}) | {apex})
    return SimplicialComplex(facets)


# -- cyclic polytope boundaries ----------------------------------------------


def cyclic_polytope_boundary(n: int, d: int) -> SimplicialComplex:
    """Boundary of the (d+1)-dimensional cyclic polytope on n vertices.

    Facets come from the evenness condition: a (d+1)-subset S of the
    vertex line qualifies exactly when every two non-members have an even
    number of members of S strictly between them.
    """
    if d < 1 or n < d + 2:
        raise ValueError("need d >= 1 and n >= d + 2")
    facets = []
    for combo in itertools.combinations(range(n), d + 1):
        members = set(combo)
        outside = [i for i in range(n) if i not in members]
        ok = True
        for lo, hi in zip(outside, outside[1:]):
            if sum(1 for m in combo if lo < m < hi) % 2:
                ok = False
                break
        if ok:
            facets.append([f"t{i}" for i in combo])
    return SimplicialComplex(facets)


# -- small named complexes -----------------------------------------------


def torus_7() -> SimplicialComplex:
    """The vertex-transitive 7-vertex torus (two triangle orbits mod 7)."""
    facets = []
    for i in range(7):
        facets.append([f"t{i}", f"t{(i + 1) % 7}", f"t{(i + 3) % 7}"])
        facets.append([f"t{i}", f"t{(i + 2) % 7}", f"t{(i + 3) % 7}"])
    return SimplicialComplex(facets)


def fan_ball() -> SimplicialComplex:
    """A 2-ball made of two triangle fans over a hexagon.

    The two interior fan centers u and w are not adjacent, so coning the
    hexagon boundary yields a sphere whose apex has a disconnected
    non-neighborhood: the stock counterexample shape for neighborhood
    connectivity once the banner hypothesis is dropped.
    """
    return SimplicialComplex(
        [
            ["u", "p", "q"],
            ["u", "q", "r"],
            ["u", "r", "s"],
            ["u", "s", "p"],
            ["w", "s", "t"],
            ["w", "t", "v"],
            ["w", "v", "p"],
            ["w", "p", "s"],
        ]
    )


# -- the default corpus -------------------------------------------------


@dataclass(frozen=True)
class GeneratorSpec:
    name: str
    params: tuple = ()
    closed: bool = False  # expected to be a closed pseudomanifold
    notes: str = ""


def _catalog_entries():
    yield GeneratorSpec("simplex-boundary", (2,), True, "triangle cycle"), simplex_boundary(2)
    yield GeneratorSpec("simplex-boundary", (3,), True), simplex_boundary(3)
    yield GeneratorSpec("simplex-boundary", (4,), True), simplex_boundary(4)
    yield GeneratorSpec("simplex-boundary", (5,), True), simplex_boundary(5)
    yield GeneratorSpec("cross-polytope", (2,), True, "octahedron"), cross_polytope_boundary(2)
    yield GeneratorSpec("cross-polytope", (3,), True), cross_polytope_boundary(3)
    yield GeneratorSpec("cross-polytope", (4,), True), cross_polytope_boundary(4)
    for n in range(3, 9):
        yield GeneratorSpec("cycle", (n,), True), cycle(n)
    yield GeneratorSpec("banana-complete", (3,), False, "strongly banner, not flag"), banana(
        complete_graph_edges(3)
    )
    yield GeneratorSpec("banana-complete", (4,), False, "banner, not strongly banner"), banana(
        complete_graph_edges(4)
    )
    yield GeneratorSpec("banana-cycle", (5,), False), banana(cycle_graph_edges(5))
    yield GeneratorSpec("banana-path", (4,), False), banana(path_graph_edges(4))
    ball = ring_ball()
    yield GeneratorSpec("ring-ball", (), False, "strongly banner, not flag"), ball
    yield GeneratorSpec(
        "ring-sphere",
        (),
        True,
        "boundary cone of the ring ball; not banner: the apex forms "
        "critical non-spanning 4-cliques over interior edges",
    ), ball.tilde()
    yield GeneratorSpec("cone-simplex-boundary", (3,)), simplex_boundary(3).cone()
    yield GeneratorSpec("cone-cycle", (4,)), cycle(4).cone()
    yield GeneratorSpec("suspension-cycle", (5,), True), cycle(5).suspension()
    yield GeneratorSpec("suspension-simplex-boundary", (3,), True), simplex_boundary(3).suspension()
    yield GeneratorSpec("suspension-torus", (7,), True), torus_7().suspension()
    yield GeneratorSpec("stacked-sphere", (2, 5, 11), True), stacked_sphere(2, 5, 11)
    yield GeneratorSpec("stacked-sphere", (2, 7, 23), True), stacked_sphere(2, 7, 23)
    yield GeneratorSpec("stacked-sphere", (3, 4, 11), True), stacked_sphere(3, 4, 11)
    yield GeneratorSpec("stacked-sphere", (3, 6, 23), True), stacked_sphere(3, 6, 23)
    yield GeneratorSpec("cyclic-polytope", (6, 3), True), cyclic_polytope_boundary(6, 3)
    yield GeneratorSpec("cyclic-polytope", (7, 4), True), cyclic_polytope_boundary(7, 4)
    yield GeneratorSpec("cyclic-polytope", (8, 3), True), cyclic_polytope_boundary(8, 3)
    yield GeneratorSpec("torus", (7,), True), torus_7()
    fan = fan_ball()
    yield GeneratorSpec("fan-ball", (), False, "two non-adjacent interior fan centers"), fan
    yield GeneratorSpec(
        "fan-sphere", (), True, "apex has a disconnected non-neighborhood"
    ), fan.tilde()


def catalog() -> list[tuple[GeneratorSpec, SimplicialComplex]]:
    """The fixed default corpus, self-checked against the closedness flags."""
    entries = list(_catalog_entries())
    for spec, complex_ in entries:
        if spec.closed and is_pseudomanifold(complex_) != "closed":
            raise AssertionError(f"catalog entry {display_name(spec)} is not closed")
    return entries


def display_name(spec: GeneratorSpec) -> str:
    if not spec.params:
        return spec.name
    return spec.name + "-" + "-".join(str(p) for p in spec.params)


def catalog_digest() -> str:
    """SHA-256 over the serialized corpus; stable across runs and platforms."""
    import hashlib

    payload = "".join(
        display_name(spec) + "\n" + dumps(c) for spec, c in catalog()
    )
    return hashlib.sha256(payload.encode()).hexdigest()


# CLI-facing registry: name -> (builder, number of integer parameters)
REGISTRY = {
    "simplex": (simplex, 1),
    "simplex-boundary": (simplex_boundary, 1),
    "cross-polytope": (cross_polytope_boundary, 1),
    "cycle": (cycle, 1),
    "banana-complete": (lambda n: banana(complete_graph_edges(n)), 1),
    "banana-cycle": (lambda n: banana(cycle_graph_edges(n)), 1),
    "banana-path": (lambda n: banana(path_graph_edges(n)), 1),
    "ring-ball": (ring_ball, 0),
    "ring-sphere": (lambda: ring_ball().tilde(), 0),
    "stacked-sphere": (stacked_sphere, 3),
    "cyclic-polytope": (cyclic_polytope_boundary, 2),
    "torus-7": (torus_7, 0),
    "fan-ball": (fan_ball, 0),
    "fan-sphere": (lambda: fan_ball().tilde(), 0),
}


def build(name: str, params: tuple = ()) -> SimplicialComplex:
    if name not in REGISTRY:
        raise ScxError(f"unknown generator {name!r}; see REGISTRY for choices")
    builder, arity = REGISTRY[name]
    if len(params) != arity:
        raise ScxError(f"generator {name!r} takes {arity} integer parameter(s)")
    try:
        return builder(*params)
    except ValueError as exc:  # an out-of-range parameter: a usage error
        raise ScxError(f"generator {name!r}: {exc}") from None
