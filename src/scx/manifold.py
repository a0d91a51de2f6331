"""Pseudomanifold structure, homology-manifold recognition and shelling.

The checks here follow the chain: homology manifold => normal
pseudomanifold => pseudomanifold.  ``is_normal`` and
``is_homology_manifold`` each check their property on their own.  Each
verdict is kept under its own key of the complex's memo, so that a
caller pays only for the invariant it asks about: ``"pseudomanifold"``
(``is_pseudomanifold``), ``"normal"`` (``_normality``),
``"homology_manifold"`` with its witness (``_homology_manifold``) and
``"homology_sphere"`` (``is_homology_sphere``).  The CLOSED_NORMAL
hypothesis reads the first two, HOMOLOGY_MANIFOLD the third, and the
banner number's level d - 1 rule the first two.  ``_normality`` reads
normality off a passing homology-manifold verdict when that verdict is
already in the memo, and runs ``is_normal`` otherwise; the tests compare
the two routes.  ``manifold_class`` is the bundle that ``analyze`` and
the API read; it asks for the homology-manifold verdict first and builds
the rest from the same keys, so no invariant is computed twice.
``is_normal`` builds no link: the link of a face F is connected exactly
when the residues G - F of the facets G containing F, each joining its
vertices, are.

The facets containing each ridge are the ridge level of the complex's
face index (``SimplicialComplex._holders``), as the facets containing
any smaller face are its lower levels.  The pseudomanifold test counts
them, the ridge link test of ``is_homology_manifold`` reads them, and the
facet ridge graph is built from them once.

``is_homology_manifold`` visits faces from ridges down to vertices and
takes the link of a face F as the residues G - F of the facet bitmasks G
containing it; no link complex is built and the residues are dropped
after each face.  Once the links of all larger faces have passed, the
link of F is a closed GF(2)-homology m-manifold, m = d - |F|, so by
Poincare duality over a field it is a homology sphere exactly when it is
connected, its Betti numbers below degree ceil(m/2) vanish and, for even
m, its Euler characteristic is 2.  Only when some link fails are the
links built and fully ranked, faces ascending, for the witness.

Strong connectivity, including that of each vertex antistar in
``verify_barnette_antistar``, is one ``graphs._reach`` search on the
memoized ridge graph of the facets, a neighbor bitmask per facet, which
``facet_graph`` and the L4.4-homological check read too; no label facet
graph or antistar complex is built.  On a pseudomanifold the antistar of
a vertex v in some but not all facets is the facets avoiding v, unless a
facet holding v has a boundary ridge avoiding v, which makes the
antistar impure; when v lies in every facet its antistar is its link.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

from .complexes import Face, SimplicialComplex, _iter_bits, _mask
from .errors import BadSeed, EmptyComplex, NotPseudomanifold, NotPure, SearchBudgetExceeded
from .graphs import _reach, skeleton
from .homology import _boundary_rank, sphere_pattern, z2_betti


@dataclass(frozen=True)
class FacetGraph:
    facets: tuple[Face, ...]
    edges: tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class NormalityResult:
    normal: bool
    witness: Face | None


@dataclass(frozen=True)
class ManifoldClass:
    pseudomanifold: str  # "closed", "with_boundary" or "no"
    strongly_connected: bool
    normal: bool | None  # None when not a pseudomanifold
    homology_manifold: bool
    homology_sphere: bool
    witnesses: Mapping[str, Face]  # read-only: the result is shared through the memo


def _ridge_graph(c: SimplicialComplex) -> tuple[int, ...]:
    """For each facet of ``c``, the bitmask of the facets sharing a ridge
    with it, over indices into ``c._facets``; kept in ``c``'s memo."""
    return c._cached("ridge_graph", _build_ridge_graph)


def _build_ridge_graph(c: SimplicialComplex) -> tuple[int, ...]:
    adjacent = [0] * len(c._facets)
    for members in c._holders(c.dim).values():
        for a, b in itertools.combinations(members, 2):
            adjacent[a] |= 1 << b
            adjacent[b] |= 1 << a
    return tuple(adjacent)


def _vertex_facets(c: SimplicialComplex) -> tuple[int, ...]:
    """For each vertex id of ``c``, the bitmask of the facets holding it, over
    indices into ``c._facets``; kept in ``c``'s memo."""
    return c._cached("vertex_facets", _build_vertex_facets)


def _build_vertex_facets(c: SimplicialComplex) -> tuple[int, ...]:
    holders = c._holders(1)
    return tuple(sum(1 << j for j in holders[(i,)]) for i in range(c.n_vertices))


def facet_graph(c: SimplicialComplex) -> FacetGraph:
    """Facets as nodes, adjacency = sharing a ridge."""
    if not c.is_pure:
        raise NotPure("facet graph is defined for pure complexes")
    adjacent = enumerate(_ridge_graph(c))
    return FacetGraph(c.facets, tuple((a, b) for a, m in adjacent for b in _iter_bits(m) if a < b))


def is_strongly_connected(c: SimplicialComplex) -> bool:
    if not c.is_pure:
        raise NotPure("facet graph is defined for pure complexes")
    full = (1 << len(c._facets)) - 1
    return _reach(_ridge_graph(c), 1, full) == full


def is_pseudomanifold(c: SimplicialComplex) -> str:
    """"closed" (every ridge in 2 facets), "with_boundary" (in 1 or 2), or "no".

    Both positive answers require strong connectivity.
    """
    if not c.is_pure:
        raise NotPure("pseudomanifold checks need a pure complex")
    return c._cached("pseudomanifold", _is_pseudomanifold)


def _is_pseudomanifold(c: SimplicialComplex) -> str:
    counts = [len(m) for m in c._holders(c.dim).values()]
    if any(k > 2 for k in counts) or not is_strongly_connected(c):
        return "no"
    return "closed" if all(k == 2 for k in counts) else "with_boundary"


def is_normal(c: SimplicialComplex) -> NormalityResult:
    """Are all links of dimension at least one connected?

    Faces are visited by size and then id order, which is label order,
    and the first whose link is disconnected is the witness.
    """
    if is_pseudomanifold(c) == "no":
        raise NotPseudomanifold("normality is defined on pseudomanifolds")
    masks = c._masks  # noqa: SLF001 - intra-package id view
    for k in range(c.dim):  # faces with link dimension d-k >= 1
        for face, members in sorted(c._holders(k).items()):
            f = _mask(face)
            if not _connected([masks[i] ^ f for i in members]):
                return NormalityResult(False, c._face_labels(face))
    return NormalityResult(True, None)


def verify_barnette_antistar(c: SimplicialComplex) -> tuple[bool, str | None]:
    """Strong connectivity of every vertex antistar; witness on failure.

    The pieces G - v of the antistar of v are the facets avoiding v and
    the ridges G - v of the facets G holding v.  Such a ridge lies in a
    second facet, which avoids v, or is a boundary ridge: so the antistar
    is the facets avoiding v, or is not pure, or, when v lies in every
    facet, is the link of v.  That link is strongly connected, since the
    complex is the cone over it and is strongly connected itself.
    """
    pm = is_pseudomanifold(c)
    if pm == "no":
        raise NotPseudomanifold("antistar connectivity assumes a pseudomanifold")
    if c.n_vertices == 1:
        raise EmptyComplex("antistar of the only vertex is empty")
    masks = c._masks  # noqa: SLF001 - intra-package id view
    rim = 0  # each v of a facet G whose ridge G - v lies in no other facet
    for ridge, members in c._holders(c.dim).items():
        if len(members) == 1:
            rim |= masks[members[0]] ^ _mask(ridge)
    adjacent = _ridge_graph(c)
    full = (1 << len(masks)) - 1
    for i, (v, holding) in enumerate(zip(c.vertices, _vertex_facets(c))):
        avoiding = full - holding
        if not avoiding:
            continue
        if rim >> i & 1:
            raise NotPure("facet graph is defined for pure complexes")
        if _reach(adjacent, avoiding & -avoiding, avoiding) != avoiding:
            return False, v
    return True, None


def _connected(masks: list[int]) -> bool:
    """Is the union of the non-zero vertex bitmasks ``masks`` connected when
    each mask joins its members?"""
    reach, rest = masks[0], masks[1:]
    while rest:
        apart = []
        for m in rest:
            if m & reach:
                reach |= m
            else:
                apart.append(m)
        if len(apart) == len(rest):
            return False
        rest = apart
    return True


def _manifold_link_is_sphere(residues: list[int], m: int) -> bool:
    """Is this closed GF(2)-homology m-manifold a homology m-sphere?

    ``residues`` are its facets, as vertex bitmasks.  Poincare duality
    over a field gives b_i = b_(m-i) and, when it is connected, b_m = 1;
    so for even m its Euler characteristic is 2 +- b_(m/2).
    """
    if m == 0:
        return len(residues) == 2
    if not _connected(residues):
        return False
    if m == 1:
        return True
    facets = [tuple(_iter_bits(r)) for r in residues]
    layers = {m + 1: facets}

    def layer(size: int) -> list[tuple[int, ...]]:
        if size not in layers:
            layers[size] = list({sub for f in facets for sub in itertools.combinations(f, size)})
        return layers[size]

    rank_below = len(layer(1)) - 1  # edges onto the vertices of a connected complex
    for i in range(1, (m + 1) // 2):  # dimension i holds the faces of size i + 1
        index = {f: col for col, f in enumerate(layer(i + 1))}
        rank_above = _boundary_rank(layer(i + 2), index)
        if len(index) - rank_below - rank_above:
            return False
        rank_below = rank_above
    if m % 2:
        return True
    # each of its ridges lies in two facets, so the top two layers add
    # F - (m + 1) F / 2 to the alternating sum, F being the facet count
    chi = sum((-1) ** (size - 1) * len(layer(size)) for size in range(1, m))
    return 2 * chi - (m - 1) * len(facets) == 4


def _first_deviating_face(c: SimplicialComplex) -> Face:
    """The first face, by size and then label order, whose link lacks sphere homology."""
    d = c.dim
    for k in range(1, d + 1):
        for face in sorted(c.faces(k)):
            if z2_betti(c.link(face)) != sphere_pattern(d - k, d - k + 1):
                return face
    raise AssertionError("every face link has the homology of a sphere")


def is_homology_manifold(c: SimplicialComplex) -> tuple[bool, Face | None]:
    """Do all face links carry the GF(2) homology of matching spheres?

    Requires a pure connected complex; the witness is the first face, by
    size and then label order, whose link deviates.  The pass runs top
    down, as the module docstring describes.
    """
    if not c.is_pure:
        raise NotPure("homology manifold check needs a pure complex")
    if not skeleton(c).is_connected():
        return False, None
    masks = c._masks  # noqa: SLF001 - intra-package id view
    d = c.dim
    # a ridge link is a 0-sphere exactly when the ridge lies in two facets
    if d and any(len(members) != 2 for members in c._holders(d).values()):
        return False, _first_deviating_face(c)
    for k in range(d - 1, 0, -1):  # facets have empty links: nothing to check
        for face, members in c._holders(k).items():
            f = _mask(face)
            residues = [masks[i] ^ f for i in members]
            if not _manifold_link_is_sphere(residues, d - k):
                return False, _first_deviating_face(c)
    return True, None


def _homology_manifold(c: SimplicialComplex) -> tuple[bool, Face | None]:
    """``is_homology_manifold(c)``, kept in ``c``'s memo."""
    return c._cached("homology_manifold", is_homology_manifold)


def _normality(c: SimplicialComplex) -> NormalityResult:
    """``is_normal(c)`` on a pseudomanifold, kept in ``c``'s memo.

    A connected homology manifold is normal: each link of dimension at
    least 1 has reduced Betti number 0 in degree 0, so it is connected.  So
    a passing homology-manifold verdict already in the memo answers, and
    ``is_normal`` runs otherwise; normality never forces that verdict.
    """
    return c._cached("normal", _build_normality)


def _build_normality(c: SimplicialComplex) -> NormalityResult:
    if c._memo.get("homology_manifold", (False,))[0]:
        return NormalityResult(True, None)
    return is_normal(c)


def is_homology_sphere(c: SimplicialComplex) -> bool:
    """A homology manifold with the GF(2) Betti numbers of a sphere; kept in ``c``'s memo."""
    return c._cached("homology_sphere", _is_homology_sphere)


def _is_homology_sphere(c: SimplicialComplex) -> bool:
    return _homology_manifold(c)[0] and z2_betti(c) == sphere_pattern(c.dim, c.dim + 1)


def manifold_class(c: SimplicialComplex) -> ManifoldClass:
    """All manifold-like flags bundled, with failure witnesses."""
    return c._cached("manifold_class", _manifold_class)


def _manifold_class(c: SimplicialComplex) -> ManifoldClass:
    """The bundle, read off the memo keys of its parts; the homology-manifold
    verdict comes first, so that normality is read off it when it passes."""
    witnesses: dict[str, Face] = {}
    pm = is_pseudomanifold(c)
    strongly = pm != "no" or is_strongly_connected(c)
    hm, hw = _homology_manifold(c)
    normal: bool | None = None
    if pm != "no":
        res = _normality(c)
        normal = res.normal
        if res.witness is not None:
            witnesses["normal"] = res.witness
    if hw is not None:
        witnesses["homology_manifold"] = hw
    hs = is_homology_sphere(c)
    return ManifoldClass(pm, strongly, normal, hm, hs, MappingProxyType(witnesses))


# -- shelling search -----------------------------------------------------


@dataclass(frozen=True)
class ShellingOrder:
    facets: tuple[Face, ...]


def _step_ok(chosen: list[frozenset], cand: frozenset, d: int) -> bool:
    """Is cand's intersection with the union of chosen pure of dimension d-1?

    An empty meet lies in every ridge; for d = 0 it is the ridge, the empty
    face, so every order of points is a shelling.
    """
    meets = {cand & f for f in chosen}
    ridges = [m for m in meets if len(m) == d]
    if not ridges:
        return False
    return all(any(m <= r for r in ridges) for m in meets)


def verify_shelling(c: SimplicialComplex, order: Sequence[Face]) -> bool:
    """Re-check the shelling condition from scratch."""
    sets = [frozenset(f) for f in order]
    if sorted(tuple(sorted(f)) for f in order) != sorted(c.facets):
        return False
    d = c.dim
    for k in range(1, len(sets)):
        if not _step_ok(sets[:k], sets[k], d):
            return False
    return True


def find_shelling(
    c: SimplicialComplex,
    seed: Iterable[Face] | None = None,
    *,
    ordered: bool = False,
    budget: int = 10_000_000,
) -> ShellingOrder | None:
    """Backtracking search for a shelling order, optionally seeded.

    With ``ordered=True`` the seed must itself be a valid shelling prefix
    (``BadSeed`` otherwise); with the default unordered mode the search is
    constrained to exhaust the seed facets, in any workable order, before
    touching the rest.  Returns ``None`` when no shelling extends the
    constraints; raises ``SearchBudgetExceeded`` when the node budget runs
    out before the search can decide, and ``ValueError`` on a budget below 1.
    """
    if budget < 1:
        raise ValueError(f"search budget must be at least 1, not {budget}")
    if not c.is_pure:
        raise NotPure("shellings are defined for pure complexes")
    d = c.dim
    all_facets = [frozenset(f) for f in c.facets]
    facet_keys = {frozenset(f): tuple(f) for f in c.facets}

    chosen: list[frozenset] = []
    seed_pool: set[frozenset] = set()
    if seed is not None:
        seed_sets = [frozenset(tuple(sorted(str(v) for v in f))) for f in seed]
        unknown = [s for s in seed_sets if s not in facet_keys]
        if unknown:
            raise BadSeed(f"seed entries are not facets: {sorted(unknown[0])}")
        if ordered:
            for k, s in enumerate(seed_sets):
                if s in chosen or (k > 0 and not _step_ok(chosen, s, d)):
                    raise BadSeed(f"seed breaks the shelling condition at step {k + 1}")
                chosen.append(s)
        else:
            seed_pool = set(seed_sets)

    remaining = [f for f in all_facets if f not in chosen]
    nodes = 0
    dead: set[frozenset] = set()  # chosen-sets that cannot be completed

    def candidates(pool: list[frozenset]) -> list[frozenset]:
        if seed_pool and any(f in seed_pool for f in pool):
            pool = [f for f in pool if f in seed_pool]
        if not chosen:
            return sorted(pool, key=lambda f: facet_keys[f])
        scored = []
        for f in pool:
            if _step_ok(chosen, f, d):
                shared = sum(1 for g in chosen if len(f & g) == d)
                scored.append((-shared, facet_keys[f], f))
        return [f for _, _, f in sorted(scored)]

    def search(pool: list[frozenset]) -> bool:
        nonlocal nodes
        if not pool:
            return True
        state = frozenset(chosen)
        if state in dead:
            return False
        for f in candidates(pool):
            nodes += 1
            if nodes > budget:
                raise SearchBudgetExceeded(f"no decision within {budget} expansions")
            chosen.append(f)
            if search([g for g in pool if g is not f]):
                return True
            chosen.pop()
        dead.add(state)
        return False

    if not search(remaining):
        return None
    order = tuple(facet_keys[f] for f in chosen)
    if not verify_shelling(c, order):
        raise AssertionError("search produced an order that fails revalidation")
    return ShellingOrder(order)
