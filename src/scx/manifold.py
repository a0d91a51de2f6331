"""Pseudomanifold structure, homology-manifold recognition and shelling.

The checks here follow the chain: homology manifold => normal
pseudomanifold => pseudomanifold.  The verdicts that more than one
caller reads are kept under their own keys of the complex's memo, each
by one ``_memoized`` function: ``"pseudomanifold"`` (``is_pseudomanifold``),
``"normal"`` (``is_normal``), ``"homology_manifold"`` with its witness
(``is_homology_manifold``) and the greedy shelling order (``"shelled"``,
``_shelled``).  ``_closed_normal`` reads the first two; it is both the
CLOSED_NORMAL hypothesis and the test of the banner number's level d - 1
rule.  HOMOLOGY_MANIFOLD reads the third.  ``is_normal`` and
``is_homology_manifold`` read their verdicts off the greedy shelling
when it completes; only when it stalls do they run the residue scan
(``_residue_scan``, which takes no rank) and the rank scan
(``_first_deviating_face``), which the tests compare with the oracles.
``is_homology_sphere`` and ``manifold_class``, the bundle that
``analyze`` and the API read, are put together from these keys on each
call.  Neither scan builds a link by label: the link of a face F is
connected exactly when the residues G - F of the facets G containing F
(``SimplicialComplex._residues``), each joining its vertices, are, and
the rank scan builds each link from those residues.

The facets containing each ridge are listed in the complex's ridge level
(``SimplicialComplex._ridges``), the one face level kept with its holders;
the facets containing any other face are the AND of the vertex-facet masks
(``complexes._vertex_facets``).  The pseudomanifold test counts the
ridges' holders, the antistar check finds the boundary ridges among them,
and the facet ridge graph is built from them once.

``is_homology_manifold`` first tries one greedy shelling of a closed
pseudomanifold of dimension d >= 1.  A shelling makes a pure complex a
wedge of d-spheres (Bjorner, Trans. AMS 260, 1980), and the face links of
a shellable complex shell too (Bjorner & Wachs, Trans. AMS 348, 1996).
Each ridge of such a link, of dimension m, lies in two of its facets, so
over GF(2) its b_m, the number of spheres in the wedge, is 1.  So the
complex is a homology manifold with the Betti numbers of a d-sphere, and
no rank is taken (it is even a PL sphere: Danaraj & Klee, Duke Math. J.
41, 1974), so it is normal too.  When the pass stalls, the links are
built and ranked, faces ascending, for the first that deviates.  The
pass's order is kept in the memo as a certificate that
``verify_shelling`` re-checks.

A facet F may follow the facets S of a shelling exactly when its
restriction face R = {y : F - y lies in a facet of S}, the OR of F - G
over its ridge neighbours G in S, is non-empty and lies in no facet of
S: then each meet F & G, G in S, misses some y in R, so lies in the
ridge F - y.  Both shelling functions and the greedy pass use this test,
``_may_follow``.  With R fixed, the facets of S that hold R only grow
with S, so a facet that fails keeps failing until R grows; the greedy
pass re-tests only such facets.

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
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

from .complexes import Face, SimplicialComplex, _iter_bits, _memoized, _Record, _vertex_facets
from .errors import BadSeed, EmptyComplex, NotPseudomanifold, NotPure, SearchBudgetExceeded
from .graphs import _reach, skeleton
from .homology import sphere_pattern, z2_betti


class FacetGraph(_Record):
    __slots__ = ()
    facets: tuple[Face, ...]
    edges: tuple[tuple[int, int], ...]


class NormalityResult(_Record):
    __slots__ = ()
    normal: bool
    witness: Face | None


class ManifoldClass(_Record):
    __slots__ = ()
    pseudomanifold: str  # "closed", "with_boundary" or "no"
    strongly_connected: bool
    normal: bool | None  # None when not a pseudomanifold
    homology_manifold: bool
    homology_sphere: bool
    witnesses: Mapping[str, Face]  # read-only, as the rest of the frozen result


@_memoized("ridge_graph")
def _ridge_graph(c: SimplicialComplex) -> tuple[int, ...]:
    """For each facet of ``c``, the bitmask of the facets sharing a ridge
    with it, over indices into ``c._facets``; kept in ``c``'s memo."""
    adjacent = [0] * len(c._facets)
    for members in c._ridges().values():
        for a, b in itertools.combinations(members, 2):
            adjacent[a] |= 1 << b
            adjacent[b] |= 1 << a
    return tuple(adjacent)


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


@_memoized("pseudomanifold")
def is_pseudomanifold(c: SimplicialComplex) -> str:
    """"closed" (every ridge in 2 facets), "with_boundary" (in 1 or 2), or "no".

    Both positive answers require strong connectivity.
    """
    if not c.is_pure:
        raise NotPure("pseudomanifold checks need a pure complex")
    counts = [len(m) for m in c._ridges().values()]
    if any(k > 2 for k in counts) or not is_strongly_connected(c):
        return "no"
    return "closed" if all(k == 2 for k in counts) else "with_boundary"


@_memoized("normal")
def is_normal(c: SimplicialComplex) -> NormalityResult:
    """Are all links of dimension at least one connected?

    The witness is the first face, by size and then label order, whose
    link is disconnected.  Kept in ``c``'s memo; see the module docstring.
    """
    if is_pseudomanifold(c) == "no":
        raise NotPseudomanifold("normality is defined on pseudomanifolds")
    return NormalityResult(True, None) if _shelled(c) is not None else _residue_scan(c)


def _residue_scan(c: SimplicialComplex) -> NormalityResult:
    """``is_normal`` by the residues of each face, faces by size and then
    id order, which is label order."""
    for k in range(c.dim):  # faces with link dimension d-k >= 1
        for face in sorted(c.faces_ids(k)) if k else [()]:
            if not _connected(c._residues(face)):
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
    rim = 0  # each v of a facet G whose ridge G - v lies in no other facet
    for ridge, members in c._ridges().items():
        if len(members) == 1:
            rim |= c._residues(ridge)[0]
    adjacent = _ridge_graph(c)
    full = (1 << len(c._masks)) - 1
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


def _first_deviating_face(c: SimplicialComplex) -> Face | None:
    """The first face, by size and then label order, whose link lacks sphere
    homology; None when every link has it."""
    d = c.dim
    for k in range(1, d + 1):
        for face in sorted(c.faces_ids(k)):
            link = SimplicialComplex._from_ids(c._labels, c._residues(face))
            if z2_betti(link) != sphere_pattern(d - k, d - k + 1):
                return c._face_labels(face)
    return None


@_memoized("homology_manifold")
def is_homology_manifold(c: SimplicialComplex) -> tuple[bool, Face | None]:
    """Do all face links carry the GF(2) homology of matching spheres?

    Requires a pure connected complex; the witness is the first face, by
    size and then label order, whose link deviates.  Kept in ``c``'s
    memo; see the module docstring.
    """
    if not c.is_pure:
        raise NotPure("homology manifold check needs a pure complex")
    if not skeleton(c).is_connected():
        return False, None
    if _shelled(c) is not None:
        return True, None
    face = _first_deviating_face(c)
    return face is None, face


def _closed_normal(c: SimplicialComplex) -> bool:
    """Is the pure complex ``c`` a closed normal pseudomanifold?"""
    return is_pseudomanifold(c) == "closed" and is_normal(c).normal


def is_homology_sphere(c: SimplicialComplex) -> bool:
    """A homology manifold with the GF(2) Betti numbers of a sphere."""
    return is_homology_manifold(c)[0] and z2_betti(c) == sphere_pattern(c.dim, c.dim + 1)


def manifold_class(c: SimplicialComplex) -> ManifoldClass:
    """All manifold-like flags bundled, with failure witnesses."""
    witnesses: dict[str, Face] = {}
    pm = is_pseudomanifold(c)
    strongly = pm != "no" or is_strongly_connected(c)
    hm, hw = is_homology_manifold(c)
    normal: bool | None = None
    if pm != "no":
        res = is_normal(c)
        normal = res.normal
        if res.witness is not None:
            witnesses["normal"] = res.witness
    if hw is not None:
        witnesses["homology_manifold"] = hw
    hs = is_homology_sphere(c)
    return ManifoldClass(pm, strongly, normal, hm, hs, MappingProxyType(witnesses))


# -- shelling search -----------------------------------------------------


class ShellingOrder(_Record):
    __slots__ = ()
    facets: tuple[Face, ...]


def _restriction(c: SimplicialComplex, i: int, chosen: int) -> int:
    """The restriction face of facet ``i`` after the facets ``chosen``, as a vertex bitmask."""
    masks = c._masks  # noqa: SLF001 - intra-package id view
    r = 0
    for j in _iter_bits(_ridge_graph(c)[i] & chosen):
        r |= masks[i] & ~masks[j]
    return r


def _may_follow(r: int, chosen: int, vertex_facets: Sequence[int]) -> bool:
    """May a facet with restriction face ``r`` follow the facet set ``chosen``?
    ``vertex_facets`` is ``_vertex_facets`` of the complex.  For d = 0 r is
    the point itself, so points shell in every order."""
    if not r:
        return False
    while r and chosen:
        low = r & -r
        chosen &= vertex_facets[low.bit_length() - 1]
        r ^= low
    return not chosen


@_memoized("shelled")
def _shelled(c: SimplicialComplex) -> tuple[int, ...] | None:
    """One greedy shelling of ``c``, as facet indices, or None; kept in
    ``c``'s memo.

    Only a closed pseudomanifold of dimension d >= 1 is tried.  A complex
    whose ridges each lie in two facets but which is not strongly connected
    is not tried either: the pass would stall on it, since each facet it
    takes after the first shares a ridge with a chosen facet, so it never
    leaves the component of facet 0.

    The pass starts at facet 0 and then takes the lowest-index facet of the
    ridge frontier that may follow; None when none may.  A facet that fails
    the step test keeps failing until its restriction face grows, since
    ``chosen`` only grows.  So only the unchosen neighbours of the facet
    just chosen are re-tested, ``ready`` keeps the frontier facets that
    passed when last tested, and its lowest is re-tested when picked.  On
    success the Betti numbers of a d-sphere go into the memo.
    """
    d = c.dim
    if not d or is_pseudomanifold(c) != "closed":
        return None
    masks = c._masks  # noqa: SLF001 - intra-package id view
    adjacent, vertex_facets = _ridge_graph(c), _vertex_facets(c)
    restriction = [0] * len(masks)
    order = [0]
    chosen, ready, i = 1, 0, 0
    for _ in range(len(masks) - 1):
        grown = adjacent[i] & ~chosen
        while grown:
            low = grown & -grown
            grown ^= low
            j = low.bit_length() - 1
            restriction[j] |= masks[j] & ~masks[i]
            if _may_follow(restriction[j], chosen, vertex_facets):
                ready |= low
            else:
                ready &= ~low
        while ready:
            low = ready & -ready
            ready ^= low
            i = low.bit_length() - 1
            if _may_follow(restriction[i], chosen, vertex_facets):
                break
        else:
            return None
        chosen |= low
        order.append(i)
    c._memo["z2_betti"] = sphere_pattern(d, d + 1)
    return tuple(order)


def verify_shelling(c: SimplicialComplex, order: Sequence[Face]) -> bool:
    """Re-check the shelling condition from scratch."""
    if not c.is_pure:
        raise NotPure("shellings are defined for pure complexes")
    keys = [tuple(sorted(f)) for f in order]
    facets = c.facets  # each access rebuilds every label tuple
    if sorted(keys) != sorted(facets):
        return False
    index, chosen = {f: i for i, f in enumerate(facets)}, 0
    vertex_facets = _vertex_facets(c)
    for k, i in enumerate(index[key] for key in keys):
        if k and not _may_follow(_restriction(c, i, chosen), chosen, vertex_facets):
            return False
        chosen |= 1 << i
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
    index = {frozenset(f): i for i, f in enumerate(c.facets)}
    adjacent, vertex_facets = _ridge_graph(c), _vertex_facets(c)
    full = (1 << len(index)) - 1

    order: list[int] = []
    chosen = seed_pool = 0  # facet bitmasks
    if seed is not None:
        seed_sets = [frozenset(tuple(sorted(str(v) for v in f))) for f in seed]
        unknown = [s for s in seed_sets if s not in index]
        if unknown:
            raise BadSeed(f"seed entries are not facets: {sorted(unknown[0])}")
        if ordered:
            for k, s in enumerate(seed_sets):
                i = index[s]
                r = _restriction(c, i, chosen)
                if chosen >> i & 1 or (k > 0 and not _may_follow(r, chosen, vertex_facets)):
                    raise BadSeed(f"seed breaks the shelling condition at step {k + 1}")
                order.append(i)
                chosen |= 1 << i
        else:
            seed_pool = sum(1 << index[s] for s in set(seed_sets))

    nodes = 0
    dead: set[int] = set()  # chosen sets that cannot be completed

    def candidates() -> list[int]:
        pool = full & ~chosen
        if pool & seed_pool:
            pool &= seed_pool
        if not chosen:
            return list(_iter_bits(pool))
        scored = [
            (-(adjacent[i] & chosen).bit_count(), i)
            for i in _iter_bits(pool)
            if _may_follow(_restriction(c, i, chosen), chosen, vertex_facets)
        ]
        return [i for _, i in sorted(scored)]

    def search() -> bool:
        nonlocal nodes, chosen
        if chosen == full:
            return True
        if chosen in dead:
            return False
        for i in candidates():
            nodes += 1
            if nodes > budget:
                raise SearchBudgetExceeded(f"no decision within {budget} expansions")
            order.append(i)
            chosen |= 1 << i
            if search():
                return True
            order.pop()
            chosen ^= 1 << i
        dead.add(chosen)
        return False

    if not search():
        return None
    facets = c.facets
    shelling = tuple(facets[i] for i in order)
    if not verify_shelling(c, shelling):
        raise AssertionError("search produced an order that fails revalidation")
    return ShellingOrder(shelling)
