"""Clique machinery over the 1-skeleton and the banner hierarchy.

A clique is spanning when it is itself a face and critical when deleting
some vertex leaves a face.  A pure d-complex is banner when every
critical (d+1)-clique is spanning and no boundary of a (d+1)-simplex
occurs as a subcomplex; strongly banner tightens "critical" to "every";
flag complexes have all cliques spanning.  The banner number is the least
j such that the link of every j-vertex face is banner or a triangle
cycle.

Cliques are enumerated in label-lexicographic order by a bounded DFS over
adjacency bitmasks, so witnesses are reproducible.

Classification stops at its first violation, taken in witness order: a
critical non-spanning (d+1)-clique, then a simplex boundary, then a
non-spanning (d+1)-clique, then a non-spanning j-clique for j = 3 ... d.
For d >= 1, flag => strongly banner => banner, so each violation also
refutes every stronger property, and ``_classify`` proves that only a
strongly banner complex needs the last scan, and no larger j.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator

from .complexes import Face, Label, SimplicialComplex, _iter_bits, _mask
from .errors import NoBoundary, NotAClique, NotPure
from .graphs import _adjacency_masks

_TRIANGLE_F_VECTOR = (1, 3, 3)


@dataclass(frozen=True)
class BannerWitness:
    level: str  # which property the witness refutes
    kind: str  # "non_spanning_clique", "critical_non_spanning_clique", "simplex_boundary"
    vertices: Face


@dataclass(frozen=True)
class BannerClass:
    flag: bool
    strongly_banner: bool
    banner: bool
    witness: BannerWitness | None


@dataclass(frozen=True)
class BannerNumber:
    value: int | None  # None when no admissible level exists
    passed_faces: int  # the number of faces at the accepted level
    failing_face: Face | None  # a witness one level below (or at d-1 if undefined)


@dataclass(frozen=True)
class TildeCliques:
    apex: Label
    plain: tuple[Face, ...]  # cliques of the ball's skeleton
    from_boundary: tuple[Face, ...]  # boundary cliques plus the apex
    stranded: tuple[Face, ...]  # apex cliques not supported by the boundary


def cliques_ids(c: SimplicialComplex, j: int) -> Iterator[tuple[int, ...]]:
    """All j-vertex cliques of the skeleton, ascending id tuples."""
    if j < 1:
        return
    n = c.n_vertices
    if j == 1:
        yield from ((i,) for i in range(n))
        return
    masks = _adjacency_masks(c)
    full = (1 << n) - 1

    def extend(prefix: tuple[int, ...], cand: int) -> Iterator[tuple[int, ...]]:
        if len(prefix) == j:
            yield prefix
            return
        need = j - len(prefix)
        for v in _iter_bits(cand):
            rest = cand & masks[v] & ~((1 << (v + 1)) - 1)
            if rest.bit_count() >= need - 1:
                yield from extend(prefix + (v,), rest)

    yield from extend((), full)


def cliques(c: SimplicialComplex, j: int) -> Iterator[Face]:
    """All j-vertex cliques as label tuples, lexicographic order."""
    for ids in cliques_ids(c, j):
        yield tuple(c.vertices[i] for i in ids)


def _require_clique(c: SimplicialComplex, vertices: Iterable[Label]) -> Face:
    t = tuple(sorted(str(v) for v in vertices))
    if len(set(t)) != len(t):
        raise NotAClique(f"{t} repeats a vertex")
    for a, b in itertools.combinations(t, 2):
        if not c.has_face((a, b)):
            raise NotAClique(f"{t} misses the edge {a}-{b}")
    return t


def is_spanning(c: SimplicialComplex, vertices: Iterable[Label]) -> bool:
    return c.has_face(_require_clique(c, vertices))


def is_critical(c: SimplicialComplex, vertices: Iterable[Label]) -> bool:
    t = _require_clique(c, vertices)
    return any(c.has_face(t[:i] + t[i + 1 :]) for i in range(len(t)))


def contains_simplex_boundary(c: SimplicialComplex, k: int) -> Face | None:
    """A (k+1)-vertex set all of whose k-subsets are faces, if one exists.

    For ``k = dim + 1`` this detects the forbidden boundary-of-a-simplex
    subcomplex of the banner definitions.
    """
    if k < 2:
        raise ValueError("subcomplex probe needs k >= 2")
    faces = c.faces_ids(k)
    for t in cliques_ids(c, k + 1):
        if all(t[:i] + t[i + 1 :] in faces for i in range(len(t))):
            return c._face_labels(t)
    return None


def classify(c: SimplicialComplex) -> BannerClass:
    """Evaluate flag / strongly banner / banner with a failure witness.

    The witness explains the weakest property that fails (a banner
    violation when present, else a strongly-banner one, else a flag one).
    The implication chain flag => strongly banner => banner holds for
    dimension >= 1; zero-dimensional complexes on several vertices are
    flag yet not banner because two bare points form the boundary of an
    edge.
    """
    if not c.is_pure:
        raise NotPure("banner classification needs a pure complex")
    return c._cached("classify", _classify)


def _classify(c: SimplicialComplex) -> BannerClass:
    """The scans in witness order, each run only when all earlier ones passed.

    The (d+1)-clique walk returns at the first critical non-spanning clique
    and keeps the first non-spanning one.  Flag needs j-cliques only for
    j = 3 ... d: a strongly banner complex has every (d+1)-clique as a face
    and no (d+2)-clique, since the (d+1)-subsets of one would be cliques,
    so faces, and span the boundary of a simplex.  Cliques and faces are
    sorted id tuples; labels are only for the witness.
    """
    d = c.dim
    if d == 0:  # flag, but two points bound an edge
        if c.n_vertices < 2:
            return BannerClass(True, True, True, None)
        witness = BannerWitness("banner", "simplex_boundary", c.vertices[:2])
        return BannerClass(True, False, False, witness)
    top, ridges = c.faces_ids(d + 1), c.faces_ids(d)
    spanning_viol: tuple[int, ...] | None = None
    for t in cliques_ids(c, d + 1):
        if t in top:
            continue
        if any(t[:i] + t[i + 1 :] in ridges for i in range(len(t))):
            witness = BannerWitness("banner", "critical_non_spanning_clique", c._face_labels(t))
            return BannerClass(False, False, False, witness)
        if spanning_viol is None:
            spanning_viol = t
    forbidden = contains_simplex_boundary(c, d + 1)
    if forbidden is not None:
        witness = BannerWitness("banner", "simplex_boundary", forbidden)
        return BannerClass(False, False, False, witness)
    if spanning_viol is not None:
        labels = c._face_labels(spanning_viol)
        witness = BannerWitness("strongly_banner", "non_spanning_clique", labels)
        return BannerClass(False, False, True, witness)
    for size in range(3, d + 1):
        faces = c.faces_ids(size)
        for t in cliques_ids(c, size):
            if t not in faces:
                witness = BannerWitness("flag", "non_spanning_clique", c._face_labels(t))
                return BannerClass(False, True, True, witness)
    return BannerClass(True, True, True, None)


def is_triangle_cycle(c: SimplicialComplex) -> bool:
    """Is the complex exactly the boundary of a triangle?"""
    return c.dim == 1 and c.f_vector() == _TRIANGLE_F_VECTOR


def banner_or_triangle(c: SimplicialComplex) -> bool:
    if is_triangle_cycle(c):
        return True
    if not c.is_pure:
        return False
    return classify(c).banner


def _link_banner(c: SimplicialComplex, ids: tuple[int, ...]) -> bool:
    """``banner_or_triangle(c.link(face))`` for the non-facet face with sorted ``ids``.

    Answers are kept in a table in ``c``'s memo, indexed by face.  Apart
    from the empty face, whose link is ``c`` itself, no link is built: the
    link is read off the residues ``G - F`` of the facets ``G`` containing
    the face ``F``, as bitmasks (``_residues_banner``).  The table is how
    every passing check learns about a face link: the banner number, its
    level-b certificate for L5.2, the banner numbers of face links
    (``_link_banner_value``) and P3.7 all scan it (``_first_failure``).
    """
    table = c._memo.setdefault("link_banner", {})
    ok = table.get(ids)
    if ok is None:
        ok = table[ids] = _residues_banner(c, ids) if ids else banner_or_triangle(c)
    return ok


def _residues_banner(c: SimplicialComplex, ids: tuple[int, ...]) -> bool:
    """Is the link of the face ``ids``, given by its facets as bitmasks, banner or a triangle?

    With the facets (residues) of size m + 1, so that the link has dimension
    m: for m = 0 the link is banner exactly when it is one point, and three
    edges on three vertices are the triangle.  Otherwise the link fails to
    be banner exactly when it has
    - a critical non-spanning clique: a ridge r (a residue less one vertex)
      with more common neighbours outside r than residues containing r,
      since each extra neighbour x makes r + x a clique that is no face;
    - a simplex boundary: a residue t and a neighbour x of all of t such
      that every (t - y) + x is a residue, so all (m + 1)-subsets of t + x
      are faces.
    """
    face = _mask(ids)
    residues = {c._masks[i] ^ face for i in c._holders(len(ids))[ids]}
    size = next(iter(residues)).bit_count()
    if any(r.bit_count() != size for r in residues):
        return False  # not pure, and so not a triangle either
    if size == 1:
        return len(residues) == 1
    # common neighbourhoods below include the vertices themselves
    adjacency: dict[int, int] = {}
    for r in residues:
        for v in _iter_bits(r):
            adjacency[v] = adjacency.get(v, 0) | r
    if size == 2 and len(residues) == 3 and len(adjacency) == 3:
        return True
    ridges: dict[int, int] = {}
    for t in residues:
        for v in _iter_bits(t):
            ridge = t ^ (1 << v)
            ridges[ridge] = ridges.get(ridge, 0) + 1
    for ridge, holders in ridges.items():
        common = -1
        for v in _iter_bits(ridge):
            common &= adjacency[v]
        if common.bit_count() - (size - 1) > holders:
            return False
    for t in residues:
        common = -1
        for v in _iter_bits(t):
            common &= adjacency[v]
        for x in _iter_bits(common ^ t):
            apex = 1 << x
            if all((t ^ (1 << y)) | apex in residues for y in _iter_bits(t)):
                return False
    return True


def banner_number(c: SimplicialComplex) -> BannerNumber:
    """The least j whose j-vertex face links are all banner-or-triangle.

    The empty face counts at level 0, so value 0 means the complex itself
    qualifies.  When no level up to d-1 works the value is None and the
    failing face documents the last failure.  On a closed normal
    pseudomanifold this happens only in dimension 0: for d >= 1 the links
    of its (d-1)-vertex faces are cycles, while the 0-sphere, whose one
    level is the complex itself, is neither banner nor a triangle.
    """
    if not c.is_pure:
        raise NotPure("banner number needs a pure complex")
    return c._cached("banner_number", _banner_number)


def _banner_number(c: SimplicialComplex) -> BannerNumber:
    # ids are in label order, so sorted id tuples are in label order too
    prev_fail: Face | None = None
    for j in range(0, max(c.dim, 1)):
        level = sorted(c.faces_ids(j)) if j else [()]
        failed = _first_failure(c, level)
        if failed is None:
            return BannerNumber(j, len(level), prev_fail)
        prev_fail = c._face_labels(failed)
    return BannerNumber(None, 0, prev_fail)


def _first_failure(
    c: SimplicialComplex, family: Iterable[tuple[int, ...]]
) -> tuple[int, ...] | None:
    """The first face of ``family`` whose link the link table finds neither
    banner nor a triangle, or None when there is none."""
    return next((ids for ids in family if not _link_banner(c, ids)), None)


def _level_holds(c: SimplicialComplex, j: int) -> bool:
    """Is the link of every j-vertex face banner or a triangle, by the link table?

    For j = ``banner_number(c).value`` every answer is already in the table.
    """
    return _first_failure(c, c.faces_ids(j) if j else [()]) is None


def _link_banner_value(c: SimplicialComplex, face: Iterable[Label]) -> int | None:
    """``banner_number(c.link(face)).value``, read off ``c``'s link table.

    The link of F has the residues G - F of the facets G holding F as its
    facets, so its j-vertex faces are the j-subsets G' of the residues,
    and the link of G' in the link of F is the link of F u G' in ``c``: no
    link of a link is built, and level j asks the table about those
    (|F| + j)-faces F u G', in order.  Raises like ``c.link(face)`` and,
    for a link that is not pure, like ``banner_number``.
    """
    ids, residues = c._residues(face)
    sizes = {r.bit_count() for r in residues}
    if len(sizes) != 1:
        raise NotPure("banner number needs a pure complex")
    (size,) = sizes
    bits = [tuple(_iter_bits(r)) for r in residues]
    for j in range(0, max(size - 1, 1)):
        cofaces = {tuple(sorted(ids + g)) for r in bits for g in itertools.combinations(r, j)}
        if _first_failure(c, sorted(cofaces)) is None:
            return j
    return None


def classify_tilde_cliques(ball: SimplicialComplex, j: int) -> TildeCliques:
    """Partition the j-cliques of the boundary-coned complex into three kinds.

    plain: cliques avoiding the apex (exactly the skeleton cliques of the
    input); from_boundary: boundary-skeleton cliques extended by the apex;
    stranded: remaining apex cliques, i.e. all-boundary-vertex cliques of
    the input skeleton that are not boundary-skeleton cliques.  A
    non-empty stranded class blocks the product rule for the coned
    complex.
    """
    if j < 1:
        raise ValueError("clique size must be positive")
    bd = ball.boundary()
    if bd is None:
        raise NoBoundary("complex is closed; nothing was coned")
    closed = ball._tilde(bd)
    apex = (set(closed.vertices) - set(ball.vertices)).pop()
    bd_edges = bd.faces(2)
    bd_vertices = set(bd.vertices)

    plain: list[Face] = []
    from_boundary: list[Face] = []
    stranded: list[Face] = []
    for t in cliques(closed, j):
        if apex not in t:
            plain.append(t)
            continue
        rest = tuple(v for v in t if v != apex)
        if all(v in bd_vertices for v in rest) and all(
            (a, b) in bd_edges for a, b in itertools.combinations(rest, 2)
        ):
            from_boundary.append(t)
        else:
            stranded.append(t)
    return TildeCliques(apex, tuple(plain), tuple(from_boundary), tuple(stranded))
