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
refutes every stronger property, and ``classify`` proves that only a
strongly banner complex needs the last scan, and no larger j.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Iterator

from .complexes import Face, Label, SimplicialComplex, _iter_bits, _memoized, _Record
from .complexes import _holding, _vertex_facets
from .errors import NoBoundary, NotAClique, NotPure
from .graphs import skeleton
from .manifold import _closed_normal

_TRIANGLE_F_VECTOR = (1, 3, 3)


class BannerWitness(_Record):
    __slots__ = ()
    level: str  # which property the witness refutes
    kind: str  # "non_spanning_clique", "critical_non_spanning_clique", "simplex_boundary"
    vertices: Face


class BannerClass(_Record):
    __slots__ = ()
    flag: bool
    strongly_banner: bool
    banner: bool
    witness: BannerWitness | None


class BannerNumber(_Record):
    __slots__ = ()
    value: int | None  # None when no admissible level exists
    passed_faces: int  # the number of faces at the accepted level
    failing_face: Face | None  # a witness one level below (or at d-1 if undefined)


class TildeCliques(_Record):
    __slots__ = ()
    apex: Label
    plain: tuple[Face, ...]  # cliques of the ball's skeleton
    from_boundary: tuple[Face, ...]  # boundary cliques plus the apex
    stranded: tuple[Face, ...]  # apex cliques not supported by the boundary


def cliques_ids(c: SimplicialComplex, j: int) -> Iterator[tuple[int, ...]]:
    """All j-vertex cliques of the skeleton as ascending id tuples, in lexicographic order;
    a branch is pruned when fewer candidates remain than the clique still needs."""
    if j < 1:
        return
    masks, need, prefix = skeleton(c).masks, j - 1, [0] * j
    untried = [0] * need + [(1 << c.n_vertices) - 1]  # per depth, by picks to follow
    while need < j:
        cand = untried[need]
        if not cand:
            need += 1
            continue
        low = cand & -cand
        untried[need] = cand = cand ^ low
        prefix[~need] = v = low.bit_length() - 1
        if not need:
            yield tuple(prefix)
        elif (rest := cand & masks[v]).bit_count() >= need:
            need -= 1
            untried[need] = rest


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
    vertex_facets = _vertex_facets(c)
    for t in cliques_ids(c, k + 1):
        if all(_holding(vertex_facets, t[:i] + t[i + 1 :]) for i in range(len(t))):
            return c._face_labels(t)
    return None


@_memoized("classify")
def classify(c: SimplicialComplex) -> BannerClass:
    """Evaluate flag / strongly banner / banner with a failure witness.

    The witness explains the weakest property that fails (a banner
    violation when present, else a strongly-banner one, else a flag one).
    The implication chain flag => strongly banner => banner holds for
    dimension >= 1; zero-dimensional complexes on several vertices are
    flag yet not banner because two bare points form the boundary of an
    edge.

    The scans run in witness order, each only when all earlier ones
    passed.  The (d+1)-clique walk returns at the first critical
    non-spanning clique and keeps the first non-spanning one.  Flag needs
    j-cliques only for j = 3 ... d: a strongly banner complex has every
    (d+1)-clique as a face and no (d+2)-clique, since the (d+1)-subsets of
    one would be cliques, so faces, and span the boundary of a simplex.
    Cliques and faces are sorted id tuples; labels are only for the
    witness.  A clique is a face when ``complexes._holding`` is non-zero.
    """
    if not c.is_pure:
        raise NotPure("banner classification needs a pure complex")
    d = c.dim
    if d == 0:  # flag, but two points bound an edge
        if c.n_vertices < 2:
            return BannerClass(True, True, True, None)
        witness = BannerWitness("banner", "simplex_boundary", c.vertices[:2])
        return BannerClass(True, False, False, witness)
    vertex_facets = _vertex_facets(c)
    spanning_viol: tuple[int, ...] | None = None
    for t in cliques_ids(c, d + 1):
        if _holding(vertex_facets, t):
            continue
        if any(_holding(vertex_facets, t[:i] + t[i + 1 :]) for i in range(len(t))):
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
        for t in cliques_ids(c, size):
            if not _holding(vertex_facets, t):
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

    Apart from the empty face, whose link is ``c`` itself, no link is
    built: the link is read off the residues ``G - F`` of the facets ``G``
    containing the face ``F``, as bitmasks (``SimplicialComplex._residues``,
    read by ``_residues_banner``).  No answer is kept: ``banner_number``,
    which is memoized, asks about each face once, and P3.7 asks about
    every vertex only of a banner complex, whose banner number stops at
    level 0 without asking about any vertex.
    """
    return _residues_banner(c, ids) if ids else banner_or_triangle(c)


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
    residues = set(c._residues(ids))
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


@_memoized("banner_number")
def banner_number(c: SimplicialComplex) -> BannerNumber:
    """The least j whose j-vertex face links are all banner-or-triangle.

    The empty face counts at level 0, so value 0 means the complex itself
    qualifies.  When no level up to d-1 works the value is None and the
    failing face documents the last failure.

    On a closed normal pseudomanifold of dimension d >= 1, level d-1 holds
    by rule and is not scanned.  The link of a (d-1)-vertex face F is
    1-dimensional, and each of its vertices v lies in exactly two of its
    edges, one for each facet holding the ridge F + v.  Normality makes the
    link connected, so it is one cycle: a triangle, or flag and therefore
    banner.  For d = 1, level 0 is the complex itself, which is one cycle
    for the same reasons.  So the value is None there only in dimension 0:
    the 0-sphere, whose one level is the complex itself, is neither banner
    nor a triangle.  The rule asks ``manifold._closed_normal`` only when
    the scan reaches level d-1, and that reads normality through
    ``manifold.is_normal``, so no homology-manifold rank scan is forced.
    """
    if not c.is_pure:
        raise NotPure("banner number needs a pure complex")
    # ids are in label order, so sorted id tuples are in label order too
    prev_fail: Face | None = None
    for j in range(0, max(c.dim, 1)):
        level = c.faces_ids(j) if j else [()]
        if j == c.dim - 1 and _closed_normal(c):  # the level d-1 rule
            return BannerNumber(j, len(level), prev_fail)
        failed = next((ids for ids in sorted(level) if not _link_banner(c, ids)), None)
        if failed is None:
            return BannerNumber(j, len(level), prev_fail)
        prev_fail = c._face_labels(failed)
    return BannerNumber(None, 0, prev_fail)


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
    bd_vertices = set(bd.vertices)
    plain: list[Face] = []
    from_boundary: list[Face] = []
    stranded: list[Face] = []
    for t in cliques(closed, j):
        rest = tuple(v for v in t if v != apex)
        if rest == t:
            plain.append(t)
        elif set(rest) <= bd_vertices and all(map(bd.has_face, itertools.combinations(rest, 2))):
            from_boundary.append(t)
        else:
            stranded.append(t)
    return TildeCliques(apex, tuple(plain), tuple(from_boundary), tuple(stranded))
