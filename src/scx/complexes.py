"""Pure finite simplicial complexes stored as facet lists.

Vertex labels are non-empty strings without whitespace that do not start
with ``#``, which opens a comment in the ``.scx`` format.  They are
interned to dense integer ids in label-sorted order, so id-lexicographic
and label-lexicographic enumeration agree.  At the API boundary faces travel
as sorted label tuples; internally they are sorted id tuples.  Each facet
is stored twice, in one order: as a vertex bitmask, bit i for id i
(``_masks``), the one set form that links, stars, antistars, induced
subcomplexes, residues and the skeleton are computed on, and as the
sorted id tuple read off it (``_facets``).

A complex is immutable once built.  The empty complex is
unrepresentable: every constructor raises ``EmptyComplex`` rather than
producing one.

Each complex keeps one index from its faces to the facets holding them,
built one face size at a time on first use (``_holders``).  Its keys are
the faces (``faces_ids``); its ridge level holds what the pseudomanifold
test, ``boundary()`` and the facet ridge graph need; and the link and
star of a face, the normality and homology-manifold checks and the
banner status of a face link start from the holders of the face.  Its
lists are never mutated.

Invariants computed from a complex (its banner class, banner number,
manifold class, Betti numbers, its vertex adjacency, which its skeleton
wraps, the ridge graph of its facets, the facets holding each vertex and
the banner status of its face links) are cached per object in its
``_memo`` dict, so each is computed once however many checks ask for it.
Cached values are immutable, hold no reference back to the complex and
die with it; there is no global or content-keyed cache.  Neither memo
takes a lock: two threads asking for the same value at once may both
compute it and store equal results.  Each store is one dict assignment,
which the interpreter lock keeps atomic, so a complex can still be
shared between threads.  The banner status of a face link needs no link
at all: it is read off the facet bitmasks.

``SimplicialComplex(...)`` is the only entry point that validates its
input; it interns the labels and hands the facets, as bitmasks, to the
absorb-and-renumber step ``_absorb``.  Complexes derived from a built one
skip the validation through one of two trusted constructors:

- ``_from_ids`` builds links, stars, antistars, induced subcomplexes and
  boundaries, none of which is cached.  It assumes valid sorted labels
  and non-zero masks, and runs the same ``_absorb``: nested masks are
  absorbed and unused labels dropped.
- ``_join`` builds cones, suspensions and boundary cones (``tilde``).  It
  assumes base facets free of nested sets and apex labels that
  ``_check_fresh`` has already accepted, so it absorbs nothing: it sorts
  the apexes into the labels and adds each apex bit to each base mask.
"""

from __future__ import annotations

import itertools
from typing import AbstractSet, Callable, Iterable, Iterator, Sequence, TypeVar

from .errors import (
    EmptyComplex,
    LabelClash,
    MalformedFace,
    NoBoundary,
    NotAFace,
    NotPure,
    UnknownVertex,
)

Label = str
Face = tuple[Label, ...]
FVector = tuple[int, ...]
_T = TypeVar("_T")


def _check_labels(labels: Iterable[Label]) -> None:
    """Raise ``MalformedFace`` for a label that is empty, starts with ``#``
    or contains whitespace."""
    for v in labels:
        # a facet line led by a '#' label would read back as a comment
        if not v or v[0] == "#" or any(ch.isspace() for ch in v):
            raise MalformedFace(
                f"label {v!r} is empty, starts with '#' or contains whitespace"
            )


def _normalize_facet(facet: Iterable[Label]) -> list[Label]:
    vertices = [str(v) for v in facet]
    if not vertices:
        raise MalformedFace("empty facet")
    _check_labels(vertices)
    if len(set(vertices)) != len(vertices):
        raise MalformedFace(f"facet {vertices} repeats a vertex")
    return vertices


def _mask(ids: Iterable[int]) -> int:
    """The vertex bitmask of the ids ``ids``."""
    return sum(map((1).__lshift__, ids))


def _iter_bits(mask: int) -> Iterator[int]:
    """The set bits of ``mask``, ascending; a facet mask gives its sorted id tuple."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _maximal(masks: set[int]) -> list[int]:
    """The members of ``masks`` that lie in no other member.

    Masks are visited largest first; bit k of ``holders[v]`` says that the
    k-th kept mask contains ``v``, so a candidate lies in a kept mask exactly
    when the holders of its vertices share a bit.  A kept mask is never equal
    to a later candidate, since the members are distinct.
    """
    if len({m.bit_count() for m in masks}) == 1:
        return list(masks)
    maximal: list[int] = []
    holders: dict[int, int] = {}
    for cand in sorted(masks, key=int.bit_count, reverse=True):
        bits = tuple(_iter_bits(cand))
        common = -1
        for v in bits:
            common &= holders.get(v, 0)
            if not common:
                break
        if not common:
            bit = 1 << len(maximal)
            for v in bits:
                holders[v] = holders.get(v, 0) | bit
            maximal.append(cand)
    return maximal


def _face_members(
    facets: Sequence[tuple[int, ...]], k: int
) -> dict[tuple[int, ...], list[int]]:
    """Map each k-vertex face to the indices of the sorted id tuples containing it."""
    out: dict[tuple[int, ...], list[int]] = {}
    for i, f in enumerate(facets):
        for face in itertools.combinations(f, k):
            out.setdefault(face, []).append(i)
    return out


class SimplicialComplex:
    """A finite simplicial complex given by its maximal faces."""

    __slots__ = (
        "_labels",
        "_index",
        "_facets",
        "_masks",
        "dim",
        "is_pure",
        "absorbed",
        "_face_cache",
        "_memo",
    )

    def __init__(self, facets: Iterable[Iterable[Label]]):
        cleaned = [_normalize_facet(f) for f in facets]
        labels = tuple(sorted(set().union(*cleaned)))
        bit = {v: 1 << i for i, v in enumerate(labels)}
        self._absorb(labels, [sum(map(bit.__getitem__, f)) for f in cleaned])

    @classmethod
    def _from_ids(cls, labels: tuple[Label, ...], masks: Iterable[int]) -> "SimplicialComplex":
        """The complex of the non-zero vertex bitmasks ``masks`` over the valid
        sorted ``labels``: the trusted constructor of subcomplexes."""
        self = cls.__new__(cls)
        self._absorb(labels, list(masks))
        return self

    def _absorb(self, labels: tuple[Label, ...], masks: list[int]) -> None:
        """Build from the non-zero vertex bitmasks ``masks`` over the sorted
        ``labels``, absorbing nested masks and dropping unused labels; the
        used ids keep their order, so the labels stay sorted."""
        if not masks:
            raise EmptyComplex("a complex needs at least one facet")
        maximal = _maximal(set(masks))
        union = 0
        for m in maximal:
            union |= m
        used = list(_iter_bits(union))
        if len(used) < len(labels):
            new_bit = {old: 1 << new for new, old in enumerate(used)}
            labels = tuple(labels[i] for i in used)
            maximal = [sum(map(new_bit.__getitem__, _iter_bits(m))) for m in maximal]
        index = {v: i for i, v in enumerate(labels)}
        self._fill(labels, index, maximal, len(masks) - len(maximal))

    def _join(
        self,
        apexes: list[Label],
        bases: Iterable[tuple[int, ...]],
        kept: Iterable[tuple[int, ...]] = (),
    ) -> "SimplicialComplex":
        """The facets ``kept`` plus each of ``bases`` joined with each apex.

        A trusted constructor for cones, suspensions and boundary cones.  It
        assumes that ``kept`` and ``bases`` are id tuples of this complex,
        neither family holding two nested tuples, that no kept tuple lies in
        a base, and that the apexes are distinct valid labels unused here.
        Then nothing is absorbed: ``f + a`` lies in ``g + b`` only when
        ``a == b`` and ``f`` lies in ``g``, and no kept tuple holds an apex.
        The old ids move to their places among the merged labels, and each
        apex adds its bit to each moved base mask.
        """
        labels = tuple(sorted(self._labels + tuple(apexes)))
        index = {v: i for i, v in enumerate(labels)}
        new_bit = [1 << index[v] for v in self._labels]
        tips = [1 << index[a] for a in apexes]
        masks = [sum(map(new_bit.__getitem__, f)) for f in kept]
        for f in bases:
            moved = sum(map(new_bit.__getitem__, f))
            masks += [moved | a for a in tips]
        joined = SimplicialComplex.__new__(SimplicialComplex)
        joined._fill(labels, index, masks, 0)
        return joined

    def _fill(
        self,
        labels: tuple[Label, ...],
        index: dict[Label, int],
        masks: list[int],
        absorbed: int,
    ) -> None:
        # facets in id-lexicographic order; distinct masks give distinct tuples
        facets = sorted((tuple(_iter_bits(m)), m) for m in masks)
        self._labels = labels
        self._index = index
        self._facets: tuple[tuple[int, ...], ...] = tuple(f for f, _ in facets)
        self._masks: tuple[int, ...] = tuple(m for _, m in facets)
        sizes = {len(f) for f in self._facets}
        self.dim = max(sizes) - 1
        self.is_pure = len(sizes) == 1
        self.absorbed = absorbed
        self._face_cache: dict[int, dict[tuple[int, ...], list[int]]] = {}
        self._memo: dict[str, object] = {}

    def _cached(self, key: str, compute: Callable[["SimplicialComplex"], _T]) -> _T:
        """``compute(self)``, computed on first use and kept in the memo."""
        try:
            return self._memo[key]  # type: ignore[return-value]
        except KeyError:
            value = self._memo[key] = compute(self)
            return value

    # -- basic accessors ------------------------------------------------

    @property
    def vertices(self) -> tuple[Label, ...]:
        return self._labels

    @property
    def n_vertices(self) -> int:
        return len(self._labels)

    @property
    def facets(self) -> tuple[Face, ...]:
        return tuple(self._face_labels(f) for f in self._facets)

    def _face_labels(self, ids: Iterable[int]) -> Face:
        return tuple(sorted(self._labels[i] for i in ids))

    def _face_ids(self, labels: Iterable[Label]) -> tuple[int, ...]:
        try:
            return tuple(sorted(self._index[str(v)] for v in labels))
        except KeyError as exc:
            raise UnknownVertex(f"unknown vertex {exc.args[0]!r}") from None

    def __eq__(self, other) -> bool:
        if not isinstance(other, SimplicialComplex):
            return NotImplemented
        return self.facets == other.facets

    def __hash__(self) -> int:
        return hash(self.facets)

    def __repr__(self) -> str:
        return (
            f"SimplicialComplex(dim={self.dim}, vertices={self.n_vertices}, "
            f"facets={len(self._facets)})"
        )

    # -- face enumeration -----------------------------------------------

    def _holders(self, k: int) -> dict[tuple[int, ...], list[int]]:
        """Each k-vertex face, as an id tuple, mapped to the indices into
        ``_facets`` of the facets holding it; built once per ``k``.

        Level ``dim`` holds the ridges of a pure complex and level 0 maps
        the empty face to every facet.  The level is stored whole, so no
        thread sees it half built, and its lists are never mutated.
        """
        level = self._face_cache.get(k)
        if level is None:
            level = self._face_cache[k] = _face_members(self._facets, k)
        return level

    def faces_ids(self, k: int) -> AbstractSet[tuple[int, ...]]:
        """All faces with exactly ``k`` vertices, as id tuples."""
        if k < 1 or k > self.dim + 1:
            return frozenset()
        return self._holders(k).keys()

    def faces(self, k: int) -> frozenset[Face]:
        """All faces with exactly ``k`` vertices, as label tuples."""
        return frozenset(self._face_labels(f) for f in self.faces_ids(k))

    def all_faces(self) -> frozenset[Face]:
        out: set[Face] = set()
        for k in range(1, self.dim + 2):
            out.update(self.faces(k))
        return frozenset(out)

    def has_face(self, face: Iterable[Label]) -> bool:
        mask = 0
        for v in face:
            i = self._index.get(str(v))
            if i is None:
                return False
            mask |= 1 << i
        return any(mask & m == mask for m in self._masks)

    def f_vector(self) -> FVector:
        """Face counts by dimension, starting with the empty face: (1, f0, ..., fd)."""
        return (1,) + tuple(len(self.faces_ids(k)) for k in range(1, self.dim + 2))

    # -- local subcomplexes ----------------------------------------------

    def link(self, face: Iterable[Label]) -> "SimplicialComplex":
        """Faces disjoint from ``face`` whose union with it is again a face.

        The link of the empty face is the complex itself; the link of a
        facet would be empty and raises ``EmptyComplex``.
        """
        ids, residues = self._residues(face)
        return SimplicialComplex._from_ids(self._labels, residues) if ids else self

    def _residues(self, face: Iterable[Label]) -> tuple[tuple[int, ...], list[int]]:
        """The sorted ids of the label face F and the masks G - F of the
        facets G holding it: the facets of the link of F.

        Raises ``NotAFace`` when F is no face and ``EmptyComplex`` when F
        is a facet, so that its one residue is empty.
        """
        labels = tuple(sorted({str(v) for v in face}))
        try:
            ids = self._face_ids(labels)
        except UnknownVertex:
            raise NotAFace(f"{labels} is not a face") from None
        holders = self._holders(len(ids)).get(ids)
        if holders is None:
            raise NotAFace(f"{labels} is not a face")
        mask = _mask(ids)
        residues = [self._masks[i] ^ mask for i in holders]
        if residues == [0]:
            raise EmptyComplex("link of a facet is empty")
        return ids, residues

    def star(self, vertex: Label) -> "SimplicialComplex":
        """The cone over ``link(vertex)`` with apex ``vertex``."""
        i = self._index.get(str(vertex))
        if i is None:
            raise UnknownVertex(f"unknown vertex {vertex!r}")
        return SimplicialComplex._from_ids(
            self._labels, [self._masks[j] for j in self._holders(1)[(i,)]]
        )

    def antistar(self, vertex: Label) -> "SimplicialComplex":
        """The subcomplex induced on all vertices except ``vertex``."""
        i = self._index.get(str(vertex))
        if i is None:
            raise UnknownVertex(f"unknown vertex {vertex!r}")
        if self.n_vertices == 1:
            raise EmptyComplex("antistar of the only vertex is empty")
        pieces = {m & ~(1 << i) for m in self._masks}
        pieces.discard(0)
        return SimplicialComplex._from_ids(self._labels, pieces)

    def induced(self, vertex_set: Iterable[Label]) -> "SimplicialComplex":
        """Keep exactly the faces whose vertices all lie in ``vertex_set``."""
        wanted = {str(v) for v in vertex_set}
        if not wanted:
            raise EmptyComplex("induced subcomplex on the empty vertex set")
        for v in wanted:
            if v not in self._index:
                raise UnknownVertex(f"unknown vertex {v!r}")
        return self._induced(_mask(self._index[v] for v in wanted))

    def _induced(self, near: int) -> "SimplicialComplex":
        """``induced`` on the non-zero vertex bitmask ``near``."""
        pieces = {m & near for m in self._masks}
        pieces.discard(0)
        return SimplicialComplex._from_ids(self._labels, pieces)

    # -- cone-like constructions ------------------------------------------

    def _fresh_labels(self, count: int) -> list[Label]:
        out: list[Label] = []
        n = 0
        while len(out) < count:
            cand = f"_apex{n}"
            if cand not in self._index:
                out.append(cand)
            n += 1
        return out

    def _fresh_label(self) -> Label:
        return self._fresh_labels(1)[0]

    def _check_fresh(self, label: Label) -> Label:
        label = str(label)
        _check_labels((label,))
        if label in self._index:
            raise LabelClash(f"apex label {label!r} already in use")
        return label

    def cone(self, apex: Label | None = None) -> "SimplicialComplex":
        apex = self._fresh_label() if apex is None else self._check_fresh(apex)
        return self._join([apex], self._facets)

    def suspension(
        self, north: Label | None = None, south: Label | None = None
    ) -> "SimplicialComplex":
        if north is None and south is None:
            north, south = self._fresh_labels(2)
        elif north is not None and south is not None:
            north, south = self._check_fresh(north), self._check_fresh(south)
        if north is None or south is None or north == south:
            raise LabelClash("suspension needs two distinct fresh apex labels")
        return self._join([north, south], self._facets)

    def boundary(self) -> "SimplicialComplex | None":
        """The complex generated by ridges lying in exactly one facet.

        Returns ``None`` when there is no boundary (the complex is closed);
        the empty complex itself is unrepresentable.
        """
        if not self.is_pure:
            raise NotPure("boundary is defined for pure complexes")
        rim = [_mask(r) for r, m in self._holders(self.dim).items() if len(m) == 1]
        if not rim:
            return None
        return SimplicialComplex._from_ids(self._labels, rim)

    def tilde(self, apex: Label | None = None) -> "SimplicialComplex":
        """Close the complex off by coning a fresh apex over its boundary."""
        bd = self.boundary()
        if bd is None:
            raise NoBoundary("complex is closed, nothing to cone over")
        return self._tilde(bd, apex)

    def _tilde(self, bd: "SimplicialComplex", apex: Label | None = None) -> "SimplicialComplex":
        """``tilde`` over ``bd``, the boundary of this complex, built by the caller."""
        apex = self._fresh_label() if apex is None else self._check_fresh(apex)
        ids = [self._index[v] for v in bd._labels]  # sorted labels map to sorted ids
        rim = [tuple(ids[i] for i in f) for f in bd._facets]
        return self._join([apex], rim, self._facets)


def from_facets(facets: Iterable[Iterable[Label]]) -> SimplicialComplex:
    """Build a complex from facet label lists; non-maximal entries are absorbed."""
    return SimplicialComplex(facets)


# -- the ".scx" facet-list text format ----------------------------------


def loads(text: str) -> SimplicialComplex:
    """Parse the facet-list format: one facet per line, '#' starts a comment."""
    facets = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        facets.append(line.split())
    return SimplicialComplex(facets)


def dumps(c: SimplicialComplex) -> str:
    """Serialize to the facet-list format, facets in lexicographic order."""
    return "".join(" ".join(f) + "\n" for f in sorted(c.facets))


def load(path) -> SimplicialComplex:
    with open(path, "r", encoding="utf-8") as fh:
        return loads(fh.read())


def dump(c: SimplicialComplex, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(c))
