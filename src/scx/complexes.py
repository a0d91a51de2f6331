"""Pure finite simplicial complexes stored as facet lists.

Vertex labels are non-empty strings without whitespace that do not start
with ``#``, which opens a comment in the ``.scx`` format.  They are
interned to dense integer ids in label-sorted order, so id-lexicographic
and label-lexicographic enumeration agree.  At the API boundary faces travel
as sorted label tuples; internally they are sorted id tuples, the form
the construction steps pass to each other.  Each facet is stored twice,
in one order: as its id tuple (``_facets``) and as the vertex bitmask
that ``_fill`` makes from it, bit i for id i (``_masks``), the one set
form that links, antistars, induced subcomplexes, residues and the
skeleton are computed on.

A complex is immutable once built.  The empty complex is
unrepresentable: every constructor raises ``EmptyComplex`` rather than
producing one.

A vertex set is a face exactly when the AND of the masks of the facets
holding each of its vertices (``_vertex_facets``) is non-zero, and that
AND (``_holding``) is the mask of the facets holding it.  The residues
G - F of these facets G, the facets of the link of F, are computed only
by ``_residues``, which ``link``, both manifold scans and the banner
status of a face link read.  Each face level (``faces_ids``) is a set
built on first use, except the ridge level, which maps each face with
``dim`` vertices to its holders (``_ridges``) for the pseudomanifold
test, the facet ridge graph, the antistar check and ``boundary()``.

Invariants computed from a complex that more than one caller reads (its
banner class, banner number, pseudomanifold status, normality,
homology-manifold verdict, greedy shelling, Betti numbers, its skeleton,
which holds the vertex adjacency as bitmasks, the ridge graph of its
facets and the facets holding each vertex) are cached per object in its
``_memo`` dict, so each is computed once however many checks ask for it.
Each is one function decorated with ``_memoized(key)``, as is the
skeleton's connectivity in the skeleton's memo; a guard that raises in
one stores nothing.  Cached values are immutable, hold no reference back
to the complex and die with it; there is no global or content-keyed
cache.  Neither memo takes a lock: two threads asking for the same value
at once may both compute it and store equal results.  Each store is one
dict assignment, which the interpreter lock keeps atomic, so a complex
can still be shared between threads.

``SimplicialComplex(...)`` is the only entry point that validates its
input; it interns the labels straight into sorted id tuples and hands
them to the absorb-and-renumber step ``_absorb``, as ``star`` and
``boundary`` hand it the parent's tuples.  Other complexes derived from
a built one skip the validation through one of two trusted constructors:

- ``_from_ids`` builds links, antistars and induced subcomplexes, none
  of which is cached, from valid sorted labels and non-zero masks.  It
  is the one place that walks a facet mask's bits, reading each into its
  id tuple, and it runs the same ``_absorb``.
- ``_join`` builds cones, suspensions and boundary cones (``tilde``).  It
  assumes base facets free of nested sets and apex labels that
  ``_check_fresh`` has already accepted, so it absorbs nothing: it sorts
  the apexes into the labels and splices each apex id into each moved
  base tuple.
"""

from __future__ import annotations

import bisect
import functools
import itertools
from collections import namedtuple
from typing import AbstractSet, Any, Callable, Iterable, Iterator, Sequence, TypeVar

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


def _memoized(key: str) -> Callable[[Callable[[Any], _T]], Callable[[Any], _T]]:
    """Keep the result of the decorated one-argument function in its
    argument's ``_memo`` dict under ``key``: built on the first call, read
    on every later one.  The undecorated body stays as ``__wrapped__``."""

    def decorate(build: Callable[[Any], _T]) -> Callable[[Any], _T]:
        @functools.wraps(build)
        def memoized(x: Any) -> _T:
            try:
                return x._memo[key]
            except KeyError:
                value = x._memo[key] = build(x)
                return value

        return memoized

    return decorate


class _Record(tuple):
    """Base of the immutable result records (``BannerClass``,
    ``ConnectivityResult``, ``AnalysisReport`` and the rest).

    A record class lists its fields as annotations, in order; a class
    attribute named like a field is that field's default, and fields with
    defaults come last.  ``__init_subclass__`` takes the constructor and
    one C getter per field from a ``namedtuple`` of the same fields, so a
    record costs about what a tuple costs to build and hash.  Each record
    class sets ``__slots__ = ()``, so a record has no attribute dict.

    A record is a tuple: it unpacks, iterates and indexes as the tuple of
    its fields, and its hash is that tuple's hash.  It is not a plain
    named tuple, though: it equals only a record of its own class with
    equal fields, never a plain tuple or a record of another class; it
    refuses assignment and ordering; and its ``repr`` is
    ``Name(field=value, ...)``.  ``len`` counts its fields unless the class
    defines it, as ``PathFamily`` does.  Code that tests
    ``isinstance(value, tuple)`` takes a record for a tuple: ``report_json``
    would write a record field as a JSON list, though no report field
    holds a record.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        fields = tuple(cls.__annotations__)
        defaults = [cls.__dict__[f] for f in fields if f in cls.__dict__]
        if any(f not in cls.__dict__ for f in fields[len(fields) - len(defaults) :]):
            raise TypeError(f"{cls.__name__}: a field without a default follows a default")
        base = namedtuple(cls.__name__, fields, defaults=defaults)
        cls.__new__ = staticmethod(base.__new__)
        for f in fields:
            setattr(cls, f, base.__dict__[f])
        cls._fields = fields

    def __getnewargs__(self) -> tuple:
        return tuple(self)  # copy and pickle pass the fields to ``__new__``

    def __eq__(self, other: object) -> Any:
        if other.__class__ is self.__class__:
            return tuple.__eq__(self, other)
        # NotImplemented would let a plain tuple's reflected == compare the fields
        return False if isinstance(other, tuple) else NotImplemented

    def __ne__(self, other: object) -> Any:
        eq = self.__eq__(other)
        return eq if eq is NotImplemented else not eq

    __hash__ = tuple.__hash__

    def _unordered(self, other: object) -> bool:
        raise TypeError(f"{self.__class__.__name__} records are not ordered")

    __lt__ = __le__ = __gt__ = __ge__ = _unordered

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __repr__(self) -> str:
        items = ", ".join(f"{f}={v!r}" for f, v in zip(self._fields, self))
        return f"{self.__class__.__qualname__}({items})"


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
    mask = 0
    for i in ids:
        mask |= 1 << i
    return mask


def _iter_bits(mask: int) -> Iterator[int]:
    """The set bits of ``mask``, ascending; a facet mask gives its sorted id tuple."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _maximal(facets: set[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """The members of ``facets``, sorted id tuples, that lie in no other member.

    Tuples are visited largest first; bit k of ``holders[v]`` says that the
    k-th kept tuple contains ``v``, so a candidate lies in a kept tuple
    exactly when the holders of its vertices share a bit.  A kept tuple is
    never equal to a later candidate, since the members are distinct.
    """
    if len({len(f) for f in facets}) == 1:
        return list(facets)
    maximal: list[tuple[int, ...]] = []
    holders: dict[int, int] = {}
    for cand in sorted(facets, key=len, reverse=True):
        common = -1
        for v in cand:
            common &= holders.get(v, 0)
            if not common:
                break
        if not common:
            bit = 1 << len(maximal)
            for v in cand:
                holders[v] = holders.get(v, 0) | bit
            maximal.append(cand)
    return maximal


def _holding(vertex_facets: Sequence[int], ids: Iterable[int]) -> int:
    """The AND of ``vertex_facets`` over ``ids``: the facets holding that face; -1 if empty."""
    common = -1
    for i in ids:
        common &= vertex_facets[i]
    return common


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
        intern = {v: i for i, v in enumerate(labels)}
        self._absorb(labels, [tuple(sorted(map(intern.__getitem__, f))) for f in cleaned])

    @classmethod
    def _from_ids(cls, labels: tuple[Label, ...], masks: Iterable[int]) -> "SimplicialComplex":
        """The complex of the non-zero vertex bitmasks ``masks`` over the valid
        sorted ``labels``: the trusted constructor of subcomplexes."""
        return cls.__new__(cls)._absorb(labels, [tuple(_iter_bits(m)) for m in masks])

    def _absorb(
        self, labels: tuple[Label, ...], facets: list[tuple[int, ...]]
    ) -> "SimplicialComplex":
        """Build this complex from the sorted id tuples ``facets`` over the
        sorted ``labels`` and return it, absorbing nested tuples and dropping
        unused labels; the used ids keep their order, so all stays sorted."""
        if not facets:
            raise EmptyComplex("a complex needs at least one facet")
        maximal = _maximal(set(facets))
        used = sorted(set().union(*maximal))
        if len(used) < len(labels):
            new_id = {old: new for new, old in enumerate(used)}
            labels = tuple(labels[i] for i in used)
            maximal = [tuple(map(new_id.__getitem__, f)) for f in maximal]
        return self._fill(labels, maximal, len(facets) - len(maximal))

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
        Each old id moves up by the number of apexes below its label, and
        each apex id is spliced into each moved base tuple at its place.
        """
        apexes = sorted(apexes)
        labels = tuple(sorted(self._labels + tuple(apexes)))
        new_id = [i + bisect.bisect(apexes, v) for i, v in enumerate(self._labels)]
        tips = [(bisect.bisect(self._labels, a) + k,) for k, a in enumerate(apexes)]
        facets = [tuple(map(new_id.__getitem__, f)) for f in kept]
        for f in bases:
            moved = tuple(map(new_id.__getitem__, f))
            for tip in tips:
                k = bisect.bisect(moved, tip[0])
                facets.append(moved[:k] + tip + moved[k:])
        return SimplicialComplex.__new__(SimplicialComplex)._fill(labels, facets, 0)

    def _fill(
        self, labels: tuple[Label, ...], facets: list[tuple[int, ...]], absorbed: int
    ) -> "SimplicialComplex":
        """Store the distinct sorted id tuples ``facets`` over ``labels`` in
        lexicographic order, with the bitmasks made from them; return self."""
        self._labels = labels
        self._index = {v: i for i, v in enumerate(labels)}
        self._facets: tuple[tuple[int, ...], ...] = tuple(sorted(facets))
        self._masks: tuple[int, ...] = tuple(map(_mask, self._facets))
        sizes = {len(f) for f in self._facets}
        self.dim = max(sizes) - 1
        self.is_pure = len(sizes) == 1
        self.absorbed = absorbed
        self._face_cache: dict[int, AbstractSet[tuple[int, ...]]] = {}
        self._memo: dict[str, object] = {}
        return self

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
        """The labels of the ascending ``ids``, which ascend too, as ids
        are interned in label order."""
        return tuple([self._labels[i] for i in ids])

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

    def _ridges(self) -> dict[tuple[int, ...], list[int]]:
        """Each face with ``dim`` vertices mapped to the indices into ``_facets`` of
        its holders; stored whole, so no thread sees it half built, and never mutated."""
        ridges = self._face_cache.get(self.dim)
        if ridges is None:
            ridges = {}
            for i, f in enumerate(self._facets):
                for r in itertools.combinations(f, self.dim):
                    ridges.setdefault(r, []).append(i)
            self._face_cache[self.dim] = ridges
        return ridges  # type: ignore[return-value]

    def faces_ids(self, k: int) -> AbstractSet[tuple[int, ...]]:
        """All faces with exactly ``k`` vertices, as id tuples."""
        if k < 1 or k > self.dim + 1:
            return frozenset()
        if k == self.dim:
            return self._ridges().keys()
        level = self._face_cache.get(k)
        if level is None:
            facets = self._facets
            if k == 1:  # every id is a vertex
                level = frozenset(zip(range(self.n_vertices)))
            elif k > self.dim:  # the facets of the top size
                level = frozenset(f for f in facets if len(f) == k)
            else:
                level = frozenset(itertools.chain(*(itertools.combinations(f, k) for f in facets)))
            self._face_cache[k] = level
        return level

    def faces(self, k: int) -> frozenset[Face]:
        """All faces with exactly ``k`` vertices, as label tuples."""
        return frozenset(self._face_labels(f) for f in self.faces_ids(k))

    def all_faces(self) -> frozenset[Face]:
        return frozenset().union(*map(self.faces, range(1, self.dim + 2)))

    def has_face(self, face: Iterable[Label]) -> bool:
        ids = [self._index.get(str(v)) for v in face]
        return None not in ids and _holding(_vertex_facets(self), ids) != 0

    def f_vector(self) -> FVector:
        """Face counts by dimension, starting with the empty face: (1, f0, ..., fd)."""
        from . import graphs  # graphs imports this module

        d, facets = self.dim, self._facets
        middle = map(len, map(self.faces_ids, range(3, d + 1)))  # no face set for d <= 3
        top = len(facets) if self.is_pure else sum(len(f) == d + 1 for f in facets)
        return (1, self.n_vertices, graphs.skeleton(self).n_edges, *middle, top)[: d + 2]

    # -- local subcomplexes ----------------------------------------------

    def link(self, face: Iterable[Label]) -> "SimplicialComplex":
        """Faces disjoint from ``face`` whose union with it is again a face.

        The link of the empty face is the complex itself; the link of a
        facet would be empty and raises ``EmptyComplex``.
        """
        labels = tuple(sorted({str(v) for v in face}))
        try:
            ids = self._face_ids(labels)
        except UnknownVertex:
            raise NotAFace(f"{labels} is not a face") from None
        residues = self._residues(ids)
        if not residues:
            raise NotAFace(f"{labels} is not a face")
        if residues == [0]:
            raise EmptyComplex("link of a facet is empty")
        return SimplicialComplex._from_ids(self._labels, residues) if ids else self

    def _residues(self, ids: tuple[int, ...]) -> list[int]:
        """The vertex bitmasks G - F of the facets G holding the face F with
        sorted ``ids``, in facet order; empty when F is no face.  They are
        the facets of the link of F, and ``[0]`` when F is a facet."""
        face, masks, out = _mask(ids), self._masks, []
        holding = _holding(_vertex_facets(self), ids) & ((1 << len(masks)) - 1)
        while holding:  # lowest bit first, so in facet order
            low = holding & -holding
            out.append(masks[low.bit_length() - 1] ^ face)
            holding ^= low
        return out

    def star(self, vertex: Label) -> "SimplicialComplex":
        """The cone over ``link(vertex)`` with apex ``vertex``."""
        i = self._index.get(str(vertex))
        if i is None:
            raise UnknownVertex(f"unknown vertex {vertex!r}")
        facets = [self._facets[j] for j in _iter_bits(_vertex_facets(self)[i])]
        return SimplicialComplex.__new__(SimplicialComplex)._absorb(self._labels, facets)

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
        rim = [r for r, m in self._ridges().items() if len(m) == 1]
        if not rim:
            return None
        return SimplicialComplex.__new__(SimplicialComplex)._absorb(self._labels, rim)

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


@_memoized("vertex_facets")
def _vertex_facets(c: SimplicialComplex) -> tuple[int, ...]:
    """For each vertex id of ``c``, the bitmask of the facets holding it; kept in ``c``'s memo."""
    holding = [0] * c.n_vertices
    for j, f in enumerate(c._facets):
        for i in f:
            holding[i] |= 1 << j
    return tuple(holding)


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
    return "".join(" ".join(f) + "\n" for f in c.facets)


def load(path) -> SimplicialComplex:
    with open(path, "r", encoding="utf-8") as fh:
        return loads(fh.read())


def dump(c: SimplicialComplex, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(c))
