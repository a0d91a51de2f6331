"""Simplicial homology over GF(2) via boundary-matrix ranks.

Boundary matrices are encoded as bitmask rows (one per higher face, bits
indexed by the lower faces in index order) and ranked by
``kernels.gf2_rank``.  A GF(2) rank does not depend on the order of the
rows or columns, so no face level is sorted.  All Betti numbers are
exact integers.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Iterator

from .complexes import SimplicialComplex, _mask, _memoized
from .errors import NotSubcomplex
from .kernels import gf2_rank

BettiVector = tuple[int, ...]


def _boundary_rows(upper: Iterable[tuple[int, ...]], lower: Iterable[tuple[int, ...]]) -> list[int]:
    """One bitmask row per face of ``upper``: bit i for each face of it one
    vertex smaller that is the i-th face of ``lower``."""
    lower_index = {g: i for i, g in enumerate(lower)}
    rows = []
    for face in upper:
        mask = 0
        for sub in itertools.combinations(face, len(face) - 1):
            col = lower_index.get(sub)
            if col is not None:
                mask |= 1 << col
        rows.append(mask)
    return rows


def _betti_from_ranks(c: SimplicialComplex, skip_faces, reduced: bool) -> BettiVector:
    layers = [[f for f in c.faces_ids(k) if f not in skip_faces] for k in range(1, c.dim + 2)]
    # ranks[m] = rank of the boundary map from the faces with m + 1 vertices
    # down; ranks[0] is the augmentation onto the empty face
    ranks = [gf2_rank(_boundary_rows(up, low)) for low, up in zip(layers, layers[1:])]
    ranks = [int(reduced), *ranks, 0]
    return tuple(len(layers[m]) - ranks[m] - ranks[m + 1] for m in range(c.dim + 1))


def _top_betti_inside(c: SimplicialComplex, nears: Iterable[int]) -> Iterator[tuple[int, int]]:
    """The reduced (β_d, β_{d-1}) of the subcomplex of the pure complex ``c``
    of dimension d >= 1 induced on each vertex bitmask of ``nears``.

    Its faces, and theirs, are the faces of ``c`` inside the bitmask, so the
    boundary rows of the facets and the ridges are built once over all of
    ``c`` and each bitmask ranks the rows of its faces.  For d = 1 the
    ridges are vertices and level d - 1 the empty face: the augmentation.
    """
    ridges = c.faces_ids(c.dim)
    top = list(zip(c._masks, _boundary_rows(c._facets, ridges)))
    low = list(zip(map(_mask, ridges), _boundary_rows(ridges, c.faces_ids(c.dim - 1) or [()])))
    for near in nears:
        out = ~near
        top_rows = [row for g, row in top if not g & out]
        low_rows = [row for g, row in low if not g & out]
        rank = gf2_rank(top_rows)
        yield len(top_rows) - rank, len(low_rows) - gf2_rank(low_rows) - rank


@_memoized("z2_betti")
def z2_betti(c: SimplicialComplex) -> BettiVector:
    """Reduced GF(2) Betti numbers (degree 0 through dim)."""
    return _betti_from_ranks(c, (), reduced=True)


def unreduced_betti(c: SimplicialComplex) -> BettiVector:
    """Unreduced GF(2) Betti numbers; degree 0 counts connected components."""
    return _betti_from_ranks(c, (), reduced=False)


def z2_relative_betti(
    c: SimplicialComplex, sub: SimplicialComplex | None
) -> BettiVector:
    """GF(2) Betti numbers of the pair, via the quotient chain complex.

    ``sub`` must be a subcomplex of ``c``; pass ``None`` for the empty
    subcomplex, which reproduces the unreduced absolute homology.
    """
    if sub is None:
        return unreduced_betti(c)
    for facet in sub.facets:
        if not c.has_face(facet):
            raise NotSubcomplex(f"facet {facet} does not lie in the ambient complex")
    sub_ids = frozenset(map(c._face_ids, sub.all_faces()))  # noqa: SLF001 - intra-package id view
    return _betti_from_ranks(c, sub_ids, reduced=False)


def sphere_pattern(dim: int, length: int) -> BettiVector:
    """Reduced Betti vector of a ``dim``-sphere, padded to ``length`` entries."""
    return tuple(1 if i == dim else 0 for i in range(length))
