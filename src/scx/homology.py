"""Simplicial homology over GF(2) via boundary-matrix ranks.

Boundary matrices are encoded as bitmask rows (one per higher face, bits
indexed by the lower faces in index order) and ranked by
``kernels.gf2_rank``.  A GF(2) rank does not depend on the order of the
rows or columns, so no face level is sorted.  All Betti numbers are
exact integers.
"""

from __future__ import annotations

import itertools

from .complexes import SimplicialComplex, _memoized
from .errors import NotSubcomplex
from .kernels import gf2_rank

BettiVector = tuple[int, ...]


def _boundary_rank(
    upper: list[tuple[int, ...]], lower_index: dict[tuple[int, ...], int]
) -> int:
    rows = []
    for face in upper:
        mask = 0
        for sub in itertools.combinations(face, len(face) - 1):
            col = lower_index.get(sub)
            if col is not None:
                mask |= 1 << col
        rows.append(mask)
    return gf2_rank(rows)


def _betti_from_ranks(c: SimplicialComplex, skip_faces, reduced: bool) -> BettiVector:
    top = c.dim + 1
    layers = [[f for f in c.faces_ids(k) if f not in skip_faces] for k in range(1, top + 1)]
    # ranks[k] = rank of the boundary map from cardinality-(k+1) faces down
    ranks = [0] * (top + 1)
    ranks[0] = 1 if reduced else 0  # augmentation onto the empty face
    for k in range(1, top):
        lower_index = {f: i for i, f in enumerate(layers[k - 1])}
        ranks[k] = _boundary_rank(layers[k], lower_index)
    betti = []
    for m in range(top):  # dimension m holds the cardinality-(m+1) faces
        upper = ranks[m + 1] if m + 1 < top else 0
        betti.append(len(layers[m]) - ranks[m] - upper)
    return tuple(betti)


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
