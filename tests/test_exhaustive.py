"""An exhaustive tier: every pure complex on at most five vertices.

The fast paths rest on short combinatorial arguments whose edge cases are
the small complexes (d = 0 and d = 1, triangles, single facets, simplex
boundaries).  Rather than sample them, these tests take every family of
k-subsets of {0, ..., n-1} that uses all n vertices, for n <= 5: 1,817
complexes, one per family (relabelings included).
"""

import itertools

from scx.analysis import verify_property
from scx.banner import classify, classify_tilde_cliques
from scx.complexes import SimplicialComplex
from scx.manifold import is_pseudomanifold

from oracles import classify_by_labels


def _every_pure_complex(max_n: int) -> list[SimplicialComplex]:
    out = []
    for n in range(1, max_n + 1):
        for k in range(1, n + 1):
            subsets = list(itertools.combinations(range(n), k))
            for r in range(1, len(subsets) + 1):
                for family in itertools.combinations(subsets, r):
                    if len({v for s in family for v in s}) == n:
                        out.append(SimplicialComplex([[f"x{v}" for v in s] for s in family]))
    return out


SMALL = _every_pure_complex(5)


def test_classify_matches_label_oracle_on_every_small_complex():
    assert len(SMALL) == 1817
    for c in SMALL:
        assert classify(c) == classify_by_labels(c), c.facets


def test_p38iii_stranded_skip_is_the_least_stranded_clique_size():
    """P3.8iii's edge scan skips exactly when some j <= d+2 has stranded j-cliques.

    The cone apex is adjacent to the boundary vertices only, so the least
    stranded clique is the apex with one edge of c between two boundary
    vertices that is no boundary edge: j = 3.
    """
    balls = [c for c in SMALL if c.dim >= 2 and is_pseudomanifold(c) == "with_boundary"]
    assert len(balls) == 305
    skipped = 0
    for c in balls:
        sizes = [
            j for j in range(1, c.dim + 3) if classify_tilde_cliques(c, j).stranded
        ]
        res = verify_property("P3.8iii", c)
        stranded = res.detail == "stranded 3-cliques block the product rule"
        assert stranded == bool(sizes), c.facets
        assert not sizes or sizes[0] == 3, c.facets
        skipped += stranded
    assert 0 < skipped < len(balls)
