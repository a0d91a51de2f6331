import pytest

from scx.complexes import from_facets
from scx.errors import NotSubcomplex
from scx.generators import (
    cross_polytope_boundary,
    cycle,
    ring_ball,
    simplex_boundary,
    torus_7,
)
from scx.graphs import neighborhood
from scx.homology import (
    sphere_pattern,
    unreduced_betti,
    z2_betti,
    z2_relative_betti,
)

from oracles import betti_by_dense_rank, euler_characteristic_checks


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_sphere_betti(d):
    assert z2_betti(simplex_boundary(d + 1)) == sphere_pattern(d, d + 1)


def test_ring_ball_contractible():
    assert z2_betti(ring_ball()) == (0, 0, 0, 0)


def test_torus_betti_against_dense_oracle():
    t = torus_7()
    assert z2_betti(t) == (0, 2, 1)
    assert betti_by_dense_rank(t) == (0, 2, 1)


def test_betti_matches_dense_oracle_on_corpus(corpus):
    for name, c in corpus.items():
        assert z2_betti(c) == betti_by_dense_rank(c), name


def test_disconnected_complex_betti():
    c = from_facets([["a", "b", "c"], ["x", "y", "z"]])
    assert z2_betti(c)[0] == 1
    assert unreduced_betti(c)[0] == 2


def test_cone_annihilates_homology(corpus):
    for name, c in corpus.items():
        coned = c.cone()
        assert z2_betti(coned) == (0,) * (coned.dim + 1), name


def test_suspension_shifts_betti(corpus):
    for name, c in corpus.items():
        shifted = (0,) + z2_betti(c)
        assert z2_betti(c.suspension()) == shifted, name


def test_euler_identity(corpus):
    for name, c in corpus.items():
        lhs, rhs = euler_characteristic_checks(c)
        assert lhs == rhs, name


def test_relative_none_is_unreduced():
    c = cycle(5)
    assert z2_relative_betti(c, None) == unreduced_betti(c)
    assert unreduced_betti(c) == (1, 1)


def test_relative_self_is_zero(corpus):
    for name in ("cycle-4", "cross-polytope-2", "ring-ball"):
        c = corpus[name]
        assert z2_relative_betti(c, c) == (0,) * (c.dim + 1), name


def test_relative_not_subcomplex():
    with pytest.raises(NotSubcomplex):
        z2_relative_betti(cycle(4), cycle(5))


def test_relative_sphere_mod_neighborhood():
    c = cross_polytope_boundary(3)
    sub = c.induced(neighborhood(c, "p0"))
    rel = z2_relative_betti(c, sub)
    assert rel[c.dim] == 1
    assert z2_betti(sub)[c.dim] == 0


def test_relative_euler_additivity(corpus):
    # unreduced chi(c) = chi(sub) + chi(pair) for assorted pairs
    for name in ("cycle-6", "cross-polytope-2", "torus-7", "ring-ball"):
        c = corpus[name]
        sub = c.induced(neighborhood(c, c.vertices[0]))
        chi = lambda b: sum((-1) ** k * x for k, x in enumerate(b))
        total = chi(unreduced_betti(c))
        parts = chi(unreduced_betti(sub)) + chi(z2_relative_betti(c, sub))
        assert total == parts, name
