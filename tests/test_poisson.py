from fractions import Fraction
from math import comb
from random import Random

import pytest

from compatlie.cohomology import reduced_cohomology_dims
from compatlie.core import (
    CompatiblePair,
    InternalCheckError,
    LieBracket,
    RepPair,
    adjoint_rep,
    validate_rep,
)
from compatlie.linalg import Matrix
from compatlie.poisson import (
    PolyBasis,
    PolyRep,
    degree_block,
    lie_poisson_rep,
    reduced_bihamiltonian_dims,
)
from support import n2, rand_compatible_pair


def n2_zero_pair():
    return CompatiblePair(n2(), LieBracket.zero(2))


def abelian_pair(dim):
    return CompatiblePair(LieBracket.zero(dim), LieBracket.zero(dim))


def test_basis_counts_and_order():
    b = PolyBasis.build(2, 2)
    assert len(b.monomials) == comb(4, 2)
    # graded, with xi_1 heaviest inside each degree
    assert b.monomials == ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2))


def test_constants_killed():
    rep = lie_poisson_rep(n2_zero_pair(), 0)
    assert all(m.is_zero() for m in rep.rep.rho + rep.rep.mu)


def test_abelian_action_is_zero():
    rep = lie_poisson_rep(abelian_pair(3), 2)
    assert all(m.is_zero() for m in rep.rep.rho + rep.rep.mu)


def test_n2_degree1_action():
    # basis 1, xi1, xi2: the first bracket acts through [e1,e2] = e2:
    # e1.xi2 = xi2, everything else dies; the second bracket is zero
    rep = lie_poisson_rep(n2_zero_pair(), 1)
    r1 = rep.rep.rho[0]
    assert r1 == Matrix([[0, 0, 0], [0, 0, 0], [0, 0, 1]])
    assert rep.rep.rho[1] == Matrix([[0, 0, 0], [0, 0, 0], [0, -1, 0]])
    assert all(m.is_zero() for m in rep.rep.mu)


def test_rep_validates():
    rng = Random(3)
    for dim in (2, 3):
        for _ in range(3):
            pair = rand_compatible_pair(rng, dim)
            for d_max in (1, 2, 3):
                rep = lie_poisson_rep(pair, d_max)
                assert validate_rep(pair, rep.rep).ok


def test_degree_blocks_are_reps_and_degree_preserved():
    rng = Random(5)
    pair = rand_compatible_pair(rng, 3)
    poly = lie_poisson_rep(pair, 3)
    for d in range(4):
        block = degree_block(poly, d)
        assert validate_rep(pair, block).ok
        assert block.module_dim == comb(3 + d - 1, d) if d > 0 else 1


def test_off_block_entry_is_an_internal_error():
    # the action preserves degree by construction, so an entry linking the
    # constant (index 0) and a degree-1 monomial (index 1) is a bug, never
    # bad input: it must not surface as a ValueError, which the CLI reports
    # as a usage error
    poly = lie_poisson_rep(n2_zero_pair(), 1)
    rho0 = poly.rep.rho[0]
    rows = [list(rho0.row(r)) for r in range(rho0.rows)]
    rows[1][0] = Fraction(1)
    rho = (Matrix(rows),) + poly.rep.rho[1:]
    broken = PolyRep(poly.basis, RepPair(poly.rep.module_dim, rho, poly.rep.mu))
    for d in (0, 1):
        degree_block(poly, d)
        with pytest.raises(InternalCheckError):
            degree_block(broken, d)


def test_degree1_block_equals_adjoint():
    rng = Random(7)
    for _ in range(5):
        pair = rand_compatible_pair(rng, rng.randint(2, 3))
        block = degree_block(lie_poisson_rep(pair, 1), 1)
        ad = adjoint_rep(pair)
        assert block.rho == ad.rho
        assert block.mu == ad.mu


def test_leibniz_rule():
    rng = Random(11)
    pair = rand_compatible_pair(rng, 2)
    d_max = 3
    poly = lie_poisson_rep(pair, d_max)
    basis = poly.basis

    def as_poly(mono):
        v = [Fraction(0)] * len(basis.monomials)
        v[basis.index(mono)] = Fraction(1)
        return tuple(v)

    def multiply(p, q):
        out = [Fraction(0)] * len(basis.monomials)
        for i, c in enumerate(p):
            if c == 0:
                continue
            for j, e in enumerate(q):
                if e == 0:
                    continue
                prod = tuple(
                    a + b
                    for a, b in zip(basis.monomials[i], basis.monomials[j])
                )
                if sum(prod) <= d_max:
                    out[basis.index(prod)] += c * e
        return tuple(out)

    for m1 in basis.monomials:
        for m2 in basis.monomials:
            if sum(m1) + sum(m2) > d_max or sum(m1) == 0 or sum(m2) == 0:
                continue
            for mats in (poly.rep.rho, poly.rep.mu):
                for i in range(pair.dim):
                    lhs = mats[i].matvec(multiply(as_poly(m1), as_poly(m2)))
                    rhs = tuple(
                        a + b
                        for a, b in zip(
                            multiply(mats[i].matvec(as_poly(m1)), as_poly(m2)),
                            multiply(as_poly(m1), mats[i].matvec(as_poly(m2))),
                        )
                    )
                    assert lhs == rhs


def test_reduced_dims_abelian_pair():
    # every differential vanishes: the table is the raw cochain dims
    pair = abelian_pair(2)
    table = reduced_bihamiltonian_dims(pair, lie_poisson_rep(pair, 2), 2)
    for d in range(3):
        block_dim = comb(2 + d - 1, d) if d > 0 else 1
        for n in range(3):
            assert table[(d, n)] == comb(2, n) * block_dim


def test_degree0_column_matches_trivial_module():
    rng = Random(13)
    pair = rand_compatible_pair(rng, 2)
    table = reduced_bihamiltonian_dims(pair, lie_poisson_rep(pair, 1), 2)
    from compatlie.core import RepPair

    triv = RepPair.zero(2, 1)
    for n, (_, h_dim) in enumerate(reduced_cohomology_dims(pair, triv, 2)):
        assert table[(0, n)] == h_dim


def test_n2_zero_poisson_table_frozen():
    # regression fixture for (N2, 0), polynomial degree <= 1, cochain
    # degree <= 2; every rank checked by the fraction-free route too
    pair = n2_zero_pair()
    table = reduced_bihamiltonian_dims(pair, lie_poisson_rep(pair, 1), 2)
    assert table == FROZEN_N2_TABLE


# hand-derived: the second bracket and mu vanish, so the reduced
# differential is zero and H~^n = dim ker d^n_{pi1+rho} per degree block.
# constants block (trivial module): ker d^0 = V (1), ker d^1 = {f : f(e2)=0}
# (1), ker d^2 = C^2 (1).  linear block (rho = ad of N2): invariants 0,
# ker d^1 cut out by d f(e1,e2) = (-f(e2)_1, f(e1)_1) = 0 leaving 2 of 4
# parameters, ker d^2 = C^2 of dim 2.
FROZEN_N2_TABLE = {
    (0, 0): 1,
    (0, 1): 1,
    (0, 2): 1,
    (1, 0): 0,
    (1, 1): 2,
    (1, 2): 2,
}
