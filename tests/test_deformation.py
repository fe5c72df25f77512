from fractions import Fraction
from random import Random

import pytest

from compatlie.cohomology import CochainTuple, staircase_coboundary
from compatlie.core import CompatiblePair, LieBracket, pencil, validate_pair
from compatlie.deformation import (
    DeformationDatum,
    cohomology_obstruction,
    deformations_equivalent,
    deformed_pair,
    is_infinitesimal_deformation,
    is_nijenhuis,
    nijenhuis_torsion,
    trivial_deformation_from_nijenhuis,
)
from compatlie.linalg import Matrix, vec
from compatlie.multilinear import Cochain, nr_bracket, nr_compose
from support import (
    heisenberg3,
    n2,
    rand_compatible_pair,
    rand_matrix,
    sl2,
)


def n2_zero_pair():
    return CompatiblePair(n2(), LieBracket.zero(2))


def test_zero_datum_is_deformation():
    pair = n2_zero_pair()
    assert is_infinitesimal_deformation(pair, DeformationDatum.zero(2)).ok


def test_rescaling_datum_is_deformation():
    rng = Random(3)
    for _ in range(6):
        pair = rand_compatible_pair(rng, rng.randint(2, 3))
        d = DeformationDatum(
            pair.bracket1.to_cochain(), pair.bracket2.to_cochain()
        )
        assert is_infinitesimal_deformation(pair, d).ok


def test_dim2_any_datum_is_deformation():
    # all six conditions are arity-3 alternating maps: identically zero in dim 2
    pair = n2_zero_pair()
    d = DeformationDatum(
        Cochain(2, 2, 2, {((0, 1), 0): 1}), Cochain.zero(2, 2, 2)
    )
    assert is_infinitesimal_deformation(pair, d).ok


def test_heisenberg_deforms_sl2():
    # the pencil sl2 + t*heisenberg satisfies Jacobi for every t, checked by
    # hand on (e1,e2,e3), so this datum passes
    pair = CompatiblePair(sl2(), LieBracket.zero(3))
    d = DeformationDatum(heisenberg3().to_cochain(), Cochain.zero(2, 3, 3))
    assert is_infinitesimal_deformation(pair, d).ok


def test_failing_datum_has_witness():
    # w1(e1,e2) = e1 on sl2: [pi, w](e1,e2,e3) = pi(w(e1,e2), e3) = [e1,e3]
    # = -2 e3, nonzero
    pair = CompatiblePair(sl2(), LieBracket.zero(3))
    d = DeformationDatum(
        Cochain(2, 3, 3, {((0, 1), 0): 1}), Cochain.zero(2, 3, 3)
    )
    v = is_infinitesimal_deformation(pair, d)
    assert not v.ok
    assert v.witness.law.startswith("deform-1")
    assert v.witness.at == (1, 2, 3)
    assert vec(v.witness.value) == vec([0, 0, -2])


def test_deformed_pair_probes():
    pair = n2_zero_pair()
    d = DeformationDatum(
        Cochain(2, 2, 2, {((0, 1), 0): 1}), Cochain.zero(2, 2, 2)
    )
    assert deformed_pair(pair, d, 0) == pair
    at5 = deformed_pair(pair, d, 5)
    assert at5.bracket1.bracket_basis(0, 1) == vec([5, 1])
    for t in (1, 2, 3):
        p = deformed_pair(pair, d, t)
        assert validate_pair(p.bracket1, p.bracket2).ok


def test_deformed_pair_doubles_with_rescaling_datum():
    rng = Random(7)
    pair = rand_compatible_pair(rng, 3)
    d = DeformationDatum(pair.bracket1.to_cochain(), pair.bracket2.to_cochain())
    doubled = deformed_pair(pair, d, 1)
    assert doubled.bracket1.to_cochain() == pair.bracket1.to_cochain().scale(2)
    assert doubled.bracket2.to_cochain() == pair.bracket2.to_cochain().scale(2)


def test_torsion_scalar_and_abelian():
    rng = Random(9)
    b = sl2()
    lam = Fraction(3, 2)
    assert nijenhuis_torsion(b, Matrix.identity(3).scale(lam)).is_zero()
    z = LieBracket.zero(3)
    assert nijenhuis_torsion(z, rand_matrix(rng, 3, 3)).is_zero()


def test_torsion_diag_on_n2():
    # T(e1,e2) = N(a e2) - [a e1, b e2] = (ab - ab) e2 = 0
    for a, b in [(1, 0), (2, 3), (-1, 5)]:
        n_op = Matrix([[a, 0], [0, b]])
        assert nijenhuis_torsion(n2(), n_op).is_zero()


def graded_torsion(bracket, n_op):
    """(1/2)([pi, N.N] + [N, [pi, N]]): the torsion in the graded algebra,
    the reference for the direct formula in `nijenhuis_torsion`."""
    pi = bracket.to_cochain()
    n_c = Cochain.from_matrix(n_op)
    deformed = nr_bracket(pi, n_c)
    nn = nr_compose(n_c, n_c)
    return (nr_bracket(pi, nn) + nr_bracket(n_c, deformed)).scale(Fraction(1, 2))


def test_torsion_two_formulas_agree_on_random_input():
    rng = Random(11)
    nonzero = 0
    for _ in range(40):
        dim = rng.randint(2, 4)
        from support import rand_bracket

        b = rand_bracket(rng, dim)
        n_op = rand_matrix(rng, dim, dim)
        direct = nijenhuis_torsion(b, n_op)
        assert direct == graded_torsion(b, n_op)
        nonzero += not direct.is_zero()
    assert nonzero >= 20


def test_torsion_pencil_linearity():
    rng = Random(13)
    for _ in range(15):
        pair = rand_compatible_pair(rng, rng.randint(2, 3))
        n_op = rand_matrix(rng, pair.dim, pair.dim)
        k1, k2 = Fraction(2), Fraction(-3, 2)
        mixed = nijenhuis_torsion(pencil(pair, k1, k2), n_op)
        split = nijenhuis_torsion(pair.bracket1, n_op).scale(k1) + nijenhuis_torsion(
            pair.bracket2, n_op
        ).scale(k2)
        assert mixed == split


def test_is_nijenhuis_trivial_cases():
    rng = Random(17)
    for _ in range(5):
        pair = rand_compatible_pair(rng, rng.randint(2, 3))
        assert is_nijenhuis(pair, Matrix.identity(pair.dim)).ok
        assert is_nijenhuis(pair, Matrix.zeros(pair.dim, pair.dim)).ok
    assert is_nijenhuis(n2_zero_pair(), Matrix([[4, 0], [0, -7]])).ok


def test_trivial_deformation_identity_and_zero():
    rng = Random(19)
    pair = rand_compatible_pair(rng, 3)
    d = trivial_deformation_from_nijenhuis(pair, Matrix.identity(3))
    assert d.omega1 == pair.bracket1.to_cochain()
    assert d.omega2 == pair.bracket2.to_cochain()
    d0 = trivial_deformation_from_nijenhuis(pair, Matrix.zeros(3, 3))
    assert d0.omega1.is_zero() and d0.omega2.is_zero()


def test_trivial_deformation_diag_example():
    pair = n2_zero_pair()
    d = trivial_deformation_from_nijenhuis(pair, Matrix([[1, 0], [0, 0]]))
    assert d.omega1.value((0, 1)) == vec([0, 1])
    assert d.omega2.is_zero()


def test_trivial_deformation_full_contract():
    rng = Random(23)
    for _ in range(10):
        pair = rand_compatible_pair(rng, rng.randint(2, 3))
        from support import nijenhuis_for

        n_op = nijenhuis_for(rng, pair.bracket1)
        if not is_nijenhuis(pair, n_op).ok:
            n_op = Matrix.identity(pair.dim).scale(Fraction(rng.randint(-3, 3)))
        d = trivial_deformation_from_nijenhuis(pair, n_op)
        assert is_infinitesimal_deformation(pair, d).ok
        # the datum is the degree-1 coboundary of N
        n_c = Cochain.from_matrix(n_op)
        step = staircase_coboundary(pair, CochainTuple(1, [n_c]))
        assert step.components[0] == d.omega1
        assert step.components[1] == d.omega2
        for t in (1, 2, 3):
            deformed_pair(pair, d, t)
        # the deformed brackets themselves are compatible and N maps them
        # onto the originals (homomorphism property of Nijenhuis shifts)
        assert validate_pair(
            LieBracket.from_cochain(d.omega1), LieBracket.from_cochain(d.omega2)
        ).ok
        for w, b in ((d.omega1, pair.bracket1), (d.omega2, pair.bracket2)):
            for i in range(pair.dim):
                for j in range(i + 1, pair.dim):
                    lhs = n_op.matvec(w.value((i, j)))
                    rhs = b.bracket(n_op.column(i), n_op.column(j))
                    assert lhs == rhs


def test_equivalence_reflexive():
    rng = Random(29)
    pair = rand_compatible_pair(rng, 3)
    d = DeformationDatum(pair.bracket1.to_cochain(), pair.bracket2.to_cochain())
    assert deformations_equivalent(pair, d, d, Matrix.zeros(3, 3)).ok


def test_trivial_deformation_equivalent_to_zero():
    pair = n2_zero_pair()
    n_op = Matrix([[1, 0], [0, 0]])
    d = trivial_deformation_from_nijenhuis(pair, n_op)
    v = deformations_equivalent(pair, d, DeformationDatum.zero(2), n_op)
    assert v.ok
    ok, cert = cohomology_obstruction(pair, d, DeformationDatum.zero(2))
    assert ok and cert is not None


def test_equivalence_failure_has_witness():
    # perturb by a non-coboundary on an abelian pair: im(delta^1) = 0
    pair = CompatiblePair(LieBracket.zero(2), LieBracket.zero(2))
    d = DeformationDatum(Cochain(2, 2, 2, {((0, 1), 0): 1}), Cochain.zero(2, 2, 2))
    v = deformations_equivalent(pair, d, DeformationDatum.zero(2), Matrix.zeros(2, 2))
    assert not v.ok
    assert v.witness.law.startswith("equiv-1")
    ok, cert = cohomology_obstruction(pair, d, DeformationDatum.zero(2))
    assert not ok and cert is None


def test_deformation_datum_shape_validation():
    with pytest.raises(ValueError):
        DeformationDatum(Cochain.zero(1, 2, 2), Cochain.zero(2, 2, 2))
