from fractions import Fraction
from random import Random

import pytest

from compatlie.cohomology import CochainTuple, staircase_coboundary
from compatlie.core import CompatiblePair, LieBracket, pencil, validate_pair
from compatlie.deformation import (
    DeformationDatum,
    _homomorphism_defect,
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
from oracles import (
    hand_expanded_equivalence_verdict,
    homomorphism_defect_fraction,
    nijenhuis_torsion_fraction,
    staircase_deformation_verdict,
)
from support import (
    heisenberg3,
    n2,
    nijenhuis_for,
    rand_bracket,
    rand_cochain,
    rand_compatible_pair,
    rand_fraction,
    rand_matrix,
    rand_wide_bracket,
    rand_wide_cochain,
    rand_wide_matrix,
    r3_solvable,
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
        # so N certifies the equivalence with the zero deformation
        zero = DeformationDatum.zero(pair.dim)
        assert deformations_equivalent(pair, d, zero, n_op).ok
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


# -- the six identities and the NR coboundary against their second routes -------


def zero_pair(dim):
    return CompatiblePair(LieBracket.zero(dim), LieBracket.zero(dim))


def rand_datum(rng, dim):
    return DeformationDatum(rand_cochain(rng, 2, dim), rand_cochain(rng, 2, dim))


def deformation_cases(rng):
    """Seeded (pair, datum) cases: valid data, random data, and data built
    so that each of deform-1..6 is the first identity to fail."""
    cases = []
    for _ in range(6):
        pair = rand_compatible_pair(rng, rng.randint(2, 3))
        n_op = nijenhuis_for(rng, pair.bracket1)
        if is_nijenhuis(pair, n_op).ok:
            cases.append((pair, trivial_deformation_from_nijenhuis(pair, n_op)))
        rescaling = DeformationDatum(
            pair.bracket1.to_cochain(), pair.bracket2.to_cochain()
        )
        cases += [(pair, rescaling), (pair, rand_datum(rng, pair.dim))]
    zero = Cochain.zero(2, 3, 3)
    left = CompatiblePair(sl2(), LieBracket.zero(3))
    right = CompatiblePair(LieBracket.zero(3), sl2())
    # two Lie brackets whose mixed Jacobiator does not vanish
    incompatible = DeformationDatum(sl2().to_cochain(), r3_solvable().to_cochain())
    for _ in range(3):
        w = rand_cochain(rng, 2, 3)
        not_lie = rand_bracket(rng, 3).to_cochain()
        cases += [
            (left, DeformationDatum(w, zero)),  # deform-1
            (left, DeformationDatum(zero, w)),  # deform-2, by [pi1,w2]
            (right, DeformationDatum(w, zero)),  # deform-2, by [pi2,w1]
            (right, DeformationDatum(zero, w)),  # deform-3
            (zero_pair(3), DeformationDatum(not_lie, zero)),  # deform-4
            (zero_pair(3), incompatible),  # deform-5
            (zero_pair(3), DeformationDatum(zero, not_lie)),  # deform-6
        ]
    return cases


def test_six_identities_equal_the_staircase_verdict():
    # deform-1..3 are minus the components of the staircase coboundary of
    # (w1, w2); the verdicts agree in law, tuple and value
    laws = set()
    for pair, d in deformation_cases(Random(31)):
        v = is_infinitesimal_deformation(pair, d)
        assert v == staircase_deformation_verdict(pair, d)
        laws.add(v.witness.law.split(":")[0] if v.witness else "ok")
    assert laws == {"ok"} | {f"deform-{k}" for k in range(1, 7)}


def test_deformed_pair_equals_the_validated_pair():
    seen = set()
    for pair, d in deformation_cases(Random(37)):
        p1, p2 = pair.bracket1.to_cochain(), pair.bracket2.to_cochain()
        ok = is_infinitesimal_deformation(pair, d).ok
        if ok:
            for t in (0, 1, Fraction(-3, 2)):
                b1 = LieBracket.from_cochain(p1 + d.omega1.scale(t))
                b2 = LieBracket.from_cochain(p2 + d.omega2.scale(t))
                assert deformed_pair(pair, d, t) == CompatiblePair(b1, b2)
        else:
            with pytest.raises(ValueError) as err:
                deformed_pair(pair, d, 1)
            assert str(err.value) == "datum does not generate a deformation"
        seen.add(ok)
    assert seen == {True, False}


def equivalence_cases(rng):
    """Seeded (pair, d, d', N) cases with d' != 0 wherever the case allows
    it: valid and random data, and data built so that each of equiv-1..6 is
    the first equation to fail."""
    cases = []
    for _ in range(5):
        pair = rand_compatible_pair(rng, rng.randint(2, 3))
        dim = pair.dim
        p1, p2 = pair.bracket1.to_cochain(), pair.bracket2.to_cochain()
        n_op = rand_matrix(rng, dim, dim)
        n_c = Cochain.from_matrix(n_op)
        d_prime = rand_datum(rng, dim)
        # d - d' is the NR coboundary of N, so the t layers hold
        shifted = DeformationDatum(
            d_prime.omega1 + nr_bracket(p1, n_c), d_prime.omega2 + nr_bracket(p2, n_c)
        )
        cases += [
            (pair, d_prime, d_prime, Matrix.zeros(dim, dim)),  # ok
            (pair, rand_datum(rng, dim), d_prime, n_op),  # equiv-1
            (pair, shifted, d_prime, n_op),  # equiv-2
        ]
        # with bracket 1 zero and w1 = w1' = 0, equiv-1 and equiv-2 hold
        half = CompatiblePair(LieBracket.zero(dim), pair.bracket2)
        zero = Cochain.zero(2, dim, dim)
        w2_prime = rand_cochain(rng, 2, dim)
        only2 = DeformationDatum(zero, w2_prime)
        cases += [
            (half, DeformationDatum(zero, rand_cochain(rng, 2, dim)), only2, n_op),
            (half, DeformationDatum(zero, w2_prime + nr_bracket(p2, n_c)), only2, n_op),
        ]
    # on the abelian dim-3 pair, w(e2, e3) = c e1 passes every layer of
    # N = diag(1, 0, 1), and w(e1, e2) = c e3 passes the t and t^2 layers of
    # N = diag(1, 1, 2) but not its t^3 layer
    zero = Cochain.zero(2, 3, 3)
    fixing = Matrix([[1, 0, 0], [0, 0, 0], [0, 0, 1]])
    cubic = Matrix([[1, 0, 0], [0, 1, 0], [0, 0, 2]])
    for _ in range(2):
        c = rand_fraction(rng)
        fixed = DeformationDatum(*[Cochain(2, 3, 3, {((1, 2), 0): c})] * 2)
        w = Cochain(2, 3, 3, {((0, 1), 2): c})
        first, second = DeformationDatum(w, zero), DeformationDatum(zero, w)
        cases += [
            (zero_pair(3), fixed, fixed, fixing),  # ok
            (zero_pair(3), first, first, cubic),  # equiv-5
            (zero_pair(3), second, second, cubic),  # equiv-6
        ]
    return cases


def test_equivalence_equals_the_hand_expanded_layers():
    # equiv-1 and equiv-3 as (w - w') - [pi, N]_NR agree with the t layer
    # expanded on basis pairs, in law, tuple and value, also for d' != 0
    laws = set()
    cases = equivalence_cases(Random(43))
    for pair, d, d_prime, n_op in cases:
        v = deformations_equivalent(pair, d, d_prime, n_op)
        assert v == hand_expanded_equivalence_verdict(pair, d, d_prime, n_op)
        laws.add(v.witness.law.split(":")[0] if v.witness else "ok")
    assert laws == {"ok"} | {f"equiv-{k}" for k in range(1, 7)}
    zero = [dp.omega1.is_zero() and dp.omega2.is_zero() for _, _, dp, _ in cases]
    assert zero.count(False) >= 25


def same_storage(a: Cochain, b: Cochain) -> bool:
    return a == b and list(a.coeffs.items()) == list(b.coeffs.items())


def test_torsion_and_defect_layers_equal_the_fraction_sums():
    # equal cochains in the same storage order as the rational sums, on
    # dims 1-5, zero, random and conjugated catalog brackets, mixed
    # denominators, entries near 2^80, N = 0 and w' = 0 or not
    rng = Random(47)
    kinds = ("zero", "random", "dense")
    nonzero = {"torsion": 0, "quad": 0, "cub": 0}
    for dim in range(1, 6):
        for case in range(6):
            b = rand_wide_bracket(rng, dim, kinds[(dim + case) % 3])
            n_op = rand_wide_matrix(rng, dim, dim) if case else Matrix.zeros(dim, dim)
            w = rand_wide_cochain(rng, dim, dim)
            w_prime = rand_wide_cochain(rng, dim, dim)
            if case == 1:
                w_prime = Cochain.zero(2, dim, dim)
            torsion = nijenhuis_torsion(b, n_op)
            assert same_storage(torsion, nijenhuis_torsion_fraction(b, n_op))
            deformed = nr_bracket(b.to_cochain(), Cochain.from_matrix(n_op))
            assert same_storage(nijenhuis_torsion(b, n_op, deformed), torsion)
            quad, cub = _homomorphism_defect(b, w, w_prime, n_op)
            quad_want, cub_want = homomorphism_defect_fraction(b, w, w_prime, n_op)
            assert same_storage(quad, quad_want) and same_storage(cub, cub_want)
            nonzero["torsion"] += not torsion.is_zero()
            nonzero["quad"] += not quad.is_zero()
            nonzero["cub"] += not cub.is_zero()
    assert min(nonzero.values()) >= 8
