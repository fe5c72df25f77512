from fractions import Fraction
from itertools import combinations
from random import Random

import pytest

from compatlie import multilinear
from compatlie.core import (
    OK,
    CompatiblePair,
    InternalCheckError,
    LieBracket,
    RepPair,
    Verdict,
    Witness,
    adjoint_rep,
    validate_pair,
    validate_rep,
)
from compatlie.extension import (
    ExtensionDatum,
    _theta_intertwines,
    Section,
    assemble_brackets,
    build_extension,
    cocycles_cohomologous,
    extensions_isomorphic_under,
    extract_datum,
    gauge_transform,
    maurer_cartan_verdict,
    validate_extension_datum,
)
from compatlie.linalg import Matrix, is_zero_vec, vadd, vec, vscale, vsub
from compatlie.multilinear import Cochain, ce_coboundary, nr_bracket
from oracles import (
    assemble_brackets_checked,
    assemble_brackets_entrywise,
    difference_equations_verdict,
    gauge_transform_fraction,
    gauge_transform_nr,
    gauge_transform_series,
    lifted_maurer_cartan_verdict,
    theta_intertwines_matrix,
    twisted_boundary_matrices,
)
from support import (
    heisenberg3,
    n2,
    rand_compatible_pair,
    rand_fraction,
    rand_matrix,
    rand_rep,
    rand_wide_bracket,
    rand_wide_cochain,
    rand_wide_matrix,
)

# -- fixtures ----------------------------------------------------------------


def abelian(dim):
    return CompatiblePair(LieBracket.zero(dim), LieBracket.zero(dim))


def heisenberg_datum():
    """g abelian of dim 2, h abelian of dim 1, w1(e1,e2) = f1, all else 0."""
    g = abelian(2)
    h = abelian(1)
    w1 = Cochain(2, 2, 1, {((0, 1), 0): 1})
    return ExtensionDatum(
        g,
        h,
        (Matrix.zeros(1, 1), Matrix.zeros(1, 1)),
        (Matrix.zeros(1, 1), Matrix.zeros(1, 1)),
        w1,
        Cochain.zero(2, 2, 1),
    )


def product_datum(g, h):
    n, m = g.dim, h.dim
    z = tuple(Matrix.zeros(m, m) for _ in range(n))
    return ExtensionDatum(g, h, z, z, Cochain.zero(2, n, m), Cochain.zero(2, n, m))


def semidirect_n2_datum():
    """g = (N2, 0) acting on a 1-dim abelian h by rho(e1) = 1, rho(e2) = 0."""
    g = CompatiblePair(n2(), LieBracket.zero(2))
    h = abelian(1)
    rho = (Matrix([[1]]), Matrix.zeros(1, 1))
    mu = (Matrix.zeros(1, 1), Matrix.zeros(1, 1))
    rep = RepPair(1, rho, mu)
    assert validate_rep(g, rep).ok
    return ExtensionDatum(
        g, h, rho, mu, Cochain.zero(2, 2, 1), Cochain.zero(2, 2, 1)
    )


def adjoint_datum(pair):
    """g extended by itself along the adjoint actions with zero cochains:
    valid whenever the fibre brackets are zero... here we use the fibre g
    with its own brackets and the adjoint actions, which satisfies all nine
    equations exactly when w_i compensate; instead we use the honest
    semidirect product: fibre = g as an abelian space, adjoint actions."""
    rep = adjoint_rep(pair)
    n = pair.dim
    h = abelian(n)
    return ExtensionDatum(
        pair, h, rep.rho, rep.mu, Cochain.zero(2, n, n), Cochain.zero(2, n, n)
    )


def rand_datum(rng: Random) -> ExtensionDatum:
    """Random data, roughly half of which satisfy the nine equations."""
    ng = rng.randint(1, 2)
    nh = rng.randint(1, 2)
    g = rand_compatible_pair(rng, max(ng, 2)) if ng >= 2 else one_dim_pair()
    h = rand_compatible_pair(rng, max(nh, 2)) if nh >= 2 else one_dim_pair()
    kind = rng.randrange(4)
    if kind == 0:
        datum = product_datum(g, h)
    elif kind == 1:
        rep = adjoint_rep(g)
        datum = adjoint_datum(g)
        g_for = datum.base
    elif kind == 2:
        datum = product_datum(g, h)
        xi = rand_matrix(rng, datum.fibre_dim, datum.base_dim, -1, 1)
        datum = gauge_transform(datum, xi)
    else:
        datum = product_datum(g, h)
    if rng.random() < 0.5:
        # perturb one structure piece; usually breaks the equations
        n, m = datum.base_dim, datum.fibre_dim
        which = rng.randrange(3)
        if which == 0 and n >= 2:
            w = dict(datum.omega1.coeffs)
            w[((0, 1), rng.randrange(m))] = rand_fraction(rng, -2, 2)
            datum = ExtensionDatum(
                datum.base,
                datum.fibre,
                datum.rho,
                datum.mu,
                Cochain(2, n, m, w),
                datum.omega2,
            )
        elif which == 1:
            mats = list(datum.rho)
            mats[rng.randrange(n)] = rand_matrix(rng, m, m, -1, 1)
            datum = ExtensionDatum(
                datum.base,
                datum.fibre,
                tuple(mats),
                datum.mu,
                datum.omega1,
                datum.omega2,
            )
        else:
            mats = list(datum.mu)
            mats[rng.randrange(n)] = rand_matrix(rng, m, m, -1, 1)
            datum = ExtensionDatum(
                datum.base,
                datum.fibre,
                datum.rho,
                tuple(mats),
                datum.omega1,
                datum.omega2,
            )
    return datum


def one_dim_pair():
    return CompatiblePair(LieBracket.zero(1), LieBracket.zero(1))


# -- construction -------------------------------------------------------------


def test_product_extension():
    g = CompatiblePair(n2(), LieBracket.zero(2))
    ext = build_extension(product_datum(g, abelian(1)))
    assert ext.dim == 3
    # h is central: bracketing e3 with anything vanishes
    assert ext.bracket1.bracket_basis(0, 2) == vec([0, 0, 0])
    assert ext.bracket1.bracket_basis(0, 1) == vec([0, 1, 0])


def test_semidirect_extension():
    ext = build_extension(semidirect_n2_datum())
    assert validate_pair(ext.bracket1, ext.bracket2).ok
    assert ext.bracket1.bracket_basis(0, 2) == vec([0, 0, 1])


def test_heisenberg_extension():
    ext = build_extension(heisenberg_datum())
    assert ext.bracket1.bracket_basis(0, 1) == vec([0, 0, 1])
    assert ext.bracket2.is_zero()
    assert validate_pair(ext.bracket1, ext.bracket2).ok


def test_invalid_datum_reports_equation():
    # sabotage the cocycle equation: on a 3-dim abelian base with trivial
    # action, pick w1 that is not closed: w1(e1,e2)=f1 depends on a bracket
    # that vanishes, so any w1 IS closed; instead break equation 1 by a rho
    # that is not a representation
    g = CompatiblePair(n2(), LieBracket.zero(2))
    h = abelian(1)
    rho = (Matrix([[1]]), Matrix([[1]]))  # rho([e1,e2]) = rho(e2) = 1 != 0
    mu = (Matrix.zeros(1, 1), Matrix.zeros(1, 1))
    datum = ExtensionDatum(
        g, h, rho, mu, Cochain.zero(2, 2, 1), Cochain.zero(2, 2, 1)
    )
    v = validate_extension_datum(datum)
    assert not v.ok and v.witness.law == "ext-1"
    with pytest.raises(ValueError):
        build_extension(datum)


def test_nine_equations_match_assembled_validation():
    rng = Random(101)
    seen_ok = seen_bad = 0
    for _ in range(60):
        datum = rand_datum(rng)
        nine = validate_extension_datum(datum)
        b1, b2 = assemble_brackets(datum)
        direct = validate_pair(b1, b2)
        assert nine.ok == direct.ok
        seen_ok += nine.ok
        seen_bad += not nine.ok
    assert seen_ok >= 5 and seen_bad >= 5


def test_maurer_cartan_path_matches_nine_equations():
    rng = Random(103)
    for _ in range(60):
        datum = rand_datum(rng)
        assert maurer_cartan_verdict(datum).ok == validate_extension_datum(datum).ok


def test_maurer_cartan_verdict_equals_lifted_route():
    # the verdict reads the assembled pair's Jacobiators; the reference
    # brackets the lifted elements with the lifted anchors
    rng = Random(131)
    laws = set()
    data = [rand_datum(rng) for _ in range(60)] + action_and_derivation_data()
    data += [broken_cocycle_datum(rng, nonabelian=t % 2 == 1) for t in range(6)]
    for datum in data:
        expected = lifted_maurer_cartan_verdict(datum)
        assert maurer_cartan_verdict(datum) == expected
        laws.add(expected.witness.law if expected.witness else "ok")
    assert laws == {"ok", "mc-1", "mc-2", "mc-3"}


def cocycle_sum(bracket, mats, w, triple):
    """r(x) w(y,z) + r(z) w(x,y) - r(y) w(x,z)
    - w([x,y],z) - w([z,x],y) - w([y,z],x) at a basis triple, written out
    term by term."""
    i, j, k = triple
    return vadd(
        vsub(
            vadd(mats[i].matvec(w.value((j, k))), mats[k].matvec(w.value((i, j)))),
            mats[j].matvec(w.value((i, k))),
        ),
        vscale(
            -1,
            vadd(
                vadd(
                    w.eval_vector_first(bracket.bracket_basis(i, j), (k,)),
                    vscale(-1, w.eval_vector_first(bracket.bracket_basis(i, k), (j,))),
                ),
                w.eval_vector_first(bracket.bracket_basis(j, k), (i,)),
            ),
        ),
    )


def per_triple_cocycle_failures(datum):
    """Every (law, 1-based triple, value) where equations 7-9 fail, from the
    hand-expanded per-triple sums: triples in lexicographic order, and
    ext-7, ext-8, ext-9 on each triple."""
    g = datum.base
    rho, mu = datum.rho, datum.mu
    w1, w2 = datum.omega1, datum.omega2
    out = []
    for triple in combinations(range(g.dim), 3):
        for law, value in (
            ("ext-7", cocycle_sum(g.bracket1, rho, w1, triple)),
            ("ext-8", cocycle_sum(g.bracket2, mu, w2, triple)),
            (
                "ext-9",
                vadd(
                    cocycle_sum(g.bracket1, rho, w2, triple),
                    cocycle_sum(g.bracket2, mu, w1, triple),
                ),
            ),
        ):
            if not is_zero_vec(value):
                out.append((law, tuple(i + 1 for i in triple), value))
    return out


def broken_cocycle_datum(rng: Random, nonabelian: bool) -> ExtensionDatum:
    """A valid datum on a base of dim 3 or 4 with one omega entry changed
    so that only equations 7-9 can fail.  Abelian: a random module and the
    coboundary of a random xi.  Nonabelian: the fibre is a Heisenberg pair
    and xi gauges the product datum; the changed entry is central, so
    equations 1, 2 and 5 do not see it."""
    g = rand_compatible_pair(rng, rng.randint(3, 4))
    if nonabelian:
        c = rng.choice([0, 1, -2, Fraction(1, 2)])
        h2 = LieBracket.from_cochain(heisenberg3().to_cochain().scale(c))
        datum = product_datum(g, CompatiblePair(heisenberg3(), h2))
        targets = [2]
    else:
        rep = rand_rep(rng, g, max_module_dim=2)
        zero = Cochain.zero(2, g.dim, rep.module_dim)
        datum = ExtensionDatum(
            g, abelian(rep.module_dim), rep.rho, rep.mu, zero, zero
        )
        targets = range(rep.module_dim)
    datum = gauge_transform(
        datum, rand_matrix(rng, datum.fibre_dim, datum.base_dim, -1, 1)
    )
    assert validate_extension_datum(datum).ok
    key = (rng.choice(list(combinations(range(g.dim), 2))), rng.choice(targets))
    bump = rng.choice([-2, -1, Fraction(1, 2), 1, 3])
    w1, w2 = datum.omega1, datum.omega2
    broken = Cochain(2, g.dim, datum.fibre_dim, {key: bump})
    if rng.random() < 0.5:
        w1 = w1 + broken
    else:
        w2 = w2 + broken
    return ExtensionDatum(datum.base, datum.fibre, datum.rho, datum.mu, w1, w2)


def fixed_cocycle_data():
    """Four data on a dim-4 base acting trivially on a line, each with the
    one omega entry w(e1,e2) = f1.  One bracket is [e3,e4] = e1, whose arm
    fails on (2,3,4) alone, and the other [e1,e3] = e1, whose arm fails on
    (1,2,3): in two of the four, the law reported on (1,2,3) comes after a
    law that fails only on (2,3,4)."""
    heis = LieBracket(4, {(2, 3, 0): 1})
    affine = LieBracket(4, {(0, 2, 0): 1})
    act = tuple(Matrix.zeros(1, 1) for _ in range(4))
    w = Cochain(2, 4, 1, {((0, 1), 0): 1})
    z = Cochain.zero(2, 4, 1)
    return [
        ExtensionDatum(CompatiblePair(b1, b2), abelian(1), act, act, w1, w2)
        for b1, b2 in ((heis, affine), (affine, heis))
        for w1, w2 in ((w, z), (z, w))
    ]


def test_cocycle_witnesses_match_per_triple_formulas():
    # equations 7-9 come from the staircase coboundary of (w1, w2); the
    # witness (law, triple, value) must be the one the per-triple sums give
    rng = Random(211)
    data = fixed_cocycle_data()
    data += [broken_cocycle_datum(rng, nonabelian=t % 2 == 1) for t in range(40)]
    shared_triple = earlier_law_later = failed = 0
    for datum in data:
        failures = per_triple_cocycle_failures(datum)
        expected = Verdict(False, Witness(*failures[0])) if failures else OK
        assert validate_extension_datum(datum) == expected
        if failures:
            failed += 1
            law, at, _ = failures[0]
            # two laws fail on the reported triple
            shared_triple += sum(f[1] == at for f in failures) >= 2
            # a law before the reported one fails, but only on a later triple
            earlier_law_later += any(f[0] < law for f in failures)
    assert failed >= 20 and shared_triple >= 5 and earlier_law_later >= 2


def derivation_sum(br, mat, a, b, m):
    """lhs - rhs of D[f_a, f_b] = [D f_a, f_b] + [f_a, D f_b]."""
    fa, fb = (tuple(Fraction(k == c) for k in range(m)) for c in (a, b))
    lhs = mat.matvec(br.bracket_basis(a, b))
    rhs = vadd(br.bracket(mat.matvec(fa), fb), br.bracket(fa, mat.matvec(fb)))
    return vsub(lhs, rhs)


def action_of(mats, w, m):
    """sum_k w_k mats[k], one term at a time."""
    out = Matrix.zeros(m, m)
    for k, c in enumerate(w):
        if c != 0:
            out = out + mats[k].scale(c)
    return out


def per_equation_verdict(datum):
    """The nine structure equations from their hand-expanded formulas:
    equations 1-6 in order, each on its basis tuples in lexicographic
    order, then the per-triple cocycle sums of equations 7-9.  The
    reference for `validate_extension_datum`, which reads the blocks of
    the assembled pair's Jacobiators."""
    g, h = datum.base, datum.fibre
    n, m = g.dim, h.dim
    rho, mu = datum.rho, datum.mu
    w1, w2 = datum.omega1, datum.omega2
    ad_h = h.bracket1.ad_matrices()
    AD_h = h.bracket2.ad_matrices()

    def matrix_failure(law, i, j, diff):
        flat = tuple(x for r in range(diff.rows) for x in diff.row(r))
        return Verdict(False, Witness(law, (i + 1, j + 1), flat))

    pairs = list(combinations(range(n), 2))
    # 1: rho([x,y]) = [rho x, rho y] - ad_h(w1(x,y)); 2: the same for mu
    for law, act, g_br, adj, w in (
        ("ext-1", rho, g.bracket1, ad_h, w1),
        ("ext-2", mu, g.bracket2, AD_h, w2),
    ):
        for i, j in pairs:
            lhs = action_of(act, g_br.bracket_basis(i, j), m)
            rhs = act[i].commutator(act[j]) - action_of(adj, w.value((i, j)), m)
            if not (lhs - rhs).is_zero():
                return matrix_failure(law, i, j, lhs - rhs)
    # 3 and 4: the actions are derivations of the fibre brackets
    for law, act, br in (("ext-3", rho, h.bracket1), ("ext-4", mu, h.bracket2)):
        for i in range(n):
            for a, b in combinations(range(m), 2):
                diff = derivation_sum(br, act[i], a, b, m)
                if not is_zero_vec(diff):
                    return Verdict(False, Witness(law, (i + 1, a + 1, b + 1), diff))
    # 5: rho({x,y}) + mu([x,y])
    #    = [rho x, mu y] + [mu x, rho y] - ad_h(w2(x,y)) - AD_h(w1(x,y))
    for i, j in pairs:
        lhs = action_of(rho, g.bracket2.bracket_basis(i, j), m) + action_of(
            mu, g.bracket1.bracket_basis(i, j), m
        )
        rhs = (
            rho[i].commutator(mu[j])
            + mu[i].commutator(rho[j])
            - action_of(ad_h, w2.value((i, j)), m)
            - action_of(AD_h, w1.value((i, j)), m)
        )
        if not (lhs - rhs).is_zero():
            return matrix_failure("ext-5", i, j, lhs - rhs)
    # 6: rho(x){u,v} + mu(x)[u,v]
    #    = {rho(x)u, v} + {u, rho(x)v} + [mu(x)u, v] + [u, mu(x)v]
    for i in range(n):
        for a, b in combinations(range(m), 2):
            diff = vadd(
                derivation_sum(h.bracket2, rho[i], a, b, m),
                derivation_sum(h.bracket1, mu[i], a, b, m),
            )
            if not is_zero_vec(diff):
                return Verdict(False, Witness("ext-6", (i + 1, a + 1, b + 1), diff))
    failures = per_triple_cocycle_failures(datum)
    return Verdict(False, Witness(*failures[0])) if failures else OK


def fibre_n2_datum(rho_d, mu_d):
    """Abelian 2-dim base acting on the fibre (N2, 0) by rho(e1) = rho_d,
    mu(e1) = mu_d and zero on e2."""
    z = Matrix.zeros(2, 2)
    return ExtensionDatum(
        abelian(2),
        CompatiblePair(n2(), LieBracket.zero(2)),
        (rho_d, z),
        (mu_d, z),
        Cochain.zero(2, 2, 2),
        Cochain.zero(2, 2, 2),
    )


def action_and_derivation_data():
    """Data failing ext-1, ext-5 (weights of a line that do not vanish on
    [e1, e2] of N2) and ext-3, ext-6 (a nilpotent map that is no
    derivation of N2), as in the CLI's invalid `extend` texts."""
    g = CompatiblePair(n2(), LieBracket.zero(2))
    z1 = Cochain.zero(2, 2, 1)
    one, zero = Matrix([[1]]), Matrix.zeros(1, 1)
    nil = Matrix([[0, 1], [0, 0]])
    z2 = Matrix.zeros(2, 2)
    return [
        ExtensionDatum(g, abelian(1), (one, one), (zero, zero), z1, z1),
        ExtensionDatum(g, abelian(1), (zero, zero), (zero, one), z1, z1),
        fibre_n2_datum(nil, z2),
        fibre_n2_datum(z2, nil),
    ]


def test_nine_equations_match_per_equation_formulas():
    # the Jacobiator blocks must give the witness (law, tuple, value) of
    # the hand-expanded equations, for every one of the nine laws
    rng = Random(223)
    data = [rand_datum(rng) for _ in range(150)] + action_and_derivation_data()
    data += fixed_cocycle_data()
    data += [broken_cocycle_datum(rng, nonabelian=t % 2 == 1) for t in range(20)]
    laws = set()
    for datum in data:
        expected = per_equation_verdict(datum)
        assert validate_extension_datum(datum) == expected
        if expected.witness:
            laws.add(expected.witness.law)
    assert laws == {f"ext-{k}" for k in range(1, 10)}


def test_build_extension_skips_the_second_validation():
    rng = Random(227)
    seen = set()
    for datum in [rand_datum(rng) for _ in range(40)] + action_and_derivation_data():
        expected = per_equation_verdict(datum)
        if expected:
            assert build_extension(datum) == CompatiblePair(*assemble_brackets(datum))
        else:
            with pytest.raises(ValueError) as err:
                build_extension(datum)
            assert str(err.value) == f"invalid extension datum: {expected.describe()}"
        seen.add(expected.ok)
    assert seen == {True, False}


def test_assembled_brackets_equal_the_entrywise_assembly():
    # the tables filed from stored nonzeros equal those filed from every
    # basis value, on random data and on data with zero parts; stored
    # unchecked, they equal the tables the validating Cochain constructor
    # gives, in the same storage order with Fraction values and no zero
    rng = Random(229)
    data = [rand_datum(rng) for _ in range(60)] + action_and_derivation_data()
    data += fixed_cocycle_data()
    data += [broken_cocycle_datum(rng, nonabelian=t % 2 == 1) for t in range(10)]
    data += [
        heisenberg_datum(),
        semidirect_n2_datum(),
        product_datum(abelian(2), abelian(3)),
        product_datum(rand_compatible_pair(rng, 3), rand_compatible_pair(rng, 2)),
    ]
    kinds = set()
    for datum in data:
        got = assemble_brackets(datum)
        assert got == assemble_brackets_entrywise(datum)
        for b, c in zip(got, assemble_brackets_checked(datum)):
            items = list(b.to_cochain().coeffs.items())
            assert items == list(c.to_cochain().coeffs.items())
            assert all(type(x) is Fraction and x for _, x in items)
        entries = [x for a in datum.rho + datum.mu for col in a.columns() for x in col]
        fibre = datum.fibre
        abelian_fibre = fibre.bracket1.is_zero() and fibre.bracket2.is_zero()
        kinds.add(
            (
                datum.base.bracket1.is_zero(),
                abelian_fibre,
                datum.omega1.is_zero() and datum.omega2.is_zero(),
                all(a.is_zero() for a in datum.rho + datum.mu),
                # a nonzero action with zero entries, on either kind of fibre
                (abelian_fibre, 0 in entries and any(entries)),
            )
        )
    for part in range(4):
        assert {k[part] for k in kinds} == {True, False}
    assert {(True, True), (False, True)} <= {k[4] for k in kinds}


def cleared_copy_rows(f: Cochain):
    """The rows clearing f's Fractions gives: `integer_rows` of an
    unchecked copy of its table."""
    copy = Cochain.unchecked(f.arity, f.source_dim, f.target_dim, dict(f.coeffs))
    return copy.integer_rows()


def refuse_clearing(values):
    raise AssertionError("a kept integer form was cleared again")


def test_moved_cochains_keep_the_rows_clearing_gives(monkeypatch):
    # the gauge transform builds its cochains from integer tables: each
    # keeps the rows clearing its Fractions gives and is read with every
    # clearing refused; its actions, built without a second check, equal
    # the validating build, on abelian and nonabelian fibres with zero parts
    rng = Random(349)
    data = [rand_datum(rng) for _ in range(20)] + action_and_derivation_data()
    data += [
        heisenberg_datum(),
        semidirect_n2_datum(),
        product_datum(abelian(2), abelian(3)),
        product_datum(rand_compatible_pair(rng, 3), rand_compatible_pair(rng, 2)),
    ]
    data += [
        wide_datum(rng, rng.randint(1, 3), rng.randint(1, 3), kind)
        for kind in ("zero", "random", "dense")
        for _ in range(4)
    ]
    kinds = set()
    for datum in data:
        n, m = datum.base_dim, datum.fibre_dim
        for xi in (Matrix.zeros(m, n), rand_matrix(rng, m, n)):
            moved = gauge_transform(datum, xi)
            cochains = (moved.omega1, moved.omega2)
            with monkeypatch.context() as mp:
                mp.setattr(multilinear, "cleared", refuse_clearing)
                rows = [w.integer_rows() for w in cochains]
            for w, kept in zip(cochains, rows):
                assert kept == cleared_copy_rows(w)
            for a in moved.rho + moved.mu:
                assert a == Matrix([a.row(k) for k in range(m)])
            fibre = datum.fibre
            kinds.add(
                (
                    fibre.bracket1.is_zero() and fibre.bracket2.is_zero(),
                    all(a.is_zero() for a in moved.rho + moved.mu),
                    moved.omega1.is_zero(),
                )
            )
    for part in range(3):
        assert {k[part] for k in kinds} == {True, False}


def test_jacobi_failure_of_base_or_fibre_is_internal():
    # an unchecked base or fibre whose bracket fails Jacobi puts entries
    # outside the nine blocks: [e1,e2] = e2, [e2,e3] = e1
    bad = LieBracket(3, {(0, 1, 1): 1, (1, 2, 0): 1})
    assert not validate_pair(bad, LieBracket.zero(3)).ok
    unchecked = CompatiblePair.unchecked(bad, LieBracket.zero(3))
    for g, h in ((unchecked, abelian(1)), (abelian(1), unchecked)):
        datum = product_datum(g, h)
        with pytest.raises(InternalCheckError):
            validate_extension_datum(datum)


def test_twisted_differentials_anticommute():
    rng = Random(107)
    for _ in range(4):
        g = rand_compatible_pair(rng, 2)
        h = rand_compatible_pair(rng, rng.randint(1, 2)) if rng.random() < 0.7 else abelian(1)
        for arity in (1, 2):
            d1a, d2a = twisted_boundary_matrices(g, h, arity)
            d1b, d2b = twisted_boundary_matrices(g, h, arity + 1)
            assert (d1b * d2a + d2b * d1a).is_zero()
            assert (d1b * d1a).is_zero()
            assert (d2b * d2a).is_zero()


def test_subcomplex_closure_under_bracket():
    # cochains valued in the fibre that kill pure-fibre inputs stay that way
    # under the graded bracket
    rng = Random(109)
    n, m = 2, 2
    total = n + m
    from itertools import combinations

    def rand_gt(arity):
        coeffs = {}
        for s in combinations(range(total), arity):
            if all(i >= n for i in s):
                continue
            for t in range(n, total):
                if rng.random() < 0.5:
                    coeffs[(s, t)] = rand_fraction(rng, -2, 2)
        return Cochain(arity, total, total, coeffs)

    for _ in range(20):
        p = rand_gt(rng.randint(1, 2))
        q = rand_gt(rng.randint(1, 2))
        br = nr_bracket(p, q)
        for (subset, t), c in br.coeffs.items():
            assert t >= n
            assert any(i < n for i in subset)


# -- extraction ---------------------------------------------------------------


def embed_proj_sigma(n, m):
    embed = Matrix.from_columns(
        [[Fraction(i == n + a) for i in range(n + m)] for a in range(m)],
        rows=n + m,
    )
    proj = Matrix([[Fraction(j == i) for j in range(n + m)] for i in range(n)])
    sigma = Matrix.from_columns(
        [[Fraction(i == j) for i in range(n + m)] for j in range(n)], rows=n + m
    )
    return embed, proj, Section(sigma)


def test_extract_product_gives_zero_cochains():
    g = CompatiblePair(n2(), LieBracket.zero(2))
    datum = product_datum(g, abelian(1))
    ext = build_extension(datum)
    embed, proj, sec = embed_proj_sigma(2, 1)
    got = extract_datum(ext, embed, proj, sec)
    assert got.omega1.is_zero() and got.omega2.is_zero()
    assert all(m.is_zero() for m in got.rho + got.mu)
    assert got.base == g


def test_extract_heisenberg_recovers_cocycle():
    datum = heisenberg_datum()
    ext = build_extension(datum)
    embed, proj, sec = embed_proj_sigma(2, 1)
    got = extract_datum(ext, embed, proj, sec)
    assert got.omega1 == datum.omega1
    assert got.omega2.is_zero()


def test_extract_rejects_bad_section():
    datum = heisenberg_datum()
    ext = build_extension(datum)
    embed, proj, sec = embed_proj_sigma(2, 1)
    bad = Section(sec.sigma.scale(2))
    with pytest.raises(ValueError):
        extract_datum(ext, embed, proj, bad)


def test_extract_rejects_non_ideal():
    # split off a non-ideal line of the Heisenberg extension: embed = e1
    datum = heisenberg_datum()
    ext = build_extension(datum)
    embed = Matrix.from_columns([[1, 0, 0]], rows=3)
    proj = Matrix([[0, 1, 0], [0, 0, 1]])
    sigma = Matrix.from_columns([[0, 1, 0], [0, 0, 1]], rows=3)
    with pytest.raises(ValueError):
        extract_datum(ext, embed, proj, Section(sigma))


def test_section_change_shifts_by_coboundary():
    datum = semidirect_n2_datum()
    ext = build_extension(datum)
    embed, proj, sec = embed_proj_sigma(2, 1)
    xi = Matrix([[2, -3]])
    shifted = sec.shifted(embed, xi)
    moved = extract_datum(ext, embed, proj, shifted)
    rep = RepPair(1, datum.rho, datum.mu)
    v, phi = cocycles_cohomologous(
        datum.base,
        rep,
        (moved.omega1, moved.omega2),
        (datum.omega1, datum.omega2),
    )
    assert v.ok
    # actions do not depend on the section when the fibre is abelian
    assert moved.rho == datum.rho and moved.mu == datum.mu


def test_gauge_equals_section_shift():
    datum = semidirect_n2_datum()
    ext = build_extension(datum)
    embed, proj, sec = embed_proj_sigma(2, 1)
    xi = Matrix([[1, 4]])
    re_extracted = extract_datum(ext, embed, proj, sec.shifted(embed, xi))
    gauged = gauge_transform(datum, xi)
    assert gauged == re_extracted


# -- cohomologous cocycles ------------------------------------------------------


def test_identical_cocycles_are_cohomologous():
    datum = heisenberg_datum()
    rep = RepPair(1, datum.rho, datum.mu)
    v, phi = cocycles_cohomologous(
        datum.base,
        rep,
        (datum.omega1, datum.omega2),
        (datum.omega1, datum.omega2),
    )
    assert v.ok and phi.is_zero()


def test_heisenberg_cocycle_not_trivial():
    # trivial rep over an abelian base: the coboundary space is zero, so
    # w1 != 0 cannot be cohomologous to zero
    datum = heisenberg_datum()
    rep = RepPair(1, datum.rho, datum.mu)
    v, phi = cocycles_cohomologous(
        datum.base,
        rep,
        (datum.omega1, datum.omega2),
        (Cochain.zero(2, 2, 1), Cochain.zero(2, 2, 1)),
    )
    assert not v.ok and phi is None


def test_cocycle_check_rejects_nonclosed_input():
    # on sl2 semidirect its adjoint fibre, w1(e1,e2)=f1 is not closed
    from support import sl2

    g = CompatiblePair(sl2(), LieBracket.zero(3))
    rep = adjoint_rep(g)
    w = Cochain(2, 3, 3, {((0, 1), 0): 1})
    with pytest.raises(ValueError):
        cocycles_cohomologous(
            g, rep, (w, Cochain.zero(2, 3, 3)), (Cochain.zero(2, 3, 3),) * 2
        )


# -- gauge action ----------------------------------------------------------------


def test_gauge_zero_is_identity():
    datum = semidirect_n2_datum()
    assert gauge_transform(datum, Matrix.zeros(1, 2)) == datum


def test_gauge_abelian_fibre_shifts_by_coboundary():
    # with an abelian fibre the quadratic term vanishes and
    # w1' - w1 = d^1 xi for the (pi1, rho) coboundary
    datum = semidirect_n2_datum()
    xi = Matrix([[5, -2]])
    out = gauge_transform(datum, xi)
    xi_c = Cochain.from_matrix(xi)
    d_xi = ce_coboundary(datum.base.bracket1.to_cochain(), datum.rho, xi_c)
    assert out.omega1 - datum.omega1 == d_xi
    assert out.rho == datum.rho  # ad_h = 0


def test_gauge_closed_form_matches_graded_route_and_series():
    rng = Random(113)
    for _ in range(12):
        g = rand_compatible_pair(rng, 2)
        h = rand_compatible_pair(rng, 2)
        datum = product_datum(g, h)
        if rng.random() < 0.5:
            datum = adjoint_datum(g)
            h = datum.fibre
        xi = rand_matrix(rng, datum.fibre_dim, datum.base_dim, -2, 2)
        a = gauge_transform(datum, xi)
        b = gauge_transform_nr(datum, xi)
        c = gauge_transform_series(datum, xi, terms=4)
        assert a == b == c


def test_gauge_preserves_validity_and_inverts():
    rng = Random(127)
    for _ in range(10):
        g = rand_compatible_pair(rng, 2)
        h = rand_compatible_pair(rng, rng.randint(1, 2)) if rng.random() < 0.5 else abelian(1)
        datum = product_datum(g, h)
        xi = rand_matrix(rng, datum.fibre_dim, datum.base_dim, -1, 1)
        moved = gauge_transform(datum, xi)
        assert validate_extension_datum(moved).ok
        # the closed form is an action of (Hom(g, h), +), so gauging by -xi
        # comes back for every fibre, abelian or not
        assert gauge_transform(moved, xi.scale(-1)) == datum
        assert extensions_isomorphic_under(datum, moved, xi).ok


def wide_datum(rng: Random, n: int, m: int, fibre_kind: str) -> ExtensionDatum:
    """Unvalidated data (the closed form needs no validity): base brackets
    of any kind, fibre brackets of `fibre_kind`, wide actions and cochains."""
    kinds = ("zero", "random", "dense")
    g = CompatiblePair.unchecked(
        rand_wide_bracket(rng, n, rng.choice(kinds)),
        rand_wide_bracket(rng, n, rng.choice(kinds)),
    )
    h = CompatiblePair.unchecked(
        rand_wide_bracket(rng, m, fibre_kind), rand_wide_bracket(rng, m, fibre_kind)
    )
    rho, mu = (tuple(rand_wide_matrix(rng, m, m) for _ in range(n)) for _ in range(2))
    w1, w2 = rand_wide_cochain(rng, n, m), rand_wide_cochain(rng, n, m)
    return ExtensionDatum(g, h, rho, mu, w1, w2)


def test_gauge_composes_additively():
    # T_xi2 T_xi1 = T_(xi1 + xi2) and T_-xi T_xi = Id on valid data with
    # nonabelian fibres and on unvalidated wide data
    rng = Random(131)
    nonabelian = 0
    for case in range(24):
        if case % 2:
            n, m = rng.randint(1, 3), rng.randint(2, 3)
            datum = wide_datum(rng, n, m, ("random", "dense")[case % 4 // 2])
        else:
            g = rand_compatible_pair(rng, 2)
            datum = product_datum(g, rand_compatible_pair(rng, rng.randint(2, 3)))
            n, m = datum.base_dim, datum.fibre_dim
        h = datum.fibre
        nonabelian += not (h.bracket1.is_zero() and h.bracket2.is_zero())
        xi1, xi2 = rand_matrix(rng, m, n), rand_matrix(rng, m, n)
        once = gauge_transform(datum, xi1)
        assert gauge_transform(once, xi2) == gauge_transform(datum, xi1 + xi2)
        assert gauge_transform(once, xi1.scale(-1)) == datum
    assert nonabelian >= 20


def test_gauge_transform_equals_the_fraction_sum():
    # equal data and the same storage order as the rational sum, on base
    # and fibre dims 1-5, abelian, random and conjugated catalog fibres,
    # mixed denominators, entries near 2^80 and xi = 0
    rng = Random(137)
    kinds = ("zero", "random", "dense")
    moved_cochains = 0
    for n in range(1, 6):
        for m in range(1, 6):
            for case in range(3):
                datum = wide_datum(rng, n, m, kinds[(n + m + case) % 3])
                xi = Matrix.zeros(m, n) if case == 0 else rand_wide_matrix(rng, m, n)
                got = gauge_transform(datum, xi)
                want = gauge_transform_fraction(datum, xi)
                assert got == want
                for w, w_want in ((got.omega1, want.omega1), (got.omega2, want.omega2)):
                    assert list(w.coeffs.items()) == list(w_want.coeffs.items())
                moved_cochains += got.omega1 != datum.omega1
    assert moved_cochains >= 20


def scaled_semidirect_datum():
    """Like the semidirect fixture but rho(e1) = 2, so the degree-1
    coboundary is nonzero and the gauge orbit genuinely moves."""
    g = CompatiblePair(n2(), LieBracket.zero(2))
    h = abelian(1)
    rho = (Matrix([[2]]), Matrix.zeros(1, 1))
    mu = (Matrix.zeros(1, 1), Matrix.zeros(1, 1))
    return ExtensionDatum(
        g, h, rho, mu, Cochain.zero(2, 2, 1), Cochain.zero(2, 2, 1)
    )


def test_isomorphic_under_examples():
    datum = scaled_semidirect_datum()
    assert extensions_isomorphic_under(datum, datum, Matrix.zeros(1, 2)).ok
    xi = Matrix([[3, 1]])
    moved = gauge_transform(datum, xi)
    assert moved != datum
    assert extensions_isomorphic_under(datum, moved, xi).ok
    # wrong xi fails with a witness
    v = extensions_isomorphic_under(datum, moved, Matrix.zeros(1, 2))
    assert not v.ok and v.witness.law == "iso-3"


def test_isomorphic_under_detects_nontrivial_class():
    # Heisenberg cocycle vs zero cocycle: no xi can relate them; check the
    # displayed equations fail for a few candidate xi
    datum = heisenberg_datum()
    other = product_datum(datum.base, datum.fibre)
    for xi_entries in ([[0, 0]], [[1, 0]], [[2, -1]]):
        v = extensions_isomorphic_under(datum, other, Matrix(xi_entries))
        assert not v.ok and v.witness.law == "iso-3"


def test_isomorphism_witnesses_match_the_difference_equations():
    # extensions_isomorphic_under compares with gauge_transform; the
    # witness (law, tuple, value) must be the one the written-out
    # difference equations give, for each of the four laws
    rng = Random(229)
    laws = set()
    for t in range(60):
        g = rand_compatible_pair(rng, rng.randint(2, 3))
        h = rand_compatible_pair(rng, 2) if t % 3 else abelian(rng.randint(1, 2))
        n, m = g.dim, h.dim
        datum = gauge_transform(product_datum(g, h), rand_matrix(rng, m, n, -1, 1))
        xi = rand_matrix(rng, m, n, -2, 2)
        moved = gauge_transform(datum, xi)
        rho, mu = list(moved.rho), list(moved.mu)
        w1, w2 = moved.omega1, moved.omega2
        bump = Cochain(2, n, m, {((0, n - 1), rng.randrange(m)): rng.choice([-1, 2])})
        kind = t % 5
        if kind == 1:
            rho[rng.randrange(n)] = rand_matrix(rng, m, m, -1, 1)
        elif kind == 2:
            mu[rng.randrange(n)] = rand_matrix(rng, m, m, -1, 1)
        elif kind == 3:
            w1 = w1 + bump
        elif kind == 4:
            w2 = w2 + bump
        other = ExtensionDatum(g, h, tuple(rho), tuple(mu), w1, w2)
        expected = difference_equations_verdict(datum, other, xi)
        assert extensions_isomorphic_under(datum, other, xi) == expected
        laws.add(expected.witness.law if expected.witness else "ok")
    assert laws == {"ok", "iso-1", "iso-2", "iso-3", "iso-4"}


def test_theta_check_catches_each_perturbed_piece():
    # theta intertwines a datum with its gauge transform; one changed entry
    # of the transform's omega1, rho or mu breaks it, for an abelian and a
    # nonabelian fibre, and the integer check agrees with the matrix route
    rng = Random(233)
    for t in range(16):
        g = rand_compatible_pair(rng, rng.randint(2, 3))
        if t % 2:
            h = rand_compatible_pair(rng, 2)
            while h.bracket1.is_zero() and h.bracket2.is_zero():
                h = rand_compatible_pair(rng, 2)
        else:
            h = abelian(rng.randint(1, 2))
        n, m = g.dim, h.dim
        datum = gauge_transform(product_datum(g, h), rand_matrix(rng, m, n, -1, 1))
        xi = rand_matrix(rng, m, n, -2, 2)
        moved = gauge_transform(datum, xi)
        assert _theta_intertwines(datum, moved, xi) == OK
        assert theta_intertwines_matrix(datum, moved, xi)
        delta = rand_fraction(rng, 1, 3)
        bump = Matrix(
            [[delta if (r, c) == (0, m - 1) else 0 for c in range(m)] for r in range(m)]
        )
        i = rng.randrange(n)
        rho, mu = list(moved.rho), list(moved.mu)
        rho[i] = rho[i] + bump
        mu[i] = mu[i] + bump
        base, fibre, w1, w2 = moved.base, moved.fibre, moved.omega1, moved.omega2
        bump_w1 = w1 + Cochain(2, n, m, {((0, n - 1), rng.randrange(m)): delta})
        for bad in (
            ExtensionDatum(base, fibre, moved.rho, moved.mu, bump_w1, w2),
            ExtensionDatum(base, fibre, tuple(rho), moved.mu, w1, w2),
            ExtensionDatum(base, fibre, moved.rho, tuple(mu), w1, w2),
        ):
            assert not theta_intertwines_matrix(datum, bad, xi)
            with pytest.raises(InternalCheckError):
                _theta_intertwines(datum, bad, xi)
        # another xi: both routes give the same answer
        other = rand_matrix(rng, m, n, -2, 2)
        if theta_intertwines_matrix(datum, moved, other):
            assert _theta_intertwines(datum, moved, other) == OK
        else:
            with pytest.raises(InternalCheckError):
                _theta_intertwines(datum, moved, other)
