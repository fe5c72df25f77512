from fractions import Fraction
from itertools import combinations, permutations
from random import Random

import pytest

from compatlie import multilinear
from compatlie.core import LieBracket, adjoint_rep, CompatiblePair
from compatlie.linalg import Matrix, cleared, vec, vzero
from compatlie.multilinear import (
    Cochain,
    add_value,
    ce_coboundary,
    nr_bracket,
    nr_compose,
)
from oracles import (
    Bidegree,
    BiMap,
    bidegree_of,
    ce_adjoint,
    ce_coboundary_nr,
    eval_vectors_fraction,
    eval_vectors_index_expansion,
    lift_endo_cochain,
    lift_linear_map,
    lift_module_cochain,
    lift_rep,
    lift_side2_bracket,
    module_component,
    nr_bracket_fraction,
    nr_compose_fraction,
    nr_compose_unshuffle_sum,
    perm_sign,
    unshuffles,
)
from support import (
    direct_sum,
    heisenberg3,
    n2,
    rand_cochain,
    rand_compatible_pair,
    rand_invertible,
    rand_rep,
    sl2,
)


def brute_unshuffles(i, n):
    """Oracle: filter all n! permutations, sign by inversion count."""
    out = set()
    for p in permutations(range(n)):
        if list(p[:i]) == sorted(p[:i]) and list(p[i:]) == sorted(p[i:]):
            out.add((p, perm_sign(p)))
    return out


def test_unshuffles_against_bruteforce():
    for n in range(0, 6):
        for i in range(0, n + 1):
            got = set(unshuffles(i, n))
            assert got == brute_unshuffles(i, n)
            assert len(got) == len(brute_unshuffles(i, n))


def test_unshuffles_spec_cases():
    assert unshuffles(0, 3) == [(((0, 1, 2)), 1)] or unshuffles(0, 3) == [
        ((0, 1, 2), 1)
    ]
    one_two = dict(unshuffles(1, 2))
    assert one_two == {(0, 1): 1, (1, 0): -1}
    two_four = unshuffles(2, 4)
    assert len(two_four) == 6
    # enumerated by the brute-force oracle: the six signs are
    # +1,-1,+1,+1,-1,+1 and sum to 2
    assert sum(s for _, s in brute_unshuffles(2, 4)) == 2
    assert sum(s for _, s in two_four) == 2


def test_nr_compose_matches_unshuffle_sum():
    rng = Random(47)
    seen = set()
    for _ in range(240):
        dim = rng.randint(1, 6)
        a, b = rng.randint(0, 3), rng.randint(0, 3)
        p = rand_cochain(rng, a, dim, density=rng.choice((0.2, 0.6, 1.0)))
        q = rand_cochain(rng, b, dim, density=rng.choice((0.2, 0.6, 1.0)))
        got = nr_compose(p, q)
        assert got == nr_compose_unshuffle_sum(p, q)
        assert got.arity == max(a + b - 1, 0)
        assert all(type(c) is Fraction for c in got.coeffs.values())
        seen.add(((a - 1) % 2, (b - 1) % 2, got.is_zero()))
    # both parities of both factors, with zero and nonzero results
    assert {(x, y) for x, y, _ in seen} == {(0, 0), (0, 1), (1, 0), (1, 1)}
    assert {z for _, _, z in seen} == {False, True}


def test_nr_compose_zero_and_arity_zero_cases():
    rng = Random(53)
    for dim in range(1, 5):
        for a in range(4):
            for b in range(4):
                p = rand_cochain(rng, a, dim)
                q = rand_cochain(rng, b, dim)
                zp, zq = Cochain.zero(a, dim, dim), Cochain.zero(b, dim, dim)
                for x, y in ((p, q), (zp, q), (p, zq), (zp, zq)):
                    assert nr_compose(x, y) == nr_compose_unshuffle_sum(x, y)
    # an element (arity 0) has no slot; P . v is P with v in the first
    # slot: on n2, [e1 + 2 e2, e1] = -2 e2 and [e1 + 2 e2, e2] = e2
    v = Cochain.from_element(vec([1, 2]), 2)
    pi = n2().to_cochain()
    assert nr_compose(v, pi) == Cochain.zero(1, 2, 2)
    assert nr_compose(pi, v) == Cochain(1, 2, 2, {((0,), 1): -2, ((1,), 1): 1})
    assert nr_compose(pi, v) == nr_compose_unshuffle_sum(pi, v)


def test_nr_compose_equals_the_fraction_scatter():
    # equal cochains with equal storage order, Fraction values and no
    # stored zero, against the rational scatter the integer one replaced
    def same(p, q):
        got, want = nr_compose(p, q), nr_compose_fraction(p, q)
        assert got == want
        assert list(got.coeffs.items()) == list(want.coeffs.items())
        assert all(type(c) is Fraction and c for c in got.coeffs.values())
        return got

    rng = Random(61)
    big = 2**80
    for _ in range(150):
        # dims up to 8, the size of an assembled extension; arity 0 on
        # either side; denominators 1..6 mixed within one cochain
        dim = rng.randint(1, 8)
        top = 3 if dim <= 5 else 2
        a, b = rng.randint(0, top), rng.randint(0, top)
        density = rng.choice((0.2, 0.6, 1.0))
        p = rand_cochain(rng, a, dim, density=density)
        q = rand_cochain(rng, b, dim, density=density)
        p = Cochain(
            a, dim, dim, {key: c / rng.randint(1, 6) for key, c in p.coeffs.items()}
        )
        same(p, q)
        same(q, p)
        same(p, p)  # p is q
        same(p, Cochain.zero(b, dim, dim))
        same(Cochain.zero(a, dim, dim), q)
        # entries near 2^80, with denominators of the same size
        huge = Cochain(
            a,
            dim,
            dim,
            {
                key: Fraction(big + rng.randint(-9, 9), big - rng.randint(1, 9)) * c
                for key, c in p.coeffs.items()
            },
        )
        same(huge, q)
        same(q, huge)
    # a Lie bracket composed with itself is its Jacobiator, zero: every
    # scattered term cancels, dense in a GL(6)-conjugated basis
    base = direct_sum(sl2(), heisenberg3())
    dense = base.conjugate(rand_invertible(Random(3), 6))
    for pi in (base.to_cochain(), dense.to_cochain()):
        assert pi.coeffs
        assert same(pi, pi).coeffs == {}
    # compatible brackets: P1.P2 = -P2.P1 with some sums cancelling
    for dim in (3, 4):
        pair = rand_compatible_pair(rng, dim)
        p1, p2 = pair.bracket1.to_cochain(), pair.bracket2.to_cochain()
        assert same(p1, p2) == same(p2, p1).scale(-1)


def test_nr_bracket_equals_the_fraction_brackets():
    # one integer table per bracket against the rational sum
    # nr_compose_fraction(p, q) - (-1)^{pq} nr_compose_fraction(q, p):
    # equal cochains in lexicographic storage order, Fraction values and
    # no stored zero, on the shape mix of the composition's test
    def same(p, q):
        got, want = nr_bracket(p, q), nr_bracket_fraction(p, q)
        assert got == want
        assert list(got.coeffs.items()) == list(want.coeffs.items())
        assert all(type(c) is Fraction and c for c in got.coeffs.values())
        return got

    rng = Random(67)
    big = 2**80
    seen = set()
    for _ in range(40):
        dim = rng.randint(1, 8)
        top = 3 if dim <= 5 else 2
        a, b = rng.randint(0, top), rng.randint(0, top)
        density = rng.choice((0.2, 0.6, 1.0))
        p = rand_cochain(rng, a, dim, density=density)
        q = rand_cochain(rng, b, dim, density=density)
        p = Cochain(
            a, dim, dim, {key: c / rng.randint(1, 6) for key, c in p.coeffs.items()}
        )
        huge = Cochain(
            a,
            dim,
            dim,
            {
                key: Fraction(big + rng.randint(-9, 9), big - rng.randint(1, 9)) * c
                for key, c in p.coeffs.items()
            },
        )
        for x, y in (
            (p, q),
            (q, p),
            (p, p),  # p is q: one scatter, doubled in odd degree
            (huge, huge),
            (huge, q),
            (q, huge),
            (p, Cochain.zero(b, dim, dim)),
            (Cochain.zero(a, dim, dim), q),
        ):
            got = same(x, y)
            seen.add((x is y, (x.arity - 1) * (y.arity - 1) % 2, got.is_zero()))
    # a self-bracket of either parity, and nonzero brackets of distinct
    # operands in both parities
    assert {(True, 0, True), (True, 1, False)} <= seen
    assert {(False, 0, False), (False, 1, False)} <= seen
    # a Lie bracket's Jacobiator and a compatible pair's mixed bracket
    # vanish: every scattered term cancels in the one table
    base = direct_sum(sl2(), heisenberg3())
    dense = base.conjugate(rand_invertible(Random(3), 6))
    for pi in (base.to_cochain(), dense.to_cochain()):
        assert same(pi, pi).coeffs == {}
    for dim in (3, 4):
        pair = rand_compatible_pair(rng, dim)
        p1, p2 = pair.bracket1.to_cochain(), pair.bracket2.to_cochain()
        assert same(p1, p2).coeffs == {}


def test_cochain_rejects_each_malformed_entry():
    # each distinct subset is checked once, but a malformed entry still
    # raises today's message, also after a valid entry with its subset;
    # zero entries are dropped unchecked
    valid = {((0, 1), 0): 1}
    cases = [
        (((1, 0), 0), "subset (1, 0) is not increasing of size 2"),
        (((0, 0), 0), "subset (0, 0) is not increasing of size 2"),
        (((0,), 0), "subset (0,) is not increasing of size 2"),
        (((0, 1, 2), 0), "subset (0, 1, 2) is not increasing of size 2"),
        (((0, 3), 0), "index out of range"),
        (((-1, 1), 0), "index out of range"),
        (((0, 1), 3), "index out of range"),
        (((0, 1), -1), "index out of range"),
        (((1, 2), 5), "index out of range"),
    ]
    for key, message in cases:
        for coeffs in ({key: 2}, {**valid, key: 2}, {((1, 2), 1): 1, **valid, key: 2}):
            with pytest.raises(ValueError) as err:
                Cochain(2, 3, 3, coeffs)
            assert str(err.value) == message, (key, coeffs)
        assert Cochain(2, 3, 3, {**valid, key: 0}) == Cochain(2, 3, 3, valid)

    # list subsets are read as tuples
    class Items:
        def __init__(self, items):
            self._items = items

        def items(self):
            return self._items

    listed = Cochain(
        2, 3, 3, Items([(([0, 1], 0), 1), (([0, 1], 2), Fraction(1, 2)), (([1, 2], 1), 3)])
    )
    assert list(listed.coeffs) == [((0, 1), 0), ((0, 1), 2), ((1, 2), 1)]
    assert listed == Cochain(
        2, 3, 3, {((0, 1), 0): 1, ((0, 1), 2): Fraction(1, 2), ((1, 2), 1): 3}
    )
    with pytest.raises(ValueError, match="index out of range"):
        Cochain(2, 3, 3, Items([(([0, 1], 0), 1), (([0, 1], 3), 1)]))


def test_nr_compose_with_a_warm_merge_memo_equals_the_fraction_scatter():
    # the merge signs are kept for the process, keyed by the merged index
    # tuple alone: one seeded sequence interleaves dims 1-8 and arities
    # 0-3, so each case meets a memo filled by other shapes
    multilinear._merge_sign.cache_clear()
    rng = Random(83)
    shapes = [(dim, a, b) for dim in range(1, 9) for a in range(4) for b in range(4)]
    rng.shuffle(shapes)
    warm = set()
    for dim, a, b in shapes + shapes[::-1]:
        p = rand_cochain(rng, a, dim, density=rng.choice((0.3, 1.0)))
        q = rand_cochain(rng, b, dim, density=rng.choice((0.3, 1.0)))
        if multilinear._merge_sign.cache_info().currsize:
            warm.add((dim, a, b))
        for x, y in ((p, q), (q, p)):
            got, want = nr_compose(x, y), nr_compose_fraction(x, y)
            assert got == want, (dim, x.arity, y.arity)
            assert list(got.coeffs.items()) == list(want.coeffs.items())
    info = multilinear._merge_sign.cache_info()
    assert warm == set(shapes)
    assert info.hits > info.misses > 0
    assert info.currsize <= info.maxsize


def test_nr_compose_reads_the_operands_kept_integer_rows():
    # operands whose integer rows were built before the call: the same
    # result as the rational scatter, in storage order, and the kept rows
    # are neither rebuilt nor changed
    rng = Random(71)
    for _ in range(60):
        dim = rng.randint(1, 6)
        a, b = rng.randint(1, 3 if dim <= 5 else 2), rng.randint(0, 3)
        p = rand_cochain(rng, a, dim, density=rng.choice((0.3, 1.0)))
        q = rand_cochain(rng, b, dim, density=rng.choice((0.3, 1.0)))
        p = Cochain(
            a, dim, dim, {key: c / rng.randint(1, 6) for key, c in p.coeffs.items()}
        )
        kept = {}
        for f in (p, q):
            rows = f.integer_rows()
            kept[id(f)] = (rows, rows[0], dict(rows[1]))
        for x, y in ((p, q), (q, p), (p, p)):
            got, want = nr_compose(x, y), nr_compose_fraction(x, y)
            assert list(got.coeffs.items()) == list(want.coeffs.items())
        for f in (p, q):
            rows, den, table = kept[id(f)]
            assert f.integer_rows() is rows
            assert rows[0] == den and rows[1] == table


def cleared_copy_rows(f: Cochain):
    """The rows clearing f's Fractions gives: `integer_rows` of an
    unchecked copy of its table."""
    copy = Cochain.unchecked(f.arity, f.source_dim, f.target_dim, dict(f.coeffs))
    return copy.integer_rows()


def refuse_clearing(values):
    raise AssertionError("an integer-built cochain was cleared again")


def test_integer_built_cochains_keep_the_rows_clearing_gives(monkeypatch):
    # from_integer_values and the NR scatters keep their table, reduced by
    # the gcd of the denominator and every value, as the cochain's integer
    # rows: equal to clearing the built Fractions, in the same order, and
    # read with every clearing refused
    rng = Random(347)
    cases = [
        (2, 3, 12, {}),
        (2, 3, 12, {(0, 1): {0: 0, 2: 0}}),
        # the denominator shares 6 with every value; targets out of order
        (2, 3, 12, {(1, 2): {1: 30}, (0, 1): {2: -18, 0: 6}}),
        (2, 3, 8, {(0, 2): {1: -4, 0: 12, 2: 0}}),
        (1, 2, 1, {(1,): {0: -3}}),
        (0, 2, 5, {(): {1: 10, 0: -5}}),
        (3, 4, 7, {(0, 1, 3): {2: 5}, (0, 1, 2): {1: -7, 0: 0}}),
    ]
    for _ in range(60):
        dim, arity = rng.randint(1, 5), rng.randint(0, 3)
        common = rng.choice((1, 2, 3, 6, 35))
        den = common * rng.choice((1, 2, 5, 12, 2**70 + 1))
        subsets = list(combinations(range(dim), arity))
        values = {
            s: {
                k: common * rng.randint(-9, 9)
                for k in rng.sample(range(dim), rng.randint(0, dim))
            }
            for s in rng.sample(subsets, rng.randint(0, len(subsets)))
        }
        cases.append((arity, dim, den, values))
    built = [Cochain.from_integer_values(a, n, n, den, v) for a, n, den, v in cases]
    for _ in range(30):
        dim = rng.randint(1, 5)
        p = rand_cochain(rng, rng.randint(0, 3), dim, density=rng.choice((0.3, 1.0)))
        q = rand_cochain(rng, rng.randint(0, 3), dim, density=rng.choice((0.3, 1.0)))
        p = Cochain(
            p.arity,
            dim,
            dim,
            {key: c / rng.randint(1, 6) for key, c in p.coeffs.items()},
        )
        p.integer_rows(), q.integer_rows()
        built += [nr_bracket(p, q), nr_bracket(p, p), nr_compose(q, p)]
    expected = [cleared_copy_rows(f) for f in built]
    reduced = 0
    with monkeypatch.context() as mp:
        mp.setattr(multilinear, "cleared", refuse_clearing)
        for f, want, case in zip(built, expected, cases + [None] * len(built)):
            assert f.integer_rows() == want
            for row, want_row in zip(f.integer_rows()[1].values(), want[1].values()):
                assert type(row) is tuple and row == want_row
            if case is not None and f.integer_rows()[0] != case[2]:
                reduced += 1
    assert reduced >= 10
    assert expected[0] == (1, {}) and expected[1] == (1, {})
    assert expected[2] == (2, {(0, 1): ((0, 1), (2, -3)), (1, 2): ((1, 5),)})


def test_add_value_equals_the_fraction_sums():
    # add_value at arities 0-3 on cleared arguments, over the cochain's
    # integer rows, against the rational sum and the index expansion:
    # repeated indices, zero vectors, mixed denominators and a factor
    rng = Random(73)

    def draw(dim):
        return tuple(
            Fraction(rng.randint(-5, 5), rng.randint(1, 6))
            if rng.random() < 0.6
            else Fraction(0)
            for _ in range(dim)
        )

    def summed(f, vectors, factor):
        den, rows = f.integer_rows()
        terms, scale = [], den
        for v in vectors:
            lv, nums = cleared(v)
            terms.append([(i, x) for i, x in enumerate(nums) if x])
            scale *= lv
        acc = {}
        add_value(acc, rows, terms, factor)
        assert all(0 <= k < f.target_dim for k in acc)
        return tuple(Fraction(acc.get(k, 0), scale) for k in range(f.target_dim))

    seen = set()
    for _ in range(160):
        dim = rng.randint(1, 6)
        arity = rng.randint(0, 3)
        td = rng.randint(1, 4)
        f = rand_cochain(rng, arity, dim, td, density=rng.choice((0.2, 0.6, 1.0)))
        f = Cochain(
            arity, dim, td, {key: c / rng.randint(1, 6) for key, c in f.coeffs.items()}
        )
        vectors = [draw(dim) for _ in range(arity)]
        if arity >= 2 and rng.random() < 0.3:
            vectors[1] = vectors[0]
            seen.add("repeated")
        if arity and rng.random() < 0.2:
            vectors[rng.randrange(arity)] = vzero(dim)
            seen.add("zero")
        factor = rng.choice((1, -1, 3, -7))
        want = eval_vectors_fraction(f, vectors)
        assert want == eval_vectors_index_expansion(f, vectors)
        assert summed(f, vectors, factor) == tuple(factor * x for x in want)
        seen.add(arity)
    # basis vectors with one index repeated: the alternating value vanishes
    f = rand_cochain(rng, 3, 4, 2, density=1.0)
    acc = {}
    add_value(acc, f.integer_rows()[1], [[(1, 1)], [(2, 5)], [(1, 3)]])
    assert acc == {}
    assert seen >= {0, 1, 2, 3, "repeated", "zero"}


def test_eval_vectors_matches_index_expansion():
    # the integer evaluation against the rational sum it replaced and the
    # sum over every index tuple: equal Fraction values, none an int,
    # before and after the cached integer rows are built
    rng = Random(67)
    big = 2**80

    def same(f, vectors):
        got = f.eval_vectors(vectors)
        assert got == eval_vectors_fraction(f, vectors)
        assert got == eval_vectors_index_expansion(f, vectors)
        assert len(got) == f.target_dim
        assert all(type(c) is Fraction for c in got)
        return got

    def draw(dim):
        # denominators 1..6 mixed within one vector, some coordinates zero
        return tuple(
            Fraction(rng.randint(-5, 5), rng.randint(1, 6))
            if rng.random() < 0.6
            else Fraction(0)
            for _ in range(dim)
        )

    for _ in range(120):
        dim = rng.randint(1, 8)
        arity = rng.randint(0, 3 if dim <= 6 else 2)
        td = rng.randint(1, 4)
        f = rand_cochain(rng, arity, dim, td, density=rng.choice((0.2, 0.6, 1.0)))
        f = Cochain(
            arity, dim, td, {key: c / rng.randint(1, 6) for key, c in f.coeffs.items()}
        )
        vectors = [draw(dim) for _ in range(arity)]
        first = same(f, vectors)
        # the table built on the first call answers the same and others
        rows = f.integer_rows()
        assert same(f, vectors) == first
        assert f.integer_rows() is rows
        same(f, [draw(dim) for _ in range(arity)])
        if arity:
            zeroed = list(vectors)
            zeroed[rng.randrange(arity)] = vzero(dim)
            assert same(f, zeroed) == vzero(td)
        if arity >= 2:
            # a repeated argument: the alternating value vanishes
            repeated = list(vectors)
            repeated[1] = repeated[0]
            assert same(f, repeated) == vzero(td)
        same(Cochain.zero(arity, dim, td), vectors)
        # entries near 2^80 in both the cochain and the arguments
        huge = Cochain(
            arity,
            dim,
            td,
            {
                key: Fraction(big + rng.randint(-9, 9), big - rng.randint(1, 9)) * c
                for key, c in f.coeffs.items()
            },
        )
        same(huge, vectors)
        same(f, [tuple(x * (big + rng.randint(1, 9)) for x in v) for v in vectors])
    # a bracket on basis columns and general vectors, before and after a
    # GL(6) change of basis makes its table dense
    base = direct_sum(sl2(), heisenberg3())
    g = rand_invertible(Random(3), 6)
    for b in (base, base.conjugate(g)):
        pi = b.to_cochain()
        for i in range(6):
            same(pi, (g.column(i), g.column(5 - i)))
            same(pi, (draw(6), draw(6)))


def test_compose_with_zero_is_zero():
    rng = Random(3)
    p = rand_cochain(rng, 2, 3)
    z = Cochain.zero(2, 3, 3)
    assert nr_compose(p, z).is_zero()
    assert nr_compose(z, p).is_zero()


def test_compose_linear_maps_is_matrix_product():
    a = Matrix([[1, 2], [0, 1]])
    b = Matrix([[3, 0], [1, 1]])
    pa, pb = Cochain.from_matrix(a), Cochain.from_matrix(b)
    assert nr_compose(pa, pb) == Cochain.from_matrix(a * b)


def test_sl2_compose_vanishes():
    # pi.pi(e1,e2,e3) = pi(pi(e1,e2),e3) - pi(pi(e1,e3),e2) + pi(pi(e2,e3),e1)
    #                 = pi(2e2,e3) - pi(-2e3,e2) + pi(e1,e1) = 2e1 - 2e1 + 0 = 0
    pi = sl2().to_cochain()
    assert nr_compose(pi, pi).is_zero()
    assert nr_bracket(pi, pi).is_zero()


def test_bracket_with_operator_example():
    # N2 with N = diag(1, 0): [pi, N](e1,e2) = [Ne1,e2] + [e1,Ne2] - N[e1,e2]
    #                                        = e2 + 0 - 0 = e2
    pi = n2().to_cochain()
    n_op = Cochain.from_matrix(Matrix([[1, 0], [0, 0]]))
    b = nr_bracket(pi, n_op)
    assert b.value((0, 1)) == vec([0, 1])


def test_graded_antisymmetry_random():
    rng = Random(11)
    for _ in range(60):
        dim = rng.randint(1, 3)
        p = rand_cochain(rng, rng.randint(0, 3), dim)
        q = rand_cochain(rng, rng.randint(0, 3), dim)
        pq = (p.arity - 1) * (q.arity - 1)
        lhs = nr_bracket(p, q)
        rhs = nr_bracket(q, p).scale(-1 if pq % 2 == 0 else 1)
        assert lhs == rhs


def test_self_bracket_equals_two_composition_formula():
    # nr_bracket(p, p) composes once; the reference composes twice and
    # combines P.P - (-1)^{pp} P.P
    rng = Random(17)
    seen = set()
    for arity in range(4):
        for _ in range(6):
            dim = rng.randint(1, 3)
            p = rand_cochain(rng, arity, dim)
            pp = (arity - 1) * (arity - 1)
            left, right = nr_compose(p, p), nr_compose(p, p)
            expected = left - right if pp % 2 == 0 else left + right
            got = nr_bracket(p, p)
            assert got == expected
            assert got == nr_bracket(p, Cochain(arity, dim, dim, p.coeffs))
            seen.add((pp % 2, got.is_zero()))
    # even degree gives zero; odd degree gives nonzero results too
    assert seen >= {(0, True), (1, False)}


def test_even_degree_self_bracket_composes_nothing(monkeypatch):
    # [P, P] = P.P - P.P vanishes in even degree (odd arity) and is returned
    # without composing; odd degree composes once
    calls = []
    scatter = multilinear._add_composition

    def counted(table, p, q, factor):
        calls.append((p.arity, q.arity))
        return scatter(table, p, q, factor)

    monkeypatch.setattr(multilinear, "_add_composition", counted)
    rng = Random(19)
    for arity in range(5):
        p = rand_cochain(rng, arity, 3)
        calls.clear()
        got = nr_bracket(p, p)
        if arity % 2:
            assert got == Cochain.zero(2 * arity - 1, 3, 3) and calls == []
        else:
            assert calls == [(arity, arity)]
    # the shape check still holds without the composition
    with pytest.raises(ValueError, match="endomorphism-valued"):
        nr_bracket(*[Cochain(1, 2, 3, {((0,), 2): 1})] * 2)


def test_graded_jacobi_random():
    rng = Random(13)
    for _ in range(40):
        dim = rng.randint(1, 3)
        p = rand_cochain(rng, rng.randint(1, 2), dim)
        q = rand_cochain(rng, rng.randint(1, 2), dim)
        r = rand_cochain(rng, rng.randint(1, 2), dim)
        dp, dq, dr = p.arity - 1, q.arity - 1, r.arity - 1
        t1 = nr_bracket(nr_bracket(p, q), r).scale((-1) ** (dp * dr))
        t2 = nr_bracket(nr_bracket(q, r), p).scale((-1) ** (dq * dp))
        t3 = nr_bracket(nr_bracket(r, p), q).scale((-1) ** (dr * dq))
        assert (t1 + t2 + t3).is_zero()


def test_lift_alpha_formula():
    # lift of alpha: wedge^2 g1 -> g1 acts as ((x1,v1),(x2,v2)) -> (alpha(x1,x2), 0)
    rng = Random(5)
    alpha = rand_cochain(rng, 2, 2)
    hat = lift_endo_cochain(alpha, 2).lift()
    x1, v1 = vec([1, 2]), vec([3, -1])
    x2, v2 = vec([0, 1]), vec([2, 5])
    got = hat.eval_vectors((tuple(x1) + tuple(v1), tuple(x2) + tuple(v2)))
    expected = alpha.eval_vectors((x1, x2))
    assert got[:2] == expected
    assert got[2:] == vec([0, 0])


def test_lift_beta_formula():
    # lift of beta: g1 x g2 -> g2 acts as ((x1,v1),(x2,v2)) -> (0, beta(x1,v2) - beta(x2,v1))
    rho = (Matrix([[1, 2], [0, 1]]), Matrix([[0, 1], [1, 0]]), Matrix.zeros(2, 2))
    hat = lift_rep(rho, 3, 2).lift()

    def beta(x, v):
        out = [Fraction(0), Fraction(0)]
        for i, c in enumerate(x):
            w = rho[i].matvec(v)
            out = [a + c * b for a, b in zip(out, w)]
        return vec(out)

    x1, v1 = vec([1, -1, 2]), vec([2, 0])
    x2, v2 = vec([0, 3, 1]), vec([1, 1])
    got = hat.eval_vectors((tuple(x1) + tuple(v1), tuple(x2) + tuple(v2)))
    expect = tuple(a - b for a, b in zip(beta(x1, v2), beta(x2, v1)))
    assert got[:3] == vec([0, 0, 0])
    assert got[3:] == expect


def test_lift_of_zero_is_zero():
    assert BiMap.make(1, 1, 2, 2, 2, {}).lift().is_zero()


def test_bidegrees_of_standard_lifts():
    rng = Random(9)
    alpha = rand_cochain(rng, 2, 2)
    assert bidegree_of(lift_endo_cochain(alpha, 2).lift(), 2, 2) == Bidegree(1, 0)
    rho = (Matrix([[1, 0], [0, 2]]), Matrix([[0, 1], [0, 0]]))
    assert bidegree_of(lift_rep(rho, 2, 2).lift(), 2, 2) == Bidegree(1, 0)
    omega = rand_cochain(rng, 2, 2, target_dim=2)
    assert bidegree_of(lift_module_cochain(omega).lift(), 2, 2) == Bidegree(2, -1)
    theta = rand_cochain(rng, 2, 2)
    assert bidegree_of(lift_side2_bracket(theta, 2).lift(), 2, 2) == Bidegree(0, 1)
    xi = Matrix([[1, 2], [0, 1]])
    assert bidegree_of(lift_linear_map(xi, 2, 2).lift(), 2, 2) == Bidegree(1, -1)


def test_bidegree_not_homogeneous_and_zero():
    mixed = lift_endo_cochain(Cochain.from_matrix(Matrix.identity(2)), 1).lift() + (
        lift_linear_map(Matrix([[1, 1]]), 2, 1).lift()
    )
    assert bidegree_of(mixed, 2, 1) is None
    assert bidegree_of(Cochain.zero(2, 3, 3), 2, 1) is None


def test_bidegree_additive_under_bracket():
    rng = Random(21)
    dim1, dim2 = 2, 2
    for _ in range(40):
        choice = rng.randrange(3)
        if choice == 0:
            f = lift_rep(
                tuple(Matrix([[rng.randint(-2, 2) for _ in range(2)] for _ in range(2)]) for _ in range(2)),
                dim1,
                dim2,
            ).lift()
            fb = Bidegree(1, 0)
        elif choice == 1:
            f = lift_module_cochain(rand_cochain(rng, 2, dim1, dim2)).lift()
            fb = Bidegree(2, -1)
        else:
            f = lift_side2_bracket(rand_cochain(rng, 2, dim2), dim1).lift()
            fb = Bidegree(0, 1)
        g = lift_linear_map(
            Matrix([[rng.randint(-2, 2) for _ in range(dim1)] for _ in range(dim2)]),
            dim1,
            dim2,
        ).lift()
        gb = Bidegree(1, -1)
        br = nr_bracket(f, g)
        if not br.is_zero():
            assert bidegree_of(br, dim1, dim2) == Bidegree(fb.k + gb.k, fb.l + gb.l)


def test_ce_degree_zero_is_rep_action():
    # (d^0 v)(x) = rho(x) v
    pair = CompatiblePair(n2(), LieBracket.zero(2))
    rep = adjoint_rep(pair)
    v = Cochain.from_element(vec([1, 2]), 2)
    d = ce_coboundary(pair.bracket1.to_cochain(), rep.rho, v)
    for i in range(2):
        assert d.value((i,)) == rep.rho[i].matvec(vec([1, 2]))


def test_ce_identity_map_on_n2():
    # adjoint coefficients, f = Id: df(x,y) = [x,f(y)] - [y,f(x)] - f([x,y]) = [x,y]
    b = n2()
    f = Cochain.from_matrix(Matrix.identity(2))
    d = ce_coboundary(b.to_cochain(), b.ad_matrices(), f)
    assert d.value((0, 1)) == vec([0, 1])
    assert d == ce_adjoint(b.to_cochain(), f)


def test_ce_abelian_trivial_rep_vanishes():
    z = LieBracket.zero(3)
    rho = tuple(Matrix.zeros(2, 2) for _ in range(3))
    rng = Random(2)
    for arity in range(0, 3):
        f = rand_cochain(rng, arity, 3, 2)
        assert ce_coboundary(z.to_cochain(), rho, f).is_zero()


def test_ce_explicit_equals_nr_lift_path():
    # also on non-Lie pi and non-representation rho: both sides are the same
    # unshuffle combinatorics, no axioms needed
    rng = Random(31)
    for _ in range(40):
        sd = rng.randint(1, 3)
        td = rng.randint(1, 2)
        pi = rand_cochain(rng, 2, sd)
        rho = tuple(
            Matrix([[rng.randint(-2, 2) for _ in range(td)] for _ in range(td)])
            for _ in range(sd)
        )
        f = rand_cochain(rng, rng.randint(0, min(3, sd)), sd, td)
        assert ce_coboundary(pi, rho, f) == ce_coboundary_nr(pi, rho, f)


def test_ce_squares_to_zero_for_validated_inputs():
    rng = Random(37)
    for _ in range(15):
        pair = rand_compatible_pair(rng, rng.randint(2, 3))
        rep = rand_rep(rng, pair)
        pi = pair.bracket1.to_cochain()
        f = rand_cochain(rng, rng.randint(0, 2), pair.dim, rep.module_dim)
        df = ce_coboundary(pi, rep.rho, f)
        assert ce_coboundary(pi, rep.rho, df).is_zero()


def test_module_component_roundtrip():
    rng = Random(41)
    f = rand_cochain(rng, 2, 3, 2)
    lifted = lift_module_cochain(f).lift()
    assert module_component(lifted, 3, 2) == f


def test_alternating_evaluation_convention():
    rng = Random(43)
    f = rand_cochain(rng, 2, 3)
    # repeated arguments vanish; swapped arguments flip sign
    assert f.eval_indices((1, 1)) == (0, 0, 0)
    v = f.eval_indices((0, 2))
    assert f.eval_indices((2, 0)) == tuple(-x for x in v)
    g = rand_cochain(rng, 3, 3)
    assert g.eval_indices((2, 0, 1)) == g.value((0, 1, 2))  # even permutation
