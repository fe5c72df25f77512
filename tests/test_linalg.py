from fractions import Fraction
from random import Random

import pytest

from compatlie.cohomology import coboundary_matrix
from compatlie.core import CompatiblePair
from compatlie.linalg import (
    Matrix,
    SubspaceBasis,
    cleared,
    extend_basis,
    in_span,
    integer_columns,
    vec,
)
from oracles import rank_bareiss, rref_fraction, solve_fraction
from support import direct_sum, n2, rand_compatible_pair, rand_invertible, rand_matrix


def test_rank_identity_and_zero():
    assert Matrix.identity(2).rank() == 2
    assert Matrix.zeros(3, 3).rank() == 0


def test_cleared_and_integer_columns_edge_cases():
    assert cleared(()) == (1, [])
    assert cleared(vec(["1/2", "-1/3", 0, 4])) == (6, [3, -2, 0, 24])
    # no entries: L = 1, and each matrix keeps its (empty) columns
    assert integer_columns(Matrix.zeros(0, 3)) == (1, [[[], [], []]])
    empty = integer_columns(Matrix.zeros(2, 0), Matrix.zeros(0, 2))
    assert empty == (1, [[], [[], []]])
    m1, m2 = Matrix([["1/2", 0], [0, "2/3"]]), Matrix([[0, 1, "-5/4"]])
    assert integer_columns(m1, m2) == (
        12,
        [[[(0, 6)], [(1, 8)]], [[], [(0, 12)], [(0, -15)]]],
    )


def test_rank_dependent_rows():
    # row-reduce by hand: rows 2 and 3 are multiples of row 1
    m = Matrix([[1, 2], [2, 4], [3, 6]])
    assert m.rank() == 1
    assert rank_bareiss(m) == 1


def test_kernel_identity_empty():
    assert len(Matrix.identity(2).kernel_basis()) == 0


def test_kernel_single_equation():
    (v,) = Matrix([[1, -1]]).kernel_basis().vectors
    assert v == vec([1, 1])


def test_kernel_rank_one():
    # solving the 2x2 system exactly: kernel spanned by (-2, 1) ~ (2, -1)
    (v,) = Matrix([[1, 2], [2, 4]]).kernel_basis().vectors
    assert v[0] * (-1) == v[1] * 2


def test_in_span_examples():
    b = SubspaceBasis(2, (vec([1, 0]),))
    ok, coeffs = in_span(b, vec([3, 0]))
    assert ok and coeffs == (Fraction(3),)
    ok, coeffs = in_span(b, vec([0, 1]))
    assert not ok and coeffs is None

    b = SubspaceBasis(3, (vec([1, 1, 0]), vec([0, 1, 1])))
    ok, coeffs = in_span(b, vec([1, 2, 1]))
    assert ok and coeffs == (Fraction(1), Fraction(1))


def test_in_span_dimension_mismatch():
    b = SubspaceBasis(2, (vec([1, 0]),))
    try:
        in_span(b, vec([1, 0, 0]))
    except ValueError:
        pass
    else:
        raise AssertionError("expected a dimension mismatch error")


def test_rank_nullity_and_kernel_exactness_random():
    rng = Random(20240501)
    for _ in range(120):
        rows = rng.randint(1, 8)
        cols = rng.randint(1, 8)
        m = Matrix(
            [[rng.randint(-3, 3) for _ in range(cols)] for _ in range(rows)]
        )
        r = m.rank()
        ker = m.kernel_basis()
        assert r + len(ker) == cols
        assert r == m.transpose().rank()
        assert r == rank_bareiss(m)
        for v in ker.vectors:
            assert all(x == 0 for x in m.matvec(v))
        # kernel vectors are independent
        if ker.vectors:
            assert Matrix(ker.vectors).rank() == len(ker)


def test_in_span_certificate_random():
    rng = Random(7)
    for _ in range(60):
        amb = rng.randint(1, 6)
        k = rng.randint(1, amb)
        while True:
            mat = Matrix([[rng.randint(-3, 3) for _ in range(amb)] for _ in range(k)])
            if mat.rank() == k:
                break
        basis = SubspaceBasis(amb, tuple(mat.row(i) for i in range(k)))
        coeffs = [Fraction(rng.randint(-4, 4), rng.choice((1, 2))) for _ in range(k)]
        v = tuple(
            sum(c * b[i] for c, b in zip(coeffs, basis.vectors))
            for i in range(amb)
        )
        ok, got = in_span(basis, v)
        assert ok
        recombined = tuple(
            sum(c * b[i] for c, b in zip(got, basis.vectors)) for i in range(amb)
        )
        assert recombined == v


def test_solve_consistent_and_inconsistent():
    m = Matrix([[1, 2], [2, 4]])
    assert m.solve(vec([1, 2])) is not None
    assert m.solve(vec([1, 3])) is None


def test_empty_shapes():
    z = Matrix.zeros(0, 3)
    assert z.rank() == 0
    assert len(z.kernel_basis()) == 3
    z2 = Matrix.zeros(3, 0)
    assert z2.rank() == 0
    assert len(z2.kernel_basis()) == 0


def greedy_extend(base, candidates):
    """One rank per candidate: keep it when it raises the rank."""
    chosen, current = [], [vec(v) for v in base]
    r = Matrix(current).rank() if current else 0
    for cand in candidates:
        trial = current + [vec(cand)]
        if Matrix(trial).rank() > r:
            chosen.append(vec(cand))
            current, r = trial, r + 1
    return chosen


def test_extend_basis_equals_greedy_rank_loop():
    rng = Random(41)
    for _ in range(60):
        n = rng.randint(1, 5)

        def rand_vec():
            return vec(Fraction(rng.randint(-2, 2), rng.randint(1, 2)) for _ in range(n))

        base = [rand_vec() for _ in range(rng.randint(0, 3))]
        candidates = [rand_vec() for _ in range(rng.randint(0, 5))]
        # dependent candidates: repeats and combinations of earlier vectors
        pool = base + candidates
        if pool:
            candidates.insert(rng.randint(0, len(candidates)), rng.choice(pool))
            a, b = rng.choice(pool), rng.choice(pool)
            candidates.append(tuple(x + 2 * y for x, y in zip(a, b)))
        candidates.append(vec([0] * n))
        expected = greedy_extend(base, candidates)
        assert extend_basis(base, candidates, n) == expected


def test_extend_basis_empty_inputs():
    v = vec([1, 2])
    assert extend_basis([], [], 2) == []
    assert extend_basis([v], [], 2) == []
    assert extend_basis([], [v, v], 2) == [v]
    assert extend_basis([v], [vec([2, 4]), vec([0, 1])], 2) == [vec([0, 1])]


def dense_product(a, b):
    """The dense formula: entry (i, j) is sum(x * y) over row i of a and
    column j of b."""
    return [
        [sum(a[i, k] * b[k, j] for k in range(a.cols)) for j in range(b.cols)]
        for i in range(a.rows)
    ]


def rand_sparse(rng, rows, cols):
    density = rng.choice((0.0, 0.15, 0.5, 1.0))
    m = [
        [
            Fraction(rng.randint(-3, 3), rng.randint(1, 3))
            if rng.random() < density
            else 0
            for _ in range(cols)
        ]
        for _ in range(rows)
    ]
    # whole zero rows and columns
    if rows and rng.random() < 0.5:
        m[rng.randrange(rows)] = [0] * cols
    if cols and rng.random() < 0.5:
        j = rng.randrange(cols)
        for r in m:
            r[j] = 0
    return Matrix(m) if rows else Matrix.zeros(0, cols)


def test_mul_equals_dense_sum_formula():
    rng = Random(43)
    shapes = [(0, k, m) for k in (0, 1, 3) for m in (0, 2)]
    shapes += [(k, 0, m) for k in (1, 3) for m in (0, 2)]
    shapes += [
        (rng.randint(1, 6), rng.randint(1, 6), rng.randint(1, 6)) for _ in range(80)
    ]
    for rows, inner, cols in shapes:
        a, b = rand_sparse(rng, rows, inner), rand_sparse(rng, inner, cols)
        prod = a * b
        assert prod.shape() == (rows, cols)
        expected = dense_product(a, b)
        assert [list(prod.row(i)) for i in range(rows)] == expected
        assert all(type(prod[i, j]) is Fraction for i in range(rows) for j in range(cols))
    with pytest.raises(ValueError):
        Matrix.zeros(2, 3) * Matrix.zeros(2, 3)


def test_matvec_equals_dense_sum_formula():
    rng = Random(61)
    shapes = [(k, 0) for k in (0, 1, 3)] + [(0, k) for k in (1, 3)]
    shapes += [(rng.randint(1, 6), rng.randint(1, 6)) for _ in range(80)]
    for rows, cols in shapes:
        m = rand_sparse(rng, rows, cols)
        v = rand_sparse(rng, 1, cols).row(0) if cols else ()
        got = m.matvec(v)
        assert list(got) == [sum(x * y for x, y in zip(m.row(i), v)) for i in range(rows)]
        # a Fraction everywhere, also where a row is empty (k x 0)
        assert all(type(x) is Fraction for x in got)
    # integer vectors are accepted and give Fractions
    assert Matrix([[1, 2], [0, 3]]).matvec([1, 1]) == (Fraction(3), Fraction(3))
    with pytest.raises(ValueError):
        Matrix.zeros(2, 3).matvec(vec([1, 2]))


# -- the integer elimination against the rational Gauss-Jordan ----------------


def mixed_denominators(rng, rows, cols):
    return Matrix(
        [
            [
                Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3, 5, 7, 12)))
                for _ in range(cols)
            ]
            for _ in range(rows)
        ]
    )


def rref_cases():
    rng = Random(89)
    cases = [Matrix.zeros(0, k) for k in (0, 1, 4)]
    cases += [Matrix.zeros(k, 0) for k in (1, 4)]
    cases += [Matrix.zeros(3, 5), Matrix.zeros(1, 1)]
    for _ in range(60):
        cases.append(rand_matrix(rng, rng.randint(1, 7), rng.randint(1, 7)))
        cases.append(mixed_denominators(rng, rng.randint(1, 7), rng.randint(1, 7)))
    # rank-deficient products, with repeated and zero rows among them
    for _ in range(40):
        rows, inner, cols = rng.randint(2, 8), rng.randint(1, 3), rng.randint(2, 8)
        m = rand_matrix(rng, rows, inner) * mixed_denominators(rng, inner, cols)
        a = [list(m.row(i)) for i in range(rows)]
        a[rng.randrange(rows)] = list(a[rng.randrange(rows)])
        a[rng.randrange(rows)] = [0] * cols
        cases.append(Matrix(a))
    # negative pivots: no entry is positive, so the first pivot is negative
    for _ in range(20):
        m = mixed_denominators(rng, rng.randint(1, 6), rng.randint(1, 6))
        cases.append(Matrix([[-abs(x) for x in m.row(i)] for i in range(m.rows)]))
    # entries near 2^80 beside small ones
    def near_2_80():
        if rng.random() < 0.5:
            return Fraction(rng.randint(-3, 3), rng.choice((1, 2)))
        sign = rng.choice((-1, 1))
        return Fraction(sign * (2**80 + rng.randint(-9, 9)), rng.choice((1, 3)))

    for _ in range(20):
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        cases.append(Matrix([[near_2_80() for _ in range(cols)] for _ in range(rows)]))
    # degree-2 and degree-3 staircase slices after a change of basis in
    # GL(4, Q): n2 + n2 paired with itself, and random pairs (which the
    # generator conjugates as well)
    n2n2 = direct_sum(n2(), n2())
    pairs = [CompatiblePair(n2n2, n2n2).conjugate(rand_invertible(Random(3), 4))]
    pairs += [rand_compatible_pair(Random(seed), 4) for seed in (3, 4)]
    for pair in pairs:
        cases += [coboundary_matrix(pair, None, n).matrix for n in (1, 2, 3)]
    return cases


def rand_rhs(rng, n):
    """Mixed denominators, with an entry near 2^80 one time in five."""
    return vec(
        Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3, 7)))
        if rng.random() < 0.8
        else Fraction(rng.choice((-1, 1)) * (2**80 + rng.randint(-9, 9)), 3)
        for _ in range(n)
    )


def test_rref_kernel_and_solve_equal_the_rational_gauss_jordan():
    rng = Random(97)
    for m in rref_cases():
        red, pivots = m.rref()
        expected_red, expected_pivots = rref_fraction(m)
        assert pivots == expected_pivots
        assert len(pivots) == rank_bareiss(m)
        assert red == expected_red and red.shape() == m.shape()
        assert all(type(x) is Fraction for i in range(m.rows) for x in red.row(i))
        # the kernel basis is the unique one that is 1 at its own free
        # column and 0 at the others
        free = [c for c in range(m.cols) if c not in expected_pivots]
        kernel = m.kernel_basis()
        assert len(kernel) == len(free)
        for f, v in zip(free, kernel.vectors):
            assert [v[c] for c in free] == [int(c == f) for c in free]
            assert not any(m.matvec(v))
        # solve: a right-hand side in the image and one off it (when the
        # image is not everything), checked against the augmented oracle
        inside = m.matvec(rand_rhs(rng, m.cols))
        outside = rand_rhs(rng, m.rows)
        for b in (inside, outside):
            assert m.solve(b) == solve_fraction(m, b)
            aug = Matrix._raw(
                tuple(m.row(i) + (x,) for i, x in enumerate(b)), m.rows, m.cols + 1
            )
            consistent = m.cols not in rref_fraction(aug)[1]
            x = m.solve(b)
            assert (x is not None) == consistent
            if x is not None:
                assert m.matvec(x) == b
                assert all(x[c] == 0 for c in free)


def with_zero_rows_and_columns(m: Matrix, rng: Random) -> Matrix:
    """m with zero rows and zero columns inserted at seeded places."""
    rows = [list(m.row(i)) for i in range(m.rows)]
    cols = m.cols + rng.randint(1, 3)
    for width in range(m.cols, cols):
        at = rng.randint(0, width)
        for r in rows:
            r.insert(at, Fraction(0))
    for _ in range(rng.randint(1, 3)):
        rows.insert(rng.randint(0, len(rows)), [Fraction(0)] * cols)
    return Matrix._raw(tuple(map(tuple, rows)), len(rows), cols)


def test_solve_on_zero_rows_and_columns_equals_the_rational_gauss_jordan():
    # solve clears only nonzero entries and drops all-zero augmented rows;
    # on systems padded with zero rows and zero columns it gives the
    # oracle's solution, and a zero coefficient row with a nonzero
    # right-hand side makes the system inconsistent
    rng = Random(353)
    outcomes = set()
    for m in rref_cases():
        padded = with_zero_rows_and_columns(m, rng)
        zero_rows = [i for i in range(padded.rows) if not any(padded.row(i))]
        inside = padded.matvec(rand_rhs(rng, padded.cols))
        outside = rand_rhs(rng, padded.rows)
        # nonzero only at one zero coefficient row
        lone = [Fraction(0)] * padded.rows
        lone[rng.choice(zero_rows)] = Fraction(rng.choice((-5, 3)), 7)
        for b in (inside, outside, tuple(lone), (Fraction(0),) * padded.rows):
            x = padded.solve(b)
            assert x == solve_fraction(padded, b)
            if any(b[i] for i in zero_rows):
                assert x is None
            outcomes.add(x is None)
    assert outcomes == {True, False}
    assert Matrix.zeros(2, 3).solve(vec([0, 0])) == vec([0, 0, 0])
    assert Matrix.zeros(2, 3).solve(vec([0, 1])) is None
    assert Matrix.zeros(2, 0).solve(vec([0, 0])) == ()
    assert Matrix.zeros(2, 0).solve(vec([1, 0])) is None
