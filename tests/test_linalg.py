from fractions import Fraction
from random import Random

import pytest

from compatlie.linalg import (
    Matrix,
    SubspaceBasis,
    extend_basis,
    in_span,
    vec,
)
from oracles import rank_bareiss


def test_rank_identity_and_zero():
    assert Matrix.identity(2).rank() == 2
    assert Matrix.zeros(3, 3).rank() == 0


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
