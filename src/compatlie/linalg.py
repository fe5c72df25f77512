"""Exact rational linear algebra.

Every scalar at every interface is a ``fractions.Fraction`` (arbitrary
precision, kept in canonical form by the stdlib), so ranks, kernels and
membership tests are exact; no rounding ever occurs.  The ground field of
the theory is an algebraically closed field of characteristic 0, but every
operation in this package (brackets, coboundaries, ranks) is rational-linear
in the structure constants, so working over the rationals loses nothing.

Every rank, kernel, image, solve and basis completion comes from one
elimination, `_eliminate`: Gauss-Jordan on integer rows (each row cleared
of denominators and kept primitive, fraction-free in the manner of
Bareiss).  `Matrix.rref` builds the Fractions of the whole reduced form
once at the end; `Matrix.solve` clears only the nonzero entries of the
augmented rows, drops the all-zero ones, eliminates the rest and builds
only the Fractions of the solution.  The rational Gauss-Jordan they
replaced is the test reference (`tests/oracles.py`).

`cleared` is the one place where rationals become integers over a common
denominator, for the elimination, for `integer_columns` (applied by
`add_image`) and for the cochain rows and arguments of `multilinear`.

`_Record` is the base of the package's small immutable value classes
(`SubspaceBasis` here; verdicts, representations, data and document blocks
elsewhere): equality, hashing and repr over the declared fields, and no
assignment after construction.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

Vec = tuple[Fraction, ...]


def frac(x) -> Fraction:
    """Coerce ints / strings / Fractions to Fraction."""
    return x if isinstance(x, Fraction) else Fraction(x)


def vec(entries) -> Vec:
    return tuple(frac(x) for x in entries)


def vzero(n: int) -> Vec:
    return (Fraction(0),) * n


def vadd(a: Vec, b: Vec) -> Vec:
    return tuple(x + y for x, y in zip(a, b, strict=True))


def vsub(a: Vec, b: Vec) -> Vec:
    return tuple(x - y for x, y in zip(a, b, strict=True))


def vscale(c, a: Vec) -> Vec:
    c = frac(c)
    return tuple(c * x for x in a)


def is_zero_vec(a: Vec) -> bool:
    return all(x == 0 for x in a)


def cleared(values) -> tuple[int, list[int]]:
    """(L, [L x, ...]): a sequence of rationals times L, the lcm of their
    denominators, as integers; (1, []) for no values."""
    den = lcm(*(x.denominator for x in values))
    return den, [x.numerator * (den // x.denominator) for x in values]


def _primitive(row: list[int]) -> list[int]:
    """The integer row divided by the gcd of its entries."""
    g = gcd(*row)
    return row if g <= 1 else [x // g for x in row]


def _eliminate(a: list[list[int]], cols: int) -> list[int]:
    """Gauss-Jordan in place on primitive integer rows over `cols`
    columns, fraction-free: the pivot row r clears column c from every
    other row i by row_i = pv * row_i - f * row_r, and every row is kept
    primitive (its entries divided by their gcd).  Returns the pivot
    columns; rows 0..r-1 are the pivot rows, the rest are zero.

    Scaling rows leaves the RREF unchanged, and the RREF over Q is unique,
    so row r divided by its pivot is row r of a rational elimination."""
    rows = len(a)
    pivots = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        p = next((i for i in range(r, rows) if a[i][c]), None)
        if p is None:
            continue
        a[r], a[p] = a[p], a[r]
        top = a[r]
        pv = top[c]
        for i in range(rows):
            f = a[i][c]
            if i != r and f:
                g = gcd(pv, f)
                s, t = pv // g, f // g
                a[i] = _primitive([s * x - t * y for x, y in zip(a[i], top)])
        pivots.append(c)
        r += 1
    return pivots


def integer_columns(*mats: Matrix) -> tuple[int, list]:
    """(L, per matrix its columns): the matrices times L, the lcm of the
    denominators of all their entries, each column kept as the integer
    terms [(row, L x), ...] of its nonzero entries."""
    den, nums = cleared([x for m in mats for r in m._a for x in r])
    it = iter(nums)
    out = []
    for m in mats:
        cols = [[] for _ in range(m.cols)]
        for i in range(m.rows):
            # zip stops on cols before it takes from `it`
            for col, x in zip(cols, it):
                if x:
                    col.append((i, x))
        out.append(cols)
    return den, out


def add_image(acc: dict[int, int], cols, terms, factor: int = 1) -> None:
    """acc += factor * sum x cols[k] over the integer terms (k, x) of a
    vector: a map given by integer columns applied on integers."""
    for k, x in terms:
        fx = factor * x
        for t, c in cols[k]:
            acc[t] = acc.get(t, 0) + fx * c


class Matrix:
    """Immutable dense matrix of Fractions."""

    __slots__ = ("rows", "cols", "_a")

    def __init__(self, entries):
        a = tuple(vec(row) for row in entries)
        self._a = a
        self.rows = len(a)
        self.cols = len(a[0]) if a else 0
        if any(len(r) != self.cols for r in a):
            raise ValueError("ragged rows")

    @classmethod
    def _raw(cls, a, rows: int, cols: int) -> "Matrix":
        # internal: keeps explicit dimensions so 0 x k and k x 0 survive
        m = cls.__new__(cls)
        m._a = a
        m.rows, m.cols = rows, cols
        return m

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "Matrix":
        return cls._raw(tuple(vzero(cols) for _ in range(rows)), rows, cols)

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls([[Fraction(i == j) for j in range(n)] for i in range(n)])

    @classmethod
    def from_columns(cls, columns, rows: int | None = None) -> "Matrix":
        columns = [vec(c) for c in columns]
        if rows is None:
            if not columns:
                raise ValueError("row count needed for an empty column list")
            rows = len(columns[0])
        if any(len(c) != rows for c in columns):
            raise ValueError("column has wrong length")
        a = tuple(tuple(c[i] for c in columns) for i in range(rows))
        return cls._raw(a, rows, len(columns))

    def __getitem__(self, ij) -> Fraction:
        i, j = ij
        return self._a[i][j]

    def row(self, i: int) -> Vec:
        return self._a[i]

    def column(self, j: int) -> Vec:
        return tuple(r[j] for r in self._a)

    def columns(self) -> list[Vec]:
        return [self.column(j) for j in range(self.cols)]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Matrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self._a == other._a
        )

    def __hash__(self):
        return hash(self._a)

    def __add__(self, other: "Matrix") -> "Matrix":
        self._check_same_shape(other)
        a = tuple(vadd(r, s) for r, s in zip(self._a, other._a))
        return Matrix._raw(a, self.rows, self.cols)

    def __sub__(self, other: "Matrix") -> "Matrix":
        self._check_same_shape(other)
        a = tuple(vsub(r, s) for r, s in zip(self._a, other._a))
        return Matrix._raw(a, self.rows, self.cols)

    def __neg__(self) -> "Matrix":
        return self.scale(-1)

    def scale(self, c) -> "Matrix":
        return Matrix._raw(
            tuple(vscale(c, r) for r in self._a), self.rows, self.cols
        )

    def __mul__(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch {self.shape()} * {other.shape()}")
        # visit only nonzero products: the nonzero (column, entry) pairs of
        # each row of `other`, scaled by each nonzero entry of a row of self
        other_nz = [[(j, y) for j, y in enumerate(r) if y] for r in other._a]
        zero = Fraction(0)
        a = []
        for r in self._a:
            acc = [zero] * other.cols
            for x, nz in zip(r, other_nz):
                if x:
                    for j, y in nz:
                        acc[j] += x * y
            a.append(tuple(acc))
        return Matrix._raw(tuple(a), self.rows, other.cols)

    def matvec(self, v: Vec) -> Vec:
        if len(v) != self.cols:
            raise ValueError(f"shape mismatch {self.shape()} @ vector of length {len(v)}")
        nz = [(j, y) for j, y in enumerate(v) if y]
        zero = Fraction(0)
        return tuple(sum((r[j] * y for j, y in nz if r[j]), zero) for r in self._a)

    def transpose(self) -> "Matrix":
        a = tuple(
            tuple(self._a[i][j] for i in range(self.rows))
            for j in range(self.cols)
        )
        return Matrix._raw(a, self.cols, self.rows)

    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    def is_zero(self) -> bool:
        return all(is_zero_vec(r) for r in self._a)

    def commutator(self, other: "Matrix") -> "Matrix":
        return self * other - other * self

    def _check_same_shape(self, other: "Matrix"):
        if self.shape() != other.shape():
            raise ValueError(f"shape mismatch {self.shape()} vs {other.shape()}")

    def __repr__(self):
        body = "; ".join(" ".join(str(x) for x in r) for r in self._a)
        return f"Matrix[{self.rows}x{self.cols}: {body}]"

    def rref(self) -> tuple["Matrix", tuple[int, ...]]:
        """Reduced row echelon form and the pivot column indices.

        Each row is scaled by the lcm of its denominators and eliminated
        on integers (`_eliminate`); the Fractions of the result are built
        once at the end."""
        a = [_primitive(cleared(row)[1]) for row in self._a]
        pivots = _eliminate(a, self.cols)
        r = len(pivots)
        # rows r.. are zero now; each pivot row is divided by its pivot
        zero = Fraction(0)
        red = tuple(
            tuple(Fraction(x, row[c]) if x else zero for x in row)
            for row, c in zip(a, pivots)
        ) + ((zero,) * self.cols,) * (self.rows - r)
        return Matrix._raw(red, self.rows, self.cols), tuple(pivots)

    def rank(self) -> int:
        return len(self.rref()[1])

    def kernel_basis(self) -> "SubspaceBasis":
        """Basis of {v : Mv = 0}, one vector per free column, in reduced
        column-echelon form (the free coordinate of each vector is 1 and is 0
        in every other basis vector)."""
        red, pivots = self.rref()
        pivot_set = set(pivots)
        free = [c for c in range(self.cols) if c not in pivot_set]
        vectors = []
        for f in free:
            v = [Fraction(0)] * self.cols
            v[f] = Fraction(1)
            for r, c in enumerate(pivots):
                v[c] = -red[r, f]
            vectors.append(tuple(v))
        return SubspaceBasis(self.cols, tuple(vectors))

    def column_space_basis(self) -> "SubspaceBasis":
        """The pivot columns of M, a basis of the image."""
        _, pivots = self.rref()
        return SubspaceBasis(self.rows, tuple(self.column(c) for c in pivots))

    def solve(self, b: Vec) -> Vec | None:
        """One exact solution of Mx = b, or None if inconsistent.

        The augmented rows [M | b] are eliminated on integers as in `rref`;
        b is consistent unless its column becomes a pivot.  Only the
        nonzero entries of a row are cleared, and an all-zero augmented row
        is dropped: it is a zero row of the RREF and holds no pivot.  The
        solution is 0 at every free column and row[-1] / row[c] at the
        pivot column c of each pivot row, the last column of the unique
        RREF, so only those Fractions are built."""
        if len(b) != self.rows:
            raise ValueError("right-hand side has wrong length")
        width = self.cols + 1
        a = []
        for r, x in zip(self._a, b):
            terms = [(j, y) for j, y in enumerate(r) if y]
            if x:
                terms.append((self.cols, x))
            if terms:
                _, nums = cleared([y for _, y in terms])
                g = gcd(*nums)
                row = [0] * width
                for (j, _), v in zip(terms, nums):
                    row[j] = v // g
                a.append(row)
        pivots = _eliminate(a, width)
        if pivots and pivots[-1] == self.cols:
            return None
        x = [Fraction(0)] * self.cols
        for row, c in zip(a, pivots):
            if row[-1]:
                x[c] = Fraction(row[-1], row[c])
        return tuple(x)


# Each record's `__init__` sets its fields through this, past `__setattr__`.
_set = object.__setattr__


class _Record:
    """An immutable value: equal to another instance of the same class with
    equal `_fields`, hashed and shown as the tuple of those fields; every
    assignment or deletion raises AttributeError.  A subclass lists its
    fields in `_fields` (and `__slots__`) and sets them in `__init__` with
    `_set`."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, f) for f in self._fields])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        body = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({body})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class SubspaceBasis(_Record):
    """Linearly independent vectors spanning a subspace of Q^ambient_dim."""

    __slots__ = _fields = ("ambient_dim", "vectors")

    def __init__(self, ambient_dim: int, vectors: tuple[Vec, ...]):
        for v in vectors:
            if len(v) != ambient_dim:
                raise ValueError("basis vector has wrong length")
        _set(self, "ambient_dim", ambient_dim)
        _set(self, "vectors", vectors)

    def __len__(self) -> int:
        return len(self.vectors)

    def dim(self) -> int:
        return len(self.vectors)

    def as_column_matrix(self) -> Matrix:
        return Matrix.from_columns(self.vectors, rows=self.ambient_dim)


def in_span(basis: SubspaceBasis, v: Vec) -> tuple[bool, Vec | None]:
    """Is v a rational combination of the basis vectors?  When yes, the
    certificate coefficients c with basis . c = v are returned."""
    if len(v) != basis.ambient_dim:
        raise ValueError(
            f"vector length {len(v)} != ambient dimension {basis.ambient_dim}"
        )
    coeffs = basis.as_column_matrix().solve(vec(v))
    return (coeffs is not None), coeffs


def extend_basis(base: list[Vec], candidates: list[Vec], ambient: int) -> list[Vec]:
    """Candidates that extend `base` to a larger independent set, picked
    greedily in order: the candidate pivot columns of one elimination of
    the matrix with columns [base | candidates]."""
    m = Matrix.from_columns([*base, *candidates], rows=ambient)
    _, pivots = m.rref()
    return [m.column(c) for c in pivots if c >= len(base)]
