"""Lie brackets by structure constants, compatible pairs, representations.

A compatible pair is two Lie brackets on the same space whose every linear
combination is again a Lie bracket; equivalently the three conditions

    [pi1, pi1]_NR = 0,   [pi1, pi2]_NR = 0,   [pi2, pi2]_NR = 0

hold, which is what the validators test.  Validation is verdict-style (ok or
a lexicographically first witness tuple with the offending value), never
exception-style, so callers can print counterexamples.

Matrix convention, used everywhere: rho(e_i) is the matrix whose j-th column
holds the coordinates of rho(e_i)(f_j) in the module basis.
"""

from __future__ import annotations

from fractions import Fraction

from .linalg import Matrix, Vec, _Record, _set, frac
from .multilinear import Cochain, nr_bracket


class Witness(_Record):
    """A failed law: which law, at which (1-based) basis tuple, and the
    lhs - rhs value there."""

    __slots__ = _fields = ("law", "at", "value")

    def __init__(self, law: str, at: tuple[int, ...], value: tuple):
        _set(self, "law", law)
        _set(self, "at", at)
        _set(self, "value", value)

    def describe(self) -> str:
        val = ", ".join(str(x) for x in self.value)
        return f"{self.law} fails at basis tuple {self.at}: lhs - rhs = ({val})"


class Verdict(_Record):
    """ok, or not ok with the witness of the failure (None when the failure
    has no witness tuple)."""

    __slots__ = _fields = ("ok", "witness")

    def __init__(self, ok: bool, witness: Witness | None = None):
        _set(self, "ok", ok)
        _set(self, "witness", witness)

    def __bool__(self) -> bool:
        return self.ok

    def describe(self) -> str:
        return "ok" if self.ok else self.witness.describe()


OK = Verdict(True)


class InternalCheckError(RuntimeError):
    """An invariant of the theory failed, e.g. an unchecked
    non-representation made a coboundary image leave the kernel."""


def first_failure(checks) -> Verdict:
    """OK, or the witness of the first (law, cochain) check whose cochain
    is nonzero: its lexicographically first nonzero basis tuple (1-based)
    and the value there.  `checks` may be a generator, so later cochains
    are only computed while the earlier ones vanish."""
    for law, c in checks:
        hit = c.first_nonzero()
        if hit is not None:
            subset, value = hit
            return Verdict(False, Witness(law, tuple(i + 1 for i in subset), value))
    return OK


class LieBracket:
    """An antisymmetric bilinear bracket on Q^dim given by structure
    constants; antisymmetry is structural (only i < j stored), the Jacobi
    identity is what `validate_bracket` checks.  A bracket is immutable, so
    its Jacobiator is computed on first use and kept (`jacobiator`)."""

    __slots__ = ("dim", "_c", "_jac")

    def __init__(self, dim: int, entries=None):
        """entries: mapping (i, j, k) -> coefficient with 0-based i < j,
        meaning [e_i, e_j] += coeff * e_k."""
        self.dim = dim
        coeffs = {}
        for (i, j, k), c in (entries or {}).items():
            if not 0 <= i < j < dim or not 0 <= k < dim:
                raise ValueError(f"bad structure-constant index ({i}, {j}, {k})")
            c = frac(c)
            if c != 0:
                coeffs[((i, j), k)] = c
        self._c = Cochain(2, dim, dim, coeffs)

    @classmethod
    def zero(cls, dim: int) -> "LieBracket":
        return cls(dim)

    @classmethod
    def from_cochain(cls, c: Cochain) -> "LieBracket":
        if c.arity != 2 or c.source_dim != c.target_dim:
            raise ValueError("a bracket is an arity-2 endomorphism-valued cochain")
        b = cls.__new__(cls)
        b.dim = c.source_dim
        b._c = c
        return b

    def to_cochain(self) -> Cochain:
        return self._c

    def entries(self):
        """Sorted ((i, j, k), coeff) items, 0-based, i < j."""
        return sorted(((i, j, k), c) for ((i, j), k), c in self._c.coeffs.items())

    def bracket_basis(self, i: int, j: int) -> Vec:
        return self._c.eval_indices((i, j))

    def bracket(self, x: Vec, y: Vec) -> Vec:
        return self._c.eval_vectors((x, y))

    def ad_matrices(self) -> tuple[Matrix, ...]:
        """ad(e_i) with columns [e_i, e_j]."""
        return tuple(
            Matrix.from_columns(
                [self.bracket_basis(i, j) for j in range(self.dim)], rows=self.dim
            )
            for i in range(self.dim)
        )

    def conjugate(self, g: Matrix, g_inv: Matrix | None = None) -> "LieBracket":
        """The bracket g^-1 [g x, g y] transported along an invertible g."""
        if g_inv is None:
            g_inv = _inverse(g)
        n = self.dim
        entries = {}
        for i in range(n):
            for j in range(i + 1, n):
                w = g_inv.matvec(self.bracket(g.column(i), g.column(j)))
                for k, c in enumerate(w):
                    entries[(i, j, k)] = c
        return LieBracket(n, entries)

    def is_zero(self) -> bool:
        return self._c.is_zero()

    def __eq__(self, other) -> bool:
        return isinstance(other, LieBracket) and self._c == other._c

    def __hash__(self):
        return hash((self.dim, tuple(sorted(self._c.coeffs.items()))))

    def __repr__(self):
        body = ", ".join(
            f"[e{i + 1},e{j + 1}]->e{k + 1}:{c}" for (i, j, k), c in self.entries()
        )
        return f"LieBracket(dim={self.dim}, {body or '0'})"


def _inverse(g: Matrix) -> Matrix:
    n = g.rows
    cols = []
    for j in range(n):
        e = tuple(Fraction(i == j) for i in range(n))
        x = g.solve(e)
        if x is None:
            raise ValueError("matrix is singular")
        cols.append(x)
    return Matrix.from_columns(cols, rows=n)


def jacobiator(b: LieBracket) -> Cochain:
    """[pi, pi]_NR, which vanishes exactly when b is a Lie bracket;
    computed once per bracket and kept on it."""
    try:
        return b._jac
    except AttributeError:
        p = b.to_cochain()
        b._jac = nr_bracket(p, p)
        return b._jac


def validate_bracket(b: LieBracket) -> Verdict:
    """ok iff [pi, pi]_NR = 0; otherwise the first basis triple where the
    Jacobiator does not vanish, with its value."""
    return first_failure([("jacobi", jacobiator(b))])


def validate_pair(b1: LieBracket, b2: LieBracket) -> Verdict:
    """ok iff both brackets are Lie and the mixed bracket [pi1, pi2]_NR
    vanishes, so that every pencil k1*pi1 + k2*pi2 is a Lie bracket.  Each
    law is computed only while the earlier ones hold; the Jacobiators are
    the brackets' kept ones."""
    if b1.dim != b2.dim:
        raise ValueError("brackets live on spaces of different dimension")
    return first_failure(
        (law, jacobiator(b) if b is c else nr_bracket(b.to_cochain(), c.to_cochain()))
        for law, b, c in (
            ("jacobi-1", b1, b1),
            ("jacobi-2", b2, b2),
            ("mixed-jacobi", b1, b2),
        )
    )


class CompatiblePair:
    """Two validated Lie brackets on the same space with the mixed Jacobi
    identity; construction validates eagerly.  `unchecked` skips the check
    for inner loops that already know the answer."""

    __slots__ = ("bracket1", "bracket2")

    def __init__(self, bracket1: LieBracket, bracket2: LieBracket):
        v = validate_pair(bracket1, bracket2)
        if not v:
            raise ValueError(f"not a compatible pair: {v.describe()}")
        self.bracket1 = bracket1
        self.bracket2 = bracket2

    @classmethod
    def unchecked(cls, bracket1: LieBracket, bracket2: LieBracket) -> "CompatiblePair":
        p = cls.__new__(cls)
        p.bracket1 = bracket1
        p.bracket2 = bracket2
        return p

    @property
    def dim(self) -> int:
        return self.bracket1.dim

    def conjugate(self, g: Matrix) -> "CompatiblePair":
        g_inv = _inverse(g)
        return CompatiblePair.unchecked(
            self.bracket1.conjugate(g, g_inv), self.bracket2.conjugate(g, g_inv)
        )

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, CompatiblePair)
            and self.bracket1 == other.bracket1
            and self.bracket2 == other.bracket2
        )

    def __repr__(self):
        return f"CompatiblePair({self.bracket1!r}, {self.bracket2!r})"


def pencil(pair: CompatiblePair, k1, k2) -> LieBracket:
    """The bracket k1*pi1 + k2*pi2 (a Lie bracket for every k1, k2)."""
    c = pair.bracket1.to_cochain().scale(k1) + pair.bracket2.to_cochain().scale(k2)
    return LieBracket.from_cochain(c)


class RepPair(_Record):
    """Matrices rho(e_i), mu(e_i) of a representation of a compatible pair
    on a module of dimension module_dim."""

    __slots__ = _fields = ("module_dim", "rho", "mu")

    def __init__(
        self, module_dim: int, rho: tuple[Matrix, ...], mu: tuple[Matrix, ...]
    ):
        for mats in (rho, mu):
            for m in mats:
                if m.shape() != (module_dim, module_dim):
                    raise ValueError("representation matrix has wrong shape")
        _set(self, "module_dim", module_dim)
        _set(self, "rho", rho)
        _set(self, "mu", mu)

    @classmethod
    def zero(cls, dim: int, module_dim: int) -> "RepPair":
        z = tuple(Matrix.zeros(module_dim, module_dim) for _ in range(dim))
        return cls(module_dim, z, z)


def combination(mats, coeffs: Vec, dim: int) -> Matrix:
    """sum_k coeffs[k] * mats[k] as a dim x dim matrix: the action of a
    general vector when mats[k] is the action of the k-th basis vector.
    Only nonzero coefficients and entries are visited."""
    acc = [[Fraction(0)] * dim for _ in range(dim)]
    for c, mat in zip(coeffs, mats, strict=True):
        if c:
            for r in range(dim):
                row = acc[r]
                for s, x in enumerate(mat.row(r)):
                    if x:
                        row[s] += c * x
    return Matrix(acc)


def _rep_of(bracket: LieBracket, mats, law: str) -> Verdict:
    """rho([e_i, e_j]) = [rho(e_i), rho(e_j)] on all basis pairs."""
    n = bracket.dim
    md = mats[0].rows if mats else 0
    for i in range(n):
        for j in range(i + 1, n):
            lhs = combination(mats, bracket.bracket_basis(i, j), md)
            diff = lhs - mats[i].commutator(mats[j])
            if not diff.is_zero():
                return Verdict(
                    False, Witness(law, (i + 1, j + 1), _flatten_matrix(diff))
                )
    return OK


def _flatten_matrix(m: Matrix) -> tuple:
    return tuple(x for row in (m.row(i) for i in range(m.rows)) for x in row)


def validate_rep(pair: CompatiblePair, rep: RepPair) -> Verdict:
    """rho represents bracket 1, mu represents bracket 2, and the mixed
    condition  rho({x,y}) + mu([x,y]) = [rho(x), mu(y)] - [rho(y), mu(x)]
    holds on all basis pairs."""
    n = pair.dim
    if len(rep.rho) != n or len(rep.mu) != n:
        raise ValueError("representation has wrong number of matrices")
    v = _rep_of(pair.bracket1, rep.rho, "rep-rho")
    if not v:
        return v
    v = _rep_of(pair.bracket2, rep.mu, "rep-mu")
    if not v:
        return v
    md = rep.module_dim
    for i in range(n):
        for j in range(i + 1, n):
            lhs = combination(
                rep.rho, pair.bracket2.bracket_basis(i, j), md
            ) + combination(rep.mu, pair.bracket1.bracket_basis(i, j), md)
            rhs = rep.rho[i].commutator(rep.mu[j]) - rep.rho[j].commutator(rep.mu[i])
            diff = lhs - rhs
            if not diff.is_zero():
                return Verdict(
                    False, Witness("rep-mixed", (i + 1, j + 1), _flatten_matrix(diff))
                )
    return OK


def adjoint_rep(pair: CompatiblePair) -> RepPair:
    """The adjoint pair (ad, AD): ad(x)y = [x,y] and AD(x)y = {x,y}."""
    return RepPair(
        pair.dim, pair.bracket1.ad_matrices(), pair.bracket2.ad_matrices()
    )
