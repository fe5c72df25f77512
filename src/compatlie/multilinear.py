"""Alternating multilinear cochains and the Nijenhuis-Richardson bracket.

A cochain of arity p on a source space of dimension n with values in a target
space of dimension m is an alternating p-linear map, stored sparsely by its
values on increasing basis subsets.  Evaluation on arbitrary index lists uses
the alternating extension (permutation sign, zero on repeats); evaluation on
vectors extends multilinearly.

The graded Lie structure: a cochain of arity p+1 has degree p, and

    [P, Q]_NR = P . Q - (-1)^{pq} Q . P,
    (P . Q)(x_1..x_{p+q+1}) = sum over (q+1, p)-unshuffles s of
        sign(s) P(Q(x_{s(1)}..x_{s(q+1)}), x_{s(q+2)}..x_{s(p+q+1)}).

These operations are implemented for endomorphism-valued cochains only;
module-valued cochains enter the bracket through lifts to the direct sum
(see `BiMap.lift`), where a bidegree bookkeeping makes the block structure
explicit.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb, factorial

from .linalg import Matrix, Vec, frac, is_zero_vec, vadd, vscale, vzero

Subset = tuple[int, ...]


def sort_with_sign(indices) -> tuple[Subset, int] | None:
    """Sort an index tuple, returning (sorted, permutation sign); None if an
    index repeats (the alternating extension vanishes there)."""
    idx = list(indices)
    sign = 1
    # insertion sort; fine at the arities that occur (<= 7)
    for i in range(1, len(idx)):
        j = i
        while j > 0 and idx[j - 1] > idx[j]:
            idx[j - 1], idx[j] = idx[j], idx[j - 1]
            sign = -sign
            j -= 1
    for a, b in zip(idx, idx[1:]):
        if a == b:
            return None
    return tuple(idx), sign


def perm_sign(word) -> int:
    """Sign of a permutation given as a sequence of distinct values."""
    inv = sum(
        1
        for i in range(len(word))
        for j in range(i + 1, len(word))
        if word[i] > word[j]
    )
    return -1 if inv % 2 else 1


def unshuffles(i: int, n: int) -> list[tuple[Subset, int]]:
    """All (i, n-i)-unshuffles of {0..n-1} with their signs.

    A permutation s is an (i, n-i)-unshuffle when s(1) < .. < s(i) and
    s(i+1) < .. < s(n); it is determined by the first block, so the list is
    generated by choosing the block (length C(n, i)), never by filtering all
    n! permutations.  Each entry is (s(1)..s(n)) as a tuple with its sign.
    For i = 0 or i = n only the identity occurs.
    """
    if not 0 <= i <= n:
        raise ValueError(f"need 0 <= i <= n, got ({i}, {n})")
    out = []
    for first in combinations(range(n), i):
        chosen = set(first)
        rest = tuple(k for k in range(n) if k not in chosen)
        word = first + rest
        out.append((word, perm_sign(word)))
    return out


class Cochain:
    """Alternating p-linear map stored as {(increasing subset, target index):
    coefficient}; zero entries are never stored.  Arity 0 is a plain target
    vector filed under the empty subset."""

    __slots__ = ("arity", "source_dim", "target_dim", "coeffs")

    def __init__(self, arity: int, source_dim: int, target_dim: int, coeffs=None):
        if arity < 0:
            raise ValueError("arity must be >= 0")
        self.arity = arity
        self.source_dim = source_dim
        self.target_dim = target_dim
        table: dict[tuple[Subset, int], Fraction] = {}
        for (subset, k), c in (coeffs or {}).items():
            subset = tuple(subset)
            c = frac(c)
            if c == 0:
                continue
            if len(subset) != arity or any(
                a >= b for a, b in zip(subset, subset[1:])
            ):
                raise ValueError(f"subset {subset} is not increasing of size {arity}")
            if not all(0 <= i < source_dim for i in subset) or not 0 <= k < target_dim:
                raise ValueError("index out of range")
            table[(subset, k)] = c
        self.coeffs = table

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, arity: int, source_dim: int, target_dim: int) -> "Cochain":
        return cls(arity, source_dim, target_dim)

    @classmethod
    def from_values(cls, arity, source_dim, target_dim, values) -> "Cochain":
        """values: mapping increasing subset -> target vector."""
        coeffs = {}
        for subset, v in values.items():
            for k, c in enumerate(v):
                coeffs[(tuple(subset), k)] = c
        return cls(arity, source_dim, target_dim, coeffs)

    @classmethod
    def from_matrix(cls, m: Matrix) -> "Cochain":
        """An arity-1 cochain from a matrix (columns are images of basis)."""
        coeffs = {((j,), k): m[k, j] for j in range(m.cols) for k in range(m.rows)}
        return cls(1, m.cols, m.rows, coeffs)

    @classmethod
    def from_element(cls, v: Vec, source_dim: int) -> "Cochain":
        return cls(0, source_dim, len(v), {((), k): c for k, c in enumerate(v)})

    # -- basic structure ----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Cochain)
            and self.arity == other.arity
            and self.source_dim == other.source_dim
            and self.target_dim == other.target_dim
            and self.coeffs == other.coeffs
        )

    def __repr__(self):
        entries = ", ".join(
            f"{s}->e{k}:{c}" for (s, k), c in sorted(self.coeffs.items())
        )
        return (
            f"Cochain(arity={self.arity}, {self.source_dim}->{self.target_dim},"
            f" {{{entries}}})"
        )

    def _check_like(self, other: "Cochain"):
        if (self.arity, self.source_dim, self.target_dim) != (
            other.arity,
            other.source_dim,
            other.target_dim,
        ):
            raise ValueError("cochain shape mismatch")

    def __add__(self, other: "Cochain") -> "Cochain":
        self._check_like(other)
        table = dict(self.coeffs)
        for key, c in other.coeffs.items():
            table[key] = table.get(key, Fraction(0)) + c
        return Cochain(self.arity, self.source_dim, self.target_dim, table)

    def __sub__(self, other: "Cochain") -> "Cochain":
        return self + other.scale(-1)

    def __neg__(self) -> "Cochain":
        return self.scale(-1)

    def scale(self, c) -> "Cochain":
        c = frac(c)
        return Cochain(
            self.arity,
            self.source_dim,
            self.target_dim,
            {key: c * x for key, x in self.coeffs.items()},
        )

    # -- evaluation ----------------------------------------------------------

    def value(self, subset: Subset) -> Vec:
        """Value on an increasing basis subset, as a target vector."""
        out = [Fraction(0)] * self.target_dim
        for k in range(self.target_dim):
            c = self.coeffs.get((tuple(subset), k))
            if c is not None:
                out[k] = c
        return tuple(out)

    def eval_indices(self, indices) -> Vec:
        """Alternating evaluation on basis indices in any order (repeats
        give zero)."""
        if len(indices) != self.arity:
            raise ValueError("wrong number of arguments")
        ss = sort_with_sign(indices)
        if ss is None:
            return vzero(self.target_dim)
        subset, sign = ss
        v = self.value(subset)
        return v if sign == 1 else vscale(-1, v)

    def eval_vector_first(self, w: Vec, rest) -> Vec:
        """Evaluate with a general vector in the first slot and basis
        indices in the remaining slots (multilinear in the first slot)."""
        if len(w) != self.source_dim:
            raise ValueError("vector length mismatch")
        out = vzero(self.target_dim)
        for i, c in enumerate(w):
            if c != 0:
                out = vadd(out, vscale(c, self.eval_indices((i, *rest))))
        return out

    def eval_vectors(self, vectors) -> Vec:
        """Full multilinear alternating evaluation on source-space vectors."""
        if len(vectors) != self.arity:
            raise ValueError("wrong number of arguments")
        out = vzero(self.target_dim)
        for subset, sign in _expand(vectors):
            c = Fraction(sign)
            for v, i in zip(vectors, subset):
                c *= v[i]
            if c != 0:
                out = vadd(out, vscale(c, self.eval_indices(subset)))
        return out

    # -- flattening ----------------------------------------------------------

    def flatten(self) -> Vec:
        """Coordinates in the lexicographic (subset, target) order."""
        out = []
        for subset in combinations(range(self.source_dim), self.arity):
            for k in range(self.target_dim):
                out.append(self.coeffs.get((subset, k), Fraction(0)))
        return tuple(out)

    @classmethod
    def from_flat(cls, arity, source_dim, target_dim, flat) -> "Cochain":
        coeffs = {}
        it = iter(flat)
        for subset in combinations(range(source_dim), arity):
            for k in range(target_dim):
                coeffs[(subset, k)] = next(it)
        return cls(arity, source_dim, target_dim, coeffs)

    @staticmethod
    def flat_dim(arity: int, source_dim: int, target_dim: int) -> int:
        return comb(source_dim, arity) * target_dim

    def first_nonzero(self) -> tuple[Subset, Vec] | None:
        """Lexicographically first subset with a nonzero value (for witness
        reporting)."""
        for subset in sorted({s for s, _ in self.coeffs}):
            return subset, self.value(subset)
        return None


def _expand(vectors):
    """Index tuples (with multiplicity over all coordinates) for full
    multilinear evaluation; sign handling is delegated to eval_indices."""
    if not vectors:
        yield (), 1
        return
    dims = [len(v) for v in vectors]
    idx = [0] * len(vectors)
    while True:
        yield tuple(idx), 1
        j = len(idx) - 1
        while j >= 0:
            idx[j] += 1
            if idx[j] < dims[j]:
                break
            idx[j] = 0
            j -= 1
        if j < 0:
            return


# -- Nijenhuis-Richardson bracket ----------------------------------------------


def nr_compose(p: Cochain, q: Cochain) -> Cochain:
    """P . Q per the unshuffle sum; endomorphism-valued cochains only."""
    for f in (p, q):
        if f.source_dim != f.target_dim:
            raise ValueError("nr_compose needs endomorphism-valued cochains")
    if p.source_dim != q.source_dim:
        raise ValueError("dimension mismatch")
    n = p.source_dim
    if p.arity == 0:
        # no slot to plug Q into; the composition is identically zero
        return Cochain.zero(max(q.arity - 1, 0), n, n)
    r = p.arity + q.arity - 1
    sh = unshuffles(q.arity, r)
    values = {}
    for subset in combinations(range(n), r):
        total = vzero(n)
        for word, sign in sh:
            inner = tuple(subset[word[t]] for t in range(q.arity))
            outer = tuple(subset[word[t]] for t in range(q.arity, r))
            w = q.value(inner)  # inner is increasing: direct lookup
            if is_zero_vec(w):
                continue
            total = vadd(total, vscale(sign, p.eval_vector_first(w, outer)))
        values[subset] = total
    return Cochain.from_values(r, n, n, values)


def nr_bracket(p: Cochain, q: Cochain) -> Cochain:
    """[P,Q]_NR = P.Q - (-1)^{pq} Q.P with degrees p = arity(P)-1 etc."""
    pq = (p.arity - 1) * (q.arity - 1)
    left = nr_compose(p, q)
    if p is q:
        # Q.P is P.P again: [P, P] is 2 P.P in odd degree, zero in even
        if pq % 2:
            return left + left
        return Cochain.zero(left.arity, left.source_dim, left.target_dim)
    right = nr_compose(q, p)
    return left - right if pq % 2 == 0 else left + right


# -- lifts to a direct sum and bidegrees ---------------------------------------


@dataclass(frozen=True)
class Bidegree:
    k: int
    l: int

    def __str__(self):
        return f"{self.k}|{self.l}"


@dataclass(frozen=True)
class BiMap:
    """A map wedge^k(side 1) x wedge^l(side 2) -> one side of the sum,
    tabulated on increasing basis subsets of each factor.

    table maps (I, J, t) -> coefficient where I is an increasing k-subset of
    side 1, J an increasing l-subset of side 2 and t a basis index of the
    target side.
    """

    k: int
    l: int
    dim1: int
    dim2: int
    target_side: int  # 1 or 2
    table: tuple  # ((I, J, t, Fraction), ...) sorted

    @classmethod
    def make(cls, k, l, dim1, dim2, target_side, entries) -> "BiMap":
        if target_side not in (1, 2):
            raise ValueError("target_side must be 1 or 2")
        rows = []
        for (i_set, j_set, t), c in sorted(entries.items()):
            c = frac(c)
            if c != 0:
                rows.append((tuple(i_set), tuple(j_set), t, c))
        return cls(k, l, dim1, dim2, target_side, tuple(rows))

    def lift(self) -> Cochain:
        """The lift to an (k+l)-cochain on the direct sum.

        Basis vectors of the sum are ordered side 1 first, so on an
        increasing basis subset exactly one unshuffle separates the two
        kinds of arguments and it is the identity; the general interleaving
        only shows up when the lift is evaluated on non-basis arguments,
        which the alternating extension already covers.
        """
        n, m = self.dim1, self.dim2
        coeffs = {}
        for i_set, j_set, t, c in self.table:
            subset = i_set + tuple(n + j for j in j_set)
            target = t if self.target_side == 1 else n + t
            coeffs[(subset, target)] = c
        return Cochain(self.k + self.l, n + m, n + m, coeffs)


def lift_endo_cochain(f: Cochain, dim2: int = 0) -> BiMap:
    """f: wedge^k g -> g as a (k, 0) map into side 1 of g + V."""
    entries = {(s, (), t): c for (s, t), c in f.coeffs.items()}
    return BiMap.make(f.arity, 0, f.source_dim, dim2, 1, entries)


def lift_module_cochain(f: Cochain, dim2: int | None = None) -> BiMap:
    """f: wedge^k g -> V as a (k, 0) map into side 2."""
    m = f.target_dim if dim2 is None else dim2
    entries = {(s, (), t): c for (s, t), c in f.coeffs.items()}
    return BiMap.make(f.arity, 0, f.source_dim, m, 2, entries)


def lift_rep(matrices, dim1: int, dim2: int) -> BiMap:
    """rho: g x V -> V, rho(e_i) given as a matrix, as a (1, 1) map."""
    entries = {}
    for i in range(dim1):
        m = matrices[i]
        for a in range(dim2):
            for b in range(dim2):
                entries[((i,), (a,), b)] = m[b, a]
    return BiMap.make(1, 1, dim1, dim2, 2, entries)


def lift_side2_bracket(theta: Cochain, dim1: int) -> BiMap:
    """theta: wedge^2 V -> V as a (0, 2) map into side 2."""
    entries = {((), s, t): c for (s, t), c in theta.coeffs.items()}
    return BiMap.make(0, theta.arity, dim1, theta.source_dim, 2, entries)


def lift_linear_map(xi: Matrix, dim1: int, dim2: int) -> BiMap:
    """xi: g -> V as a (1, 0) map into side 2 (a 1|-1 element)."""
    entries = {}
    for i in range(dim1):
        for t in range(dim2):
            entries[((i,), (), t)] = xi[t, i]
    return BiMap.make(1, 0, dim1, dim2, 2, entries)


def bidegree_of(f: Cochain, dim1: int, dim2: int) -> Bidegree | None:
    """Detect the bidegree of a cochain on a split space, or None.

    A map of arity k+l+1 has bidegree k|l when inputs with k+1 arguments
    from side 1 and l from side 2 land in side 1, inputs with k and l+1
    land in side 2, and everything else is killed.  Only the vanishing
    pattern is inspected; nothing is inferred from how f was built.  The
    zero map matches every bidegree and is reported as None.
    """
    if f.source_dim != dim1 + dim2 or f.target_dim != dim1 + dim2:
        raise ValueError("split does not match the cochain's space")
    if f.is_zero():
        return None
    r = f.arity - 1
    for k in range(-1, r + 2):
        l = r - k
        if l < -1:
            continue
        if _has_bidegree(f, dim1, k, l):
            return Bidegree(k, l)
    return None


def _has_bidegree(f: Cochain, dim1: int, k: int, l: int) -> bool:
    for (subset, t), c in f.coeffs.items():
        a = sum(1 for i in subset if i < dim1)
        b = len(subset) - a
        if t < dim1:
            if (a, b) != (k + 1, l):
                return False
        else:
            if (a, b) != (k, l + 1):
                return False
    return True


def module_component(f: Cochain, dim1: int, dim2: int) -> Cochain:
    """Read an (arity)|-1 cochain on the sum back as a map wedge^* g -> V.

    Raises if f has entries outside that block.
    """
    coeffs = {}
    for (subset, t), c in f.coeffs.items():
        if any(i >= dim1 for i in subset) or t < dim1:
            raise ValueError("cochain is not concentrated in the module block")
        coeffs[(subset, t - dim1)] = c
    return Cochain(f.arity, dim1, dim2, coeffs)


# -- Chevalley-Eilenberg coboundary ---------------------------------------------


def ce_coboundary(pi: Cochain, rho, f: Cochain) -> Cochain:
    """The coboundary of f for the bracket pi with coefficient matrices rho.

    For f of arity n this is the alternating sum

      (df)(x_1..x_{n+1}) = sum_i (-1)^{i+1} rho(x_i) f(.. x_i^ ..)
        + sum_{i<j} (-1)^{i+j} f(pi(x_i,x_j), .. x_i^ .. x_j^ ..),

    evaluated exactly on increasing basis subsets.  rho is one target-space
    matrix per source basis vector; pi is an arity-2 endomorphism cochain.
    The production coboundary is the arm matrix `cohomology.ce_matrix`;
    this sum is the reference it is tested against.
    """
    n = f.arity
    sd = f.source_dim
    td = f.target_dim
    if pi.arity != 2 or pi.source_dim != sd or pi.target_dim != sd:
        raise ValueError("pi must be a bracket on the source space")
    if len(rho) != sd or any(m.shape() != (td, td) for m in rho):
        raise ValueError("rho must be one target-space matrix per source index")
    values = {}
    for subset in combinations(range(sd), n + 1):
        total = vzero(td)
        for pos in range(n + 1):
            rest = subset[:pos] + subset[pos + 1 :]
            w = f.value(rest)
            if not is_zero_vec(w):
                term = rho[subset[pos]].matvec(w)
                total = vadd(total, term if pos % 2 == 0 else vscale(-1, term))
        if n >= 1:
            for p1 in range(n + 1):
                for p2 in range(p1 + 1, n + 1):
                    w = pi.value((subset[p1], subset[p2]))
                    if is_zero_vec(w):
                        continue
                    rest = tuple(
                        subset[t] for t in range(n + 1) if t != p1 and t != p2
                    )
                    term = f.eval_vector_first(w, rest)
                    # (-1)^{i+j} with 1-based i = p1+1, j = p2+1
                    sign = 1 if (p1 + p2) % 2 == 0 else -1
                    total = vadd(total, vscale(sign, term))
        values[subset] = total
    return Cochain.from_values(n + 1, sd, td, values)


def ce_coboundary_nr(pi: Cochain, rho, f: Cochain) -> Cochain:
    """The same operator computed as (-1)^{n-1}[pi^ + rho^, f^]_NR through
    lifts to the direct sum; cross-checks the explicit sum."""
    n = f.arity
    sd, td = f.source_dim, f.target_dim
    anchor = lift_endo_cochain(pi, td).lift() + lift_rep(rho, sd, td).lift()
    bracket = nr_bracket(anchor, lift_module_cochain(f).lift())
    signed = bracket if (n - 1) % 2 == 0 else bracket.scale(-1)
    return module_component(signed, sd, td)


def ce_adjoint(pi: Cochain, f: Cochain) -> Cochain:
    """d^n_pi f = (-1)^{n-1}[pi, f]_NR, the adjoint-coefficient coboundary."""
    b = nr_bracket(pi, f)
    return b if (f.arity - 1) % 2 == 0 else b.scale(-1)


def gauge_series_coefficients(terms: int) -> list[Fraction]:
    """1/(k+1)! for k < terms: the (e^x - 1)/x series, used by the gauge
    debug mode."""
    return [Fraction(1, factorial(k + 1)) for k in range(terms)]
