"""Alternating multilinear cochains and the Nijenhuis-Richardson bracket.

A cochain of arity p on a source space of dimension n with values in a target
space of dimension m is an alternating p-linear map, stored sparsely by its
values on increasing basis subsets.  Evaluation on arbitrary index lists uses
the alternating extension (permutation sign, zero on repeats).

Sums run on one integer core.  A cochain keeps its values as integer rows
over one denominator (`Cochain.integer_rows`, cleared by `linalg.cleared`
on first use); `add_value` adds a cochain's value on vectors given by their
integer terms, at any arity; `Cochain.from_integer_values` turns a finished
integer table into a cochain, building each nonzero Fraction once, and
keeps the table, divided by the gcd of its denominator and values, as the
cochain's integer rows, so a cochain built from integers is never cleared.
`eval_vectors`, `nr_compose` and the closed forms of `deformation` and
`extension` are written with these three (the rational sums are the test
oracles `eval_vectors_fraction`, `nr_compose_fraction` and
`nr_bracket_fraction`).

The graded Lie structure: a cochain of arity p+1 has degree p, and

    [P, Q]_NR = P . Q - (-1)^{pq} Q . P,
    (P . Q)(x_1..x_{p+q+1}) = sum, over every (q+1, p)-unshuffle s, of
        sign(s) P(Q(x_{s(1)}..x_{s(q+1)}), x_{s(q+2)}..x_{s(p+q+1)}).

Both are integer scatters over the operands' rows, for endomorphism-valued
cochains only.  `_add_composition` files P's rows once per slot and adds
each whole signed row of P wherever an entry of Q meets it, with one merge
sign per (entry, filed row).  `nr_bracket` scatters P.Q and -(-1)^{pq} Q.P
into one integer table (P.P once with factor 2 when P is Q in odd degree,
nothing in even degree) and builds its Fractions once; `nr_compose` is a
single composition.  `Cochain` checks each distinct subset of its table
once, and `Cochain.unchecked` takes a table already in stored form.  Module
coefficients enter the library through the Chevalley-Eilenberg arm
matrices of `cohomology.ce_matrix`; `ce_coboundary` is the per-subset sum
they are tested against.  The lifts to a direct sum that carry module
cochains into the bracket are test references (`tests/oracles.py`).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product
from math import comb, gcd, prod

from .linalg import Matrix, Vec, cleared, frac, is_zero_vec, vadd, vscale, vzero

Subset = tuple[int, ...]

# the zero coordinate `eval_vectors` shares between its values
_ZERO = Fraction(0)


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


# `sort_with_sign` of the index tuples `_add_composition` merges, kept for the
# process: the same (inner, outer) merges recur in every composition of one
# dimension and arity.  Bounded, so large dimensions cannot grow it unchecked.
_merge_sign = lru_cache(maxsize=4096)(sort_with_sign)


def _check_subset(subset: Subset, arity: int, source_dim: int) -> None:
    """Raise unless the subset is increasing, of size `arity`, with every
    index below `source_dim`."""
    if len(subset) != arity or any(a >= b for a, b in zip(subset, subset[1:])):
        raise ValueError(f"subset {subset} is not increasing of size {arity}")
    if subset and not 0 <= subset[0] <= subset[-1] < source_dim:
        raise ValueError("index out of range")


class Cochain:
    """Alternating p-linear map stored as {(increasing subset, target index):
    coefficient}; zero entries are never stored.  Arity 0 is a plain target
    vector filed under the empty subset.  A cochain is immutable: `coeffs`
    is never mutated after construction, so tables derived from it
    (`integer_rows`, on first use or kept from the integers it was built
    from) stay valid for the cochain's lifetime."""

    __slots__ = ("arity", "source_dim", "target_dim", "coeffs", "_rows")

    def __init__(self, arity: int, source_dim: int, target_dim: int, coeffs=None):
        if arity < 0:
            raise ValueError("arity must be >= 0")
        self.arity = arity
        self.source_dim = source_dim
        self.target_dim = target_dim
        table: dict[tuple[Subset, int], Fraction] = {}
        # each distinct subset is checked once, every entry's target and value
        checked: set[Subset] = set()
        for (subset, k), c in (coeffs or {}).items():
            subset = tuple(subset)
            c = frac(c)
            if c == 0:
                continue
            if subset not in checked:
                _check_subset(subset, arity, source_dim)
                checked.add(subset)
            if not 0 <= k < target_dim:
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
    def from_integer_values(
        cls, arity, source_dim, target_dim, den: int, values
    ) -> "Cochain":
        """values: mapping increasing subset in range -> {target index in
        range: integer}, read as integers over the one denominator `den`
        (the callers' sums build no other table, so none is checked).  Each
        nonzero Fraction is built once and stored in lexicographic (subset,
        target) order; the table, reduced by g = gcd(den, values), is kept
        as the cochain's `integer_rows`, which clearing would give."""
        coeffs = {}
        rows = {}
        g = den
        for subset in sorted(values):
            row = tuple([(k, v) for k, v in sorted(values[subset].items()) if v])
            if row:
                rows[subset] = row
                for k, v in row:
                    coeffs[(subset, k)] = Fraction(v, den)
                    g = gcd(g, v)
        if g > 1:
            rows = {s: tuple([(k, v // g) for k, v in row]) for s, row in rows.items()}
        f = cls.unchecked(arity, source_dim, target_dim, coeffs)
        f._rows = den // g, rows
        return f

    @classmethod
    def unchecked(cls, arity, source_dim, target_dim, coeffs) -> "Cochain":
        """A cochain on a table already in stored form: increasing tuple
        subsets in range, targets in range and nonzero Fraction values,
        none of which is checked again."""
        f = cls.__new__(cls)
        f.arity, f.source_dim, f.target_dim = arity, source_dim, target_dim
        f.coeffs = coeffs
        return f

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

    def integer_rows(self) -> tuple[int, dict[Subset, tuple[tuple[int, int], ...]]]:
        """(L, {subset: ((k, L c_k), ...)}): the stored values as integer
        rows over one denominator L, the lcm of the coefficients'
        denominators; built on first use and kept."""
        try:
            return self._rows
        except AttributeError:
            pass
        den, nums = cleared(self.coeffs.values())
        rows: dict[Subset, list] = {}
        for (subset, k), num in zip(self.coeffs, nums):
            rows.setdefault(subset, []).append((k, num))
        self._rows = den, {subset: tuple(row) for subset, row in rows.items()}
        return self._rows

    def eval_vectors(self, vectors) -> Vec:
        """Full multilinear alternating evaluation on source-space vectors:
        `add_value` over the `integer_rows` table and the arguments, each
        cleared of denominators once."""
        if len(vectors) != self.arity:
            raise ValueError("wrong number of arguments")
        scale, rows = self.integer_rows()
        terms = []
        for v in vectors:
            lv, nums = cleared(v)
            terms.append([(i, x) for i, x in enumerate(nums) if x])
            scale *= lv
        acc = dict.fromkeys(range(self.target_dim), 0)
        add_value(acc, rows, terms)
        return tuple(Fraction(v, scale) if v else _ZERO for v in acc.values())

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


def add_value(acc: dict[int, int], rows, vectors, factor: int = 1) -> None:
    """acc += factor * f(v_1, .., v_p) on integers, for a cochain f of any
    arity p given by the rows of `Cochain.integer_rows` and p vectors given
    by their integer terms [(index, x), ...]; f alternates, so a repeated
    index adds nothing."""
    if len(vectors) == 2:
        # every library caller: a pair is sorted by one comparison
        u, v = vectors
        for a, x in u:
            fx = factor * x
            for b, y in v:
                if a < b:
                    row, c = rows.get((a, b), ()), fx * y
                elif a > b:
                    row, c = rows.get((b, a), ()), -fx * y
                else:
                    continue
                for t, d in row:
                    acc[t] = acc.get(t, 0) + c * d
        return
    for term in product(*vectors):
        ss = sort_with_sign([i for i, _ in term])
        if ss is None:
            continue
        row = rows.get(ss[0])
        if row:
            c = prod((x for _, x in term), start=factor * ss[1])
            for t, d in row:
                acc[t] = acc.get(t, 0) + c * d


# -- Nijenhuis-Richardson bracket ----------------------------------------------


def _check_endomorphisms(p: Cochain, q: Cochain) -> None:
    """Raise unless P and Q are endomorphism-valued on one space."""
    for f in (p, q):
        if f.source_dim != f.target_dim:
            raise ValueError("nr_compose needs endomorphism-valued cochains")
    if p.source_dim != q.source_dim:
        raise ValueError("dimension mismatch")


def _add_composition(table: dict, p: Cochain, q: Cochain, factor: int) -> None:
    """table += factor * P . Q on integers over L_p L_q, the product of
    the operands' `integer_rows` denominators; table maps each increasing
    subset to {target: integer}.

    Each row (J, ((t, d), ..)) of P is filed under every slot k of J as
    (O, (-1)^pos_J(k), row), O = J minus k; each entry (I, k, c) of Q meets
    those filed under k with one merge sign of I u O (overlaps vanish) and
    adds the whole signed row there.  An arity-0 P has no slot: it adds
    nothing."""
    filed: dict[int, list] = {}
    for subset, row in p.integer_rows()[1].items():
        for pos, k in enumerate(subset):
            rest = subset[:pos] + subset[pos + 1 :]
            filed.setdefault(k, []).append((rest, -factor if pos % 2 else factor, row))
    for inner, qrow in q.integer_rows()[1].items():
        for k, c in qrow:
            for outer, sign, row in filed.get(k, ()):
                merged = _merge_sign(inner + outer)
                if merged is None:
                    continue
                subset, merge = merged
                acc = table.get(subset)
                if acc is None:
                    acc = table[subset] = {}
                c_row = c * sign if merge == 1 else -c * sign
                for t, d in row:
                    acc[t] = acc.get(t, 0) + c_row * d


def _from_table(p: Cochain, q: Cochain, table: dict) -> Cochain:
    """The cochain of an integer table `_add_composition` filled from P and
    Q, read over L_p L_q."""
    n, arity = p.source_dim, max(p.arity + q.arity - 1, 0)
    den = p.integer_rows()[0] * q.integer_rows()[0]
    return Cochain.from_integer_values(arity, n, n, den, table)


def nr_compose(p: Cochain, q: Cochain) -> Cochain:
    """P . Q as one integer scatter over the stored nonzeros
    (`_add_composition`); endomorphism-valued cochains only.  The table is
    read over L_p L_q by `from_integer_values`, so the result is that of a
    rational scatter, entry for entry."""
    _check_endomorphisms(p, q)
    table: dict = {}
    _add_composition(table, p, q, 1)
    return _from_table(p, q, table)


def nr_bracket(p: Cochain, q: Cochain) -> Cochain:
    """[P,Q]_NR = P.Q - (-1)^{pq} Q.P with degrees p = arity(P)-1 etc.,
    scattered into one integer table over L_p L_q: both compositions, or
    for P is Q the one composition P.P twice in odd degree and none in even
    degree, where [P, P] vanishes."""
    _check_endomorphisms(p, q)
    odd = (p.arity - 1) * (q.arity - 1) % 2
    table: dict = {}
    if p is not q:
        _add_composition(table, p, q, 1)
        _add_composition(table, q, p, 1 if odd else -1)
    elif odd:
        _add_composition(table, p, p, 2)
    return _from_table(p, q, table)


# -- Chevalley-Eilenberg coboundary ---------------------------------------------


def ce_coboundary(pi: Cochain, rho, f: Cochain) -> Cochain:
    """The coboundary of f for the bracket pi with coefficient matrices rho.

    For f of arity n this is the alternating sum

      (df)(x_1..x_{n+1}) = sum_i (-1)^{i+1} rho(x_i) f(.. x_i^ ..)
        + sum_{i<j} (-1)^{i+j} f(pi(x_i,x_j), .. x_i^ .. x_j^ ..),

    evaluated exactly on increasing basis subsets.  rho is one target-space
    matrix per source basis vector; pi is an arity-2 endomorphism cochain.
    The production coboundary is the arm matrix `cohomology.ce_matrix`;
    this sum is the reference it is tested against, and a trace target of
    the benchmark.
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
