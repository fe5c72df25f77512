"""Second routes: independent computations the library is tested against.

The library computes every quantity one way.  The paper describes most of
them a second way as well, in the graded Lie algebra of cochains on a
direct sum: lifts with bidegrees, the Nijenhuis-Richardson form of the
coboundaries, the Maurer-Cartan elements of an extension, the twisted
differentials and the gauge exponential.  Those descriptions live here,
with the defining sums the sparse kernels replaced (unshuffles, evaluation
on every index tuple), the rational scatters the integer `nr_compose` and
`nr_bracket` replaced, the rational evaluation the integer
`Cochain.eval_vectors` replaced, the rational Gauss-Jordan the integer
`Matrix.rref` and `Matrix.solve` replaced (`rref_fraction`,
`solve_fraction`), a fraction-free (Bareiss) rank, the entrywise and the
re-checked assembly of the direct-sum brackets, the staircase and
hand-expanded forms of the deformation checks, and the rational sums the
integer gauge transform, Nijenhuis torsion and equivalence layers
replaced, the `json.dumps` call the fixed-schema report writer
replaced, and the token-at-a-time document parser (`parse_reference`).
Nothing in `compatlie` imports this module.
"""

import json
import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product
from math import factorial, lcm, prod

from compatlie.cohomology import CochainTuple, staircase_coboundary
from compatlie.core import (
    OK,
    CompatiblePair,
    InternalCheckError,
    LieBracket,
    Verdict,
    Witness,
    combination,
    first_failure,
)
from compatlie.deformation import DeformationDatum
from compatlie.document import AlgebraDocument, CochainBlock, ParseError, RepBlock
from compatlie.extension import ExtensionDatum, assemble_brackets
from compatlie.linalg import Matrix, frac, is_zero_vec, vadd, vscale, vsub, vzero
from compatlie.multilinear import Cochain, nr_bracket, sort_with_sign

# -- permutations and the defining sums ------------------------------------------


def perm_sign(word) -> int:
    """Sign of a permutation given as a sequence of distinct values."""
    inv = sum(
        1
        for i in range(len(word))
        for j in range(i + 1, len(word))
        if word[i] > word[j]
    )
    return -1 if inv % 2 else 1


def unshuffles(i: int, n: int) -> list:
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


def nr_compose_unshuffle_sum(p: Cochain, q: Cochain) -> Cochain:
    """P . Q by the defining sum over every subset and every unshuffle,
    with dense target vectors: the reference for the scatter."""
    n = p.source_dim
    if p.arity == 0:
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


def nr_compose_fraction(p: Cochain, q: Cochain) -> Cochain:
    """P . Q as the scatter over the stored nonzeros on Fractions, sorting
    each I u O afresh and re-validating the finished table: the reference
    for the integer scatter of `nr_compose`."""
    for f in (p, q):
        if f.source_dim != f.target_dim:
            raise ValueError("nr_compose needs endomorphism-valued cochains")
    if p.source_dim != q.source_dim:
        raise ValueError("dimension mismatch")
    n = p.source_dim
    if p.arity == 0:
        # no slot to plug Q into; the composition is identically zero
        return Cochain.zero(max(q.arity - 1, 0), n, n)
    filed: dict[int, list] = {}
    for (subset, t), d in p.coeffs.items():
        for pos, k in enumerate(subset):
            rest = subset[:pos] + subset[pos + 1 :]
            filed.setdefault(k, []).append((rest, t, -d if pos % 2 else d))
    table: dict = {}
    for (inner, k), c in q.coeffs.items():
        for outer, t, d in filed.get(k, ()):
            ss = sort_with_sign(inner + outer)
            if ss is None:
                continue
            subset, sign = ss
            prev = table.get((subset, t), Fraction(0))
            table[(subset, t)] = prev + c * d if sign == 1 else prev - c * d
    # lexicographic storage order, as every other constructor gives
    return Cochain(p.arity + q.arity - 1, n, n, dict(sorted(table.items())))


def nr_bracket_fraction(p: Cochain, q: Cochain) -> Cochain:
    """[P, Q]_NR = P.Q - (-1)^{pq} Q.P as the rational sum of the two
    `nr_compose_fraction` scatters, stored in lexicographic order: the
    reference for the one integer table of `nr_bracket`."""
    pq = (p.arity - 1) * (q.arity - 1)
    left = nr_compose_fraction(p, q)
    right = nr_compose_fraction(q, p)
    total = left - right if pq % 2 == 0 else left + right
    n = p.source_dim
    return Cochain(total.arity, n, n, dict(sorted(total.coeffs.items())))


def eval_vectors_fraction(f: Cochain, vectors) -> tuple:
    """f on vectors by the sum over the product of the arguments' nonzero
    coordinates, accumulated in Fractions: the reference for the integer
    sum of `Cochain.eval_vectors`."""
    if len(vectors) != f.arity:
        raise ValueError("wrong number of arguments")
    out = [Fraction(0)] * f.target_dim
    nonzero = [[(i, x) for i, x in enumerate(v) if x] for v in vectors]
    for term in product(*nonzero):
        ss = sort_with_sign(i for i, _ in term)
        if ss is None:
            continue
        subset, sign = ss
        c = prod((x for _, x in term), start=Fraction(sign))
        for k in range(f.target_dim):
            d = f.coeffs.get((subset, k))
            if d is not None:
                out[k] += c * d
    return tuple(out)


def eval_vectors_index_expansion(f: Cochain, vectors) -> tuple:
    """f on vectors by the sum over every index tuple: the reference for
    the nonzero-coordinate evaluation."""
    out = vzero(f.target_dim)
    for idx in product(*(range(len(v)) for v in vectors)):
        c = Fraction(1)
        for v, i in zip(vectors, idx):
            c *= v[i]
        out = vadd(out, vscale(c, f.eval_indices(idx)))
    return out


# -- lifts to a direct sum and bidegrees -------------------------------------------


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


# -- Chevalley-Eilenberg coboundary in the graded algebra --------------------------


def ce_coboundary_nr(pi: Cochain, rho, f: Cochain) -> Cochain:
    """`multilinear.ce_coboundary` computed as (-1)^{n-1}[pi^ + rho^, f^]_NR
    through lifts to the direct sum; cross-checks the explicit sum."""
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


# -- elimination ------------------------------------------------------------------


def rref_fraction(m: Matrix) -> tuple[Matrix, tuple[int, ...]]:
    """Reduced row echelon form and pivots by Gauss-Jordan on Fractions.

    The same pivot search as `Matrix.rref`, with every row scaled to a
    leading 1 and every update done in rational arithmetic.
    """
    a = [list(m.row(i)) for i in range(m.rows)]
    pivots = []
    r = 0
    for c in range(m.cols):
        if r == m.rows:
            break
        p = next((i for i in range(r, m.rows) if a[i][c] != 0), None)
        if p is None:
            continue
        a[r], a[p] = a[p], a[r]
        inv = 1 / a[r][c]
        a[r] = [x * inv for x in a[r]]
        for i in range(m.rows):
            if i != r and a[i][c] != 0:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
    red = Matrix._raw(tuple(tuple(row) for row in a), m.rows, m.cols)
    return red, tuple(pivots)


def solve_fraction(m: Matrix, b) -> tuple | None:
    """The solution of mx = b read off `rref_fraction` of [m | b]: None
    when the last column is a pivot, else 0 at every free column and the
    last entry of each pivot row at its pivot column."""
    aug = Matrix._raw(
        tuple(m.row(i) + (frac(x),) for i, x in enumerate(b)), m.rows, m.cols + 1
    )
    red, pivots = rref_fraction(aug)
    if m.cols in pivots:
        return None
    x = [Fraction(0)] * m.cols
    for r, c in enumerate(pivots):
        x[c] = red[r, m.cols]
    return tuple(x)


def rank_bareiss(m: Matrix) -> int:
    """Rank via integer fraction-free (Bareiss) elimination.

    Independent of `Matrix.rref`: rows are cleared of denominators (which
    preserves rank) and all pivoting is done in exact integer arithmetic.
    """
    a = []
    for i in range(m.rows):
        row = m.row(i)
        mult = lcm(*(x.denominator for x in row)) if row else 1
        a.append([int(x * mult) for x in row])
    nrows, ncols = m.rows, m.cols
    r = 0
    prev = 1
    for c in range(ncols):
        if r == nrows:
            break
        p = next((i for i in range(r, nrows) if a[i][c] != 0), None)
        if p is None:
            continue
        a[r], a[p] = a[p], a[r]
        for i in range(r + 1, nrows):
            for j in range(c + 1, ncols):
                a[i][j] = (a[r][c] * a[i][j] - a[i][c] * a[r][j]) // prev
            a[i][c] = 0
        prev = a[r][c]
        r += 1
    return r


# -- deformations by the staircase and by hand -------------------------------------


def staircase_deformation_verdict(pair: CompatiblePair, d: DeformationDatum) -> Verdict:
    """The six deformation identities with deform-1..3 read as minus the
    components of the staircase coboundary of (w1, w2), built from the
    `ce_matrix` arms: the reference for `is_infinitesimal_deformation`."""
    w1, w2 = d.omega1, d.omega2
    closed = staircase_coboundary(pair, CochainTuple(2, [w1, w2])).components
    return first_failure(
        [
            ("deform-1: [pi1,w1]", -closed[0]),
            ("deform-2: [pi1,w2]+[pi2,w1]", -closed[1]),
            ("deform-3: [pi2,w2]", -closed[2]),
            ("deform-4: [w1,w1]", nr_bracket(w1, w1)),
            ("deform-5: [w1,w2]", nr_bracket(w1, w2)),
            ("deform-6: [w2,w2]", nr_bracket(w2, w2)),
        ]
    )


def _unit(dim, i):
    return tuple(int(k == i) for k in range(dim))


def hand_expanded_layers(bracket: LieBracket, w, w_prime, n_op: Matrix):
    """The t, t^2 and t^3 layers of

        (Id + tN)([x,y]_t) - [(Id+tN)x, (Id+tN)y]'_t,

    [.,.]_t deformed by w and [.,.]'_t by w', expanded on basis pairs."""
    dim = bracket.dim
    lin = {}
    for i in range(dim):
        for j in range(i + 1, dim):
            ni, nj = n_op.column(i), n_op.column(j)
            ei, ej = _unit(dim, i), _unit(dim, j)
            # t: w(x,y) + N[x,y] - [Nx,y] - [x,Ny] - w'(x,y)
            lin[(i, j)] = vsub(
                vadd(w.value((i, j)), n_op.matvec(bracket.bracket_basis(i, j))),
                vadd(
                    vadd(bracket.bracket(ni, ej), bracket.bracket(ei, nj)),
                    w_prime.value((i, j)),
                ),
            )
    quad, cub = homomorphism_defect_fraction(bracket, w, w_prime, n_op)
    return Cochain.from_values(2, dim, dim, lin), quad, cub


def hand_expanded_equivalence_verdict(
    pair: CompatiblePair, d: DeformationDatum, d_prime: DeformationDatum, n_op
) -> Verdict:
    """The six equivalence equations, every layer expanded by hand: the
    reference for `deformations_equivalent`, whose t layers are NR
    coboundaries."""
    b1, b2 = pair.bracket1, pair.bracket2
    lin1, quad1, cub1 = hand_expanded_layers(b1, d.omega1, d_prime.omega1, n_op)
    lin2, quad2, cub2 = hand_expanded_layers(b2, d.omega2, d_prime.omega2, n_op)
    return first_failure(
        [
            ("equiv-1: w1 - w1' = [pi1,N]", lin1),
            ("equiv-2: N w1 = w1'(.,N.) + w1'(N.,.) + [N.,N.]", quad1),
            ("equiv-3: w2 - w2' = [pi2,N]", lin2),
            ("equiv-4: N w2 = w2'(.,N.) + w2'(N.,.) + {N.,N.}", quad2),
            ("equiv-5: w1'(N.,N.) = 0", cub1),
            ("equiv-6: w2'(N.,N.) = 0", cub2),
        ]
    )


def nijenhuis_torsion_fraction(bracket: LieBracket, n_op: Matrix) -> Cochain:
    """The torsion N([x,y]_N) - [N x, N y] summed on Fraction vectors: the
    reference for the integer sum of `deformation.nijenhuis_torsion`."""
    dim = bracket.dim
    if n_op.shape() != (dim, dim):
        raise ValueError("operator shape does not match the algebra")
    # the deformed bracket [x,y]_N
    deformed = nr_bracket(bracket.to_cochain(), Cochain.from_matrix(n_op))
    values = {}
    for i in range(dim):
        for j in range(i + 1, dim):
            t = vsub(
                n_op.matvec(deformed.value((i, j))),
                bracket.bracket(n_op.column(i), n_op.column(j)),
            )
            values[(i, j)] = t
    return Cochain.from_values(2, dim, dim, values)


def homomorphism_defect_fraction(bracket: LieBracket, w, w_prime, n_op: Matrix):
    """The t^2 and t^3 layers of the homomorphism identity summed on
    Fraction vectors: the reference for the integer sums of
    `deformation._homomorphism_defect`."""
    dim = bracket.dim
    quad, cub = {}, {}
    for i in range(dim):
        for j in range(i + 1, dim):
            ni, nj = n_op.column(i), n_op.column(j)
            ei, ej = _unit(dim, i), _unit(dim, j)
            # t^2: N w(x,y) - [Nx, Ny] - w'(Nx,y) - w'(x,Ny)
            quad[(i, j)] = vsub(
                n_op.matvec(w.value((i, j))),
                vadd(
                    bracket.bracket(ni, nj),
                    vadd(
                        w_prime.eval_vectors((ni, ej)),
                        w_prime.eval_vectors((ei, nj)),
                    ),
                ),
            )
            # t^3: -w'(Nx, Ny)
            cub[(i, j)] = vscale(-1, w_prime.eval_vectors((ni, nj)))
    mk = lambda v: Cochain.from_values(2, dim, dim, v)  # noqa: E731
    return mk(quad), mk(cub)


# -- extensions in the graded algebra of the direct sum ----------------------------------


def _anchors(datum: ExtensionDatum):
    """The lifted base and fibre brackets pi_i^ + theta_i^ of the direct
    sum, whose graded brackets are the twisted differentials."""
    g, h = datum.base, datum.fibre
    n, m = g.dim, h.dim
    a1 = (
        lift_endo_cochain(g.bracket1.to_cochain(), m).lift()
        + lift_side2_bracket(h.bracket1.to_cochain(), n).lift()
    )
    a2 = (
        lift_endo_cochain(g.bracket2.to_cochain(), m).lift()
        + lift_side2_bracket(h.bracket2.to_cochain(), n).lift()
    )
    return a1, a2


def _mc_elements(datum: ExtensionDatum):
    """The lifted Maurer-Cartan elements (rho^ + w1^, mu^ + w2^)."""
    n, m = datum.base_dim, datum.fibre_dim
    p1 = lift_rep(datum.rho, n, m).lift() + lift_module_cochain(datum.omega1).lift()
    p2 = lift_rep(datum.mu, n, m).lift() + lift_module_cochain(datum.omega2).lift()
    return p1, p2


def lifted_maurer_cartan_verdict(datum: ExtensionDatum):
    """The three Maurer-Cartan identities for (rho^ + w1^, mu^ + w2^),
    twisted by the lifted anchors pi_i^ + theta_i^: the lifted route,
    independent of the assembled brackets, kept as the reference for
    `maurer_cartan_verdict`."""
    a1, a2 = _anchors(datum)
    p1, p2 = _mc_elements(datum)
    half = Fraction(1, 2)
    return first_failure(
        [
            ("mc-1", nr_bracket(a1, p1) + nr_bracket(p1, p1).scale(half)),
            ("mc-2", nr_bracket(a2, p2) + nr_bracket(p2, p2).scale(half)),
            ("mc-3", nr_bracket(a1, p2) + nr_bracket(a2, p1) + nr_bracket(p1, p2)),
        ]
    )


def _split_mc_element(p: Cochain, n: int, m: int):
    """Decompose a 1|0 + 2|-1 element back into action matrices and a
    cochain; raises on entries outside those blocks."""
    act_entries: dict[tuple[int, int, int], Fraction] = {}
    w_entries = {}
    for (subset, t), c in p.coeffs.items():
        if t < n:
            raise ValueError("element has a base-valued component")
        g_part = [i for i in subset if i < n]
        h_part = [i for i in subset if i >= n]
        if len(g_part) == 2 and not h_part:
            w_entries[(tuple(g_part), t - n)] = c
        elif len(g_part) == 1 and len(h_part) == 1:
            act_entries[(g_part[0], h_part[0] - n, t - n)] = c
        else:
            raise ValueError("element has entries outside the datum blocks")
    mats = []
    for i in range(n):
        mats.append(
            Matrix(
                [
                    [act_entries.get((i, a, b), Fraction(0)) for a in range(m)]
                    for b in range(m)
                ]
            )
        )
    w = Cochain(2, n, m, w_entries)
    return tuple(mats), w


def gauge_transform_nr(datum: ExtensionDatum, xi: Matrix) -> ExtensionDatum:
    """The gauge action computed in the graded algebra:

        P_i' = P_i + [s^, act^] - d_i(s^) - (1/2)[s^, d_i(s^)]

    with d_i = [anchor_i, -] and s = -xi.  Under the composition convention
    fixed by the coboundary cross-checks, the exponential-formula parameter
    is the negative of the xi appearing in the difference equations and the
    section shift (gauge orbits are unaffected); the sign is pinned here so
    that all three routes agree for the same xi.  Must agree with the
    closed form."""
    n, m = datum.base_dim, datum.fibre_dim
    a1, a2 = _anchors(datum)
    p1, p2 = _mc_elements(datum)
    xi_hat = lift_linear_map(xi.scale(-1), n, m).lift()
    rho_hat = lift_rep(datum.rho, n, m).lift()
    mu_hat = lift_rep(datum.mu, n, m).lift()
    half = Fraction(1, 2)

    def one_side(p, act_hat, anchor):
        d_xi = nr_bracket(anchor, xi_hat)
        return (
            p
            + nr_bracket(xi_hat, act_hat)
            - d_xi
            - nr_bracket(xi_hat, d_xi).scale(half)
        )

    new1 = one_side(p1, rho_hat, a1)
    new2 = one_side(p2, mu_hat, a2)
    rho2, w12 = _split_mc_element(new1, n, m)
    mu2, w22 = _split_mc_element(new2, n, m)
    return ExtensionDatum(datum.base, datum.fibre, rho2, mu2, w12, w22)


def gauge_transform_series(
    datum: ExtensionDatum, xi: Matrix, terms: int = 4
) -> ExtensionDatum:
    """The exponential gauge formula

        P' = e^{ad_xi} P - sum_k ad_xi^k/(k+1)!  d(xi)

    to `terms` terms; the series truncates after the closed-form terms
    because repeated brackets with xi drop out of the block grid.  The
    parameter is negated as in `gauge_transform_nr`."""
    n, m = datum.base_dim, datum.fibre_dim
    a1, a2 = _anchors(datum)
    p1, p2 = _mc_elements(datum)
    xi_hat = lift_linear_map(xi.scale(-1), n, m).lift()

    def one_side(p, anchor):
        # e^{ad_xi} p
        total = p
        power = p
        fact = Fraction(1)
        for k in range(1, terms + 1):
            power = nr_bracket(xi_hat, power)
            fact = fact / k
            total = total + power.scale(fact)
        # (e^{ad_xi}-1)/ad_xi applied to d(xi): coefficients 1/(k+1)!
        piece = nr_bracket(anchor, xi_hat)
        for k in range(terms):
            total = total - piece.scale(Fraction(1, factorial(k + 1)))
            piece = nr_bracket(xi_hat, piece)
        return total

    rho2, w12 = _split_mc_element(one_side(p1, a1), n, m)
    mu2, w22 = _split_mc_element(one_side(p2, a2), n, m)
    return ExtensionDatum(datum.base, datum.fibre, rho2, mu2, w12, w22)


def gauge_transform_fraction(datum: ExtensionDatum, xi: Matrix) -> ExtensionDatum:
    """The closed-form gauge action summed on Fraction vectors and
    matrices: the reference for the integer sums of
    `extension.gauge_transform`."""
    g, h = datum.base, datum.fibre
    n, m = g.dim, h.dim
    if xi.shape() != (m, n):
        raise ValueError("xi must map the base to the fibre")

    def transform(act, w, g_br, h_br):
        ad = h_br.ad_matrices()
        new_act = tuple(act[i] + combination(ad, xi.column(i), m) for i in range(n))
        values = {}
        for i in range(n):
            for j in range(i + 1, n):
                shift = vadd(
                    vsub(
                        act[i].matvec(xi.column(j)), act[j].matvec(xi.column(i))
                    ),
                    vsub(
                        h_br.bracket(xi.column(i), xi.column(j)),
                        xi.matvec(g_br.bracket_basis(i, j)),
                    ),
                )
                values[(i, j)] = vadd(w.value((i, j)), shift)
        return new_act, Cochain.from_values(2, n, m, values)

    rho2, w12 = transform(datum.rho, datum.omega1, g.bracket1, h.bracket1)
    mu2, w22 = transform(datum.mu, datum.omega2, g.bracket2, h.bracket2)
    return ExtensionDatum(g, h, rho2, mu2, w12, w22)


def difference_equations_verdict(
    datum: ExtensionDatum, other: ExtensionDatum, xi: Matrix
) -> Verdict:
    """The four difference equations between two data, each written out:

        rho'(x) - rho(x) = ad_h(xi x)                          (iso-1; mu: iso-2)
        w1'(x,y) - w1(x,y) = rho(x) xi(y) - rho(y) xi(x) - xi([x,y]_g)
                             + [xi x, xi y]_h                  (iso-3; w2: iso-4)

    at the first failing base index or pair; the reference for
    `extensions_isomorphic_under`, which compares with `gauge_transform`."""
    g, h = datum.base, datum.fibre
    n, m = g.dim, h.dim
    for law, act, act2, h_br in (
        ("iso-1", datum.rho, other.rho, h.bracket1),
        ("iso-2", datum.mu, other.mu, h.bracket2),
    ):
        ad = h_br.ad_matrices()
        for i in range(n):
            diff = act2[i] - act[i] - combination(ad, xi.column(i), m)
            if not diff.is_zero():
                flat = tuple(x for r in range(diff.rows) for x in diff.row(r))
                return Verdict(False, Witness(law, (i + 1,), flat))
    for law, act, w, w2, g_br, h_br in (
        ("iso-3", datum.rho, datum.omega1, other.omega1, g.bracket1, h.bracket1),
        ("iso-4", datum.mu, datum.omega2, other.omega2, g.bracket2, h.bracket2),
    ):
        for i in range(n):
            for j in range(i + 1, n):
                expected = vadd(
                    vsub(act[i].matvec(xi.column(j)), act[j].matvec(xi.column(i))),
                    vsub(
                        h_br.bracket(xi.column(i), xi.column(j)),
                        xi.matvec(g_br.bracket_basis(i, j)),
                    ),
                )
                diff = vsub(vsub(w2.value((i, j)), w.value((i, j))), expected)
                if not is_zero_vec(diff):
                    return Verdict(False, Witness(law, (i + 1, j + 1), diff))
    return OK


def assemble_brackets_entrywise(datum: ExtensionDatum):
    """The two direct-sum brackets, filed entry by entry from the values of
    the base bracket, the cochain, the action columns and the fibre bracket
    on every basis pair: the reference for `extension.assemble_brackets`."""
    n, m = datum.base_dim, datum.fibre_dim

    def build(g_br, h_br, act, w):
        entries = {}
        for i in range(n):
            for j in range(i + 1, n):
                for k, c in enumerate(g_br.bracket_basis(i, j)):
                    entries[(i, j, k)] = c
                for k, c in enumerate(w.value((i, j))):
                    entries[(i, j, n + k)] = c
        for i in range(n):
            for a in range(m):
                for k, c in enumerate(act[i].column(a)):
                    entries[(i, n + a, n + k)] = c
        for a in range(m):
            for b in range(a + 1, m):
                for k, c in enumerate(h_br.bracket_basis(a, b)):
                    entries[(n + a, n + b, n + k)] = c
        return LieBracket(n + m, entries)

    g, h = datum.base, datum.fibre
    return (
        build(g.bracket1, h.bracket1, datum.rho, datum.omega1),
        build(g.bracket2, h.bracket2, datum.mu, datum.omega2),
    )


def assemble_brackets_checked(datum: ExtensionDatum):
    """The two direct-sum brackets filed from the stored nonzeros of the
    parts at shifted keys, in the same order, with the finished table
    checked again by the validating `Cochain` constructor: the reference
    for `extension.assemble_brackets`, which stores the same keys
    unchecked."""
    g, h = datum.base, datum.fibre
    n, m = g.dim, h.dim

    def build(g_br, h_br, act, w):
        coeffs = dict(g_br.to_cochain().coeffs)
        for (ij, k), c in w.coeffs.items():
            coeffs[(ij, n + k)] = c
        for i, mat in enumerate(act):
            for k in range(m):
                for a, c in enumerate(mat.row(k)):
                    if c:
                        coeffs[((i, n + a), n + k)] = c
        for ((a, b), k), c in h_br.to_cochain().coeffs.items():
            coeffs[((n + a, n + b), n + k)] = c
        return LieBracket.from_cochain(Cochain(2, n + m, n + m, coeffs))

    return (
        build(g.bracket1, h.bracket1, datum.rho, datum.omega1),
        build(g.bracket2, h.bracket2, datum.mu, datum.omega2),
    )


def theta_intertwines_matrix(
    datum: ExtensionDatum, moved: ExtensionDatum, xi: Matrix
) -> bool:
    """Does theta: (x, u) -> (x, -xi(x) + u) intertwine the extensions
    built from the two data, by the theta matrix and the rational brackets
    of its columns: the reference for the integer check
    `extension._theta_intertwines`."""
    n, m = datum.base_dim, datum.fibre_dim
    big = n + m
    theta = Matrix(
        [
            [
                Fraction(i == j) if i < n or j >= n else -xi[i - n, j]
                for j in range(big)
            ]
            for i in range(big)
        ]
    )
    return all(
        theta.matvec(built.bracket_basis(p, q))
        == eval_vectors_fraction(
            built2.to_cochain(), (theta.column(p), theta.column(q))
        )
        for built, built2 in zip(assemble_brackets(datum), assemble_brackets(moved))
        for p in range(big)
        for q in range(p + 1, big)
    )


def _gt_subsets(total: int, n: int, arity: int):
    """Increasing subsets of the sum basis with at least one base index."""
    return [
        s
        for s in combinations(range(total), arity)
        if any(i < n for i in s)
    ]


def twisted_boundary_matrices(
    g_pair: CompatiblePair, h_pair: CompatiblePair, arity: int
) -> tuple[Matrix, Matrix]:
    """Matrices of the two twisted differentials [anchor_i, -] on the space
    of arity-`arity` cochains valued in the fibre that vanish on pure-fibre
    inputs; closure of that space is checked (the subalgebra lemma)."""
    n, m = g_pair.dim, h_pair.dim
    total = n + m
    datum0 = ExtensionDatum(
        g_pair,
        h_pair,
        tuple(Matrix.zeros(m, m) for _ in range(n)),
        tuple(Matrix.zeros(m, m) for _ in range(n)),
        Cochain.zero(2, n, m),
        Cochain.zero(2, n, m),
    )
    a1, a2 = _anchors(datum0)
    dom = _gt_subsets(total, n, arity)
    cod = _gt_subsets(total, n, arity + 1)
    cod_index = {
        (s, t): pos * m + k
        for pos, s in enumerate(cod)
        for k, t in enumerate(range(n, total))
    }

    def matrix_of(anchor):
        cols = []
        for s in dom:
            for t in range(n, total):
                e = Cochain(arity, total, total, {(s, t): 1})
                d = nr_bracket(anchor, e)
                col = [Fraction(0)] * (len(cod) * m)
                for (subset, tt), c in d.coeffs.items():
                    if tt < n or all(i >= n for i in subset):
                        raise InternalCheckError(
                            "twisted differential left the subcomplex"
                        )
                    col[cod_index[(subset, tt)]] = c
                cols.append(tuple(col))
        return Matrix.from_columns(cols, rows=len(cod) * m)

    return matrix_of(a1), matrix_of(a2)


# -- reports ------------------------------------------------------------------------


def report_json_reference(data) -> str:
    """A report's JSON as the standard library's encoder writes it: the
    reference for `Report.to_json`."""
    return json.dumps(data, sort_keys=True, indent=2) + "\n"


# -- the document parser ----------------------------------------------------------

_RATIONAL = re.compile(r"^[+-]?[0-9]+(/[0-9]+)?$")
_INTEGER = re.compile(r"^[0-9]+$")
_NAME = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")
_HEADER = re.compile(r"^\[([a-z0-9]+)(?:\s+(\S+))?\]$")


def _rational_reference(tok: str, line: int, seen: dict) -> Fraction:
    """`seen` holds the tokens of this document already converted; only
    successes are stored, so an error names the line the token fails on."""
    c = seen.get(tok)
    if c is None:
        if not _RATIONAL.match(tok):
            raise ParseError(line, f"malformed rational {tok!r}")
        if "/" in tok and int(tok.split("/")[1]) == 0:
            raise ParseError(line, f"zero denominator in {tok!r}")
        c = seen[tok] = Fraction(tok)
    return c


def _integer_reference(
    tok: str, line: int, message: str, seen: dict, least: int = 0
) -> int:
    """ASCII digits only: str.isdigit passes superscripts that int() rejects.
    `seen` is keyed by (token, least), as `_rational_reference`'s is by token."""
    n = seen.get((tok, least))
    if n is None:
        if not _INTEGER.match(tok) or int(tok) < least:
            raise ParseError(line, message)
        n = seen[tok, least] = int(tok)
    return n


def parse_reference(text: str) -> AlgebraDocument:
    """The token-at-a-time parser `document.parse` replaced: every token
    through `_rational_reference` / `_integer_reference` and every block
    built after the whole text is read."""
    # each distinct token is converted once per document
    rationals: dict[str, Fraction] = {}
    integers: dict[tuple[str, int], int] = {}
    dim = None
    pi: dict[str, dict] = {"pi1": {}, "pi2": {}}
    pi_lines: dict[str, dict] = {"pi1": {}, "pi2": {}}
    rep_dim = None
    rep_line = 0
    rep_mats: dict[tuple[str, int], list] = {}
    rep_mat_lines: dict[tuple[str, int], int] = {}
    ops: dict[str, list] = {}
    op_lines: dict[str, int] = {}
    cochain_raw: dict[str, dict] = {}
    seen_sections: set[str] = set()

    section = None  # ("algebra" | "pi1" | "pi2" | "rep" | "op" | "cochain", name)
    current_matrix = None  # key into rep_mats / ops while rows are collected

    lines = text.splitlines()
    for ln, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            m = _HEADER.match(line)
            if not m:
                raise ParseError(ln, f"bad section header {line!r}")
            kind, name = m.group(1), m.group(2)
            if kind in ("algebra", "pi1", "pi2", "rep"):
                if name is not None:
                    raise ParseError(ln, f"section [{kind}] takes no name")
                if kind in seen_sections:
                    raise ParseError(ln, f"duplicate section [{kind}]")
                seen_sections.add(kind)
                section = (kind, None)
                if kind == "rep":
                    rep_line = ln
            elif kind in ("op", "cochain"):
                if name is None or not _NAME.match(name):
                    raise ParseError(ln, f"section [{kind}] needs a valid name")
                store = ops if kind == "op" else cochain_raw
                if name in store:
                    raise ParseError(ln, f"duplicate section [{kind} {name}]")
                if kind == "op":
                    ops[name] = []
                    op_lines[name] = ln
                    current_matrix = ("op", name)
                else:
                    cochain_raw[name] = {
                        "dim": None,
                        "target": None,
                        "entries": {},
                        "lines": {},
                        "line": ln,
                    }
                section = (kind, name)
            else:
                raise ParseError(ln, f"unknown section [{kind}]")
            if kind != "op":
                current_matrix = None
            continue
        if section is None:
            raise ParseError(ln, "content before the first section header")
        kind, name = section
        toks = line.split()
        if kind == "algebra":
            if toks[0] == "dim" and len(toks) == 2:
                if dim is not None:
                    raise ParseError(ln, "dim given twice")
                msg = "dim must be a positive integer"
                dim = _integer_reference(toks[1], ln, msg, integers, 1)
            else:
                raise ParseError(ln, f"unexpected line in [algebra]: {line!r}")
        elif kind in ("pi1", "pi2"):
            if len(toks) != 4:
                raise ParseError(ln, "bracket entries are 'i j k coeff'")
            msg = "bracket indices must be positive integers"
            i, j, k = (_integer_reference(t, ln, msg, integers) for t in toks[:3])
            c = _rational_reference(toks[3], ln, rationals)
            if (i, j, k) in pi[kind]:
                raise ParseError(ln, f"duplicate entry for ({i}, {j}, {k})")
            pi[kind][(i, j, k)] = c
            pi_lines[kind][(i, j, k)] = ln
        elif kind == "rep":
            if toks[0] == "dim" and len(toks) == 2:
                if rep_dim is not None:
                    raise ParseError(ln, "module dim given twice")
                msg = "module dim must be a positive integer"
                rep_dim = _integer_reference(toks[1], ln, msg, integers, 1)
            elif toks[0] in ("rho", "mu") and len(toks) == 2:
                if rep_dim is None:
                    raise ParseError(ln, "module dim must come first in [rep]")
                msg = f"{toks[0]} needs an algebra index"
                idx = _integer_reference(toks[1], ln, msg, integers)
                key = (toks[0], idx)
                if key in rep_mats:
                    raise ParseError(ln, f"duplicate matrix {toks[0]} {toks[1]}")
                rep_mats[key] = []
                rep_mat_lines[key] = ln
                current_matrix = ("rep", key)
            elif toks[0] == "row:":
                if current_matrix is None or current_matrix[0] != "rep":
                    raise ParseError(ln, "row outside a matrix block")
                rep_mats[current_matrix[1]].append(
                    tuple(_rational_reference(t, ln, rationals) for t in toks[1:])
                )
            else:
                raise ParseError(ln, f"unexpected line in [rep]: {line!r}")
        elif kind == "op":
            if toks[0] != "row:":
                raise ParseError(ln, "operator blocks contain only 'row:' lines")
            ops[name].append(
                tuple(_rational_reference(t, ln, rationals) for t in toks[1:])
            )
        elif kind == "cochain":
            block = cochain_raw[name]
            if toks[0] in ("dim", "target") and len(toks) == 2:
                if block["entries"]:
                    raise ParseError(ln, f"{toks[0]} must precede the entries")
                if block[toks[0]] is not None:
                    raise ParseError(ln, f"{toks[0]} given twice")
                msg = f"{toks[0]} must be a positive integer"
                block[toks[0]] = _integer_reference(toks[1], ln, msg, integers, 1)
            else:
                msg = "cochain entries are 'i j k coeff'"
                if len(toks) != 4:
                    raise ParseError(ln, msg)
                i, j, k = (_integer_reference(t, ln, msg, integers) for t in toks[:3])
                c = _rational_reference(toks[3], ln, rationals)
                if (i, j, k) in block["entries"]:
                    raise ParseError(ln, f"duplicate entry for ({i}, {j}, {k})")
                block["entries"][(i, j, k)] = c
                block["lines"][(i, j, k)] = ln

    if dim is None:
        raise ParseError(len(lines) or 1, "missing [algebra] section with dim")

    # range validation now that dim is known
    for sect in ("pi1", "pi2"):
        for (i, j, k), c in pi[sect].items():
            ln = pi_lines[sect][(i, j, k)]
            if not 1 <= i < j <= dim or not 1 <= k <= dim:
                raise ParseError(
                    ln, f"index ({i}, {j}, {k}) out of range for dim {dim} (need i < j)"
                )

    rep = None
    if "rep" in seen_sections:
        if rep_dim is None:
            raise ParseError(rep_line, "[rep] section is missing its dim")
        for (which, idx), rows in rep_mats.items():
            at = rep_mat_lines[(which, idx)]
            if not 1 <= idx <= dim:
                raise ParseError(at, f"{which} {idx} out of range for dim {dim}")
            if len(rows) != rep_dim or any(len(r) != rep_dim for r in rows):
                raise ParseError(
                    at, f"{which} {idx} must be a {rep_dim}x{rep_dim} matrix"
                )
        rho = tuple(
            tuple(rep_mats[("rho", i + 1)]) if ("rho", i + 1) in rep_mats else None
            for i in range(dim)
        )
        mu = tuple(
            tuple(rep_mats[("mu", i + 1)]) if ("mu", i + 1) in rep_mats else None
            for i in range(dim)
        )
        rep = RepBlock(rep_dim, rho, mu)

    op_items = []
    for name in sorted(ops):
        rows = ops[name]
        if not rows:
            raise ParseError(op_lines[name], f"operator block {name!r} has no rows")
        if any(len(r) != len(rows[0]) for r in rows):
            raise ParseError(op_lines[name], f"operator block {name!r} has ragged rows")
        op_items.append((name, tuple(rows)))

    cochain_items = []
    for name in sorted(cochain_raw):
        block = cochain_raw[name]
        source = block["dim"] if block["dim"] is not None else dim
        target = block["target"] if block["target"] is not None else dim
        for (i, j, k), c in block["entries"].items():
            ln = block["lines"][(i, j, k)]
            if not 1 <= i < j <= source or not 1 <= k <= target:
                raise ParseError(
                    ln,
                    f"index ({i}, {j}, {k}) out of range for "
                    f"source {source}, target {target}",
                )
        entries = tuple(
            (i, j, k, c) for (i, j, k), c in sorted(block["entries"].items())
        )
        cochain_items.append((name, CochainBlock(source, target, entries)))

    return AlgebraDocument(
        dim=dim,
        pi1=tuple((i, j, k, c) for (i, j, k), c in sorted(pi["pi1"].items())),
        pi2=tuple((i, j, k, c) for (i, j, k), c in sorted(pi["pi2"].items())),
        rep=rep,
        ops=tuple(op_items),
        cochains=tuple(cochain_items),
    )
