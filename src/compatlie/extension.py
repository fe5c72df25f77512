"""Abelian and nonabelian extensions of compatible pairs.

An extension datum consists of two compatible pairs g and h, action
candidates (rho, mu) of g on h, and a pair of arity-2 cochains (w1, w2)
from g to h.  The direct-sum brackets

    [(x,u),(y,v)]  = ([x,y]_g,  rho(x)v - rho(y)u + w1(x,y) + [u,v]_h)
    {(x,u),(y,v)}  = ({x,y}_g,  mu(x)v  - mu(y)u  + w2(x,y) + {u,v}_h)

form a compatible pair exactly when nine equations hold.  The nine
equations are the blocks of the three Jacobiators of the direct-sum pair,
which are computed once per datum: on two base vectors and one fibre
vector they say that rho and mu are actions up to ad of w1 and w2 (1, 2,
5), on one base and two fibre vectors that the actions are derivations of
the fibre brackets (3, 4, 6), and on three base vectors that (w1, w2) is a
2-cocycle of the two-bracket complex of g with coefficients (rho, mu)
(7-9).  The validator reports which equation fails, at which basis tuple,
with the value (the failing side is always reported as lhs - rhs).

The same data can be packaged as a pair of lifted cochains
(rho^ + w1^, mu^ + w2^) in the graded algebra of the product pair, twisted
by the differentials [pi_i^ + theta_i^, -]; the three Maurer-Cartan
identities are then the same three Jacobiators (Nijenhuis-Richardson), so
the Maurer-Cartan verdict reads them too.  The lifts (`_anchors`,
`_mc_elements`) stay for the graded gauge routes and as the tests'
independent Maurer-Cartan reference.

Gauge transformations by a linear map xi: g -> h act on data; two data give
isomorphic extensions exactly when they differ by such a transformation,
and the closed-form transformation agrees with re-extracting along the
shifted section.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations

from .cohomology import CochainTuple, coboundary_matrix, staircase_coboundary
from .core import (
    OK,
    CompatiblePair,
    InternalCheckError,
    LieBracket,
    RepPair,
    Verdict,
    Witness,
    combination,
    first_failure,
)
from .linalg import Matrix, Vec, is_zero_vec, vadd, vsub
from .multilinear import (
    Cochain,
    gauge_series_coefficients,
    lift_endo_cochain,
    lift_linear_map,
    lift_module_cochain,
    lift_rep,
    lift_side2_bracket,
    nr_bracket,
    nr_compose,
)


@dataclass(frozen=True)
class ExtensionDatum:
    base: CompatiblePair  # g
    fibre: CompatiblePair  # h
    rho: tuple[Matrix, ...]
    mu: tuple[Matrix, ...]
    omega1: Cochain
    omega2: Cochain

    def __post_init__(self):
        n, m = self.base.dim, self.fibre.dim
        if len(self.rho) != n or len(self.mu) != n:
            raise ValueError("need one action matrix per base basis vector")
        for mat in self.rho + self.mu:
            if mat.shape() != (m, m):
                raise ValueError("action matrices must act on the fibre")
        for w in (self.omega1, self.omega2):
            if (w.arity, w.source_dim, w.target_dim) != (2, n, m):
                raise ValueError("cochains must map wedge^2 g to h")

    @property
    def base_dim(self):
        return self.base.dim

    @property
    def fibre_dim(self):
        return self.fibre.dim

    @cached_property
    def jacobiators(self) -> tuple[Cochain, Cochain, Cochain]:
        """(P1.P1, P2.P2, [P1, P2]) for the assembled brackets P1, P2: the
        Jacobiators of both brackets (halved) and the mixed one.  By
        Nijenhuis-Richardson they are also the three Maurer-Cartan
        identities of (rho^ + w1^, mu^ + w2^) in the algebra twisted by the
        base and fibre brackets."""
        p1, p2 = (b.to_cochain() for b in assemble_brackets(self))
        return nr_compose(p1, p1), nr_compose(p2, p2), nr_bracket(p1, p2)


@dataclass(frozen=True)
class Section:
    """A linear right inverse of the projection of an extension."""

    sigma: Matrix  # (n+m) x n

    def shifted(self, embed: Matrix, xi: Matrix) -> "Section":
        """The section sigma + embed . xi."""
        return Section(self.sigma + embed * xi)


def _basis(dim, i):
    v = [0] * dim
    v[i] = 1
    return tuple(v)


def _matrix_witness(law, at, diff: Matrix) -> Verdict:
    flat = tuple(x for i in range(diff.rows) for x in diff.row(i))
    return Verdict(False, Witness(law, at, flat))


# per Jacobiator, the law of its block on two base vectors and one fibre
# vector (an action law), on one base vector and two fibre vectors (a
# derivation law) and on three base vectors (a cocycle law)
_BLOCK_LAWS = (
    ("ext-1", "ext-3", "ext-7"),
    ("ext-2", "ext-4", "ext-8"),
    ("ext-5", "ext-6", "ext-9"),
)


def validate_extension_datum(datum: ExtensionDatum) -> Verdict:
    """The nine structure equations, read off the blocks of the datum's
    Jacobiators; the witness records the equation id, the (1-based) tuple,
    and lhs - rhs there.

    Equations 1-6 come first, in law order, each at its first failing
    tuple.  The action laws (ext-1, ext-2, ext-5) fail at a base pair
    (i, j) with the m x m matrix whose entry (b, a) is the Jacobiator at
    (e_i, e_j, f_a) along f_b; the derivation laws (ext-3, ext-4, ext-6)
    fail at (i, a, b) with minus the Jacobiator at (e_i, f_a, f_b).  The
    cocycle laws come last: the first failing base triple, and on it ext-7
    before ext-8 before ext-9, with minus the Jacobiator there.  Every
    other block is a Jacobi identity of the base or the fibre pair, so an
    entry there raises `InternalCheckError`.
    """
    n, m = datum.base_dim, datum.fibre_dim
    laws, cocycle = {}, {}
    for laws_of_jac, jac in zip(_BLOCK_LAWS, datum.jacobiators):
        action_law, derivation_law, cocycle_law = laws_of_jac
        for (subset, t), c in jac.coeffs.items():
            in_base = sum(1 for i in subset if i < n)
            if t < n or in_base == 0:
                raise InternalCheckError(
                    f"Jacobiator entry at {subset} -> {t} outside the datum blocks"
                )
            if in_base == 2:
                i, j, a = subset
                value = laws.setdefault((action_law, (i, j)), [Fraction(0)] * m * m)
                value[(t - n) * m + a - n] = c
            elif in_base == 1:
                i, a, b = subset
                value = laws.setdefault(
                    (derivation_law, (i, a - n, b - n)), [Fraction(0)] * m
                )
                value[t - n] = -c
            else:
                value = cocycle.setdefault((subset, cocycle_law), [Fraction(0)] * m)
                value[t - n] = -c
    if laws:
        (law, at), value = min(laws.items())
    elif cocycle:
        (at, law), value = min(cocycle.items())
    else:
        return OK
    return Verdict(False, Witness(law, tuple(i + 1 for i in at), tuple(value)))


def assemble_brackets(datum: ExtensionDatum) -> tuple[LieBracket, LieBracket]:
    """The two direct-sum brackets, built without any validity check (so
    the equivalence 'nine equations <-> assembled pair is compatible' can
    be tested in both directions)."""
    g, h = datum.base, datum.fibre
    n, m = g.dim, h.dim

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

    return (
        build(g.bracket1, h.bracket1, datum.rho, datum.omega1),
        build(g.bracket2, h.bracket2, datum.mu, datum.omega2),
    )


def build_extension(datum: ExtensionDatum) -> CompatiblePair:
    """The direct-sum pair; raises with the first failing structure
    equation if the datum is invalid.  The equations are the Jacobi
    identities of the pair, so it is not validated a second time."""
    v = validate_extension_datum(datum)
    if not v:
        raise ValueError(f"invalid extension datum: {v.describe()}")
    return CompatiblePair.unchecked(*assemble_brackets(datum))


# -- extraction from a short exact sequence -------------------------------------


def extract_datum(
    ext: CompatiblePair, embed: Matrix, proj: Matrix, section: Section
) -> ExtensionDatum:
    """Read off (induced brackets, actions, cochains) from an extension
    with a chosen linear section.

    embed: h -> E injective with image ker(proj), proj: E -> g onto, and
    proj . sigma = Id.  The kernel must be an ideal for both brackets.
    The result rebuilds the extension: (x, u) -> sigma(x) + embed(u) is an
    isomorphism onto E, which is verified before returning.
    """
    sigma = section.sigma
    big = ext.dim
    m = embed.cols
    n = proj.rows
    if big != n + m:
        raise ValueError("dimensions do not split")
    if proj * sigma != Matrix.identity(n):
        raise ValueError("proj . sigma is not the identity")
    if embed.rank() != m:
        raise ValueError("embedding is not injective")
    if not (proj * embed).is_zero():
        raise ValueError("embedded fibre does not lie in the kernel")

    def to_fibre(v: Vec, what: str) -> Vec:
        coeffs = embed.solve(v)
        if coeffs is None:
            raise ValueError(f"{what}: kernel is not an ideal for a bracket")
        return coeffs

    # induced fibre brackets (also checks closure of the kernel)
    def fibre_bracket(br):
        entries = {}
        for a in range(m):
            for b in range(a + 1, m):
                w = to_fibre(
                    br.bracket(embed.column(a), embed.column(b)), "fibre bracket"
                )
                for k, c in enumerate(w):
                    entries[(a, b, k)] = c
        return LieBracket(m, entries)

    # ideal check: bracketing any basis vector of E into the kernel stays there
    for br in (ext.bracket1, ext.bracket2):
        for e in range(big):
            for a in range(m):
                to_fibre(br.bracket(_basis(big, e), embed.column(a)), "ideal check")

    h_pair = CompatiblePair(fibre_bracket(ext.bracket1), fibre_bracket(ext.bracket2))

    # induced base brackets through the section
    def base_bracket(br):
        entries = {}
        for i in range(n):
            for j in range(i + 1, n):
                w = proj.matvec(br.bracket(sigma.column(i), sigma.column(j)))
                for k, c in enumerate(w):
                    entries[(i, j, k)] = c
        return LieBracket(n, entries)

    g_pair = CompatiblePair(base_bracket(ext.bracket1), base_bracket(ext.bracket2))

    def action(br):
        mats = []
        for i in range(n):
            cols = [
                to_fibre(br.bracket(sigma.column(i), embed.column(a)), "action")
                for a in range(m)
            ]
            mats.append(Matrix.from_columns(cols, rows=m))
        return tuple(mats)

    def twist(br, g_br):
        values = {}
        for i in range(n):
            for j in range(i + 1, n):
                raw = br.bracket(sigma.column(i), sigma.column(j))
                shifted = vsub(raw, sigma.matvec(g_br.bracket_basis(i, j)))
                values[(i, j)] = to_fibre(shifted, "section defect")
        return Cochain.from_values(2, n, m, values)

    datum = ExtensionDatum(
        g_pair,
        h_pair,
        action(ext.bracket1),
        action(ext.bracket2),
        twist(ext.bracket1, g_pair.bracket1),
        twist(ext.bracket2, g_pair.bracket2),
    )

    # round trip: (x, u) -> sigma(x) + embed(u) intertwines the rebuilt
    # brackets with the originals
    phi = Matrix.from_columns(
        [sigma.column(i) for i in range(n)]
        + [embed.column(a) for a in range(m)],
        rows=big,
    )
    rebuilt = assemble_brackets(datum)
    for built, orig in zip(rebuilt, (ext.bracket1, ext.bracket2)):
        for p in range(big):
            for q in range(p + 1, big):
                lhs = phi.matvec(built.bracket_basis(p, q))
                rhs = orig.bracket(phi.column(p), phi.column(q))
                if lhs != rhs:
                    raise ValueError("extraction failed to reproduce the extension")
    return datum


# -- classification of abelian extensions ----------------------------------------


def cocycles_cohomologous(
    pair: CompatiblePair,
    rep: RepPair,
    first: tuple[Cochain, Cochain],
    second: tuple[Cochain, Cochain],
):
    """Do two 2-cocycles differ by a degree-1 coboundary?  Returns
    (verdict, phi) with the certificate phi: g -> h as a matrix when yes;
    by the classification this decides isomorphism of the two abelian
    extensions.  Raises if either input is not closed."""
    for w1, w2 in (first, second):
        closed = staircase_coboundary(pair, CochainTuple(2, [w1, w2]), rep)
        if not closed.is_zero():
            raise ValueError("input is not a 2-cocycle")
    diff = CochainTuple(
        2, [first[0] - second[0], first[1] - second[1]]
    ).flatten()
    sl = coboundary_matrix(pair, rep, 1)
    coeffs = sl.matrix.solve(diff)
    if coeffs is None:
        return Verdict(False, None), None
    n, m = pair.dim, rep.module_dim
    phi = Matrix([[coeffs[j * m + k] for j in range(n)] for k in range(m)])
    return OK, phi


# -- gauge action and isomorphism of nonabelian extensions -----------------------


def gauge_transform(datum: ExtensionDatum, xi: Matrix) -> ExtensionDatum:
    """The action of xi: g -> h on a datum, in closed form:

        rho'(x) = rho(x) + ad_h(xi x)        (same with mu, AD)
        w1'(x,y) = w1(x,y) + rho(x) xi(y) - rho(y) xi(x) - xi([x,y]_g)
                   + [xi x, xi y]_h          (same with w2, {.,.})
    """
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


def _anchors(datum: ExtensionDatum):
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
    n, m = datum.base_dim, datum.fibre_dim
    p1 = lift_rep(datum.rho, n, m).lift() + lift_module_cochain(datum.omega1).lift()
    p2 = lift_rep(datum.mu, n, m).lift() + lift_module_cochain(datum.omega2).lift()
    return p1, p2


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


def maurer_cartan_verdict(datum: ExtensionDatum) -> Verdict:
    """The three Maurer-Cartan identities for (rho^ + w1^, mu^ + w2^) in
    the twisted graded algebra of the product pair, which are the datum's
    Jacobiators; the witness is on the direct sum's basis."""
    return first_failure(zip(("mc-1", "mc-2", "mc-3"), datum.jacobiators))


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
    """Debug route: evaluate the exponential gauge formula

        P' = e^{ad_xi} P - sum_k ad_xi^k/(k+1)!  d(xi)

    to `terms` terms; the series truncates after the closed-form terms
    because repeated brackets with xi drop out of the block grid.  The
    parameter is negated as in `gauge_transform_nr`."""
    n, m = datum.base_dim, datum.fibre_dim
    a1, a2 = _anchors(datum)
    p1, p2 = _mc_elements(datum)
    xi_hat = lift_linear_map(xi.scale(-1), n, m).lift()
    inv_factorials = gauge_series_coefficients(terms)

    def one_side(p, anchor):
        # e^{ad_xi} p
        total = p
        power = p
        fact = Fraction(1)
        for k in range(1, terms + 1):
            power = nr_bracket(xi_hat, power)
            fact = fact / k
            total = total + power.scale(fact)
        # (e^{ad_xi}-1)/ad_xi applied to d(xi)
        d_xi = nr_bracket(anchor, xi_hat)
        piece = d_xi
        for k, coeff in enumerate(inv_factorials):
            total = total - piece.scale(coeff)
            piece = nr_bracket(xi_hat, piece)
        return total

    rho2, w12 = _split_mc_element(one_side(p1, a1), n, m)
    mu2, w22 = _split_mc_element(one_side(p2, a2), n, m)
    return ExtensionDatum(datum.base, datum.fibre, rho2, mu2, w12, w22)


def extensions_isomorphic_under(
    datum: ExtensionDatum, other: ExtensionDatum, xi: Matrix
) -> Verdict:
    """Do the four displayed difference equations hold for xi?  When they
    do, the map (x, u) -> (x, -xi(x) + u) is verified to intertwine the two
    built extensions (both brackets, all basis pairs)."""
    g, h = datum.base, datum.fibre
    n, m = g.dim, h.dim
    if (other.base, other.fibre) != (g, h):
        raise ValueError("data must extend the same base by the same fibre")
    for law, act, act2, h_br in (
        ("iso-1", datum.rho, other.rho, h.bracket1),
        ("iso-2", datum.mu, other.mu, h.bracket2),
    ):
        ad = h_br.ad_matrices()
        for i in range(n):
            diff = act2[i] - act[i] - combination(ad, xi.column(i), m)
            if not diff.is_zero():
                return _matrix_witness(law, (i + 1,), diff)
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
    # explicit isomorphism check between the built extensions
    e1 = assemble_brackets(datum)
    e2 = assemble_brackets(other)
    big = n + m
    theta_cols = []
    for i in range(n):
        col = list(_basis(big, i))
        for k in range(m):
            col[n + k] = -xi[k, i]
        theta_cols.append(tuple(col))
    for a in range(m):
        theta_cols.append(_basis(big, n + a))
    theta = Matrix.from_columns(theta_cols, rows=big)
    for built, built2 in zip(e1, e2):
        for p in range(big):
            for q in range(p + 1, big):
                lhs = theta.matvec(built.bracket_basis(p, q))
                rhs = built2.bracket(theta.column(p), theta.column(q))
                if lhs != rhs:
                    raise InternalCheckError(
                        "difference equations hold but theta fails"
                    )
    return OK


# -- the twisted subcomplex on cochains killing the fibre ------------------------


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
