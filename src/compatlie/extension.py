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
the Maurer-Cartan verdict reads them too.

Gauge transformations by a linear map xi: g -> h act on data in closed form,
summed on integers over one denominator per transformed cochain: xi and the
actions are cleared once by `linalg.integer_columns` and applied by
`linalg.add_image`, the brackets and the cochain are read from their
`integer_rows` and evaluated by `multilinear.add_value`, and the new
cochain is built by `Cochain.from_integer_values`; two data give isomorphic
extensions exactly when one is the transform of the other, and the
transform agrees with re-extracting along the shifted section.  The lifted
elements, the twisted differentials, the graded and exponential-series
forms of the gauge action and its rational sum are test references
(`tests/oracles.py`).
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from math import lcm

from .cohomology import CochainTuple, coboundary_preimage, staircase_coboundary
from .core import (
    OK,
    CompatiblePair,
    InternalCheckError,
    LieBracket,
    RepPair,
    Verdict,
    Witness,
    first_failure,
)
from .linalg import Matrix, Vec, _Record, _set, add_image, integer_columns, vsub
from .multilinear import Cochain, add_value, nr_bracket, nr_compose


class ExtensionDatum(_Record):
    """Base g, fibre h, actions (rho, mu) of g on h and the cochains
    (w1, w2) from wedge^2 g to h.  It has no `__slots__`: the cached
    properties keep their values in the instance `__dict__`."""

    _fields = ("base", "fibre", "rho", "mu", "omega1", "omega2")

    def __init__(
        self,
        base: CompatiblePair,
        fibre: CompatiblePair,
        rho: tuple[Matrix, ...],
        mu: tuple[Matrix, ...],
        omega1: Cochain,
        omega2: Cochain,
    ):
        n, m = base.dim, fibre.dim
        if len(rho) != n or len(mu) != n:
            raise ValueError("need one action matrix per base basis vector")
        for mat in rho + mu:
            if mat.shape() != (m, m):
                raise ValueError("action matrices must act on the fibre")
        for w in (omega1, omega2):
            if (w.arity, w.source_dim, w.target_dim) != (2, n, m):
                raise ValueError("cochains must map wedge^2 g to h")
        _set(self, "base", base)  # g
        _set(self, "fibre", fibre)  # h
        _set(self, "rho", rho)
        _set(self, "mu", mu)
        _set(self, "omega1", omega1)
        _set(self, "omega2", omega2)

    @property
    def base_dim(self):
        return self.base.dim

    @property
    def fibre_dim(self):
        return self.fibre.dim

    @cached_property
    def brackets(self) -> tuple[LieBracket, LieBracket]:
        """The two direct-sum brackets, `assemble_brackets(self)`, built
        once per datum: the Jacobiators, the CLI's bracket tables and the
        theta check all read them."""
        return assemble_brackets(self)

    @cached_property
    def jacobiators(self) -> tuple[Cochain, Cochain, Cochain]:
        """(P1.P1, P2.P2, [P1, P2]) for the assembled brackets P1, P2: the
        Jacobiators of both brackets (halved) and the mixed one.  By
        Nijenhuis-Richardson they are also the three Maurer-Cartan
        identities of (rho^ + w1^, mu^ + w2^) in the algebra twisted by the
        base and fibre brackets."""
        p1, p2 = (b.to_cochain() for b in self.brackets)
        return nr_compose(p1, p1), nr_compose(p2, p2), nr_bracket(p1, p2)


class Section(_Record):
    """A linear right inverse of the projection of an extension."""

    __slots__ = _fields = ("sigma",)

    def __init__(self, sigma: Matrix):
        _set(self, "sigma", sigma)  # (n+m) x n

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
    be tested in both directions).  Each table is filed from the stored
    nonzeros of the base bracket, the cochain, the action matrices and the
    fibre bracket, at shifted keys that stay increasing and in range, so
    the parts, checked when they were built, are not checked again."""
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
        return LieBracket.from_cochain(Cochain.unchecked(2, n + m, n + m, coeffs))

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
    return CompatiblePair.unchecked(*datum.brackets)


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
    for built, orig in zip(datum.brackets, (ext.bracket1, ext.bracket2)):
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
    diff = CochainTuple(2, [first[0] - second[0], first[1] - second[1]])
    phi = coboundary_preimage(pair, rep, diff)
    return (Verdict(False, None) if phi is None else OK), phi


# -- gauge action and isomorphism of nonabelian extensions -----------------------


def gauge_transform(datum: ExtensionDatum, xi: Matrix) -> ExtensionDatum:
    """The action of xi: g -> h on a datum, in closed form:

        rho'(x) = rho(x) + ad_h(xi x)        (same with mu, AD)
        w1'(x,y) = w1(x,y) + rho(x) xi(y) - rho(y) xi(x) - xi([x,y]_g)
                   + [xi x, xi y]_h          (same with w2, {.,.})

    Summed on integers: xi and the actions are cleared of denominators
    once (`integer_columns`), the brackets and the cochain are read from
    their `integer_rows`, each new entry is a sum of integer products over
    one common denominator, and each nonzero Fraction is built once.  The
    rational sum is the test reference (`tests/oracles.py`)."""
    g, h = datum.base, datum.fibre
    n, m = g.dim, h.dim
    if xi.shape() != (m, n):
        raise ValueError("xi must map the base to the fibre")
    lx, (xcols,) = integer_columns(xi)

    def transform(act, w, g_br, h_br):
        la, acols = integer_columns(*act)
        lh, hrows = h_br.to_cochain().integer_rows()
        # rho'(e_i) column a: rho(e_i) f_a + [xi e_i, f_a]_h, over d
        d = lcm(la, lx * lh)
        zero = Fraction(0)
        new_act = []
        for i in range(n):
            entries = [[zero] * m for _ in range(m)]
            for a in range(m):
                acc = {b: c * (d // la) for b, c in acols[i][a]}
                add_value(acc, hrows, (xcols[i], ((a, 1),)), d // (lx * lh))
                for b, v in acc.items():
                    if v:
                        entries[b][a] = Fraction(v, d)
            new_act.append(Matrix._raw(tuple(map(tuple, entries)), m, m))
        # w'(e_i, e_j) over one denominator d for all five terms
        lg, grows = g_br.to_cochain().integer_rows()
        lw, wrows = w.integer_rows()
        d = lcm(lw, la * lx, lg * lx, lx * lx * lh)
        values = {}
        for i in range(n):
            for j in range(i + 1, n):
                acc = {k: c * (d // lw) for k, c in wrows.get((i, j), ())}
                add_image(acc, acols[i], xcols[j], d // (la * lx))
                add_image(acc, acols[j], xcols[i], -(d // (la * lx)))
                add_image(acc, xcols, grows.get((i, j), ()), -(d // (lg * lx)))
                add_value(acc, hrows, (xcols[i], xcols[j]), d // (lx * lx * lh))
                values[(i, j)] = acc
        return tuple(new_act), Cochain.from_integer_values(2, n, m, d, values)

    rho2, w12 = transform(datum.rho, datum.omega1, g.bracket1, h.bracket1)
    mu2, w22 = transform(datum.mu, datum.omega2, g.bracket2, h.bracket2)
    return ExtensionDatum(g, h, rho2, mu2, w12, w22)


def maurer_cartan_verdict(datum: ExtensionDatum) -> Verdict:
    """The three Maurer-Cartan identities for (rho^ + w1^, mu^ + w2^) in
    the twisted graded algebra of the product pair, which are the datum's
    Jacobiators; the witness is on the direct sum's basis."""
    return first_failure(zip(("mc-1", "mc-2", "mc-3"), datum.jacobiators))


def extensions_isomorphic_under(
    datum: ExtensionDatum, other: ExtensionDatum, xi: Matrix
) -> Verdict:
    """Is `other` the gauge transform of `datum` by xi?  The four displayed
    difference equations compare `other` with `gauge_transform(datum, xi)`:
    the actions (iso-1, iso-2) at the first base index where they differ,
    then the cochains (iso-3, iso-4) at the first base pair.  When all hold,
    the map (x, u) -> (x, -xi(x) + u) is verified to intertwine the two
    built extensions (both brackets, all basis pairs)."""
    if (other.base, other.fibre) != (datum.base, datum.fibre):
        raise ValueError("data must extend the same base by the same fibre")
    moved = gauge_transform(datum, xi)
    for law, acts, acts2 in (
        ("iso-1", moved.rho, other.rho),
        ("iso-2", moved.mu, other.mu),
    ):
        for i, (act, act2) in enumerate(zip(acts, acts2)):
            if act2 != act:
                return _matrix_witness(law, (i + 1,), act2 - act)
    v = first_failure(
        (law, w2 - w)
        for law, w, w2 in (
            ("iso-3", moved.omega1, other.omega1),
            ("iso-4", moved.omega2, other.omega2),
        )
    )
    if not v:
        return v
    return _theta_intertwines(datum, other, xi)


def _theta_intertwines(
    datum: ExtensionDatum, moved: ExtensionDatum, xi: Matrix
) -> Verdict:
    """OK once theta: (x, u) -> (x, -xi(x) + u) is verified to intertwine
    the extensions built from `datum` and from its gauge transform `moved`
    (both brackets, all basis pairs); a failure is an `InternalCheckError`.
    `cli` calls it directly on the transform it has already computed, and
    reads it as the verdict on that transform as well: theta is invertible,
    so the transform's assembled pair is an isomorphic image of the
    datum's, and a valid datum has a valid transform.

    The check runs on integers.  theta e_p = e_p - sum_k xi[k, p] f_k has
    at most 1 + m nonzeros, kept as integer terms over the lcm L of xi's
    denominators (`integer_columns`); theta [e_p, e_q] and
    [theta e_p, theta e_q]' are summed from the two brackets'
    `integer_rows` (the datum's and the transform's, each assembled once)
    and compared as integer dicts scaled to one common denominator.  No
    theta matrix and no Fraction is built."""
    n, m = datum.base_dim, datum.fibre_dim
    big = n + m
    den, (xcols,) = integer_columns(xi)
    # theta e_p as integer terms over L
    theta = [[(p, den)] + [(n + k, -x) for k, x in xcols[p]] for p in range(n)]
    theta += [[(n + a, den)] for a in range(m)]
    for built, built2 in zip(datum.brackets, moved.brackets):
        d1, rows1 = built.to_cochain().integer_rows()
        d2, rows2 = built2.to_cochain().integer_rows()
        for p in range(big):
            for q in range(p + 1, big):
                lhs: dict[int, int] = {}  # theta [e_p, e_q], over d1 L
                add_image(lhs, theta, rows1.get((p, q), ()))
                rhs: dict[int, int] = {}  # [theta e_p, theta e_q]', over d2 L^2
                add_value(rhs, rows2, (theta[p], theta[q]))
                # lhs / (d1 L) = rhs / (d2 L^2)  iff  lhs d2 L = rhs d1
                if _scaled(lhs, d2 * den) != _scaled(rhs, d1):
                    raise InternalCheckError(
                        "difference equations hold but theta fails"
                    )
    return OK


def _scaled(terms: dict[int, int], factor: int) -> dict[int, int]:
    """The nonzero entries of an integer dict, times `factor`."""
    return {t: v * factor for t, v in terms.items() if v}
