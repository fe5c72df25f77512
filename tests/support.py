"""Shared fixtures and randomized generators for the test suite.

Random compatible pairs are built from seeds that are compatible by
construction (dimension-2 brackets, catalog algebras, pencils, pairs
(pi, [pi,N]_NR) for a Nijenhuis N) and then conjugated by random invertible
rational matrices, which preserves every axiom while scrambling the
structure constants.  Everything is driven by an explicit random.Random so
failures reproduce.
"""

from fractions import Fraction
from random import Random

from compatlie.core import (
    CompatiblePair,
    LieBracket,
    RepPair,
    adjoint_rep,
    validate_pair,
    validate_rep,
)
from compatlie.document import AlgebraDocument, CochainBlock, RepBlock
from compatlie.linalg import Matrix
from compatlie.multilinear import Cochain

# -- catalog fixtures ------------------------------------------------------


def sl2() -> LieBracket:
    """[e1,e2] = 2 e2, [e1,e3] = -2 e3, [e2,e3] = e1."""
    return LieBracket(3, {(0, 1, 1): 2, (0, 2, 2): -2, (1, 2, 0): 1})


def n2() -> LieBracket:
    """The nonabelian 2-dimensional algebra: [e1,e2] = e2."""
    return LieBracket(2, {(0, 1, 1): 1})


def heisenberg3() -> LieBracket:
    """[e1,e2] = e3."""
    return LieBracket(3, {(0, 1, 2): 1})


def r3_solvable() -> LieBracket:
    """[e1,e2] = e2, [e1,e3] = e2 + e3."""
    return LieBracket(3, {(0, 1, 1): 1, (0, 2, 1): 1, (0, 2, 2): 1})


def catalog(dim: int) -> list[LieBracket]:
    if dim == 2:
        return [n2(), LieBracket.zero(2)]
    if dim == 3:
        return [sl2(), heisenberg3(), r3_solvable(), LieBracket.zero(3)]
    if dim == 4:
        base = [heisenberg3(), n2(), sl2()]
        out = [LieBracket.zero(4)]
        for b in base:
            if b.dim == 3:
                out.append(_pad(b, 4))
        out.append(direct_sum(n2(), LieBracket.zero(2)))
        out.append(direct_sum(n2(), n2()))
        return out
    raise ValueError(dim)


def _pad(b: LieBracket, dim: int) -> LieBracket:
    entries = {key: c for key, c in b.entries()}
    return LieBracket(dim, {(i, j, k): c for (i, j, k), c in entries.items()})


def direct_sum(a: LieBracket, b: LieBracket) -> LieBracket:
    n = a.dim
    entries = {key: c for key, c in a.entries()}
    for (i, j, k), c in b.entries():
        entries[(i + n, j + n, k + n)] = c
    return LieBracket(a.dim + b.dim, entries)


# -- randomized raw material -----------------------------------------------


def rand_fraction(rng: Random, lo=-3, hi=3, dens=(1, 1, 1, 2)) -> Fraction:
    return Fraction(rng.randint(lo, hi), rng.choice(dens))


def rand_matrix(rng: Random, rows: int, cols: int, lo=-3, hi=3) -> Matrix:
    return Matrix(
        [[rand_fraction(rng, lo, hi) for _ in range(cols)] for _ in range(rows)]
    )


def rand_invertible(rng: Random, n: int) -> Matrix:
    while True:
        m = rand_matrix(rng, n, n, -2, 2)
        if m.rank() == n:
            return m


def rand_cochain(
    rng: Random, arity: int, dim: int, target_dim=None, density=0.6
) -> Cochain:
    from itertools import combinations

    td = dim if target_dim is None else target_dim
    coeffs = {}
    for subset in combinations(range(dim), arity):
        for k in range(td):
            if rng.random() < density:
                coeffs[(subset, k)] = rand_fraction(rng, -2, 2)
    return Cochain(arity, dim, td, coeffs)


def rand_bracket(rng: Random, dim: int) -> LieBracket:
    """A random antisymmetric bracket; only Lie for dim <= 2."""
    entries = {}
    for i in range(dim):
        for j in range(i + 1, dim):
            for k in range(dim):
                if rng.random() < 0.6:
                    entries[(i, j, k)] = rand_fraction(rng, -2, 2)
    return LieBracket(dim, entries)


# -- random validated compatible pairs ---------------------------------------


def rand_compatible_pair(rng: Random, dim: int) -> CompatiblePair:
    if dim == 1:
        return CompatiblePair(LieBracket.zero(1), LieBracket.zero(1))
    while True:
        if dim == 2:
            b1, b2 = rand_bracket(rng, 2), rand_bracket(rng, 2)
        else:
            b1 = rng.choice(catalog(dim))
            mode = rng.randrange(4)
            if mode == 0:
                b2 = LieBracket.zero(dim)
            elif mode == 1:
                b2 = LieBracket.from_cochain(
                    b1.to_cochain().scale(rand_fraction(rng, -2, 2))
                )
            elif mode == 2:
                b2 = rng.choice(catalog(dim))
                if not validate_pair(b1, b2):
                    continue
            else:
                n = nijenhuis_for(rng, b1)
                from compatlie.multilinear import nr_bracket

                b2 = LieBracket.from_cochain(
                    nr_bracket(b1.to_cochain(), Cochain.from_matrix(n))
                )
                if not validate_pair(b1, b2):
                    continue
        g = rand_invertible(rng, dim)
        pair = CompatiblePair.unchecked(b1, b2).conjugate(g)
        if validate_pair(pair.bracket1, pair.bracket2):
            return CompatiblePair(pair.bracket1, pair.bracket2)


def nijenhuis_for(rng: Random, b: LieBracket) -> Matrix:
    """A cheap Nijenhuis operator for a catalog bracket: scalars always
    work; diagonal operators work for the triangular catalog members."""
    from compatlie.deformation import nijenhuis_torsion

    n = b.dim
    for _ in range(40):
        diag = [rand_fraction(rng, -2, 2) for _ in range(n)]
        m = Matrix([[diag[i] if i == j else 0 for j in range(n)] for i in range(n)])
        if nijenhuis_torsion(b, m).is_zero():
            return m
    return Matrix.identity(n).scale(rand_fraction(rng, -2, 2))


def character_reps(pair: CompatiblePair, module_dim: int) -> list[RepPair]:
    """Diagonal representations built from joint characters: chi1 kills
    [g,g]_1, chi2 kills {g,g}_2 and chi1 o pi2 + chi2 o pi1 = 0."""
    n = pair.dim
    rows = []
    for i in range(n):
        for j in range(i + 1, n):
            w1 = pair.bracket1.bracket_basis(i, j)
            w2 = pair.bracket2.bracket_basis(i, j)
            rows.append(list(w1) + [Fraction(0)] * n)
            rows.append([Fraction(0)] * n + list(w2))
            rows.append(list(w2) + list(w1))
    if not rows:
        rows = [[Fraction(0)] * (2 * n)]
    sol = Matrix(rows).kernel_basis()
    reps = []
    for v in sol.vectors:
        chi1, chi2 = v[:n], v[n:]
        rho = tuple(Matrix.identity(module_dim).scale(chi1[i]) for i in range(n))
        mu = tuple(Matrix.identity(module_dim).scale(chi2[i]) for i in range(n))
        reps.append(RepPair(module_dim, rho, mu))
    return reps


def rand_rep(rng: Random, pair: CompatiblePair, max_module_dim=3) -> RepPair:
    """A random validated representation with module dimension <= 3."""
    from compatlie.poisson import degree_block, lie_poisson_rep

    options: list[RepPair] = [RepPair.zero(pair.dim, rng.randint(1, max_module_dim))]
    if pair.dim <= max_module_dim:
        options.append(adjoint_rep(pair))
    options.extend(character_reps(pair, rng.randint(1, max_module_dim)))
    if pair.dim <= max_module_dim:
        options.append(degree_block(lie_poisson_rep(pair, 1), 1))
    rep = rng.choice(options)
    assert validate_rep(pair, rep), "generator produced an invalid representation"
    return rep


# -- random algebra documents ------------------------------------------------

_NAMES = ("N", "xi", "omega1", "omega_2", "Theta", "_w9", "sigma")


def rand_rational(rng: Random) -> Fraction:
    """Signed, with multi-digit numerators and denominators and zeros."""
    return Fraction(rng.randint(-999, 999), rng.choice((1, 2, 7, 12, 360, 1001)))


def _rand_entries(rng: Random, source: int, target: int, density: float) -> tuple:
    """Sorted 1-based (i, j, k, coefficient) with i < j."""
    return tuple(
        (i, j, k, rand_rational(rng))
        for i in range(1, source + 1)
        for j in range(i + 1, source + 1)
        for k in range(1, target + 1)
        if rng.random() < density
    )


def _rand_rows(rng: Random, rows: int, cols: int) -> tuple:
    return tuple(
        tuple(rand_rational(rng) for _ in range(cols)) for _ in range(rows)
    )


def rand_document(rng: Random) -> AlgebraDocument:
    """A parsed-form document with every kind of block: brackets, an
    optional module with some matrices omitted, operators of any shape and
    cochain blocks whose source and target differ from dim.  Its blocks are
    in the order `parse` gives (entries sorted, names sorted)."""
    dim = rng.randint(1, 5)
    density = rng.choice((0.1, 0.4, 0.8))
    rep = None
    if rng.random() < 0.7:
        md = rng.randint(1, 4)
        rho, mu = (
            tuple(
                _rand_rows(rng, md, md) if rng.random() < 0.6 else None
                for _ in range(dim)
            )
            for _ in range(2)
        )
        rep = RepBlock(md, rho, mu)
    ops = tuple(
        (name, _rand_rows(rng, rng.randint(1, 4), rng.randint(1, 4)))
        for name in sorted(rng.sample(_NAMES, rng.randint(0, 3)))
    )
    cochains = []
    for name in sorted(rng.sample(_NAMES, rng.randint(0, 3))):
        source, target = rng.randint(1, 6), rng.randint(1, 6)
        entries = _rand_entries(rng, source, target, density)
        cochains.append((name, CochainBlock(source, target, entries)))
    return AlgebraDocument(
        dim=dim,
        pi1=_rand_entries(rng, dim, dim, density),
        pi2=_rand_entries(rng, dim, dim, density),
        rep=rep,
        ops=ops,
        cochains=tuple(cochains),
    )


# -- wide raw material for the integer routes ---------------------------------


def rand_wide_fraction(rng: Random) -> Fraction:
    """Zero, a rational with one of several denominators, or an entry near
    2^80 over a denominator near 2^80."""
    r = rng.random()
    if r < 0.35:
        return Fraction(0)
    if r < 0.9:
        return rand_rational(rng)
    big = 2**80 + rng.randint(-9, 9)
    return Fraction(rng.choice((-1, 1)) * big, 2**80 + rng.randint(1, 9))


def rand_wide_matrix(rng: Random, rows: int, cols: int) -> Matrix:
    return Matrix(
        [[rand_wide_fraction(rng) for _ in range(cols)] for _ in range(rows)]
    )


def rand_wide_cochain(rng: Random, dim: int, target_dim: int) -> Cochain:
    """An arity-2 cochain with `rand_wide_fraction` values."""
    from itertools import combinations

    return Cochain(
        2,
        dim,
        target_dim,
        {
            (s, k): rand_wide_fraction(rng)
            for s in combinations(range(dim), 2)
            for k in range(target_dim)
        },
    )


# a nonabelian catalog-style algebra of each dimension 1-5
_WIDE_CATALOG = {
    1: lambda: LieBracket.zero(1),
    2: n2,
    3: sl2,
    4: lambda: direct_sum(n2(), n2()),
    5: lambda: direct_sum(sl2(), n2()),
}


def rand_wide_bracket(rng: Random, dim: int, kind: str) -> LieBracket:
    """kind "zero": the abelian bracket; "random": an antisymmetric
    bracket with `rand_wide_fraction` constants (Lie only by accident);
    "dense": the catalog algebra of that dimension conjugated by
    `rand_invertible`."""
    if kind == "zero":
        return LieBracket.zero(dim)
    if kind == "dense":
        return _WIDE_CATALOG[dim]().conjugate(rand_invertible(rng, dim))
    return LieBracket.from_cochain(rand_wide_cochain(rng, dim, dim))
