"""Seeded input generator for the compatlie benchmark.

Standard library only: nothing here imports `compatlie`, so generating
inputs never warms anything inside the program under test.  The program
only ever sees the `.alg` texts produced here.

Every job comes as a *twin*: the sparse input is written in the catalog
basis (small integer structure constants); the dense input is the same
object after a seeded change of basis g in GL(n, Q).  Brackets, module
actions, cochains, operators and gauge maps are all transported, so the two
inputs have the same dimensions and verdicts and differ only in how large
and how dense their coefficients are.

The change of basis is g = G D with D a seeded diagonal sign matrix and G
fixed: in dimension <= 3, G = L U with L (U) unit lower (upper) triangular
and every off-diagonal entry +-1, so every dense structure constant is
generically nonzero; in dimension 4, G = L alone, because the full product
makes the dim-4 adjoint table five to ten times slower than the catalog
basis and a round would no longer fit in a run.  G^-1 is integral, so dense
coefficients stay integers and grow by a few bits.  The seed flips signs
but never changes how much fill-in a twin gets, which keeps the cost of a
dense job, and so the spread of a run's metrics across seeds, small.

Transport rules (base change g on g, fibre change h on the module):

    pi'(x, y)   = g^-1 pi(g x, g y)
    rho'(e_i)   = h^-1 (sum_j g_ji rho(e_j)) h
    w'(x, y)    = h^-1 w(g x, g y)           (w: wedge^2 g -> h)
    theta'(u,v) = h^-1 theta(h u, h v)       (fibre brackets)
    N'          = g^-1 N g,   xi' = h^-1 xi g

`round_jobs(workload, seed, r)` returns round r of a workload: a fixed,
interleaved list of twin jobs whose content depends only on
(workload, seed, r).  Rounds never repeat an input.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from math import comb
from random import Random

WORKLOADS = ("adjoint-cohomology", "poisson-table", "verify-mix")

ZERO = Fraction(0)


# -- small exact linear algebra ------------------------------------------------


def identity(n):
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def matmul(a, b):
    return [
        [sum((a[i][k] * b[k][j] for k in range(len(b))), ZERO) for j in range(len(b[0]))]
        for i in range(len(a))
    ]


def matvec(a, v):
    return [sum((a[i][k] * v[k] for k in range(len(v))), ZERO) for i in range(len(a))]


def column(a, j):
    return [row[j] for row in a]


def inverse(a):
    """Gauss-Jordan inverse of a square rational matrix."""
    n = len(a)
    aug = [list(row) + identity(n)[i] for i, row in enumerate(a)]
    for c in range(n):
        p = next(i for i in range(c, n) if aug[i][c] != 0)
        aug[c], aug[p] = aug[p], aug[c]
        inv = 1 / aug[c][c]
        aug[c] = [x * inv for x in aug[c]]
        for i in range(n):
            if i != c and aug[i][c] != 0:
                f = aug[i][c]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[c])]
    return [row[n:] for row in aug]


def change_of_basis(rng: Random, n: int):
    """G D as described in the module docstring."""
    lower = [
        [Fraction(1 if i == j else (-1) ** (i + j) if i > j else 0) for j in range(n)]
        for i in range(n)
    ]
    g = lower if n >= 4 else matmul(lower, [list(col) for col in zip(*lower)])
    signs = [rng.choice((-1, 1)) for _ in range(n)]
    return [[x * signs[j] for j, x in enumerate(row)] for row in g]


# -- alternating bilinear maps -------------------------------------------------


class Bilinear:
    """An alternating bilinear map Q^n x Q^n -> Q^m, stored on basis pairs
    i < j as dense target vectors."""

    def __init__(self, n: int, m: int, entries=None):
        self.n, self.m = n, m
        self.t = {(i, j): [ZERO] * m for i, j in combinations(range(n), 2)}
        for (i, j, k), c in (entries or {}).items():
            self.t[(i, j)][k] += Fraction(c)

    def basis(self, i, j):
        if i == j:
            return [ZERO] * self.m
        if i < j:
            return self.t[(i, j)]
        return [-x for x in self.t[(j, i)]]

    def __call__(self, x, y):
        out = [ZERO] * self.m
        for (i, j), v in self.t.items():
            c = x[i] * y[j] - x[j] * y[i]
            if c:
                out = [a + c * b for a, b in zip(out, v)]
        return out

    def entries(self):
        """((i, j, k), c) for the nonzero coefficients, 0-based."""
        return [
            ((i, j, k), c)
            for (i, j), v in sorted(self.t.items())
            for k, c in enumerate(v)
            if c != 0
        ]

    def __add__(self, other):
        out = Bilinear(self.n, self.m)
        for key in out.t:
            out.t[key] = [a + b for a, b in zip(self.t[key], other.t[key])]
        return out

    def scale(self, c):
        out = Bilinear(self.n, self.m)
        for key in out.t:
            out.t[key] = [c * a for a in self.t[key]]
        return out

    def transport(self, src, tgt_inv):
        """x, y -> tgt_inv B(src x, src y)."""
        out = Bilinear(self.n, self.m)
        cols = [column(src, i) for i in range(self.n)]
        for i, j in out.t:
            out.t[(i, j)] = matvec(tgt_inv, self(cols[i], cols[j]))
        return out


def unit(n, i):
    return [Fraction(int(k == i)) for k in range(n)]


def jacobiator_zero(a: Bilinear, b: Bilinear) -> bool:
    """Does the mixed Jacobiator sum_cyc a(b(x,y),z) + b(a(x,y),z) vanish on
    every basis triple?  With a = b this is the Jacobi identity of a."""
    n = a.n
    for i, j, k in combinations(range(n), 3):
        total = [ZERO] * n
        for x, y, z in ((i, j, k), (j, k, i), (k, i, j)):
            ez = unit(n, z)
            for p, q in ((a, b), (b, a)):
                total = [s + t for s, t in zip(total, p(q.basis(x, y), ez))]
        if any(total):
            return False
    return True


def deformed(b: Bilinear, n_op) -> Bilinear:
    """[x, y]_N = [N x, y] + [x, N y] - N [x, y]."""
    out = Bilinear(b.n, b.n)
    for i, j in out.t:
        ni, nj = column(n_op, i), column(n_op, j)
        ei, ej = unit(b.n, i), unit(b.n, j)
        first = [s + t for s, t in zip(b(ni, ej), b(ei, nj))]
        out.t[(i, j)] = [s - t for s, t in zip(first, matvec(n_op, b.basis(i, j)))]
    return out


def torsion_zero(b: Bilinear, n_op) -> bool:
    """N [x, y]_N = [N x, N y] on all basis pairs."""
    bn = deformed(b, n_op)
    for i, j in bn.t:
        lhs = matvec(n_op, bn.t[(i, j)])
        rhs = b(column(n_op, i), column(n_op, j))
        if lhs != rhs:
            return False
    return True


def ad_matrix(b: Bilinear, u):
    """Matrix of v -> b(u, v), columns b(u, f_k)."""
    cols = [b(u, unit(b.n, k)) for k in range(b.n)]
    return [[cols[c][r] for c in range(b.n)] for r in range(b.n)]


def cocycle_defect_zero(br: Bilinear, rho, w: Bilinear) -> bool:
    """Chevalley-Eilenberg cocycle condition of w: wedge^2 g -> h on all
    basis triples:
    rho(x)w(y,z) - rho(y)w(x,z) + rho(z)w(x,y)
        - w([x,y],z) + w([x,z],y) - w([y,z],x) = 0."""
    n, m = br.n, w.m
    for i, j, k in combinations(range(n), 3):
        ei, ej, ek = unit(n, i), unit(n, j), unit(n, k)
        terms = [
            matvec(rho[i], w.basis(j, k)),
            [-x for x in matvec(rho[j], w.basis(i, k))],
            matvec(rho[k], w.basis(i, j)),
            [-x for x in w(br.basis(i, j), ek)],
            w(br.basis(i, k), ej),
            [-x for x in w(br.basis(j, k), ei)],
        ]
        if any(sum((t[r] for t in terms), ZERO) for r in range(m)):
            return False
    return True


# -- the catalog (0-based structure constants) ----------------------------------

SL2 = {(0, 1, 1): 2, (0, 2, 2): -2, (1, 2, 0): 1}
H3 = {(0, 1, 2): 1}
R3 = {(0, 1, 1): 1, (0, 2, 1): 1, (0, 2, 2): 1}
N2 = {(0, 1, 1): 1}
N2N2 = {(0, 1, 1): 1, (2, 3, 3): 1}
ZERO_N2 = {(2, 3, 3): 1}

# Nonzero catalog brackets per dimension.
CATALOG = {
    3: {"sl2": SL2, "h3": H3, "r3": R3},
    4: {"gl2": SL2, "h3+0": H3, "r3+0": R3, "n2+0": N2, "n2+n2": N2N2},
}


def catalog_pairs(dim: int):
    """Compatible pairs in the catalog basis: (X, 0), (0, X), (X, X) and, in
    dimension 4, two block pairs built from n2."""
    out = []
    for name, x in sorted(CATALOG[dim].items()):
        out.append((f"({name},0)", x, {}))
        out.append((f"(0,{name})", {}, x))
        out.append((f"({name},{name})", x, x))
    if dim == 4:
        out.append(("(n2+0,0+n2)", N2, ZERO_N2))
        out.append(("(n2+n2,n2+0)", N2N2, N2))
    return out


def _pair(dim, e1, e2):
    return Bilinear(dim, dim, e1), Bilinear(dim, dim, e2)


def _rand_nijenhuis(rng: Random, brackets, dim):
    """A Nijenhuis operator for every bracket given: diagonal when one is
    found in 40 tries, a scalar otherwise.  A diagonal N scales the structure
    constant c_ij^k by n_i + n_j - n_k in [x, y]_N; N is only taken when no
    such factor is 0, so [x, y]_N keeps the support of the bracket."""
    for _ in range(40):
        diag = [Fraction(rng.randint(-2, 2)) for _ in range(dim)]
        n_op = [[diag[i] if i == j else ZERO for j in range(dim)] for i in range(dim)]
        keeps = all(
            diag[i] + diag[j] != diag[k] for b in brackets for (i, j, k), _ in b.entries()
        )
        if keeps and all(torsion_zero(b, n_op) for b in brackets):
            return n_op
    c = Fraction(rng.choice((-2, -1, 2, 3)))
    return [[c if i == j else ZERO for j in range(dim)] for i in range(dim)]


def family_pair(rng: Random, family: str, dim: int, base: str):
    """(label, b1, b2) for one of the three pair families.  `base` names the
    catalog pair (catalog, pencil) or catalog bracket (nijenhuis) to start
    from."""
    pairs = {label: (e1, e2) for label, e1, e2 in catalog_pairs(dim)}
    if family in ("catalog", "pencil"):
        label = base
        b1, b2 = _pair(dim, *pairs[label])
    if family == "catalog":
        # seeded scalars, so no two rounds or seeds share an input
        a, b = (rng.choice((-2, -1, 1, 2)) for _ in range(2))
        b1, b2 = b1.scale(Fraction(a)), b2.scale(Fraction(b))
        label = f"{a},{b}*{label}"
    elif family == "pencil":
        # (b1 + s b2, t b1 + b2) with st != 1: an invertible change of pencil
        # basis of one shape, so pencils of one base cost about the same
        while True:
            s, t = (rng.choice((-2, -1, 1, 2)) for _ in range(2))
            if s * t != 1:
                break
        b1, b2 = b1 + b2.scale(Fraction(s)), b1.scale(Fraction(t)) + b2
        label = f"pencil[1,{s};{t},1]{label}"
    elif family == "nijenhuis":
        name = base
        b1 = Bilinear(dim, dim, CATALOG[dim][name])
        b2 = deformed(b1, _rand_nijenhuis(rng, [b1], dim))
        label = f"({name},[{name},N])"
    elif family != "catalog":
        raise ValueError(family)
    if not (jacobiator_zero(b1, b1) and jacobiator_zero(b2, b2) and jacobiator_zero(b1, b2)):
        raise AssertionError(f"generator produced an incompatible pair {label}")
    return label, b1, b2


# -- documents -------------------------------------------------------------------


class Doc:
    """The pieces of one `.alg` file, renderable in any basis."""

    def __init__(self, dim, pi1, pi2):
        self.dim = dim
        self.pi1, self.pi2 = pi1, pi2
        self.rep = None  # (module_dim, rho mats, mu mats)
        self.ops = {}  # name -> matrix g -> g ("N") or g -> h ("xi")
        # name -> (kind, Bilinear); kind says which spaces the cochain joins:
        # "base" wedge^2 g -> g, "module" wedge^2 g -> h, "fibre" wedge^2 h -> h
        self.cochains = {}

    def transported(self, g, h=None):
        """The same object in the basis given by the columns of g (base) and
        h (module / fibre; defaults to g when the module is g itself)."""
        g_inv = inverse(g)
        out = Doc(self.dim, self.pi1.transport(g, g_inv), self.pi2.transport(g, g_inv))
        if h is None:
            h = g
        h_inv = inverse(h)
        if self.rep is not None:
            m, rho, mu = self.rep

            def act(mats):
                moved = []
                for i in range(self.dim):
                    comb_ = [[ZERO] * m for _ in range(m)]
                    for j in range(self.dim):
                        if g[j][i]:
                            comb_ = [
                                [a + g[j][i] * b for a, b in zip(ra, rb)]
                                for ra, rb in zip(comb_, mats[j])
                            ]
                    moved.append(matmul(matmul(h_inv, comb_), h))
                return moved

            out.rep = (m, act(rho), act(mu))
        for name, mat in self.ops.items():
            left = g_inv if name == "N" else h_inv
            out.ops[name] = matmul(matmul(left, mat), g)
        moves = {"base": (g, g_inv), "module": (g, h_inv), "fibre": (h, h_inv)}
        for name, (kind, w) in self.cochains.items():
            out.cochains[name] = (kind, w.transport(*moves[kind]))
        return out

    def numbers(self):
        """Every coefficient the file carries."""
        nums = [c for _, c in self.pi1.entries()] + [c for _, c in self.pi2.entries()]
        if self.rep is not None:
            for mats in self.rep[1:]:
                nums.extend(x for mat in mats for row in mat for x in row)
        for mat in self.ops.values():
            nums.extend(x for row in mat for x in row)
        for _, w in self.cochains.values():
            nums.extend(c for _, c in w.entries())
        return nums

    def render(self) -> str:
        out = ["[algebra]", f"dim {self.dim}", ""]
        for sect, b in (("pi1", self.pi1), ("pi2", self.pi2)):
            out.append(f"[{sect}]")
            out.extend(f"{i + 1} {j + 1} {k + 1} {c}" for (i, j, k), c in b.entries())
            out.append("")
        if self.rep is not None:
            m, rho, mu = self.rep
            out.extend(["[rep]", f"dim {m}"])
            for label, mats in (("rho", rho), ("mu", mu)):
                for idx, mat in enumerate(mats, start=1):
                    if any(x for row in mat for x in row):
                        out.append(f"{label} {idx}")
                        out.extend("row: " + " ".join(str(x) for x in row) for row in mat)
            out.append("")
        for name, mat in sorted(self.ops.items()):
            out.append(f"[op {name}]")
            out.extend("row: " + " ".join(str(x) for x in row) for row in mat)
            out.append("")
        for name, (_, w) in sorted(self.cochains.items()):
            out.extend([f"[cochain {name}]", f"dim {w.n}", f"target {w.m}"])
            out.extend(f"{i + 1} {j + 1} {k + 1} {c}" for (i, j, k), c in w.entries())
            out.append("")
        return "\n".join(out)


def properties(doc: Doc, spaces) -> dict:
    """Input properties recorded per job: nonzero coefficients, the largest
    numerator or denominator bit length, and the predicted cochain-space
    sizes the command will work on."""
    nums = [x for x in doc.numbers() if x != 0]
    bits = max(
        (max(abs(x.numerator).bit_length(), x.denominator.bit_length()) for x in nums),
        default=0,
    )
    return {"nnz": len(nums), "max_bits": bits, "spaces": list(spaces), "cells": sum(spaces)}


# -- jobs ------------------------------------------------------------------------


@dataclass(frozen=True)
class Job:
    """One CLI invocation.  `argv` holds "{file}" where the input path goes.
    A job passes when the exit code equals `expect_exit` and, when
    `expect_failing` is set, that verdict fails with a witness."""

    name: str
    pair_id: str
    twin: str  # "sparse" | "dense"
    family: str
    dim: int
    argv: tuple
    text: str
    expect_exit: int
    expect_failing: str | None
    props: dict = field(compare=False)


def _twins(rng, pair_id, family, doc, argv, spaces, expect_exit=0, expect_failing=None,
           fibre_dim=None, dense_first=False):
    g = change_of_basis(rng, doc.dim)
    h = change_of_basis(rng, fibre_dim) if fibre_dim is not None else None
    dense = doc.transported(g, h)
    out = []
    for twin, d in (("sparse", doc), ("dense", dense)):
        out.append(
            Job(
                name=f"{pair_id}-{twin}",
                pair_id=pair_id,
                twin=twin,
                family=family,
                dim=doc.dim,
                argv=tuple(argv),
                text=d.render(),
                expect_exit=expect_exit,
                expect_failing=expect_failing,
                props=properties(d, spaces),
            )
        )
    return out[::-1] if dense_first else out


def _cohomology_spaces(dim, m, top):
    return [m] + [n * comb(dim, n) * m for n in range(1, top + 1)]


# Starting points per family (the nijenhuis ones are triangular, so they
# admit diagonal Nijenhuis operators beyond scalars).  Round r of
# adjoint-cohomology and poisson-table runs one base of each family, entry
# ORDER[dim][family][r % 3]; a verify-mix round runs a block per base.  Runs
# of different seeds therefore have the same composition and differ only in
# the seeded numbers (catalog scalars, pencil coefficients, N, the signs of
# the change of basis).
BASES = {
    4: {
        "catalog": ("(gl2,0)", "(r3+0,r3+0)", "(n2+0,0+n2)"),
        "pencil": ("(gl2,0)", "(n2+0,0+n2)", "(n2+n2,n2+0)"),
        "nijenhuis": ("r3+0", "n2+n2", "h3+0"),
    },
    3: {
        "catalog": ("(sl2,0)", "(r3,r3)", "(0,h3)"),
        "pencil": ("(sl2,sl2)", "(r3,0)", "(h3,h3)"),
        "nijenhuis": ("h3", "r3", "r3"),
    },
}


# In dimension 4 the costliest pencil shares its round with the cheapest
# catalog pair and Nijenhuis base, so the three rounds cost about the same:
# about 15, 15 and 12 s of job time on a 2-core container.
ORDER = {
    4: {"catalog": (2, 1, 0), "pencil": (0, 1, 2), "nijenhuis": (2, 0, 1)},
    3: {"catalog": (0, 1, 2), "pencil": (0, 1, 2), "nijenhuis": (0, 1, 2)},
}


def _table_round(rng, r, dim, argv, spaces):
    """One twin pair per family, interleaved."""
    jobs = []
    for family in ("catalog", "pencil", "nijenhuis"):
        base = BASES[dim][family][ORDER[dim][family][r % 3]]
        label, b1, b2 = family_pair(rng, family, dim, base)
        jobs += _twins(
            rng,
            f"r{r}-{family}",
            f"{family}:{label}",
            Doc(dim, b1, b2),
            argv,
            spaces,
            dense_first=len(jobs) % 4 == 2,
        )
    return jobs


def adjoint_cohomology_round(rng: Random, r: int):
    """Three twin pairs, one per family: dim-4 pairs, adjoint coefficients,
    the full staircase table H0..H4."""
    return _table_round(
        rng, r, 4,
        ["cohomology", "{file}", "--max-degree", "4", "--format", "json"],
        _cohomology_spaces(4, 4, 4),
    )


def _poisson_spaces(dim, poly_degree, top):
    spaces = []
    for d in range(poly_degree + 1):
        block = comb(d + dim - 1, dim - 1)
        spaces.extend(comb(dim, n) * block for n in range(top + 2))
    return spaces


def poisson_table_round(rng: Random, r: int):
    """Three twin pairs, one per family: dim-3 pairs, reduced bi-Hamiltonian
    table for polynomial degree <= 3 and cochain degree <= 2."""
    return _table_round(
        rng, r, 3,
        ["poisson", "{file}", "--poly-degree", "3", "--max-degree", "2", "--format", "json"],
        _poisson_spaces(3, 3, 2),
    )


def _support(*brackets):
    """Coordinates that occur as outputs of any bracket; a character that
    vanishes on them vanishes on every derived algebra."""
    return {k for b in brackets for (_, _, k), _ in b.entries()}


def _break_bracket(rng, b: Bilinear, other: Bilinear | None = None):
    """b plus random extra structure constants, added one at a time until
    the Jacobi identity (other is None) or the mixed identity with `other`
    fails.  (One constant alone can never break the zero bracket.)"""
    n = b.n
    bad = b
    for _ in range(200):
        i, j = sorted(rng.sample(range(n), 2))
        c = Fraction(rng.choice((-2, -1, 1, 2)))
        bad = bad + Bilinear(n, b.m, {(i, j, rng.randrange(n)): c})
        if not jacobiator_zero(bad if other is None else other, bad):
            return bad
    raise AssertionError("could not break the bracket")


def _abelian_datum(rng, b1, b2, m):
    """Module (rho, mu) and a 2-cocycle (w1, w2) of the two-bracket complex
    for an abelian fibre of dimension m.

    m = 4 uses the adjoint pair.  Otherwise rho(e_i) = chi1_i M and
    mu(e_i) = chi2_i M^2 for characters chi vanishing on both derived
    algebras and a random integer M (M and M^2 commute, so every bracket of
    actions vanishes, matching the zero image of the characters).  The
    cocycle is the coboundary of a random xi0: g -> h."""
    n = b1.n
    if m == n:
        rho = [ad_matrix(b1, unit(n, i)) for i in range(n)]
        mu = [ad_matrix(b2, unit(n, i)) for i in range(n)]
    else:
        free = [i for i in range(n) if i not in _support(b1, b2)]
        mat = [[Fraction(rng.randint(-1, 2)) for _ in range(m)] for _ in range(m)]
        mat2 = matmul(mat, mat)
        chi1 = [Fraction(rng.randint(1, 2)) if i in free else ZERO for i in range(n)]
        chi2 = [Fraction(rng.randint(-2, -1)) if i in free else ZERO for i in range(n)]
        rho = [[[chi1[i] * x for x in row] for row in mat] for i in range(n)]
        mu = [[[chi2[i] * x for x in row] for row in mat2] for i in range(n)]
    xi0 = [[Fraction(rng.randint(-1, 1)) for _ in range(n)] for _ in range(m)]
    w = []
    for br, act in ((b1, rho), (b2, mu)):
        cochain = Bilinear(n, m)
        for i, j in cochain.t:
            a = matvec(act[i], column(xi0, j))
            b = matvec(act[j], column(xi0, i))
            c = matvec(xi0, br.basis(i, j))
            cochain.t[(i, j)] = [x - y - z for x, y, z in zip(a, b, c)]
        w.append(cochain)
    return rho, mu, w[0], w[1]


def _nonabelian_datum(rng, b1, b2, h1, h2):
    """The product of the base and fibre pairs, gauge-transformed by a random
    xi0: rho(x) = ad_h1(xi0 x), w1(x,y) = [xi0 x, xi0 y]_h1 - xi0([x,y]);
    likewise for the second brackets."""
    n, m = b1.n, h1.n
    xi0 = [[Fraction(rng.randint(-1, 1)) for _ in range(n)] for _ in range(m)]
    acts, ws = [], []
    for br, hb in ((b1, h1), (b2, h2)):
        acts.append([ad_matrix(hb, column(xi0, i)) for i in range(n)])
        cochain = Bilinear(n, m)
        for i, j in cochain.t:
            a = hb(column(xi0, i), column(xi0, j))
            c = matvec(xi0, br.basis(i, j))
            cochain.t[(i, j)] = [x - z for x, z in zip(a, c)]
        ws.append(cochain)
    return acts[0], acts[1], ws[0], ws[1]


def _rand_xi(rng, m, n):
    return [[Fraction(rng.randint(-2, 2)) for _ in range(n)] for _ in range(m)]


FIBRES = (
    ("n2,n2", N2, N2),
    ("h3", H3, {}),
    ("r3,r3", R3, R3),
)


def verify_mix_round(rng: Random, r: int):
    """Three blocks of seven twin pairs: check, deform, abelian and
    nonabelian extend, then three deliberately invalid inputs (broken Jacobi
    identity, non-cocycle deformation, non-cocycle extension) that must exit
    1 with a witness.

    Block b uses base b of each family and the b-th fibre, so every round
    has the same mix and the seed only draws the numbers.  The fibres of the
    two `extend` kinds are at least 2- and 3-dimensional, which keeps those
    jobs costlier than `deform`: the cheap kinds (the two invalid check and
    deform inputs, and `check`) are then 3 of 7, and the median job of a run
    lies inside the `deform` jobs instead of in the gap between two kinds."""
    jobs = []
    n = 4
    check_seed = str(rng.randint(0, 999))
    families = ("catalog", "pencil", "nijenhuis")

    def pair(shift, kinds=families):
        family = kinds[(b + shift) % len(kinds)]
        _, b1, b2 = family_pair(rng, family, n, BASES[n][family][b])
        return b1, b2

    def add(kind, doc, argv, spaces, fibre_dim=None, expect_exit=0, failing=None):
        jobs.extend(
            _twins(
                rng,
                f"r{r}-{kind}{b}",
                kind,
                doc,
                argv,
                spaces,
                expect_exit=expect_exit,
                expect_failing=failing,
                fibre_dim=fibre_dim,
                dense_first=(r + len(jobs) // 2) % 2 == 1,
            )
        )

    triples = comb(n, 3) * n
    check = ["check", "{file}", "--seed", check_seed, "--format", "json"]
    deform = ["deform", "{file}", "--omega", "w", "--nijenhuis", "N", "--format", "json"]

    for b in range(3):
        # check: a valid pair with its adjoint module and two pencil probes
        b1, b2 = pair(0)
        doc = Doc(n, b1, b2)
        doc.rep = (
            n,
            [ad_matrix(b1, unit(n, i)) for i in range(n)],
            [ad_matrix(b2, unit(n, i)) for i in range(n)],
        )
        add("check", doc, check, [triples] * 5)

        # deform: the trivial deformation ([pi1,N], [pi2,N]) of a Nijenhuis N
        b1, b2 = pair(1, families[:2])
        n_op = _rand_nijenhuis(rng, [b1, b2], n)
        doc = Doc(n, b1, b2)
        doc.ops["N"] = n_op
        doc.cochains["w1"] = ("base", deformed(b1, n_op))
        doc.cochains["w2"] = ("base", deformed(b2, n_op))
        add("deform", doc, deform, [triples] * 6 + [n * n, 2 * comb(n, 2) * n])

        # extend, abelian fibre of dim 2..4
        b1, b2 = pair(2, families[:2])
        m = 2 + b
        rho, mu, w1, w2 = _abelian_datum(rng, b1, b2, m)
        doc = Doc(n, b1, b2)
        doc.rep = (m, rho, mu)
        doc.cochains["omega1"], doc.cochains["omega2"] = ("module", w1), ("module", w2)
        doc.ops["xi"] = _rand_xi(rng, m, n)
        add("extend-abelian", doc,
            ["extend", "{file}", "--mode", "abelian", "--xi", "xi", "--format", "json"],
            [comb(n + m, 3) * (n + m)] * 3, fibre_dim=m)

        # extend, nonabelian fibre from the small catalog
        b1, b2 = pair(3, families[:2])
        fname, e1, e2 = FIBRES[b]
        m = 2 if fname.startswith("n2") else 3
        h1, h2 = Bilinear(m, m, e1), Bilinear(m, m, e2)
        rho, mu, w1, w2 = _nonabelian_datum(rng, b1, b2, h1, h2)
        doc = Doc(n, b1, b2)
        doc.rep = (m, rho, mu)
        doc.cochains["omega1"], doc.cochains["omega2"] = ("module", w1), ("module", w2)
        doc.cochains["theta1"], doc.cochains["theta2"] = ("fibre", h1), ("fibre", h2)
        doc.ops["xi"] = _rand_xi(rng, m, n)
        add("extend-nonabelian", doc,
            ["extend", "{file}", "--mode", "nonabelian", "--xi", "xi", "--format", "json"],
            [comb(n + m, 3) * (n + m)] * 3, fibre_dim=m)

        # invalid: the first bracket breaks the Jacobi identity
        b1, b2 = pair(4)
        doc = Doc(n, _break_bracket(rng, b1), b2)
        add("check-bad-jacobi", doc, check, [triples] * 3, expect_exit=1, failing="bracket1-jacobi")

        # invalid: w1 fails [pi1, w1] = 0, so (w1, w2) is no deformation (the
        # bases' first brackets are all nonzero, so one always exists)
        b1, b2 = pair(5, families[:2])
        n_op = _rand_nijenhuis(rng, [b1, b2], n)
        doc = Doc(n, b1, b2)
        doc.ops["N"] = n_op
        doc.cochains["w1"] = ("base", _break_bracket(rng, deformed(b1, n_op), b1))
        doc.cochains["w2"] = ("base", deformed(b2, n_op))
        add("deform-not-cocycle", doc, deform, [triples] * 6,
            expect_exit=1, failing="infinitesimal-deformation")

        # invalid: omega1 is no cocycle for (pi1, rho)
        b1, b2 = pair(6, families[:2])
        m = 3 + b % 2
        rho, mu, w1, w2 = _abelian_datum(rng, b1, b2, m)
        for _ in range(200):
            i, j = sorted(rng.sample(range(n), 2))
            bad = w1 + Bilinear(n, m, {(i, j, rng.randrange(m)): rng.choice((-1, 1, 2))})
            if not cocycle_defect_zero(b1, rho, bad):
                break
        else:
            raise AssertionError("could not break the cocycle")
        doc = Doc(n, b1, b2)
        doc.rep = (m, rho, mu)
        doc.cochains["omega1"], doc.cochains["omega2"] = ("module", bad), ("module", w2)
        add("extend-not-cocycle", doc,
            ["extend", "{file}", "--mode", "abelian", "--format", "json"],
            [comb(n + m, 3) * (n + m)] * 3, fibre_dim=m, expect_exit=1, failing="extension-datum")
    return jobs


ROUNDS = {
    "adjoint-cohomology": adjoint_cohomology_round,
    "poisson-table": poisson_table_round,
    "verify-mix": verify_mix_round,
}


def round_jobs(workload: str, seed: int, r: int) -> list[Job]:
    """Round r of a workload; depends only on (workload, seed, r)."""
    return ROUNDS[workload](Random(f"{workload}:{seed}:{r}"), r)
