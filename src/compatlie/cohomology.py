"""The two-bracket cochain complex of a compatible pair and its cohomology.

Degree n >= 1 of the complex is the direct sum of n copies of the arity-n
cochain space; degree 0 is the subspace of module elements on which the two
actions agree.  The coboundary is the staircase

    D(w_1..w_n) = (d1 w_1, .., d2 w_{i-1} + d1 w_i, .., d2 w_n)

where the arms d1, d2 are the Chevalley-Eilenberg coboundaries of the two
brackets with coefficients rho and mu.  Their single-copy matrices
(`ce_matrix`) are the only production coboundary: every matrix here is
assembled from them, and `staircase_coboundary` applies them to the
flattened components of one tuple.  Adjoint coefficients (rep=None) are the
module `adjoint_rep(pair)`.  The per-subset Chevalley-Eilenberg sum
(`multilinear.ce_coboundary`) is the reference the arms are tested against;
its Nijenhuis-Richardson form and the adjoint form (-1)^(n-1)[pi, -]_NR are
test references too (`tests/oracles.py`).

Flattening order, fixed for reproducible matrices: component index is the
outer (slowest) index, then the lexicographic subset, then the target index.

The reduced complex is ker d1 inside the single-copy cochain space, carrying
d2.  Its dimensions come from ranks: with Z_n = dim(ker d1 & ker d2) and
K_n = dim ker d1 at arity n, H~n = Z_n - (K_{n-1} - Z_{n-1}).  The explicit
slices (`reduced_slice`: a kernel basis and the restricted d2) are the
reference those dimensions are tested against.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

from .core import CompatiblePair, InternalCheckError, RepPair, adjoint_rep
from .linalg import (
    Matrix,
    SubspaceBasis,
    Vec,
    _Record,
    _set,
    extend_basis,
    in_span,
    vadd,
    vzero,
)
from .multilinear import Cochain, sort_with_sign


class CochainTuple:
    """Degree-n element of the complex: n cochains of arity n (degree 0:
    one arity-0 cochain, i.e. a module element)."""

    __slots__ = ("degree", "components")

    def __init__(self, degree: int, components):
        components = tuple(components)
        expected = max(degree, 1)
        if len(components) != expected:
            raise ValueError(f"degree {degree} needs {expected} components")
        arity = degree if degree >= 1 else 0
        for c in components:
            if c.arity != arity:
                raise ValueError("component arity does not match the degree")
            if (c.source_dim, c.target_dim) != (
                components[0].source_dim,
                components[0].target_dim,
            ):
                raise ValueError("components live on different spaces")
        self.degree = degree
        self.components = components

    @property
    def source_dim(self):
        return self.components[0].source_dim

    @property
    def target_dim(self):
        return self.components[0].target_dim

    @classmethod
    def zero(cls, degree: int, source_dim: int, target_dim: int) -> "CochainTuple":
        arity = degree if degree >= 1 else 0
        return cls(
            degree,
            [
                Cochain.zero(arity, source_dim, target_dim)
                for _ in range(max(degree, 1))
            ],
        )

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.components)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, CochainTuple)
            and self.degree == other.degree
            and self.components == other.components
        )

    def __add__(self, other: "CochainTuple") -> "CochainTuple":
        return CochainTuple(
            self.degree,
            [a + b for a, b in zip(self.components, other.components, strict=True)],
        )

    def __sub__(self, other: "CochainTuple") -> "CochainTuple":
        return CochainTuple(
            self.degree,
            [a - b for a, b in zip(self.components, other.components, strict=True)],
        )

    def scale(self, c) -> "CochainTuple":
        return CochainTuple(self.degree, [x.scale(c) for x in self.components])

    def flatten(self) -> Vec:
        out = []
        for c in self.components:
            out.extend(c.flatten())
        return tuple(out)

    @classmethod
    def from_flat(cls, degree, source_dim, target_dim, flat) -> "CochainTuple":
        arity = degree if degree >= 1 else 0
        block = Cochain.flat_dim(arity, source_dim, target_dim)
        comps = []
        for c in range(max(degree, 1)):
            comps.append(
                Cochain.from_flat(
                    arity, source_dim, target_dim, flat[c * block : (c + 1) * block]
                )
            )
        return cls(degree, comps)


def c0_basis(pair: CompatiblePair, rep: RepPair | None = None) -> SubspaceBasis:
    """Basis of the degree-0 space: module vectors with equal actions,
    computed as the kernel of the stacked matrices rho(e_i) - mu(e_i).
    With no rep the adjoint pair is used, giving {x : [x,y] = {x,y} for
    all y}."""
    r = adjoint_rep(pair) if rep is None else rep
    rows = []
    for i in range(pair.dim):
        d = r.rho[i] - r.mu[i]
        rows.extend(d.row(k) for k in range(d.rows))
    if not rows:
        return SubspaceBasis(r.module_dim, ())
    return Matrix(rows).kernel_basis()


def staircase_coboundary(
    pair: CompatiblePair, t: CochainTuple, rep: RepPair | None = None
) -> CochainTuple:
    """The degree-(n+1) image of a degree-n tuple; rep=None means adjoint
    coefficients.  A degree-0 input must lie in the degree-0 subspace.

    Each arm matrix `ce_matrix` is built once and applied to the flattened
    components."""
    rep = adjoint_rep(pair) if rep is None else rep
    n = t.degree
    flats = [c.flatten() for c in t.components]
    d1 = ce_matrix(pair, rep, n, 1)
    if n == 0:
        ok, _ = in_span(c0_basis(pair, rep), flats[0])
        if not ok:
            raise ValueError("degree-0 element is outside the degree-0 space")
        images = [d1.matvec(flats[0])]
    else:
        d2 = ce_matrix(pair, rep, n, 2)
        one = [d1.matvec(f) for f in flats]
        two = [d2.matvec(f) for f in flats]
        images = [one[0]] + [vadd(two[i - 1], one[i]) for i in range(1, n)]
        images.append(two[-1])
    return CochainTuple(
        n + 1,
        [Cochain.from_flat(n + 1, t.source_dim, t.target_dim, v) for v in images],
    )


class ComplexSlice(_Record):
    """One degree of a complex: a basis of the degree-n space (in flat
    coordinates) and the matrix of the coboundary out of it, with columns
    indexed by that basis."""

    __slots__ = _fields = ("degree", "basis", "matrix")

    def __init__(self, degree: int, basis: SubspaceBasis, matrix: Matrix):
        _set(self, "degree", degree)
        _set(self, "basis", basis)
        _set(self, "matrix", matrix)


def coboundary_matrix(
    pair: CompatiblePair, rep: RepPair | None, degree: int
) -> ComplexSlice:
    """Matrix of the staircase coboundary at the given degree with respect
    to the fixed flattening; consecutive matrices compose to zero.

    Column block c holds d1 in row block c and d2 in row block c+1; at
    degree 0 the columns are d1 of the degree-0 basis vectors."""
    rep = adjoint_rep(pair) if rep is None else rep
    d1 = ce_matrix(pair, rep, degree, 1)
    if degree == 0:
        basis = c0_basis(pair, rep)
        cols = [d1.matvec(v) for v in basis.vectors]
        return ComplexSlice(0, basis, Matrix.from_columns(cols, rows=d1.rows))
    d2 = ce_matrix(pair, rep, degree, 2)
    zero = vzero(d1.rows)
    arm_cols = list(zip(d1.columns(), d2.columns()))
    cols = [
        zero * c + a + b + zero * (degree - 1 - c)
        for c in range(degree)
        for a, b in arm_cols
    ]
    matrix = Matrix.from_columns(cols, rows=(degree + 1) * d1.rows)
    basis = SubspaceBasis(matrix.cols, tuple(Matrix.identity(matrix.cols).columns()))
    return ComplexSlice(degree, basis, matrix)


def _cohomology(
    sl: ComplexSlice, prev: ComplexSlice | None
) -> tuple[int, SubspaceBasis]:
    """H at the degree of `sl`, given the slice one degree lower (None at
    degree 0): dimension and representatives completing a basis of the
    image to a basis of the kernel."""
    kernel = sl.matrix.kernel_basis()
    if prev is None:
        # kernel coordinates are w.r.t. the degree-0 basis; map them out
        to_module = sl.basis.as_column_matrix()
        reps = tuple(to_module.matvec(coeffs) for coeffs in kernel.vectors)
        return len(reps), SubspaceBasis(sl.basis.ambient_dim, reps)
    image = prev.matrix.column_space_basis()
    reps = extend_basis(list(image.vectors), list(kernel.vectors), kernel.ambient_dim)
    if len(reps) != len(kernel) - len(image):
        raise InternalCheckError(f"degree {sl.degree}: image outside the kernel")
    return len(reps), SubspaceBasis(kernel.ambient_dim, tuple(reps))


def cohomology_dim(
    pair: CompatiblePair, rep: RepPair | None, degree: int
) -> tuple[int, SubspaceBasis]:
    """dim ker(D_n) - dim im(D_{n-1}) plus representatives completing a
    basis of the image to a basis of the kernel."""
    sl = coboundary_matrix(pair, rep, degree)
    prev = coboundary_matrix(pair, rep, degree - 1) if degree else None
    return _cohomology(sl, prev)


def cohomology_dims(
    pair: CompatiblePair, rep: RepPair | None, max_degree: int
) -> list[tuple[int, int, SubspaceBasis]]:
    """(space_dim, h_dim, representatives) for degrees 0..max_degree, as
    `cohomology_dim` gives them, building each staircase slice once."""
    slices = [coboundary_matrix(pair, rep, n) for n in range(max_degree + 1)]
    return [
        (len(sl.basis), *_cohomology(sl, slices[n - 1] if n else None))
        for n, sl in enumerate(slices)
    ]


def derivation_spaces(pair: CompatiblePair) -> tuple[SubspaceBasis, SubspaceBasis]:
    """(Der, IDer): joint derivations of both brackets = ker of the degree-1
    coboundary, and the image of the degree-0 one.  Vectors are flattened
    linear maps ((j), k) -> coefficient of e_k in f(e_j)."""
    der = coboundary_matrix(pair, None, 1).matrix.kernel_basis()
    ider = coboundary_matrix(pair, None, 0).matrix.column_space_basis()
    return der, ider


def coboundary_preimage(
    pair: CompatiblePair, rep: RepPair | None, target: CochainTuple
) -> Matrix | None:
    """A linear map phi: g -> V whose degree-1 staircase coboundary is the
    degree-2 tuple `target`, as an m x n matrix, or None when `target` is
    not a coboundary; rep=None means adjoint coefficients.

    The degree-1 staircase maps phi to (d1 phi, d2 phi), so its matrix is
    the arms stacked by rows, [d1; d2], and no slice is built.  `solve`
    gives the solution that is 0 at every free coordinate, so phi is the
    one a solve against `coboundary_matrix(pair, rep, 1)` gives."""
    rep = adjoint_rep(pair) if rep is None else rep
    d1 = ce_matrix(pair, rep, 1, 1)
    d2 = ce_matrix(pair, rep, 1, 2)
    coeffs = _stacked(d1, d2).solve(target.flatten())
    if coeffs is None:
        return None
    n, m = pair.dim, rep.module_dim
    return Matrix([[coeffs[j * m + k] for j in range(n)] for k in range(m)])


# -- single-copy coefficient complex and the reduced complex --------------------


def ce_matrix(pair: CompatiblePair, rep: RepPair, degree: int, which: int) -> Matrix:
    """Matrix of the coefficient coboundary of bracket `which` (1 or 2) on
    the single-copy space of arity-`degree` cochains: the column of a unit
    cochain is its coboundary (`ce_coboundary` is the test reference).

    The Chevalley-Eilenberg sum is scattered straight from the nonzeros.
    For each (degree+1)-subset T, the entry a[t', t] of the action of
    e_T[pos] lands at ((T, t'), (T - T[pos], t)) with sign (-1)^pos, and
    each coefficient c_k of [e_T[p1], e_T[p2]] lands at ((T, t), (S, t))
    for every t with sign (-1)^(p1+p2) * sign, where (S, sign) =
    sort_with_sign((k, *rest)) and rest is T without T[p1] and T[p2].
    """
    dim, m = pair.dim, rep.module_dim
    bracket = pair.bracket1 if which == 1 else pair.bracket2
    action = rep.rho if which == 1 else rep.mu
    if len(action) != dim:
        raise ValueError("rho must be one target-space matrix per source index")
    action_nz = [
        [(r, c, x) for r in range(m) for c, x in enumerate(a.row(r)) if x]
        for a in action
    ]
    structure: dict[tuple[int, int], list] = {}
    for ((i, j), k), c in bracket.to_cochain().coeffs.items():
        structure.setdefault((i, j), []).append((k, c))
    block_of = {s: b for b, s in enumerate(combinations(range(dim), degree))}
    cols = len(block_of) * m
    zero = Fraction(0)
    rows = []
    for subset in combinations(range(dim), degree + 1):
        block = [[zero] * cols for _ in range(m)]
        for pos, i in enumerate(subset):
            base = block_of[subset[:pos] + subset[pos + 1 :]] * m
            sign = -1 if pos % 2 else 1
            for r, c, x in action_nz[i]:
                block[r][base + c] += sign * x
        for p1, p2 in combinations(range(degree + 1), 2):
            rest = subset[:p1] + subset[p1 + 1 : p2] + subset[p2 + 1 :]
            for k, c in structure.get((subset[p1], subset[p2]), ()):
                ss = sort_with_sign((k, *rest))
                if ss is None:
                    continue
                s, sign = ss
                coeff = c * sign if (p1 + p2) % 2 == 0 else -c * sign
                base = block_of[s] * m
                for t in range(m):
                    block[t][base + t] += coeff
        rows.extend(tuple(r) for r in block)
    return Matrix._raw(tuple(rows), len(rows), cols)


def _stacked(d1: Matrix, d2: Matrix) -> Matrix:
    """The arms stacked by rows, [d1; d2]: the map f -> (d1 f, d2 f)."""
    return Matrix._raw(d1._a + d2._a, d1.rows + d2.rows, d1.cols)


def _check_anticommute(degree: int, d1, d2, d1_next, d2_next) -> None:
    """d1' d2 + d2' d1 = 0 from arity `degree` to arity `degree` + 2."""
    if not (d1_next * d2 + d2_next * d1).is_zero():
        raise InternalCheckError(f"degree {degree}: the arms do not anticommute")


def reduced_slice(pair: CompatiblePair, rep: RepPair, degree: int) -> ComplexSlice:
    """Basis of the reduced degree-n space (kernel of the first-bracket
    coboundary inside the single-copy cochain space) and the matrix of the
    second-bracket coboundary restricted to it.

    The restriction is well defined because the two coboundaries
    anticommute; that identity is checked on the full space while the
    slice is built.  `reduced_cohomology_dims` gives the same dimensions
    from ranks alone.
    """
    d1 = ce_matrix(pair, rep, degree, 1)
    d2 = ce_matrix(pair, rep, degree, 2)
    d1_next = ce_matrix(pair, rep, degree + 1, 1)
    d2_next = ce_matrix(pair, rep, degree + 1, 2)
    _check_anticommute(degree, d1, d2, d1_next, d2_next)
    basis = d1.kernel_basis()
    target_matrix = d1_next.kernel_basis().as_column_matrix()
    cols = []
    for v in basis.vectors:
        coeffs = target_matrix.solve(d2.matvec(v))
        if coeffs is None:
            raise InternalCheckError(f"degree {degree}: d2 left the reduced subspace")
        cols.append(coeffs)
    return ComplexSlice(
        degree, basis, Matrix.from_columns(cols, rows=target_matrix.cols)
    )


def reduced_cohomology_dims(
    pair: CompatiblePair, rep: RepPair | None, max_degree: int
) -> list[tuple[int, int]]:
    """(space_dim, h_dim) of the reduced complex for degrees 0..max_degree,
    from the ranks of the arms, each built once; rep=None means adjoint."""
    rep = adjoint_rep(pair) if rep is None else rep
    arms = [
        (ce_matrix(pair, rep, n, 1), ce_matrix(pair, rep, n, 2))
        for n in range(max_degree + 2)
    ]
    out = []
    k_prev = z_prev = 0
    for n in range(max_degree + 1):
        _check_anticommute(n, *arms[n], *arms[n + 1])
        d1, d2 = arms[n]
        k = d1.cols - d1.rank()
        z = d1.cols - _stacked(d1, d2).rank()
        out.append((k, z - (k_prev - z_prev)))
        k_prev, z_prev = k, z
    return out
