"""The linear-Poisson action of a compatible pair on bounded-degree
polynomials.

Identifying a basis vector e_i with the linear coordinate xi_i on the dual
space, each bracket acts on polynomials as the derivation extending

    x . xi_j = coordinate expansion of [x, e_j]

by the Leibniz rule.  The two actions form a representation of the
compatible pair, block-diagonal with respect to polynomial degree, and the
degree-1 block is literally the adjoint matrix of the corresponding bracket
in this basis (the familiar "dual of the coadjoint action" statement; the
identification e_i -> xi_i removes the transpose).  Running the reduced
cohomology over the degree-d blocks gives the polynomial-degree slices of
the bi-Hamiltonian cohomology of the associated pair of linear Poisson
structures; only this algebraic side is computed here, the multivector
geometry stays on paper.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations_with_replacement
from math import comb

from .cohomology import reduced_cohomology_dims
from .core import CompatiblePair, InternalCheckError, LieBracket, RepPair
from .linalg import Matrix, _Record, _set


class PolyBasis(_Record):
    """Monomials of total degree <= max_degree in dim coordinates, graded
    lexicographically: by degree, then with xi_1 heaviest.  The index of
    each monomial (`_position`) is not a field: equality, hashing and repr
    ignore it."""

    _fields = ("dim", "max_degree", "monomials")
    __slots__ = (*_fields, "_position")

    def __init__(
        self, dim: int, max_degree: int, monomials: tuple[tuple[int, ...], ...]
    ):
        _set(self, "dim", dim)
        _set(self, "max_degree", max_degree)
        _set(self, "monomials", monomials)
        _set(self, "_position", {a: i for i, a in enumerate(monomials)})

    @classmethod
    def build(cls, dim: int, max_degree: int) -> "PolyBasis":
        if max_degree < 0:
            raise ValueError("max degree must be >= 0")
        monos = []
        for d in range(max_degree + 1):
            level = set()
            for combo in combinations_with_replacement(range(dim), d):
                e = [0] * dim
                for i in combo:
                    e[i] += 1
                level.add(tuple(e))
            monos.extend(sorted(level, key=lambda a: tuple(-x for x in a)))
        basis = cls(dim, max_degree, tuple(monos))
        if len(basis.monomials) != comb(dim + max_degree, max_degree):
            raise InternalCheckError(
                f"{len(basis.monomials)} monomials of degree <= {max_degree} "
                f"in {dim} coordinates"
            )
        return basis

    def index(self, exponents: tuple[int, ...]) -> int:
        try:
            return self._position[exponents]
        except KeyError:
            raise ValueError(f"{exponents} is not a basis monomial") from None

    def degree_indices(self, d: int) -> list[int]:
        return [i for i, a in enumerate(self.monomials) if sum(a) == d]


class PolyRep(_Record):
    """The pair action on a PolyBasis, packaged as a RepPair."""

    __slots__ = _fields = ("basis", "rep")

    def __init__(self, basis: PolyBasis, rep: RepPair):
        _set(self, "basis", basis)
        _set(self, "rep", rep)


def _derivation_matrix(bracket: LieBracket, basis: PolyBasis, i: int) -> Matrix:
    """Action of e_i on monomials: the derivation with
    xi_j -> coordinates of [e_i, e_j]."""
    n = basis.dim
    size = len(basis.monomials)
    cols = []
    for a in basis.monomials:
        col = [Fraction(0)] * size
        for j in range(n):
            if a[j] == 0:
                continue
            w = bracket.bracket_basis(i, j)
            for k, c in enumerate(w):
                if c == 0:
                    continue
                e = list(a)
                e[j] -= 1
                e[k] += 1
                col[basis.index(tuple(e))] += a[j] * c
        cols.append(tuple(col))
    return Matrix.from_columns(cols, rows=size)


def lie_poisson_rep(pair: CompatiblePair, max_degree: int) -> PolyRep:
    """The representation of the pair on polynomials of degree <= D; the
    action is degree-preserving, so the matrices are block-diagonal."""
    basis = PolyBasis.build(pair.dim, max_degree)
    rho = tuple(
        _derivation_matrix(pair.bracket1, basis, i) for i in range(pair.dim)
    )
    mu = tuple(
        _derivation_matrix(pair.bracket2, basis, i) for i in range(pair.dim)
    )
    return PolyRep(basis, RepPair(len(basis.monomials), rho, mu))


def degree_block(poly: PolyRep, d: int) -> RepPair:
    """The degree-d block as a standalone representation.  The action
    preserves degree by construction, so an entry outside the degree
    blocks is a bug and raises `InternalCheckError`."""
    idx = poly.basis.degree_indices(d)
    others = [i for i in range(len(poly.basis.monomials)) if i not in idx]

    def cut(m: Matrix) -> Matrix:
        for r in idx:
            for c in others:
                if m[r, c] != 0 or m[c, r] != 0:
                    raise InternalCheckError(
                        "action does not preserve polynomial degree"
                    )
        return Matrix([[m[r, c] for c in idx] for r in idx])

    return RepPair(
        len(idx),
        tuple(cut(m) for m in poly.rep.rho),
        tuple(cut(m) for m in poly.rep.mu),
    )


def reduced_bihamiltonian_dims(
    pair: CompatiblePair, poly: PolyRep, n_max: int
) -> dict[tuple[int, int], int]:
    """Reduced cohomology dimensions per (polynomial degree d, cochain
    degree n), d <= poly.basis.max_degree, n <= n_max; `poly` is
    `lie_poisson_rep(pair, D)`."""
    table = {}
    for d in range(poly.basis.max_degree + 1):
        dims = reduced_cohomology_dims(pair, degree_block(poly, d), n_max)
        for n, (_, h_dim) in enumerate(dims):
            table[(d, n)] = h_dim
    return table
