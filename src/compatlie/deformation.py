"""Infinitesimal deformations, equivalences, Nijenhuis operators.

A pair of arity-2 cochains (w1, w2) generates an infinitesimal deformation
(brackets pi_i + t*w_i compatible for every t) exactly when six bracket
identities hold:

    [pi1,w1] = 0,  [pi1,w2] + [pi2,w1] = 0,  [pi2,w2] = 0,
    [w1,w1] = 0,   [w1,w2] = 0,              [w2,w2] = 0.

The first row (deform-1..3) is the 2-cocycle condition D(w1, w2) = 0 in
the two-bracket complex with adjoint coefficients; the second row
(deform-4..6) is the compatible-pair condition on (w1, w2) itself.

Every identity behind the "for any t" quantifier is polynomial of degree at
most 2 in t, so probing t in {1, 2, 3} certifies the identity for all t, in
both the field and the formal-parameter reading.

A Nijenhuis operator (vanishing torsion for both brackets) generates the
trivial deformation (w1, w2) = ([pi1,N], [pi2,N]), which is the degree-1
coboundary of N; equivalences are checked against `staircase_coboundary`,
built from the `ce_matrix` arms.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cohomology import CochainTuple, coboundary_preimage, staircase_coboundary
from .core import (
    CompatiblePair,
    InternalCheckError,
    LieBracket,
    Verdict,
    OK,
    first_failure,
)
from .linalg import Matrix, vadd, vscale, vsub
from .multilinear import Cochain, nr_bracket


@dataclass(frozen=True)
class DeformationDatum:
    """The generating pair (w1, w2) of a one-parameter deformation."""

    omega1: Cochain
    omega2: Cochain

    def __post_init__(self):
        for w in (self.omega1, self.omega2):
            if w.arity != 2 or w.source_dim != w.target_dim:
                raise ValueError("deformation components are arity-2 brackets")
        if self.omega1.source_dim != self.omega2.source_dim:
            raise ValueError("components live on different spaces")

    @classmethod
    def zero(cls, dim: int) -> "DeformationDatum":
        z = Cochain.zero(2, dim, dim)
        return cls(z, z)


def is_infinitesimal_deformation(
    pair: CompatiblePair, d: DeformationDatum
) -> Verdict:
    """Check the six bracket identities; reports which one fails and where.

    deform-4..6 say that (w1, w2) is itself a compatible pair.  When all
    six hold, deform-1..3 are cross-checked against the `ce_matrix` arms:
    (w1, w2) must be a 2-cocycle of the two-bracket complex.
    """
    p1 = pair.bracket1.to_cochain()
    p2 = pair.bracket2.to_cochain()
    w1, w2 = d.omega1, d.omega2
    v = first_failure(
        [
            ("deform-1: [pi1,w1]", nr_bracket(p1, w1)),
            ("deform-2: [pi1,w2]+[pi2,w1]", nr_bracket(p1, w2) + nr_bracket(p2, w1)),
            ("deform-3: [pi2,w2]", nr_bracket(p2, w2)),
            ("deform-4: [w1,w1]", nr_bracket(w1, w1)),
            ("deform-5: [w1,w2]", nr_bracket(w1, w2)),
            ("deform-6: [w2,w2]", nr_bracket(w2, w2)),
        ]
    )
    if not v:
        return v
    closed = staircase_coboundary(pair, CochainTuple(2, [w1, w2]))
    if not closed.is_zero():
        raise InternalCheckError("six identities hold but (w1, w2) is not closed")
    return OK


def deformed_pair(pair: CompatiblePair, d: DeformationDatum, t) -> CompatiblePair:
    """The compatible pair with brackets pi1 + t*w1, pi2 + t*w2."""
    if not is_infinitesimal_deformation(pair, d):
        raise ValueError("datum does not generate a deformation")
    b1 = LieBracket.from_cochain(pair.bracket1.to_cochain() + d.omega1.scale(t))
    b2 = LieBracket.from_cochain(pair.bracket2.to_cochain() + d.omega2.scale(t))
    return CompatiblePair(b1, b2)


def nijenhuis_torsion(bracket: LieBracket, n_op: Matrix) -> Cochain:
    """The torsion T(x,y) = N([x,y]_N) - [N x, N y] with
    [x,y]_N = [N x, y] + [x, N y] - N [x, y], on basis pairs.  The graded
    form (1/2)([pi, N.N] + [N, [pi, N]]) is the test reference."""
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


def is_nijenhuis(pair: CompatiblePair, n_op: Matrix) -> Verdict:
    """ok iff the torsion vanishes for both brackets (by linearity of the
    torsion in the bracket this covers every pencil)."""
    return first_failure(
        [
            ("torsion-1", nijenhuis_torsion(pair.bracket1, n_op)),
            ("torsion-2", nijenhuis_torsion(pair.bracket2, n_op)),
        ]
    )


def trivial_deformation_from_nijenhuis(
    pair: CompatiblePair, n_op: Matrix
) -> DeformationDatum:
    """The trivial deformation ([pi1, N], [pi2, N]) generated by a
    Nijenhuis operator; its class is the degree-1 coboundary of N."""
    if not is_nijenhuis(pair, n_op):
        raise ValueError("operator is not Nijenhuis for this pair")
    n_c = Cochain.from_matrix(n_op)
    return DeformationDatum(
        nr_bracket(pair.bracket1.to_cochain(), n_c),
        nr_bracket(pair.bracket2.to_cochain(), n_c),
    )


def _homomorphism_defect(bracket: LieBracket, w, w_prime, n_op: Matrix):
    """The t^1, t^2, t^3 layers of

        (Id + tN)([x,y]_t) - [(Id+tN)x, (Id+tN)y]'_t

    where [.,.]_t deforms by w and [.,.]'_t by w'.  Vanishing of the three
    layers is the closed form of the displayed equivalence equations (the
    layers are the pairs (w - w' = coboundary of N), (the integrality
    condition) and (w'(N.,N.) = 0)); the alignment with the trivial-
    deformation criterion (w' = 0 recovers the Nijenhuis equations) pins
    the direction."""
    dim = bracket.dim
    lin, quad, cub = {}, {}, {}
    for i in range(dim):
        for j in range(i + 1, dim):
            ni, nj = n_op.column(i), n_op.column(j)
            ei, ej = _basis(dim, i), _basis(dim, j)
            # t: w(x,y) + N[x,y] - [Nx,y] - [x,Ny] - w'(x,y)
            lin[(i, j)] = vsub(
                vadd(w.value((i, j)), n_op.matvec(bracket.bracket_basis(i, j))),
                vadd(
                    vadd(bracket.bracket(ni, ej), bracket.bracket(ei, nj)),
                    w_prime.value((i, j)),
                ),
            )
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
    return mk(lin), mk(quad), mk(cub)


def _basis(dim, i):
    v = [0] * dim
    v[i] = 1
    return tuple(v)


def deformations_equivalent(
    pair: CompatiblePair,
    d: DeformationDatum,
    d_prime: DeformationDatum,
    n_op: Matrix,
) -> Verdict:
    """Does Id + tN give a homomorphism from the d'-deformed pair to the
    d-deformed pair for every t?

    Checks the six closed-form equations (the t, t^2 and t^3 layers of the
    homomorphism identity for each bracket).  When they hold, the
    difference (w1 - w1', w2 - w2') is verified to be the degree-1
    staircase coboundary of N, hence the two classes agree: N itself
    certifies that the difference lies in the image of the degree-1
    coboundary.
    """
    dim = pair.dim
    if n_op.shape() != (dim, dim):
        raise ValueError("operator shape does not match the algebra")
    lin1, quad1, cub1 = _homomorphism_defect(
        pair.bracket1, d.omega1, d_prime.omega1, n_op
    )
    lin2, quad2, cub2 = _homomorphism_defect(
        pair.bracket2, d.omega2, d_prime.omega2, n_op
    )
    v = first_failure(
        [
            ("equiv-1: w1 - w1' = [pi1,N]", lin1),
            ("equiv-2: N w1 = w1'(.,N.) + w1'(N.,.) + [N.,N.]", quad1),
            ("equiv-3: w2 - w2' = [pi2,N]", lin2),
            ("equiv-4: N w2 = w2'(.,N.) + w2'(N.,.) + {N.,N.}", quad2),
            ("equiv-5: w1'(N.,N.) = 0", cub1),
            ("equiv-6: w2'(N.,N.) = 0", cub2),
        ]
    )
    if not v:
        return v
    delta_n = staircase_coboundary(
        pair, CochainTuple(1, [Cochain.from_matrix(n_op)])
    )
    diff = CochainTuple(2, [d.omega1 - d_prime.omega1, d.omega2 - d_prime.omega2])
    if diff != delta_n:
        raise InternalCheckError(
            "equations hold but the difference is not the coboundary of N"
        )
    return OK


def cohomology_obstruction(
    pair: CompatiblePair, d: DeformationDatum, d_prime: DeformationDatum
):
    """The linear part of the equivalence problem: is (w1-w1', w2-w2') in
    the image of the degree-1 coboundary?  Returns (answer, certificate N
    as a matrix or None)."""
    diff = CochainTuple(2, [d.omega1 - d_prime.omega1, d.omega2 - d_prime.omega2])
    n_op = coboundary_preimage(pair, None, diff)
    return n_op is not None, n_op
