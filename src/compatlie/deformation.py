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
coboundary of N; its components are also the brackets [x,y]_N the torsion
is built from, and the equivalence equations read their linear layer off
the same NR coboundary, so a caller that runs both checks computes it once
and hands it to each.  The torsion and the t^2, t^3 layers of the
equivalence are summed on integers over one denominator per cochain: N
by `linalg.integer_columns` and `linalg.add_image`, the brackets by their
`Cochain.integer_rows` and `multilinear.add_value`, and the result built by
`Cochain.from_integer_values`.  The staircase forms of
both checks (the closure of (w1, w2), the coboundary of N and the
hand-expanded linear layer) and the rational sums are test references
(`tests/oracles.py`).  Only the preimage solve `cohomology_obstruction`
builds the `ce_matrix` arms, stacked by rows as the degree-1 staircase
and solved on integer rows once.
"""

from __future__ import annotations

from math import lcm

from .cohomology import CochainTuple, coboundary_preimage
from .core import CompatiblePair, LieBracket, Verdict, first_failure
from .linalg import Matrix, _Record, _set, add_image, integer_columns
from .multilinear import Cochain, add_value, nr_bracket


class DeformationDatum(_Record):
    """The generating pair (w1, w2) of a one-parameter deformation."""

    __slots__ = _fields = ("omega1", "omega2")

    def __init__(self, omega1: Cochain, omega2: Cochain):
        for w in (omega1, omega2):
            if w.arity != 2 or w.source_dim != w.target_dim:
                raise ValueError("deformation components are arity-2 brackets")
        if omega1.source_dim != omega2.source_dim:
            raise ValueError("components live on different spaces")
        _set(self, "omega1", omega1)
        _set(self, "omega2", omega2)

    @classmethod
    def zero(cls, dim: int) -> "DeformationDatum":
        z = Cochain.zero(2, dim, dim)
        return cls(z, z)


def is_infinitesimal_deformation(
    pair: CompatiblePair, d: DeformationDatum
) -> Verdict:
    """Check the six bracket identities; reports which one fails and where.

    deform-1..3 are minus the components of the staircase coboundary of
    (w1, w2) (the test reference), so they say that (w1, w2) is a 2-cocycle
    of the two-bracket complex; deform-4..6 say that it is itself a
    compatible pair.  Each identity is computed only while the earlier ones
    hold."""
    p1 = pair.bracket1.to_cochain()
    p2 = pair.bracket2.to_cochain()
    w1, w2 = d.omega1, d.omega2

    def identities():
        yield "deform-1: [pi1,w1]", nr_bracket(p1, w1)
        yield "deform-2: [pi1,w2]+[pi2,w1]", nr_bracket(p1, w2) + nr_bracket(p2, w1)
        yield "deform-3: [pi2,w2]", nr_bracket(p2, w2)
        yield "deform-4: [w1,w1]", nr_bracket(w1, w1)
        yield "deform-5: [w1,w2]", nr_bracket(w1, w2)
        yield "deform-6: [w2,w2]", nr_bracket(w2, w2)

    return first_failure(identities())


def deformed_pair(pair: CompatiblePair, d: DeformationDatum, t) -> CompatiblePair:
    """The compatible pair with brackets pi1 + t*w1, pi2 + t*w2.  The six
    identities are its Jacobi identities, collected by powers of t, so it
    is not validated a second time."""
    if not is_infinitesimal_deformation(pair, d):
        raise ValueError("datum does not generate a deformation")
    b1 = LieBracket.from_cochain(pair.bracket1.to_cochain() + d.omega1.scale(t))
    b2 = LieBracket.from_cochain(pair.bracket2.to_cochain() + d.omega2.scale(t))
    return CompatiblePair.unchecked(b1, b2)


def nijenhuis_torsion(
    bracket: LieBracket, n_op: Matrix, deformed: Cochain | None = None
) -> Cochain:
    """The torsion T(x,y) = N([x,y]_N) - [N x, N y] with
    [x,y]_N = [N x, y] + [x, N y] - N [x, y], on basis pairs.  The
    deformed bracket [x,y]_N is [pi, N]_NR; `deformed` is that cochain
    when the caller already has it.  Summed on integers over one common
    denominator (`integer_columns`, `integer_rows`).  The graded form
    (1/2)([pi, N.N] + [N, [pi, N]]) and the rational sum are the test
    references."""
    dim = bracket.dim
    if n_op.shape() != (dim, dim):
        raise ValueError("operator shape does not match the algebra")
    if deformed is None:
        deformed = nr_bracket(bracket.to_cochain(), Cochain.from_matrix(n_op))
    ln, (ncols,) = integer_columns(n_op)
    ld, drows = deformed.integer_rows()
    lp, prows = bracket.to_cochain().integer_rows()
    den = lcm(ld * ln, ln * ln * lp)
    values = {}
    for i in range(dim):
        for j in range(i + 1, dim):
            acc: dict[int, int] = {}
            add_image(acc, ncols, drows.get((i, j), ()), den // (ld * ln))
            add_value(acc, prows, (ncols[i], ncols[j]), -(den // (ln * ln * lp)))
            values[(i, j)] = acc
    return Cochain.from_integer_values(2, dim, dim, den, values)


def is_nijenhuis(
    pair: CompatiblePair, n_op: Matrix, delta: DeformationDatum | None = None
) -> Verdict:
    """ok iff the torsion vanishes for both brackets (by linearity of the
    torsion in the bracket this covers every pencil).  `delta` is
    `_nr_coboundary(pair, n_op)`, the two deformed brackets, when the
    caller already has it."""
    if delta is None:
        delta = _nr_coboundary(pair, n_op)
    return first_failure(
        [
            ("torsion-1", nijenhuis_torsion(pair.bracket1, n_op, delta.omega1)),
            ("torsion-2", nijenhuis_torsion(pair.bracket2, n_op, delta.omega2)),
        ]
    )


def trivial_deformation_from_nijenhuis(
    pair: CompatiblePair, n_op: Matrix
) -> DeformationDatum:
    """The trivial deformation ([pi1, N], [pi2, N]) generated by a
    Nijenhuis operator; its class is the degree-1 coboundary of N."""
    delta = _nr_coboundary(pair, n_op)
    if not is_nijenhuis(pair, n_op, delta):
        raise ValueError("operator is not Nijenhuis for this pair")
    return delta


def _nr_coboundary(pair: CompatiblePair, n_op: Matrix) -> DeformationDatum:
    """([pi1, N], [pi2, N]): the degree-1 coboundary of N, by NR brackets;
    its components are also the brackets [x,y]_N deformed by N."""
    n_c = Cochain.from_matrix(n_op)
    return DeformationDatum(
        nr_bracket(pair.bracket1.to_cochain(), n_c),
        nr_bracket(pair.bracket2.to_cochain(), n_c),
    )


def _homomorphism_defect(bracket: LieBracket, w, w_prime, n_op: Matrix):
    """The t^2 and t^3 layers of

        (Id + tN)([x,y]_t) - [(Id+tN)x, (Id+tN)y]'_t

    where [.,.]_t deforms by w and [.,.]'_t by w'; its t layer is
    (w - w') - [pi, N]_NR.  Vanishing of the three layers is the closed
    form of the displayed equivalence equations (the layers are the pairs
    (w - w' = coboundary of N), (the integrality condition) and
    (w'(N.,N.) = 0)); the alignment with the trivial-deformation criterion
    (w' = 0 recovers the Nijenhuis equations) pins the direction.  Each
    layer is summed on integers over one common denominator; the rational
    sum is the test reference."""
    dim = bracket.dim
    ln, (ncols,) = integer_columns(n_op)
    lw, wrows = w.integer_rows()
    lp, prows = bracket.to_cochain().integer_rows()
    lv, vrows = w_prime.integer_rows()
    den = lcm(ln * lw, ln * ln * lp, ln * lv)
    quad, cub = {}, {}
    for i in range(dim):
        for j in range(i + 1, dim):
            ni, nj = ncols[i], ncols[j]
            # t^2: N w(x,y) - [Nx, Ny] - w'(Nx,y) - w'(x,Ny)
            acc: dict[int, int] = {}
            add_image(acc, ncols, wrows.get((i, j), ()), den // (ln * lw))
            add_value(acc, prows, (ni, nj), -(den // (ln * ln * lp)))
            add_value(acc, vrows, (ni, ((j, 1),)), -(den // (ln * lv)))
            add_value(acc, vrows, (((i, 1),), nj), -(den // (ln * lv)))
            quad[(i, j)] = acc
            # t^3: -w'(Nx, Ny)
            acc = {}
            add_value(acc, vrows, (ni, nj), -1)
            cub[(i, j)] = acc
    return (
        Cochain.from_integer_values(2, dim, dim, den, quad),
        Cochain.from_integer_values(2, dim, dim, ln * ln * lv, cub),
    )


def deformations_equivalent(
    pair: CompatiblePair,
    d: DeformationDatum,
    d_prime: DeformationDatum,
    n_op: Matrix,
    delta: DeformationDatum | None = None,
) -> Verdict:
    """Does Id + tN give a homomorphism from the d'-deformed pair to the
    d-deformed pair for every t?

    Checks the six closed-form equations (the t, t^2 and t^3 layers of the
    homomorphism identity for each bracket).  The t layers equiv-1 and
    equiv-3 say that the difference (w1 - w1', w2 - w2') is the coboundary
    ([pi1, N], [pi2, N]) that `trivial_deformation_from_nijenhuis` returns,
    so when all six hold, N itself certifies that the two classes agree.
    `delta` is `_nr_coboundary(pair, n_op)` when the caller already has it.
    """
    dim = pair.dim
    if n_op.shape() != (dim, dim):
        raise ValueError("operator shape does not match the algebra")
    if delta is None:
        delta = _nr_coboundary(pair, n_op)
    quad1, cub1 = _homomorphism_defect(pair.bracket1, d.omega1, d_prime.omega1, n_op)
    quad2, cub2 = _homomorphism_defect(pair.bracket2, d.omega2, d_prime.omega2, n_op)
    return first_failure(
        [
            ("equiv-1: w1 - w1' = [pi1,N]", d.omega1 - d_prime.omega1 - delta.omega1),
            ("equiv-2: N w1 = w1'(.,N.) + w1'(N.,.) + [N.,N.]", quad1),
            ("equiv-3: w2 - w2' = [pi2,N]", d.omega2 - d_prime.omega2 - delta.omega2),
            ("equiv-4: N w2 = w2'(.,N.) + w2'(N.,.) + {N.,N.}", quad2),
            ("equiv-5: w1'(N.,N.) = 0", cub1),
            ("equiv-6: w2'(N.,N.) = 0", cub2),
        ]
    )


def cohomology_obstruction(
    pair: CompatiblePair, d: DeformationDatum, d_prime: DeformationDatum
):
    """The linear part of the equivalence problem: is (w1-w1', w2-w2') in
    the image of the degree-1 coboundary?  Returns (answer, certificate N
    as a matrix or None): one integer solve of the stacked arms
    (`coboundary_preimage`), with N 0 at every free coordinate."""
    diff = CochainTuple(2, [d.omega1 - d_prime.omega1, d.omega2 - d_prime.omega2])
    n_op = coboundary_preimage(pair, None, diff)
    return n_op is not None, n_op
