from fractions import Fraction
from itertools import combinations, permutations, product
from random import Random

from compatlie.core import LieBracket, adjoint_rep, CompatiblePair
from compatlie.linalg import Matrix, is_zero_vec, vadd, vec, vscale, vzero
from compatlie.multilinear import (
    Bidegree,
    BiMap,
    Cochain,
    bidegree_of,
    ce_adjoint,
    ce_coboundary,
    ce_coboundary_nr,
    lift_endo_cochain,
    lift_linear_map,
    lift_module_cochain,
    lift_rep,
    lift_side2_bracket,
    module_component,
    nr_bracket,
    nr_compose,
)
from support import n2, rand_cochain, rand_compatible_pair, rand_rep, sl2


# -- reference route: the unshuffle sum --------------------------------------


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


def brute_unshuffles(i, n):
    """Oracle: filter all n! permutations, sign by inversion count."""
    out = set()
    for p in permutations(range(n)):
        if list(p[:i]) == sorted(p[:i]) and list(p[i:]) == sorted(p[i:]):
            out.add((p, perm_sign(p)))
    return out


def test_unshuffles_against_bruteforce():
    for n in range(0, 6):
        for i in range(0, n + 1):
            got = set(unshuffles(i, n))
            assert got == brute_unshuffles(i, n)
            assert len(got) == len(brute_unshuffles(i, n))


def test_unshuffles_spec_cases():
    assert unshuffles(0, 3) == [(((0, 1, 2)), 1)] or unshuffles(0, 3) == [
        ((0, 1, 2), 1)
    ]
    one_two = dict(unshuffles(1, 2))
    assert one_two == {(0, 1): 1, (1, 0): -1}
    two_four = unshuffles(2, 4)
    assert len(two_four) == 6
    # enumerated by the brute-force oracle: the six signs are
    # +1,-1,+1,+1,-1,+1 and sum to 2
    assert sum(s for _, s in brute_unshuffles(2, 4)) == 2
    assert sum(s for _, s in two_four) == 2


def test_nr_compose_matches_unshuffle_sum():
    rng = Random(47)
    seen = set()
    for _ in range(240):
        dim = rng.randint(1, 6)
        a, b = rng.randint(0, 3), rng.randint(0, 3)
        p = rand_cochain(rng, a, dim, density=rng.choice((0.2, 0.6, 1.0)))
        q = rand_cochain(rng, b, dim, density=rng.choice((0.2, 0.6, 1.0)))
        got = nr_compose(p, q)
        assert got == nr_compose_unshuffle_sum(p, q)
        assert got.arity == max(a + b - 1, 0)
        assert all(type(c) is Fraction for c in got.coeffs.values())
        seen.add(((a - 1) % 2, (b - 1) % 2, got.is_zero()))
    # both parities of both factors, with zero and nonzero results
    assert {(x, y) for x, y, _ in seen} == {(0, 0), (0, 1), (1, 0), (1, 1)}
    assert {z for _, _, z in seen} == {False, True}


def test_nr_compose_zero_and_arity_zero_cases():
    rng = Random(53)
    for dim in range(1, 5):
        for a in range(4):
            for b in range(4):
                p = rand_cochain(rng, a, dim)
                q = rand_cochain(rng, b, dim)
                zp, zq = Cochain.zero(a, dim, dim), Cochain.zero(b, dim, dim)
                for x, y in ((p, q), (zp, q), (p, zq), (zp, zq)):
                    assert nr_compose(x, y) == nr_compose_unshuffle_sum(x, y)
    # an element (arity 0) has no slot; P . v is P with v in the first
    # slot: on n2, [e1 + 2 e2, e1] = -2 e2 and [e1 + 2 e2, e2] = e2
    v = Cochain.from_element(vec([1, 2]), 2)
    pi = n2().to_cochain()
    assert nr_compose(v, pi) == Cochain.zero(1, 2, 2)
    assert nr_compose(pi, v) == Cochain(1, 2, 2, {((0,), 1): -2, ((1,), 1): 1})
    assert nr_compose(pi, v) == nr_compose_unshuffle_sum(pi, v)


def test_eval_vectors_matches_index_expansion():
    rng = Random(59)
    for _ in range(150):
        dim = rng.randint(1, 5)
        td = rng.randint(1, 3)
        arity = rng.randint(0, 3)
        f = rand_cochain(rng, arity, dim, td, density=rng.choice((0.2, 0.6)))
        vectors = [
            vec(
                rng.randint(-2, 2) if rng.random() < 0.5 else 0
                for _ in range(dim)
            )
            for _ in range(arity)
        ]
        if arity and rng.random() < 0.2:
            vectors[rng.randrange(arity)] = vzero(dim)
        got = f.eval_vectors(vectors)
        assert got == eval_vectors_index_expansion(f, vectors)
        assert len(got) == td
        assert all(type(c) is Fraction for c in got)
    assert Cochain.zero(2, 3, 2).eval_vectors((vzero(3), vzero(3))) == vzero(2)


def test_compose_with_zero_is_zero():
    rng = Random(3)
    p = rand_cochain(rng, 2, 3)
    z = Cochain.zero(2, 3, 3)
    assert nr_compose(p, z).is_zero()
    assert nr_compose(z, p).is_zero()


def test_compose_linear_maps_is_matrix_product():
    a = Matrix([[1, 2], [0, 1]])
    b = Matrix([[3, 0], [1, 1]])
    pa, pb = Cochain.from_matrix(a), Cochain.from_matrix(b)
    assert nr_compose(pa, pb) == Cochain.from_matrix(a * b)


def test_sl2_compose_vanishes():
    # pi.pi(e1,e2,e3) = pi(pi(e1,e2),e3) - pi(pi(e1,e3),e2) + pi(pi(e2,e3),e1)
    #                 = pi(2e2,e3) - pi(-2e3,e2) + pi(e1,e1) = 2e1 - 2e1 + 0 = 0
    pi = sl2().to_cochain()
    assert nr_compose(pi, pi).is_zero()
    assert nr_bracket(pi, pi).is_zero()


def test_bracket_with_operator_example():
    # N2 with N = diag(1, 0): [pi, N](e1,e2) = [Ne1,e2] + [e1,Ne2] - N[e1,e2]
    #                                        = e2 + 0 - 0 = e2
    pi = n2().to_cochain()
    n_op = Cochain.from_matrix(Matrix([[1, 0], [0, 0]]))
    b = nr_bracket(pi, n_op)
    assert b.value((0, 1)) == vec([0, 1])


def test_graded_antisymmetry_random():
    rng = Random(11)
    for _ in range(60):
        dim = rng.randint(1, 3)
        p = rand_cochain(rng, rng.randint(0, 3), dim)
        q = rand_cochain(rng, rng.randint(0, 3), dim)
        pq = (p.arity - 1) * (q.arity - 1)
        lhs = nr_bracket(p, q)
        rhs = nr_bracket(q, p).scale(-1 if pq % 2 == 0 else 1)
        assert lhs == rhs


def test_self_bracket_equals_two_composition_formula():
    # nr_bracket(p, p) composes once; the reference composes twice and
    # combines P.P - (-1)^{pp} P.P
    rng = Random(17)
    seen = set()
    for arity in range(4):
        for _ in range(6):
            dim = rng.randint(1, 3)
            p = rand_cochain(rng, arity, dim)
            pp = (arity - 1) * (arity - 1)
            left, right = nr_compose(p, p), nr_compose(p, p)
            expected = left - right if pp % 2 == 0 else left + right
            got = nr_bracket(p, p)
            assert got == expected
            assert got == nr_bracket(p, Cochain(arity, dim, dim, p.coeffs))
            seen.add((pp % 2, got.is_zero()))
    # even degree gives zero; odd degree gives nonzero results too
    assert seen >= {(0, True), (1, False)}


def test_graded_jacobi_random():
    rng = Random(13)
    for _ in range(40):
        dim = rng.randint(1, 3)
        p = rand_cochain(rng, rng.randint(1, 2), dim)
        q = rand_cochain(rng, rng.randint(1, 2), dim)
        r = rand_cochain(rng, rng.randint(1, 2), dim)
        dp, dq, dr = p.arity - 1, q.arity - 1, r.arity - 1
        t1 = nr_bracket(nr_bracket(p, q), r).scale((-1) ** (dp * dr))
        t2 = nr_bracket(nr_bracket(q, r), p).scale((-1) ** (dq * dp))
        t3 = nr_bracket(nr_bracket(r, p), q).scale((-1) ** (dr * dq))
        assert (t1 + t2 + t3).is_zero()


def test_lift_alpha_formula():
    # lift of alpha: wedge^2 g1 -> g1 acts as ((x1,v1),(x2,v2)) -> (alpha(x1,x2), 0)
    rng = Random(5)
    alpha = rand_cochain(rng, 2, 2)
    hat = lift_endo_cochain(alpha, 2).lift()
    x1, v1 = vec([1, 2]), vec([3, -1])
    x2, v2 = vec([0, 1]), vec([2, 5])
    got = hat.eval_vectors((tuple(x1) + tuple(v1), tuple(x2) + tuple(v2)))
    expected = alpha.eval_vectors((x1, x2))
    assert got[:2] == expected
    assert got[2:] == vec([0, 0])


def test_lift_beta_formula():
    # lift of beta: g1 x g2 -> g2 acts as ((x1,v1),(x2,v2)) -> (0, beta(x1,v2) - beta(x2,v1))
    rho = (Matrix([[1, 2], [0, 1]]), Matrix([[0, 1], [1, 0]]), Matrix.zeros(2, 2))
    hat = lift_rep(rho, 3, 2).lift()

    def beta(x, v):
        out = [Fraction(0), Fraction(0)]
        for i, c in enumerate(x):
            w = rho[i].matvec(v)
            out = [a + c * b for a, b in zip(out, w)]
        return vec(out)

    x1, v1 = vec([1, -1, 2]), vec([2, 0])
    x2, v2 = vec([0, 3, 1]), vec([1, 1])
    got = hat.eval_vectors((tuple(x1) + tuple(v1), tuple(x2) + tuple(v2)))
    expect = tuple(a - b for a, b in zip(beta(x1, v2), beta(x2, v1)))
    assert got[:3] == vec([0, 0, 0])
    assert got[3:] == expect


def test_lift_of_zero_is_zero():
    assert BiMap.make(1, 1, 2, 2, 2, {}).lift().is_zero()


def test_bidegrees_of_standard_lifts():
    rng = Random(9)
    alpha = rand_cochain(rng, 2, 2)
    assert bidegree_of(lift_endo_cochain(alpha, 2).lift(), 2, 2) == Bidegree(1, 0)
    rho = (Matrix([[1, 0], [0, 2]]), Matrix([[0, 1], [0, 0]]))
    assert bidegree_of(lift_rep(rho, 2, 2).lift(), 2, 2) == Bidegree(1, 0)
    omega = rand_cochain(rng, 2, 2, target_dim=2)
    assert bidegree_of(lift_module_cochain(omega).lift(), 2, 2) == Bidegree(2, -1)
    theta = rand_cochain(rng, 2, 2)
    assert bidegree_of(lift_side2_bracket(theta, 2).lift(), 2, 2) == Bidegree(0, 1)
    xi = Matrix([[1, 2], [0, 1]])
    assert bidegree_of(lift_linear_map(xi, 2, 2).lift(), 2, 2) == Bidegree(1, -1)


def test_bidegree_not_homogeneous_and_zero():
    mixed = lift_endo_cochain(Cochain.from_matrix(Matrix.identity(2)), 1).lift() + (
        lift_linear_map(Matrix([[1, 1]]), 2, 1).lift()
    )
    assert bidegree_of(mixed, 2, 1) is None
    assert bidegree_of(Cochain.zero(2, 3, 3), 2, 1) is None


def test_bidegree_additive_under_bracket():
    rng = Random(21)
    dim1, dim2 = 2, 2
    for _ in range(40):
        choice = rng.randrange(3)
        if choice == 0:
            f = lift_rep(
                tuple(Matrix([[rng.randint(-2, 2) for _ in range(2)] for _ in range(2)]) for _ in range(2)),
                dim1,
                dim2,
            ).lift()
            fb = Bidegree(1, 0)
        elif choice == 1:
            f = lift_module_cochain(rand_cochain(rng, 2, dim1, dim2)).lift()
            fb = Bidegree(2, -1)
        else:
            f = lift_side2_bracket(rand_cochain(rng, 2, dim2), dim1).lift()
            fb = Bidegree(0, 1)
        g = lift_linear_map(
            Matrix([[rng.randint(-2, 2) for _ in range(dim1)] for _ in range(dim2)]),
            dim1,
            dim2,
        ).lift()
        gb = Bidegree(1, -1)
        br = nr_bracket(f, g)
        if not br.is_zero():
            assert bidegree_of(br, dim1, dim2) == Bidegree(fb.k + gb.k, fb.l + gb.l)


def test_ce_degree_zero_is_rep_action():
    # (d^0 v)(x) = rho(x) v
    pair = CompatiblePair(n2(), LieBracket.zero(2))
    rep = adjoint_rep(pair)
    v = Cochain.from_element(vec([1, 2]), 2)
    d = ce_coboundary(pair.bracket1.to_cochain(), rep.rho, v)
    for i in range(2):
        assert d.value((i,)) == rep.rho[i].matvec(vec([1, 2]))


def test_ce_identity_map_on_n2():
    # adjoint coefficients, f = Id: df(x,y) = [x,f(y)] - [y,f(x)] - f([x,y]) = [x,y]
    b = n2()
    f = Cochain.from_matrix(Matrix.identity(2))
    d = ce_coboundary(b.to_cochain(), b.ad_matrices(), f)
    assert d.value((0, 1)) == vec([0, 1])
    assert d == ce_adjoint(b.to_cochain(), f)


def test_ce_abelian_trivial_rep_vanishes():
    z = LieBracket.zero(3)
    rho = tuple(Matrix.zeros(2, 2) for _ in range(3))
    rng = Random(2)
    for arity in range(0, 3):
        f = rand_cochain(rng, arity, 3, 2)
        assert ce_coboundary(z.to_cochain(), rho, f).is_zero()


def test_ce_explicit_equals_nr_lift_path():
    # also on non-Lie pi and non-representation rho: both sides are the same
    # unshuffle combinatorics, no axioms needed
    rng = Random(31)
    for _ in range(40):
        sd = rng.randint(1, 3)
        td = rng.randint(1, 2)
        pi = rand_cochain(rng, 2, sd)
        rho = tuple(
            Matrix([[rng.randint(-2, 2) for _ in range(td)] for _ in range(td)])
            for _ in range(sd)
        )
        f = rand_cochain(rng, rng.randint(0, min(3, sd)), sd, td)
        assert ce_coboundary(pi, rho, f) == ce_coboundary_nr(pi, rho, f)


def test_ce_squares_to_zero_for_validated_inputs():
    rng = Random(37)
    for _ in range(15):
        pair = rand_compatible_pair(rng, rng.randint(2, 3))
        rep = rand_rep(rng, pair)
        pi = pair.bracket1.to_cochain()
        f = rand_cochain(rng, rng.randint(0, 2), pair.dim, rep.module_dim)
        df = ce_coboundary(pi, rep.rho, f)
        assert ce_coboundary(pi, rep.rho, df).is_zero()


def test_module_component_roundtrip():
    rng = Random(41)
    f = rand_cochain(rng, 2, 3, 2)
    lifted = lift_module_cochain(f).lift()
    assert module_component(lifted, 3, 2) == f


def test_alternating_evaluation_convention():
    rng = Random(43)
    f = rand_cochain(rng, 2, 3)
    # repeated arguments vanish; swapped arguments flip sign
    assert f.eval_indices((1, 1)) == (0, 0, 0)
    v = f.eval_indices((0, 2))
    assert f.eval_indices((2, 0)) == tuple(-x for x in v)
    g = rand_cochain(rng, 3, 3)
    assert g.eval_indices((2, 0, 1)) == g.value((0, 1, 2))  # even permutation
