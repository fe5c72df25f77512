"""Acceptance suite: one test per criterion, exact (zero-tolerance) checks.

Run with `pytest tests/test_acceptance.py -v -s` to see one pass/fail line
per criterion; every comparison is exact rational equality.
"""

import json
import time
from math import comb
from pathlib import Path
from random import Random

from compatlie.cli import main as cli_main
from compatlie.cohomology import (
    CochainTuple,
    coboundary_matrix,
    cohomology_dim,
    staircase_coboundary,
)
from compatlie.core import (
    CompatiblePair,
    LieBracket,
    adjoint_rep,
    validate_pair,
    validate_rep,
)
from compatlie.deformation import (
    deformed_pair,
    is_infinitesimal_deformation,
    is_nijenhuis,
    trivial_deformation_from_nijenhuis,
)
from compatlie.document import parse, render
from compatlie.extension import (
    ExtensionDatum,
    assemble_brackets,
    cocycles_cohomologous,
    extract_datum,
    gauge_transform,
    maurer_cartan_verdict,
    validate_extension_datum,
)
from compatlie.linalg import Matrix
from compatlie.multilinear import Cochain, ce_coboundary, nr_bracket
from compatlie.poisson import degree_block, lie_poisson_rep, reduced_bihamiltonian_dims
from oracles import (
    ce_coboundary_nr,
    lifted_maurer_cartan_verdict,
    rank_bareiss,
    twisted_boundary_matrices,
)
from support import (
    heisenberg3,
    n2,
    rand_compatible_pair,
    rand_cochain,
    rand_fraction,
    rand_rep,
    sl2,
)

DATA = Path(__file__).parent / "data"


def report(num, text):
    print(f"ACCEPTANCE {num:>2} PASS: {text}")


def test_criterion_01_complex_axiom():
    rng = Random(20240601)
    started = time.monotonic()
    for trial in range(50):
        dim = rng.choice((2, 3, 4))
        pair = rand_compatible_pair(rng, dim)
        reps = [None, rand_rep(rng, pair)]
        for rep in reps:
            top = min(3, dim)
            for n in range(0, top + 1):
                a = coboundary_matrix(pair, rep, n)
                b = coboundary_matrix(pair, rep, n + 1)
                assert (b.matrix * a.matrix).is_zero()
    elapsed = time.monotonic() - started
    assert elapsed < 60.0, f"took {elapsed:.1f}s"
    report(1, f"50 random pairs, adjoint + random reps: D.D = 0 exactly "
              f"for n <= 3 ({elapsed:.1f}s)")


def test_criterion_02_nr_graded_identities():
    rng = Random(20240602)
    for _ in range(100):
        dim = rng.randint(1, 3)
        p = rand_cochain(rng, rng.randint(0, 2), dim)
        q = rand_cochain(rng, rng.randint(0, 2), dim)
        r = rand_cochain(rng, rng.randint(0, 2), dim)
        dp, dq, dr = p.arity - 1, q.arity - 1, r.arity - 1
        anti = nr_bracket(p, q) - nr_bracket(q, p).scale(-((-1) ** (dp * dq)))
        assert anti.is_zero()
        terms = [
            nr_bracket(nr_bracket(p, q), r).scale((-1) ** (dp * dr)),
            nr_bracket(nr_bracket(q, r), p).scale((-1) ** (dq * dp)),
            nr_bracket(nr_bracket(r, p), q).scale((-1) ** (dr * dq)),
        ]
        # true arity of each term; a term whose inner bracket fell into the
        # zero space below the complex is represented at a wrong arity but
        # must itself vanish, and the remaining terms cancel on their own
        true_arity = dp + dq + dr + 1
        total = None
        for t in terms:
            if true_arity < 0 or t.arity != true_arity:
                assert t.is_zero()
            else:
                total = t if total is None else total + t
        assert total is None or total.is_zero()
    report(2, "graded antisymmetry and Jacobi exact on 100 random triples")


def test_criterion_03_ce_cross_check():
    rng = Random(20240603)
    for _ in range(50):
        pair = rand_compatible_pair(rng, rng.randint(2, 3))
        rep = rand_rep(rng, pair)
        pi = (pair.bracket1 if rng.random() < 0.5 else pair.bracket2).to_cochain()
        rho = rep.rho if rng.random() < 0.5 else rep.mu
        arity = rng.randint(0, min(3, pair.dim))
        f = rand_cochain(rng, arity, pair.dim, rep.module_dim)
        assert ce_coboundary(pi, rho, f) == ce_coboundary_nr(pi, rho, f)
    report(3, "explicit coboundary sum == graded-bracket route on 50 instances")


def test_criterion_04_closed_form_dims():
    for m in (1, 2, 3):
        pair = CompatiblePair(LieBracket.zero(m), LieBracket.zero(m))
        assert cohomology_dim(pair, None, 0)[0] == m
        for n in range(1, m + 1):
            assert cohomology_dim(pair, None, n)[0] == n * comb(m, n) * m
    report(4, "abelian pairs: H^0 = m and H^n = n C(m,n) m exactly")


def test_criterion_05_sl2_fixture_two_routes():
    pair = CompatiblePair(sl2(), sl2())
    assert cohomology_dim(pair, None, 0)[0] == 0
    assert cohomology_dim(pair, None, 1)[0] == 0
    for n in (0, 1):
        m = coboundary_matrix(pair, None, n).matrix
        assert m.rank() == rank_bareiss(m)
    report(5, "(simple-3d, simple-3d) adjoint: H^0 = H^1 = 0, both eliminations")


def _nijenhuis_pool(rng):
    """30 operators: random polynomials in one validated seed on the 3-d
    nilpotent pair, plus diagonal operators on the 2-d pair."""
    pool = []
    h3_pair = CompatiblePair(heisenberg3(), LieBracket.zero(3))
    seed = Matrix([[2, 0, 0], [0, -1, 0], [0, 0, 2]])
    assert is_nijenhuis(h3_pair, seed).ok
    for _ in range(18):
        c0, c1, c2 = (rand_fraction(rng, -2, 2) for _ in range(3))
        op = Matrix.identity(3).scale(c0) + seed.scale(c1) + (seed * seed).scale(c2)
        pool.append((h3_pair, op))
    n2_pair = CompatiblePair(n2(), LieBracket.zero(2))
    for _ in range(12):
        a, b = rand_fraction(rng, -3, 3), rand_fraction(rng, -3, 3)
        pool.append((n2_pair, Matrix([[a, 0], [0, b]])))
    return pool


def test_criterion_06_nijenhuis_pipeline():
    rng = Random(20240606)
    pool = _nijenhuis_pool(rng)
    assert len(pool) == 30
    for pair, op in pool:
        assert is_nijenhuis(pair, op).ok
        d = trivial_deformation_from_nijenhuis(pair, op)
        assert is_infinitesimal_deformation(pair, d).ok
        # the datum is the degree-1 coboundary of the operator
        step = staircase_coboundary(
            pair, CochainTuple(1, [Cochain.from_matrix(op)])
        )
        assert step.components[0] == d.omega1
        assert step.components[1] == d.omega2
        # and lies in the image of the degree-1 coboundary matrix
        sl = coboundary_matrix(pair, None, 1)
        flat = CochainTuple(2, [d.omega1, d.omega2]).flatten()
        assert sl.matrix.solve(flat) is not None
        for t in (1, 2, 3):
            deformed = deformed_pair(pair, d, t)
            assert validate_pair(deformed.bracket1, deformed.bracket2).ok
    report(6, "30 Nijenhuis operators: coboundary datum, valid at t in {1,2,3}")


def test_criterion_07_nine_equation_equivalence():
    from test_extension import rand_datum

    rng = Random(20240607)
    agree_ok = agree_bad = 0
    for _ in range(50):
        datum = rand_datum(rng)
        nine = validate_extension_datum(datum)
        b1, b2 = assemble_brackets(datum)
        assert nine.ok == validate_pair(b1, b2).ok
        agree_ok += nine.ok
        agree_bad += not nine.ok
    assert agree_ok >= 5 and agree_bad >= 5
    report(7, f"nine equations <-> assembled-pair validity on 50 data "
              f"({agree_ok} valid, {agree_bad} invalid)")


def test_criterion_08_maurer_cartan_cross_path():
    from test_extension import rand_datum

    rng = Random(20240607)  # the same 50 data as criterion 7
    for _ in range(50):
        datum = rand_datum(rng)
        lifted = lifted_maurer_cartan_verdict(datum)
        assert lifted.ok == validate_extension_datum(datum).ok
        assert maurer_cartan_verdict(datum) == lifted
    rng2 = Random(20240608)
    for _ in range(3):
        g = rand_compatible_pair(rng2, 2)
        h = rand_compatible_pair(rng2, rng2.randint(1, 2))
        for arity in (1, 2):
            d1a, d2a = twisted_boundary_matrices(g, h, arity)
            d1b, d2b = twisted_boundary_matrices(g, h, arity + 1)
            assert (d1b * d2a + d2b * d1a).is_zero()
    report(8, "lifted Maurer-Cartan check == nine equations; twisted "
              "differentials anticommute")


def test_criterion_09_gauge_section_coherence():
    doc = parse((DATA / "heisenberg_ext.alg").read_text())
    base = doc.pair()
    rep = doc.rep_pair()
    h = CompatiblePair(LieBracket.zero(1), LieBracket.zero(1))
    datum = ExtensionDatum(
        base, h, rep.rho, rep.mu, doc.cochain("omega1"), doc.cochain("omega2")
    )
    from test_extension import embed_proj_sigma

    embed, proj, sec = embed_proj_sigma(2, 1)
    ext = CompatiblePair(*assemble_brackets(datum))
    # xi(e1) = f1, xi(e2) = 0
    xi = Matrix([[1, 0]])
    shifted = sec.shifted(embed, xi)
    re_extracted = extract_datum(ext, embed, proj, shifted)
    v, phi = cocycles_cohomologous(
        base,
        rep,
        (re_extracted.omega1, re_extracted.omega2),
        (datum.omega1, datum.omega2),
    )
    assert v.ok and phi is not None
    assert gauge_transform(datum, xi) == re_extracted
    # and on a datum with a nonzero action, where the shift is visible
    doc2 = parse((DATA / "semidirect_scaled.alg").read_text())
    rep2 = doc2.rep_pair()
    datum2 = ExtensionDatum(
        doc2.pair(),
        h,
        rep2.rho,
        rep2.mu,
        doc2.cochain("omega1"),
        doc2.cochain("omega2"),
    )
    ext2 = CompatiblePair(*assemble_brackets(datum2))
    xi2 = doc2.op_matrix("xi")
    moved = extract_datum(ext2, embed, proj, sec.shifted(embed, xi2))
    assert gauge_transform(datum2, xi2) == moved
    assert moved.omega1 != datum2.omega1
    report(9, "section change = coboundary shift with certificate; gauge "
              "transform = re-extraction")


def test_criterion_10_poisson_representation():
    rng = Random(20240610)
    for dim in (2, 3):
        for _ in range(2):
            pair = rand_compatible_pair(rng, dim)
            for d_max in (0, 1, 2, 3):
                poly = lie_poisson_rep(pair, d_max)
                assert validate_rep(pair, poly.rep).ok
            block = degree_block(lie_poisson_rep(pair, 1), 1)
            ad = adjoint_rep(pair)
            assert block.rho == ad.rho and block.mu == ad.mu
    pair = CompatiblePair(LieBracket.zero(2), LieBracket.zero(2))
    table = reduced_bihamiltonian_dims(pair, lie_poisson_rep(pair, 2), 2)
    for d in range(3):
        block_dim = comb(2 + d - 1, d) if d > 0 else 1
        for n in range(3):
            assert table[(d, n)] == comb(2, n) * block_dim
    report(10, "polynomial action is a valid representation; degree-1 block "
               "matches the adjoint; abelian table = raw dims")


def test_criterion_11_cli_determinism(capsys):
    corpus = {
        "n2.alg": [
            ["check"],
            ["cohomology", "--max-degree", "2", "--reduced"],
            ["deform", "--omega", "w", "--nijenhuis", "N"],
            ["poisson", "--poly-degree", "1", "--max-degree", "1"],
        ],
        "sl2_pair.alg": [["check"], ["cohomology", "--max-degree", "1"]],
        "abelian2.alg": [["check"], ["cohomology", "--max-degree", "2"]],
        "heisenberg_ext.alg": [["check"], ["extend", "--mode", "abelian"]],
        "nonabelian_ext.alg": [
            ["check"],
            ["extend", "--mode", "nonabelian", "--xi", "xi"],
        ],
        "semidirect_scaled.alg": [
            ["check"],
            ["extend", "--mode", "abelian", "--xi", "xi"],
        ],
        "bad_jacobi.alg": [["check"]],
    }
    for name, commands in sorted(corpus.items()):
        path = DATA / name
        doc = parse(path.read_text())
        assert parse(render(doc)) == doc
        for cmd in commands:
            for fmt in ("json", "csv"):
                outs = []
                for _ in range(2):
                    cli_main([cmd[0], str(path), *cmd[1:], "--format", fmt])
                    outs.append(capsys.readouterr().out.encode())
                assert outs[0] == outs[1]
                if fmt == "json":
                    json.loads(outs[0])  # well-formed machine output
    with capsys.disabled():
        report(11, "machine reports byte-identical; parse/render round-trips")
