import csv
import functools
import hashlib
import io
import json
from fractions import Fraction
from itertools import combinations
from pathlib import Path
from random import Random

import pytest

from compatlie import cli, cohomology, extension, multilinear, poisson
from compatlie.cli import Report, main
from compatlie.core import CompatiblePair, InternalCheckError, LieBracket, Verdict, Witness
from compatlie.extension import ExtensionDatum, gauge_transform, validate_extension_datum
from compatlie.linalg import Matrix
from compatlie.multilinear import Cochain
from compatlie.document import parse, render
from oracles import report_json_reference
from support import rand_compatible_pair, rand_document, rand_matrix, rand_rep

DATA = Path(__file__).parent / "data"


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    out = capsys.readouterr()
    return code, out.out, out.err


def test_check_ok(capsys):
    code, out, _ = run(capsys, "check", DATA / "n2.alg")
    assert code == 0
    assert "pair-compatible" in out
    assert "FAIL" not in out


def test_check_reports_jacobi_failure(capsys):
    code, out, _ = run(capsys, "check", DATA / "bad_jacobi.alg", "--witness")
    assert code == 1
    assert "FAIL" in out and "jacobi" in out


def test_check_with_seed_probes(capsys):
    code, out, _ = run(capsys, "check", DATA / "sl2_pair.alg", "--seed", "5")
    assert code == 0
    assert "pencil-probe-1" in out and "pencil-probe-2" in out


def test_parse_error_exit_code(capsys, tmp_path):
    bad = tmp_path / "bad.alg"
    bad.write_text("[algebra]\ndim 2\n[pi1]\n1 2 1 1/0\n")
    code, _, err = run(capsys, "check", bad)
    assert code == 2
    assert "zero denominator" in err and "line 4" in err


def test_missing_file(capsys):
    code, _, err = run(capsys, "check", DATA / "missing.alg")
    assert code == 2


def test_usage_error(capsys):
    assert main(["cohomology", str(DATA / "n2.alg")]) == 2  # --max-degree missing


def test_cohomology_abelian_table(capsys):
    code, out, _ = run(
        capsys,
        "cohomology",
        DATA / "abelian2.alg",
        "--max-degree",
        "2",
        "--format",
        "json",
    )
    assert code == 0
    report = json.loads(out)
    rows = {r["degree"]: r["h_dim"] for r in report["tables"]["cohomology"]}
    assert rows == {0: 2, 1: 4, 2: 4}


def test_cohomology_sl2_pair(capsys):
    code, out, _ = run(
        capsys,
        "cohomology",
        DATA / "sl2_pair.alg",
        "--max-degree",
        "1",
        "--format",
        "json",
    )
    assert code == 0
    report = json.loads(out)
    rows = {r["degree"]: r["h_dim"] for r in report["tables"]["cohomology"]}
    assert rows == {0: 0, 1: 0}


def test_cohomology_degree_cap(capsys):
    code, _, err = run(capsys, "cohomology", DATA / "n2.alg", "--max-degree", "3")
    assert code == 2
    assert "max-degree" in err


def test_cohomology_with_coefficient_module(capsys):
    # heisenberg_ext.alg carries a 1-dim zero-action module: over the abelian
    # base the dims are the raw cochain-space dims n * C(2,n) * 1
    code, out, _ = run(
        capsys,
        "cohomology",
        DATA / "heisenberg_ext.alg",
        "--max-degree",
        "2",
        "--format",
        "json",
    )
    assert code == 0
    report = json.loads(out)
    rows = {r["degree"]: r["h_dim"] for r in report["tables"]["cohomology"]}
    assert rows == {0: 1, 1: 2, 2: 2}


def test_cohomology_reduced_flag(capsys):
    code, out, _ = run(
        capsys,
        "cohomology",
        DATA / "n2.alg",
        "--max-degree",
        "2",
        "--reduced",
        "--format",
        "json",
    )
    assert code == 0
    report = json.loads(out)
    assert "reduced" in report["tables"]


def test_deform_command(capsys):
    code, out, _ = run(
        capsys,
        "deform",
        DATA / "n2.alg",
        "--omega",
        "w",
        "--nijenhuis",
        "N",
        "--format",
        "json",
    )
    assert code == 0
    report = json.loads(out)
    names = {v["name"]: v["ok"] for v in report["verdicts"]}
    assert names["infinitesimal-deformation"]
    assert names["nijenhuis-operator"]
    assert report["tables"]["deformation-class"][0]["is_coboundary"] == "true"


def test_deform_missing_block(capsys):
    code, _, err = run(capsys, "deform", DATA / "abelian2.alg", "--omega", "w")
    assert code == 2
    assert "cochain" in err


def test_extend_abelian_heisenberg(capsys):
    code, out, _ = run(
        capsys,
        "extend",
        DATA / "heisenberg_ext.alg",
        "--mode",
        "abelian",
        "--format",
        "json",
    )
    assert code == 0
    report = json.loads(out)
    names = {v["name"]: v["ok"] for v in report["verdicts"]}
    assert names["extension-datum"] and names["maurer-cartan"]
    entries = report["tables"]["extension-bracket1"]
    assert {"label": "entry", "i": 1, "j": 2, "k": 3, "coeff": "1"} in entries


def test_extend_with_gauge(capsys):
    code, out, _ = run(
        capsys,
        "extend",
        DATA / "semidirect_scaled.alg",
        "--mode",
        "abelian",
        "--xi",
        "xi",
        "--format",
        "json",
    )
    assert code == 0
    report = json.loads(out)
    names = {v["name"]: v["ok"] for v in report["verdicts"]}
    assert names["gauge-transformed-datum"] and names["isomorphic-under-xi"]
    # gauge by xi = (0, 5) moves the zero cocycle to w1(e1,e2) = rho(e1)xi(e2)
    # - xi([e1,e2]) = 2*5 - 5 = 5
    assert report["tables"]["gauge-omega1"] == [
        {"label": "entry", "i": 1, "j": 2, "k": 1, "coeff": "5"}
    ]


def test_extend_nonabelian(capsys):
    code, out, _ = run(
        capsys,
        "extend",
        DATA / "nonabelian_ext.alg",
        "--mode",
        "nonabelian",
        "--xi",
        "xi",
        "--format",
        "json",
    )
    assert code == 0
    report = json.loads(out)
    names = {v["name"]: v["ok"] for v in report["verdicts"]}
    assert names["extension-datum"] and names["maurer-cartan"]
    assert names["gauge-transformed-datum"] and names["isomorphic-under-xi"]
    # the fibre bracket survives into the assembled extension: [f1,f2] = f2
    entries = report["tables"]["extension-bracket1"]
    assert {"label": "entry", "i": 3, "j": 4, "k": 4, "coeff": "1"} in entries


def test_poisson_command(capsys):
    code, out, _ = run(
        capsys,
        "poisson",
        DATA / "n2.alg",
        "--poly-degree",
        "1",
        "--max-degree",
        "2",
        "--format",
        "json",
    )
    assert code == 0
    report = json.loads(out)
    rows = report["tables"]["reduced-bihamiltonian"]
    assert rows[0] == {"poly_degree": 0, "H~0": 1, "H~1": 1, "H~2": 1}
    assert rows[1] == {"poly_degree": 1, "H~0": 0, "H~1": 2, "H~2": 2}


# every command that runs on each fixture
MACHINE_COMMANDS = {
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


def test_machine_reports_byte_identical(capsys):
    corpus = sorted(DATA.glob("*.alg"))
    for path in corpus:
        for cmd in MACHINE_COMMANDS[path.name]:
            for fmt in ("json", "csv"):
                outputs = []
                for _ in range(2):
                    code, out, _ = run(capsys, cmd[0], path, *cmd[1:], "--format", fmt)
                    outputs.append(out.encode())
                assert outputs[0] == outputs[1], (path.name, cmd, fmt)


def test_text_format_has_timing_but_json_does_not(capsys):
    _, out_text, _ = run(capsys, "check", DATA / "n2.alg")
    assert "elapsed:" in out_text
    _, out_json, _ = run(capsys, "check", DATA / "n2.alg", "--format", "json")
    assert "elapsed" not in out_json


def table_commands(name):
    """The cohomology and Poisson table commands run on a valid fixture."""
    dim = parse((DATA / name).read_text()).dim
    return {
        "cohomology": ["cohomology", name, "--max-degree", str(min(3, dim)), "--reduced"],
        "poisson": ["poisson", name, "--poly-degree", "2", "--max-degree", "2"],
    }


# sha256 of the JSON reports, recorded before the staircase and reduced
# tables were rebuilt from the arm matrices; run from tests/data so the
# "input" field is the bare file name
TABLE_DIGESTS = {
    ("abelian2.alg", "cohomology"): "e3a7b74ac8375e5a7ea339394b256a8b50b8806bf58b5765a8804bc337a7ba4d",
    ("abelian2.alg", "poisson"): "54ccc1382eb56dd382223b2c799697d27172568937981e3dedde4e92ebb79fd6",
    ("heisenberg_ext.alg", "cohomology"): "ac79be8c665a8c8a0567a39dedecd6329761f6545ceff1091cbe9bb9a6767a64",
    ("heisenberg_ext.alg", "poisson"): "c12606b99cb0d307db7348507407e3205953640571e9292923757806c8f9fda9",
    ("n2.alg", "cohomology"): "d4b872193945924e620f33491a490da80d1a95c2305ca122afbc730e0529f48b",
    ("n2.alg", "poisson"): "74d7653e20c0cab4b3d16ebd0b4667b77a71cd357ab6a252802702e69e1cc472",
    ("nonabelian_ext.alg", "cohomology"): "7aac4e3f8c81f5723678a9c2757f624874f9ab82873e7d01f96c7bff217822bc",
    ("nonabelian_ext.alg", "poisson"): "b301b34dbe6b194119dcde137b8dafccade48063915c85f9f6d6df5c4b360fba",
    ("semidirect_scaled.alg", "cohomology"): "7581fd5fe7fed66d358f9e9fbc8d9c5dc2aeff727402b04eec8dd31d7a8aeb12",
    ("semidirect_scaled.alg", "poisson"): "a16415d65926035285925c5ffdc82eb6397843968ce61c0b60f63947fb7bb17a",
    ("sl2_pair.alg", "cohomology"): "5698ac6b1aa5201a276ab5e70fcf1704e2a17866dea85494b18281bb8a42637e",
    ("sl2_pair.alg", "poisson"): "bd6c7656a43bca5d33088fe936e3abdaafb9fa040af3a9c84da7edfdecf0bc80",
}


def test_table_reports_match_recorded_digests(capsys, monkeypatch):
    monkeypatch.chdir(DATA)
    for (name, command), digest in TABLE_DIGESTS.items():
        code, out, _ = run(capsys, *table_commands(name)[command], "--format", "json")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest, (name, command)


# (exit code, sha256) of the JSON verdict reports, recorded before
# equations 7-9 of an extension datum and the equivalence check of `deform`
# were read off the staircase coboundary; run from tests/data
VERDICT_DIGESTS = {
    ("check", "abelian2.alg", "--seed", "3"): (0, "9aa6d233397f308499d27112d4631b2baa700c008334eaae3127e2a4994ea50f"),
    ("check", "bad_jacobi.alg", "--seed", "3"): (1, "7ca93836c4300de6cd99a21eed1936d86bf295bc8328fc40095e2c04424f73e9"),
    ("check", "heisenberg_ext.alg", "--seed", "3"): (0, "46790950ac70c8d5e43e913c6af5b8b37f73b8802f6378854b7c662681796bed"),
    ("check", "n2.alg", "--seed", "3"): (0, "739b388a62554954bfe2067fc09da73b9503f62db19433ed21d4f44ea82eea0f"),
    ("check", "nonabelian_ext.alg", "--seed", "3"): (0, "e875cb2c6e46de2ca088318eb1a4280cb199492571e7ce03b7dc923a93586726"),
    ("check", "semidirect_scaled.alg", "--seed", "3"): (0, "924a1c024aa2530a3631dcfbcc85743e3a5bd18dd253cb3a15714bfa3b7fde69"),
    ("check", "sl2_pair.alg", "--seed", "3"): (0, "c0fb0dfd7101151095d0b4d4de1f25b5bf1e624d8bcb8f434f124d05ca86bda4"),
    ("deform", "n2.alg", "--omega", "w", "--nijenhuis", "N"): (0, "196239ee41fcc0e665750cca3c35a66bebed3e107c42bc488a36f92f05242d8d"),
    ("extend", "heisenberg_ext.alg", "--mode", "abelian"): (0, "2b85c82aead37bc21851ef036a31d466cd411570cad5873e6b8cf18d70ba011f"),
    ("extend", "semidirect_scaled.alg", "--mode", "abelian", "--xi", "xi"): (0, "ba1f4494c8189e375bb54a04b123cab6866e039625186f8bcc7bec8901e5ff91"),
    ("extend", "nonabelian_ext.alg", "--mode", "nonabelian", "--xi", "xi"): (0, "c2c8f37178cbaaafa757e395335bd77d895545e28106c8a9027121f0c8e52a6a"),
}


def test_verdict_reports_match_recorded_digests(capsys, monkeypatch):
    monkeypatch.chdir(DATA)
    assert {argv[1] for argv in VERDICT_DIGESTS if argv[0] == "check"} == {
        p.name for p in DATA.glob("*.alg")
    }
    for argv, (expected_code, digest) in VERDICT_DIGESTS.items():
        code, out, _ = run(capsys, *argv, "--format", "json")
        assert code == expected_code, argv
        assert hashlib.sha256(out.encode()).hexdigest() == digest, argv


# `extend` inputs that fail an action law (ext-1, ext-5) or a derivation
# law (ext-3, ext-6), with the (exit code, sha256) of their JSON reports,
# recorded before the nine equations were read off the Jacobiators
N2_BASE = "[algebra]\ndim 2\n\n[pi1]\n1 2 2 1\n\n[pi2]\n\n"
ABELIAN_BASE = "[algebra]\ndim 2\n\n[pi1]\n\n[pi2]\n\n"
LINE_COCYCLES = "[cochain omega1]\ntarget 1\n\n[cochain omega2]\ntarget 1\n"
N2_FIBRE = (
    "[cochain omega1]\ntarget 2\n\n[cochain omega2]\ntarget 2\n\n"
    "[cochain theta1]\ndim 2\ntarget 2\n1 2 2 1\n\n"
    "[cochain theta2]\ndim 2\ntarget 2\n"
)
INVALID_EXTEND = {
    "rho_not_action.alg": (
        N2_BASE + "[rep]\ndim 1\nrho 1\nrow: 1\nrho 2\nrow: 1\n\n" + LINE_COCYCLES,
        "abelian",
        "acb386d91aa8ae7fef4b7989048190c137d3fd25ce779704afcce152adcfa343",
    ),
    "mixed_not_action.alg": (
        N2_BASE + "[rep]\ndim 1\nmu 2\nrow: 1\n\n" + LINE_COCYCLES,
        "abelian",
        "eca9d2aa1e1469ad5e27653deaf835ec60ce63b4e9a83785e0465f689c46966d",
    ),
    "rho_not_derivation.alg": (
        ABELIAN_BASE + "[rep]\ndim 2\nrho 1\nrow: 0 1\nrow: 0 0\n\n" + N2_FIBRE,
        "nonabelian",
        "bf9cf0e88a3bf377fa475358fdf636324acc463e601cca7513480199cb14e98e",
    ),
    "mu_not_derivation.alg": (
        ABELIAN_BASE + "[rep]\ndim 2\nmu 1\nrow: 0 1\nrow: 0 0\n\n" + N2_FIBRE,
        "nonabelian",
        "5278f9abf01d475d0cfa8db0f94dd36604d19cbece50ba9c069ede35b71f64c3",
    ),
}


def test_invalid_extend_reports_match_recorded_digests(capsys, monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    laws = []
    for name, (text, mode, digest) in INVALID_EXTEND.items():
        (tmp_path / name).write_text(text)
        code, out, _ = run(capsys, "extend", name, "--mode", mode, "--format", "json")
        assert code == 1, name
        assert hashlib.sha256(out.encode()).hexdigest() == digest, name
        laws.append(json.loads(out)["verdicts"][0]["witness"]["law"])
    assert laws == ["ext-1", "ext-5", "ext-3", "ext-6"]


def test_extend_builds_each_datums_jacobiators_once(capsys, monkeypatch):
    # `extend --xi` checks the datum through the nine equations and
    # Maurer-Cartan, both read off one build of its Jacobiators; the gauge
    # transform's verdict is the theta certificate, which builds none
    monkeypatch.chdir(DATA)
    builds = []
    compute = ExtensionDatum.jacobiators.func

    def counted(datum):
        builds.append(datum)
        return compute(datum)

    prop = functools.cached_property(counted)
    prop.__set_name__(ExtensionDatum, "jacobiators")
    monkeypatch.setattr(ExtensionDatum, "jacobiators", prop)
    xi_runs = [argv for argv in VERDICT_DIGESTS if "--xi" in argv]
    assert len(xi_runs) == 2
    for argv in xi_runs:
        builds.clear()
        assert run(capsys, *argv)[0] == 0
        assert len(builds) == 1, argv


def test_extend_xi_transforms_once(capsys, monkeypatch):
    # the isomorphism verdict checks theta on the transform the report's
    # gauge tables come from, without transforming a second time
    monkeypatch.chdir(DATA)
    calls = []
    transform = extension.gauge_transform

    def counted(datum, xi):
        calls.append(xi)
        return transform(datum, xi)

    monkeypatch.setattr(extension, "gauge_transform", counted)
    monkeypatch.setattr(cli, "gauge_transform", counted)
    xi_runs = [argv for argv in VERDICT_DIGESTS if "--xi" in argv]
    assert len(xi_runs) == 2
    for argv in xi_runs:
        calls.clear()
        code, out, _ = run(capsys, *argv, "--format", "json")
        assert code == 0, argv
        assert len(calls) == 1, argv
        verdicts = {v["name"]: v["ok"] for v in json.loads(out)["verdicts"]}
        assert verdicts["isomorphic-under-xi"], argv


def test_deform_nijenhuis_builds_the_nr_coboundary_once(capsys, monkeypatch):
    # [pi_i, N]_NR is both the torsion's deformed bracket and the t layer
    # of the equivalence: 4 pair checks + 12 deformation identities + 4 for
    # [pi_i, N]_NR make 20 compositions (24 when it was built twice)
    monkeypatch.chdir(DATA)
    calls = []
    scatter = multilinear._add_composition

    def counted(table, p, q, factor):
        calls.append((p.arity, q.arity))
        return scatter(table, p, q, factor)

    monkeypatch.setattr(multilinear, "_add_composition", counted)
    argv = ("deform", "n2.alg", "--omega", "w", "--nijenhuis", "N", "--format", "json")
    code, out, _ = run(capsys, *argv)
    assert code == 0
    verdicts = {v["name"]: v["ok"] for v in json.loads(out)["verdicts"]}
    assert verdicts["nijenhuis-operator"] and verdicts["trivial-via-operator"]
    assert len(calls) == 20
    assert calls.count((2, 1)) + calls.count((1, 2)) == 4


def test_check_computes_each_jacobiator_once(capsys, monkeypatch):
    # the bracket verdicts and the pair verdict share the Jacobiator each
    # bracket keeps: one composition per Jacobiator, two for the mixed
    # bracket and one per pencil probe
    calls = []
    scatter = multilinear._add_composition

    def counted(table, p, q, factor):
        calls.append((p.arity, q.arity))
        return scatter(table, p, q, factor)

    monkeypatch.setattr(multilinear, "_add_composition", counted)
    code, out, _ = run(capsys, "check", DATA / "sl2_pair.alg", "--seed", "3")
    assert code == 0 and "FAIL" not in out
    assert "pencil-probe-2" in out
    assert len(calls) == 6


def test_extend_xi_assembles_each_datum_once(capsys, monkeypatch):
    # the datum's Jacobiators, bracket tables and theta check share one
    # assembled pair, and the transform's Jacobiators and theta another
    monkeypatch.chdir(DATA)
    calls = []
    assemble = extension.assemble_brackets

    def counted(datum):
        calls.append(datum)
        return assemble(datum)

    monkeypatch.setattr(extension, "assemble_brackets", counted)
    xi_runs = [argv for argv in VERDICT_DIGESTS if "--xi" in argv]
    assert len(xi_runs) == 2
    for argv in xi_runs:
        calls.clear()
        code, out, _ = run(capsys, *argv, "--format", "json")
        assert code == 0, argv
        assert len(calls) == 2, argv
        assert json.loads(out)["tables"]["extension-bracket1"], argv


def test_repeated_main_calls_share_one_parser_and_no_state(capsys, monkeypatch):
    builds = []
    build = cli.build_parser

    def counted():
        builds.append(1)
        return build()

    monkeypatch.setattr(cli, "build_parser", counted)
    cli._parser.cache_clear()
    try:
        path = DATA / "sl2_pair.alg"
        code, out, _ = run(capsys, "check", path, "--seed", "5", "--format", "json")
        assert code == 0 and json.loads(out)["options"] == {"seed": 5}
        code, out, _ = run(capsys, "check", path, "--format", "json")
        assert code == 0 and json.loads(out)["options"] == {}
        code, out, _ = run(capsys, "--help")
        assert code == 0 and "usage: compatlie" in out
        code, _, err = run(capsys, "check", path, "--no-such-flag")
        assert code == 2 and "unrecognized arguments" in err
        code, out, _ = run(capsys, "check", path, "--format", "json")
        assert code == 0 and json.loads(out)["options"] == {}
        assert len(builds) == 1
    finally:
        cli._parser.cache_clear()


def test_each_table_builds_each_arm_once(capsys, monkeypatch):
    # every ce_matrix build is keyed by (table, module, degree, bracket); a
    # key seen twice is a rebuilt arm
    monkeypatch.chdir(DATA)
    builds = []
    table = [None]
    ce_matrix = cohomology.ce_matrix

    def counted(pair, rep, degree, which):
        builds.append((table[0], rep, degree, which))
        return ce_matrix(pair, rep, degree, which)

    def tagged(sweep, name):
        def run_sweep(*args):
            table[0] = name
            try:
                return sweep(*args)
            finally:
                table[0] = None

        return run_sweep

    monkeypatch.setattr(cohomology, "ce_matrix", counted)
    staircase = tagged(cohomology.cohomology_dims, "staircase")
    reduced = tagged(cohomology.reduced_cohomology_dims, "reduced")
    monkeypatch.setattr(cohomology, "cohomology_dims", staircase)
    monkeypatch.setattr(cohomology, "reduced_cohomology_dims", reduced)
    monkeypatch.setattr(poisson, "reduced_cohomology_dims", reduced)
    for name in sorted({name for name, _ in TABLE_DIGESTS}):
        for command, argv in table_commands(name).items():
            builds.clear()
            assert run(capsys, *argv)[0] == 0
            assert builds and None not in {b[0] for b in builds}
            assert len(builds) == len(set(builds)), (name, command)
            if command == "cohomology":
                k = int(argv[3])
                # staircase: d1 at degree 0, both arms at 1..k; reduced:
                # both arms at 0..k+1
                assert len(builds) == (2 * k + 1) + 2 * (k + 2)


def test_deform_builds_each_arm_once(capsys, monkeypatch):
    # the six identities and [pi, N] are NR brackets: only the preimage
    # solve of the deformation class builds the degree-1 arms
    monkeypatch.chdir(DATA)
    builds = []
    ce_matrix = cohomology.ce_matrix

    def counted(pair, rep, degree, which):
        builds.append((degree, which))
        return ce_matrix(pair, rep, degree, which)

    monkeypatch.setattr(cohomology, "ce_matrix", counted)
    (argv,) = [argv for argv in VERDICT_DIGESTS if argv[0] == "deform"]
    assert "--nijenhuis" in argv
    code, out, _ = run(capsys, *argv, "--format", "json")
    assert code == 0
    assert [v["ok"] for v in json.loads(out)["verdicts"]] == [True] * 3
    assert len(builds) == len(set(builds))
    assert sorted(builds) == [(1, 1), (1, 2)]


# `deform` inputs whose witness laws hold a comma: deform-1 on the sl2 pair,
# and equiv-1 for a Nijenhuis operator whose coboundary is not w
FAILING_DEFORM = {
    "sl2_not_cocycle.alg": (DATA / "sl2_pair.alg").read_text()
    + "\n[op N]\nrow: 1 0 0\nrow: 0 1 0\nrow: 0 0 1\n"
    + "\n[cochain w1]\n1 2 1 1\n\n[cochain w2]\n",
    "n2_wrong_operator.alg": (DATA / "n2.alg")
    .read_text()
    .replace("row: 1 0\nrow: 0 0", "row: 0 0\nrow: 0 1"),
}


def test_every_csv_row_has_four_fields(capsys, monkeypatch, tmp_path):
    # fields holding a comma (pencil probes, NR laws in witness rows) are
    # quoted; every other row is the comma-joined fields, as before
    for name, text in FAILING_DEFORM.items():
        (tmp_path / name).write_text(text)
    for name, (text, _, _) in INVALID_EXTEND.items():
        (tmp_path / name).write_text(text)
    runs = [(DATA, argv) for argv in VERDICT_DIGESTS]
    runs += [
        (DATA, argv) for name, _ in TABLE_DIGESTS for argv in table_commands(name).values()
    ]
    runs += [
        (tmp_path, ("deform", name, "--omega", "w", "--nijenhuis", "N"))
        for name in FAILING_DEFORM
    ]
    runs += [
        (tmp_path, ("extend", name, "--mode", mode))
        for name, (_, mode, _) in INVALID_EXTEND.items()
    ]
    quoted, failed = 0, set()
    for cwd, argv in runs:
        monkeypatch.chdir(cwd)
        _, out, _ = run(capsys, *argv, "--format", "csv")
        _, report, _ = run(capsys, *argv, "--format", "json")
        lines = out.splitlines()
        rows = list(csv.reader(io.StringIO(out)))
        assert len(rows) == len(lines) > 1, argv
        for line, row in zip(lines, rows):
            assert len(row) == 4, (argv, line)
            if any("," in field or '"' in field for field in row):
                quoted += 1
            else:
                assert line == ",".join(row), (argv, line)
        verdicts = json.loads(report)["verdicts"]
        assert [r[1] for r in rows if r[0] == "verdict" and r[2] == "ok"] == [
            v["name"] for v in verdicts
        ]
        failed |= {v["witness"]["law"] for v in verdicts if not v["ok"]}
    assert quoted
    assert {law.split(":")[0] for law in failed} >= {"deform-1", "equiv-1"}


def test_internal_check_error_has_its_own_exit_code(capsys, monkeypatch):
    def broken(*args):
        raise InternalCheckError("degree 1: image outside the kernel")

    monkeypatch.setattr(cohomology, "cohomology_dims", broken)
    code, out, err = run(
        capsys, "cohomology", DATA / "n2.alg", "--max-degree", "1", "--format", "json"
    )
    assert code == 3
    assert out == ""
    assert err == "internal error: degree 1: image outside the kernel\n"


def test_non_ascii_digit_is_a_usage_error(capsys, tmp_path):
    bad = tmp_path / "bad.alg"
    bad.write_text("[algebra]\ndim 2\n[pi1]\n1 ² 1 1\n", encoding="utf-8")
    code, out, err = run(capsys, "check", bad)
    assert code == 2
    assert out == ""
    assert err.startswith("error: line 4")


def test_json_reports_equal_the_standard_encoder(capsys, monkeypatch, tmp_path):
    # every fixture and command, the recorded verdict, table and invalid
    # extension inputs, the failing deformations and generated documents:
    # each report's JSON equals the standard library's encoding of its data
    runs = [
        (DATA, (cmd[0], name, *cmd[1:]))
        for name, cmds in MACHINE_COMMANDS.items()
        for cmd in cmds
    ]
    runs += [(DATA, argv) for argv in VERDICT_DIGESTS]
    runs += [
        (DATA, argv) for name, _ in TABLE_DIGESTS for argv in table_commands(name).values()
    ]
    for name, text in FAILING_DEFORM.items():
        (tmp_path / name).write_text(text)
        runs.append((tmp_path, ("deform", name, "--omega", "w", "--nijenhuis", "N")))
    for name, (text, mode, _) in INVALID_EXTEND.items():
        (tmp_path / name).write_text(text)
        runs.append((tmp_path, ("extend", name, "--mode", mode)))
    rng = Random(307)
    for n in range(40):
        name = f"generated_{n}.alg"
        (tmp_path / name).write_text(render(rand_document(rng)))
        runs.append((tmp_path, ("check", name, "--seed", str(n))))
        runs.append((tmp_path, ("cohomology", name, "--max-degree", "1")))
    assert {argv[1] for _, argv in runs} >= {p.name for p in DATA.glob("*.alg")}
    compared = []
    to_json = Report.to_json

    def checked(self):
        got = to_json(self)
        assert got == report_json_reference(self.data), self.data
        compared.append(self.data)
        return got

    monkeypatch.setattr(Report, "to_json", checked)
    codes = []
    for cwd, argv in runs:
        monkeypatch.chdir(cwd)
        codes.append(run(capsys, *argv, "--format", "json")[0])
    assert len(compared) == len(runs)
    assert codes.count(0) > 20 and codes.count(1) > 20


def test_json_writer_on_hand_built_reports():
    # escapes in the input path (non-ASCII, a character beyond the BMP, a
    # quote, a backslash, control characters), empty tables and
    # representatives, bool options, witnesses and nested empties
    report = Report(
        "cohomology",
        "dïr/ü\"quote\\back\x01\ttab\u2028\U0001d53c.alg",
        {"max_degree": 2, "reduced": True, "witness": False, "omega": "w"},
    )
    empty = Report("check", "", {})
    for r in (report, empty):
        assert r.to_json() == report_json_reference(r.data)
    report.table("cohomology", [])
    report.table("reduced", [{"degree": 0, "space_dim": 0, "h_dim": -3}])
    report.representatives("H0", [])
    report.representatives("H1", [(Fraction(1, 2), 0, Fraction(-7, 3))])
    report.verdict("pair-compatible", Verdict(True))
    report.verdict(
        "representation",
        Verdict(False, Witness("rep-1: [rho(e1), mu(e2)]", (1, 2), (Fraction(1, 3), 0))),
    )
    report.verdict("empty-witness", Verdict(False, Witness("law", (), ())))
    report.data["tables"]["nested"] = [{"label": "x", "rows": [[], {}]}]
    text = report.to_json()
    assert text == report_json_reference(report.data)
    assert "\\u00ef" in text and "\\ud835\\udd3c" in text
    assert json.loads(text) == report.data


@pytest.mark.parametrize(
    "value",
    [
        1.5,
        None,
        (1, 2),
        Fraction(1, 2),
        b"x",
        {1: "x"},
        {"k": [None]},
        {"a": {"b": 2.0}},
    ],
    ids=repr,
)
def test_json_writer_refuses_values_outside_the_schema(value):
    # json.dumps would write floats, None, tuples and int keys; the report
    # schema has none of them, so the writer raises on each
    report = Report("check", "x.alg", {"value": value})
    with pytest.raises(TypeError):
        report.to_json()


# -- the theta certificate as the verdict on the gauge transform ---------------


def extension_text(datum: ExtensionDatum, xi: Matrix) -> str:
    """An `extend` input for the datum, with xi as [op xi]; the fibre
    brackets go to theta blocks when the fibre is not abelian."""
    m = datum.fibre_dim

    def triples(entries):
        return [f"{i + 1} {j + 1} {k + 1} {c}" for (i, j, k), c in entries]

    def rows(mat):
        return ["row: " + " ".join(str(x) for x in mat.row(r)) for r in range(mat.rows)]

    g, h = datum.base, datum.fibre
    out = ["[algebra]", f"dim {g.dim}", ""]
    out += ["[pi1]", *triples(g.bracket1.entries()), ""]
    out += ["[pi2]", *triples(g.bracket2.entries()), ""]
    out += ["[rep]", f"dim {m}"]
    for label, mats in (("rho", datum.rho), ("mu", datum.mu)):
        for idx, mat in enumerate(mats, start=1):
            out += [f"{label} {idx}", *rows(mat)]
    out += ["", "[op xi]", *rows(xi), ""]
    for name, w in (("omega1", datum.omega1), ("omega2", datum.omega2)):
        entries = (((i, j, k), c) for ((i, j), k), c in sorted(w.coeffs.items()))
        out += [f"[cochain {name}]", f"target {m}", *triples(entries), ""]
    if not fibre_is_abelian(datum):
        for name, b in (("theta1", h.bracket1), ("theta2", h.bracket2)):
            out += [f"[cochain {name}]", f"dim {m}", f"target {m}"]
            out += [*triples(b.entries()), ""]
    return "\n".join(out)


def fibre_is_abelian(datum: ExtensionDatum) -> bool:
    return datum.fibre.bracket1.is_zero() and datum.fibre.bracket2.is_zero()


def seeded_extension_data():
    """Valid data: semidirect products by a random module (abelian fibre)
    and products with a nonabelian fibre, moved by a random gauge so that
    actions and cochains are nonzero; each with xi = 0 and a random xi."""
    rng = Random(241)
    out = []
    for case in range(12):
        g = rand_compatible_pair(rng, rng.randint(2, 3))
        n = g.dim
        if case % 2:
            h = rand_compatible_pair(rng, 2)
            while h.bracket1.is_zero() and h.bracket2.is_zero():
                h = rand_compatible_pair(rng, 2)
            rho = mu = tuple(Matrix.zeros(2, 2) for _ in range(n))
        else:
            rep = rand_rep(rng, g)
            abelian = LieBracket.zero(rep.module_dim)
            h = CompatiblePair(abelian, abelian)
            rho, mu = rep.rho, rep.mu
        m = h.dim
        w = Cochain.zero(2, n, m)
        datum = gauge_transform(
            ExtensionDatum(g, h, rho, mu, w, w), rand_matrix(rng, m, n, -1, 1)
        )
        assert validate_extension_datum(datum).ok
        for xi in (Matrix.zeros(m, n), rand_matrix(rng, m, n)):
            out.append((datum, xi))
    return out


def run_extend_xi(capsys, tmp_path, datum, xi):
    path = tmp_path / "ext.alg"
    path.write_text(extension_text(datum, xi))
    mode = "abelian" if fibre_is_abelian(datum) else "nonabelian"
    return run(capsys, "extend", path, "--mode", mode, "--xi", "xi", "--format", "json")


def test_extend_xi_verdict_equals_the_validated_transform(capsys, tmp_path):
    # the CLI reports the theta certificate as the transform's verdict; the
    # nine equations of the transform are its oracle
    modes = set()
    for datum, xi in seeded_extension_data():
        code, out, err = run_extend_xi(capsys, tmp_path, datum, xi)
        assert code == 0, err
        report = json.loads(out)
        verdicts = {v["name"]: v for v in report["verdicts"]}
        moved = gauge_transform(datum, xi)
        expected = cli._verdict_entry(
            "gauge-transformed-datum", validate_extension_datum(moved)
        )
        assert verdicts["gauge-transformed-datum"] == expected
        # the input round-trips: the report's tables are this transform's
        entries = sorted(moved.omega1.coeffs.items())
        rows = cli._entry_rows(((i, j, k), c) for ((i, j), k), c in entries)
        assert report["tables"]["gauge-omega1"] == rows
        assert verdicts["isomorphic-under-xi"]["ok"]
        modes.add((fibre_is_abelian(datum), xi.is_zero()))
    assert len(modes) == 4


def fibre_term(datum: ExtensionDatum, xi: Matrix, h_bracket) -> Cochain:
    """[xi e_i, xi e_j]_h at each base pair i < j."""
    n, cols = datum.base_dim, xi.columns()
    return Cochain(
        2,
        n,
        datum.fibre_dim,
        {
            ((i, j), k): c
            for i, j in combinations(range(n), 2)
            for k, c in enumerate(h_bracket.bracket(cols[i], cols[j]))
            if c
        },
    )


def action_term(datum: ExtensionDatum, xi: Matrix, acts) -> Cochain:
    """2 rho(e_j) xi(e_i) at each base pair i < j: flips the sign of the
    transform's -rho(y) xi(x) term when added."""
    n, cols = datum.base_dim, xi.columns()
    return Cochain(
        2,
        n,
        datum.fibre_dim,
        {
            ((i, j), k): 2 * c
            for i, j in combinations(range(n), 2)
            for k, c in enumerate(acts[j].matvec(cols[i]))
            if c
        },
    )


def without_fibre_term(datum, xi):
    moved = extension.gauge_transform(datum, xi)
    return ExtensionDatum(
        moved.base,
        moved.fibre,
        moved.rho,
        moved.mu,
        moved.omega1 - fibre_term(datum, xi, datum.fibre.bracket1),
        moved.omega2 - fibre_term(datum, xi, datum.fibre.bracket2),
    )


def with_flipped_action_term(datum, xi):
    moved = extension.gauge_transform(datum, xi)
    return ExtensionDatum(
        moved.base,
        moved.fibre,
        moved.rho,
        moved.mu,
        moved.omega1 + action_term(datum, xi, datum.rho),
        moved.omega2 + action_term(datum, xi, datum.mu),
    )


@pytest.mark.parametrize("mutant", [without_fibre_term, with_flipped_action_term])
def test_extend_xi_refuses_a_wrong_transform(capsys, tmp_path, monkeypatch, mutant):
    # a gauge transform that drops [xi x, xi y]_h or flips the sign of
    # rho(y) xi(x) is caught by theta: an internal error, never an ok report
    monkeypatch.setattr(cli, "gauge_transform", mutant)
    caught = 0
    for datum, xi in seeded_extension_data():
        if mutant(datum, xi) == gauge_transform(datum, xi):
            continue
        code, out, err = run_extend_xi(capsys, tmp_path, datum, xi)
        assert code == cli.INTERNAL_ERROR and out == "", err
        assert "theta fails" in err
        caught += 1
    assert caught >= 5
