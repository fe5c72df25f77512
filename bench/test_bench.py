"""Tiny-size checks of the benchmark itself: generation, twins, tracing and
the correctness gate.  Runs with the repository's test suite."""

import json
from pathlib import Path

import calibrator
import checks
import generate
import pytest
import run
import spans
import worker
from compatlie import cli
from compatlie.cohomology import cohomology_dim
from compatlie.core import (
    CompatiblePair,
    LieBracket,
    validate_bracket,
    validate_pair,
    validate_rep,
)
from compatlie.deformation import DeformationDatum, is_infinitesimal_deformation
from compatlie.document import parse
from compatlie.extension import ExtensionDatum, validate_extension_datum

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", generate.WORKLOADS)
def test_generation_is_deterministic(workload):
    first = generate.round_jobs(workload, 11, 2)
    again = generate.round_jobs(workload, 11, 2)
    assert [(j.name, j.text, j.argv) for j in first] == [(j.name, j.text, j.argv) for j in again]
    assert [j.props for j in first] == [j.props for j in again]
    other = generate.round_jobs(workload, 12, 2)
    assert [j.text for j in first] != [j.text for j in other]
    names = [j.name for j in first]
    assert len(set(names)) == len(names)


def _datum(doc, mode):
    m = doc.rep.module_dim
    if mode == "abelian":
        fibre = CompatiblePair(LieBracket.zero(m), LieBracket.zero(m))
    else:
        fibre = CompatiblePair(
            LieBracket.from_cochain(doc.cochain("theta1")),
            LieBracket.from_cochain(doc.cochain("theta2")),
        )
    rep = doc.rep_pair()
    return ExtensionDatum(
        doc.pair(), fibre, rep.rho, rep.mu, doc.cochain("omega1"), doc.cochain("omega2")
    )


@pytest.mark.parametrize("seed", [0, 5])
def test_transported_twins_stay_valid(seed):
    jobs = generate.round_jobs("verify-mix", seed, 0) + generate.round_jobs(
        "poisson-table", seed, 0
    )
    dense = [j for j in jobs if j.twin == "dense"]
    assert {j.family for j in dense} >= {"check", "deform", "extend-abelian"}
    for job in dense:
        doc = parse(job.text)
        if job.expect_failing == "bracket1-jacobi":
            assert not validate_bracket(doc.bracket1()).ok
            continue
        pair = doc.pair()  # validates the transported pair
        if job.family == "check":
            assert validate_rep(pair, doc.rep_pair()).ok
        elif job.family.startswith("deform"):
            datum = DeformationDatum(doc.cochain("w1"), doc.cochain("w2"))
            ok = is_infinitesimal_deformation(pair, datum).ok
            assert ok == (job.expect_failing is None)
        elif job.family.startswith("extend"):
            mode = job.argv[job.argv.index("--mode") + 1]
            ok = validate_extension_datum(_datum(doc, mode)).ok
            assert ok == (job.expect_failing is None)
        else:
            assert validate_pair(pair.bracket1, pair.bracket2).ok


def test_self_time_is_duration_minus_children():
    tree = [
        ["root", 0.0, 10.0, -1, "j"],
        ["a", 1.0, 4.0, 0, "j"],
        ["b", 3.5, 6.0, 0, "j"],  # overlaps a: the union 1..6 is covered
        ["leaf", 2.0, 3.0, 1, "j"],
        ["late", 9.5, 12.0, 0, "j"],  # clipped to the parent's end
    ]
    assert spans.self_times(tree) == pytest.approx([10 - 5 - 0.5, 2.0, 2.5, 1.0, 2.5])


class _WrongCli:
    """Prints a report with no verdicts and no tables, exit code 0."""

    @staticmethod
    def main(argv):
        print(json.dumps({"command": argv[0], "verdicts": [], "tables": {}}))
        return 0


def test_injected_wrong_report_counts_as_failed(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    records, _, rounds = worker.run(_WrongCli, "verify-mix", 0, 0.0, 1, None)
    assert rounds == 1
    # every job differs from its reference digest; invalid inputs also
    # expected exit code 1 with a failing verdict
    assert len(run.failures(records)) == len(records)
    invalid = [r for r in records if "not" in r["family"] or "bad" in r["family"]]
    assert all(any("exit code 0" in p for p in r["problems"]) for r in invalid)


def test_wrong_dimension_fails_the_twin_and_euler_checks():
    job = generate.round_jobs("adjoint-cohomology", 3, 0)[0]
    report = {
        "command": "cohomology",
        "verdicts": [],
        "tables": {"cohomology": [
            {"degree": n, "space_dim": s, "h_dim": h}
            for n, (s, h) in enumerate(zip((1, 16, 48, 48, 16), (1, 1, 1, 1, 0)))
        ]},
    }
    problems, parsed = checks.check_job(job, 0, json.dumps(report))
    assert any("Euler" in p for p in problems)
    other = json.loads(json.dumps(report))
    other["tables"]["cohomology"][2]["h_dim"] = 2
    assert checks.twin_problems((0, parsed), (0, other))


def test_tracer_wraps_rebindings_and_reports_absent(monkeypatch):
    monkeypatch.setattr(spans, "TARGETS", spans.TARGETS + (("linalg", "no_such_function"),))
    tracer = spans.Tracer()
    tracer.install()
    try:
        h3 = LieBracket(3, {(0, 1, 2): 1})
        tracer.job = "j"
        cohomology_dim(CompatiblePair(h3, LieBracket.zero(3)), None, 1)
    finally:
        tracer.uninstall()
    from compatlie import cohomology, linalg

    assert cohomology.extend_basis is linalg.extend_basis
    assert not hasattr(linalg.Matrix.rref, "__wrapped__")
    assert tracer.absent == ["linalg.no_such_function"]
    m = tracer.metrics()
    assert m["linalg.Matrix.rref.calls"] > 0
    assert m["linalg.extend_basis.self_s"] > 0
    assert m["cohomology.coboundary_matrix.calls"] == 2
    assert m["cohomology.coboundary_matrix.distinct_ratio"] == 1.0
    assert 0 < m["linalg.extend_basis.kept_ratio"] <= 1


def test_traced_smoke_round_passes_the_gate(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    tracer = spans.Tracer()
    tracer.install()
    try:
        records, timed, _ = worker.run(cli, "verify-mix", 4, 0.0, 1, tracer)
    finally:
        tracer.uninstall()
    assert run.failures(records) == []
    assert timed > 0
    m = tracer.metrics()
    assert m["multilinear.nr_compose.calls"] > 0
    assert m["cli.main.self_s"] > 0


def test_speeds_take_the_samples_during_each_job():
    # samples end every 0.1 s; the 2nd half of the run is twice as slow
    samples = [(0.1 * i, 0.004 if i < 50 else 0.008) for i in range(1, 100)]
    long_fast, long_slow = (0.0, 3.0), (6.0, 9.0)
    short_fast, short_last = (2.02, 2.05), (9.95, 9.99)
    cals = calibrator.speeds([long_fast, long_slow, short_fast, short_last], samples)
    # no sample ends inside a short job: the MIN_SAMPLES nearest decide
    assert cals == [0.004, 0.008, 0.004, 0.008]
    assert calibrator.speeds([long_fast], []) == [None]


def test_calibrated_run_leaves_the_samples_out_of_job_time(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(calibrator, "INTERVAL_S", 0.01)
    with calibrator.Calibration() as calibration:
        records, timed, _ = worker.run(cli, "verify-mix", 4, 0.0, 1, None, calibration)
    assert run.failures(records) == []
    assert len(calibration.samples) > calibrator.MIN_SAMPLES
    assert 0 < calibration.spent
    for r in records:
        assert r["seconds"] <= r["end"] - r["start"]
        assert r["ref_seconds"] == pytest.approx(r["seconds"] * calibrator.REF_S / r["cal_s"])
    assert timed == pytest.approx(sum(r["seconds"] for r in records))


def test_benchmark_json_lists_the_printed_metrics():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == run.per_layer_metrics()
    assert [w["name"] for w in bench["workloads"]] == list(generate.WORKLOADS)
