"""One workload run, in a fresh process of its own.

    python3 bench/worker.py --workload NAME --seed N (--seconds T | --rounds R)
                            [--trace] --out RESULT.json

Closed loop, one caller, no threads: the jobs of each round run back to back
through the public entry point `compatlie.cli.main(argv)` with stdout
captured.  Inputs are generated round by round from the seed (generation,
file writing and checking are outside the timed region); every job reads its
own input file.  With `--seconds` the run keeps starting whole rounds until
the timed job time reaches T, so every run has the same mix of jobs; with
`--rounds` it runs exactly R rounds, which is what the traced run uses so
that its counts repeat exactly.

Speed reference.  The host's CPU speed changes by up to 2x within a
minute.  In a `--seconds` run a timer signal times a fixed calibration task
every calibrator.INTERVAL_S of CPU time (calibrator.py).  A job's time
leaves the samples out and is also given in *reference seconds*, seconds *
calibrator.REF_S / (median calibration sample during the job), and
`--seconds` counts reference seconds.

The result file holds one record per job (wall time, reference time, the
calibration median, exit code, digest, problems found by the correctness
gate, input properties), the timed totals, the peak RSS of this process
and, with `--trace`, the per-layer metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "_out"

sys.path.insert(0, str(HERE))

import calibrator  # noqa: E402
import checks  # noqa: E402
import generate  # noqa: E402
import spans  # noqa: E402


def rescale(records, calibration):
    """Give `cal_s` and `ref_seconds` to the records that lack them."""
    todo = [r for r in records if "ref_seconds" not in r]
    cals = calibrator.speeds([(r["start"], r["end"]) for r in todo], calibration.samples)
    for record, cal in zip(todo, cals):
        record["cal_s"] = cal
        record["ref_seconds"] = record["seconds"] * calibrator.REF_S / cal


def run_job(cli, job, tracer, calibration):
    """Write the input, run the command, return (start, end, seconds, exit
    code, stdout, stderr); the seconds leave out the calibration samples
    taken during the job.  A job that raises is recorded with exit code
    None."""
    path = f"{job.name}.alg"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(job.text)
    argv = [path if a == "{file}" else a for a in job.argv]
    out, err = io.StringIO(), io.StringIO()
    if tracer is not None:
        tracer.job = job.name
    spent = calibration.spent if calibration else 0.0
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except Exception:  # a crashing job is a failed job; the run goes on
        code = None
        err.write(traceback.format_exc())
    end = time.perf_counter()
    if calibration:
        spent = calibration.spent - spent
    return start, end, end - start - spent, code, out.getvalue(), err.getvalue()


def twin_pairs(jobs):
    """The jobs of a round grouped by twin pair, in order."""
    pairs = {}
    for job in jobs:
        pairs.setdefault(job.pair_id, []).append(job)
    return list(pairs.values())


def run(cli, workload, seed, seconds, rounds, tracer, calibration=None):
    """Run exactly `rounds` rounds, or whole rounds until `seconds` of job
    time have passed, in reference seconds when a calibration runs and in
    wall seconds otherwise.  Returns (records, timed wall seconds, rounds
    run)."""
    refs = checks.load_reference(workload, seed)
    records = []
    timed = ref_timed = 0.0
    r = 0
    while (r < rounds) if rounds else (ref_timed < seconds):
        for pair in twin_pairs(generate.round_jobs(workload, seed, r)):
            outcomes = {}
            for job in pair:
                start, end, elapsed, code, out, err = run_job(cli, job, tracer, calibration)
                timed += elapsed
                problems, report = checks.check_job(job, code, out)
                if code not in (0, 1):
                    problems.append("stderr: " + err.strip()[-300:])
                digest = checks.digest(code, out)
                if refs is not None and job.name in refs and refs[job.name] != digest:
                    problems.append("report differs from the reference digest")
                record = {
                    "name": job.name,
                    "twin": job.twin,
                    "family": job.family,
                    "start": start,
                    "end": end,
                    "seconds": elapsed,
                    "exit": code,
                    "digest": digest,
                    "problems": problems,
                    "props": job.props,
                }
                records.append(record)
                outcomes[job.twin] = (code, report)
            twin = checks.twin_problems(outcomes["sparse"], outcomes["dense"])
            for record in records[-len(pair):]:
                record["problems"].extend(twin)
        if calibration is not None:
            rescale(records, calibration)
            ref_timed = sum(rec["ref_seconds"] for rec in records)
        else:
            ref_timed = timed
        r += 1
    return records, timed, r


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=generate.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--rounds", type=int, default=0)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    if (args.seconds > 0) == (args.rounds > 0):
        ap.error("give exactly one of --seconds and --rounds")

    sys.path.insert(0, str(ROOT / "src"))
    try:
        from compatlie import cli
    except ImportError as e:
        print(f"error: cannot import compatlie from {ROOT / 'src'}: {e}", file=sys.stderr)
        return 3

    tracer = None
    if args.trace:
        tracer = spans.Tracer()
        tracer.install()
    OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=OUT)
    os.chdir(workdir)
    try:
        if args.seconds:
            with calibrator.Calibration() as calibration:
                records, timed, rounds = run(
                    cli, args.workload, args.seed, args.seconds, 0, tracer, calibration
                )
        else:
            records, timed, rounds = run(cli, args.workload, args.seed, 0.0, args.rounds, tracer)
    finally:
        os.chdir(ROOT)
        shutil.rmtree(workdir, ignore_errors=True)
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "rounds": rounds,
        "timed_s": timed,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "jobs": records,
    }
    if tracer is not None:
        tracer.uninstall()
        result["layers"] = tracer.metrics()
        result["absent"] = tracer.absent
        result["hook_failures"] = sorted(tracer.hook_failures)
        tracer.write(OUT / f"{args.workload}-seed{args.seed}.spans.jsonl")
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
