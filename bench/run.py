"""The compatlie benchmark: whole CLI commands on seeded twin inputs.

    python3 bench/run.py --workload NAME --seed N --seconds T --trace 0|1
    python3 bench/run.py --record-reference

Run from the repository root.  With `--trace 0` the run measures the
end-to-end metrics: set-up time (fresh-process import of `compatlie.cli`,
median of several) and one workload process that runs whole rounds of twin
jobs until T seconds of job time have passed.  Times are in reference
seconds: wall seconds rescaled by a calibration task timed next to the
work, which divides out the host's drifting CPU speed (calibrator.py).
With `--trace 1` it runs a fixed number of rounds twice, untraced and then
traced (each in its own fresh process), and reports the per-layer metrics
and the tracing overhead.

A table of every metric with its unit goes to stdout first; the last line is
one JSON object with the keys `correct`, `attempted`, `failed`, `metrics`.
`--record-reference` re-records the digests of the reference seed in
`bench/reference.json`; see README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "_out"

sys.path.insert(0, str(HERE))

import calibrator  # noqa: E402
import generate  # noqa: E402
import spans  # noqa: E402

SETUP_SAMPLES = 9
SETUP_CAL_SAMPLES = 7
# Rounds of the traced run: one pass takes 10-40 s today.
TRACE_ROUNDS = {"adjoint-cohomology": 1, "poisson-table": 1, "verify-mix": 2}
REFERENCE_SEED = 0
# Rounds recorded for the reference seed: several times what a timed run
# reaches today, so a faster program is still compared job by job.
REFERENCE_ROUNDS = {"adjoint-cohomology": 6, "poisson-table": 6, "verify-mix": 15}
WORKER_TIMEOUT_S = 170

END_TO_END = (
    ("setup_s", "s"),
    ("jobs_per_s", "1/ref_s"),
    ("sparse_job_p50_s", "ref_s"),
    ("dense_job_p50_s", "ref_s"),
    ("peak_rss_mib", "MiB"),
)
TRACE_EXTRA = (
    ("trace.untraced_s", "s"),
    ("trace.traced_s", "s"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.hook_s", "s"),
    ("trace.spans", "count"),
    ("input.sparse_nnz_mean", "count"),
    ("input.dense_nnz_mean", "count"),
    ("input.sparse_max_bits", "bits"),
    ("input.dense_max_bits", "bits"),
    ("input.cells_mean", "count"),
)


def per_layer_metrics():
    """(name, unit) of every metric a traced run prints."""
    return spans.layer_metric_names() + list(TRACE_EXTRA)


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


def measure_setup(src: Path) -> list[tuple[float, float]]:
    """(seconds, calibration sample) of importing compatlie.cli in fresh
    interpreters; the calibration task runs right after the import, in the
    same interpreter.  The first import writes the bytecode caches and is
    not counted."""
    code = (
        "import sys, time; sys.path.insert(0, sys.argv[1]); "
        "t = time.perf_counter(); import compatlie.cli; "
        "d = time.perf_counter() - t; sys.path.insert(0, sys.argv[2]); "
        "import calibrator, statistics; "
        f"print(d, statistics.median(calibrator.sample() for _ in range({SETUP_CAL_SAMPLES})))"
    )
    samples = []
    for _ in range(SETUP_SAMPLES + 1):
        proc = subprocess.run(
            [sys.executable, "-c", code, str(src), str(HERE)],
            capture_output=True,
            text=True,
            timeout=60,
        )
        if proc.returncode != 0:
            raise BenchError(f"importing compatlie.cli failed: {proc.stderr.strip()}")
        seconds, cal = map(float, proc.stdout.split())
        samples.append((seconds, cal))
    return samples[1:]


def run_worker(workload, seed, *, seconds=0.0, rounds=0, trace=False) -> dict:
    """One workload run in a fresh process; returns its result file."""
    OUT.mkdir(exist_ok=True)
    out = OUT / f"{workload}-seed{seed}-{'traced' if trace else 'plain'}.json"
    out.unlink(missing_ok=True)
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--out", str(out)]
    cmd += ["--rounds", str(rounds)] if rounds else ["--seconds", str(seconds)]
    if trace:
        cmd.append("--trace")
    proc = subprocess.run(cmd, stdout=subprocess.DEVNULL, timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0 or not out.is_file():
        raise BenchError(f"workload process exited with code {proc.returncode}")
    return json.loads(out.read_text(encoding="utf-8"))


def tail_percentile(values):
    """The highest of a few standard percentiles with at least ten samples
    beyond it, as (percentile, value), or None when there are too few."""
    ordered = sorted(values)
    n = len(ordered)
    for p in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        if n * (1 - p / 100) >= 10:
            return p, ordered[max(0, math.ceil(p / 100 * n) - 1)]
    return None


def _timing_note(values, wall) -> str:
    tail = tail_percentile(values)
    where = f"p{tail[0]:g} {tail[1]:.4f} ref_s" if tail else "no percentile has 10 jobs beyond it"
    return f"{len(values)} jobs; {where}; wall p50 {statistics.median(wall):.4f} s"


def failures(jobs) -> list[str]:
    return [f"{j['name']}: {'; '.join(j['problems'])}" for j in jobs if j["problems"]]


def end_to_end(workload, seed, seconds):
    src = ROOT / "src"
    setup = measure_setup(src)
    res = run_worker(workload, seed, seconds=seconds)
    jobs = res["jobs"]
    ref_timed = sum(j["ref_seconds"] for j in jobs)

    def times(twin, key):
        return [j[key] for j in jobs if j["twin"] == twin]

    sparse, dense = times("sparse", "ref_seconds"), times("dense", "ref_seconds")
    values = {
        "setup_s": statistics.median(d * calibrator.REF_S / cal for d, cal in setup),
        "jobs_per_s": len(jobs) / ref_timed,
        "sparse_job_p50_s": statistics.median(sparse),
        "dense_job_p50_s": statistics.median(dense),
        "peak_rss_mib": res["peak_rss_mib"],
    }
    cal = statistics.median(j["cal_s"] for j in jobs)
    notes = {
        "setup_s": (
            f"median of {len(setup)} fresh imports, in reference seconds; "
            f"wall median {statistics.median(d for d, _ in setup):.4f} s"
        ),
        "jobs_per_s": (
            f"{len(jobs)} jobs in {res['rounds']} rounds, {ref_timed:.2f} ref_s = "
            f"{res['timed_s']:.2f} s wall; calibration p50 {cal * 1e3:.2f} ms"
        ),
        "sparse_job_p50_s": _timing_note(sparse, times("sparse", "seconds")),
        "dense_job_p50_s": _timing_note(dense, times("dense", "seconds")),
        "peak_rss_mib": "ru_maxrss of the workload process",
    }
    return values, dict(END_TO_END), notes, jobs


def traced(workload, seed):
    rounds = TRACE_ROUNDS[workload]
    plain = run_worker(workload, seed, rounds=rounds)
    res = run_worker(workload, seed, rounds=rounds, trace=True)
    jobs = res["jobs"]
    values = dict(res["layers"])
    values["trace.untraced_s"] = plain["timed_s"]
    values["trace.traced_s"] = res["timed_s"]
    values["trace.overhead_ratio"] = res["timed_s"] / plain["timed_s"]
    for twin in ("sparse", "dense"):
        props = [j["props"] for j in jobs if j["twin"] == twin]
        values[f"input.{twin}_nnz_mean"] = statistics.mean(p["nnz"] for p in props)
        values[f"input.{twin}_max_bits"] = max(p["max_bits"] for p in props)
    values["input.cells_mean"] = statistics.mean(j["props"]["cells"] for j in jobs)
    notes = {}
    for name, _ in per_layer_metrics():
        target = name.rsplit(".", 1)[0]
        if target in res["absent"]:
            notes[name] = "absent from compatlie"
        elif target in res["hook_failures"]:
            notes[name] = "counting hook failed; counters read 0"
    return values, dict(per_layer_metrics()), notes, plain["jobs"] + jobs


def record_reference():
    """Re-record the digests of every job of the reference seed."""
    digests = {}
    for workload in generate.WORKLOADS:
        res = run_worker(workload, REFERENCE_SEED, rounds=REFERENCE_ROUNDS[workload])
        other = [
            f for j in res["jobs"] for f in j["problems"]
            if f != "report differs from the reference digest"
        ]
        if other:
            raise BenchError(f"{workload}: jobs fail the gate, not recording: {other[:3]}")
        digests[workload] = {j["name"]: j["digest"] for j in res["jobs"]}
        print(f"{workload}: {len(res['jobs'])} digests", flush=True)
    data = {"seed": REFERENCE_SEED, "digests": digests}
    (HERE / "reference.json").write_text(
        json.dumps(data, indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="the compatlie benchmark")
    ap.add_argument("--workload", choices=generate.WORKLOADS)
    ap.add_argument("--seed", type=int, default=REFERENCE_SEED)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-reference", action="store_true")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "compatlie" / "cli.py").is_file():
        print(f"error: no compatlie sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        if args.record_reference:
            record_reference()
            return 0
        if args.workload is None:
            ap.error("--workload is required")
        if args.trace:
            values, units, notes, jobs = traced(args.workload, args.seed)
        else:
            values, units, notes, jobs = end_to_end(args.workload, args.seed, args.seconds)
    except (BenchError, subprocess.TimeoutExpired) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1

    failed = failures(jobs)
    mode = "traced" if args.trace else "end-to-end"
    print(f"compatlie benchmark: {args.workload}, seed {args.seed}, {mode}")
    for name, unit in units.items():
        note = notes.get(name, "")
        print(f"  {name:<48} {values[name]:>14.6g} {unit:<6} {note}")
    print(f"  {'failed_ratio':<48} {len(failed) / len(jobs):>14.6g} {'-':<6} "
          f"{len(failed)} of {len(jobs)} jobs")
    for line in failed:
        print(f"  FAILED {line}")
    result = {
        "correct": not failed,
        "attempted": len(jobs),
        "failed": len(failed),
        "metrics": {n: {"value": values[n], "unit": u} for n, u in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
