"""Alternating in-process A/B of two source trees on one workload's jobs.

    python3 tools/ab_jobs.py --a TREE --b TREE --workload NAME --seed N
                             [--rounds R] [--repeat K]

Copies `src/compatlie` of each tree into a temporary directory under the
package names `compatlie_a` and `compatlie_b`, imports both CLIs into this
process and runs rounds 0..R-1 of the workload, as `bench/generate.py`
draws them for the seed, through each CLI's `main(argv)`.  On every job
the tree that runs first alternates, and both runs must give the same exit
code and the same stdout.  Prints the summed job time per kind (the job's
family: the command kind on `verify-mix`) of each tree and the throughput
ratio, A time over B time, so a ratio above 1 means B is faster.  Then,
per twin (sparse and dense), each tree's p50: the median over the job runs
of that twin of the per-job time, as `bench/run.py` reads
`sparse_job_p50_s` and `dense_job_p50_s` (in seconds here, not reference
seconds), and the ratio B p50 over A p50, below 1 when B is faster.

Nothing under `bench/` is run or changed: only the input generator
`bench/generate.py` is imported, and the jobs' input files are written to
the temporary directory.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import os
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_cli(tree: Path, name: str, into: Path):
    """`cli` of the tree's `src/compatlie`, imported as package `name`."""
    shutil.copytree(tree / "src" / "compatlie", into / name)
    return importlib.import_module(f"{name}.cli")


def run_job(cli, argv) -> tuple[float, int, str]:
    out = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(list(argv))
    return time.perf_counter() - start, code, out.getvalue()


def compare(cli_a, cli_b, jobs, repeat: int):
    """({kind: [A seconds, B seconds, jobs]}, {twin: ([A job seconds],
    [B job seconds])}) over `repeat` passes; raises AssertionError on the
    first job whose exit code or stdout differ."""
    per_kind: dict[str, list[float]] = {}
    per_twin: dict[str, tuple[list[float], list[float]]] = {}
    turn = 0
    for _ in range(repeat):
        for job in jobs:
            path = f"{job.name}.alg"
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(job.text)
            argv = [path if a == "{file}" else a for a in job.argv]
            order = ((0, cli_a), (1, cli_b)) if turn % 2 == 0 else ((1, cli_b), (0, cli_a))
            turn += 1
            results = [None, None]
            for side, cli in order:
                results[side] = run_job(cli, argv)
            (ta, code_a, out_a), (tb, code_b, out_b) = results
            assert code_a == code_b, f"{job.name}: exit {code_a} != {code_b}"
            assert out_a == out_b, f"{job.name}: stdout differs"
            acc = per_kind.setdefault(job.family, [0.0, 0.0, 0])
            acc[0] += ta
            acc[1] += tb
            acc[2] += 1
            times = per_twin.setdefault(job.twin, ([], []))
            times[0].append(ta)
            times[1].append(tb)
    return per_kind, per_twin


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--a", type=Path, required=True, help="tree A (the baseline)")
    ap.add_argument("--b", type=Path, required=True, help="tree B (the change)")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--rounds", type=int, default=4)
    ap.add_argument("--repeat", type=int, default=1)
    args = ap.parse_args(argv)
    sys.path.insert(0, str(ROOT / "bench"))
    import generate

    jobs = [
        job
        for r in range(args.rounds)
        for job in generate.round_jobs(args.workload, args.seed, r)
    ]
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        tmp_path = Path(tmp)
        sys.path.insert(0, str(tmp_path))
        cli_a = load_cli(args.a.resolve(), "compatlie_a", tmp_path)
        cli_b = load_cli(args.b.resolve(), "compatlie_b", tmp_path)
        os.chdir(tmp_path)
        try:
            per_kind, per_twin = compare(cli_a, cli_b, jobs, args.repeat)
        finally:
            os.chdir(cwd)
    print(f"{args.workload} seed {args.seed}, {len(jobs)} jobs x {args.repeat}")
    print(f"{'kind':<20} {'jobs':>5} {'A s':>9} {'B s':>9} {'A/B':>7}")
    total_a = total_b = 0.0
    for kind, (ta, tb, count) in sorted(per_kind.items()):
        total_a += ta
        total_b += tb
        print(f"{kind:<20} {count:>5} {ta:>9.4f} {tb:>9.4f} {ta / tb:>7.3f}")
    print(f"{'all':<20} {'':>5} {total_a:>9.4f} {total_b:>9.4f} {total_a / total_b:>7.3f}")
    print(f"throughput ratio B/A: {total_a / total_b:.3f}")
    for twin, (ta, tb) in sorted(per_twin.items()):
        pa, pb = statistics.median(ta), statistics.median(tb)
        print(
            f"{twin} p50 ({len(ta)} runs): A {pa * 1e3:.4f} ms, "
            f"B {pb * 1e3:.4f} ms, B/A {pb / pa:.3f}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
