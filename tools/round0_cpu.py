"""CPU time and calibration samples of a timed benchmark run's first round.

    python3 tools/round0_cpu.py --workload NAME --seed N [--root TREE]

Runs `bench/worker.py` of TREE (default: this repository) in this process,
as a timed (`--seconds`) run, and stops it at the first call of the
worker's `rescale`, which ends round 0.  Prints one JSON line: the process
CPU seconds from the start of the job loop to that point and the number of
calibration samples taken by then.  A timed run whose first round takes no
sample cannot rescale it, so `samples` 0 marks a run that would fail there.

Nothing under bench/ is changed: the worker's `run` and `rescale` are
wrapped on the imported module only.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import time
from pathlib import Path


class _RoundZeroDone(Exception):
    pass


def probe(root: Path, workload: str, seed: int) -> dict:
    sys.path.insert(0, str(root / "bench"))
    import worker

    found = {}
    run = worker.run

    def timed_run(*args, **kwargs):
        found["start"] = time.process_time()
        return run(*args, **kwargs)

    def first_rescale(records, calibration):
        found["end"] = time.process_time()
        found["samples"] = len(calibration.samples)
        found["jobs"] = len(records)
        raise _RoundZeroDone

    worker.run = timed_run
    worker.rescale = first_rescale
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        try:
            worker.main(
                [
                    "--workload", workload,
                    "--seed", str(seed),
                    "--seconds", "60",
                    "--out", str(Path(tmp) / "result.json"),
                ]
            )
        except _RoundZeroDone:
            pass
        finally:
            os.chdir(cwd)
    if "end" not in found:
        raise RuntimeError("the worker finished without rescaling a round")
    return {
        "workload": workload,
        "seed": seed,
        "round0_cpu_s": found["end"] - found["start"],
        "samples": found["samples"],
        "jobs": found["jobs"],
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--root", type=Path, default=Path(__file__).resolve().parent.parent)
    args = ap.parse_args(argv)
    print(json.dumps(probe(args.root.resolve(), args.workload, args.seed)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
