"""Correctness gate applied to every job of a run.

Per job: the exit code is the expected one, every verdict of a valid input
is ok, and the verdict an invalid input was built to break fails with a
witness.  A `cohomology` table computed up to the dimension is a complete
complex, so its Euler characteristics agree:
sum (-1)^n space_dim = sum (-1)^n h_dim.

Per twin pair: the sparse and dense inputs give the same exit code, the same
verdicts and the same dimension tables (tables of coefficients, which depend
on the basis, are left out).

For the reference seed, every job's exit code and byte-exact JSON report must
also match the digest recorded in `reference.json`.

A mismatch is returned as a list of problem strings; nothing here raises.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

REFERENCE = Path(__file__).resolve().parent / "reference.json"

# Tables whose entries are coefficients in the input's basis.
BASIS_DEPENDENT = {"extension-bracket1", "extension-bracket2", "gauge-omega1", "gauge-omega2"}


def digest(code, out: str) -> str:
    return hashlib.sha256(f"{code}\n{out}".encode()).hexdigest()[:20]


def load_reference(workload: str, seed: int) -> dict | None:
    """Recorded digests by job name, or None when the seed has none."""
    if not REFERENCE.is_file():
        return None
    data = json.loads(REFERENCE.read_text(encoding="utf-8"))
    if data.get("seed") != seed:
        return None
    return data["digests"].get(workload)


def euler_problem(report: dict) -> str | None:
    rows = report["tables"]["cohomology"]
    space = sum((-1) ** r["degree"] * r["space_dim"] for r in rows)
    h = sum((-1) ** r["degree"] * r["h_dim"] for r in rows)
    if space != h:
        return f"Euler characteristic of the spaces {space} != of the cohomology {h}"
    return None


def check_job(job, code, out: str) -> tuple[list[str], dict | None]:
    """Problems with one job's outcome, and its parsed report."""
    problems = []
    if code != job.expect_exit:
        problems.append(f"exit code {code}, expected {job.expect_exit}")
    try:
        report = json.loads(out)
        verdicts = {v["name"]: v for v in report.get("verdicts", [])}
    except (ValueError, AttributeError, KeyError, TypeError):
        return problems + ["no well-formed JSON report"], None
    if job.expect_failing is None:
        bad = sorted(n for n, v in verdicts.items() if not v["ok"])
        if bad:
            problems.append(f"verdicts failed on a valid input: {bad}")
    else:
        v = verdicts.get(job.expect_failing)
        if v is None or v["ok"] or "witness" not in v:
            problems.append(f"verdict {job.expect_failing!r} did not fail with a witness")
    if report.get("command") == "cohomology" and "cohomology" in report.get("tables", {}):
        top = int(job.argv[job.argv.index("--max-degree") + 1])
        if top == job.dim:
            p = euler_problem(report)
            if p:
                problems.append(p)
    return problems, report


def _summary(code, report):
    if report is None:
        return code, None, None
    verdicts = [(v["name"], v["ok"]) for v in report.get("verdicts", [])]
    tables = {
        name: rows
        for name, rows in report.get("tables", {}).items()
        if name not in BASIS_DEPENDENT
    }
    return code, verdicts, tables


def twin_problems(sparse, dense) -> list[str]:
    """sparse, dense: (exit code, parsed report or None)."""
    a, b = _summary(*sparse), _summary(*dense)
    problems = []
    for what, x, y in zip(("exit codes", "verdicts", "tables"), a, b):
        if x != y:
            problems.append(f"twin {what} differ: sparse {x} vs dense {y}")
    return problems
