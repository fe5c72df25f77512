"""Command-line front end.

    compatlie check ALGEBRA.alg [--seed N]
    compatlie cohomology ALGEBRA.alg --max-degree N [--reduced]
    compatlie deform ALGEBRA.alg --omega NAME [--nijenhuis NAME]
    compatlie extend ALGEBRA.alg --mode abelian|nonabelian [--xi NAME]
    compatlie poisson ALGEBRA.alg --poly-degree D --max-degree N

Common flags: --format text|json|csv (default text), --witness (print
failure values in text output), --seed N (extra randomized pencil probes
for `check`).

Exit codes: 0 all verdicts ok, 1 a verdict failed (the witness is in the
report), 2 usage or parse errors, 3 an internal consistency check failed
(`InternalCheckError`: a bug or an unchecked invariant, never bad usage).

The json and csv formats are byte-identical across runs on identical
input: every ordering is fixed and no timing information is included
(text output carries a timing line for humans).  JSON is written by
`_write_json` as `json.dumps(sort_keys=True, indent=2)` would write it,
with a dict's str and int values written in place.  Every csv row has
four fields; fields holding a comma or a quote are quoted (`csv.writer`).
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import sys
import time
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from random import Random

from . import cohomology as coh
from .core import (
    CompatiblePair,
    InternalCheckError,
    LieBracket,
    Verdict,
    pencil,
    validate_bracket,
    validate_pair,
    validate_rep,
)
from .deformation import (
    DeformationDatum,
    _nr_coboundary,
    cohomology_obstruction,
    deformations_equivalent,
    is_infinitesimal_deformation,
    is_nijenhuis,
)
from .document import AlgebraDocument, ParseError, parse
from .extension import (
    ExtensionDatum,
    _theta_intertwines,
    gauge_transform,
    maurer_cartan_verdict,
    validate_extension_datum,
)
from .poisson import lie_poisson_rep, reduced_bihamiltonian_dims

USAGE_ERROR = 2
INTERNAL_ERROR = 3


class CommandError(Exception):
    """Usage-level failure (missing blocks, bad degrees): exit code 2."""


def _fr(x) -> str:
    return str(Fraction(x))


def _vec(v) -> list[str]:
    return [_fr(x) for x in v]


def _verdict_entry(name: str, v: Verdict) -> dict:
    entry = {"name": name, "ok": v.ok}
    if v.witness is not None:
        entry["witness"] = {
            "law": v.witness.law,
            "at": list(v.witness.at),
            "value": _vec(v.witness.value),
        }
    return entry


def _entry_rows(entries) -> list[dict]:
    """Table rows of 0-based ((i, j, k), Fraction coefficient) entries,
    1-based."""
    return [
        {"label": "entry", "i": i + 1, "j": j + 1, "k": k + 1, "coeff": str(c)}
        for (i, j, k), c in entries
    ]


def _write_json(value, newline: str, out: list[str]):
    """Append the report schema (dicts with str keys, lists, str, int, bool)
    as `json.dumps(value, sort_keys=True, indent=2)` writes it; `newline` is
    the line break and indent before a closing bracket at this depth."""
    if type(value) is str:
        out.append(encode_basestring_ascii(value))
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif type(value) is int:
        out.append(str(value))
    elif type(value) is dict:
        if not value:
            out.append("{}")
            return
        inner = newline + "  "
        sep, comma = "{" + inner, "," + inner  # one string per container
        for key in sorted(value):
            if type(key) is not str:
                raise TypeError(f"report keys are str, not {type(key).__name__}")
            out.append(sep)
            out.append(encode_basestring_ascii(key))
            out.append(": ")
            item = value[key]
            if type(item) is str:
                out.append(encode_basestring_ascii(item))
            elif type(item) is int:
                out.append(str(item))
            else:
                _write_json(item, inner, out)
            sep = comma
        out.append(newline + "}")
    elif type(value) is list:
        if not value:
            out.append("[]")
            return
        inner = newline + "  "
        sep, comma = "[" + inner, "," + inner
        for item in value:
            out.append(sep)
            _write_json(item, inner, out)
            sep = comma
        out.append(newline + "]")
    else:
        raise TypeError(f"{type(value).__name__} is outside the report schema")


class Report:
    def __init__(self, command: str, source: str, options: dict):
        self.data = {
            "command": command,
            "input": source,
            "options": options,
            "verdicts": [],
            "tables": {},
            "representatives": {},
        }

    def verdict(self, name: str, v: Verdict):
        self.data["verdicts"].append(_verdict_entry(name, v))

    def table(self, name: str, rows: list[dict]):
        self.data["tables"][name] = rows

    def representatives(self, name: str, vectors):
        self.data["representatives"][name] = [_vec(v) for v in vectors]

    def all_ok(self) -> bool:
        return all(v["ok"] for v in self.data["verdicts"])

    # -- rendering ------------------------------------------------------------

    def to_json(self) -> str:
        out: list[str] = []
        _write_json(self.data, "\n", out)
        out.append("\n")
        return "".join(out)

    def to_csv(self) -> str:
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(["section", "name", "field", "value"])
        for v in self.data["verdicts"]:
            writer.writerow(["verdict", v["name"], "ok", str(v["ok"]).lower()])
            if "witness" in v:
                w = v["witness"]
                at = " ".join(str(i) for i in w["at"])
                val = " ".join(w["value"])
                writer.writerow(
                    ["verdict", v["name"], "witness", f"{w['law']} @ {at}: {val}"]
                )
        for name, rows in sorted(self.data["tables"].items()):
            for row in rows:
                for key in sorted(row):
                    writer.writerow([f"table:{name}", row.get("label", ""), key, row[key]])
        return out.getvalue()

    def to_text(self, witness: bool, elapsed: float) -> str:
        lines = [f"command: {self.data['command']}  input: {self.data['input']}"]
        opts = self.data["options"]
        if opts:
            lines.append(
                "options: " + " ".join(f"{k}={opts[k]}" for k in sorted(opts))
            )
        for v in self.data["verdicts"]:
            mark = "ok" if v["ok"] else "FAIL"
            lines.append(f"  [{mark:>4}] {v['name']}")
            if not v["ok"] and "witness" in v:
                w = v["witness"]
                at = ", ".join(str(i) for i in w["at"])
                lines.append(f"         {w['law']} at basis tuple ({at})")
                if witness:
                    lines.append(f"         lhs - rhs = ({', '.join(w['value'])})")
        for name, rows in sorted(self.data["tables"].items()):
            lines.append(f"table {name}:")
            if rows:
                keys = [k for k in rows[0] if k != "label"]
                header = "  " + "  ".join(f"{k:>12}" for k in keys)
                lines.append(header)
                for row in rows:
                    lines.append(
                        "  " + "  ".join(f"{str(row[k]):>12}" for k in keys)
                    )
        if witness:
            for name, vecs in sorted(self.data["representatives"].items()):
                lines.append(f"representatives {name}:")
                for v in vecs:
                    lines.append("  (" + ", ".join(v) + ")")
        lines.append(f"elapsed: {elapsed:.3f}s")
        return "\n".join(lines) + "\n"


# -- commands ----------------------------------------------------------------------


def _cmd_check(doc: AlgebraDocument, args, report: Report):
    b1, b2 = doc.bracket1(), doc.bracket2()
    report.verdict("bracket1-jacobi", validate_bracket(b1))
    report.verdict("bracket2-jacobi", validate_bracket(b2))
    v_pair = validate_pair(b1, b2)
    report.verdict("pair-compatible", v_pair)
    rep = doc.rep_pair()
    if rep is not None and v_pair.ok:
        report.verdict(
            "representation", validate_rep(CompatiblePair.unchecked(b1, b2), rep)
        )
    if args.seed is not None and v_pair.ok:
        rng = Random(args.seed)
        pair = CompatiblePair.unchecked(b1, b2)
        for probe in range(2):
            k1 = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
            k2 = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
            report.verdict(
                f"pencil-probe-{probe + 1} (k1={k1}, k2={k2})",
                validate_bracket(pencil(pair, k1, k2)),
            )


def _require_pair(doc: AlgebraDocument) -> CompatiblePair:
    b1, b2 = doc.bracket1(), doc.bracket2()
    v = validate_pair(b1, b2)
    if not v.ok:
        raise VerdictFailure("pair-compatible", v)
    return CompatiblePair.unchecked(b1, b2)


class VerdictFailure(Exception):
    def __init__(self, name: str, verdict: Verdict):
        self.name = name
        self.verdict = verdict


def _cmd_cohomology(doc: AlgebraDocument, args, report: Report):
    pair = _require_pair(doc)
    if args.max_degree < 0 or args.max_degree > doc.dim:
        raise CommandError(
            f"--max-degree must lie in 0..dim (= {doc.dim}); degrees beyond "
            "the dimension have zero cochain spaces"
        )
    rep = doc.rep_pair()
    if rep is not None:
        v = validate_rep(pair, rep)
        if not v.ok:
            raise VerdictFailure("representation", v)
    rows = []
    for n, (space, h_dim, reps) in enumerate(
        coh.cohomology_dims(pair, rep, args.max_degree)
    ):
        rows.append({"degree": n, "space_dim": space, "h_dim": h_dim})
        report.representatives(f"H{n}", reps.vectors)
    report.table("cohomology", rows)
    if args.reduced:
        dims = coh.reduced_cohomology_dims(pair, rep, args.max_degree)
        rrows = [{"degree": n, "space_dim": s, "h_dim": h} for n, (s, h) in enumerate(dims)]
        report.table("reduced", rrows)


def _deformation_datum(doc: AlgebraDocument, name: str) -> DeformationDatum:
    blocks = (name + "1", name + "2")
    for b in blocks:
        if not doc.has_cochain(b):
            raise CommandError(
                f"deformation {name!r} needs cochain blocks "
                f"[cochain {blocks[0]}] and [cochain {blocks[1]}]"
            )
    w1, w2 = doc.cochain(blocks[0]), doc.cochain(blocks[1])
    for w in (w1, w2):
        if w.source_dim != doc.dim or w.target_dim != doc.dim:
            raise CommandError(
                f"deformation cochains must map wedge^2 g to g (dim {doc.dim})"
            )
    return DeformationDatum(w1, w2)


def _cmd_deform(doc: AlgebraDocument, args, report: Report):
    pair = _require_pair(doc)
    datum = _deformation_datum(doc, args.omega)
    v = is_infinitesimal_deformation(pair, datum)
    report.verdict("infinitesimal-deformation", v)
    if v.ok:
        trivial, cert = cohomology_obstruction(
            pair, datum, DeformationDatum.zero(doc.dim)
        )
        report.table(
            "deformation-class",
            [{"label": "class", "is_coboundary": str(trivial).lower()}],
        )
        if cert is not None:
            report.representatives(
                "equivalence-operator", [cert.row(i) for i in range(cert.rows)]
            )
    if args.nijenhuis is not None:
        try:
            n_op = doc.op_matrix(args.nijenhuis)
        except KeyError as e:
            raise CommandError(str(e)) from None
        if n_op.shape() != (doc.dim, doc.dim):
            raise CommandError("Nijenhuis candidate must be a square matrix on g")
        # [pi_i, N]_NR: the torsion's deformed brackets and the t layers of
        # the equivalence, computed once
        delta = _nr_coboundary(pair, n_op)
        vn = is_nijenhuis(pair, n_op, delta)
        report.verdict("nijenhuis-operator", vn)
        if vn.ok and v.ok:
            report.verdict(
                "trivial-via-operator",
                deformations_equivalent(
                    pair, datum, DeformationDatum.zero(doc.dim), n_op, delta
                ),
            )


def _extension_datum(doc: AlgebraDocument, args) -> ExtensionDatum:
    if doc.rep is None:
        raise CommandError("extend needs a [rep] block for the actions on h")
    rep = doc.rep_pair()
    m = rep.module_dim
    for name in ("omega1", "omega2"):
        if not doc.has_cochain(name):
            raise CommandError(f"extend needs a [cochain {name}] block (target {m})")
    w1, w2 = doc.cochain("omega1"), doc.cochain("omega2")
    for w in (w1, w2):
        if w.source_dim != doc.dim or w.target_dim != m:
            raise CommandError(
                f"extension cochains must map wedge^2 g (dim {doc.dim}) "
                f"to h (target {m})"
            )
    base = _require_pair(doc)
    if args.mode == "abelian":
        fibre = CompatiblePair(LieBracket.zero(m), LieBracket.zero(m))
    else:
        for name in ("theta1", "theta2"):
            if not doc.has_cochain(name):
                raise CommandError(
                    f"nonabelian mode needs a [cochain {name}] block "
                    f"(dim {m} target {m}) for the fibre brackets"
                )
        t1, t2 = doc.cochain("theta1"), doc.cochain("theta2")
        for t in (t1, t2):
            if t.source_dim != m or t.target_dim != m:
                raise CommandError(
                    f"fibre bracket cochains must map wedge^2 h to h (dim {m})"
                )
        fb1 = LieBracket.from_cochain(t1)
        fb2 = LieBracket.from_cochain(t2)
        v = validate_pair(fb1, fb2)
        if not v.ok:
            raise VerdictFailure("fibre-pair-compatible", v)
        fibre = CompatiblePair.unchecked(fb1, fb2)
    return ExtensionDatum(base, fibre, rep.rho, rep.mu, w1, w2)


def _cmd_extend(doc: AlgebraDocument, args, report: Report):
    datum = _extension_datum(doc, args)
    v = validate_extension_datum(datum)
    report.verdict("extension-datum", v)
    report.verdict("maurer-cartan", maurer_cartan_verdict(datum))
    if v.ok:
        for which, b in enumerate(datum.brackets, start=1):
            report.table(f"extension-bracket{which}", _entry_rows(b.entries()))
    if args.xi is not None:
        try:
            xi = doc.op_matrix(args.xi)
        except KeyError as e:
            raise CommandError(str(e)) from None
        if xi.shape() != (datum.fibre_dim, doc.dim):
            raise CommandError(
                f"xi must be a {datum.fibre_dim} x {doc.dim} matrix (g -> h)"
            )
        if not v.ok:
            raise CommandError("cannot gauge-transform an invalid datum")
        # moved is the transform by construction, so iso-1..4 of
        # `extensions_isomorphic_under` hold; only theta is left to check.
        # theta is an isomorphism of the assembled pairs, so it is also the
        # verdict on moved: datum's nine equations hold, hence moved's
        # (`validate_extension_datum(moved)` is the test oracle)
        moved = gauge_transform(datum, xi)
        iso = _theta_intertwines(datum, moved, xi)
        report.verdict("gauge-transformed-datum", iso)
        report.verdict("isomorphic-under-xi", iso)
        for which, w in enumerate((moved.omega1, moved.omega2), start=1):
            entries = (((i, j, k), c) for ((i, j), k), c in sorted(w.coeffs.items()))
            report.table(f"gauge-omega{which}", _entry_rows(entries))


def _cmd_poisson(doc: AlgebraDocument, args, report: Report):
    pair = _require_pair(doc)
    if args.max_degree < 0 or args.max_degree > doc.dim:
        raise CommandError(f"--max-degree must lie in 0..dim (= {doc.dim})")
    if args.poly_degree < 0:
        raise CommandError("--poly-degree must be >= 0")
    poly = lie_poisson_rep(pair, args.poly_degree)
    report.verdict("poisson-representation", validate_rep(pair, poly.rep))
    table = reduced_bihamiltonian_dims(pair, poly, args.max_degree)
    rows = []
    for d in range(args.poly_degree + 1):
        row = {"poly_degree": d}
        for n in range(args.max_degree + 1):
            row[f"H~{n}"] = table[(d, n)]
        rows.append(row)
    report.table("reduced-bihamiltonian", rows)


COMMANDS = {
    "check": _cmd_check,
    "cohomology": _cmd_cohomology,
    "deform": _cmd_deform,
    "extend": _cmd_extend,
    "poisson": _cmd_poisson,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="compatlie",
        description="exact verification and cohomology of compatible Lie algebras",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("path", help="algebra definition file")
        p.add_argument(
            "--format", choices=("text", "json", "csv"), default="text"
        )
        p.add_argument(
            "--witness",
            action="store_true",
            help="print witness values and representatives in text output",
        )
        p.add_argument("--seed", type=int, default=None)

    p = sub.add_parser("check", help="validate brackets, pair, representation")
    common(p)

    p = sub.add_parser("cohomology", help="cohomology dimension table")
    common(p)
    p.add_argument("--max-degree", type=int, required=True)
    p.add_argument("--reduced", action="store_true")

    p = sub.add_parser("deform", help="verify an infinitesimal deformation")
    common(p)
    p.add_argument("--omega", required=True, metavar="NAME")
    p.add_argument("--nijenhuis", metavar="NAME")

    p = sub.add_parser("extend", help="verify and transform extension data")
    common(p)
    p.add_argument("--mode", choices=("abelian", "nonabelian"), required=True)
    p.add_argument("--xi", metavar="NAME")

    p = sub.add_parser("poisson", help="bi-Hamiltonian reduced dimension table")
    common(p)
    p.add_argument("--poly-degree", type=int, required=True)
    p.add_argument("--max-degree", type=int, required=True)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # built on the first call and reused: `parse_args` keeps no state
    # between calls, and in-process callers (tests, the benchmark) no
    # longer pay for a parser per command
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as e:
        return USAGE_ERROR if e.code not in (0, None) else 0
    started = time.monotonic()
    try:
        with open(args.path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return USAGE_ERROR
    try:
        doc = parse(text)
    except ParseError as e:
        print(f"error: {e}", file=sys.stderr)
        return USAGE_ERROR

    options = {
        k: v
        for k, v in vars(args).items()
        if k not in ("command", "path", "format", "witness") and v is not None
    }
    report = Report(args.command, args.path, options)
    try:
        COMMANDS[args.command](doc, args, report)
    except CommandError as e:
        print(f"error: {e}", file=sys.stderr)
        return USAGE_ERROR
    except VerdictFailure as e:
        report.verdict(e.name, e.verdict)
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return USAGE_ERROR
    except InternalCheckError as e:
        print(f"internal error: {e}", file=sys.stderr)
        return INTERNAL_ERROR

    elapsed = time.monotonic() - started
    if args.format == "json":
        sys.stdout.write(report.to_json())
    elif args.format == "csv":
        sys.stdout.write(report.to_csv())
    else:
        sys.stdout.write(report.to_text(args.witness, elapsed))
    return 0 if report.all_ok() else 1


if __name__ == "__main__":
    sys.exit(main())
