"""The algebra-definition file format.

Line-oriented and diff-friendly: `#` starts a comment, blank lines are
ignored, section headers sit in brackets.  Bracket entries are 1-based.

    [algebra]
    dim 3

    [pi1]                # entries: i j k coeff, i < j, [e_i,e_j] += coeff e_k
    1 2 2 2
    1 3 3 -2
    2 3 1 1

    [pi2]                # empty or omitted section = zero bracket

    [rep]                # optional coefficient module
    dim 2
    rho 1                # matrix of the first action on e_1, by rows
    row: 0 1
    row: 0 0
    mu 1
    row: 0 0
    row: 0 0

    [op N]               # named matrix (operators, gauge maps, sections)
    row: 1 0
    row: 0 0

    [cochain w1]         # named arity-2 table; optional dim/target headers
    target 2
    1 2 1 1/2

Coefficients are rationals: optional sign, digits, optional /digits.
Omitted rho/mu matrices default to zero.  Parsing is strict: out-of-range
indices, duplicate entries, malformed or zero-denominator rationals are
reported with their line number.

Each distinct coefficient and index token is converted once per document:
entry and `row:` lines take the memo's values when every token was seen
before, and a new rational is built from its two integers.  The blocks of
a parsed document are checked for shape, range, order and duplicates, so
the converters (`bracket1`, `rep_pair`, `op_matrix`, `cochain`, ...) build
their objects without a second check; `tests/oracles.parse_reference` is
the token-at-a-time parser this one is tested against.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .core import CompatiblePair, LieBracket, RepPair
from .linalg import Matrix, _Record, _set
from .multilinear import Cochain


class ParseError(Exception):
    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line
        self.message = message


_RATIONAL = re.compile(r"^[+-]?[0-9]+(/[0-9]+)?$")
_INTEGER = re.compile(r"^[0-9]+$")
_NAME = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")
_HEADER = re.compile(r"^\[([a-z0-9]+)(?:\s+(\S+))?\]$")


def _rational(tok: str, line: int, seen: dict) -> Fraction:
    """Check a token not yet in `seen` (this document's converted tokens)
    and convert it from its two integers; only successes are stored, so an
    error names the line the token fails on."""
    if not _RATIONAL.match(tok):
        raise ParseError(line, f"malformed rational {tok!r}")
    num, _, den = tok.partition("/")
    if not den:
        c = Fraction(int(num))
    elif int(den) == 0:
        raise ParseError(line, f"zero denominator in {tok!r}")
    else:
        c = Fraction(int(num), int(den))
    seen[tok] = c
    return c


def _row(toks, line: int, seen: dict) -> tuple:
    """The rationals of a `row:` line's tokens, taken from `seen` when all
    were converted before."""
    try:
        return tuple(map(seen.__getitem__, toks))
    except KeyError:
        return tuple(seen[t] if t in seen else _rational(t, line, seen) for t in toks)


def _integer(tok: str, line: int, message: str, least: int = 0) -> int:
    """ASCII digits only: str.isdigit passes superscripts that int() rejects."""
    if not _INTEGER.match(tok) or int(tok) < least:
        raise ParseError(line, message)
    return int(tok)


def _entry(toks, line: int, message: str, indices: dict, rationals: dict):
    """((i, j, k), coeff) of an entry line `i j k coeff`, each token taken
    from the document's memo (`indices`, `rationals`) when converted
    before; `message` reports a malformed index."""
    i, j, k, c = toks
    try:
        return (indices[i], indices[j], indices[k]), rationals[c]
    except KeyError:
        pass
    for t in (i, j, k):
        if t not in indices:
            indices[t] = _integer(t, line, message)
    c = rationals[c] if c in rationals else _rational(c, line, rationals)
    return (indices[i], indices[j], indices[k]), c


class CochainBlock(_Record):
    __slots__ = _fields = ("source_dim", "target_dim", "entries")

    def __init__(self, source_dim: int, target_dim: int, entries: tuple):
        _set(self, "source_dim", source_dim)
        _set(self, "target_dim", target_dim)
        _set(self, "entries", entries)  # ((i, j, k, Fraction), ...) 1-based, sorted


class RepBlock(_Record):
    __slots__ = _fields = ("module_dim", "rho", "mu")

    def __init__(self, module_dim: int, rho: tuple, mu: tuple):
        _set(self, "module_dim", module_dim)
        _set(self, "rho", rho)  # one tuple-of-rows or None per algebra index
        _set(self, "mu", mu)


class AlgebraDocument(_Record):
    __slots__ = _fields = ("dim", "pi1", "pi2", "rep", "ops", "cochains")

    def __init__(
        self,
        dim: int,
        pi1: tuple = (),
        pi2: tuple = (),
        rep: RepBlock | None = None,
        ops: tuple = (),
        cochains: tuple = (),
    ):
        _set(self, "dim", dim)
        _set(self, "pi1", pi1)
        _set(self, "pi2", pi2)
        _set(self, "rep", rep)
        _set(self, "ops", ops)  # ((name, rows), ...) sorted by name
        _set(self, "cochains", cochains)  # ((name, CochainBlock), ...) sorted by name

    # -- converters to library objects --------------------------------------
    # the blocks are as `parse` checked them, so nothing is checked again

    def bracket1(self) -> LieBracket:
        return _bracket(self.dim, self.pi1)

    def bracket2(self) -> LieBracket:
        return _bracket(self.dim, self.pi2)

    def pair(self) -> CompatiblePair:
        return CompatiblePair(self.bracket1(), self.bracket2())

    def rep_pair(self) -> RepPair | None:
        if self.rep is None:
            return None
        m = self.rep.module_dim

        def mat(rows):
            return Matrix.zeros(m, m) if rows is None else Matrix._raw(rows, m, m)

        return RepPair(
            m,
            tuple(mat(r) for r in self.rep.rho),
            tuple(mat(r) for r in self.rep.mu),
        )

    def op_matrix(self, name: str) -> Matrix:
        for n, rows in self.ops:
            if n == name:
                return Matrix._raw(rows, len(rows), len(rows[0]))
        raise KeyError(f"no operator block named {name!r}")

    def cochain(self, name: str) -> Cochain:
        for n, block in self.cochains:
            if n == name:
                return _cochain(block.source_dim, block.target_dim, block.entries)
        raise KeyError(f"no cochain block named {name!r}")

    def has_cochain(self, name: str) -> bool:
        return any(n == name for n, _ in self.cochains)


def _cochain(source_dim: int, target_dim: int, entries) -> Cochain:
    """The arity-2 cochain of sorted 1-based entries, zeros dropped."""
    coeffs = {((i - 1, j - 1), k - 1): c for (i, j, k, c) in entries if c}
    return Cochain.unchecked(2, source_dim, target_dim, coeffs)


def _bracket(dim, entries) -> LieBracket:
    return LieBracket.from_cochain(_cochain(dim, dim, entries))


# -- parsing ---------------------------------------------------------------------


def parse(text: str) -> AlgebraDocument:
    # each distinct coefficient and index token is converted once per document
    rationals: dict[str, Fraction] = {}
    indices: dict[str, int] = {}
    dim = None
    pi: dict[str, dict] = {"pi1": {}, "pi2": {}}
    pi_lines: dict[str, dict] = {"pi1": {}, "pi2": {}}
    rep_dim = None
    rep_line = 0
    rep_mats: dict[tuple[str, int], list] = {}
    rep_mat_lines: dict[tuple[str, int], int] = {}
    ops: dict[str, list] = {}
    op_lines: dict[str, int] = {}
    cochain_raw: dict[str, dict] = {}
    seen_sections: set[str] = set()

    section = None  # ("algebra" | "pi1" | "pi2" | "rep" | "op" | "cochain", name)
    current_matrix = None  # key into rep_mats / ops while rows are collected

    lines = text.splitlines()
    for ln, raw in enumerate(lines, start=1):
        line = raw.partition("#")[0].strip()
        if not line:
            continue
        if line[0] == "[":
            m = _HEADER.match(line)
            if not m:
                raise ParseError(ln, f"bad section header {line!r}")
            kind, name = m.group(1), m.group(2)
            if kind in ("algebra", "pi1", "pi2", "rep"):
                if name is not None:
                    raise ParseError(ln, f"section [{kind}] takes no name")
                if kind in seen_sections:
                    raise ParseError(ln, f"duplicate section [{kind}]")
                seen_sections.add(kind)
                section = (kind, None)
                if kind == "rep":
                    rep_line = ln
            elif kind in ("op", "cochain"):
                if name is None or not _NAME.match(name):
                    raise ParseError(ln, f"section [{kind}] needs a valid name")
                store = ops if kind == "op" else cochain_raw
                if name in store:
                    raise ParseError(ln, f"duplicate section [{kind} {name}]")
                if kind == "op":
                    ops[name] = []
                    op_lines[name] = ln
                    current_matrix = ("op", name)
                else:
                    cochain_raw[name] = {
                        "dim": None,
                        "target": None,
                        "entries": {},
                        "lines": {},
                        "line": ln,
                    }
                section = (kind, name)
            else:
                raise ParseError(ln, f"unknown section [{kind}]")
            if kind != "op":
                current_matrix = None
            continue
        if section is None:
            raise ParseError(ln, "content before the first section header")
        kind, name = section
        toks = line.split()
        if kind == "algebra":
            if toks[0] == "dim" and len(toks) == 2:
                if dim is not None:
                    raise ParseError(ln, "dim given twice")
                msg = "dim must be a positive integer"
                dim = _integer(toks[1], ln, msg, 1)
            else:
                raise ParseError(ln, f"unexpected line in [algebra]: {line!r}")
        elif kind in ("pi1", "pi2"):
            if len(toks) != 4:
                raise ParseError(ln, "bracket entries are 'i j k coeff'")
            msg = "bracket indices must be positive integers"
            key, c = _entry(toks, ln, msg, indices, rationals)
            entries = pi[kind]
            if key in entries:
                raise ParseError(ln, f"duplicate entry for {key}")
            entries[key] = c
            pi_lines[kind][key] = ln
        elif kind == "rep":
            if toks[0] == "dim" and len(toks) == 2:
                if rep_dim is not None:
                    raise ParseError(ln, "module dim given twice")
                msg = "module dim must be a positive integer"
                rep_dim = _integer(toks[1], ln, msg, 1)
            elif toks[0] in ("rho", "mu") and len(toks) == 2:
                if rep_dim is None:
                    raise ParseError(ln, "module dim must come first in [rep]")
                msg = f"{toks[0]} needs an algebra index"
                idx = _integer(toks[1], ln, msg)
                key = (toks[0], idx)
                if key in rep_mats:
                    raise ParseError(ln, f"duplicate matrix {toks[0]} {toks[1]}")
                rep_mats[key] = []
                rep_mat_lines[key] = ln
                current_matrix = ("rep", key)
            elif toks[0] == "row:":
                if current_matrix is None or current_matrix[0] != "rep":
                    raise ParseError(ln, "row outside a matrix block")
                rep_mats[current_matrix[1]].append(_row(toks[1:], ln, rationals))
            else:
                raise ParseError(ln, f"unexpected line in [rep]: {line!r}")
        elif kind == "op":
            if toks[0] != "row:":
                raise ParseError(ln, "operator blocks contain only 'row:' lines")
            ops[name].append(_row(toks[1:], ln, rationals))
        elif kind == "cochain":
            block = cochain_raw[name]
            if toks[0] in ("dim", "target") and len(toks) == 2:
                if block["entries"]:
                    raise ParseError(ln, f"{toks[0]} must precede the entries")
                if block[toks[0]] is not None:
                    raise ParseError(ln, f"{toks[0]} given twice")
                msg = f"{toks[0]} must be a positive integer"
                block[toks[0]] = _integer(toks[1], ln, msg, 1)
            else:
                msg = "cochain entries are 'i j k coeff'"
                if len(toks) != 4:
                    raise ParseError(ln, msg)
                key, c = _entry(toks, ln, msg, indices, rationals)
                entries = block["entries"]
                if key in entries:
                    raise ParseError(ln, f"duplicate entry for {key}")
                entries[key] = c
                block["lines"][key] = ln

    if dim is None:
        raise ParseError(len(lines) or 1, "missing [algebra] section with dim")

    # range validation now that dim is known
    for sect in ("pi1", "pi2"):
        for i, j, k in pi[sect]:
            if not 1 <= i < j <= dim or not 1 <= k <= dim:
                raise ParseError(
                    pi_lines[sect][i, j, k],
                    f"index ({i}, {j}, {k}) out of range for dim {dim} (need i < j)",
                )

    rep = None
    if "rep" in seen_sections:
        if rep_dim is None:
            raise ParseError(rep_line, "[rep] section is missing its dim")
        for (which, idx), rows in rep_mats.items():
            at = rep_mat_lines[(which, idx)]
            if not 1 <= idx <= dim:
                raise ParseError(at, f"{which} {idx} out of range for dim {dim}")
            if len(rows) != rep_dim or any(len(r) != rep_dim for r in rows):
                raise ParseError(
                    at, f"{which} {idx} must be a {rep_dim}x{rep_dim} matrix"
                )
        rho = tuple(
            tuple(rep_mats[("rho", i + 1)]) if ("rho", i + 1) in rep_mats else None
            for i in range(dim)
        )
        mu = tuple(
            tuple(rep_mats[("mu", i + 1)]) if ("mu", i + 1) in rep_mats else None
            for i in range(dim)
        )
        rep = RepBlock(rep_dim, rho, mu)

    op_items = []
    for name in sorted(ops):
        rows = ops[name]
        if not rows:
            raise ParseError(op_lines[name], f"operator block {name!r} has no rows")
        if any(len(r) != len(rows[0]) for r in rows):
            raise ParseError(op_lines[name], f"operator block {name!r} has ragged rows")
        op_items.append((name, tuple(rows)))

    cochain_items = []
    for name in sorted(cochain_raw):
        block = cochain_raw[name]
        source = block["dim"] if block["dim"] is not None else dim
        target = block["target"] if block["target"] is not None else dim
        for i, j, k in block["entries"]:
            if not 1 <= i < j <= source or not 1 <= k <= target:
                raise ParseError(
                    block["lines"][i, j, k],
                    f"index ({i}, {j}, {k}) out of range for "
                    f"source {source}, target {target}",
                )
        entries = tuple(
            (i, j, k, c) for (i, j, k), c in sorted(block["entries"].items())
        )
        cochain_items.append((name, CochainBlock(source, target, entries)))

    return AlgebraDocument(
        dim=dim,
        pi1=tuple((i, j, k, c) for (i, j, k), c in sorted(pi["pi1"].items())),
        pi2=tuple((i, j, k, c) for (i, j, k), c in sorted(pi["pi2"].items())),
        rep=rep,
        ops=tuple(op_items),
        cochains=tuple(cochain_items),
    )


def render(doc: AlgebraDocument) -> str:
    """Canonical text for a document; parse(render(doc)) == doc."""
    out = ["[algebra]", f"dim {doc.dim}", ""]
    for sect, entries in (("pi1", doc.pi1), ("pi2", doc.pi2)):
        out.append(f"[{sect}]")
        for i, j, k, c in entries:
            out.append(f"{i} {j} {k} {c}")
        out.append("")
    if doc.rep is not None:
        out.append("[rep]")
        out.append(f"dim {doc.rep.module_dim}")
        for label, mats in (("rho", doc.rep.rho), ("mu", doc.rep.mu)):
            for idx, rows in enumerate(mats, start=1):
                if rows is None:
                    continue
                out.append(f"{label} {idx}")
                for r in rows:
                    out.append("row: " + " ".join(str(x) for x in r))
        out.append("")
    for name, rows in doc.ops:
        out.append(f"[op {name}]")
        for r in rows:
            out.append("row: " + " ".join(str(x) for x in r))
        out.append("")
    for name, block in doc.cochains:
        out.append(f"[cochain {name}]")
        out.append(f"dim {block.source_dim}")
        out.append(f"target {block.target_dim}")
        for i, j, k, c in block.entries:
            out.append(f"{i} {j} {k} {c}")
        out.append("")
    return "\n".join(out)
