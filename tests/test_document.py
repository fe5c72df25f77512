from fractions import Fraction
from pathlib import Path
from random import Random

import pytest

from compatlie.core import LieBracket, RepPair
from compatlie.document import AlgebraDocument, CochainBlock, ParseError, parse, render
from compatlie.linalg import Matrix, vec
from compatlie.multilinear import Cochain
from oracles import parse_reference
from support import rand_document

DATA = Path(__file__).parent / "data"


def test_minimal_abelian_document():
    doc = parse("[algebra]\ndim 2\n")
    assert doc.dim == 2
    assert doc.pi1 == () and doc.pi2 == ()
    pair = doc.pair()
    assert pair.bracket1.is_zero() and pair.bracket2.is_zero()


def test_n2_document():
    doc = parse((DATA / "n2.alg").read_text())
    b = doc.bracket1()
    assert b.bracket_basis(0, 1) == vec([0, 1])
    assert doc.bracket2().is_zero()
    assert doc.op_matrix("N").shape() == (2, 2)
    w = doc.cochain("w1")
    assert w.value((0, 1)) == vec([0, 1])


def test_rationals_and_signs():
    doc = parse("[algebra]\ndim 2\n[pi1]\n1 2 1 -3/4\n1 2 2 +2\n")
    b = doc.bracket1()
    assert b.bracket_basis(0, 1) == (Fraction(-3, 4), Fraction(2))


def test_zero_denominator_reports_line():
    text = "[algebra]\ndim 2\n[pi1]\n1 2 1 1/0\n"
    with pytest.raises(ParseError) as err:
        parse(text)
    assert err.value.line == 4
    assert "zero denominator" in str(err.value)


def test_malformed_rational():
    with pytest.raises(ParseError) as err:
        parse("[algebra]\ndim 2\n[pi1]\n1 2 1 x\n")
    assert "malformed rational" in str(err.value)


def test_out_of_range_and_order():
    with pytest.raises(ParseError):
        parse("[algebra]\ndim 2\n[pi1]\n1 3 1 1\n")
    with pytest.raises(ParseError):
        parse("[algebra]\ndim 2\n[pi1]\n2 1 1 1\n")  # needs i < j


def test_duplicate_entry():
    with pytest.raises(ParseError) as err:
        parse("[algebra]\ndim 2\n[pi1]\n1 2 1 1\n1 2 1 2\n")
    assert "duplicate" in str(err.value)


def test_rep_block_parses():
    doc = parse(
        "[algebra]\ndim 2\n[rep]\ndim 2\nrho 1\nrow: 0 1\nrow: 0 0\n"
        "mu 2\nrow: 1 0\nrow: 0 1\n"
    )
    rep = doc.rep_pair()
    assert rep.module_dim == 2
    assert rep.rho[0][0, 1] == 1
    assert rep.rho[1].is_zero()  # omitted matrices default to zero
    assert rep.mu[1][0, 0] == 1


def test_rep_wrong_shape():
    with pytest.raises(ParseError):
        parse("[algebra]\ndim 2\n[rep]\ndim 2\nrho 1\nrow: 0 1\n")


def test_unknown_section_and_stray_content():
    with pytest.raises(ParseError):
        parse("[algebra]\ndim 2\n[nope]\n")
    with pytest.raises(ParseError):
        parse("dim 2\n")


def test_cochain_target_dim():
    doc = parse("[algebra]\ndim 3\n[cochain w]\ntarget 2\n1 2 2 5\n")
    w = doc.cochain("w")
    assert (w.source_dim, w.target_dim) == (3, 2)
    assert w.value((0, 1)) == vec([0, 5])
    with pytest.raises(ParseError):
        parse("[algebra]\ndim 3\n[cochain w]\ntarget 2\n1 2 3 5\n")


def test_roundtrip_fixture_corpus():
    for path in sorted(DATA.glob("*.alg")):
        doc = parse(path.read_text())
        again = parse(render(doc))
        assert again == doc, path.name
        # rendering is a fixed point
        assert render(again) == render(doc)


def test_roundtrip_with_all_blocks():
    doc = parse((DATA / "heisenberg_ext.alg").read_text())
    assert isinstance(doc, AlgebraDocument)
    assert parse(render(doc)) == doc
    block = dict(doc.cochains)["omega1"]
    assert block == CochainBlock(2, 1, ((1, 2, 1, Fraction(1)),))


def test_roundtrip_generated_documents():
    # parse(render(doc)) == doc and render is a fixed point, on seeded
    # documents beyond the fixtures: modules with omitted matrices,
    # operators, cochain blocks whose target differs from dim, and
    # negative and multi-digit denominators
    rng = Random(239)
    seen = set()
    for _ in range(200):
        doc = rand_document(rng)
        text = render(doc)
        assert parse(text) == doc
        assert render(parse(text)) == text
        if doc.rep is not None:
            seen.add("rep")
            if None in doc.rep.rho + doc.rep.mu:
                seen.add("omitted matrix")
        if doc.ops:
            seen.add("op")
        if any(b.target_dim != doc.dim for _, b in doc.cochains):
            seen.add("cochain target != dim")
        values = [e[3] for e in doc.pi1 + doc.pi2]
        values += [e[3] for _, b in doc.cochains for e in b.entries]
        if any(c < 0 and c.denominator >= 10 for c in values):
            seen.add("negative multi-digit denominator")
    assert seen == {
        "rep",
        "omitted matrix",
        "op",
        "cochain target != dim",
        "negative multi-digit denominator",
    }


# Superscript digits pass str.isdigit() but not int(); every integer field
# reports them as a ParseError on their own line.
NON_ASCII_INTEGERS = [
    ("algebra dim", "[algebra]\ndim ²\n", 2, "dim must be"),
    ("bracket index", "[algebra]\ndim 2\n[pi1]\n1 ² 1 1\n", 4, "bracket indices"),
    ("rep dim", "[algebra]\ndim 2\n[rep]\ndim ²\n", 4, "module dim"),
    ("rho index", "[algebra]\ndim 2\n[rep]\ndim 1\nrho ¹\n", 5, "rho needs"),
    ("mu index", "[algebra]\ndim 2\n[rep]\ndim 1\nmu ¹\n", 5, "mu needs"),
    ("cochain dim", "[algebra]\ndim 2\n[cochain w]\ndim ²\n", 4, "dim must be"),
    ("cochain target", "[algebra]\ndim 2\n[cochain w]\ntarget ¹\n", 4, "target must"),
    ("cochain index", "[algebra]\ndim 2\n[cochain w]\n1 ² 1 1\n", 4, "cochain entries"),
]


@pytest.mark.parametrize(
    "text, line, message",
    [case[1:] for case in NON_ASCII_INTEGERS],
    ids=[case[0] for case in NON_ASCII_INTEGERS],
)
def test_non_ascii_integers_are_parse_errors(text, line, message):
    with pytest.raises(ParseError) as err:
        parse(text)
    assert err.value.line == line
    assert message in err.value.message


def test_non_ascii_digits_in_rationals_are_parse_errors():
    for coeff in ("²", "1/²", "١", "１"):
        with pytest.raises(ParseError) as err:
            parse(f"[algebra]\ndim 2\n[pi1]\n1 2 1 {coeff}\n")
        assert err.value.line == 4
        assert "malformed rational" in err.value.message


# Each distinct coefficient and index token is converted once per
# document.  Dims are read past the memo, and a token that failed is never
# kept, so the memo changes no message and no line number.
MEMO_ERRORS = [
    (
        "dim 0 after an index 0",
        "[pi1]\n0 1 1 1\n[algebra]\ndim 0\n",
        4,
        "dim must be a positive integer",
    ),
    (
        "cochain dim 0 after an index 0",
        "[algebra]\ndim 2\n[pi1]\n0 1 1 1\n[cochain w]\ndim 0\n",
        6,
        "dim must be a positive integer",
    ),
    (
        "cochain target 0 after an index 0",
        "[pi1]\n0 1 1 1\n[algebra]\ndim 2\n[cochain w]\ntarget 0\n",
        6,
        "target must be a positive integer",
    ),
    (
        "module dim 0 after an index 0",
        "[algebra]\ndim 2\n[pi1]\n0 1 1 1\n[rep]\ndim 0\n",
        6,
        "module dim must be a positive integer",
    ),
    (
        "malformed rational on two lines",
        "[algebra]\ndim 2\n[pi1]\n1 2 1 1/x\n1 2 2 1/x\n",
        4,
        "malformed rational '1/x'",
    ),
    (
        "zero denominator on two lines",
        "[algebra]\ndim 2\n[op N]\nrow: 1 1/0\nrow: 1/0 1\n",
        4,
        "zero denominator in '1/0'",
    ),
    (
        "rational 1/2 as an index",
        "[algebra]\ndim 2\n[pi1]\n1 2 1 1/2\n1/2 2 1 1\n",
        5,
        "bracket indices must be positive integers",
    ),
    (
        "rational 1/2 as a cochain index",
        "[algebra]\ndim 2\n[cochain w]\n1 2 1 1/2\n1 1/2 1 1\n",
        5,
        "cochain entries are 'i j k coeff'",
    ),
]


@pytest.mark.parametrize(
    "text, line, message",
    [case[1:] for case in MEMO_ERRORS],
    ids=[case[0] for case in MEMO_ERRORS],
)
def test_token_memo_keeps_every_error(text, line, message):
    with pytest.raises(ParseError) as err:
        parse(text)
    assert err.value.line == line
    assert message in err.value.message


def test_rep_without_dim_reports_the_rep_header_line():
    with pytest.raises(ParseError) as err:
        parse("[algebra]\ndim 2\n[pi1]\n1 2 2 1\n[rep]\n")
    assert err.value.line == 5
    assert "[rep] section is missing its dim" in err.value.message
    with pytest.raises(ParseError) as err:
        parse("[algebra]\ndim 2\n\n[rep]  # no dim\n\n[op N]\nrow: 1\n")
    assert err.value.line == 4


def test_operator_block_errors_report_the_header_line():
    with pytest.raises(ParseError) as err:
        parse("[algebra]\ndim 2\n\n[op N]\n[op M]\nrow: 1 0\n")
    assert err.value.line == 4
    assert "has no rows" in err.value.message
    with pytest.raises(ParseError) as err:
        parse("[algebra]\ndim 2\n[op N]\nrow: 1 0\nrow: 1\n")
    assert err.value.line == 3
    assert "ragged rows" in err.value.message


# characters a mutation inserts or substitutes: the format's own syntax,
# digits, and digits that str.isdigit or int() accept but the format refuses
FUZZ_CHARS = "0123456789 \n\t#[]/+-:xrowdimu_²٣"


def mutations(text: str, rng: Random, count: int):
    """`count` seeded variants of `text`: truncations, and single-character
    insertions, replacements and deletions."""
    for _ in range(count):
        kind = rng.randrange(4)
        pos = rng.randrange(len(text) + 1)
        if kind == 0:
            yield text[:pos]
        elif kind == 1:
            yield text[:pos] + rng.choice(FUZZ_CHARS) + text[pos:]
        elif kind == 2:
            yield text[:pos] + rng.choice(FUZZ_CHARS) + text[pos + 1 :]
        else:
            yield text[:pos] + text[pos + 1 :]


def test_mutated_fixtures_fail_only_with_parse_errors():
    # a file either fails to parse with a ParseError, or every converter
    # accepts it and rendering round-trips
    rng = Random(97)
    fixtures = sorted(DATA.glob("*.alg"))
    assert len(fixtures) == 7
    parsed = refused = 0
    for path in fixtures:
        for text in mutations(path.read_text(), rng, 450):
            try:
                doc = parse(text)
            except ParseError:
                refused += 1
                continue
            parsed += 1
            doc.bracket1()
            doc.bracket2()
            doc.rep_pair()
            for name, _ in doc.cochains:
                doc.cochain(name)
            for name, _ in doc.ops:
                doc.op_matrix(name)
            assert parse(render(doc)) == doc
    assert parsed >= 500 and refused >= 500


# -- parity with the token-at-a-time parser ------------------------------------

# tokens a mutation substitutes: zeros and signs, a leading-zero
# denominator, a zero denominator, non-ASCII digits that str.isdigit or
# int() accept, and malformed rationals
PARITY_TOKENS = (
    "0", "-0", "+0", "00", "+3/04", "-7/12", "0/5", "1/0", "-2/00", "+5",
    "-2", "12", "²", "١", "１", "1/²", "x", "1/", "/2", "4/-2", "3.5", "dim",
    "row:",
)


def token_mutations(text: str, rng: Random, count: int):
    """`count` seeded variants of `text` by whole tokens and lines: a token
    replaced, dropped or added (ragged rows, short entries), a line
    duplicated, dropped (missing dims) or moved."""
    lines = text.splitlines()
    for _ in range(count):
        out = list(lines)
        for _ in range(rng.randint(1, 3)):
            if not out:
                break
            at = rng.randrange(len(out))
            toks = out[at].split()
            kind = rng.randrange(6)
            if kind == 0 and toks:
                toks[rng.randrange(len(toks))] = rng.choice(PARITY_TOKENS)
                out[at] = " ".join(toks)
            elif kind == 1 and toks:
                del toks[rng.randrange(len(toks))]
                out[at] = " ".join(toks)
            elif kind == 2:
                toks.insert(rng.randint(0, len(toks)), rng.choice(PARITY_TOKENS))
                out[at] = " ".join(toks)
            elif kind == 3:
                out.insert(rng.randint(0, len(out)), out[at])
            elif kind == 4:
                del out[at]
            else:
                out.insert(rng.randint(0, len(out) - 1), out.pop(at))
        yield "\n".join(out) + "\n"


def parse_outcome(parser, text):
    try:
        return parser(text)
    except ParseError as e:
        return ("ParseError", e.line, e.message)


def test_parse_equals_the_reference_parser_on_mutated_documents():
    # the memo hits, the integer conversion of a new rational and the
    # deferred range checks give the reference parser's document, or its
    # ParseError with the same line and message; repr also compares the
    # value types (Fraction, never int)
    rng = Random(331)
    texts = [path.read_text() for path in sorted(DATA.glob("*.alg"))]
    texts += [render(rand_document(rng)) for _ in range(40)]
    parsed, refused, messages, accepted = 0, 0, set(), set()
    for text in texts:
        variants = [*token_mutations(text, rng, 30), *mutations(text, rng, 20)]
        for variant in [text, *variants]:
            got = parse_outcome(parse, variant)
            expected = parse_outcome(parse_reference, variant)
            assert got == expected and repr(got) == repr(expected), variant
            if isinstance(got, tuple):
                refused += 1
                messages.add(got[2].split(" ", 1)[0])
            else:
                parsed += 1
                accepted.update(set(variant.split()) & set(PARITY_TOKENS))
    assert parsed >= 400 and refused >= 1500
    assert {"0", "-0", "+0", "00", "+3/04", "-7/12", "0/5", "+5"} <= accepted
    # zero denominators, malformed rationals and indices, duplicates,
    # ragged and short lines, missing dims and out-of-range indices
    for head in ("zero", "malformed", "bracket", "cochain", "duplicate", "operator",
                 "missing", "index", "rho", "mu"):
        assert head in messages, head


# -- converters: the validating constructors' objects, built unchecked ---------


def with_zero_coefficients(doc: AlgebraDocument, rng: Random) -> AlgebraDocument:
    """The document with about a third of its bracket and cochain entries'
    coefficients set to 0 (a parsed `i j k 0` line)."""

    def zeroed(entries):
        return tuple(
            (i, j, k, Fraction(0) if rng.random() < 0.35 else c)
            for i, j, k, c in entries
        )

    cochains = tuple(
        (name, CochainBlock(b.source_dim, b.target_dim, zeroed(b.entries)))
        for name, b in doc.cochains
    )
    return AlgebraDocument(
        doc.dim, zeroed(doc.pi1), zeroed(doc.pi2), doc.rep, doc.ops, cochains
    )


def validated_objects(doc: AlgebraDocument) -> dict:
    """Every converter's object as the validating constructors build it."""

    def bracket(entries):
        coeffs = {(i - 1, j - 1, k - 1): c for i, j, k, c in entries}
        return LieBracket(doc.dim, coeffs)

    out = {"bracket1": bracket(doc.pi1), "bracket2": bracket(doc.pi2)}
    if doc.rep is not None:
        m = doc.rep.module_dim

        def mats(blocks):
            return tuple(Matrix.zeros(m, m) if r is None else Matrix(r) for r in blocks)

        out["rep"] = RepPair(m, mats(doc.rep.rho), mats(doc.rep.mu))
    for name, rows in doc.ops:
        out["op", name] = Matrix(rows)
    for name, b in doc.cochains:
        coeffs = {((i - 1, j - 1), k - 1): c for i, j, k, c in b.entries}
        out["cochain", name] = Cochain(2, b.source_dim, b.target_dim, coeffs)
    return out


def stored(f: Cochain) -> list:
    return list(f.coeffs.items())


def test_converters_equal_the_validating_constructors():
    # the parser has checked shapes, ranges, order and duplicates, so the
    # converters build through Matrix._raw and Cochain.unchecked; they must
    # give the validating constructors' objects, zeros dropped, in the
    # same storage order
    rng = Random(337)
    docs = [parse(path.read_text()) for path in sorted(DATA.glob("*.alg"))]
    docs += [rand_document(rng) for _ in range(40)]
    docs += [with_zero_coefficients(doc, rng) for doc in docs]
    zero_doc = parse("[algebra]\ndim 2\n[pi1]\n1 2 1 0\n1 2 2 -0/3\n[op Z]\nrow:\n")
    docs.append(zero_doc)
    zeros = 0
    for doc in docs:
        expected = validated_objects(doc)
        got = {"bracket1": doc.bracket1(), "bracket2": doc.bracket2()}
        if doc.rep is not None:
            got["rep"] = doc.rep_pair()
        for name, _ in doc.ops:
            got["op", name] = doc.op_matrix(name)
        for name, _ in doc.cochains:
            got["cochain", name] = doc.cochain(name)
        assert got == expected
        for key in ("bracket1", "bracket2"):
            assert stored(got[key].to_cochain()) == stored(expected[key].to_cochain())
        for key, value in got.items():
            if key[0] == "cochain":
                assert stored(value) == stored(expected[key])
            elif key[0] == "op":
                assert value.shape() == expected[key].shape()
        entries = doc.pi1 + doc.pi2
        entries += tuple(e for _, b in doc.cochains for e in b.entries)
        zeros += sum(1 for e in entries if e[3] == 0)
    assert zeros >= 100
    assert zero_doc.bracket1().is_zero()
    assert zero_doc.op_matrix("Z").shape() == (1, 0)
