from fractions import Fraction
from pathlib import Path
from random import Random

import pytest

from compatlie.document import AlgebraDocument, CochainBlock, ParseError, parse, render
from compatlie.linalg import vec
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


# Each distinct token is converted once per document.  A token's integer
# value is kept per lower bound, and a token that failed is never kept, so
# the memo changes no message and no line number.
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
