import ast
import subprocess
import sys
from collections import defaultdict
from fractions import Fraction
from pathlib import Path
from random import Random

import pytest

import compatlie
from compatlie import multilinear
from compatlie.cohomology import coboundary_matrix
from compatlie.core import (
    CompatiblePair,
    LieBracket,
    RepPair,
    Verdict,
    Witness,
    adjoint_rep,
    combination,
    jacobiator,
    pencil,
    validate_bracket,
    validate_pair,
    validate_rep,
)
from compatlie.deformation import DeformationDatum
from compatlie.document import AlgebraDocument, CochainBlock, RepBlock
from compatlie.extension import ExtensionDatum, Section
from compatlie.linalg import Matrix, SubspaceBasis, vec
from compatlie.multilinear import Cochain
from compatlie.poisson import PolyBasis, lie_poisson_rep
from support import (
    n2,
    rand_compatible_pair,
    rand_fraction,
    rand_invertible,
    rand_matrix,
    sl2,
)


def test_validate_bracket_abelian_and_sl2():
    assert validate_bracket(LieBracket.zero(3)).ok
    assert validate_bracket(sl2()).ok


def test_validate_bracket_witness():
    # oracle: brute-force Jacobiator of [e1,e2]=e3+e1, [e1,e3]=e2, [e2,e3]=0
    # J(e1,e2,e3) = [[e1,e2],e3] + [[e3,e1],e2] + [[e2,e3],e1]
    #             = [e3+e1,e3] + [-e2,e2] + 0 = -[e1,e3]... careful:
    # [e3+e1,e3] = [e1,e3] = e2, so J = e2 + 0 + 0 = e2 != 0
    b = LieBracket(3, {(0, 1, 2): 1, (0, 1, 0): 1, (0, 2, 1): 1})
    v = validate_bracket(b)
    assert not v.ok
    assert v.witness.at == (1, 2, 3)
    assert vec(v.witness.value) != vec([0, 0, 0])


def test_validate_pair_trivial_cases():
    b = sl2()
    assert validate_pair(b, b).ok
    assert validate_pair(b, LieBracket.zero(3)).ok


def test_each_bracket_keeps_its_jacobiator(monkeypatch):
    calls = []
    scatter = multilinear._add_composition

    def counted(table, p, q, factor):
        calls.append((p.arity, q.arity))
        return scatter(table, p, q, factor)

    monkeypatch.setattr(multilinear, "_add_composition", counted)
    pair = rand_compatible_pair(Random(29), 4)
    # fresh brackets on the pair's tables, with nothing kept yet
    b1 = LieBracket.from_cochain(pair.bracket1.to_cochain())
    b2 = LieBracket.from_cochain(pair.bracket2.to_cochain())
    calls.clear()
    j1 = jacobiator(b1)
    assert len(calls) == 1 and j1.is_zero()
    assert jacobiator(b1) is j1
    assert validate_bracket(b1).ok and validate_bracket(b2).ok
    assert len(calls) == 2
    # the pair verdict composes only the mixed bracket, in both orders
    assert validate_pair(b1, b2).ok
    assert len(calls) == 4
    # a failing bracket keeps its witness, and the pair verdict reports it
    bad = LieBracket(3, {(0, 1, 2): 1, (0, 1, 0): 1, (0, 2, 1): 1})
    v = validate_bracket(bad)
    assert not v.ok and validate_bracket(bad) == v
    w = validate_pair(bad, sl2()).witness
    assert (w.law, w.at, w.value) == ("jacobi-1", v.witness.at, v.witness.value)
    assert len(calls) == 5


def test_dim2_pairs_always_compatible():
    b1 = LieBracket(2, {(0, 1, 0): 1})
    b2 = LieBracket(2, {(0, 1, 1): 1})
    assert validate_pair(b1, b2).ok


def test_pencil_examples():
    pair = CompatiblePair(
        LieBracket(2, {(0, 1, 0): 1}), LieBracket(2, {(0, 1, 1): 1})
    )
    assert pencil(pair, 1, 0) == pair.bracket1
    assert pencil(pair, 0, 0).is_zero()
    mixed = pencil(pair, 1, 1)
    assert mixed.bracket_basis(0, 1) == vec([1, 1])
    assert validate_bracket(mixed).ok


def test_pencil_five_probe_equivalence():
    rng = Random(17)
    probes = [(1, 0), (0, 1), (1, 1), (1, -1), (2, 3)]
    for _ in range(10):
        pair = rand_compatible_pair(rng, rng.randint(2, 3))
        for k1, k2 in probes:
            assert validate_bracket(pencil(pair, k1, k2)).ok


def test_pair_closed_under_basis_change():
    rng = Random(23)
    for _ in range(10):
        pair = rand_compatible_pair(rng, rng.randint(2, 3))
        g = rand_invertible(rng, pair.dim)
        moved = pair.conjugate(g)
        assert validate_pair(moved.bracket1, moved.bracket2).ok


def test_compatible_pair_constructor_validates():
    bad1 = LieBracket(3, {(0, 1, 2): 1, (0, 1, 0): 1, (0, 2, 1): 1})
    with pytest.raises(ValueError):
        CompatiblePair(bad1, LieBracket.zero(3))


def test_adjoint_matrices_n2():
    b = n2()
    ad = b.ad_matrices()
    assert ad[0] == Matrix([[0, 0], [0, 1]])
    assert ad[1] == Matrix([[0, 0], [-1, 0]])


def test_adjoint_matrices_sl2_diagonal():
    ad = sl2().ad_matrices()
    assert ad[0] == Matrix([[0, 0, 0], [0, 2, 0], [0, 0, -2]])


def test_adjoint_rep_validates():
    rng = Random(29)
    for _ in range(8):
        pair = rand_compatible_pair(rng, rng.randint(2, 4))
        assert validate_rep(pair, adjoint_rep(pair)).ok
    abelian = CompatiblePair(LieBracket.zero(2), LieBracket.zero(2))
    rep = adjoint_rep(abelian)
    assert all(m.is_zero() for m in rep.rho + rep.mu)


def test_zero_rep_validates():
    rng = Random(31)
    pair = rand_compatible_pair(rng, 3)
    assert validate_rep(pair, RepPair.zero(3, 2)).ok


def test_rep_doubling_fails_with_witness():
    # pair (N2, N2) with rho = ad and mu = 2 ad: scaling by 2 is neither a
    # representation of the second bracket (2 ad([x,y]) vs 4 ad([x,y])) nor
    # consistent with the mixed condition; first failure is at (e1, e2)
    b = n2()
    pair = CompatiblePair(b, b)
    ad = b.ad_matrices()
    rep = RepPair(2, ad, tuple(m.scale(2) for m in ad))
    v = validate_rep(pair, rep)
    assert not v.ok
    assert v.witness.at == (1, 2)


def test_rep_mixed_condition_isolated():
    # pair (N2, 0), rho = ad, mu(e1) = mu(e2) = Id: both are representations
    # of their brackets, but the mixed condition reads mu([e1,e2]) = Id on
    # the left and commutators with Id = 0 on the right
    b = n2()
    pair = CompatiblePair(b, LieBracket.zero(2))
    eye = Matrix.identity(2)
    rep = RepPair(2, b.ad_matrices(), (eye, eye))
    v = validate_rep(pair, rep)
    assert not v.ok
    assert v.witness.law == "rep-mixed"
    assert v.witness.at == (1, 2)


def test_combination_equals_term_by_term_sum():
    # sum_k c_k mats[k] against the sum of scaled matrices, with zero
    # coefficients, zero matrices and an empty list
    rng = Random(5)
    for _ in range(30):
        dim, count = rng.randint(0, 3), rng.randint(0, 4)
        mats = [
            rand_matrix(rng, dim, dim) if rng.random() < 0.8 else Matrix.zeros(dim, dim)
            for _ in range(count)
        ]
        coeffs = tuple(
            rand_fraction(rng) if rng.random() < 0.7 else 0 for _ in range(count)
        )
        expected = Matrix.zeros(dim, dim)
        for c, mat in zip(coeffs, mats):
            expected = expected + mat.scale(c)
        assert combination(mats, coeffs, dim) == expected


def test_validate_pair_witness_is_lex_first():
    # break only the mixed condition: pi1 = heisenberg, pi2 chosen ad hoc
    b1 = LieBracket(3, {(0, 1, 2): 1})
    b2 = LieBracket(3, {(0, 2, 0): 1})
    v = validate_pair(b1, b2)
    if not v.ok:
        assert v.witness.at == (1, 2, 3)


def test_bracket_entries_roundtrip():
    b = sl2()
    rebuilt = LieBracket(3, {key: c for key, c in b.entries()})
    assert rebuilt == b


def test_library_has_no_assert_statements():
    # `python -O` strips assert statements; invariants raise
    # InternalCheckError instead
    files = sorted(Path(compatlie.__file__).parent.glob("*.py"))
    assert files
    found = [
        f"{f.name}:{node.lineno}"
        for f in files
        for node in ast.walk(ast.parse(f.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_only_linalg_cleared_reads_numerators_and_denominators():
    # one helper puts rationals on integers over a common denominator;
    # every other integer sum takes its numbers from it
    files = sorted(Path(compatlie.__file__).parent.glob("*.py"))
    assert files
    found = []
    for f in files:
        tree = ast.parse(f.read_text(encoding="utf-8"))
        allowed = {
            id(n)
            for node in tree.body
            if f.name == "linalg.py"
            and isinstance(node, ast.FunctionDef)
            and node.name == "cleared"
            for n in ast.walk(node)
        }
        found += [
            f"{f.name}:{node.lineno}:{node.attr}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and node.attr in ("numerator", "denominator")
            and id(node) not in allowed
        ]
    assert found == []


def test_library_writes_json_only_through_the_report_writer():
    # reports are written by `cli._write_json`; json.dumps is its test
    # oracle and has no production call, under any import spelling
    files = sorted(Path(compatlie.__file__).parent.glob("*.py"))
    assert files
    found = []
    for f in files:
        for node in ast.walk(ast.parse(f.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.module == "json":
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.Attribute):
                names = [node.attr]
            else:
                continue
            found += [
                f"{f.name}:{node.lineno}:{name}"
                for name in names
                if name in ("dump", "dumps")
            ]
    assert found == []


def test_every_library_definition_is_used_or_exported():
    # a top-level function or class is named in compatlie.__all__ or used by
    # some library module outside its own body; second routes that only the
    # tests call belong in tests/oracles.py
    files = sorted(Path(compatlie.__file__).parent.glob("*.py"))
    trees = {f.name: ast.parse(f.read_text(encoding="utf-8")) for f in files}
    refs = defaultdict(list)
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                refs[node.id].append(node)
            elif isinstance(node, ast.Attribute):
                refs[node.attr].append(node)
    exported = set(compatlie.__all__)
    unused = []
    for name, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            own = {id(n) for n in ast.walk(node)}
            if node.name not in exported and all(
                id(ref) in own for ref in refs[node.name]
            ):
                unused.append(f"{name}:{node.name}")
    assert unused == []


def test_library_imports_only_the_standard_library():
    # the package is stdlib-only: every import is relative or names a
    # standard-library module
    files = sorted(Path(compatlie.__file__).parent.glob("*.py"))
    assert files
    found = []
    for f in files:
        for node in ast.walk(ast.parse(f.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            found += [
                f"{f.name}:{node.lineno}:{name}"
                for name in names
                if name.split(".")[0] not in sys.stdlib_module_names
            ]
    assert found == []


def test_library_does_not_import_dataclasses():
    # the value records are plain classes on `linalg._Record`: importing
    # dataclasses (and the inspect it pulls in) costs every process
    files = sorted(Path(compatlie.__file__).parent.glob("*.py"))
    assert files
    found = []
    for f in files:
        for node in ast.walk(ast.parse(f.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            found += [
                f"{f.name}:{node.lineno}:{name}"
                for name in names
                if name.split(".")[0] == "dataclasses"
            ]
    assert found == []


def test_cli_import_leaves_dataclasses_and_inspect_unloaded():
    # a fresh interpreter without site hooks, so only compatlie's own
    # imports count
    src = Path(compatlie.__file__).parent.parent
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import compatlie.cli; "
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code, str(src)],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def record_examples():
    """A fresh instance of each of the package's value records."""
    pair = CompatiblePair(n2(), LieBracket.zero(2))
    rep = adjoint_rep(pair)
    z = tuple(Matrix.zeros(1, 1) for _ in range(2))
    w = Cochain(2, 2, 1, {((0, 1), 0): 1})
    witness = Witness("jacobi", (1, 2, 3), (Fraction(1, 2),))
    return [
        witness,
        Verdict(False, witness),
        rep,
        SubspaceBasis(2, (vec([1, 0]),)),
        coboundary_matrix(pair, rep, 1),
        DeformationDatum.zero(2),
        CochainBlock(2, 1, ((1, 2, 1, Fraction(1)),)),
        RepBlock(1, (((1,),), None), (None, None)),
        AlgebraDocument(dim=2, pi1=((1, 2, 2, Fraction(1)),)),
        ExtensionDatum(pair, CompatiblePair(LieBracket.zero(1), LieBracket.zero(1)), z, z, w, w),
        Section(Matrix.from_columns([vec([1, 0, 0]), vec([0, 1, 0])], rows=3)),
        PolyBasis.build(2, 2),
        lie_poisson_rep(pair, 1),
    ]


def test_records_compare_hash_and_show_by_their_fields():
    ones, twos = record_examples(), record_examples()
    assert len({type(r) for r in ones}) == len(ones) == 13
    for i, (a, b) in enumerate(zip(ones, twos)):
        assert a is not b and a == b, type(a)
        assert all(a != c for j, c in enumerate(twos) if j != i)
        if isinstance(a, (DeformationDatum, ExtensionDatum)):
            # like a tuple holding one, a record holding a Cochain is unhashable
            with pytest.raises(TypeError):
                hash(a)
        else:
            assert hash(a) == hash(b), type(a)
    # RepPair and RepBlock have the same fields; equal values of different
    # classes are not equal
    rho = (Matrix.zeros(1, 1),)
    assert RepPair(1, rho, rho) != RepBlock(1, rho, rho)
    assert repr(ones[0]) == (
        "Witness(law='jacobi', at=(1, 2, 3), value=(Fraction(1, 2),))"
    )


def test_records_refuse_assignment():
    for r in record_examples():
        field = type(r)._fields[0]
        with pytest.raises(AttributeError):
            setattr(r, field, None)
        with pytest.raises(AttributeError):
            delattr(r, field)
        with pytest.raises(AttributeError):
            r.extra = None


def test_poly_basis_equality_ignores_the_monomial_index():
    a, b = PolyBasis.build(2, 2), PolyBasis.build(2, 2)
    b._position.clear()
    assert a == b and hash(a) == hash(b)
    assert "_position" not in repr(a)
    assert PolyBasis(2, 1, a.monomials[:3]) != PolyBasis(2, 2, a.monomials[:3])


def test_record_constructors_check_their_shapes():
    one = Matrix.zeros(1, 1)
    with pytest.raises(ValueError, match="representation matrix has wrong shape"):
        RepPair(2, (Matrix.zeros(2, 2),), (one,))
    with pytest.raises(ValueError, match="basis vector has wrong length"):
        SubspaceBasis(3, (vec([1, 0]),))
    with pytest.raises(ValueError, match="components live on different spaces"):
        DeformationDatum(Cochain.zero(2, 2, 2), Cochain.zero(2, 3, 3))
    g = CompatiblePair(LieBracket.zero(2), LieBracket.zero(2))
    h = CompatiblePair(LieBracket.zero(1), LieBracket.zero(1))
    w = Cochain.zero(2, 2, 1)
    for rho, omega1, message in (
        ((one,), w, "need one action matrix per base basis vector"),
        ((one, Matrix.zeros(2, 2)), w, "action matrices must act on the fibre"),
        ((one, one), Cochain.zero(2, 2, 2), "cochains must map wedge"),
    ):
        with pytest.raises(ValueError, match=message):
            ExtensionDatum(g, h, rho, (one, one), omega1, w)
