"""Document parsing, verification reports, and the command-line surface."""

import argparse
import json
import os
import random
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import matalg
import matalg.algebra as algebra_module
import matalg.cli.documents as documents_module
import matalg.cli.suites as suites_module
import matalg.coalgebra as coalgebra_module
from matalg.algebra import Composition, algebra_from_basis, parabolic_subalgebra, radical
from matalg.cli.documents import (
    BasisDocument,
    DocumentError,
    format_rational,
    parse_basis_document,
    parse_rational,
    serialize_basis_document,
)
from matalg.cli.main import _build_parser, _parse_n_range, main
from matalg.cli.suites import (
    SUITE_NAMES,
    corpus_algebras,
    enumerate_unit_pattern_subalgebras,
    run_verification,
    suite_supported_ns,
)
from matalg.coalgebra import parabolic_coideal
from matalg.exactlin import Matrix, rref_basis
from test_coalgebra import reference_quotient_is_coideal


class TestRationals:
    def test_parse_plain_and_fraction(self):
        assert parse_rational("3") == Fraction(3)
        assert parse_rational("-5") == Fraction(-5)
        assert parse_rational("3/6") == Fraction(1, 2)
        assert parse_rational("-2/4") == Fraction(-1, 2)

    def test_format_is_canonical(self):
        assert format_rational(Fraction(1, 2)) == "1/2"
        assert format_rational(Fraction(4, 2)) == "2"
        assert format_rational(Fraction(-3, 9)) == "-1/3"

    def test_roundtrip(self):
        for text in ("0", "7", "-7", "22/7", "-1/3"):
            assert format_rational(parse_rational(text)) == text

    def test_rejects_garbage(self):
        for bad in ("", "1.5", "a", "1/", "/2", "1/-2", "1 / 2", "0x2"):
            with pytest.raises(DocumentError):
                parse_rational(bad)

    def test_rejects_zero_denominator(self):
        with pytest.raises(DocumentError, match="zero denominator"):
            parse_rational("1/0")

    def test_error_mentions_position(self):
        with pytest.raises(DocumentError, match="row 2"):
            parse_rational("oops", where="row 2")

    @pytest.mark.parametrize("text", ["\u0663/\u0664", "\u0661", "3/\u0664", "\uff17", "\u00b2"])
    def test_rejects_digits_outside_ascii(self, text):
        # Arabic-Indic and fullwidth digits and a superscript
        with pytest.raises(DocumentError, match="invalid rational"):
            parse_rational(text)

    def test_document_entry_with_digits_outside_ascii(self):
        text = json.dumps({"n": 1, "field": "Q", "basis": [[["\u0661"]]]}, ensure_ascii=False)
        with pytest.raises(DocumentError, match="basis\\[0\\] row 0 col 0: invalid rational"):
            parse_basis_document(text)


class TestBasisDocuments:
    def doc(self):
        return BasisDocument(
            n=2, matrices=(Matrix.identity(2), Matrix([[0, "1/2"], [0, 0]]))
        )

    def test_serialize_parse_roundtrip(self):
        text = serialize_basis_document(self.doc())
        again = parse_basis_document(text)
        assert again == self.doc()
        # canonical text is a fixpoint
        assert serialize_basis_document(again) == text

    def test_parse_normalizes_rationals(self):
        text = json.dumps(
            {"n": 2, "field": "Q", "basis": [[["2/4", "0"], ["0", "1"]]]}
        )
        doc = parse_basis_document(text)
        assert doc.matrices[0][0, 0] == Fraction(1, 2)

    def test_invalid_json_positions(self):
        with pytest.raises(DocumentError, match="line"):
            parse_basis_document("{not json")

    def test_missing_keys(self):
        with pytest.raises(DocumentError, match="field"):
            parse_basis_document(json.dumps({"n": 2, "basis": []}))

    def test_wrong_field(self):
        with pytest.raises(DocumentError, match="field"):
            parse_basis_document(
                json.dumps({"n": 2, "field": "R", "basis": []})
            )

    def test_bad_matrix_shape(self):
        with pytest.raises(DocumentError, match="basis\\[0\\]"):
            parse_basis_document(
                json.dumps({"n": 2, "field": "Q", "basis": [[["1", "0"]]]})
            )

    def test_bad_entry_localized(self):
        text = json.dumps(
            {"n": 2, "field": "Q", "basis": [[["1", "0"], ["0", "1/0"]]]}
        )
        with pytest.raises(DocumentError, match="row 1 col 1"):
            parse_basis_document(text)

    def test_a_repeated_invalid_entry_reports_its_first_location(self):
        # entries that parse are kept and not parsed again; one that fails
        # is not, so each occurrence is parsed until the first raises
        bad = ["1/0", "x", ["1"]]
        for entry in bad:
            basis = [[["1", "0"], ["0", "1"]], [["0", entry], [entry, "0"]], [[entry, "0"], ["0", "0"]]]
            text = json.dumps({"n": 2, "field": "Q", "basis": basis})
            with pytest.raises(DocumentError, match="^basis\\[1\\] row 0 col 1: "):
                parse_basis_document(text)

    def test_each_distinct_entry_string_is_parsed_once(self, monkeypatch):
        parsed = []
        parse = documents_module._numerator_denominator
        monkeypatch.setattr(documents_module, "_numerator_denominator", lambda text: parsed.append(text) or parse(text))
        basis = [[["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]], [["0", "2/4", "0"], ["0", "0", "2/4"], ["0", "0", "0"]]]
        doc = parse_basis_document(json.dumps({"n": 3, "field": "Q", "basis": basis}))
        assert sorted(parsed) == ["0", "1", "2/4"]
        assert doc.matrices[1] == Matrix([[0, Fraction(1, 2), 0], [0, 0, Fraction(1, 2)], [0, 0, 0]])

    def test_n_must_be_positive_int(self):
        for bad_n in (0, -1, True, "2"):
            with pytest.raises(DocumentError):
                parse_basis_document(
                    json.dumps({"n": bad_n, "field": "Q", "basis": []})
                )


_REFERENCE_RATIONAL_RE = re.compile(r"^[+-]?[0-9]+(?:/([0-9]+))?$")


def reference_parse_rational(text, *, where="value"):
    """The `Fraction` parse of one entry that the integer document parser
    replaced: the same checks, messages and canonical value."""
    if not isinstance(text, str):
        raise DocumentError(f"{where}: expected a rational string, got {text!r}")
    match = _REFERENCE_RATIONAL_RE.match(text.strip())
    if not match:
        raise DocumentError(f"{where}: invalid rational {text!r}")
    if match.group(1) is not None and int(match.group(1)) == 0:
        raise DocumentError(f"{where}: zero denominator in {text!r}")
    return Fraction(text.strip())


def reference_matrices(basis):
    """The matrices of a well-shaped raw basis list, one `Fraction` per
    entry, each entry's position in its error message."""
    return [
        Matrix(
            [
                [
                    reference_parse_rational(e, where=f"basis[{b}] row {r} col {c}")
                    for c, e in enumerate(row)
                ]
                for r, row in enumerate(mat)
            ]
        )
        for b, mat in enumerate(basis)
    ]


def error_text(parse, *args, **kwargs):
    """The message of the `DocumentError` that the call raises."""
    with pytest.raises(DocumentError) as info:
        parse(*args, **kwargs)
    return str(info.value)


BAD_ENTRIES = ("1/0", "oops", " -3/00 ", "", "1/ 2", "1.5", 3, None, 1.5, True, ["1"])


@st.composite
def rational_strings(draw):
    """Entries as a document may write them: signs, "+p", padding, leading
    zeros, non-canonical fractions such as "3/6", zero numerators and
    large integers."""
    digits = st.one_of(st.just(0), st.integers(0, 99), st.integers(0, 10**60))
    zeros = st.sampled_from(("", "0", "00"))
    text = draw(st.sampled_from(("", "+", "-"))) + draw(zeros) + str(draw(digits))
    if draw(st.booleans()):
        den = draw(st.one_of(st.integers(1, 12), st.integers(1, 10**40)))
        text += "/" + draw(zeros) + str(den)
    pad = st.sampled_from(("", " ", "  ", "\t"))
    return draw(pad) + text + draw(pad)


def raw_basis(draw, n):
    size = draw(st.integers(0, 3))
    return [[[draw(rational_strings()) for _ in range(n)] for _ in range(n)] for _ in range(size)]


class TestDocumentParserReference:
    """The integer document parser against the `Fraction` parse it replaced."""

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 3), st.data())
    def test_matrices_match(self, n, data):
        basis = raw_basis(data.draw, n)
        doc = parse_basis_document(json.dumps({"n": n, "field": "Q", "basis": basis}))
        # `Matrix` equality compares the stored integer form
        assert list(doc.matrices) == reference_matrices(basis)
        for mat in basis:
            for row in mat:
                for e in row:
                    assert parse_rational(e) == reference_parse_rational(e)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 3), st.data())
    def test_errors_match(self, n, data):
        basis = raw_basis(data.draw, n) + [[["0"] * n for _ in range(n)]]
        bad = st.sampled_from(BAD_ENTRIES)
        for _ in range(data.draw(st.integers(1, 2))):
            b = data.draw(st.integers(0, len(basis) - 1))
            r, c = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
            basis[b][r][c] = data.draw(bad)
        document = json.dumps({"n": n, "field": "Q", "basis": basis})
        assert error_text(parse_basis_document, document) == error_text(reference_matrices, basis)

    @pytest.mark.parametrize("text", BAD_ENTRIES)
    def test_error_texts_are_unchanged(self, text):
        basis = [[["1", "0"], ["0", "1"]], [["1", text], ["0", "1"]]]
        document = json.dumps({"n": 2, "field": "Q", "basis": basis})
        assert error_text(parse_basis_document, document) == error_text(reference_matrices, basis)
        assert error_text(parse_rational, text, where="here") == error_text(
            reference_parse_rational, text, where="here"
        )


class TestCorpus:
    def test_exhaustive_counts(self):
        assert len(enumerate_unit_pattern_subalgebras(2)) == 4
        assert len(enumerate_unit_pattern_subalgebras(3)) == 29

    def test_corpus_members_are_closed(self):
        for a in enumerate_unit_pattern_subalgebras(2):
            mats = a.basis_matrices()
            assert a.contains(Matrix.identity(2))
            for x in mats:
                for y in mats:
                    assert a.contains(x * y)

    def test_sorted_by_dimension(self):
        dims = [a.dimension for a in enumerate_unit_pattern_subalgebras(3)]
        assert dims == sorted(dims)
        assert dims[0] == 3 and dims[-1] == 9

    def test_transitivity_matches_independent_filter(self):
        # cross-check the closure filter against explicit path composition
        n = 3
        algebras = enumerate_unit_pattern_subalgebras(n)
        count = 0
        offs = [(i, j) for i in range(n) for j in range(n) if i != j]
        for mask in range(1 << len(offs)):
            rel = {offs[k] for k in range(len(offs)) if mask >> k & 1}
            paths = {
                (i, k)
                for (i, j) in rel
                for (j2, k) in rel
                if j2 == j and i != k
            }
            if paths <= rel:
                count += 1
        assert count == len(algebras)

    def test_labeled_corpus_at_n4(self):
        corpus = corpus_algebras(4, seed=0)
        labels = [label for label, _ in corpus]
        assert "diagonal" in labels and "commutative-extremal" in labels
        assert sum(1 for l in labels if l.startswith("blocks-")) == 8
        # deterministic for a fixed seed
        again = corpus_algebras(4, seed=0)
        assert [(l, a.space) for l, a in corpus] == [(l, a.space) for l, a in again]

    def test_corpus_rejects_large_n(self):
        with pytest.raises(ValueError):
            corpus_algebras(5)


class TestVerificationReports:
    def test_report_text_is_deterministic(self):
        a = run_verification("schur", (2, 3), seed=5)
        b = run_verification("schur", (2, 3), seed=5)
        assert a.to_text() == b.to_text()
        assert a.wall_time_s >= 0

    def test_report_shape(self):
        rep = run_verification("optimal-type", (2, 4), seed=0)
        assert rep.passed
        text = rep.to_text()
        assert text.startswith("suite: optimal-type\n")
        assert "result: PASS" in text
        assert text.count("[pass]") == len(rep.records)

    def test_unknown_suite(self):
        with pytest.raises(ValueError, match="unknown suite"):
            run_verification("nope", (2, 3))

    def test_unsupported_n(self):
        with pytest.raises(ValueError, match="does not support"):
            run_verification("schur", (2, 9))

    def test_all_clips_to_supported(self):
        rep = run_verification("all", (2, 2), seed=0)
        ids = [r.check_id for r in rep.records]
        # gerstenhaber has no n = 2 checks; the other suites appear
        assert not any(i.startswith("gerstenhaber") for i in ids)
        assert any(i.startswith("schur") for i in ids)

    def test_all_equals_each_suite_on_its_part_of_the_range(self):
        expected = []
        for name in SUITE_NAMES[:-1]:
            ns = sorted(n for n in (2, 3) if n in suite_supported_ns(name))
            if ns:
                report = run_verification(name, (ns[0], ns[-1]), seed=7, trials=3)
                expected.extend(report.records)
        report = run_verification("all", (2, 3), seed=7, trials=3)
        assert report.records == tuple(sorted(expected, key=lambda r: r.check_id))

    def test_all_rejects_n_outside_every_suite(self):
        with pytest.raises(ValueError, match="n=9 is not covered by any suite"):
            run_verification("all", (2, 9))

    def test_supported_ranges(self):
        assert suite_supported_ns("dimension-formula") == frozenset(range(2, 9))
        assert suite_supported_ns("gerstenhaber") == frozenset({3, 4})
        assert 8 in suite_supported_ns("all")

    def test_trials_override_shrinks_work(self):
        rep = run_verification("maximality", (2, 2), seed=0, trials=3)
        assert rep.passed
        assert "3/3" in rep.to_text()

    def test_failed_tallies_show_their_counts(self, monkeypatch):
        monkeypatch.setattr(suites_module, "is_parabolic", lambda a: (False, None, None))
        assert (
            "  [FAIL] split-bound/equality/n=3 expected=13/13 observed=0/13 :: "
            in run_verification("split-bound", (3, 3)).to_text()
        )
        check = suites_module.schur_commutative_check

        def bound_fails(a):
            commutative, _ = check(a)
            return commutative, False if commutative else None

        monkeypatch.setattr(suites_module, "schur_commutative_check", bound_fails)
        assert (
            "  [FAIL] schur/bound/n=4 expected=0 violations observed=5 violations :: "
            in run_verification("schur", (4, 4)).to_text()
        )


class TestCommandLine:
    def run(self, argv, stdin_text=None, tmp_path=None):
        return main(argv)

    def test_construct_analyze_roundtrip(self, tmp_path, capsys):
        out = tmp_path / "p.json"
        code = main(
            ["construct", "parabolic-algebra", "--type", "1,2", "--output", str(out)]
        )
        assert code == 0
        doc = parse_basis_document(out.read_text())
        assert doc.n == 3 and len(doc.matrices) == 7

        code = main(["analyze", "blocks", "--input", str(out)])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["split"] is True
        assert payload["block_sizes"] == payload["lift_traces"] == [1, 2]
        assert payload["radical_dimension"] == 2

    def test_analyze_blocks_splits_diagonal_n10(self, tmp_path, capsys):
        doc = BasisDocument(n=10, matrices=tuple(Matrix.unit(10, i, i) for i in range(10)))
        path = tmp_path / "diagonal.json"
        path.write_text(serialize_basis_document(doc))
        assert main(["analyze", "blocks", "--input", str(path)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["split"] is True
        assert payload["block_sizes"] == [1] * 10

    def test_analyze_blocks_huge_constant_term(self, tmp_path, capsys):
        # the minimal polynomial t^2 - (10^24 + 7) has no rational root
        x = Matrix([[0, 1], [10**24 + 7, 0]])
        doc = BasisDocument(n=2, matrices=(Matrix.identity(2), x))
        path = tmp_path / "huge.json"
        path.write_text(serialize_basis_document(doc))
        assert main(["analyze", "blocks", "--input", str(path)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["split"] is False
        assert payload["block_sizes"] is None and payload["lift_traces"] is None

    def test_analyze_blocks_reports_an_uncertified_block(self, tmp_path, capsys):
        # the quaternions (-1,-1)_Q in their regular representation: the
        # center is split, one block of size 2 whose lift trace 4 certifies
        # nothing
        left_i = Matrix([[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]])
        left_j = Matrix([[0, 0, -1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, -1, 0, 0]])
        doc = BasisDocument(n=4, matrices=(Matrix.identity(4), left_i, left_j, left_i * left_j))
        path = tmp_path / "quaternions.json"
        path.write_text(serialize_basis_document(doc))
        assert main(["analyze", "blocks", "--input", str(path)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["split"] is False
        assert (payload["block_sizes"], payload["lift_traces"]) == ([2], [4])

    def test_analyze_closure(self, tmp_path, capsys):
        doc = BasisDocument(n=2, matrices=(Matrix.unit(2, 0, 1),))
        path = tmp_path / "gen.json"
        path.write_text(serialize_basis_document(doc))
        assert main(["analyze", "closure", "--input", str(path)]) == 0
        out = parse_basis_document(capsys.readouterr().out)
        assert out.n == 2 and len(out.matrices) == 2

    def test_analyze_is_parabolic(self, tmp_path, capsys):
        out = tmp_path / "p.json"
        main(["construct", "parabolic-algebra", "--type", "2,1", "--output", str(out)])
        assert main(["analyze", "is-parabolic", "--input", str(out)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["parabolic"] is True and payload["type"] == [2, 1]

    def test_analyze_is_parabolic_json_is_pinned(self, tmp_path, capsys):
        # a conjugated type (2, 1, 1) whose flag members have different
        # denominators; the text, witness included, is pinned
        c = Matrix([[-1, 2, 2, -1], [0, 2, 1, 2], [-2, 2, -2, 1], [0, 2, -1, -1]])
        a = algebra_module.conjugate(parabolic_subalgebra(Composition((2, 1, 1))), c)
        path = tmp_path / "conjugated.json"
        path.write_text(serialize_basis_document(BasisDocument(n=4, matrices=tuple(a.basis_matrices()))))
        assert main(["analyze", "is-parabolic", "--input", str(path)]) == 0
        witness = [
            ["0", "0", "1/2", "0"],
            ["0", "0", "0", "1/2"],
            ["0", "1/4", "0", "-1/4"],
            ["1", "-7/4", "-1/2", "5/4"],
        ]
        expected = {"n": 4, "parabolic": True, "type": [2, 1, 1], "witness": witness}
        assert capsys.readouterr().out == json.dumps(expected, indent=2) + "\n"

    def test_analyze_is_coideal_rejection(self, tmp_path, capsys):
        doc = BasisDocument(n=3, matrices=(Matrix.unit(3, 1, 0),))
        path = tmp_path / "x.json"
        path.write_text(serialize_basis_document(doc))
        assert main(["analyze", "is-coideal", "--input", str(path)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["coideal"] is False
        assert payload["failed_axiom"] == "comultiplication"
        assert payload["counterexample"] is not None
        # comultiply(e_{1,0}) = e_{1,0} (x) e_{0,0} + e_{1,1} (x) e_{1,0}
        # + e_{1,2} (x) e_{2,0}; modulo e_{1,0} only the last term survives
        assert payload["failed_component"] == [[1, 2], [2, 0]]

    def test_analyze_is_coideal_dense_rational_matches_reference(self, tmp_path, capsys):
        # dense traceless matrices at n = 5 with entries over 2..7: the
        # payload of the integer route equals the one built from the
        # Fraction route through comultiply
        n = 5
        rng = random.Random(55)
        matrices = []
        for _ in range(3):
            flat = [Fraction(rng.randint(-4, 4), rng.randint(2, 7)) for _ in range(n * n)]
            flat[0] -= sum(flat[i * n + i] for i in range(n))
            matrices.append(Matrix.from_flat(flat, n))
        space = rref_basis([m.flatten() for m in matrices], n * n)
        assert space.dimension == 3 and space._integer_form()[0] > 1
        path = tmp_path / "dense.json"
        path.write_text(serialize_basis_document(BasisDocument(n=n, matrices=tuple(matrices))))
        assert main(["analyze", "is-coideal", "--input", str(path)]) == 0
        payload = json.loads(capsys.readouterr().out)
        reference = reference_quotient_is_coideal(space)
        assert reference.axiom == "comultiplication"
        assert payload == {
            "n": n,
            "coideal": False,
            "dimension": 3,
            "failed_axiom": reference.axiom,
            "counterexample": [
                [format_rational(x) for x in reference.element[i * n : (i + 1) * n]]
                for i in range(n)
            ],
            "failed_component": [list(divmod(c, n)) for c in reference.component],
        }

    @pytest.mark.parametrize("semisimple", [False, True], ids=["conjugated-P12", "semisimple"])
    def test_analyze_radical_prints_the_radical(self, semisimple, tmp_path, capsys):
        # conjugated P(1, 2), whose radical has dimension 2, and the
        # conjugated block-diagonal algebra of type (1, 2), whose radical is 0
        c = Matrix([[1, 2, 0], [0, 1, -1], [1, 0, 1]])
        pattern = [(0, 0), (1, 1), (1, 2), (2, 1), (2, 2)] + ([] if semisimple else [(0, 1), (0, 2)])
        matrices = tuple(c * Matrix.unit(3, i, j) * c.inverse() for i, j in pattern)
        path = tmp_path / "algebra.json"
        path.write_text(serialize_basis_document(BasisDocument(n=3, matrices=matrices)))
        assert main(["analyze", "radical", "--input", str(path)]) == 0
        out = capsys.readouterr().out
        rad = radical(algebra_from_basis(3, matrices))
        assert rad.dimension == (0 if semisimple else 2)
        assert out == serialize_basis_document(BasisDocument(n=3, matrices=tuple(rad.basis_matrices(3))))
        assert len(json.loads(out)["basis"]) == rad.dimension

    @pytest.mark.parametrize(
        "action, matrices, keys",
        [
            (
                "blocks",
                lambda: parabolic_subalgebra(Composition((1, 2))).basis_matrices(),
                ["n", "dimension", "radical_dimension", "semisimple_dimension", "split", "block_sizes", "lift_traces"],
            ),
            (
                "blocks",
                lambda: [Matrix.identity(2), Matrix([[0, 1], [10**24 + 7, 0]])],
                ["n", "dimension", "radical_dimension", "semisimple_dimension", "split", "block_sizes", "lift_traces"],
            ),
            (
                "is-parabolic",
                lambda: parabolic_subalgebra(Composition((2, 1))).basis_matrices(),
                ["n", "parabolic", "type", "witness"],
            ),
            (
                "is-parabolic",
                lambda: [Matrix.identity(2), Matrix.unit(2, 0, 0)],
                ["n", "parabolic", "type", "witness"],
            ),
            (
                "is-coideal",
                lambda: parabolic_coideal(Composition((1, 2))).space.basis_matrices(3),
                ["n", "coideal", "dimension", "failed_axiom", "counterexample", "failed_component"],
            ),
            (
                "is-coideal",
                lambda: [Matrix.identity(2)],
                ["n", "coideal", "dimension", "failed_axiom", "counterexample", "failed_component"],
            ),
            (
                "is-coideal",
                lambda: [Matrix.unit(3, 1, 0)],
                ["n", "coideal", "dimension", "failed_axiom", "counterexample", "failed_component"],
            ),
        ],
        ids=[
            "blocks-split", "blocks-not-split", "is-parabolic-yes", "is-parabolic-no",
            "is-coideal-yes", "is-coideal-counit", "is-coideal-comultiplication",
        ],
    )
    def test_analyze_json_keys_keep_their_order(self, action, matrices, keys, tmp_path, capsys):
        # dicts compare equal in any key order; the printed order is pinned here
        matrices = tuple(matrices())
        path = tmp_path / "input.json"
        path.write_text(serialize_basis_document(BasisDocument(n=matrices[0].rows, matrices=matrices)))
        assert main(["analyze", action, "--input", str(path)]) == 0
        assert list(json.loads(capsys.readouterr().out)) == keys

    def test_analyze_usage_lists_the_actions_in_order(self, capsys):
        with pytest.raises(SystemExit):
            main(["analyze"])
        assert "{closure,radical,blocks,is-parabolic,is-coideal,perp}" in capsys.readouterr().err

    def test_a_closed_pipe_exits_0(self, monkeypatch):
        class ClosedPipe:
            def write(self, text):
                raise BrokenPipeError

        monkeypatch.setattr("sys.stdout", ClosedPipe())
        assert main(["construct", "parabolic-algebra", "--type", "1,2"]) == 0

    def test_construct_coideal_and_perp_agree(self, tmp_path, capsys):
        alg = tmp_path / "a.json"
        coi = tmp_path / "c.json"
        main(["construct", "parabolic-algebra", "--type", "1,2", "--output", str(alg)])
        main(["construct", "parabolic-coideal", "--type", "1,2", "--output", str(coi)])
        assert main(["analyze", "perp", "--input", str(alg)]) == 0
        perp_doc = parse_basis_document(capsys.readouterr().out)
        assert perp_doc == parse_basis_document(coi.read_text())

    def test_type_sum_mismatch(self, capsys):
        code = main(["construct", "parabolic-algebra", "--type", "1,2", "--n", "4"])
        assert code == 2
        assert "sums to 3" in capsys.readouterr().err

    def test_document_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"n": 2, "field": "Q", "basis": [[["1","1/0"],["0","1"]]]}')
        assert main(["analyze", "closure", "--input", str(bad)]) == 2
        assert "zero denominator" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "template, where",
        [
            ('{"n": 1, "field": "Q", "basis": [[["%s"]]]}', "basis[0] row 0 col 0: "),
            ('{"n": 1, "field": "Q", "basis": [[["1/%s"]]]}', "basis[0] row 0 col 0: "),
            ('{"n": %s, "field": "Q", "basis": [[["1"]]]}', "a JSON number has "),
        ],
        ids=["numerator", "denominator", "n"],
    )
    def test_numbers_beyond_the_digit_limit_exit_2(self, template, where, tmp_path, capsys):
        # int() refuses more digits than the interpreter's int-string limit
        limit = sys.get_int_max_str_digits()
        path = tmp_path / "long.json"
        path.write_text(template % ("1" * (limit + 1)))
        assert main(["analyze", "radical", "--input", str(path)]) == 2
        assert capsys.readouterr().err == f"error: {where}more than {limit} digits\n"

    @pytest.mark.parametrize("depth", [3_000, 100_000])
    def test_deeply_nested_documents_exit_2(self, depth, tmp_path, capsys):
        # the JSON parser gives up on deep nesting with RecursionError
        path = tmp_path / "deep.json"
        path.write_text('{"n": 1, "field": "Q", "basis": %s%s}' % ("[" * depth, "]" * depth))
        assert main(["analyze", "radical", "--input", str(path)]) == 2
        assert capsys.readouterr().err == "error: not valid JSON: nested too deeply\n"

    def test_missing_file_exit_code(self, tmp_path, capsys):
        assert main(["analyze", "closure", "--input", str(tmp_path / "no.json")]) == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "--suite", "schur", "--n", "2"],
            ["construct", "parabolic-algebra", "--type", "1,2"],
        ],
    )
    def test_unwritable_output_exit_code(self, argv, tmp_path, capsys):
        # exit 1 means a failed verification, so a bad path must be 2
        out = tmp_path / "missing" / "r.txt"
        assert main(argv + ["--output", str(out)]) == 2
        assert f"cannot write {out}" in capsys.readouterr().err

    def test_non_algebra_input_exit_code(self, tmp_path, capsys):
        doc = BasisDocument(n=2, matrices=(Matrix.unit(2, 0, 1),))
        path = tmp_path / "open.json"
        path.write_text(serialize_basis_document(doc))
        assert main(["analyze", "radical", "--input", str(path)]) == 2

    def test_verify_pass_exit_code(self, tmp_path, capsys):
        out = tmp_path / "rep.txt"
        code = main(
            ["verify", "--suite", "schur", "--n", "2", "--seed", "1", "--output", str(out)]
        )
        assert code == 0
        assert out.read_text().endswith("result: PASS\n")

    def test_verify_unsupported_n_exit_code(self, capsys):
        assert main(["verify", "--suite", "schur", "--n", "7"]) == 2
        assert "does not support" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "option, value", [("--trials", "-1"), ("--trials", "0"), ("--budget", "-1")]
    )
    def test_verify_rejects_out_of_range_counts(self, option, value, capsys):
        code = main(["verify", "--suite", "all", "--n", "2..3", option, value])
        assert code == 2
        captured = capsys.readouterr()
        assert option[2:] in captured.err and captured.out == ""

    def test_verify_small_nil_budget_certifies_by_the_kernel_flag(self, capsys):
        # the budget caps only the expansion of Tr(X^k) for k >= 3: every
        # nil unit pattern at n = 3 is proved by its kernel flag, so the
        # report reads as at the default budget but for its budget line
        argv = ["verify", "--suite", "gerstenhaber", "--n", "3", "--trials", "1"]
        assert main(argv + ["--budget", "2"]) == 0
        out = capsys.readouterr().out
        assert main(argv) == 0
        default = capsys.readouterr().out
        assert "budget: 2\n" in out
        assert out.replace("budget: 2\n", "budget: default\n") == default
        assert "[pass] gerstenhaber/exhaustive-nil-max/n=3 expected=3 observed=3" in out
        assert "[pass] gerstenhaber/nil-pattern-count/n=3 expected=24 observed=24" in out

    def test_verify_range_parsing(self, capsys):
        code = main(["verify", "--suite", "optimal-type", "--n", "2..3"])
        assert code == 0
        text = capsys.readouterr().out
        assert "n: 2..3" in text

    @pytest.mark.parametrize("value", ["\u0663", "2..\u0663", "\u00b3", "\uff13"])
    def test_verify_range_rejects_digits_outside_ascii(self, value, capsys):
        with pytest.raises(SystemExit) as info:
            main(["verify", "--suite", "optimal-type", "--n", value])
        assert info.value.code == 2
        assert "invalid size range" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["\u00b2", "1,\u0662", "\uff12"])
    def test_type_rejects_digits_outside_ascii(self, value, capsys):
        with pytest.raises(SystemExit) as info:
            main(["construct", "parabolic-algebra", "--type", value])
        assert info.value.code == 2
        assert "invalid block type" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["٣", "1_0"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "--suite", "optimal-type", "--n", "2", "--seed"],
            ["verify", "--suite", "optimal-type", "--n", "2", "--trials"],
            ["verify", "--suite", "optimal-type", "--n", "2", "--budget"],
            ["construct", "parabolic-algebra", "--type", "1,1", "--n"],
        ],
    )
    def test_integer_options_take_ascii_digits_only(self, argv, value, capsys):
        # int() reads "٣" as 3 and "1_0" as 10
        with pytest.raises(SystemExit) as info:
            main(argv + [value])
        assert info.value.code == 2
        captured = capsys.readouterr()
        assert f"argument {argv[-1]}: invalid integer {value!r}" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("action", ["radical", "blocks", "is-parabolic"])
    def test_empty_basis_of_a_huge_n_exits_2(self, action, tmp_path, capsys, monkeypatch):
        # the n^2 identity vector at n = 10^6 would need terabytes
        def identity(cls, n):
            raise AssertionError(f"the identity of size {n} was built")

        monkeypatch.setattr(Matrix, "identity", classmethod(identity))
        path = tmp_path / "empty.json"
        path.write_text('{"n": 1000000, "field": "Q", "basis": []}')
        assert main(["analyze", action, "--input", str(path)]) == 2
        assert capsys.readouterr().err == "error: span does not contain the identity matrix\n"

    def test_empty_basis_of_a_huge_n_is_a_coideal(self, tmp_path, capsys, monkeypatch):
        # the n^2 coset images at n = 10^6 would need terabytes
        def coset_images(sub):
            raise AssertionError(f"coset images in dimension {sub.ambient_dim} were built")

        monkeypatch.setattr(coalgebra_module, "_coset_images", coset_images)
        path = tmp_path / "empty.json"
        path.write_text('{"n": 1000000, "field": "Q", "basis": []}')
        assert main(["analyze", "is-coideal", "--input", str(path)]) == 0
        assert json.loads(capsys.readouterr().out) == {
            "n": 1000000,
            "coideal": True,
            "dimension": 0,
            "failed_axiom": None,
            "counterexample": None,
            "failed_component": None,
        }

    def test_repeated_calls_match_separate_processes(self, tmp_path, capsys, monkeypatch):
        # the parser is built once per process and shared by every call
        assert _build_parser() is _build_parser()
        monkeypatch.setenv("COLUMNS", "80")
        path = tmp_path / "p.json"
        algebra = parabolic_subalgebra(Composition((1, 2)))
        path.write_text(
            serialize_basis_document(BasisDocument(n=3, matrices=tuple(algebra.basis_matrices())))
        )
        calls = [
            ["verify", "--suite", "bogus", "--n", "2"],
            ["analyze", "blocks", "--input", str(path)],
            ["--help"],
            ["analyze", "is-parabolic", "--input", str(path)],
            ["analyze", "radical"],
        ]
        source = str(Path(matalg.__file__).resolve().parents[1])
        path_var = os.pathsep.join(filter(None, [source, os.environ.get("PYTHONPATH")]))
        env = {**os.environ, "PYTHONPATH": path_var}
        separate = []
        for argv in calls:
            out = subprocess.run(
                [sys.executable, "-m", "matalg", *argv], capture_output=True, text=True, env=env
            )
            separate.append((out.returncode, out.stdout, out.stderr))
        together = []
        for argv in calls:
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            out = capsys.readouterr()
            together.append((code, out.out, out.err))
        assert together == separate
        assert [code for code, _, _ in together] == [2, 0, 0, 0, 2]

    def test_usage_error_exit_code(self):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--suite", "bogus", "--n", "2"])
        assert exc.value.code == 2

    def test_module_entry_point(self, tmp_path):
        # the child must import the same matalg, installed or not
        source = str(Path(matalg.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [source, os.environ.get("PYTHONPATH")]))
        out = subprocess.run(
            [sys.executable, "-m", "matalg", "verify", "--suite", "schur", "--n", "2"],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": path},
        )
        assert out.returncode == 0
        assert "result: PASS" in out.stdout
        assert "wall time" in out.stderr

    def test_stdin_input(self, tmp_path, capsys, monkeypatch):
        import io

        doc = BasisDocument(n=2, matrices=(Matrix.identity(2),))
        monkeypatch.setattr(
            "sys.stdin", io.StringIO(serialize_basis_document(doc))
        )
        assert main(["analyze", "is-coideal", "--input", "-"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["coideal"] is False
        assert payload["failed_axiom"] == "counit"
        assert payload["failed_component"] is None


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: parse_basis_document("[]"), DocumentError, "document root must be an object"),
        (
            lambda: parse_basis_document('{"n": 2, "field": "Q", "basis": {}}'),
            DocumentError,
            "basis must be a list of matrices",
        ),
        (
            lambda: parse_basis_document('{"n": 2, "field": "Q", "basis": [[["1", "0"], ["0"]]]}'),
            DocumentError,
            "basis[0] row 1: expected 2 entries",
        ),
        (lambda: BasisDocument(n=2, matrices=(), field="R"), DocumentError, "unsupported field 'R'; only Q"),
        (
            lambda: BasisDocument(n=2, matrices=(Matrix.identity(3),)),
            DocumentError,
            "basis[0]: expected a 2x2 matrix",
        ),
        (lambda: _parse_n_range("0..3"), argparse.ArgumentTypeError, "invalid size range '0..3'"),
        (lambda: _parse_n_range("3..2"), argparse.ArgumentTypeError, "invalid size range '3..2'"),
        (
            lambda: enumerate_unit_pattern_subalgebras(4),
            ValueError,
            "exhaustive enumeration is supported for n in {2, 3}",
        ),
        (lambda: run_verification("schur", (3, 2)), ValueError, "empty n range 3..2"),
    ],
    ids=[
        "root", "basis", "row", "field", "shape", "n-from-0", "n-decreasing", "enumerate",
        "empty-range",
    ],
)
def test_input_checks_raise(call, error, message):
    with pytest.raises(error) as exc:
        call()
    assert type(exc.value) is error and str(exc.value) == message
