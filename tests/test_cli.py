"""Document parsing, verification reports, and the command-line surface."""

import json
import subprocess
import sys
from fractions import Fraction

import pytest

from matalg.cli.documents import (
    BasisDocument,
    DocumentError,
    format_rational,
    parse_basis_document,
    parse_rational,
    serialize_basis_document,
)
from matalg.cli.main import main
from matalg.cli.suites import (
    corpus_algebras,
    enumerate_unit_pattern_subalgebras,
    run_verification,
    suite_supported_ns,
)
from matalg.exactlin import Matrix


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

    def test_n_must_be_positive_int(self):
        for bad_n in (0, -1, True, "2"):
            with pytest.raises(DocumentError):
                parse_basis_document(
                    json.dumps({"n": bad_n, "field": "Q", "basis": []})
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

    def test_supported_ranges(self):
        assert suite_supported_ns("dimension-formula") == frozenset(range(2, 9))
        assert suite_supported_ns("gerstenhaber") == frozenset({3, 4})
        assert 8 in suite_supported_ns("all")

    def test_trials_override_shrinks_work(self):
        rep = run_verification("maximality", (2, 2), seed=0, trials=3)
        assert rep.passed
        assert "3/3" in rep.to_text()


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
        assert payload["block_sizes"] == [1, 2]
        assert payload["radical_dimension"] == 2

    def test_analyze_blocks_splits_diagonal_n10(self, tmp_path, capsys):
        doc = BasisDocument(n=10, matrices=tuple(Matrix.unit(10, i, i) for i in range(10)))
        path = tmp_path / "diagonal.json"
        path.write_text(serialize_basis_document(doc))
        assert main(["analyze", "blocks", "--input", str(path)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["split"] is True
        assert payload["block_sizes"] == [1] * 10

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

    def test_verify_small_nil_budget_fails_without_crashing(self, capsys):
        argv = ["verify", "--suite", "gerstenhaber", "--n", "3", "--trials", "1"]
        assert main(argv + ["--budget", "2"]) == 1
        out = capsys.readouterr().out
        assert (
            "[FAIL] gerstenhaber/exhaustive-nil-max/n=3 expected=3 "
            "observed=no pattern certified" in out
        )

    def test_verify_range_parsing(self, capsys):
        code = main(["verify", "--suite", "optimal-type", "--n", "2..3"])
        assert code == 0
        text = capsys.readouterr().out
        assert "n: 2..3" in text

    def test_usage_error_exit_code(self):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--suite", "bogus", "--n", "2"])
        assert exc.value.code == 2

    def test_module_entry_point(self, tmp_path):
        out = subprocess.run(
            [sys.executable, "-m", "matalg", "verify", "--suite", "schur", "--n", "2"],
            capture_output=True,
            text=True,
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
