"""End-to-end CLI behaviour: verbs, formats, exit codes, round trips."""

import decimal
import gc
import hashlib
import io
import json
import os
import string
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import polymf
from polymf import (
    MatrixFactorization,
    ParseError,
    PolyMatrix,
    Polynomial,
    SummandReducedPoly,
    cli,
    factorization,
    fixtures,
    parse_polynomial,
    refined,
    run_improved,
)
from polymf.cli import main

from conftest import factorizations, paper_srp, scaled_two_product_pair
from test_golden import DIGESTS, DOCUMENTS

# Parts I and II spelled unlike fixtures.PAPER_DOCUMENTS ("*", no spaces),
# so the CLI is tested on other texts of the same polynomials.
PART1 = {"terms": ["z*y"], "products": [["x*y^2+x^2*z+y*z^2", "x*y+z^2"]]}
PART2 = {"terms": ["x^5y^2"], "products": [["xy^2+x^2z+yz^2", "x^2z+y^2+y^2z"]]}
TWO_PRODUCT = fixtures.PAPER_DOCUMENTS["two_product"]
# refined size 2^(0 + 32 - 2 + 1) = 2^31, improved 2^32
HUGE = {
    "terms": ["w"],
    "products": [[" + ".join(f"{v}^{i}" for i in range(1, 17)) for v in "xy"]],
}
# standard size 2^14400, whose 4335 digits are past str()'s default limit
WIDE = {
    "terms": ["z"],
    "products": [[" + ".join(f"{v}^{i}" for i in range(1, 121)) for v in "xy"]],
}


# one group of four 150-term factors (4.4 KB): standard size 2^(150^4 - 1)
# is a 63 MB int, refined 2^596 and improved 2^599
FOUR_BY_150 = {"terms": [], "products": [[" + ".join(f"{v}^{i}" for i in range(1, 151)) for v in "xyzw"]]}
# three 200-term factors (4.5 KB): standard size 2^7999999, whose digits
# take minutes
THREE_BY_200 = {"terms": [], "products": [[" + ".join(f"{v}^{i}" for i in range(1, 201)) for v in "xyz"]]}
# three 100-term factors: standard size 2^999999; condition 3 of the
# summand-reduced check expands 10^6 products to validate it
THREE_BY_100 = {"terms": [], "products": [[" + ".join(f"{v}^{i}" for i in range(1, 101)) for v in "xyz"]]}


def power_of_two(e: int) -> str:
    """The decimal digits of 2^e, through the decimal module."""
    return str(decimal.Context(prec=e).power(decimal.Decimal(2), e))


@pytest.fixture
def part1_file(tmp_path):
    path = tmp_path / "part1.json"
    path.write_text(json.dumps(PART1))
    return str(path)


def run(argv):
    return main(argv)


def write_json(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def write_text(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def assert_error_line(capsys):
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


class TestFactorize:
    def test_refined_structured(self, part1_file, tmp_path):
        out = tmp_path / "out.json"
        code = run(["factorize", "--input", part1_file, "--format", "structured",
                    "--output", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["size"] == 16
        assert doc["method"] == "refined"
        assert doc["predicted_sizes"]["standard_size"] == 64
        assert doc["verification"]["mode"] == "exact"

    def test_improved_size(self, part1_file, tmp_path):
        out = tmp_path / "out.json"
        code = run(["factorize", "--input", part1_file, "--method", "improved",
                    "--format", "structured", "--output", str(out)])
        assert code == 0
        assert json.loads(out.read_text())["size"] == 32

    def test_standard_on_plain_polynomial(self, tmp_path, capsys):
        src = tmp_path / "poly.txt"
        src.write_text("x^2 + 4")
        code = run(["factorize", "--input", str(src), "--method", "standard"])
        assert code == 0
        assert "size = 2" in capsys.readouterr().out

    def test_standard_on_a_document_without_products(self, tmp_path, capsys):
        """The standard method still builds a terms-only document, which
        has no predicted sizes (validation is advisory by default)."""
        path = write_json(tmp_path, "terms.json", {"terms": ["x^2", "y^2"], "products": []})
        assert run(["factorize", "--input", path, "--method", "standard"]) == 0
        out = capsys.readouterr().out
        assert "size = 2" in out and "predicted sizes" not in out

    def test_standard_reads_standard_input(self, monkeypatch, capsys):
        monkeypatch.setattr(sys, "stdin", io.StringIO("x^2 + 4"))
        assert run(["factorize", "--input", "-", "--method", "standard"]) == 0
        assert "size = 2" in capsys.readouterr().out

    def test_failed_certificate_exit_code(self, part1_file, monkeypatch, capsys):
        """A pipeline pair with one slot corrupted (+1 on phi's first
        nonzero of its last row) exits 3 with the exact check's diagnostic
        as its one error line, and writes nothing."""
        mf = polymf.run_refined(paper_srp("part1"), verify="skip")
        rows = [list(row) for row in mf.phi.entries]
        j = next(j for j, e in enumerate(rows[-1]) if e)
        rows[-1][j] += Polynomial.const(1)
        bad = MatrixFactorization(mf.f, PolyMatrix(rows), mf.psi)
        monkeypatch.setattr(cli, "run_refined", lambda *args, **kwargs: bad)
        assert run(["factorize", "--input", part1_file]) == cli.EXIT_VERIFY
        ok, diag = factorization.verify_exact(bad)
        assert not ok and diag.startswith("phi*psi entry (15,")
        assert capsys.readouterr() == ("", f"error: verification failed: {diag}\n")

    def test_refined_rejects_plain_polynomial(self, tmp_path):
        src = tmp_path / "poly.txt"
        src.write_text("x^2 + 4")
        assert run(["factorize", "--input", str(src)]) == 2

    def test_parse_failure_exit_code(self, tmp_path):
        src = tmp_path / "poly.txt"
        src.write_text("x^2 +")
        assert run(["factorize", "--input", str(src), "--method", "standard"]) == 2

    @pytest.mark.parametrize("method", ["refined", "improved"])
    def test_predicted_size_gate_stops_before_construction(
        self, tmp_path, capsys, monkeypatch, method
    ):
        def never(*args, **kwargs):
            raise AssertionError("construction started")

        monkeypatch.setattr(cli, f"run_{method}", never)
        code = run(["factorize", "--input", write_json(tmp_path, "huge.json", HUGE),
                    "--method", method])
        assert code == 4
        err = capsys.readouterr().err
        assert err.startswith("error:") and str(2**31 if method == "refined" else 2**32) in err

    @pytest.mark.parametrize("method, size", [("refined", 2**9), ("improved", 2**11)])
    def test_paper_corpus_is_within_the_default_gate(self, tmp_path, method, size):
        out = tmp_path / "out.json"
        code = run(["factorize", "--input", write_json(tmp_path, "two.json", TWO_PRODUCT),
                    "--method", method, "--trials", "1", "--format", "structured",
                    "--output", str(out)])
        assert code == 0
        assert json.loads(out.read_text())["size"] == size

    def test_evaluation_cap_exit_code(self, tmp_path, capsys):
        # improved size 128 is certified at random points, where f has
        # degree 20003: about 400000 bits per value
        doc = {"terms": [], "products": [["x^20000y + z^2", "x + y"], ["x + z", "y + z"]]}
        code = run(["factorize", "--input", write_json(tmp_path, "deep.json", doc),
                    "--method", "improved"])
        assert code == 4
        assert_error_line(capsys)

    def test_plain_text_gate_stops_before_construction(self, tmp_path, capsys, monkeypatch):
        """The 14-term text x1 + ... + x14 predicts size 2^13 by the
        standard method, over the default 2^12."""
        def never(*args, **kwargs):
            raise AssertionError("construction started")

        src = tmp_path / "poly.txt"
        src.write_text(" + ".join(f"x{i}" for i in range(1, 15)))
        monkeypatch.setattr(refined, "standard_factorize", never)
        start = time.perf_counter()
        code = run(["factorize", "--input", str(src), "--method", "standard"])
        assert time.perf_counter() - start < 1.0
        assert code == 4
        err = capsys.readouterr().err
        assert err.startswith("error: standard construction skipped: predicted size 8192 exceeds 2^12")

    @pytest.mark.parametrize("terms, extra", [(13, []), (14, ["--max-standard-monomials", "14"])])
    def test_plain_text_within_the_gate_is_built(self, tmp_path, monkeypatch, terms, extra):
        """The text reaches the standard method as its terms-only
        document; a stand-in construction keeps the run small."""
        built = []

        def stand_in(srp, variant, *, max_monomials, verify):
            built.append((srp.s, srp.l))
            return fixtures.pair_m()

        src = tmp_path / "poly.txt"
        src.write_text(" + ".join(f"x{i}" for i in range(1, terms + 1)))
        monkeypatch.setattr(cli, "run_standard", stand_in)
        assert run(["factorize", "--input", str(src), "--method", "standard", *extra]) == 0
        assert built == [(terms, 0)]

    def test_exact_work_cap_exit_code(self, tmp_path, capsys):
        """Size 8192 at 14 summands per row: a forced exact check would
        take 1.6e6 term products, over the cap."""
        src = tmp_path / "poly.txt"
        src.write_text(" + ".join(f"x{i}" for i in range(1, 15)))
        code = run(["factorize", "--input", str(src), "--method", "standard",
                    "--max-standard-monomials", "14", "--verify", "exact"])
        assert code == 4
        assert "exact verification skipped" in capsys.readouterr().err

    def test_size_past_the_digit_limit_is_refused(self, tmp_path):
        code, out, err = run_captured(["factorize", "--input", write_json(tmp_path, "wide.json", WIDE),
                                       "--method", "standard"])
        assert code == 4 and out == ""
        assert err == ("error: standard construction skipped: predicted size 2^14400 exceeds 2^12 "
                       "(raise --max-standard-monomials to allow it)\n")

    @pytest.mark.parametrize("method, size", [("refined", 2**596), ("improved", 2**599), ("standard", "2^506249999")],
                             ids=["refined", "improved", "standard"])
    def test_cap_is_checked_on_exponents(self, tmp_path, monkeypatch, method, size):
        """No size is built before the cap refuses it."""
        def never(*args, **kwargs):
            raise AssertionError("construction started")

        for name in ("run_refined", "run_improved", "run_standard"):
            monkeypatch.setattr(cli, name, never)
        monkeypatch.setattr(SummandReducedPoly, "formal_monomials", never)
        path = write_json(tmp_path, "four.json", FOUR_BY_150)
        start = time.perf_counter()
        code, out, err = run_captured(["factorize", "--input", path, "--method", method])
        assert time.perf_counter() - start < 0.5
        assert (code, out) == (4, "")
        assert err == (f"error: {method} construction skipped: predicted size {size} exceeds 2^12 "
                       "(raise --max-standard-monomials to allow it)\n")

    def test_predicted_sizes_past_the_digit_limit_are_written(self, tmp_path):
        """2200 one-term factors: refined size 2, improved 2^2200, written
        in full however low the int digit limit is."""
        doc = {"terms": ["y"], "products": [["x"] * 2200]}
        path = write_json(tmp_path, "long.json", doc)
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            text = run_captured(["factorize", "--input", path])
            structured = run_captured(["factorize", "--input", path, "--format", "structured"])
        finally:
            sys.set_int_max_str_digits(limit)
        improved = power_of_two(2200)
        assert text[0] == 0 and f"  improved_size = {improved}\n" in text[1]
        assert structured[0] == 0 and f'"improved_size": {improved}, ' in structured[1]
        assert json.loads(structured[1])["predicted_sizes"]["improved_size"] == 2**2200

    @pytest.mark.parametrize("cap", ["0", "-3"])
    def test_cap_must_be_positive(self, tmp_path, capsys, cap):
        src = tmp_path / "poly.txt"
        src.write_text("x + y")
        with pytest.raises(SystemExit) as exc:
            run(["factorize", "--input", str(src), "--method", "standard", "--max-standard-monomials", cap])
        assert exc.value.code == 2
        assert "must be at least 1" in capsys.readouterr().err

    def test_cap_exceeded_exit_code(self, tmp_path):
        src = tmp_path / "part2.json"
        src.write_text(json.dumps(PART2))
        code = run(["factorize", "--input", str(src), "--method", "standard",
                    "--max-standard-monomials", "5"])
        assert code == 4

    def test_strict_validation_exit_code(self, tmp_path):
        src = tmp_path / "bad.json"
        src.write_text(json.dumps({"terms": ["x^7", "-y^5"], "products": []}))
        code = run(["factorize", "--input", str(src), "--method", "standard",
                    "--strict-validate"])
        assert code == 2

    @pytest.mark.parametrize("method", ["refined", "improved", "standard"])
    def test_strict_check_comes_after_the_cap_and_before_construction(self, part1_file, tmp_path, monkeypatch,
                                                                     method):
        """--strict-validate is the CLI's step, once per factorize: an
        invalid document exits 2 before run_* is entered, and one over the
        cap exits 4 unchecked, as condition 3 expands each product."""
        def spy(real, calls):
            return lambda *args, **kwargs: calls.append(args[0]) or real(*args, **kwargs)

        entered, checked = [], []
        for name in ("run_refined", "run_improved", "run_standard"):
            monkeypatch.setattr(cli, name, spy(getattr(cli, name), entered))
        check = spy(cli.validate_summand_reduced, checked)
        for module in (cli, refined):
            monkeypatch.setattr(module, "validate_summand_reduced", check)
        # fails condition 4; every size is 2^2
        bad = write_json(tmp_path, "bad.json", {"terms": ["zx"], "products": [["x + y"]]})
        argv = ["factorize", "--method", method, "--strict-validate", "--input"]
        code, out, err = run_captured([*argv, bad])
        assert (code, out, len(checked), entered) == (2, "", 1, [])
        assert err.startswith("error: input is not summand-reduced:\n") and "condition 4: FAIL" in err
        checked.clear()
        code, out, err = run_captured([*argv, bad, "--max-standard-monomials", "2"])
        assert (code, out, checked, entered) == (4, "", [], [])
        assert err.startswith(f"error: {method} construction skipped: predicted size 4 exceeds 2^1 ")
        code, out, err = run_captured([*argv, part1_file])
        assert (code, err, len(checked), len(entered)) == (0, "", 1, 1)

    def test_terms_only_document_is_checked_before_the_standard_cap(self, tmp_path):
        """A terms-only document has no predicted sizes, so --strict-validate
        checks it before run_standard's own cap: 14 terms fail condition 1
        (exit 2) rather than the cap (exit 4)."""
        path = write_text(tmp_path, "poly.txt", " + ".join(f"x{i}" for i in range(1, 15)))
        code, out, err = run_captured(["factorize", "--input", path, "--method", "standard", "--strict-validate"])
        assert (code, out) == (2, "")
        assert err.startswith("error: input is not summand-reduced:\ncondition 1: FAIL")

    @pytest.mark.parametrize("doc", [{"terms": ["x"], "products": []}, {"terms": [], "products": []}],
                             ids=["one_term", "empty"])
    @pytest.mark.parametrize("method", ["refined", "improved", "standard"])
    def test_strict_refusal_of_no_product_group_is_predicts(self, tmp_path, method, doc):
        """A document with no product group has no sizes to predict, so
        under --strict-validate every method prints predict's four-condition
        report, not the one line of the missing product group; without the
        flag the pipelines keep that line."""
        path = write_json(tmp_path, "doc.json", doc)
        expected = run_captured(["predict", "--input", path, "--strict-validate"])
        assert expected[0] == 2 and "condition 4: FAIL" in expected[2]
        code, out, err = run_captured(["factorize", "--input", path, "--method", method, "--strict-validate"])
        assert (code, out, err) == expected
        if method != "standard":
            code, out, err = run_captured(["factorize", "--input", path, "--method", method])
            assert (code, out) == (2, "")
            assert err == "error: input is not summand-reduced:\npipelines need at least one product group\n"

    def test_certificate_reports_the_trials_and_seed_that_ran(
        self, part1_file, tmp_path, monkeypatch
    ):
        calls = []
        real = factorization.verify_randomized

        def recording(mf, trials, seed):
            calls.append((trials, seed))
            return real(mf, trials=trials, seed=seed)

        monkeypatch.setattr(factorization, "verify_randomized", recording)
        out = tmp_path / "out.json"
        code = run(["factorize", "--input", part1_file, "--method", "standard",
                    "--verify", "randomized", "--trials", "3", "--seed", "99",
                    "--format", "structured", "--output", str(out)])
        assert code == 0
        assert calls == [(3, 99)]
        assert json.loads(out.read_text())["verification"] == {
            "mode": "randomized", "trials": 3, "seed": 99,
        }

    def test_string_terms_rejected(self, tmp_path, capsys):
        src = write_json(tmp_path, "doc.json", {"terms": "zy", "products": PART1["products"]})
        assert run(["factorize", "--input", src]) == 2
        assert_error_line(capsys)

    @pytest.mark.parametrize("doc", [
        [PART1],
        {"terms": ["zy"], "products": ["xy + z^2"]},
        {"terms": [1], "products": PART1["products"]},
    ])
    def test_malformed_structured_document_rejected(self, tmp_path, capsys, doc):
        assert run(["factorize", "--input", write_json(tmp_path, "doc.json", doc)]) == 2
        assert_error_line(capsys)

    def test_deterministic_structured_output(self, part1_file, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run(["factorize", "--input", part1_file, "--format", "structured",
             "--output", str(a)])
        run(["factorize", "--input", part1_file, "--format", "structured",
             "--output", str(b)])
        assert a.read_bytes() == b.read_bytes()



# What Polynomial.__str__ writes: none of it needs JSON escaping.
ENTRY_TEXT = st.text(alphabet=string.ascii_letters + string.digits + "^*/+- ", min_size=1, max_size=12)
PIPELINE_METHODS = {"run_refined": "refined", "run_improved": "improved", "run_standard": "standard"}


class TestStructuredWriter:
    """Structured factorize output is json.dumps of its document, byte for
    byte, though its phi and psi grids are joined row by row."""

    @given(st.lists(st.lists(ENTRY_TEXT, min_size=1, max_size=5), max_size=5))
    @settings(max_examples=200)
    def test_grid_is_its_json(self, rows):
        assert cli._json_grid(rows) == json.dumps(rows)

    @given(factorizations(), st.sampled_from(["refined", "improved", "standard"]), st.booleans())
    @settings(max_examples=50, deadline=None)
    def test_random_pair_document(self, mf, method, with_sizes):
        predicted = {"refined_size": 4, "improved_size": 8} if with_sizes else None
        record = factorization.certify(mf, "auto", 2, 0)
        doc = {**mf.to_dict(), "method": method, "predicted_sizes": predicted, "verification": record}
        assert cli._render_factorization(mf, method, "structured", predicted, record) == json.dumps(doc)

    @pytest.mark.parametrize("run_name,doc,variant", sorted(DIGESTS), ids=["-".join(k) for k in sorted(DIGESTS)])
    def test_pipeline_pair_document(self, tmp_path, run_name, doc, variant):
        terms, products = DOCUMENTS[doc]
        method = PIPELINE_METHODS[run_name]
        variant_flag = "--standard-variant" if method == "standard" else "--yoshino-variant"
        out = tmp_path / "pair.json"
        code = run(["factorize", "--input", write_json(tmp_path, "doc.json", {"terms": terms, "products": products}),
                    "--format", "structured", "--method", method, variant_flag, variant, "--output", str(out)])
        assert code == 0
        text = out.read_text()
        assert text == json.dumps(json.loads(text)) + "\n"
        # it opens with json.dumps(mf.to_dict()), the golden pair
        pair = text[: text.index(', "method": ')] + "}"
        assert hashlib.sha256(pair.encode()).hexdigest() == DIGESTS[run_name, doc, variant]


class TestVerify:
    def test_round_trip(self, part1_file, tmp_path):
        out = tmp_path / "out.json"
        run(["factorize", "--input", part1_file, "--format", "structured",
             "--output", str(out)])
        assert run(["verify", "--input", str(out)]) == 0

    def test_long_coefficients_round_trip(self, tmp_path):
        sevens = "7" * 3000
        doc = {"terms": ["zy"], "products": [[f"{sevens}x + y", f"{sevens}z + w"]]}
        out = tmp_path / "out.json"
        assert run(["factorize", "--input", write_json(tmp_path, "long.json", doc),
                    "--format", "structured", "--output", str(out)]) == 0
        assert parse_polynomial(json.loads(out.read_text())["f"]) == SummandReducedPoly.from_strings(
            doc["terms"], doc["products"]
        ).expanded_polynomial()
        assert run(["verify", "--input", str(out)]) == 0

    def test_paper_fixtures_pass(self, tmp_path):
        for name, mf in (("p1", fixtures.part1_pair()), ("p2", fixtures.part2_pair())):
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(mf.to_dict()))
            assert run(["verify", "--input", str(path)]) == 0

    def test_sign_flip_fails_with_location(self, tmp_path, capsys):
        doc = fixtures.part2_pair().to_dict()
        doc["phi"][0][0] = "-" + doc["phi"][0][0]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert run(["verify", "--input", str(path)]) == 3
        assert "entry" in capsys.readouterr().out

    def test_malformed_file(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text("{not json")
        assert run(["verify", "--input", str(path)]) == 2

    def test_json_array_rejected(self, tmp_path, capsys):
        path = write_json(tmp_path, "mf.json", [fixtures.pair_m().to_dict()])
        assert run(["verify", "--input", path]) == 2
        assert_error_line(capsys)

    def test_shape_mismatch_rejected(self, tmp_path, capsys):
        doc = fixtures.pair_m().to_dict()
        doc["psi"] = [["y"]]
        assert run(["verify", "--input", write_json(tmp_path, "mf.json", doc)]) == 2
        assert_error_line(capsys)

    @pytest.mark.parametrize("doc", [
        {"f": "x^2", "size": 1, "phi": ["x"], "psi": ["x"]},
        {"f": 5, "size": 1, "phi": [["x"]], "psi": [["x"]]},
        {"f": "x^2", "size": 1, "phi": [["x"]], "psi": [[1]]},
        {"f": "x^2", "size": True, "phi": [["x"]], "psi": [["x"]]},
        {"f": "x^2", "size": 1.0, "phi": [["x"]], "psi": [["x"]]},
        {"f": "x^2", "size": 0, "phi": [], "psi": []},
        {"f": "x^2", "size": 2, "phi": [["x", "0"], ["0"]], "psi": [["x", "0"], ["0", "x"]]},
        {"f": "x^2", "size": 2, "phi": [["x", "0"], ["0", "x"]], "psi": [["x", "0", "0"], ["0", "x"]]},
        {"f": "x^2", "size": 2, "phi": [["x", 0], ["0", "x"]], "psi": [["x", "0"], ["0", "x"]]},
        {"f": "x^2", "size": 2, "phi": [["x", "0"], ["0", "x"]], "psi": [["x", None], ["0", "x"]]},
        {"f": "x^2", "size": 2, "phi": [["x", "0"], "0x"], "psi": [["x", "0"], ["0", "x"]]},
        {"f": "x^2", "size": 2, "phi": [["x", "0"], ["0", "x"]], "psi": [["x", "0"], ["0", "x"], ["x", "0"]]},
        {"f": "x^2", "size": 2, "phi": [["x", "0"], ["0", "x"]], "psi": [["x", "0", "0"], ["0", "x", "0"]]},
    ])
    def test_malformed_pair_document_rejected(self, tmp_path, capsys, doc):
        assert run(["verify", "--input", write_json(tmp_path, "mf.json", doc)]) == 2
        assert_error_line(capsys)

    @pytest.mark.parametrize("key", ["f", "phi", "psi"])
    def test_missing_key_is_named(self, tmp_path, capsys, key):
        doc = fixtures.pair_m().to_dict()
        del doc[key]
        assert run(["verify", "--input", write_json(tmp_path, "mf.json", doc)]) == 2
        err = capsys.readouterr().err
        assert err == f"error: cannot parse factorization file: a factorization document needs the key {key!r}\n"

    @pytest.mark.parametrize("entry, code", [("-y", 0), ("y", 3)], ids=["twin", "twin_sign_dropped"])
    def test_sign_twins_are_verified(self, tmp_path, entry, code):
        """psi's "-y" reads as the negation of phi's "y" (phi's "- y" is
        no twin of "y"): the pair verifies, and the same pair with that
        sign dropped fails."""
        doc = {"f": "x^2 + y^2", "phi": [["x", "- y"], ["y", "x"]], "psi": [["x", "y"], [entry, "x"]]}
        assert run(["verify", "--input", write_json(tmp_path, "mf.json", doc), "--output", str(tmp_path / "v.txt")]) == code

    def test_corrupted_randomized_pair_fails(self, tmp_path, capsys):
        mf = run_improved(paper_srp("no_monomial"), verify="skip")
        doc = mf.to_dict()
        doc["phi"][3][4] = str(mf.phi.entries[3][4] + Polynomial.const(1))
        path = write_json(tmp_path, "mf.json", doc)
        assert run(["verify", "--input", path, "--format", "structured"]) == 3
        report = json.loads(capsys.readouterr().out)
        assert report["pass"] is False and report["size"] == 128
        assert (report["mode"], report["trials"], report["seed"]) == ("randomized", 8, 0)

    def test_evaluation_cap_stops_before_any_trial(self, tmp_path, capsys, monkeypatch):
        def never(p, point):
            raise AssertionError("a trial started")

        n, x_e = 65, "x^1000000"
        doc = {
            "f": x_e,
            "size": n,
            "phi": [["1" if i == j else "0" for j in range(n)] for i in range(n)],
            "psi": [[x_e if i == j else "0" for j in range(n)] for i in range(n)],
        }
        path = write_json(tmp_path, "mf.json", doc)
        monkeypatch.setattr(Polynomial, "evaluate", never)
        start = time.perf_counter()
        code = run(["verify", "--input", path, "--trials", "1"])
        assert time.perf_counter() - start < 1.0
        assert code == 4
        assert_error_line(capsys)

    def test_trial_work_cap_stops_before_any_trial(self, tmp_path, capsys, monkeypatch):
        def never(p, point):
            raise AssertionError("a trial started")

        path = write_json(tmp_path, "mf.json", scaled_two_product_pair().to_dict())
        monkeypatch.setattr(Polynomial, "evaluate", never)
        assert run(["verify", "--input", path, "--trials", "1"]) == 4
        assert_error_line(capsys)

    def test_total_trial_work_cap_stops_before_any_trial(self, tmp_path, capsys, monkeypatch):
        """At about 0.5 ms a trial, 10^8 trials of the improved 128 pair
        would run for hours; their total work is refused at once."""
        def never(p, point):
            raise AssertionError("a trial started")

        path = write_json(tmp_path, "mf.json", run_improved(paper_srp("no_monomial"), verify="skip").to_dict())
        assert run(["verify", "--input", path]) == 0
        capsys.readouterr()
        monkeypatch.setattr(Polynomial, "evaluate", never)
        start = time.perf_counter()
        code = run(["verify", "--input", path, "--trials", "100000000"])
        assert time.perf_counter() - start < 1.0
        assert code == 4
        assert_error_line(capsys)

    def test_exact_work_cap_stops_before_any_product(self, tmp_path, capsys, monkeypatch):
        """A 1x1 pair of two 1200-term entries is refused at once, whatever
        its f."""
        def never(a, b):
            raise AssertionError("a product started")

        a = " + ".join(f"x^{i}" for i in range(1200))
        b = " + ".join(f"x^{i}y" for i in range(1200))
        path = write_json(tmp_path, "mf.json", {"f": "x", "size": 1, "phi": [[a]], "psi": [[b]]})
        monkeypatch.setattr(factorization, "mat_mul", never)
        start = time.perf_counter()
        code = run(["verify", "--input", path])
        assert time.perf_counter() - start < 1.0
        assert code == 4
        assert_error_line(capsys)

    def test_trials_must_be_positive(self, tmp_path):
        path = write_json(tmp_path, "mf.json", fixtures.pair_m().to_dict())
        with pytest.raises(SystemExit) as exc:
            run(["verify", "--input", path, "--verify", "randomized", "--trials", "0"])
        assert exc.value.code == 2

    def test_structured_report(self, tmp_path, capsys):
        path = tmp_path / "mf.json"
        path.write_text(json.dumps(fixtures.pair_m().to_dict()))
        assert run(["verify", "--input", str(path), "--format", "structured"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["pass"] is True and doc["mode"] == "exact"


class TestNoCyclicGarbage:
    @pytest.mark.parametrize("argv", [
        ["factorize", "--method", "refined"],
        ["factorize", "--method", "improved"],
        ["factorize", "--method", "standard"],
        ["verify", "--verify", "exact"],
        ["verify", "--verify", "randomized"],
    ], ids=lambda argv: f"{argv[0]}-{argv[2]}")
    def test_a_call_leaves_no_cycle(self, part1_file, tmp_path, argv):
        """factorize and verify free everything they make by reference
        counts: with the cycle collector off around a call, it then finds
        nothing to collect."""
        pair = str(tmp_path / "pair.json")
        run(["factorize", "--input", part1_file, "--format", "structured", "--output", pair])
        source = part1_file if argv[0] == "factorize" else pair
        argv = [*argv, "--input", source, "--output", str(tmp_path / "out.txt")]
        run(argv)  # a first call may set up what later calls reuse
        gc.collect()
        gc.disable()
        try:
            code = run(argv)
            garbage = gc.collect()
        finally:
            gc.enable()
        assert (code, garbage) == (0, 0)


def write_with_open_w(path: str, text: str) -> None:
    """The output writer before files were rewritten in place: the
    reference for the bytes a file output must hold."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
        if not text.endswith("\n"):
            fh.write("\n")


class TestOutputFile:
    """--output rewrites a file in place, with the bytes, inode, mode
    and links that open(path, "w") would leave."""

    @pytest.mark.parametrize("fmt", ["text", "structured"])
    def test_overwriting_a_longer_file_leaves_exactly_the_new_bytes(
        self, part1_file, tmp_path, monkeypatch, fmt
    ):
        argv = ["factorize", "--input", part1_file, "--format", fmt, "--output"]
        out = tmp_path / "out"
        out.write_bytes(b"#" * 300_000)
        assert run([*argv, str(out)]) == 0
        reference = tmp_path / "reference"
        monkeypatch.setattr(cli, "_write_output", write_with_open_w)
        assert run([*argv, str(reference)]) == 0
        assert out.read_bytes() == reference.read_bytes()
        assert out.read_bytes().endswith(b"\n") and b"#" not in out.read_bytes()

    def test_new_file_mode_follows_the_umask(self, part1_file, tmp_path):
        out = tmp_path / "new.txt"
        old = os.umask(0o027)
        try:
            assert run(["predict", "--input", part1_file, "--output", str(out)]) == 0
        finally:
            os.umask(old)
        assert out.stat().st_mode & 0o777 == 0o666 & ~0o027

    def test_existing_file_keeps_its_mode_inode_and_links(self, part1_file, tmp_path):
        out = tmp_path / "out.txt"
        out.write_text("x" * 10_000)
        out.chmod(0o600)
        alias = tmp_path / "hardlink.txt"
        os.link(out, alias)
        inode = out.stat().st_ino
        assert run(["predict", "--input", part1_file, "--output", str(out)]) == 0
        assert out.stat().st_ino == inode and out.stat().st_mode & 0o777 == 0o600
        assert alias.read_bytes() == out.read_bytes()
        assert out.read_text().startswith("standard_size = ")

    def test_symlinked_output_writes_through_to_its_target(self, part1_file, tmp_path):
        target = tmp_path / "target.txt"
        target.write_text("x" * 10_000)
        link = tmp_path / "link.txt"
        link.symlink_to(target)
        assert run(["predict", "--input", part1_file, "--output", str(link)]) == 0
        assert link.is_symlink()
        reference = tmp_path / "reference.txt"
        assert run(["predict", "--input", part1_file, "--output", str(reference)]) == 0
        assert target.read_bytes() == reference.read_bytes()

    @pytest.mark.parametrize("command", ["factorize", "predict"])
    def test_device_output(self, part1_file, command):
        assert run([command, "--input", part1_file, "--output", os.devnull]) == 0

    def test_never_opened_with_truncation(self, part1_file, tmp_path, monkeypatch):
        flags_seen = []
        real_open = os.open

        def spy(path, flags, *args, **kwargs):
            flags_seen.append(flags)
            return real_open(path, flags, *args, **kwargs)

        monkeypatch.setattr(os, "open", spy)
        out = tmp_path / "out.json"
        out.write_text("x" * 10_000)
        for fmt in ("text", "structured"):
            assert run(["factorize", "--input", part1_file, "--format", fmt,
                        "--output", str(out)]) == 0
        assert len(flags_seen) == 2
        assert all(f & os.O_CREAT and not f & os.O_TRUNC for f in flags_seen)

    @pytest.mark.parametrize("command", ["factorize", "verify", "predict", "demo"])
    @pytest.mark.parametrize("where", ["missing_dir", "directory"])
    def test_unwritable_output_is_an_error_line(self, part1_file, tmp_path, command, where):
        source = part1_file
        if command == "verify":
            source = write_json(tmp_path, "pair.json", fixtures.pair_m().to_dict())
        out = tmp_path / "missing" / "out.json" if where == "missing_dir" else tmp_path
        inputs = [] if command == "demo" else ["--input", source]
        code, _, err = run_captured([command, *inputs, "--output", str(out)])
        assert code == cli.EXIT_PARSE
        assert err.startswith("error: cannot write output: ") and err.count("\n") == 1
        assert "Traceback" not in err


class TestParser:
    def test_built_once_per_process(self, tmp_path, monkeypatch, capsys):
        built = []
        build = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build())
        cli._parser.cache_clear()
        try:
            path = write_json(tmp_path, "two.json", TWO_PRODUCT)
            assert run(["predict", "--input", path]) == 0
            assert run(["predict", "--input", path, "--format", "structured"]) == 0
            with pytest.raises(SystemExit) as exc:
                run(["predict", "--trials", "0"])
            assert exc.value.code == 2
        finally:
            cli._parser.cache_clear()
        assert len(built) == 1
        assert "refined_size = 512" in capsys.readouterr().out


class TestPredict:
    def test_two_product_report(self, tmp_path, capsys):
        src = tmp_path / "two.json"
        src.write_text(json.dumps({
            "terms": ["zy"],
            "products": [["xy^2+x^2z+yz^2", "xy+z^2"],
                         ["yz+xy^2+x^2", "x^3z^2+yx+y^2"]],
        }))
        assert run(["predict", "--input", str(src), "--format", "structured"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["standard_size"] == 2**15
        assert doc["improved_size"] == 2**11
        assert doc["refined_size"] == 2**9
        assert doc["ratio_refined_vs_improved"] == 4

    def test_sizes_past_the_digit_limit(self, tmp_path):
        path = write_json(tmp_path, "wide.json", WIDE)
        standard, ratio = power_of_two(14400), power_of_two(14400 - 239)
        assert run_captured(["predict", "--input", path]) == (0, "\n".join([
            f"standard_size = {standard}", f"improved_size = {2**240}", f"refined_size = {2**239}",
            f"ratio_refined_vs_standard = {ratio}", "ratio_refined_vs_improved = 2",
        ]) + "\n", "")
        code, out, err = run_captured(["predict", "--input", path, "--format", "structured"])
        assert (code, err) == (0, "")
        assert out == (f'{{"standard_size": {standard}, "improved_size": {2**240}, "refined_size": {2**239}, '
                       f'"ratio_refined_vs_standard": {ratio}, "ratio_refined_vs_improved": 2}}\n')

    @pytest.mark.parametrize("fmt", ["text", "structured"])
    def test_sizes_past_the_printing_limit_are_refused(self, tmp_path, fmt):
        path = write_json(tmp_path, "three.json", THREE_BY_200)
        start = time.perf_counter()
        code, out, err = run_captured(["predict", "--input", path, "--format", fmt])
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (4, "")
        assert err == ("error: sizes of 2^65536 or more are not printed: standard_size = 2^7999999, "
                       "ratio_refined_vs_standard = 2^7999402\n")

    @pytest.mark.parametrize("doc, code", [
        (THREE_BY_100, 4),
        ({"terms": [], "products": [["x + y", "z"]]}, 2),
        ({"terms": ["x"], "products": []}, 2),
    ], ids=["too_long", "one_product", "no_product"])
    def test_printing_limit_comes_before_validation(self, tmp_path, monkeypatch, doc, code):
        """--strict-validate checks only a document whose sizes predict
        prints: three 100-term factors (standard size 2^999999) exit 4 at
        once, with condition 3's expansion never run; a printable document
        that fails condition 1, and one with no product group and so no
        sizes, are validated and exit 2 with the report."""
        real = cli.validate_summand_reduced
        calls = []
        monkeypatch.setattr(cli, "validate_summand_reduced", lambda srp: calls.append(srp) or real(srp))
        path = write_json(tmp_path, "doc.json", doc)
        start = time.perf_counter()
        got, out, err = run_captured(["predict", "--input", path, "--strict-validate"])
        assert time.perf_counter() - start < 1.0
        assert (got, out, len(calls)) == (code, "", 1 if code == 2 else 0)
        if code == 4:
            assert err == ("error: sizes of 2^65536 or more are not printed: standard_size = 2^999999, "
                           "ratio_refined_vs_standard = 2^999702\n")
        else:
            assert err.startswith("error: input is not summand-reduced:\ncondition 1: FAIL")

    @pytest.mark.parametrize("terms, code", [([], 0), (["w"], 4)])
    def test_printing_limit_boundary(self, tmp_path, terms, code):
        """Two 256-term factors: standard size 2^65535 is printed, and one
        more term makes it 2^65536, which is refused."""
        doc = {"terms": terms, "products": [[" + ".join(f"{v}^{i}" for i in range(1, 257)) for v in "xy"]]}
        got, out, err = run_captured(["predict", "--input", write_json(tmp_path, "doc.json", doc)])
        assert got == code
        if code == 0:
            assert out.startswith(f"standard_size = {power_of_two(65535)}\n") and err == ""
        else:
            assert out == "" and err == ("error: sizes of 2^65536 or more are not printed: "
                                         "standard_size = 2^65536\n")

    def test_needs_structured_input(self, tmp_path):
        src = tmp_path / "poly.txt"
        src.write_text("x^2 + 4")
        assert run(["predict", "--input", str(src)]) == 2

    @pytest.mark.parametrize(
        "doc", [{"terms": [], "products": []}, {"terms": ["x"], "products": []}], ids=["empty", "terms_only"]
    )
    def test_needs_a_product_group(self, tmp_path, capsys, doc):
        path = write_json(tmp_path, "doc.json", doc)
        assert run(["predict", "--input", path]) == 2
        assert_error_line(capsys)
        assert run(["predict", "--input", path, "--format", "structured"]) == 2
        assert_error_line(capsys)
        assert run(["factorize", "--input", path]) == 2


class TestDemo:
    def test_all_cases_pass(self, capsys):
        assert run(["demo"]) == 0
        out = capsys.readouterr().out
        assert "9/9 demo cases passed" in out
        assert "FAIL" not in out

    def test_a_wrong_value_fails_its_cases(self, monkeypatch):
        """A refined pipeline that returns the 2x2 pair M fails the two
        cases that build refined sizes, and only those."""
        monkeypatch.setattr(cli, "run_refined", lambda *args, **kwargs: fixtures.pair_m())
        code, out, err = run_captured(["demo"])
        assert (code, err) == (cli.EXIT_DEMO_FAILURE, "")
        lines = out.splitlines()
        assert [line.split(":")[0] for line in lines if line.startswith("FAIL")] == [
            "FAIL  part-I pipelines (16, 32, 64)", "FAIL  part-II refined (32) and predictions"]
        assert any(line.startswith("FAIL  part-I pipelines (16, 32, 64): got ") for line in lines)
        assert lines[-1] == "7/9 demo cases passed"

    def test_an_invalid_pair_fails_its_cases(self, monkeypatch):
        """The constructions return unchecked pairs, so the two size cases
        certify theirs: a standard method and a reduced tensor product
        whose pairs have the right size but f + 1 as f fail those cases."""
        for name in ("standard_factorize_polynomial", "reduced_tensor"):
            real = getattr(cli, name)
            monkeypatch.setattr(cli, name, lambda *args, real=real: off_by_one(real(*args)))
        code, out, err = run_captured(["demo"])
        assert (code, err) == (cli.EXIT_DEMO_FAILURE, "")
        lines = out.splitlines()
        assert [line.split(":")[0] for line in lines if line.startswith("FAIL")] == [
            "FAIL  standard method sizes (h=2, g=4)", "FAIL  tensor product sizes (8, 16, 16)"]
        assert lines[-1] == "7/9 demo cases passed"


def off_by_one(mf: MatrixFactorization) -> MatrixFactorization:
    """mf's factors as a pair of f + 1, which they do not factor."""
    return MatrixFactorization(mf.f + Polynomial.const(1), mf.phi, mf.psi)


# Polynomial text and its terms-only document: the canonical monomials of
# the text, in canonical order, with no product group.
TEXT_AND_DOCUMENT = [
    ("xy + z^2 + 3/2 w^3", {"terms": ["3/2w^3", "xy", "z^2"], "products": []}),
    ("x^2 + 4 + x^2", {"terms": ["2x^2", "4"], "products": []}),
    ("x - 1/3", {"terms": ["x", "-1/3"], "products": []}),
]


class TestTextIsATermsOnlyDocument:
    @pytest.mark.parametrize("fmt", ["text", "structured"])
    @pytest.mark.parametrize("variant", ["standard", "v1", "v2"])
    @pytest.mark.parametrize("text, doc", TEXT_AND_DOCUMENT, ids=["rational", "combined", "constant"])
    def test_standard_method_output_is_the_same(self, tmp_path, text, doc, variant, fmt):
        outs = [run_captured(["factorize", "--input", source, "--method", "standard",
                              "--standard-variant", variant, "--format", fmt])
                for source in (write_text(tmp_path, "poly.txt", text), write_json(tmp_path, "doc.json", doc))]
        assert outs[0] == outs[1] and outs[0][0] == 0 and outs[0][2] == ""

    @pytest.mark.parametrize("argv", [
        ["predict"],
        ["factorize", "--method", "refined"],
        ["factorize", "--method", "improved"],
        ["factorize", "--method", "standard", "--strict-validate"],
        ["predict", "--strict-validate"],
    ], ids=["predict", "refined", "improved", "strict", "predict_strict"])
    def test_refusals_are_the_same(self, tmp_path, argv):
        text, doc = TEXT_AND_DOCUMENT[0]
        outs = [run_captured([*argv, "--input", source])
                for source in (write_text(tmp_path, "poly.txt", text), write_json(tmp_path, "doc.json", doc))]
        assert outs[0] == outs[1]
        code, out, err = outs[0]
        assert (code, out) == (cli.EXIT_PARSE, "")
        assert err.startswith("error: input is not summand-reduced:\n") and err.count("error:") == 1

    def test_cap_refuses_text_before_any_monomial_is_built(self, tmp_path, monkeypatch):
        """x1 + ... + x14 is refused at exponent 13, as its document is."""
        def never(*args, **kwargs):
            raise AssertionError("construction started")

        monkeypatch.setattr(SummandReducedPoly, "formal_monomials", never)
        names = [f"x{i}" for i in range(1, 15)]
        outs = [run_captured(["factorize", "--input", source, "--method", "standard"])
                for source in (write_text(tmp_path, "poly.txt", " + ".join(names)),
                               write_json(tmp_path, "doc.json", {"terms": names, "products": []}))]
        assert outs[0] == outs[1] == (cli.EXIT_CAP, "", "error: standard construction skipped: predicted size "
                                      "8192 exceeds 2^12 (raise --max-standard-monomials to allow it)\n")

    @pytest.mark.parametrize("source, method", [
        ("0", "standard"),
        ("x - x", "standard"),
        (json.dumps({"terms": [], "products": []}), "standard"),
        (json.dumps({"terms": ["x", "-x"], "products": []}), "standard"),
        (json.dumps({"terms": ["x"], "products": [["x", "-1"]]}), "refined"),
    ], ids=["zero", "cancelled", "empty_document", "cancelling_terms", "cancelling_product"])
    def test_zero_polynomial_is_refused(self, tmp_path, source, method):
        path = write_text(tmp_path, "input.txt", source)
        assert run_captured(["factorize", "--input", path, "--method", method]) == (
            cli.EXIT_PARSE, "", "error: cannot factor the zero polynomial\n")



# Each flag with a value to give it and the value it parses to, and the
# flags each verb reads.
FLAGS = {
    "--input": (["doc.json"], "doc.json"),
    "--output": (["out.txt"], "out.txt"),
    "--method": (["standard"], "standard"),
    "--yoshino-variant": (["v1"], "v1"),
    "--standard-variant": (["v2"], "v2"),
    "--verify": (["exact"], "exact"),
    "--trials": (["3"], 3),
    "--seed": (["7"], 7),
    "--format": (["structured"], "structured"),
    "--strict-validate": ([], True),
    "--max-standard-monomials": (["5"], 5),
}
VERB_FLAGS = {
    "factorize": set(FLAGS),
    "verify": {"--input", "--output", "--verify", "--trials", "--seed", "--format"},
    "predict": {"--input", "--output", "--format", "--strict-validate"},
    "demo": {"--output"},
}


class TestVerbFlags:
    @pytest.mark.parametrize("verb, flag", [(verb, flag) for verb in VERB_FLAGS for flag in FLAGS])
    def test_each_verb_takes_only_the_flags_it_reads(self, verb, flag):
        argv, value = FLAGS[flag]
        if flag in VERB_FLAGS[verb]:
            args = cli.build_parser().parse_args([verb, flag, *argv])
            assert getattr(args, flag[2:].replace("-", "_")) == value
            return
        err = io.StringIO()
        with redirect_stderr(err), pytest.raises(SystemExit) as exc:
            main([verb, flag, *argv])
        assert exc.value.code == 2
        assert err.getvalue().startswith("usage: polymf ")
        assert f"unrecognized arguments: {flag}" in err.getvalue() and "Traceback" not in err.getvalue()


class TestPackage:
    def test_import_is_light_and_module_runs_cleanly(self):
        env = {**os.environ, "PYTHONPATH": str(Path(polymf.__file__).resolve().parents[1])}
        probe = "import sys, polymf; print(sorted({'numpy', 'argparse'} & set(sys.modules)))"
        loaded = subprocess.run([sys.executable, "-c", probe], env=env,
                                capture_output=True, text=True, check=True)
        assert loaded.stdout.strip() == "[]"
        demo = subprocess.run([sys.executable, "-W", "error", "-m", "polymf.cli", "demo"],
                              env=env, capture_output=True, text=True)
        assert demo.returncode == 0, demo.stderr


def run_captured(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def unparsable(text: str) -> bool:
    try:
        parse_polynomial(text)
    except ParseError:
        return True
    return False


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)
NON_OBJECTS = JSON_VALUES.filter(lambda v: not isinstance(v, dict))
BAD_TEXT = st.sampled_from(["", "x^", "x +", "(x)", "x^-2", "1/0", "x ** y", "2.5x", "x^y", "\u00e9"]) | (
    st.text(alphabet="xy019+-*/^ (.", max_size=8).filter(unparsable)
)


def is_string_list(value) -> bool:
    return isinstance(value, list) and all(isinstance(x, str) for x in value)


def is_string_grid(value) -> bool:
    return isinstance(value, list) and all(is_string_list(row) for row in value)


@st.composite
def malformed_problems(draw):
    """A structured document with one defect, or a JSON value that is
    not an object."""
    doc = json.loads(json.dumps(PART1))
    kind = draw(st.sampled_from([
        "non_object", "terms_type", "products_type", "terms_text", "products_text", "fixed",
    ]))
    if kind == "non_object":
        return draw(NON_OBJECTS)
    if kind == "terms_type":
        doc["terms"] = draw(JSON_VALUES.filter(lambda v: not is_string_list(v)))
    elif kind == "products_type":
        doc["products"] = draw(JSON_VALUES.filter(lambda v: not is_string_grid(v)))
    elif kind == "terms_text":
        doc["terms"] = [draw(BAD_TEXT)]
    elif kind == "products_text":
        doc["products"] = [["xy + z^2", draw(BAD_TEXT)]]
    else:
        doc = draw(st.sampled_from([
            {**doc, "products": [[]]},
            {**doc, "products": [["0", "x"]]},
            {**doc, "terms": ["x + y"]},
            {**doc, "terms": ["0"]},
            {"terms": ["x"], "products": []},
            {},
        ]))
    return doc


@st.composite
def malformed_pairs(draw):
    """A serialized pair with one defect (or a wrong entry, which must
    fail verification), or a JSON value that is not an object."""
    doc = fixtures.pair_m().to_dict()
    name = draw(st.sampled_from(["phi", "psi"]))
    i, j = draw(st.integers(0, 1)), draw(st.integers(0, 1))
    kind = draw(st.sampled_from([
        "non_object", "f_type", "f_text", "size_type", "size_value", "matrix_type",
        "ragged", "entry_type", "entry_text", "missing", "wrong_entry",
    ]))
    if kind == "non_object":
        return draw(NON_OBJECTS)
    if kind == "f_type":
        doc["f"] = draw(JSON_VALUES.filter(lambda v: not isinstance(v, str)))
    elif kind == "f_text":
        doc["f"] = draw(BAD_TEXT)
    elif kind == "size_type":
        doc["size"] = draw(JSON_VALUES.filter(lambda v: type(v) is not int))
    elif kind == "size_value":
        doc["size"] = draw(st.integers().filter(lambda n: n != 2))
    elif kind == "matrix_type":
        doc[name] = draw(JSON_VALUES.filter(lambda v: not is_string_grid(v) or len(v) != 2))
    elif kind == "ragged":
        doc[name][i] = doc[name][i][:1] if draw(st.booleans()) else doc[name][i] + ["x"]
    elif kind == "entry_type":
        doc[name][i][j] = draw(JSON_VALUES.filter(lambda v: not isinstance(v, str)))
    elif kind == "entry_text":
        doc[name][i][j] = draw(BAD_TEXT)
    elif kind == "missing":
        del doc[draw(st.sampled_from(["f", "phi", "psi"]))]
    else:
        doc[name][i][j] = str(parse_polynomial(doc[name][i][j]) + Polynomial.const(1))
    return doc


def assert_documented_failure(code: int, err: str) -> None:
    assert code in (cli.EXIT_PARSE, cli.EXIT_VERIFY, cli.EXIT_CAP)
    assert "Traceback" not in err
    if code != cli.EXIT_VERIFY:
        assert err.startswith("error:")


class TestMalformedDocuments:
    """Malformed input ends in a documented exit code and an error line,
    never a traceback."""

    @given(doc=malformed_problems())
    @settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_factorize(self, tmp_path, doc):
        code, _, err = run_captured(["factorize", "--input", write_json(tmp_path, "doc.json", doc)])
        assert_documented_failure(code, err)

    @given(doc=malformed_pairs())
    @settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_verify(self, tmp_path, doc):
        code, _, err = run_captured(["verify", "--input", write_json(tmp_path, "mf.json", doc)])
        assert_documented_failure(code, err)

    @pytest.mark.parametrize("command", ["factorize", "verify", "predict"])
    @pytest.mark.parametrize("content", [b"\xff\xfe{", b"[" * 100000], ids=["not_utf8", "deep"])
    def test_undecodable_input(self, tmp_path, command, content):
        path = tmp_path / "doc.json"
        path.write_bytes(content)
        code, _, err = run_captured([command, "--input", str(path)])
        assert code == cli.EXIT_PARSE and err.startswith("error:")
