"""End-to-end CLI behaviour: verbs, formats, exit codes, round trips."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import polymf
from polymf import Polynomial, SummandReducedPoly, factorization, fixtures, run_improved
from polymf.cli import main

PART1 = {"terms": ["z*y"], "products": [["x*y^2+x^2*z+y*z^2", "x*y+z^2"]]}
PART2 = {"terms": ["x^5y^2"], "products": [["xy^2+x^2z+yz^2", "x^2z+y^2+y^2z"]]}
NO_MONOMIAL = {"terms": [], "products": [["xy + z^2", "x + y"], ["x + z", "y + z"]]}


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

    def test_refined_rejects_plain_polynomial(self, tmp_path):
        src = tmp_path / "poly.txt"
        src.write_text("x^2 + 4")
        assert run(["factorize", "--input", str(src)]) == 2

    def test_parse_failure_exit_code(self, tmp_path):
        src = tmp_path / "poly.txt"
        src.write_text("x^2 +")
        assert run(["factorize", "--input", str(src), "--method", "standard"]) == 2

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


class TestVerify:
    def test_round_trip(self, part1_file, tmp_path):
        out = tmp_path / "out.json"
        run(["factorize", "--input", part1_file, "--format", "structured",
             "--output", str(out)])
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
    ])
    def test_malformed_pair_document_rejected(self, tmp_path, capsys, doc):
        assert run(["verify", "--input", write_json(tmp_path, "mf.json", doc)]) == 2
        assert_error_line(capsys)

    def test_corrupted_randomized_pair_fails(self, tmp_path, capsys):
        mf = run_improved(
            SummandReducedPoly.from_strings(NO_MONOMIAL["terms"], NO_MONOMIAL["products"]),
            verify="skip",
        )
        doc = mf.to_dict()
        doc["phi"][3][4] = str(mf.phi.entries[3][4] + Polynomial.const(1))
        path = write_json(tmp_path, "mf.json", doc)
        assert run(["verify", "--input", path, "--format", "structured"]) == 3
        report = json.loads(capsys.readouterr().out)
        assert report["pass"] is False and report["size"] == 128
        assert (report["mode"], report["trials"], report["seed"]) == ("randomized", 8, 0)

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

    def test_needs_structured_input(self, tmp_path):
        src = tmp_path / "poly.txt"
        src.write_text("x^2 + 4")
        assert run(["predict", "--input", str(src)]) == 2


class TestDemo:
    def test_all_cases_pass(self, capsys):
        assert run(["demo"]) == 0
        out = capsys.readouterr().out
        assert "9/9 demo cases passed" in out
        assert "FAIL" not in out

    def test_seed_override_is_harmless(self, capsys):
        assert run(["demo", "--seed", "12345"]) == 0
        assert "9/9" in capsys.readouterr().out


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
