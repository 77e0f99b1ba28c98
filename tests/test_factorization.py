"""Factorization verification (exact and randomized) and morphisms."""

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polymf import (
    EXACT_SIZE_THRESHOLD,
    EvaluationCapError,
    MatrixFactorization,
    MatrixError,
    Morphism,
    Polynomial,
    PolyMatrix,
    SummandReducedPoly,
    VerificationError,
    certify,
    compose,
    from_strings,
    identity,
    identity_morphism,
    is_morphism,
    kron,
    make_factorization,
    mat_mul,
    parse_polynomial,
    run_improved,
    run_refined,
    run_standard,
    scalar_matrix,
    scalar_morphism,
    verify_exact,
    verify_randomized,
)
from polymf import factorization, fixtures
from polymf.factorization import (
    COORDINATE_BOUND,
    DEFAULT_TRIALS,
    EVALUATION_BIT_CAP,
    EXACT_WORK_CAP,
    TRIAL_WORK_CAP,
)

from conftest import factorizations, nonzero_polynomials, poly_matrices, polynomials, relaid, scaled_two_product_pair


def with_phi_entry(mf, i, j, value):
    """mf with phi[i][j] replaced by value; psi and f unchanged."""
    rows = [list(row) for row in mf.phi.entries]
    rows[i][j] = value
    return MatrixFactorization(mf.f, PolyMatrix(rows), mf.psi)


def pair_p_case():
    good = fixtures.pair_p()
    return good, with_phi_entry(good, 2, 1, parse_polynomial("x^3"))


PART2 = (["x^5y^2"], [["xy^2 + x^2z + yz^2", "x^2z + y^2 + y^2z"]])
TWO_PRODUCT = (
    ["zy"],
    [["xy^2 + x^2z + yz^2", "xy + z^2"], ["yz + xy^2 + x^2", "x^3z^2 + yx + y^2"]],
)


def plus_one_case(run, doc, size):
    """The pair run builds from doc (terms, products), of the given size
    above the exact threshold, and the same pair with one phi entry +1."""
    good = run(SummandReducedPoly.from_strings(*doc), verify="skip")
    assert good.size == size > EXACT_SIZE_THRESHOLD
    return good, with_phi_entry(good, 5, 9, good.phi.entries[5][9] + Polynomial.const(1))


def improved_128_case(products):
    """The improved pair of a no-monomial document (size 128), and the
    same pair with one phi entry +1."""
    return plus_one_case(run_improved, ([], products), 128)


def paper_pairs():
    """The pipelines' pairs of the paper corpus: part I, part II and the
    two-product example (up to size 2048)."""
    part1 = (["zy"], [["xy^2 + x^2z + yz^2", "xy + z^2"]])
    for doc in (part1, PART2, TWO_PRODUCT):
        srp = SummandReducedPoly.from_strings(*doc)
        yield run_refined(srp, verify="skip")
        yield run_improved(srp, verify="skip")
        if doc is not TWO_PRODUCT:  # 2^15 by the standard method
            yield run_standard(srp, verify="skip")


class TestVerifyExact:
    def test_intro_pair(self):
        ok, diag = verify_exact(fixtures.simple_quadratic())
        assert ok and diag == "ok"

    def test_failure_names_the_entry(self):
        mf = MatrixFactorization(
            parse_polynomial("x^2 + 4"),
            from_strings([["x", "-2"], ["2", "x"]]),
            from_strings([["x", "2"], ["2", "x"]]),  # sign flipped
        )
        ok, diag = verify_exact(mf)
        assert not ok
        assert "entry (0,0)" in diag and "expected" in diag

    def test_constructor_rejects_bad_pairs(self):
        with pytest.raises(VerificationError):
            make_factorization(
                parse_polynomial("x^2"),
                from_strings([["x"]]),
                from_strings([["y"]]),
            )

    def test_constructor_rejects_non_square(self):
        with pytest.raises(MatrixError):
            make_factorization(
                parse_polynomial("x"),
                from_strings([["x", "0"]]),
                from_strings([["1"], ["0"]]),
            )

    @given(factorizations())
    @settings(max_examples=100)
    def test_standard_constructions_verify(self, mf):
        assert verify_exact(mf)[0]

    @pytest.mark.parametrize(
        "mf, products",
        [
            (fixtures.part1_pair(), 1),
            # f = 0: phi*psi = 0 does not imply psi*phi = 0
            (MatrixFactorization(Polynomial.zero(), from_strings([["x"]]), from_strings([["0"]])), 2),
        ],
        ids=["f_nonzero", "f_zero"],
    )
    def test_one_product_unless_f_is_zero(self, monkeypatch, mf, products):
        mat_mul = factorization.mat_mul
        calls = []

        def counting(a, b):
            calls.append((a, b))
            return mat_mul(a, b)

        monkeypatch.setattr(factorization, "mat_mul", counting)
        assert verify_exact(mf) == (True, "ok")
        assert len(calls) == products


class TestVerifyRandomized:
    def test_valid_pair_never_fails(self):
        mf = fixtures.part1_pair()
        for seed in range(5):
            assert verify_randomized(mf, trials=3, seed=seed)

    @pytest.mark.parametrize(
        "case",
        [
            pair_p_case,
            lambda: improved_128_case([["xy + z^2", "x + y"], ["x + z", "y + z"]]),
            lambda: improved_128_case([["1/2xy + z^2", "x + 2/3y"], ["x + 3/7z", "y + z"]]),
            lambda: plus_one_case(run_refined, TWO_PRODUCT, 512),
            lambda: plus_one_case(run_standard, PART2, 512),
        ],
        ids=["pair_p", "improved_128", "improved_128_rational", "refined_512", "standard_512"],
    )
    def test_detects_a_corrupted_entry(self, case):
        good, bad = case()
        assert verify_randomized(good, trials=4, seed=0)
        assert not verify_randomized(bad, trials=4, seed=0)

    @given(factorizations(), st.data())
    @settings(max_examples=100, deadline=None)
    def test_agrees_with_exact_check(self, mf, data):
        i = data.draw(st.integers(0, mf.size - 1))
        j = data.draw(st.integers(0, mf.size - 1))
        bad = with_phi_entry(mf, i, j, mf.phi.entries[i][j] + Polynomial.const(1))
        for candidate in (mf, bad):
            assert verify_randomized(candidate, trials=2) == verify_exact(candidate)[0]

    def test_zero_polynomial_checks_both_orders(self):
        # phi*psi = 0 but psi*phi != 0: for f = 0 one order proves nothing
        mf = MatrixFactorization(
            Polynomial.zero(),
            from_strings([["1", "0"], ["0", "0"]]),
            from_strings([["0", "0"], ["1", "0"]]),
        )
        assert not verify_exact(mf)[0]
        assert not verify_randomized(mf, trials=1)

    @pytest.mark.parametrize("trials", [1, 3])
    def test_evaluates_each_distinct_entry_once_per_trial(self, monkeypatch, trials):
        good, _ = improved_128_case([["xy + z^2", "x + y"], ["x + z", "y + z"]])
        distinct = {e for m in (good.phi, good.psi) for _, _, e in m.nonzeros()}
        evaluate = Polynomial.evaluate
        calls = []

        def counting(p, point):
            calls.append(p)
            return evaluate(p, point)

        monkeypatch.setattr(Polynomial, "evaluate", counting)
        assert verify_randomized(good, trials=trials)
        assert len(calls) == trials * (len(distinct) + 1)

    @pytest.mark.parametrize("seed", range(10))
    def test_points_are_the_randint_draws(self, monkeypatch, seed):
        mf = fixtures.part2_pair()
        evaluate = Polynomial.evaluate
        points = []

        def recording(p, point):
            if not points or points[-1] is not point:
                points.append(point)
            return evaluate(p, point)

        monkeypatch.setattr(Polynomial, "evaluate", recording)
        assert verify_randomized(mf, trials=3, seed=seed)
        # the reference draws x, then r, trial by trial, with randint
        rng, b = random.Random(seed), COORDINATE_BOUND
        entries = [e for m in (mf.phi, mf.psi) for _, _, e in m.nonzeros()]
        variables = sorted(mf.f.variables().union(*(e.variables() for e in entries)))
        want = []
        for _ in range(3):
            want.append({v: rng.randint(-b, b) for v in variables})
            [rng.randint(-b, b) for _ in range(mf.size)]
        assert [dict(point) for point in points] == want

    def test_deterministic_given_seed(self):
        mf = fixtures.pair_n()
        assert verify_randomized(mf, trials=2, seed=7) == verify_randomized(
            mf, trials=2, seed=7
        )

    def test_trials_must_be_positive(self):
        with pytest.raises(ValueError):
            verify_randomized(fixtures.pair_m(), trials=0)

    def test_auto_mode_threshold(self):
        # a 1x1 pair is verified exactly under auto; sabotage is caught
        with pytest.raises(VerificationError):
            make_factorization(
                parse_polynomial("xy"),
                from_strings([["x"]]),
                from_strings([["x"]]),
                verify="auto",
            )
        assert EXACT_SIZE_THRESHOLD == 64


class TestEvaluationCap:
    def test_refused_before_any_trial(self, monkeypatch):
        def never(p, point):
            raise AssertionError("a trial started")

        x_e = parse_polynomial("x^1000000")
        n = EXACT_SIZE_THRESHOLD + 1
        mf = MatrixFactorization(x_e, identity(n), scalar_matrix(x_e, n))
        monkeypatch.setattr(Polynomial, "evaluate", never)
        with pytest.raises(EvaluationCapError, match="20000003 bits"):
            certify(mf)

    def test_paper_corpus_is_far_below_the_cap(self):
        for mf in paper_pairs():
            entries = {e for m in (mf.phi, mf.psi) for _, _, e in m.nonzeros()}
            bits = max(p.value_bits(COORDINATE_BOUND) for p in (*entries, mf.f))
            assert bits < EVALUATION_BIT_CAP // 100

    def test_trial_work_refused_before_any_trial(self, monkeypatch):
        mf = scaled_two_product_pair()
        entries = {e for m in (mf.phi, mf.psi) for _, _, e in m.nonzeros()}
        assert max(p.value_bits(COORDINATE_BOUND) for p in (*entries, mf.f)) <= EVALUATION_BIT_CAP

        def never(p, point):
            raise AssertionError("a trial started")

        monkeypatch.setattr(Polynomial, "evaluate", never)
        with pytest.raises(EvaluationCapError, match="64-bit words"):
            certify(mf, trials=1)

    def test_paper_pipelines_are_far_below_the_work_cap(self, monkeypatch):
        work = []
        estimate = factorization._trial_work

        def recorded(*args):
            work.append(estimate(*args))
            raise StopTrial

        monkeypatch.setattr(factorization, "_trial_work", recorded)
        for mf in paper_pairs():
            with pytest.raises(StopTrial):
                verify_randomized(mf, trials=1)
        assert len(work) == 8
        assert max(work) * 100 <= TRIAL_WORK_CAP


    def test_all_trials_together_are_capped(self, monkeypatch):
        """A run may take DEFAULT_TRIALS trials at the one-trial cap, and
        no more work than that in all: more trials are refused before
        any runs."""
        monkeypatch.setattr(factorization, "_trial_work", lambda *args: TRIAL_WORK_CAP)
        mf = fixtures.pair_m()
        assert verify_randomized(mf, trials=DEFAULT_TRIALS)

        def never(p, point):
            raise AssertionError("a trial started")

        monkeypatch.setattr(Polynomial, "evaluate", never)
        with pytest.raises(EvaluationCapError, match=f"{DEFAULT_TRIALS + 1} trials"):
            verify_randomized(mf, trials=DEFAULT_TRIALS + 1)


def long_pair(terms: int, f: Polynomial | None = None) -> MatrixFactorization:
    """The 1x1 pair ([a], [b]) of two `terms`-term entries, a factorization
    of f, by default of a*b (2 * terms - 1 terms)."""
    a = parse_polynomial(" + ".join(f"x^{i}" for i in range(terms)))
    b = parse_polynomial(" + ".join(f"x^{i}y" for i in range(terms)))
    return MatrixFactorization(a * b if f is None else f, PolyMatrix([[a]]), PolyMatrix([[b]]))


class TestExactWorkCap:
    def test_refused_before_any_product(self, monkeypatch):
        def never(a, b):
            raise AssertionError("a product started")

        # the cap comes before any check, so f need not be a*b
        mf = long_pair(1200, parse_polynomial("x"))
        monkeypatch.setattr(factorization, "mat_mul", never)
        with pytest.raises(EvaluationCapError, match="1440000 term products"):
            verify_exact(mf)
        with pytest.raises(EvaluationCapError):
            certify(mf, "exact")

    def test_both_orders_count_when_f_is_zero(self, monkeypatch):
        x, y = parse_polynomial("x + 1"), parse_polynomial("y + 1")
        monkeypatch.setattr(factorization, "EXACT_WORK_CAP", 4)
        assert verify_exact(MatrixFactorization(x * y, PolyMatrix([[x]]), PolyMatrix([[y]])))[0]
        with pytest.raises(EvaluationCapError, match="8 term products"):
            verify_exact(MatrixFactorization(Polynomial.zero(), PolyMatrix([[x]]), PolyMatrix([[y]])))

    @given(poly_matrices(2, 3, polynomials()), poly_matrices(3, 2, polynomials()))
    @settings(max_examples=50)
    def test_estimate_counts_the_term_products(self, a, b):
        products = sum(
            a[i, k].num_terms() * b[k, j].num_terms()
            for i in range(2) for k in range(3) for j in range(2)
        )
        assert factorization._product_work(a, b) == products

    @given(poly_matrices(3, 2, polynomials()), poly_matrices(2, 3, polynomials()), st.integers(0, 2**32))
    @settings(max_examples=50)
    def test_estimate_is_the_brute_force_count_on_any_table(self, a, b, seed):
        for x, y in ((a, b), (relaid(a, seed), relaid(b, seed + 1)), (b, a)):
            assert factorization._product_work(x, y) == brute_force_work(x, y)

    def test_estimate_is_the_brute_force_count_on_pipeline_pairs(self):
        for mf in small_pipeline_pairs():
            for a, b in ((mf.phi, mf.psi), (mf.psi, mf.phi)):
                assert factorization._product_work(a, b) == brute_force_work(a, b)

    def test_paper_pipelines_are_below_the_cap(self):
        """The improved 2048 pair peaks at half the cap, and is still
        checked exactly when asked."""
        work = {mf.size: factorization._product_work(mf.phi, mf.psi) for mf in paper_pairs()}
        assert max(work.values()) == work[2048] == EXACT_WORK_CAP // 2
        improved = run_improved(SummandReducedPoly.from_strings(*TWO_PRODUCT), verify="skip")
        assert certify(improved, "exact") == {"mode": "exact"}

    def test_failure_diagnostic_is_bounded(self):
        good = long_pair(300)
        mf = MatrixFactorization(good.f + parse_polynomial("1"), good.phi, good.psi)
        ok, diag = verify_exact(mf)
        assert not ok and diag.startswith("phi*psi entry (0,0) is ")
        assert len(diag) < 600
        assert f"({good.f.num_terms()} terms)" in diag and f"({mf.f.num_terms()} terms)" in diag


def brute_force_work(a, b) -> int:
    """The term products of a*b, counted slot by slot."""
    rows_of_b = {}
    for k, _, e in b.nonzeros():
        rows_of_b.setdefault(k, []).append(e)
    return sum(e.num_terms() * f.num_terms() for _, k, e in a.nonzeros() for f in rows_of_b.get(k, []))


def small_pipeline_pairs():
    """The refined, improved and standard pairs of parts I and II."""
    part1 = (["zy"], [["xy^2 + x^2z + yz^2", "xy + z^2"]])
    for doc in (part1, PART2):
        srp = SummandReducedPoly.from_strings(*doc)
        for run in (run_refined, run_improved, run_standard):
            yield run(srp, verify="skip")


class TestTableLayout:
    """A pair whose tables list their values in another order, each twice,
    checks exactly as the pair does."""

    @pytest.mark.parametrize("seed", range(3))
    def test_relaid_pipeline_pairs_check_alike(self, seed):
        for mf in small_pipeline_pairs():
            again = MatrixFactorization(mf.f, relaid(mf.phi, seed), relaid(mf.psi, seed + 1))
            assert again.phi == mf.phi and hash(again.psi) == hash(mf.psi)
            assert again.to_dict() == mf.to_dict()
            assert -again.phi == -mf.phi
            assert mat_mul(again.phi, again.psi) == mat_mul(mf.phi, mf.psi)
            assert verify_exact(again) == verify_exact(mf) == (True, "ok")
            assert verify_randomized(again, trials=2, seed=seed) and verify_randomized(mf, trials=2, seed=seed)
            wrong = MatrixFactorization(mf.f + Polynomial.const(1), again.phi, again.psi)
            assert not verify_exact(wrong)[0] and not verify_randomized(wrong, trials=1, seed=seed)

    @given(factorizations(), factorizations(max_steps=1), st.integers(0, 2**32))
    @settings(max_examples=50, deadline=None)
    def test_relaid_factorizations_check_alike(self, x, y, seed):
        again = MatrixFactorization(x.f, relaid(x.phi, seed), relaid(x.psi, seed + 1))
        assert verify_exact(again)[0] and verify_randomized(again, trials=1, seed=seed)
        assert kron(again.phi, y.phi) == kron(x.phi, y.phi)
        assert again.phi.texts() == x.phi.texts()


class StopTrial(Exception):
    """Raised in place of a trial once its work is estimated."""


class TestCertify:
    def test_auto_is_exact_up_to_the_threshold(self):
        assert certify(fixtures.part1_pair()) == {"mode": "exact"}

    def test_auto_is_randomized_above_it(self):
        good, _ = improved_128_case([["xy + z^2", "x + y"], ["x + z", "y + z"]])
        record = certify(good, trials=2, seed=5)
        assert record == {"mode": "randomized", "trials": 2, "seed": 5}

    def test_failure_carries_the_record(self):
        _, bad = pair_p_case()
        with pytest.raises(VerificationError) as exc:
            certify(bad, "randomized", trials=3, seed=1)
        assert exc.value.record == {"mode": "randomized", "trials": 3, "seed": 1}
        with pytest.raises(VerificationError, match="entry"):
            certify(bad, "exact")

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            certify(fixtures.pair_m(), "skip")


class TestSerialization:
    def test_round_trip(self):
        mf = fixtures.pair_y()
        doc = json.loads(json.dumps(mf.to_dict()))
        again = MatrixFactorization.from_dict(doc)
        assert again.f == mf.f and again.phi == mf.phi and again.psi == mf.psi

    def test_shared_table_formats_each_used_entry_once(self, monkeypatch):
        """The factors of the refined two-product pair share one table:
        each entry either of them uses is formatted once, into the grids
        of their own texts()."""
        mf = run_refined(SummandReducedPoly.from_strings(*TWO_PRODUCT), verify="skip")
        assert mf.phi.table is mf.psi.table
        want = {"f": str(mf.f), "size": mf.size, "phi": mf.phi.texts(), "psi": mf.psi.texts()}
        used = set().union(*mf.phi.indices, *mf.psi.indices)
        formatted = []
        real = Polynomial.__str__
        monkeypatch.setattr(Polynomial, "__str__", lambda q: formatted.append(q) or real(q))
        assert mf.to_dict() == want
        # one more call formats f
        assert len(formatted) == len(used) + 1

    def test_size_field_is_checked(self):
        doc = fixtures.pair_m().to_dict()
        doc["size"] = 3
        with pytest.raises(MatrixError):
            MatrixFactorization.from_dict(doc)


class TestMorphisms:
    def test_identity_is_a_morphism(self):
        assert is_morphism(identity_morphism(fixtures.pair_m()))

    def test_scalar_morphism(self):
        mf = fixtures.pair_p()
        assert is_morphism(scalar_morphism(mf, parse_polynomial("x + 2y")))

    def test_non_morphism_detected(self):
        mf = fixtures.pair_m()
        bad = Morphism(mf, mf, mf.phi, mf.psi)
        assert not is_morphism(bad)

    def test_composition_of_scalars(self):
        mf = fixtures.pair_m()
        a = scalar_morphism(mf, parse_polynomial("x"))
        b = scalar_morphism(mf, parse_polynomial("y"))
        c = compose(b, a)
        assert is_morphism(c)
        assert c.alpha == scalar_morphism(mf, parse_polynomial("xy")).alpha

    @given(factorizations(), nonzero_polynomials())
    @settings(max_examples=100)
    def test_scalar_morphisms_always_commute(self, mf, h):
        assert is_morphism(scalar_morphism(mf, h))
