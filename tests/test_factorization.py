"""Factorization verification (exact and randomized) and morphisms."""

import json
import random
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from polymf import (
    EXACT_SIZE_THRESHOLD,
    EvaluationCapError,
    MatrixFactorization,
    MatrixError,
    Polynomial,
    PolyMatrix,
    SummandReducedPoly,
    VerificationError,
    block2x2,
    certify,
    direct_sum,
    from_strings,
    identity,
    kron,
    make_factorization,
    mat_mul,
    parse_polynomial,
    run_improved,
    run_refined,
    run_standard,
    scalar_matrix,
    verify_exact,
    verify_randomized,
)
from polymf import cli, factorization, fixtures, matrix
from polymf.factorization import (
    COORDINATE_BOUND,
    DEFAULT_TRIALS,
    EVALUATION_BIT_CAP,
    EXACT_WORK_CAP,
    TRIAL_WORK_CAP,
)

from conftest import (
    factorizations,
    flipped,
    materialized,
    nonzero_polynomials,
    paper_srp,
    poly_matrices,
    polynomials,
    relaid,
    scaled_two_product_pair,
)
from laws import Morphism, compose, identity_morphism, is_morphism, scalar_morphism, transpose


def with_phi_entry(mf, i, j, value):
    """mf with phi[i][j] replaced by value; psi and f unchanged."""
    rows = [list(row) for row in mf.phi.entries]
    rows[i][j] = value
    return MatrixFactorization(mf.f, PolyMatrix(rows), mf.psi)


def pair_p_case():
    good = fixtures.pair_p()
    return good, with_phi_entry(good, 2, 1, parse_polynomial("x^3"))


PART1, PART2, TWO_PRODUCT, NO_MONOMIAL = map(paper_srp, ("part1", "part2", "two_product", "no_monomial"))

# Pipeline pairs of the paper corpus and the no-monomial document, up to
# the refined two-product pair (512).
PIPELINE_PAIRS = [
    (run_refined, PART1), (run_improved, PART1), (run_standard, PART1),
    (run_refined, PART2), (run_improved, PART2),
    (run_refined, TWO_PRODUCT),
    (run_refined, NO_MONOMIAL), (run_improved, NO_MONOMIAL),
]
PIPELINE_IDS = [
    "refined-part1", "improved-part1", "standard-part1", "refined-part2", "improved-part2",
    "refined-two_product", "refined-no_monomial", "improved-no_monomial",
]


def plus_one_case(run, srp, size):
    """The pair run builds from srp, of the given size above the exact
    threshold, and the same pair with one phi entry +1."""
    good = run(srp, verify="skip")
    assert good.size == size > EXACT_SIZE_THRESHOLD
    return good, with_phi_entry(good, 5, 9, good.phi.entries[5][9] + Polynomial.const(1))


def improved_128_case(products):
    """The improved pair of a no-monomial document (size 128), and the
    same pair with one phi entry +1."""
    return plus_one_case(run_improved, SummandReducedPoly.from_strings([], products), 128)


def paper_pairs():
    """The pipelines' pairs of the paper corpus: part I, part II and the
    two-product example (up to size 2048)."""
    for srp in (PART1, PART2, TWO_PRODUCT):
        yield run_refined(srp, verify="skip")
        yield run_improved(srp, verify="skip")
        if srp is not TWO_PRODUCT:  # 2^15 by the standard method
            yield run_standard(srp, verify="skip")


class TestVerifyExact:
    def test_intro_pair(self):
        ok, diag = verify_exact(fixtures.simple_quadratic())
        assert ok and diag == "ok"

    @pytest.mark.parametrize("run, srp", PIPELINE_PAIRS, ids=PIPELINE_IDS)
    def test_a_pipeline_product_stores_f_once(self, run, srp):
        mf = run(srp, verify="skip")
        product = mat_mul(mf.phi, mf.psi)
        assert product.table == (mf.f,)
        assert product == scalar_matrix(mf.f, mf.size)

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

    def test_constructor_rejects_factors_of_two_sizes(self):
        with pytest.raises(MatrixError, match="factor size mismatch: 1 vs 2"):
            MatrixFactorization(parse_polynomial("x"), identity(1), identity(2))

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
        """One evaluation per distinct table value and one of f, per trial:
        a slot of the negation of an entry negates its entry's int."""
        good, _ = improved_128_case([["xy + z^2", "x + y"], ["x + z", "y + z"]])
        distinct = set(good.phi.table) | set(good.psi.table)
        values = {e for m in (good.phi, good.psi) for _, _, e in m.nonzeros()}
        # the slots hold more values than the tables: the negations are codes
        assert values <= distinct | {-e for e in distinct} and len(values) > len(distinct)
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
        """Each trial's point x and vector r are the integers randint(-B, B)
        draws from the seed's stream, x then r, trial by trial.  Every one
        of these seeds draws some raw value of 2B + 1 or more, so the
        redraw is exercised on every Python version CI runs."""
        mf = fixtures.part2_pair()
        evaluate, apply = Polynomial.evaluate, factorization._apply
        points, vectors, raw = [], [], []

        def recording(p, point):
            if not points or points[-1] is not point:
                points.append(point)
            return evaluate(p, point)

        def applying(slots, values, v):
            vectors.append(list(v))
            return apply(slots, values, v)

        class Drawing(random.Random):
            def getrandbits(self, k):
                raw.append(super().getrandbits(k))
                return raw[-1]

        monkeypatch.setattr(Polynomial, "evaluate", recording)
        monkeypatch.setattr(factorization, "_apply", applying)
        monkeypatch.setattr(factorization, "random", SimpleNamespace(Random=Drawing))
        assert verify_randomized(mf, trials=3, seed=seed)
        # the reference draws x, then r, trial by trial, with randint
        rng, b = random.Random(seed), COORDINATE_BOUND
        entries = [e for m in (mf.phi, mf.psi) for _, _, e in m.nonzeros()]
        variables = sorted(mf.f.variables().union(*(e.variables() for e in entries)))
        want_points, want_vectors = [], []
        for _ in range(3):
            want_points.append({v: rng.randint(-b, b) for v in variables})
            want_vectors.append([rng.randint(-b, b) for _ in range(mf.size)])
        assert [dict(point) for point in points] == want_points
        # f != 0, so a trial applies psi(x) to r and then phi(x) to the result
        assert vectors[::2] == want_vectors and len(vectors) == 6
        redrawn = sum(x > 2 * b for x in raw)
        assert redrawn >= 1 and len(raw) == 3 * (len(variables) + mf.size) + redrawn

    # (document, valid): factors storing fewer than two slots, and rows
    # storing different numbers of slots
    GATHER_EDGE_CASES = {
        "one_by_one": ({"f": "xy", "phi": [["x"]], "psi": [["y"]]}, True),
        "one_by_one_corrupted": ({"f": "xy", "phi": [["x + 1"]], "psi": [["y"]]}, False),
        "zero_f_empty_phi": ({"f": "0", "phi": [["0", "0"], ["0", "0"]], "psi": [["x", "0"], ["1", "y"]]}, True),
        "zero_f_one_slot_each": ({"f": "0", "phi": [["1", "0"], ["0", "0"]], "psi": [["0", "0"], ["1", "0"]]}, False),
        "uneven_rows": ({"f": "xy", "phi": [["x", "0"], ["1", "y"]], "psi": [["y", "0"], ["-1", "x"]]}, True),
        "uneven_rows_corrupted": ({"f": "xy", "phi": [["x", "0"], ["1", "y"]], "psi": [["y", "0"], ["1", "x"]]}, False),
    }

    @pytest.mark.parametrize("name", list(GATHER_EDGE_CASES))
    def test_gather_edge_cases_agree_with_exact_check(self, tmp_path, name):
        doc, valid = self.GATHER_EDGE_CASES[name]
        mf = MatrixFactorization.from_dict(doc)
        assert verify_exact(mf)[0] is valid
        for trials in (1, 3):
            assert verify_randomized(mf, trials=trials) is valid
        path = tmp_path / "pair.json"
        path.write_text(json.dumps(doc))
        argv = ["verify", "--input", str(path), "--verify", "randomized", "--output", str(tmp_path / "report.txt")]
        assert cli.main(argv) == (0 if valid else 3)

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


def degree(p: Polynomial) -> int:
    return max((sum(x for _, x in key) for key, _ in p.items()), default=0)


class TestEscapeRate:
    """The randomized guarantee itself: at a coordinate bound B small
    enough for a wrong pair to escape, it escapes one trial at a rate
    under the quoted (D + 1)/(2B + 1), D = max(deg phi + deg psi, deg f)."""

    SEEDS = range(2000)

    @pytest.mark.parametrize(
        "make, bound, added, quoted",
        [(fixtures.simple_quadratic, 2, "x", Fraction(3, 5)), (fixtures.part1_pair, 4, "1", Fraction(7, 9))],
        ids=["simple_quadratic", "part1"],
    )
    def test_one_trial_escapes_under_the_quoted_bound(self, monkeypatch, make, bound, added, quoted):
        good = make()
        bad = with_phi_entry(good, 0, 0, good.phi[0, 0] + parse_polynomial(added))
        top = max(
            max(degree(e) for _, _, e in bad.phi.nonzeros()) + max(degree(e) for _, _, e in bad.psi.nonzeros()),
            degree(bad.f),
        )
        assert Fraction(top + 1, 2 * bound + 1) == quoted
        monkeypatch.setattr(factorization, "COORDINATE_BOUND", bound)
        escapes = sum(verify_randomized(bad, trials=1, seed=seed) for seed in self.SEEDS)
        assert 0 < escapes < quoted * len(self.SEEDS)
        assert all(verify_randomized(good, trials=1, seed=seed) for seed in self.SEEDS[:100])


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
        assert factorization._product_work(*matrix._on_one_table(a, b)) == products

    @given(poly_matrices(3, 2, polynomials()), poly_matrices(2, 3, polynomials()), st.integers(0, 2**32))
    @settings(max_examples=50)
    def test_estimate_is_the_brute_force_count_on_any_table(self, a, b, seed):
        """And _work_bound is at least that count.  Both read one table, as
        verify_exact's operands share one."""
        for x, y in ((a, b), (relaid(a, seed), relaid(b, seed + 1)), (b, a), (relaid(b, seed), relaid(a, seed + 1))):
            x, y = matrix._on_one_table(x, y)
            assert factorization._work_bound(x, y) >= factorization._product_work(x, y) == brute_force_work(x, y)

    def test_estimate_is_the_brute_force_count_on_pipeline_pairs(self):
        for mf in small_pipeline_pairs():
            for a, b in ((mf.phi, mf.psi), (mf.psi, mf.phi)):
                assert factorization._work_bound(a, b) >= factorization._product_work(a, b) == brute_force_work(a, b)

    @given(factorizations(), st.integers(0, 2**32))
    @settings(max_examples=50)
    def test_bound_covers_the_count_on_factorizations(self, mf, seed):
        phi, psi = relaid(mf.phi, seed), relaid(mf.psi, seed + 1)
        for x, y in ((mf.phi, mf.psi), (mf.psi, mf.phi), (phi, psi), (psi, phi)):
            x, y = matrix._on_one_table(x, y)
            assert factorization._work_bound(x, y) >= factorization._product_work(x, y)

    def test_a_bound_over_the_cap_falls_back_to_the_count(self, monkeypatch):
        """([a], [y]) read from a document shares one table, so the bound
        pairs a's 1200 terms with themselves; the count is 1200."""
        a = " + ".join(f"x^{i}" for i in range(1200))
        doc = {"f": str(parse_polynomial(a) * parse_polynomial("y")), "phi": [[a]], "psi": [["y"]]}
        mf = MatrixFactorization.from_dict(doc)
        assert mf.phi.table is mf.psi.table
        assert factorization._work_bound(mf.phi, mf.psi) == 1200**2 > EXACT_WORK_CAP
        assert factorization._product_work(mf.phi, mf.psi) == 1200
        product_work, counts = factorization._product_work, []

        def counting(a, b):
            counts.append(product_work(a, b))
            return counts[-1]

        monkeypatch.setattr(factorization, "_product_work", counting)
        assert verify_exact(mf) == (True, "ok")
        assert counts == [1200]

    def test_pipeline_pairs_make_one_product_and_no_count(self, monkeypatch):
        mat_mul, calls = factorization.mat_mul, []

        def counting(a, b):
            calls.append((a, b))
            return mat_mul(a, b)

        def never(a, b):
            raise AssertionError("the term products were counted")

        monkeypatch.setattr(factorization, "mat_mul", counting)
        monkeypatch.setattr(factorization, "_product_work", never)
        for mf in small_pipeline_pairs():
            calls.clear()
            assert verify_exact(mf) == (True, "ok")
            assert calls == [(mf.phi, mf.psi)]

    def test_paper_pipelines_are_below_the_cap(self):
        """The improved 2048 pair peaks at half the cap, and is still
        checked exactly when asked."""
        work = {mf.size: factorization._product_work(mf.phi, mf.psi) for mf in paper_pairs()}
        assert max(work.values()) == work[2048] == EXACT_WORK_CAP // 2
        improved = run_improved(TWO_PRODUCT, verify="skip")
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
    for srp in (PART1, PART2):
        for run in (run_refined, run_improved, run_standard):
            yield run(srp, verify="skip")


def row_by_row(mf) -> tuple[bool, str]:
    """verify_exact's readout before its C-level compares: each row of
    each product read against f*I, naming the first that differs."""
    orders = [("phi*psi", mf.phi, mf.psi)]
    if mf.f.is_zero():
        orders.append(("psi*phi", mf.psi, mf.phi))
    f = mf.f._terms
    for name, a, b in orders:
        product = mat_mul(a, b)
        is_f = [e._terms == f for e in product.table]
        for i, (js, ks) in enumerate(zip(product.columns, product.indices)):
            if (js == (i,) and is_f[ks[0] >> 1]) if f else not js:
                continue
            expected = {i: mf.f}
            j = min(j for j in {*js, i} if product[i, j] != expected.get(j, Polynomial.zero()))
            return False, (
                f"{name} entry ({i},{j}) is {factorization._quote(product[i, j])}, "
                f"expected {factorization._quote(expected.get(j, Polynomial.zero()))}"
            )
    return True, "ok"


def corrupted(mf, kind: str, i: int, j: int, g: Polynomial) -> MatrixFactorization:
    """(C*phi, psi) for C the identity with one corruption at row i, so
    that C*phi*psi = f*C: "diagonal" puts g at (i, i), "off_diagonal" adds
    g at (i, j), j != i, and "empty_row" clears row i."""
    rows = [[Polynomial.const(int(r == c)) for c in range(mf.size)] for r in range(mf.size)]
    if kind == "diagonal":
        rows[i][i] = g
    elif kind == "off_diagonal":
        rows[i][j] = g
    else:
        rows[i][i] = Polynomial.zero()
    return MatrixFactorization(mf.f, mat_mul(PolyMatrix(rows), mf.phi), mf.psi)


CORRUPTIONS = ["diagonal", "off_diagonal", "empty_row"]


class TestExactReadout:
    """verify_exact returns what the row-by-row readout returns, the same
    (i, j) and quoted text, on valid pairs and on one-slot corruptions."""

    def test_valid_pairs(self):
        empty = MatrixFactorization(parse_polynomial("x"), matrix.zeros(0, 0), matrix.zeros(0, 0))
        for mf in [*small_pipeline_pairs(), fixtures.part1_pair(), fixtures.simple_quadratic(), empty]:
            assert verify_exact(mf) == row_by_row(mf) == (True, "ok")

    @given(factorizations(), st.sampled_from(CORRUPTIONS), st.data())
    @settings(max_examples=100, deadline=None)
    def test_corrupted_factorizations(self, mf, kind, data):
        assume(kind != "off_diagonal" or mf.size > 1)
        i = data.draw(st.integers(0, mf.size - 1))
        j = data.draw(st.integers(0, mf.size - 1).filter(lambda j: j != i)) if kind == "off_diagonal" else i
        g = data.draw(nonzero_polynomials().filter(lambda g: g != Polynomial.const(1)))
        bad = corrupted(mf, kind, i, j, g)
        result = verify_exact(bad)
        assert not result[0] and result == row_by_row(bad)

    @pytest.mark.parametrize("kind", CORRUPTIONS)
    def test_corrupted_pipeline_pairs(self, kind):
        for mf in small_pipeline_pairs():
            if mf.size > 64:
                continue
            i = mf.size // 2
            bad = corrupted(mf, kind, i, i - 1, parse_polynomial("x + 1"))
            result = verify_exact(bad)
            assert not result[0] and result == row_by_row(bad)
            assert result[1].startswith(f"phi*psi entry ({i},{i - 1 if kind == 'off_diagonal' else i}) is ")

    @pytest.mark.parametrize("order", ["phi*psi", "psi*phi"])
    def test_f_zero_with_a_slot_in_either_order(self, order):
        """phi = g*E_03 and psi = h*E_30 when phi*psi holds the slot, or
        psi = h*E_20 when only psi*phi does."""
        g, h = parse_polynomial("x + 1"), parse_polynomial("y^2 - 3")
        phi = [[Polynomial.zero()] * 4 for _ in range(4)]
        psi = [[Polynomial.zero()] * 4 for _ in range(4)]
        phi[0][3] = g
        if order == "phi*psi":
            psi[3][0] = h
        else:
            psi[2][0] = h
        mf = MatrixFactorization(Polynomial.zero(), PolyMatrix(phi), PolyMatrix(psi))
        result = verify_exact(mf)
        assert not result[0] and result == row_by_row(mf)
        where = "(0,0)" if order == "phi*psi" else "(2,3)"
        assert result[1] == f"{order} entry {where} is {g * h}, expected 0"

    @given(poly_matrices(3, 3, polynomials()), poly_matrices(3, 3, polynomials()))
    @settings(max_examples=100)
    def test_f_zero_on_any_pair(self, a, b):
        mf = MatrixFactorization(Polynomial.zero(), a, b)
        assert verify_exact(mf) == row_by_row(mf)


# f = 0: phi = x*E_01 and psi = y*E_01, so phi*psi = psi*phi = 0
NILPOTENT = MatrixFactorization(
    Polynomial.zero(), from_strings([["0", "x"], ["0", "0"]]), from_strings([["0", "y"], ["0", "0"]])
)
PAPER_FIXTURES = [
    "simple_quadratic", "pair_m", "pair_p", "pair_n", "pair_y", "pair_q", "pair_l", "part1_pair", "part2_pair",
]


def accepted_pairs():
    """Valid pairs of every kind verify_exact meets: the pipelines', the
    paper fixtures, an f = 0 pair and the 0x0 pair."""
    empty = MatrixFactorization(parse_polynomial("x"), matrix.zeros(0, 0), matrix.zeros(0, 0))
    return [*small_pipeline_pairs(), *(getattr(fixtures, name)() for name in PAPER_FIXTURES), NILPOTENT, empty]


class TestExactAccept:
    """A valid pair's product is stored exactly as scalar_matrix(f, n) is,
    and verify_exact accepts it from its stored fields, reading no entry
    by value."""

    def test_a_valid_product_is_stored_as_scalar_matrix(self):
        for mf in accepted_pairs():
            expected = scalar_matrix(mf.f, mf.size)
            for a, b in ((mf.phi, mf.psi), (mf.psi, mf.phi)) if mf.f.is_zero() else ((mf.phi, mf.psi),):
                product = mat_mul(a, b)
                assert (product.table, product.columns, product.indices) == (
                    expected.table, expected.columns, expected.indices)

    def test_valid_pairs_are_accepted_without_reading_an_entry(self, monkeypatch):
        pairs = accepted_pairs()

        def never(*args):
            raise AssertionError("an entry was read by value")

        monkeypatch.setattr(PolyMatrix, "__getitem__", never)
        monkeypatch.setattr(PolyMatrix, "nonzeros", never)
        monkeypatch.setattr(PolyMatrix, "_values", never)
        for mf in pairs:
            assert verify_exact(mf) == (True, "ok")


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

    @given(factorizations(), st.integers(0, 2**32))
    @settings(max_examples=60, deadline=None)
    def test_factors_over_two_tables_are_moved_onto_one(self, mf, seed):
        """A pair built from factors over two tables indexes one, and
        compares and writes as the pair does."""
        again = MatrixFactorization(mf.f, mf.phi, relaid(mf.psi, seed))
        assert again.phi.table is again.psi.table
        assert again == mf and again.to_dict() == mf.to_dict()


class TestSignBits:
    """A matrix whose slots negate their entries by the sign bit of their
    codes reads, computes and checks as its materialized twin, which holds
    those negations in its table at even codes."""

    @given(factorizations(), factorizations(max_steps=1), st.data())
    @settings(max_examples=60, deadline=None)
    def test_flipped_matrices_agree_with_their_materialized_twins(self, mf, other, data):
        def bits(count):
            return data.draw(st.lists(st.integers(0, 1), min_size=count, max_size=count))

        def random_flips(m):
            return flipped(m, bits(sum(map(len, m.indices))))

        phi, psi, y = random_flips(mf.phi), random_flips(mf.psi), random_flips(other.phi)
        pairs = [(m, materialized(m)) for m in (phi, psi, y)]
        for m, twin in pairs:
            assert m == twin and hash(m) == hash(twin) and -m == -twin
            assert list(m.nonzeros()) == list(twin.nonzeros())
            assert all(m[i, j] == twin[i, j] for i in range(m.rows) for j in range(m.cols))
            assert m.texts() == twin.texts() and transpose(m) == transpose(twin)
        (a, ta), (b, tb), (c, tc) = pairs
        assert a + b == ta + tb and a + -a == ta + -ta
        assert mat_mul(a, b) == mat_mul(ta, tb) and mat_mul(b, a) == mat_mul(tb, ta)
        assert kron(a, c) == kron(ta, tc) and kron(c, b) == kron(tc, tb)
        assert block2x2(a, b, -b, a) == block2x2(ta, tb, -tb, ta)
        assert direct_sum(a, c) == direct_sum(ta, tc) and direct_sum(c, c) == direct_sum(tc, tc)
        # one sign per index, on phi's rows and psi's columns, keeps the pair valid
        signs = bits(mf.size)
        valid = MatrixFactorization(
            mf.f,
            flipped(mf.phi, [signs[i] for i, js in enumerate(mf.phi.columns) for _ in js]),
            flipped(mf.psi, [signs[j] for js in mf.psi.columns for j in js]),
        )
        seed = data.draw(st.integers(0, 2**32))
        for pair in (valid, MatrixFactorization(mf.f, phi, psi)):
            twin = MatrixFactorization(pair.f, materialized(pair.phi), materialized(pair.psi))
            assert verify_exact(pair) == verify_exact(twin)
            assert verify_randomized(pair, trials=2, seed=seed) == verify_randomized(twin, trials=2, seed=seed)
            assert pair.to_dict() == twin.to_dict()
        assert verify_exact(valid) == (True, "ok")


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
        each distinct value either of them uses is formatted once, whatever
        the codes and signs that read it, into the grids of their own
        texts(); a negation's text is derived from its value's."""
        mf = run_refined(TWO_PRODUCT, verify="skip")
        assert mf.phi.table is mf.psi.table
        want = {"f": str(mf.f), "size": mf.size, "phi": mf.phi.texts(), "psi": mf.psi.texts()}
        used = set().union(*mf.phi.indices, *mf.psi.indices)
        values = {mf.phi.table[k >> 1] for k in used}
        assert len(values) < len(used)
        formatted, negated = [], []
        real, real_neg = Polynomial.__str__, Polynomial.__neg__
        monkeypatch.setattr(Polynomial, "__str__", lambda q: formatted.append(q) or real(q))
        monkeypatch.setattr(Polynomial, "__neg__", lambda q: negated.append(q) or real_neg(q))
        assert mf.to_dict() == want
        # one more call formats f
        assert len(formatted) == len(set(formatted)) == len(values) + 1
        assert negated == []

    def test_size_field_is_checked(self):
        doc = fixtures.pair_m().to_dict()
        doc["size"] = 3
        with pytest.raises(MatrixError):
            MatrixFactorization.from_dict(doc)

    @given(factorizations())
    @settings(max_examples=60, deadline=None)
    def test_random_pairs_read_back_over_one_table(self, mf):
        assert_reads_back(mf)

    @pytest.mark.parametrize("run, srp", PIPELINE_PAIRS, ids=PIPELINE_IDS)
    def test_pipeline_pairs_read_back_over_one_table(self, run, srp):
        assert_reads_back(run(srp, verify="skip"))

    def test_factors_that_share_no_text(self):
        """phi and psi share no entry text (psi writes w as "1w" and
        x + 1 as "1 + x"): "-y" and "-z" read as the sign twins of "y"
        and "z", and each of the other six texts is parsed once, into one
        table that lists w and x + 1 twice."""
        doc = {"f": "xw + w - yz", "size": 2, "phi": [["x + 1", "y"], ["z", "w"]],
               "psi": [["1w", "-y"], ["-z", "1 + x"]]}
        mf = read_once(doc)
        assert len(mf.phi.table) == 6 and len(set(mf.phi.table)) == 4
        assert certify(mf) == {"mode": "exact"}
        assert_reads_back(mf)

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_sign_twins_read_onto_one_entry(self, data):
        """One-term texts, each written with and without a leading "-"
        and scattered over a pair in random order, read back equal to
        their entry-by-entry parse, over a table of one entry per twin
        pair; an entry that is not a string, put anywhere, is refused."""
        texts = data.draw(st.lists(unsigned_terms(), min_size=1, max_size=8, unique=True))
        texts += [f"-{text}" for text in texts]
        n = data.draw(st.integers(1, 3).filter(lambda n: 2 * n * n >= len(texts)))
        slots = data.draw(st.permutations(texts + ["0"] * (2 * n * n - len(texts))))
        phi, psi = ([slots[k:k + n] for k in range(at, at + n * n, n)] for at in (0, n * n))
        doc = {"f": "1", "phi": phi, "psi": psi}
        mf = read_once(doc)
        for grid, factor in ((phi, mf.phi), (psi, mf.psi)):
            assert factor == PolyMatrix([[parse_polynomial(text) for text in row] for row in grid])
        assert len(mf.phi.table) == len(texts) // 2
        bad = data.draw(st.one_of(st.integers(), st.none(), st.floats(), st.lists(st.just("x"), max_size=1),
                                  st.dictionaries(st.just("x"), st.just("x"))))
        k = data.draw(st.integers(0, 2 * n * n - 1))
        doc[("phi", "psi")[k // (n * n)]][k % (n * n) // n][k % n] = bad
        with pytest.raises(MatrixError, match="list of rows of strings"):
            MatrixFactorization.from_dict(doc)

    def test_texts_of_more_than_one_term_are_no_twins(self):
        """ "-x + y" is the negation of "x - y", and " -x" of "x", but
        neither pair is one term with and without a leading "-"; nor is
        "-x - y" with "x - y", or "x + y" with "-x + y".  All six texts
        are parsed, into six table entries."""
        phi = [["x - y", "-x + y", "-x - y"], [" -x", "x", "x + y"], ["0", "0", "0"]]
        mf = read_once({"f": "0", "phi": phi, "psi": [["0"] * 3] * 3})
        assert len(mf.phi.table) == 6 and all(k % 2 == 0 for ks in mf.phi.indices for k in ks)
        assert mf.phi == PolyMatrix([[parse_polynomial(text) for text in row] for row in phi])
        assert mf.phi[0, 1] == -mf.phi[0, 0] and mf.phi[1, 0] == -mf.phi[1, 1]

    def test_a_zero_twin_reads_as_zero(self):
        """ "-0" is the twin of "0", and "-0x" of "0x", which parses to
        zero: none of them stores an entry, and "-0x" is not parsed."""
        mf = read_once({"f": "x", "phi": [["-0", "0x", "-0x"]] * 3, "psi": [["x", "0", "0"]] * 3})
        assert mf.phi.columns == ((),) * 3 and len(mf.phi.table) == 1

    @pytest.mark.parametrize("key", ["f", "phi", "psi"])
    def test_a_missing_key_is_named(self, key):
        doc = fixtures.pair_m().to_dict()
        del doc[key]
        with pytest.raises(MatrixError, match=f"needs the key '{key}'"):
            MatrixFactorization.from_dict(doc)

    @pytest.mark.parametrize("psi", [
        [["y", "z"], ["-z", "x"], ["x", "y"]],
        [["y", "z", "0"], ["-z", "x", "0"]],
        [["y", "z"], ["-z", "x", "0"]],
    ], ids=["one_more_row", "one_column_wider", "a_later_row_wider"])
    def test_factor_shapes_are_checked_before_any_entry_is_read(self, monkeypatch, psi):
        doc = {**fixtures.pair_m().to_dict(), "psi": psi}
        read = []
        monkeypatch.setattr(factorization, "from_strings", lambda rows: read.append(rows))
        with pytest.raises(MatrixError, match=r"phi has 2 rows, psi has 3|psi row [01] has 3 entries, phi row 0 has 2"):
            MatrixFactorization.from_dict(doc)
        assert read == []


def read_once(doc):
    """from_dict(doc), checked to make one from_strings call, which parses
    each distinct entry text other than "0" once, in reading order, into
    one table that both factors index, except a one-term text whose sign
    twin was read before (see `twin_of`)."""
    reads, parsed = [], []
    real_read, real_parse = factorization.from_strings, matrix.parse_polynomial
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(factorization, "from_strings", lambda rows: reads.append(rows) or real_read(rows))
        patch.setattr(matrix, "parse_polynomial", lambda text: parsed.append(text) or real_parse(text))
        mf = MatrixFactorization.from_dict(doc)
    seen, texts = {"0"}, []
    for text in (text for grid in (doc["phi"], doc["psi"]) for row in grid for text in row):
        if text not in seen and twin_of(text) not in seen:
            texts.append(text)
        seen.add(text)
    assert len(reads) == 1
    assert parsed == texts
    assert mf.phi.table is mf.psi.table
    return mf


@st.composite
def unsigned_terms(draw):
    """The text of one nonzero term with no sign: a coefficient written
    as an integer, a fraction or not at all, then powers, joined and
    surrounded by random spacing."""
    space = st.text(alphabet=" \t\n", max_size=2)
    numerator, denominator = draw(st.integers(1, 99)), draw(st.integers(1, 12))
    coefficient = draw(st.sampled_from(["", str(numerator), f"{numerator}{draw(space)}/{draw(space)}{denominator}"]))
    powers = draw(st.lists(st.sampled_from(["x", "y", "z^2", "x1", "y ^ 3", "z^0"]), min_size=0 if coefficient else 1,
                           max_size=3))
    text = coefficient
    for power in powers:
        text += (draw(st.sampled_from(["*", " * ", " ", ""])) if text else "") + power
    return draw(space) + text + draw(space)


def twin_of(text):
    """The sign twin of a one-term text (no "+", and no "-" after its
    first character): the text with a leading "-" removed or added.  None
    for any other text."""
    if "+" in text or "-" in text[1:]:
        return None
    return text[1:] if text.startswith("-") else "-" + text


def assert_reads_back(mf):
    """mf, written by to_dict and read back, is equal to mf and gets its
    certificate."""
    again = read_once(json.loads(json.dumps(mf.to_dict())))
    assert again == mf
    assert certify(again) == certify(mf)


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
