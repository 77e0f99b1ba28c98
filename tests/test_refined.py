"""Summand-reduced inputs: validation, size prediction, the pipelines."""

import itertools
import time
from collections import Counter
from math import prod

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from polymf import (
    CapExceededError,
    PolyError,
    Polynomial,
    ProductGroup,
    SummandReducedPoly,
    ValidationFailure,
    compare_report,
    parse_polynomial,
    predict_sizes,
    run_improved,
    run_refined,
    run_standard,
    validate_summand_reduced,
    verify_exact,
)
from polymf.refined import ConditionResult
from polymf import STANDARD_VARIANTS, YOSHINO_VARIANTS, factorization, refined
from polymf.poly import _times_key
from polymf.refined import check_cap

from conftest import RATIONAL_COEFFICIENTS, monomials


def srp(terms, products):
    return SummandReducedPoly.from_strings(terms, products)


@st.composite
def small_documents(draw) -> SummandReducedPoly:
    """Documents of 0-2 monomial terms and 1-2 product groups of 1-3
    factors with rational coefficients, at most size 64 by the improved
    pipeline and 8 formal monomials."""
    terms = draw(st.lists(monomials(coefficients=RATIONAL_COEFFICIENTS), max_size=2))
    factors = st.lists(
        monomials(coefficients=RATIONAL_COEFFICIENTS), min_size=1, max_size=2, unique_by=lambda m: m.items()[0][0]
    ).map(lambda ms: sum(ms, Polynomial.zero()))
    groups = draw(st.lists(st.lists(factors, min_size=1, max_size=3), min_size=1, max_size=2))
    doc = SummandReducedPoly(tuple(terms), tuple(ProductGroup(tuple(g)) for g in groups))
    assume(predict_sizes(doc).improved_size <= 64 and len(doc.formal_monomials()) <= 8)
    assume(doc.expanded_polynomial())  # terms that cancel are refused
    return doc


class TestModel:
    def test_monomial_counts(self):
        g = ProductGroup((parse_polynomial("xy + z^2"), parse_polynomial("x + y + z")))
        assert g.monomial_counts == (2, 3)

    def test_zero_factor_rejected(self):
        with pytest.raises(PolyError):
            ProductGroup((parse_polynomial("0"),))

    def test_expanded_polynomial(self, part1_srp):
        expanded = part1_srp.expanded_polynomial()
        want = parse_polynomial("zy") + parse_polynomial(
            "xy^2 + x^2z + yz^2"
        ) * parse_polynomial("xy + z^2")
        assert expanded == want

    def test_formal_monomials_keep_collisions(self, part1_srp):
        formal = part1_srp.formal_monomials()
        assert len(formal) == 7  # canonical form merges to 6
        assert part1_srp.expanded_polynomial().num_terms() == 6

    def test_non_monomial_term_rejected_for_pipelines(self):
        bad = srp(["x + y"], [["xy + z^2", "x + y"]])
        with pytest.raises(PolyError):
            bad.monomial_terms()


class TestValidation:
    def test_part1_is_summand_reduced(self, part1_srp):
        assert validate_summand_reduced(part1_srp).ok

    def test_condition1_failure(self):
        report = validate_summand_reduced(srp(["x^7", "-y^5"], []))
        assert report.failed_conditions() == [1, 4]

    def test_condition1_with_no_terms_needs_two_products(self):
        single = srp([], [["xy + z^2", "x + y"]])
        assert 1 in validate_summand_reduced(single).failed_conditions()
        double = srp([], [["xy + z^2", "x + y"], ["x + z", "y + z"]])
        assert 1 not in validate_summand_reduced(double).failed_conditions()

    def test_condition2_failure(self):
        report = validate_summand_reduced(
            srp(["x + y"], [["xy^2 + x^2z + yz^2", "xy + z^2"]])
        )
        assert report.failed_conditions() == [2]

    def test_condition3_failure_telescoping(self):
        report = validate_summand_reduced(
            srp(["zx"], [["x - y", "x^4 + x^3y + x^2y^2 + xy^3 + y^4"]])
        )
        assert 3 in report.failed_conditions()

    def test_condition3_skips_single_factor_groups(self):
        report = validate_summand_reduced(
            srp(["zx"], [["x^5 - y^5"], ["xy^2 + x^2z + yz^2", "xy + z^2"]])
        )
        assert 3 not in report.failed_conditions()

    def test_condition3_leaves_a_product_too_large_to_expand_unchecked(self, monkeypatch):
        """A product over the cap passes unchecked, and a later product
        that fails the condition still fails it."""
        monkeypatch.setattr(refined, "CONDITION3_EXPANSION_CAP", 4)
        large = ["xy^2 + x^2z + yz^2", "xy + z^2"]  # 6 formal monomials
        report = validate_summand_reduced(srp(["zy"], [large]))
        assert report.results[2] == ConditionResult(
            3, True, "product 0 too large to expand (6 formal monomials); unchecked")
        report = validate_summand_reduced(srp(["zy"], [large, ["x - y", "x + y"]]))
        assert report.results[2] == ConditionResult(
            3, False, "product 1 expands to 2 monomials, not more than the 4 in factor form")

    @pytest.mark.parametrize("factors", [
        ["x + y", "x + y"],  # collisions, no cancellation: 4 formal monomials
        ["x + y", "x - y"],  # xy cancels: 2
        ["x - y", "x^4 + x^3y + x^2y^2 + xy^3 + y^4"],  # telescoping: 2
        ["x + y", "x - y", "x + y"],  # partial cancellation: 8
        ["x + y", "x - y", "x^2 + y^2"],  # x^4 - y^4: 2
        ["x - y", "x + y + z", "x^2 + 1/2 y"],
    ])
    def test_condition3_counts_as_enumeration_does(self, factors):
        """Condition 3 counts the combinations of one monomial per factor
        whose product survives in the expansion, as enumerating them does."""
        group = ProductGroup(tuple(parse_polynomial(f) for f in factors))
        surviving = {key for key, _ in group.expanded().items()}
        count = 0
        for combo in itertools.product(*(f.items() for f in group.factors)):
            key = combo[0][0]
            for k, _ in combo[1:]:
                key = _times_key(key, k)
            count += key in surviving
        factor_form = sum(group.monomial_counts)
        want = ConditionResult(3, True, "every multi-factor product gains monomials when expanded")
        if count <= factor_form:
            want = ConditionResult(
                3, False, f"product 0 expands to {count} monomials, not more than the {factor_form} in factor form"
            )
        got = validate_summand_reduced(SummandReducedPoly((), (group,))).results[2]
        assert got == want

    def test_condition4_failure(self):
        report = validate_summand_reduced(srp(["zx"], [["x + y"]]))
        assert report.failed_conditions() == [4]

    def test_invalid_document_is_not_ok(self):
        bad = srp(["x^7", "-y^5"], [])
        assert not validate_summand_reduced(bad).ok

    @pytest.mark.parametrize("run", [run_refined, run_improved, run_standard, compare_report])
    def test_strict_keyword_is_refused(self, part1_srp, run):
        """Validation is the caller's step: neither a pipeline nor compare_report takes strict."""
        with pytest.raises(TypeError, match="strict"):
            run(part1_srp, strict=True)

    def test_advisory_by_default(self):
        # not summand-reduced, but the standard pipeline still runs
        bad = srp(["x^2", "y^2"], [])
        assert run_standard(bad).size == 2


class TestPredictSizes:
    def test_part1(self, part1_srp):
        sizes = predict_sizes(part1_srp)
        assert (sizes.standard_size, sizes.improved_size, sizes.refined_size) == (64, 32, 16)
        assert sizes.ratio_refined_vs_standard == 4
        assert sizes.ratio_refined_vs_improved == 2

    def test_two_product_example(self, two_product_srp):
        sizes = predict_sizes(two_product_srp)
        assert sizes.standard_size == 2**15
        assert sizes.improved_size == 2**11
        assert sizes.refined_size == 2**9
        assert sizes.ratio_refined_vs_improved == 4

    def test_part2(self, part2_srp):
        sizes = predict_sizes(part2_srp)
        assert (sizes.standard_size, sizes.improved_size, sizes.refined_size) == (512, 64, 32)
        assert sizes.ratio_refined_vs_standard == 16

    @pytest.mark.parametrize("terms", [[], ["x"], ["x^7", "-y^5"]])
    def test_needs_a_product_group(self, terms):
        with pytest.raises(ValidationFailure, match="at least one product group"):
            predict_sizes(srp(terms, []))

    def test_all_single_factor_groups_mean_no_gain(self):
        sizes = predict_sizes(srp(["zx"], [["x + y"], ["y + z"]]))
        assert sizes.ratio_refined_vs_improved == 1
        assert sizes.refined_size == sizes.improved_size

    @given(
        st.integers(0, 2),
        st.lists(st.lists(st.integers(1, 3), min_size=1, max_size=2), min_size=1, max_size=2),
    )
    @settings(max_examples=100)
    def test_ratio_law(self, s, shape):
        # build an srp with prescribed monomial counts from fresh variables
        names = iter(f"v{i}" for i in range(100))
        terms = [next(names) for _ in range(s)]
        products = [
            [" + ".join(next(names) for _ in range(p)) for p in group] for group in shape
        ]
        sizes = predict_sizes(srp(terms, products))
        total_m = sum(len(g) for g in shape)
        assert sizes.improved_size == sizes.refined_size * 2 ** (total_m - len(shape))


class TestPipelines:
    def test_part1_sizes(self, part1_srp):
        r = run_refined(part1_srp)
        i = run_improved(part1_srp)
        s = run_standard(part1_srp)
        assert (r.size, i.size, s.size) == (16, 32, 64)
        assert r.f == i.f == s.f == part1_srp.expanded_polynomial()
        assert verify_exact(r)[0] and verify_exact(i)[0] and verify_exact(s)[0]

    def test_part2_refined(self, part2_srp):
        mf = run_refined(part2_srp)
        assert mf.size == 32
        assert mf.f == part2_srp.expanded_polynomial()
        assert verify_exact(mf)[0]

    def test_sizes_match_predictions(self, part1_srp, part2_srp):
        for candidate in (part1_srp, part2_srp):
            sizes = predict_sizes(candidate)
            assert run_refined(candidate).size == sizes.refined_size
            assert run_improved(candidate).size == sizes.improved_size

    def test_s_zero_branch(self):
        product_only = srp([], [["xy + z^2", "x + y"], ["x + z", "y + z"]])
        sizes = predict_sizes(product_only)
        mf = run_refined(product_only)
        assert mf.size == sizes.refined_size == 2 ** (2 - 1 + 8 - 4)
        assert mf.f == product_only.expanded_polynomial()

    def test_integral_formal_products_store_int_coefficients(self):
        """Formal products of rational coefficients that are integral
        (1/2 x * 6z = 3xz) are stored as ints in the entries of the
        standard pair, and each entry's text parses back to it."""
        mf = run_standard(srp(["xy"], [["1/2 x + 1/3 y", "6z + 6w"]]))
        assert mf.size == 16
        for m in (mf.phi, mf.psi):
            for _, _, e in m.nonzeros():
                assert all(type(c) is int for _, c in e.items()), e
                assert parse_polynomial(str(e)) == e

    def test_yoshino_variant_changes_matrices_not_target(self, part1_srp):
        a = run_refined(part1_srp, "standard")
        b = run_refined(part1_srp, "v2")
        assert a.f == b.f and a.size == b.size
        assert a.phi != b.phi

    def test_cap_exceeded(self, part2_srp):
        with pytest.raises(CapExceededError) as exc:
            run_standard(part2_srp, max_monomials=5)
        assert exc.value.exponent == 9
        assert exc.value.predicted_size == 512

    def test_cap_is_checked_before_any_monomial_is_built(self, monkeypatch):
        """Two 1000-term factors: 10^6 formal monomials, size 2^999999."""
        def never(self):
            raise AssertionError("formal monomials built")

        wide = SummandReducedPoly((), (ProductGroup(tuple(
            Polynomial({((v, i),): 1 for i in range(1, 1001)}) for v in "xy")),))
        monkeypatch.setattr(SummandReducedPoly, "formal_monomials", never)
        start = time.perf_counter()
        with pytest.raises(CapExceededError) as exc:
            run_standard(wide)
        assert time.perf_counter() - start < 0.1
        assert exc.value.exponent == 10**6 - 1
        assert str(exc.value) == "standard construction skipped: predicted size 2^999999 exceeds 2^12"

    def test_trivial_two_monomial_input(self):
        tiny = srp(["z^2"], [["x", "y"]])
        assert run_standard(tiny).size == 2

    @pytest.mark.parametrize("doc", [SummandReducedPoly((), ()), SummandReducedPoly.from_strings([], [])])
    def test_standard_method_refuses_the_zero_polynomial(self, doc):
        with pytest.raises(PolyError, match="^cannot factor the zero polynomial$"):
            run_standard(doc)

    @pytest.mark.parametrize("run, terms, products", [
        (run_standard, ["x", "-x"], []),
        (run_refined, ["x"], [["x", "-1"]]),
        (run_improved, ["x"], [["x", "-1"]]),
    ], ids=["standard", "refined", "improved"])
    def test_terms_that_cancel_are_refused_before_certifying(self, monkeypatch, run, terms, products):
        def never(*args, **kwargs):
            raise AssertionError("a pair of zero was certified")

        monkeypatch.setattr(factorization, "certify", never)
        with pytest.raises(PolyError, match="^cannot factor the zero polynomial$"):
            run(srp(terms, products))

    def test_pipeline_needs_a_product(self):
        with pytest.raises(ValidationFailure):
            run_refined(srp(["x^2"], []))

    @given(small_documents(), st.integers(1, 10))
    @settings(max_examples=40, deadline=None)
    def test_every_pipeline_builds_its_predicted_exponent(self, doc, cap):
        """Each pipeline builds size 1 << its method's predicted exponent,
        and the cap refuses a method exactly when that exponent is at
        least the cap."""
        report = predict_sizes(doc)
        assert run_refined(doc, verify="skip").size == 1 << report.refined_exponent
        assert run_improved(doc, verify="skip").size == 1 << report.improved_exponent
        for method in ("refined", "improved", "standard"):
            exponent = getattr(report, f"{method}_exponent")
            if exponent >= cap:
                with pytest.raises(CapExceededError) as exc:
                    check_cap(method, exponent, cap)
                assert exc.value.exponent == exponent
            else:
                check_cap(method, exponent, cap)
        if report.standard_exponent >= cap:
            with pytest.raises(CapExceededError):
                run_standard(doc, max_monomials=cap, verify="skip")
        else:
            assert run_standard(doc, max_monomials=cap, verify="skip").size == 1 << report.standard_exponent

    @given(small_documents())
    @settings(max_examples=40, deadline=None)
    def test_every_row_stores_the_formal_monomial_count(self, doc):
        """Every row of phi and psi of every method and variant stores
        exactly N = s + sum_j prod_i p_ji nonzeros."""
        n = doc.s + sum(prod(g.monomial_counts) for g in doc.products)
        pairs = [run(doc, v, verify="skip") for run in (run_refined, run_improved) for v in YOSHINO_VARIANTS]
        pairs += [run_standard(doc, v, verify="skip") for v in STANDARD_VARIANTS]
        for mf in pairs:
            for m in (mf.phi, mf.psi):
                assert m.rows == mf.size
                stored = Counter(i for i, _, _ in m.nonzeros())
                assert [stored[i] for i in range(mf.size)] == [n] * mf.size


@pytest.fixture
def certify_calls(monkeypatch):
    """The verify mode of every certify call made through the module."""
    calls = []
    real = factorization.certify

    def recording(mf, verify="auto", *args, **kwargs):
        calls.append(verify)
        return real(mf, verify, *args, **kwargs)

    monkeypatch.setattr(factorization, "certify", recording)
    return calls


class TestOneCertificate:
    @pytest.mark.parametrize("run", [run_refined, run_improved, run_standard])
    @pytest.mark.parametrize("verify", ["auto", "exact"])
    def test_each_run_certifies_once(self, run, verify, part1_srp, certify_calls):
        run(part1_srp, verify=verify)
        assert certify_calls == [verify]

    @pytest.mark.parametrize("run", [run_refined, run_improved])
    def test_two_groups_certify_once(self, run, certify_calls):
        run(srp([], [["xy + z^2", "x + y"], ["x + z", "y + z"]]))
        assert certify_calls == ["auto"]

    def test_skip_certifies_nothing(self, part2_srp, certify_calls):
        run_refined(part2_srp, verify="skip")
        run_standard(part2_srp, max_monomials=13, verify="skip")
        assert certify_calls == []


class TestSharedEntries:
    """The pipelines build each distinct entry once and share it, so a
    pair's cost follows its distinct entries, not its nonzeros."""

    def test_two_product_pair_holds_few_entry_objects(self, two_product_srp, monkeypatch):
        mf = run_refined(two_product_srp, verify="skip")
        objects = {id(e) for m in (mf.phi, mf.psi) for _, _, e in m.nonzeros()}
        assert len(objects) <= 1000  # of 16384 nonzeros
        to_str = Polynomial.__str__
        calls = []
        monkeypatch.setattr(Polynomial, "__str__", lambda p: calls.append(p) or to_str(p))
        mf.phi.texts()
        mf.psi.texts()
        assert len(calls) <= 1000

    def test_randomized_check_compares_each_object_once(self, two_product_srp, monkeypatch):
        mf = run_refined(two_product_srp, verify="skip")
        objects = {id(e) for m in (mf.phi, mf.psi) for _, _, e in m.nonzeros()}
        eq = Polynomial.__eq__
        calls = []
        monkeypatch.setattr(Polynomial, "__eq__", lambda p, q: calls.append(p) or eq(p, q))
        assert factorization.verify_randomized(mf, trials=1)
        assert len(calls) <= len(objects)


class TestCompareReport:
    def test_part1_confirms_predictions(self, part1_srp):
        report, constructed = compare_report(
            part1_srp, methods=("refined", "improved", "standard")
        )
        assert constructed == {"refined": 16, "improved": 32, "standard": 64}
        assert report.standard_size == 64

    def test_capped_pipeline_is_skipped(self, part2_srp):
        """Every method is capped, as in the CLI: refined 2^5 is over
        2^(5-1) and within 2^(6-1); improved 2^6 and standard 2^9 are over
        both."""
        methods = ("refined", "improved", "standard")
        report, constructed = compare_report(part2_srp, methods=methods, max_monomials=5)
        assert constructed == {}
        assert report.standard_size == 512
        _, constructed = compare_report(part2_srp, methods=methods, max_monomials=6)
        assert constructed == {"refined": 32}

