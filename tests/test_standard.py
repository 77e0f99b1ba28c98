"""The standard method: seed, doubling step, variants, sizes."""

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polymf import (
    PolyError,
    Polynomial,
    PolyMatrix,
    STANDARD_VARIANTS,
    SummandList,
    block2x2,
    make_factorization,
    parse_polynomial,
    scalar_matrix,
    standard_factorize,
    standard_factorize_polynomial,
    standard_step,
    verify_exact,
)

from polymf.standard import _split_pairs

from conftest import factorizations, nonzero_polynomials, polynomials, rational_polynomials, split_by_flat_list


def p(text: str):
    return parse_polynomial(text)


class TestSummandList:
    def test_target_sums_products(self):
        sl = SummandList(((p("x"), p("y")), (p("z"), p("z"))))
        assert sl.target == p("xy + z^2")

    def test_rejects_empty(self):
        with pytest.raises(PolyError):
            SummandList(())

    def test_rejects_zero_products(self):
        with pytest.raises(PolyError):
            SummandList(((p("x"), Polynomial.zero()),))
        with pytest.raises(PolyError):
            SummandList(((p("x"), p("y")), (Polynomial.zero(), p("x"))))

    @given(st.lists(st.tuples(nonzero_polynomials(), nonzero_polynomials()), min_size=1, max_size=4))
    @settings(max_examples=50, deadline=None)
    def test_target_is_the_sum_of_the_products(self, pairs):
        sl = SummandList(tuple(pairs))
        total = Polynomial.zero()
        for g, h in pairs:
            total = total + g * h
        assert sl.target == total

    def test_construction_multiplies_nothing(self, monkeypatch):
        def never(a, b):
            raise AssertionError("a polynomial was multiplied")

        monkeypatch.setattr(Polynomial, "__mul__", never)
        SummandList(((p("x"), p("y")), (p("z"), p("z"))))


class TestStandardStep:
    def test_doubles_the_size(self):
        seed = make_factorization(p("xy"), PolyMatrix([[p("x")]]), PolyMatrix([[p("y")]]))
        stepped = standard_step(seed, p("z"), p("z"))
        assert stepped.size == 2
        assert stepped.f == p("xy + z^2")

    @pytest.mark.parametrize("variant", STANDARD_VARIANTS)
    def test_variants_verify(self, variant):
        seed = make_factorization(p("xy"), PolyMatrix([[p("x")]]), PolyMatrix([[p("y")]]))
        stepped = standard_step(seed, p("z"), p("z"), variant)
        assert verify_exact(stepped)[0]

    def test_unknown_variant(self):
        seed = make_factorization(p("xy"), PolyMatrix([[p("x")]]), PolyMatrix([[p("y")]]))
        with pytest.raises(ValueError):
            standard_step(seed, p("z"), p("z"), "v3")

    @given(factorizations(max_steps=1), nonzero_polynomials(), nonzero_polynomials())
    @settings(max_examples=50, deadline=None)
    def test_each_variant_is_the_paper_block_formula(self, mf, g, h):
        """Every variant equals its block formula, built the slow way from
        scalar matrices, their negations and block2x2."""
        c, d = mf.phi, mf.psi
        big_g, big_h = scalar_matrix(g, mf.size), scalar_matrix(h, mf.size)
        formulas = {
            "standard": ((c, -big_g, big_h, d), (d, big_g, -big_h, c)),
            "v1": ((big_h, d, c, -big_g), (big_g, d, c, -big_h)),
            "v2": ((-big_g, c, d, big_h), (-big_h, c, d, big_g)),
        }
        assert formulas.keys() == set(STANDARD_VARIANTS)
        for variant, (phi_blocks, psi_blocks) in formulas.items():
            stepped = standard_step(mf, g, h, variant, verify="skip")
            assert stepped.phi == block2x2(*phi_blocks), variant
            assert stepped.psi == block2x2(*psi_blocks), variant

    def test_negates_polynomials_not_matrices(self, monkeypatch):
        def never(m):
            raise AssertionError("a matrix was negated")

        seed = make_factorization(p("xy"), PolyMatrix([[p("x")]]), PolyMatrix([[p("y")]]))
        monkeypatch.setattr(PolyMatrix, "__neg__", never)
        for variant in STANDARD_VARIANTS:
            standard_step(seed, p("z"), p("z"), variant, verify="skip")

    @given(factorizations(max_steps=1), nonzero_polynomials(), nonzero_polynomials())
    @settings(max_examples=100, deadline=None)
    def test_soundness(self, mf, g, h):
        for variant in STANDARD_VARIANTS:
            stepped = standard_step(mf, g, h, variant, verify="skip")
            assert verify_exact(stepped)[0]
            assert stepped.f == mf.f + g * h


class TestStandardFactorize:
    def test_paper_building_blocks(self):
        h = standard_factorize_polynomial(p("xy + z^2"))
        g = standard_factorize_polynomial(p("xy^2 + x^2z + yz^2"))
        t = standard_factorize_polynomial(p("x^2z + y^2 + y^2z"))
        assert (h.size, g.size, t.size) == (2, 4, 4)

    def test_size_is_two_to_the_k_minus_one(self):
        q = p("x^2 + y^2 + z^2 + xy + yz")
        assert standard_factorize_polynomial(q).size == 2 ** (q.num_terms() - 1)

    def test_variants_agree_on_target(self):
        q = p("xy + yz + zx")
        results = [standard_factorize_polynomial(q, v) for v in STANDARD_VARIANTS]
        assert all(r.f == q for r in results)
        assert len({r.phi for r in results}) == 3  # genuinely different matrices

    def test_rows_hold_one_entry_per_summand(self):
        q = p("x^9 + x^8y + x^7y^2 + x^6y^3 + x^5y^4 + x^4y^5 + x^3y^6 + x^2y^7 + xy^8 + y^9")
        mf = standard_factorize_polynomial(q, verify="skip")
        assert mf.size == 512
        for m in (mf.phi, mf.psi):
            stored = Counter(i for i, _, _ in m.nonzeros())
            assert all(stored[i] == 10 for i in range(mf.size))

    def test_zero_polynomial_rejected(self):
        with pytest.raises(PolyError):
            standard_factorize_polynomial(Polynomial.zero())

    def test_duplicate_summands_allowed(self):
        # the formal expansion keeps colliding monomials separate
        sl = _split_pairs(p("xy^2z^2").items() * 2)
        mf = standard_factorize(sl)
        assert mf.size == 2 and mf.f == p("2xy^2z^2")

    def test_rational_coefficients(self):
        mf = standard_factorize_polynomial(p("1/2 x^2 + 3y^4"))
        assert verify_exact(mf)[0] and mf.size == 2

    @given(
        st.one_of(polynomials(max_terms=4), rational_polynomials(max_terms=4)).filter(bool),
        st.sampled_from(STANDARD_VARIANTS),
    )
    @settings(max_examples=100, deadline=None)
    def test_polynomial_matches_its_monomial_pairs(self, q, variant):
        """Splitting p's terms directly gives the pair of the flat-list
        reference split, entry for entry."""
        got = standard_factorize_polynomial(q, variant, verify="skip")
        halves = [split_by_flat_list(key, c) for key, c in q.items()]
        sl = SummandList(tuple((Polynomial(dict([g])), Polynomial(dict([h]))) for g, h in halves))
        want = standard_factorize(sl, variant, verify="skip")
        assert (got.f, got.phi, got.psi) == (want.f, want.phi, want.psi)
        assert got.phi.texts() == want.phi.texts() and got.psi.texts() == want.psi.texts()
