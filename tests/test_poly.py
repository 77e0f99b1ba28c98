"""Polynomial arithmetic, canonical form, parsing, and splitting."""

from fractions import Fraction
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polymf import (
    MissingVariableError,
    Monomial,
    ParseError,
    PolyError,
    Polynomial,
    parse_polynomial,
)

from polymf.poly import _coeff, _split_key, _times_key
from polymf.standard import _split_pairs

from conftest import polynomials, rational_polynomials, split_by_flat_list


def p(text: str) -> Polynomial:
    return parse_polynomial(text)


class TestParsing:
    def test_juxtaposition_is_multiplication(self):
        assert p("xy") == p("x*y")
        assert p("2xy^2z") == p("2 * x * y^2 * z")

    def test_rational_coefficients(self):
        assert p("1/2 x").evaluate({"x": 2}) == 1
        assert p("3/4").as_constant() == Fraction(3, 4)

    def test_leading_sign(self):
        assert p("-x + y") == p("y") - p("x")
        assert p("+x") == p("x")

    def test_numbered_variables(self):
        q = p("x1^2 + x2")
        assert q.variables() == {"x1", "x2"}

    def test_implicit_exponent(self):
        assert p("x^1") == p("x")

    @pytest.mark.parametrize(
        "bad, offset",
        [
            ("x^", 2),
            ("x +", 3),
            ("(x)", 0),
            ("x^-2", 2),
            ("1/0", 2),
            ("x ** y", 3),
        ],
    )
    def test_parse_errors_carry_offsets(self, bad, offset):
        with pytest.raises(ParseError) as exc:
            p(bad)
        assert exc.value.offset == offset

    def test_cancellation_to_zero(self):
        assert p("x - x").is_zero()
        assert str(p("xy - yx")) == "0"

    @pytest.mark.parametrize(
        "text",
        ["1" * 5000, f"{'9' * 5000}/{'7' * 4999}x^{'3' * 4400} - {'8' * 12000}y", "2" * 601 + "x"],
        ids=["integer", "rational-and-exponent", "just-over-a-chunk"],
    )
    def test_numerals_of_any_length_round_trip(self, text):
        q = p(text)
        assert parse_polynomial(str(q)) == q
        assert (q - q).is_zero()

    def test_long_numeral_value(self):
        assert p("1" * 5000).as_constant() == (10**5000 - 1) // 9


class TestCanonicalForm:
    def test_graded_lex_order(self):
        q = p("y + x^2 + xy + 1")
        assert [str(m) for m in q.terms] == ["x^2", "x*y", "y", "1"]

    def test_graded_lex_order_of_numbered_names(self):
        q = p("x10 + x1 + x1^2 + x*x10 + x^2 + 3")
        assert [str(m) for m in q.terms] == ["x^2", "x*x10", "x1^2", "x1", "x10", "3"]
        assert str(q) == "x^2 + x*x10 + x1^2 + x1 + x10 + 3"

    def test_like_terms_combine(self):
        assert p("2x + 3x") == p("5x")
        assert p("x^2y + yx^2").num_terms() == 1

    def test_equality_and_hash_ignore_construction_order(self):
        a = p("x + y")
        b = p("y") + p("x")
        assert a == b and hash(a) == hash(b)

    @given(polynomials())
    @settings(max_examples=100)
    def test_str_round_trips(self, q):
        assert parse_polynomial(str(q)) == q

    def test_constructor_refuses_a_name_the_parser_refuses(self):
        # it would print 3*x"y^2, which does not parse
        for name in ('x"y', "xy", "1x", "", "x_1"):
            with pytest.raises(PolyError):
                Polynomial({((name, 2),): 3})
        assert str(Polynomial({(("x1", 2),): 3})) == "3*x1^2"

    def test_constructor_refuses_names_out_of_order(self):
        # it would print y*x and differ from the same monomial built as x*y
        for key in ((("y", 1), ("x", 1)), (("x", 1), ("x", 2))):
            with pytest.raises(PolyError):
                Polynomial({key: 1})
        assert Polynomial({(("x", 1), ("y", 1)): 1}) == p("x*y")

    def test_constructor_refuses_exponents_below_one_or_not_int(self):
        # (('x', 0),) would print 5*x and differ from Polynomial.const(5)
        for exp in (0, -1, True, 1.0, Fraction(2)):
            with pytest.raises(PolyError):
                Polynomial({(("x", exp),): 5})
        assert Polynomial({(): 5}) == Polynomial.const(5)
        assert Polynomial({(("x", 2),): 5}) == p("5x^2")

    @pytest.mark.parametrize("coeff, key", [(1, (("y", 1), ("x", 1))), (2, (("x", 1.5),))])
    def test_monomial_refuses_a_key_the_polynomial_refuses(self, coeff, key):
        # they would print y*x and 2*x^1.5, which parse to another monomial or not at all
        with pytest.raises(PolyError):
            Monomial(coeff, key)
        assert str(Monomial(1, (("x", 1), ("y", 1)))) == "x*y"

    @given(polynomials(), polynomials(), polynomials())
    @settings(max_examples=100)
    def test_ring_laws(self, a, b, c):
        assert a * (b + c) == a * b + a * c
        assert (a * b) * c == a * (b * c)
        assert a + b == b + a
        assert a - a == Polynomial.zero()


class TestEvaluation:
    def test_exact_rational_value(self):
        q = p("1/3 x^2 + y")
        assert q.evaluate({"x": 3, "y": Fraction(1, 2)}) == Fraction(7, 2)

    def test_missing_variable(self):
        with pytest.raises(MissingVariableError):
            p("x + y").evaluate({"x": 1})

    @given(polynomials(), polynomials(), st.integers(-100, 100), st.integers(-100, 100), st.integers(-100, 100))
    @settings(max_examples=100)
    def test_evaluation_is_a_ring_homomorphism(self, a, b, x, y, z):
        pt = {"x": x, "y": y, "z": z}
        assert (a * b).evaluate(pt) == a.evaluate(pt) * b.evaluate(pt)
        assert (a + b).evaluate(pt) == a.evaluate(pt) + b.evaluate(pt)

    @given(rational_polynomials(), st.integers(1, 10**6), st.data())
    @settings(max_examples=200)
    def test_value_bits_bounds_the_value(self, q, bound, data):
        coordinates = st.sampled_from((-bound, bound)) | st.integers(-bound, bound)
        pt = {v: data.draw(coordinates) for v in "xyz"}
        assert Fraction(q.evaluate(pt)).numerator.bit_length() <= q.value_bits(bound)


def assert_integer_first(q: Polynomial) -> None:
    """Every stored coefficient is an int exactly when it is integral."""
    for m in q.terms:
        assert type(m.coeff) in (int, Fraction)
        assert (type(m.coeff) is int) == (m.coeff.denominator == 1), m


def fraction_value(q: Polynomial, point) -> Fraction:
    """Reference evaluation in Fraction arithmetic only."""
    return sum(
        (Fraction(m.coeff) * prod(Fraction(point[v]) ** e for v, e in m.exponents) for m in q.terms),
        Fraction(0),
    )


class TestIntegerFirst:
    def test_rational_cancellation_stores_int(self):
        assert type((p("1/2 x") * p("2")).terms[0].coeff) is int
        for q in (p("1/2 x") * p("2"), p("1/3 x + 2/3 x"), p("2/4 x").scale(2), p("4/2 x")):
            assert q == p("x") or q == p("2x")
            assert_integer_first(q)
        assert type(Polynomial.const(Fraction(6, 3)).as_constant()) is int
        assert type(Polynomial({(): Fraction(5)}).as_constant()) is int
        assert type(p("3/4").as_constant()) is Fraction

    @given(rational_polynomials(), rational_polynomials(), st.sampled_from([2, Fraction(3, 2), Fraction(-7, 7)]))
    @settings(max_examples=100)
    def test_coefficients_are_int_exactly_when_integral(self, a, b, c):
        for q in (a, b, a * b, a + b, a - b, -a, a.scale(c), Polynomial.dot([(a, b), (b, a)])):
            assert_integer_first(q)

    @given(st.lists(st.tuples(rational_polynomials(), rational_polynomials()), max_size=4))
    @settings(max_examples=100)
    def test_dot_is_a_sum_of_products(self, pairs):
        assert Polynomial.dot(pairs) == sum((a * b for a, b in pairs), Polynomial.zero())

    @given(rational_polynomials())
    @settings(max_examples=100)
    def test_str_round_trips_on_rational_inputs(self, q):
        again = parse_polynomial(str(q))
        assert again == q
        assert_integer_first(again)

    @given(
        rational_polynomials(),
        st.integers(-50, 50), st.integers(-50, 50),
        st.fractions(max_denominator=9), st.fractions(max_denominator=9),
    )
    @settings(max_examples=100)
    def test_evaluate_matches_a_fraction_reference(self, q, x, y, fz, fy):
        for point in ({"x": x, "y": y, "z": x - y}, {"x": x, "y": fy, "z": fz}):
            value = q.evaluate(point)
            assert value == fraction_value(q, point)
            assert (type(value) is int) == (Fraction(value).denominator == 1)
        if all(m.coeff.denominator == 1 for m in q.terms):
            assert type(q.evaluate({"x": x, "y": y, "z": 7})) is int


def halves(q: Polynomial) -> tuple[Polynomial, Polynomial]:
    """The (g, h) pair of the one term of q."""
    ((g, h),) = _split_pairs(q.items()).pairs
    return g, h


class TestMonomialSplit:
    def test_degree_halving_rule(self):
        g, h = halves(p("x^5y^2"))
        assert str(g) == "x^4" and str(h) == "x*y^2"

    def test_sign_travels_with_first_factor(self):
        g, h = halves(p("-xy"))
        assert (str(g), str(h)) == ("-x", "y")
        assert g * h == p("-xy")

    def test_constant_splits_trivially(self):
        g, h = halves(p("4"))
        assert g == p("4") and h.is_one()

    @given(polynomials().filter(lambda q: not q.is_zero()))
    @settings(max_examples=100)
    def test_split_is_a_factorization(self, q):
        for (key, c), (g, h) in zip(q.items(), _split_pairs(q.items()).pairs):
            assert g * h == Polynomial({key: c})
            ((kg, _),), ((kh, _),) = g.items(), h.items()
            assert sum(e for _, e in kg) >= sum(e for _, e in kh) >= 0


SPLIT_COEFFICIENTS = st.integers(-9, 9).filter(bool) | st.builds(
    Fraction, st.integers(-9, 9).filter(bool), st.integers(1, 6)
)


@st.composite
def terms(draw):
    """One (exponent key, canonical coefficient) term."""
    powers = draw(st.dictionaries(st.sampled_from(["x", "x1", "x10", "y"]), st.integers(1, 6)))
    return tuple(sorted(powers.items())), _coeff(draw(SPLIT_COEFFICIENTS))


class TestMonomialSplitReference:
    @given(terms())
    @settings(max_examples=200)
    def test_split_matches_the_flat_list_rule(self, term):
        (k1, _), (k2, _) = split_by_flat_list(*term)
        assert _split_key(term[0]) == (k1, k2)

    @given(st.lists(terms(), min_size=1, max_size=4))
    @settings(max_examples=100)
    def test_split_pairs_wrap_the_same_halves(self, ts):
        pairs = _split_pairs(ts).pairs
        for term, (g, h) in zip(ts, pairs):
            want_g, want_h = (Polynomial(dict([half])) for half in split_by_flat_list(*term))
            assert (g, h) == (want_g, want_h)
            # coefficients are canonical: an integral Fraction is an int
            assert type(g.items()[0][1]) is type(want_g.items()[0][1])
            assert str(g) == str(want_g) and str(h) == str(want_h)


def merged_key(ka, kb):
    """The exponent key of a product by summing exponents per variable
    and sorting the names (reference for _times_key)."""
    powers = dict(ka)
    for v, e in kb:
        powers[v] = powers.get(v, 0) + e
    return tuple(sorted(powers.items()))


KEYS = st.dictionaries(st.sampled_from(["a", "b", "x", "x1", "x10", "y", "z"]), st.integers(1, 6)).map(
    lambda powers: tuple(sorted(powers.items()))
)


class TestOneTermProduct:
    """A product of two one-term polynomials makes its one term directly;
    it must equal the general product, coefficient types included."""

    @given(terms(), terms())
    @settings(max_examples=200)
    def test_matches_dot(self, m, n):
        a, b = Polynomial(dict([m])), Polynomial(dict([n]))
        product = a * b
        reference = Polynomial.dot(((a, b),))
        assert product == reference
        assert [(k, type(c)) for k, c in product._terms.items()] == [
            (k, type(c)) for k, c in reference._terms.items()
        ]
        assert_integer_first(product)

    @pytest.mark.parametrize("left, right, expected", [
        ("1/2 x", "2y", "xy"),
        ("-3/7", "7/3", "-1"),
        ("5", "1/5 z^2", "z^2"),
        ("2/3 x^2", "1/3 x", "2/9 x^3"),
        ("4", "-3", "-12"),
    ])
    def test_rational_factors_with_an_integral_product(self, left, right, expected):
        product = p(left) * p(right)
        assert product == p(expected)
        assert_integer_first(product)

    @pytest.mark.parametrize("ka, kb", [
        ((("a", 1),), (("x", 2), ("y", 1))),  # disjoint, a's variables first
        ((("x", 2), ("y", 1)), (("a", 1),)),  # disjoint, b's variables first
        ((("a", 1), ("x", 2)), (("b", 3), ("y", 1))),  # interleaved
        ((("x", 1), ("y", 2)), (("x", 3), ("z", 1))),  # overlapping
        ((("x", 1),), (("x", 1),)),  # one shared variable
        ((), (("x", 1),)),  # empty
        ((("x", 1),), ()),
        ((), ()),
    ])
    def test_times_key_cases(self, ka, kb):
        assert _times_key(ka, kb) == merged_key(ka, kb)

    @given(KEYS, KEYS)
    @settings(max_examples=300)
    def test_times_key_is_the_merge(self, ka, kb):
        assert _times_key(ka, kb) == merged_key(ka, kb)


class TestCounting:
    def test_two_product_expansion_has_sixteen_formal_monomials(self):
        # counted in factor form: 1 + 3*2 + 3*3
        from polymf import SummandReducedPoly

        srp = SummandReducedPoly.from_strings(
            ["zy"],
            [["xy^2 + x^2z + yz^2", "xy + z^2"], ["yz + xy^2 + x^2", "x^3z^2 + yx + y^2"]],
        )
        assert len(srp.formal_monomials()) == 16

    def test_canonical_count_merges_collisions(self):
        # the part-I product repeats xy^2z^2, so the canonical count is 6
        # while the formal (uncombined) expansion has 7 summands
        f = p("zy") + p("xy^2 + x^2z + yz^2") * p("xy + z^2")
        assert f.num_terms() == 6

    def test_single_monomial(self):
        assert p("3xy^2").num_terms() == 1
