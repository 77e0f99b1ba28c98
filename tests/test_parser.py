"""The one-pass polynomial parser against the recursive-descent parser it
replaced, which is kept here as the reference: equal polynomials on
well-formed text, the same ParseError message and offset on malformed
text, except where the new parser refuses non-ASCII digits and
whitespace."""

import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polymf import ParseError, Polynomial, parse_polynomial
from polymf.poly import Coeff, _int_of

# -- the reference ----------------------------------------------------------

_TOKEN_RE = re.compile(
    r"""(?P<ws>\s+)
      | (?P<num>\d+)
      | (?P<name>[A-Za-z][0-9]*)
      | (?P<op>[+\-*/^])
    """,
    re.VERBOSE,
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            raise ParseError(f"unknown token {text[pos]!r}", pos)
        if m.lastgroup != "ws":
            tokens.append((m.lastgroup, m.group(), pos))
        pos = m.end()
    return tokens


class ReferenceParser:
    """Recursive descent over a token list, building and multiplying one
    Polynomial per factor."""

    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self) -> tuple[str, str, int] | None:
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def next(self) -> tuple[str, str, int]:
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of input", len(self.text))
        self.i += 1
        return tok

    def parse(self) -> Polynomial:
        result = self.expr()
        tok = self.peek()
        if tok is not None:
            raise ParseError(f"unexpected token {tok[1]!r}", tok[2])
        return result

    def expr(self) -> Polynomial:
        sign = 1
        tok = self.peek()
        if tok and tok[0] == "op" and tok[1] in "+-":
            self.next()
            sign = -1 if tok[1] == "-" else 1
        total = self.term().scale(sign)
        while True:
            tok = self.peek()
            if tok is None or tok[0] != "op" or tok[1] not in "+-":
                break
            self.next()
            t = self.term()
            total = total + (t if tok[1] == "+" else -t)
        return total

    def term(self) -> Polynomial:
        product = self.factor()
        while True:
            tok = self.peek()
            if tok is None:
                break
            if tok[0] == "op" and tok[1] == "*":
                self.next()
                product = product * self.factor()
            elif tok[0] in ("num", "name"):
                product = product * self.factor()
            else:
                break
        return product

    def factor(self) -> Polynomial:
        kind, text, offset = self.next()
        if kind == "num":
            value: Coeff = _int_of(text)
            tok = self.peek()
            if tok and tok[0] == "op" and tok[1] == "/":
                self.next()
                dkind, dtext, doffset = self.next()
                if dkind != "num":
                    raise ParseError("expected denominator", doffset)
                denominator = _int_of(dtext)
                if denominator == 0:
                    raise ParseError("zero denominator", doffset)
                value = Fraction(value, denominator)
            return Polynomial.const(value)
        if kind == "name":
            exp = 1
            tok = self.peek()
            if tok and tok[0] == "op" and tok[1] == "^":
                self.next()
                ekind, etext, eoffset = self.next()
                if ekind == "op" and etext == "-":
                    raise ParseError("negative exponent", eoffset)
                if ekind != "num":
                    raise ParseError("expected exponent", eoffset)
                exp = _int_of(etext)
            return Polynomial.variable(text, exp)
        raise ParseError(f"unexpected token {text!r}", offset)


def reference_parse(text: str) -> Polynomial:
    return ReferenceParser(text).parse()


def outcome(parse, text: str):
    """("ok", canonical terms with their coefficient types) or
    ("error", message, offset)."""
    try:
        p = parse(text)
    except ParseError as exc:
        return "error", str(exc), exc.offset
    return "ok", {k: (c, type(c)) for k, c in p._terms.items()}


# -- generated text ---------------------------------------------------------

SPACE = st.text(alphabet=" \t\n\r\f\v", max_size=2)
NAMES = st.sampled_from(["x", "x1", "x10", "y", "z"])
NUMERALS = st.integers(0, 99).map(str) | st.integers(650, 700).flatmap(
    lambda n: st.text(alphabet="0123456789", min_size=n, max_size=n)
)


@st.composite
def factors(draw) -> str:
    kind = draw(st.sampled_from(["numeral", "rational", "name", "power"]))
    if kind == "numeral":
        return draw(NUMERALS)
    if kind == "rational":
        denominator = draw(st.integers(1, 9).map(str) | NUMERALS.filter(lambda d: d.strip("0")))
        return f"{draw(NUMERALS)}{draw(SPACE)}/{draw(SPACE)}{denominator}"
    name = draw(NAMES)
    if kind == "name":
        return name
    return f"{name}{draw(SPACE)}^{draw(SPACE)}{draw(st.sampled_from(['0', '1', '2', '3', '10']))}"


@st.composite
def terms(draw, joiners) -> str:
    parts = draw(st.lists(factors(), min_size=1, max_size=4))
    out = parts[0]
    for part in parts[1:]:
        out += draw(st.sampled_from(joiners)) + part
    return out


WELL_FORMED = ["*", " * ", " ", "\t*\n"]
# "" juxtaposes with no space: "x" then "2" reads as the name "x2", and
# "1/2" then "3/4" as "1/23/4", which is malformed
ANY_JOIN = WELL_FORMED + [""]


@st.composite
def polynomial_texts(draw, joiners=ANY_JOIN) -> str:
    body = draw(st.lists(terms(joiners), min_size=1, max_size=5))
    signs = draw(st.lists(st.sampled_from(["+", "-"]), min_size=len(body), max_size=len(body)))
    if draw(st.booleans()):  # a term and its negation cancel
        k = draw(st.integers(0, len(body) - 1))
        body.append(body[k])
        signs.append("+" if signs[k] == "-" else "-")
    text = draw(st.sampled_from(["", "+", "-", " - "])) + draw(SPACE) + body[0]
    for sign, term in zip(signs[1:], body[1:]):
        text += f"{draw(SPACE)}{sign}{draw(SPACE)}{term}"
    return draw(SPACE) + text + draw(SPACE)


# Characters both parsers tokenize alike: no non-ASCII digits or
# whitespace, and none of the ASCII separators \x1c-\x1f that \s matched.
TOKEN_SOUPS = st.text(alphabet="xyz10 9+-*/^\t(.\u00e9", max_size=12)

PINNED = ["x^", "x +", "(x)", "x^-2", "1/0", "x ** y"]

NON_ASCII = [
    ("\uff13x", 0),  # fullwidth digit
    ("x^\u0663", 2),  # Arabic-Indic digit
    ("1/\u0662", 2),
    ("x\u00a0y", 1),  # no-break space
    ("x\u3000y", 1),  # ideographic space
    ("\u2003x", 0),  # em space
    ("x\x1cy", 1),  # an ASCII separator that Unicode \s matches
    ("x^2 + \uff13 - (", 6),  # reported before the later unknown '('
]


class TestAgainstReference:
    @given(polynomial_texts(WELL_FORMED))
    @settings(max_examples=300, deadline=None)
    def test_same_polynomial_on_well_formed_text(self, text):
        got = outcome(parse_polynomial, text)
        assert got[0] == "ok" and got == outcome(reference_parse, text)

    @given(polynomial_texts())
    @settings(max_examples=300, deadline=None)
    def test_same_outcome_with_juxtaposition(self, text):
        assert outcome(parse_polynomial, text) == outcome(reference_parse, text)

    @given(TOKEN_SOUPS)
    @settings(max_examples=500, deadline=None)
    def test_same_error_on_token_soup(self, text):
        assert outcome(parse_polynomial, text) == outcome(reference_parse, text)

    @pytest.mark.parametrize("text", PINNED)
    def test_same_error_on_pinned_cases(self, text):
        got = outcome(parse_polynomial, text)
        assert got[0] == "error" and got == outcome(reference_parse, text)

    @pytest.mark.parametrize(
        "text",
        ["x^ (", "1/x", "2^3", "x/2", "--x", "x + -y", "x^+2", "x^y", "1/", "", "  ", "2/3/4", "x^2^3"],
    )
    def test_same_error_on_each_refusal(self, text):
        got = outcome(parse_polynomial, text)
        assert got[0] == "error" and got == outcome(reference_parse, text)


class TestAsciiOnly:
    @pytest.mark.parametrize("text, offset", NON_ASCII)
    def test_non_ascii_digits_and_spaces_are_unknown_tokens(self, text, offset):
        with pytest.raises(ParseError) as exc:
            parse_polynomial(text)
        assert exc.value.offset == offset
        assert str(exc.value) == f"unknown token {text[offset]!r} (at offset {offset})"

    @pytest.mark.parametrize("text", [text for text, _ in NON_ASCII[:-1]])
    def test_the_reference_accepted_them(self, text):
        reference_parse(text)
