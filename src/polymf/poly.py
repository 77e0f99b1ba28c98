"""Exact multivariate polynomial arithmetic over the rationals.

A polynomial is a canonical, immutable collection of monomials with
exact rational coefficients.  A coefficient is stored as a Python int
whenever its denominator is 1 and as a Fraction only when it is truly
rational, so integer inputs never pay for Fraction arithmetic.
Canonical form is unique: terms are fully combined, zero terms are
dropped, integral coefficients are ints, and iteration order is strictly
decreasing graded-lex over the fixed lexicographic variable order.
Exactness makes every algebraic identity in this package bit-checkable.

Variables are short identifiers (a letter optionally followed by
digits), ordered lexicographically by name for the whole process.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Iterable, Mapping

# Exponent key: ((var, exp), ...) sorted by var name, all exps > 0.
ExpKey = tuple[tuple[str, int], ...]

# An exact rational value: an int when its denominator is 1.
Coeff = int | Fraction

# Assignment of exact rational values to variables, for evaluation.
EvalPoint = Mapping[str, Coeff]

_VAR_RE = re.compile(r"[A-Za-z][0-9]*\Z")


class PolyError(ValueError):
    """Base class for polynomial domain errors."""


class ParseError(PolyError):
    """Syntax error in polynomial text; carries the byte offset."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class MissingVariableError(PolyError):
    """An evaluation point does not cover some variable."""


def _coeff(c) -> Coeff:
    """c as a canonical coefficient: an int when its denominator is 1,
    else a Fraction."""
    if type(c) is int:
        return c
    if not isinstance(c, Fraction):
        c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


def check_var_name(name: str) -> str:
    if type(name) is not str or not _VAR_RE.match(name):
        raise PolyError(f"invalid variable name: {name!r}")
    return name


def _degree(exps: ExpKey) -> int:
    return sum(e for _, e in exps)


def _graded_lex_key(exps: ExpKey) -> tuple:
    """Ascending sort key of decreasing graded-lex order: higher total
    degree first, then the first variable (in lex order) whose exponents
    differ decides, higher exponent first."""
    return (-_degree(exps), tuple((v, -e) for v, e in exps))


def _times_key(ka: ExpKey, kb: ExpKey) -> ExpKey:
    """The exponent key of a product of two monomials: a merge of the two
    variable-sorted keys that adds the exponents of shared variables."""
    if not ka:
        return kb
    if not kb:
        return ka
    out = []
    i = j = 0
    na, nb = len(ka), len(kb)
    while i < na and j < nb:
        va, ea = ka[i]
        vb, eb = kb[j]
        if va == vb:
            out.append((va, ea + eb))
            i += 1
            j += 1
        elif va < vb:
            out.append(ka[i])
            i += 1
        else:
            out.append(kb[j])
            j += 1
    out.extend(ka[i:])
    out.extend(kb[j:])
    return tuple(out)


@dataclass(frozen=True)
class Monomial:
    """A single nonzero term: coefficient times a product of variable
    powers.  Its exponent key must be canonical, as for Polynomial;
    PolyError otherwise."""

    coeff: Coeff
    exponents: ExpKey

    def __post_init__(self):
        if self.coeff == 0:
            raise PolyError("zero monomials are never materialized")
        _check_key(self.exponents)

    def __str__(self) -> str:
        return _format_term(self.coeff, self.exponents, leading=True)


def _split_key(exps: ExpKey) -> tuple[ExpKey, ExpKey]:
    """The exponent keys of the halves h1 * h2 of a term of degree d, by
    the deterministic degree-halving rule: its variable powers, in the
    fixed variable order, are read as single-variable factors; h1 takes
    the first ceil(d/2) of them and the coefficient (sign included), h2
    the rest with coefficient 1, so a constant c splits as (c, 1).  At
    most one variable's power is shared by both halves."""
    left = (_degree(exps) + 1) // 2
    for i, (v, e) in enumerate(exps):
        if e >= left:
            head = exps[:i] + ((v, left),)
            tail = ((v, e - left),) + exps[i + 1:] if e > left else exps[i + 1:]
            return head, tail
        left -= e
    return exps, ()


class Polynomial:
    """Immutable multivariate polynomial with exact rational coefficients,
    each stored as an int when it is integral and as a Fraction otherwise."""

    __slots__ = ("_terms", "_hash")

    def __init__(self, terms: Mapping[ExpKey, Coeff] | None = None):
        """The polynomial of a {exponent key: coefficient} map; zero
        coefficients are dropped.  Each key must be canonical, so that
        the text it prints parses back to it: variable names that pass
        check_var_name, in strictly increasing order, each with an int
        exponent of at least 1 (not a bool).  Raises PolyError otherwise.
        """
        terms = terms or {}
        for k in terms:
            _check_key(k)
        self._terms = {k: _coeff(c) for k, c in terms.items() if c != 0}
        self._hash = None

    # -- constructors ----------------------------------------------------

    @staticmethod
    def zero() -> "Polynomial":
        return _ZERO

    @staticmethod
    def const(c: Coeff) -> "Polynomial":
        c = _coeff(c)
        return _wrap({(): c} if c else {})

    @staticmethod
    def variable(name: str, exp: int = 1) -> "Polynomial":
        check_var_name(name)
        if exp < 0:
            raise PolyError(f"negative exponent {exp} for {name}")
        if exp == 0:
            return Polynomial.const(1)
        return _wrap({((name, exp),): 1})

    # -- canonical views -------------------------------------------------

    @property
    def terms(self) -> tuple[Monomial, ...]:
        """Monomials in the order of items(): a view for callers only."""
        return tuple(Monomial(c, k) for k, c in self.items())

    def items(self) -> list[tuple[ExpKey, Coeff]]:
        """(exponent key, coefficient) of each term, in strictly decreasing
        graded-lex order."""
        terms = self._terms
        return [(k, terms[k]) for k in self._sorted_keys()]

    def _sorted_keys(self) -> list[ExpKey]:
        """Exponent keys in strictly decreasing graded-lex order."""
        if len(self._terms) < 2:
            return list(self._terms)
        return sorted(self._terms, key=_graded_lex_key)

    def num_terms(self) -> int:
        return len(self._terms)

    def variables(self) -> set[str]:
        return {v for k in self._terms for v, _ in k}

    def is_zero(self) -> bool:
        return not self._terms

    def is_one(self) -> bool:
        return self._terms == {(): 1}

    def as_constant(self) -> Coeff | None:
        """The value if this is a constant polynomial, else None."""
        if not self._terms:
            return 0
        if len(self._terms) == 1 and () in self._terms:
            return self._terms[()]
        return None

    # -- ring operations -------------------------------------------------

    def __add__(self, other: "Polynomial") -> "Polynomial":
        if not self._terms:
            return other
        if not other._terms:
            return self
        acc = dict(self._terms)
        get = acc.get
        for k, c in other._terms.items():
            acc[k] = get(k, 0) + c
        return _wrap(_settle(acc))

    def __neg__(self) -> "Polynomial":
        return _wrap({k: -c for k, c in self._terms.items()})

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        """The product.  Two one-term polynomials, such as the entries of
        every pipeline pair, make their one term directly; other products
        go through dot."""
        a, b = self._terms, other._terms
        if len(a) == 1 and len(b) == 1:
            ((ka, ca),) = a.items()
            ((kb, cb),) = b.items()
            return _wrap({_times_key(ka, kb): _coeff(ca * cb)})
        return Polynomial.dot(((self, other),))

    @staticmethod
    def dot(pairs: Iterable[tuple["Polynomial", "Polynomial"]]) -> "Polynomial":
        """The sum of a*b over the (a, b) pairs, accumulated term by term in
        one dict, so no intermediate product or partial sum is built."""
        acc: dict[ExpKey, Coeff] = {}
        get = acc.get
        for a, b in pairs:
            b_terms = b._terms.items()
            for ka, ca in a._terms.items():
                for kb, cb in b_terms:
                    key = _times_key(ka, kb)
                    acc[key] = get(key, 0) + ca * cb
        return _wrap(_settle(acc))

    def scale(self, c: Coeff) -> "Polynomial":
        c = _coeff(c)
        if c == 1:
            return self
        return _wrap(_settle({k: c * v for k, v in self._terms.items()}))

    # -- evaluation ------------------------------------------------------

    def evaluate(self, point: EvalPoint) -> Coeff:
        """Exact value at an assignment covering all variables; an int
        whenever it is integral (always, at integer points)."""
        total = 0
        for k, c in self._terms.items():
            val = c
            for v, e in k:
                if v not in point:
                    raise MissingVariableError(f"no assignment for variable {v!r}")
                x = point[v]
                if type(x) is not int and not isinstance(x, Fraction):
                    x = Fraction(x)
                val *= x**e
            total += val
        return _coeff(total)

    def value_bits(self, bound: int) -> int:
        """A bound on the bits of the numerator of this polynomial's value
        at any integer point whose coordinates have absolute value at most
        bound: total degree * bit_length(bound) + coefficient bits (the
        largest numerator's and the denominators' lcm's) +
        bit_length(#terms).  It costs one pass over the terms and none of
        the value's arithmetic."""
        terms = self._terms
        if not terms:
            return 0
        degree = max(map(_degree, terms))
        top = max(abs(c.numerator) for c in terms.values())
        denominators = lcm(*(c.denominator for c in terms.values()))
        return (
            degree * bound.bit_length()
            + top.bit_length()
            + denominators.bit_length()
            + len(terms).bit_length()
        )

    # -- equality / hashing ----------------------------------------------

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Polynomial) and self._terms == other._terms

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = self._hash = hash(frozenset(self._terms.items()))
        return h

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        terms = self._terms
        return "".join(_format_term(terms[k], k, leading=(i == 0)) for i, k in enumerate(self._sorted_keys()))

    def __repr__(self) -> str:
        return f"Polynomial({str(self)!r})"


def _check_key(k: ExpKey) -> None:
    if type(k) is not tuple:
        raise PolyError(f"exponent key must be a tuple of (name, exponent) pairs, got {k!r}")
    previous = ""
    for item in k:
        if type(item) is not tuple or len(item) != 2:
            raise PolyError(f"exponent key must be a tuple of (name, exponent) pairs, got {k!r}")
        v, e = item
        check_var_name(v)
        if v <= previous:
            raise PolyError(f"variables of exponent key {k!r} are not in strictly increasing order")
        if type(e) is not int or e < 1:
            raise PolyError(f"exponent of {v} must be an int of at least 1, got {e!r}")
        previous = v


def _wrap(terms: dict[ExpKey, Coeff]) -> Polynomial:
    """The polynomial over a term dict that is already canonical (no zero
    coefficient, integral coefficients as ints); the dict is kept, not copied."""
    p = Polynomial.__new__(Polynomial)
    p._terms = terms
    p._hash = None
    return p


def _settle(acc: dict[ExpKey, Coeff]) -> dict[ExpKey, Coeff]:
    """A canonical term dict from exact sums: zero sums are dropped and
    integral Fractions become ints."""
    return {k: c if type(c) is int else _coeff(c) for k, c in acc.items() if c}


_ZERO = Polynomial({})


def _format_term(coeff: Coeff, exps: ExpKey, leading: bool) -> str:
    sign = "-" if coeff < 0 else "+"
    mag = abs(coeff)
    factors = [f"{v}^{_decimal(e)}" if e > 1 else v for v, e in exps]
    if not factors or mag != 1:
        text = _decimal(mag) if type(mag) is int else f"{_decimal(mag.numerator)}/{_decimal(mag.denominator)}"
        factors.insert(0, text)
    body = "*".join(factors)
    if leading:
        return body if coeff > 0 else f"-{body}"
    return f" {sign} {body}"


# Python converts an int of more than sys.get_int_max_str_digits() digits
# (4300 by default, never below 640) to or from decimal text only in
# pieces, so numerals go through these two in chunks of _CHUNK digits:
# parse(str(p)) == p holds for coefficients of any length.
_CHUNK = 600
_CHUNK_BASE = 10**_CHUNK


def _decimal(n: int) -> str:
    """Decimal text of the nonnegative int n, of any length."""
    if n < _CHUNK_BASE:
        return str(n)
    chunks = []
    while n >= _CHUNK_BASE:
        n, r = divmod(n, _CHUNK_BASE)
        chunks.append(f"{r:0{_CHUNK}d}")
    chunks.append(str(n))
    return "".join(reversed(chunks))


def _int_of(digits: str) -> int:
    """The int of a string of decimal digits, of any length."""
    if len(digits) <= _CHUNK:
        return int(digits)
    value = 0
    for start in range(0, len(digits), _CHUNK):
        chunk = digits[start : start + _CHUNK]
        value = value * 10 ** len(chunk) + int(chunk)
    return value


# ---------------------------------------------------------------------------
# Parser.  Grammar (ASCII only: the digits 0-9, the letters A-Z and a-z,
# and the whitespace " \t\n\r\f\v", which is ignored):
#   expr     := ('+'|'-')? term (('+'|'-') term)*
#   term     := factor ('*'? factor)*
#   factor   := rational | var ('^' uint)?
#   rational := uint ('/' uint)?
#   var      := letter digits?
# Juxtaposition is multiplication (xy = x*y for single-letter variables).
# ---------------------------------------------------------------------------

# One token per match: whitespace (no group), a numeral, a name, an
# operator, or any other single character, which is an unknown token.
_TOKENS = re.compile(r"\s+|(\d+)|([A-Za-z][0-9]*)|([-+*/^])|(.)", re.ASCII | re.DOTALL)
_NUM, _NAME, _OP, _UNKNOWN = 1, 2, 3, 4

# What the parser has just read.  From _AFTER_NUM on, a factor has been
# read and the open term may go on or close.
_START, _FACTOR, _DENOMINATOR, _EXPONENT, _AFTER_NUM, _AFTER_NAME, _AFTER_FACTOR = range(7)


def parse_polynomial(text: str) -> Polynomial:
    """Parse polynomial text into canonical form.

    One pass over the tokens: the open term is kept as its coefficient
    and its {var: exp} map, and is added into one term dict at each
    top-level '+' or '-' and at the end.  parse(print(p)) == p for every
    polynomial p.

    Raises ParseError at the first unknown character anywhere in the
    text, else at the first token the grammar refuses.
    """
    acc: dict[ExpKey, Coeff] = {}
    coeff: Coeff = 1  # of the open term, its sign included
    powers: dict[str, int] = {}  # of the open term
    var = ""  # the last variable read, which a '^' raises to a power
    state = _START
    for m in _TOKENS.finditer(text):
        kind = m.lastindex
        if kind is None:
            continue
        tok = m[0]
        if kind == _NUM:
            if state == _DENOMINATOR:
                denominator = _int_of(tok)
                if not denominator:
                    raise _syntax_error(text, "zero denominator", m.start())
                coeff = Fraction(coeff, denominator)
                state = _AFTER_FACTOR
            elif state == _EXPONENT:
                exp = powers.pop(var) + _int_of(tok) - 1
                if exp:
                    powers[var] = exp
                state = _AFTER_FACTOR
            else:
                coeff *= _int_of(tok)
                state = _AFTER_NUM
            continue
        if kind == _NAME and state != _DENOMINATOR and state != _EXPONENT:
            powers[tok] = powers.get(tok, 0) + 1
            var = tok
            state = _AFTER_NAME
            continue
        if kind == _OP:
            if state >= _AFTER_NUM:
                if tok == "*":
                    state = _FACTOR
                    continue
                if tok == "+" or tok == "-":
                    key = tuple(sorted(powers.items()))
                    acc[key] = acc.get(key, 0) + coeff
                    coeff = 1 if tok == "+" else -1
                    powers = {}
                    state = _FACTOR
                    continue
                if tok == "/" and state == _AFTER_NUM:
                    state = _DENOMINATOR
                    continue
                if tok == "^" and state == _AFTER_NAME:
                    state = _EXPONENT
                    continue
            elif state == _START and (tok == "+" or tok == "-"):
                coeff = 1 if tok == "+" else -1
                state = _FACTOR
                continue
        if kind == _UNKNOWN:
            raise ParseError(f"unknown token {tok!r}", m.start())
        if state == _DENOMINATOR:
            message = "expected denominator"
        elif state == _EXPONENT:
            message = "negative exponent" if tok == "-" else "expected exponent"
        else:
            message = f"unexpected token {tok!r}"
        raise _syntax_error(text, message, m.start())
    if state < _AFTER_NUM:
        raise ParseError("unexpected end of input", len(text))
    key = tuple(sorted(powers.items()))
    acc[key] = acc.get(key, 0) + coeff
    return _wrap(_settle(acc))


def _syntax_error(text: str, message: str, offset: int) -> ParseError:
    """The error for a token refused at offset, unless an unknown
    character follows it: unknown characters are reported first, wherever
    they are, as by a parser that tokenizes all of the text up front."""
    for m in _TOKENS.finditer(text, offset):
        if m.lastindex == _UNKNOWN:
            return ParseError(f"unknown token {m[0]!r}", m.start())
    return ParseError(message, offset)
