"""Summand-reduced polynomials, size predictors, and the three pipelines.

A summand-reduced input is t_1 + ... + t_s + G_1 + ... + G_l where each
t_i is a monomial and each G_j = g_j1 * ... * g_jm_j is a product of
sums of monomials.  With p_ji the monomial count of g_ji, the closed
forms for the factor sizes are (s >= 1 shown; drop the +s for s = 0):

    standard  2^(sum_j prod_i p_ji + s - 1)
    improved  2^(sum p_ji + s - 1)
    refined   2^(l - 1 + sum p_ji - sum m_j + s)

The pipelines realize these sizes: every g_ji is factored by the
standard method, groups are folded with the reduced (refined) or
plain (improved) multiplicative tensor product, groups are combined
with the additive tensor product, and a monomial part of size 2^(s-1)
joins through one final additive tensor step.

The standard pipeline works on the formal expansion (every product of
picked monomials kept as its own summand, no combining), which is the
expansion the size formulas count.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import prod
from typing import Iterable

from .factorization import MatrixFactorization, make_factorization
from .poly import Coeff, ExpKey, Polynomial, PolyError, _coeff, _times_key, parse_polynomial
from .standard import _split_pairs, standard_factorize, standard_factorize_polynomial
from .tensor import mult_tensor, reduced_tensor, yoshino

# Condition-3 checking expands each product; groups beyond this formal
# monomial count are reported as unchecked rather than expanded.
CONDITION3_EXPANSION_CAP = 10**6


class ValidationFailure(PolyError):
    """Raised in strict mode when the summand-reduced conditions fail."""


class CapExceededError(PolyError):
    """A method's predicted size 2^exponent reaches the construction cap."""

    def __init__(self, method: str, exponent: int, max_monomials: int):
        # from 2^1024 on the size is named as 2^e: an error line need not
        # spell out hundreds of digits, whose conversion takes quadratic time
        size = 1 << exponent if exponent < 1024 else f"2^{exponent}"
        super().__init__(f"{method} construction skipped: predicted size {size} exceeds 2^{max_monomials - 1}")
        self.exponent = exponent

    @property
    def predicted_size(self) -> int:
        return 1 << self.exponent


def check_cap(method: str, exponent: int, max_monomials: int) -> None:
    """The construction cap: raise CapExceededError when a method's
    predicted size 2^exponent exceeds 2^(max_monomials - 1), the size the
    standard method reaches with max_monomials summands."""
    if exponent >= max_monomials:
        raise CapExceededError(method, exponent, max_monomials)


def standard_exponent(s: int, counts: Iterable[tuple[int, ...]] = ()) -> int:
    """The e of the standard method's size 2^e for s monomial terms and
    product groups of the given factor term counts: one less than the
    formal monomial count s + sum_j prod_i p_ji."""
    return s + sum(prod(c) for c in counts) - 1


@dataclass(frozen=True)
class ProductGroup:
    """One product g_j1 * ... * g_jm_j of sums of monomials."""

    factors: tuple[Polynomial, ...]

    def __post_init__(self):
        if not self.factors:
            raise PolyError("product group needs at least one factor")
        if any(f.is_zero() for f in self.factors):
            raise PolyError("product group has a zero factor")

    @property
    def monomial_counts(self) -> tuple[int, ...]:
        """The p_ji: canonical monomial count of each factor."""
        return tuple(f.num_terms() for f in self.factors)

    @property
    def num_factors(self) -> int:
        return len(self.factors)

    def expanded(self) -> Polynomial:
        result = Polynomial.const(1)
        for f in self.factors:
            result = result * f
        return result


@dataclass(frozen=True)
class SummandReducedPoly:
    """The structured input t_1 + ... + t_s + products, before validation.

    Terms are stored as polynomials so that a non-monomial term can be
    reported by the validator instead of rejected at construction.
    """

    terms: tuple[Polynomial, ...]
    products: tuple[ProductGroup, ...]

    @staticmethod
    def from_strings(terms: list[str], products: list[list[str]]) -> "SummandReducedPoly":
        return SummandReducedPoly(
            tuple(parse_polynomial(t) for t in terms),
            tuple(ProductGroup(tuple(parse_polynomial(f) for f in fs)) for fs in products),
        )

    @property
    def s(self) -> int:
        return len(self.terms)

    @property
    def l(self) -> int:
        return len(self.products)

    def monomial_terms(self) -> tuple[tuple[ExpKey, Coeff], ...]:
        """The (exponent key, coefficient) of each monomial t_i."""
        out = []
        for t in self.terms:
            if t.num_terms() != 1:
                raise PolyError(f"term {t} is not a single monomial")
            out.append(t.items()[0])
        return tuple(out)

    def expanded_polynomial(self) -> Polynomial:
        """The target polynomial in canonical form."""
        total = Polynomial.zero()
        for t in self.terms:
            total = total + t
        for g in self.products:
            total = total + g.expanded()
        return total

    def formal_monomials(self) -> list[tuple[ExpKey, Coeff]]:
        """The uncombined expansion as (exponent key, canonical coefficient)
        pairs: the s terms plus, per group, every product of one monomial
        from each factor.  Length sum_j prod p_ji + s; this is the summand
        count the standard method operates on."""
        out = list(self.monomial_terms())
        for g in self.products:
            for combo in itertools.product(*(f.items() for f in g.factors)):
                key, c = combo[0]
                for k, d in combo[1:]:
                    key, c = _times_key(key, k), c * d
                out.append((key, _coeff(c)))
        return out


@dataclass(frozen=True)
class ConditionResult:
    condition: int
    passed: bool
    reason: str


@dataclass(frozen=True)
class ValidationReport:
    results: tuple[ConditionResult, ...]

    @property
    def ok(self) -> bool:
        return all(r.passed for r in self.results)

    def failed_conditions(self) -> list[int]:
        return [r.condition for r in self.results if not r.passed]

    def __str__(self) -> str:
        return "\n".join(
            f"condition {r.condition}: {'pass' if r.passed else 'FAIL'} - {r.reason}"
            for r in self.results
        )


def validate_summand_reduced(srp: SummandReducedPoly) -> ValidationReport:
    """Check the four defining conditions, each reported with a reason."""
    results = []

    s, l = srp.s, srp.l
    if s == 0:
        ok1 = l >= 2
        reason1 = f"s=0 requires at least two products, found {l}"
    else:
        ok1 = l >= 1
        reason1 = f"s={s} requires at least one product, found {l}"
    results.append(ConditionResult(1, ok1, reason1))

    bad_terms = [str(t) for t in srp.terms if t.num_terms() != 1]
    results.append(
        ConditionResult(
            2,
            not bad_terms,
            "every t_i is a monomial" if not bad_terms else f"non-monomial terms: {bad_terms}",
        )
    )

    # The expanded monomial count is formal (every choice of one monomial
    # per factor is its own summand), except that terms whose coefficients
    # cancel outright do not count as appearing in the expansion.
    ok3, reason3 = True, "every multi-factor product gains monomials when expanded"
    for j, g in enumerate(srp.products):
        if g.num_factors < 2:
            continue
        factor_form_count = sum(g.monomial_counts)
        formal = prod(g.monomial_counts)
        if formal > CONDITION3_EXPANSION_CAP:
            ok3, reason3 = True, (
                f"product {j} too large to expand ({formal} formal monomials); unchecked"
            )
            continue
        # the product with every coefficient 1 counts, for each key, the
        # combinations that give it
        combinations = Polynomial.const(1)
        for f in g.factors:
            combinations = combinations * Polynomial(dict.fromkeys(f._terms, 1))
        surviving = g.expanded()._terms
        expanded_count = sum(n for key, n in combinations._terms.items() if key in surviving)
        if expanded_count <= factor_form_count:
            ok3 = False
            reason3 = (
                f"product {j} expands to {expanded_count} monomials, "
                f"not more than the {factor_form_count} in factor form"
            )
            break
    results.append(ConditionResult(3, ok3, reason3))

    ok4 = any(g.num_factors >= 2 for g in srp.products)
    results.append(
        ConditionResult(
            4,
            ok4,
            "some product has at least two factors" if ok4 else "no product has two or more factors",
        )
    )
    return ValidationReport(tuple(results))


@dataclass(frozen=True)
class SizeReport:
    """Closed-form factor sizes for the three pipelines, plus both ratios.

    Every size is a power of two, so the report keeps the exponents; a
    size is 1 << e, computed when read.
    """

    standard_exponent: int
    improved_exponent: int
    refined_exponent: int

    def exponents(self) -> dict[str, int]:
        """The e of each size 2^e of to_dict(), under the same keys."""
        return {
            "standard_size": self.standard_exponent,
            "improved_size": self.improved_exponent,
            "refined_size": self.refined_exponent,
            "ratio_refined_vs_standard": self.standard_exponent - self.refined_exponent,
            "ratio_refined_vs_improved": self.improved_exponent - self.refined_exponent,
        }

    def to_dict(self) -> dict[str, int]:
        return {key: 1 << e for key, e in self.exponents().items()}

    standard_size = property(lambda self: 1 << self.standard_exponent)
    improved_size = property(lambda self: 1 << self.improved_exponent)
    refined_size = property(lambda self: 1 << self.refined_exponent)
    ratio_refined_vs_standard = property(lambda self: 1 << self.exponents()["ratio_refined_vs_standard"])
    ratio_refined_vs_improved = property(lambda self: 1 << self.exponents()["ratio_refined_vs_improved"])


def predict_sizes(srp: SummandReducedPoly) -> SizeReport:
    """The closed-form sizes of the module docstring.  Raises
    ValidationFailure for a document with no product group, which no
    pipeline builds and whose formulas give no size."""
    _require_product(srp)
    s, l = srp.s, srp.l
    counts = [g.monomial_counts for g in srp.products]
    sum_p = sum(sum(c) for c in counts)
    sum_m = sum(len(c) for c in counts)
    return SizeReport(
        standard_exponent=standard_exponent(s, counts),
        improved_exponent=sum_p + s - 1,
        refined_exponent=l - 1 + sum_p - sum_m + s,
    )


def _check_valid(srp: SummandReducedPoly, strict: bool) -> None:
    if strict:
        report = validate_summand_reduced(srp)
        if not report.ok:
            raise ValidationFailure(str(report))


def _require_product(srp: SummandReducedPoly) -> None:
    if srp.l == 0:
        raise ValidationFailure("pipelines need at least one product group")


def _pipeline(
    srp: SummandReducedPoly,
    product_tensor,
    yvariant: str,
    verify: str,
    strict: bool,
) -> MatrixFactorization:
    _check_valid(srp, strict)
    _require_product(srp)
    group_mfs = []
    for g in srp.products:
        factor_mfs = [standard_factorize_polynomial(f, verify="skip") for f in g.factors]
        mf = factor_mfs[0]
        for nxt in factor_mfs[1:]:
            mf = product_tensor(mf, nxt, verify="skip")
        group_mfs.append(mf)
    combined = group_mfs[0]
    for nxt in group_mfs[1:]:
        combined = yoshino(combined, nxt, yvariant, verify="skip")
    if srp.s >= 1:
        monomial_mf = standard_factorize(_split_pairs(srp.monomial_terms()), verify="skip")
        combined = yoshino(monomial_mf, combined, yvariant, verify="skip")
    # Every step above is a proven construction, built unchecked; the
    # certificate the caller gets is this one check of the returned pair.
    return make_factorization(combined.f, combined.phi, combined.psi, verify=verify)


def run_refined(
    srp: SummandReducedPoly,
    yvariant: str = "standard",
    *,
    verify: str = "auto",
    strict: bool = False,
) -> MatrixFactorization:
    """Refined pipeline: reduced multiplicative tensor inside each group."""
    return _pipeline(srp, reduced_tensor, yvariant, verify, strict)


def run_improved(
    srp: SummandReducedPoly,
    yvariant: str = "standard",
    *,
    verify: str = "auto",
    strict: bool = False,
) -> MatrixFactorization:
    """Improved pipeline: plain multiplicative tensor inside each group."""
    return _pipeline(srp, mult_tensor, yvariant, verify, strict)


def run_standard(
    srp: SummandReducedPoly,
    variant: str = "standard",
    *,
    max_monomials: int = 13,
    verify: str = "auto",
    strict: bool = False,
) -> MatrixFactorization:
    """Standard method on the formal expansion of the input.

    Raises CapExceededError (through check_cap, carrying the predicted size)
    if the formal monomial count, s + sum_j prod_i p_ji, exceeds max_monomials;
    the count is taken from the factors' term counts before any monomial
    is built.
    """
    _check_valid(srp, strict)
    exponent = standard_exponent(srp.s, (g.monomial_counts for g in srp.products))
    check_cap("standard", exponent, max_monomials)
    return standard_factorize(_split_pairs(srp.formal_monomials()), variant, verify=verify)


def compare_report(
    srp: SummandReducedPoly,
    *,
    methods: tuple[str, ...] = ("refined", "improved"),
    yvariant: str = "standard",
    max_monomials: int = 13,
    verify: str = "auto",
    strict: bool = False,
) -> tuple[SizeReport, dict[str, int]]:
    """Predicted sizes plus constructed-size confirmations for each
    pipeline actually run.  With strict, the document is validated once,
    whatever is skipped.  A method whose predicted size is over the
    construction cap (check_cap with max_monomials, as in the CLI) is
    skipped, not failed, before anything of it is built."""
    report = predict_sizes(srp)
    _check_valid(srp, strict)
    constructed: dict[str, int] = {}
    runners = {
        "refined": lambda: run_refined(srp, yvariant, verify=verify),
        "improved": lambda: run_improved(srp, yvariant, verify=verify),
        "standard": lambda: run_standard(srp, max_monomials=max_monomials, verify=verify),
    }
    for method in methods:
        try:
            check_cap(method, getattr(report, f"{method}_exponent"), max_monomials)
        except CapExceededError:
            continue
        constructed[method] = runners[method]().size
    return report, constructed
