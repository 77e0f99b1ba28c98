"""The standard method for factoring polynomials, and its two variants.

From a factorization (C, D) of f and a pair of polynomials g, h, one
doubling step produces a factorization of f + g*h:

    ([[C, -g*I], [h*I, D]], [[D, g*I], [-h*I, C]])

Folding steps over a summand list g1*h1 + ... + gk*hk, starting from the
1x1 pair ([g1], [h1]), yields factors of size 2^(k-1).  The variants
permute block rows/columns: v1 swaps the rows of the first matrix and
the columns of the second, v2 the other way around.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

from .factorization import MatrixFactorization, make_factorization
from .matrix import PolyMatrix, _on_one_table, block2x2, scalar_matrix
from .poly import Coeff, ExpKey, Polynomial, PolyError, _split_key, _wrap


@dataclass(frozen=True)
class SummandList:
    """Ordered (g, h) pairs whose products sum to the target polynomial."""

    pairs: tuple[tuple[Polynomial, Polynomial], ...]

    def __post_init__(self):
        if not self.pairs:
            raise PolyError("summand list must be nonempty")
        for g, h in self.pairs:
            # Q[x] is a domain: g*h is zero exactly when g or h is
            if g.is_zero() or h.is_zero():
                raise PolyError("summand with zero product")

    @property
    def target(self) -> Polynomial:
        return Polynomial.dot(self.pairs)


def double(
    c, d, g, h, ng, nh, variant: str, assemble: Callable[..., PolyMatrix]
) -> tuple[PolyMatrix, PolyMatrix]:
    """The doubled pair ([[C, -G], [H, D]], [[D, G], [-H, C]]), or its
    variant v1 (rows of the first matrix and columns of the second
    interchanged) or v2 (the other way around).

    This is the one table of block layouts, for both doublings: each
    factor is assemble(top_left, top_right, bottom_left, bottom_right),
    with block2x2 for a standard step and the row builder of `yoshino`
    for the additive tensor product, and the blocks are whatever that
    assembler takes.  The caller passes ng = -G and nh = -H, so it can
    negate whatever is cheapest: a polynomial for a scalar block, a small
    matrix for a Kronecker block.  Nothing is negated here.
    """
    if variant == "standard":
        return assemble(c, ng, h, d), assemble(d, g, nh, c)
    if variant == "v1":
        return assemble(h, d, c, ng), assemble(g, d, c, nh)
    if variant == "v2":
        return assemble(ng, c, d, h), assemble(nh, c, d, g)
    raise ValueError(f"unknown standard-method variant {variant!r}")


def standard_step(
    mf: MatrixFactorization,
    g: Polynomial,
    h: Polynomial,
    variant: str = "standard",
    *,
    verify: str = "auto",
) -> MatrixFactorization:
    """One doubling step: a factorization of mf.f + g*h of size 2n.

    The blocks G = g*I and H = h*I go to block2x2 as the polynomials g,
    h, -g and -h, which it places on the diagonal of their blocks: no
    scalar matrix is built, and two polynomials are negated, not two
    matrices.  Both factors share one table, mf's and then those four."""
    ng, nh = -g, -h
    c, d = _on_one_table(mf.phi, mf.psi, tuple(filter(None, (g, h, ng, nh))))
    p, q = double(c, d, g, h, ng, nh, variant, block2x2)
    return make_factorization(mf.f + g * h, p, q, verify=verify)


def standard_factorize(
    sl: SummandList, variant: str = "standard", *, verify: str = "auto"
) -> MatrixFactorization:
    """Fold standard steps left-to-right from the 1x1 seed ([g1], [h1]).

    Size of the result is 2^(k-1) for k summands.
    """
    (g1, h1), *rest = sl.pairs
    mf = make_factorization(g1 * h1, scalar_matrix(g1, 1), scalar_matrix(h1, 1), verify="skip")
    for g, h in rest:
        mf = standard_step(mf, g, h, variant, verify="skip")
    # only the returned pair is certified; the steps are proven
    return make_factorization(mf.f, mf.phi, mf.psi, verify=verify)


def _split_pairs(terms: Iterable[tuple[ExpKey, Coeff]]) -> SummandList:
    """The (g, h) pair of each (exponent key, canonical coefficient) term,
    split by the rule of _split_key.  Each half is one term cut from the
    key, so it is wrapped as it stands."""
    pairs = []
    for key, c in terms:
        k1, k2 = _split_key(key)
        pairs.append((_wrap({k1: c}), _wrap({k2: 1})))
    return SummandList(tuple(pairs))


def standard_factorize_polynomial(
    p: Polynomial, variant: str = "standard", *, verify: str = "auto"
) -> MatrixFactorization:
    """Standard method on the canonical expansion of p.

    p's terms are taken in canonical order, each is split
    deterministically, and the steps are folded; the result has size
    2^(#canonical monomials - 1).
    """
    if p.is_zero():
        raise PolyError("cannot factor the zero polynomial")
    return standard_factorize(_split_pairs(p.items()), variant, verify=verify)
