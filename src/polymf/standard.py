"""The standard method for factoring polynomials, and its two variants.

From a factorization (C, D) of f and a pair of polynomials g, h, one
doubling step produces a factorization of f + g*h:

    ([[C, -g*I], [h*I, D]], [[D, g*I], [-h*I, C]])

That is the additive tensor product (`yoshino`) of (C, D) with the 1x1
pair ([-g], [-h]) of g*h, in its standard variant.  The variants permute
block rows/columns: v1 swaps the rows of the first matrix and the
columns of the second, v2 the other way around; they are the Yoshino
variants v1 and v3 of (C, D) with ([h], [g]).  A step writes these
blocks directly (`_STEPS`), without building the 1x1 pair or Yoshino's
Kronecker blocks.

Folding steps over a summand list g1*h1 + ... + gk*hk, starting from the
1x1 pair ([g1], [h1]), yields factors of size 2^(k-1).  Each function
here returns its pair unchecked, as the additive tensor product does.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import add
from typing import Iterable

from .factorization import MatrixFactorization
from .matrix import _shifted, _sparse
from .poly import Coeff, ExpKey, Polynomial, PolyError, _split_key, _wrap

# The blocks (top left, top right, bottom left, bottom right) of phi and
# of psi in each variant, for mf's factors C and D; an entry name stands
# for that entry times I.
_STEPS = {
    "standard": (("C", "-g", "h", "D"), ("D", "g", "-h", "C")),
    "v1": (("h", "D", "C", "-g"), ("g", "D", "C", "-h")),
    "v2": (("-g", "C", "D", "h"), ("-h", "C", "D", "g")),
}
STANDARD_VARIANTS = tuple(_STEPS)


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


def _one_by_one(f: Polynomial, a: Polynomial, b: Polynomial) -> MatrixFactorization:
    """The 1x1 pair ([a], [b]) of f = a*b, for nonzero a and b (a summand
    list refuses zero entries), over one table of its distinct entries."""
    table = (a,) if a == b else (a, b)
    phi = _sparse(table, [(0,)], [(0,)], 1, 1)
    psi = _sparse(table, [(0,)], [(2 * len(table) - 2,)], 1, 1)
    return MatrixFactorization(f, phi, psi)


def standard_step(
    mf: MatrixFactorization,
    g: Polynomial,
    h: Polynomial,
    variant: str = "standard",
) -> MatrixFactorization:
    """One doubling step: a factorization of mf.f + g*h of size 2n, laid
    out by `_STEPS` (see the module docstring).

    Output row i joins the left block's row i and the right block's,
    whose columns shift by n; row i of a diagonal block is column i at
    its entry, or empty for a zero entry.  Both factors share one table:
    mf's, then each nonzero g or h that no entry of it equals, so a
    value is listed once.  The rows of -g and -h hold the codes of g and
    h with the sign bit set, so no polynomial is negated."""
    if variant not in _STEPS:
        raise ValueError(f"unknown standard-method variant {variant!r}")
    n = mf.size
    c, d = mf.phi, mf.psi
    table = c.table
    # each block's rows: (columns as a left block, as a right block, indices)
    rows = {"C": (c.columns, _shifted(c.columns, n), c.indices),
            "D": (d.columns, _shifted(d.columns, n), d.indices)}
    diagonal = list(zip(range(n))), list(zip(range(n, 2 * n)))
    for name, e in (("g", g), ("h", h)):
        if e:
            if e not in table:
                table += (e,)
            k = 2 * table.index(e)
            rows[name], rows[f"-{name}"] = ((*diagonal, ((code,),) * n) for code in (k, k + 1))
        else:
            rows[name] = rows[f"-{name}"] = (((),) * n,) * 3

    def factor(layout):
        (lc, _, lk), (_, rc, rk), (lc2, _, lk2), (_, rc2, rk2) = map(rows.__getitem__, layout)
        columns = [*map(add, lc, rc), *map(add, lc2, rc2)]
        return _sparse(table, columns, [*map(add, lk, rk), *map(add, lk2, rk2)], 2 * n, 2 * n)

    phi, psi = map(factor, _STEPS[variant])
    return MatrixFactorization(mf.f + g * h, phi, psi)


def standard_factorize(sl: SummandList, variant: str = "standard") -> MatrixFactorization:
    """Fold standard steps left-to-right from the 1x1 seed ([g1], [h1]).

    Size of the result is 2^(k-1) for k summands; it is unchecked.
    """
    (g1, h1), *rest = sl.pairs
    mf = _one_by_one(g1 * h1, g1, h1)
    for g, h in rest:
        mf = standard_step(mf, g, h, variant)
    return mf


def _split_pairs(terms: Iterable[tuple[ExpKey, Coeff]]) -> SummandList:
    """The (g, h) pair of each (exponent key, canonical coefficient) term,
    split by the rule of _split_key.  Each half is one term cut from the
    key, so it is wrapped as it stands."""
    pairs = []
    for key, c in terms:
        k1, k2 = _split_key(key)
        pairs.append((_wrap({k1: c}), _wrap({k2: 1})))
    return SummandList(tuple(pairs))


def standard_factorize_polynomial(p: Polynomial, variant: str = "standard") -> MatrixFactorization:
    """Standard method on the canonical expansion of p.

    p's terms are taken in canonical order, each is split
    deterministically, and the steps are folded; the result has size
    2^(#canonical monomials - 1).
    """
    if p.is_zero():
        raise PolyError("cannot factor the zero polynomial")
    return standard_factorize(_split_pairs(p.items()), variant)
