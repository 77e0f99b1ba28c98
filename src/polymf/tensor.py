"""Tensor products of matrix factorizations.

Three families of constructions:

* the additive tensor product (with three variants), turning
  factorizations of f and g into one of f + g, of size 2nm, of which a
  standard-method step is the case m = 1 (`standard.standard_step`
  writes that case directly);
* the multiplicative tensor product, a factorization of f*g of size
  2nm;
* the reduced multiplicative tensor product, a single Kronecker pair
  (phi (x) phi', psi (x) psi') of f*g at size nm.

The definitions hold verbatim whether or not the two inputs share
variables, so nothing here rejects overlapping variable sets.  Each
product is a theorem, so each returns its pair unchecked.
"""

from __future__ import annotations

from .factorization import MatrixFactorization
from .matrix import (
    PolyMatrix,
    _sparse,
    block2x2,
    direct_sum,
    kron,
)

# The blocks (top left, top right, bottom left, bottom right) of phi and
# of psi in each variant, for P = phi (x) 1_m, S = psi (x) 1_m,
# KP = 1_n (x) phi', KS = 1_n (x) psi' and their negations -KP and -KS.
_LAYOUTS = {
    "standard": (("P", "KP", "-KS", "S"), ("S", "-KP", "KS", "P")),
    "v1": (("KP", "S", "P", "-KS"), ("KS", "S", "P", "-KP")),
    "v2": (("S", "-KS", "KP", "P"), ("P", "KS", "-KP", "S")),
    "v3": (("-KS", "P", "S", "KP"), ("-KP", "P", "S", "KS")),
}
YOSHINO_VARIANTS = tuple(_LAYOUTS)


def yoshino(x: MatrixFactorization, y: MatrixFactorization, variant: str = "standard") -> MatrixFactorization:
    """Additive tensor product: a factorization of f + g of size 2nm.

    Each variant places the Kronecker blocks phi (x) 1_m, psi (x) 1_m,
    1_n (x) phi', 1_n (x) psi' and the negations of the last two by its
    `_LAYOUTS` entry, through block2x2.  No Kronecker product is taken:
    row i*m + p of phi (x) 1_m is row i of phi at columns j*m + p, and
    row i*m + p of 1_n (x) phi' is row p of phi' at columns i*m + q.
    All six blocks index one table, the table of x and then that of y
    (the factors of a pair share one), and both factors share it.  A negated block holds the codes of
    its positive twin with the sign bit flipped, so no polynomial is
    multiplied or negated.
    """
    if variant not in _LAYOUTS:
        raise ValueError(f"unknown variant {variant!r}; expected one of {YOSHINO_VARIANTS}")
    n, m = x.size, y.size
    nm = n * m
    table = x.phi.table + y.phi.table
    at_y = 2 * len(x.phi.table)

    def spread(a: PolyMatrix) -> PolyMatrix:
        """a (x) 1_m, whose codes stand, since x's entries lead the table."""
        columns = [tuple([j * m + p for j in js]) for js in a.columns for p in range(m)]
        return _sparse(table, columns, [ks for ks in a.indices for _ in range(m)], nm, nm)

    def tiles(b: PolyMatrix) -> list[PolyMatrix]:
        """1_n (x) b over y's entries, and its negation: the same codes
        with the sign bit flipped."""
        columns = [tuple([q + i for q in js]) for i in range(0, nm, m) for js in b.columns]
        return [
            _sparse(table, columns, [tuple([(k ^ flip) + at_y for k in ks]) for ks in b.indices] * n, nm, nm)
            for flip in (0, 1)
        ]

    blocks = {"P": spread(x.phi), "S": spread(x.psi)}
    blocks["KP"], blocks["-KP"] = tiles(y.phi)
    blocks["KS"], blocks["-KS"] = tiles(y.psi)
    phi, psi = (block2x2(*map(blocks.__getitem__, layout)) for layout in _LAYOUTS[variant])
    return MatrixFactorization(x.f + y.f, phi, psi)


def mult_tensor(x: MatrixFactorization, y: MatrixFactorization) -> MatrixFactorization:
    """Multiplicative tensor product: duplicated Kronecker blocks, size 2nm."""
    pp = kron(x.phi, y.phi)
    ss = kron(x.psi, y.psi)
    return MatrixFactorization(x.f * y.f, direct_sum(pp, pp), direct_sum(ss, ss))


def reduced_tensor(x: MatrixFactorization, y: MatrixFactorization) -> MatrixFactorization:
    """Reduced multiplicative tensor product: a factorization of f*g of
    size nm, with factors (phi (x) phi', psi (x) psi')."""
    return MatrixFactorization(x.f * y.f, kron(x.phi, y.phi), kron(x.psi, y.psi))
