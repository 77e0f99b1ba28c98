"""Tensor products of matrix factorizations.

Three families of constructions:

* the additive tensor product (with three variants), turning
  factorizations of f and g into one of f + g, of size 2nm;
* the multiplicative tensor product and its variant, producing a
  factorization of f*g of size 2nm;
* the reduced multiplicative tensor product, a single Kronecker pair
  (phi (x) phi', psi (x) psi') of f*g at size nm.

The definitions hold verbatim whether or not the two inputs share
variables, so nothing here rejects overlapping variable sets;
verification is the arbiter.
"""

from __future__ import annotations

from operator import add, neg

from .factorization import (
    MatrixFactorization,
    Morphism,
    make_factorization,
    mat_mul,
)
from .matrix import (
    PolyMatrix,
    Ints,
    _on_one_table,
    _sparse,
    block2x2,
    direct_sum,
    kron,
    shuffle_matrix,
    zeros,
)
from .standard import double

YOSHINO_VARIANTS = ("standard", "v1", "v2", "v3")
STANDARD_VARIANTS = ("standard", "v1", "v2")


def yoshino(
    x: MatrixFactorization,
    y: MatrixFactorization,
    variant: str = "standard",
    *,
    verify: str = "auto",
) -> MatrixFactorization:
    """Additive tensor product: a factorization of f + g of size 2nm.

    Each variant is a doubling (C, D, G, H) of the standard method (see
    `double`) of the Kronecker blocks phi (x) 1_m, psi (x) 1_m,
    1_n (x) phi' and 1_n (x) psi'.  No block is built: row i*m + p of a
    factor is written once, from row i of phi or psi at columns j*m + p
    and row p of an m x m input at columns i*m + q, each shifted by its
    block's column offset.  Both factors share one table: the entries of
    x, those of y and their negations, so the negated blocks cost y's
    table, not its nonzeros.  No polynomial is multiplied.
    """
    if variant not in YOSHINO_VARIANTS:
        raise ValueError(f"unknown variant {variant!r}; expected one of {YOSHINO_VARIANTS}")
    n, m = x.size, y.size
    nm = n * m
    xphi, xpsi = _on_one_table(x.phi, x.psi)
    yphi, ypsi = _on_one_table(y.phi, y.psi)
    table = xphi.table + yphi.table + tuple(map(neg, yphi.table))

    def spread(a: PolyMatrix):
        """a (x) 1_m: its rows' columns at column offset at, and indices,
        which stand, since x's entries lead the table."""
        idx = [ks for ks in a.indices for _ in range(m)]
        return lambda at: ([tuple([j * m + at + p for j in js]) for js in a.columns for p in range(m)], idx)

    def tile(b: PolyMatrix, offset: int):
        """1_n (x) b over the entries at offset, as spread does."""
        idx = [tuple([k + offset for k in ks]) for ks in b.indices] * n
        return lambda at: ([tuple([q + i for q in js]) for i in range(at, at + nm, m) for js in b.columns], idx)

    def assemble(top_left, top_right, bottom_left, bottom_right) -> PolyMatrix:
        (tlc, tlk), (trc, trk) = top_left(0), top_right(nm)
        (blc, blk), (brc, brk) = bottom_left(0), bottom_right(nm)
        columns = [*map(add, tlc, trc), *map(add, blc, brc)]
        indices = [*map(add, tlk, trk), *map(add, blk, brk)]
        return _sparse(table, columns, indices, 2 * nm, 2 * nm)

    at_y, at_neg = len(xphi.table), len(xphi.table) + len(yphi.table)
    pk, sk = spread(xphi), spread(xpsi)  # phi (x) 1_m, psi (x) 1_m
    kp, ks = tile(yphi, at_y), tile(ypsi, at_y)  # 1_n (x) phi', 1_n (x) psi'
    nkp, nks = tile(yphi, at_neg), tile(ypsi, at_neg)
    # Arguments (C, D, G, H, -G, -H, doubling) of `double`; the standard
    # variant doubles (pk, sk, -kp, -ks), whose negations are kp and ks.
    a, b = double(*{
        "standard": (pk, sk, nkp, nks, kp, ks, "standard"),
        "v1": (pk, sk, ks, kp, nks, nkp, "v1"),
        "v2": (sk, pk, ks, kp, nks, nkp, "standard"),
        "v3": (pk, sk, ks, kp, nks, nkp, "v2"),
    }[variant], assemble)
    return make_factorization(x.f + y.f, a, b, verify=verify)


def mult_tensor(
    x: MatrixFactorization, y: MatrixFactorization, *, verify: str = "auto"
) -> MatrixFactorization:
    """Multiplicative tensor product: duplicated Kronecker blocks, size 2nm."""
    pp = kron(x.phi, y.phi)
    ss = kron(x.psi, y.psi)
    return make_factorization(x.f * y.f, direct_sum(pp, pp), direct_sum(ss, ss), verify=verify)


def mult_tensor_variant(
    x: MatrixFactorization, y: MatrixFactorization, *, verify: str = "auto"
) -> MatrixFactorization:
    """Variant with the Kronecker blocks on the anti-diagonal, size 2nm."""
    pp = kron(x.phi, y.phi)
    ss = kron(x.psi, y.psi)
    zero = zeros(pp.rows, pp.cols)
    return make_factorization(
        x.f * y.f,
        block2x2(zero, pp, pp, zero),
        block2x2(zero, ss, ss, zero),
        verify=verify,
    )


def reduced_tensor(
    x: MatrixFactorization, y: MatrixFactorization, *, verify: str = "auto"
) -> MatrixFactorization:
    """Reduced multiplicative tensor product: a factorization of f*g of
    size nm, with factors (phi (x) phi', psi (x) psi')."""
    return make_factorization(
        x.f * y.f,
        kron(x.phi, y.phi),
        kron(x.psi, y.psi),
        verify=verify,
    )


def direct_sum_factorizations(
    x1: MatrixFactorization, x2: MatrixFactorization, *, verify: str = "auto"
) -> MatrixFactorization:
    """Componentwise direct sum of two factorizations of the same polynomial."""
    if x1.f != x2.f:
        raise ValueError("direct sum requires factorizations of the same polynomial")
    return make_factorization(
        x1.f,
        direct_sum(x1.phi, x2.phi),
        direct_sum(x1.psi, x2.psi),
        verify=verify,
    )


def tensor_morphisms(
    zf: Morphism,
    zg: Morphism,
    *,
    verify: str = "auto",
) -> Morphism:
    """Tensor two morphisms into a morphism between the reduced tensor
    products of their endpoints: ([alpha_f (x) alpha_g], [beta_f (x) beta_g])."""
    domain = reduced_tensor(zf.domain, zg.domain, verify=verify)
    codomain = reduced_tensor(zf.codomain, zg.codomain, verify=verify)
    return Morphism(
        domain,
        codomain,
        kron(zf.alpha, zg.alpha),
        kron(zf.beta, zg.beta),
    )


def commutativity_morphism(
    x: MatrixFactorization, y: MatrixFactorization, *, verify: str = "auto"
) -> Morphism:
    """The morphism from X (x) Y to Y (x) X (reduced tensors) given by
    (phi_Y (x) phi_X, phi_X (x) phi_Y)."""
    domain = reduced_tensor(x, y, verify=verify)
    codomain = reduced_tensor(y, x, verify=verify)
    return Morphism(
        domain,
        codomain,
        kron(y.phi, x.phi),
        kron(x.phi, y.phi),
    )


def shuffle_isomorphism_check(x: MatrixFactorization, y: MatrixFactorization) -> bool:
    """True iff conjugating the factors of X (x) Y by the perfect shuffle
    yields exactly the factors of Y (x) X (reduced tensors)."""
    s = shuffle_matrix(y.size, x.size)
    st = s.transpose()
    for ax, ay in ((x.phi, y.phi), (x.psi, y.psi)):
        if kron(ay, ax) != mat_mul(mat_mul(s, kron(ax, ay)), st):
            return False
    return True
