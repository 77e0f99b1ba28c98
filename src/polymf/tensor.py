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

from .factorization import (
    MatrixFactorization,
    Morphism,
    make_factorization,
    mat_mul,
)
from .matrix import (
    PolyMatrix,
    RowMap,
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
    block's column offset.  The rows hold the inputs' entry objects; the
    negated blocks come from -phi' and -psi', so only the two m x m
    inputs are negated.  No polynomial is multiplied.
    """
    if variant not in YOSHINO_VARIANTS:
        raise ValueError(f"unknown variant {variant!r}; expected one of {YOSHINO_VARIANTS}")
    n, m = x.size, y.size
    nm = n * m

    def spread(a: PolyMatrix):
        """a (x) 1_m, as a writer of its rows into a block row at column at."""

        def write(rows: list[RowMap], at: int) -> None:
            for i, arow in enumerate(a.row_maps):
                items = [(j * m + at, e) for j, e in arow.items()]
                for p, row in enumerate(rows[i * m : i * m + m]):
                    for j, e in items:
                        row[j + p] = e

        return write

    def tile(b: PolyMatrix):
        """1_n (x) b, as a writer of its rows into a block row at column at."""

        def write(rows: list[RowMap], at: int) -> None:
            for i in range(n):
                shift = i * m + at
                for row, brow in zip(rows[i * m : i * m + m], b.row_maps):
                    for q, e in brow.items():
                        row[q + shift] = e

        return write

    def assemble(*blocks) -> PolyMatrix:
        rows = [{} for _ in range(2 * nm)]
        top, bottom = rows[:nm], rows[nm:]
        for write, half, at in zip(blocks, (top, top, bottom, bottom), (0, nm, 0, nm)):
            write(half, at)
        return _sparse(rows, 2 * nm, 2 * nm)

    pk, sk = spread(x.phi), spread(x.psi)  # phi (x) 1_m, psi (x) 1_m
    kp, ks = tile(y.phi), tile(y.psi)  # 1_n (x) phi', 1_n (x) psi'
    nkp, nks = tile(-y.phi), tile(-y.psi)
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
