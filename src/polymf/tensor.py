"""Tensor products of matrix factorizations.

Three families of constructions:

* the additive tensor product (with three variants), turning
  factorizations of f and g into one of f + g, of size 2nm, of which a
  standard-method step is the case m = 1 (`standard.standard_step`
  writes that case directly);
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
    _on_one_table,
    _sparse,
    block2x2,
    direct_sum,
    kron,
    shuffle_matrix,
    zeros,
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


def yoshino(
    x: MatrixFactorization,
    y: MatrixFactorization,
    variant: str = "standard",
    *,
    verify: str = "auto",
) -> MatrixFactorization:
    """Additive tensor product: a factorization of f + g of size 2nm.

    Each variant places the Kronecker blocks phi (x) 1_m, psi (x) 1_m,
    1_n (x) phi', 1_n (x) psi' and the negations of the last two by its
    `_LAYOUTS` entry, through block2x2.  No Kronecker product is taken:
    row i*m + p of phi (x) 1_m is row i of phi at columns j*m + p, and
    row i*m + p of 1_n (x) phi' is row p of phi' at columns i*m + q.
    All six blocks index one table, the entries of x and then those of
    y, and both factors share it.  A negated block holds the codes of
    its positive twin with the sign bit flipped, so no polynomial is
    multiplied or negated.
    """
    if variant not in _LAYOUTS:
        raise ValueError(f"unknown variant {variant!r}; expected one of {YOSHINO_VARIANTS}")
    n, m = x.size, y.size
    nm = n * m
    xphi, xpsi = _on_one_table(x.phi, x.psi)
    yphi, ypsi = _on_one_table(y.phi, y.psi)
    table = xphi.table + yphi.table
    at_y = 2 * len(xphi.table)

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

    blocks = {"P": spread(xphi), "S": spread(xpsi)}
    blocks["KP"], blocks["-KP"] = tiles(yphi)
    blocks["KS"], blocks["-KS"] = tiles(ypsi)
    phi, psi = (block2x2(*map(blocks.__getitem__, layout)) for layout in _LAYOUTS[variant])
    return make_factorization(x.f + y.f, phi, psi, verify=verify)


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
