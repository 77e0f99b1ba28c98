"""The laws of the tensor products, as an oracle for the tests.

Morphisms of factorizations, the perfect shuffle, the anti-diagonal
variant of the multiplicative tensor product and the direct sum of two
factorizations.  No construction of the package calls them: they state
the laws the products obey (Fomatati 2022), namely associativity,
commutativity through the perfect shuffle, distribution over direct sums
and functoriality on morphisms.  Everything here is built from the
public API.
"""

from __future__ import annotations

from dataclasses import dataclass

from polymf import (
    MatrixError,
    MatrixFactorization,
    PolyMatrix,
    Polynomial,
    block2x2,
    direct_sum,
    identity,
    kron,
    make_factorization,
    mat_mul,
    reduced_tensor,
    scalar_matrix,
    zeros,
)


def transpose(m: PolyMatrix) -> PolyMatrix:
    return PolyMatrix([[m[i, j] for i in range(m.rows)] for j in range(m.cols)], m.cols, m.rows)


def shuffle_matrix(m: int, n: int) -> PolyMatrix:
    """Perfect shuffle permutation matrix S_{m,n} of size mn x mn, with a
    1 at (i*n + a, a*m + i).

    Satisfies B (x) A = S_{r,p} (A (x) B) S_{s,q}^T for A of size p x q
    and B of size r x s, and S S^T = I.
    """
    size, one, zero = m * n, Polynomial.const(1), Polynomial.zero()
    grid = [[zero] * size for _ in range(size)]
    for i in range(m):
        for a in range(n):
            grid[i * n + a][a * m + i] = one
    return PolyMatrix(grid, size, size)


def mult_tensor_variant(
    x: MatrixFactorization, y: MatrixFactorization, *, verify: str = "auto"
) -> MatrixFactorization:
    """Multiplicative tensor product with the Kronecker blocks on the
    anti-diagonal, size 2nm."""
    pp = kron(x.phi, y.phi)
    ss = kron(x.psi, y.psi)
    zero = zeros(pp.rows, pp.cols)
    return make_factorization(
        x.f * y.f,
        block2x2(zero, pp, pp, zero),
        block2x2(zero, ss, ss, zero),
        verify=verify,
    )


def direct_sum_factorizations(
    x1: MatrixFactorization, x2: MatrixFactorization, *, verify: str = "auto"
) -> MatrixFactorization:
    """Componentwise direct sum of two factorizations of the same polynomial."""
    if x1.f != x2.f:
        raise ValueError("direct sum requires factorizations of the same polynomial")
    return make_factorization(x1.f, direct_sum(x1.phi, x2.phi), direct_sum(x1.psi, x2.psi), verify=verify)


@dataclass(frozen=True)
class Morphism:
    """A pair (alpha, beta) of n2 x n1 matrices between factorizations of
    the same polynomial, satisfying alpha*phi1 = phi2*beta and
    psi2*alpha = beta*psi1."""

    domain: MatrixFactorization
    codomain: MatrixFactorization
    alpha: PolyMatrix
    beta: PolyMatrix


def is_morphism(m: Morphism) -> bool:
    """Check the two commuting-square equations exactly."""
    n1, n2 = m.domain.size, m.codomain.size
    if (m.alpha.rows, m.alpha.cols) != (n2, n1) or (m.beta.rows, m.beta.cols) != (n2, n1):
        raise MatrixError("morphism components have the wrong shape")
    if m.domain.f != m.codomain.f:
        return False
    left = mat_mul(m.alpha, m.domain.phi) == mat_mul(m.codomain.phi, m.beta)
    right = mat_mul(m.codomain.psi, m.alpha) == mat_mul(m.beta, m.domain.psi)
    return left and right


def identity_morphism(x: MatrixFactorization) -> Morphism:
    i = identity(x.size)
    return Morphism(x, x, i, i)


def scalar_morphism(x: MatrixFactorization, h: Polynomial) -> Morphism:
    """(h*I, h*I): always a morphism since scalar matrices commute."""
    s = scalar_matrix(h, x.size)
    return Morphism(x, x, s, s)


def compose(m2: Morphism, m1: Morphism) -> Morphism:
    """Composite (alpha2*alpha1, beta2*beta1); m1 first, then m2."""
    if m1.codomain is not m2.domain and m1.codomain != m2.domain:
        raise MatrixError("codomain of the first morphism must match domain of the second")
    return Morphism(m1.domain, m2.codomain, mat_mul(m2.alpha, m1.alpha), mat_mul(m2.beta, m1.beta))


def tensor_morphisms(zf: Morphism, zg: Morphism) -> Morphism:
    """Tensor two morphisms into a morphism between the reduced tensor
    products of their endpoints: ([alpha_f (x) alpha_g], [beta_f (x) beta_g])."""
    domain = reduced_tensor(zf.domain, zg.domain)
    codomain = reduced_tensor(zf.codomain, zg.codomain)
    return Morphism(domain, codomain, kron(zf.alpha, zg.alpha), kron(zf.beta, zg.beta))


def commutativity_morphism(x: MatrixFactorization, y: MatrixFactorization) -> Morphism:
    """The morphism from X (x) Y to Y (x) X (reduced tensors) given by
    (phi_Y (x) phi_X, phi_X (x) phi_Y)."""
    domain = reduced_tensor(x, y)
    codomain = reduced_tensor(y, x)
    return Morphism(domain, codomain, kron(y.phi, x.phi), kron(x.phi, y.phi))


def shuffle_isomorphism_check(x: MatrixFactorization, y: MatrixFactorization) -> bool:
    """True iff conjugating the factors of X (x) Y by the perfect shuffle
    yields exactly the factors of Y (x) X (reduced tensors)."""
    s = shuffle_matrix(y.size, x.size)
    st = transpose(s)
    return all(
        kron(ay, ax) == mat_mul(mat_mul(s, kron(ax, ay)), st) for ax, ay in ((x.phi, y.phi), (x.psi, y.psi))
    )
