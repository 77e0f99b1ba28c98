"""Matrix factorizations of polynomials and their morphisms.

A matrix factorization of f is a pair (phi, psi) of n x n polynomial
matrices with phi*psi = psi*phi = f*I_n.  `certify` is the one place a
pair is checked: it maps the requested mode and the size to the check
that runs (exact symbolic products up to EXACT_SIZE_THRESHOLD, exact
products at random integer points above it), runs it, and returns a
record of what ran.  Both checks use exact arithmetic, so a reported
failure is always genuine.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import chain
from math import lcm

from .matrix import PolyMatrix, MatrixError, from_strings, identity, mat_mul, scalar_matrix
from .poly import Coeff, Polynomial, parse_polynomial

# certify checks exactly up to this size and by randomized point checks
# above it; pass verify="exact" to force the full product.
EXACT_SIZE_THRESHOLD = 64
DEFAULT_TRIALS = 8
DEFAULT_SEED = 0
COORDINATE_BOUND = 10**6


class VerificationError(ValueError):
    """The defining identity phi*psi = psi*phi = f*I failed.

    ``record`` is the record of the check that failed (see `certify`).
    """

    def __init__(self, message: str, record: dict):
        super().__init__(message)
        self.record = record


@dataclass(frozen=True)
class MatrixFactorization:
    """A pair (phi, psi) of square matrices of one size, meant to satisfy
    phi*psi = psi*phi = f*I_n; `make_factorization` certifies it."""

    f: Polynomial
    phi: PolyMatrix
    psi: PolyMatrix

    def __post_init__(self):
        if not self.phi.is_square or not self.psi.is_square:
            raise MatrixError("factors must be square")
        if self.phi.rows != self.psi.rows:
            raise MatrixError(f"factor size mismatch: {self.phi.rows} vs {self.psi.rows}")

    @property
    def size(self) -> int:
        return self.phi.rows

    def to_dict(self) -> dict:
        return {
            "f": str(self.f),
            "size": self.size,
            "phi": [[str(e) for e in row] for row in self.phi.entries],
            "psi": [[str(e) for e in row] for row in self.psi.entries],
        }

    @staticmethod
    def from_dict(data: dict) -> "MatrixFactorization":
        """Read a document written by `to_dict`, without verifying it."""
        if not isinstance(data, dict):
            raise MatrixError("a factorization document must be a JSON object")
        if not isinstance(data["f"], str):
            raise MatrixError("'f' must be a string")
        for name in ("phi", "psi"):
            rows = data[name]
            if not isinstance(rows, list) or not all(
                isinstance(row, list) and all(isinstance(e, str) for e in row) for row in rows
            ):
                raise MatrixError(f"{name!r} must be a list of rows of strings")
        if not data["phi"]:
            raise MatrixError("a factorization has at least one row")
        mf = MatrixFactorization(
            parse_polynomial(data["f"]),
            from_strings(data["phi"]),
            from_strings(data["psi"]),
        )
        size = data.get("size", mf.size)
        if type(size) is not int or size != mf.size:
            raise MatrixError("declared size does not match the matrices")
        return mf


def make_factorization(
    f: Polynomial,
    phi: PolyMatrix,
    psi: PolyMatrix,
    *,
    verify: str = "auto",
) -> MatrixFactorization:
    """Build a factorization of f and certify it in mode verify (see
    `certify`, which also takes the trials and seed of a randomized check).

    verify="skip" builds it unchecked: for the intermediate results of a
    proven construction whose final pair is certified.
    """
    mf = MatrixFactorization(f, phi, psi)
    if verify != "skip":
        certify(mf, verify)
    return mf


def certify(
    mf: MatrixFactorization,
    verify: str = "auto",
    trials: int = DEFAULT_TRIALS,
    seed: int = DEFAULT_SEED,
) -> dict:
    """Check the defining identity of mf and return what ran.

    verify: "exact", "randomized", or "auto" (exact up to the size
    threshold, randomized above it).  Returns {"mode": "exact"} or
    {"mode": "randomized", "trials": trials, "seed": seed}, and raises
    VerificationError carrying that record if the check fails.
    """
    if verify == "auto":
        verify = "exact" if mf.size <= EXACT_SIZE_THRESHOLD else "randomized"
    if verify == "exact":
        record = {"mode": "exact"}
        ok, diag = verify_exact(mf)
    elif verify == "randomized":
        record = {"mode": "randomized", "trials": trials, "seed": seed}
        ok = verify_randomized(mf, trials=trials, seed=seed)
        diag = f"randomized verification failed ({trials} trials, seed {seed})"
    else:
        raise ValueError(f"unknown verify mode: {verify!r}")
    if not ok:
        raise VerificationError(diag, record)
    return record


def verify_exact(mf: MatrixFactorization) -> tuple[bool, str]:
    """Check phi*psi = psi*phi = f*I by exact symbolic products.

    Returns (True, "ok") or (False, diagnostics naming the first
    offending entry and its value).
    """
    for name, a, b in (("phi*psi", mf.phi, mf.psi), ("psi*phi", mf.psi, mf.phi)):
        product = mat_mul(a, b)
        for i, row in enumerate(product.row_maps):
            want = {i: mf.f} if mf.f else {}
            if row != want:
                j = min(j for j in row.keys() | want.keys() if row.get(j) != want.get(j))
                expected = mf.f if i == j else Polynomial.zero()
                return False, f"{name} entry ({i},{j}) is {product[i, j]}, expected {expected}"
    return True, "ok"


def verify_randomized(
    mf: MatrixFactorization,
    trials: int = DEFAULT_TRIALS,
    seed: int = DEFAULT_SEED,
) -> bool:
    """Check phi*psi = f*I at random integer points, exactly.

    Each trial draws integer coordinates uniformly in
    [-COORDINATE_BOUND, COORDINATE_BOUND], evaluates both factors and f,
    and checks the numeric product identity with exact arithmetic.
    Deterministic given the seed.  Never fails on a valid factorization.
    If phi*psi != f*I, some entry of phi*psi - f*I is a nonzero
    polynomial of degree at most max(max deg phi + max deg psi, deg f),
    so a single point misses it with probability at most that degree
    over 2*COORDINATE_BOUND + 1 (Schwartz-Zippel).

    Checking phi*psi alone suffices when f != 0: Q[x] is a domain, so
    phi*psi = f*I makes psi/f a right inverse of phi over its fraction
    field, hence a two-sided one, and psi*phi = f*I.  For f = 0 that
    argument fails, and psi*phi is checked as well.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = random.Random(seed)
    variables = sorted(mf.phi.variables() | mf.psi.variables() | mf.f.variables())
    both_orders = mf.f.is_zero()
    for _ in range(trials):
        point = {v: rng.randint(-COORDINATE_BOUND, COORDINATE_BOUND) for v in variables}
        a = [(i, j, e.evaluate(point)) for i, j, e in mf.phi.nonzeros()]
        b = [(i, j, e.evaluate(point)) for i, j, e in mf.psi.nonzeros()]
        fval = mf.f.evaluate(point)
        if not _product_equals_scalar(mf.size, a, b, fval):
            return False
        if both_orders and not _product_equals_scalar(mf.size, b, a, fval):
            return False
    return True


def _product_equals_scalar(
    n: int,
    a: list[tuple[int, int, Coeff]],
    b: list[tuple[int, int, Coeff]],
    c: Coeff,
) -> bool:
    """Exact check that a @ b == c*I for n x n rational matrices given by
    their nonzeros (row, col, value).

    Every value is scaled to a Python int by the common denominator, and
    each row of a @ b is accumulated in a dict over the nonzeros of b's
    rows; Python ints are exact, so no magnitude bound is needed.
    """
    scale = c.denominator
    for _, _, x in chain(a, b):
        scale = lcm(scale, x.denominator)

    def rows(entries: list[tuple[int, int, Coeff]]) -> list[list[tuple[int, int]]]:
        out: list[list[tuple[int, int]]] = [[] for _ in range(n)]
        for i, j, x in entries:
            out[i].append((j, x.numerator * (scale // x.denominator)))
        return out

    b_rows = rows(b)
    want = c.numerator * (scale * scale // c.denominator)
    for i, a_row in enumerate(rows(a)):
        acc: dict[int, int] = {}
        for k, x in a_row:
            for j, y in b_rows[k]:
                acc[j] = acc.get(j, 0) + x * y
        if acc.pop(i, 0) != want or any(acc.values()):
            return False
    return True


# ---------------------------------------------------------------------------
# Morphisms.
# ---------------------------------------------------------------------------


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
    return Morphism(
        m1.domain,
        m2.codomain,
        mat_mul(m2.alpha, m1.alpha),
        mat_mul(m2.beta, m1.beta),
    )
