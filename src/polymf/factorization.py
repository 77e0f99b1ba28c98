"""Matrix factorizations of polynomials and their morphisms.

A matrix factorization of f is a pair (phi, psi) of n x n polynomial
matrices with phi*psi = psi*phi = f*I_n.  `certify` is the one place a
pair is checked: it maps the requested mode and the size to the check
that runs (the exact symbolic product up to EXACT_SIZE_THRESHOLD,
Freivalds' vector check at random integer points above it), runs it,
and returns a record of what ran.  Both checks use exact arithmetic, so
a reported failure is always genuine.

Both check phi*psi alone when f != 0: Q[x] is a domain, so phi*psi = f*I
makes psi/f a right inverse of phi over its fraction field, hence a
two-sided one, and psi*phi = f*I.  For f = 0 that argument fails
(phi*psi = 0 says nothing of psi*phi), and psi*phi is checked as well.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import lcm
from operator import mul

from .matrix import PolyMatrix, MatrixError, from_strings, identity, mat_mul, scalar_matrix
from .poly import Polynomial, parse_polynomial

# certify checks exactly up to this size and by randomized point checks
# above it; pass verify="exact" to force the full product.
EXACT_SIZE_THRESHOLD = 64
DEFAULT_TRIALS = 8
DEFAULT_SEED = 0
COORDINATE_BOUND = 10**6
# verify_randomized refuses, before any trial, a pair with an entry or f
# whose value at a point of [-COORDINATE_BOUND, COORDINATE_BOUND]^m may
# exceed this many bits (see Polynomial.value_bits).  A trial makes one
# product of two such values per stored nonzero of phi, about 2 ms each
# at 2^16 bits on a 2-core Xeon; the paper's pairs stay below 200 bits.
EVALUATION_BIT_CAP = 2**16
# It also refuses a pair whose one trial may take more than this many
# products of 64-bit words (see _trial_work), about 0.25 s on the same
# Xeon, and a run whose trials together may take more than DEFAULT_TRIALS
# times as many; the paper's pairs stay about 1000 times below the first.
TRIAL_WORK_CAP = 2**28
# verify_exact refuses, before any product, a pair whose products may
# take more than this many term products (see _product_work).  A 1x1
# pair whose entries have 1200 terms each (1.44e6) is refused; the
# paper's pairs peak at 524,288 (the improved 2048 pair).
EXACT_WORK_CAP = 2**20
# A failing exact check quotes at most this many characters of an entry.
DIAGNOSTIC_CHARS = 200


class EvaluationCapError(ValueError):
    """verify_randomized refused a pair whose values at a random point
    may exceed EVALUATION_BIT_CAP bits, whose one trial may exceed
    TRIAL_WORK_CAP, or whose trials together may exceed DEFAULT_TRIALS *
    TRIAL_WORK_CAP, and no trial ran; or verify_exact refused a pair whose
    products may exceed EXACT_WORK_CAP, and no product ran."""


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
        phi, psi = self.phi, self.psi
        if phi.table is psi.table:
            # an entry both factors use is formatted once
            texts = {k: str(phi.table[k]) for k in set().union(*phi.indices, *psi.indices)}
            grids = phi._dense(texts, "0"), psi._dense(texts, "0")
        else:
            grids = phi.texts(), psi.texts()
        return {"f": str(self.f), "size": self.size, "phi": grids[0], "psi": grids[1]}

    @staticmethod
    def from_dict(data: dict) -> "MatrixFactorization":
        """Read a document written by `to_dict`, without verifying it."""
        if not isinstance(data, dict):
            raise MatrixError("a factorization document must be a JSON object")
        if not isinstance(data["f"], str):
            raise MatrixError("'f' must be a string")
        for name in ("phi", "psi"):
            # from_strings checks the rows and their entries as it parses
            if not isinstance(data[name], list):
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

    Computes phi*psi, and psi*phi only when f = 0 (see the module
    docstring for why one order suffices otherwise).  Returns (True, "ok")
    or (False, diagnostics naming the first offending entry and its value,
    quoted to at most DIAGNOSTIC_CHARS characters).

    Raises EvaluationCapError, before any product, if the products may
    take more than EXACT_WORK_CAP term products (see _product_work).
    """
    orders = [("phi*psi", mf.phi, mf.psi)]
    if mf.f.is_zero():
        orders.append(("psi*phi", mf.psi, mf.phi))
    work = sum(_product_work(a, b) for _, a, b in orders)
    if work > EXACT_WORK_CAP:
        raise EvaluationCapError(
            f"exact verification skipped: the products may take {work} term "
            f"products, over the cap of {EXACT_WORK_CAP}"
        )
    f = mf.f._terms
    for name, a, b in orders:
        product = mat_mul(a, b)
        table = product.table
        for i, (js, ks) in enumerate(zip(product.columns, product.indices)):
            # row i must be f*e_i; the terms dicts compare as the values do
            if (js == (i,) and table[ks[0]]._terms == f) if f else not js:
                continue
            expected = {i: mf.f}
            j = min(j for j in {*js, i} if product[i, j] != expected.get(j, Polynomial.zero()))
            return False, (
                f"{name} entry ({i},{j}) is {_quote(product[i, j])}, "
                f"expected {_quote(expected.get(j, Polynomial.zero()))}"
            )
    return True, "ok"


def _product_work(a: PolyMatrix, b: PolyMatrix) -> int:
    """The term products mat_mul(a, b) makes: for each stored a[i,k], its
    terms times all the terms of row k of b.  O(nnz) to compute, and it
    counts the terms of each table entry once."""
    terms_a = [len(e._terms) for e in a.table]
    terms_b = terms_a if b.table is a.table else [len(e._terms) for e in b.table]
    row_terms = [sum(map(terms_b.__getitem__, ks)) for ks in b.indices]
    return sum([terms_a[ia] * row_terms[k] for js, ks in zip(a.columns, a.indices) for k, ia in zip(js, ks)])


def _quote(p: Polynomial) -> str:
    """The text of p, cut after DIAGNOSTIC_CHARS characters and then
    followed by its term count."""
    text = str(p)
    if len(text) <= DIAGNOSTIC_CHARS:
        return text
    return f"{text[:DIAGNOSTIC_CHARS]}... ({p.num_terms()} terms)"


def verify_randomized(
    mf: MatrixFactorization,
    trials: int = DEFAULT_TRIALS,
    seed: int = DEFAULT_SEED,
) -> bool:
    """Check phi*psi = f*I by Freivalds' vector check at random integer
    points, exactly.

    The entries of the tables of phi and psi are first mapped to their
    distinct values, which costs the tables and not the stored nonzeros.
    Each trial then draws a point x and a vector r, both with integer
    coordinates uniform in [-B, B] for B = COORDINATE_BOUND, evaluates f
    and each distinct value once at x, and checks phi(x)*(psi(x)*r) =
    f(x)*r over the stored nonzeros, which read the values through their
    table indices, in ints scaled by the lcm of the values' denominators:
    O(nnz) work per trial.  Deterministic given the seed.  Never fails on
    a valid factorization.

    If phi*psi != f*I, some entry of (phi*psi - f*I)*r, read as a
    polynomial in x and in the n coordinates of r as extra variables, is
    nonzero of degree at most D + 1, where D = max(deg phi + deg psi,
    deg f) over the highest entry degrees.  So a wrong pair escapes one
    trial with probability at most (D+1)/(2B+1) (Schwartz-Zippel), and
    every trial with at most ((D+1)/(2B+1))^trials.  For f = 0, where
    phi*psi = 0 proves nothing about psi*phi (see the module docstring),
    each trial also checks psi(x)*(phi(x)*r) = 0.

    Raises EvaluationCapError, before any trial, if a value at a point of
    [-B, B]^m may exceed EVALUATION_BIT_CAP bits, if the estimated work
    of one trial (see _trial_work) exceeds TRIAL_WORK_CAP, or if that of
    all the trials exceeds DEFAULT_TRIALS * TRIAL_WORK_CAP: every run at
    the default trials that one trial's cap allows is allowed.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    phi, psi = mf.phi, mf.psi
    # each table entry's index into distinct, the values evaluated per trial
    index: dict[Polynomial, int] = {}
    phi_at = [index.setdefault(e, len(index)) for e in phi.table]
    psi_at = phi_at if psi.table is phi.table else [index.setdefault(e, len(index)) for e in psi.table]
    distinct = list(index)
    bits = [p.value_bits(COORDINATE_BOUND) for p in distinct]
    f_bits = mf.f.value_bits(COORDINATE_BOUND)
    top = max([f_bits, *bits])
    if top > EVALUATION_BIT_CAP:
        raise EvaluationCapError(
            f"randomized verification skipped: a value at a random point may "
            f"reach {top} bits, over the cap of {EVALUATION_BIT_CAP}"
        )
    both_orders = mf.f.is_zero()
    work = _trial_work(mf.size, f_bits, _extent(phi, phi_at, bits), _extent(psi, psi_at, bits), both_orders)
    if work > TRIAL_WORK_CAP:
        raise EvaluationCapError(
            f"randomized verification skipped: one trial may take {work} products "
            f"of 64-bit words, over the cap of {TRIAL_WORK_CAP}"
        )
    if trials * work > DEFAULT_TRIALS * TRIAL_WORK_CAP:
        raise EvaluationCapError(
            f"randomized verification skipped: {trials} trials may take {trials * work} "
            f"products of 64-bit words, over the cap of {DEFAULT_TRIALS * TRIAL_WORK_CAP} "
            f"({DEFAULT_TRIALS} trials of {TRIAL_WORK_CAP})"
        )
    variables = sorted(mf.f.variables().union(*(e.variables() for e in distinct)))
    # randrange(2B + 1) - B is the integer rng.randint(-B, B) draws from
    # the same stream, without its two extra Python frames per draw.
    draw, span, bound = random.Random(seed).randrange, 2 * COORDINATE_BOUND + 1, COORDINATE_BOUND
    for _ in range(trials):
        point = {v: draw(span) - bound for v in variables}
        values = [e.evaluate(point) for e in distinct]
        fval = mf.f.evaluate(point)
        r = [draw(span) - bound for _ in range(mf.size)]
        scale = lcm(fval.denominator, *(x.denominator for x in values))
        if scale != 1:
            values = [x.numerator * (scale // x.denominator) for x in values]
        want = fval.numerator * (scale * scale // fval.denominator)
        phi_values, psi_values = ([values[k] for k in at] for at in (phi_at, psi_at))
        if _apply(phi, phi_values, _apply(psi, psi_values, r)) != [want * x for x in r]:
            return False
        if both_orders and any(_apply(psi, psi_values, _apply(phi, phi_values, r))):
            return False
    return True


def _extent(m: PolyMatrix, at: list[int], bits: list[int]) -> tuple[int, int]:
    """The stored nonzeros of m, and the most value bits of any of them,
    from the bits of each distinct value and its index at[k] for table
    entry k."""
    used = set().union(*m.indices)
    return sum(map(len, m.indices)), max((bits[at[k]] for k in used), default=0)


def _trial_work(
    n: int, f_bits: int, phi: tuple[int, int], psi: tuple[int, int], both_orders: bool
) -> int:
    """An estimate of one Freivalds trial's arithmetic, in products of
    64-bit words, from each factor's (stored nonzeros, value bits).

    A trial computes u = psi(x)*r, where each stored nonzero multiplies a
    value by a coordinate of r, then phi(x)*u, where each multiplies a
    value by a coordinate of u (at most psi's value bits + r's + log2 n
    bits), and f(x)*r; for f = 0 also the other order.  A product of an
    a-word and a b-word int counts as a*b.
    """
    r_bits = COORDINATE_BOUND.bit_length()

    def order(first: tuple[int, int], second: tuple[int, int]) -> int:
        (first_nnz, first_bits), (second_nnz, second_bits) = first, second
        u_bits = first_bits + r_bits + n.bit_length()
        return (
            first_nnz * _words(first_bits) * _words(r_bits)
            + second_nnz * _words(second_bits) * _words(u_bits)
        )

    work = order(psi, phi) + n * _words(f_bits) * _words(r_bits)
    if both_orders:
        work += order(phi, psi)
    return work


def _words(bits: int) -> int:
    return bits // 64 + 1


def _apply(m: PolyMatrix, values: list[int], v: list[int]) -> list[int]:
    """The matrix m, with the value values[k] for table entry k, times the
    vector v."""
    get_value, get_v = values.__getitem__, v.__getitem__
    return [sum(map(mul, map(get_value, ks), map(get_v, js))) for js, ks in zip(m.columns, m.indices)]


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
