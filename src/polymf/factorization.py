"""Matrix factorizations of polynomials.

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
from itertools import chain, islice, repeat
from math import lcm
from operator import itemgetter, mul, neg
from typing import Callable

from .matrix import (
    MatrixError,
    PolyMatrix,
    _by_code,
    _odd_codes,
    _on_one_table,
    _slot_texts,
    _sparse,
    from_strings,
    mat_mul,
    scalar_matrix,
)
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
    phi*psi = psi*phi = f*I_n; `certify` checks it.

    phi and psi index one table: factors given over two are rebuilt over
    phi's entries followed by psi's (see matrix._on_one_table)."""

    f: Polynomial
    phi: PolyMatrix
    psi: PolyMatrix

    def __post_init__(self):
        if not self.phi.is_square or not self.psi.is_square:
            raise MatrixError("factors must be square")
        if self.phi.rows != self.psi.rows:
            raise MatrixError(f"factor size mismatch: {self.phi.rows} vs {self.psi.rows}")
        phi, psi = _on_one_table(self.phi, self.psi)
        object.__setattr__(self, "phi", phi)
        object.__setattr__(self, "psi", psi)

    @property
    def size(self) -> int:
        return self.phi.rows

    def to_dict(self) -> dict:
        phi, psi = self.phi, self.psi
        # a value and sign both factors use is formatted once
        texts = _slot_texts(phi.table, phi.indices + psi.indices)
        return {"f": str(self.f), "size": self.size, "phi": phi._dense(texts, "0"), "psi": psi._dense(texts, "0")}

    @staticmethod
    def from_dict(data: dict) -> "MatrixFactorization":
        """Read a document written by `to_dict`, without verifying it.

        The rows of phi and then psi are read as one grid, so each
        distinct entry text is parsed once, and both factors index one
        table, as a pipeline pair's do."""
        if not isinstance(data, dict):
            raise MatrixError("a factorization document must be a JSON object")
        for key in ("f", "phi", "psi"):
            if key not in data:
                raise MatrixError(f"a factorization document needs the key {key!r}")
        if not isinstance(data["f"], str):
            raise MatrixError("'f' must be a string")
        phi, psi = data["phi"], data["psi"]
        for name, rows in (("phi", phi), ("psi", psi)):
            # from_strings checks the rows and their entries as it parses
            if not isinstance(rows, list):
                raise MatrixError(f"{name!r} must be a list of rows of strings")
        if not phi:
            raise MatrixError("a factorization has at least one row")
        if len(psi) != len(phi):
            raise MatrixError(f"factor size mismatch: phi has {len(phi)} rows, psi has {len(psi)}")
        if type(phi[0]) is list:
            # the two grids are read as one, every row as wide as phi's first
            width = len(phi[0])
            for name, rows in (("phi", phi), ("psi", psi)):
                for i, row in enumerate(rows):
                    if type(row) is list and len(row) != width:
                        raise MatrixError(f"{name} row {i} has {len(row)} entries, phi row 0 has {width}")
        f = parse_polynomial(data["f"])
        grid, n = from_strings(phi + psi), len(phi)
        mf = MatrixFactorization(
            f,
            _sparse(grid.table, grid.columns[:n], grid.indices[:n], n, grid.cols),
            _sparse(grid.table, grid.columns[n:], grid.indices[n:], n, grid.cols),
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

    verify="skip" builds it unchecked, for a caller that certifies the pair
    itself (the CLI, with its own trials, through the pipelines' _certified).
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
    docstring for why one order suffices otherwise), and compares each
    with expected = scalar_matrix(f, n).  mat_mul stores a product equal
    to f*I exactly as scalar_matrix stores it, so one test accepts it
    for every f: three C-level compares of the columns, the slot codes
    and the first table entry.  A product that fails it is read by
    value.  Returns (True, "ok") or (False, diagnostics naming the first
    row i and least column j where product[i, j] != expected[i, j], and
    both values, quoted to at most DIAGNOSTIC_CHARS characters).

    Raises EvaluationCapError, before any product, if the products may
    take more than EXACT_WORK_CAP term products (see _product_work).  The
    count is made only when _work_bound, which costs the rows and the
    tables, is over the cap.
    """
    orders = [("phi*psi", mf.phi, mf.psi)]
    if mf.f.is_zero():
        orders.append(("psi*phi", mf.psi, mf.phi))
    if sum(_work_bound(a, b) for _, a, b in orders) > EXACT_WORK_CAP:
        work = sum(_product_work(a, b) for _, a, b in orders)
        if work > EXACT_WORK_CAP:
            raise EvaluationCapError(
                f"exact verification skipped: the products may take {work} term "
                f"products, over the cap of {EXACT_WORK_CAP}"
            )
    expected = scalar_matrix(mf.f, mf.size)
    for name, a, b in orders:
        product = mat_mul(a, b)
        same = product.columns == expected.columns and product.indices == expected.indices
        if same and product.table[:1] == expected.table[:1]:
            continue
        for i, js in enumerate(product.columns):
            for j in sorted({*js, i}):
                if product[i, j] != expected[i, j]:
                    got, want = _quote(product[i, j]), _quote(expected[i, j])
                    return False, f"{name} entry ({i},{j}) is {got}, expected {want}"
    return True, "ok"


def _work_bound(a: PolyMatrix, b: PolyMatrix) -> int:
    """An upper bound on _product_work(a, b) from the row lengths of a and
    b and one pass over their table: each stored a[i,k] meets at most the
    longest row of b, and each of those products multiplies at most two
    of the longest entries.  a and b index one table, a.table, as the two
    factors of a pair do."""
    longest = max([len(e._terms) for e in a.table], default=0)
    return sum(map(len, a.indices)) * max(map(len, b.indices), default=0) * longest * longest


def _product_work(a: PolyMatrix, b: PolyMatrix) -> int:
    """The term products mat_mul(a, b) makes: for each stored a[i,k], its
    terms times all the terms of row k of b.  O(nnz) to compute, and it
    counts the terms of each table entry once, read at k >> 1 for slot
    code k.  a and b index one table, a.table, as the two factors of a
    pair do."""
    terms = [len(e._terms) for e in a.table]
    row_terms = [sum([terms[k >> 1] for k in ks]) for ks in b.indices]
    return sum([terms[ia >> 1] * row_terms[k] for js, ks in zip(a.columns, a.indices) for k, ia in zip(js, ks)])


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

    The entries of the table of phi and psi are first mapped to their
    distinct values, which costs the table and not the stored nonzeros.
    Each trial then draws a point x and a vector r, both with integer
    coordinates uniform in [-B, B] for B = COORDINATE_BOUND, evaluates f
    and each distinct value once at x, and checks phi(x)*(psi(x)*r) =
    f(x)*r over the stored nonzeros, which read the values through their
    slot codes, in ints scaled by the lcm of the values' denominators (an
    odd code's value is the negated int of its entry's): O(nnz) work per
    trial.  Each factor's slot codes and columns are listed row after row
    once per call, so applying a factor to a vector is two C-level
    gathers (every slot's value, and the coordinate it multiplies), then
    one product per stored nonzero and one sum per row, all in C: a trial
    makes nnz(phi) + nnz(psi) products.  Each coordinate is drawn as
    getrandbits(w), for w the bit length of 2B + 1, redrawn while it is
    2B + 1 or more, minus B: the integer random.Random(seed).randint(-B, B)
    draws from the same stream, x then r, trial by trial.  Deterministic
    given the seed.  Never fails on a valid factorization.

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
    at = [index.setdefault(e, len(index)) for e in phi.table]
    distinct = list(index)
    # the slot codes each factor uses, and the odd ones, negated once per trial
    phi_used, psi_used = set().union(*phi.indices), set().union(*psi.indices)
    odd = _odd_codes((phi_used, psi_used))
    bits = [p.value_bits(COORDINATE_BOUND) for p in distinct]
    f_bits = mf.f.value_bits(COORDINATE_BOUND)
    top = max([f_bits, *bits])
    if top > EVALUATION_BIT_CAP:
        raise EvaluationCapError(
            f"randomized verification skipped: a value at a random point may "
            f"reach {top} bits, over the cap of {EVALUATION_BIT_CAP}"
        )
    both_orders = mf.f.is_zero()
    extents = (_extent(phi, phi_used, at, bits), _extent(psi, psi_used, at, bits))
    work = _trial_work(mf.size, f_bits, *extents, both_orders)
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
    getrandbits, span, bound = random.Random(seed).getrandbits, 2 * COORDINATE_BOUND + 1, COORDINATE_BOUND
    width = span.bit_length()

    def draw() -> int:
        # randint(-B, B) reads getrandbits(width) until a result is below
        # 2B + 1, then subtracts B; this is that draw in one Python frame
        x = getrandbits(width)
        while x >= span:
            x = getrandbits(width)
        return x - bound

    phi_slots, psi_slots = _gathers(phi), _gathers(psi)
    for _ in range(trials):
        point = {v: draw() for v in variables}
        values = [e.evaluate(point) for e in distinct]
        fval = mf.f.evaluate(point)
        r = [draw() for _ in range(mf.size)]
        scale = lcm(fval.denominator, *(x.denominator for x in values))
        if scale != 1:
            values = [x.numerator * (scale // x.denominator) for x in values]
        want = fval.numerator * (scale * scale // fval.denominator)
        by_code = _by_code([values[k] for k in at], odd, neg)
        if _apply(phi_slots, by_code, _apply(psi_slots, by_code, r)) != [want * x for x in r]:
            return False
        if both_orders and any(_apply(psi_slots, by_code, _apply(phi_slots, by_code, r))):
            return False
    return True


def _extent(m: PolyMatrix, used: set[int], at: list[int], bits: list[int]) -> tuple[int, int]:
    """The stored nonzeros of m, and the most value bits of any of them,
    from the slot codes m uses, the bits of each distinct value and its
    index at[k] for table entry k."""
    return sum(map(len, m.indices)), max((bits[at[k >> 1]] for k in used), default=0)


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


def _gathers(m: PolyMatrix) -> tuple[Callable, Callable, list[int]]:
    """The slot codes of m row after row and their columns, each as one
    gather from a sequence, and the length of each row."""
    codes, columns = chain.from_iterable(m.indices), chain.from_iterable(m.columns)
    return _gather(list(codes)), _gather(list(columns)), list(map(len, m.indices))


def _gather(at: list[int]) -> Callable:
    """A function from a sequence s to the items s[i] for i in at.
    itemgetter returns a bare item for one index and refuses none, so
    fewer than two indices are gathered into a list."""
    return itemgetter(*at) if len(at) > 1 else lambda s: [s[i] for i in at]


def _apply(slots: tuple[Callable, Callable, list[int]], values: list[int], v: list[int]) -> list[int]:
    """The matrix m, with the value values[k] for slot code k, times the
    vector v, from _gathers(m): every slot's value and its coordinate of v
    are gathered in C, multiplied in one stream, and each row sums the
    next products of its length."""
    codes, columns, lengths = slots
    products = map(mul, codes(values), columns(v))
    return list(map(sum, map(islice, repeat(products), lengths)))
