"""Shared strategies and fixtures for the test suite."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import strategies as st

from polymf import (
    MatrixFactorization,
    Polynomial,
    PolyMatrix,
    SummandReducedPoly,
    fixtures,
    kron,
    make_factorization,
    parse_polynomial,
    run_refined,
)
from polymf.matrix import _sparse
from polymf.standard import standard_step

VARS = ("x", "y", "z")

INTEGER_COEFFICIENTS = st.integers(-3, 3).filter(bool).map(Fraction)
# Denominators include 1, so some of these coefficients are integral
# Fractions, and sums and products of them cancel to integers.
RATIONAL_COEFFICIENTS = st.builds(
    Fraction, st.integers(-6, 6).filter(bool), st.sampled_from((1, 2, 3, 7))
)


@st.composite
def monomials(draw, max_degree: int = 2, coefficients=INTEGER_COEFFICIENTS) -> Polynomial:
    """A one-term polynomial."""
    coeff = draw(coefficients)
    names = draw(st.lists(st.sampled_from(VARS), unique=True, max_size=2))
    exps = tuple(sorted((v, draw(st.integers(1, max_degree))) for v in names))
    return Polynomial({exps: coeff})


@st.composite
def polynomials(draw, max_terms: int = 3, coefficients=INTEGER_COEFFICIENTS) -> Polynomial:
    ms = draw(st.lists(monomials(coefficients=coefficients), min_size=0, max_size=max_terms))
    return sum(ms, Polynomial.zero())


def split_by_flat_list(key, coeff):
    """The degree-halving rule as first written: flatten the powers of
    the term (key, coeff) into a list of names and rebuild the key of
    each half from its slice.  Reference for _split_key and _split_pairs:
    the (key, coeff) of each half."""
    flat = [v for v, e in key for _ in range(e)]
    cut = (len(flat) + 1) // 2

    def rebuild(names):
        exps = {}
        for v in names:
            exps[v] = exps.get(v, 0) + 1
        return tuple(sorted(exps.items()))

    return (rebuild(flat[:cut]), coeff), (rebuild(flat[cut:]), 1)


def rational_polynomials(max_terms: int = 3):
    return polynomials(max_terms=max_terms, coefficients=RATIONAL_COEFFICIENTS)


def nonzero_polynomials(max_terms: int = 2):
    return polynomials(max_terms=max_terms).filter(lambda p: not p.is_zero())


@st.composite
def factorizations(draw, max_steps: int = 2):
    """Random verified factorizations of size 1, 2, or 4 built by the
    standard method; every instance genuinely satisfies phi*psi = f*I."""
    g = draw(nonzero_polynomials())
    h = draw(nonzero_polynomials())
    mf = make_factorization(g * h, PolyMatrix([[g]]), PolyMatrix([[h]]), verify="skip")
    for _ in range(draw(st.integers(0, max_steps))):
        g2 = draw(nonzero_polynomials(max_terms=1))
        h2 = draw(nonzero_polynomials(max_terms=1))
        mf = standard_step(mf, g2, h2)
    return mf


@st.composite
def poly_matrices(draw, rows: int = 2, cols: int = 2, entries=None) -> PolyMatrix:
    if entries is None:
        entries = polynomials(max_terms=1)
    grid = [[draw(entries) for _ in range(cols)] for _ in range(rows)]
    return PolyMatrix(grid, rows, cols)


def relaid(m: PolyMatrix, seed: int) -> PolyMatrix:
    """m rebuilt from the same (row, column, value) slots over another
    table: each entry listed twice, as itself and as an equal copy, in a
    shuffled order, each slot indexing one of the two at random with its
    own sign bit."""
    rng = random.Random(seed)
    doubled = list(m.table) + [parse_polynomial(str(e)) for e in m.table]
    order = list(range(len(doubled)))
    rng.shuffle(order)
    moved = {old: new for new, old in enumerate(order)}
    indices = [
        tuple(2 * moved[(k >> 1) + len(m.table) * rng.randrange(2)] + (k & 1) for k in ks) for ks in m.indices
    ]
    return _sparse(tuple(doubled[old] for old in order), m.columns, indices, m.rows, m.cols)


def flipped(m: PolyMatrix, flips) -> PolyMatrix:
    """m over its own table with the sign bit of each slot flipped where
    flips, a sequence of bits over its stored slots row by row, is 1."""
    bits = iter(flips)
    return _sparse(m.table, m.columns, [tuple(k ^ next(bits) for k in ks) for ks in m.indices], m.rows, m.cols)


def materialized(m: PolyMatrix) -> PolyMatrix:
    """m at even codes only: its table followed by the negation of each
    entry, with each odd code 2k + 1 moved to that negation's code."""
    n = len(m.table)
    indices = [tuple(k + 2 * n - 1 if k & 1 else k for k in ks) for ks in m.indices]
    return _sparse(m.table + tuple(-e for e in m.table), m.columns, indices, m.rows, m.cols)


def paper_srp(name: str) -> SummandReducedPoly:
    """The paper document fixtures.PAPER_DOCUMENTS[name], read."""
    return SummandReducedPoly.from_strings(**fixtures.PAPER_DOCUMENTS[name])


@pytest.fixture
def part1_srp() -> SummandReducedPoly:
    return paper_srp("part1")


@pytest.fixture
def part2_srp() -> SummandReducedPoly:
    return paper_srp("part2")


@pytest.fixture
def two_product_srp() -> SummandReducedPoly:
    return paper_srp("two_product")


def scaled_two_product_pair() -> MatrixFactorization:
    """The refined two-product pair (512) with phi and psi times w^1600:
    every value stays under the evaluation bit cap, but each stored
    nonzero of phi multiplies two values of about 32000 bits in a trial."""
    mf = run_refined(paper_srp("two_product"), verify="skip")
    w = PolyMatrix([[parse_polynomial("w^1600")]])
    return MatrixFactorization(mf.f * parse_polynomial("w^3200"), kron(mf.phi, w), kron(mf.psi, w))
