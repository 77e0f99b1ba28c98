"""Polynomial matrices: products, Kronecker structure, shuffles."""

from collections import Counter

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from polymf import matrix
from polymf import (
    MatrixError,
    MatrixFactorization,
    PolyMatrix,
    Polynomial,
    SummandReducedPoly,
    block2x2,
    direct_sum,
    from_strings,
    identity,
    kron,
    mat_mul,
    parse_polynomial,
    run_refined,
    scalar_matrix,
    zeros,
)

from conftest import (
    INTEGER_COEFFICIENTS,
    RATIONAL_COEFFICIENTS,
    factorizations,
    flipped,
    poly_matrices,
    polynomials,
    rational_polynomials,
    relaid,
)
from laws import shuffle_matrix, transpose

rational_matrices = poly_matrices(entries=rational_polynomials(max_terms=2))


def m(rows):
    return from_strings(rows)


def assert_sparse(a):
    """The layout invariants: one (columns, indices) pair per row, the
    columns strictly increasing and in range, every slot code reading a
    table entry (2k for table[k], 2k + 1 for its negation), and no zero
    table entry; and the dense view, with the shape, rebuilds the same
    matrix."""
    assert len(a.columns) == len(a.indices) == a.rows
    assert all(a.table)
    for js, ks in zip(a.columns, a.indices):
        assert len(js) == len(ks)
        assert all(0 <= j < a.cols for j in js) and all(j < k for j, k in zip(js, js[1:]))
        assert all(0 <= k < 2 * len(a.table) for k in ks)
    assert PolyMatrix(a.entries, a.rows, a.cols) == a


class TestSparseStorage:
    @given(poly_matrices(), poly_matrices(), poly_matrices(), poly_matrices())
    @settings(max_examples=100)
    def test_operations_store_only_nonzeros(self, a, b, c, d):
        for result in (
            a, mat_mul(a, b), kron(a, b), direct_sum(a, b), block2x2(a, b, c, d),
            transpose(a), -a, a + b, a + (-a), scalar_matrix(a[0, 0], 3),
        ):
            assert_sparse(result)
        assert list((a + (-a)).nonzeros()) == []

    def test_constructors_store_only_nonzeros(self):
        for result in (identity(3), zeros(2, 3), shuffle_matrix(2, 3), from_strings([["0", "x"], ["y", "0"]])):
            assert_sparse(result)
        assert list(from_strings([["0", "x"], ["y", "0"]]).nonzeros()) == [
            (0, 1, parse_polynomial("x")), (1, 0, parse_polynomial("y")),
        ]


class TestBasics:
    def test_shape_validation(self):
        with pytest.raises(MatrixError):
            PolyMatrix([[Polynomial.zero()], [Polynomial.zero(), Polynomial.zero()]])

    def test_immutability(self):
        a = identity(2)
        with pytest.raises(AttributeError):
            a.rows = 3

    @pytest.mark.parametrize("i, j", [(-1, 0), (2, 0), (5, 0), (0, -1), (0, 2)])
    def test_indices_are_range_checked(self, i, j):
        a = m([["x", "y"], ["z", "0"]])
        with pytest.raises(IndexError, match="row" if i not in (0, 1) else "column"):
            a[i, j]

    def test_equality_needs_a_matrix_of_the_same_shape(self):
        a = m([["x", "y"], ["z", "0"]])
        assert (a == a.entries) is False
        assert (zeros(2, 2) == zeros(2, 3)) is False and (zeros(2, 2) == zeros(3, 2)) is False

    def test_add_needs_one_shape(self):
        with pytest.raises(MatrixError, match="shape mismatch for add: 2x2 vs 2x3"):
            zeros(2, 2) + zeros(2, 3)

    def test_negative_dimensions_are_refused(self):
        with pytest.raises(MatrixError, match="negative matrix dimension -1x1"):
            zeros(-1, 1)

    def test_transpose_involution(self):
        a = m([["x", "y"], ["z", "0"]])
        assert transpose(transpose(a)) == a

    def test_identity_is_multiplicative_unit(self):
        a = m([["x", "y"], ["z", "x + y"]])
        assert mat_mul(a, identity(2)) == a
        assert mat_mul(identity(2), a) == a

    def test_render_round_trips(self):
        a = m([["x^2 - y", "0"], ["1/2", "xyz"]])
        again = from_strings(row.split(", ") for row in a.render().splitlines())
        assert again == a

    @given(poly_matrices(rows=3, cols=2))
    @settings(max_examples=50)
    def test_texts_match_the_dense_view(self, a):
        assert a.texts() == [[str(e) for e in row] for row in a.entries]

    def test_texts_format_each_entry_object_once(self, monkeypatch):
        a = m([["x + y", "x + y", "0"], ["0", "x + y", "1"]])  # "x + y" parsed once
        to_str = Polynomial.__str__
        calls = []

        def counting(p):
            calls.append(p)
            return to_str(p)

        monkeypatch.setattr(Polynomial, "__str__", counting)
        assert a.render() == "x + y, x + y, 0\n0, x + y, 1"
        assert len(calls) == 2


class TestProducts:
    def test_known_product(self):
        a = m([["x", "-z"], ["z", "y"]])
        b = m([["y", "z"], ["-z", "x"]])
        assert mat_mul(a, b) == scalar_matrix(parse_polynomial("xy + z^2"), 2)

    def test_dimension_mismatch(self):
        with pytest.raises(MatrixError):
            mat_mul(zeros(2, 3), zeros(2, 3))

    @given(poly_matrices(), poly_matrices(), poly_matrices())
    @settings(max_examples=100)
    def test_associativity(self, a, b, c):
        assert mat_mul(mat_mul(a, b), c) == mat_mul(a, mat_mul(b, c))

    @given(poly_matrices(), poly_matrices(), poly_matrices())
    @settings(max_examples=100)
    def test_left_distributivity(self, a, b, c):
        assert mat_mul(a, b + c) == mat_mul(a, b) + mat_mul(a, c)


    @given(rational_matrices, rational_matrices)
    @settings(max_examples=100)
    def test_each_entry_is_its_sum_of_products(self, a, b):
        c = mat_mul(a, b)
        for i in range(a.rows):
            for j in range(b.cols):
                assert c[i, j] == sum((a[i, k] * b[k, j] for k in range(a.cols)), Polynomial.zero())
        assert_sparse(c)


# Wide monomials for the packed product: six or more variables (numbered
# names included) and exponents from 1 to past 1000.
WIDE_VARS = ("a", "b", "x", "x1", "x10", "x2", "y", "z")


@st.composite
def wide_monomials(draw, coefficients) -> Polynomial:
    names = draw(st.lists(st.sampled_from(WIDE_VARS), unique=True, max_size=len(WIDE_VARS)))
    exps = tuple(sorted((v, draw(st.one_of(st.integers(1, 3), st.integers(999, 1200)))) for v in names))
    return Polynomial({exps: draw(coefficients)})


def wide_polynomials(coefficients):
    return st.lists(wide_monomials(coefficients), max_size=3).map(lambda ms: sum(ms, Polynomial.zero()))


ENTRY_STRATEGIES = {
    "integer": polynomials(max_terms=2),
    "rational": rational_polynomials(max_terms=2),
    "constant": st.builds(Polynomial.const, RATIONAL_COEFFICIENTS | st.just(0)),
    "wide-integer": wide_polynomials(INTEGER_COEFFICIENTS),
    "wide-rational": wide_polynomials(RATIONAL_COEFFICIENTS),
}


def entrywise_product(a, b):
    """Reference product: each entry is Polynomial.dot of the paired entries."""
    return PolyMatrix(
        [[Polynomial.dot((a[i, k], b[k, j]) for k in range(a.cols)) for j in range(b.cols)] for i in range(a.rows)],
        a.rows,
        b.cols,
    )


def assert_integer_first(a):
    for _, _, e in a.nonzeros():
        for term in e.terms:
            assert (type(term.coeff) is int) == (term.coeff.denominator == 1), term


def assert_product_layout(c, expected):
    """c equals expected and is laid out as mat_mul writes it: while row 0
    is one entry at column 0 and each later row repeats that value alone
    at its diagonal, the later row holds code 0; every other entry, from
    row 0 on, is listed where it sits, at the next even code, row by row
    with the columns increasing (so a value met twice is listed twice)."""
    assert c == expected
    table, codes = [], []
    scalar = c.columns[:1] == ((0,),)
    for i, js in enumerate(c.columns):
        scalar = scalar and (not i or (js == (i,) and expected[i, i] == expected[0, 0]))
        if i and scalar:
            codes.append((0,))
        else:
            codes.append(tuple(range(2 * len(table), 2 * (len(table) + len(js)), 2)))
            table += [expected[i, j] for j in js]
    assert c.indices == tuple(codes)
    assert list(c.table) == table


class TestPackedProduct:
    @pytest.mark.parametrize("kind", sorted(ENTRY_STRATEGIES))
    @given(data=st.data())
    @settings(max_examples=60)
    def test_matches_the_entrywise_reference(self, kind, data):
        rows, inner, cols = (data.draw(st.integers(0, 3)) for _ in range(3))
        entries = ENTRY_STRATEGIES[kind]
        a = data.draw(poly_matrices(rows, inner, entries=entries))
        b = data.draw(poly_matrices(inner, cols, entries=entries))
        # unshared tables, and the two over one table
        for x, y in ((a, b), matrix._on_one_table(a, b)):
            c = mat_mul(x, y)
            assert (c.rows, c.cols) == (rows, cols)
            assert_product_layout(c, entrywise_product(a, b))
            assert_sparse(c)
            assert_integer_first(c)

    def test_empty_shapes(self):
        assert mat_mul(zeros(0, 3), zeros(3, 2)) == zeros(0, 2)
        assert mat_mul(zeros(2, 0), zeros(0, 3)) == zeros(2, 3)
        assert mat_mul(m([["x", "y"]]), zeros(2, 0)) == zeros(1, 0)

    def test_cancelling_rows_store_nothing(self):
        c = mat_mul(m([["x", "y"], ["1/2 x", "1/2 y"], ["x", "0"]]), m([["y", "2y"], ["-x", "-2x"]]))
        assert list(c.nonzeros()) == [(2, 0, parse_polynomial("xy")), (2, 1, parse_polynomial("2xy"))]
        assert_sparse(c)

    def test_each_entry_is_listed_where_it_sits(self):
        # x + 2y, met twice, is decoded and listed twice
        c = mat_mul(m([["x", "y"]]), m([["1", "2", "1"], ["2", "1", "2"]]))
        assert c == m([["x + 2y", "2x + y", "x + 2y"]])
        assert c.table == tuple(map(parse_polynomial, ["x + 2y", "2x + y", "x + 2y"]))
        assert c.indices == ((0, 2, 4),)

    def test_no_variables(self):
        c = mat_mul(m([["2", "1/3"], ["0", "-1"]]), m([["3", "0"], ["6", "1/2"]]))
        assert c == m([["8", "1/6"], ["-6", "-1/2"]])
        assert_integer_first(c)

    def test_exponent_sums_do_not_carry(self):
        # x has top exponent 2 in both factors.  A digit of width 2 + 2
        # would pack x^4 as the next variable's digit 1, i.e. as y.
        a = m([["x^2", "y"]])
        b = m([["x^2"], ["1"]])
        assert mat_mul(a, b) == m([["x^4 + y"]])
        # The top digit is the column: y^4 must not carry into column 1.
        assert mat_mul(m([["y^2"]]), m([["y^2", "1"]])) == m([["y^4", "y^2"]])

    def test_large_exponents_and_many_variables(self):
        a = m([["a^1000 b x1 - x10^1200", "x2^999 y z"]])
        b = m([["b^1000 x10 + x1"], ["a x2 z^1001"]])
        expected = parse_polynomial(
            "a^1000 b^1001 x1 x10 + a^1000 b x1^2 - b^1000 x10^1201 - x1 x10^1200 + a x2^1000 y z^1002"
        )
        assert mat_mul(a, b) == scalar_matrix(expected, 1)


def split_by_terms(a):
    """a written as T matrices side by side, T the most terms of one of
    its entries: matrix s holds the s-th term of each entry, or zero
    where the entry has fewer terms.  Returns (T, that matrix)."""
    count = max((len(e.terms) for _, _, e in a.nonzeros()), default=1)
    grid = [[Polynomial.zero()] * (count * a.cols) for _ in range(a.rows)]
    for i, k, e in a.nonzeros():
        for s, term in enumerate(e.terms):
            grid[i][s * a.cols + k] = Polynomial({term.exponents: term.coeff})
    return count, PolyMatrix(grid, a.rows, count * a.cols)


def stacked(b, count):
    """b written count times, one copy under the other."""
    return PolyMatrix([list(row) for row in b.entries] * count, count * b.rows, b.cols)


class TestProductOfMultiTermEntries:
    """A table with an entry of several terms splits each slot into one
    slot per term; no gated workload multiplies such tables."""

    @pytest.mark.parametrize("kind", ["rational", "wide-integer", "wide-rational"])
    @given(data=st.data(), seed=st.integers(0, 2**32))
    @settings(max_examples=60)
    def test_equals_the_product_of_the_term_splits(self, kind, data, seed):
        rows, inner, cols = (data.draw(st.integers(0, 3)) for _ in range(3))
        entries = ENTRY_STRATEGIES[kind]
        a = data.draw(poly_matrices(rows, inner, entries=entries))
        b = data.draw(poly_matrices(inner, cols, entries=entries))

        def resigned(m, seed):
            """m with random sign bits flipped, relaid: odd codes of
            multi-term entries, each entry listed twice."""
            n = sum(map(len, m.indices))
            return relaid(flipped(m, data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))), seed)

        signed = resigned(a, seed), resigned(b, seed + 1)
        for x, y in ((a, b), signed, matrix._on_one_table(*signed)):
            count, split = split_by_terms(x)
            c = mat_mul(x, y)
            assert c == mat_mul(split, stacked(y, count))
            assert_product_layout(c, entrywise_product(x, y))
            assert_sparse(c)


def assert_scalar_product(x, y, f):
    """mat_mul(x, y) is f*I as mat_mul writes it: table (f,), row i
    holding code 0 at column i alone; and it reads row 0 alone in full,
    so it decodes one entry (one call of _wrap, which runs once per entry
    of each row read in full)."""
    decoded = []
    real = matrix._wrap
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(matrix, "_wrap", lambda terms: decoded.append(terms) or real(terms))
        c = mat_mul(x, y)
    assert c.table == (f,)
    assert c.columns == tuple(zip(range(c.rows)))
    assert c.indices == ((0,),) * c.rows
    assert len(decoded) == 1


# the ways near_scalar changes one row of f*I
ROW_MISSES = ["superset", "subset", "scaled", "extra-column", "empty", "wrong-column"]


def near_scalar(f, n, row, miss):
    """The n x n scalar matrix f*I with row `row` changed by `miss`: the
    diagonal a value with one term more than f, one term less, or 2f; f
    and one more entry in the next column; no entry; or f alone in the
    next column."""
    grid = [[f if i == j else Polynomial.zero() for j in range(n)] for i in range(n)]
    x, nxt, first = parse_polynomial("x"), (row + 1) % n, f.terms[0]
    if miss == "superset":
        grid[row][row] = f + x * x * x
    elif miss == "subset":
        grid[row][row] = f - Polynomial({first.exponents: first.coeff})
    elif miss == "scaled":
        grid[row][row] = f + f
    elif miss == "extra-column":
        grid[row][nxt] = x
    elif miss == "empty":
        grid[row][row] = Polynomial.zero()
    else:
        grid[row][row], grid[row][nxt] = Polynomial.zero(), f
    return PolyMatrix(grid, n, n)


class TestScalarRows:
    """A product whose rows hold one value f at the diagonal, as every
    product of a valid pair does, reads row 0 alone in full: table (f,),
    row i at column i alone, every code 0; and a product that leaves that
    shape at any row reads that row and every later one in full."""

    @given(factorizations(), st.integers(0, 2**32))
    @settings(max_examples=60)
    def test_valid_pairs_give_f_once_at_code_0(self, mf, seed):
        assume(mf.f)  # a pair of f = 0 multiplies to no entry at all

        def negated(m):
            """m with every sign bit flipped: -m at odd codes."""
            return flipped(m, [1] * sum(map(len, m.indices)))

        for phi, psi in (
            (mf.phi, mf.psi), (relaid(mf.phi, seed), relaid(mf.psi, seed + 1)), (negated(mf.phi), negated(mf.psi)),
        ):
            for x, y in ((phi, psi), (psi, phi)):
                assert_scalar_product(x, y, mf.f)

    def test_rational_and_multi_term_pairs(self):
        srp = SummandReducedPoly.from_strings(["1/2 zy"], [["xy^2 + 2/3 x^2z + yz^2", "3/7 xy + z^2"]])
        rational = run_refined(srp, verify="skip")
        # coefficients with denominators, so the sums are scaled by an lcm > 1
        assert any(type(c) is not int for e in rational.phi.table for c in e._terms.values())
        phi, psi = m([["x + y", "-z"], ["w", "x - y"]]), m([["x - y", "z"], ["-w", "x + y"]])
        multi_term = MatrixFactorization(parse_polynomial("x^2 - y^2 + wz"), phi, psi)
        for mf in (rational, multi_term):
            for x, y in ((mf.phi, mf.psi), (mf.psi, mf.phi)):
                assert_scalar_product(x, y, mf.f)

    @pytest.mark.parametrize("f", ["x^2y - 3z + 1/2 w", "xy"])
    @pytest.mark.parametrize("miss", ROW_MISSES)
    @pytest.mark.parametrize("row", ["first", "middle", "last"])
    def test_a_row_that_misses_is_read_in_general(self, f, miss, row):
        f, n = parse_polynomial(f), 5
        a = near_scalar(f, n, {"first": 0, "middle": n // 2, "last": n - 1}[row], miss)
        g = parse_polynomial("y - 2")
        for x, y in ((a, identity(n)), (identity(n), a), (a, scalar_matrix(g, n)), (scalar_matrix(g, n), a)):
            assert_product_layout(mat_mul(x, y), entrywise_product(x, y))

    @pytest.mark.parametrize("rows, table, columns, codes", [
        # f*e_0, g*e_1, f*e_2: row 2 is f again after the miss at row 1,
        # read in full
        ([["f", "0", "0"], ["0", "g", "0"], ["0", "0", "f"]], ("f", "g", "f"), ((0,), (1,), (2,)), ((0,), (2,), (4,))),
        # g*e_1, f*e_0, f*e_2: only row 0 is ever compared with the rows after it
        ([["0", "g", "0"], ["f", "0", "0"], ["0", "0", "f"]], ("g", "f", "f"), ((1,), (0,), (2,)), ((0,), (2,), (4,))),
    ], ids=["f-g-f", "g-f-f"])
    def test_rows_of_two_values(self, rows, table, columns, codes):
        texts = {"f": "x + 1", "g": "y", "0": "0"}
        c = mat_mul(m([[texts[t] for t in row] for row in rows]), identity(3))
        assert c.table == tuple(parse_polynomial(texts[t]) for t in table)
        assert (c.columns, c.indices) == (columns, codes)


class TestFromStrings:
    @given(st.lists(rational_polynomials(max_terms=2), min_size=1, max_size=3), st.data())
    @settings(max_examples=100)
    def test_repeated_entries_give_equal_matrices(self, pool, data):
        texts = [str(q) for q in pool] + ["0"]
        row = st.lists(st.sampled_from(texts), min_size=3, max_size=3)
        grid = data.draw(st.lists(row, min_size=1, max_size=4))
        assert from_strings(grid) == PolyMatrix([[parse_polynomial(t) for t in r] for r in grid])

    def test_each_distinct_text_is_parsed_once(self, monkeypatch):
        """The text "0" is never parsed; every other distinct text exactly once."""
        calls = []
        real = matrix.parse_polynomial
        monkeypatch.setattr(matrix, "parse_polynomial", lambda text: calls.append(text) or real(text))
        a = from_strings([["x", "0", "x"], ["0", "1/2 y", "x"]])
        assert sorted(calls) == ["1/2 y", "x"]
        assert a[0, 0] is a[1, 2] and a[0, 0] == parse_polynomial("x")

    def test_texts_that_parse_to_zero_store_nothing(self):
        a = from_strings([["x - x", "x"], [" 0", "0"]])
        assert list(a.nonzeros()) == [(0, 1, parse_polynomial("x"))]
        assert (a.rows, a.cols) == (2, 2)

    @pytest.mark.parametrize(
        "rows", [[["x"], ["x", "y"]], [["x", "y"], []], [["x", 1]], [[None, "0"]], [["x", ["x"]]], [["x"], "y"], ["xy"]],
        ids=["long", "short", "int", "null", "unhashable", "string_row", "string_rows"],
    )
    def test_malformed_grids_raise_matrix_error(self, rows):
        with pytest.raises(MatrixError):
            from_strings(rows)


class TestKronecker:
    def test_block_layout(self):
        a = m([["x", "0"], ["0", "y"]])
        b = m([["1", "z"], ["0", "1"]])
        k = kron(a, b)
        assert k[0, 1] == parse_polynomial("xz")
        assert k[2, 3] == parse_polynomial("yz")
        assert k[0, 2].is_zero()

    def test_identity_kron_identity(self):
        assert kron(identity(2), identity(3)) == identity(6)

    @given(poly_matrices(), poly_matrices(), poly_matrices(), poly_matrices())
    @settings(max_examples=100)
    def test_mixed_product_property(self, a, b, c, d):
        assert mat_mul(kron(a, b), kron(c, d)) == kron(mat_mul(a, c), mat_mul(b, d))

    @given(poly_matrices(), poly_matrices(), poly_matrices())
    @settings(max_examples=100)
    def test_kron_distributes_over_direct_sum(self, a, b, c):
        assert kron(direct_sum(a, b), c) == direct_sum(kron(a, c), kron(b, c))


@st.composite
def shared_matrices(draw, entries=None, rows=None, cols=None) -> PolyMatrix:
    """A matrix of 1-3 x 1-3 whose slots hold objects of a pool of 1-3
    polynomials, so that entries share objects as a pipeline's do."""
    pool = draw(st.lists(polynomials(max_terms=2) if entries is None else entries, min_size=1, max_size=3))
    rows = draw(st.integers(1, 3)) if rows is None else rows
    cols = draw(st.integers(1, 3)) if cols is None else cols
    return PolyMatrix([[draw(st.sampled_from(pool)) for _ in range(cols)] for _ in range(rows)], rows, cols)


SCALES = {
    "integer": (polynomials(max_terms=2), polynomials(max_terms=2)),
    "rational": (rational_polynomials(max_terms=2), rational_polynomials(max_terms=2)),
    "mixed": (polynomials(max_terms=2), rational_polynomials(max_terms=2)),
}


def entry_objects(a) -> int:
    return len({id(e) for _, _, e in a.nonzeros()})


class TestSharedEntries:
    @given(st.sampled_from(sorted(SCALES)).flatmap(
        lambda scale: st.tuples(*(shared_matrices(entries) for entries in SCALES[scale]))
    ))
    @settings(max_examples=150)
    def test_kron_computes_each_product_once(self, factors):
        """Every slot of kron is the general product (Polynomial.dot) of
        its two slots, on integer, rational and mixed factors."""
        a, b = factors
        k = kron(a, b)
        assert entry_objects(k) <= entry_objects(a) * entry_objects(b)
        for i in range(a.rows):
            for j in range(a.cols):
                for p in range(b.rows):
                    for q in range(b.cols):
                        assert k[i * b.rows + p, j * b.cols + q] == Polynomial.dot(((a[i, j], b[p, q]),))
        assert_sparse(k)
        assert_integer_first(k)

    @given(shared_matrices())
    @settings(max_examples=100)
    def test_negation_negates_each_object_once(self, a):
        n = -a
        assert entry_objects(n) <= entry_objects(a)
        assert n == PolyMatrix([[-e for e in row] for row in a.entries], a.rows, a.cols)
        assert_sparse(n)

    @given(shared_matrices(rational_polynomials(max_terms=2)))
    @settings(max_examples=100)
    def test_negation_calls_neg_once_per_object(self, a):
        """Polynomial negation runs once per distinct entry object, and
        the slots that share an object share one negated object."""
        calls = []
        real = Polynomial.__neg__
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(Polynomial, "__neg__", lambda p: calls.append(p) or real(p))
            n = -a
        assert len(calls) == len({id(p) for p in calls}) == entry_objects(a)
        image = {}
        for i, j, e in a.nonzeros():
            assert n[i, j] == real(e)
            assert image.setdefault(id(e), n[i, j]) is n[i, j]


class TestTableLayout:
    """Equality, hashing and every operation read the values at the
    slots, never the table's order or its duplicates."""

    @pytest.mark.parametrize("shape", [(0, 0), (0, 3), (3, 0), (2, 3)])
    def test_dense_view_rebuilds_every_shape(self, shape):
        rows, cols = shape
        for a in (zeros(rows, cols), PolyMatrix([[parse_polynomial("x")] * cols] * rows, rows, cols)):
            assert PolyMatrix(a.entries, a.rows, a.cols) == a
            assert_sparse(a)
        assert PolyMatrix([], 0, cols) == zeros(0, cols)

    def test_grid_with_no_rows_needs_its_column_count(self):
        with pytest.raises(MatrixError):
            PolyMatrix([])

    @given(st.sampled_from(sorted(SCALES)).flatmap(
        lambda scale: st.tuples(*(shared_matrices(entries) for entries in SCALES[scale]))
    ), st.integers(0, 2**32))
    @settings(max_examples=100)
    def test_relaid_matrices_give_the_same_results(self, factors, seed):
        a, b = factors
        for x in (a, b):
            again = relaid(x, seed)
            assert_sparse(again)
            assert again == x and hash(again) == hash(x)
            assert -again == -x and again.texts() == x.texts()
            assert transpose(again) == transpose(x)
        ra, rb = relaid(a, seed), relaid(b, seed + 1)
        assert kron(ra, rb) == kron(a, b) and kron(rb, ra) == kron(b, a)
        assert direct_sum(ra, rb) == direct_sum(a, b)
        if a.cols == b.rows:
            assert mat_mul(ra, rb) == mat_mul(a, b)
        if a.rows == a.cols:
            assert mat_mul(ra, transpose(ra)) == mat_mul(a, transpose(a))

    def test_tables_in_another_order_are_equal(self):
        x, y = parse_polynomial("x"), parse_polynomial("y")
        a = matrix._sparse((x, y), [(0, 1)], [(0, 2)], 1, 2)
        b = matrix._sparse((y, x, parse_polynomial("x")), [(0, 1)], [(4, 0)], 1, 2)
        assert a == b and hash(a) == hash(b)
        assert a != matrix._sparse((y, x), [(0, 1)], [(0, 2)], 1, 2)


class TestShuffle:
    def test_s22_swaps_middle_indices(self):
        s = shuffle_matrix(2, 2)
        one = Polynomial.const(1)
        assert s[0, 0] == one and s[3, 3] == one
        assert s[1, 2] == one and s[2, 1] == one

    @pytest.mark.parametrize("p,q", [(2, 2), (2, 3), (3, 2), (4, 4)])
    def test_orthogonality(self, p, q):
        s = shuffle_matrix(p, q)
        assert mat_mul(s, transpose(s)) == identity(p * q)

    def test_non_square_conjugation(self):
        a = m([["x", "y", "0"], ["1", "0", "z"]])
        b = m([["x", "0"], ["y", "z"], ["0", "1"]])
        s = shuffle_matrix(b.rows, a.rows)
        t = shuffle_matrix(b.cols, a.cols)
        assert kron(b, a) == mat_mul(mat_mul(s, kron(a, b)), transpose(t))

    @given(poly_matrices(), poly_matrices())
    @settings(max_examples=100)
    def test_shuffle_conjugates_kron(self, a, b):
        s = shuffle_matrix(b.rows, a.rows)
        t = shuffle_matrix(b.cols, a.cols)
        assert kron(b, a) == mat_mul(mat_mul(s, kron(a, b)), transpose(t))


class TestBlocksAndEvaluation:
    def test_block2x2_layout(self):
        a = block2x2(identity(1), zeros(1, 1), zeros(1, 1), identity(1))
        assert a == identity(2)

    @pytest.mark.parametrize(
        "k, shape",
        [(1, (2, 3)), (3, (5, 3)), (2, (4, 1)), (3, (4, 1))],
        ids=["a_b_rows", "c_d_rows", "a_c_columns", "b_d_columns"],
    )
    def test_block2x2_shape_check(self, k, shape):
        """Blocks of 1x2, 1x3, 4x2 and 4x3, with block k reshaped so that
        exactly one pair of neighbours disagrees."""
        blocks = [zeros(1, 2), zeros(1, 3), zeros(4, 2), zeros(4, 3)]
        block2x2(*blocks)
        blocks[k] = zeros(*shape)
        with pytest.raises(MatrixError):
            block2x2(*blocks)

    def test_direct_sum_shapes(self):
        d = direct_sum(zeros(1, 2), zeros(3, 1))
        assert (d.rows, d.cols) == (4, 3)


@st.composite
def shared_factor(draw, entries, rows, cols) -> PolyMatrix:
    """A rows x cols matrix whose slots share entry objects, as a
    pipeline's do: drawn from a small pool, or a Kronecker product of
    such a matrix with an identity (either side) or with a small pooled
    block; negated or not."""
    k = draw(st.sampled_from([d for d in (1, 2, 3) if rows % d == 0 and cols % d == 0]))
    base = draw(shared_matrices(entries, rows // k, cols // k))
    kind = draw(st.sampled_from(["pool", "kron-identity", "identity-kron", "kron"]))
    if kind == "kron-identity":
        base = kron(base, identity(k))
    elif kind == "identity-kron":
        base = kron(identity(k), base)
    elif kind == "kron":
        base = kron(base, draw(shared_matrices(entries, k, k)))
    else:
        base = draw(shared_matrices(entries, rows, cols))
    return -base if draw(st.booleans()) else base


class TestProductOfSharedEntries:
    """mat_mul packs each distinct entry object once per call; the result
    must not depend on how the slots share objects."""

    @pytest.mark.parametrize("scale", sorted(SCALES))
    @given(data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_matches_the_entrywise_reference(self, scale, data):
        left, right = SCALES[scale]
        rows, inner, cols = (data.draw(st.sampled_from([1, 2, 3, 4, 6])) for _ in range(3))
        a = data.draw(shared_factor(left, rows, inner))
        b = data.draw(shared_factor(right, inner, cols))
        for x, y in ((a, b), (transpose(b), transpose(a))):
            c = mat_mul(x, y)
            assert_product_layout(c, entrywise_product(x, y))
            assert_sparse(c)
            assert_integer_first(c)

    def test_each_distinct_object_is_packed_once(self, monkeypatch):
        """The packing and the profile read the terms of the distinct
        entry objects of the table, however many slots hold them: factors
        with twice the nonzeros over the same table read each object
        exactly as often."""
        x, y = m([["x + 1/2 y", "z"], ["0", "x + 1/2 y"]]), m([["y", "2"], ["2", "y"]])
        table, at_y = x.table + y.table, 2 * len(x.table)
        slot = Polynomial.__dict__["_terms"]
        reads = Counter()

        def terms_reads(k):
            # x (x) 1_k and 1_k (x) y, their slots over one table of x's
            # entries and then y's
            a = matrix._sparse(table, [tuple(j * k + p for j in js) for js in x.columns for p in range(k)],
                               [ks for ks in x.indices for _ in range(k)], 2 * k, 2 * k)
            b = matrix._sparse(table, [tuple(2 * p + j for j in js) for p in range(k) for js in y.columns],
                               [tuple(c + at_y for c in ks) for ks in y.indices] * k, 2 * k, 2 * k)
            assert a == kron(x, identity(k)) and b == kron(identity(k), y)
            assert entry_objects(a) == 2 and entry_objects(b) == 2
            assert sum(1 for _ in a.nonzeros()) == 3 * k and sum(1 for _ in b.nonzeros()) == 4 * k
            reads.clear()
            with monkeypatch.context() as patch:
                patch.setattr(Polynomial, "_terms", property(lambda p: reads.update([id(p)]) or slot.__get__(p),
                                                             slot.__set__))
                c = mat_mul(a, b)
            assert c == entrywise_product(a, b)
            counts = {i: reads[i] for i in {id(e) for e in table}}
            assert all(counts.values())
            return counts

        assert terms_reads(3) == terms_reads(6)

    def test_each_distinct_sum_is_converted_once(self, monkeypatch):
        """A rational product turns each distinct scaled sum into its
        coefficient once per call: here 12 terms share one sum."""
        calls = []
        real = matrix._coeff
        monkeypatch.setattr(matrix, "_coeff", lambda c: calls.append(c) or real(c))
        half = scalar_matrix(parse_polynomial("1/2"), 4)
        c = mat_mul(half, scalar_matrix(parse_polynomial("x + y + z"), 4))
        assert c == scalar_matrix(parse_polynomial("1/2 x + 1/2 y + 1/2 z"), 4)
        assert len(calls) == 1

    def test_integral_rational_products_are_ints(self):
        a = m([["1/2 x", "1/3 y"], ["1/2 x", "0"]])
        b = m([["2", "1/6"], ["3", "1/6"]])
        c = mat_mul(a, b)
        assert c == m([["x + y", "1/12 x + 1/18 y"], ["x", "1/12 x"]])
        assert [type(t.coeff) for t in c[0, 0].terms] == [int, int]
        assert [type(t.coeff) for t in c[1, 0].terms] == [int]
        assert_integer_first(c)


class TestKroneckerWithOne:
    """A Kronecker product multiplies the constant one like any entry."""

    def test_ones_inside_a_factor_are_reused(self):
        """kron is the entrywise Kronecker product on factors holding ones."""
        a = m([["1", "x"], ["y", "1"]])
        b = m([["z", "1"], ["1", "2"]])
        k = kron(a, b)
        assert k == PolyMatrix(
            [[a[i, j] * b[p, q] for j in range(2) for q in range(2)] for i in range(2) for p in range(2)]
        )
