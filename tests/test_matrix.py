"""Polynomial matrices: products, Kronecker structure, shuffles."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polymf import matrix
from polymf import (
    MatrixError,
    PolyMatrix,
    Polynomial,
    block2x2,
    direct_sum,
    from_strings,
    identity,
    kron,
    mat_mul,
    parse_polynomial,
    scalar_matrix,
    shuffle_matrix,
    zeros,
)

from conftest import (
    INTEGER_COEFFICIENTS,
    RATIONAL_COEFFICIENTS,
    poly_matrices,
    polynomials,
    rational_polynomials,
    relaid,
)

rational_matrices = poly_matrices(entries=rational_polynomials(max_terms=2))


def m(rows):
    return from_strings(rows)


def assert_sparse(a):
    """The layout invariants: one (columns, indices) pair per row, the
    columns strictly increasing and in range, every index in the table,
    and no zero table entry; and the dense view, with the shape,
    rebuilds the same matrix."""
    assert len(a.columns) == len(a.indices) == a.rows
    assert all(a.table)
    for js, ks in zip(a.columns, a.indices):
        assert len(js) == len(ks)
        assert all(0 <= j < a.cols for j in js) and all(j < k for j, k in zip(js, js[1:]))
        assert all(0 <= k < len(a.table) for k in ks)
    assert PolyMatrix(a.entries, a.rows, a.cols) == a


class TestSparseStorage:
    @given(poly_matrices(), poly_matrices(), poly_matrices(), poly_matrices())
    @settings(max_examples=100)
    def test_operations_store_only_nonzeros(self, a, b, c, d):
        for result in (
            a, mat_mul(a, b), kron(a, b), direct_sum(a, b), block2x2(a, b, c, d),
            a.transpose(), -a, a + b, a + (-a), scalar_matrix(a[0, 0], 3),
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

    def test_transpose_involution(self):
        a = m([["x", "y"], ["z", "0"]])
        assert a.transpose().transpose() == a

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


class TestPackedProduct:
    @pytest.mark.parametrize("kind", sorted(ENTRY_STRATEGIES))
    @given(data=st.data())
    @settings(max_examples=60)
    def test_matches_the_entrywise_reference(self, kind, data):
        rows, inner, cols = (data.draw(st.integers(0, 3)) for _ in range(3))
        entries = ENTRY_STRATEGIES[kind]
        a = data.draw(poly_matrices(rows, inner, entries=entries))
        b = data.draw(poly_matrices(inner, cols, entries=entries))
        c = mat_mul(a, b)
        assert (c.rows, c.cols) == (rows, cols)
        assert c == entrywise_product(a, b)
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
        "rows", [[["x"], ["x", "y"]], [["x", "y"], []], [["x", 1]], [[None, "0"]], [["x"], "y"], ["xy"]],
        ids=["long", "short", "int", "null", "string_row", "string_rows"],
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
            assert again.transpose() == x.transpose()
        ra, rb = relaid(a, seed), relaid(b, seed + 1)
        assert kron(ra, rb) == kron(a, b) and kron(rb, ra) == kron(b, a)
        assert direct_sum(ra, rb) == direct_sum(a, b)
        if a.cols == b.rows:
            assert mat_mul(ra, rb) == mat_mul(a, b)
        if a.rows == a.cols:
            assert mat_mul(ra, ra.transpose()) == mat_mul(a, a.transpose())

    def test_tables_in_another_order_are_equal(self):
        x, y = parse_polynomial("x"), parse_polynomial("y")
        a = matrix._sparse((x, y), [(0, 1)], [(0, 1)], 1, 2)
        b = matrix._sparse((y, x, parse_polynomial("x")), [(0, 1)], [(2, 0)], 1, 2)
        assert a == b and hash(a) == hash(b)
        assert a != matrix._sparse((y, x), [(0, 1)], [(0, 1)], 1, 2)


class TestShuffle:
    def test_s22_swaps_middle_indices(self):
        s = shuffle_matrix(2, 2)
        one = Polynomial.const(1)
        assert s[0, 0] == one and s[3, 3] == one
        assert s[1, 2] == one and s[2, 1] == one

    @pytest.mark.parametrize("p,q", [(2, 2), (2, 3), (3, 2), (4, 4)])
    def test_orthogonality(self, p, q):
        s = shuffle_matrix(p, q)
        assert mat_mul(s, s.transpose()) == identity(p * q)

    def test_non_square_conjugation(self):
        a = m([["x", "y", "0"], ["1", "0", "z"]])
        b = m([["x", "0"], ["y", "z"], ["0", "1"]])
        s = shuffle_matrix(b.rows, a.rows)
        t = shuffle_matrix(b.cols, a.cols)
        assert kron(b, a) == mat_mul(mat_mul(s, kron(a, b)), t.transpose())

    @given(poly_matrices(), poly_matrices())
    @settings(max_examples=100)
    def test_shuffle_conjugates_kron(self, a, b):
        s = shuffle_matrix(b.rows, a.rows)
        t = shuffle_matrix(b.cols, a.cols)
        assert kron(b, a) == mat_mul(mat_mul(s, kron(a, b)), t.transpose())


class TestBlocksAndEvaluation:
    def test_block2x2_layout(self):
        a = block2x2(identity(1), zeros(1, 1), zeros(1, 1), identity(1))
        assert a == identity(2)

    def test_block2x2_shape_check(self):
        with pytest.raises(MatrixError):
            block2x2(identity(2), identity(1), identity(1), identity(2))

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
        for x, y in ((a, b), (b.transpose(), a.transpose())):
            c = mat_mul(x, y)
            assert c == entrywise_product(x, y)
            assert_sparse(c)
            assert_integer_first(c)

    def test_each_distinct_object_is_packed_once(self, monkeypatch):
        """The packing and the profile see the distinct entry objects of
        each factor, not its stored nonzeros."""
        x, y = m([["x + 1/2 y", "z"], ["0", "x + 1/2 y"]]), m([["y", "2"], ["2", "y"]])
        a, b = kron(x, identity(3)), kron(identity(3), y)
        assert entry_objects(a) == 2 and entry_objects(b) == 2
        assert sum(1 for _ in a.nonzeros()) == 9 and sum(1 for _ in b.nonzeros()) == 12
        packed, profiled = [], []
        real_packed, real_profile = matrix._packed, matrix._profile

        def profile(entries):
            entries = list(entries)
            profiled.append(len(entries))
            return real_profile(entries)

        monkeypatch.setattr(matrix, "_packed", lambda p, *args: packed.append(p) or real_packed(p, *args))
        monkeypatch.setattr(matrix, "_profile", profile)
        assert mat_mul(a, b) == entrywise_product(a, b)
        assert profiled == [2, 2]
        assert len(packed) == len({id(p) for p in packed}) == 4

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
    """A Kronecker product with the constant one reuses the other entry
    object: no polynomial is multiplied and no entry is copied."""

    @given(shared_matrices(rational_polynomials(max_terms=2)), st.integers(1, 3))
    @settings(max_examples=60)
    def test_identity_blocks_hold_the_input_objects(self, a, n):
        """Each slot holds a's entry object itself (where that entry is one
        too, it may hold the identity's one instead), and no polynomial is
        multiplied."""
        def never(p, q):
            raise AssertionError("a polynomial was multiplied")

        one = identity(1)[0, 0]
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(Polynomial, "__mul__", never)
            right, left = kron(a, identity(n)), kron(identity(n), a)
            assert kron(identity(n), identity(2)) == identity(2 * n)
        for i, j, e in a.nonzeros():
            for p in range(n):
                for held in (right[i * n + p, j * n + p], left[p * a.rows + i, p * a.cols + j]):
                    assert held is e or (e.is_one() and held is one)
        nonzeros = sum(1 for _ in a.nonzeros())
        assert sum(1 for _ in right.nonzeros()) == sum(1 for _ in left.nonzeros()) == n * nonzeros

    def test_each_entry_passed_through_is_listed_once(self):
        """Two ones of b pass each entry of a through: the result's table
        lists that entry once, so a later product multiplies it once."""
        x = parse_polynomial("x")
        one, other_one = parse_polynomial("1"), parse_polynomial("1")
        k = kron(PolyMatrix([[x]]), matrix._sparse((one, other_one), [(0, 1)], [(0, 1)], 1, 2))
        assert k == PolyMatrix([[x, x]]) and k.table == (x,) and k[0, 0] is x

    def test_ones_inside_a_factor_are_reused(self):
        a = m([["1", "x"], ["y", "1"]])
        b = m([["z", "1"], ["1", "2"]])
        k = kron(a, b)
        assert k == PolyMatrix(
            [[a[i, j] * b[p, q] for j in range(2) for q in range(2)] for i in range(2) for p in range(2)]
        )
        assert k[0, 1] is b[0, 1]  # 1 * 1
        assert k[0, 0] is b[0, 0] and k[0, 3] is a[0, 1]


class TestScalarBlocks:
    """block2x2 takes a Polynomial p as the block p*I, sized by the
    matrices beside it."""

    @given(st.data(), polynomials(max_terms=2), st.integers(0, 2))
    @settings(max_examples=100)
    def test_equals_the_scalar_matrix_in_each_position(self, data, p, n):
        placements = [(k,) for k in range(4)] + [(0, 3), (1, 2)]
        for scalars in placements:
            # block k sits in block row k // 2 and block column k % 2
            heights = [data.draw(st.integers(0, 2)) for _ in range(2)]
            widths = [data.draw(st.integers(0, 2)) for _ in range(2)]
            for k in scalars:
                heights[k // 2] = widths[k % 2] = n
            blocks = [
                p if k in scalars else data.draw(poly_matrices(heights[k // 2], widths[k % 2]))
                for k in range(4)
            ]
            expected = [scalar_matrix(p, n) if k in scalars else blocks[k] for k in range(4)]
            result = block2x2(*blocks)
            assert result == block2x2(*expected), scalars
            assert_sparse(result)
            # the scalar's slots hold p itself
            inputs = {id(e) for b in blocks if isinstance(b, PolyMatrix) for _, _, e in b.nonzeros()}
            assert {id(e) for _, _, e in result.nonzeros()} <= inputs | {id(p)}

    def test_non_conformable_placements_raise(self):
        x, y = parse_polynomial("x"), parse_polynomial("y")
        square, tall = zeros(2, 2), zeros(3, 2)
        for blocks in (
            (x, zeros(2, 1), zeros(3, 3), zeros(3, 1)),  # slot of x is 2 x 3
            (x, square, square, tall),  # d beside c is 3 rows, c is 2
            (x, y, square, square),  # two scalars in the top block row
            (square, square, x, y),  # two scalars in the bottom block row
            (x, square, y, square),  # two scalars in the left block column
            (square, x, square, y),  # two scalars in the right block column
            (x, tall, square, square),  # b beside x is 3 rows, the column is 2 wide
        ):
            with pytest.raises(MatrixError):
                block2x2(*blocks)
