"""Tensor products of factorizations and their categorical laws."""

import pytest
from hypothesis import given, settings

from polymf import (
    YOSHINO_VARIANTS,
    PolyMatrix,
    Polynomial,
    SummandList,
    block2x2,
    certify,
    identity,
    kron,
    mult_tensor,
    parse_polynomial,
    reduced_tensor,
    standard_factorize,
    standard_factorize_polynomial,
    standard_step,
    verify_exact,
    yoshino,
)
from polymf import factorization, fixtures, matrix, tensor

from conftest import factorizations, nonzero_polynomials
from laws import (
    commutativity_morphism,
    compose,
    direct_sum_factorizations,
    identity_morphism,
    is_morphism,
    mult_tensor_variant,
    scalar_morphism,
    shuffle_isomorphism_check,
    tensor_morphisms,
)


def quadrant(m, position, half):
    """The (column, slot code) pairs of each row of block position of m
    (0 top left, 1 top right, 2 bottom left, 3 bottom right), columns
    counted from the block's left edge."""
    top, left = divmod(position, 2)
    rows = zip(m.columns[top * half:(top + 1) * half], m.indices[top * half:(top + 1) * half])
    return [[(j - left * half, k) for j, k in zip(js, ks) if left * half <= j < (left + 1) * half] for js, ks in rows]


class TestYoshino:
    def test_size_and_target(self):
        x, y = fixtures.pair_m(), fixtures.pair_p()
        t = yoshino(x, y)
        assert t.size == 2 * x.size * y.size
        assert t.f == x.f + y.f

    @pytest.mark.parametrize("variant", YOSHINO_VARIANTS)
    def test_all_variants_verify(self, variant):
        t = yoshino(fixtures.pair_m(), fixtures.pair_q(), variant)
        assert verify_exact(t)[0]
        assert t.size == 4

    @pytest.mark.parametrize("variant", YOSHINO_VARIANTS)
    def test_each_variant_negates_two_blocks(self, variant, monkeypatch):
        """The KP and KS blocks hold y's own codes, shifted past x's table,
        and the two negated blocks are those blocks with every sign bit
        flipped: no polynomial and no matrix is negated, and the table
        holds the entries of x and y, each once."""
        x, y = fixtures.pair_m(), fixtures.pair_p()
        negated, calls = [], []
        real, real_poly = PolyMatrix.__neg__, Polynomial.__neg__
        monkeypatch.setattr(PolyMatrix, "__neg__", lambda m: negated.append(m) or real(m))
        monkeypatch.setattr(Polynomial, "__neg__", lambda p: calls.append(p) or real_poly(p))
        t = yoshino(x, y, variant)
        assert negated == [] and calls == []
        assert t.phi.table is t.psi.table and t.phi.table == x.phi.table + y.phi.table
        blocks = {}
        for m, layout in zip((t.phi, t.psi), tensor._LAYOUTS[variant]):
            for position, name in enumerate(layout):
                blocks[name] = quadrant(m, position, x.size * y.size)
        at_y, m = 2 * len(x.phi.table), y.size
        for name, factor in (("KP", y.phi), ("KS", y.psi)):
            tile = [[(q, k + at_y) for q, k in zip(js, ks)] for js, ks in zip(factor.columns, factor.indices)]
            assert blocks[name] == [[(i * m + q, k) for q, k in row] for i in range(x.size) for row in tile]
            assert blocks[f"-{name}"] == [[(j, k ^ 1) for j, k in row] for row in blocks[name]]

    @pytest.mark.parametrize("variant", YOSHINO_VARIANTS)
    def test_blocks_reuse_the_input_objects(self, variant, monkeypatch):
        """The identity Kronecker blocks hold the input pairs' entry
        objects, so a step multiplies no polynomial, and each entry of the
        result is an input object or the negation of one."""
        x, y = fixtures.pair_m(), fixtures.pair_p()
        entries = [e for mf in (x, y) for m in (mf.phi, mf.psi) for _, _, e in m.nonzeros()]
        inputs, values = {id(e) for e in entries}, set(entries)

        def never(p, q):
            raise AssertionError("a polynomial was multiplied")

        monkeypatch.setattr(Polynomial, "__mul__", never)
        t = yoshino(x, y, variant)
        result = [e for m in (t.phi, t.psi) for _, _, e in m.nonzeros()]
        assert all(id(e) in inputs or -e in values for e in result)
        assert inputs & {id(e) for e in result}

    def test_unknown_variant(self):
        with pytest.raises(ValueError):
            yoshino(fixtures.pair_m(), fixtures.pair_q(), "v4")

    @given(factorizations(max_steps=1), factorizations(max_steps=1))
    @settings(max_examples=50, deadline=None)
    def test_each_variant_is_the_paper_block_formula(self, x, y):
        """Every variant equals its block formula, built the slow way from
        kron with identities, negation and block2x2."""
        n, m = x.size, y.size
        pk, sk = kron(x.phi, identity(m)), kron(x.psi, identity(m))
        kp, ks = kron(identity(n), y.phi), kron(identity(n), y.psi)
        formulas = {
            "standard": ((pk, kp, -ks, sk), (sk, -kp, ks, pk)),
            "v1": ((kp, sk, pk, -ks), (ks, sk, pk, -kp)),
            "v2": ((sk, -ks, kp, pk), (pk, ks, -kp, sk)),
            "v3": ((-ks, pk, sk, kp), (-kp, pk, sk, ks)),
        }
        assert formulas.keys() == set(YOSHINO_VARIANTS)
        for variant, (phi_blocks, psi_blocks) in formulas.items():
            t = yoshino(x, y, variant)
            assert t.f == x.f + y.f
            assert t.phi == block2x2(*phi_blocks), variant
            assert t.psi == block2x2(*psi_blocks), variant

    @pytest.mark.parametrize("variant", YOSHINO_VARIANTS)
    def test_builds_no_kron_and_no_identity(self, variant, monkeypatch):
        def never(*args):
            raise AssertionError("kron or identity was called")

        for module, name in ((tensor, "kron"), (matrix, "kron"), (matrix, "identity")):
            monkeypatch.setattr(module, name, never)
        monkeypatch.setattr(tensor, "identity", never, raising=False)
        t = yoshino(fixtures.pair_m(), fixtures.pair_p(), variant)
        monkeypatch.undo()
        assert verify_exact(t)[0]

    @given(factorizations(max_steps=1), factorizations(max_steps=1))
    @settings(max_examples=100, deadline=None)
    def test_sum_law(self, x, y):
        t = yoshino(x, y)
        certify(t, "exact")
        assert t.f == x.f + y.f and t.size == 2 * x.size * y.size


class TestMultiplicative:
    def test_sizes_match_the_lemmas(self):
        m, p, n = fixtures.pair_m(), fixtures.pair_p(), fixtures.pair_n()
        pairs = [reduced_tensor(m, p), reduced_tensor(p, n), mult_tensor(m, p), mult_tensor(p, n)]
        for mf in pairs:
            certify(mf, "exact")
        assert [mf.size for mf in pairs] == [8, 16, 16, 32]

    def test_variant_verifies(self):
        t = mult_tensor_variant(fixtures.pair_m(), fixtures.pair_q())
        assert verify_exact(t)[0] and t.size == 4

    @given(factorizations(max_steps=1), factorizations(max_steps=1))
    @settings(max_examples=100, deadline=None)
    def test_product_law(self, x, y):
        r = reduced_tensor(x, y)
        t = mult_tensor(x, y)
        certify(r, "exact")
        certify(t, "exact")
        assert r.f == t.f == x.f * y.f
        assert t.size == 2 * r.size == 2 * x.size * y.size


class TestReducedTensorLaws:
    @given(factorizations(), factorizations(), factorizations())
    @settings(max_examples=100, deadline=None)
    def test_associativity_is_exact(self, x, y, z):
        left = reduced_tensor(reduced_tensor(x, y), z)
        right = reduced_tensor(x, reduced_tensor(y, z))
        assert left.f == right.f
        assert left.phi == right.phi and left.psi == right.psi

    @given(factorizations(), factorizations())
    @settings(max_examples=100, deadline=None)
    def test_commutativity_via_shuffle(self, x, y):
        assert shuffle_isomorphism_check(x, y)

    @given(factorizations(max_steps=1), factorizations(max_steps=1))
    @settings(max_examples=100, deadline=None)
    def test_commutativity_morphism_is_a_morphism(self, x, y):
        assert is_morphism(commutativity_morphism(x, y))

    @given(factorizations(max_steps=1), factorizations(max_steps=1), factorizations(max_steps=1))
    @settings(max_examples=100, deadline=None)
    def test_distributes_over_direct_sum(self, x, y, z):
        # both summands must factor the same polynomial; reuse x twice
        xx = direct_sum_factorizations(x, x, verify="skip")
        left = reduced_tensor(xx, y)
        right = direct_sum_factorizations(
            reduced_tensor(x, y),
            reduced_tensor(x, y),
            verify="skip",
        )
        assert left.phi == right.phi and left.psi == right.psi


class TestBifunctorLaws:
    @given(factorizations(max_steps=1), factorizations(max_steps=1))
    @settings(max_examples=100, deadline=None)
    def test_identities_are_preserved(self, x, y):
        t = tensor_morphisms(identity_morphism(x), identity_morphism(y))
        want = identity_morphism(reduced_tensor(x, y))
        assert t.alpha == want.alpha and t.beta == want.beta

    @given(
        factorizations(max_steps=1),
        factorizations(max_steps=1),
        nonzero_polynomials(),
        nonzero_polynomials(),
        nonzero_polynomials(),
        nonzero_polynomials(),
    )
    @settings(max_examples=100, deadline=None)
    def test_composition_is_preserved(self, x, y, g1, g2, h1, h2):
        # scalar morphisms compose within each argument
        a1, a2 = scalar_morphism(x, g1), scalar_morphism(x, g2)
        b1, b2 = scalar_morphism(y, h1), scalar_morphism(y, h2)
        lhs = tensor_morphisms(compose(a2, a1), compose(b2, b1))
        rhs = compose(
            tensor_morphisms(a2, b2),
            tensor_morphisms(a1, b1),
        )
        assert lhs.alpha == rhs.alpha and lhs.beta == rhs.beta

    def test_tensored_morphisms_are_morphisms(self):
        x, y = fixtures.pair_m(), fixtures.pair_q()
        t = tensor_morphisms(
            scalar_morphism(x, parse_polynomial("x + y")),
            identity_morphism(y),
        )
        assert is_morphism(t)


class TestDirectSum:
    def test_requires_same_polynomial(self):
        with pytest.raises(ValueError):
            direct_sum_factorizations(fixtures.pair_m(), fixtures.pair_q())

    def test_sizes_add(self):
        m = fixtures.pair_m()
        d = direct_sum_factorizations(m, m)
        assert d.size == 4 and d.f == m.f
        assert verify_exact(d)[0]


def test_constructions_check_nothing(monkeypatch):
    """The six constructions return their pairs unchecked: with every
    check made to raise, each still builds a pair of the expected size
    and f from its default arguments."""
    m, p, q = fixtures.pair_m(), fixtures.pair_p(), fixtures.pair_q()
    x, y, z = map(parse_polynomial, "xyz")
    summands = SummandList(((x, y), (z, z), (x, x)))

    def never(*args, **kwargs):
        raise AssertionError("a pair was checked")

    for name in ("certify", "verify_exact", "verify_randomized"):
        monkeypatch.setattr(factorization, name, never)
    built = [
        (yoshino(m, p), 16, m.f + p.f),
        (mult_tensor(m, p), 16, m.f * p.f),
        (reduced_tensor(m, p), 8, m.f * p.f),
        (standard_step(q, x, z), 2, q.f + x * z),
        (standard_factorize(summands), 4, summands.target),
        (standard_factorize_polynomial(m.f), 2, m.f),
    ]
    assert [(mf.size, mf.f) for mf, _, _ in built] == [(size, f) for _, size, f in built]
