"""Acceptance gate: the nine headline criteria, each timed and reported.

Every check is exact (zero tolerance); each test prints a single
PASS/FAIL line on the live terminal so a `pytest -v` run doubles as the
acceptance report.
"""

import json
import random
import time
from fractions import Fraction

from polymf import (
    PolyMatrix,
    Polynomial,
    SummandReducedPoly,
    certify,
    direct_sum,
    kron,
    make_factorization,
    mat_mul,
    mult_tensor,
    parse_polynomial,
    predict_sizes,
    reduced_tensor,
    run_improved,
    run_refined,
    run_standard,
    validate_summand_reduced,
    verify_exact,
    verify_randomized,
    yoshino,
)
from polymf import fixtures
from polymf.cli import main as cli_main
from polymf.standard import standard_step

from conftest import paper_srp
from laws import compose, identity_morphism, is_morphism, scalar_morphism, shuffle_isomorphism_check, tensor_morphisms

PART1, PART2, TWO_PRODUCT = map(paper_srp, ("part1", "part2", "two_product"))


def report(capsys, number, description, budget_s, body):
    start = time.perf_counter()
    try:
        body()
        elapsed = time.perf_counter() - start
        assert elapsed < budget_s, f"took {elapsed:.3f}s, budget {budget_s}s"
    except BaseException:
        with capsys.disabled():
            print(f"FAIL criterion {number}: {description}")
        raise
    with capsys.disabled():
        print(f"PASS criterion {number}: {description} ({elapsed:.3f}s)")


def test_criterion_1_intro_pair(capsys):
    mf = fixtures.simple_quadratic()  # warm construction outside the timer

    def body():
        ok, _ = verify_exact(mf)
        assert ok

    report(capsys, 1, "x^2+4 pair verifies exactly in under 1 ms", 0.001, body)


def test_criterion_2_standard_method_sizes(capsys):
    def body():
        h = parse_polynomial("xy + z^2")
        g = parse_polynomial("xy^2 + x^2z + yz^2")
        mh = run_standard(SummandReducedPoly.from_strings([], [[str(h)]]))
        mg = run_standard(SummandReducedPoly.from_strings([], [[str(g)]]))
        mf = run_standard(PART1)
        assert (mh.size, mg.size, mf.size) == (2, 4, 64)
        for m in (mh, mg, mf):
            assert verify_exact(m)[0]
        assert mf.f == PART1.expanded_polynomial()

    report(capsys, 2, "standard method sizes 2 / 4 / 64, all exact", 5.0, body)


def test_criterion_3_tensor_sizes(capsys):
    def body():
        m, p, n = fixtures.pair_m(), fixtures.pair_p(), fixtures.pair_n()
        pairs = [reduced_tensor(m, p), reduced_tensor(p, n), mult_tensor(m, p), mult_tensor(p, n)]
        for mf in pairs:
            certify(mf, "exact")
        assert [mf.size for mf in pairs] == [8, 16, 16, 32]

    report(capsys, 3, "reduced tensor sizes 8/16, multiplicative 16/32", 5.0, body)


def test_criterion_4_refined_part1(capsys, tmp_path):
    def body():
        r = run_refined(PART1, verify="exact")
        i = run_improved(PART1, verify="exact")
        s = run_standard(PART1, verify="exact")
        assert (r.size, i.size, s.size) == (16, 32, 64)
        assert r.f == i.f == s.f == PART1.expanded_polynomial()
        path = tmp_path / "part1_fixture.json"
        path.write_text(json.dumps(fixtures.part1_pair().to_dict()))
        assert cli_main(["verify", "--input", str(path), "--verify", "exact"]) == 0

    report(capsys, 4, "part-I pipelines give 16/32/64; 16x16 fixture verifies", 10.0, body)


def test_criterion_5_refined_part2(capsys, tmp_path):
    def body():
        mf = run_refined(PART2, verify="exact")
        assert mf.size == 32
        assert mf.f == PART2.expanded_polynomial()
        sizes = predict_sizes(PART2)
        assert sizes.standard_size == 512
        assert sizes.ratio_refined_vs_standard == 16
        path = tmp_path / "part2_fixture.json"
        path.write_text(json.dumps(fixtures.part2_pair().to_dict()))
        assert cli_main(["verify", "--input", str(path), "--verify", "exact"]) == 0

    report(capsys, 5, "part-II refined 32, predictions 512 and ratio 16", 30.0, body)


def test_criterion_6_size_formulas(capsys):
    def body():
        s = predict_sizes(TWO_PRODUCT)
        assert s.standard_size == 2**15
        assert s.improved_size == 2**11
        assert s.refined_size == 2**9
        assert s.ratio_refined_vs_improved == 4

    report(capsys, 6, "two-product predictions 2^15 / 2^11 / 2^9, ratio 4", 0.001, body)


def test_criterion_7_desk_scale_construction(capsys):
    def body():
        mf = run_standard(PART2, verify="skip")
        assert mf.size == 512
        assert verify_randomized(mf, trials=5, seed=0)

    report(capsys, 7, "512x512 construction + 5 randomized trials", 60.0, body)


def _random_monomial(rng):
    names = rng.sample(("x", "y", "z"), rng.randint(0, 2))
    exps = tuple(sorted((v, rng.randint(1, 2)) for v in names))
    coeff = Fraction(rng.choice([c for c in range(-3, 4) if c]))
    return Polynomial({exps: coeff})


def _random_poly(rng, max_terms=2):
    while True:
        p = sum(
            (_random_monomial(rng) for _ in range(rng.randint(1, max_terms))), Polynomial.zero()
        )
        if not p.is_zero():
            return p


def _random_mf(rng, max_size=4):
    g, h = _random_poly(rng), _random_poly(rng)
    mf = make_factorization(
        g * h, PolyMatrix([[g]]), PolyMatrix([[h]]), verify="skip"
    )
    for _ in range(rng.randint(0, 2) if max_size >= 4 else 0):
        mf = standard_step(mf, _random_poly(rng, 1), _random_poly(rng, 1))
    return mf


def _random_matrix(rng, n=2):
    return PolyMatrix([[_random_poly(rng, 1) for _ in range(n)] for _ in range(n)])


def test_criterion_8_property_suites(capsys):
    CASES = 100

    def body():
        rng = random.Random(2024)
        for _ in range(CASES):  # reduced-tensor associativity, exact
            x, y, z = _random_mf(rng), _random_mf(rng), _random_mf(rng)
            left = reduced_tensor(reduced_tensor(x, y), z)
            right = reduced_tensor(x, reduced_tensor(y, z))
            assert left.phi == right.phi and left.psi == right.psi and left.f == right.f
        for _ in range(CASES):  # shuffle-conjugation commutativity
            assert shuffle_isomorphism_check(_random_mf(rng), _random_mf(rng))
        for _ in range(CASES):  # kron distributes over block-diagonal sums
            a, b, c = (_random_matrix(rng) for _ in range(3))
            assert kron(direct_sum(a, b), c) == direct_sum(kron(a, c), kron(b, c))
        for _ in range(CASES):  # bifunctor identity and composition laws
            x, y = _random_mf(rng, 2), _random_mf(rng, 2)
            t = tensor_morphisms(identity_morphism(x), identity_morphism(y))
            assert t.alpha == identity_morphism(reduced_tensor(x, y)).alpha
            a1, a2 = scalar_morphism(x, _random_poly(rng)), scalar_morphism(x, _random_poly(rng))
            b1, b2 = scalar_morphism(y, _random_poly(rng)), scalar_morphism(y, _random_poly(rng))
            lhs = tensor_morphisms(compose(a2, a1), compose(b2, b1))
            rhs = compose(
                tensor_morphisms(a2, b2),
                tensor_morphisms(a1, b1),
            )
            assert lhs.alpha == rhs.alpha and lhs.beta == rhs.beta
            assert is_morphism(lhs)
        for _ in range(CASES):  # kron mixed-product property
            a, b, c, d = (_random_matrix(rng) for _ in range(4))
            assert mat_mul(kron(a, b), kron(c, d)) == kron(mat_mul(a, c), mat_mul(b, d))
        for _ in range(CASES):  # standard_step soundness
            mf = _random_mf(rng, 2)
            g, h = _random_poly(rng), _random_poly(rng)
            stepped = standard_step(mf, g, h)
            assert verify_exact(stepped)[0] and stepped.f == mf.f + g * h
        for _ in range(CASES):  # size laws 2nm / 2nm / nm
            x, y = _random_mf(rng, 2), _random_mf(rng, 2)
            n, m = x.size, y.size
            assert yoshino(x, y).size == 2 * n * m
            assert mult_tensor(x, y).size == 2 * n * m
            assert reduced_tensor(x, y).size == n * m

    report(capsys, 8, "seven property suites, 100 cases each, zero failures", 60.0, body)


def test_criterion_9_non_examples(capsys):
    def body():
        not_reducible = SummandReducedPoly.from_strings(["x^7", "-y^5"], [])
        assert 1 in validate_summand_reduced(not_reducible).failed_conditions()
        telescoping = SummandReducedPoly.from_strings(
            ["zx"], [["x - y", "x^4 + x^3y + x^2y^2 + xy^3 + y^4"]]
        )
        assert 3 in validate_summand_reduced(telescoping).failed_conditions()

    report(capsys, 9, "paper's non-examples fail conditions 1 and 3", 1.0, body)
