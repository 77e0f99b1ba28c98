"""The benchmark's workloads: their inputs, operations and output checks.

A workload builds its inputs from the seed in ``setup``, together with
``jobs``, the operations of one round.  The runner repeats whole rounds,
one operation at a time (a closed loop with one client).  Every
operation has a check that runs outside the timed call.

Library functions are looked up on their module at call time
(``refined.run_refined``, not a name imported here), so that the
tracer's rebinding of those module attributes also sees these calls.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable

from polymf import cli, factorization, fixtures, refined
from polymf.factorization import EXACT_SIZE_THRESHOLD, MatrixFactorization
from polymf.poly import Polynomial, parse_polynomial
from polymf.refined import ProductGroup, SummandReducedPoly, predict_sizes

PART1 = {"terms": ["zy"], "products": [["xy^2 + x^2z + yz^2", "xy + z^2"]]}
PART2 = {"terms": ["x^5y^2"], "products": [["xy^2 + x^2z + yz^2", "x^2z + y^2 + y^2z"]]}
TWO_PRODUCT = {
    "terms": ["zy"],
    "products": [["xy^2 + x^2z + yz^2", "xy + z^2"], ["yz + xy^2 + x^2", "x^3z^2 + yx + y^2"]],
}
NO_MONOMIAL = {"terms": [], "products": [["xy + z^2", "x + y"], ["x + z", "y + z"]]}


@dataclass
class Job:
    kind: str  # "factorize", "verify" or "control"
    label: str
    run: Callable[[], Any]
    check: Callable[[Any], str | None]  # failure reason, or None
    output: Path | None = None  # file written by a CLI factorize
    rational: bool = False  # factorize input has a non-integer coefficient


def _srp(doc: dict) -> SummandReducedPoly:
    return SummandReducedPoly.from_strings(doc["terms"], doc["products"])


def _has_fraction(srp: SummandReducedPoly) -> bool:
    polys = list(srp.terms) + [f for g in srp.products for f in g.factors]
    return any(m.coeff.denominator != 1 for p in polys for m in p.terms)


class Workload:
    name = ""

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.rng = random.Random(seed)

    def setup(self) -> None:
        """Build the inputs and ``self.jobs``, the operations of one round,
        then run one untimed warm-up operation."""
        raise NotImplementedError

    def _warm_up(self, job: Job) -> None:
        problem = job.check(job.run())
        if problem:
            raise RuntimeError(f"warm-up {job.label} failed: {problem}")


class CliWorkload(Workload):
    """Documents through ``polymf.cli.main`` in-process, files in workdir."""

    def _path(self, name: str) -> Path:
        return self.workdir / name

    def _write(self, name: str, doc: dict) -> Path:
        path = self._path(name)
        path.write_text(json.dumps(doc), encoding="utf-8")
        return path

    def _factorize(self, doc_name: str, doc: dict, method: str) -> Job:
        srp = _srp(doc)
        predicted = predict_sizes(srp).to_dict()[f"{method}_size"]
        expected_f = srp.expanded_polynomial()
        src = self._path(f"{doc_name}.json")
        out = self._path(f"{doc_name}-{method}.pair.json")
        argv = ["factorize", "--input", str(src), "--output", str(out),
                "--method", method, "--format", "structured"]

        def check(code: int) -> str | None:
            if code != cli.EXIT_OK:
                return f"exit code {code}"
            got = json.loads(out.read_text(encoding="utf-8"))
            if got["size"] != predicted:
                return f"size {got['size']} != predicted {predicted}"
            if parse_polynomial(got["f"]) != expected_f:
                return "f differs from the expanded input"
            return None

        return Job("factorize", f"factorize {doc_name} {method}", lambda: cli.main(argv), check,
                   output=out, rational=_has_fraction(srp))

    def _verify(self, pair: Path, kind: str, options: list[str]) -> Job:
        want = cli.EXIT_OK if kind == "verify" else cli.EXIT_VERIFY
        argv = ["verify", "--input", str(pair), "--output", str(self._path("verify.txt")), *options]

        def check(code: int) -> str | None:
            return None if code == want else f"exit code {code}, expected {want}"

        return Job(kind, f"{kind} {pair.name}", lambda: cli.main(argv), check)

    def _control(self, mf: MatrixFactorization, name: str) -> Path:
        """Serialize mf with one phi entry changed by +1."""
        doc = mf.to_dict()
        i, j = self.rng.randrange(mf.size), self.rng.randrange(mf.size)
        doc["phi"][i][j] = str(mf.phi.entries[i][j] + Polynomial.const(1))
        return self._write(name, doc)


class PaperSmall(CliWorkload):
    name = "paper_small"
    RUNS = (
        ("part1", "refined"), ("part1", "improved"), ("part1", "standard"),
        ("part2", "refined"), ("no_monomial", "refined"), ("no_monomial", "improved"),
    )

    def setup(self) -> None:
        docs = {"part1": PART1, "part2": PART2, "no_monomial": NO_MONOMIAL}
        for name, doc in docs.items():
            self._write(f"{name}.json", doc)
        seed_opt = ["--seed", str(self.seed)]
        self.jobs: list[Job] = []
        for doc_name, method in self.RUNS:
            job = self._factorize(doc_name, docs[doc_name], method)
            self.jobs += [job, self._verify(job.output, "verify", seed_opt)]
        part1 = fixtures.part1_pair()
        for name, mf in (("fixture-part1", part1), ("fixture-part2", fixtures.part2_pair())):
            pair = self._write(f"{name}.pair.json", mf.to_dict())
            self.jobs.append(self._verify(pair, "verify", seed_opt))
        big = refined.run_improved(_srp(NO_MONOMIAL), verify="skip")
        for mf, name in ((part1, "control-16"), (big, "control-128")):
            self.jobs.append(self._verify(self._control(mf, f"{name}.pair.json"), "control", seed_opt))
        self._warm_up(self.jobs[0])


class Desk512(CliWorkload):
    name = "desk512"

    def setup(self) -> None:
        docs = {"two_product": TWO_PRODUCT, "part2": PART2}
        for name, doc in docs.items():
            self._write(f"{name}.json", doc)
        self._write("part1.json", PART1)
        verify_opts = ["--trials", "2", "--seed", str(self.seed)]
        self.jobs: list[Job] = []
        for doc_name, method in (("two_product", "refined"), ("part2", "standard")):
            job = self._factorize(doc_name, docs[doc_name], method)
            self.jobs += [job, self._verify(job.output, "verify", verify_opts)]
        big = refined.run_refined(_srp(TWO_PRODUCT), verify="skip")
        control = self._control(big, "control-512.pair.json")
        self.jobs.append(self._verify(control, "control", ["--trials", "1", "--seed", str(self.seed)]))
        # A pass costs about 100 s, so the warm-up is the same CLI path on
        # the small part I document.
        self._warm_up(self._factorize("part1", PART1, "refined"))


# -- random_small -------------------------------------------------------------

VARIABLES = "wxyz"
POOL_SIZE = 64


def _coefficient(rng: random.Random, rational: bool) -> Fraction:
    c = rng.choice((-5, -4, -3, -2, -1, 1, 2, 3, 4, 5))
    return Fraction(c, rng.choice((2, 3, 7))) if rational else Fraction(c)


def _monomials(rng: random.Random, count: int) -> tuple[tuple, ...]:
    keys: set[tuple] = set()
    while len(keys) < count:
        names = rng.sample(VARIABLES, rng.randint(1, 2))
        keys.add(tuple(sorted((v, rng.randint(1, 3)) for v in names)))
    return tuple(sorted(keys))


def random_skeleton(rng: random.Random):
    """The exponents of a document, without coefficients: s in {0,1,2};
    l in {1,2} (2 when s = 0); 1-3 factors per product with at least one
    product of 2 or more; 1-3 monomials per factor over w,x,y,z with
    exponents 1-3."""
    s = rng.randint(0, 2)
    l = 2 if s == 0 else rng.randint(1, 2)
    factor_counts = [rng.randint(1, 3) for _ in range(l)]
    if max(factor_counts) < 2:
        factor_counts[rng.randrange(l)] = rng.randint(2, 3)
    terms = tuple(_monomials(rng, 1) for _ in range(s))
    products = tuple(tuple(_monomials(rng, rng.randint(1, 3)) for _ in range(k)) for k in factor_counts)
    return terms, products


def make_document(skeleton, coefficient: Callable[[], Fraction]) -> SummandReducedPoly:
    terms, products = skeleton

    def poly(keys: tuple) -> Polynomial:
        return Polynomial({k: coefficient() for k in keys})

    return SummandReducedPoly(
        tuple(poly(keys) for keys in terms),
        tuple(ProductGroup(tuple(poly(keys) for keys in factors)) for factors in products),
    )


@dataclass
class _Document:
    srp: SummandReducedPoly
    refined_size: int
    improved_size: int
    rational: bool
    _expected: Polynomial | None = None

    def expected(self) -> Polynomial:
        if self._expected is None:
            self._expected = self.srp.expanded_polynomial()
        return self._expected


class RandomSmall(Workload):
    name = "random_small"

    def setup(self) -> None:
        # Fixed skeletons, seeded coefficients: see "seed" in spec.json.
        skeletons = random.Random(0)
        self.pool: list[_Document] = []
        while len(self.pool) < POOL_SIZE:
            skeleton = random_skeleton(skeletons)
            sizes = predict_sizes(make_document(skeleton, lambda: Fraction(1)))
            if sizes.improved_size > EXACT_SIZE_THRESHOLD:
                continue
            rational = len(self.pool) % 4 == 3
            while True:
                srp = make_document(skeleton, lambda: _coefficient(self.rng, rational))
                if _has_fraction(srp) == rational:
                    break
            self.pool.append(_Document(srp, sizes.refined_size, sizes.improved_size, rational))
        self.jobs = [job for k, doc in enumerate(self.pool) for job in self._jobs(k, doc)]
        self._warm_up(self.jobs[0])

    def _jobs(self, k: int, doc: _Document) -> list[Job]:
        state: dict[str, MatrixFactorization] = {}

        def pipeline(run: Callable, size: int, key: str) -> Job:
            def call() -> MatrixFactorization:
                mf = run(doc.srp)
                if key == "refined":
                    state[key] = mf
                return mf

            def check(mf: MatrixFactorization) -> str | None:
                if mf.size != size:
                    return f"size {mf.size} != predicted {size}"
                if mf.f != doc.expected():
                    return "f differs from the expanded input"
                return None

            return Job("factorize", f"doc {k} {key} size {size}", call, check, rational=doc.rational)

        def verify() -> tuple[bool, str]:
            if "refined" not in state:
                raise RuntimeError("no refined pair to verify")
            return factorization.verify_exact(state.pop("refined"))

        return [
            pipeline(lambda srp: refined.run_refined(srp), doc.refined_size, "refined"),
            pipeline(lambda srp: refined.run_improved(srp), doc.improved_size, "improved"),
            Job("verify", f"doc {k} verify_exact size {doc.refined_size}", verify,
                lambda result: None if result[0] else result[1]),
        ]


WORKLOADS = {w.name: w for w in (PaperSmall, RandomSmall, Desk512)}
