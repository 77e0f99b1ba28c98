"""Command-line surface: factorize, verify, predict, demo.

Exit codes: 0 success, 1 demo fixture failure, 2 parse/validation
failure or unwritable output, 3 verification failure, 4 construction or
evaluation cap exceeded, or a size too long for predict to print.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import stat
import sys
from typing import Callable

from . import fixtures
from .factorization import (
    DEFAULT_SEED,
    DEFAULT_TRIALS,
    EvaluationCapError,
    MatrixFactorization,
    VerificationError,
    certify,
    verify_exact,
)
from .matrix import MatrixError
from .poly import PolyError, Polynomial, _decimal, parse_polynomial
from .refined import (
    CapExceededError,
    SizeReport,
    SummandReducedPoly,
    ValidationFailure,
    check_cap,
    predict_sizes,
    run_improved,
    run_refined,
    run_standard,
    validate_summand_reduced,
)
from .standard import STANDARD_VARIANTS, standard_factorize_polynomial
from .tensor import YOSHINO_VARIANTS, mult_tensor, reduced_tensor

EXIT_OK = 0
EXIT_DEMO_FAILURE = 1
EXIT_PARSE = 2
EXIT_VERIFY = 3
EXIT_CAP = 4

# predict prints a size 2^e in full only for e below this; a larger size
# exits EXIT_CAP, named as 2^e.  The digits of 2^e take time quadratic in
# e: 5 ms for 2^65535 and 1.1 s for 2^(10^6) on a 2-core Xeon.
PREDICT_EXPONENT_LIMIT = 65536

# What reading and parsing a malformed input can raise.  ValueError
# covers PolyError, MatrixError and JSON and UTF-8 decoding errors;
# RecursionError is json's limit on nesting depth.
_INPUT_ERRORS = (ValueError, KeyError, OSError, RecursionError)


def _read_input(path: str | None) -> str:
    if path is None or path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _write_output(path: str | None, text: str) -> None:
    """Write text, ending in a newline, to stdout ('-' or None) or to path.

    A file is overwritten in place, never truncated to zero first: it is
    opened without O_TRUNC, given the UTF-8 bytes, and then cut to their
    length.  ext4 (with its default auto_da_alloc) starts writeback of a
    file's new data when a file truncated to zero is closed, which made
    every rewrite of an existing --output file wait on the disk.  The
    bytes, the inode, an existing file's mode, the creation mode (0o666
    less the umask) and writing through a symlink are all as with
    open(path, "w").  A target that is not a regular file (/dev/null, a
    FIFO, /dev/stdout) is written and not truncated.

    The trade-off: a write interrupted part way leaves the start of the
    new text followed by the end of the old file, where open(path, "w")
    would leave a prefix of the new text.  Either file is broken.

    Raises OSError when the file cannot be opened or written.
    """
    if path is None or path == "-":
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
        return
    data = text.encode("utf-8")
    with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "wb") as fh:
        fh.write(data)
        if not data.endswith(b"\n"):
            fh.write(b"\n")
        if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
            fh.truncate()  # at the end of what was written


def _emit(path: str | None, text: str, code: int = EXIT_OK) -> int:
    """Write a command's output and return its exit code, or print one
    error line and return EXIT_PARSE when the output cannot be written."""
    try:
        _write_output(path, text)
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return EXIT_PARSE
    return code


def _is_string_list(value: object) -> bool:
    return isinstance(value, list) and all(isinstance(x, str) for x in value)


def _parse_problem(text: str) -> SummandReducedPoly:
    """JSON input must be a structured document: an object whose "terms"
    is a list of strings and whose "products" is a list of lists of
    strings.  Anything else is polynomial text, read as the terms-only
    document of its canonical monomials.  Only ASCII whitespace is
    stripped, as the parser ignores no other."""
    stripped = text.strip(" \t\n\r\f\v")
    if not stripped.startswith(("{", "[")):
        p = parse_polynomial(stripped)
        return SummandReducedPoly(tuple(Polynomial({key: c}) for key, c in p.items()), ())
    doc = json.loads(stripped)
    if not isinstance(doc, dict):
        raise PolyError("a structured document must be a JSON object")
    terms, products = doc.get("terms", []), doc.get("products", [])
    if not _is_string_list(terms):
        raise PolyError('"terms" must be a list of strings')
    if not (isinstance(products, list) and all(_is_string_list(p) for p in products)):
        raise PolyError('"products" must be a list of lists of strings')
    return SummandReducedPoly.from_strings(terms, products)


def _render_factorization(
    mf: MatrixFactorization, method: str, output_format: str, predicted: dict | None, record: dict
) -> str:
    """The factorize output: plain text, or the structured document, which
    is mf.to_dict() followed by the method, the predicted sizes and the
    verification record.

    The structured text is byte for byte json.dumps(doc): default
    separators, the same key order.  Only its "phi" and "psi" grids are
    written by joining rows (_json_grid), which is about 7x faster than
    json.dumps on a 128x128 pair.  That is exact because no entry text
    needs escaping: Polynomial.__str__ writes only ASCII letters, digits,
    '^', '*', '/', '+', '-' and spaces.  The predicted sizes are written
    through _decimal, as a size may have more digits than str() converts.
    """
    if output_format == "structured":
        doc = mf.to_dict()
        doc["method"] = method
        doc["predicted_sizes"] = predicted
        doc["verification"] = record
        write = {"phi": _json_grid, "psi": _json_grid, "predicted_sizes": _json_sizes if predicted else json.dumps}
        fields = (f"{json.dumps(key)}: {write.get(key, json.dumps)(value)}" for key, value in doc.items())
        return "{" + ", ".join(fields) + "}"
    lines = [
        f"f = {mf.f}",
        f"method = {method}",
        f"size = {mf.size}",
    ]
    if predicted:
        lines.append("predicted sizes:")
        for key, value in predicted.items():
            lines.append(f"  {key} = {_decimal(value)}")
    lines.append("phi =")
    lines.append(mf.phi.render())
    lines.append("psi =")
    lines.append(mf.psi.render())
    return "\n".join(lines)


def _json_grid(rows: list[list[str]]) -> str:
    """json.dumps(rows) for a grid of texts that need no JSON escaping,
    in nonempty rows."""
    return "[" + ", ".join('["' + '", "'.join(row) + '"]' for row in rows) + "]"


def _json_sizes(sizes: dict[str, int]) -> str:
    """json.dumps(sizes) for sizes of any number of digits."""
    return "{" + ", ".join(f"{json.dumps(key)}: {_decimal(value)}" for key, value in sizes.items()) + "}"


def _check_valid(srp: SummandReducedPoly, strict: bool) -> None:
    """Under --strict-validate, raise ValidationFailure with the report of
    a document that fails a summand-reduced condition."""
    if strict:
        report = validate_summand_reduced(srp)
        if not report.ok:
            raise ValidationFailure(str(report))


def _predict_sizes(srp: SummandReducedPoly, strict: bool) -> SizeReport:
    """predict_sizes(srp).  A document with no product group has no sizes
    and nothing to expand, so under --strict-validate it gets the report
    of every condition rather than predict_sizes' one line."""
    try:
        return predict_sizes(srp)
    except ValidationFailure:
        _check_valid(srp, strict)
        raise


def cmd_factorize(args: argparse.Namespace) -> int:
    try:
        problem = _parse_problem(_read_input(args.input))
    except _INPUT_ERRORS as exc:
        print(f"error: cannot parse input: {exc}", file=sys.stderr)
        return EXIT_PARSE

    predicted = None
    try:
        # predict_sizes refuses a document with no product group; the
        # standard method still builds its terms, under its own cap.
        if problem.l or args.method != "standard":
            report = _predict_sizes(problem, args.strict_validate)
            check_cap(args.method, getattr(report, f"{args.method}_exponent"), args.max_standard_monomials)
            predicted = report.to_dict()
        # after the cap, as in predict: condition 3 expands each product
        _check_valid(problem, args.strict_validate)
        if args.method == "refined":
            mf = run_refined(problem, args.yoshino_variant, verify="skip")
        elif args.method == "improved":
            mf = run_improved(problem, args.yoshino_variant, verify="skip")
        else:
            mf = run_standard(
                problem,
                args.standard_variant,
                max_monomials=args.max_standard_monomials,
                verify="skip",
            )
        # built unchecked, so that the one certificate is the one reported
        record = certify(mf, args.verify, args.trials, args.seed)
    except CapExceededError as exc:
        print(f"error: {exc} (raise --max-standard-monomials to allow it)", file=sys.stderr)
        return EXIT_CAP
    except EvaluationCapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP
    except ValidationFailure as exc:
        print(f"error: input is not summand-reduced:\n{exc}", file=sys.stderr)
        return EXIT_PARSE
    except VerificationError as exc:
        print(f"error: verification failed: {exc}", file=sys.stderr)
        return EXIT_VERIFY
    except PolyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE

    return _emit(args.output, _render_factorization(mf, args.method, args.format, predicted, record))


def cmd_verify(args: argparse.Namespace) -> int:
    try:
        doc = json.loads(_read_input(args.input))
        mf = MatrixFactorization.from_dict(doc)
    except _INPUT_ERRORS as exc:
        print(f"error: cannot parse factorization file: {exc}", file=sys.stderr)
        return EXIT_PARSE

    try:
        record = certify(mf, args.verify, args.trials, args.seed)
        ok, diag = True, "ok"
    except VerificationError as exc:
        ok, diag, record = False, str(exc), exc.record
    except EvaluationCapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP
    if args.format == "structured":
        text = json.dumps({"f": str(mf.f), "size": mf.size, "pass": ok, **record, "diagnostics": diag})
    else:
        text = f"{'pass' if ok else 'FAIL'}: {diag}"
    return _emit(args.output, text, EXIT_OK if ok else EXIT_VERIFY)


def cmd_predict(args: argparse.Namespace) -> int:
    try:
        problem = _parse_problem(_read_input(args.input))
        report = _predict_sizes(problem, args.strict_validate)
        # the limit comes before validation, as factorize's cap does:
        # condition 3 expands products, so it costs what the sizes say
        too_long = [f"{key} = 2^{e}" for key, e in report.exponents().items() if e >= PREDICT_EXPONENT_LIMIT]
        if too_long:
            print(f"error: sizes of 2^{PREDICT_EXPONENT_LIMIT} or more are not printed: {', '.join(too_long)}",
                  file=sys.stderr)
            return EXIT_CAP
        _check_valid(problem, args.strict_validate)
    except ValidationFailure as exc:
        print(f"error: input is not summand-reduced:\n{exc}", file=sys.stderr)
        return EXIT_PARSE
    except _INPUT_ERRORS as exc:
        print(f"error: cannot parse input: {exc}", file=sys.stderr)
        return EXIT_PARSE
    # a size may have more digits than str() converts, so each goes
    # through _decimal
    sizes = report.to_dict()
    if args.format == "structured":
        text = _json_sizes(sizes)
    else:
        text = "\n".join(f"{key} = {_decimal(value)}" for key, value in sizes.items())
    return _emit(args.output, text)


def _demo_cases() -> list[tuple[str, Callable[[], object], object]]:
    """Each row: a name, a computation, and the value the paper gives."""
    part1, part2, two_product = (
        SummandReducedPoly.from_strings(**fixtures.PAPER_DOCUMENTS[name]) for name in ("part1", "part2", "two_product")
    )
    telescoping = SummandReducedPoly.from_strings(["zx"], [["x - y", "x^4 + x^3y + x^2y^2 + xy^3 + y^4"]])

    def certified_size(mf: MatrixFactorization) -> int:
        certify(mf)
        return mf.size

    def standard_size(text: str) -> int:
        return certified_size(standard_factorize_polynomial(parse_polynomial(text)))

    def failed(srp: SummandReducedPoly) -> list[int]:
        return validate_summand_reduced(srp).failed_conditions()

    return [
        ("intro x^2+4 pair", lambda: verify_exact(fixtures.simple_quadratic())[0], True),
        ("standard method sizes (h=2, g=4)",
         lambda: (standard_size("xy + z^2"), standard_size("xy^2 + x^2z + yz^2")), (2, 4)),
        ("tensor product sizes (8, 16, 16)",
         lambda: (certified_size(reduced_tensor(fixtures.pair_m(), fixtures.pair_p())),
                  certified_size(reduced_tensor(fixtures.pair_p(), fixtures.pair_n())),
                  certified_size(mult_tensor(fixtures.pair_m(), fixtures.pair_p()))), (8, 16, 16)),
        ("part-I pipelines (16, 32, 64)",
         lambda: (run_refined(part1).size, run_improved(part1).size, run_standard(part1).size), (16, 32, 64)),
        ("part-I 16x16 fixture verifies", lambda: verify_exact(fixtures.part1_pair())[0], True),
        ("part-II refined (32) and predictions",
         lambda: (run_refined(part2).size, predict_sizes(part2).standard_size,
                  predict_sizes(part2).ratio_refined_vs_standard), (32, 512, 16)),
        ("part-II 32x32 fixture verifies", lambda: verify_exact(fixtures.part2_pair())[0], True),
        ("two-product size predictions",
         lambda: tuple(predict_sizes(two_product).to_dict()[key] for key in
                       ("standard_size", "improved_size", "refined_size", "ratio_refined_vs_improved")),
         (2**15, 2**11, 2**9, 4)),
        ("non-example validation",
         lambda: (1 in failed(SummandReducedPoly.from_strings(["x^7", "-y^5"], [])), 3 in failed(telescoping)),
         (True, True)),
    ]


def cmd_demo(args: argparse.Namespace) -> int:
    cases = _demo_cases()
    failures = 0
    lines = []
    for name, computation, want in cases:
        try:
            got = computation()
        except (VerificationError, PolyError, MatrixError) as exc:
            got = exc
        if got == want:
            lines.append(f"pass  {name}")
        else:
            failures += 1
            lines.append(f"FAIL  {name}: got {got}, expected {want}")
    lines.append(f"{len(cases) - failures}/{len(cases)} demo cases passed")
    return _emit(args.output, "\n".join(lines), EXIT_OK if failures == 0 else EXIT_DEMO_FAILURE)


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


# Each flag's argparse settings, and the flags each verb reads: a verb
# refuses any other flag (exit 2).
_FLAGS = {
    "--input": {"help": "input file ('-' or omitted: stdin)"},
    "--output": {"help": "output file (default: stdout)"},
    "--method": {"choices": ("standard", "improved", "refined"), "default": "refined"},
    "--yoshino-variant": {"choices": YOSHINO_VARIANTS, "default": "standard"},
    "--standard-variant": {"choices": STANDARD_VARIANTS, "default": "standard"},
    "--verify": {"choices": ("exact", "randomized", "auto"), "default": "auto"},
    "--trials": {"type": _positive_int, "default": DEFAULT_TRIALS},
    "--seed": {"type": int, "default": DEFAULT_SEED},
    "--format": {"choices": ("text", "structured"), "default": "text"},
    "--strict-validate": {"action": "store_true"},
    "--max-standard-monomials": {
        "type": _positive_int, "default": 13,
        "help": "construction cap N: a method whose predicted size exceeds 2^(N-1) exits 4",
    },
}
_VERBS = (
    ("factorize", cmd_factorize, "factor a polynomial or summand-reduced document", tuple(_FLAGS)),
    ("verify", cmd_verify, "check a serialized factorization",
     ("--input", "--output", "--verify", "--trials", "--seed", "--format")),
    ("predict", cmd_predict, "print the size report for a summand-reduced document",
     ("--input", "--output", "--format", "--strict-validate")),
    ("demo", cmd_demo, "run the built-in example corpus", ("--output",)),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polymf",
        description="Exact matrix factorizations of multivariate polynomials.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, handler, helptext, flags in _VERBS:
        sp = sub.add_parser(name, help=helptext)
        sp.set_defaults(handler=handler)
        for flag in flags:
            sp.add_argument(flag, **_FLAGS[flag])
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on the first call and reused by later calls in
    the process: building it costs far more than a parse."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":
    raise SystemExit(main())
