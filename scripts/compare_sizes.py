#!/usr/bin/env python3
"""Size comparison across the three pipelines on the example corpus.

For each input, prints the predicted factor sizes for the standard,
improved, and refined constructions, runs whichever pipelines fit under
the construction cap, and confirms constructed size == predicted size.
Construction-time verification is skipped by default (this is a size
census; the test suite re-verifies every construction) — pass --verify
to verify each constructed pair as well.

Usage:
    python scripts/compare_sizes.py [--max-standard-monomials N] [--verify]
"""

import argparse

from polymf import SummandReducedPoly, compare_report, fixtures

NAMES = {"part I": "part1", "part II": "part2", "two products": "two_product", "no monomial part": "no_monomial"}
CORPUS = [(name, SummandReducedPoly.from_strings(**fixtures.PAPER_DOCUMENTS[key])) for name, key in NAMES.items()]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-standard-monomials", type=int, default=13)
    parser.add_argument("--verify", action="store_true")
    args = parser.parse_args()

    header = f"{'input':<18}{'standard':>10}{'improved':>10}{'refined':>9}{'ratio':>7}  constructed"
    print(header)
    print("-" * len(header))
    for name, srp in CORPUS:
        report, constructed = compare_report(
            srp,
            methods=("refined", "improved", "standard"),
            max_monomials=args.max_standard_monomials,
            verify="auto" if args.verify else "skip",
        )
        for method, size in constructed.items():
            predicted = getattr(report, f"{method}_size")
            assert size == predicted, f"{name}/{method}: got {size}, predicted {predicted}"
        built = ", ".join(f"{k}={v}" for k, v in sorted(constructed.items()))
        print(
            f"{name:<18}{report.standard_size:>10}{report.improved_size:>10}"
            f"{report.refined_size:>9}{report.ratio_refined_vs_improved:>7}  {built}"
        )


if __name__ == "__main__":
    main()
