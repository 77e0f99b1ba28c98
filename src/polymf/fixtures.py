"""Small hand-checked factorizations, and the paper's example documents,
used by the demo, the scripts and the tests.

Each fixture is a function that verifies the pair it returns exactly,
so every call re-proves the identity.  The leaves read their pairs from
literal entries, as `MatrixFactorization.from_dict` reads a document
(both factors over one table).
The two composite pairs assemble the building blocks exactly the way the
refined pipeline does: reduced multiplicative tensor inside the product,
one additive tensor step for the monomial part.  The constructions
return unchecked pairs, so the composites are verified like the leaves.
"""

from __future__ import annotations

from .factorization import MatrixFactorization, certify
from .tensor import reduced_tensor, yoshino

# The paper's summand-reduced examples as {"terms", "products"} documents:
# part I (refined size 16), part II (32), the two-product example (2^9),
# and a document with no monomial part.
PAPER_DOCUMENTS = {
    "part1": {"terms": ["zy"], "products": [["xy^2 + x^2z + yz^2", "xy + z^2"]]},
    "part2": {"terms": ["x^5y^2"], "products": [["xy^2 + x^2z + yz^2", "x^2z + y^2 + y^2z"]]},
    "two_product": {
        "terms": ["zy"],
        "products": [["xy^2 + x^2z + yz^2", "xy + z^2"], ["yz + xy^2 + x^2", "x^3z^2 + yx + y^2"]],
    },
    "no_monomial": {"terms": [], "products": [["xy + z^2", "x + y"], ["x + z", "y + z"]]},
}


def _exact(mf: MatrixFactorization) -> MatrixFactorization:
    """mf, once the exact check has passed it."""
    certify(mf, "exact")
    return mf


def _mf(f: str, phi: list[list[str]], psi: list[list[str]]) -> MatrixFactorization:
    return _exact(MatrixFactorization.from_dict({"f": f, "phi": phi, "psi": psi}))


def simple_quadratic() -> MatrixFactorization:
    """2x2 factorization of x^2 + 4."""
    return _mf("x^2 + 4", [["x", "-2"], ["2", "x"]], [["x", "2"], ["-2", "x"]])


def pair_m() -> MatrixFactorization:
    """2x2 factorization of xy + z^2."""
    return _mf(
        "xy + z^2",
        [["x", "-z"], ["z", "y"]],
        [["y", "z"], ["-z", "x"]],
    )


def pair_p() -> MatrixFactorization:
    """4x4 factorization of xy^2 + x^2z + yz^2."""
    return _mf(
        "xy^2 + x^2z + yz^2",
        [
            ["x", "-x^2", "-y", "0"],
            ["z", "y^2", "0", "-y"],
            ["z^2", "0", "y^2", "x^2"],
            ["0", "z^2", "-z", "x"],
        ],
        [
            ["y^2", "x^2", "y", "0"],
            ["-z", "x", "0", "y"],
            ["-z^2", "0", "x", "-x^2"],
            ["0", "-z^2", "z", "y^2"],
        ],
    )


def pair_n() -> MatrixFactorization:
    """4x4 factorization of x^2z + y^2 + y^2z."""
    return _mf(
        "x^2z + y^2 + y^2z",
        [
            ["x^2", "-y", "-y^2", "0"],
            ["y", "z", "0", "-y^2"],
            ["z", "0", "z", "y"],
            ["0", "z", "-y", "x^2"],
        ],
        [
            ["z", "y", "y^2", "0"],
            ["-y", "x^2", "0", "y^2"],
            ["-z", "0", "x^2", "-y"],
            ["0", "-z", "y", "z"],
        ],
    )


def pair_y() -> MatrixFactorization:
    """2x2 factorization of xy + xz^2 + yz^2."""
    return _mf(
        "xy + xz^2 + yz^2",
        [["z^2", "y"], ["x", "-x - y"]],
        [["x + y", "y"], ["x", "-z^2"]],
    )


def pair_q() -> MatrixFactorization:
    """1x1 factorization of yz."""
    return _mf("yz", [["z"]], [["y"]])


def pair_l() -> MatrixFactorization:
    """1x1 factorization of x^5y^2."""
    return _mf("x^5y^2", [["x^5"]], [["y^2"]])


def part1_pair() -> MatrixFactorization:
    """16x16 factorization of yz + (xy^2 + x^2z + yz^2)(xy + z^2).

    Built as Q additively tensored with the reduced product of P and M.
    """
    return _exact(yoshino(pair_q(), reduced_tensor(pair_p(), pair_m())))


def part2_pair() -> MatrixFactorization:
    """32x32 factorization of x^5y^2 + (xy^2 + x^2z + yz^2)(x^2z + y^2 + y^2z).

    Built as L additively tensored with the reduced product of P and N.
    """
    return _exact(yoshino(pair_l(), reduced_tensor(pair_p(), pair_n())))
