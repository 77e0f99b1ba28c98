"""Exact matrix factorizations of multivariate polynomials.

Core objects: canonical polynomials over the rationals, sparse polynomial
matrices, verified matrix factorizations (phi*psi = psi*phi = f*I), the
standard method, the additive/multiplicative/reduced tensor products,
and the refined pipeline for summand-reduced polynomials.
"""

from .poly import (
    MissingVariableError,
    Monomial,
    ParseError,
    PolyError,
    Polynomial,
    parse_polynomial,
)
from .matrix import (
    MatrixError,
    PolyMatrix,
    block2x2,
    direct_sum,
    from_strings,
    identity,
    kron,
    mat_mul,
    scalar_matrix,
    zeros,
)
from .factorization import (
    DEFAULT_SEED,
    DEFAULT_TRIALS,
    EXACT_SIZE_THRESHOLD,
    EvaluationCapError,
    MatrixFactorization,
    VerificationError,
    certify,
    make_factorization,
    verify_exact,
    verify_randomized,
)
from .tensor import (
    YOSHINO_VARIANTS,
    mult_tensor,
    reduced_tensor,
    yoshino,
)
from .standard import (
    STANDARD_VARIANTS,
    SummandList,
    standard_factorize,
    standard_factorize_polynomial,
    standard_step,
)
from .refined import (
    CapExceededError,
    ProductGroup,
    SummandReducedPoly,
    ValidationFailure,
    compare_report,
    predict_sizes,
    run_improved,
    run_refined,
    run_standard,
    validate_summand_reduced,
)

__version__ = "0.1.0"

__all__ = [
    "MissingVariableError",
    "Monomial",
    "ParseError",
    "PolyError",
    "Polynomial",
    "parse_polynomial",
    "MatrixError",
    "PolyMatrix",
    "block2x2",
    "direct_sum",
    "from_strings",
    "identity",
    "kron",
    "mat_mul",
    "scalar_matrix",
    "zeros",
    "DEFAULT_SEED",
    "DEFAULT_TRIALS",
    "EXACT_SIZE_THRESHOLD",
    "EvaluationCapError",
    "MatrixFactorization",
    "VerificationError",
    "certify",
    "make_factorization",
    "verify_exact",
    "verify_randomized",
    "STANDARD_VARIANTS",
    "YOSHINO_VARIANTS",
    "mult_tensor",
    "reduced_tensor",
    "yoshino",
    "SummandList",
    "standard_factorize",
    "standard_factorize_polynomial",
    "standard_step",
    "CapExceededError",
    "ProductGroup",
    "SummandReducedPoly",
    "ValidationFailure",
    "compare_report",
    "predict_sizes",
    "run_improved",
    "run_refined",
    "run_standard",
    "validate_summand_reduced",
]
