"""Exact integer and rational polynomial algebra.

The computational substrate for the rest of the package: sparse
multivariate polynomials whose coefficients are Python integers when
integral and ``Fraction``s only otherwise, dense integer univariate
polynomials with gcd and squarefree machinery, resultants of bivariate
polynomials (subresultant remainder sequences at integer points, then
integer interpolation), and integer factorization.  Everything here is
exact; nothing rounds, ever.  The curve kernels take integer coefficients
only, and ``resultant`` a nonzero constant top coefficient in the
eliminated variable; other input raises.
"""

from .intfactor import factor_integer, format_factorization, is_prime, multiply_back
from .multipoly import (
    MultiPoly,
    NonHomogeneousError,
    SingularMatrixError,
    UnknownVariableError,
    VariableMismatchError,
    det3,
    gradient,
    hessian_determinant,
    linear_substitute,
)
from .resultant import resultant
from .unipoly import IntPoly, ZeroPolynomialError, gcd, squarefree_decompose

__all__ = [
    "IntPoly",
    "MultiPoly",
    "NonHomogeneousError",
    "SingularMatrixError",
    "UnknownVariableError",
    "VariableMismatchError",
    "ZeroPolynomialError",
    "det3",
    "factor_integer",
    "format_factorization",
    "gcd",
    "gradient",
    "hessian_determinant",
    "is_prime",
    "linear_substitute",
    "multiply_back",
    "resultant",
    "squarefree_decompose",
]
