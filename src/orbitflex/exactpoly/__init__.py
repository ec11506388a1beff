"""Exact big-rational arithmetic and polynomial algebra.

The computational substrate for the rest of the package: sparse
multivariate polynomials over the rationals, dense univariate polynomials
with gcd and squarefree machinery, resultants of bivariate polynomials
(subresultant remainder sequences at integer points, then integer
interpolation), and integer factorization.  Everything here is exact;
nothing rounds, ever.
"""

from .intfactor import factor_integer, format_factorization, is_prime, multiply_back
from .multipoly import (
    BigRat,
    MultiPoly,
    NonHomogeneousError,
    SingularMatrixError,
    UnknownVariableError,
    VariableMismatchError,
    compose_linear,
    differentiate,
    gradient,
    hessian_determinant,
    int_matrix_det3,
    linear_substitute,
)
from .resultant import resultant
from .unipoly import UniPoly, ZeroPolynomialError, gcd, squarefree_decompose

__all__ = [
    "BigRat",
    "MultiPoly",
    "UniPoly",
    "NonHomogeneousError",
    "SingularMatrixError",
    "UnknownVariableError",
    "VariableMismatchError",
    "ZeroPolynomialError",
    "compose_linear",
    "differentiate",
    "factor_integer",
    "format_factorization",
    "gcd",
    "gradient",
    "hessian_determinant",
    "int_matrix_det3",
    "is_prime",
    "linear_substitute",
    "multiply_back",
    "resultant",
    "squarefree_decompose",
]
