"""Exact integer polynomial algebra.

The computational substrate for the rest of the package: sparse
multivariate polynomials with Python integer coefficients, dense integer
univariate polynomials with gcd, squarefree and rational-root
(``rational_roots``) machinery, resultants of bivariate polynomials
(subresultant remainder sequences at integer points, then integer
interpolation), and integer factorization.
Everything here is exact; nothing rounds, ever.  A coefficient that is
not an integer raises ``TypeError``, and ``resultant`` needs a nonzero
constant top coefficient in the eliminated variable.
"""

from .elimination import prs_subresultants, resultant
from .intfactor import factor_integer, format_factorization, is_prime
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
from .unipoly import IntPoly, ZeroPolynomialError, gcd, rational_roots, squarefree_decompose

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
    "prs_subresultants",
    "rational_roots",
    "resultant",
    "squarefree_decompose",
]
