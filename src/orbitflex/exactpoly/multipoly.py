"""Sparse multivariate polynomials with integer coefficients.

A polynomial is a map from exponent vectors to nonzero coefficients:

    x^2*y - 3*z  over ("x", "y", "z")  ->  {(2, 1, 0): 1, (0, 0, 1): -3}

Every coefficient is a Python ``int``; any other coefficient type raises
``TypeError`` (a ``bool`` or other ``int`` subclass is stored as a plain
``int``).  The public constructor checks every term; the results of this
module's own arithmetic are built from terms it made itself and are not
checked again.  Every operation is exact; there is no floating-point mode.
Instances are immutable: all arithmetic returns new objects, and values
can be shared freely across threads, copied and pickled.  Sums,
negations, powers and coerced constants keep the class of ``self``, so a
subclass that only changes construction and products inherits the rest
of the ring operations.

Terms are kept in no particular order internally; printing and iteration
use graded-lexicographic order (total degree first, then lexicographic on
the exponent vector), which is also the canonical text form understood by
the expression parser.

The two products the curve pipeline takes of ternary integer forms, the
Hessian determinant and the linear change of coordinates, are single
computations on big integers into which the forms are packed (Kronecker
substitution).
"""

from __future__ import annotations

from itertools import accumulate
from operator import add, mul
from typing import Iterator, Mapping, Sequence

from .unipoly import _pack, _unpack

Exponent = tuple[int, ...]


class VariableMismatchError(ValueError):
    """Operands live over different variable lists."""


class UnknownVariableError(ValueError):
    """A named variable is not part of the polynomial's variable list."""


class NonHomogeneousError(ValueError):
    """An operation required a homogeneous form and the input is not one."""


class SingularMatrixError(ValueError):
    """A linear substitution matrix is not invertible over the rationals."""


def _distinct(variables: Sequence[str]) -> tuple[str, ...]:
    vs = tuple(variables)
    if len(set(vs)) != len(vs):
        raise ValueError(f"duplicate variable names in {vs}")
    return vs


def grlex_key(exps: Exponent) -> tuple[int, Exponent]:
    """Sort key for graded-lexicographic order (ascending)."""
    return (sum(exps), exps)


class MultiPoly:
    """Immutable sparse multivariate polynomial over the integers."""

    __slots__ = ("variables", "_terms", "_hash")

    def __init__(self, variables: Sequence[str], terms: Mapping[Exponent, int]):
        vs = _distinct(variables)
        nvars = len(vs)
        clean: dict[Exponent, int] = {}
        for exps, c in terms.items():
            e = tuple(exps)
            if len(e) != nvars:
                raise ValueError(f"exponent vector {e} does not match variables {vs}")
            if any(k < 0 for k in e):
                raise ValueError(f"negative exponent in {e}")
            if type(c) is not int:
                if not isinstance(c, int):
                    raise TypeError(f"expected an integer coefficient, got {type(c).__name__}")
                c = int(c)  # bool and other int subclasses
            if c:
                clean[e] = clean.get(e, 0) + c
        object.__setattr__(self, "variables", vs)
        object.__setattr__(self, "_terms", {e: c for e, c in clean.items() if c})
        object.__setattr__(self, "_hash", None)

    @classmethod
    def _from_terms(cls, variables: tuple[str, ...], terms: dict[Exponent, int]) -> "MultiPoly":
        """From a term map built inside ``exactpoly``, whose entries are valid:
        only zero coefficients are dropped.  A subclass keeps its constructor."""
        if cls is not MultiPoly:
            return cls(variables, terms)
        p = object.__new__(cls)
        object.__setattr__(p, "variables", variables)
        object.__setattr__(p, "_terms", {e: c for e, c in terms.items() if c})
        object.__setattr__(p, "_hash", None)
        return p

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("MultiPoly is immutable")

    def __reduce__(self):  # for copy and pickle, which cannot set attributes
        return type(self)._from_terms, (self.variables, self._terms)

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------

    @classmethod
    def zero(cls, variables: Sequence[str]) -> "MultiPoly":
        return cls(variables, {})

    @classmethod
    def const(cls, variables: Sequence[str], value: int) -> "MultiPoly":
        vs = _distinct(variables)
        terms = {(0,) * len(vs): value}
        return cls._from_terms(vs, terms) if type(value) is int else cls(vs, terms)

    @classmethod
    def var(cls, variables: Sequence[str], name: str) -> "MultiPoly":
        vs = _distinct(variables)
        if name not in vs:
            raise UnknownVariableError(f"variable {name!r} not among {vs}")
        exps = tuple(1 if v == name else 0 for v in vs)
        return cls._from_terms(vs, {exps: 1})

    @classmethod
    def monomial(
        cls, variables: Sequence[str], exps: Exponent, coeff: int = 1
    ) -> "MultiPoly":
        return cls(variables, {tuple(exps): coeff})

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------

    @property
    def terms(self) -> dict[Exponent, int]:
        """Copy of the term map (exponent vector -> nonzero coefficient)."""
        return dict(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __len__(self) -> int:
        return len(self._terms)

    def coefficient(self, exps: Exponent) -> int:
        return self._terms.get(tuple(exps), 0)

    def total_degree(self) -> int | None:
        """Total degree, or None for the zero polynomial."""
        if not self._terms:
            return None
        return max(sum(e) for e in self._terms)

    def degree_in(self, var: str) -> int | None:
        """Degree in one variable, or None for the zero polynomial."""
        i = self._var_index(var)
        if not self._terms:
            return None
        return max(e[i] for e in self._terms)

    def is_homogeneous(self) -> bool:
        degs = {sum(e) for e in self._terms}
        return len(degs) <= 1

    def homogeneous_degree(self) -> int:
        """Common total degree of all terms; raises on 0 or mixed degrees."""
        degs = {sum(e) for e in self._terms}
        if len(degs) != 1:
            raise NonHomogeneousError(
                "zero polynomial has no homogeneous degree"
                if not degs
                else f"mixed term degrees {sorted(degs)}"
            )
        return degs.pop()

    def _var_index(self, var: str) -> int:
        try:
            return self.variables.index(var)
        except ValueError:
            raise UnknownVariableError(
                f"variable {var!r} not among {self.variables}"
            ) from None

    def _check_same_vars(self, other: "MultiPoly") -> None:
        if self.variables != other.variables:
            raise VariableMismatchError(
                f"operands over {self.variables} and {other.variables}"
            )

    # ------------------------------------------------------------------
    # Ring operations
    # ------------------------------------------------------------------

    def _coerce(self, other: object) -> "MultiPoly | None":
        if isinstance(other, MultiPoly):
            self._check_same_vars(other)
            return other
        if isinstance(other, int):
            return type(self).const(self.variables, other)
        return None

    def __add__(self, other: object) -> "MultiPoly":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        out = dict(self._terms)
        for e, c in o._terms.items():
            out[e] = out.get(e, 0) + c
        return type(self)._from_terms(self.variables, out)

    __radd__ = __add__

    def __neg__(self) -> "MultiPoly":
        return type(self)._from_terms(self.variables, {e: -c for e, c in self._terms.items()})

    def __sub__(self, other: object) -> "MultiPoly":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other: object) -> "MultiPoly":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other: object) -> "MultiPoly":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if not self._terms or not o._terms:
            return MultiPoly.zero(self.variables)
        out: dict[Exponent, int] = {}
        for ea, ca in self._terms.items():
            for eb, cb in o._terms.items():
                e = tuple(map(add, ea, eb))
                out[e] = out.get(e, 0) + ca * cb
        return MultiPoly._from_terms(self.variables, out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "MultiPoly":
        if not isinstance(n, int) or n < 0:
            raise ValueError(f"exponent must be a nonnegative integer, got {n!r}")
        result = type(self).const(self.variables, 1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def __eq__(self, other: object) -> bool:
        if isinstance(other, int):
            other = MultiPoly.const(self.variables, other)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self.variables == other.variables and self._terms == other._terms

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash((self.variables, frozenset(self._terms.items())))
            object.__setattr__(self, "_hash", h)
        return h

    # ------------------------------------------------------------------
    # Calculus and restriction
    # ------------------------------------------------------------------

    def diff(self, var: str) -> "MultiPoly":
        """Formal partial derivative with respect to one variable."""
        i = self._var_index(var)
        out: dict[Exponent, int] = {}
        for e, c in self._terms.items():
            if e[i] == 0:
                continue
            d = list(e)
            d[i] -= 1
            out[tuple(d)] = c * e[i]
        return MultiPoly._from_terms(self.variables, out)

    def evaluate(self, values: Sequence[int]) -> int:
        """Evaluate at an integer point, one value per variable."""
        vals = list(values)
        if any(not isinstance(v, int) for v in vals):
            raise TypeError(f"expected integer values, got {vals}")
        if len(vals) != len(self.variables):
            raise ValueError(
                f"expected {len(self.variables)} values, got {len(vals)}"
            )
        total = 0
        for e, c in self._terms.items():
            term = c
            for v, k in zip(vals, e):
                if k:
                    term *= v**k
            total += term
        return total

    def dehomogenize(self, var: str) -> "MultiPoly":
        """Set one variable to 1, dropping it from the variable list."""
        i = self._var_index(var)
        rest = self.variables[:i] + self.variables[i + 1 :]
        out: dict[Exponent, int] = {}
        for e, c in self._terms.items():
            r = e[:i] + e[i + 1 :]
            out[r] = out.get(r, 0) + c
        return MultiPoly._from_terms(rest, out)

    def coefficients_in(self, var: str) -> "list[MultiPoly]":
        """Dense coefficient list in one variable, lowest power first.

        Entry ``i`` is the coefficient of ``var**i`` as a polynomial over
        the remaining variables.  Empty list for the zero polynomial.
        """
        i = self._var_index(var)
        rest = self.variables[:i] + self.variables[i + 1 :]
        if not self._terms:
            return []
        top = max(e[i] for e in self._terms)
        buckets: list[dict[Exponent, int]] = [{} for _ in range(top + 1)]
        for e, c in self._terms.items():
            r = e[:i] + e[i + 1 :]
            buckets[e[i]][r] = buckets[e[i]].get(r, 0) + c
        return [MultiPoly._from_terms(rest, b) for b in buckets]

    # ------------------------------------------------------------------
    # Printing
    # ------------------------------------------------------------------

    def sorted_terms(self) -> Iterator[tuple[Exponent, int]]:
        """Terms in descending graded-lexicographic order."""
        for e in sorted(self._terms, key=grlex_key, reverse=True):
            yield e, self._terms[e]

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        parts: list[str] = []
        for e, c in self.sorted_terms():
            mono = "*".join(
                v if k == 1 else f"{v}^{k}"
                for v, k in zip(self.variables, e)
                if k > 0
            )
            mag = abs(c)
            if not mono:
                body = str(mag)
            elif mag == 1:
                body = mono
            else:
                body = f"{mag}*{mono}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"MultiPoly({self.variables!r}, {self!s})"


# ----------------------------------------------------------------------
# Free functions on polynomials
# ----------------------------------------------------------------------


def gradient(p: MultiPoly) -> list[MultiPoly]:
    return [p.diff(v) for v in p.variables]


def det3(m: Sequence[Sequence[MultiPoly]]) -> MultiPoly:
    """Determinant of a 3x3 polynomial matrix by cofactor expansion."""
    a, b, c = m[0]
    d, e, f = m[1]
    g, h, i = m[2]
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


def _unpack_form(
    packed: int, b: int, width: int, degree: int, variables: tuple[str, ...]
) -> MultiPoly:
    """The ternary form of the given degree whose coefficient of
    x**i * y**j * z**(degree-i-j) is the balanced base-2**b digit of
    ``packed`` at slot i*width + j, each digit below 2**(b-1) in absolute
    value; a negative ``packed`` holds the negated form."""
    sign = -1 if packed < 0 else 1
    out = {}
    for slot, c in enumerate(_unpack(abs(packed), b)):
        if c:
            i, j = divmod(slot, width)
            out[i, j, degree - i - j] = c * sign
    return MultiPoly._from_terms(variables, out)


def hessian_determinant(form: MultiPoly) -> MultiPoly:
    """Determinant of the matrix of second partials of a ternary form.

    The input must be homogeneous of degree >= 2 in exactly three
    variables; the result is homogeneous of degree 3*(d - 2), or zero when
    the second-derivative matrix is everywhere rank-deficient.

    The determinant is taken on packed integers (Kronecker substitution).
    A second partial, of degree e = d - 2, packs its terms c*x**i*y**j*z**k
    as c * 2**(b * (i*(3e+1) + j)), so the determinant's monomials get
    distinct slots.  Its coefficients are at most 6*M**3 in absolute value,
    M the largest 1-norm of a second partial, so with 2**(b-1) > 6*M**3
    the balanced base-2**b digits of the packed cofactor determinant are
    its coefficients (``_unpack_form``).
    """
    if len(form.variables) != 3:
        raise ValueError(f"expected a ternary form, got variables {form.variables}")
    d = form.homogeneous_degree()
    if d < 2:
        raise ValueError(f"form degree must be at least 2, got {d}")
    vs = form.variables
    firsts = [form.diff(v) for v in vs]
    seconds = {(r, c): firsts[r].diff(vs[c]) for r in range(3) for c in range(r, 3)}
    norm = max(sum(map(abs, p._terms.values())) for p in seconds.values())
    b = (6 * norm**3).bit_length() + 1
    e = d - 2
    width = 3 * e + 1
    packed = {}
    for rc, p in seconds.items():
        dense = [0] * (e * width + 1)
        for (i, j, _), c in p._terms.items():
            dense[i * width + j] = c
        packed[rc] = _pack(dense, b)
    det = det3([[packed[min(r, c), max(r, c)] for c in range(3)] for r in range(3)])
    return _unpack_form(det, b, width, 3 * e, vs)


def linear_substitute(p: MultiPoly, matrix: Sequence[Sequence[int]]) -> MultiPoly:
    """Compose a ternary form with an invertible linear change.

    ``matrix`` is a 3x3 integer matrix M; the result is p(M @ (x, y, z)),
    i.e. each variable is replaced by the corresponding row combination.
    The input must be homogeneous; zero maps to zero.

    The composition is one sum on packed integers (Kronecker substitution),
    like ``hessian_determinant``.  At z = 1 the result, of degree d, has
    terms x**i * y**j with i + j <= d; with w = d + 1 each has its own
    slot i*w + j, so row r packs as
    L_r = m_r0 * 2**(b*w) + m_r1 * 2**b + m_r2, and the sum of
    c * L_0**i * L_1**j * L_2**k over the terms of p is the result at
    x = 2**(b*w), y = 2**b.  The 1-norm is subadditive and submultiplicative,
    so no coefficient of the result exceeds sum |c| * n_0**i * n_1**j * n_2**k,
    n_r the 1-norm of row r; with 2**(b-1) above that bound the balanced
    base-2**b digits of the sum are the coefficients (``_unpack_form``).
    """
    if len(p.variables) != 3:
        raise ValueError(f"expected three variables, got {p.variables}")
    rows = [list(r) for r in matrix]
    if len(rows) != 3 or any(len(r) != 3 for r in rows):
        raise ValueError("matrix must be 3x3")
    if det3(rows) == 0:
        raise SingularMatrixError("substitution matrix has determinant 0")
    if not p._terms:
        return p
    d = p.homogeneous_degree()
    n0, n1, n2 = (sum(map(abs, r)) for r in rows)
    bound = sum(abs(c) * n0**i * n1**j * n2**k for (i, j, k), c in p._terms.items())
    b = bound.bit_length() + 1
    images = [(m0 << (b * (d + 1))) + (m1 << b) + m2 for m0, m1, m2 in rows]
    x, y, z = (list(accumulate([im] * d, mul, initial=1)) for im in images)
    packed = sum(c * x[i] * y[j] * z[k] for (i, j, k), c in p._terms.items())
    return _unpack_form(packed, b, d + 1, d, p.variables)
