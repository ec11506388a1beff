"""The value types of a flex computation and its errors, apart from the
curve pipeline: the closed formulas and the command line load this module
without ``flexlab``, which re-exports all of it."""

from __future__ import annotations

from typing import TYPE_CHECKING, Mapping, NamedTuple

if TYPE_CHECKING:
    from .exactpoly import MultiPoly


class SingularCurveError(Exception):
    """The form defines a singular curve.

    ``witness`` is a projective point killing all three partials, as a
    primitive integer triple, when one with rational coordinates was
    found, else None.  The message shows it as a triple of ``Fraction``s.
    """

    def __init__(self, message: str, witness: tuple[int, int, int] | None = None):
        if witness is not None:
            from fractions import Fraction  # only a witness needs it

            message = f"{message}; witness {tuple(map(Fraction, witness))}"
        super().__init__(message)
        self.witness = witness


class GenericityFailureError(RuntimeError):
    """No generic coordinate change was found within the retry budget."""


class InconsistentProfileError(ValueError):
    """A flex profile fails the weighted-count constraint for its degree."""


class PlaneCurve(NamedTuple):
    """A homogeneous ternary form certified smooth by ``check_smooth``."""

    form: MultiPoly
    degree: int


class FlexProfile:
    """Multiset {flex order r >= 1 -> count over the algebraic closure}."""

    __slots__ = ("degree", "_counts")

    def __init__(self, degree: int, counts: Mapping[int, int]):
        if type(degree) is not int:
            raise InconsistentProfileError(f"degree must be an integer, got {degree!r}")
        clean = {r: n for r, n in counts.items() if n != 0}
        for r, n in clean.items():
            if type(r) is not int or type(n) is not int or r < 1 or n < 0:
                raise InconsistentProfileError(f"invalid profile entry {r!r}: {n!r}")
            if r > degree - 2:
                raise InconsistentProfileError(
                    f"flex order {r} exceeds d-2 = {degree - 2} (a line meets the"
                    " curve with multiplicity at most d)"
                )
        weighted = sum(r * n for r, n in clean.items())
        if weighted != 3 * degree * (degree - 2):
            raise InconsistentProfileError(
                f"weighted flex count {weighted} != 3d(d-2) = {3*degree*(degree-2)}"
            )
        self.degree = degree
        self._counts = dict(sorted(clean.items()))

    @property
    def counts(self) -> dict[int, int]:
        return dict(self._counts)

    def count(self, order: int) -> int:
        return self._counts.get(order, 0)

    def items(self) -> list[tuple[int, int]]:
        return list(self._counts.items())

    def weighted_total(self) -> int:
        return sum(r * n for r, n in self._counts.items())

    def flexes_of_order_above(self, threshold: int) -> int:
        """Number of flexes with order strictly greater than ``threshold``."""
        return sum(n for r, n in self._counts.items() if r > threshold)

    def power_sum(self, power: int) -> int:
        """Sum of (flex order)**power over all flexes."""
        return sum(n * r**power for r, n in self._counts.items())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FlexProfile):
            return NotImplemented
        return self.degree == other.degree and self._counts == other._counts

    def __hash__(self) -> int:
        return hash((self.degree, tuple(self._counts.items())))

    def __repr__(self) -> str:
        body = ", ".join(f"{r}: {n}" for r, n in self._counts.items())
        return f"FlexProfile(d={self.degree}, {{{body}}})"


class FlexSums(NamedTuple):
    """The power sums f^(r) = sum_q (flex order of q)**r for r = 2..5."""

    f2: int
    f3: int
    f4: int
    f5: int

    def as_tuple(self) -> tuple[int, int, int, int]:
        return (self.f2, self.f3, self.f4, self.f5)


def f_sums(profile: FlexProfile) -> FlexSums:
    return FlexSums(*(profile.power_sum(r) for r in range(2, 6)))
