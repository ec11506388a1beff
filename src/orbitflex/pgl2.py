"""Predegree of the orbit closure of a d-tuple of points on a line.

A configuration is a multiset of points of P^1 with multiplicities
m_1..m_s summing to d.  Writing m2 = sum m_i^2 and m3 = sum m_i^3, the
predegree of the orbit closure under the Moebius group is

    d^3 - 3*d*m2 + 2*m3 .

Because the Moebius group is sharply 3-transitive, the same number counts
weighted ordered triples of distinct support points (each ordered triple
of distinct points maps to 3 general targets by exactly one
transformation), which gives an independent combinatorial oracle.
"""

from __future__ import annotations

from typing import NamedTuple


class TupleConfig(NamedTuple("TupleConfig", [("multiplicities", tuple[int, ...])])):
    """Multiplicities of a point configuration on the line; immutable."""

    __slots__ = ()

    def __new__(cls, multiplicities: tuple[int, ...]):
        if not multiplicities:
            raise ValueError("configuration needs at least one point")
        if any(type(m) is not int or m < 1 for m in multiplicities):
            raise ValueError(f"multiplicities must be positive: {multiplicities}")
        return super().__new__(cls, multiplicities)

    @property
    def d(self) -> int:
        return sum(self.multiplicities)

    @property
    def m2(self) -> int:
        return sum(m**2 for m in self.multiplicities)

    @property
    def m3(self) -> int:
        return sum(m**3 for m in self.multiplicities)


def pgl2_predegree(cfg: TupleConfig) -> int:
    """Closed-form predegree d^3 - 3*d*m2 + 2*m3."""
    return cfg.d**3 - 3 * cfg.d * cfg.m2 + 2 * cfg.m3


def pgl2_oracle(cfg: TupleConfig) -> int:
    """Weighted count of ordered triples of distinct support points: six
    times e_3 of the multiplicities, in one pass over the points."""
    e1 = e2 = e3 = 0
    for m in cfg.multiplicities:
        e3 += e2 * m
        e2 += e1 * m
        e1 += m
    return 6 * e3
