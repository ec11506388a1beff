import pytest

from orbitflex.pgl2 import TupleConfig, pgl2_oracle, pgl2_predegree

from helpers import ordered_triples_brute_force


def partitions(n: int, cap: int | None = None):
    """All multisets of positive integers summing to n (descending parts)."""
    cap = n if cap is None else cap
    if n == 0:
        yield ()
        return
    for first in range(min(n, cap), 0, -1):
        for rest in partitions(n - first, first):
            yield (first,) + rest


def test_three_distinct_points():
    cfg = TupleConfig((1, 1, 1))
    assert pgl2_predegree(cfg) == 6
    assert pgl2_oracle(cfg) == 6


def test_two_point_support_degenerates():
    cfg = TupleConfig((2, 1))
    assert pgl2_predegree(cfg) == 0
    assert pgl2_oracle(cfg) == 0


def test_double_point_plus_two():
    cfg = TupleConfig((2, 1, 1))
    assert pgl2_predegree(cfg) == 12
    assert pgl2_oracle(cfg) == 12


def test_oracle_equals_formula_exhaustively():
    for d in range(1, 13):
        for parts in partitions(d):
            cfg = TupleConfig(parts)
            assert pgl2_oracle(cfg) == pgl2_predegree(cfg), parts
            assert pgl2_oracle(cfg) == ordered_triples_brute_force(parts), parts


def test_all_distinct_closed_form():
    for d in range(1, 13):
        cfg = TupleConfig((1,) * d)
        assert pgl2_predegree(cfg) == d * (d - 1) * (d - 2)
        assert pgl2_oracle(cfg) == d * (d - 1) * (d - 2)


def test_permutation_invariance():
    a = TupleConfig((3, 1, 2))
    b = TupleConfig((1, 2, 3))
    assert pgl2_predegree(a) == pgl2_predegree(b)
    assert pgl2_oracle(a) == pgl2_oracle(b)


def test_validation():
    with pytest.raises(ValueError):
        TupleConfig(())
    with pytest.raises(ValueError):
        TupleConfig((2, 0, 1))


def test_derived_sums():
    cfg = TupleConfig((2, 1, 1))
    assert cfg.d == 4 and cfg.m2 == 6 and cfg.m3 == 10
