"""Truncated power series, partition numbers, and the punctual Euler series."""

from fractions import Fraction

import pytest

from dt4calc.errors import Unsupported
from dt4calc.partitions import partition_numbers
from dt4calc.series import (CoefficientSeries, convolution_oracle,
                            goettsche_series, reduced_dt4_tstar)

PARTITION_HEAD = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42, 56, 77, 101, 135,
                  176, 231, 297, 385, 490, 627]


def test_partition_numbers_frozen_head():
    assert partition_numbers(20) == PARTITION_HEAD
    assert partition_numbers(50)[50] == 204226


def test_series_arithmetic_roundtrip():
    s = CoefficientSeries([1, 2, 3, 4, 5, 6, 7])
    inv = s.inverse()
    assert (s * inv).coeffs == CoefficientSeries.one(6).coeffs
    with pytest.raises(ValueError):
        CoefficientSeries([0, 1]).inverse()
    with pytest.raises(ValueError):
        s.coefficient(7)


def test_power_handles_negative_exponents():
    s = CoefficientSeries([1, 1], 5)
    assert s.power(2).coeffs[:3] == [Fraction(1), Fraction(2), Fraction(1)]
    assert (s.power(-1) * s).coeffs == CoefficientSeries.one(5).coeffs
    assert s.power(0).coeffs == CoefficientSeries.one(5).coeffs


def test_euler_series_small_cases():
    assert goettsche_series(0, 10).as_ints() == [1] + [0] * 10
    assert goettsche_series(1, 50).as_ints() == partition_numbers(50)
    head = goettsche_series(3, 7).as_ints()
    assert head == [1, 3, 9, 22, 51, 108, 221, 429]


@pytest.mark.parametrize("e", range(-3, 6))
def test_product_route_matches_convolution_route(e):
    assert goettsche_series(e, 20) == convolution_oracle(e, 20)


def test_euler_series_multiplicativity():
    for e1, e2 in ((1, 2), (3, -1), (2, 2)):
        lhs = goettsche_series(e1 + e2, 15)
        rhs = goettsche_series(e1, 15) * goettsche_series(e2, 15)
        assert lhs.coeffs == rhs.coeffs


def test_euler_series_positivity_and_leading_terms():
    for e in range(1, 6):
        ints = goettsche_series(e, 12).as_ints()
        assert ints[0] == 1
        assert ints[1] == e
        assert all(c >= 0 for c in ints)


def test_reduced_invariant_higher_rank_vanishes():
    for c in ((2, 0, 0), (3, 1, -4), (2, 5, 7)):
        rep = reduced_dt4_tstar(c, 3)
        assert rep["case"] == "higher-rank"
        assert rep["value"] == 0


def test_reduced_invariant_line_bundle_case():
    rep = reduced_dt4_tstar((1, 9, 0), 3)
    assert rep["case"] == "line-bundle"
    assert rep["value"] == 1


def test_reduced_invariant_punctual_case():
    rep = reduced_dt4_tstar((1, 0, -4), 3)
    assert rep["case"] == "points"
    assert rep["n"] == 4
    assert rep["value"] == 51
    assert reduced_dt4_tstar((1, 0, -1), 3)["value"] == 3


def test_reduced_invariant_rejections():
    with pytest.raises(Unsupported):
        reduced_dt4_tstar((1, 2, -3), 3)
    with pytest.raises(Unsupported):
        reduced_dt4_tstar((1, 0, 2), 3)
    with pytest.raises(ValueError):
        reduced_dt4_tstar((0, 0, 0), 3)
