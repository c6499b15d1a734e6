"""Truncated power series, partition numbers, and the punctual Euler series."""

from fractions import Fraction

import pytest

from dt4calc import series
from dt4calc.chow import generalized_binomial
from dt4calc.errors import InternalInconsistency, Unsupported
from dt4calc.partitions import partition_numbers
from dt4calc.series import convolution_oracle, goettsche_series, reduced_dt4_tstar
from dt4calc.suite import check_goettsche_series

PARTITION_HEAD = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42, 56, 77, 101, 135,
                  176, 231, 297, 385, 490, 627]


def test_partition_numbers_frozen_head():
    assert partition_numbers(20) == PARTITION_HEAD
    assert partition_numbers(50)[50] == 204226


def test_euler_series_small_cases():
    assert goettsche_series(0, 10) == [1] + [0] * 10
    assert goettsche_series(1, 50) == partition_numbers(50)
    head = goettsche_series(3, 7)
    assert head == [1, 3, 9, 22, 51, 108, 221, 429]


@pytest.mark.parametrize("e", [*range(-3, 6), 10 ** 6, -10 ** 6])
def test_product_route_matches_convolution_route(e):
    assert goettsche_series(e, 20) == convolution_oracle(e, 20)


def dense_fraction_product(e, n_max):
    """The product over k of (1 - q^k)^(-e) as dense truncated products of
    Fractions, each factor's coefficients from the generalized binomial."""
    out = [Fraction(1)] + [Fraction(0)] * n_max
    for k in range(1, n_max + 1):
        factor = [Fraction(0)] * (n_max + 1)
        for m in range(n_max // k + 1):
            factor[k * m] = generalized_binomial(e + m - 1, m)
        out = [sum((out[i] * factor[n - i] for i in range(n + 1)), Fraction(0))
               for n in range(n_max + 1)]
    return out


@pytest.mark.parametrize("e", range(-6, 7))
def test_integer_product_matches_the_dense_fraction_product(e):
    got = goettsche_series(e, 30)
    assert all(type(c) is int for c in got)
    assert got == dense_fraction_product(e, 30)


def test_series_takes_only_int_coefficients():
    # a series is a list of ints on both routes, never a float or a Fraction
    for e in (-7, -1, 0, 1, 3, 10 ** 6, -10 ** 6):
        for series in (goettsche_series(e, 20), convolution_oracle(e, 20)):
            assert type(series) is list and len(series) == 21
            assert all(type(c) is int for c in series)


def test_goettsche_criterion_builds_no_fraction(monkeypatch):
    def boom(*args):
        raise AssertionError("Fraction arithmetic on the series path")

    for name in ("__add__", "__radd__", "__mul__", "__rmul__"):
        monkeypatch.setattr(Fraction, name, boom)
    ok, detail = check_goettsche_series()
    assert ok, detail


def test_euler_series_multiplicativity():
    for e1, e2 in ((1, 2), (3, -1), (2, 2)):
        lhs = goettsche_series(e1 + e2, 15)
        a, b = goettsche_series(e1, 15), goettsche_series(e2, 15)
        assert lhs == [sum(a[i] * b[n - i] for i in range(n + 1)) for n in range(16)]


@pytest.mark.parametrize("e", [-24, -7, 10 ** 6, -10 ** 6])
def test_convolution_oracle_matches_the_product_route_deep(e):
    # three times deeper than the shared test, where each exact division in
    # the power recurrence is by n up to 60
    assert goettsche_series(e, 60) == convolution_oracle(e, 60)


def test_convolution_oracle_refuses_an_inexact_division(monkeypatch):
    # a power of an integer series with constant term 1 has integer
    # coefficients, so only a coefficient that is not an integer, here
    # p_2 = 1/2, leaves a remainder: 2 g_2 = 2 p_2 = 1
    monkeypatch.setattr(series, "partition_numbers", lambda n: [1, 1, Fraction(1, 2)])
    with pytest.raises(InternalInconsistency) as exc:
        convolution_oracle(1, 2)
    assert str(exc.value) == "q^2 coefficient of P^1 is 1/2"


def test_euler_series_positivity_and_leading_terms():
    for e in range(1, 6):
        ints = goettsche_series(e, 12)
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
