"""Truncated q-series with exact coefficients, and the reduced invariants
they package.

The only series arithmetic needed is multiplication, integer powers and
inverses of series with constant term 1, all truncated at a fixed order.
The punctual generating function is computed two independent ways: directly
as the product over k of (1 - q^k)^(-e), and as the e-th power of the
partition number series built from the pentagonal recurrence.
"""

from __future__ import annotations

from fractions import Fraction

from .chow import generalized_binomial
from .errors import Unsupported
from .partitions import partition_numbers


class CoefficientSeries:
    """Power series in q truncated past degree `order`."""

    __slots__ = ("order", "coeffs")

    def __init__(self, coeffs, order: int | None = None):
        coeffs = [c if isinstance(c, Fraction) else Fraction(c) for c in coeffs]
        if order is None:
            order = len(coeffs) - 1
        if order < 0:
            raise ValueError("order must be nonnegative")
        coeffs = coeffs[:order + 1]
        coeffs += [Fraction(0)] * (order + 1 - len(coeffs))
        self.order = order
        self.coeffs = coeffs

    @staticmethod
    def one(order: int) -> "CoefficientSeries":
        return CoefficientSeries([1], order)

    def coefficient(self, n: int) -> Fraction:
        if n > self.order:
            raise ValueError(f"coefficient {n} is beyond the truncation {self.order}")
        return self.coeffs[n]

    def __eq__(self, other):
        if not isinstance(other, CoefficientSeries):
            return NotImplemented
        return self.order == other.order and self.coeffs == other.coeffs

    def __mul__(self, other: "CoefficientSeries") -> "CoefficientSeries":
        if not isinstance(other, CoefficientSeries):
            return NotImplemented
        order = min(self.order, other.order)
        out = [Fraction(0)] * (order + 1)
        for i, a in enumerate(self.coeffs[:order + 1]):
            if not a:
                continue
            for j in range(order + 1 - i):
                b = other.coeffs[j]
                if b:
                    out[i + j] += a * b
        return CoefficientSeries(out, order)

    def inverse(self) -> "CoefficientSeries":
        if self.coeffs[0] != 1:
            raise ValueError("only series with constant term 1 are inverted here")
        out = [Fraction(1)] + [Fraction(0)] * self.order
        for n in range(1, self.order + 1):
            acc = Fraction(0)
            for k in range(1, n + 1):
                acc += self.coeffs[k] * out[n - k]
            out[n] = -acc
        return CoefficientSeries(out, self.order)

    def power(self, e: int) -> "CoefficientSeries":
        base = self if e >= 0 else self.inverse()
        out = CoefficientSeries.one(self.order)
        for _ in range(abs(e)):
            out = out * base
        return out

    def is_integral(self) -> bool:
        return all(c.denominator == 1 for c in self.coeffs)

    def as_ints(self) -> list[int]:
        if not self.is_integral():
            raise ValueError("series has non integer coefficients")
        return [int(c) for c in self.coeffs]

    def __repr__(self):
        return f"CoefficientSeries({[str(c) for c in self.coeffs]})"


def goettsche_series(e: int, n_max: int) -> CoefficientSeries:
    """Product over k >= 1 of (1 - q^k)^(-e), truncated at q^n_max."""
    out = CoefficientSeries.one(n_max)
    for k in range(1, n_max + 1):
        coeffs = [Fraction(0)] * (n_max + 1)
        m = 0
        while k * m <= n_max:
            coeffs[k * m] = generalized_binomial(e + m - 1, m)
            m += 1
        out = out * CoefficientSeries(coeffs, n_max)
    return out


def convolution_oracle(e: int, n_max: int) -> CoefficientSeries:
    """The same series as the e-th power of the pentagonal partition series."""
    p = partition_numbers(n_max)
    return CoefficientSeries(p, n_max).power(e)


def reduced_dt4_tstar(c, euler: int) -> dict:
    """Reduced invariant of the cotangent fibre geometry for one Chern
    character triple c = (rank, first Chern slot, point slot).

    Rank at least two gives zero; rank one with no point part gives one;
    rank one ideal sheaves of n points give the q^n coefficient of the
    punctual series for the given Euler number.  Mixed rank one classes are
    outside the computed range.
    """
    r, c1, pts = c
    if r < 1:
        raise ValueError(f"rank must be at least 1, got {r}")
    if r >= 2:
        return {"c": tuple(c), "case": "higher-rank", "value": 0}
    if pts == 0:
        return {"c": tuple(c), "case": "line-bundle", "value": 1}
    if c1 != 0:
        raise Unsupported(f"rank one with both slots nonzero is not computed: {c}")
    if pts > 0:
        raise Unsupported(f"positive point slot is not a sheaf class here: {c}")
    n = -pts
    value = goettsche_series(euler, n).coefficient(n)
    if value.denominator != 1:
        raise AssertionError("punctual coefficient must be an integer")
    return {"c": tuple(c), "case": "points", "n": n, "value": int(value)}
