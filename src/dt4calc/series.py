"""Truncated q-series with integer coefficients, and the reduced invariants
they package.

Every series here lives in Z[[q]], truncated at a fixed order, and is a
plain list of ints whose entry n is the coefficient of q^n: the punctual
generating function and the partition numbers have integer coefficients,
and so does every integer power of a series with constant term 1.  The
punctual generating function is computed two independent ways: directly as
the product over k of (1 - q^k)^(-e), one sparse factor at a time, and as
the e-th power of the partition number series built from the pentagonal
recurrence, by the power recurrence for its coefficients.
"""

from __future__ import annotations

from operator import mul

from .errors import InternalInconsistency, Unsupported
from .partitions import partition_numbers


def goettsche_series(e: int, n_max: int) -> list[int]:
    """Product over k >= 1 of (1 - q^k)^(-e), truncated at q^n_max.

    (1 - q^k)^(-e) is the sum over m of b_m q^(km) with b_m = C(e + m - 1, m),
    the same row for every k, built once by b_m = b_(m-1) (e + m - 1) / m,
    which divides exactly.  Each factor multiplies in place, from the top
    coefficient down, as c_n += sum over m >= 1 of b_m c_(n - km): about
    n_max^2 log(n_max) / 2 integer products in all, whatever e is.
    """
    b = [1]
    for m in range(1, n_max + 1):
        b.append(b[-1] * (e + m - 1) // m)
    c = [1] + [0] * n_max
    for k in range(1, n_max + 1):
        for n in range(n_max, k - 1, -1):
            c[n] += sum(map(mul, b[1:n // k + 1], c[n - k::-k]))
    return c


def convolution_oracle(e: int, n_max: int) -> list[int]:
    """The same series as the e-th power of the pentagonal partition series.

    P = sum p(n) q^n has constant term 1, so g = P^e is fixed by g_0 = 1 and
    P g' = e P' g, which on the coefficient of q^(n-1) reads
    n g_n = sum over k = 1..n of ((e + 1) k - n) p_k g_(n-k): about
    n_max^2 / 2 integer products, whatever e is.  The g_n are integers, so
    every division must be exact; a remainder raises InternalInconsistency.
    """
    p = partition_numbers(n_max)
    g = [1]
    for n in range(1, n_max + 1):
        acc = sum(((e + 1) * k - n) * p[k] * g[n - k] for k in range(1, n + 1))
        g_n, rem = divmod(acc, n)
        if rem:
            raise InternalInconsistency(f"q^{n} coefficient of P^{e} is {acc}/{n}")
        g.append(g_n)
    return g


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
    value = goettsche_series(euler, n)[n]
    return {"c": tuple(c), "case": "points", "n": n, "value": value}
