"""Exact arithmetic kernel: Laurent polynomials and weight triples.

Everything downstream works over two representations:

  * ``Laurent``: a finitely supported map from integer exponent vectors
    ``(e1, e2, e3, e4)`` to ``int`` coefficients.  The monomial ``t^e``
    stands for ``t1^e1 * t2^e2 * t3^e3 * t4^e4``.  Every torus character is
    integral, so characters are computed in plain integer arithmetic.  Zero
    coefficients are purged on every operation, so equality is plain dict
    equality.
  * weights: an integer linear form ``a1*s1 + ... + a4*s4`` in the torus
    parameters, modulo ``s1 + s2 + s3 + s4 = 0``, is its reduced int triple
    ``(a1 - a4, a2 - a4, a3 - a4)``, the digits of its `subtorus_code`, one
    code at every level (`unpack` reads digits); sums, negation and the
    choice of sign in a ``(w, -w)`` pair are done on those codes.  Records
    and the `vertex` report hold bare triples; `LinForm` is only the record
    oracle's evaluator of a decoded triple.

Parameter values and summands are rationals, ``fractions.Fraction``
(lowest terms, positive denominator, unbounded size); integers are ``int``.
"""

from __future__ import annotations

import sys
from collections.abc import Mapping
from fractions import Fraction
from math import gcd, lcm

from .errors import BoundExceeded

Exp = tuple[int, int, int, int]


class Laurent:
    """Laurent polynomial in t1..t4 with int coefficients."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[Exp, int] | None = None):
        clean: dict[Exp, int] = {}
        if terms:
            for exp, c in terms.items():
                if not isinstance(c, int):
                    raise TypeError(f"expected an int coefficient, got {type(c).__name__}")
                if c != 0:
                    if len(exp) != 4:
                        raise ValueError(f"exponent vector must have length 4, got {exp!r}")
                    clean[tuple(exp)] = c
        self.terms = clean

    @staticmethod
    def _of(terms: dict) -> "Laurent":
        """The polynomial of checked terms, without their zero coefficients."""
        out = Laurent.__new__(Laurent)
        out.terms = {e: c for e, c in terms.items() if c}
        return out

    def __eq__(self, other) -> bool:
        if not isinstance(other, Laurent):
            return NotImplemented
        return self.terms == other.terms

    def __add__(self, other: "Laurent") -> "Laurent":
        if not isinstance(other, Laurent):
            return NotImplemented
        terms = dict(self.terms)
        get = terms.get
        for exp, c in other.terms.items():
            terms[exp] = get(exp, 0) + c
        return Laurent._of(terms)

    def __neg__(self) -> "Laurent":
        return Laurent._of({exp: -c for exp, c in self.terms.items()})

    def __sub__(self, other: "Laurent") -> "Laurent":
        if not isinstance(other, Laurent):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other: "Laurent") -> "Laurent":
        if not isinstance(other, Laurent):
            return NotImplemented
        terms: dict[Exp, int] = {}
        get = terms.get
        right = list(other.terms.items())
        for (a0, a1, a2, a3), ca in self.terms.items():
            for (b0, b1, b2, b3), cb in right:
                exp = (a0 + b0, a1 + b1, a2 + b2, a3 + b3)
                terms[exp] = get(exp, 0) + ca * cb
        return Laurent._of(terms)

    def bar(self) -> "Laurent":
        """Negate every exponent (the duality involution t -> t^-1)."""
        return Laurent._of({(-a, -b, -c, -d): k for (a, b, c, d), k in self.terms.items()})

    def cy_reduce(self) -> "Laurent":
        """Restrict to the subtorus t1 t2 t3 t4 = 1, merging colliding terms.

        Each exponent loses its fourth entry by t4 = (t1 t2 t3)^-1.
        """
        terms: dict[Exp, int] = {}
        get = terms.get
        for (a, b, c, d), k in self.terms.items():
            r = (a - d, b - d, c - d, 0)
            terms[r] = get(r, 0) + k
        return Laurent._of(terms)

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        pieces = []
        for exp, c in sorted(self.terms.items()):
            mono = "*".join(
                f"t{i + 1}^{e}" if e != 1 else f"t{i + 1}"
                for i, e in enumerate(exp)
                if e != 0
            )
            if not mono:
                body = str(abs(c))
            elif abs(c) == 1:
                body = mono
            else:
                body = f"{abs(c)}*{mono}"
            if not pieces:
                pieces.append(body if c > 0 else f"-{body}")
            else:
                pieces.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(pieces)

    def __repr__(self) -> str:
        return f"Laurent({self})"


class LinForm:
    """A reduced weight triple as the record oracle evaluates it."""

    __slots__ = ("reduced",)

    def __init__(self, reduced: tuple[int, int, int]):
        self.reduced = reduced

    def evaluate(self, s):
        """Value at a parameter 4-vector; callers ensure sum(s) == 0.

        Exact for any exact entries: an int for integer s, a Fraction when
        some entry is a Fraction.
        """
        r = self.reduced
        return r[0] * s[0] + r[1] * s[1] + r[2] * s[2]


def number_str(x) -> str:
    """str(x) of an int or Fraction to print, or BoundExceeded when it has
    more digits than the interpreter writes out (sys.get_int_max_str_digits)."""
    try:
        return str(x)
    except ValueError:
        raise BoundExceeded(f"a number to print has more than {sys.get_int_max_str_digits()} "
                            f"digits, the interpreter's limit for integer strings") from None


def form_str(r, sep: str = " ") -> str:
    """The reduced triple r as a signed sum such as ``-s1 + 2*s3``, with
    `sep` on each side of the signs between terms; "0" for the zero form."""
    out = ""
    for i, c in enumerate(r):
        if c:
            body = f"s{i + 1}" if abs(c) == 1 else f"{abs(c)}*s{i + 1}"
            if out:
                out += f"{sep}{'+' if c > 0 else '-'}{sep}{body}"
            else:
                out = body if c > 0 else f"-{body}"
    return out or "0"


def unpack(code: int, k: int, base: int) -> tuple[int, ...]:
    """The k signed digits of a code in an odd base, the first most
    significant: the vector with entries in [-(base // 2), base // 2] that
    packs to it."""
    half = base // 2
    digits = [0] * k
    for i in reversed(range(k)):
        digit = (code + half) % base - half
        digits[i] = digit
        code = (code - digit) // base
    return tuple(digits)


def integer_scaling(s) -> tuple[int, tuple[int, ...]]:
    """(L, L*s) with L the lcm of the denominators of the rationals s.

    A weight's value at s is its integer value at L*s divided by L, so a
    product of weights can be taken over the integers and divided once.
    """
    scale = lcm(*(Fraction(x).denominator for x in s))
    return scale, tuple(int(x * scale) for x in s)


def fraction_sum(pairs: list[tuple[int, int]]) -> Fraction:
    """The sum of the rationals num/den of int pairs, den nonzero, as one
    reduced Fraction.  Adjacent pairs are added over the lcm of their
    denominators, in rounds, so each round adds operands of like size; the
    last pair, the sum over the lcm of every den, is reduced once."""
    while len(pairs) > 1:
        it = iter(pairs)
        out = []
        for (a, b), (c, d) in zip(it, it):
            g = gcd(b, d)
            out.append((a * (d // g) + c * (b // g), b // g * d))
        pairs = out + pairs[2 * len(out):]
    return Fraction(*pairs[0])
