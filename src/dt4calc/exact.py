"""Exact arithmetic kernel: Laurent polynomials, weight forms, factored products.

Everything downstream works over three representations:

  * ``Laurent``: a finitely supported map from integer exponent vectors
    ``(e1, e2, e3, e4)`` to rational coefficients.  The monomial ``t^e``
    stands for ``t1^e1 * t2^e2 * t3^e3 * t4^e4``.  A coefficient is an
    ``int`` whenever it is integral and a ``Fraction`` only when it is not,
    so the torus characters, which are all integral, are computed in plain
    integer arithmetic.  Zero coefficients are purged on every operation,
    so equality is plain dict equality (``Fraction(1) == 1``, and the two
    hash alike).
  * ``LinForm``: an integer linear form ``a1*s1 + ... + a4*s4`` in the torus
    parameters, compared modulo the relation ``s1 + s2 + s3 + s4 = 0``.
    The vector is stored shifted so that its smallest entry is 0, one
    representative per class, so hashing and equality compare it directly.
  * ``FactoredWeightProduct``: a signed product of ``LinForm`` factors kept
    in factored shape.  Products of weights are never expanded into
    polynomials; cancellation happens factor by factor.

Non-integral rationals are ``fractions.Fraction`` (lowest terms, positive
denominator, unbounded size); integers are ``int``.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Iterable, Mapping

from .errors import InternalInconsistency, NonGenericParameters

Exp = tuple[int, int, int, int]

ZERO_EXP: Exp = (0, 0, 0, 0)


def exp_neg(e: Exp) -> Exp:
    return (-e[0], -e[1], -e[2], -e[3])


def exp_cy_reduce(e: Exp) -> Exp:
    """Eliminate the fourth variable using t4 = (t1 t2 t3)^-1."""
    return (e[0] - e[3], e[1] - e[3], e[2] - e[3], 0)


def _as_coeff(c):
    """An int, or a Fraction that is not an integer."""
    if isinstance(c, Fraction):
        return c.numerator if c.denominator == 1 else c
    if isinstance(c, int):
        return int(c)
    raise TypeError(f"expected an integer or Fraction coefficient, got {type(c).__name__}")


def _purged(terms: dict) -> dict:
    """The terms without zero coefficients, integral Fractions made ints."""
    return {e: c if c.__class__ is int or c.denominator != 1 else c.numerator
            for e, c in terms.items() if c}


class Laurent:
    """Laurent polynomial in t1..t4 with exact rational coefficients.

    Each coefficient is an int, or a Fraction that is not an integer.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[Exp, int | Fraction] | None = None):
        clean: dict[Exp, int | Fraction] = {}
        if terms:
            for exp, c in terms.items():
                c = _as_coeff(c)
                if c != 0:
                    if len(exp) != 4:
                        raise ValueError(f"exponent vector must have length 4, got {exp!r}")
                    clean[tuple(exp)] = c
        self.terms = clean

    @staticmethod
    def zero() -> "Laurent":
        return Laurent()

    @staticmethod
    def one() -> "Laurent":
        return Laurent({ZERO_EXP: 1})

    @staticmethod
    def monomial(exp: Iterable[int], coeff=1) -> "Laurent":
        return Laurent({tuple(exp): _as_coeff(coeff)})

    @staticmethod
    def variable(i: int, power: int = 1) -> "Laurent":
        """The monomial t_i^power for i in 1..4."""
        if not 1 <= i <= 4:
            raise ValueError("variable index must be 1..4")
        exp = [0, 0, 0, 0]
        exp[i - 1] = power
        return Laurent.monomial(exp)

    def coeff(self, exp: Iterable[int]) -> int | Fraction:
        return self.terms.get(tuple(exp), 0)

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Laurent):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __add__(self, other: "Laurent") -> "Laurent":
        if not isinstance(other, Laurent):
            return NotImplemented
        terms = dict(self.terms)
        get = terms.get
        for exp, c in other.terms.items():
            terms[exp] = get(exp, 0) + c
        out = Laurent.__new__(Laurent)
        out.terms = _purged(terms)
        return out

    def __neg__(self) -> "Laurent":
        out = Laurent.__new__(Laurent)
        out.terms = {exp: -c for exp, c in self.terms.items()}
        return out

    def __sub__(self, other: "Laurent") -> "Laurent":
        if not isinstance(other, Laurent):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if not isinstance(other, Laurent):
            return NotImplemented
        terms: dict[Exp, int | Fraction] = {}
        get = terms.get
        right = list(other.terms.items())
        for (a0, a1, a2, a3), ca in self.terms.items():
            for (b0, b1, b2, b3), cb in right:
                exp = (a0 + b0, a1 + b1, a2 + b2, a3 + b3)
                terms[exp] = get(exp, 0) + ca * cb
        out = Laurent.__new__(Laurent)
        out.terms = _purged(terms)
        return out

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    def scale(self, c) -> "Laurent":
        c = _as_coeff(c)
        out = Laurent.__new__(Laurent)
        out.terms = _purged({exp: c * v for exp, v in self.terms.items()})
        return out

    def bar(self) -> "Laurent":
        """Negate every exponent (the duality involution t -> t^-1)."""
        out = Laurent.__new__(Laurent)
        out.terms = {exp_neg(exp): c for exp, c in self.terms.items()}
        return out

    def cy_reduce(self) -> "Laurent":
        """Restrict to the subtorus t1 t2 t3 t4 = 1, merging colliding terms."""
        terms: dict[Exp, int | Fraction] = {}
        get = terms.get
        for exp, c in self.terms.items():
            r = exp_cy_reduce(exp)
            terms[r] = get(r, 0) + c
        out = Laurent.__new__(Laurent)
        out.terms = _purged(terms)
        return out

    def coeff_sum(self) -> int | Fraction:
        """Value with every variable set to 1."""
        return _as_coeff(sum(self.terms.values()))

    def items_sorted(self):
        """Terms in lexicographic exponent order, the canonical ordering."""
        return sorted(self.terms.items())

    def is_effective_integral(self) -> bool:
        """True when every coefficient is a positive integer."""
        return all(c.denominator == 1 and c > 0 for c in self.terms.values())

    def has_integral_coeffs(self) -> bool:
        return all(c.denominator == 1 for c in self.terms.values())

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        pieces = []
        for exp, c in self.items_sorted():
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
    """Integer linear form in s1..s4, taken modulo s1 + s2 + s3 + s4 = 0.

    Two forms are equal when their reduced coefficient triples
    ``(a1 - a4, a2 - a4, a3 - a4)`` agree, which is exactly agreement of
    values on every parameter vector with coordinate sum zero.  The vector
    ``a`` is stored less its smallest entry, which picks one representative
    per class, so equality and hashing compare ``a`` itself; the shift
    commutes with permuting the coordinates and leaves every value on the
    subtorus unchanged.
    """

    __slots__ = ("a",)

    def __init__(self, a: Iterable[int]):
        a = tuple(map(int, a))
        if len(a) != 4:
            raise ValueError(f"coefficient vector must have length 4, got {a!r}")
        low = min(a)
        self.a = (a[0] - low, a[1] - low, a[2] - low, a[3] - low) if low else a

    @property
    def reduced(self) -> tuple[int, int, int]:
        a = self.a
        return (a[0] - a[3], a[1] - a[3], a[2] - a[3])

    def __eq__(self, other) -> bool:
        if not isinstance(other, LinForm):
            return NotImplemented
        return self.a == other.a

    def __hash__(self):
        return hash(self.a)

    def __add__(self, other: "LinForm") -> "LinForm":
        if not isinstance(other, LinForm):
            return NotImplemented
        return LinForm(tuple(x + y for x, y in zip(self.a, other.a)))

    def __neg__(self) -> "LinForm":
        a = self.a
        top = max(a)
        out = LinForm.__new__(LinForm)
        out.a = (top - a[0], top - a[1], top - a[2], top - a[3])
        return out

    def __sub__(self, other: "LinForm") -> "LinForm":
        if not isinstance(other, LinForm):
            return NotImplemented
        return self + (-other)

    def is_zero(self) -> bool:
        return not any(self.a)

    def evaluate(self, s):
        """Value at a parameter 4-vector; callers ensure sum(s) == 0.

        Exact for any exact entries: an int for integer s, a Fraction when
        some entry is a Fraction.
        """
        a = self.a
        return a[0] * s[0] + a[1] * s[1] + a[2] * s[2] + a[3] * s[3]

    def canonical(self) -> tuple["LinForm", int]:
        """Representative of {w, -w} with positive leading reduced coefficient.

        Returns (representative, sign) with self == sign * representative.
        The zero form returns itself with sign +1.
        """
        a = self.a
        for x in a[:3]:  # the reduced coefficient x - a[3]
            if x > a[3]:
                return self, 1
            if x < a[3]:
                return -self, -1
        return self, 1

    def is_canonical(self) -> bool:
        return self.canonical()[1] == 1

    def __str__(self) -> str:
        r = self.reduced
        if r == (0, 0, 0):
            return "0"
        pieces = []
        for i, c in enumerate(r):
            if c == 0:
                continue
            body = f"s{i + 1}" if abs(c) == 1 else f"{abs(c)}*s{i + 1}"
            if not pieces:
                pieces.append(body if c > 0 else f"-{body}")
            else:
                pieces.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(pieces)

    def __repr__(self) -> str:
        return f"LinForm{self.a}"


def integer_scaling(s) -> tuple[int, tuple[int, ...]]:
    """(L, L*s) with L the lcm of the denominators of the rationals s.

    A weight's value at s is its integer value at L*s divided by L, so a
    product of weights can be taken over the integers and divided once.
    """
    scale = lcm(*(Fraction(x).denominator for x in s))
    return scale, tuple(int(x * scale) for x in s)


def weight_of(exp: Iterable[int]) -> LinForm:
    """Weight of the monomial t^exp on the subtorus, as a linear form in s."""
    return LinForm(exp)


class FactoredWeightProduct:
    """Signed product of weight factors, kept factored.

    ``sign`` is +1 or -1, ``factors`` maps canonical-representative forms to
    integer multiplicities (negative multiplicity means a denominator factor),
    and ``zero`` marks the product annihilated by a zero-form factor.
    """

    __slots__ = ("sign", "factors", "zero")

    def __init__(self, sign: int = 1, factors: Mapping[LinForm, int] | None = None,
                 zero: bool = False):
        if sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")
        self.sign = sign
        self.zero = zero
        clean: dict[LinForm, int] = {}
        if factors and not zero:
            for w, m in factors.items():
                if m == 0:
                    continue
                rep, s = w.canonical()
                if rep.is_zero():
                    raise InternalInconsistency("zero form passed as an explicit factor")
                if s < 0 and m % 2 == 1:
                    self.sign = -self.sign
                clean[rep] = clean.get(rep, 0) + m
                if clean[rep] == 0:
                    del clean[rep]
        self.factors = clean

    @staticmethod
    def identity() -> "FactoredWeightProduct":
        return FactoredWeightProduct()

    @staticmethod
    def zero_product() -> "FactoredWeightProduct":
        return FactoredWeightProduct(zero=True)

    def times_weight(self, w: LinForm, power: int = 1) -> "FactoredWeightProduct":
        if self.zero:
            return self
        if w.is_zero():
            if power <= 0:
                raise InternalInconsistency("zero form in a denominator factor")
            return FactoredWeightProduct.zero_product()
        rep, s = w.canonical()
        factors = dict(self.factors)
        factors[rep] = factors.get(rep, 0) + power
        if factors[rep] == 0:
            del factors[rep]
        sign = self.sign * (s if power % 2 == 1 else 1)
        out = FactoredWeightProduct.__new__(FactoredWeightProduct)
        out.sign, out.factors, out.zero = sign, factors, False
        return out

    def times(self, other: "FactoredWeightProduct") -> "FactoredWeightProduct":
        if self.zero or other.zero:
            return FactoredWeightProduct.zero_product()
        factors = dict(self.factors)
        for w, m in other.factors.items():
            factors[w] = factors.get(w, 0) + m
            if factors[w] == 0:
                del factors[w]
        out = FactoredWeightProduct.__new__(FactoredWeightProduct)
        out.sign, out.factors, out.zero = self.sign * other.sign, factors, False
        return out

    def negated(self) -> "FactoredWeightProduct":
        if self.zero:
            return self
        out = FactoredWeightProduct.__new__(FactoredWeightProduct)
        out.sign, out.factors, out.zero = -self.sign, dict(self.factors), False
        return out

    def degree(self) -> int:
        return 0 if self.zero else sum(self.factors.values())

    def evaluate(self, s) -> Fraction:
        """Exact value at the parameter vector s.

        Raises NonGenericParameters when a factor vanishes at s, because the
        factored value (numerator or denominator alike) is then meaningless.
        """
        if self.zero:
            return Fraction(0)
        scale, ints = integer_scaling(s)
        num, den = self.sign, 1
        for w, m in sorted(self.factors.items(), key=lambda kv: kv[0].reduced):
            v = w.evaluate(ints)
            if v == 0:
                raise NonGenericParameters(f"weight {w} vanishes at s = {tuple(s)}")
            if m > 0:
                num *= v ** m
            else:
                den *= v ** -m
        d = self.degree()
        return Fraction(num * scale ** max(-d, 0), den * scale ** max(d, 0))

    def __eq__(self, other) -> bool:
        if not isinstance(other, FactoredWeightProduct):
            return NotImplemented
        if self.zero or other.zero:
            return self.zero == other.zero
        return self.sign == other.sign and self.factors == other.factors

    def __str__(self) -> str:
        if self.zero:
            return "0"
        pieces = [] if self.sign > 0 else ["-1"]
        for w, m in sorted(self.factors.items(), key=lambda kv: kv[0].reduced):
            pieces.append(f"({w})" if m == 1 else f"({w})^{m}")
        return " * ".join(pieces) if pieces else "1"

    def __repr__(self) -> str:
        return f"FactoredWeightProduct({self})"
