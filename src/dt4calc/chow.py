"""Intersection theory on products of projective spaces and hypersurfaces.

The ambient ring for P^{n_1} x ... x P^{n_m} is Q[h_1..h_m] modulo
h_i^{n_i + 1}, and a ring is just the tuple (n_1, ..., n_m), which is also
the exponent of its top monomial.  A class is a list of int numerators, one
per monomial of the ring, over one positive denominator, both in lowest
terms; a table built once per ring lists the monomials and the index
triples of every product, so a product is int arithmetic only.  A K-theory
class is its Chern character, a class like any other: the dual negates the
odd degrees and the tensor product is the product.

The cotangent class of a product space is the dual of the tangent class
from the Euler sequence of each factor, a sum of exponentials of the
generators, so it is exact in every dimension the ring allows.  Chern
classes of the tangent bundle are kept only for the Euler number, on a
product space and on a hypersurface, where they are divided by 1 + D.

A smooth divisor X in |O(d_1..d_m)| is handled without ever presenting its
own ring: classes restricted from the ambient space are multiplied upstairs,
the Todd class of X is the ambient expression td(T_W) td(O(D))^{-1}, and the
push forward of integration is multiplication by D.  Everything stays exact.

The two fixed varieties, `cy_hypersurface_context()` and
`projective_plane_context()`, are built once per process and shared by
every caller, as the partition levels are.  That is safe because nothing
here changes a `VarietyContext` or a `CohClass` in place: every operation
returns a new class.
"""

from __future__ import annotations

import collections
import functools
import itertools
from fractions import Fraction
from math import factorial, gcd, lcm
from operator import add

from .errors import InternalInconsistency, Unsupported

# coefficients by degree, through degree 8, of the series f(x) of a line
# bundle with first Chern class x: exp(x) for its Chern character,
# x/(1 - e^-x) for its Todd class and the inverse of that, and 1/(1 + x)
_EXP = [Fraction(1, factorial(k)) for k in range(9)]
_TD_LINE = [Fraction(1), Fraction(1, 2), Fraction(1, 12), Fraction(0),
            Fraction(-1, 720), Fraction(0), Fraction(1, 30240), Fraction(0),
            Fraction(-1, 1209600)]
_TD_LINE_INV = [Fraction((-1) ** k, factorial(k + 1)) for k in range(9)]
_ONE_PLUS_INV = [Fraction((-1) ** k) for k in range(9)]


_RingTable = collections.namedtuple("_RingTable", "monos index products degrees")


@functools.cache
def _ring_table(ring) -> _RingTable:
    """A ring's monomials in degree order, the index of each, the (i, j, k)
    triples with monos[i] * monos[j] = monos[k] inside the ring, and the
    degree of each monomial; built once per ring."""
    monos = sorted(itertools.product(*(range(n + 1) for n in ring)), key=sum)
    index = {m: i for i, m in enumerate(monos)}
    products = [(i, j, k) for i, a in enumerate(monos) for j, b in enumerate(monos)
                if (k := index.get(tuple(map(add, a, b)))) is not None]
    return _RingTable(monos, index, products, [sum(m) for m in monos])


class CohClass:
    """Inhomogeneous cohomology class with exact rational coefficients.

    ``num[i] / den`` is the coefficient of the ring's i-th monomial, in the
    order of its `_ring_table`; ``den`` is positive and gcd(den, *num) is 1,
    so equal classes have equal fields.
    """

    __slots__ = ("ring", "table", "num", "den")

    def __init__(self, ring: tuple[int, ...], terms=None):
        self.ring = ring = tuple(ring)
        self.table = table = _ring_table(ring)
        coeffs = {}
        for mono, c in (terms or {}).items():
            mono = tuple(mono)
            if len(mono) != len(ring):
                raise ValueError(f"monomial {mono!r} does not fit the ring {ring!r}")
            if any(e < 0 for e in mono):
                raise ValueError(f"monomial {mono!r} has a negative exponent")
            if mono in table.index:
                coeffs[table.index[mono]] = Fraction(c)
        # no prime divides the lcm of reduced denominators and every
        # numerator over it, so the fields start in lowest terms
        self.den = den = lcm(*(c.denominator for c in coeffs.values()))
        self.num = [0] * len(table.monos)
        for i, c in coeffs.items():
            self.num[i] = c.numerator * (den // c.denominator)

    def _of(self, num, den) -> "CohClass":
        """A class of this ring from numerators over a positive denominator."""
        g = gcd(den, *num)
        if g != 1:
            num, den = [n // g for n in num], den // g
        out = CohClass.__new__(CohClass)
        out.ring, out.table, out.num, out.den = self.ring, self.table, num, den
        return out

    @staticmethod
    def one(ring) -> "CohClass":
        return CohClass(ring, {(0,) * len(ring): Fraction(1)})

    @staticmethod
    def generator(ring, i: int) -> "CohClass":
        mono = [0] * len(ring)
        mono[i] = 1
        return CohClass(ring, {tuple(mono): Fraction(1)})

    def _check(self, other: "CohClass"):
        if self.ring != other.ring:
            raise ValueError("classes live in different rings")

    def __add__(self, other):
        if not isinstance(other, CohClass):
            return NotImplemented
        self._check(other)
        den = lcm(self.den, other.den)
        p, q = den // self.den, den // other.den
        return self._of([a * p + b * q for a, b in zip(self.num, other.num)], den)

    def __neg__(self):
        return self._of([-n for n in self.num], self.den)

    def __sub__(self, other):
        if not isinstance(other, CohClass):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, CohClass):
            return NotImplemented
        self._check(other)
        a, b = self.num, other.num
        out = [0] * len(a)
        for i, j, k in self.table.products:
            out[k] += a[i] * b[j]
        return self._of(out, self.den * other.den)

    def scale(self, c) -> "CohClass":
        c = c if isinstance(c, Fraction) else Fraction(c)
        return self._of([n * c.numerator for n in self.num], self.den * c.denominator)

    def power(self, k: int) -> "CohClass":
        out = CohClass.one(self.ring)
        for _ in range(k):
            out = out * self
        return out

    def dual(self) -> "CohClass":
        """The Chern character of the dual class: odd degrees change sign."""
        return self._of([-n if d % 2 else n for n, d in zip(self.num, self.table.degrees)],
                        self.den)

    def component(self, degree: int) -> "CohClass":
        return self._of([n if d == degree else 0
                         for n, d in zip(self.num, self.table.degrees)], self.den)

    def degree_zero_value(self) -> Fraction:
        return self.coefficient((0,) * len(self.ring))

    def coefficient(self, mono) -> Fraction:
        i = self.table.index.get(tuple(mono))
        return Fraction(0) if i is None else Fraction(self.num[i], self.den)

    def __eq__(self, other):
        if not isinstance(other, CohClass):
            return NotImplemented
        return self.ring == other.ring and self.num == other.num and self.den == other.den

    def __repr__(self):
        terms = {m: Fraction(n, self.den) for m, n in zip(self.table.monos, self.num) if n}
        return f"CohClass({self.ring!r}, {terms!r})"


def _line_series(x: CohClass, table) -> CohClass:
    """sum over k of table[k] x^k, for a class x with no degree zero part,
    truncated by the ring."""
    if x.degree_zero_value():
        raise ValueError("line series need a class with zero constant term")
    out, term = CohClass(x.ring), CohClass.one(x.ring)
    for c in table:
        out = out + term.scale(c)
        term = term * x
        if not any(term.num):
            break
    return out


def _divisor_class(ring, degrees) -> CohClass:
    """sum_i k_i h_i, the first Chern class of O(k_1..k_m)."""
    if len(degrees) != len(ring):
        raise ValueError("multidegree length does not match the ring")
    return CohClass(ring, {tuple(int(j == i) for j in range(len(ring))): k
                           for i, k in enumerate(degrees)})


class VarietyContext:
    """A product of projective spaces, or a smooth divisor in one.

    For a divisor the ring stays the ambient one; ``divisor`` is the class
    cut out and ``todd`` is the Todd class of the divisor written upstairs.
    """

    __slots__ = ("ring", "divisor", "todd", "tangent_chern")

    def __init__(self, ring, divisor, todd, tangent_chern):
        self.ring = ring
        self.divisor = divisor
        self.todd = todd
        self.tangent_chern = tangent_chern

    @classmethod
    def product_space(cls, dims) -> "VarietyContext":
        ring = tuple(int(n) for n in dims)
        top = len(_EXP) - 1
        if not ring or min(ring) < 1 or sum(ring) > top:
            raise ValueError(f"need positive factor dimensions summing to at most "
                             f"{top}, got {ring!r}")
        todd = CohClass.one(ring)
        chern = CohClass.one(ring)
        for i, n in enumerate(ring):
            h = CohClass.generator(ring, i)
            todd = todd * _line_series(h, _TD_LINE).power(n + 1)
            chern = chern * (CohClass.one(ring) + h).power(n + 1)
        return cls(ring, None, todd, chern)

    @classmethod
    def hypersurface_in_product(cls, dims, multidegree) -> "VarietyContext":
        ambient = cls.product_space(dims)
        d = _divisor_class(ambient.ring, multidegree)
        todd = ambient.todd * _line_series(d, _TD_LINE_INV)
        chern = ambient.tangent_chern * _line_series(d, _ONE_PLUS_INV)
        return cls(ambient.ring, d, todd, chern)

    @property
    def dim(self) -> int:
        return sum(self.ring) - (1 if self.divisor is not None else 0)

    def integrate(self, cls_: CohClass) -> Fraction:
        if self.divisor is not None:
            cls_ = cls_ * self.divisor
        return cls_.coefficient(self.ring)

    def euler_number(self) -> Fraction:
        """Integral of the top Chern class of the tangent bundle."""
        return self.integrate(self.tangent_chern.component(self.dim))

    def chi(self, e: CohClass, f: CohClass) -> Fraction:
        """Euler pairing of two Chern characters by the Riemann Roch integral."""
        return self.integrate(e.dual() * f * self.todd)

    def line_bundle(self, degrees) -> CohClass:
        """The Chern character exp(c1) of O(k_1..k_m)."""
        return _line_series(_divisor_class(self.ring, degrees), _EXP)

    def cotangent_sheaf_class(self) -> CohClass:
        """Chern character of the cotangent bundle: the dual of the tangent
        class sum_i ((n_i + 1) e^(h_i) - 1), from the Euler sequence
        0 -> O -> O(1)^(n_i + 1) -> T -> 0 of each factor."""
        if self.divisor is not None:
            raise Unsupported("cotangent classes are only set up on product spaces")
        one = CohClass.one(self.ring)
        tangent = CohClass(self.ring)
        for i, n in enumerate(self.ring):
            e_h = _line_series(CohClass.generator(self.ring, i), _EXP)
            tangent = tangent + e_h.scale(n + 1) - one
        return tangent.dual()


def generalized_binomial(top: int, k: int) -> Fraction:
    """binomial(top, k) for any integer top, nonnegative k."""
    num = Fraction(1)
    for j in range(k):
        num *= Fraction(top - j, j + 1)
    return num


def chi_product_line_oracle(dims, degrees) -> Fraction:
    """chi of O(d_1..d_m) on a product of projective spaces, by the closed
    binomial formula factor by factor; independent of any integral."""
    out = Fraction(1)
    for n, d in zip(dims, degrees):
        out *= generalized_binomial(d + n, n)
    return out


QUINTIC_CONTEXT_DIMS = (1, 4)
QUINTIC_CONTEXT_DEGREE = (2, 5)


@functools.cache
def cy_hypersurface_context() -> VarietyContext:
    """The smooth (2,5) divisor in P^1 x P^4, a Calabi Yau fourfold, built
    once per process."""
    return VarietyContext.hypersurface_in_product(QUINTIC_CONTEXT_DIMS,
                                                  QUINTIC_CONTEXT_DEGREE)


def structure_sheaf_chi_check() -> dict:
    """chi(O_X, O_X) two ways: the Riemann Roch integral on the divisor and
    the ambient route 1 - chi_W(O(-2,-5)) by the binomial oracle."""
    ctx = cy_hypersurface_context()
    o = ctx.line_bundle((0, 0))
    direct = ctx.chi(o, o)
    oracle = 1 - chi_product_line_oracle(QUINTIC_CONTEXT_DIMS,
                                         tuple(-k for k in QUINTIC_CONTEXT_DEGREE))
    return {"direct": direct, "oracle": oracle, "ok": direct == oracle}


def liqin_case(eps1: int, eps2: int) -> dict:
    """Euler pairing and expected deformation dimension for the two term
    extension class on the (2,5) fourfold, one case per (eps1, eps2) in
    {0,1}^2.

    Two values of k are reported: the one obtained from chi by k = (2 -
    chi)/2, and the closed binomial expression (1 + eps1) * C(6 - eps2, 4).
    The sources disagree for (0, 1); both numbers are surfaced on purpose.
    An odd chi cannot be halved, a broken invariant: InternalInconsistency.
    """
    if eps1 not in (0, 1) or eps2 not in (0, 1):
        raise ValueError("eps1 and eps2 must be 0 or 1")
    ctx = cy_hypersurface_context()
    e = ctx.line_bundle((-1, 1)) + ctx.line_bundle((eps1 + 1, eps2 - 1))
    chi = ctx.chi(e, e)
    if (2 - chi) % 2 != 0:
        raise InternalInconsistency(f"chi = {chi} is odd, cannot halve")
    k = (2 - chi) // 2
    k_binomial = (1 + eps1) * int(generalized_binomial(6 - eps2, 4))
    return {"eps1": eps1, "eps2": eps2, "chi": chi, "k": int(k),
            "k_binomial": k_binomial, "agree": int(k) == k_binomial}


def vdim_ideal_cy4(n: int, h02: int) -> dict:
    """Real virtual half dimension for n points, by holonomy type.

    h02 = 0 is full SU(4) holonomy, h02 = 1 the hyperkaehler case; the Euler
    pairing chi(I, I) = -2n + 2 + h02 gives the dimension as 2 - chi.
    """
    if n < 0:
        raise ValueError("point count must be nonnegative")
    if h02 not in (0, 1):
        raise ValueError("h02 must be 0 or 1")
    chi = -2 * n + 2 + h02
    return {"n": n, "h02": h02, "chi": chi, "vdim": 2 - chi}


@functools.cache
def projective_plane_context() -> VarietyContext:
    """The projective plane, built once per process."""
    return VarietyContext.product_space((2,))


@functools.cache
def _plane_classes() -> tuple[VarietyContext, CohClass, Fraction]:
    """The plane with its cotangent class and Euler number, built once per
    process."""
    ctx = projective_plane_context()
    return ctx, ctx.cotangent_sheaf_class(), ctx.euler_number()


def surface_obstruction_identity(c) -> dict:
    """Both sides of the obstruction dimension identity on the plane.

    For a sheaf class ch = (r, a h, b h^2) the left side is
    -chi(F, F tensor cotangent) and the right side -2 chi(F, F) + r^2 e(S);
    they agree for every class, which is what the reduced theory needs.
    """
    r, a, b = c
    ctx, omega, e_s = _plane_classes()
    ring = ctx.ring
    h = CohClass.generator(ring, 0)
    ch = (CohClass.one(ring).scale(Fraction(r)) + h.scale(Fraction(a))
          + (h * h).scale(Fraction(b)))
    lhs = -ctx.chi(ch, ch * omega)
    rhs = -2 * ctx.chi(ch, ch) + Fraction(r) ** 2 * e_s
    return {"c": tuple(c), "lhs": lhs, "rhs": rhs, "euler": e_s, "ok": lhs == rhs}
