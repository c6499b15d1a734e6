"""Laurent ring, linear forms, and factored weight products."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from dt4calc.errors import InternalInconsistency, NonGenericParameters
from dt4calc.exact import (FactoredWeightProduct, Laurent, LinForm,
                           exp_cy_reduce, integer_scaling, weight_of)

DEFAULT_S = (Fraction(1), Fraction(2), Fraction(3), Fraction(-6))

exps = st.tuples(*[st.integers(-3, 3)] * 4)
coeffs = st.fractions(min_value=-8, max_value=8, max_denominator=6)


@st.composite
def laurents(draw):
    n = draw(st.integers(0, 4))
    terms = {}
    for _ in range(n):
        terms[draw(exps)] = draw(coeffs)
    return Laurent(terms)


@settings(max_examples=60, deadline=None)
@given(laurents(), laurents(), laurents())
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + Laurent.zero() == a
    assert a * Laurent.one() == a
    assert a - a == Laurent.zero()


@settings(max_examples=60, deadline=None)
@given(laurents(), laurents())
def test_bar_is_a_ring_involution(a, b):
    assert a.bar().bar() == a
    assert (a + b).bar() == a.bar() + b.bar()
    assert (a * b).bar() == a.bar() * b.bar()


@settings(max_examples=60, deadline=None)
@given(laurents(), laurents())
def test_cy_reduce_is_an_idempotent_homomorphism(a, b):
    assert a.cy_reduce().cy_reduce() == a.cy_reduce()
    assert (a + b).cy_reduce() == a.cy_reduce() + b.cy_reduce()
    assert (a * b).cy_reduce() == (a.cy_reduce() * b.cy_reduce()).cy_reduce()


def test_cy_reduce_kills_the_determinant_character():
    kappa = Laurent.monomial((1, 1, 1, 1))
    assert kappa.cy_reduce() == Laurent.one()
    assert exp_cy_reduce((2, 0, 1, 1)) == (1, -1, 0, 0)


def test_monomial_arithmetic_and_string():
    t1 = Laurent.variable(1)
    t2 = Laurent.variable(2)
    p = t1 * t2 + 2 * t2
    assert p.coeff((1, 1, 0, 0)) == 1
    assert p.coeff((0, 1, 0, 0)) == 2
    assert str(Laurent.variable(1, -1) + 2 * t2) == "t1^-1 + 2*t2"
    assert str(Laurent.zero()) == "0"


def test_effectivity_predicates():
    assert (Laurent.variable(1) + Laurent.variable(2)).is_effective_integral()
    assert not (Laurent.variable(1) - Laurent.variable(2)).is_effective_integral()
    assert not Laurent({(1, 0, 0, 0): Fraction(1, 2)}).is_effective_integral()
    assert Laurent({(1, 0, 0, 0): Fraction(1, 2)}).has_integral_coeffs() is False


@settings(max_examples=60, deadline=None)
@given(exps, exps)
def test_weight_of_turns_products_into_sums(e, f):
    combined = tuple(x + y for x, y in zip(e, f))
    assert weight_of(combined) == weight_of(e) + weight_of(f)


def test_linform_equality_lives_on_the_subtorus():
    # adding a multiple of s1+s2+s3+s4 does not change the form
    assert LinForm((1, 0, 0, 0)) == LinForm((2, 1, 1, 1))
    assert LinForm((1, 1, 1, 1)).is_zero()
    assert hash(LinForm((1, 0, 0, 0))) == hash(LinForm((2, 1, 1, 1)))


def test_linform_canonical_representative():
    w = LinForm((0, 0, 0, 1))  # reduced (-1, -1, -1)
    rep, sign = w.canonical()
    assert sign == -1 and rep == -w and rep.is_canonical()
    zero = LinForm((1, 1, 1, 1))
    assert zero.canonical() == (zero, 1)


def test_linform_evaluate_and_str():
    w = LinForm((1, 1, 0, 0))
    assert w.evaluate(DEFAULT_S) == 3
    assert str(w) == "s1 + s2"
    assert str(LinForm((0, 0, 0, 1))) == "-s1 - s2 - s3"


def test_weight_product_single_pair_value():
    fwp = FactoredWeightProduct.identity().times_weight(LinForm((1, 1, 0, 0)))
    assert fwp.evaluate(DEFAULT_S) == 3


def test_weight_product_all_four_coordinates():
    fwp = FactoredWeightProduct.identity()
    for i in range(4):
        e = [0] * 4
        e[i] = 1
        w, sign = LinForm(e).canonical()
        fwp = fwp.times_weight(w)
        if sign < 0:
            fwp = fwp.negated()
    assert fwp.evaluate(DEFAULT_S) == 1 * 2 * 3 * -6


def test_weight_product_vanishing_factor_raises():
    fwp = FactoredWeightProduct.identity().times_weight(
        LinForm((1, 1, -1, 0)).canonical()[0])
    with pytest.raises(NonGenericParameters):
        fwp.evaluate(DEFAULT_S)


def test_weight_product_zero_flag():
    fwp = FactoredWeightProduct.identity().times_weight(LinForm((1, 1, 1, 1)))
    assert fwp.zero
    assert fwp.evaluate(DEFAULT_S) == 0
    assert FactoredWeightProduct.zero_product().degree() == 0


def test_weight_product_denominator_factors():
    w = LinForm((1, 0, 0, 0))
    fwp = FactoredWeightProduct.identity().times_weight(w, -1)
    assert fwp.evaluate(DEFAULT_S) == 1
    assert fwp.degree() == -1
    with pytest.raises(InternalInconsistency):
        FactoredWeightProduct.identity().times_weight(LinForm((1, 1, 1, 1)), -1)


def test_weight_product_multiplicities_cancel():
    w = LinForm((1, 0, 0, 0))
    fwp = FactoredWeightProduct.identity().times_weight(w, 2).times_weight(w, -1)
    assert fwp.factors == {w: 1}
    assert fwp.times_weight(w, -1).factors == {}
    assert fwp.degree() == 1


def test_linform_evaluate_is_exact_for_ints_and_fractions():
    w = LinForm((2, -1, 0, 3))
    assert w.evaluate((1, 7, 41, -49)) == 2 - 7 - 147
    assert type(w.evaluate((1, 7, 41, -49))) is int
    half = w.evaluate((Fraction(1, 2), Fraction(1, 3), Fraction(1, 6), Fraction(-1)))
    assert half == Fraction(-7, 3) and type(half) is Fraction


def test_integer_scaling():
    assert integer_scaling((1, 7, 41, -49)) == (1, (1, 7, 41, -49))
    assert integer_scaling((Fraction(1, 4), Fraction(-1, 6), 0, Fraction(-1, 12))) == (
        12, (3, -2, 0, -1))


forms = st.tuples(*[st.integers(-3, 3)] * 4).map(LinForm).filter(lambda w: not w.is_zero())
small_rationals = st.fractions(min_value=-20, max_value=20, max_denominator=9)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(forms, st.integers(-3, 3)), max_size=5),
       st.tuples(small_rationals, small_rationals, small_rationals))
def test_weight_product_matches_fraction_arithmetic(factors, head):
    s = head + (-sum(head),)
    fwp = FactoredWeightProduct()
    for w, m in factors:
        fwp = fwp.times_weight(w, m)
    values = {w: sum((Fraction(a) * x for a, x in zip(w.a, s)), Fraction(0))
              for w in fwp.factors}
    if any(v == 0 for v in values.values()):
        with pytest.raises(NonGenericParameters):
            fwp.evaluate(s)
        return
    expected = Fraction(fwp.sign)
    for w, m in fwp.factors.items():
        expected *= values[w] ** m
    assert fwp.evaluate(s) == expected


def test_weight_product_stays_exact_at_integer_parameters():
    # an integer weight value to a negative power would be a float
    fwp = FactoredWeightProduct.identity().times_weight(LinForm((1, 0, 0, 0)), -2)
    value = fwp.evaluate((3, 1, 1, -5))
    assert value == Fraction(1, 9) and type(value) is Fraction


mixed_coeffs = st.one_of(st.integers(-8, 8),
                         st.fractions(min_value=-8, max_value=8, max_denominator=6))


def _ref_clean(terms):
    return {e: Fraction(c) for e, c in terms.items() if c}


def _ref_add(p, q):
    out = dict(p)
    for e, c in q.items():
        out[e] = out.get(e, Fraction(0)) + c
    return _ref_clean(out)


def _ref_mul(p, q):
    out = {}
    for ea, ca in p.items():
        for eb, cb in q.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            out[e] = out.get(e, Fraction(0)) + ca * cb
    return _ref_clean(out)


def _ref_cy_reduce(p):
    out = {}
    for e, c in p.items():
        r = exp_cy_reduce(e)
        out[r] = out.get(r, Fraction(0)) + c
    return _ref_clean(out)


def _normal_coefficients(p: Laurent) -> bool:
    """Every coefficient an int, or a Fraction that is not an integer."""
    return all(type(c) is int or (type(c) is Fraction and c.denominator != 1)
               for c in p.terms.values())


@settings(max_examples=150, deadline=None)
@given(st.dictionaries(exps, mixed_coeffs, max_size=5),
       st.dictionaries(exps, mixed_coeffs, max_size=5), mixed_coeffs)
def test_laurent_matches_a_fraction_reference(a, b, c):
    pa, pb = Laurent(a), Laurent(b)
    fa, fb = _ref_clean(a), _ref_clean(b)
    cases = [
        (pa + pb, _ref_add(fa, fb)),
        (pa - pb, _ref_add(fa, {e: -v for e, v in fb.items()})),
        (pa * pb, _ref_mul(fa, fb)),
        (pa.scale(c), _ref_clean({e: c * v for e, v in fa.items()})),
        (pa.bar(), {tuple(-x for x in e): v for e, v in fa.items()}),
        (pa.cy_reduce(), _ref_cy_reduce(fa)),
    ]
    for got, want in cases:
        assert got.terms == want
        assert _normal_coefficients(got)
    total = pa.coeff_sum()
    assert total == sum(fa.values(), Fraction(0))
    assert type(total) is int or total.denominator != 1


def test_integral_coefficients_are_ints():
    e = (1, 0, 0, 0)
    assert type(Laurent({e: Fraction(4, 2)}).coeff(e)) is int
    assert type(Laurent.monomial(e, Fraction(-3)).coeff(e)) is int
    assert type(Laurent.zero().coeff(e)) is int and type(Laurent.zero().coeff_sum()) is int
    half = Laurent({e: Fraction(1, 2)})
    assert half.coeff(e) == Fraction(1, 2)
    assert type((half + half).coeff(e)) is int and (half + half).coeff(e) == 1
    assert type((half * 2).coeff(e)) is int
    assert type(Laurent.one().coeff_sum()) is int


@settings(max_examples=200, deadline=None)
@given(st.tuples(*[st.integers(-5, 5)] * 4), st.integers(-5, 5),
       st.tuples(small_rationals, small_rationals, small_rationals),
       st.permutations(range(4)))
def test_linform_stores_one_representative_per_class(a, shift, head, perm):
    w = LinForm(a)
    moved = LinForm(x + shift for x in a)
    assert w == moved and hash(w) == hash(moved) and w.a == moved.a
    assert min(w.a) == 0
    assert w.reduced == (a[0] - a[3], a[1] - a[3], a[2] - a[3])
    assert w.is_zero() == (len(set(a)) == 1)
    s = head + (-sum(head),)
    assert w.evaluate(s) == sum(Fraction(x) * y for x, y in zip(a, s))
    assert (-w).reduced == tuple(-x for x in w.reduced) and -(-w) == w
    assert LinForm(w.a[i] for i in perm) == LinForm(a[i] for i in perm)
    rep, sign = w.canonical()
    assert rep.reduced == tuple(sign * x for x in w.reduced)
    assert next((x > 0 for x in rep.reduced if x), True)
    assert w.is_canonical() == (sign == 1)
