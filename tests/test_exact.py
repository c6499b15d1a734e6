"""Laurent ring, weight triples and codes, and the factored weight product of
a summand."""

from collections import Counter
from fractions import Fraction
from itertools import product
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from dt4calc.characters import subtorus_code
from dt4calc.errors import InternalInconsistency, NonGenericParameters
from dt4calc.exact import Laurent, LinForm, form_str, integer_scaling, unpack
from dt4calc.localize import Summand, TorusParams, half_euler

DEFAULT_S = (Fraction(1), Fraction(2), Fraction(3), Fraction(-6))
BASE = 41  # digits up to 20, above every coefficient these tests use

exps = st.tuples(*[st.integers(-3, 3)] * 4)
coeffs = st.integers(-8, 8)


def reduced(a) -> tuple[int, int, int]:
    """The reduced triple of the form a1*s1 + ... + a4*s4 modulo
    s1 + s2 + s3 + s4 = 0, from its coefficient 4-vector."""
    return (a[0] - a[3], a[1] - a[3], a[2] - a[3])


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
    assert a + Laurent() == a
    assert a * Laurent({(0, 0, 0, 0): 1}) == a
    assert a - a == Laurent()


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
    assert kappa.cy_reduce() == Laurent({(0, 0, 0, 0): 1})
    assert Laurent.monomial((2, 0, 1, 1)).cy_reduce() == Laurent.monomial((1, -1, 0, 0))


def test_monomial_arithmetic_and_string():
    t1 = Laurent.monomial((1, 0, 0, 0))
    t2 = Laurent.monomial((0, 1, 0, 0))
    p = t1 * t2 + t2 + t2
    assert p.terms.get((1, 1, 0, 0), 0) == 1
    assert p.terms.get((0, 1, 0, 0), 0) == 2
    assert str(Laurent.monomial((-1, 0, 0, 0)) + t2 + t2) == "t1^-1 + 2*t2"
    assert str(Laurent()) == "0"


@settings(max_examples=60, deadline=None)
@given(exps, exps)
def test_codes_turn_products_into_sums(e, f):
    combined = tuple(x + y for x, y in zip(e, f))
    assert subtorus_code(combined, BASE) == subtorus_code(e, BASE) + subtorus_code(f, BASE)
    assert reduced(combined) == tuple(x + y for x, y in zip(reduced(e), reduced(f)))


def test_subtorus_code_lives_on_the_subtorus():
    # adding a multiple of s1+s2+s3+s4 does not change the code
    assert subtorus_code((2, 1, 1, 1), BASE) == subtorus_code((1, 0, 0, 0), BASE)
    assert subtorus_code((1, 1, 1, 1), BASE) == 0


def test_code_sign_picks_the_canonical_representative():
    # the positive one of (w, -w) is the one with a positive code, which is
    # the one whose triple is above (0, 0, 0)
    for r in product(range(-3, 4), repeat=3):
        code = subtorus_code(r + (0,), BASE)
        assert (code > 0) == (r > (0, 0, 0))
        assert unpack(code, 3, BASE) == r


def test_linform_evaluate_and_form_str():
    w = reduced((1, 1, 0, 0))
    assert LinForm(w).evaluate(DEFAULT_S) == 3
    assert form_str(w) == "s1 + s2"
    assert form_str(reduced((0, 0, 0, 1))) == "-s1 - s2 - s3"
    assert form_str(reduced((3, 3, 3, 3))) == "0"
    assert form_str((-1, 0, 2), sep="") == "-s1+2*s3"


def codes(weights) -> Counter:
    """Bare weight triples packed as a fixed point packs its characters."""
    return Counter(subtorus_code(w + (0,), BASE) for w in weights)


def weight_product(tangent=(), obstruction=()) -> Summand:
    """The summand record of +-e(obstruction)^(1/2) / e(tangent), from bare
    weights."""
    return Summand(SimpleNamespace(base=BASE, e1=codes(tangent), e2=codes(obstruction)))


def neg(w: tuple[int, int, int]) -> tuple[int, int, int]:
    return tuple(-x for x in w)


def pairs(*forms):
    return [x for w in forms for x in (w, neg(w))]


def test_weight_product_single_pair_value():
    w = reduced((1, 1, 0, 0))
    record = weight_product(obstruction=pairs(w))
    assert (record.factors, len(record.factors)) == ((w,), 1)
    assert record.value(TorusParams(DEFAULT_S)) == 3
    assert record.value(TorusParams(DEFAULT_S), -1) == -3


def test_weight_product_all_four_coordinates():
    # s4 is not a canonical form: the pair (s4, -s4) is stored as -s4
    coords = [reduced(e) for e in ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))]
    factors = half_euler(codes(pairs(*coords)))
    assert dict(factors) == codes(coords[:3] + [neg(coords[3])])
    assert all(k > 0 and m == 1 for k, m in factors)
    record = weight_product(obstruction=pairs(*coords))
    assert all(w > (0, 0, 0) for w in record.factors)
    assert len(record.factors) == len(set(record.factors)) == 4
    assert set(record.factors) == set(coords[:3] + [neg(coords[3])])
    assert record.value(TorusParams(DEFAULT_S)) == 1 * 2 * 3 * 6


def test_weight_product_vanishing_factor_raises():
    w = reduced((1, 1, -1, 0))  # s1 + s2 - s3 vanishes at (1, 2, 3, -6)
    with pytest.raises(NonGenericParameters):
        weight_product(tangent=[w]).value(TorusParams(DEFAULT_S))
    # a vanishing numerator factor only makes the summand zero
    assert weight_product(tangent=[reduced((1, 0, 0, 0))],
                          obstruction=pairs(w)).value(TorusParams(DEFAULT_S)) == 0


def test_weight_product_zero_factor():
    w, zero = reduced((1, 1, 0, 0)), reduced((1, 1, 1, 1))
    # the zero weight is its own pair: two of them give one zero factor
    assert half_euler(codes(pairs(w) + [zero, zero])) == ((0, 1), (subtorus_code(w + (0,), BASE), 1))
    record = weight_product(tangent=[reduced((1, 0, 0, 0))], obstruction=pairs(w) + [zero, zero])
    assert (record.factors, len(record.factors)) == (((0, 0, 0), w), 2)
    assert record.value(TorusParams(DEFAULT_S)) == 0
    assert record.value(TorusParams(DEFAULT_S), -1) == 0
    # a zero form is never a tangent factor
    with pytest.raises(InternalInconsistency):
        weight_product(tangent=[zero])


def test_weight_product_denominator_factors():
    s1, s2 = reduced((1, 0, 0, 0)), reduced((0, 1, 0, 0))
    record = weight_product(tangent=[s1, s2, s2])
    # repeated by multiplicity, and sorted by reduced coefficients as in
    # every record
    assert record.tangent == (s2, s2, s1)
    assert (len(record.tangent), len(record.factors)) == (3, 0)
    assert record.value(TorusParams(DEFAULT_S)) == Fraction(1, 4)


def test_weight_product_multiplicities_cancel():
    s1, s4 = reduced((1, 0, 0, 0)), reduced((0, 0, 0, 1))
    # repeated pairs add up to one factor
    (k1, _), (k4, _) = codes([s1, neg(s4)]).items()
    assert half_euler(codes(pairs(s1, s1) + [s4, neg(s4)])) == ((k1, 2), (k4, 1))
    # a factor over the same tangent weight cancels to 1, or to -1 when the
    # stored canonical form is the opposite of the tangent weight
    assert weight_product(tangent=[s1], obstruction=pairs(s1)).value(TorusParams(DEFAULT_S)) == 1
    assert weight_product(tangent=[s4], obstruction=pairs(s4)).value(TorusParams(DEFAULT_S)) == -1


def test_weight_product_stays_exact_at_integer_parameters():
    # an integer weight value to a negative power would be a float
    value = weight_product(tangent=[reduced((1, 0, 0, 0))] * 2).value(TorusParams((3, 1, 1, -5)))
    assert value == Fraction(1, 9) and type(value) is Fraction


def test_linform_evaluate_is_exact_for_ints_and_fractions():
    w = LinForm(reduced((2, -1, 0, 3)))
    assert w.evaluate((1, 7, 41, -49)) == 2 - 7 - 147
    assert type(w.evaluate((1, 7, 41, -49))) is int
    half = w.evaluate((Fraction(1, 2), Fraction(1, 3), Fraction(1, 6), Fraction(-1)))
    assert half == Fraction(-7, 3) and type(half) is Fraction


def test_integer_scaling():
    assert integer_scaling((1, 7, 41, -49)) == (1, (1, 7, 41, -49))
    assert integer_scaling((Fraction(1, 4), Fraction(-1, 6), 0, Fraction(-1, 12))) == (
        12, (3, -2, 0, -1))


forms = st.tuples(*[st.integers(-3, 3)] * 4).map(reduced).filter(lambda w: w != (0, 0, 0))
small_rationals = st.fractions(min_value=-20, max_value=20, max_denominator=9)


@settings(max_examples=200, deadline=None)
@given(st.lists(forms, max_size=4), st.lists(st.tuples(forms, st.integers(1, 3)), max_size=4),
       st.tuples(small_rationals, small_rationals, small_rationals), st.sampled_from((1, -1)))
def test_weight_product_matches_fraction_arithmetic(tangent, halves, head, orientation):
    s = head + (-sum(head),)
    record = weight_product(tangent, [x for w, m in halves for x in pairs(w) * m])
    assert len(record.factors) == sum(m for _, m in halves)
    assert len(record.tangent) == len(tangent)

    def value(w):
        return sum((Fraction(a) * x for a, x in zip(w + (0,), s)), Fraction(0))

    if any(value(w) == 0 for w in tangent):
        with pytest.raises(NonGenericParameters):
            record.value(TorusParams(s), orientation)
        return
    expected = Fraction(orientation)
    for w, m in halves:
        expected *= (value(w) if w > (0, 0, 0) else -value(w)) ** m
    for w in tangent:
        expected /= value(w)
    assert record.value(TorusParams(s), orientation) == expected

def _ref_clean(terms):
    return {e: c for e, c in terms.items() if c}


def _ref_add(p, q):
    out = dict(p)
    for e, c in q.items():
        out[e] = out.get(e, 0) + c
    return _ref_clean(out)


def _ref_mul(p, q):
    out = {}
    for ea, ca in p.items():
        for eb, cb in q.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            out[e] = out.get(e, 0) + ca * cb
    return _ref_clean(out)


def _ref_cy_reduce(p):
    out = {}
    for e, c in p.items():
        r = (e[0] - e[3], e[1] - e[3], e[2] - e[3], 0)
        out[r] = out.get(r, 0) + c
    return _ref_clean(out)


@settings(max_examples=150, deadline=None)
@given(st.dictionaries(exps, coeffs, max_size=5), st.dictionaries(exps, coeffs, max_size=5))
def test_laurent_matches_a_dict_reference(a, b):
    pa, pb = Laurent(a), Laurent(b)
    fa, fb = _ref_clean(a), _ref_clean(b)
    cases = [
        (pa + pb, _ref_add(fa, fb)),
        (pa - pb, _ref_add(fa, {e: -v for e, v in fb.items()})),
        (pa * pb, _ref_mul(fa, fb)),
        (pa.bar(), {tuple(-x for x in e): v for e, v in fa.items()}),
        (pa.cy_reduce(), _ref_cy_reduce(fa)),
    ]
    for got, want in cases:
        assert got.terms == want
        assert all(type(c) is int for c in got.terms.values())
    total = sum(pa.terms.values())
    assert total == sum(fa.values()) and type(total) is int


def test_laurent_takes_only_int_coefficients():
    e = (1, 0, 0, 0)
    for c in (Fraction(1, 2), Fraction(4, 2)):
        with pytest.raises(TypeError):
            Laurent({e: c})
    assert type(Laurent().terms.get(e, 0)) is int and type(sum(Laurent().terms.values())) is int


@settings(max_examples=200, deadline=None)
@given(st.tuples(*[st.integers(-5, 5)] * 4), st.integers(-5, 5),
       st.tuples(small_rationals, small_rationals, small_rationals),
       st.permutations(range(4)))
def test_reduced_triple_is_one_representative_per_class(a, shift, head, perm):
    w = reduced(a)
    assert w == reduced(tuple(x + shift for x in a))
    assert (w == (0, 0, 0)) == (len(set(a)) == 1)
    s = head + (-sum(head),)
    assert LinForm(w).evaluate(s) == sum(Fraction(x) * y for x, y in zip(a, s))
    v = w + (0,)
    assert reduced([v[i] for i in perm]) == reduced([a[i] for i in perm])
