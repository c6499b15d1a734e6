"""Intersection theory on products of projective spaces and hypersurfaces."""

import hashlib
import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dt4calc import chow
from dt4calc.chow import (CohClass, VarietyContext, chi_product_line_oracle,
                          cy_hypersurface_context, generalized_binomial,
                          liqin_case, projective_plane_context,
                          structure_sheaf_chi_check, surface_obstruction_identity,
                          vdim_ideal_cy4)
from dt4calc.errors import Unsupported
from dt4calc.suite import run_suite


def test_euler_pairing_table_all_four_cases():
    expected = {(0, 0): (-26, 14, 15), (0, 1): (-6, 4, 5),
                (1, 0): (-56, 29, 30), (1, 1): (-16, 9, 10)}
    for (e1, e2), (chi, k, kb) in expected.items():
        rep = liqin_case(e1, e2)
        assert rep["chi"] == chi
        assert rep["k"] == k
        assert rep["k_binomial"] == kb
        assert rep["agree"] is False  # the closed form sits one above k


def test_euler_pairing_rejects_bad_twists():
    with pytest.raises(ValueError):
        liqin_case(2, 0)
    with pytest.raises(ValueError):
        liqin_case(0, -1)


def test_structure_sheaf_euler_characteristic():
    rep = structure_sheaf_chi_check()
    assert rep["direct"] == 2
    assert rep["oracle"] == 2
    assert rep["ok"]


def test_projective_space_line_bundles_match_binomials():
    ctx = VarietyContext.product_space((4,))
    o = ctx.line_bundle((0,))
    for d in range(-6, 7):
        direct = ctx.chi(o, ctx.line_bundle((d,)))
        assert direct == generalized_binomial(d + 4, 4)
        assert direct == chi_product_line_oracle((4,), (d,))


def test_product_space_kuenneth_factorization():
    ctx = VarietyContext.product_space((1, 4))
    o = ctx.line_bundle((0, 0))
    for p in range(-3, 3):
        for q in range(-6, 3):
            direct = ctx.chi(o, ctx.line_bundle((p, q)))
            assert direct == chi_product_line_oracle((1, 4), (p, q))
    assert ctx.chi(o, ctx.line_bundle((-2, -5))) == -1


def test_structure_sheaf_via_ambient_exact_sequence():
    # chi_X(O) = chi_W(O) - chi_W(O(-D)) for X of degree D in W
    ambient = VarietyContext.product_space((1, 4))
    o = ambient.line_bundle((0, 0))
    chi_w = ambient.chi(o, o)
    chi_wd = ambient.chi(o, ambient.line_bundle((-2, -5)))
    x = cy_hypersurface_context()
    assert x.integrate(x.todd) == chi_w - chi_wd == 2


# sha256 of the 256 values chi(O(a), O(b)) on the (2,5) fourfold, for a and
# b in {-1..2}^2, one str per line in itertools.product order; recorded while
# a ring and a K-theory class were still wrapper classes, so the tuple ring
# and the bare Chern character are checked against values they did not make
CHI_GRID_SHA256 = "cc66f922891e77ad07d817b57186770d311a43402776a1fc874d0a69f7d2fb0c"


def test_hypersurface_chi_grid_is_pinned():
    ctx = cy_hypersurface_context()
    degrees = list(itertools.product(range(-1, 3), repeat=2))
    text = "\n".join(str(ctx.chi(ctx.line_bundle(a), ctx.line_bundle(b)))
                     for a in degrees for b in degrees)
    assert hashlib.sha256(text.encode()).hexdigest() == CHI_GRID_SHA256


def test_hypersurface_serre_symmetry():
    # trivial canonical bundle forces chi(E,F) = chi(F,E)
    ctx = cy_hypersurface_context()
    bundles = [ctx.line_bundle(d) for d in ((0, 0), (1, 0), (0, 1), (1, 2), (-1, 3))]
    for e, f in itertools.combinations(bundles, 2):
        assert ctx.chi(e, f) == ctx.chi(f, e)


def test_hypersurface_euler_number():
    # adjunction: c4 of the section is 205 b^4 + 350 a b^3 on the ambient
    # space, and integrating against the divisor 2a + 5b gives 410 + 1750
    ctx = cy_hypersurface_context()
    assert ctx.euler_number() == 2160
    assert ctx.dim == 4


def test_virtual_dimension_law():
    for n in range(11):
        for h02 in (0, 1):
            rep = vdim_ideal_cy4(n, h02)
            assert rep["vdim"] == 2 * n - h02
            assert rep["chi"] == 2 - rep["vdim"]


def test_projective_four_space_todd_class_gives_chi_one():
    # top Todd value of projective 4-space integrates to chi(O) = 1
    ctx = VarietyContext.product_space((4,))
    assert ctx.integrate(ctx.todd) == 1


def test_generalized_binomial_values():
    assert generalized_binomial(6, 4) == 15
    assert generalized_binomial(-1, 4) == 1  # (-1)(-2)(-3)(-4)/24
    assert generalized_binomial(-2, 4) == 5  # (-2)(-3)(-4)(-5)/24
    assert generalized_binomial(3, 0) == 1


def test_surface_identity_line_bundle_family():
    for n in range(6):
        rep = surface_obstruction_identity((1, 0, -n))
        assert rep["ok"]
        assert rep["lhs"] == rep["rhs"] == 4 * n + 1


def test_surface_identity_rank_two():
    rep = surface_obstruction_identity((2, 0, 0))
    assert rep["ok"]
    assert rep["lhs"] == rep["rhs"] == 4


def test_surface_identity_fractional_chern_character():
    # the identity is linear-algebraic in the character, so fractional
    # second components must satisfy it as well
    rep = surface_obstruction_identity((2, 1, Fraction(-7, 2)))
    assert rep["ok"]
    assert rep["lhs"] == rep["rhs"]


def test_projective_plane_basics():
    ctx = projective_plane_context()
    assert ctx.euler_number() == 3
    assert ctx.integrate(ctx.todd) == 1


@pytest.mark.parametrize("dims", [(1,), (2,), (4,), (5,), (6,), (8,),
                                  (1, 1), (2, 3), (1, 1, 1)])
def test_cotangent_class_on_plane(dims):
    ctx = VarietyContext.product_space(dims)
    omega = ctx.cotangent_sheaf_class()
    assert omega.degree_zero_value() == ctx.dim
    # on a product of projective spaces h^{p,q} vanishes for p != q, so
    # chi(Omega^1) = -h^{1,1}, minus the number of factors
    o = ctx.line_bundle((0,) * len(dims))
    assert ctx.chi(o, omega) == -len(dims)


def test_cotangent_class_unsupported_on_hypersurface(monkeypatch):
    ctx = cy_hypersurface_context()

    def fail(*args):
        raise AssertionError("class computed before the divisor check")

    monkeypatch.setattr(chow, "_line_series", fail)
    with pytest.raises(Unsupported):
        ctx.cotangent_sheaf_class()


def test_truncation_keeps_classes_inside_the_ring():
    ring = (1, 4)
    a = CohClass.generator(ring, 0)
    assert a.power(2) == CohClass(ring)
    b = CohClass.generator(ring, 1)
    assert b.power(5) == CohClass(ring)
    assert (a * b.power(4)).coefficient((1, 4)) == 1


def test_negative_exponents_are_refused():
    # a monomial below the ring would otherwise survive every product:
    # its square would hold a (-2, 0) term
    for terms in ({(-1, 0): 3}, {(0, -1): 0}, {(0, 0): 1, (2, -1): 1}):
        with pytest.raises(ValueError, match="negative exponent"):
            CohClass((1, 4), terms)


RINGS = [(1, 4), (2,), (4,), (1, 1, 2)]
COEFFS = st.builds(Fraction, st.integers(-40, 40), st.integers(1, 12))


def _reference(ring, terms):
    """The class as a dict of nonzero Fraction terms inside the ring."""
    return {m: Fraction(c) for m, c in terms.items()
            if c and all(e <= n for e, n in zip(m, ring))}


def _reference_mul(ring, a, b):
    out = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            mono = tuple(x + y for x, y in zip(ma, mb))
            out[mono] = out.get(mono, 0) + ca * cb
    return _reference(ring, out)


def _terms(x):
    monos = itertools.product(*(range(n + 1) for n in x.ring))
    return {m: x.coefficient(m) for m in monos if x.coefficient(m)}


@st.composite
def class_pairs(draw):
    ring = draw(st.sampled_from(RINGS))
    # exponents one past the top monomial too, which the ring truncates
    monos = st.tuples(*(st.integers(0, n + 1) for n in ring))
    a, b = (draw(st.dictionaries(monos, COEFFS, max_size=6)) for _ in range(2))
    return ring, a, b


@settings(max_examples=150, deadline=None)
@given(class_pairs(), COEFFS, st.integers(0, 4))
def test_class_arithmetic_matches_a_fraction_dict_reference(pair, c, k):
    ring, ta, tb = pair
    a, b = CohClass(ring, ta), CohClass(ring, tb)
    ra, rb = _reference(ring, ta), _reference(ring, tb)
    assert _terms(a) == ra
    assert _terms(a + b) == _reference(ring, {m: ra.get(m, 0) + rb.get(m, 0)
                                              for m in ra.keys() | rb.keys()})
    assert _terms(a - b) == _reference(ring, {m: ra.get(m, 0) - rb.get(m, 0)
                                              for m in ra.keys() | rb.keys()})
    assert _terms(a * b) == _reference_mul(ring, ra, rb)
    assert _terms(a.scale(c)) == _reference(ring, {m: v * c for m, v in ra.items()})
    power = {(0,) * len(ring): Fraction(1)}
    for _ in range(k):
        power = _reference_mul(ring, power, ra)
    assert _terms(a.power(k)) == power
    assert _terms(a.dual()) == {m: -v if sum(m) % 2 else v for m, v in ra.items()}
    for degree in range(sum(ring) + 2):
        assert _terms(a.component(degree)) == {m: v for m, v in ra.items()
                                               if sum(m) == degree}
    assert a.degree_zero_value() == ra.get((0,) * len(ring), 0)
    for mono in ta:
        assert a.coefficient(mono) == ra.get(mono, 0)
    # equal values are equal classes, however they were reached
    assert a.scale(Fraction(1, 3)).scale(3) == a
    assert (a + b) - b == a
    assert a * b == b * a
    assert a + a == a.scale(2)
    assert a * CohClass.one(ring) == a
    assert CohClass(ring, _terms(a)) == a
    assert a - a == CohClass(ring) == a.scale(0)


def test_sheaf_class_dual_and_tensor():
    ctx = cy_hypersurface_context()
    e = ctx.line_bundle((1, 2))
    f = ctx.line_bundle((0, 1))
    assert e.dual().component(1) == e.component(1).scale(-1)
    assert (e * f).component(1) == e.component(1) + f.component(1)
    assert (e * e.dual()).component(1) == CohClass(ctx.ring)
    assert e.dual().component(2) == e.component(2)
    assert e.dual().dual() == e


def test_line_series_reject_a_constant_term():
    ring = (1, 4)
    with pytest.raises(ValueError):
        chow._line_series(CohClass.one(ring), chow._EXP)


@pytest.mark.parametrize("dims", [(), (0,), (2, -1), (4, 4, 1)])
def test_product_space_checks_its_dimensions(dims):
    with pytest.raises(ValueError):
        VarietyContext.product_space(dims)


def test_suite_builds_each_context_once(monkeypatch):
    built = []
    hypersurface = VarietyContext.hypersurface_in_product
    product_space = VarietyContext.product_space

    def count_hypersurface(*args):
        built.append(("hypersurface",) + args)
        return hypersurface(*args)

    def count_product(*args):
        built.append(("product",) + args)
        return product_space(*args)

    monkeypatch.setattr(VarietyContext, "hypersurface_in_product",
                        staticmethod(count_hypersurface))
    monkeypatch.setattr(VarietyContext, "product_space", staticmethod(count_product))
    cy_hypersurface_context.cache_clear()
    projective_plane_context.cache_clear()
    chow._plane_classes.cache_clear()
    assert all(row["ok"] for row in run_suite())
    assert [b for b in built if b[0] == "hypersurface"] == [("hypersurface", (1, 4), (2, 5))]
    assert [b for b in built if b[0] == "product"] == [("product", (1, 4)),
                                                       ("product", (2,))]


def test_cached_contexts_match_fresh_ones_after_the_suite():
    run_suite()
    cached = cy_hypersurface_context()
    fresh = VarietyContext.hypersurface_in_product((1, 4), (2, 5))
    assert cached is cy_hypersurface_context()
    assert cached.ring == fresh.ring
    assert cached.todd == fresh.todd
    assert cached.tangent_chern == fresh.tangent_chern
    assert cached.divisor == fresh.divisor
    plane = projective_plane_context()
    fresh_plane = VarietyContext.product_space((2,))
    assert plane is projective_plane_context()
    assert plane.todd == fresh_plane.todd
    assert plane.tangent_chern == fresh_plane.tangent_chern
    assert plane.divisor is None
    assert chow._plane_classes() == (plane, fresh_plane.cotangent_sheaf_class(),
                                     fresh_plane.euler_number())


def test_suite_twice_in_one_process_agrees():
    assert run_suite() == run_suite()
