"""Fixed point data, half Euler classes, and the degree-0 series."""

import hashlib
import itertools
import json
import operator
import os
import subprocess
import sys
import textwrap
from collections import Counter
from fractions import Fraction
from math import prod
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dt4calc import characters, cli, exact, localize, partitions, taylor
from dt4calc.characters import (MAX_N, mirrored, pack_moved, subtorus_code, subtorus_triple,
                                torus_code, unpack_terms)
from dt4calc.chow import CohClass, cy_hypersurface_context, vdim_ideal_cy4
from dt4calc.cli import main, series_payload
from dt4calc.errors import BoundExceeded, InternalInconsistency, NonGenericParameters
from dt4calc.exact import Laurent, form_str
from dt4calc.localize import (FixedPointData, OrientationData, TorusParams,
                              cyclic_completion_report, dt4_degree0_series,
                              Summand, half_euler, obstruction_crosscheck,
                              one_box_symbolic_report, transport_sign,
                              vertex_character, vertex_oracle_check)
from dt4calc.partitions import (DPartition, enumerate_partitions, partition_counts,
                                partition_from_id, partition_levels)
from dt4calc.series import convolution_oracle, goettsche_series
from dt4calc.suite import SUITE_PARAMS, run_suite
from dt4calc.taylor import euler_character, ext_characters

GENERIC = TorusParams((1, 7, 41, -49))
# the permutation of the four axes that moves nothing
IDENTITY = (0, 1, 2, 3)
GENERIC2 = TorusParams((2, 11, 59, -72))

# regression values computed once with this package and checked against a
# second parameter vector for consistency of the underlying rational function
SERIES_GENERIC = [
    Fraction(1),
    Fraction(-2304, 2009),
    Fraction(-545224824, 504510125),
    Fraction(-576945963093774592, 598743836360294625),
]
# c_4 and c_5 at GENERIC, computed when E1 still came from the Taylor complex
SERIES_GENERIC_4_5 = [
    Fraction(-35490597968710892926909828042828802492,
             43683174979237280927469051492078984375),
    Fraction(-10681471901731269329109488398444817403952709711640181596609636608,
             15062921342055043322635976135710279603166887334219980929643359375),
]
SERIES_GENERIC2 = [
    Fraction(1),
    Fraction(-27755, 46728),
    Fraction(-1001804374025, 3070009413504),
    Fraction(-3156762634131742274275, 17310619647421639216128),
]


def one_box_data() -> FixedPointData:
    return FixedPointData(enumerate_partitions(4, 1)[0])


def reduced(a) -> tuple[int, int, int]:
    """The reduced triple of the form a1*s1 + ... + a4*s4 modulo
    s1 + s2 + s3 + s4 = 0, from its coefficient 4-vector."""
    return (a[0] - a[3], a[1] - a[3], a[2] - a[3])


def neg(w: tuple[int, int, int]) -> tuple[int, int, int]:
    return tuple(-x for x in w)


def cy_codes(ch: Laurent) -> dict[int, int]:
    """A character restricted to the subtorus, as `subtorus_code` ->
    multiplicity, with no zero terms."""
    out = Counter()
    for e, c in ch.terms.items():
        out[subtorus_code(e)] += c
    return {k: c for k, c in out.items() if c}


KAPPA_INV = Laurent({(-1, -1, -1, -1): 1})
# (1 - t1^-1)(1 - t2^-1)(1 - t3^-1)(1 - t4^-1): the terms (-1)^|e| t^e
P1234 = Laurent({e: (-1) ** -sum(e) for e in itertools.product((0, -1), repeat=4)})


def laurent_vertex_character(pi: DPartition) -> Laurent:
    """T = Q + bar(Q) kappa^-1 - Q bar(Q) (1 - t1^-1)...(1 - t4^-1) by
    Laurent products, as fixed points built it before T was packed."""
    q = pi.character()
    return q + q.bar() * KAPPA_INV - q * q.bar() * P1234


def test_torus_params_validation():
    with pytest.raises(ValueError):
        TorusParams((1, 2, 3, 4))
    with pytest.raises(ValueError):
        TorusParams.parse("1,2,3")
    p = TorusParams.parse("1/2, 1/3, 1/6, -1")
    assert sum(p.s) == 0
    assert str(TorusParams.default()) == "1,2,3,-6"


def test_orientation_data_validation_and_file(tmp_path):
    for bad in ({"x": 2}, {"0,0,0,0": True}, {"0,0,0,0": 1.0}, {"x": 1},
                {"1,0,0,0": -1}, {"0,0,0,0;0,0,0,0": 1}, {"0,0,0,0;01,0,0,0": 1}):
        with pytest.raises(ValueError):
            OrientationData(bad)
    empty = partition_from_id("empty", 4)
    one_box = partition_from_id("0,0,0,0", 4)
    assert OrientationData({"empty": -1, "0,0,0,0;1,0,0,0": 1}).sign(empty) == -1
    path = tmp_path / "orient.json"
    path.write_text(json.dumps({"0,0,0,0": -1}))
    data = OrientationData.from_file(str(path))
    assert data.sign(one_box) == -1
    assert data.sign(empty) == 1
    path.write_text("[1, 2]")
    with pytest.raises(ValueError):
        OrientationData.from_file(str(path))
    # json.load runs out of recursion depth here, before any decode error
    path.write_text("[" * 100000)
    with pytest.raises(ValueError, match="nested too deeply"):
        OrientationData.from_file(str(path))


def test_vertex_character_one_box():
    data = one_box_data()
    t = vertex_character(data.partition)
    assert sum(t.values()) == 2
    assert data.tvir == unpack_terms(t) == laurent_vertex_character(data.partition)


def test_one_box_tangent_weights():
    data = one_box_data()
    expected = {reduced(e) for e in ((-1, 0, 0, 0), (0, -1, 0, 0),
                                     (0, 0, -1, 0), (0, 0, 0, -1))}
    assert set(data.e1_weights) == expected
    assert len(data.e1_weights) == 4


def test_one_box_obstruction_weights():
    # the six pair sums s_i + s_j; on the subtorus a pair through the fourth
    # coordinate is minus the complementary pair, so three forms appear twice
    data = one_box_data()
    got = sorted(data.e2_weights)
    pairs = [reduced((1, 1, 0, 0)), reduced((1, 0, 1, 0)), reduced((0, 1, 1, 0))]
    expected = sorted(pairs + [neg(w) for w in pairs])
    assert got == expected


def test_one_box_contribution_value():
    data = one_box_data()
    assert data.contribution(TorusParams.default(), 1) == Fraction(-5, 3)
    assert data.contribution(TorusParams.default(), -1) == Fraction(5, 3)


def test_one_box_half_euler_value():
    data = one_box_data()
    factors = half_euler(data.e2)
    assert all(k > 0 for k, _ in factors) and sum(m for _, m in factors) == 3
    # canonical product (s2+s3)(s1+s3)(s1+s2) = 5*4*3; equals -e3 at this s,
    # where e3(1,2,3,-6) = 6 - 12 - 18 - 36 = -60
    assert prod(sum(a * x for a, x in zip(subtorus_triple(k), (1, 2, 3))) ** m
                for k, m in factors) == 60


def test_one_box_symbolic_shape():
    rep = one_box_symbolic_report()
    assert rep["ok"]
    assert rep["numerator_sign"] == -1
    assert rep["denominator_matches"]


ONE_BOX = DPartition(4, [(0, 0, 0, 0)])


def _replace_record(monkeypatch, pi: DPartition, **fields):
    """Make `FixedPointData.summand` of this one point return a copy of its
    record with some fields replaced."""
    summand = FixedPointData.summand
    record = FixedPointData(pi).summand()
    fake = Summand.__new__(Summand)
    for name in Summand.__slots__:
        setattr(fake, name, fields.get(name, getattr(record, name)))
    monkeypatch.setattr(FixedPointData, "summand",
                        lambda data: fake if data.partition == pi else summand(data))


def _report_with(monkeypatch, **fields):
    """The one box report on a copy of its record with some fields replaced."""
    _replace_record(monkeypatch, ONE_BOX, **fields)
    return one_box_symbolic_report()


def test_one_box_symbolic_shape_catches_a_flipped_sign(monkeypatch):
    w, *rest = FixedPointData(ONE_BOX).summand().factors
    rep = _report_with(monkeypatch, factors=(tuple(-x for x in w), *rest))
    assert rep["numerator_sign"] == 1 and rep["ok"]


def test_one_box_symbolic_shape_catches_a_wrong_factor(monkeypatch):
    _, *rest = FixedPointData(ONE_BOX).summand().factors
    rep = _report_with(monkeypatch, factors=((2, 1, 0), *rest))
    assert rep["numerator_sign"] == 0 and not rep["ok"]
    assert not run_suite(only="one-box")[0]["ok"]


def test_one_box_symbolic_shape_catches_a_negated_tangent_weight(monkeypatch):
    w, *rest = FixedPointData(ONE_BOX).summand().tangent
    rep = _report_with(monkeypatch, tangent=(tuple(-x for x in w), *rest))
    assert not rep["denominator_matches"] and not rep["ok"]
    assert not run_suite(only="one-box")[0]["ok"]


FOUR_BOXES = enumerate_partitions(4, 4)[-1]


def test_weight_structure_catches_a_zero_obstruction_form(monkeypatch):
    _, *rest = FixedPointData(FOUR_BOXES).summand().factors
    _replace_record(monkeypatch, FOUR_BOXES, factors=((0, 0, 0), *rest))
    [result] = run_suite(only="weight")
    assert not result["ok"]
    assert result["detail"] == f"{FOUR_BOXES.id()}: trivial sub-representation"


def test_weight_structure_catches_a_dimension_law_failure(monkeypatch):
    tangent = FixedPointData(FOUR_BOXES).summand().tangent
    _replace_record(monkeypatch, FOUR_BOXES, tangent=tangent + tangent[:1])
    [result] = run_suite(only="weight")
    assert not result["ok"]
    assert result["detail"] == f"{FOUR_BOXES.id()}: dimension law"


def test_weight_structure_leaves_the_cache_as_it_is(monkeypatch):
    monkeypatch.setattr(localize, "_SUMMANDS", {})
    [result] = run_suite(only="weight")
    assert result["ok"] and localize._SUMMANDS == {}


def test_symbolic_identity_against_sympy():
    import sympy

    s1, s2, s3 = sympy.symbols("s1 s2 s3")
    s4 = -s1 - s2 - s3
    s = (s1, s2, s3, s4)
    product = (s1 + s2) * (s1 + s3) * (s1 + s4)
    e3 = sum(a * b * c for a, b, c in itertools.combinations(s, 3))
    assert sympy.expand(product - e3) == 0

    data = one_box_data()
    factors = half_euler(data.e2)
    num = sympy.Integer(1)
    for k, m in factors:
        num *= sum(int(c) * v for c, v in zip(subtorus_triple(k), s)) ** m
    den = sympy.Integer(1)
    for w in data.e1_weights:
        den *= sum(int(c) * v for c, v in zip(w, s))
    e4 = s1 * s2 * s3 * s4
    assert sympy.simplify(num / den + e3 / e4) == 0


def test_half_euler_pairing_rules():
    w = subtorus_code((1, 1, 0, 0))  # reduced (1, 1, 0)
    v = subtorus_code((0, 0, 0, 1))  # reduced (-1, -1, -1)
    assert half_euler({w: 1, -w: 1}) == half_euler({-w: 1, w: 1}) == ((w, 1),)
    # a pair is stored by its canonical, positive code, sorted as the forms'
    # reduced coefficients
    assert half_euler({v: 2, -w: 1, -v: 2, w: 1}) == ((w, 1), (-v, 2))
    with pytest.raises(InternalInconsistency, match="weight .* has multiplicity 2 but .* has 1"):
        half_euler({w: 2, -w: 1})


def test_half_euler_zero_weight_is_a_zero_factor():
    # the zero weight is its own pair, so two zero weights give one zero
    # factor, and the record's product vanishes with no flag
    w = subtorus_code((1, 1, 0, 0))
    codes = {0: 2, w: 1, -w: 1}
    assert half_euler(codes) == ((0, 1), (w, 1))
    record = Summand(SimpleNamespace(e1={subtorus_code((1, 0, 0, 0)): 1}, e2=codes))
    assert record.factors == ((0, 0, 0), (1, 1, 0))
    for orientation in (1, -1):
        value = record.value(TorusParams.default(), orientation)
        assert value == 0 and type(value) is Fraction


def test_half_euler_refuses_an_odd_zero_multiplicity():
    # an odd count of zero weights has no square root; halving it would
    # silently drop the zero factor
    with pytest.raises(InternalInconsistency, match="the zero weight has odd multiplicity 1"):
        half_euler({0: 1})
    with pytest.raises(InternalInconsistency, match="the zero weight has odd multiplicity 3"):
        half_euler({0: 3, 5: 1, -5: 1})


def test_fixed_point_structure_small():
    for n in range(4):
        for pi in enumerate_partitions(4, n):
            data = FixedPointData(pi)
            assert sum(data.tvir.terms.values()) == 2 * n
            assert len(data.e2_weights) == 2 * len(data.e1_weights) - 2 * n
            assert data.e2 == {-k: m for k, m in data.e2.items()}


@pytest.mark.parametrize("n", range(3))
def test_vertex_oracle_and_crosscheck(n):
    for pi in enumerate_partitions(4, n):
        data = FixedPointData(pi)
        ok, lhs, rhs = vertex_oracle_check(data)
        assert ok, f"{pi.id()}: {lhs} != {rhs}"
        ok2, lhs2, rhs2 = obstruction_crosscheck(data)
        assert ok2, f"{pi.id()}: {lhs2} != {rhs2}"


def taylor_hom(pi: DPartition) -> Laurent:
    """Hom(I, O_Z) = Ext^1(O_Z, O_Z) from the Taylor complex, the route E1
    no longer takes."""
    return ext_characters(pi.to_ideal(), degree=(1,)).get(1, Laurent())


@pytest.mark.parametrize("n", range(7))
def test_tangent_character_matches_taylor_degree_zero(n):
    for pi in enumerate_partitions(4, n):
        assert unpack_terms(FixedPointData(pi).e1_terms) == taylor_hom(pi), pi.id()


@pytest.mark.parametrize("axis", range(4))
def test_tangent_character_on_single_axis_columns(axis):
    # a column has the largest generator coordinate, n, and the widest
    # coordinate differences the packing has to separate
    for h in range(1, 9):
        column = DPartition(4, [tuple(k if i == axis else 0 for i in range(4))
                                for k in range(h)])
        assert unpack_terms(FixedPointData(column).e1_terms) == taylor_hom(column), column.id()


def reference_vertex_codes(partition: DPartition) -> dict[int, int]:
    """T = V + bar(V) with V = Q - D P123 by `Counter` passes, as fixed points
    were built before the shifts went into one dict."""
    boxes = [subtorus_code(b) for b in partition.boxes]
    diffs = Counter(a - b for a in boxes for b in boxes)
    half = Counter(boxes)
    for e in itertools.product((0, -1), repeat=3):
        shift, sign = subtorus_code(e + (0,)), (-1) ** -sum(e)
        for d, m in diffs.items():
            half[d + shift] -= sign * m
    tcy = Counter(half)
    tcy.update({-k: m for k, m in half.items()})
    return {k: m for k, m in tcy.items() if m}


def reference_tangent_character(partition: DPartition) -> Laurent:
    """E1 from graph components with the live generators rescanned at each
    multidegree and the terms kept as a Laurent, as fixed points were built
    before E1 went straight to codes."""
    boxes = partition.boxes
    if not boxes:
        return Laurent()
    gens = partition.addable_boxes()
    powers = [(2 * len(boxes) + 1) ** i for i in range(partition.d)]

    def pack(v) -> int:
        return sum(map(operator.mul, v, powers))

    box_codes = set(map(pack, boxes))
    gen_codes = [pack(g) for g in gens]
    pairs = [[(j, pack(map(max, g, h))) for j, h in enumerate(gens) if h != g]
             for g in gens]
    terms: dict[tuple[int, ...], int] = {}
    seen: set[int] = set()
    for b in boxes:
        pb = pack(b)
        for g, pg in zip(gens, gen_codes):
            mu = pb - pg
            if mu in seen:
                continue
            seen.add(mu)
            live = {i for i, code in enumerate(gen_codes) if mu + code in box_codes}
            todo = set(live)
            dim = 0
            while todo:
                stack = [todo.pop()]
                grounded = False
                while stack:
                    for j, code in pairs[stack.pop()]:
                        if mu + code in box_codes:
                            if j not in live:
                                grounded = True
                            elif j in todo:
                                todo.remove(j)
                                stack.append(j)
                dim += not grounded
            if dim:
                terms[tuple(map(operator.sub, b, g))] = dim
    return Laurent(terms)


# every n <= 7, and the single-axis columns of height 1..8
REFERENCE_CASES = {f"n={n}": enumerate_partitions(4, n) for n in range(8)}
REFERENCE_CASES["columns"] = [
    DPartition(4, [tuple(k if i == axis else 0 for i in range(4)) for k in range(h)])
    for axis in range(4) for h in range(1, 9)]


@pytest.mark.parametrize("case", list(REFERENCE_CASES))
def test_fixed_point_kernels_match_the_reference(case):
    for pi in REFERENCE_CASES[case]:
        data = FixedPointData(pi)
        assert mirrored(data.half) == reference_vertex_codes(pi), pi.id()
        e1 = reference_tangent_character(pi)
        assert data.e1 == cy_codes(e1), pi.id()
        assert unpack_terms(data.e1_terms) == e1, pi.id()
        assert localize.tangent_codes(pi) == (data.e1, data.e1_terms), pi.id()


def test_series_builds_no_laurent(monkeypatch):
    # E1 on the full torus is packed terms that only the Ext cross-check
    # reads as a Laurent polynomial
    def fail(*args, **kwargs):
        raise AssertionError("the series path built a Laurent polynomial")

    monkeypatch.setattr(localize, "_SUMMANDS", {})
    monkeypatch.setattr(Laurent, "__init__", fail)
    assert dt4_degree0_series(5, GENERIC) == SERIES_GENERIC + SERIES_GENERIC_4_5


def test_crosscheck_catches_an_e1_error_the_obstruction_hides():
    data = FixedPointData(POINTS_3[5])
    # t1 - t1^-1 is antisymmetric, so it cancels in E2 = E1 + bar(E1) - T;
    # packed, t1^-1 is the negative of the code of t1
    t1 = torus_code((1, 0, 0, 0))
    assert torus_code((-1, 0, 0, 0)) == -t1
    terms = data.e1_terms
    data.e1_terms = {**terms, t1: terms.get(t1, 0) + 1, -t1: terms.get(-t1, 0) - 1}
    e1 = unpack_terms(data.e1_terms)
    assert e1 == (unpack_terms(terms) + Laurent({(1, 0, 0, 0): 1})
                  - Laurent({(-1, 0, 0, 0): 1}))
    e1cy = e1.cy_reduce()
    assert cy_codes(e1cy + e1cy.bar() - data.tvir.cy_reduce()) == data.e2
    ok, lhs, rhs = obstruction_crosscheck(data)
    assert not ok
    assert lhs[0] != rhs[0] and lhs[1] == rhs[1]


def test_resolution_oracle_catches_an_extra_lcm_term(monkeypatch):
    real = taylor._lcm_sum
    monkeypatch.setattr(taylor, "_lcm_sum",
                        lambda ideal: {**real(ideal), (9,) * ideal.nvars: 1})
    for pi in POINTS_3[1:]:
        ok, lhs, rhs = vertex_oracle_check(FixedPointData(pi))
        assert not ok and lhs != rhs, pi.id()


# sha256 of the "id ok lhs rhs" lines of a check at the 15 points with
# 1 <= n <= 3 on one memo, and of criterion 4's detail, under faults that
# fail every point, pinned when both checks compared Laurent polynomials:
# an extra lcm term puts chi outside the packing box, a t1 t4^-1 in chi and
# a term in each of Ext^1 and Ext^2 stay inside it.  The cross-check's
# packed E2 sides are hashed as reduced triples in code order, which does not
# depend on the packing's base
FAILURE_DIGESTS = {
    "lcm-term": ("87b477176a155fbed0a9e27c5cac0a4afd59a12e5cd6174e82085bff321d391b",
                 "05fa6d7e271affb0efa7b573a82754da33f65ba897eb7999f51465c2ccb7fa6c"),
    "chi-term": ("33e0a737ddad3cf61db3a48371da31ff72604e71744ede84e58d69fbbdf7c883",
                 "2587213b6f7ba2260281432ce0843ca42de137d959d081a7e1f240829833bd72"),
    "ext-terms": ("abf995027b2cd205dfcb7eccb72b5df214761fffb7185d8207d9582805a2610a", None),
}


@pytest.mark.parametrize("fault", list(FAILURE_DIGESTS))
def test_failing_checks_report_the_laurent_sides_as_before(fault, monkeypatch):
    if fault == "lcm-term":
        real = taylor._lcm_sum
        monkeypatch.setattr(taylor, "_lcm_sum",
                            lambda ideal: {**real(ideal), (9,) * ideal.nvars: 1})
    elif fault == "chi-term":
        real = localize.euler_character
        monkeypatch.setattr(localize, "euler_character",
                            lambda ideal: real(ideal) + Laurent({(1, 0, 0, -1): 1}))
    else:
        real = localize.ext_characters

        def ext(ideal, degree):
            got = real(ideal, degree=degree)
            return {**got, 1: got[1] + Laurent({(0, 0, 1, -1): 1}),
                    2: got.get(2, Laurent()) + Laurent({(0, 1, -1, 0): 1})}

        monkeypatch.setattr(localize, "ext_characters", ext)
    check = obstruction_crosscheck if fault == "ext-terms" else vertex_oracle_check
    memo = {}
    lines = hashlib.sha256()
    for pi in POINTS_3[1:]:
        ok, lhs, rhs = check(FixedPointData(pi), memo)
        assert not ok, pi.id()
        if fault == "ext-terms":
            lhs, rhs = [(e1, {subtorus_triple(k): m for k, m in sorted(e2.items())})
                        for e1, e2 in (lhs, rhs)]
        lines.update(f"{pi.id()} {ok} {lhs} {rhs}\n".encode())
    checks, detail = FAILURE_DIGESTS[fault]
    assert lines.hexdigest() == checks
    if detail is not None:
        [row] = run_suite(only="vertex-oracle")
        assert hashlib.sha256(row["detail"].encode()).hexdigest() == detail


def test_crosscheck_catches_a_dropped_top_differential_row(monkeypatch):
    # Ext^1(I, O_Z) is read with the rows of its outgoing differential found
    # lazily; losing one of them must show as a wrong obstruction character
    real = taylor._rank
    dropped = []

    def drop_a_top_row(rows):
        caller = sys._getframe(1).f_locals
        if caller["k"] == caller["hi"]:
            dropped.append(len(rows))
            rows = rows[1:]
        return real(rows)

    monkeypatch.setattr(taylor, "_rank", drop_a_top_row)
    caught = 0
    for pi in (pi for n in range(1, 5) for pi in enumerate_partitions(4, n)):
        dropped.clear()
        ok, lhs, rhs = obstruction_crosscheck(FixedPointData(pi))
        if dropped:
            assert not ok and lhs[0] == rhs[0] and lhs[1] != rhs[1], pi.id()
            caught += 1
        else:
            assert ok, pi.id()
    # below n = 3 no column of the top differential hits a row
    assert caught == 6 + 16


def test_both_checks_share_one_ideal_and_one_staircase(monkeypatch):
    # on one memo both checks read the ideal of the first point of the
    # orbit that the memo meets, built once: here the point itself, three
    # boxes along t1, although the orbit's first member in box order is
    # three boxes along t4
    built, read = [], []
    to_ideal = DPartition.to_ideal
    monkeypatch.setattr(DPartition, "to_ideal", lambda pi: built.append(pi) or to_ideal(pi))
    for name in ("euler_character", "ext_characters"):
        def spy(ideal, *args, real=getattr(localize, name), **kwargs):
            read.append(ideal)
            return real(ideal, *args, **kwargs)
        monkeypatch.setattr(localize, name, spy)
    data = FixedPointData(POINTS_3[-1])
    memo = {}
    assert vertex_oracle_check(data, memo)[0] and obstruction_crosscheck(data, memo)[0]
    assert vertex_oracle_check(data, memo)[0] and obstruction_crosscheck(data, memo)[0]
    first = DPartition(4, [(0, 0, 0, 0), (0, 0, 0, 1), (0, 0, 0, 2)])
    assert built == [data.partition] and data.partition != first
    assert len(read) == 2 and read[0] is read[1]
    assert read[0].staircase() is built[0].boxes


# the S4 orbits of every solid partition with n <= 6, each as its members
ORBITS_6 = {}
for _pi in (pi for n in range(7) for pi in enumerate_partitions(4, n)):
    ORBITS_6.setdefault(min(_pi.relabeled(p).boxes for p in itertools.permutations(range(4))),
                        []).append(_pi)


def packed(ch: Laurent) -> tuple[dict[int, int], dict[int, int]]:
    """A character's (full torus, subtorus) codes, packed term by term."""
    return {torus_code(e): c for e, c in ch.terms.items()}, cy_codes(ch)


def test_moved_resolution_equals_the_direct_one(monkeypatch):
    # each walk of a level shares one memo, so every point but the first of
    # its orbit that the memo meets reads a route computed at another point
    # and moved to it, by dot products to its packed codes and exponent by
    # exponent to a Laurent; in level order that point is the orbit's first
    # member in box order, in reverse order another member
    assert sorted({len(members) for members in ORBITS_6.values()}) == [1, 4, 6, 12, 24]
    orbit = {pi: first for first, members in ORBITS_6.items() for pi in members}
    built = []
    to_ideal = DPartition.to_ideal
    monkeypatch.setattr(DPartition, "to_ideal", lambda pi: built.append(pi) or to_ideal(pi))
    for n in range(7):
        level = enumerate_partitions(4, n)
        direct = {}
        for pi in level:
            ideal = to_ideal(pi)
            q = pi.character()
            direct[pi] = {0: q + q.bar() * KAPPA_INV - euler_character(ideal),
                          **ext_characters(ideal, degree=(1, 2))}
        for walk in (level, level[::-1]):
            memo = {}
            built.clear()
            for pi in walk:
                perm, moved, fits = localize.resolution(pi, "tvir", memo)
                perm_ext, ext, fits_ext = localize.resolution(pi, "ext", memo)
                assert fits and fits_ext and perm_ext == perm, pi.id()
                moved = {**moved, **ext}
                assert moved.keys() == direct[pi].keys(), pi.id()
                for i, terms in moved.items():
                    want = direct[pi][i]
                    assert pack_moved(terms, perm) == packed(want), (pi.id(), i)
                    assert localize._moved_laurent(terms, perm) == want, (pi.id(), i)
            # one ideal per orbit, at the first member the walk meets
            firsts = {orbit[pi]: pi for pi in walk[::-1]}
            assert len(built) == len(firsts) and set(built) == set(firsts.values()), n


def test_crosscheck_compares_the_packed_e1():
    data = FixedPointData(POINTS_3[5])
    k = max(data.e1)
    data.e1 = {**data.e1, k: data.e1[k] - 1, -k: data.e1.get(-k, 0) + 1}
    ok, lhs, rhs = obstruction_crosscheck(data)
    assert not ok and lhs == rhs


def old_weights(ch: Laurent) -> tuple[tuple[int, int, int], ...]:
    """The sorted weight triples of an effective character, one entry per
    unit of multiplicity, as fixed points expanded characters before packing."""
    assert all(type(c) is int and c > 0 for c in ch.terms.values())
    return tuple(sorted(reduced(e) for e, c in sorted(ch.terms.items()) for _ in range(c)))


def old_route(pi: DPartition) -> tuple[dict, Laurent, tuple]:
    """The views, E2 on the subtorus and the summand record by Laurent
    products, with no codes."""
    tvir = laurent_vertex_character(pi)
    e1 = unpack_terms(FixedPointData(pi).e1_terms)
    e1cy = e1.cy_reduce()
    e2 = e1cy + e1cy.bar() - tvir.cy_reduce()
    e1_weights, e2_weights = old_weights(e1), old_weights(e2)
    tangent: dict[tuple[int, int, int], int] = {}
    for w in e1_weights:
        tangent[w] = tangent.get(w, 0) + 1
    # the pairing as `half_euler` did it on weight lists, canonical forms by
    # a positive reduced triple and sorted by reduced coefficients
    obstruction: dict[tuple[int, int, int], int] = {}
    for w in e2_weights:
        obstruction[w] = obstruction.get(w, 0) + 1
    assert all(obstruction.get(neg(w)) == m for w, m in obstruction.items())
    # the zero triple is its own pair and gives half its multiplicity
    factors = tuple(sorted((w, m if w != (0, 0, 0) else m // 2) for w, m in obstruction.items()
                           if w >= (0, 0, 0)))
    views = {"tvir": tvir, "e1_weights": e1_weights, "e2_weights": e2_weights}
    record = (tuple(tangent.items()), factors, len(e1_weights),
              sum(m for _, m in factors))
    return views, e2, record


def expanded(pairs) -> tuple[tuple[int, int, int], ...]:
    """(triple, multiplicity) pairs as a record holds them: each triple
    repeated by its multiplicity."""
    return tuple(w for w, m in pairs for _ in range(m))


# every n <= 6, and the single-axis columns of height 1..8, whose characters
# hold the largest reduced coefficients, +-n, of any point of size n
KERNEL_CASES = {f"n={n}": enumerate_partitions(4, n) for n in range(7)}
KERNEL_CASES["columns"] = [
    DPartition(4, [tuple(k if i == axis else 0 for i in range(4)) for k in range(h)])
    for axis in range(4) for h in range(1, 9)]


@pytest.mark.parametrize("case", list(KERNEL_CASES))
def test_packed_kernel_matches_the_laurent_route(case):
    for pi in KERNEL_CASES[case]:
        data = FixedPointData(pi)
        views, e2, record = old_route(pi)
        for name, value in views.items():
            assert getattr(data, name) == value, (pi.id(), name)
        assert mirrored(data.half) == cy_codes(views["tvir"]), pi.id()
        assert data.e2 == cy_codes(e2), pi.id()
        tangent, factors, tangent_count, degree = record
        got = Summand(data)
        assert (got.tangent, got.factors, len(got.tangent), len(got.factors)) == (
            expanded(tangent), expanded(factors), tangent_count, degree), pi.id()


def test_half_holds_no_zero_multiplicity():
    # the shifted box differences of V = Q - D P123 cancel at many codes;
    # `half` keeps only the codes whose multiplicity survives
    for n in range(5):
        for pi in enumerate_partitions(4, n):
            assert all(FixedPointData(pi).half.values()), pi.id()


def test_series_builds_no_taylor_complex(monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("the series path reached the Taylor complex")

    monkeypatch.setattr(localize, "_SUMMANDS", {})
    for module in (taylor, localize):
        monkeypatch.setattr(module, "ext_characters", fail)
        monkeypatch.setattr(module, "euler_character", fail)
    monkeypatch.setattr(DPartition, "to_ideal", fail)
    assert dt4_degree0_series(5, GENERIC) == SERIES_GENERIC + SERIES_GENERIC_4_5


def test_series_at_default_parameters_small():
    coeffs = dt4_degree0_series(2)
    assert coeffs == [1, Fraction(-5, 3), Fraction(-1025, 126)]


def test_series_regression_two_parameter_vectors():
    assert dt4_degree0_series(3, GENERIC) == SERIES_GENERIC
    assert dt4_degree0_series(3, GENERIC2) == SERIES_GENERIC2


def test_series_breakdown_sums_to_coefficients():
    coeffs, rows = dt4_degree0_series(3, GENERIC, want_details=True)
    for n in range(4):
        total = sum((v for (m, _, v) in rows if m == n), Fraction(0))
        assert total == coeffs[n]
    ids = [pid for (_, pid, _) in rows]
    assert ids == sorted(set(ids), key=ids.index)  # canonical, no duplicates


def test_default_parameters_fail_deeper_with_named_weight():
    with pytest.raises(NonGenericParameters) as err:
        dt4_degree0_series(3)
    assert "vanishes" in str(err.value)


def test_numerator_zero_summand_contributes_zero():
    # at the default vector one n = 2 obstruction weight evaluates to zero,
    # so that fixed point contributes 0 rather than poisoning the sum
    _, rows = dt4_degree0_series(2, want_details=True)
    values = {pid: v for (_, pid, v) in rows}
    assert Fraction(0) in values.values()


def test_orientation_flip_negates_one_summand():
    target = enumerate_partitions(4, 2)[0]
    base = OrientationData()
    flipped = base.flipped(target)
    _, rows0 = dt4_degree0_series(2, GENERIC, base, want_details=True)
    _, rows1 = dt4_degree0_series(2, GENERIC, flipped, want_details=True)
    v0 = {pid: v for (_, pid, v) in rows0}
    v1 = {pid: v for (_, pid, v) in rows1}
    assert v1[target.id()] == -v0[target.id()] != 0
    for pid in v0:
        if pid != target.id():
            assert v1[pid] == v0[pid]


# s1, s2, s3 with L = 42, s4 making the sum zero; generic up to n = 5
RATIONAL = TorusParams((Fraction(3, 2), Fraction(5, 7), Fraction(11, 3), Fraction(-247, 42)))
# one vector as the sweep-n4 benchmark draws them, entries up to 10^6
SWEEP_SCALE = TorusParams((-596854, -267460, -519502, 1383816))


def direct_levels(n_max, params, orientation) -> tuple[list, list]:
    """Each level as the Fraction sum of every point's direct contribution,
    and each point's (n, id, contribution) row."""
    rows = [(n, pi.id(), FixedPointData(pi).contribution(params, orientation.sign(pi)))
            for n, level in enumerate(partition_levels(4, n_max)) for pi in level]
    return [sum((v for m, _, v in rows if m == n), Fraction(0))
            for n in range(n_max + 1)], rows


@pytest.mark.parametrize("params", [RATIONAL, SWEEP_SCALE], ids=["rational", "sweep-scale"])
@pytest.mark.parametrize("flip", [False, True], ids=["default", "flipped"])
def test_level_sums_equal_the_sums_of_direct_contributions(params, flip, monkeypatch):
    # cold, the series evaluates each point it builds through
    # `FixedPointData.contribution` and the rest from moved records; warm,
    # every point from its record as exact ints; each level is reduced once
    assert params.scaled[0] == (42 if params is RATIONAL else 1)
    orientation = OrientationData()
    if flip:
        orientation = orientation.flipped(enumerate_partitions(4, 4)[7])
    expected, rows = direct_levels(5, params, orientation)
    monkeypatch.setattr(localize, "_SUMMANDS", {})
    for _ in ("cold", "warm"):
        assert dt4_degree0_series(5, params, orientation) == expected
        assert dt4_degree0_series(5, params, orientation, want_details=True) == (expected, rows)
    assert dt4_degree0_series(5, params, orientation) != direct_levels(
        5, params, orientation.flipped(enumerate_partitions(4, 3)[0]))[0]


def test_level_sum_with_a_zero_summand_at_the_default_s(monkeypatch):
    expected, rows = direct_levels(2, TorusParams.default(), OrientationData())
    assert Fraction(0) in [v for n, _, v in rows if n == 2]
    monkeypatch.setattr(localize, "_SUMMANDS", {})
    for _ in ("cold", "warm"):
        assert dt4_degree0_series(2) == expected
        assert dt4_degree0_series(2, want_details=True) == (expected, rows)


@pytest.mark.parametrize("want_details", [False, True])
def test_a_warm_series_reduces_each_level_once(want_details, monkeypatch):
    # one Fraction per level (`fraction_sum`), and with details one more per
    # point for its row: no point's value is reduced on its own unless it is
    # printed
    dt4_degree0_series(5, GENERIC)
    params = TorusParams((3, 8, 50, -61))
    built = []

    def counted(*args):
        built.append(args)
        return Fraction(*args)

    monkeypatch.setattr(localize, "Fraction", counted)
    monkeypatch.setattr(exact, "Fraction", counted)
    coeffs = dt4_degree0_series(5, params, want_details=want_details)
    points = sum(map(len, partition_levels(4, 5)))
    assert len(built) == 6 + want_details * points
    monkeypatch.undo()
    assert coeffs == dt4_degree0_series(5, params, want_details=want_details)


def test_relabeled_form_matches_box_relabeling():
    # permuting a weight's coefficients as box coordinates are permuted, the
    # transport that `Summand.relabeled` and `transported_orientation` share,
    # takes the weights of a partition to those of its relabeling: the
    # tangent weights exactly, the half Euler factors up to the sign of each
    # pair.  Both records are direct builds, not the cached ones, which the
    # series may have transported.
    def moved(w, perm):
        v = w + (0,)
        return reduced([v[p] for p in perm])

    def unsigned(w):
        return max(w, neg(w))

    assert moved(reduced((1, -1, 0, 2)), (2, 0, 3, 1)) == reduced((0, 1, 2, -1))
    for perm in ((1, 0, 2, 3), (2, 0, 3, 1), (3, 2, 1, 0)):
        for n in range(4):
            for pi in enumerate_partitions(4, n):
                record = Summand(FixedPointData(pi))
                image = Summand(FixedPointData(pi.relabeled(perm)))
                assert sorted(moved(w, perm) for w in record.tangent) == sorted(image.tangent)
                assert sorted(unsigned(moved(w, perm)) for w in record.factors) == \
                    sorted(unsigned(w) for w in image.factors)


def permuted_params(params: TorusParams, perm) -> TorusParams:
    """The parameter vector with its coordinates permuted, s'[i] = s[perm[i]]."""
    return TorusParams(tuple(params.s[perm[i]] for i in range(4)))


def transported_orientation(perm, n_max: int) -> OrientationData:
    """Orientation data for relabeled partitions that matches the default.

    Relabeling coordinates maps the weight pairs of a partition to those of
    the relabeled partition, but the canonical representative of a pair can
    land on the opposite sign.  The transported orientation absorbs exactly
    those flips, so evaluating the relabeled partition at the permuted
    parameters reproduces the original summand value for value: level
    symmetry of the whole sum.  A flip is a half Euler factor occurrence
    whose moved code is negative (`transport_sign`).
    """
    signs: dict[str, int] = {}
    for n in range(n_max + 1):
        for pi in enumerate_partitions(4, n):
            if transport_sign(DATA_3[pi].summand(), perm) != 1:
                signs[pi.relabeled(perm).id()] = -1
    return OrientationData(signs)


@pytest.mark.parametrize("perm", list(itertools.permutations(range(4))))
def test_coefficient_symmetry_under_axis_permutation(perm):
    base = dt4_degree0_series(2, GENERIC)
    moved = dt4_degree0_series(2, permuted_params(GENERIC, perm),
                               transported_orientation(perm, 2))
    assert moved == base


def test_coefficient_symmetry_spot_checks_at_depth_three():
    assert permuted_params(TorusParams((1, 2, 3, -6)), (3, 2, 1, 0)).s == (-6, 3, 2, 1)
    base = dt4_degree0_series(3, GENERIC)
    for perm in ((1, 0, 2, 3), (3, 2, 1, 0), (1, 2, 3, 0)):
        moved = dt4_degree0_series(3, permuted_params(GENERIC, perm),
                                   transported_orientation(perm, 3))
        assert moved == base


def test_cyclic_completion_one_point_dimensions():
    rep = cyclic_completion_report(DPartition(3, [(0, 0, 0)]))
    assert rep["ok"]
    dims = {r["degree"]: sum(r["lhs"].terms.values()) for r in rep["rows"]}
    assert dims[1] == 4  # 3 tangent directions plus the completed dual of Ext^3
    assert dims[2] == 6  # self dual completion of the 3-dimensional middle


def test_cyclic_completion_batch():
    for n in range(4):
        for pi3 in enumerate_partitions(3, n):
            assert cyclic_completion_report(pi3)["ok"]


def test_cyclic_completion_wrong_dimension_rejected():
    with pytest.raises(ValueError):
        cyclic_completion_report(DPartition(4, [(0, 0, 0, 0)]))


def test_empty_partition_contributes_one():
    assert localize.tangent_codes(DPartition(4)) == ({}, {})
    data = FixedPointData(DPartition(4, []))
    assert data.contribution(GENERIC, 1) == 1
    assert not data.tvir.terms


# the summand cache: one build per point per process, integer evaluation

POINTS_3 = [pi for n in range(4) for pi in enumerate_partitions(4, n)]
DATA_3 = {pi: FixedPointData(pi) for pi in POINTS_3}


def reference_summand(data: FixedPointData, params: TorusParams, sign: int) -> Fraction:
    """The summand in Fraction arithmetic, one weight at a time, straight
    from the weight lists of the fixed point."""
    def value(w):
        return sum((Fraction(a) * x for a, x in zip(w, params.s)), Fraction(0))

    den = Fraction(1)
    for w in data.e1_weights:
        v = value(w)
        if v == 0:
            raise NonGenericParameters(f"tangent weight {form_str(w)} vanishes at s = {params}")
        den *= v
    if (0, 0, 0) in data.e2_weights:
        return Fraction(0)
    # one weight from each (w, -w) pair: the canonical one
    num = Fraction(sign)
    for w in data.e2_weights:
        if w > (0, 0, 0):
            num *= value(w)
    return num / den


rationals = st.builds(Fraction, st.integers(-40, 40), st.integers(1, 12))


@settings(max_examples=150, deadline=None)
@given(st.tuples(rationals, rationals, rationals),
       st.lists(st.sampled_from((1, -1)), min_size=len(POINTS_3), max_size=len(POINTS_3)))
def test_integer_summand_matches_a_fraction_reference(head, signs):
    params = TorusParams(head + (-sum(head),))
    orientation = OrientationData({pi.id(): e for pi, e in zip(POINTS_3, signs) if e != 1})
    expected = []
    message = None
    for pi, e in zip(POINTS_3, signs):
        try:
            expected.append(reference_summand(DATA_3[pi], params, e))
        except NonGenericParameters as err:
            message = str(err)
            break
    if message is not None:
        with pytest.raises(NonGenericParameters) as err:
            dt4_degree0_series(3, params, orientation)
        assert str(err.value) == message
        return
    _, rows = dt4_degree0_series(3, params, orientation, want_details=True)
    assert [v for (_, _, v) in rows] == expected
    # exact at every parameter vector: a negative power of an int would be a float
    assert all(type(v) is Fraction for (_, _, v) in rows)
    for pi, e, v in zip(POINTS_3, signs, expected):
        got = DATA_3[pi].contribution(params, e)
        assert got == v and type(got) is Fraction


def test_orientation_flip_after_a_cached_call_negates_one_summand(monkeypatch):
    # the flipped call fills an empty cache; the record keeps the orientation
    # +1 sign and each later call applies its own
    monkeypatch.setattr(localize, "_SUMMANDS", {})
    target = enumerate_partitions(4, 3)[4]
    flipped = OrientationData().flipped(target)
    _, rows1 = dt4_degree0_series(3, GENERIC2, flipped, want_details=True)
    _, rows0 = dt4_degree0_series(3, GENERIC2, OrientationData(), want_details=True)
    _, again = dt4_degree0_series(3, GENERIC2, flipped, want_details=True)
    assert again == rows1
    moved = [pid for ((_, pid, v0), (_, _, v1)) in zip(rows0, rows1) if v0 != v1]
    assert moved == [target.id()]
    v0 = {pid: v for (_, pid, v) in rows0}
    v1 = {pid: v for (_, pid, v) in rows1}
    assert v1[target.id()] == -v0[target.id()] != 0


def count_builds(monkeypatch) -> list:
    """Empty the summand cache for this test and count FixedPointData builds."""
    built = []
    init = FixedPointData.__init__

    def counting(self, partition):
        built.append(partition)
        init(self, partition)

    monkeypatch.setattr(localize, "_SUMMANDS", {})
    monkeypatch.setattr(FixedPointData, "__init__", counting)
    return built


def first_of_each_orbit(n_max: int) -> list[DPartition]:
    """The first point of each S4 orbit in level order, for n <= n_max."""
    firsts, seen = [], set()
    for n in range(n_max + 1):
        for pi in enumerate_partitions(4, n):
            if pi not in seen:
                firsts.append(pi)
                seen.update(pi.relabeled(p) for p in itertools.permutations(range(4)))
    return firsts


def test_second_series_at_new_parameters_builds_no_fixed_point(monkeypatch):
    # a cold series builds the first point of each orbit and transports its
    # record to the rest of the orbit; a later series builds nothing
    built = count_builds(monkeypatch)
    assert dt4_degree0_series(3, GENERIC) == SERIES_GENERIC
    assert built == first_of_each_orbit(3)
    assert len(built) == 5
    built.clear()
    assert dt4_degree0_series(3, GENERIC2) == SERIES_GENERIC2
    assert dt4_degree0_series(2, GENERIC, OrientationData().flipped(POINTS_3[3]))
    assert built == []


def permuted(params: TorusParams, perm) -> tuple:
    """L*s with its coordinates permuted, s'[j] = s[perm.index(j)]."""
    s = params.scaled[1]
    return tuple(s[perm.index(j)] for j in range(4))


def test_transported_records_equal_the_direct_builds(monkeypatch):
    # a cold series builds one point per orbit and keeps its record as
    # (record, IDENTITY, 1); every point keeps (record, perm, eps) and is the
    # built point relabeled by perm; the record moved along perm equals the
    # point's direct build slot by slot, and eps times the record at the
    # permuted s is the point's summand; all are keyed by the level's own
    # objects
    built = count_builds(monkeypatch)
    params = TorusParams((2, 31, 347, -380))
    dt4_degree0_series(8, params)
    assert [sum(p.size == n for p in built) for n in range(9)] == \
        [1, 1, 1, 2, 4, 7, 13, 25, 49]
    levels = partition_levels(4, 8)
    cache = localize._SUMMANDS
    assert sorted(map(id, cache)) == sorted(id(pi) for level in levels for pi in level)
    assert [pi for pi, (_, perm, _) in cache.items() if perm == IDENTITY] == built
    owner = {id(cache[pi][0]): pi for pi in built}
    assert all(cache[pi][1:] == (IDENTITY, 1) for pi in built)
    signs = set()
    for level in levels:
        for pi in level:
            direct = Summand(FixedPointData(pi))
            rep, perm, eps = cache[pi]
            assert owner[id(rep)].relabeled(perm) == pi
            assert eps * rep.value(params, 1, permuted(params, perm)) == \
                direct.value(params), pi.id()
            signs.add(eps)
            record = rep.relabeled(perm)
            for name in Summand.__slots__:
                assert getattr(record, name) == getattr(direct, name), (pi.id(), name)
    assert signs == {1, -1}


def test_series_keeps_one_record_per_orbit_and_transports_none(monkeypatch):
    # 377 records for the 5818 points with n <= 10, and a successful series,
    # cold or warm, never moves a record along a relabeling
    def refuse(*args):
        raise AssertionError("a successful series transported a record")

    monkeypatch.setenv("DT4_MAX_N", "11")
    monkeypatch.setattr(localize, "_SUMMANDS", {})
    monkeypatch.setattr(Summand, "relabeled", refuse)
    params = TorusParams((2, 31, 347, -380))
    cold = dt4_degree0_series(10, params)
    assert dt4_degree0_series(10, params) == cold
    cache = localize._SUMMANDS
    records = [pi for pi, (_, perm, _) in cache.items() if perm == IDENTITY]
    assert len(cache) == 5818
    assert [sum(pi.size == n for pi in records) for n in range(11)] == \
        [1, 1, 1, 2, 4, 7, 13, 25, 49, 93, 181]
    assert len(records) == 377


def test_only_the_series_writes_the_summand_cache(monkeypatch, capsys):
    # `vertex`, every point's own record, a `--check-oracle` run and the
    # criteria that read records leave the cache empty; so whatever ran
    # first, a series keeps the identity entry for exactly the first point
    # of each orbit, and a second series at another s keeps the same ones
    monkeypatch.setattr(localize, "_SUMMANDS", {})
    assert main(["vertex", "--n-max", "3", "--s", "1,7,41,-49"]) == 0
    for pi in POINTS_3:
        FixedPointData(pi).summand()
    assert main(["vertex", "--n-max", "3", "--s", "1,7,41,-49", "--check-oracle"]) == 0
    for only in ("vertex-oracle", "weight", "one-box"):
        assert run_suite(only=only)[0]["ok"]
    capsys.readouterr()
    cache = localize._SUMMANDS
    assert cache == {}
    for params in (GENERIC, GENERIC2):
        dt4_degree0_series(3, params)
        assert len(cache) == len(POINTS_3)
        own = [pi for pi, (_, perm, _) in cache.items() if perm == IDENTITY]
        assert own == first_of_each_orbit(3)
        assert all(cache[pi][2] == 1 for pi in own)


def test_failing_point_at_depth_eight_is_transported(monkeypatch):
    # the exit 4 message at 1,7,41,-49 names a tangent weight of a point the
    # series did not build: its orbit's record meets another vanishing weight
    # first at the permuted s, so the message comes from the record moved
    # along the entry's perm, which keeps the point's own sorted order
    built = count_builds(monkeypatch)
    message = "tangent weight -7*s1 + s2 vanishes at s = 1,7,41,-49"
    with pytest.raises(NonGenericParameters) as err:
        dt4_degree0_series(8, GENERIC)
    assert str(err.value) == message
    failing = partition_from_id(
        "0,0,0,0;0,1,0,0;1,0,0,0;2,0,0,0;3,0,0,0;4,0,0,0;5,0,0,0;6,0,0,0", 4)
    assert failing not in built
    with pytest.raises(NonGenericParameters) as own:
        FixedPointData(failing).summand().value(GENERIC)
    assert str(own.value) == message
    rep, perm, eps = localize._SUMMANDS[failing]
    with pytest.raises(NonGenericParameters) as moved:
        rep.value(GENERIC, 1, permuted(GENERIC, perm))
    assert str(moved.value) != message
    # a wrong perm in the entry names the weight of another point
    localize._SUMMANDS[failing] = (rep, (0, 1, 2, 3), eps)
    with pytest.raises(NonGenericParameters) as err:
        dt4_degree0_series(8, GENERIC)
    assert str(err.value) == "tangent weight 7*s1 - s2 vanishes at s = 1,7,41,-49"


def test_series_oracle_fails_each_point_with_a_wrong_transport(monkeypatch):
    # each entry's perm replaced by its inverse: the oracle fails exactly
    # the points that the inverse relabeling does not reach
    monkeypatch.setattr(localize, "_SUMMANDS", {})
    dt4_degree0_series(3, GENERIC)
    cache = localize._SUMMANDS
    owner = {id(rep): pi for pi, (rep, perm, _) in cache.items() if perm == IDENTITY}
    missed = []
    for pi in POINTS_3:
        rep, perm, eps = cache[pi]
        inverse = tuple(perm.index(j) for j in range(4))
        cache[pi] = (rep, inverse, eps)
        if owner[id(rep)].relabeled(inverse) != pi:
            missed.append(pi.id())
    payload = series_payload(3, GENERIC, OrientationData(), check_oracle=True)
    assert payload["oracle"]["checked"] == 15
    assert payload["oracle"]["failures"] == missed
    assert len(missed) == 7


def test_series_oracle_fails_each_point_with_a_wrong_record_transport(monkeypatch):
    # a transport out of sort order is unequal to the direct build but of
    # equal value: the oracle moves every point's record along its entry's
    # perm, the identity for a built point, so it fails every point, and the
    # printed bytes, which never use the transport, are unchanged
    relabeled = Summand.relabeled

    def reversed_tangent(self, perm):
        record = relabeled(self, perm)
        record.tangent = record.tangent[::-1]
        return record

    monkeypatch.setattr(localize, "_SUMMANDS", {})
    monkeypatch.setattr(Summand, "relabeled", reversed_tangent)
    payload = series_payload(3, GENERIC, OrientationData(), check_oracle=True)
    assert payload["oracle"]["checked"] == 15
    assert payload["oracle"]["failures"] == [pi.id() for pi in POINTS_3[1:]]
    assert payload["coefficients"] == [str(c) for c in SERIES_GENERIC]


def test_summand_record_keeps_no_characters():
    record = DATA_3[POINTS_3[5]].summand()
    assert record is DATA_3[POINTS_3[5]].summand()
    for name in Summand.__slots__:
        value = getattr(record, name)
        assert not isinstance(value, (Laurent, FixedPointData))
    assert Summand.__slots__ == ("tangent", "factors")
    assert all(type(w) is tuple and len(w) == 3 and all(type(c) is int for c in w)
               for w in record.tangent + record.factors)
    assert (len(record.tangent), len(record.factors)) == (8, 6)


def test_zero_tangent_weight_is_caught_when_the_record_is_built():
    data = FixedPointData(POINTS_3[2])
    data.e1 = {0: 1, **data.e1}  # the code of the zero form
    with pytest.raises(InternalInconsistency):
        Summand(data)


def test_series_with_oracle_builds_each_orbit_then_each_point(monkeypatch):
    # the series builds the first point of each orbit, then the oracle
    # builds every point with n >= 1 directly
    built = count_builds(monkeypatch)
    payload = series_payload(3, GENERIC, OrientationData(), check_oracle=True)
    assert payload["oracle"]["status"] == "PASS"
    assert payload["coefficients"] == [str(c) for c in SERIES_GENERIC]
    assert built == first_of_each_orbit(3) + POINTS_3[1:]


def test_series_oracle_checks_the_records_the_series_printed(monkeypatch):
    # with eps forced to +1 the series negates the printed value of exactly
    # the points whose true eps is -1, and the oracle fails exactly those
    transport_sign = localize.transport_sign
    monkeypatch.setattr(localize, "_SUMMANDS", {})
    monkeypatch.setattr(localize, "transport_sign", lambda record, perm: 1)
    payload = series_payload(3, GENERIC, OrientationData(), check_oracle=True)
    cache = localize._SUMMANDS
    flipped = [pi.id() for pi in POINTS_3
               if transport_sign(cache[pi][0], cache[pi][1]) == -1]
    direct = [Summand(DATA_3[pi]).value(GENERIC) for pi in POINTS_3]
    printed = [Fraction(pt["value"]) for pt in payload["points"]]
    assert [pt["id"] for pt in payload["points"]] == [pi.id() for pi in POINTS_3]
    assert all(direct)
    negated = [pi.id() for pi, d, v in zip(POINTS_3, direct, printed) if v == -d]
    kept = [pi for pi, d, v in zip(POINTS_3, direct, printed) if v == d]
    assert negated == payload["oracle"]["failures"] == flipped
    assert len(flipped) == 4
    assert len(kept) == 12 and set(first_of_each_orbit(3)) < set(kept)


def test_series_oracle_fails_a_value_bug_the_record_and_direct_build_share(monkeypatch):
    # the series and the direct build both evaluate through `Summand.ints`;
    # the oracle checks the printed value against the point's own codes,
    # decoded there and evaluated by its own `LinForm`, so a doubled value
    # doubles every coefficient and fails every point
    ints = Summand.ints

    def doubled(self, *args):
        num, den = ints(self, *args)
        return 2 * num, den

    monkeypatch.setattr(localize, "_SUMMANDS", {})
    monkeypatch.setattr(Summand, "ints", doubled)
    payload = series_payload(3, GENERIC, OrientationData(), check_oracle=True)
    assert payload["coefficients"] == [str(2 * c) for c in SERIES_GENERIC]
    assert payload["oracle"]["checked"] == 15
    assert payload["oracle"]["failures"] == [pi.id() for pi in POINTS_3[1:]]


def test_series_oracle_fails_a_bad_triple_the_records_share(monkeypatch):
    # every record and the direct build read their triples from the shared
    # `weight_triples`; the oracle decodes the point's codes itself
    triples = localize.weight_triples
    clear_module_caches(monkeypatch)
    monkeypatch.setattr(localize, "weight_triples", lambda codes: tuple(
        (a + 1, b, c) if k == max(codes) else (a, b, c)
        for k, (a, b, c) in zip(codes, triples(codes))))
    payload = series_payload(3, GENERIC, OrientationData(), check_oracle=True)
    assert payload["oracle"]["failures"] == [pi.id() for pi in POINTS_3[1:]]


def test_no_linform_is_built_outside_the_record_oracle():
    # in a fresh process, so that no cache another test filled hides a build;
    # the last command shows that the patch sees the oracle's own builds
    script = textwrap.dedent("""\
        import contextlib, io
        from dt4calc import cli, exact

        def refuse(self, a):
            raise AssertionError("a LinForm was built")

        exact.LinForm.__init__ = refuse
        s = "1,7,41,-49"
        for argv in (["dt4-series", "--n-max", "3", "--s", s],
                     *(["vertex", "--n-max", "3", "--s", s, "--format", f]
                       for f in ("text", "json", "csv")),
                     ["suite"]):
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli.main(argv) == 0, argv
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                cli.main(["dt4-series", "--n-max", "1", "--s", s, "--check-oracle"])
        except AssertionError as e:
            assert str(e) == "a LinForm was built"
        else:
            raise AssertionError("the oracle built no LinForm")
        """)
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = {k: v for k, v in os.environ.items() if k != "DT4_MAX_N"}
    env.update(PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr


def test_record_check_reads_a_zero_obstruction_weight_as_a_zero_summand(monkeypatch):
    # the zero weight is its own (w, -w) pair: code 0 twice in e2 is one
    # zero factor, and the cache entry is the direct build of the point
    data = FixedPointData(POINTS_3[5])
    dropped = Summand(data).value(GENERIC)
    data.e2 = {**data.e2, 0: 2}
    record = Summand(data)
    assert (0, 0, 0) in record.factors
    monkeypatch.setattr(localize, "_SUMMANDS", {data.partition: (record, IDENTITY, 1)})
    assert localize.record_oracle_check(data, GENERIC, 1, Fraction(0))
    # the value with the zero factor left out is refused, like any nonzero one
    assert not localize.record_oracle_check(data, GENERIC, 1, dropped)
    assert not localize.record_oracle_check(data, GENERIC, 1, Fraction(1))


def test_record_check_fails_a_point_with_no_record(monkeypatch):
    monkeypatch.setattr(localize, "_SUMMANDS", {})
    data = FixedPointData(POINTS_3[5])
    value = Summand(data).value(GENERIC)
    assert not localize.record_oracle_check(data, GENERIC, 1, value)
    assert localize._SUMMANDS == {}
    dt4_degree0_series(2, GENERIC)
    assert localize._SUMMANDS[data.partition][1] != IDENTITY
    assert localize.record_oracle_check(data, GENERIC, 1, value)
    # the printed value is checked too, with the point's orientation sign
    assert not localize.record_oracle_check(data, GENERIC, 1, -value)
    assert localize.record_oracle_check(data, GENERIC, -1, -value)
    # a series that leaves no record fails every point it printed
    series = dt4_degree0_series

    def forgetful(*args, **kwargs):
        out = series(*args, **kwargs)
        localize._SUMMANDS.clear()
        return out

    monkeypatch.setattr(cli, "dt4_degree0_series", forgetful)
    payload = series_payload(2, GENERIC, OrientationData(), check_oracle=True)
    assert payload["oracle"]["failures"] == [pi.id() for pi in POINTS_3[1:6]]
    assert payload["coefficients"] == [str(c) for c in SERIES_GENERIC[:3]]


def clear_module_caches(monkeypatch) -> None:
    """Give this test empty partition levels and summand and triple caches,
    and clear the moved unit codes."""
    monkeypatch.setattr(partitions, "_levels", {})
    for name in ("_SUMMANDS", "_TRIPLES"):
        monkeypatch.setattr(localize, name, {})
    characters._moved_units.cache_clear()


def test_series_report_bytes_do_not_depend_on_the_cache_state(monkeypatch):
    # the n <= 3 report at the suite's s in three states: every module cache
    # cleared; warmed by a deeper series at another s; and after each point
    # a series transports has built its own record, then a --check-oracle
    # run.  The two series' values are checked against the regression
    # values too, so a cache the clearing misses is seen as well
    def report(**kwargs):
        payload = series_payload(3, SUITE_PARAMS, OrientationData(), **kwargs)
        return json.dumps({k: v for k, v in payload.items() if k != "oracle"}), payload

    clear_module_caches(monkeypatch)
    cold, payload = report()
    assert payload["coefficients"] == [str(c) for c in SERIES_GENERIC]

    clear_module_caches(monkeypatch)
    assert dt4_degree0_series(5, GENERIC2)[:4] == SERIES_GENERIC2
    assert report()[0] == cold

    clear_module_caches(monkeypatch)
    firsts = first_of_each_orbit(3)
    for pi in POINTS_3:
        if pi not in firsts:
            FixedPointData(pi).summand()
    checked, payload = report(check_oracle=True)
    assert checked == cold and payload["oracle"]["status"] == "PASS"
    assert report()[0] == cold


def test_parse_refuses_an_exponent_past_the_int_string_limit():
    big = Fraction(10) ** 4300
    assert TorusParams.parse("1e4300,-1e+4300,1,-1").s == (big, -big, 1, -1)
    assert TorusParams.parse("1e-4_300,-1E-0_4300,2,-2").s == (1 / big, -1 / big, 2, -2)
    for text in ("1e4301,-1e4301,1,-1", "1,1,-1e-4301,-2", "1E+0_4_301,1,1,-3"):
        bad = next(p for p in text.split(",") if "e" in p.lower())
        with pytest.raises(ValueError) as err:
            TorusParams.parse(text)
        assert str(err.value) == f"the exponent of {bad!r} exceeds 4300 in magnitude"


def test_series_report_bytes_cold_and_cached(monkeypatch):
    # the cold run fills an empty cache, building the first point of each
    # orbit, and the warm run only evaluates the records it left
    built = count_builds(monkeypatch)
    cold = json.dumps(series_payload(4, SUITE_PARAMS, OrientationData()), indent=2)
    assert built == first_of_each_orbit(4)
    assert len(built) == 9
    built.clear()
    warm = json.dumps(series_payload(4, SUITE_PARAMS, OrientationData()), indent=2)
    assert built == []
    assert cold.encode() == warm.encode()


def test_suite_builds_each_fixed_point_once(monkeypatch):
    # criteria 4-6 share one build of each point with 1 <= n <= 4, the one
    # box report builds its own point, and the series builds only the first
    # point of each orbit
    built = count_builds(monkeypatch)
    assert all(row["ok"] for row in run_suite())
    points = [pi for n in range(1, 5) for pi in enumerate_partitions(4, n)]
    assert built == points + [ONE_BOX] + first_of_each_orbit(3)
    assert len(built) == 47


def test_cached_series_with_an_orientation_map_builds_no_id(monkeypatch):
    orientation = OrientationData({"empty": -1, POINTS_3[4].id(): -1})
    first = dt4_degree0_series(3, GENERIC, orientation)
    assert first[0] == -1 and first != SERIES_GENERIC
    calls = []
    ident = DPartition.id

    def counting(self):
        calls.append(self)
        return ident(self)

    monkeypatch.setattr(DPartition, "id", counting)
    assert dt4_degree0_series(3, GENERIC, orientation) == first
    assert calls == []


def _int_coefficients(ch: Laurent) -> bool:
    return all(type(c) is int for c in ch.terms.values())


@pytest.mark.parametrize("n", range(5))
def test_characters_have_int_coefficients(n):
    for pi in enumerate_partitions(4, n):
        data = FixedPointData(pi)
        e1 = unpack_terms(data.e1_terms)
        e1cy = e1.cy_reduce()
        e2 = e1cy + e1cy.bar() - data.tvir.cy_reduce()
        for ch in (pi.character(), data.tvir, e1, e2):
            assert _int_coefficients(ch), pi.id()
        assert cy_codes(e2) == data.e2, pi.id()
        assert type(sum(data.tvir.terms.values())) is int
        ideal = pi.to_ideal()
        assert _int_coefficients(euler_character(ideal))
        chars = ext_characters(ideal) if n <= 3 else ext_characters(ideal, degree=(1, 2))
        assert all(_int_coefficients(ch) for ch in chars.values())


def test_subtorus_triples_are_decoded_once_and_shared(monkeypatch):
    decoded = []

    def counting(code):
        decoded.append(code)
        return subtorus_triple(code)

    monkeypatch.setattr(localize, "_TRIPLES", {})
    monkeypatch.setattr(localize, "subtorus_triple", counting)
    everywhere = []
    for n, level in enumerate(partition_levels(4, 5)):
        held = []
        for pi in level:
            data = FixedPointData(pi)
            record = Summand(data)
            tangent = [k for k in sorted(data.e1) for _ in range(data.e1[k])]
            factors = [k for k, m in half_euler(data.e2) for _ in range(m)]
            known = localize._TRIPLES
            assert list(record.tangent) == [subtorus_triple(k) for k in tangent]
            assert all(w is known[k] for w, k in zip(record.tangent, tangent))
            assert all(w is known[k] for w, k in zip(record.factors, factors))
            held.extend([*dict.fromkeys(record.tangent), *dict.fromkeys(record.factors)])
        # one object per distinct weight across the level's records, and
        # from n = 2 on the records repeat weights
        assert len({id(w) for w in held}) == len(set(held))
        assert n < 2 or len(set(held)) < len(held)
        everywhere.extend(held)
    # and one across the levels, since a weight has one code at every level
    assert len({id(w) for w in everywhere}) == len(set(everywhere))
    # each code decoded once, however many records at however many levels hold it
    assert len(decoded) == len(set(decoded))


def test_a_weight_has_one_code_at_every_level(monkeypatch):
    # the packing does not depend on the size of a point: across n <= 6 each
    # reduced triple the characters hold has the one code `subtorus_code`
    # gives it, and a series to n <= 6 leaves one shared triple per code
    codes_of: dict[tuple, set] = {}
    for level in partition_levels(4, 6):
        for pi in level:
            data = FixedPointData(pi)
            for k in (*data.half, *data.e1, *data.e2):
                codes_of.setdefault(subtorus_triple(k), set()).add(k)
    assert len(codes_of) > 100
    assert all(codes == {subtorus_code(w + (0,))} for w, codes in codes_of.items())
    clear_module_caches(monkeypatch)
    dt4_degree0_series(6, GENERIC)
    known = localize._TRIPLES
    assert len(set(known.values())) == len(known)
    assert all(subtorus_code(w + (0,)) == k for k, w in known.items())
    held = [w for rep, _, _ in localize._SUMMANDS.values() for w in rep.tangent + rep.factors]
    assert {id(w) for w in held} == {id(w) for w in known.values()}


# sha256 of str() of the contribution at 2,31,347,-380 of the column of 90
# boxes, computed when each level packed its codes in a base of its own
COLUMN_90_PIN = "d1d6c9e9503aec34198e75db4c5c3489d3f72bd6bfd1b45f592a157f19448036"


def test_the_packing_serves_a_column_of_max_n_boxes():
    # the column has the largest coordinates, and so the largest digits, a
    # point of its size can have
    assert MAX_N == 90
    data = FixedPointData(DPartition(4, [(0, 0, 0, k) for k in range(90)]))
    assert vertex_oracle_check(data)[0] and obstruction_crosscheck(data)[0]
    value = data.contribution(TorusParams.parse("2,31,347,-380"))
    assert hashlib.sha256(str(value).encode()).hexdigest() == COLUMN_90_PIN


def test_a_partition_past_the_packing_cap_is_refused():
    column = DPartition(4, [(0, 0, 0, k) for k in range(91)])
    for build in (FixedPointData, vertex_character, characters.half_codes,
                  characters.tangent_codes):
        with pytest.raises(BoundExceeded, match="^91 boxes exceeds the packing cap 90$"):
            build(column)


# sha256 over every point's weights for n <= 7 and of the vertex report at
# n <= 5, recorded before a weight became only its reduced triple
WEIGHTS_PIN = "06705026947970f19967e08fe4e8c45878bd84fdbe69b9a92972be6de1c665ac"
VERTEX_PIN = "d32e0cfd5278c1709000b75af9e49024555fae2d64d886040f3f46762dcd3c0a"


def test_weights_and_vertex_report_are_pinned(capsys):
    digest = hashlib.sha256()
    for level in partition_levels(4, 7):
        for pi in level:
            record = FixedPointData(pi).summand()
            digest.update(pi.id().encode())
            # each run of equal weights as the (weight, multiplicity) pair
            # the digest was recorded from
            for forms in (record.tangent, record.factors):
                for w, run in itertools.groupby(forms):
                    m = sum(1 for _ in run)
                    digest.update(repr((form_str(w), w, m)).encode())
    assert digest.hexdigest() == WEIGHTS_PIN
    assert main(["vertex", "--n-max", "5", "--s", "1,7,41,-49"]) == 0
    out = capsys.readouterr().out.encode()
    assert hashlib.sha256(out).hexdigest() == VERTEX_PIN


ONE_BOX = enumerate_partitions(4, 1)[0]


@pytest.mark.parametrize("make,message", [
    (lambda: TorusParams((1, 2, -3)), "parameter vector must have four entries"),
    (lambda: FixedPointData(DPartition(3, [(0, 0, 0)])), "fixed points live in dimension 4"),
    (lambda: FixedPointData(ONE_BOX).contribution(GENERIC, 2),
     "orientation must be +1 or -1"),
    (lambda: enumerate_partitions(5, 1), "dimension must be 2, 3 or 4, got 5"),
    (lambda: enumerate_partitions(4, -1), "size must be nonnegative"),
    (lambda: partition_counts(4, -1), "size must be nonnegative"),
    (lambda: ONE_BOX.relabeled((0, 0, 1, 2)), "not a permutation of 0..3: (0, 0, 1, 2)"),
    (lambda: CohClass((1,), {(0,): 1}) + CohClass((2,), {(0,): 1}),
     "classes live in different rings"),
    (lambda: CohClass((1, 2), {(0,): 1}), "monomial (0,) does not fit the ring (1, 2)"),
    (lambda: cy_hypersurface_context().line_bundle((1,)),
     "multidegree length does not match the ring"),
    (lambda: vdim_ideal_cy4(-1, 0), "point count must be nonnegative"),
    (lambda: vdim_ideal_cy4(0, 2), "h02 must be 0 or 1"),
    (lambda: Laurent({(1, 2): 1}), "exponent vector must have length 4, got (1, 2)"),
    (lambda: OrientationData({1: 1}), "orientation key 1 is not a string"),
    (lambda: partitions.partition_numbers(-1), "size must be nonnegative"),
    (lambda: convolution_oracle(3, -1), "size must be nonnegative"),
    (lambda: goettsche_series(3, -1), "size must be nonnegative"),
    (lambda: partition_levels(4, -1), "size must be nonnegative"),
    (lambda: dt4_degree0_series(-1), "size must be nonnegative"),
    (lambda: partitions.size_bound(5), "dimension must be 2, 3 or 4, got 5"),
    (lambda: vertex_character(DPartition(2, [(0, 0)])), "fixed points live in dimension 4"),
    (lambda: vertex_character(DPartition(3, [(0, 0, 0)])), "fixed points live in dimension 4"),
], ids=["torus-length", "point-dimension", "contribution-orientation",
        "enumerate-dimension", "enumerate-size", "counts-size", "relabel-perm",
        "ring-mismatch", "monomial-ring", "line-bundle-degrees", "vdim-count",
        "vdim-holonomy", "laurent-exponent", "orientation-key", "pentagonal-size",
        "convolution-size", "goettsche-size", "levels-size", "series-size",
        "bound-dimension", "vertex-dimension-2", "vertex-dimension-3"])
def test_library_guards_refuse_bad_input(make, message):
    with pytest.raises(ValueError) as exc:
        make()
    assert str(exc.value) == message


def test_record_check_fails_a_point_whose_tangent_weight_vanishes(monkeypatch):
    # the series at a generic s writes the entry; at 1,2,3,-6 the weight
    # -2*s1 + s2 of this point vanishes, so the check fails and does not divide
    monkeypatch.setattr(localize, "_SUMMANDS", {})
    dt4_degree0_series(3, GENERIC)
    data = FixedPointData(partition_from_id("0,0,0,0;0,1,0,0;1,0,0,0", 4))
    with pytest.raises(NonGenericParameters):
        data.contribution(TorusParams.default(), 1)
    assert localize.record_oracle_check(data, TorusParams.default(), 1, Fraction(0)) is False
