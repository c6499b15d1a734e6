"""Fixed point data, half Euler classes, and the degree-0 series."""

import itertools
import json
import threading
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dt4calc import localize
from dt4calc.cli import series_payload
from dt4calc.errors import (InternalInconsistency, NonGenericParameters,
                            OddPairing)
from dt4calc.exact import FactoredWeightProduct, Laurent, LinForm
from dt4calc.localize import (FixedPointData, OrientationData, TorusParams,
                              cyclic_completion_report, dt4_degree0_series,
                              Summand, half_euler, obstruction_crosscheck,
                              one_box_symbolic_report, relabeled_form,
                              transported_orientation, vertex_character,
                              vertex_oracle_check)
from dt4calc.partitions import DPartition, enumerate_partitions
from dt4calc.suite import run_suite
from dt4calc.taylor import euler_character, ext_characters

GENERIC = TorusParams((1, 7, 41, -49))
GENERIC2 = TorusParams((2, 11, 59, -72))

# regression values computed once with this package and checked against a
# second parameter vector for consistency of the underlying rational function
SERIES_GENERIC = [
    Fraction(1),
    Fraction(-2304, 2009),
    Fraction(-545224824, 504510125),
    Fraction(-576945963093774592, 598743836360294625),
]
SERIES_GENERIC2 = [
    Fraction(1),
    Fraction(-27755, 46728),
    Fraction(-1001804374025, 3070009413504),
    Fraction(-3156762634131742274275, 17310619647421639216128),
]


def one_box_data() -> FixedPointData:
    return FixedPointData(enumerate_partitions(4, 1)[0])


def test_torus_params_validation():
    with pytest.raises(ValueError):
        TorusParams((1, 2, 3, 4))
    with pytest.raises(ValueError):
        TorusParams.parse("1,2,3")
    p = TorusParams.parse("1/2, 1/3, 1/6, -1")
    assert sum(p.s) == 0
    assert str(TorusParams.default()) == "1,2,3,-6"


def test_torus_params_permuted():
    p = TorusParams((1, 2, 3, -6)).permuted((3, 2, 1, 0))
    assert p.s == (-6, 3, 2, 1)


def test_orientation_data_validation_and_file(tmp_path):
    for bad in ({"x": 2}, {"0,0,0,0": True}, {"0,0,0,0": 1.0}, {"x": 1},
                {"1,0,0,0": -1}, {"0,0,0,0;0,0,0,0": 1}, {"0,0,0,0;01,0,0,0": 1}):
        with pytest.raises(ValueError):
            OrientationData(bad)
    assert OrientationData({"empty": -1, "0,0,0,0;1,0,0,0": 1}).sign("empty") == -1
    path = tmp_path / "orient.json"
    path.write_text(json.dumps({"0,0,0,0": -1}))
    data = OrientationData.from_file(str(path))
    assert data.sign("0,0,0,0") == -1
    assert data.sign("empty") == 1
    path.write_text("[1, 2]")
    with pytest.raises(ValueError):
        OrientationData.from_file(str(path))


def test_vertex_character_one_box():
    q = Laurent.one()
    t = vertex_character(q)
    assert t.coeff_sum() == 2
    data = one_box_data()
    assert data.tvir == t


def test_one_box_tangent_weights():
    data = one_box_data()
    expected = {LinForm((-1, 0, 0, 0)), LinForm((0, -1, 0, 0)),
                LinForm((0, 0, -1, 0)), LinForm((0, 0, 0, -1))}
    assert set(data.e1_weights) == expected
    assert len(data.e1_weights) == 4


def test_one_box_obstruction_weights():
    # the six pair sums s_i + s_j; on the subtorus a pair through the fourth
    # coordinate is minus the complementary pair, so three forms appear twice
    data = one_box_data()
    got = sorted(w.reduced for w in data.e2_weights)
    pairs = [LinForm((1, 1, 0, 0)), LinForm((1, 0, 1, 0)), LinForm((0, 1, 1, 0))]
    expected = sorted([w.reduced for w in pairs] + [(-w).reduced for w in pairs])
    assert got == expected


def test_one_box_contribution_value():
    data = one_box_data()
    assert data.contribution(TorusParams.default(), 1) == Fraction(-5, 3)
    assert data.contribution(TorusParams.default(), -1) == Fraction(5, 3)


def test_one_box_half_euler_value():
    half = one_box_data().half(1)
    assert half.degree() == 3
    # canonical product (s2+s3)(s1+s3)(s1+s2) = 5*4*3; equals -e3 at this s,
    # where e3(1,2,3,-6) = 6 - 12 - 18 - 36 = -60
    assert half.evaluate((1, 2, 3, -6)) == 60


def test_one_box_symbolic_shape():
    rep = one_box_symbolic_report()
    assert rep["ok"]
    assert rep["numerator_sign"] == -1
    assert rep["denominator_matches"]


def test_symbolic_identity_against_sympy():
    import sympy

    s1, s2, s3 = sympy.symbols("s1 s2 s3")
    s4 = -s1 - s2 - s3
    s = (s1, s2, s3, s4)
    product = (s1 + s2) * (s1 + s3) * (s1 + s4)
    e3 = sum(a * b * c for a, b, c in itertools.combinations(s, 3))
    assert sympy.expand(product - e3) == 0

    data = one_box_data()
    half = data.half(1)
    num = sympy.Integer(half.sign)
    for w, m in half.factors.items():
        num *= sum(int(c) * v for c, v in zip(w.a, s)) ** m
    den = sympy.Integer(1)
    for w in data.e1_weights:
        den *= sum(int(c) * v for c, v in zip(w.a, s))
    e4 = s1 * s2 * s3 * s4
    assert sympy.simplify(num / den + e3 / e4) == 0


def test_half_euler_pairing_rules():
    w = LinForm((1, 1, 0, 0))
    half = half_euler([w, -w], 1)
    assert half.factors == {w: 1}
    assert half_euler([w, -w], -1).sign == -1
    with pytest.raises(OddPairing):
        half_euler([w, w, -w], 1)
    zero = LinForm((1, 1, 1, 1))
    assert half_euler([w, -w, zero, zero], 1).zero


def test_fixed_point_structure_small():
    for n in range(4):
        for pi in enumerate_partitions(4, n):
            data = FixedPointData(pi)
            assert data.tvir.coeff_sum() == 2 * n
            assert len(data.e2_weights) == 2 * len(data.e1_weights) - 2 * n
            assert data.e2_char == data.e2_char.bar()


@pytest.mark.parametrize("n", range(3))
def test_vertex_oracle_and_crosscheck(n):
    for pi in enumerate_partitions(4, n):
        data = FixedPointData(pi)
        ok, lhs, rhs = vertex_oracle_check(data)
        assert ok, f"{pi.id()}: {lhs} != {rhs}"
        ok2, lhs2, rhs2 = obstruction_crosscheck(data)
        assert ok2, f"{pi.id()}: {lhs2} != {rhs2}"


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


def test_parallel_series_matches_serial():
    serial = dt4_degree0_series(3, GENERIC, jobs=1)
    parallel = dt4_degree0_series(3, GENERIC, jobs=4)
    assert serial == parallel


def test_jobs_starts_no_thread(monkeypatch):
    def refuse(self):
        raise AssertionError("dt4_degree0_series started a thread")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    assert dt4_degree0_series(3, GENERIC, jobs=4) == SERIES_GENERIC


def test_orientation_flip_negates_one_summand():
    target = enumerate_partitions(4, 2)[0]
    base = OrientationData()
    flipped = base.flipped(target.id())
    _, rows0 = dt4_degree0_series(2, GENERIC, base, want_details=True)
    _, rows1 = dt4_degree0_series(2, GENERIC, flipped, want_details=True)
    v0 = {pid: v for (_, pid, v) in rows0}
    v1 = {pid: v for (_, pid, v) in rows1}
    assert v1[target.id()] == -v0[target.id()] != 0
    for pid in v0:
        if pid != target.id():
            assert v1[pid] == v0[pid]


def test_relabeled_form_matches_box_relabeling():
    w = LinForm((1, -1, 0, 2))
    perm = (2, 0, 3, 1)
    moved = relabeled_form(w, perm)
    assert moved.a == (w.a[perm[0]], w.a[perm[1]], w.a[perm[2]], w.a[perm[3]])


@pytest.mark.parametrize("perm", list(itertools.permutations(range(4))))
def test_coefficient_symmetry_under_axis_permutation(perm):
    base = dt4_degree0_series(2, GENERIC)
    moved = dt4_degree0_series(2, GENERIC.permuted(perm),
                               transported_orientation(perm, 2))
    assert moved == base


def test_coefficient_symmetry_spot_checks_at_depth_three():
    base = dt4_degree0_series(3, GENERIC)
    for perm in ((1, 0, 2, 3), (3, 2, 1, 0), (1, 2, 3, 0)):
        moved = dt4_degree0_series(3, GENERIC.permuted(perm),
                                   transported_orientation(perm, 3))
        assert moved == base


def test_cyclic_completion_one_point_dimensions():
    rep = cyclic_completion_report(DPartition(3, [(0, 0, 0)]))
    assert rep["ok"]
    dims = {r["degree"]: r["lhs"].coeff_sum() for r in rep["rows"]}
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
    data = FixedPointData(DPartition(4, []))
    assert data.contribution(GENERIC, 1) == 1
    assert data.tvir.is_zero()


# the summand cache: one build per point per process, integer evaluation

POINTS_3 = [pi for n in range(4) for pi in enumerate_partitions(4, n)]
DATA_3 = {pi: FixedPointData(pi) for pi in POINTS_3}


def reference_summand(data: FixedPointData, params: TorusParams, sign: int) -> Fraction:
    """The summand in Fraction arithmetic, one weight at a time, straight
    from the weight lists of the fixed point."""
    def value(w):
        return sum((Fraction(a) * x for a, x in zip(w.a, params.s)), Fraction(0))

    den = Fraction(1)
    for w in data.e1_weights:
        v = value(w)
        if v == 0:
            raise NonGenericParameters(f"tangent weight {w} vanishes at s = {params}")
        den *= v
    half = data.half(sign)
    if half.zero:
        return Fraction(0)
    num = Fraction(half.sign)
    for w, m in half.factors.items():
        num *= value(w) ** m
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
    for pi, e, v in zip(POINTS_3, signs, expected):
        assert DATA_3[pi].contribution(params, e) == v


def test_orientation_flip_after_a_cached_call_negates_one_summand(monkeypatch):
    # the flipped call fills an empty cache; the record keeps the orientation
    # +1 sign and each later call applies its own
    monkeypatch.setattr(localize, "_SUMMANDS", {})
    target = enumerate_partitions(4, 3)[4]
    flipped = OrientationData().flipped(target.id())
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


def test_second_series_at_new_parameters_builds_no_fixed_point(monkeypatch):
    built = count_builds(monkeypatch)
    assert dt4_degree0_series(3, GENERIC) == SERIES_GENERIC
    assert built == POINTS_3
    built.clear()
    assert dt4_degree0_series(3, GENERIC2) == SERIES_GENERIC2
    assert dt4_degree0_series(2, GENERIC, OrientationData().flipped(POINTS_3[3].id()))
    assert built == []


def test_summand_record_keeps_no_characters():
    record = DATA_3[POINTS_3[5]].summand()
    assert record is localize.summand(POINTS_3[5])
    for name in Summand.__slots__:
        value = getattr(record, name)
        assert not isinstance(value, (Laurent, FixedPointData, FactoredWeightProduct))
    assert all(isinstance(w, LinForm) and m > 0 for w, m in record.tangent + record.factors)
    assert sum(m for _, m in record.tangent) == record.tangent_count == 8
    assert sum(m for _, m in record.factors) == record.degree == 6


def test_zero_tangent_weight_is_caught_when_the_record_is_built():
    data = FixedPointData(POINTS_3[2])
    data.e1_weights = [LinForm((1, 1, 1, 1))] + data.e1_weights
    with pytest.raises(InternalInconsistency):
        Summand(data)


def test_series_with_oracle_builds_each_point_once(monkeypatch):
    built = count_builds(monkeypatch)
    payload = series_payload(3, GENERIC, OrientationData(), check_oracle=True)
    assert payload["oracle"]["status"] == "PASS"
    assert payload["coefficients"] == [str(c) for c in SERIES_GENERIC]
    assert sorted(built, key=POINTS_3.index) == POINTS_3


def test_suite_builds_each_fixed_point_once(monkeypatch):
    built = count_builds(monkeypatch)
    results = run_suite()
    assert all(result.ok for _, result in results)
    assert len(built) == len(set(built)) == 42
    assert sorted(p.size for p in built) == [0] + [1] + [2] * 4 + [3] * 10 + [4] * 26


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
        for ch in (data.q, data.tvir, data.e1_char, data.e2_char):
            assert _int_coefficients(ch), pi.id()
        assert type(data.tvir.coeff_sum()) is int
        for source in ("OZ,OZ", "I,OZ"):
            assert _int_coefficients(euler_character(data.ideal, source))
            chars = (ext_characters(data.ideal, source) if n <= 3 else
                     ext_characters(data.ideal, source, degree=1))
            assert all(_int_coefficients(ch) for ch in chars.values())
