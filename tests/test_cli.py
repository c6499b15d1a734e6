"""Front end: formats, exit codes, determinism, and argument checks."""

import csv
import hashlib
import io
import itertools
import json
import os
import subprocess
import sys
import time
from unittest import mock

import pytest

from dt4calc import characters, localize
from dt4calc.cli import (EXIT_BOUND, EXIT_INTERNAL, EXIT_MISMATCH, EXIT_NONGENERIC,
                         EXIT_OK, EXIT_UNSUPPORTED, EXIT_USAGE, build_parser, main)

GENERIC_S = "1,7,41,-49"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_liqin_text_table(capsys):
    code, out, _ = run(capsys, "liqin")
    assert code == EXIT_OK
    lines = out.splitlines()
    assert lines[0] == "eps1 eps2 chi k k_binomial"
    assert lines[1] == "0 1 -6 4 5"
    assert lines[4] == "1 0 -56 29 30"


def test_liqin_csv_and_json_agree(capsys):
    code, out_csv, _ = run(capsys, "liqin", "--format", "csv")
    assert code == EXIT_OK
    rows = list(csv.reader(io.StringIO(out_csv)))
    assert rows[0] == ["eps1", "eps2", "chi", "k", "k_binomial"]
    code, out_json, _ = run(capsys, "liqin", "--format", "json")
    assert code == EXIT_OK
    data = json.loads(out_json)
    for row, rec in zip(rows[1:], data["rows"]):
        assert row == [str(rec["eps1"]), str(rec["eps2"]), rec["chi"],
                       str(rec["k"]), str(rec["k_binomial"])]


def test_liqin_odd_chi_exits_internal(capsys, monkeypatch):
    # chi(E, E) must be even to halve; an odd one is a broken invariant,
    # which ends in exit 6 with one line rather than a traceback
    from dt4calc.chow import VarietyContext

    chi = VarietyContext.chi
    monkeypatch.setattr(VarietyContext, "chi", lambda ctx, e, f: chi(ctx, e, f) + 1)
    code, out, err = run(capsys, "liqin")
    assert code == EXIT_INTERNAL
    assert out == ""
    assert err == "error: chi = -5 is odd, cannot halve\n"


def test_chi_default_reports_oracle(capsys):
    code, out, _ = run(capsys, "chi", "--format", "json")
    assert code == EXIT_OK
    data = json.loads(out)
    assert data["chi"] == "2" and data["oracle"] == "2" and data["ok"]


def test_chi_explicit_line_bundles(capsys):
    code, out, _ = run(capsys, "chi", "--left", "1,2", "--right", "0,0")
    assert code == EXIT_OK
    assert "= 30" in out


def test_vdim_table(capsys):
    code, out, _ = run(capsys, "vdim", "--n-max", "2", "--format", "csv")
    assert code == EXIT_OK
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[1] == ["0", "0", "2", "0"]
    assert rows[-1] == ["2", "1", "-1", "3"]


def test_partitions_counts_and_listing(capsys):
    code, out, _ = run(capsys, "partitions", "--d", "4", "--n-max", "3", "--list")
    assert code == EXIT_OK
    assert "n=2: 4" in out
    assert "  0,0,0,0;1,0,0,0" in out
    assert "total: 16" in out


def test_partitions_bound_exit(capsys):
    code, _, err = run(capsys, "partitions", "--d", "4", "--n-max", "9")
    assert code == EXIT_BOUND
    assert "bound" in err


@pytest.mark.parametrize("argv,module,name,message", [
    (["partitions", "--d", "2", "--n-max", "10001"], "dt4calc.partitions",
     "partition_numbers", "size 10001 is out of range for counting"),
    (["partitions", "--d", "2", "--n-max", "26", "--list"], "dt4calc.partitions",
     "enumerate_partitions", "size 26 exceeds the d=2 bound 25"),
    (["cyclic-check", "--n-max", "13"], "dt4calc.cli", "cyclic_completion_report",
     "size 13 exceeds the d=3 bound 12"),
    (["vertex", "--n-max", "9"], "dt4calc.cli", "FixedPointData",
     "size 9 exceeds the d=4 bound 8 (set DT4_MAX_N to raise the cap)"),
])
def test_size_bound_is_checked_before_any_work(capsys, monkeypatch, argv, module,
                                               name, message):
    # the work the levels below the bound would do fails the test if it runs
    def fail(*args, **kwargs):
        raise AssertionError(f"{name} ran before the bound was checked")

    monkeypatch.delenv("DT4_MAX_N", raising=False)
    monkeypatch.setattr(f"{module}.{name}", fail)
    code, out, err = run(capsys, *argv)
    assert code == EXIT_BOUND
    assert out == ""
    assert err == f"error: {message}\n"


def test_check_oracle_catches_an_e1_error(capsys, monkeypatch):
    # an antisymmetric error in E1 leaves E2 unchanged, so only the direct
    # comparison with Taylor Ext^0 sees it
    from dt4calc import localize

    def plus_error(chars, k):
        # add t1 - t1^-1, whose key is k, to a character dict
        out = {**chars, k: chars.get(k, 0) + 1, -k: chars.get(-k, 0) - 1}
        return {key: m for key, m in out.items() if m}

    kernel = localize.tangent_codes

    def tampered(pi, base):
        codes, terms = kernel(pi, base)
        if not pi.size:
            return codes, terms
        # t1 packs to (2n + 1)^3 on the full torus, where the first exponent
        # is the highest of four digits in base 2n + 1
        return (plus_error(codes, characters.subtorus_code((1, 0, 0, 0), base)),
                plus_error(terms, (2 * pi.size + 1) ** 3))

    monkeypatch.setattr(localize, "tangent_codes", tampered)
    monkeypatch.setattr(localize, "_SUMMANDS", {})
    for command in ("vertex", "dt4-series"):
        code, out, _ = run(capsys, command, "--n-max", "2", "--s", GENERIC_S,
                           "--check-oracle")
        assert code == EXIT_MISMATCH, command
        assert "oracle: FAIL (5 partitions checked)" in out


def test_broken_invariant_exits_internal(capsys, monkeypatch):
    # moving multiplicity 3 from s1 to s3 in the half V keeps its rank n but
    # leaves E2 = W + bar(W), W = E1 - V, with -3 at s3 and -s3, which no
    # honest representation has
    kernel = localize.half_codes

    def tampered(pi, base):
        half = dict(kernel(pi, base))
        if pi.size == 2:
            s1 = characters.subtorus_code((1, 0, 0, 0), base)
            s3 = characters.subtorus_code((0, 0, 1, 0), base)
            for k, m in ((s1, -3), (s3, 3)):
                half[k] = half.get(k, 0) + m
        return half

    monkeypatch.setattr(localize, "half_codes", tampered)
    monkeypatch.setattr(localize, "_SUMMANDS", {})
    code, out, err = run(capsys, "dt4-series", "--n-max", "2", "--s", GENERIC_S)
    assert code == EXIT_INTERNAL
    assert out == ""
    assert err == "error: obstruction character has non effective terms {'-s3': -3, 's3': -3}\n"


@pytest.mark.parametrize("kernel,edit,message", [
    ("half_codes", lambda codes, s1: codes.update({s1: codes.get(s1, 0) + 1}),
     "virtual dimension shadow 4 != 2"),
    ("tangent_codes", lambda codes, s1: codes.update({s1: -1}),
     "tangent character has non effective terms {'s1': -1}"),
    ("tangent_codes", lambda codes, s1: codes.update({0: 1}),
     "zero weight in the tangent character"),
], ids=["rank", "effective-tangent", "zero-tangent-weight"])
def test_each_checked_invariant_exits_internal(kernel, edit, message, capsys, monkeypatch):
    # each invariant a fixed point still checks, broken at the one box point
    # through the subtorus codes of V or of E1, ends the series in exit 6
    # with one line that names it
    real = getattr(localize, kernel)

    def tampered(pi, base):
        out = real(pi, base)
        if pi.size == 1:
            edit(out if kernel == "half_codes" else out[0],
                 characters.subtorus_code((1, 0, 0, 0), base))
        return out

    monkeypatch.setattr(localize, kernel, tampered)
    monkeypatch.setattr(localize, "_SUMMANDS", {})
    code, out, err = run(capsys, "dt4-series", "--n-max", "1", "--s", GENERIC_S)
    assert code == EXIT_INTERNAL
    assert out == ""
    assert err == f"error: {message}\n"


def test_check_oracle_catches_an_extra_lcm_term(capsys, monkeypatch):
    from dt4calc import taylor

    real = taylor._lcm_sum
    monkeypatch.setattr(taylor, "_lcm_sum",
                        lambda ideal: {**real(ideal), (9,) * ideal.nvars: 1})
    code, out, _ = run(capsys, "dt4-series", "--n-max", "2", "--s", GENERIC_S,
                       "--check-oracle")
    assert code == EXIT_MISMATCH
    assert out.splitlines()[-1] == "oracle: FAIL (5 partitions checked)"


@pytest.mark.parametrize("wrong", [
    lambda gens: gens[:-1],
    lambda gens: gens[:-1] + ((gens[-1][0] + 1,) + gens[-1][1:],),
], ids=["dropped", "raised"])
def test_check_oracle_fails_generators_that_miss_the_staircase(wrong, capsys, monkeypatch):
    # the resolution oracle reads K from the generators and Q from the boxes,
    # so generators that do not cut out the partition are a mismatch, not a
    # crash; the last generator is the pure power of t1, dropped or raised
    from dt4calc.partitions import DPartition

    to_ideal = DPartition.to_ideal

    def tampered(pi):
        ideal = to_ideal(pi)
        ideal.gens = wrong(ideal.gens)
        return ideal

    monkeypatch.setattr(DPartition, "to_ideal", tampered)
    code, out, _ = run(capsys, "dt4-series", "--n-max", "2", "--s", GENERIC_S,
                       "--check-oracle")
    assert code == EXIT_MISMATCH
    assert out.splitlines()[-1] == "oracle: FAIL (5 partitions checked)"


def first_of_orbit(pi):
    """The member of pi's S4 orbit whose sorted boxes come first."""
    from dt4calc.partitions import DPartition

    return DPartition(4, min(pi.relabeled(p).boxes for p in itertools.permutations(range(4))))


@pytest.mark.parametrize("command", ["dt4-series", "vertex"])
def test_check_oracle_builds_one_ideal_per_orbit(command, capsys, monkeypatch):
    # the 15 points with n <= 3 fall into 4 orbits: one box, two boxes, three
    # in a line and three in an L
    from dt4calc.partitions import DPartition, partition_levels

    built = []
    to_ideal = DPartition.to_ideal
    monkeypatch.setattr(DPartition, "to_ideal", lambda pi: built.append(pi) or to_ideal(pi))
    code, out, _ = run(capsys, command, "--n-max", "3", "--s", GENERIC_S, "--check-oracle")
    assert code == EXIT_OK
    assert out.splitlines()[-1] == "oracle: PASS (15 partitions checked)"
    firsts = {first_of_orbit(pi) for level in partition_levels(4, 3)[1:] for pi in level}
    assert len(built) == len(set(built)) == 4
    assert set(built) == firsts


@pytest.mark.parametrize("command", ["dt4-series", "vertex"])
def test_check_oracle_catches_a_fault_off_the_first_member_of_each_orbit(
        command, capsys, monkeypatch):
    # t1 - t1^-1 added to E1 on the full torus, only at points that are not
    # the first member of their orbit: the one point where each orbit's
    # resolution route is computed is left honest, and the 11 others must
    # still fail against the route moved to them
    tangent_codes = localize.tangent_codes

    def tampered(pi, base):
        e1, terms = tangent_codes(pi, base)
        if pi.size and pi != first_of_orbit(pi):
            t1 = (2 * pi.size + 1) ** 3
            terms = {**terms, t1: terms.get(t1, 0) + 1, -t1: terms.get(-t1, 0) - 1}
        return e1, terms

    monkeypatch.setattr(localize, "tangent_codes", tampered)
    code, out, _ = run(capsys, command, "--n-max", "3", "--s", GENERIC_S, "--check-oracle")
    assert code == EXIT_MISMATCH
    assert out.splitlines()[-1] == "oracle: FAIL (15 partitions checked)"
    if command == "vertex":
        assert out.count("\noracle: FAIL\n") == 11 and out.count("\noracle: PASS\n") == 4


@pytest.mark.parametrize("command", ["dt4-series", "vertex"])
def test_check_oracle_looks_up_each_point_once_per_run(command, capsys, monkeypatch):
    # both checks read a point's route from the run's memo, which builds one
    # ideal for each orbit it meets and maps every member to it, so each run
    # builds the 4 ideals of the orbits with 1 <= n <= 3 and the next run
    # builds them again, and so does the suite's run of its criterion
    from dt4calc.partitions import DPartition
    from dt4calc.suite import run_suite

    built = []
    to_ideal = DPartition.to_ideal
    monkeypatch.setattr(DPartition, "to_ideal", lambda pi: built.append(pi) or to_ideal(pi))
    for _ in range(2):
        code, out, _ = run(capsys, command, "--n-max", "3", "--s", GENERIC_S,
                           "--check-oracle")
        assert code == EXIT_OK
        assert out.splitlines()[-1] == "oracle: PASS (15 partitions checked)"
        assert len(built) == len({first_of_orbit(pi) for pi in built}) == 4
        built.clear()
    assert [row["ok"] for row in run_suite(only="vertex-oracle")] == [True]
    assert len(built) == len({first_of_orbit(pi) for pi in built}) == 4


def aliased(ch, n, avoid=()):
    """ch with its first term not in `avoid` moved out of [-n, n]^4, onto a
    vector with the same full torus code in base 2n + 1 and subtorus code in
    base 4n + 1."""
    from dt4calc.characters import subtorus_code, torus_code
    from dt4calc.exact import Laurent

    p, q = 2 * n + 1, 4 * n + 1
    # p(p - 1) (1, 1, 1, 1) + (p^2 + p + 1) (1, -q, 0, 0) + (0, 1, -q, 0)
    r, s = p * (p - 1), p * p + p + 1
    delta = (r + s, r - q * s + 1, r - q, r)
    assert torus_code(delta, p) == 0 and subtorus_code(delta, q) == 0
    terms = dict(ch.terms)
    e = min(set(terms) - set(avoid))
    terms[tuple(a + b for a, b in zip(e, delta))] = terms.pop(e)
    return Laurent(terms)


@pytest.mark.parametrize("route", ["euler_character", "ext_characters"])
def test_check_oracle_refuses_a_route_term_outside_the_packing_box(route, capsys,
                                                                  monkeypatch):
    # the moved term packs onto the codes of the true one, so only the range
    # guard on the route's exponents tells them apart; without it both
    # checks would compare equal codes and pass.  The chi term moved is at
    # no exponent of Q + bar(Q) kappa^-1, so the route T keeps it whole
    from dt4calc.localize import FixedPointData
    from dt4calc.partitions import partition_levels

    real = getattr(localize, route)

    def tampered(ideal, **kwargs):
        got = real(ideal, **kwargs)
        n = ideal.partition.size
        if route == "ext_characters":
            return {**got, 1: aliased(got[1], n)}
        boxes = ideal.partition.boxes
        return aliased(got, n, avoid=boxes + tuple(tuple(-x - 1 for x in b) for b in boxes))

    monkeypatch.setattr(localize, route, tampered)
    check = {"euler_character": localize.vertex_oracle_check,
             "ext_characters": localize.obstruction_crosscheck}[route]
    for pi in (pi for level in partition_levels(4, 3)[1:] for pi in level):
        ok, lhs, rhs = check(FixedPointData(pi))
        assert not ok and lhs != rhs, pi.id()
    code, out, _ = run(capsys, "dt4-series", "--n-max", "3", "--s", GENERIC_S,
                       "--check-oracle")
    assert code == EXIT_MISMATCH
    assert out.splitlines()[-1] == "oracle: FAIL (15 partitions checked)"


def test_check_oracle_keeps_no_state_between_runs(capsys, monkeypatch):
    # each run makes its own memo: a fault introduced after a passing run
    # shows in the next run of the same command line and of the suite
    from dt4calc import taylor
    from dt4calc.suite import run_suite

    argv = ("dt4-series", "--n-max", "2", "--s", GENERIC_S, "--check-oracle")
    code, out, _ = run(capsys, *argv)
    assert code == EXIT_OK and out.splitlines()[-1] == "oracle: PASS (5 partitions checked)"
    assert [row["ok"] for row in run_suite(only="vertex-oracle")] == [True]
    real = taylor._lcm_sum
    monkeypatch.setattr(taylor, "_lcm_sum",
                        lambda ideal: {**real(ideal), (9,) * ideal.nvars: 1})
    code, out, _ = run(capsys, *argv)
    assert code == EXIT_MISMATCH
    assert out.splitlines()[-1] == "oracle: FAIL (5 partitions checked)"
    assert [row["ok"] for row in run_suite(only="vertex-oracle")] == [False]


def test_check_oracle_catches_a_tampered_packed_vertex_character(capsys, monkeypatch):
    # swap one obstruction pair of each point for another pair, through V:
    # the rank of V and the effectiveness of E2 still hold, so only the
    # comparison of the packed T with the resolution sees it
    from collections import Counter

    from dt4calc import localize
    from dt4calc.localize import FixedPointData
    from dt4calc.partitions import partition_levels

    e2 = {pi: FixedPointData(pi).e2 for level in partition_levels(4, 2) for pi in level}
    half_codes = localize.half_codes

    def tampered(pi, base):
        half = Counter(half_codes(pi, base))
        if pi.size:
            v = max(e2[pi])
            half[v] += 1
            half[v + 1] -= 1
        return dict(half)

    monkeypatch.setattr(localize, "half_codes", tampered)
    monkeypatch.setattr(localize, "_SUMMANDS", {})
    for command in ("vertex", "dt4-series"):
        code, out, _ = run(capsys, command, "--n-max", "2", "--s", GENERIC_S,
                           "--check-oracle")
        assert code == EXIT_MISMATCH, command
        assert "oracle: FAIL (5 partitions checked)" in out
    # the obstruction cross-check sees the changed E2 as well, so the
    # resolution oracle's own comparison is checked on its own
    for pi in e2:
        assert localize.vertex_oracle_check(FixedPointData(pi))[0] == (pi.size == 0)


def test_calls_of_one_command_share_one_parser(capsys):
    parser = build_parser("dt4-series")
    with mock.patch.object(parser, "parse_args", wraps=parser.parse_args) as spy:
        first = run(capsys, "dt4-series", "--n-max", "2", "--s", GENERIC_S, "--check-oracle")
        assert first[0] == EXIT_OK and "oracle: PASS" in first[1]
        other = run(capsys, "vertex", "--n-max", "1", "--format", "json")
        assert other[0] == EXIT_OK and json.loads(other[1])["n_max"] == 1
        # no flag of an earlier call carries over to the next one
        again = run(capsys, "dt4-series", "--n-max", "2", "--s", GENERIC_S)
        assert again[0] == EXIT_OK and again[1] == first[1].replace(
            "oracle: PASS (5 partitions checked)\n", "")
    # both dt4-series calls parsed with the one cached parser, vertex did not
    assert [call.args[0][0] for call in spy.call_args_list] == ["dt4-series", "dt4-series"]


def _subcommands(parser) -> list[str]:
    return list(next(a for a in parser._actions if a.dest == "command").choices)


def test_a_command_line_builds_only_its_own_subparser(capsys):
    build_parser.cache_clear()
    code, _, _ = run(capsys, "dt4-series", "--n-max", "1", "--s", GENERIC_S)
    assert code == EXIT_OK
    assert build_parser.cache_info().currsize == 1
    assert _subcommands(build_parser("dt4-series")) == ["dt4-series"]
    assert build_parser.cache_info().misses == 1, "main built another parser"
    # the determinism criterion parses its series with the dt4-series parser
    build_parser.cache_clear()
    code, _, _ = run(capsys, "suite", "--only", "determinism")
    assert code == EXIT_OK
    assert build_parser.cache_info().currsize == 2
    assert _subcommands(build_parser("suite")) == ["suite"]
    assert _subcommands(build_parser("dt4-series")) == ["dt4-series"]
    assert build_parser.cache_info().misses == 2, "the suite built another parser"
    assert len(_subcommands(build_parser())) == 10


def test_partitions_env_override(capsys, monkeypatch):
    monkeypatch.setenv("DT4_MAX_N", "9")
    code, out, _ = run(capsys, "partitions", "--d", "4", "--n-max", "9",
                       "--format", "csv")
    assert code == EXIT_OK
    assert out.splitlines()[-1] == "9,1464"


def test_vertex_oracle_line(capsys):
    code, out, _ = run(capsys, "vertex", "--n-max", "2", "--check-oracle")
    assert code == EXIT_OK
    assert "oracle: PASS (5 partitions checked)" in out


def test_series_one_box_value(capsys):
    code, out, _ = run(capsys, "dt4-series", "--n-max", "1")
    assert code == EXIT_OK
    assert "q^1: -5/3" in out


def test_series_trivial_truncation(capsys):
    code, out, _ = run(capsys, "dt4-series", "--n-max", "0")
    assert code == EXIT_OK
    assert "q^0: 1" in out


def test_series_oracle_line_matches_fifteen_points(capsys):
    code, out, _ = run(capsys, "dt4-series", "--n-max", "3", "--s", GENERIC_S,
                       "--check-oracle")
    assert code == EXIT_OK
    assert "oracle: PASS (15 partitions checked)" in out


def test_series_nongeneric_exit(capsys):
    code, _, err = run(capsys, "dt4-series", "--n-max", "3")
    assert code == EXIT_NONGENERIC
    assert "vanishes" in err


def test_series_bad_parameters_usage_exit(capsys):
    code, _, err = run(capsys, "dt4-series", "--s", "1,2,3,4")
    assert code == EXIT_USAGE
    assert "sum to zero" in err


def test_series_byte_determinism_across_jobs(capsys):
    outs = []
    for jobs in ("1", "4"):
        code, out, _ = run(capsys, "dt4-series", "--n-max", "3", "--s", GENERIC_S,
                           "--jobs", jobs, "--format", "json")
        assert code == EXIT_OK
        outs.append(out.encode())
    assert outs[0] == outs[1]


@pytest.mark.parametrize("args", [
    ("dt4-series", "--n-max", "4", "--s", GENERIC_S, "--format", "json"),
    ("dt4-series", "--n-max", "4", "--s", GENERIC_S, "--check-oracle", "--format", "json"),
    ("suite", "--format", "json"),
    ("cyclic-check", "--n-max", "4", "--format", "json"),
])
def test_series_bytes_do_not_depend_on_the_hash_seed(args):
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    argv = [sys.executable, "-m", "dt4calc.cli", *args]
    outs = []
    for seed in ("0", "12345"):
        env = {k: v for k, v in os.environ.items() if k != "DT4_MAX_N"}
        env.update(PYTHONHASHSEED=seed, PYTHONPATH=src)
        done = subprocess.run(argv, env=env, capture_output=True, check=True)
        outs.append(done.stdout)
    assert outs[0] == outs[1] and outs[0].startswith(b"{")


def test_series_nongeneric_message_is_byte_identical(capsys):
    # the second run evaluates from the summand records the first one left
    for _ in range(2):
        code, out, err = run(capsys, "dt4-series", "--s", "1,2,3,-6", "--n-max", "3")
        assert code == EXIT_NONGENERIC
        assert out == ""
        assert err == "error: tangent weight -2*s1 + s2 vanishes at s = 1,2,3,-6\n"


def test_series_nongeneric_message_at_depth_eight_cold_and_warm(capsys, monkeypatch):
    # the failing point is transported from the first point of its orbit;
    # the cold run fills an empty cache and the warm run evaluates from it
    monkeypatch.setattr(localize, "_SUMMANDS", {})
    for _ in range(2):
        code, out, err = run(capsys, "dt4-series", "--n-max", "8", "--s", "1,7,41,-49")
        assert code == EXIT_NONGENERIC
        assert out == ""
        assert err == "error: tangent weight -7*s1 + s2 vanishes at s = 1,7,41,-49\n"


def test_series_error_comes_before_any_oracle_work(capsys, monkeypatch):
    # the oracle runs after the series, so a vanishing tangent weight stops
    # the run before any Taylor work, cold and warm
    from dt4calc import cli
    from dt4calc.partitions import DPartition

    def oracle_started(*args):
        raise AssertionError("the oracle started before the series stopped")

    monkeypatch.setattr(cli, "obstruction_crosscheck", oracle_started)
    monkeypatch.setattr(DPartition, "to_ideal", oracle_started)
    monkeypatch.setattr(localize, "_SUMMANDS", {})
    for _ in range(2):
        code, out, err = run(capsys, "dt4-series", "--n-max", "8", "--s", GENERIC_S,
                             "--check-oracle")
        assert code == EXIT_NONGENERIC
        assert out == ""
        assert err == "error: tangent weight -7*s1 + s2 vanishes at s = 1,7,41,-49\n"


@pytest.mark.parametrize("s", ["1e4301,-1e4301,1,-1", "1,1,-1e-4301,-2"])
def test_series_refuses_an_exponent_past_the_int_string_limit(capsys, s):
    code, out, err = run(capsys, "dt4-series", "--n-max", "1", "--s", s)
    bad = next(p for p in s.split(",") if "e" in p)
    assert code == EXIT_USAGE
    assert out == ""
    assert err == (f"error: bad --s value {s!r}: "
                   f"the exponent of {bad!r} exceeds 4300 in magnitude\n")


def test_series_with_a_huge_exponent_in_s_exits_at_once():
    # Fraction would build 10**999999999 before any check; in a subprocess,
    # so that a hang fails the test instead of stalling the run
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    for s in ("1e999999999,-1e999999999,1,-1", "1e-999999999,1,1,-2"):
        done = subprocess.run([sys.executable, "-m", "dt4calc.cli", "dt4-series",
                               "--n-max", "1", "--s", s],
                              env=env, capture_output=True, text=True, timeout=60)
        assert done.returncode == EXIT_USAGE
        assert done.stdout == ""
        assert done.stderr.startswith(f"error: bad --s value {s!r}: the exponent of")
        assert done.stderr.count("\n") == 1


BIG = str(10 ** 1500)


@pytest.mark.parametrize("args", [
    ("dt4-series", "--n-max", "1", "--s", "1e4300,-1e4300,1,-1"),
    ("dt4-series", "--n-max", "1", "--s", "1e-4300,-1e-4300,1,-1"),
    ("vertex", "--n-max", "1", "--s", "1e4300,-1e4300,1,-1"),
    ("dt4-series", "--n-max", "2", "--s", f"{BIG},1,2,-{int(BIG) + 3}"),
    *(("goettsche", "--euler", BIG, "--n-max", "3", "--format", f)
      for f in ("text", "json", "csv")),
    ("tstar", "--c", "1,0,-3", "--euler", BIG),
    ("chi", "--left", f"{'9' * 4000},{'9' * 4000}"),
])
def test_a_number_past_the_int_string_limit_exits_3(args):
    # 10^4300 parses but has 4301 digits; a coordinate of 1501 digits gives
    # a coefficient past the limit at n = 2, as e = 10^1500 does at q^3 and
    # a bidegree of 4000 digits does in chi
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = {k: v for k, v in os.environ.items() if k != "DT4_MAX_N"}
    env.update(PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-m", "dt4calc.cli", *args],
                          env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == EXIT_BOUND
    assert done.stdout == ""
    assert done.stderr == ("error: a number to print has more than 4300 digits, "
                           "the interpreter's limit for integer strings\n")


@pytest.mark.parametrize("argv", [
    ["goettsche", "--euler", str(10 ** 40), "--n-max", "500"],
    ["goettsche", "--euler", str(10 ** 200), "--n-max", "500", "--check-oracle"],
    ["tstar", "--c", "1,0,-500", "--euler", str(10 ** 20)],
])
def test_a_punctual_series_past_the_int_string_limit_exits_3_before_it_runs(
        argv, capsys, monkeypatch):
    # for e >= 1 the q^n coefficient is at least C(e + n - 1, n), so a
    # binomial past the limit settles exit 3 before the series is summed
    from dt4calc import cli, series

    def refuse(*args):
        raise RuntimeError("the punctual series ran")

    for module, name in ((cli, "goettsche_series"), (cli, "convolution_oracle"),
                         (series, "goettsche_series")):
        monkeypatch.setattr(module, name, refuse)
    code, out, err = run(capsys, *argv)
    assert code == EXIT_BOUND
    assert out == ""
    assert err == ("error: a number to print has more than 4300 digits, "
                   "the interpreter's limit for integer strings\n")


def test_the_punctual_early_exit_only_fires_where_the_series_would_not_print():
    # at the lowest limit the interpreter allows, every (e, n) the early
    # check refuses has a q^n coefficient too long to print, and some pass
    from dt4calc.cli import _check_punctual_digits
    from dt4calc.errors import BoundExceeded
    from dt4calc.exact import number_str
    from dt4calc.series import goettsche_series

    def exits_3(check, *args):
        try:
            check(*args)
        except BoundExceeded:
            return True
        return False

    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        verdicts = {(e, n): exits_3(_check_punctual_digits, e, n)
                    for e in (-10 ** 12, 0, 1, 2, 24, 10 ** 6, 10 ** 12, 10 ** 15)
                    for n in range(0, 81, 16)}
        for (e, n), early in verdicts.items():
            if early:
                assert exits_3(number_str, goettsche_series(e, n)[n]), (e, n)
    finally:
        sys.set_int_max_str_digits(old)
    assert verdicts[10 ** 15, 80] and not verdicts[10 ** 12, 16]
    assert not any(verdicts[e, 80] for e in (-10 ** 12, 0, 1, 2, 24, 10 ** 6))


def test_unbalanced_s_past_the_int_string_limit_gives_the_sum_message(capsys):
    code, out, err = run(capsys, "dt4-series", "--n-max", "1", "--s", "1e4300,1,1,1")
    assert code == EXIT_USAGE
    assert out == ""
    assert err == ("error: bad --s value '1e4300,1,1,1': "
                   "parameter coordinates must sum to zero\n")
    # a coordinate that prints is still shown
    code, _, err = run(capsys, "dt4-series", "--n-max", "1", "--s", "1,1,1,1")
    assert code == EXIT_USAGE
    assert err == ("error: bad --s value '1,1,1,1': "
                   "parameter coordinates must sum to zero, got 1,1,1,1\n")


def test_a_coordinate_int_cannot_read_gives_its_own_message(capsys, tmp_path):
    # int() refuses more than 4300 digits with advice to raise the limit,
    # which the program never does; both inputs name the cause themselves
    huge = "4" * 4400
    code, out, err = run(capsys, "dt4-series", "--n-max", "1", "--s", f"{huge},1,1,1")
    assert code == EXIT_USAGE and out == ""
    assert err == (f"error: bad --s value '{huge},1,1,1': "
                   f"a coordinate is longer than 4300 characters\n")
    path = tmp_path / "orient.json"
    path.write_text(f'{{"0,0,0,0": {huge}}}')
    code, out, err = run(capsys, "dt4-series", "--orientation", str(path))
    assert code == EXIT_USAGE and out == ""
    assert err == (f"error: bad orientation file '{path}': "
                   f"orientation file {path} holds an integer too long to read\n")


@pytest.mark.parametrize("joined,split,value", [
    (["dt4-series", "--n-max", "1", "--s=-1,2,5,-6"],
     ["dt4-series", "--n-max", "1", "--s", "-1,2,5,-6"], "q^1: 7/15"),
    (["chi", "--left=-1,1", "--right=-1,1"],
     ["chi", "--left", "-1,1", "--right", "-1,1"], "chi(O(-1,1), O(-1,1)) = 2"),
])
def test_a_value_that_begins_with_a_dash_needs_the_joined_form(joined, split, value,
                                                               capsys):
    code, out, err = run(capsys, *joined)
    assert code == EXIT_OK and err == "" and value in out.splitlines()
    with pytest.raises(SystemExit) as exc:
        main(split)
    assert exc.value.code == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines()[-1].endswith(": expected one argument")


def test_deep_series_bytes_are_pinned(capsys):
    # orbits with non-trivial stabilizers and all 24 relabelings first occur
    # at these depths; n <= 10 runs in a fresh process under DT4_MAX_N=11
    code, out, _ = run(capsys, "dt4-series", "--n-max", "8", "--s", "2,31,347,-380")
    assert code == EXIT_OK
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "8814ef9c8405178eb55399f9739303799279d8b9a10e8faa86c7cd395908089b"
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src, DT4_MAX_N="11")
    done = subprocess.run([sys.executable, "-m", "dt4calc.cli", "dt4-series", "--n-max", "10",
                           "--s", "2,31,347,-380"],
                          env=env, capture_output=True, check=True, timeout=120)
    assert hashlib.sha256(done.stdout).hexdigest() == \
        "4762e374643568ea80929868171e4f196275c0d8ee5ec76d1f39c02ed29d3631"


def test_deep_oracle_bytes_are_pinned(capsys, monkeypatch):
    # 547 points with n <= 7 in 53 orbits of 1, 3, 4, 6, 12 and 24 points;
    # the resolution route is computed once per orbit and moved to the rest
    from dt4calc.partitions import DPartition

    built = []
    to_ideal = DPartition.to_ideal
    monkeypatch.setattr(DPartition, "to_ideal", lambda pi: built.append(pi) or to_ideal(pi))
    code, out, _ = run(capsys, "dt4-series", "--n-max", "7", "--s", GENERIC_S,
                       "--check-oracle")
    assert code == EXIT_OK
    assert out.splitlines()[-1] == "oracle: PASS (547 partitions checked)"
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "8fd883353fe4255f5ccd9fee5be20a420cf06b9200b9881d66800661ecc3a8a1"
    assert len(built) == len(set(built)) == 53


def test_series_repeat_run_is_byte_identical(capsys):
    _, first, _ = run(capsys, "dt4-series", "--n-max", "2", "--s", GENERIC_S)
    _, second, _ = run(capsys, "dt4-series", "--n-max", "2", "--s", GENERIC_S)
    assert first == second


def test_series_orientation_file_flips_one_point(capsys, tmp_path):
    target = "0,0,0,0;1,0,0,0"
    path = tmp_path / "orient.json"
    path.write_text(json.dumps({target: -1}))
    _, base, _ = run(capsys, "dt4-series", "--n-max", "2", "--s", GENERIC_S,
                     "--format", "json")
    code, out, _ = run(capsys, "dt4-series", "--n-max", "2", "--s", GENERIC_S,
                       "--orientation", str(path), "--format", "json")
    assert code == EXIT_OK
    v0 = {p["id"]: p["value"] for p in json.loads(base)["points"]}
    v1 = {p["id"]: p["value"] for p in json.loads(out)["points"]}
    for pid in v0:
        if pid == target:
            assert v1[pid] == str(-_frac(v0[pid]))
        else:
            assert v1[pid] == v0[pid]


def _frac(text):
    from fractions import Fraction
    return Fraction(text)


def test_series_corrupt_orientation_usage_exit(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{ nope")
    code, _, err = run(capsys, "dt4-series", "--orientation", str(path))
    assert code == EXIT_USAGE
    assert "orientation" in err


def test_deeply_nested_orientation_is_rejected(capsys, tmp_path):
    # json.load runs out of recursion depth on this file
    path = tmp_path / "deep.json"
    path.write_text("[" * 100000)
    code, out, err = run(capsys, "dt4-series", "--s", GENERIC_S, "--orientation", str(path))
    assert code == EXIT_USAGE
    assert out == "" and err.startswith("error: bad orientation file")
    assert err.count("\n") == 1 and "nested too deeply" in err
    code, out, _ = run(capsys, "suite", "--only", "orientation", "--orientation", str(path))
    assert code == EXIT_MISMATCH
    assert out.startswith("FAIL 10 orientation-flip: orientation data rejected")


@pytest.mark.skipif(not os.path.exists("/dev/zero"), reason="needs /dev/zero")
def test_an_endless_orientation_file_is_refused_at_the_cap(capsys):
    # /dev/zero never ends: the read stops one character past the cap, so
    # memory stays bounded and each command names the cause in one line
    message = (f"orientation file /dev/zero is longer than "
               f"{localize.OrientationData.MAX_CHARS} characters")
    code, out, err = run(capsys, "dt4-series", "--n-max", "1", "--orientation", "/dev/zero")
    assert code == EXIT_USAGE and out == ""
    assert err == f"error: bad orientation file '/dev/zero': {message}\n"
    code, out, err = run(capsys, "suite", "--orientation", "/dev/zero", "--only", "orientation")
    assert code == EXIT_MISMATCH and err == ""
    assert out.startswith(f"FAIL 10 orientation-flip: orientation data rejected: {message}\n")


def test_an_orientation_file_at_the_cap_is_read(capsys, monkeypatch, tmp_path):
    monkeypatch.setattr(localize.OrientationData, "MAX_CHARS", 10)
    path = tmp_path / "orient.json"
    path.write_text("{}" + " " * 8)
    assert run(capsys, "dt4-series", "--n-max", "1", "--orientation", str(path))[0] == EXIT_OK
    path.write_text("{}" + " " * 9)
    code, out, err = run(capsys, "dt4-series", "--n-max", "1", "--orientation", str(path))
    assert code == EXIT_USAGE and out == ""
    assert err == (f"error: bad orientation file '{path}': "
                   f"orientation file {path} is longer than 10 characters\n")


def test_goettsche_json_integer_array(capsys):
    code, out, _ = run(capsys, "goettsche", "--euler", "3", "--n-max", "7",
                       "--format", "json")
    assert code == EXIT_OK
    data = json.loads(out)
    assert data["coefficients"] == [1, 3, 9, 22, 51, 108, 221, 429]
    assert all(isinstance(c, int) for c in data["coefficients"])


def test_goettsche_requires_euler(capsys):
    code, _, err = run(capsys, "goettsche")
    assert code == EXIT_USAGE
    assert "--euler" in err


def test_tstar_cases_and_exits(capsys):
    code, out, _ = run(capsys, "tstar", "--c", "1,0,-4", "--euler", "3")
    assert code == EXIT_OK
    assert "value: 51" in out
    code, out, _ = run(capsys, "tstar", "--c", "2,1,5")
    assert code == EXIT_OK
    assert "value: 0" in out
    code, _, err = run(capsys, "tstar", "--c", "1,3,-2")
    assert code == EXIT_UNSUPPORTED
    code, _, err = run(capsys, "tstar", "--c", "1,0,-4")
    assert code == EXIT_USAGE


def test_cyclic_check_reports_all_pass(capsys):
    code, out, _ = run(capsys, "cyclic-check", "--n-max", "2")
    assert code == EXIT_OK
    assert "checked 5 plane partitions: all degrees match" in out


def test_suite_all_pass(capsys):
    code, out, _ = run(capsys, "suite")
    assert code == EXIT_OK
    lines = out.splitlines()
    assert sum(1 for ln in lines if ln.startswith("PASS")) == 11
    assert lines[-1] == "11 checks: 11 passed, 0 failed"


def test_suite_only_filter(capsys):
    code, out, _ = run(capsys, "suite", "--only", "goettsche")
    assert code == EXIT_OK
    lines = [ln for ln in out.splitlines() if ln.startswith(("PASS", "FAIL"))]
    assert len(lines) == 1 and "goettsche-series" in lines[0]


def test_suite_fails_a_check_past_its_runtime_budget(capsys, monkeypatch):
    # each clock reading is 2 s after the one before, so the liqin check
    # takes 2 s against its 1 s budget
    clock = itertools.count(0, 2)
    monkeypatch.setattr(time, "perf_counter", lambda: next(clock))
    code, out, err = run(capsys, "suite", "--only", "liqin")
    assert code == EXIT_MISMATCH
    assert out.splitlines() == [
        "FAIL  1 liqin-table: all four cases exact; exceeded the 1 s budget",
        "1 checks: 0 passed, 1 failed"]
    assert err == ""


def test_suite_only_no_match_is_usage_error(capsys):
    code, _, err = run(capsys, "suite", "--only", "nonsense")
    assert code == EXIT_USAGE


def test_suite_corrupt_orientation_fails_orientation_check(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("][")
    code, out, _ = run(capsys, "suite", "--orientation", str(path))
    assert code == EXIT_MISMATCH
    assert any(ln.startswith("FAIL") and "orientation-flip" in ln
               for ln in out.splitlines())


def test_unknown_subcommand_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == EXIT_USAGE
    capsys.readouterr()


def test_non_integer_bound_variable(capsys, monkeypatch):
    monkeypatch.setenv("DT4_MAX_N", "abc")
    code, out, _ = run(capsys, "partitions", "--d", "2")
    assert code == EXIT_OK
    assert out.splitlines()[-1] == "total: 30"
    code, out, err = run(capsys, "dt4-series", "--n-max", "1")
    assert code == EXIT_BOUND
    assert out == ""
    assert err == "error: DT4_MAX_N must be an integer, got 'abc'\n"


def test_negative_bound_variable(capsys, monkeypatch):
    # a negative cap names no size, so it is refused when a d = 4
    # enumeration first needs it, not reported as a size past the cap
    monkeypatch.setenv("DT4_MAX_N", "-3")
    code, out, _ = run(capsys, "partitions", "--d", "2")
    assert code == EXIT_OK
    for argv in (["dt4-series", "--n-max", "0"], ["vertex", "--n-max", "1"]):
        code, out, err = run(capsys, *argv)
        assert code == EXIT_BOUND
        assert out == ""
        assert err == "error: DT4_MAX_N must be at least 0, got '-3'\n"
    monkeypatch.setenv("DT4_MAX_N", "0")
    code, out, _ = run(capsys, "dt4-series", "--n-max", "0")
    assert code == EXIT_OK and "q^0: 1" in out


@pytest.mark.parametrize("argv,cap,work", [
    (["vdim", "--n-max", "100001"], "vdim cap 100000", "vdim_ideal_cy4"),
    (["goettsche", "--euler", "2", "--n-max", "501", "--check-oracle"],
     "goettsche cap 500", "goettsche_series"),
])
def test_n_max_caps_exit_3_before_any_work(argv, cap, work, capsys, monkeypatch):
    from dt4calc import cli

    def refuse(*args):
        raise AssertionError(f"{work} ran past the cap")

    monkeypatch.setattr(cli, work, refuse)
    code, out, err = run(capsys, *argv)
    assert code == EXIT_BOUND
    assert out == ""
    assert err == f"error: --n-max {argv[argv.index('--n-max') + 1]} exceeds the {cap}\n"


def test_tstar_point_count_cap_exits_3_before_any_work(capsys, monkeypatch):
    from dt4calc import cli

    def refuse(*args):
        raise AssertionError("the punctual series ran past the cap")

    monkeypatch.setattr(cli, "reduced_dt4_tstar", refuse)
    code, out, err = run(capsys, "tstar", "--c", "1,0,-501", "--euler", "3")
    assert code == EXIT_BOUND
    assert out == ""
    assert err == "error: point count 501 exceeds the tstar cap 500\n"


@pytest.mark.parametrize("argv", [
    ["goettsche", "--euler", "3", "--n-max", "-1"],
    ["dt4-series", "--n-max", "-1"],
    ["vdim", "--n-max", "-1"],
    ["vertex", "--n-max", "-1"],
    ["partitions", "--n-max", "-1"],
    ["cyclic-check", "--n-max", "-1"],
    ["dt4-series", "--jobs", "0"],
    ["dt4-series", "--jobs", "-3"],
    ["dt4-series", "--n-max", "1.5"],
])
def test_bad_counts_are_usage_errors(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "must be at least" in captured.err or "invalid" in captured.err


@pytest.mark.parametrize("signs", [
    {"0,0,0,0": True},
    {"0,0,0,0": 1.0},
    {"0,0,0,0;1,0,0,0;0,1,0,0": -1},
    {"0,0,0,0;0,0,0,0": -1},
    {"1,0,0,0": -1},
    {"0,0,0": -1},
])
def test_orientation_rejects_values_and_keys(signs, capsys, tmp_path):
    path = tmp_path / "orient.json"
    path.write_text(json.dumps(signs))
    code, out, err = run(capsys, "dt4-series", "--s", GENERIC_S,
                         "--orientation", str(path))
    assert code == EXIT_USAGE
    assert out == "" and err.startswith("error: bad orientation file")
    code, out, _ = run(capsys, "suite", "--only", "orientation",
                       "--orientation", str(path))
    assert code == EXIT_MISMATCH
    assert out.startswith("FAIL 10 orientation-flip: orientation data rejected")
