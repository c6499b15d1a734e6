"""Command line front end.

Every subcommand is one COMMANDS entry, read by `build_parser` and `main`:
its help line and flags, a command building a plain dict payload in a fixed
key order from the parsed arguments, and its text and CSV renderers (JSON
is the payload itself).  Rationals print exactly as num/den strings and
nothing time dependent is printed, so output is byte stable run to run.

A command line that names a subcommand is parsed by a parser holding only
that subparser (`build_parser(command)`); help and command lines naming
none are parsed by the parser of all ten.  Both give the same bytes on
stdout and stderr for every command line, usage lines and errors included.

Exit codes:
  0  success
  1  a checked value disagreed with its expected or oracle value
  2  usage error (bad flags or counts, bad orientation file, bad parameters)
  3  enumeration bound or --n-max cap exceeded, DT4_MAX_N is not an integer
     or is negative, or a number to print is past the interpreter's integer
     string limit
  4  torus parameters hit a vanishing denominator weight
  5  requested case is outside the computed range
  6  internal consistency check failed
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import sys

from .chow import (cy_hypersurface_context, liqin_case, structure_sheaf_chi_check,
                   vdim_ideal_cy4)
from .errors import BoundExceeded, Dt4Error, NonGenericParameters, Unsupported
from .exact import form_str, number_str
from .localize import (FixedPointData, OrientationData, TorusParams,
                       cyclic_completion_report, dt4_degree0_series,
                       obstruction_crosscheck, record_oracle_check,
                       vertex_oracle_check)
from .partitions import partition_counts, partition_levels
from .series import goettsche_series, convolution_oracle, reduced_dt4_tstar
from .suite import LIQIN_EXPECTED, run_suite

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2
EXIT_BOUND = 3
EXIT_NONGENERIC = 4
EXIT_UNSUPPORTED = 5
EXIT_INTERNAL = 6


class UsageError(Exception):
    pass


# --n-max caps of the commands no enumeration bound covers, checked before
# any work: vdim at the cap prints 200002 rows in about a second, goettsche
# at the cap takes under a second for small --euler
VDIM_N_CAP = 100_000
GOETTSCHE_N_CAP = 500


def _check_cap(n_max: int, cap: int, command: str, what: str = "--n-max") -> None:
    if n_max > cap:
        raise BoundExceeded(f"{what} {n_max} exceeds the {command} cap {cap}")


def _check_punctual_digits(e: int, n: int) -> None:
    """Exit 3 before the punctual series when its q^n coefficient cannot be
    printed: for e >= 1 it is at least b_n = C(e + n - 1, n), the q^n
    coefficient of the k = 1 factor, and b_m is nondecreasing in m.  Only a
    b_m of more than 3 * limit bits can have more than `limit` digits, so
    only those are written out.  No bound is claimed for e <= 0."""
    limit = sys.get_int_max_str_digits()
    if e < 1 or not limit:
        return
    b = 1
    for m in range(1, n + 1):
        b = b * (e + m - 1) // m
        if b.bit_length() > 3 * limit:
            number_str(b)


# the first matching class gives the exit code; any other package error
# signals a bug rather than bad input
EXIT_CODES = (
    (UsageError, EXIT_USAGE),
    (BoundExceeded, EXIT_BOUND),
    (NonGenericParameters, EXIT_NONGENERIC),
    (Unsupported, EXIT_UNSUPPORTED),
    (Dt4Error, EXIT_INTERNAL),
)


def _parse_params(text: str) -> TorusParams:
    try:
        return TorusParams.parse(text)
    except ZeroDivisionError:
        raise UsageError(f"bad --s value {text!r}: a coordinate has a zero denominator")
    except ValueError as e:
        raise UsageError(f"bad --s value {text!r}: {e}")


def _load_orientation(path: str) -> tuple[OrientationData | None, str | None]:
    """The signs `--orientation` names, as (orientation, None), or
    (None, reason) when the file is refused."""
    if path == "default":
        return OrientationData(), None
    try:
        return OrientationData.from_file(path), None
    except (OSError, ValueError) as e:
        return None, str(e)


_COUNT_WORDS = {2: "two", 3: "three"}


def _int_list(text: str, flag: str, names: str) -> tuple[int, ...]:
    """Exactly as many comma separated integers as `names` has entries."""
    want = len(names.split(","))
    try:
        values = tuple(int(x) for x in text.split(","))
    except ValueError:
        values = ()
    if len(values) != want:
        raise UsageError(f"bad {flag} value {text!r}: "
                         f"expected {_COUNT_WORDS[want]} integers {names}")
    return values


def _oracle_ok(data: FixedPointData, memo: dict) -> bool:
    """The resolution oracle and the obstruction cross-check both agree,
    each reading the resolution route from the run's `memo`."""
    return vertex_oracle_check(data, memo)[0] and obstruction_crosscheck(data, memo)[0]


def _oracle_summary(checked: int, failures: list[str]) -> dict:
    return {"checked": checked, "failures": failures,
            "status": "FAIL" if failures else "PASS"}


def _oracle_line(payload: dict) -> list[str]:
    if "oracle" not in payload:
        return []
    o = payload["oracle"]
    return [f"oracle: {o['status']} ({o['checked']} partitions checked)"]


def _table(records, cols) -> tuple[list, list]:
    """CSV header `cols` and one row of those fields per record."""
    return list(cols), [[r[c] for c in cols] for r in records]


def _spaced(table) -> list[str]:
    """Text form of a CSV table: the same rows, space separated."""
    header, rows = table
    return [" ".join(str(x) for x in row) for row in [header, *rows]]


# one subcommand = a command returning (payload, exit_code) and its renderers

def cmd_liqin(args):
    rows = [liqin_case(e1, e2) for (e1, e2, _, _) in LIQIN_EXPECTED]
    payload = {"rows": [{"eps1": r["eps1"], "eps2": r["eps2"], "chi": number_str(r["chi"]),
                         "k": r["k"], "k_binomial": r["k_binomial"]} for r in rows]}
    got = [(r["eps1"], r["eps2"], int(r["chi"]), r["k"]) for r in rows]
    return payload, EXIT_OK if got == LIQIN_EXPECTED else EXIT_MISMATCH


def csv_liqin(p):
    return _table(p["rows"], ("eps1", "eps2", "chi", "k", "k_binomial"))


def cmd_chi(args):
    if args.left is None and args.right is None:
        rep = structure_sheaf_chi_check()
        payload = {"left": "0,0", "right": "0,0", "chi": number_str(rep["direct"]),
                   "oracle": number_str(rep["oracle"]), "ok": bool(rep["ok"])}
        return payload, EXIT_OK if rep["ok"] else EXIT_MISMATCH
    left = _int_list(args.left or "0,0", "--left", "p,q")
    right = _int_list(args.right or "0,0", "--right", "p,q")
    ctx = cy_hypersurface_context()
    value = ctx.chi(ctx.line_bundle(left), ctx.line_bundle(right))
    payload = {"left": f"{left[0]},{left[1]}", "right": f"{right[0]},{right[1]}",
               "chi": number_str(value)}
    return payload, EXIT_OK


def text_chi(p):
    lines = [f"chi(O({p['left']}), O({p['right']})) = {p['chi']}"]
    if "oracle" in p:
        lines.append(f"ambient oracle: {p['oracle']}")
        lines.append(f"status: {'OK' if p['ok'] else 'MISMATCH'}")
    return lines


def cmd_vdim(args):
    _check_cap(args.n_max, VDIM_N_CAP, "vdim")
    rows = []
    for n in range(args.n_max + 1):
        for h02 in (0, 1):
            rep = vdim_ideal_cy4(n, h02)
            rows.append({"n": n, "h02": h02, "chi": number_str(rep["chi"]),
                         "vdim": rep["vdim"]})
    return {"rows": rows}, EXIT_OK


def csv_vdim(p):
    return _table(p["rows"], ("n", "h02", "chi", "vdim"))


def cmd_partitions(args):
    counts = partition_counts(args.d, args.n_max)
    payload = {"d": args.d, "n_max": args.n_max, "counts": counts, "total": sum(counts)}
    if args.list:
        payload["ids"] = {str(n): [pi.id() for pi in level]
                          for n, level in enumerate(partition_levels(args.d, args.n_max))}
    return payload, EXIT_OK


def text_partitions(p):
    lines = [f"d={p['d']} partition counts"]
    for n, c in enumerate(p["counts"]):
        lines.append(f"n={n}: {c}")
        lines.extend(f"  {pid}" for pid in p.get("ids", {}).get(str(n), []))
    return lines + [f"total: {p['total']}"]


def cmd_vertex(args):
    params = _parse_params(args.s)
    levels = partition_levels(4, args.n_max)
    points = []
    failures = []
    memo = {}  # the resolution route per S4 orbit, for this run only
    for n in range(1, args.n_max + 1):
        for pi in levels[n]:
            data = FixedPointData(pi)
            entry = {
                "n": n,
                "id": pi.id(),
                "boxes": [list(b) for b in pi.boxes],
                "tvir": str(data.tvir),
                "e1": [list(t) for t in data.e1_weights],
                "e2": [list(t) for t in data.e2_weights],
            }
            try:
                entry["contribution"] = number_str(data.contribution(params, 1))
            except NonGenericParameters as e:
                entry["contribution"] = f"undefined ({e})"
            if args.check_oracle:
                ok = _oracle_ok(data, memo)
                entry["oracle"] = "PASS" if ok else "FAIL"
                if not ok:
                    failures.append(pi.id())
            points.append(entry)
    payload = {"n_max": args.n_max, "s": str(params), "points": points}
    if args.check_oracle:
        payload["oracle"] = _oracle_summary(len(points), failures)
    return payload, EXIT_MISMATCH if failures else EXIT_OK


def text_vertex(p):
    lines = [f"# fixed points up to n={p['n_max']}, s={p['s']}"]
    for pt in p["points"]:
        lines.append(f"# {pt['id']} (n={pt['n']})")
        lines.append(f"tvir: {pt['tvir']}")
        lines.append("e1: " + "; ".join(form_str(w, sep="") for w in pt["e1"]))
        lines.append("e2: " + "; ".join(form_str(w, sep="") for w in pt["e2"]))
        lines.append(f"contribution: {pt['contribution']}")
        if "oracle" in pt:
            lines.append(f"oracle: {pt['oracle']}")
    return lines + _oracle_line(p)


def series_payload(n_max: int, params: TorusParams, orientation: OrientationData,
                   check_oracle: bool = False, orientation_label: str = "default") -> dict:
    """Canonical report for a series run; `dt4-series` renders exactly this.

    The series builds the first point of each S4 orbit and evaluates every
    other point from that record at the permuted s.  The oracle runs after
    it, so a series error comes first: it builds every point with n >= 1
    directly, checks it against the resolution route, computed once per S4
    orbit and moved to the point (`resolution`), and checks the record
    the series used, transported to the point, and the value it printed
    against the direct build.
    """
    coeffs, rows = dt4_degree0_series(n_max, params, orientation, want_details=True)
    payload = {
        "n_max": n_max,
        "s": str(params),
        "orientation": orientation_label,
        "coefficients": [number_str(c) for c in coeffs],
        "points": [{"n": n, "id": pid, "value": number_str(v)} for (n, pid, v) in rows],
    }
    if check_oracle:
        points = [pi for level in partition_levels(4, n_max)[1:] for pi in level]
        memo = {}  # the resolution route per S4 orbit, for this run only
        failures = [pi.id() for pi, (_, _, v) in zip(points, rows[1:])
                    if not (record_oracle_check(data := FixedPointData(pi), params,
                                                orientation.sign(pi), v)
                            and _oracle_ok(data, memo))]
        payload["oracle"] = _oracle_summary(len(points), failures)
    return payload


def cmd_dt4_series(args):
    params = _parse_params(args.s)
    orientation, reason = _load_orientation(args.orientation)
    if reason is not None:
        raise UsageError(f"bad orientation file {args.orientation!r}: {reason}")
    payload = series_payload(args.n_max, params, orientation,
                             check_oracle=args.check_oracle,
                             orientation_label=args.orientation)
    failed = args.check_oracle and payload["oracle"]["failures"]
    return payload, EXIT_MISMATCH if failed else EXIT_OK


def text_series(p):
    lines = [f"# degree-0 series, n_max={p['n_max']}, "
             f"s={p['s']}, orientation={p['orientation']}"]
    lines.extend(f"q^{n}: {c}" for n, c in enumerate(p["coefficients"]))
    lines.extend(f"point n={pt['n']} {pt['id']}: {pt['value']}" for pt in p["points"])
    return lines + _oracle_line(p)


def cmd_goettsche(args):
    if args.euler is None:
        raise UsageError("goettsche needs --euler")
    _check_cap(args.n_max, GOETTSCHE_N_CAP, "goettsche")
    _check_punctual_digits(args.euler, args.n_max)
    series = goettsche_series(args.euler, args.n_max)
    number_str(max(map(abs, series)))  # the largest has the most digits: exit 3 in any format
    payload = {"euler": args.euler, "n_max": args.n_max, "coefficients": series}
    if not args.check_oracle:
        return payload, EXIT_OK
    match = series == convolution_oracle(args.euler, args.n_max)
    payload["oracle"] = "PASS" if match else "FAIL"
    return payload, EXIT_OK if match else EXIT_MISMATCH


def text_goettsche(p):
    lines = [f"# punctual Euler series, e={p['euler']}, n_max={p['n_max']}"]
    lines.extend(f"q^{n}: {c}" for n, c in enumerate(p["coefficients"]))
    if "oracle" in p:
        lines.append(f"oracle: {p['oracle']}")
    return lines


def cmd_tstar(args):
    if args.c is None:
        raise UsageError("tstar needs --c r,c1,n")
    r, c1, n = _int_list(args.c, "--c", "r,c1,n")
    if r == 1 and c1 == 0 and n < 0:
        if args.euler is None:
            raise UsageError("the punctual case needs --euler")
        _check_cap(-n, GOETTSCHE_N_CAP, "tstar", "point count")
        _check_punctual_digits(args.euler, -n)
    try:
        rep = reduced_dt4_tstar((r, c1, n), args.euler)
    except ValueError as e:
        raise UsageError(str(e))
    number_str(rep["value"])  # exit 3 in any format past the int string limit
    payload = {"c": args.c, "case": rep["case"], "value": rep["value"]}
    if "n" in rep:
        payload["n"] = rep["n"]
        payload["euler"] = args.euler
    return payload, EXIT_OK


def text_tstar(p):
    lines = [f"c = ({p['c']})", f"case: {p['case']}"]
    if "euler" in p:
        lines.append(f"euler: {p['euler']}")
    return lines + [f"value: {p['value']}"]


def cmd_cyclic_check(args):
    reports = []
    for n, level in enumerate(partition_levels(3, args.n_max)):
        for pi3 in level:
            rep = cyclic_completion_report(pi3)
            reports.append({
                "id": rep["partition"],
                "n": n,
                "ok": rep["ok"],
                "rows": [{"degree": r["degree"], "match": r["match"],
                          "lhs": str(r["lhs"]), "rhs": str(r["rhs"])}
                         for r in rep["rows"]],
            })
    all_ok = all(r["ok"] for r in reports)
    payload = {"n_max": args.n_max, "checked": len(reports), "ok": all_ok,
               "reports": reports}
    return payload, EXIT_OK if all_ok else EXIT_MISMATCH


def text_cyclic_check(p):
    lines = []
    for rep in p["reports"]:
        lines.append(f"{rep['id']} (n={rep['n']}): {'PASS' if rep['ok'] else 'FAIL'}")
        lines.extend(f"  degree {r['degree']}: {r['lhs']} != {r['rhs']}"
                     for r in rep["rows"] if not r["match"])
    lines.append(f"checked {p['checked']} plane partitions: "
                 f"{'all degrees match' if p['ok'] else 'MISMATCH'}")
    return lines


def cmd_suite(args):
    results = run_suite(args.only, *_load_orientation(args.orientation))
    if not results:
        raise UsageError(f"no acceptance check matches --only {args.only!r}")
    passed = sum(r["ok"] for r in results)
    payload = {"results": results, "passed": passed, "failed": len(results) - passed}
    return payload, EXIT_OK if passed == len(results) else EXIT_MISMATCH


def text_suite(p):
    lines = [f"{'PASS' if r['ok'] else 'FAIL'} {r['criterion']:>2} {r['name']}: {r['detail']}"
             for r in p["results"]]
    return lines + [f"{len(p['results'])} checks: {p['passed']} passed, {p['failed']} failed"]


def _at_least(low: int):
    """argparse type: an integer no smaller than `low`."""
    def count(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value
    return count


_N_MAX = _at_least(0)

# name -> (help line, (flag, add_argument keywords) of each argument but
# --format, command, text lines of the payload, CSV header and rows of it)
COMMANDS = {
    "liqin": ("hyperplane-section Euler pairing table with both k readings", (),
              cmd_liqin, lambda p: _spaced(csv_liqin(p)), csv_liqin),
    "chi": ("Euler pairing of line bundles on the (2,5) hypersurface", (
        ("--left", {"help": "line bundle bidegree p,q (default structure sheaf)"}),
        ("--right", {"help": "line bundle bidegree p,q"})),
        cmd_chi, text_chi, lambda p: _table([p], list(p))),
    "vdim": ("virtual dimension table for ideal sheaves of points", (
        ("--n-max", {"type": _N_MAX, "default": 10}),),
        cmd_vdim, lambda p: _spaced(csv_vdim(p)), csv_vdim),
    "partitions": ("downward-closed partition counts", (
        ("--d", {"type": int, "choices": (2, 3, 4), "default": 4}),
        ("--n-max", {"type": _N_MAX, "default": 6}),
        ("--list", {"action": "store_true", "help": "also print identifiers"})),
        cmd_partitions, text_partitions, lambda p: _table(
            [{"n": n, "count": c} for n, c in enumerate(p["counts"])], ("n", "count"))),
    "vertex": ("per fixed point characters, weights, and contributions", (
        ("--n-max", {"type": _N_MAX, "default": 2}),
        ("--s", {"default": "1,2,3,-6"}),
        ("--check-oracle", {"action": "store_true"})),
        cmd_vertex, text_vertex, lambda p: _table(p["points"], ("n", "id", "contribution"))),
    "dt4-series": ("degree-0 equivariant series with per-point breakdown", (
        ("--n-max", {"type": _N_MAX, "default": 2}),
        ("--s", {"default": "1,2,3,-6"}),
        ("--orientation", {"default": "default",
                           "help": '"default" or a JSON file of per-point signs'}),
        ("--jobs", {"type": _at_least(1), "default": 1}),
        ("--check-oracle", {"action": "store_true"})),
        cmd_dt4_series, text_series, lambda p: _table(p["points"], ("n", "id", "value"))),
    "goettsche": ("punctual Hilbert scheme Euler series", (
        ("--euler", {"type": int, "help": "Euler number of the surface"}),
        ("--n-max", {"type": _N_MAX, "default": 20}),
        ("--check-oracle", {"action": "store_true"})),
        cmd_goettsche, text_goettsche, lambda p: _table(
            [{"n": n, "coefficient": c} for n, c in enumerate(p["coefficients"])],
            ("n", "coefficient"))),
    "tstar": ("reduced invariants of the cotangent fibre geometry", (
        ("--c", {"help": "Chern character triple r,c1,n"}),
        ("--euler", {"type": int, "help": "surface Euler number (punctual case)"})),
        cmd_tstar, text_tstar, lambda p: _table(
            [p], [k for k in ("c", "case", "n", "euler", "value") if k in p])),
    "cyclic-check": ("push plane partitions into four variables and compare Ext", (
        ("--n-max", {"type": _N_MAX, "default": 3}),),
        cmd_cyclic_check, text_cyclic_check, lambda p: _table(p["reports"], ("id", "n", "ok"))),
    "suite": ("run the acceptance checks", (
        ("--only", {"help": "run only checks whose name contains this"}),
        ("--orientation", {"default": "default"})),
        cmd_suite, text_suite,
        lambda p: _table(p["results"], ("criterion", "name", "ok", "detail"))),
}


def render(payload: dict, fmt: str, text_lines, csv_table) -> str:
    if fmt == "json":
        return json.dumps(payload, indent=2) + "\n"
    if fmt == "csv":
        header, rows = csv_table(payload)
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
        return buf.getvalue()
    return "\n".join(text_lines(payload)) + "\n"


@functools.cache
def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of `command`, or of every subcommand when it is None,
    built once per process; parsing leaves it unchanged.

    With a command it holds that one subparser, which is all a command line
    naming it reaches, so a call pays for one subparser, not ten.  Its
    subcommand metavar lists all ten, as the full parser's choices do,
    because an "unrecognized arguments" error prints the top-level usage
    line.  The full parser serves help and command lines that name no
    command, and leaves the metavar unset: it would change its "required"
    and "invalid choice" messages."""
    parser = argparse.ArgumentParser(
        prog="dt4calc",
        description="Exact localization and intersection-theory calculator "
                    "for rank-one invariants of four-folds.")
    one = command is not None
    sub = parser.add_subparsers(dest="command", required=True,
                                metavar="{" + ",".join(COMMANDS) + "}" if one else None)
    for name in (command,) if one else COMMANDS:
        help_text, arguments = COMMANDS[name][:2]
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--format", choices=("text", "json", "csv"), default="text")
        for flag, options in arguments:
            p.add_argument(flag, **options)
    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    args = build_parser(argv[0] if argv and argv[0] in COMMANDS else None).parse_args(argv)
    _, _, command, text_lines, csv_table = COMMANDS[args.command]
    try:
        payload, code = command(args)
    except (UsageError, Dt4Error) as e:
        print(f"error: {e}", file=sys.stderr)
        return next(exit_code for kind, exit_code in EXIT_CODES if isinstance(e, kind))
    sys.stdout.write(render(payload, args.format, text_lines, csv_table))
    return code


if __name__ == "__main__":
    sys.exit(main())
