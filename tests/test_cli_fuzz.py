"""Hostile command lines for every subcommand, run in process.

Each argv ends in a documented exit code, 0 to 6, with no exception past
`main`.  A nonzero exit other than 1 writes no stdout, and stderr is one
`error:` line, argparse's usage form for exit 2, or nothing on success.
No message passes on the interpreter's advice to raise its integer string
limit, which the program never does.  Counts stay at n <= 3 or past every
bound, so each argv runs in well under a second.

The parser `main` picks for an argv, which holds only the subparser its
first word names, parses every such argv, and the help and error lines
below, to the same result and the same bytes as the parser of all ten.
"""

import contextlib
import io
import json
import os
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dt4calc.cli import COMMANDS, build_parser, main

HUGE = "4" * 4400           # more digits than int() reads
BIG = str(10 ** 1500)       # parses, but its cube has too many digits to print

# a count: at most 3, or negative, fractional, with an exponent, past every cap
COUNTS = ["-1", "-3", "1.5", "1e3", "1e4301", BIG, HUGE, "", "x"]
INTS = ["0", "2", "-7", "1.5", "1e3", BIG, "-" + BIG, HUGE, "", "x"]
COORDS = ["1", "7", "41", "-49", "0", "1/2", "-3/2", "1.5", "15e-1", "1e4300", "-1e4300",
          "1e4301", "1e-4300", "1/0", BIG, HUGE, "", "x"]
VECTORS = ["1,7,41,-49", "1,2,3,-6", "0,0,0,0", "1e4300,1,1,1", "1e4300,-1e4300,1,-1",
           "1e-4300,-1e-4300,1,-1", f"{BIG},1,2,-{int(BIG) + 3}", "", ",,,", "1,2,3",
           "1,2,3,-6,0", "-1,2,5,-6", "--s"]
PAIRS = ["0,0", "1,2", "-1,1", f"{'9' * 4000},{'9' * 4000}", f"{HUGE},0", "1", "1,2,3",
         "1.5,2", "", ","]
TRIPLES = ["1,0,-3", "1,0,-1", "1,0,3", "2,1,5", "0,0,0", f"1,0,-{BIG}", f"1,0,{HUGE}",
           "1,0", "", "a,b,c"]
ONLY = ["", "orientation", "vdim", "no-such-check", "determinism"]


# orientation files, written once per module (`orientation_dir`): "@name"
# stands for the file of that name, "@" for the directory itself
ORIENTATION_FILES = {
    "flip.json": json.dumps({"0,0,0,0;1,0,0,0": -1}),
    "broken.json": "{ nope",
    "deep.json": "[" * 100000,
    "float.json": json.dumps({"0,0,0,0": 1.0}),
    "huge.json": f'{{"0,0,0,0": {HUGE}}}',
    "list.json": "[1, 2]",
}
ORIENTATIONS = ["default", "@", "@missing.json", *(f"@{name}" for name in ORIENTATION_FILES)]


@pytest.fixture(scope="module")
def orientation_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("orientation")
    for name, text in ORIENTATION_FILES.items():
        (root / name).write_text(text)
    return root


def _flags():
    """Subcommand -> flag -> strategy of its value, None for a switch."""
    n = st.one_of(st.sampled_from(["0", "1", "2", "3"]), st.sampled_from(COUNTS))
    s = st.one_of(st.sampled_from(VECTORS),
                  st.lists(st.sampled_from(COORDS), min_size=4, max_size=4).map(",".join))
    pairs = st.sampled_from(PAIRS)
    orientation = st.sampled_from(ORIENTATIONS)
    return {
        "liqin": {},
        "chi": {"--left": pairs, "--right": pairs},
        "vdim": {"--n-max": n},
        "partitions": {"--d": st.sampled_from(["2", "3", "4", "5", "x"]), "--n-max": n,
                       "--list": None},
        "vertex": {"--n-max": n, "--s": s, "--check-oracle": None},
        "dt4-series": {"--n-max": n, "--s": s, "--orientation": orientation,
                       "--jobs": st.sampled_from(["1", "2", "0", "-3", "1.5", HUGE]),
                       "--check-oracle": None},
        "goettsche": {"--euler": st.sampled_from(INTS), "--n-max": n, "--check-oracle": None},
        "tstar": {"--c": st.sampled_from(TRIPLES), "--euler": st.sampled_from(INTS)},
        "cyclic-check": {"--n-max": n},
        "suite": {"--only": st.sampled_from(ONLY), "--orientation": orientation},
    }


@st.composite
def command_lines(draw):
    flags = _flags()
    name = draw(st.sampled_from([*flags, "frobnicate"]))
    own = flags.get(name, {})
    # --n-max is always given, so no default count above 3 is ever run
    chosen = ["--n-max"] if "--n-max" in own else []
    optional = [f for f in own if f != "--n-max"]
    if optional:
        chosen += draw(st.lists(st.sampled_from(optional), max_size=3, unique=True))
    chosen = draw(st.permutations(chosen))
    argv = [name]
    for flag in chosen:
        argv.append(flag)
        if own.get(flag) is not None:
            argv.append(draw(own[flag]))
    extra = draw(st.sampled_from([None] * 9 + ["--bogus", "--format", "extra"]))
    argv += [extra] if extra else []
    argv += ["--format", draw(st.sampled_from(["text", "json", "csv"] * 3 + ["xml"]))]
    return argv


def test_every_subcommand_is_drawn():
    parser = build_parser()
    sub = next(a for a in parser._actions if a.dest == "command")
    flags = _flags()
    assert set(flags) == set(sub.choices)
    for name, p in sub.choices.items():
        own = {opt for a in p._actions for opt in a.option_strings} - {"-h", "--help", "--format"}
        assert own == set(flags[name]), name


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(argv=command_lines(),
       bound=st.one_of(st.none(), st.sampled_from(["abc", "-3", "1", HUGE])))
# inputs that once ended in a traceback or passed on int()'s own message
@example(argv=["goettsche", "--euler", BIG, "--n-max", "3"], bound=None)
@example(argv=["dt4-series", "--n-max", "1", "--s", "1e4300,1,1,1"], bound=None)
@example(argv=["dt4-series", "--n-max", "1", "--s", f"{HUGE},1,1,1"], bound=None)
@example(argv=["dt4-series", "--n-max", "1", "--orientation", "@huge.json"], bound=None)
def test_hostile_command_lines_end_in_a_documented_exit(orientation_dir, argv, bound):
    argv = [str(orientation_dir / a[1:]) if a.startswith("@") else a for a in argv]
    env = {k: v for k, v in os.environ.items() if k != "DT4_MAX_N"}
    if bound is not None:
        env["DT4_MAX_N"] = bound
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ, env, clear=True), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as e:
            code = e.code
    out, err = out.getvalue(), err.getvalue()
    assert code in range(7), (argv, code)
    if code not in (0, 1):
        assert out == "", argv
    if code in (0, 1):
        assert err == "", argv
    elif code == 2 and err.startswith("usage: "):
        assert err.endswith("\n") and ": error: " in err.splitlines()[-1], argv
    else:
        assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n"), argv
    assert "set_int_max_str_digits" not in err, argv


def _parsed(parser, argv, columns):
    """Exit code, parsed fields, stdout and stderr of parsing `argv`."""
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ, {"COLUMNS": columns}), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code, fields = 0, vars(parser.parse_args(argv))
        except SystemExit as e:
            code, fields = e.code, None
    return code, fields, out.getvalue(), err.getvalue()


def _assert_one_command_parser_agrees(argv, columns="80"):
    own = build_parser(argv[0] if argv and argv[0] in COMMANDS else None)
    assert _parsed(own, argv, columns) == _parsed(build_parser(), argv, columns), argv


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(argv=command_lines())
def test_one_command_parser_agrees_on_hostile_command_lines(argv):
    _assert_one_command_parser_agrees(argv)


HELP_AND_ERRORS = [[], ["-h"], ["frobnicate"]] + [
    argv for name in COMMANDS for argv in (
        [name, "-h"], [name, "extra"], [name, "--bogus"], [name, name],
        [name, "--format", "xml"])]


@pytest.mark.parametrize("columns", ["80", "40"])
@pytest.mark.parametrize("argv", HELP_AND_ERRORS, ids=" ".join)
def test_one_command_parser_agrees_on_help_and_errors(argv, columns):
    _assert_one_command_parser_agrees(argv, columns)



def test_the_parser_of_all_ten_keeps_its_positional_name():
    # the subcommand metavar of a one-command parser stays off this one:
    # it would rename the positional in these two messages
    choices = ", ".join(repr(name) for name in COMMANDS)
    for argv, last in [
            ([], "the following arguments are required: command"),
            (["frobnicate"], f"argument command: invalid choice: 'frobnicate' "
                             f"(choose from {choices})")]:
        code, _, out, err = _parsed(build_parser(), argv, "80")
        assert (code, out) == (2, "")
        assert err.endswith(f"\ndt4calc: error: {last}\n"), argv
