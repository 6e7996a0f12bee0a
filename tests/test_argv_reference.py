"""`cli.read_argv` against the argparse parser it replaced.

`_reference` is the command line as argparse read it: `build_parser` is
the parser `cli.run` built on every call, and a negative `--bound` is
refused after parsing.  `cli.read_argv` must do the same thing on every
input.  The same thing is one of three outcomes: both accept, with the
same command and the same field values; both refuse, with exit 3 and a
usage line on stderr; or both print help and exit 0.

The inputs are the argvs of the CLI golden snapshot and argv lists drawn
from a fixed alphabet of tokens.  The disagreements that are intended are
listed in `INTENDED`: argparse also took an unambiguous prefix of a flag
(`--bou 3`), and `--` to end the options; `read_argv` takes neither.
"""

import argparse
import contextlib
import io
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbatlas import cli
from orbatlas.atlas import WORD_BOUND
from test_cli_golden import calls


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        raise cli.SchemaError("", f"usage: {message}")


def build_parser():
    p = _Parser(prog="orbatlas", description="exact orbifold-atlas 2-category toolkit")
    p.add_argument("--bound", type=int, default=WORD_BOUND,
                   help="word bound for pseudogroup closures")
    sub = p.add_subparsers(dest="command", required=True)
    s = sub.add_parser("validate", help="validate a document")
    s.add_argument("file")
    s = sub.add_parser("compose", help="compose two cells (g after f)")
    s.add_argument("first")
    s.add_argument("second")
    s.add_argument("--mode", default="morphism", choices=["morphism", "vertical", "horizontal"])
    s = sub.add_parser("fred", help="apply the structure functor")
    s.add_argument("level", type=int, choices=[0, 1, 2])
    s.add_argument("file")
    s = sub.add_parser("morita", help="Morita-equivalence check")
    s.add_argument("file")
    s = sub.add_parser("classify", help="classify a morphism")
    s.add_argument("file")
    s = sub.add_parser("bf-check", help="check a fraction axiom")
    s.add_argument("instance", choices=["atlas", "groupoid"])
    s.add_argument("--axiom", type=int, required=True, choices=[1, 2, 3, 4, 5])
    s = sub.add_parser("localize-compose", help="compose two spans")
    s.add_argument("first")
    s.add_argument("second")
    s.add_argument("--choices", help="choice table file (created on demand)")
    s = sub.add_parser("cell-equal", help="equality of fraction 2-cells")
    s.add_argument("first")
    s.add_argument("second")
    sub.add_parser("equiv-report", help="equivalence criteria over the catalog")
    return p


def _reference(argv):
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.bound < 0:
        parser.error(f"argument --bound: the word bound must be >= 0, not {args.bound}")
    return args


def _outcome(read, argv):
    """("accept", fields), ("exit", 3) with a usage line on stderr, or ("exit", 0)."""
    err = io.StringIO()
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            args = read(list(argv))
    except SystemExit as e:  # argparse's help
        return ("exit", e.code)
    except cli.SchemaError as e:
        assert str(e).startswith("schema error at /: usage: ")
        assert err.getvalue().startswith("usage: orbatlas")
        return ("exit", 3)
    if args is None:
        return ("exit", 0)
    return ("accept", dict(vars(args), fn=None))


def _same(argv):
    assert _outcome(cli.read_argv, argv) == _outcome(_reference, argv), argv


def test_golden_argvs_read_alike():
    argvs = calls()
    assert len(argvs) == 95
    for argv in argvs:
        assert _outcome(cli.read_argv, argv)[0] == "accept"
        _same(argv)


TOKENS = [*cli.COMMANDS, "bogus", "--bound", "--bound=2", "--mode", "--mode=vertical",
          "--axiom", "--axiom=3", "--choices", "--bogus", "0", "1", "2", "3", "5", "9", "-1",
          "a.json", "b.json", "morphism", "vertical", "horizontal", "atlas", "groupoid",
          "-h", "--help"]


# a well-formed line of each command, in units that may come in any order
UNITS = {
    "validate": [["a.json"]],
    "compose": [["a.json"], ["b.json"], ["--mode", "vertical"]],
    "fred": [["1"], ["a.json"]],
    "morita": [["a.json"]],
    "classify": [["a.json"]],
    "bf-check": [["atlas"], ["--axiom", "3"]],
    "localize-compose": [["a.json"], ["b.json"], ["--choices", "c.json"]],
    "cell-equal": [["a.json"], ["b.json"]],
    "equiv-report": [],
}


@st.composite
def _command_lines(draw):
    """Mostly a well-formed line in some order with up to two tokens
    inserted, so that many lines are accepted; else any tokens."""
    tokens = st.sampled_from(TOKENS)
    if draw(st.integers(0, 3)) == 0:
        return draw(st.lists(tokens, max_size=8))
    name = draw(st.sampled_from(sorted(UNITS)))
    line = draw(st.lists(st.sampled_from(["--bound", "--bound=2", "0", "-1"]), max_size=2))
    line += [name] + [w for unit in draw(st.permutations(UNITS[name])) for w in unit]
    for token in draw(st.lists(tokens, max_size=2)):
        line.insert(draw(st.integers(0, len(line))), token)
    return line


def test_every_command_has_a_well_formed_line():
    assert sorted(UNITS) == sorted(cli.COMMANDS)
    for name, units in UNITS.items():
        assert _outcome(cli.read_argv, [name] + [w for unit in units for w in unit])[0] == "accept"


@settings(max_examples=800, deadline=None)
@given(_command_lines())
def test_generated_argvs_read_alike(argv):
    _same(argv)


# (argv, what argparse made of it)
INTENDED = [
    (["--bou", "3", "equiv-report"], "a prefix of --bound"),
    (["--bound=2", "bf-check", "atlas", "--ax", "3"], "a prefix of --axiom"),
    (["compose", "a", "b", "--mo=vertical"], "a prefix of --mode"),
    (["equiv-report", "--he"], "a prefix of --help"),
    (["validate", "--", "-a.json"], "-- ends the options"),
]


@pytest.mark.parametrize("argv, why", INTENDED, ids=[why for _, why in INTENDED])
def test_intended_disagreements(argv, why):
    """argparse accepts these lines, or prints help; `read_argv` refuses them."""
    assert _outcome(_reference, argv) != ("exit", 3)
    assert _outcome(cli.read_argv, argv) == ("exit", 3)
