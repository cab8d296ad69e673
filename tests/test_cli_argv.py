"""The table parser of ``boxvas.cli`` against the argparse parser it replaced.

The reference below is argparse built from the same ``_command`` flag specs,
with the former rewrite of ``--flag -3,0`` into ``--flag=-3,0`` in front of
it.  Prefix abbreviations such as ``--targ`` for ``--target`` are left out
of the tables: argparse accepted them, and the table parser takes full flag
names only (``test_abbreviations_are_dropped``).
"""
from __future__ import annotations

import argparse
import re

import pytest

from boxvas import cli


def attach_negative_values(argv):
    out = []
    for tok in argv:
        prev = out[-1] if out else ""
        if prev.startswith("--") and "=" not in prev and re.match(r"-\d", tok):
            out[-1] = f"{prev}={tok}"
        else:
            out.append(tok)
    return out


def reference_parse(argv) -> dict:
    parser = argparse.ArgumentParser(prog="boxvas")
    sub = parser.add_subparsers(dest="command", required=True)
    for command in cli._COMMANDS.values():
        p = sub.add_parser(command.name, help=command.purpose)
        for name, options in command.flags:
            p.add_argument(name, **options)
        p.set_defaults(run=command.run)
    return vars(parser.parse_args(attach_negative_values(argv)))


def table_parse(argv) -> dict:
    return vars(cli._parse_args(argv))


# the flag forms: --flag value, --flag=value, any order, a repeated flag
# (its last value wins) and negative numbers in the space form
VALID = [
    ["decide-box", "--instance", "a.vas", "--target", "21,21"],
    ["decide-box", "--target=21,21", "--instance=a.vas", "--node-budget", "0"],
    ["decide-box", "--instance", "a.vas", "--target", "-1,2", "--node-budget=5",
     "--node-budget", "7", "--target", "3,3"],
    ["decide-reach", "--instance", "a.vas", "--target", "1,1", "--cap", "2,2"],
    ["decide-reach", "--witness", "--cap=-2,2", "--target", "-1,1", "--instance", "a.vas",
     "--witness"],
    ["threshold", "--instance", "a.vas"],
    ["threshold", "--instance", "a.vas", "--m", "-3", "--validate-radius", "0"],
    ["threshold", "--m=5", "--instance=a.vas", "--m", "6", "--validate-radius=10"],
    ["seed", "--instance", "a.vas"],
    ["seed", "--instance=a.vas", "--instance", "b.vas"],
    ["steinitz", "--vectors", "-3,0;5,0"],
    ["steinitz", "--vectors=1,1;-1,0"],
    ["witness", "--instance", "a.vas", "--target", "9,9", "--evidence", "coeffs",
     "--values", "1,2,3"],
    ["witness", "--values=-1,2", "--evidence=path", "--target", "9,9", "--instance", "a.vas",
     "--m", "-1", "--evidence", "coeffs"],
    ["lift", "--instance", "a.vas"],
    ["lift", "--target", "21,21", "--node-budget", "10", "--instance", "a.vas"],
    ["verify-window", "--instance", "a.vas", "--lo", "0,0", "--size", "1,1"],
    ["verify-window", "--margin=0", "--size", "3,3", "--lo", "-1,0", "--instance", "a.vas",
     "--margin", "2"],
    ["vass1-decide", "--instance", "a.vass1", "--to", "q", "--x", "3"],
    ["vass1-decide", "--x=0", "--to=q", "--from", "p", "--instance", "a.vass1",
     "--node-budget", "1"],
    ["vass1-semilinear", "--instance", "a.vass1", "--to", "q"],
    ["vass1-semilinear", "--b-lps=7", "--to", "q", "--instance", "a.vass1", "--b-lps", "9"],
]

# each with a word the one-line message must hold: the flag or command
INVALID = [
    ([], "missing command"),
    (["bogus", "--instance", "a.vas"], "'bogus'"),
    (["decide-box", "--instance", "a.vas", "--target", "1,1", "--bogus", "1"], "--bogus"),
    (["decide-box", "--instance", "a.vas", "--target", "1,1", "-x"], "-x"),
    (["decide-box", "--instance", "a.vas", "--target"], "--target: missing value"),
    (["decide-box", "--instance", "a.vas"], "missing required flag --target"),
    (["decide-box", "--target", "1,1"], "missing required flag --instance"),
    (["decide-box", "--instance", "a.vas", "--target", "1,1", "--node-budget", "ten"],
     "--node-budget: expected an integer, got 'ten'"),
    (["decide-box", "--instance", "a.vas", "--target", "1,1", "--node-budget", "-1"],
     "--node-budget: must be nonnegative, got -1"),
    (["threshold", "--instance", "a.vas", "--m", "1.5"], "--m: expected an integer"),
    (["threshold", "--instance", "a.vas", "--validate-radius=-3"],
     "--validate-radius: must be nonnegative, got -3"),
    (["vass1-decide", "--instance", "a.vass1", "--to", "q", "--x", "-1"],
     "--x: must be nonnegative, got -1"),
    (["vass1-semilinear", "--instance", "a.vass1", "--to", "q", "--b-lps", "0"],
     "--b-lps: must be positive, got 0"),
    (["witness", "--instance", "a.vas", "--target", "9,9", "--evidence", "bogus",
      "--values", "1"], "--evidence: must be one of coeffs, path, got 'bogus'"),
    (["decide-reach", "--instance", "a.vas", "--target", "1,1", "--cap", "2,2",
      "--witness=1"], "--witness: takes no value"),
    (["seed", "stray", "--instance", "a.vas"], "stray argument 'stray'"),
    (["seed", "--instance", "a.vas", "stray"], "stray argument 'stray'"),
    (["seed", "--instance", "a.vas", "--node-budget", "5"], "unknown flag --node-budget"),
    (["decide-reach", "--instance", "a.vas", "--target", "1,1", "--cap", "2,2",
      "--witness", "1"], "stray argument '1'"),
]


@pytest.mark.parametrize("argv", VALID, ids=[" ".join(a) for a in VALID])
def test_table_parser_matches_argparse(argv):
    assert table_parse(argv) == reference_parse(argv)


@pytest.mark.parametrize("argv, word", INVALID, ids=[" ".join(a) for a, _ in INVALID])
def test_table_parser_rejects_what_argparse_rejects(argv, word, capsys):
    with pytest.raises(SystemExit) as exc:
        reference_parse(argv)
    assert exc.value.code == 2
    capsys.readouterr()
    assert cli.run_command(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.count("\n") == 1 and word in err, err


def test_value_may_begin_with_a_dash(capsys):
    # argparse read these values as flags and exited 2
    for argv, dest, value in (
        (["decide-box", "--instance", "-a.vas", "--target", "1,1"], "instance", "-a.vas"),
        (["vass1-decide", "--instance", "a.vass1", "--to", "-q", "--x", "1"], "to_state", "-q"),
        (["seed", "--instance", "--instance"], "instance", "--instance"),
    ):
        with pytest.raises(SystemExit):
            reference_parse(argv)
        assert table_parse(argv)[dest] == value
    capsys.readouterr()


def test_abbreviations_are_dropped(capsys):
    argv = ["decide-box", "--inst", "a.vas", "--targ", "1,1"]
    assert reference_parse(argv)["target"] == "1,1"
    assert cli.run_command(argv) == 2
    assert capsys.readouterr().err == "decide-box: unknown flag --inst\n"


def test_help_lists_commands_and_flags(capsys):
    for argv in (["-h"], ["--help"], ["--help", "decide-box"]):
        assert cli.run_command(argv) == 0
        out, err = capsys.readouterr()
        assert err == ""
        assert all(name in out for name in cli._COMMANDS)
    for command in cli._COMMANDS.values():
        # help wins over a missing required flag, as in argparse
        assert cli.run_command([command.name, "--help"]) == 0
        out, _ = capsys.readouterr()
        assert command.purpose in out
        assert all(name in out for name, _ in command.flags)
    # in a value position -h is a value
    assert cli.run_command(["steinitz", "--vectors", "-h"]) == 2
    assert "malformed vector '-h'" in capsys.readouterr().err
