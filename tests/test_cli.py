import importlib.util
import json
import random
import time
from pathlib import Path

import pytest

from boxvas import (
    InstanceFile,
    InstanceParseError,
    Vass1System,
    parse_instance,
    serialize_instance,
)
from boxvas import cli, core, errors
from boxvas.cli import run_command

from conftest import EX1_GENS, random_vas

EX1_TEXT = """\
# proper cone containing the quadrant
vas 2
-1 2
2 -1
10 10
"""

VASS1_TEXT = """\
vass1
states p q
init p
trans p 2 q
trans q -1 p
"""


@pytest.fixture
def ex1_file(tmp_path):
    path = tmp_path / "ex1.vas"
    path.write_text(EX1_TEXT)
    return str(path)


@pytest.fixture
def vass1_file(tmp_path):
    path = tmp_path / "two.vass1"
    path.write_text(VASS1_TEXT)
    return str(path)


def test_parse_vas():
    inst = parse_instance(EX1_TEXT)
    assert inst.kind == "vas"
    assert inst.vas.dim == 2
    assert inst.vas.generators == EX1_GENS


def test_parse_empty_vas():
    inst = parse_instance("vas 2\n")
    assert inst.vas.generators == ()


def test_parse_vass1():
    inst = parse_instance(VASS1_TEXT)
    assert inst.kind == "vass1"
    assert inst.init_state == "p"
    assert inst.vass1.transitions == (("p", 2, "q"), ("q", -1, "p"))


def test_parse_errors_carry_line_numbers():
    with pytest.raises(InstanceParseError):
        parse_instance("")
    with pytest.raises(InstanceParseError) as exc:
        parse_instance("vas 2\n1 2 3\n")
    assert exc.value.line == 2
    with pytest.raises(InstanceParseError):
        parse_instance("vas 2\n1 x\n")
    with pytest.raises(InstanceParseError):
        parse_instance("vass1\nstates a\ntrans a 1 b\n")
    with pytest.raises(InstanceParseError):
        parse_instance("widget 3\n")


def test_parse_rejects_duplicate_lines():
    with pytest.raises(InstanceParseError) as exc:
        parse_instance("vass1\nstates p\nstates q\ninit p\n")
    assert exc.value.line == 3
    with pytest.raises(InstanceParseError, match="duplicate 'init' line") as exc:
        parse_instance("vass1\nstates p q\ninit p\ntrans p 1 q\ninit q\n")
    assert exc.value.line == 5


def test_round_trip_identity():
    for text in (EX1_TEXT, VASS1_TEXT):
        inst = parse_instance(text)
        canon = serialize_instance(inst)
        again = parse_instance(canon)
        assert serialize_instance(again) == canon


def test_round_trip_fuzz():
    rng = random.Random(3)
    for _ in range(50):
        vas = random_vas(rng, rng.randint(1, 3), 5, 4)
        inst = InstanceFile(kind="vas", vas=vas)
        assert parse_instance(serialize_instance(inst)).vas == vas
    sys = Vass1System(("a", "b"), (("a", 3, "b"), ("b", -2, "a")))
    inst = InstanceFile(kind="vass1", vass1=sys, init_state="b")
    back = parse_instance(serialize_instance(inst))
    assert back.vass1 == sys and back.init_state == "b"


def run_json(capsys, argv):
    code = run_command(argv)
    out = capsys.readouterr()
    envelope = json.loads(out.out) if out.out else None
    return code, envelope, out.err


def test_cli_decide_box(ex1_file, capsys):
    code, env, err = run_json(
        capsys, ["decide-box", "--instance", ex1_file, "--target", "21,21"]
    )
    assert code == 0
    assert env["command"] == "decide-box"
    assert env["result"] == {"decision": True, "witness": [2, 0, 1, 2]}
    assert "decision: true" in err


def test_cli_decide_box_false(ex1_file, capsys):
    code, env, _ = run_json(
        capsys, ["decide-box", "--instance", ex1_file, "--target", "11,11"]
    )
    assert code == 0
    assert env["result"] == {"decision": False}


def test_cli_decide_reach_witness(ex1_file, capsys):
    code, env, _ = run_json(
        capsys,
        [
            "decide-reach",
            "--instance",
            ex1_file,
            "--target",
            "11,11",
            "--cap",
            "12,12",
            "--witness",
        ],
    )
    assert code == 0
    assert env["result"]["decision"] is True
    assert len(env["result"]["witness"]) == 3


def test_cli_threshold(ex1_file, capsys):
    code, env, err = run_json(capsys, ["threshold", "--instance", ex1_file])
    assert code == 0
    assert env["result"]["w"] == 702464
    assert env["result"]["case"] == "contains-quadrant"
    assert "W = 702464" in err


def test_cli_threshold_with_scan(ex1_file, capsys):
    code, env, _ = run_json(
        capsys,
        ["threshold", "--instance", ex1_file, "--m", "5", "--validate-radius", "10"],
    )
    assert code == 0
    assert env["result"]["m"] == 5
    assert env["result"]["scan"]["counterexamples"] == []


def test_cli_threshold_one_counter(tmp_path, capsys):
    path = tmp_path / "one.vas"
    path.write_text("vas 1\n3\n-2\n")
    code, env, err = run_json(capsys, ["threshold", "--instance", str(path)])
    assert code == 0
    assert env["result"]["case"] == "one-dimensional"
    assert (env["result"]["w"], env["result"]["degenerate"]) == (250, False)
    assert "W = 250" in err
    scan = ["threshold", "--instance", str(path), "--validate-radius", "3"]
    code, env, err = run_json(capsys, scan)
    assert (code, env) == (3, None)
    assert "dimension 2" in err
    path.write_text("vas 1\n-1\n-2\n")
    code, env, _ = run_json(capsys, ["threshold", "--instance", str(path)])
    assert code == 0
    assert env["result"]["case"] == "degenerate"
    assert (env["result"]["w"], env["result"]["degenerate"]) == (0, True)


def test_cli_witness_one_counter(tmp_path, capsys):
    # steps 3, -2: W = M1 = 250, and 252 = 84 * 3
    path = tmp_path / "one.vas"
    path.write_text("vas 1\n3\n-2\n")
    base = ["witness", "--instance", str(path), "--evidence", "coeffs"]
    code, env, _ = run_json(capsys, base + ["--target", "252", "--values", "84,0"])
    assert code == 0
    result = env["result"]
    assert result["method"] == "bfs-search"
    assert result["length"] == len(result["witness"]) >= result["length_lower_bound"]
    # the witness stays inside [0, 252] and ends there
    height = 0
    for i in result["witness"]:
        height += (3, -2)[i]
        assert 0 <= height <= 252
    assert height == 252
    # below W the request is refused as before, with the same exit code
    code, env, err = run_json(capsys, base + ["--target", "249", "--values", "83,0"])
    assert (code, env) == (3, None)
    assert "below the threshold W = 250" in err


def test_cli_off_lattice_target_still_refused_over_budget(ex1_file, capsys):
    # (2000, 1999) is off ex1's lattice, but its 2012 x 2011 table is checked
    # against the budget before the lattice test
    argv = ["decide-box", "--instance", ex1_file, "--target", "2000,1999"]
    code, env, err = run_json(capsys, argv + ["--node-budget", "10"])
    assert (code, env) == (4, None)
    assert "4046132 cells exceeds node budget 10" in err
    code, env, _ = run_json(capsys, argv)
    assert (code, env["result"]) == (0, {"decision": False})


def test_cli_steinitz(capsys):
    # a value that starts with -<digit> is a value, not an option name
    for vectors in ("5,0;-3,0", "-3,0;5,0"):
        code, env, _ = run_json(capsys, ["steinitz", "--vectors", vectors])
        assert code == 0
        assert sorted(env["result"]["permutation"]) == [0, 1]
        assert env["result"]["verified"] is True


def test_cli_value_may_begin_with_a_dash(tmp_path, monkeypatch, capsys):
    # the value of a flag is the next token, whatever its first character;
    # steinitz's -3,0;5,0 in the space form is in test_cli_steinitz
    monkeypatch.chdir(tmp_path)
    (tmp_path / "-a.vas").write_text(EX1_TEXT)
    code, env, _ = run_json(capsys, ["decide-box", "--instance", "-a.vas", "--target", "1,1"])
    assert (code, env["result"]) == (0, {"decision": False})
    code, env, _ = run_json(capsys, ["decide-box", "--instance", "-a.vas", "--target", "21,21"])
    assert (code, env["result"]["witness"]) == (0, [2, 0, 1, 2])


def test_cli_seed(ex1_file, capsys):
    code, env, _ = run_json(capsys, ["seed", "--instance", ex1_file])
    assert code == 0
    assert env["result"]["s"] == [10, 10]
    assert env["result"]["s_pos"] == [560, 560]


def test_cli_lift(ex1_file, capsys):
    code, env, _ = run_json(
        capsys, ["lift", "--instance", ex1_file, "--target", "21,21"]
    )
    assert code == 0
    assert env["result"]["dim"] == 4
    assert env["result"]["decision"] is True
    assert parse_instance(env["result"]["instance"]).vas.dim == 4


def test_cli_verify_window(ex1_file, capsys):
    code, env, _ = run_json(
        capsys,
        ["verify-window", "--instance", ex1_file, "--lo", "11,11", "--size", "0,0"],
    )
    assert code == 0
    assert env["result"]["violations"] == [[11, 11]]


def test_cli_vass1(vass1_file, capsys):
    code, env, _ = run_json(
        capsys, ["vass1-decide", "--instance", vass1_file, "--to", "q", "--x", "2"]
    )
    assert code == 0
    assert env["result"]["decision"] is True
    assert env["result"]["witness"] == [0]

    code, env, _ = run_json(
        capsys, ["vass1-semilinear", "--instance", vass1_file, "--to", "q"]
    )
    assert code == 0
    assert 2 in env["result"]["explicit"]
    assert env["result"]["partial"] is False


def test_cli_b_lps_provenance(vass1_file, capsys):
    base = ["vass1-semilinear", "--instance", vass1_file, "--to", "q"]
    for extra, provenance in (([], "heuristic"), (["--b-lps", "6"], "configured")):
        code, env, _ = run_json(capsys, base + extra)
        assert code == 0
        assert env["result"]["bounds"]["b_lps_provenance"] == provenance
        assert set(env) == {"command", "result", "timing_ms", "budget", "warnings"}


def test_cli_engine_valueerror_is_not_a_usage_error(
    vass1_file, tmp_path, monkeypatch, capsys
):
    def broken(*args, **kwargs):
        raise ValueError("engine fault")

    monkeypatch.setattr(cli, "vass1_box_decide", broken)
    argv = ["vass1-decide", "--instance", vass1_file, "--to", "q", "--x", "2"]
    with pytest.raises(ValueError, match="engine fault"):
        run_command(argv)
    capsys.readouterr()
    # a malformed system is still a usage error
    dup = tmp_path / "dup.vass1"
    dup.write_text("vass1\nstates p p\ninit p\n")
    argv = ["vass1-decide", "--instance", str(dup), "--to", "p", "--x", "0"]
    assert run_command(argv) == 2


def test_cli_exit_codes(ex1_file, vass1_file, tmp_path, capsys):
    # malformed target -> usage
    assert run_command(["decide-box", "--instance", ex1_file, "--target", "x,y"]) == 2
    capsys.readouterr()
    # wrong instance kind -> usage
    assert run_command(["decide-box", "--instance", vass1_file, "--target", "1,1"]) == 2
    capsys.readouterr()
    # missing file -> usage
    assert run_command(["decide-box", "--instance", str(tmp_path / "nope"), "--target", "1,1"]) == 2
    capsys.readouterr()
    # a file that is not UTF-8 -> usage
    binary = tmp_path / "binary.vas"
    binary.write_bytes(b"vas 2\n\xff 1\n")
    assert run_command(["decide-box", "--instance", str(binary), "--target", "1,1"]) == 2
    capsys.readouterr()
    # below-threshold witness request -> precondition
    assert (
        run_command(
            [
                "witness",
                "--instance",
                ex1_file,
                "--target",
                "21,21",
                "--evidence",
                "coeffs",
                "--values",
                "1,1,2",
            ]
        )
        == 3
    )
    capsys.readouterr()
    # tiny node budget -> resource
    assert (
        run_command(
            [
                "decide-box",
                "--instance",
                ex1_file,
                "--target",
                "500,500",
                "--node-budget",
                "10",
            ]
        )
        == 4
    )
    capsys.readouterr()
    # unknown flag -> usage
    assert run_command(["decide-box", "--bogus"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "error, code",
    [
        (errors.InvalidInputError, 2),
        (errors.MalformedPathError, 2),
        (errors.InstanceParseError, 2),
        (errors.PreconditionError, 3),
        (errors.UnsupportedDimensionError, 3),
        (errors.DegenerateSystemError, 3),
        (errors.EvidenceError, 3),
        (errors.ResourceBudgetError, 4),
        (errors.InternalCheckError, 1),
        (errors.BoxVasError, 1),
    ],
)
def test_cli_exit_code_follows_the_error_hierarchy(
    ex1_file, monkeypatch, capsys, error, code
):
    def broken(*args, **kwargs):
        raise error("engine fault")

    monkeypatch.setattr(cli, "compute_threshold", broken)
    assert run_command(["threshold", "--instance", ex1_file]) == code
    out, err = capsys.readouterr()
    assert out == ""
    prefix = "internal error: " if code == 1 else ""
    assert err == f"{prefix}engine fault\n"


def test_cli_negative_node_budget_is_a_usage_error(ex1_file, vass1_file, capsys):
    decide = ["decide-box", "--instance", ex1_file, "--target", "21,21"]
    code, env, err = run_json(capsys, decide + ["--node-budget", "-1"])
    assert (code, env) == (2, None)
    assert "nonnegative" in err
    # a zero budget is well formed, and the grid exceeds it
    assert run_json(capsys, decide + ["--node-budget", "0"])[0] == 4
    # the other out-of-range numeric flags are usage errors as well
    window = ["verify-window", "--instance", ex1_file, "--lo", "0,0", "--size", "1,1"]
    for argv, word in (
        (window + ["--margin", "-1"], "nonnegative"),
        (["threshold", "--instance", ex1_file, "--validate-radius", "-3"], "nonnegative"),
        (["vass1-decide", "--instance", vass1_file, "--to", "q", "--x", "-1"], "nonnegative"),
        (["vass1-semilinear", "--instance", vass1_file, "--to", "q", "--b-lps", "0"], "positive"),
    ):
        code, env, err = run_json(capsys, argv)
        assert (code, env) == (2, None), argv
        assert word in err, argv


@pytest.mark.parametrize(
    "flags, message",
    [
        (["decide-reach", "--target", "11,11", "--cap", "-12,12"],
         "cap (-12, 12) has a negative entry"),
        (["decide-reach", "--target", "11,11", "--cap", "12,12,12"],
         "cap (12, 12, 12) does not have 2 entries"),
        (["decide-reach", "--target", "-11,11", "--cap", "12,12"],
         "target (-11, 11) has a negative entry"),
        (["verify-window", "--lo", "-1,0", "--size", "1,1"],
         "window lo (-1, 0) has a negative entry"),
        (["verify-window", "--lo", "0,0", "--size", "1,-1"],
         "window size (1, -1) has a negative entry"),
    ],
)
def test_cli_vector_errors_name_their_flag(ex1_file, capsys, flags, message):
    argv = flags[:1] + ["--instance", ex1_file] + flags[1:]
    assert run_json(capsys, argv) == (2, None, message + "\n")


def test_cli_node_budget_only_where_an_engine_reads_it(ex1_file, capsys):
    for cmd in ("threshold", "seed"):
        argv = [cmd, "--instance", ex1_file]
        assert run_json(capsys, argv + ["--node-budget", "5"])[0] == 2
        code, env, _ = run_json(capsys, argv)
        assert code == 0
        assert env["budget"] == {"node_budget": None}
    witness = ["witness", "--instance", ex1_file, "--target", "702464,702464",
               "--evidence", "coeffs", "--values", "4,4,70246"]
    assert run_json(capsys, witness + ["--node-budget", "1"])[0] == 2
    steinitz = ["steinitz", "--vectors", "1,1;-1,0"]
    assert run_json(capsys, steinitz + ["--node-budget", "5"])[0] == 2
    code, env, _ = run_json(capsys, ["lift", "--instance", ex1_file, "--node-budget", "5"])
    assert (code, env["budget"]) == (0, {"node_budget": 5})


def test_cli_zero_target_needs_no_table(ex1_file, capsys):
    # the empty path reaches 0, so no budget refuses it
    for cmd, summary in (("decide-box", "decision: true (witness length 0)"),
                         ("lift", "decision: true")):
        argv = [cmd, "--instance", ex1_file, "--target", "0,0", "--node-budget", "0"]
        code, env, err = run_json(capsys, argv)
        assert (code, env["result"]["decision"]) == (0, True), cmd
        assert err.strip() == summary, cmd


def test_cli_witness_reports_length_lower_bound(ex1_file, capsys):
    code, env, err = run_json(
        capsys,
        ["witness", "--instance", ex1_file, "--target", "702464,702464",
         "--evidence", "coeffs", "--values", "4,4,70246"],
    )
    assert code == 0
    result = env["result"]
    assert result["method"] == "proof-case-1"
    assert "rho_source" not in result
    assert (result["length"], result["length_lower_bound"]) == (70254, 70247)
    assert err.strip() == (
        "witness via proof-case-1, length 70254 (lower bound 70247)"
    )


def test_cli_parser_shares_nothing_between_calls(ex1_file, capsys):
    decide = ["decide-box", "--instance", ex1_file, "--target", "21,21"]
    over_budget = decide + ["--node-budget", "10"]
    for first, first_code in ((over_budget, 4), (["decide-box", "--bogus"], 2)):
        assert run_json(capsys, first)[0] == first_code
        code, env, _ = run_json(capsys, decide)
        assert code == 0
        assert env["budget"] == {"node_budget": 10_000_000}
        assert env["result"]["witness"] == [2, 0, 1, 2]


def test_cli_threads_is_a_usage_error(ex1_file, capsys):
    argv = ["decide-box", "--instance", ex1_file, "--target", "0,0"]
    code, env, err = run_json(capsys, argv + ["--threads", "4"])
    assert (code, env) == (2, None)
    assert "--threads" in err
    code, env, _ = run_json(capsys, argv)
    assert (code, env["warnings"]) == (0, [])


# every subcommand's stderr line; EX1 and VASS1 stand for the fixture files
SUMMARIES = [
    (["decide-box", "--instance", "EX1", "--target", "21,21"],
     "decision: true (witness length 4)"),
    (["decide-box", "--instance", "EX1", "--target", "11,11"], "decision: false"),
    (["decide-reach", "--instance", "EX1", "--target", "11,11", "--cap", "12,12"],
     "decision: true"),
    (["decide-reach", "--instance", "EX1", "--target", "11,11", "--cap", "12,12",
      "--witness"], "decision: true (witness length 3)"),
    (["threshold", "--instance", "EX1"], "W = 702464 [contains-quadrant]"),
    (["seed", "--instance", "EX1"], "seed s_pos = (560, 560)"),
    (["steinitz", "--vectors", "1,1;-1,0;0,2"], "permutation of 3 vectors, bound 4"),
    (["witness", "--instance", "EX1", "--target", "702464,702464",
      "--evidence", "coeffs", "--values", "4,4,70246"],
     "witness via proof-case-1, length 70254 (lower bound 70247)"),
    (["lift", "--instance", "EX1"], "lifted to dimension 4"),
    (["lift", "--instance", "EX1", "--target", "21,21"], "decision: true"),
    (["verify-window", "--instance", "EX1", "--lo", "11,11", "--size", "1,1"],
     "checked 4, violations 2"),
    (["vass1-decide", "--instance", "VASS1", "--to", "q", "--x", "2"],
     "decision: true (witness length 1)"),
    (["vass1-decide", "--instance", "VASS1", "--to", "p", "--x", "3"],
     "decision: false"),
    (["vass1-semilinear", "--instance", "VASS1", "--to", "q"],
     "2415 explicit values, 78 linear components"),
]


@pytest.mark.parametrize(
    "argv, summary", SUMMARIES, ids=[" ".join(a[:1] + a[3:]) for a, _ in SUMMARIES]
)
def test_cli_summary_line(ex1_file, vass1_file, capsys, argv, summary):
    files = {"EX1": ex1_file, "VASS1": vass1_file}
    code, _, err = run_json(capsys, [files.get(a, a) for a in argv])
    assert (code, err) == (0, summary + "\n")


def test_cli_json_stable(ex1_file, capsys):
    _, env, _ = run_json(
        capsys, ["decide-box", "--instance", ex1_file, "--target", "21,21"]
    )
    assert set(env) == {"command", "result", "timing_ms", "budget", "warnings"}
    dumped = json.dumps(env, sort_keys=True)
    assert json.loads(dumped) == env


def test_tracing_call_sites_resolve():
    # Tracer.install patches each (module, attribute) of perfbench/tracing.py,
    # so a renamed or dropped name would break a traced benchmark run
    path = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for module_name, attr, _, _ in tracing.CALL_SITES:
        module = importlib.import_module(module_name)
        assert callable(getattr(module, attr, None)), (module_name, attr)
    assert isinstance(core.PathRecord.__dict__["record"], classmethod)


@pytest.mark.parametrize("entry", [-(2**63), -(10**11)])
def test_cli_seed_path_over_budget_exits_4(tmp_path, capsys, entry):
    # the staircase path has 2 * |entry| + 2 steps; it is refused before
    # the list is built, where it used to raise OverflowError or MemoryError
    inst = tmp_path / "far.vas"
    inst.write_text(f"vas 2\n4 -2\n-3 -4\n4 0\n{entry} 3\n")
    started = time.monotonic()
    code, env, err = run_json(capsys, ["seed", "--instance", str(inst)])
    assert time.monotonic() - started < 1
    assert (code, env) == (4, None)
    assert err == f"seed path of {2 * -entry + 2} steps exceeds node budget 10000000\n"
