"""The path text codec of the CLI: the envelope writer against
``json.dumps``, and the one-pass ``--values`` reader against split/int."""
import json
import random

import pytest

from boxvas import InstanceFile, serialize_instance
from boxvas import cli
from boxvas.cli import FLAT_PATH, run_command
from boxvas.errors import InvalidInputError

from conftest import zigzag_vass

EX1_TEXT = "vas 2\n-1 2\n2 -1\n10 10\n"

ODD_STRINGS = [
    "", "witness", '"witness": ', "\x00witness\x00", cli._MARK_TEXT, "[0, 1, 2]",
    'quote " and \\ backslash', "tab\tnewline\n", "é中\U0001f600", "\ud800",
    "\x7f\x1f", "0, 1, 2,",
]


def random_witness(rng: random.Random):
    n = rng.choice([0, 1, FLAT_PATH - 1, FLAT_PATH, FLAT_PATH + 1, rng.randint(0, 300)])
    path = [rng.randrange(10) for _ in range(n)]
    if path and rng.random() < 0.5:  # one index at or past a byte edge
        path[rng.randrange(n)] = rng.choice([9, 10, 255, 256, -1, -256, 2**70])
    return tuple(path) if rng.random() < 0.3 else path


def random_value(rng: random.Random, depth: int = 0):
    kind = rng.randrange(6 if depth < 2 else 4)
    if kind == 0:
        return rng.choice(ODD_STRINGS)
    if kind == 1:
        return rng.choice([0, -7, 10**30, 1.5, True, False, None])
    if kind == 2:
        return random_witness(rng)
    if kind == 3:
        return [rng.choice(ODD_STRINGS) for _ in range(rng.randint(0, 3))]
    if kind == 4:  # a nested object may hold a key named witness
        keys = ["witness", rng.choice(ODD_STRINGS), "a"]
        return {k: random_value(rng, depth + 1) for k in keys}
    return [random_value(rng, depth + 1) for _ in range(rng.randint(0, 3))]


def random_envelope(rng: random.Random) -> dict:
    result = {rng.choice(ODD_STRINGS + ["method", "length", "s"]): random_value(rng)
              for _ in range(rng.randint(0, 4))}
    if rng.random() < 0.9:
        result["witness"] = random_witness(rng)
    return {
        "command": rng.choice(["witness", "decide-box", "seed", "\x00witness\x00"]),
        "result": result,
        "timing_ms": rng.choice([0.0, 12.345, 1e-7]),
        "budget": {"node_budget": rng.choice([None, 0, 20_000_000])},
        "warnings": [rng.choice(ODD_STRINGS)] if rng.random() < 0.2 else [],
    }


def test_envelope_text_is_json_dumps_on_random_envelopes():
    rng = random.Random(30)
    for _ in range(3000):
        env = random_envelope(rng)
        assert cli._envelope_text(env) == json.dumps(env, sort_keys=True), env


@pytest.mark.parametrize("n", [0, 1, 63, 64, 65, 300])
@pytest.mark.parametrize("edge", [None, 9, 10, 255, 256, -1])
@pytest.mark.parametrize("container", [list, tuple])
def test_envelope_text_at_the_edges(n, edge, container):
    path = [i % 10 for i in range(n)]
    if edge is not None and n:
        path[n // 2] = edge
    env = {"command": "witness", "result": {"witness": container(path), "length": n},
           "timing_ms": 1.0, "budget": {"node_budget": None}, "warnings": []}
    assert cli._envelope_text(env) == json.dumps(env, sort_keys=True)


def routes(monkeypatch) -> list:
    """Spy on the ``json.dumps`` calls of the CLI: per call, the witness it
    was given, or the mark when the digits were written in one pass."""
    seen, dumps = [], json.dumps

    def spy(obj, **kwargs):
        if isinstance(obj, dict) and isinstance(obj.get("result"), dict):
            seen.append(obj["result"].get("witness"))
        return dumps(obj, **kwargs)

    monkeypatch.setattr(cli.json, "dumps", spy)
    return seen


@pytest.fixture
def files(tmp_path):
    ex1 = tmp_path / "ex1.vas"
    ex1.write_text(EX1_TEXT)
    zigs = []
    for levels in (8, 16):  # 8 and 32 transitions
        zig = tmp_path / f"zigzag{levels}.vass1"
        zig.write_text(serialize_instance(
            InstanceFile(kind="vass1", vass1=zigzag_vass(levels), init_state="0")))
        zigs.append(str(zig))
    return str(ex1), *zigs


@pytest.mark.parametrize("name, one_pass", [
    ("ex1 witness at W", True),
    ("ex1 witness from its own path", True),
    ("decide-box", True),
    ("decide-reach --witness", True),
    ("seed", False),
    ("zigzag vass1-decide x=3001", True),
    ("16-level zigzag vass1-decide x=3001", False),
])
def test_cli_stdout_is_canonical_json(files, capsys, monkeypatch, name, one_pass):
    ex1, zig, zig16 = files
    at_w = ["witness", "--instance", ex1, "--target", "702464,702464",
            "--evidence", "coeffs", "--values", "4,4,70246"]
    if name == "ex1 witness from its own path":
        assert run_command(at_w) == 0
        path = json.loads(capsys.readouterr().out)["result"]["witness"]
        at_w[-3:] = ["path", "--values", ",".join(map(str, path))]
    argv = {
        "ex1 witness at W": at_w,
        "ex1 witness from its own path": at_w,
        "decide-box": ["decide-box", "--instance", ex1, "--target", "12,300"],
        "decide-reach --witness": ["decide-reach", "--instance", ex1, "--target", "12,300",
                                   "--cap", "14,300", "--witness"],
        "seed": ["seed", "--instance", ex1],
        "zigzag vass1-decide x=3001": ["vass1-decide", "--instance", zig, "--to", "8",
                                       "--x", "3001"],
        "16-level zigzag vass1-decide x=3001": ["vass1-decide", "--instance", zig16,
                                                "--to", "16", "--x", "3001"],
    }[name]
    seen = routes(monkeypatch)
    assert run_command(argv) == 0
    monkeypatch.undo()
    out = capsys.readouterr().out
    env = json.loads(out)
    assert out == json.dumps(env, sort_keys=True) + "\n"
    witness = env["result"]["witness"]
    assert len(seen) == 1
    assert (seen[0] == cli._MARK) == one_pass
    if one_pass:
        assert len(witness) >= FLAT_PATH and max(witness) < 10
    elif name == "seed":
        assert len(witness) < FLAT_PATH
    else:  # long, but with two-digit transition indices
        assert len(witness) >= FLAT_PATH and max(witness) >= 10


def parse_outcome(parse, text):
    try:
        return parse(text)
    except InvalidInputError as e:
        return f"InvalidInputError: {e}"


def one_digit_text(rng: random.Random, n: int) -> str:
    return ",".join(str(rng.randrange(10)) for _ in range(n))


MALFORMED = ["0,1,", ",0,1", "0,,1", " 1", "+1", "-1", "1_0", "٣", "", ",", "1 ",
             "0;1", "a", "\ud800"]


def test_parse_values_matches_split_int():
    rng = random.Random(31)
    texts = list(MALFORMED)
    for n in [1, 2, FLAT_PATH - 1, FLAT_PATH, FLAT_PATH + 1, 200, 1000]:
        base = one_digit_text(rng, n)
        texts.append(base)
        texts.append(base + ",")  # even length: a stride check alone accepts it
        texts += ["," + base, base.replace(",", ",,", 1), base + ",12", "12," + base]
        for bad in MALFORMED:
            texts.append(bad + "," + base)
            texts.append(base + "," + bad)
    for _ in range(2000):
        text = list(one_digit_text(rng, rng.randint(1, 3 * FLAT_PATH)))
        for _ in range(rng.randint(0, 2)):
            at = rng.randrange(len(text) + 1)
            edit = rng.choice(["insert", "delete", "replace"])
            char = rng.choice([",", " ", "+", "-", "_", "٣", "a", "12", "7"])
            if edit == "insert":
                text.insert(at, char)
            elif at < len(text):
                text[at:at + 1] = [] if edit == "delete" else [char]
        texts.append("".join(text))
    fast = 0
    for text in texts:
        expected = parse_outcome(cli._parse_vector, text)
        assert parse_outcome(cli._parse_values, text) == expected, text
        fast += isinstance(expected, tuple) and len(text) == 2 * len(expected) - 1 \
            and len(expected) >= FLAT_PATH
    assert fast > 100


@pytest.mark.parametrize("text", ["0,1," * FLAT_PATH, "," + "0," * FLAT_PATH + "1",
                                  "0,,1" + ",2" * FLAT_PATH, "1_0,x" + ",2" * FLAT_PATH,
                                  "٣,x" + ",2" * FLAT_PATH])
def test_cli_malformed_values_keep_their_message(files, capsys, text):
    argv = ["witness", "--instance", files[0], "--target", "10,10",
            "--evidence", "path", "--values", text]
    code = run_command(argv)
    out = capsys.readouterr()
    with pytest.raises(InvalidInputError) as e:
        cli._parse_vector(text)
    assert (code, out.out, out.err) == (2, "", f"{e.value}\n")
