"""The guards that re-check every emitted witness, fed wrong answers.

Each test patches one engine to return a path that is wrong in one way:
one step short of the target, past the target in some coordinate on the
way, or below 0 on the way.  The library must raise ``InternalCheckError``
rather than return the path, and the CLI must exit 1 with an
"internal error:" message and print nothing on stdout.
"""
import pytest

from boxvas import (
    DeepConstant,
    InternalCheckError,
    VasSystem,
    Vass1System,
    compute_seed,
    compute_threshold,
    decide_box_reach,
    synthesize_box_witness,
    vass1_box_decide,
)
from boxvas import boxreach, core, vass1
from boxvas.cli import run_command

# +x, +y, -x, -y
PLUS_MINUS = ((1, 0), (0, 1), (-1, 0), (0, -1))
WRONG = ("one step off", "overshoot", "dip")


def check_wrong(vas, path, target, kind):
    """The patched path is wrong in exactly the way ``kind`` names."""
    eff, drop, peak = core.walk(vas, path)
    if kind == "one step off":
        assert eff != tuple(target) and not any(drop)
    elif kind == "overshoot":
        assert eff == tuple(target) and not any(drop)
        assert any(p > t for p, t in zip(peak, target))
    else:
        assert eff == tuple(target) and any(drop)


def run_internal_error(capsys, argv):
    assert run_command(argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("internal error:"), err


@pytest.mark.parametrize("kind", WRONG)
def test_bfs_witness_guard(tmp_path, monkeypatch, capsys, kind):
    vas = VasSystem(2, PLUS_MINUS)
    path = {"one step off": [0], "overshoot": [0, 0, 2, 1], "dip": [2, 0, 0, 1]}[kind]
    check_wrong(vas, path, (1, 1), kind)
    monkeypatch.setattr(boxreach, "bfs_grid", lambda *args: list(path))
    with pytest.raises(InternalCheckError):
        decide_box_reach(vas, (1, 1))
    inst = tmp_path / "pm.vas"
    inst.write_text("vas 2\n1 0\n0 1\n-1 0\n0 -1\n")
    run_internal_error(capsys, ["decide-box", "--instance", str(inst), "--target", "1,1"])


@pytest.mark.parametrize("kind", WRONG)
def test_reordered_witness_guard(tmp_path, monkeypatch, capsys, kind):
    # proof case 1 on the full plane: theta . rho . theta, rho from
    # reorder_counts, which here goes wrong after theta reaches s_pos
    vas = VasSystem(2, PLUS_MINUS)
    w = compute_threshold(vas, DeepConstant(0)).w
    target, counts = (w, w), (w, w, 0, 0)
    reorder = boxreach.reorder_counts
    k = w + 1  # more than s_pos and than the room left below the target
    emitted = []

    def wrong(system, coefficients):
        rho = reorder(system, coefficients)
        if kind == "one step off":
            rho = rho[:-1]
        elif kind == "overshoot":
            rho = [0] * k + [2] * k + rho
        else:
            rho = [2] * k + [0] * k + rho
        emitted.append(rho)
        return rho

    monkeypatch.setattr(boxreach, "reorder_counts", wrong)
    with pytest.raises(InternalCheckError):
        synthesize_box_witness(vas, target, coefficients=counts, m=DeepConstant(0))
    theta = list(compute_seed(vas).pos_witness_indices())
    check_wrong(vas, theta + emitted[0] + theta, target, kind)
    inst = tmp_path / "pm.vas"
    inst.write_text("vas 2\n1 0\n0 1\n-1 0\n0 -1\n")
    run_internal_error(capsys, [
        "witness", "--instance", str(inst), "--target", f"{w},{w}",
        "--evidence", "coeffs", "--values", f"{w},{w},0,0", "--m", "0",
    ])


@pytest.mark.parametrize("kind", WRONG)
def test_vass1_witness_guard(tmp_path, monkeypatch, capsys, kind):
    # one state p with a +1 and a -1 loop, target counter 2
    sys1 = Vass1System(("p",), (("p", 1, "p"), ("p", -1, "p")))
    path = {"one step off": [0], "overshoot": [0, 0, 0, 1], "dip": [1, 0, 0, 0]}[kind]
    _, _, eff, drop, peak = sys1.walk(path)
    assert (eff != 2) == (kind == "one step off")
    assert (peak > 2) == (kind == "overshoot") and (drop > 0) == (kind == "dip")
    monkeypatch.setattr(vass1, "flat_bfs", lambda *args: list(path))
    with pytest.raises(InternalCheckError):
        vass1_box_decide(sys1, "p", "p", 2)
    inst = tmp_path / "loops.vass1"
    inst.write_text("vass1\nstates p\ninit p\ntrans p 1 p\ntrans p -1 p\n")
    run_internal_error(capsys, ["vass1-decide", "--instance", str(inst), "--to", "p",
                                "--x", "2"])
