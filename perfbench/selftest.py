"""Self-test of the answer checks: each accepts a right answer and rejects
the same answer with one thing changed.

    python3 perfbench/selftest.py

``run.py`` runs it at the start of every run and reports ``correct: false``
if any check fails to tell the two apart.
"""
from __future__ import annotations

import sys

import checkers as ck
import workloads as wl
from checkers import CheckFailed

TWO_STATE = (("p", 2, "q"), ("q", -1, "p"))


def _cases():
    """(name, check, right answer, corrupted answer)."""
    ex1_path = [2, 0, 1, 2]
    yield ("vas path: one index changed", lambda w: ck.check_vas_path(wl.EX1, w, (21, 21)),
           ex1_path, [2, 0, 1, 1])
    yield ("vas path: prefix leaves the box", lambda w: ck.check_vas_path(wl.EX1, w, (21, 21)),
           ex1_path, [0, 2, 1, 2])
    yield ("vass1 path: one index changed",
           lambda w: ck.check_vass1_path(TWO_STATE, "p", "q", w, 3), [0, 1, 0], [0, 0, 1])
    yield ("decide-box: decision flipped", wl._decide_box_check(wl.EX1, (11, 11)),
           {"decision": False}, {"decision": True, "witness": [2, 0, 1]})
    yield ("decide-box: witness index changed", wl._decide_box_check(wl.EX1, (21, 21)),
           {"decision": True, "witness": ex1_path}, {"decision": True, "witness": [2, 0, 1, 1]})
    yield ("decide-reach: witness outside the cap",
           wl._decide_reach_check(wl.EX1, (11, 11), (12, 12), True),
           {"decision": True, "witness": [2, 0, 1]}, {"decision": True, "witness": [1, 2, 0]})
    lifted = [[-1, 2, 1, -2], [2, -1, -2, 1], [10, 10, -10, -10], [0, 0, 1, 0], [0, 0, 0, 1]]
    yield ("lift: decision flipped", wl._lift_check(wl.EX1, (21, 21)),
           {"dim": 4, "generators": lifted, "decision": True},
           {"dim": 4, "generators": lifted, "decision": False})
    window = {"cap_margin": 56, "skipped": [], "checked": 1, "violations": [[11, 11]]}
    yield ("verify-window: violation dropped", wl._window_check(wl.EX1, (11, 11), (0, 0)),
           window, dict(window, violations=[]))
    yield ("threshold: W off by one", wl._threshold_check(wl.EX1, "contains-quadrant"),
           {"w": 702464, "case": "contains-quadrant", "m": 351232, "degenerate": False},
           {"w": 702465, "case": "contains-quadrant", "m": 351232, "degenerate": False})
    deep, missing = ck.deep_scan_reference(wl.EX1, 0, 4)
    scan = {"radius": 4, "undecided": [], "deep_lattice_points": deep,
            "counterexamples": missing}
    good = {"w": 351232, "case": "contains-quadrant", "m": 0, "degenerate": False, "scan": scan}
    yield ("threshold scan: counterexample reported",
           wl._threshold_check(wl.EX1, "contains-quadrant", m=0, radius=4),
           good, dict(good, scan=dict(scan, counterexamples=[[1, 1]])))
    seed = {"s": [10, 10], "s_pos": [560, 560], "witness": [2], "repeat": 56}
    yield ("seed: witness index changed", wl._seed_check(wl.EX1), seed, dict(seed, witness=[1]))
    vectors = [(5, 0), (-3, 0), (1, 1), (-2, -1)]
    yield ("steinitz: index repeated", wl._steinitz_check(vectors),
           {"verified": True, "permutation": [2, 0, 1, 3], "corridor_bound": 10},
           {"verified": True, "permutation": [2, 0, 0, 3], "corridor_bound": 10})
    yield ("steinitz: prefix leaves the corridor",
           lambda p: ck.check_steinitz([(4, 0)] * 3 + [(-4, 0)] * 3, p, 8),
           [0, 3, 1, 4, 2, 5], [0, 1, 2, 3, 4, 5])
    semi = {"partial": False, "bounds": {"p3": 50}, "explicit": [], "components": [
        {"base": 2, "periods": [1]}]}
    yield ("semilinear: component base shifted",
           wl._semilinear_check(TWO_STATE, "p", "q", 2, 7),
           semi, dict(semi, components=[{"base": 1, "periods": [1]}]))
    yield ("vass1-decide: decision flipped", wl._vass1_decide_check(TWO_STATE, "p", "q", 3),
           {"decision": True, "witness": [0, 1, 0]}, {"decision": False})


def run() -> list[str]:
    failures = []
    for name, check, right, corrupted in _cases():
        try:
            check(right)
        except CheckFailed as e:
            failures.append(f"{name}: right answer rejected ({e})")
        try:
            check(corrupted)
            failures.append(f"{name}: corrupted answer accepted")
        except CheckFailed:
            pass
    # the headline of `decide` rests on this invariant, not on a search
    if not ck.blocked_by_invariant(wl.EX1, (2000, 1999), (1, -1), 3):
        failures.append("invariant: (2000, 1999) not blocked")
    if ck.blocked_by_invariant(wl.EX1, (2001, 1998), (1, -1), 3):
        failures.append("invariant: (2001, 1998) blocked")
    return failures


if __name__ == "__main__":
    problems = run()
    for p in problems:
        print(p)
    print(f"{len(list(_cases()))} checks, {len(problems)} failures")
    sys.exit(1 if problems else 0)
