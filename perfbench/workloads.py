"""The three workloads: seeded inputs, the CLI commands run on them, and the
check each answer must pass.

A workload is a fixed batch of operations plus one headline operation.  The
inputs depend only on the seed; the reference each check compares against
is computed here, before any timing, by the functions in ``checkers``.
"""
from __future__ import annotations

import os
import random
from dataclasses import dataclass
from typing import Callable

import checkers as ck
from checkers import require

# Fixture systems of the repository's test suite.
EX1 = ((-1, 2), (2, -1), (10, 10))
EX2 = ((0, 1, 1), (1, 2, -1), (1, -1, 2))
ZIGZAG_MOVES = ((1, 7), (3, -6), (-2, 6))

ENVELOPE_KEYS = {"command", "result", "timing_ms", "budget", "warnings"}


@dataclass
class Op:
    """One CLI command and the check of its answer.

    ``check(result)`` raises ``CheckFailed`` on a wrong answer and returns the
    total length of the witnesses in it.  An op with ``expect_exit`` set is a
    known fault: it counts as failed when it exits with that code.
    """

    label: str
    argv: list[str]
    check: Callable[[dict], int]
    expect_exit: int | None = None


@dataclass
class Workload:
    batch: list[Op]
    headline: Op


class Files:
    """Writes instance files into a scratch directory, one per system."""

    def __init__(self, root: str):
        self.root = root
        self.count = 0

    def vas(self, gens) -> str:
        dim = len(gens[0])
        lines = [f"vas {dim}"] + [" ".join(map(str, g)) for g in gens]
        return self._write("\n".join(lines) + "\n", "vas")

    def vass1(self, states, init, trans) -> str:
        lines = ["vass1", "states " + " ".join(states), f"init {init}"]
        lines += [f"trans {s} {w} {d}" for s, w, d in trans]
        return self._write("\n".join(lines) + "\n", "vass1")

    def _write(self, text: str, ext: str) -> str:
        self.count += 1
        path = os.path.join(self.root, f"i{self.count}.{ext}")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        return path


def vec(v) -> str:
    return ",".join(map(str, v))


def zigzag(levels: int = 8):
    states = tuple(str(y) for y in range(levels + 1))
    trans = tuple(
        (str(y), dx, str(y + dy))
        for y in range(levels + 1)
        for dx, dy in ZIGZAG_MOVES
        if 0 <= y + dy <= levels
    )
    return states, trans


# ---------------------------------------------------------------------------
# certify: targets at or above W, with reachability evidence


# Evidence sizes.  A case-1 witness reorders the integer-cone coefficients
# of the target, which for these cones are the evidence counts up to the
# seed's few steps, and a case-2 witness reorders the evidence path itself;
# fixing the evidence length fixes the witness length, so the batch costs the
# same whatever the seed.
CONTAINS_STEPS = 90_000
DEEP_STEPS = 100_000
SHALLOW_EXTRA = 200
HALF_PLANE_EXTRA = 2_000


def _dot(a, b) -> int:
    return sum(x * y for x, y in zip(a, b))


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def _shuffled(rng, gens, counts):
    order = list(range(len(gens)))
    rng.shuffle(order)
    return tuple(gens[i] for i in order), [counts[i] for i in order]


def _contains_quadrant(rng: random.Random):
    """A pointed cone holding the quadrant, norm 8: u = (-a, b) and
    v = (c, -d) bound it (cross(v, u) > 0), p is strictly positive.  The
    evidence is 4·p, then CONTAINS_STEPS steps of u and v."""
    while True:
        a, b = rng.randint(0, 2), rng.randint(1, 2)
        c, d = rng.randint(1, 2), rng.randint(0, 2)
        p = (rng.randint(1, 2), rng.randint(1, 2))
        gens = [(-a, b), (c, -d), p]
        if a + d > 0 and c * b - d * a > 0 and ck.vas_norm(gens) == 8:
            break
    w, _ = ck.paper_threshold(gens, "contains-quadrant")
    # alpha + beta = CONTAINS_STEPS with both coordinates of
    # alpha·u + beta·v at least W
    lo = _ceil_div(w + d * CONTAINS_STEPS, b + d)
    hi = (c * CONTAINS_STEPS - w) // (a + c)
    require(lo <= hi, "CONTAINS_STEPS too small for this cone")
    alpha = rng.randint(lo, hi)
    return _shuffled(rng, gens, [alpha, CONTAINS_STEPS - alpha, 4])


def _half_plane(rng: random.Random):
    """The line ±u bounds a half-plane holding the quadrant and p lies
    strictly inside it, norm 8.  The evidence is k·p plus |m| steps along
    the line, k + |m| = W + HALF_PLANE_EXTRA."""
    while True:
        u = rng.choice([(1, 0), (0, -1), (1, -1), (2, -1), (1, -2)])
        p = (rng.randint(1, 2), rng.randint(1, 2))
        gens = [u, (-u[0], -u[1]), p]
        if ck.vas_norm(gens) == 8:
            break
    w, _ = ck.paper_threshold(gens, "half-or-full-plane")
    m = rng.randint(-300, 300)
    counts = [max(m, 0), max(-m, 0), w + HALF_PLANE_EXTRA - abs(m)]
    return _shuffled(rng, gens, counts)


def _full_plane(rng: random.Random):
    """±u and p as in ``_half_plane`` plus a strictly negative -q, norm 8."""
    while True:
        u = rng.choice([(1, 0), (0, -1), (1, -1)])
        gens = [u, (-u[0], -u[1]), (rng.randint(1, 2), rng.randint(1, 2)),
                (-rng.randint(1, 2), -rng.randint(1, 2))]
        if ck.vas_norm(gens) == 8:
            rng.shuffle(gens)
            return tuple(gens)


def _intersects(rng: random.Random, deep: bool):
    """Two extremals, norm 6: pos strictly positive and neg with a negative
    second entry, so the cone meets the quadrant on the x-axis side (the
    y-axis side after swapping coordinates).  Shallow evidence is pos many
    times and neg once, so the target hugs the pos facet.  Deep evidence
    puts each facet product above M + 64·norm³, which 2·s_pos cannot undo
    (|s_pos| <= 8·norm³ and facet entries are at most 2)."""
    while True:
        pos = (rng.randint(1, 2), rng.randint(1, 2))
        neg = (rng.randint(0, 1), -rng.randint(1, 2))
        if ck.vas_norm([pos, neg]) == 6:
            break
    if rng.random() < 0.5:
        pos, neg = (pos[1], pos[0]), (neg[1], neg[0])
    gens = [pos, neg]
    w, m = ck.paper_threshold(gens, "intersects-quadrant")
    if not deep:
        return _shuffled(rng, gens, [w + SHALLOW_EXTRA, 1])
    # f_pos is the facet normal orthogonal to pos, f_neg the one to neg
    f_pos, f_neg = sorted(ck.pointed_cone_facets(gens), key=lambda f: _dot(f, pos))
    need = m + 64 * ck.vas_norm(gens) ** 3
    beta = _ceil_div(need, _dot(f_pos, neg)) + rng.randint(0, 100)
    alpha = DEEP_STEPS - beta
    require(_dot(f_neg, pos) * alpha >= need, "DEEP_STEPS too small for the facets")
    require(all(alpha * pos[k] + beta * neg[k] >= w for k in range(2)),
            "DEEP_STEPS too small for W")
    return _shuffled(rng, gens, [alpha, beta])


def _evidence_path(gens, counts) -> list[int]:
    """Order a multiset (per-generator counts) as a path that stays in the
    nonnegative quadrant: generators with no negative entry first, then a
    largest-deficit interleaving of the rest."""
    nonneg = [i for i, g in enumerate(gens) if min(g) >= 0]
    path = [i for i in nonneg for _ in range(counts[i])]
    rest = [i for i in range(len(gens)) if i not in nonneg and counts[i]]
    k = sum(counts[i] for i in rest)
    placed = {i: 0 for i in rest}
    for n in range(1, k + 1):
        i = max(
            (i for i in rest if placed[i] < counts[i]),
            key=lambda i: n * counts[i] - placed[i] * k,
        )
        placed[i] += 1
        path.append(i)
    return path


def _reach_check(gens, target, method):
    """Check a `witness` answer: a box-reaching path to the target, built by
    the proof case the evidence was made for."""

    def check(res: dict) -> int:
        w = res["witness"]
        require(res["method"] == method, f"method {res['method']}, expected {method}")
        ck.check_vas_path(gens, w, target)
        require(res["length"] == len(w), "length field disagrees with the witness")
        return len(w)

    return check


def _threshold_check(gens, case, m=None, radius=None):
    w_ref, m_used = ck.paper_threshold(gens, case, m)
    scan_ref = None
    if radius is not None:
        if case == "half-or-full-plane":
            scan_ref = ck.plane_scan_reference(gens, m_used, radius)
        else:
            scan_ref = ck.deep_scan_reference(gens, m_used, radius)

    def check(res: dict) -> int:
        require(res["w"] == w_ref, f"W = {res['w']}, paper formula gives {w_ref}")
        require(res["case"] == case, f"case {res['case']}, constructed as {case}")
        require(res["m"] == m_used, f"M = {res['m']}, expected {m_used}")
        require(res["degenerate"] is False, "reported degenerate")
        if scan_ref is not None:
            scan = res["scan"]
            require(scan["radius"] == radius, "scan radius")
            require(scan["undecided"] == [], f"undecided points {scan['undecided'][:3]}")
            require(
                scan["deep_lattice_points"] == scan_ref[0],
                f"{scan['deep_lattice_points']} deep points, reference {scan_ref[0]}",
            )
            require(
                sorted(scan["counterexamples"]) == scan_ref[1],
                f"counterexamples {scan['counterexamples'][:3]}, reference {scan_ref[1][:3]}",
            )
        return 0

    return check


def _seed_check(gens):
    n = ck.vas_norm(gens)

    def check(res: dict) -> int:
        s, s_pos, w, rep = res["s"], res["s_pos"], res["witness"], res["repeat"]
        require(min(s) >= 1, f"seed {s} is not strictly positive")
        require(rep == 2 * n, f"repeat {rep}, expected 2·norm = {2 * n}")
        require(s_pos == [rep * x for x in s], "s_pos is not repeat·s")
        ck.check_vas_path(gens, w, s)
        ck.check_vas_path(gens, w * rep, s_pos)
        return len(w)

    return check


def _steinitz_check(vectors):
    def check(res: dict) -> int:
        require(res["verified"] is True, "not verified")
        ck.check_steinitz(vectors, res["permutation"], res["corridor_bound"])
        return 0

    return check


def _steinitz_op(label, vectors) -> Op:
    text = ";".join(vec(v) for v in vectors)
    return Op(label, ["steinitz", f"--vectors={text}"], _steinitz_check(vectors))


def _witness_op(inst, label, gens, counts, evidence) -> Op:
    """`witness` from coefficients (deep targets, proof case 1) or from an
    evidence path (shallow targets, proof case 2)."""
    path = _evidence_path(gens, counts)
    target = [sum(counts[i] * g[k] for i, g in enumerate(gens)) for k in range(2)]
    ck.check_vas_path(gens, path, target, box=[10**12, 10**12])
    values = counts if evidence == "coeffs" else path
    argv = ["witness", "--instance", inst, "--target", vec(target),
            "--evidence", evidence, "--values", vec(values)]
    method = "proof-case-1" if evidence == "coeffs" else "proof-case-2"
    return Op(label, argv, _reach_check(gens, target, method))


def certify(seed: int, files: Files) -> Workload:
    rng = random.Random(seed)
    ex1 = files.vas(EX1)
    batch = [
        Op("ex1 threshold", ["threshold", "--instance", ex1, "--validate-radius", "8"],
           _threshold_check(EX1, "contains-quadrant", radius=8)),
        Op("ex1 threshold m=0", ["threshold", "--instance", ex1, "--m", "0",
                                 "--validate-radius", "48"],
           _threshold_check(EX1, "contains-quadrant", m=0, radius=48)),
        Op("ex1 seed", ["seed", "--instance", ex1], _seed_check(EX1)),
        _steinitz_op("ex1 steinitz", [g for g in EX1 for _ in range(5)]),
        _steinitz_op("ex2 steinitz", [g for g in EX2 for _ in range(4)]),
    ]

    def system_ops(label, gens, case, evidence=None, counts=None):
        inst = files.vas(gens)
        ops = [
            Op(f"{label} threshold", ["threshold", "--instance", inst, "--validate-radius", "6"],
               _threshold_check(gens, case, radius=6)),
            Op(f"{label} seed", ["seed", "--instance", inst], _seed_check(gens)),
        ]
        if case != "half-or-full-plane":
            ops.append(Op(f"{label} threshold m=2",
                          ["threshold", "--instance", inst, "--m", "2", "--validate-radius", "16"],
                          _threshold_check(gens, case, m=2, radius=16)))
        if evidence is not None:
            ops.append(_witness_op(inst, f"{label} witness", gens, counts, evidence))
        return ops

    for _ in range(2):
        gens, counts = _contains_quadrant(rng)
        batch += system_ops("contains-quadrant", gens, "contains-quadrant", "coeffs", counts)
    gens, counts = _half_plane(rng)
    batch += system_ops("half-plane", gens, "half-or-full-plane", "coeffs", counts)
    batch += system_ops("full-plane", _full_plane(rng), "half-or-full-plane")
    for deep in (False, True, False, True):
        gens, counts = _intersects(rng, deep)
        label = "intersects deep" if deep else "intersects shallow"
        batch += system_ops(label, gens, "intersects-quadrant",
                            "coeffs" if deep else "path", counts)
    for dim in (2, 3):
        vectors = [tuple(rng.randint(-3, 3) for _ in range(dim)) for _ in range(14)]
        vectors[0] = (3,) * dim  # keeps I = 3, so every draw has the same bound
        batch.append(_steinitz_op(f"random steinitz d={dim}", vectors))

    w_ex1, _ = ck.paper_threshold(EX1, "contains-quadrant")
    target = [w_ex1, w_ex1]
    require([4 * a + 4 * b + 70246 * c for a, b, c in zip(*EX1)] == target,
            "headline coefficients do not sum to (W, W)")
    headline = Op("ex1 witness at W",
                  ["witness", "--instance", ex1, "--target", vec(target),
                   "--evidence", "coeffs", "--values", "4,4,70246"],
                  _reach_check(EX1, target, "proof-case-1"))
    return Workload(batch, headline)


# ---------------------------------------------------------------------------
# decide: exact decisions below W


def _decide_box_check(gens, target):
    expected = ck.box_reachable(gens, target)

    def check(res: dict) -> int:
        require(res["decision"] is expected, f"decision {res['decision']}, reference {expected}")
        if not expected:
            require("witness" not in res, "witness for a negative answer")
            return 0
        ck.check_vas_path(gens, res["witness"], target)
        return len(res["witness"])

    return check


def _decide_reach_check(gens, target, cap, want_witness):
    expected = ck.capped_reachable(gens, target, cap)

    def check(res: dict) -> int:
        require(res["decision"] is expected, f"decision {res['decision']}, reference {expected}")
        if not (expected and want_witness):
            require("witness" not in res, "unexpected witness")
            return 0
        ck.check_vas_path(gens, res["witness"], target, box=cap)
        return len(res["witness"])

    return check


def _lift_check(gens, target):
    d = len(gens[0])
    expected = ck.box_reachable(gens, target)
    lifted = [list(g) + [-a for a in g] for g in gens]
    lifted += [[1 if k == d + i else 0 for k in range(2 * d)] for i in range(d)]

    def check(res: dict) -> int:
        require(res["dim"] == 2 * d, "lifted dimension")
        require(res["generators"] == lifted, "lifted generators")
        require(res["decision"] is expected, f"decision {res['decision']}, reference {expected}")
        return 0

    return check


def _window_check(gens, lo, size):
    margin = 2 * ck.vas_norm(gens)
    violations = []
    checked = 0
    for x in range(lo[0], lo[0] + size[0] + 1):
        for y in range(lo[1], lo[1] + size[1] + 1):
            t = (x, y)
            checked += 1
            if ck.capped_reachable(gens, t, (x + margin, y + margin)) and not ck.box_reachable(gens, t):
                violations.append([x, y])

    def check(res: dict) -> int:
        require(res["cap_margin"] == margin, "cap margin")
        require(res["skipped"] == [], "skipped targets")
        require(res["checked"] == checked, f"checked {res['checked']}, window has {checked}")
        require(res["violations"] == violations,
                f"violations {res['violations'][:3]}, reference {violations[:3]}")
        return 0

    return check


def _random_gens(rng, dim, max_entry):
    while True:
        gens = [tuple(rng.randint(-max_entry, max_entry) for _ in range(dim))
                for _ in range(rng.randint(2, 3))]
        # a first step needs a generator with no negative entry
        if any(min(g) >= 0 and any(g) for g in gens):
            return tuple(gens)


def _target_at(rng, gens, hi, steps, cap_extra=0):
    """A random target in [0, hi]^d whose shortest path inside its cap
    (target + cap_extra, per coordinate) has exactly ``steps`` steps, or
    one the cap keeps out of reach when ``steps`` is None; None if 400 draws
    find neither."""
    dim = len(gens[0])
    # a smaller box only lengthens shortest paths, so the distances in the
    # box holding every draw's cap rule most draws out without a search
    outer = ck.grid_distances(gens, (hi + cap_extra,) * dim)
    for _ in range(400):
        t = tuple(rng.randint(0, hi) for _ in range(dim))
        if steps is not None and outer.get(t, steps + 1) > steps:
            continue
        cap = tuple(x + cap_extra for x in t)
        if ck.grid_distances(gens, cap).get(t) == steps:
            return t, cap
    return None


def _decide_ops(inst, label, gens, target, cap, lift=True) -> list[Op]:
    ops = [
        Op(f"{label} decide-box", ["decide-box", "--instance", inst, "--target", vec(target)],
           _decide_box_check(gens, target)),
        Op(f"{label} decide-reach", ["decide-reach", "--instance", inst, "--target", vec(target),
                                     "--cap", vec(cap)],
           _decide_reach_check(gens, target, cap, False)),
        Op(f"{label} decide-reach --witness",
           ["decide-reach", "--instance", inst, "--target", vec(target), "--cap", vec(cap),
            "--witness"],
           _decide_reach_check(gens, target, cap, True)),
    ]
    if lift:
        ops.append(Op(f"{label} lift", ["lift", "--instance", inst, "--target", vec(target)],
                      _lift_check(gens, target)))
    return ops


# Shortest-path length of the random positive targets, per dimension: BFS
# witnesses are shortest paths, so every seed emits the same witness steps.
RANDOM_STEPS = {2: 10, 3: 6}


def _random_decide_ops(files, rng, dim) -> list[Op]:
    """For one random system: a target at RANDOM_STEPS inside its box (all
    four decide commands), one the box keeps out of reach (decide-box), and
    one at RANDOM_STEPS inside a cap up to 3 above it (decide-reach)."""
    hi = 14 if dim == 2 else 6
    while True:
        gens = _random_gens(rng, dim, 3 if dim == 2 else 2)
        steps = RANDOM_STEPS[dim]
        yes = _target_at(rng, gens, hi, steps)
        no = _target_at(rng, gens, hi, None)
        extra = rng.randint(1, 3)
        capped = _target_at(rng, gens, hi, steps, extra)
        if yes and no and capped:
            break
    inst = files.vas(gens)
    t, _ = yes
    ops = _decide_ops(inst, f"random {dim}-VAS", gens, t, t)
    ops.append(Op(f"random {dim}-VAS unreachable decide-box",
                  ["decide-box", "--instance", inst, "--target", vec(no[0])],
                  _decide_box_check(gens, no[0])))
    for witness in (False, True):
        argv = ["decide-reach", "--instance", inst, "--target", vec(capped[0]),
                "--cap", vec(capped[1])] + (["--witness"] if witness else [])
        ops.append(Op(f"random {dim}-VAS capped decide-reach", argv,
                      _decide_reach_check(gens, capped[0], capped[1], witness)))
    return ops


def decide(seed: int, files: Files) -> Workload:
    rng = random.Random(seed)
    ex1, ex2 = files.vas(EX1), files.vas(EX2)
    batch: list[Op] = []
    batch += _decide_ops(ex1, "ex1 (21,21)", EX1, (21, 21), (21, 21))
    batch += _decide_ops(ex1, "ex1 (11,11)", EX1, (11, 11), (12, 12))
    batch += _decide_ops(ex1, "ex1 (150,150)", EX1, (150, 150), (160, 160), lift=False)
    batch += _decide_ops(ex1, "ex1 (300,299)", EX1, (300, 299), (300, 299), lift=False)
    batch += _decide_ops(ex2, "ex2 (6,4,4)", EX2, (6, 4, 4), (7, 5, 5))
    batch += _decide_ops(ex2, "ex2 (12,7,7)", EX2, (12, 7, 7), (14, 9, 9), lift=False)
    for lo in ((11, 11), (40, 40)):
        batch.append(Op(f"ex1 verify-window {lo}",
                        ["verify-window", "--instance", ex1, "--lo", vec(lo), "--size", "4,4"],
                        _window_check(EX1, lo, (4, 4))))
    for j in range(40):
        dim = 3 if j % 4 == 0 else 2
        batch += _random_decide_ops(files, rng, dim)
        if j % 4 == 1:
            gens = _random_gens(rng, 2, 3)
            lo = (rng.randint(0, 20), rng.randint(0, 20))
            batch.append(Op("random verify-window",
                            ["verify-window", "--instance", files.vas(gens), "--lo", vec(lo),
                             "--size", "3,3"],
                            _window_check(gens, lo, (3, 3))))

    target = (2000, 1999)
    require(ck.blocked_by_invariant(EX1, target, (1, -1), 3), "headline target is not blocked")

    def headline_check(res: dict) -> int:
        require(res["decision"] is False, "ex1 reaches a point with x - y ≢ 0 (mod 3)")
        require("witness" not in res, "witness for a negative answer")
        return 0

    headline = Op("ex1 decide-box (2000,1999)",
                  ["decide-box", "--instance", ex1, "--target", vec(target)], headline_check)
    return Workload(batch, headline)


# ---------------------------------------------------------------------------
# semilinear: the 1-VASS layer alone


def _semilinear_check(trans, init, q_target, extra_values, rng_seed):
    """Membership of every x up to 40 and of seeded values beyond p3 must
    agree with a (counter, state) search."""
    below = {x: ck.vass1_box_reachable(trans, init, q_target, x) for x in range(41)}
    beyond: dict[int, dict[int, bool]] = {}

    def check(res: dict) -> int:
        require(res["partial"] is False, "partial result")
        p3 = res["bounds"]["p3"]
        explicit, comps = set(res["explicit"]), res["components"]
        require(all(0 <= x <= p3 for x in explicit), "explicit value beyond p3")
        for x, ok in below.items():
            require(ck.semilinear_contains(explicit, comps, x) == ok,
                    f"membership of {x}: reference {ok}")
        if p3 not in beyond:
            rng = random.Random(rng_seed)
            xs = [p3 + rng.randint(1, 60) for _ in range(extra_values)]
            beyond[p3] = {x: ck.vass1_box_reachable(trans, init, q_target, x) for x in xs}
        for x, ok in beyond[p3].items():
            require(ck.semilinear_contains(explicit, comps, x) == ok,
                    f"membership of {x} beyond p3: reference {ok}")
        return 0

    return check


def _vass1_decide_check(trans, init, q_target, x):
    expected = ck.vass1_box_reachable(trans, init, q_target, x)

    def check(res: dict) -> int:
        require(res["decision"] is expected, f"decision {res['decision']}, reference {expected}")
        if not expected:
            return 0
        ck.check_vass1_path(trans, init, q_target, res["witness"], x)
        return len(res["witness"])

    return check


def _random_vass1(rng):
    states = tuple(f"s{i}" for i in range(rng.randint(1, 3)))
    trans = tuple(
        (rng.choice(states), rng.randint(-3, 3), rng.choice(states))
        for _ in range(rng.randint(2, 5))
    )
    return states, trans


def semilinear(seed: int, files: Files) -> Workload:
    rng = random.Random(seed)
    batch: list[Op] = []
    zstates, ztrans = zigzag()
    zig = files.vass1(zstates, "0", ztrans)
    for b in (8, 14, 32):
        batch.append(Op(f"zigzag b-lps {b}",
                        ["vass1-semilinear", "--instance", zig, "--to", "8", "--b-lps", str(b)],
                        _semilinear_check(ztrans, "0", "8", 3, seed * 1000 + b)))
    for x in (6, 40, 41, 200, 1000, 3001):
        batch.append(Op(f"zigzag decide x={x}",
                        ["vass1-decide", "--instance", zig, "--to", "8", "--x", str(x)],
                        _vass1_decide_check(ztrans, "0", "8", x)))
    for j in range(12):
        states, trans = _random_vass1(rng)
        inst = files.vass1(states, states[0], trans)
        q = rng.choice(states)
        batch.append(Op("random vass1-semilinear",
                        ["vass1-semilinear", "--instance", inst, "--to", q, "--b-lps", "6"],
                        _semilinear_check(trans, states[0], q, 2, seed * 1000 + j)))
        x = rng.randint(0, 30)
        batch.append(Op("random vass1-decide",
                        ["vass1-decide", "--instance", inst, "--to", q, "--x", str(x)],
                        _vass1_decide_check(trans, states[0], q, x)))
    # Known fault: at the default b_lps (144) the builder enumerates every
    # path before removing duplicate profiles and exhausts the 10M budget.
    batch.append(Op("zigzag default b-lps",
                    ["vass1-semilinear", "--instance", zig, "--to", "8"],
                    _semilinear_check(ztrans, "0", "8", 3, seed * 1000 + 144),
                    expect_exit=4))
    headline = Op("zigzag b-lps 64",
                  ["vass1-semilinear", "--instance", zig, "--to", "8", "--b-lps", "64"],
                  _semilinear_check(ztrans, "0", "8", 3, seed * 1000 + 64))
    return Workload(batch, headline)


WORKLOADS = {"certify": certify, "decide": decide, "semilinear": semilinear}
