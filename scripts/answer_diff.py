"""Answer identity of a parent commit against HEAD on the benchmark's operations.

    python3 scripts/answer_diff.py --parent <base-commit> --seeds 1-4

Builds, for every workload in ``BENCHMARK.json`` and every seed, the
operations of HEAD's ``perfbench/workloads.py`` (which it imports but does
not change), with their instance files in a temporary directory.  It then
runs each operation through ``boxvas.cli.run_command`` in ``git archive``
snapshots of ``--parent`` and of HEAD, one worker process per snapshot, and
compares the exit code, the envelope's ``result`` and the last stderr
line: the summary of an answer, or the message of an error (the timing and
the echoed budget are not answers).  It lists every operation whose exit
code, result or last stderr line differs, and under it whether the exit
code and the last stderr line differ, then each ``result`` key that
differs with both values, cut at 200 characters (a key that one side does
not report reads "absent").  A ``steinitz``
operation whose two permutations both pass HEAD's
``perfbench/checkers.check_steinitz`` is listed as "permutation changed,
both accepted", because any permutation in the corridor is a right answer.
Each worker also records, per operation, whether its stdout is canonical
text: ``json.dumps(json.loads(stdout), sort_keys=True)`` and a newline
after exit 0, nothing otherwise.  The comparison of ``result`` parses the
envelope, so only this check sees a change in how it is written; every
HEAD operation whose stdout is not canonical is listed.  It exits 1 if
any HEAD output is not canonical or any other operation differs, 0
otherwise.  Like ``bench_pairs.py``, it compares commits: uncommitted
edits are not run.

A fourth group, ``sweep``, runs what no workload does, the same fixed
operations whatever ``--seeds`` says (``sweep_ops``): ``threshold`` and
``witness`` at W on one-dimensional systems, ``threshold`` and ``seed``
on cones inside the quadrant or meeting it along one axis ray,
``vass1-decide`` on small random 1-VASS, the deciders and
``verify-window`` on systems whose lattice has index > 1, with targets on
and off the lattice, scans and
integer-cone ``witness`` answers on 4-generator cones and planes and on
proper cones with two generators of different lengths on each extremal ray,
a proof-case-1 ``witness`` whose evidence keeps three generator types after
the seed path,
``witness`` on evidence paths longer than one block of ``core.walk``,
``decide-reach`` and ``lift`` at target 0 under a cap over the node budget,
the lifted systems that ``lift`` prints without ``--target``, bitmap
shapes (large lifted grids, caps with a zero side, zero generators,
``verify-window --margin 0``), ``steinitz`` on up to 80 random,
collinear, repeated and zero vectors, and ``vass1-semilinear`` on the zigzag
fixture (also refused under a small budget), on small random 1-VASS, on
random 1-VASS with weights up to 9, on one state with many self-loops, on
parallel transitions and on a zero-weight cycle.  Last, every
command runs in several argv forms: ``--flag value``, ``--flag=value``,
its flags reversed, its first flag given twice, negative numbers in the
space form, and an instance file or state name that begins with ``-``.
The workers run in the sweep's instance directory, so such relative names
resolve there.

Each worker runs under a 1 GiB address-space limit, and an operation that
raises instead of returning an exit code is recorded as that exception, so
a revision that would build a witness of billions of steps fails that one
operation rather than the machine.  A witness of more than 1,000 steps is
kept and compared as its length and SHA-256 digest.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import random
import resource
import shutil
import subprocess
import sys
import tempfile
import traceback
from itertools import product
from pathlib import Path

from bench_pairs import ROOT, extract, git, parse_seeds

WORKER_MEMORY = 1 << 30  # bytes of address space per worker
LONG_WITNESS = 1000  # longer witnesses are kept as length and digest


def build_ops(perfbench: Path, workloads: list[str], seeds: list[int], work: Path) -> list[dict]:
    """Every operation of every (workload, seed), as label and argv."""
    sys.path.insert(0, str(perfbench))
    import workloads as wl

    ops = []
    for name in workloads:
        for seed in seeds:
            files_dir = work / f"{name}-{seed}"
            files_dir.mkdir()
            workload = wl.WORKLOADS[name](seed, wl.Files(str(files_dir)))
            for op in workload.batch + [workload.headline]:
                ops.append({"workload": name, "seed": seed, "label": op.label,
                            "argv": op.argv})
    return ops


def sweep_ops(perfbench: Path, work: Path) -> list[dict]:
    """The fixed operations of the ``sweep`` group.

    A random 1-D step set runs ``threshold`` as steps along the x axis, the
    form every revision accepts, next to collinear 2-D systems along other
    directions, mixed-sign lines, and systems (a, 0), (-b, 0), (-1, -1)
    that meet the quadrant along one axis ray.  On each nondegenerate one, ``witness``
    asks for the least target on the ray at or above W = 2 * norm^3, with
    the evidence a multiple of one positive step.  ``threshold`` (with the
    default M and with ``--m 0``) and ``seed`` run on cones inside the
    quadrant and on the proper cones (1, 0), (-1, -1); (1, 0), (-1, -2)
    and (0, 1), (-1, -1), which meet it along one axis ray.
    ``vass1-decide`` runs on random 1-VASS with x <= 60.

    The deciders run on random 1-, 2- and 3-D systems with one coordinate of
    every generator scaled by 2 or 3, so their lattice has index > 1.  Each
    gets targets that sum a few generators (on the lattice), targets whose
    scaled coordinate is not a multiple of the factor (off it), and one of
    each kind with no other constraint; ``decide-box`` asks for each, and
    ``decide-reach`` with and without ``--witness`` under a cap up to 3
    above it.  ``verify-window`` sweeps a 4 x 4 window on the 2-D ones.

    Last come 4-generator systems with entries up to 30 and norm at most
    64, four of each shape: proper cones holding the quadrant, half-planes
    (the line of +-u with p and q on one side) and full planes (p and q on
    opposite sides of it).  Each runs ``threshold --validate-radius 8``
    with the default M and with ``--m 0``, and a proof-case-1 ``witness``
    under ``--m 0`` whose evidence forces the integer-cone solve: the cone
    evidence holds no copy of the strictly positive p (it sums the
    extremals to at least W in both coordinates), and the plane evidence
    adds a million cancelling copies of u and -u to p.

    Two proper cones follow whose extremal rays each hold two parallel
    generators of different lengths: (-1, 2), (-2, 4), (2, -1), (4, -2),
    (10, 10) and (-1, 1), (-3, 3), (1, 0), (2, 0), (1, 1), each in this
    generator order and reversed.  Each runs ``threshold --validate-radius
    8`` with the default M and with ``--m 0``, ``seed``, and a
    proof-case-1 ``witness`` under ``--m 0`` whose evidence takes only the
    ray generators, so the least-length integer-cone solve runs.  Both
    orders give witnesses of the same length (1,361,364 steps on the first
    cone and 95,559 on the second), so the pair checks that the ray
    classification, the seed and that solve do not depend on which
    generator of a ray comes first.

    A proof-case-1 ``witness`` under ``--m 0`` follows on the cone
    (-1, 2), (2, -1), (1, 1) holding the quadrant, with evidence that keeps
    all three generator types after the two seed copies: W copies of p =
    (1, 1) beside x + 2y and 2x + y copies of the extremals.  u + v equals
    p, so the least-length rho is shorter than the evidence.

    Then ``decide-reach`` asks for target 0 on ex1 under a cap of
    100,000^2 cells, with and without ``--witness``, and ``lift`` asks for
    it under a node budget of 0 and of 1.

    ``witness --evidence path`` runs next on evidence longer than one
    64-index block of ``core.walk``: on ex1 with an out-of-range index after
    three equal blocks and after four, and with a path that leaves the
    quadrant only inside the third of five equal blocks; and on the shallow
    intersects-quadrant system (1, 2), (1, -1) at (43,496, 83,992), with
    evidence that alternates pos, pos, neg and evidence that interleaves
    the two evenly.

    Bitmap shapes no workload runs come next: ``lift --target`` on ex1 at
    (30, 30), a lifted grid of 31^4 = 923,521 cells, and on ex2 at
    (8, 6, 6), then ``lift`` without ``--target``, which prints the lifted
    system (``dim``, ``generators``, ``instance``), on ex1, ex2 and the
    one-counter steps 3, -2; ``decide-reach`` without ``--witness`` at
    every even target under caps with a zero side and on systems with a
    zero generator; and
    ``verify-window --margin 0`` on ex1 and on one of those systems.

    ``steinitz`` then reorders 80 random vectors in 2-D and 40 in 3-D
    (entries in +-5), multiples of (1, -2) and of (2, -1, 3), draws from
    three vectors, vectors about half of which are zero, and ten zero
    vectors: inputs whose windows of d + 2 vectors have rank below d + 1.

    Last of all, ``vass1-semilinear`` builds the zigzag fixture's set at
    ``--b-lps`` 8, 32, 64 and the default (which exhausts the default
    budget), and at ``--b-lps`` 32 under 452,240 budget units, exactly what
    it needs, and one fewer; then the set of 20 random 1-VASS at
    ``--b-lps`` 3 to 7; the one-state system with self-loops -1, 3, -3, 0, 3
    at ``--b-lps`` 9 (2,441,406 paths in 1,016 profiles); a two-state system
    with parallel transitions; 12 random 1-VASS with weights in +-9 at
    ``--b-lps`` 3 to 5; a zero-weight cycle p -> q -> p beside the loops
    +3 at p and -2 at q, to each state; and zigzag at the default
    ``--b-lps`` under 100,000 units, which its path enumeration alone
    exceeds, so that the refusal messages are compared too.

    The argv forms close the sweep.  Each command runs with its flags as
    ``--flag value``, as ``--flag=value``, in reverse order, and with its
    first flag given first as ``--flag=unused``, which the later value
    overrides.  Then the same command with negative numbers in the space
    form (``--target -1,21``, ``--m -5``, ``--vectors -1,0;1,1;0,2``), most
    of them refused by the engine or the flag's range, and with the
    instance ``-ex1.vas`` (a copy of ex1) or ``-two.vass1`` (states ``-p``
    and ``-q``) and those state names, which a parser that reads a value
    beginning with ``-`` as a flag rejects.
    """
    sys.path.insert(0, str(perfbench))
    import workloads as wl

    rng = random.Random(9)
    files = wl.Files(str(work))
    ops = []

    def add(label, argv):
        ops.append({"workload": "sweep", "seed": None, "label": label, "argv": argv})

    def one_dim(label, gens, axis_steps, norm, direction):
        path = files.vas(gens)
        add(f"{label} threshold", ["threshold", "--instance", path])
        pos = next((i for i, a in enumerate(axis_steps) if a > 0), None)
        if pos is None or min(direction) < 0:
            return
        w = 2 * norm**3
        k = axis_steps[pos] * -(-w // (axis_steps[pos] * max(direction)))
        coeffs = [0] * len(gens)
        coeffs[pos] = k // axis_steps[pos]
        target = ",".join(str(k * x) for x in direction)
        add(f"{label} witness", ["witness", "--instance", path, "--target", target,
                                 "--evidence", "coeffs",
                                 "--values", ",".join(map(str, coeffs))])

    for direction in [(1, 0), (0, 1), (1, 1), (1, 2), (2, 1), (1, -1)]:
        for _ in range(8):
            steps = [rng.choice([-3, -2, -1, 1, 2, 3]) for _ in range(rng.randint(1, 3))]
            gens = [tuple(a * x for x in direction) for a in steps]
            norm = 2 * sum(abs(a) * max(map(abs, direction)) for a in steps)
            one_dim(f"line {direction} {steps}", gens, steps, norm, direction)
    for a in range(1, 6):
        for b in range(1, 6):
            gens = [(a, 0), (-b, 0), (-1, -1)]
            one_dim(f"axis ({a},0),(-{b},0)", gens, [a, -b, 0], a + b, (1, 0))
    for gens in ([(1, 0), (0, 1)], [(2, 1), (1, 3)], [(0, 2), (5, 0), (1, 1)],
                 [(1, 0), (-1, -1)], [(1, 0), (-1, -2)], [(0, 1), (-1, -1)]):
        path = files.vas(gens)
        for m in ([], ["--m", "0"]):
            add(" ".join([f"quadrant {gens} threshold", *m]),
                ["threshold", "--instance", path, *m])
        add(f"quadrant {gens} seed", ["seed", "--instance", path])
    for n in range(60):
        states = [f"s{i}" for i in range(rng.randint(1, 3))]
        trans = [(rng.choice(states), rng.randint(-4, 4), rng.choice(states))
                 for _ in range(rng.randint(1, 5))]
        x = rng.randint(0, 60)
        path = files.vass1(states, states[0], trans)
        add(f"vass1 #{n} x={x}", ["vass1-decide", "--instance", path,
                                  "--to", rng.choice(states), "--x", str(x)])
    for dim, side in ((1, 40), (2, 12), (3, 5)):
        for n in range(8):
            k, factor = rng.randrange(dim), rng.choice([2, 3])
            gens = [tuple(rng.randint(-3, 3) * (factor if i == k else 1)
                          for i in range(dim))
                    for _ in range(rng.randint(1, 4))]
            path = files.vas(gens)
            label = f"index {dim}-D #{n} {gens}"
            targets = []
            for _ in range(20):
                t = [0] * dim
                for _ in range(rng.randint(1, 6)):
                    t = [a + b for a, b in zip(t, rng.choice(gens))]
                if min(t) >= 0 and max(t) <= side and any(t) and t not in targets:
                    targets.append(t)
                    if len(targets) == 2:
                        break
            for congruent in (True, False):
                t = [rng.randint(0, side) for _ in range(dim)]
                t[k] -= t[k] % factor
                if not congruent:
                    t[k] += rng.randint(1, factor - 1)
                targets.append(t)
            for t in targets:
                cap = [a + rng.randint(0, 3) for a in t]
                decide = ["--instance", path, "--target", wl.vec(t)]
                add(f"{label} decide-box {t}", ["decide-box"] + decide)
                reach = ["decide-reach"] + decide + ["--cap", wl.vec(cap)]
                add(f"{label} decide-reach {t} cap {cap}", reach)
                add(f"{label} decide-reach --witness {t} cap {cap}", reach + ["--witness"])
            if dim == 2:
                lo = [rng.randint(0, 8) for _ in range(2)]
                add(f"{label} verify-window {lo}",
                    ["verify-window", "--instance", path, "--lo", wl.vec(lo),
                     "--size", "3,3", "--margin", str(rng.randint(0, 6))])

    def pair(lo, hi):
        return (rng.randint(lo, hi), rng.randint(lo, hi))

    for shape in ("proper cone", "half-plane", "full plane"):
        made = 0
        while made < 4:
            p = pair(1, 30)
            if shape == "proper cone":
                (a, b), (c, d), q = pair(0, 30), pair(0, 30), pair(0, 30)
                gens = [(-a, b), (c, -d), p, q]
                # (-a, b) and (c, -d) bound a cone holding the quadrant
                ok = a + d > 0 and q != (0, 0) and b * c - a * d > 0
            else:
                u, q = (rng.randint(0, 30), -rng.randint(0, 30)), pair(-30, 30)
                gens = [u, (-u[0], -u[1]), p, q]
                sides = (u[0] * p[1] - u[1] * p[0]) * (u[0] * q[1] - u[1] * q[0])
                ok = u != (0, 0) and (sides > 0 if shape == "half-plane" else sides < 0)
            norm = wl.ck.vas_norm(gens)
            if not ok or norm > 64:
                continue
            made += 1
            w = 16 * norm**3  # W under --m 0
            if shape == "proper cone":
                # d*(-a, b) + b*(c, -d) = (D, 0) and c*(-a, b) + a*(c, -d) = (0, D)
                x = -(-w // (b * c - a * d)) + rng.randint(0, 9)
                counts = [(c + d) * x, (a + b) * x, 0, 1]
            else:
                counts = [10**6, 10**6, -(-w // min(p)) + rng.randint(0, 9), 0]
            target = [sum(k * g[i] for k, g in zip(counts, gens)) for i in range(2)]
            path = files.vas(gens)
            label = f"{shape} #{made} {gens}"
            for m in ([], ["--m", "0"]):
                add(" ".join([label, "threshold", *m]),
                    ["threshold", "--instance", path, *m, "--validate-radius", "8"])
            add(f"{label} witness", ["witness", "--instance", path, "--target",
                                     wl.vec(target), "--evidence", "coeffs",
                                     "--values", wl.vec(counts), "--m", "0"])

    # each extremal ray holds two generators of different lengths; the
    # evidence takes `unit` copies of each ray generator times x, no (1, 1)
    for gens, unit in (([(-1, 2), (-2, 4), (2, -1), (4, -2), (10, 10)], [1, 1, 1, 1, 0]),
                       ([(-1, 1), (-3, 3), (1, 0), (2, 0), (1, 1)], [1, 1, 3, 3, 0])):
        w = 16 * wl.ck.vas_norm(gens)**3  # W under --m 0
        total = [sum(k * g[i] for k, g in zip(unit, gens)) for i in range(2)]
        x = -(-w // min(total)) + 1
        for order, counts in ((gens, unit), (gens[::-1], unit[::-1])):
            path = files.vas(order)
            label = f"ray pairs {order}"
            for m in ([], ["--m", "0"]):
                add(" ".join([label, "threshold", *m]),
                    ["threshold", "--instance", path, *m, "--validate-radius", "8"])
            add(f"{label} seed", ["seed", "--instance", path])
            add(f"{label} witness", ["witness", "--instance", path, "--target",
                                     wl.vec(x * a for a in total), "--evidence", "coeffs",
                                     "--values", wl.vec(x * k for k in counts), "--m", "0"])

    # x + 2y copies of u and 2x + y of v sum to (3x, 3y), and 16,000 = W
    # copies of p keep p in the evidence after the 20 of two seed copies
    x, y, w = 5_339, 5_343, 16_000
    add("three-type contains-quadrant witness",
        ["witness", "--instance", files.vas([(-1, 2), (2, -1), (1, 1)]),
         "--target", wl.vec((3 * x + w, 3 * y + w)), "--evidence", "coeffs",
         "--values", wl.vec((x + 2 * y, 2 * x + y, w)), "--m", "0"])

    zero = ["decide-reach", "--instance", files.vas([(-1, 2), (2, -1), (10, 10)]),
            "--target", "0,0", "--cap", "100000,100000"]
    add("ex1 decide-reach 0 over-budget cap", zero)
    add("ex1 decide-reach --witness 0 over-budget cap", zero + ["--witness"])
    for budget in ("0", "1"):
        add(f"ex1 lift 0 budget {budget}", ["lift", "--instance", zero[2],
                                            "--target", "0,0", "--node-budget", budget])

    # evidence paths longer than one 64-index block of core.walk: a bad index
    # after repeated blocks; a dip below 0 only inside the third copy of a
    # repeated block (x is 146, 93 and 40 before the copies and ends the
    # third at -13); and valid shallow intersects-quadrant evidence that
    # alternates (pos, pos, neg), or interleaves its 1,000 neg steps evenly
    # with 42,496 pos steps
    dip = [2] * 12 + [0, 1] * 26 + ([2] + [0] * 63) * 5 + [2] * 20
    for label, evidence, target in (
        ("bad index after repeated blocks", [2] * 64 * 3 + [0, 1] * 5 + [3, -1], "10,10"),
        ("bad index after repeated alternation", [0, 1] * 32 * 4 + [2] * 7 + [-1, 5], "10,10"),
        ("dip in the third copy of a block", dip, "81,1026"),
    ):
        add(f"ex1 witness --evidence path {label}",
            ["witness", "--instance", zero[2], "--target", target,
             "--evidence", "path", "--values", wl.vec(evidence)])
    shallow = files.vas([(1, 2), (1, -1)])
    alpha, beta = 42_496, 1_000  # W = 41,496 and M = 3,456 by default
    # a largest-deficit order of the two, ties to pos: y never falls below 0
    interleaved, negs = [], 0
    for n in range(1, alpha + beta + 1):
        neg = n * beta - negs * (alpha + beta) > n * alpha - (n - 1 - negs) * (alpha + beta)
        interleaved.append(int(neg))
        negs += neg
    for label, evidence in (("periodic", [0, 0, 1] * beta + [0] * (alpha - 2 * beta)),
                            ("interleaved", interleaved)):
        add(f"shallow intersects witness --evidence path {label}",
            ["witness", "--instance", shallow, "--target",
             wl.vec((alpha + beta, 2 * alpha - beta)), "--evidence", "path",
             "--values", wl.vec(evidence)])

    ex2 = files.vas(wl.EX2)
    add("ex1 lift 30,30", ["lift", "--instance", zero[2], "--target", "30,30"])
    add("ex2 lift 8,6,6", ["lift", "--instance", ex2, "--target", "8,6,6"])
    for label, path in (("ex1", zero[2]), ("ex2", ex2),
                        ("vas 1 [3, -2]", files.vas([(3,), (-2,)]))):
        add(f"{label} lift", ["lift", "--instance", path])
    for gens, cap in (([(3, 0), (-2, 0), (1, 1)], (9, 0)),
                      ([(0, 3), (0, -2), (1, 1)], (0, 9)),
                      ([(1, 0, 2), (2, 0, -1), (0, 0, 1)], (6, 0, 5)),
                      ([(0, 0), (2, -1), (-1, 2)], (8, 8)),
                      ([(0, 0, 0), (1, 1, 0), (0, -1, 2), (-1, 0, 1)], (4, 4, 4))):
        path = files.vas(gens)
        for t in product(*(range(0, c + 1, 2) for c in cap)):
            if any(t):
                add(f"decide-reach {gens} {list(t)} cap {list(cap)}",
                    ["decide-reach", "--instance", path, "--target", wl.vec(t),
                     "--cap", wl.vec(cap)])
    for gens in (wl.EX1, [(0, 0), (2, -1), (-1, 2)]):
        add(f"verify-window {gens} margin 0",
            ["verify-window", "--instance", files.vas(gens), "--lo", "20,20",
             "--size", "4,4", "--margin", "0"])

    def steinitz(label, vectors):
        text = ";".join(wl.vec(v) for v in vectors)
        add(f"steinitz {len(vectors)} {label}", ["steinitz", f"--vectors={text}"])

    def draw(dim, bound):
        return [rng.randint(-bound, bound) for _ in range(dim)]

    for n, dim in ((80, 2), (40, 3)):
        steinitz(f"random vectors in {dim}-D", [draw(dim, 5) for _ in range(n)])
    for n, u in ((40, (1, -2)), (25, (2, -1, 3))):
        steinitz(f"multiples of {u}", [[rng.randint(-3, 3) * x for x in u] for _ in range(n)])
    for n, dim in ((40, 2), (25, 3)):
        pool = [draw(dim, 4) for _ in range(3)]
        steinitz(f"draws from 3 vectors in {dim}-D", [rng.choice(pool) for _ in range(n)])
        steinitz(f"vectors in {dim}-D, about half zero",
                 [draw(dim, 5) if rng.random() < 0.5 else [0] * dim for _ in range(n)])
    steinitz("zero vectors", [[0, 0]] * 10)

    zstates, ztrans = wl.zigzag()
    zig = files.vass1(zstates, "0", ztrans)
    semilinear = ["vass1-semilinear", "--instance", zig, "--to", "8"]
    for b in ("8", "32", "64"):
        add(f"zigzag semilinear b-lps {b}", semilinear + ["--b-lps", b])
    add("zigzag semilinear default b-lps", semilinear)
    for budget in ("452240", "452239"):
        add(f"zigzag semilinear b-lps 32 budget {budget}",
            semilinear + ["--b-lps", "32", "--node-budget", budget])
    for n in range(20):
        states = [f"s{i}" for i in range(rng.randint(1, 3))]
        trans = [(rng.choice(states), rng.randint(-3, 3), rng.choice(states))
                 for _ in range(rng.randint(1, 5))]
        b = rng.randint(3, 7)
        add(f"vass1-semilinear #{n} b-lps {b}",
            ["vass1-semilinear", "--instance", files.vass1(states, states[0], trans),
             "--to", rng.choice(states), "--b-lps", str(b)])
    loops = files.vass1(["q"], "q", [("q", w, "q") for w in (-1, 3, -3, 0, 3)])
    add("self-loops semilinear b-lps 9",
        ["vass1-semilinear", "--instance", loops, "--to", "q", "--b-lps", "9"])
    parallel = files.vass1(["p", "q"], "p", [("p", 2, "q"), ("p", -1, "q"),
                                             ("p", 3, "q"), ("q", -2, "p"),
                                             ("q", 1, "p"), ("q", -1, "q")])
    add("parallel semilinear b-lps 8",
        ["vass1-semilinear", "--instance", parallel, "--to", "q", "--b-lps", "8"])
    # weights up to 9 wrap the least-ceiling sweep's ring of norm + 1 slots
    for n in range(12):
        states = [f"s{i}" for i in range(rng.randint(1, 3))]
        trans = [(rng.choice(states), rng.randint(-9, 9), rng.choice(states))
                 for _ in range(rng.randint(2, 5))]
        b = rng.randint(3, 5)
        add(f"vass1-semilinear weights 9 #{n} b-lps {b}",
            ["vass1-semilinear", "--instance", files.vass1(states, states[0], trans),
             "--to", rng.choice(states), "--b-lps", str(b)])
    flat = files.vass1(["p", "q"], "p", [("p", 0, "q"), ("q", 0, "p"),
                                         ("p", 3, "p"), ("q", -2, "q")])
    for to in ("p", "q"):
        add(f"zero-weight cycle semilinear to {to} b-lps 6",
            ["vass1-semilinear", "--instance", flat, "--to", to, "--b-lps", "6"])
    add("zigzag semilinear default b-lps budget 100000",
        semilinear + ["--node-budget", "100000"])

    # the workers run in `work`, so these relative names, which begin with
    # "-", are files there
    shutil.copy(zero[2], work / "-ex1.vas")
    two = files.vass1(["p", "q"], "p", [("p", 2, "q"), ("q", -1, "p")])
    Path(files.vass1(["-p", "-q"], "-p", [("-p", 2, "-q"), ("-q", -1, "-p")])).rename(
        work / "-two.vass1")
    ex1, vass1 = ("--instance", zero[2]), ("--instance", two)
    dash_ex1, dash_vass1 = ("--instance", "-ex1.vas"), ("--instance", "-two.vass1")
    # per command: its flags, the same with negative numbers, and the same
    # with a file or state name that begins with "-"; --witness takes None
    forms = [
        ("decide-box", [ex1, ("--target", "21,21"), ("--node-budget", "100000")],
         [ex1, ("--target", "-1,21")], [dash_ex1, ("--target", "21,21")]),
        ("decide-reach", [ex1, ("--target", "11,11"), ("--cap", "12,12"), ("--witness", None)],
         [ex1, ("--target", "11,11"), ("--cap", "-12,12")],
         [dash_ex1, ("--target", "11,11"), ("--cap", "12,12"), ("--witness", None)]),
        ("threshold", [ex1, ("--m", "5"), ("--validate-radius", "6")],
         [ex1, ("--m", "-5")], [dash_ex1, ("--m", "5")]),
        ("seed", [ex1], None, [dash_ex1]),
        ("steinitz", [("--vectors", "1,1;-1,0;0,2")], [("--vectors", "-1,0;1,1;0,2")], None),
        ("witness", [ex1, ("--target", "702464,702464"), ("--evidence", "coeffs"),
                     ("--values", "4,4,70246")],
         [ex1, ("--target", "702464,702464"), ("--evidence", "coeffs"),
          ("--values", "-4,4,70246")],
         [dash_ex1, ("--target", "702464,702464"), ("--evidence", "coeffs"),
          ("--values", "4,4,70246")]),
        ("lift", [ex1, ("--target", "21,21"), ("--node-budget", "1000000")],
         [ex1, ("--target", "-21,21")], [dash_ex1, ("--target", "21,21")]),
        ("verify-window", [ex1, ("--lo", "11,11"), ("--size", "1,1"), ("--margin", "3")],
         [ex1, ("--lo", "-1,11"), ("--size", "1,1")],
         [dash_ex1, ("--lo", "11,11"), ("--size", "1,1")]),
        ("vass1-decide", [vass1, ("--to", "q"), ("--x", "2"), ("--from", "p")],
         [vass1, ("--to", "q"), ("--x", "-2")],
         [dash_vass1, ("--to", "-q"), ("--x", "2"), ("--from", "-p")]),
        ("vass1-semilinear", [vass1, ("--to", "q"), ("--b-lps", "6")],
         [vass1, ("--to", "q"), ("--b-lps", "-6")], [dash_vass1, ("--to", "-q")]),
    ]

    def argv(command, flags, joined=False):
        out = [command]
        for flag, value in flags:
            out += [flag] if value is None else [f"{flag}={value}"] if joined else [flag, value]
        return out

    for command, flags, negative, dashed in forms:
        add(f"argv {command}", argv(command, flags))
        add(f"argv {command} --flag=value", argv(command, flags, joined=True))
        add(f"argv {command} reversed", argv(command, flags[::-1]))
        first = flags[0][0]  # given twice, the last value wins
        add(f"argv {command} {first} twice",
            [command, f"{first}=unused", *argv(command, flags)[1:]])
        if negative:
            add(f"argv {command} negative values", argv(command, negative))
        if dashed:
            add(f"argv {command} names beginning with -", argv(command, dashed))
    return ops


def run_ops(src: str, ops_path: str, out_path: str) -> None:
    """Worker: run every operation in one process with ``src`` first on the
    path, and write (exit code, result, last stderr line, whether stdout is
    canonical) per operation, whatever the exit code."""
    sys.path.insert(0, src)
    from boxvas.cli import run_command

    resource.setrlimit(resource.RLIMIT_AS, (WORKER_MEMORY, WORKER_MEMORY))
    answers = []
    for op in json.loads(Path(ops_path).read_text(encoding="utf-8")):
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = run_command(op["argv"])
        except Exception as e:  # the answer is the exception; run the next op
            traceback.print_exc()
            answers.append([f"raised {type(e).__name__}", None, None, True])
            continue
        text = out.getvalue()
        envelope = json.loads(text) if code == 0 else None
        canonical = text == (json.dumps(envelope, sort_keys=True) + "\n" if code == 0 else "")
        result = envelope and envelope["result"]
        lines = err.getvalue().splitlines()
        last = lines[-1] if lines else None
        if result is not None and len(result.get("witness", ())) > LONG_WITNESS:
            path = json.dumps(result["witness"]).encode()
            result["witness"] = f"{len(result['witness'])} steps, sha256 " + \
                hashlib.sha256(path).hexdigest()
        answers.append([code, result, last, canonical])
    Path(out_path).write_text(json.dumps(answers), encoding="utf-8")


def steinitz_vectors(argv: list[str]) -> list[list[int]] | None:
    """The vectors a ``steinitz`` argv passes (its last ``--vectors``), or
    None for another command or vectors that do not parse."""
    if argv[0] != "steinitz":
        return None
    text = None
    for i, arg in enumerate(argv):
        if arg.startswith("--vectors="):
            text = arg.partition("=")[2]
        elif arg == "--vectors" and i + 1 < len(argv):
            text = argv[i + 1]
    if text is None:
        return None
    try:
        return [[int(x) for x in v.split(",")] for v in text.split(";")]
    except ValueError:
        return None


def both_accepted(checkers, vectors, answers) -> bool:
    """Whether every side's ``steinitz`` answer exits 0 with a permutation
    that ``check_steinitz`` accepts."""
    for code, result, *_ in answers:
        if code != 0:
            return False
        try:
            checkers.check_steinitz(vectors, result["permutation"], result["corridor_bound"])
        except checkers.CheckFailed:
            return False
    return True


ABSENT = object()  # a result key that one side does not report


def short(value) -> str:
    text = "absent" if value is ABSENT else json.dumps(value, sort_keys=True)
    return text if len(text) <= 200 else text[:200] + "..."


def differences(parent: list, head: list) -> list[str]:
    """What differs between two answers: whether the exit code and the last
    stderr line do, then each differing ``result`` key with both values."""
    (code, result, last), (head_code, head_result, head_last) = parent[:3], head[:3]
    lines = []
    for part, before, after in (("exit code", code, head_code),
                                ("last stderr line", last, head_last)):
        lines.append(f"{part}: " + ("same" if before == after
                                    else f"{short(before)} -> {short(after)}"))
    result, head_result = result or {}, head_result or {}
    for key in sorted(result.keys() | head_result.keys()):
        before, after = result.get(key, ABSENT), head_result.get(key, ABSENT)
        if before != after:
            lines.append(f"result key {key}: {short(before)} -> {short(after)}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="git revision to compare against")
    parser.add_argument("--seeds", required=True, type=parse_seeds, help="e.g. 1-4")
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    commits = {"parent": git("rev-parse", args.parent), "head": git("rev-parse", "HEAD")}
    with tempfile.TemporaryDirectory(prefix="answer-diff-") as tmp:
        tmp_path = Path(tmp)
        trees = {side: tmp_path / side for side in commits}
        for side, tree in trees.items():
            extract(commits[side], tree)
        work = tmp_path / "instances"
        work.mkdir()
        names = [w["name"] for w in bench["workloads"]]
        ops = build_ops(trees["head"] / "perfbench", names, args.seeds, work)
        sweep_dir = work / "sweep"
        sweep_dir.mkdir()
        ops += sweep_ops(trees["head"] / "perfbench", sweep_dir)
        names.append("sweep")
        ops_path = tmp_path / "ops.json"
        ops_path.write_text(json.dumps(ops), encoding="utf-8")
        procs = {
            side: subprocess.Popen([
                sys.executable, __file__, "--worker", str(tree / "src"),
                str(ops_path), str(tmp_path / f"{side}.json"),
            ], cwd=sweep_dir)
            for side, tree in trees.items()
        }
        for side, proc in procs.items():
            if proc.wait() != 0:
                print(f"the {side} worker exited {proc.returncode}", file=sys.stderr)
                return 2
        answers = {
            side: json.loads((tmp_path / f"{side}.json").read_text(encoding="utf-8"))
            for side in commits
        }

    import checkers  # HEAD's perfbench/checkers.py, on the path since build_ops

    differing = accepted = 0
    for name in names:
        mine = [i for i, op in enumerate(ops) if op["workload"] == name]
        diff = [i for i in mine if answers["parent"][i][:3] != answers["head"][i][:3]]
        differing += len(diff)
        print(f"{name}: {len(mine)} operations, {len(diff)} differ")
        for i in diff:
            op = ops[i]
            seed = "" if op["seed"] is None else f"seed {op['seed']} "
            vectors = steinitz_vectors(op["argv"])
            sides = [answers[side][i] for side in commits]
            if vectors is not None and both_accepted(checkers, vectors, sides):
                accepted += 1
                print(f"  {seed}{op['label']}: permutation changed, both accepted")
                continue
            print(f"  {seed}{op['label']}: {' '.join(op['argv'])[:200]}")
            for line in differences(*sides):
                print(f"    {line}")
    print(f"{differing} differing operations, {accepted} of them steinitz permutations "
          f"that check_steinitz accepts on both sides "
          f"({commits['parent'][:12]} -> {commits['head'][:12]})")
    loose = [i for i, answer in enumerate(answers["head"]) if not answer[3]]
    parent_loose = sum(not answer[3] for answer in answers["parent"])
    print(f"stdout not canonical json.dumps text: {len(loose)} HEAD operations, "
          f"{parent_loose} parent operations")
    for i in loose:
        print(f"  {ops[i]['workload']} {ops[i]['label']}: {' '.join(ops[i]['argv'])[:200]}")
    return 1 if differing > accepted or loose else 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["--worker"]:
        run_ops(*sys.argv[2:5])
        sys.exit(0)
    sys.exit(main())
