import dataclasses
import itertools
import json
import random
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from boxvas import (
    DeepConstant,
    EvidenceError,
    InstanceFile,
    InternalCheckError,
    OneVasThreshold,
    PreconditionError,
    ResourceBudgetError,
    ThresholdCase,
    VasSystem,
    Vass1System,
    WitnessMethod,
    compute_threshold,
    decide_box_reach,
    decide_reach_capped,
    is_box_reaching_trace,
    one_vas_threshold,
    reorder_counts,
    serialize_instance,
    synthesize_box_witness,
    vass1_min_ceilings,
    verify_window,
)
from boxvas import boxreach, core, lattice_member
from boxvas._search import bfs_grid, bitmap_has, reachable_bitmap
from boxvas.boxreach import witness_length_lower_bound
from boxvas.cli import run_command
from boxvas.geometry import (
    DEFAULT_INT_CONE_BUDGET,
    IntConeResult,
    Membership,
    QuadrantRelation,
    compute_seed,
    int_cone_member,
)

from conftest import INDEX_SIDES, index_vas, random_vas


def test_decide_box_examples(ex1):
    ok, bundle = decide_box_reach(ex1, (21, 21))
    assert ok
    assert list(bundle.path.indices) == [2, 0, 1, 2]
    assert bundle.method is WitnessMethod.BFS_SEARCH
    assert not decide_box_reach(ex1, (11, 11))[0]
    assert not decide_box_reach(ex1, (30, 0))[0]
    ok, bundle = decide_box_reach(ex1, (0, 0))
    assert ok and len(bundle.path) == 0


def test_decide_capped_examples(ex1):
    assert decide_reach_capped(ex1, (11, 11), (12, 12))[0]
    assert not decide_reach_capped(ex1, (11, 11), (11, 11))[0]
    assert decide_reach_capped(ex1, (30, 0), (30, 10))[0]
    with pytest.raises(PreconditionError):
        decide_reach_capped(ex1, (11, 11), (10, 11))


def test_capped_witness(ex1):
    ok, bundle = decide_reach_capped(ex1, (11, 11), (12, 12), want_witness=True)
    assert ok
    assert bundle.path.effect == (11, 11)
    assert all(p <= 12 for p in bundle.path.peak)


def test_budget_exhaustion(ex1):
    with pytest.raises(ResourceBudgetError):
        decide_reach_capped(ex1, (10**6, 10**6), (10**6, 10**6))


def test_zero_target_is_answered_without_a_table(ex1):
    # the cap's grid is far over the budget, but the empty path reaches 0
    cap = (100_000, 100_000)
    assert decide_reach_capped(ex1, (0, 0), cap) == (True, None)
    ok, bundle = decide_reach_capped(ex1, (0, 0), cap, want_witness=True)
    assert ok and len(bundle.path) == 0
    assert bundle.method is WitnessMethod.BFS_SEARCH
    for want_witness in (False, True):
        with pytest.raises(ResourceBudgetError):
            decide_reach_capped(ex1, (0, 1), cap, want_witness=want_witness)


def test_threshold_example1(ex1):
    report = compute_threshold(ex1)
    assert report.case_tag is ThresholdCase.CONTAINS_QUADRANT
    assert report.w == 702464
    assert "16*28^3" in report.formula_trace
    assert not report.degenerate


def test_threshold_monotone_cases():
    report = compute_threshold(VasSystem(2, ((1, 0), (0, 1))))
    assert report.case_tag is ThresholdCase.CONTAINED_IN_QUADRANT
    assert report.w == 0


def test_threshold_intersects():
    vas = VasSystem(2, ((1, 1), (2, -1)))
    report = compute_threshold(vas)
    assert report.case_tag is ThresholdCase.INTERSECTS_QUADRANT
    # norm 6, default M = 16*6^3: 16*6^4 + 4*6 + 6*M
    assert report.w == 41496
    small = compute_threshold(vas, DeepConstant(1))
    assert small.w == 16 * 6**4 + 4 * 6 + 6 * 1


def test_threshold_half_plane():
    vas = VasSystem(2, ((1, 0), (-1, 0), (0, 1)))
    report = compute_threshold(vas)
    assert report.case_tag is ThresholdCase.HALF_OR_FULL_PLANE
    assert report.w == 16 * vas.norm**3 + report.m_used.value


def test_threshold_degenerate():
    report = compute_threshold(VasSystem(2, ((0, 0),)))
    assert report.degenerate and report.w == 0
    report = compute_threshold(VasSystem(2, ((-1, -1),)))
    assert report.case_tag is ThresholdCase.DEGENERATE
    report = compute_threshold(VasSystem(2, ((-1, -2), (-3, 0))))
    assert report.degenerate
    # no nonzero nonnegative first step, so only 0 is reachable
    report = compute_threshold(VasSystem(2, ((-1, 2), (2, -1))))
    assert report.degenerate and report.w == 0
    assert report.case_tag is ThresholdCase.DEGENERATE


def _min_peaks(steps, ceiling):
    """Per value in [0, ceiling]: the least peak under which it is reachable
    by the steps, or None; the least-ceiling table of a one-state 1-VASS
    with one self-loop per step."""
    loops = Vass1System(("q",), tuple(("q", a, "q") for a in steps))
    return [None if c < 0 else c for c in vass1_min_ceilings(loops, "q", ceiling)]


def test_min_peaks_examples():
    peaks = _min_peaks([5, -2], 12)
    assert peaks[0] == 0
    assert peaks[5] == 5
    assert peaks[3] == 5  # 5 then -2
    assert peaks[1] == 5  # 5, -2, -2
    assert peaks[6] == 6  # 5, 3, 1, 6
    assert peaks[2] == 6  # 5, 3, 1, 6, 4, 2
    assert peaks[4] == 6
    with pytest.raises(PreconditionError):
        _min_peaks([1], -1)


def _brute_min_peaks(steps, ceiling):
    # explore every (value, peak so far) state with the peak within ceiling
    seen = {(0, 0)}
    stack = [(0, 0)]
    while stack:
        v, p = stack.pop()
        for a in steps:
            w = v + a
            state = (w, max(p, w))
            if w >= 0 and state[1] <= ceiling and state not in seen:
                seen.add(state)
                stack.append(state)
    best = [None] * (ceiling + 1)
    for v, p in seen:
        if best[v] is None or p < best[v]:
            best[v] = p
    return best


def test_min_peaks_differential():
    rng = random.Random(23)
    for _ in range(300):
        steps = [rng.randint(-7, 7) for _ in range(rng.randint(1, 3))]
        ceiling = rng.randint(0, 40)
        assert _min_peaks(steps, ceiling) == _brute_min_peaks(
            steps, ceiling
        ), (steps, ceiling)


def test_one_vas_threshold_examples():
    t = one_vas_threshold(VasSystem(1, ((3,), (5,))))
    assert not t.degenerate
    assert t.min_step == 3
    assert t.m1 == 2 * 8**3
    t = one_vas_threshold(VasSystem(1, ((5,), (-2,))))
    assert t.m1 == 686 and t.min_step == 5
    t = one_vas_threshold(VasSystem(1, ((-2,),)))
    assert t.degenerate and t.m1 == 0
    # one line, but its direction has mixed signs: only 0 is reachable
    t = one_vas_threshold(VasSystem(2, ((1, -1), (-2, 2))))
    assert t == OneVasThreshold(m1=0, min_step=0, degenerate=True)


def test_one_vas_threshold_is_the_greedy_bound():
    # the table one_vas_threshold once built, kept as the proof's reference:
    # every least peak within it is at most max(k, N + P - 1), so no k up
    # to norm^3 lifts M1 above 2*norm^3
    rng = random.Random(31)
    for _ in range(300):
        steps = [rng.randint(-5, 5) for _ in range(rng.randint(1, 3))]
        if max(steps) <= 0:
            steps.append(rng.randint(1, 5))
        vas = VasSystem(1, tuple((a,) for a in steps))
        norm = vas.norm
        assert one_vas_threshold(vas).m1 == 2 * norm**3, steps
        bound = max(0, -min(steps)) + max(steps) - 1
        peaks = _min_peaks([a for a in steps if a], 2 * norm**3 + 2 * norm)
        for k, peak in enumerate(peaks):
            if peak is not None:
                assert peak <= max(k, bound), (steps, k, peak)


def test_one_vas_threshold_builds_no_table():
    vas = VasSystem(1, ((17,), (-13,)))
    tracemalloc.start()
    try:
        t = one_vas_threshold(vas)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert t.m1 == 2 * 30**3
    assert peak < 64 << 10, peak


def test_one_vas_threshold_collinear_2d():
    t = one_vas_threshold(VasSystem(2, ((2, 4), (-1, -2))))
    assert not t.degenerate
    with pytest.raises(PreconditionError):
        one_vas_threshold(VasSystem(2, ((1, 0), (0, 1))))


def test_one_vas_threshold_semantics():
    # above M1, plain reachability (value representable with some path
    # staying nonnegative) coincides with peak-bounded reachability
    vas = VasSystem(1, ((5,), (-2,)))
    t = one_vas_threshold(vas)
    peaks = _min_peaks([5, -2], t.m1 + 60)
    for k in range(t.m1, t.m1 + 50):
        if peaks[k] is not None:
            assert peaks[k] <= k


def test_synthesize_requires_one_evidence(ex1):
    with pytest.raises(PreconditionError):
        synthesize_box_witness(ex1, (21, 21))
    with pytest.raises(PreconditionError):
        synthesize_box_witness(ex1, (21, 21), coefficients=[1, 1, 2], path=[2])


def test_synthesize_rejects_bad_evidence(ex1):
    with pytest.raises(PreconditionError):
        synthesize_box_witness(ex1, (21, 21), coefficients=[1, 0, 2])
    with pytest.raises(PreconditionError):
        synthesize_box_witness(ex1, (21, 21), coefficients=[-1, -1, 2])
    with pytest.raises(PreconditionError):
        synthesize_box_witness(ex1, (21, 21), path=[0, 2, 1, 2])  # leaves quadrant


def test_synthesize_below_threshold(ex1):
    with pytest.raises(PreconditionError):
        synthesize_box_witness(ex1, (5, 5), coefficients=[5, 5, 0])


def test_synthesize_one_dimensional():
    # nonnegative-direction ray with a back step, so the one-dimensional
    # threshold branch (rather than the all-nonnegative one) applies
    vas = VasSystem(2, ((2, 2), (-1, -1)))
    report = compute_threshold(vas)
    assert report.case_tag is ThresholdCase.ONE_DIMENSIONAL
    w = report.w
    t = (w + 1, w + 1)
    bundle = synthesize_box_witness(vas, t, coefficients=[(w + 2) // 2, 1])
    assert bundle.path.effect == t
    with pytest.raises(PreconditionError):
        synthesize_box_witness(vas, (5, 5), coefficients=[3, 1])


def test_synthesize_one_dimensional_far_target():
    # the 2-D box [0, t] has 67M cells, over the default budget; the ray
    # through t has 8196
    vas = VasSystem(2, ((5, 5), (-3, -3)))
    bundle = synthesize_box_witness(vas, (8195, 8195), coefficients=[1639, 0])
    assert bundle.path.indices == (0,) * 1639
    assert bundle.method is WitnessMethod.BFS_SEARCH


@pytest.mark.parametrize(
    "gens, target",
    [
        (((1, 0), (-1, -1)), (5, 0)),
        (((1, 0), (-1, -2)), (5, 0)),
        (((0, 1), (-1, -1)), (0, 5)),
    ],
)
def test_threshold_axis_contact(gens, target):
    # a proper cone touching the quadrant only along an axis ray: on it only
    # positive axis-parallel steps fire, so reach = box-reach
    vas = VasSystem(2, gens)
    report = compute_threshold(vas)
    assert not report.degenerate
    assert report.case_tag is ThresholdCase.ONE_DIMENSIONAL
    assert report.w == 0
    bundle = synthesize_box_witness(vas, target, coefficients=[5, 0])
    assert bundle.path.effect == target
    assert decide_box_reach(vas, target)[0]


@pytest.mark.parametrize("fwd, back, w", [(1, 1, 16), (5, 2, 686)])
def test_threshold_half_plane_axis_contact(fwd, back, w):
    # the half-plane y <= 0 meets the quadrant only along the x axis, where
    # the axis-parallel steps form a one-dimensional system: W is its M1
    vas = VasSystem(2, ((fwd, 0), (-back, 0), (-1, -1)))
    report = compute_threshold(vas)
    assert report.case_tag is ThresholdCase.ONE_DIMENSIONAL
    assert report.w == w == one_vas_threshold(VasSystem(1, ((fwd,), (-back,)))).m1
    for x in (w, w + 1):
        ups = -(-x // fwd)
        ups += (ups * fwd - x) % back  # back divides ups*fwd - x (fwd is odd)
        path = [0] * ups + [1] * ((ups * fwd - x) // back)
        bundle = synthesize_box_witness(vas, (x, 0), path=path)
        assert bundle.path.effect == (x, 0)
        assert decide_box_reach(vas, (x, 0))[0]
    with pytest.raises(PreconditionError):
        synthesize_box_witness(vas, (5, 0), path=[0] * (5 // fwd))
    # with steps 5, -2 the value 1 is reached by 5, -2, -2, never inside [0, 1]
    assert decide_box_reach(vas, (1, 0))[0] == (fwd == 1)


def test_synthesize_case1_budget_error(ex1, monkeypatch):
    monkeypatch.setattr(
        boxreach,
        "int_cone_member",
        lambda vas, v: IntConeResult(Membership.UNDECIDED),
    )
    w = 702464
    # every case-1 rho comes from the integer-cone solve, so its budget
    # error surfaces
    with pytest.raises(ResourceBudgetError) as exc:
        synthesize_box_witness(ex1, (w, w), coefficients=[702464, 702464, 0])
    assert exc.value.budget == DEFAULT_INT_CONE_BUDGET


def test_threshold_unclassified_shape_raises(monkeypatch):
    # (1,1),(1,-1) meets the open quadrant; mislabelled OTHER it must not
    # reach the axis-ray fall-through silently
    real = boxreach.cone_from_generators

    def mislabelled(vas):
        return dataclasses.replace(
            real(vas), quadrant_relation=QuadrantRelation.OTHER
        )

    monkeypatch.setattr(boxreach, "cone_from_generators", mislabelled)
    with pytest.raises(InternalCheckError):
        compute_threshold(VasSystem(2, ((1, 1), (1, -1))))


def test_synthesize_case1(ex1):
    w = 702464
    # a*(-1,2) + a*(2,-1) + c*(10,10) = (a+10c, a+10c)
    bundle = synthesize_box_witness(ex1, (w, w), coefficients=[4, 4, 70246])
    assert bundle.method is WitnessMethod.PROOF_CASE_1
    assert bundle.path.effect == (w, w)
    assert is_box_reaching_trace(ex1, bundle.path.indices, (w, w))


def test_synthesize_contained_in_quadrant():
    # every generator is nonnegative, so W = 0 and any order of the
    # evidence multiset box-reaches the target
    gens = ((1, 0), (0, 1), (2, 3))
    target = (5, 6)
    bundle = synthesize_box_witness(VasSystem(2, gens), target, coefficients=[1, 0, 2])
    assert bundle.method is WitnessMethod.PROOF_CASE_1
    assert sorted(bundle.path.indices) == [0, 2, 2]
    point = (0, 0)
    for i in bundle.path.indices:
        point = (point[0] + gens[i][0], point[1] + gens[i][1])
        assert 0 <= point[0] <= target[0] and 0 <= point[1] <= target[1]
    assert point == target


@pytest.mark.parametrize(
    "evidence",
    [
        {"coefficients": [4, 4, 70246]},
        {"path": [2] * 70246 + [0, 1] * 4},
    ],
    ids=["coefficients", "path"],
)
def test_synthesize_case1_from_evidence(ex1, evidence):
    # the least-length solve for r is [4, 4, 70134], the evidence less two
    # copies of theta, so the witness is as long as the evidence
    w = 702464
    bundle = synthesize_box_witness(ex1, (w, w), **evidence)
    assert bundle.method is WitnessMethod.PROOF_CASE_1
    theta = list(compute_seed(ex1).pos_witness_indices())
    rho = reorder_counts(ex1, [4, 4, 70134])
    assert list(bundle.path.indices) == theta + rho + theta
    assert len(bundle.path) == 70254
    assert is_box_reaching_trace(ex1, bundle.path.indices, (w, w))
    assert witness_length_lower_bound(ex1, (w, w)) == 70247


def test_synthesize_case1_fallback_reorders_int_cone_solution():
    # (-1,1),(1,0) bound a cone holding the quadrant; theta is 12 copies of
    # (1,1), and the evidence holds only one, so rho comes from a fresh solve
    # among the two generators the evidence has left: w-23 and 2w-46 copies,
    # where a solve among all three would take w-23 copies of (1,1)
    vas = VasSystem(2, ((-1, 1), (1, 0), (1, 1)))
    m = DeepConstant(0, "configured")
    report = compute_threshold(vas, m)
    assert report.case_tag is ThresholdCase.CONTAINS_QUADRANT
    w = report.w
    t = (w + 1, w + 1)
    bundle = synthesize_box_witness(vas, t, coefficients=[w, 2 * w, 1], m=m)
    seed = compute_seed(vas)
    theta = list(seed.pos_witness_indices())
    r = (t[0] - 2 * seed.s_pos[0], t[1] - 2 * seed.s_pos[1])
    spare = VasSystem(2, ((-1, 1), (1, 0), (0, 0)))
    coefficients = int_cone_member(spare, r).coefficients
    assert coefficients == (w - 23, 2 * w - 46, 0)
    assert list(bundle.path.indices) == theta + reorder_counts(vas, coefficients) + theta


def test_synthesize_case1_solve_falls_back_to_every_generator():
    # the evidence keeps copies of (-2,2) and (1,0) only, but r lies off
    # their lattice (index 2), so rho needs (1,1) and comes from a solve
    # among all three generators
    vas = VasSystem(2, ((-2, 2), (1, 0), (1, 1)))
    m = DeepConstant(0, "configured")
    t = (8235, 8251)
    bundle = synthesize_box_witness(vas, t, coefficients=[4122, 16472, 7], m=m)
    seed = compute_seed(vas)
    theta = list(seed.pos_witness_indices())
    r = (t[0] - 2 * seed.s_pos[0], t[1] - 2 * seed.s_pos[1])
    spare = VasSystem(2, ((-2, 2), (1, 0), (0, 0)))
    assert int_cone_member(spare, r).status is Membership.NON_MEMBER
    rho = reorder_counts(vas, int_cone_member(vas, r).coefficients)
    assert list(bundle.path.indices) == theta + rho + theta


def _random_case1_system(rng):
    """A small contains-quadrant, half-plane or intersects-quadrant 2-VAS with
    the strictly positive generator p last, and evidence counts for a target
    at or above W under M = 0 (deep, for the intersects case).  Half of the
    contains-quadrant evidence holds too few copies of p to cover two copies
    of theta."""
    m = DeepConstant(0, "configured")
    kind = rng.choice(["contains", "half-plane", "intersects"])
    if kind == "contains":
        while True:
            a, b = rng.randint(0, 2), rng.randint(1, 2)
            c, d = rng.randint(1, 2), rng.randint(0, 2)
            if a + d > 0 and b * c - a * d > 0:
                break
        p = (rng.randint(1, 2), rng.randint(1, 2))
        vas = VasSystem(2, ((-a, b), (c, -d), p))
        w = compute_threshold(vas, m).w
        # d*u + b*v = (D, 0) and c*u + a*v = (0, D)
        det = b * c - a * d
        x, y = (-(-w // det) + rng.randint(0, 50) for _ in range(2))
        few = rng.random() < 0.5
        k = rng.randint(0, 4 * vas.norm - 1) if few else rng.randint(0, w)
        counts = [d * x + c * y, b * x + a * y, k]
    elif kind == "half-plane":
        u = rng.choice([(1, 0), (0, -1), (1, -1)])
        p = (rng.randint(1, 2), 1)
        vas = VasSystem(2, (u, (-u[0], -u[1]), p))
        w = compute_threshold(vas, m).w
        counts = [rng.randint(0, 300), rng.randint(0, 300), 0]
    else:
        neg = rng.choice([(0, -1), (1, -1)])
        if rng.random() < 0.5:
            neg = (neg[1], neg[0])
        p = (1, 1)
        vas = VasSystem(2, (neg, p))
        w = compute_threshold(vas, m).w
        counts = [rng.randint(1, 50), 0]
    # top up with p until both coordinates reach W
    t = [sum(c * g[k] for c, g in zip(counts, vas.generators)) for k in range(2)]
    counts[-1] += max(0, *(-(-(w - t[k]) // p[k]) for k in range(2)))
    t = tuple(sum(c * g[k] for c, g in zip(counts, vas.generators)) for k in range(2))
    return vas, m, counts, t


def test_synthesize_case1_evidence_differential():
    # rho is a least-length solve among the generators the evidence keeps
    # after theta, or among all of them when r is outside that cone; the
    # evidence less theta is one solution there whenever it stays
    # nonnegative, so the witness is then never longer than the evidence,
    # and often shorter
    rng = random.Random(7)
    shorter = 0
    for _ in range(200):
        vas, m, counts, t = _random_case1_system(rng)
        bundle = synthesize_box_witness(vas, t, coefficients=counts, m=m)
        assert bundle.method is WitnessMethod.PROOF_CASE_1
        assert bundle.path.box_reaches(t)
        seed = compute_seed(vas)
        theta = seed.pos_witness_indices()
        rest = [c - 2 * theta.count(i) for i, c in enumerate(counts)]
        r = tuple(t[k] - 2 * seed.s_pos[k] for k in range(2))
        spare = VasSystem(2, tuple(
            g if c > 0 else (0, 0) for g, c in zip(vas.generators, rest)
        ))
        solve = int_cone_member(spare, r)
        if solve.status is Membership.NON_MEMBER:
            solve = int_cone_member(vas, r)
        assert len(bundle.path) == 2 * len(theta) + sum(solve.coefficients)
        if min(rest) >= 0:
            assert len(bundle.path) <= sum(counts)
            shorter += len(bundle.path) < sum(counts)
        assert witness_length_lower_bound(vas, t) <= len(bundle.path)
    assert shorter >= 20, shorter


def test_synthesize_case1_cancelling_evidence_is_capped():
    # u and -u cancel, so the coefficients say nothing about the length of
    # a witness for (W, W); the least-length solve drops the 2*10**9
    # cancelling steps
    vas = VasSystem(2, ((1, 0), (-1, 0), (1, 1)))
    report = compute_threshold(vas)
    assert report.case_tag is ThresholdCase.HALF_OR_FULL_PLANE
    w = report.w
    bundle = synthesize_box_witness(
        vas, (w, w), coefficients=[10**9, 10**9, w]
    )
    assert len(bundle.path) == witness_length_lower_bound(vas, (w, w)) == w
    assert bundle.path.box_reaches((w, w))


def test_each_witness_walked_once(ex1, tmp_path, monkeypatch, capsys):
    walked = []
    kernel = core.walk

    def counting_walk(vas, path):
        walked.append(tuple(path))
        return kernel(vas, path)

    monkeypatch.setattr(core, "walk", counting_walk)
    _, bundle = decide_box_reach(ex1, (21, 21))
    assert walked.count(bundle.path.indices) == 1

    w = 702464
    walked.clear()
    bundle = synthesize_box_witness(ex1, (w, w), coefficients=[4, 4, 70246])
    assert walked.count(bundle.path.indices) == 1

    instance = tmp_path / "ex1.vas"
    instance.write_text(serialize_instance(InstanceFile(kind="vas", vas=ex1)))
    walked.clear()
    argv = ["witness", "--instance", str(instance), "--target", f"{w},{w}",
            "--evidence", "coeffs", "--values", "4,4,70246"]
    assert run_command(argv) == 0
    witness = tuple(json.loads(capsys.readouterr().out)["result"]["witness"])
    assert walked.count(witness) == 1

    walked.clear()
    path = ",".join(map(str, [2] * 70246 + [0, 1] * 4))
    argv[-3:] = ["path", "--values", path]
    assert run_command(argv) == 0
    witness = tuple(json.loads(capsys.readouterr().out)["result"]["witness"])
    assert walked.count(witness) == 1


def test_synthesize_case2_shallow_needs_path():
    vas = VasSystem(2, ((1, 1), (0, -1)))
    w = compute_threshold(vas).w
    assert w == 8208
    t = (w + 92, w + 92)
    with pytest.raises(EvidenceError):
        synthesize_box_witness(vas, t, coefficients=[w + 92, 0])
    bundle = synthesize_box_witness(vas, t, path=[0] * (w + 92))
    assert bundle.method is WitnessMethod.PROOF_CASE_2
    assert bundle.path.effect == t


def test_synthesize_case2_deep_goes_case1():
    vas = VasSystem(2, ((1, 1), (0, -1)))
    w = compute_threshold(vas).w
    t = (2 * (w + 92), w + 92)  # deep in the cone interior
    bundle = synthesize_box_witness(
        vas, t, coefficients=[2 * (w + 92), w + 92]
    )
    assert bundle.method is WitnessMethod.PROOF_CASE_1
    assert bundle.path.effect == t


def test_verify_window_discrepancy(ex1):
    report = verify_window(ex1, (11, 11), (0, 0))
    assert (11, 11) in report.violations
    assert report.cap_margin == 56
    for v in report.violations:
        assert not decide_box_reach(ex1, v)[0]


def test_verify_window_monotone_clean():
    vas = VasSystem(2, ((1, 0), (0, 1)))
    report = verify_window(vas, (0, 0), (5, 5))
    assert report.violations == ()
    assert report.skipped == ()
    assert report.checked == 36


def test_verify_window_skips_over_budget(ex1):
    report = verify_window(ex1, (2000, 2000), (1, 0), node_budget=10_000)
    assert report.checked == 0
    assert len(report.skipped) == 2


def index_cases(seed):
    """(system, cap, targets) for systems whose lattice has index > 1 in 1-,
    2- and 3-D, with every target of [0, cap] in the box side for its
    dimension, so both lattice and off-lattice targets occur."""
    rng = random.Random(seed)
    for dim, side in INDEX_SIDES.items():
        for _ in range(4):
            vas = index_vas(rng, dim)
            cap = (side,) * dim
            yield vas, cap, list(itertools.product(range(side + 1), repeat=dim))


def test_off_lattice_refutation_is_sound():
    refuted = 0
    for vas, cap, points in index_cases(10):
        bitmap = reachable_bitmap(vas.generators, cap)
        for t in points:
            reached = bitmap_has(bitmap, cap, t)
            for witness in (False, True):
                ok, bundle = decide_reach_capped(vas, t, cap, want_witness=witness)
                assert ok == reached, (vas, t, witness)
                assert (bundle is not None) == (ok and witness)
            if any(t) and not lattice_member(vas, t):
                refuted += 1
    assert refuted


def test_off_lattice_targets_allocate_no_table(ex1, monkeypatch):
    def no_search(*args, **kwargs):
        raise AssertionError("searched an off-lattice target")

    monkeypatch.setattr(boxreach, "bfs_grid", no_search)
    monkeypatch.setattr(boxreach, "reachable_bitmap", no_search)
    tried = 0
    for vas, cap, points in index_cases(11):
        for t in points:
            if any(t) and not lattice_member(vas, t):
                assert decide_box_reach(vas, t) == (False, None)
                for witness in (False, True):
                    got = decide_reach_capped(vas, t, cap, want_witness=witness)
                    assert got == (False, None)
                tried += 1
    assert tried
    assert decide_box_reach(ex1, (2000, 1999)) == (False, None)
    report = verify_window(ex1, (2000, 1999), (0, 0))
    assert (report.checked, report.violations) == (1, ())


def test_off_lattice_target_keeps_budget_refusal(ex1):
    # (2000, 1999) is off ex1's lattice, yet each engine's table is refused
    # first, with the message the engine itself gives
    cap = (2000, 1999)
    with pytest.raises(ResourceBudgetError) as bfs:
        bfs_grid(ex1.generators, cap, (1999, 1999), 10)
    with pytest.raises(ResourceBudgetError) as bitmap:
        reachable_bitmap(ex1.generators, cap, 10)
    for witness, engine in ((True, bfs), (False, bitmap)):
        with pytest.raises(ResourceBudgetError) as off:
            decide_reach_capped(ex1, cap, cap, 10, witness)
        assert str(off.value) == str(engine.value)


targets = st.tuples(st.integers(0, 12), st.integers(0, 12))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**9), targets)
def test_deciders_agree(seed, t):
    vas = random_vas(random.Random(seed), 2, 3, 4)
    direct = decide_box_reach(vas, t)[0]
    capped = decide_reach_capped(vas, t, t)[0]
    assert direct == capped


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**9), targets, st.integers(0, 6))
def test_cap_monotone(seed, t, extra):
    vas = random_vas(random.Random(seed), 2, 3, 4)
    tight = decide_reach_capped(vas, t, t)[0]
    loose = decide_reach_capped(vas, t, (t[0] + extra, t[1] + extra))[0]
    if tight:
        assert loose
