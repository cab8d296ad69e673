import random
import tracemalloc
from array import array
from bisect import bisect_left
from collections import deque

import pytest
from hypothesis import given, settings, strategies as st

from boxvas import (
    PreconditionError,
    ResourceBudgetError,
    SemilinearSet,
    Vass1Bounds,
    Vass1System,
    build_semilinear,
    default_b_lps,
    semilinear_member,
    vass1_box_decide,
    vass1_min_ceilings,
)
from boxvas import vass1
from boxvas.vass1 import _box_values, _combination_units, _overshoot

from conftest import zigzag_vass

LOOPS = Vass1System(("a",), (("a", 2, "a"), ("a", -1, "a")))


def simulate(sys, q0, path, bound=None):
    """(final value, final state) of a run from (0, q0); asserts the box."""
    v, q = 0, q0
    for i in path:
        src, w, dst = sys.transitions[i]
        assert src == q
        v += w
        q = dst
        assert v >= 0
        if bound is not None:
            assert v <= bound
    return v, q


def test_system_validation():
    with pytest.raises(ValueError):
        Vass1System(("a", "a"), ())
    with pytest.raises(ValueError):
        Vass1System(("a",), (("a", 1, "b"),))
    sys = zigzag_vass()
    assert sys.norm == 3
    with pytest.raises(PreconditionError):
        sys.check_state("9")
    with pytest.raises(PreconditionError):
        sys.walk([0, 0])  # "0" -> "7" then expects source "7"


def test_walk():
    # the three weight sequences [], [2, -3, 4] and [-1] as self-loop paths
    sys = Vass1System(("a",), tuple(("a", w, "a") for w in (2, -3, 4, -1)))
    assert sys.walk([]) == (None, None, 0, 0, 0)
    assert sys.walk([0, 1, 2]) == ("a", "a", 3, 1, 3)
    assert sys.walk([3]) == ("a", "a", -1, 1, 0)
    two = Vass1System(("p", "q"), (("p", 2, "q"), ("q", -1, "p")))
    assert two.walk([0, 1, 0]) == ("p", "q", 3, 0, 3)
    for bad in ([-1], [0, -2], [2], [0, 1, 5]):  # negative or out of range
        with pytest.raises(PreconditionError, match="out of range"):
            two.walk(bad)
    with pytest.raises(PreconditionError, match="does not start"):
        two.walk([0, 0])


def test_box_decide_zigzag():
    sys = zigzag_vass()
    ok, path = vass1_box_decide(sys, "0", "8", 6)
    assert ok
    assert simulate(sys, "0", path, bound=6) == (6, "8")
    ok, _ = vass1_box_decide(sys, "0", "8", 1)
    assert not ok
    assert vass1_box_decide(sys, "0", "0", 0) == (True, [])


def test_box_decide_budget():
    sys = zigzag_vass()
    with pytest.raises(ResourceBudgetError):
        vass1_box_decide(sys, "0", "8", 10**6, node_budget=100)


def test_box_decide_budget_precheck_allocates_nothing():
    sys = zigzag_vass()  # 9 states: the table would hold 900,009 cells
    tracemalloc.start()
    try:
        with pytest.raises(ResourceBudgetError):
            vass1_box_decide(sys, "0", "8", 100_000, node_budget=1000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024


def reference_box_decide(sys, q0, q_target, x_target):
    """The dict/tuple BFS over [0, x_target] x Q: FIFO, transitions tried in
    index order, parents kept per configuration."""
    start, goal = (0, q0), (x_target, q_target)
    if start == goal:
        return True, []
    parent = {}
    seen = {start}
    frontier = deque([start])
    while frontier:
        x, q = frontier.popleft()
        for i, (src, w, dst) in enumerate(sys.transitions):
            nxt = (x + w, dst)
            if src != q or nxt in seen or not 0 <= nxt[0] <= x_target:
                continue
            seen.add(nxt)
            parent[nxt] = ((x, q), i)
            if nxt == goal:
                path = []
                while nxt != start:
                    nxt, i = parent[nxt]
                    path.append(i)
                return True, path[::-1]
            frontier.append(nxt)
    return False, None


def reference_min_ceilings(sys, q0, ceiling):
    """The closure with one dict per counter value: minceil[v][q] is the
    least ceiling under which (v, q) is reachable, absent when none is."""
    minceil = [{} for _ in range(ceiling + 1)]
    minceil[0][q0] = 0

    def close(stack, c):
        while stack:
            v, q = stack.pop()
            for src, w, dst in sys.transitions:
                if src == q and 0 <= v + w <= c and dst not in minceil[v + w]:
                    minceil[v + w][dst] = c
                    stack.append((v + w, dst))

    close([(0, q0)], 0)
    for c in range(1, ceiling + 1):
        seeds = []
        for q in sys.states:
            if q not in minceil[c] and any(
                dst == q and 0 < w <= c and src in minceil[c - w]
                for src, w, dst in sys.transitions
            ):
                minceil[c][q] = c
                seeds.append((c, q))
        close(seeds, c)
    return minceil


def test_flat_tables_match_dict_references():
    rng = random.Random(606)
    for _ in range(1000):
        states = tuple(f"s{i}" for i in range(rng.randint(1, 4)))
        trans = tuple(
            (rng.choice(states), rng.randint(-4, 4), rng.choice(states))
            for _ in range(rng.randint(1, 6))
        )
        sys = Vass1System(states, trans)
        q0, q = rng.choice(states), rng.choice(states)
        x = rng.randint(0, 40)
        case = (trans, q0, q, x)
        expected = reference_box_decide(sys, q0, q, x)
        assert vass1_box_decide(sys, q0, q, x) == expected, case
        ref = reference_min_ceilings(sys, q0, x)
        flat = [ref[v].get(s, -1) for v in range(x + 1) for s in states]
        assert list(vass1_min_ceilings(sys, q0, x)) == flat, case
        # closing-suffix effects: one reversed table from q against one
        # table per start state
        back = vass1_min_ceilings(sys.reversed(), q, x)
        for s, name in enumerate(states):
            per_state = reference_min_ceilings(sys, name, x)
            direct = [e for e in range(x + 1) if per_state[e].get(q) == e]
            assert _box_values(back, len(states), s) == direct, (case, name)


def test_one_dim_tables_stay_small():
    # steps 17, -13 at the ceiling one_vas_threshold once used for them
    loops = Vass1System(("q",), (("q", 17, "q"), ("q", -13, "q")))
    tracemalloc.start()
    try:
        vass1_min_ceilings(loops, "q", 54_060)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak


def reference_level_closure(sys, q0, ceiling):
    """The per-level closure the bucket sweep replaced, on the flat table:
    level c seeds every unmarked cell of row c that a positive transition of
    weight <= c enters from a marked cell, then closes from the seeds inside
    [0, c] x Q."""
    nq = len(sys.states)
    offsets = vass1._offsets(sys)
    moves = [[offsets[i] for i, _, _ in out] for out in sys.out]
    rises = [[] for _ in range(nq)]  # per state: positive (weight, step) in
    for out in sys.out:
        for i, w, d in out:
            if w > 0:
                rises[d].append((w, offsets[i]))
    minceil = array("q", [-1]) * ((ceiling + 1) * nq)

    def close(stack, c):
        end = (c + 1) * nq
        while stack:
            p = stack.pop()
            for off in moves[p % nq]:
                q = p + off
                if 0 <= q < end and minceil[q] < 0:
                    minceil[q] = c
                    stack.append(q)

    start = sys.index[q0]
    minceil[start] = 0
    close([start], 0)
    for c in range(1, ceiling + 1):
        seeds = []
        for cell in range(c * nq, (c + 1) * nq):
            if minceil[cell] < 0 and any(
                w <= c and minceil[cell - off] >= 0 for w, off in rises[cell % nq]
            ):
                minceil[cell] = c
                seeds.append(cell)
        close(seeds, c)
    return minceil


def test_min_ceilings_match_level_closure_random():
    # weights up to 9 make the ring of norm + 1 slots wrap many times below
    # ceilings up to 300
    rng = random.Random(2727)
    wrapped = 0
    for _ in range(1000):
        states = tuple(f"s{i}" for i in range(rng.randint(1, 4)))
        trans = tuple(
            (rng.choice(states), rng.randint(-9, 9), rng.choice(states))
            for _ in range(rng.randint(1, 6))
        )
        sys = Vass1System(states, trans)
        q0, c = rng.choice(states), rng.randint(0, 300)
        expected = reference_level_closure(sys, q0, c)
        assert vass1_min_ceilings(sys, q0, c) == expected, (trans, q0, c)
        wrapped += max(expected) > sys.norm + 1
    assert wrapped >= 300, wrapped


def test_min_ceilings_match_level_closure_edge_shapes():
    systems = [
        # a zero-weight cycle p -> q -> p beside rising and falling loops
        Vass1System(
            ("p", "q"),
            (("p", 0, "q"), ("q", 0, "p"), ("p", 3, "p"), ("q", -2, "q")),
        ),
        # zero-weight self-loops only: nothing rises off 0
        Vass1System(("a",), (("a", 0, "a"),)),
        # transitions heavier than the small ceilings, next to light ones
        Vass1System(
            ("a", "b"),
            (("a", 9, "b"), ("b", -9, "a"), ("a", 2, "a"), ("b", -1, "b"),
             ("a", -7, "b"), ("b", 8, "b")),
        ),
        Vass1System(("a",), (("a", 9, "a"), ("a", -4, "a"))),
        Vass1System(("a", "b"), ()),  # no transitions: norm 0, one slot
    ]
    for sys in systems:
        for q0 in sys.states:
            for c in range(301):
                expected = reference_level_closure(sys, q0, c)
                assert vass1_min_ceilings(sys, q0, c) == expected, (sys, q0, c)


def test_min_ceilings_match_level_closure_zigzag():
    # the explicit sweeps of the builds at b_lps 8, 14 and 32
    sys = zigzag_vass()
    for b_lps, p3 in ((8, 948), (14, 2172), (32, 9732)):
        assert build_semilinear(sys, "0", "8", b_lps=b_lps)[1].p3 == p3
        expected = reference_level_closure(sys, "0", p3)
        assert vass1_min_ceilings(sys, "0", p3) == expected, b_lps


def reference_maxover(sys, q0, b_lps):
    """The overshoot bound as the loop over every (beta, gamma) pair: beta
    any power of a positive simple cycle through a state that an alpha part
    (a drop-0 path from q0) ends at, gamma any part from that state."""
    budget = vass1._Budget(10**9)
    gammas = [vass1._profiles(sys, s, b_lps, budget) for s in range(len(sys.states))]
    alpha_ends = {end for end, _, drop, _ in gammas[sys.index[q0]] if drop == 0}
    maxover = 0
    for s in alpha_ends:
        betas = set()
        for cyc, eff, _, peak in vass1._simple_cycles_from(sys, s, budget):
            if eff > 0:
                for reps in range(1, b_lps // len(cyc) + 1):
                    betas.add((reps * eff, peak + (reps - 1) * eff))
        for eff_b, peak_b in betas:
            for _, eff_g, _, peak_g in gammas[s]:
                maxover = max(maxover, _overshoot(eff_b, peak_b, eff_g, peak_g))
    return maxover


def test_maxover_matches_pairwise_maximum():
    sys = zigzag_vass()
    for b_lps in range(4, 65):
        _, bounds = build_semilinear(sys, "0", "8", b_lps=b_lps)
        assert bounds.maxover == reference_maxover(sys, "0", b_lps), b_lps
    rng = random.Random(2828)
    answered = positive = 0
    for _ in range(300):
        states = tuple(f"s{i}" for i in range(rng.randint(1, 3)))
        trans = tuple(
            (rng.choice(states), rng.randint(-4, 4), rng.choice(states))
            for _ in range(rng.randint(1, 5))
        )
        sys = Vass1System(states, trans)
        b_lps = rng.randint(3, 8)
        try:
            _, bounds = build_semilinear(
                sys, states[0], rng.choice(states), b_lps=b_lps, node_budget=200_000
            )
        except ResourceBudgetError:
            continue
        assert bounds.maxover == reference_maxover(sys, states[0], b_lps), trans
        answered += 1
        positive += bounds.maxover > 0
    assert answered >= 250 and positive >= 80, (answered, positive)


def test_overshoot_matches_direct_simulation():
    rng = random.Random(17)
    for _ in range(200):
        beta = tuple(rng.choice([0, 1]) for _ in range(rng.randint(1, 4)))
        gamma = tuple(rng.choice([0, 1]) for _ in range(rng.randint(0, 4)))
        _, _, eff_b, _, peak_b = LOOPS.walk(beta)
        _, _, eff_g, _, peak_g = LOOPS.walk(gamma)
        if eff_b <= 0:
            continue
        over = _overshoot(eff_b, peak_b, eff_g, peak_g)
        # overshoot = peak - effect of beta^k gamma for any k >= 1
        for k in (1, 2, 5):
            _, _, eff, _, peak = LOOPS.walk(beta * k + gamma)
            assert peak - eff == over, (beta, gamma, k)


def test_min_ceilings_single_state():
    sys = Vass1System(("a",), (("a", 5, "a"), ("a", -2, "a")))
    mc = vass1_min_ceilings(sys, "a", 10)  # one state: cell v is value v
    assert len(mc) == 11
    assert mc[0] == 0
    assert mc[5] == 5
    assert mc[6] == 6  # 5, 3, 1, 6
    assert mc[3] == 5
    assert mc[1] == 5
    assert mc[2] in (-1, 6)
    assert mc[4] in (-1, 6)


def test_semilinear_member():
    s = SemilinearSet(explicit=frozenset({0}), components=((1, 3),))
    assert semilinear_member(s, 0)
    assert semilinear_member(s, 1)
    assert semilinear_member(s, 7)
    assert not semilinear_member(s, 2)
    empty = SemilinearSet(explicit=frozenset(), components=())
    assert not semilinear_member(empty, 0)
    with pytest.raises(PreconditionError):
        semilinear_member(s, -1)


def test_semilinear_member_multi_period():
    # several components, each with its own period
    rng = random.Random(31)
    for _ in range(200):
        comps = tuple(
            (rng.randint(0, 10), rng.randint(1, 8)) for _ in range(rng.randint(1, 3))
        )
        s = SemilinearSet(explicit=frozenset(), components=comps)
        # brute force: every base plus every multiple of its period up to the limit
        limit = 60
        members = {b + k * p for b, p in comps for k in range(limit // p + 1)}
        for n in range(limit + 1):
            assert semilinear_member(s, n) == (n in members), (comps, n)


def test_bounds_compute():
    sys = zigzag_vass()
    b = Vass1Bounds.compute(sys, b_lps=4, maxover=2)
    assert b.theta_len_bound == 3 * 2 * 9
    assert b.p3 == 3 * (16 * 3 + 8 + 2 * b.theta_len_bound)
    assert default_b_lps(sys) == 9 * 4 * 4


def test_build_semilinear_single_loop():
    sys = Vass1System(("a",), (("a", 3, "a"),))
    s, bounds = build_semilinear(sys, "a", "a")
    assert not s.partial
    for x in range(0, 100):
        assert semilinear_member(s, x) == (x % 3 == 0)
    assert bounds.p3 >= 0


def test_build_semilinear_differential():
    sys = Vass1System(("a",), (("a", 5, "a"), ("a", -2, "a")))
    s, _ = build_semilinear(sys, "a", "a", b_lps=8)
    for x in range(0, 61):
        direct = vass1_box_decide(sys, "a", "a", x)[0]
        assert semilinear_member(s, x) == direct, x


def test_build_semilinear_two_states():
    sys = Vass1System(
        ("p", "q"),
        (("p", 2, "q"), ("q", -1, "p"), ("q", 0, "q")),
    )
    s, _ = build_semilinear(sys, "p", "q", b_lps=6)
    for x in range(0, 41):
        direct = vass1_box_decide(sys, "p", "q", x)[0]
        assert semilinear_member(s, x) == direct, x


def test_build_semilinear_budget():
    sys = zigzag_vass()
    with pytest.raises(ResourceBudgetError) as exc:
        build_semilinear(sys, "0", "8", node_budget=50)
    assert exc.value.partial_result.partial
    # the enumeration fits in 825 units, the explicit sweep table does not
    with pytest.raises(ResourceBudgetError, match="explicit sweep") as exc:
        build_semilinear(sys, "0", "8", b_lps=6, node_budget=825)
    assert exc.value.partial_result.partial


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**9))
def test_build_semilinear_fuzz(seed):
    rng = random.Random(seed)
    nstates = rng.randint(1, 2)
    states = tuple(f"s{i}" for i in range(nstates))
    trans = tuple(
        (rng.choice(states), rng.randint(-3, 3), rng.choice(states))
        for _ in range(rng.randint(1, 4))
    )
    sys = Vass1System(states, trans)
    try:
        s, _ = build_semilinear(sys, states[0], states[-1], b_lps=6)
    except ResourceBudgetError:
        return
    for x in range(0, 50):
        direct = vass1_box_decide(sys, states[0], states[-1], x)[0]
        assert semilinear_member(s, x) == direct, (trans, x)


def test_build_semilinear_budget_boundary():
    # the enumeration and the combination charge 452,240 units in all
    sys = zigzag_vass()
    s, _ = build_semilinear(sys, "0", "8", b_lps=32, node_budget=452_240)
    assert len(s.components) == 136
    # every component is one (base, period) pair
    assert all(
        type(b) is int and type(p) is int and p >= 1 for b, p in s.components
    )
    with pytest.raises(
        ResourceBudgetError, match="scheme enumeration exceeded the budget 452239$"
    ) as exc:
        build_semilinear(sys, "0", "8", b_lps=32, node_budget=452_239)
    assert exc.value.partial_result.partial


def enumerate_paths(sys, start, max_len, budget, nonneg):
    """All contiguous paths from state index ``start`` up to ``max_len``
    transitions (the empty one included), as (path, end state index, effect,
    drop, peak), one budget unit each; with ``nonneg`` only prefixes staying
    >= 0 are extended.  The path enumeration ``_profiles`` replaced."""
    stack = [((), start, 0, 0, 0)]
    while stack:
        item = stack.pop()
        budget.spend()
        yield item
        path, s, value, drop, peak = item
        if len(path) == max_len:
            continue
        for i, w, d in sys.out[s]:
            v = value + w
            if nonneg and v < 0:
                continue
            stack.append((path + (i,), d, v, max(drop, -v), max(peak, v)))


def check_profiles_against_paths(sys, start, max_len, limit):
    """``_profiles`` against the path enumeration: the same profiles, the
    number of paths per profile, a shortest path walking to its profile, and
    the drop-0 profiles as those of the paths that never go negative.  Both
    sides charge every path and then every path that never goes negative,
    and must refuse alike under ``limit``; False if they do."""
    budget = vass1._Budget(limit)
    try:
        found = vass1._profiles(sys, start, max_len, budget)
        budget.spend(sum(n for key, (_, n) in found.items() if key[2] == 0))
    except ResourceBudgetError:
        with pytest.raises(ResourceBudgetError):
            ref_budget = vass1._Budget(limit)
            list(enumerate_paths(sys, start, max_len, ref_budget, False))
            list(enumerate_paths(sys, start, max_len, ref_budget, True))
        return False
    paths = list(enumerate_paths(sys, start, max_len, vass1._Budget(limit), False))
    nonneg = list(enumerate_paths(sys, start, max_len, vass1._Budget(limit), True))
    assert budget.used == len(paths) + len(nonneg)
    expected = {}
    for path, end, eff, drop, peak in paths:
        count, shortest = expected.get((end, eff, drop, peak), (0, len(path)))
        expected[(end, eff, drop, peak)] = (count + 1, min(shortest, len(path)))
    assert found.keys() == expected.keys()
    for key, (rep, n) in found.items():
        assert (n, len(rep)) == expected[key], key
        if rep:
            src, end, eff, drop, peak = sys.walk(rep)
            assert src == sys.states[start]
            assert (sys.index[end], eff, drop, peak) == key
        else:
            assert key == (start, 0, 0, 0)
    drop0 = {key: n for key, (_, n) in found.items() if key[2] == 0}
    expected0 = {}
    for _, *key in nonneg:
        expected0[tuple(key)] = expected0.get(tuple(key), 0) + 1
    assert drop0 == expected0
    return True


def test_profiles_match_path_enumeration_random():
    rng = random.Random(2323)
    checked = 0
    for _ in range(300):
        states = tuple(f"s{i}" for i in range(rng.randint(1, 3)))
        trans = [
            (rng.choice(states), rng.randint(-3, 3), rng.choice(states))
            for _ in range(rng.randint(1, 5))
        ]
        src, _, dst = rng.choice(trans)  # a parallel transition
        trans.append((src, rng.randint(-3, 3), dst))
        sys = Vass1System(states, tuple(trans))
        start = rng.randrange(len(states))
        checked += check_profiles_against_paths(sys, start, rng.randint(3, 9), 30_000)
    assert checked >= 200, checked


def test_profiles_match_path_enumeration_zigzag():
    sys = zigzag_vass()
    for max_len in (4, 9, 32, 64):
        for start in range(len(sys.states)):
            assert check_profiles_against_paths(sys, start, max_len, 10**6)


def test_profiles_self_loops():
    # one state with self-loops -1, 3, -3, 0, 3 at b_lps 9: 5^0 + ... + 5^9
    # paths, and the 837,048 of them that never go negative
    sys = Vass1System(("q",), tuple(("q", w, "q") for w in (-1, 3, -3, 0, 3)))
    budget = vass1._Budget(10**7)
    found = vass1._profiles(sys, 0, 9, budget)
    assert (len(found), sum(n for _, n in found.values())) == (1016, 2_441_406)
    assert budget.used == 2_441_406
    drop0 = [n for (_, _, drop, _), (_, n) in found.items() if drop == 0]
    assert (len(drop0), sum(drop0)) == (143, 837_048)


def reference_least_bases(alpha_front, beta_front, gamma_front, theta_effs):
    """The combination as one loop over (beta, alpha, gamma front entry,
    residue of beta's effect), taking the least closing effect >= the
    overshoot of each residue by bisection; one budget unit per residue
    tried, which must be the charge ``_combination_units`` counts."""
    eff_by_residue = {}
    best = {}
    units = 0
    for s, betas in enumerate(beta_front):
        for eff_b, drop_b, peak_b, beta in betas:
            for eff_a, (peak_a, alpha) in alpha_front[s].items():
                if eff_a < drop_b:
                    continue
                for (s_g, eff_g), gfront in gamma_front[s].items():
                    for _, drop_g, peak_g, gamma in gfront:
                        over = _overshoot(eff_b, peak_b, eff_g, peak_g)
                        key = (s_g, eff_b)
                        if key not in eff_by_residue:
                            lists = [[] for _ in range(eff_b)]
                            for e in theta_effs[s_g]:
                                lists[e % eff_b].append(e)
                            eff_by_residue[key] = lists
                        for elist in eff_by_residue[key]:
                            units += 1
                            pos = bisect_left(elist, over)
                            if pos == len(elist):
                                continue
                            e = elist[pos]
                            k_min = peak_a + 1
                            need = drop_g - eff_a
                            if need > k_min * eff_b:
                                k_min = -(-need // eff_b)
                            base = eff_a + k_min * eff_b + eff_g + e
                            ckey = (eff_b, base % eff_b)
                            cur = best.get(ckey)
                            if cur is None or base < cur[0]:
                                best[ckey] = (base, alpha, beta, gamma, k_min, e, s_g)
    assert units == _combination_units(alpha_front, beta_front, gamma_front)
    return best


def build_with_reference(monkeypatch, *args, **kwargs):
    with monkeypatch.context() as m:
        m.setattr(vass1, "_least_bases", reference_least_bases)
        return build_semilinear(*args, **kwargs)


def test_folded_combination_matches_per_residue_loop_zigzag(monkeypatch):
    sys = zigzag_vass()
    for b_lps in range(4, 33):
        expected = build_with_reference(monkeypatch, sys, "0", "8", b_lps=b_lps)
        assert build_semilinear(sys, "0", "8", b_lps=b_lps) == expected, b_lps


def test_folded_combination_matches_per_residue_loop_random(monkeypatch):
    # the budget cuts off the few draws whose path enumeration runs to
    # millions of paths; both sides must refuse those alike
    rng = random.Random(1515)
    answered = nonempty = 0
    for _ in range(260):
        states = tuple(f"s{i}" for i in range(rng.randint(1, 3)))
        trans = tuple(
            (rng.choice(states), rng.randint(-3, 3), rng.choice(states))
            for _ in range(rng.randint(1, 5))
        )
        sys = Vass1System(states, trans)
        args = (sys, states[0], rng.choice(states))
        kwargs = {"b_lps": rng.randint(3, 9), "node_budget": 50_000}
        try:
            expected = build_with_reference(monkeypatch, *args, **kwargs)
        except ResourceBudgetError as err:
            with pytest.raises(ResourceBudgetError, match=f"^{err}$"):
                build_semilinear(*args, **kwargs)
            continue
        assert build_semilinear(*args, **kwargs) == expected, (trans, args, kwargs)
        answered += 1
        nonempty += bool(expected[0].components)
    assert answered >= 200 and nonempty >= 50, (answered, nonempty)
