import random

import pytest
from hypothesis import given, settings, strategies as st

from boxvas import (
    Lps,
    PreconditionError,
    ResourceBudgetError,
    SemilinearSet,
    Vass1Bounds,
    Vass1System,
    build_semilinear,
    closes,
    default_b_lps,
    lps_overshoot,
    path_profile,
    semilinear_member,
    validate_lps,
    vass1_box_decide,
    vass1_min_ceilings,
)

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
        sys.check_path([0, 0])  # "0" -> "7" then expects source "7"


def test_path_profile():
    assert path_profile([]) == (0, 0, 0)
    assert path_profile([2, -3, 4]) == (3, 1, 3)
    assert path_profile([-1]) == (-1, 1, 0)


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


def test_lps_overshoot():
    lps = Lps(alpha=(), beta=(0, 1), gamma=(1,))
    # beta climbs to 2 before settling at +1; gamma dips by 1
    assert lps_overshoot(LOOPS, lps) == 2
    with pytest.raises(PreconditionError):
        lps_overshoot(LOOPS, Lps(alpha=(), beta=(1,), gamma=()))


def test_validate_lps():
    with pytest.raises(PreconditionError):
        validate_lps(LOOPS, Lps(alpha=(), beta=(), gamma=()))
    with pytest.raises(PreconditionError):
        validate_lps(LOOPS, Lps(alpha=(), beta=(0, 1), gamma=()), b_lps=1)
    two = Vass1System(("a", "b"), (("a", 1, "b"), ("b", 1, "a")))
    with pytest.raises(PreconditionError):
        validate_lps(two, Lps(alpha=(), beta=(0,), gamma=(1,)))
    validate_lps(two, Lps(alpha=(), beta=(0, 1), gamma=()))


def test_closes():
    lps = Lps(alpha=(), beta=(0, 1), gamma=(1,))
    assert closes(LOOPS, (0,), lps)  # effect 2 >= overshoot 2, never dips
    assert not closes(LOOPS, (1,), lps)
    assert not closes(LOOPS, (), lps)  # effect 0 < overshoot 2
    assert not closes(LOOPS, (0, 1), lps)  # peak 2 != effect 1


def test_overshoot_matches_direct_simulation():
    rng = random.Random(17)
    for _ in range(200):
        n = rng.randint(1, 3)
        beta = tuple(rng.choice([0, 1]) for _ in range(rng.randint(1, 4)))
        gamma = tuple(rng.choice([0, 1]) for _ in range(rng.randint(0, 4)))
        lps = Lps(alpha=(), beta=beta, gamma=gamma)
        eff_b = sum(LOOPS.transitions[i][1] for i in beta)
        if eff_b <= 0:
            continue
        over = lps_overshoot(LOOPS, lps)
        # overshoot = peak - effect of beta^k gamma for any large enough k
        for k in (1, 2, 5):
            w = [LOOPS.transitions[i][1] for i in beta * k + gamma]
            eff, _, peak = path_profile(w)
            assert peak - eff == over, (lps, k)
        del n


def test_min_ceilings_single_state():
    sys = Vass1System(("a",), (("a", 5, "a"), ("a", -2, "a")))
    mc = vass1_min_ceilings(sys, "a", 10)
    assert mc[0]["a"] == 0
    assert mc[5]["a"] == 5
    assert mc[6]["a"] == 6  # 5, 3, 1, 6
    assert mc[3]["a"] == 5
    assert mc[1]["a"] == 5
    assert "a" not in mc[2] or mc[2]["a"] == 6
    assert "a" not in mc[4] or mc[4]["a"] == 6


def test_semilinear_member():
    s = SemilinearSet(explicit=frozenset({0}), components=((1, (3,)),))
    assert semilinear_member(s, 0)
    assert semilinear_member(s, 1)
    assert semilinear_member(s, 7)
    assert not semilinear_member(s, 2)
    empty = SemilinearSet(explicit=frozenset(), components=())
    assert not semilinear_member(empty, 0)
    coins = SemilinearSet(explicit=frozenset(), components=((0, (3, 5)),))
    assert semilinear_member(coins, 8)
    assert not semilinear_member(coins, 7)
    assert semilinear_member(coins, 15)
    with pytest.raises(PreconditionError):
        semilinear_member(s, -1)


def test_semilinear_member_multi_period():
    rng = random.Random(31)
    for _ in range(200):
        comps = tuple(
            (
                rng.randint(0, 10),
                tuple(rng.randint(1, 8) for _ in range(rng.randint(0, 3))),
            )
            for _ in range(rng.randint(1, 3))
        )
        s = SemilinearSet(explicit=frozenset(), components=comps)
        # brute force: every base plus every coin count up to the limit
        limit = 60
        members = set()
        for base, periods in comps:
            sums = {base}
            for p in periods:
                sums = {v + k * p for v in sums for k in range(limit // p + 1)}
            members |= sums
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
