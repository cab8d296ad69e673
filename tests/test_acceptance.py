"""End-to-end acceptance gate: one test per criterion, each printing a
single PASS/FAIL line.  Oracles are either frozen independent computations
or literal expected values; nothing here calls back into the code under
test to produce its own expectation."""
import random
from functools import lru_cache

from boxvas import (
    DegenerateSystemError,
    ResourceBudgetError,
    VasSystem,
    Vass1System,
    build_semilinear,
    check_steinitz_drop_peak,
    compute_seed,
    compute_threshold,
    cone_from_generators,
    decide_box_reach,
    decide_box_via_lift,
    decide_reach_capped,
    default_deep_constant,
    ditc_falsification_scan,
    facet_product_bound_check,
    inf_norm,
    is_box_reaching_trace,
    one_vas_threshold,
    semilinear_member,
    steinitz_reorder,
    vass1_box_decide,
    verify_window,
)
from boxvas.core import dot

from conftest import EX1_GENS, EX2_GENS, random_vas, zigzag_vass


def _outcome(n: int):
    class _Ctx:
        def __enter__(self):
            return self

        def __exit__(self, exc_type, exc, tb):
            status = "PASS" if exc_type is None else "FAIL"
            print(f"[criterion {n:2d}] {status}")
            return False

    return _Ctx()


@lru_cache(maxsize=1)
def _criterion3_instances():
    """200 seeded random 2-VAS (entries <= 3, <= 4 generators) with their
    thresholds; shared by criteria 3 and 10."""
    rng = random.Random(20240817)
    out = []
    for _ in range(200):
        vas = random_vas(rng, 2, 3, 4)
        out.append((vas, compute_threshold(vas).w))
    return out


def test_criterion_1_first_example_fixture():
    with _outcome(1):
        vas = VasSystem(2, EX1_GENS)
        assert decide_box_reach(vas, (11, 11))[0] is False
        assert decide_box_reach(vas, (21, 21))[0] is True
        assert decide_box_reach(vas, (30, 0))[0] is False
        for k in range(20, 41):
            ok, bundle = decide_box_reach(vas, (k, k))
            assert ok, k
            assert is_box_reaching_trace(vas, bundle.path.indices, (k, k))
        assert decide_reach_capped(vas, (11, 11), (12, 12))[0] is True


def test_criterion_2_second_example_fixture():
    with _outcome(2):
        vas = VasSystem(3, EX2_GENS)
        for n in range(1, 6):
            t = (2 * n, n + 1, n + 1)
            cap = tuple(x + 3 for x in t)
            assert decide_reach_capped(vas, t, cap)[0] is True, t
            assert decide_box_reach(vas, t)[0] is False, t
            assert decide_box_via_lift(vas, t) is False, t


def test_criterion_3_threshold_window_sweeps():
    with _outcome(3):
        inst = _criterion3_instances()
        ranked = sorted(inst, key=lambda p: p[1])
        swept = 0
        for vas, w in ranked[:20]:
            margin = 2 * vas.norm
            hi = w + 15 + margin
            if (hi + 1) ** 2 > 4_000_000:
                # W itself is beyond the sweep budget: scaled substitute below
                continue
            report = verify_window(vas, (w, w), (15, 15), node_budget=8_000_000)
            assert report.violations == (), (vas.generators, w)
            assert report.skipped == ()
            swept += 1
        assert swept >= 15
        # scaled substitute for the largest-W instances: violations must die
        # out at some empirical threshold at or below W
        for vas, w in ranked[-3:]:
            last_violation = -1
            for lo in range(0, 201, 40):
                report = verify_window(vas, (lo, lo), (15, 15))
                if report.violations:
                    last_violation = max(
                        last_violation, max(max(v) for v in report.violations)
                    )
            assert last_violation <= w, (vas.generators, last_violation, w)


def test_criterion_4_reorder_corridor_and_drop_peak():
    with _outcome(4):
        from fractions import Fraction

        rng = random.Random(404)
        for _ in range(1000):
            k = rng.randint(1, 12)
            vecs = [
                (rng.randint(-5, 5), rng.randint(-5, 5)) for _ in range(k)
            ]
            res = steinitz_reorder(vecs)
            assert sorted(res.permutation) == list(range(k))
            total = (
                sum(v[0] for v in vecs),
                sum(v[1] for v in vecs),
            )
            prefix = [0, 0]
            for n, idx in enumerate(res.permutation, start=1):
                prefix[0] += vecs[idx][0]
                prefix[1] += vecs[idx][1]
                if n < 2:
                    continue
                for c in range(2):
                    dev = abs(
                        Fraction(prefix[c])
                        - Fraction(n - 2, k) * total[c]
                    )
                    assert dev <= res.corridor_bound, (vecs, n)
            if total[0] >= 0 and total[1] >= 0 and any(any(v) for v in vecs):
                vas = VasSystem(2, tuple(vecs))
                assert check_steinitz_drop_peak(
                    vas, list(res.permutation)
                ), vecs


def test_criterion_5_seed_invariants():
    with _outcome(5):
        rng = random.Random(505)
        successes = 0
        while successes < 500:
            vas = random_vas(rng, 2, 5, 4)
            try:
                seed = compute_seed(vas)
            except DegenerateSystemError:
                continue
            assert is_box_reaching_trace(vas, seed.witness.indices, seed.s)
            assert is_box_reaching_trace(
                vas, seed.pos_witness_indices(), seed.s_pos
            )
            assert seed.s_pos[0] >= 2 * vas.norm
            assert seed.s_pos[1] >= 2 * vas.norm
            assert inf_norm(seed.s_pos) <= 8 * vas.norm**3
            successes += 1


def test_criterion_6_lift_differential():
    with _outcome(6):
        rng = random.Random(606)
        checked = 0
        for _ in range(100):
            d = rng.choice([1, 2, 3])
            vas = random_vas(rng, d, 2, 3)
            for _ in range(3):
                t = tuple(rng.randint(0, 8) for _ in range(d))
                direct = decide_box_reach(vas, t)[0]
                lifted = decide_box_via_lift(vas, t)
                assert direct == lifted, (vas.generators, t)
                checked += 1
        assert checked == 300


def _brute_one_dim(steps, bound, peak_bound):
    """Values of [0, bound] reachable from 0 with prefixes in [0, peak_bound];
    plain dynamic closure, independent of the package's engines."""
    seen = {0}
    frontier = [0]
    while frontier:
        v = frontier.pop()
        for a in steps:
            w = v + a
            if 0 <= w <= peak_bound and w not in seen:
                seen.add(w)
                frontier.append(w)
    return {v for v in seen if v <= bound}


def test_criterion_7_one_dim_threshold():
    with _outcome(7):
        steps = [5, -2]
        vas = VasSystem(1, ((5,), (-2,)))
        # independent brute force: box-reachable means prefixes within [0, x]
        box = {
            x
            for x in range(61)
            if x in _brute_one_dim(steps, x, x)
        }
        reach = _brute_one_dim(steps, 60, 10_000)
        assert reach == set(range(61))
        # 6 has the box path 5, 3, 1, 6; the set is {0, 5} plus [6, 60]
        assert box == {0, 5} | set(range(6, 61))
        for x in range(61):
            assert decide_box_reach(vas, (x,))[0] == (x in box), x
        t = one_vas_threshold(vas)
        assert not t.degenerate
        big = _brute_one_dim(steps, t.m1 + 50, 10 * t.m1)
        for x in range(t.m1, t.m1 + 51):
            reachable = x in big
            boxed = decide_box_reach(vas, (x,))[0]
            assert reachable == boxed, x


def test_criterion_8_semilinear_differential():
    with _outcome(8):
        rng = random.Random(808)
        completed = 0
        attempts = 0
        while completed < 50 and attempts < 200:
            attempts += 1
            nstates = rng.randint(1, 3)
            states = tuple(f"s{i}" for i in range(nstates))
            trans = tuple(
                (rng.choice(states), rng.randint(-3, 3), rng.choice(states))
                for _ in range(rng.randint(1, 5))
            )
            sys = Vass1System(states, trans)
            q_target = rng.choice(states)
            try:
                semi, _ = build_semilinear(sys, states[0], q_target, b_lps=6)
            except ResourceBudgetError:
                continue
            for x in range(81):
                direct = vass1_box_decide(sys, states[0], q_target, x)[0]
                assert semilinear_member(semi, x) == direct, (trans, x)
            completed += 1
        assert completed >= 50
        zig = zigzag_vass()
        semi, _ = build_semilinear(zig, "0", "8", b_lps=8)
        assert semilinear_member(semi, 6)


def test_criterion_9_facet_product_bound():
    with _outcome(9):
        rng = random.Random(909)
        checked = 0
        while checked < 10_000:
            chi1 = (rng.randint(1, 9), rng.randint(1, 9))
            chi2 = (-rng.randint(1, 9), -rng.randint(1, 9))
            if chi1[0] * chi2[1] == chi1[1] * chi2[0]:
                continue  # collinear: a line, not a pointed cone
            cone = cone_from_generators(VasSystem(2, (chi1, chi2)))
            pos_facet = None
            for chi, f in zip((cone.chi1, cone.chi2), cone.facets):
                if chi[0] > 0 and chi[1] > 0:
                    pos_facet = f
            assert pos_facet is not None
            while True:
                v = (rng.randint(0, 20), rng.randint(0, 20))
                if dot(pos_facet, v) >= 0:
                    break
            assert facet_product_bound_check(cone, v), (chi1, chi2, v)
            checked += 1


def test_criterion_10_deep_point_scans():
    with _outcome(10):
        inst = _criterion3_instances()
        by_norm = sorted(inst, key=lambda p: p[0].norm)
        for vas, _ in by_norm[:20]:
            report = ditc_falsification_scan(
                vas, default_deep_constant(vas).value, 50
            )
            assert report.counterexamples == (), vas.generators
            assert report.undecided == (), vas.generators
