import itertools
import random

from hypothesis import given, settings, strategies as st

from boxvas import (
    VasSystem,
    box_witness_via_lift,
    decide_box_reach,
    decide_box_via_lift,
    decide_reach_capped,
    effect,
    is_box_reaching_trace,
    lift_vas,
)

from conftest import INDEX_SIDES, index_vas, random_vas


def test_lift_shape_small():
    vas = VasSystem(2, ((1, 1),))
    lifted = lift_vas(vas)
    assert lifted.dim == 4
    # the mirrored generator first, then the pumps
    assert lifted.generators == (
        (1, 1, -1, -1),
        (0, 0, 1, 0),
        (0, 0, 0, 1),
    )


def test_lift_shape_example2(ex2):
    lifted = lift_vas(ex2)
    assert lifted.dim == 6
    assert len(lifted.generators) == 6
    for g, m in zip(ex2.generators, lifted.generators):
        assert m == g + tuple(-x for x in g)
    for i, u in enumerate(lifted.generators[3:], start=3):
        assert u[i] == 1 and sum(map(abs, u)) == 1


def test_decide_via_lift_examples(ex1, ex2):
    assert decide_box_via_lift(ex1, (21, 21))
    assert not decide_box_via_lift(ex1, (11, 11))
    assert decide_box_via_lift(ex1, (0, 0))
    # (2, 2, 2) is reachable (via (0,1,1), (1,3,0)) but not box-reachable
    assert not decide_box_via_lift(ex2, (2, 2, 2))
    assert decide_reach_capped(ex2, (2, 2, 2), (3, 3, 3))[0]


def test_witness_via_lift(ex1):
    path = box_witness_via_lift(ex1, (21, 21))
    assert path is not None
    assert is_box_reaching_trace(ex1, path, (21, 21))
    assert box_witness_via_lift(ex1, (11, 11)) is None


targets = st.tuples(st.integers(0, 8), st.integers(0, 8))


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10**9), targets)
def test_lift_agrees_with_direct(seed, t):
    vas = random_vas(random.Random(seed), 2, 2, 3)
    assert decide_box_via_lift(vas, t) == decide_box_reach(vas, t)[0]


def test_lift_agrees_on_index_lattices():
    # the direct deciders refute off-lattice targets without a search; the
    # lift still searches them
    rng = random.Random(12)
    for dim, side in INDEX_SIDES.items():
        for _ in range(3):
            vas = index_vas(rng, dim)
            for t in itertools.product(range(side + 1), repeat=dim):
                assert decide_box_via_lift(vas, t) == decide_box_reach(vas, t)[0]


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**9), targets)
def test_lift_witness_sound(seed, t):
    vas = random_vas(random.Random(seed), 2, 2, 3)
    path = box_witness_via_lift(vas, t)
    if path is not None:
        assert effect(vas, path) == t


def test_lift_zero_target_needs_no_table(ex1):
    assert decide_box_via_lift(ex1, (0, 0), node_budget=0) is True
    assert box_witness_via_lift(ex1, (0, 0), node_budget=0) == []
