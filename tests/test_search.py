import random
import tracemalloc
from collections import deque

import pytest

from boxvas import ResourceBudgetError
from boxvas._search import DEFAULT_NODE_BUDGET, bfs_grid

from conftest import EX1_GENS


def dict_bfs_distance(gens, cap, target):
    """Shortest number of steps from 0 to target inside [0, cap], or None."""
    start = (0,) * len(cap)
    dist = {start: 0}
    queue = deque([start])
    while queue:
        p = queue.popleft()
        for g in gens:
            q = tuple(a + b for a, b in zip(p, g))
            if q not in dist and all(0 <= x <= c for x, c in zip(q, cap)):
                dist[q] = dist[p] + 1
                queue.append(q)
    return dist.get(tuple(target))


def is_capped_path(gens, cap, target, path):
    point = (0,) * len(cap)
    for i in path:
        point = tuple(a + b for a, b in zip(point, gens[i]))
        if not all(0 <= x <= c for x, c in zip(point, cap)):
            return False
    return point == tuple(target)


def test_bfs_matches_dict_bfs():
    rng = random.Random(4)
    side = {1: 25, 2: 8, 3: 4, 4: 3}
    reachable = 0
    for _ in range(600):
        d = rng.randint(1, 4)
        gens = [
            tuple(rng.randint(-2, 2) for _ in range(d))
            for _ in range(rng.randint(0, 4))
        ]
        if rng.random() < 0.3:
            gens.insert(rng.randint(0, len(gens)), (0,) * d)
        target = tuple(rng.randint(0, side[d]) for _ in range(d))
        cap = tuple(x + rng.randint(0, 2) for x in target)
        path = bfs_grid(gens, cap, target)
        want = dict_bfs_distance(gens, cap, target)
        assert (path is None) == (want is None), (gens, cap, target)
        if path is not None:
            reachable += 1
            assert len(path) == want
            assert is_capped_path(gens, cap, target, path)
    assert reachable >= 60


def test_bfs_more_generators_than_a_byte_names():
    gens = [(0, 0)] * 300 + [(1, 0), (0, 1)]
    assert bfs_grid(gens, (2, 1), (2, 1)) == [300, 300, 301]


def test_bfs_target_outside_cap():
    gens = ((0, 1), (1, 0))
    # without the cap check, (0, 7) would fall on the padded index of (1, 0)
    assert bfs_grid(gens, (2, 5), (1, 0)) == [1]
    assert bfs_grid(gens, (2, 5), (0, 7)) is None
    assert bfs_grid(gens, (2, 5), (3, 0)) is None
    assert bfs_grid(gens, (2, 5), (0, -1)) is None


def test_bfs_budget_counts_padded_cells():
    # ex1 pads [0, 2]^2 by 1 below and 10 above: 14 x 14 cells
    assert bfs_grid(EX1_GENS, (2, 2), (2, 2), node_budget=196) is None
    with pytest.raises(ResourceBudgetError):
        bfs_grid(EX1_GENS, (2, 2), (2, 2), node_budget=195)


def test_bfs_budget_checked_before_allocating():
    tracemalloc.start()
    try:
        with pytest.raises(ResourceBudgetError):
            bfs_grid(EX1_GENS, (10**6, 10**6), (21, 21), DEFAULT_NODE_BUDGET)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024


def test_bfs_full_exploration_memory():
    # (300, 299) is off the lattice ex1 reaches, so every cell is explored
    tracemalloc.start()
    try:
        assert bfs_grid(EX1_GENS, (300, 299), (300, 299)) is None
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * 1024 * 1024
