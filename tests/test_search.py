import random
import tracemalloc
from collections import deque
from itertools import product

import pytest

from boxvas import ResourceBudgetError, VasSystem
from boxvas._search import (
    DEFAULT_NODE_BUDGET,
    _coord_range_mask,
    _strides,
    bfs_grid,
    grid_cells,
    reachable_bitmap,
)
from boxvas.core import dot
from boxvas.lift import lift_vas

from conftest import EX1_GENS, EX2_GENS


def dict_bfs(gens, cap):
    """Shortest number of steps from 0 to every point reachable inside [0, cap]."""
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
    return dist


def dict_bfs_distance(gens, cap, target):
    """Shortest number of steps from 0 to target inside [0, cap], or None."""
    return dict_bfs(gens, cap).get(tuple(target))


def reference_bitmap(gens, cap):
    """The bitmap kernel as first written: range masks by long division, and
    every move of a round applied to the bitmap the round started from."""
    n = grid_cells(cap)
    strides = _strides(cap)
    moves = []
    for g in gens:
        mask = (1 << n) - 1
        ok = True
        for gi, ci, si in zip(g, cap, strides):
            lo, hi = max(0, -gi), min(ci, ci - gi)
            if lo > hi:
                ok = False
                break
            if (lo, hi) != (0, ci):
                period = si * (ci + 1)
                block = ((1 << ((hi - lo + 1) * si)) - 1) << (lo * si)
                reps = n // period
                mask &= block * (((1 << (reps * period)) - 1) // ((1 << period) - 1))
        if ok:
            moves.append((dot(g, strides), mask))
    reached = 1
    while True:
        new = reached
        for offset, mask in moves:
            src = reached & mask
            new |= (src << offset) if offset >= 0 else (src >> -offset)
        if new == reached:
            return reached
        reached = new


def bitmap_points(bitmap, cap):
    # product() runs through the box in flat-index order
    return {x for p, x in enumerate(product(*(range(c + 1) for c in cap)))
            if bitmap >> p & 1}


def test_bitmap_matches_dict_bfs():
    rng = random.Random(20)
    cases = []
    for _ in range(400):
        d = rng.randint(1, 4)
        cap = tuple(rng.randint(0, 6) for _ in range(d))
        gens = [tuple(rng.randint(-2, 2) for _ in range(d))
                for _ in range(rng.randint(0, 5))]
        # a nonnegative generator or two, so that more than 0 is often reachable
        for k in range(min(2, len(gens))):
            if rng.random() < 0.8:
                gens[k] = tuple(map(abs, gens[k]))
        cases.append((gens, cap))
    # a zero side, a zero generator, and a generator that fits nowhere
    cases += [
        ([(1, 0), (0, 1), (-1, 1)], (5, 0)),
        ([(0, 0, 0), (1, 2, 0), (2, -1, 1)], (6, 6, 3)),
        ([(7, 0), (1, 1), (0, -9), (2, -1)], (6, 5)),
    ]
    ex1, ex2 = lift_vas(VasSystem(2, EX1_GENS)), lift_vas(VasSystem(3, EX2_GENS))
    # the lifted boxes [0, (t, t)] that decide_box_via_lift searches
    cases += [(list(ex1.generators), (12,) * 4),
              (list(ex2.generators), (4,) * 6)]
    assert any(0 in cap for _, cap in cases)
    assert any(any(not any(g) for g in gens) for gens, _ in cases)
    sizes = []
    for gens, cap in cases:
        bitmap = reachable_bitmap(gens, cap)
        assert bitmap == reference_bitmap(gens, cap), (gens, cap)
        points = bitmap_points(bitmap, cap)
        assert points == set(dict_bfs(gens, cap)), (gens, cap)
        sizes.append(len(points))
    assert sum(k > 1 for k in sizes) >= 150 and max(sizes) > 1000


def test_coord_range_mask_is_its_cell_definition():
    # the first coordinate's period is the whole grid, so its block is not doubled
    caps = (cap for d in range(1, 5) for cap in product(range(6), repeat=d))
    for cap in caps:
        n = grid_cells(cap)
        cells = list(product(*(range(c + 1) for c in cap)))
        for i, (c, s) in enumerate(zip(cap, _strides(cap))):
            for lo in range(c + 1):
                for hi in range(lo, c + 1):
                    want = sum(1 << p for p, x in enumerate(cells) if lo <= x[i] <= hi)
                    assert _coord_range_mask(n, s, c + 1, lo, hi) == want, (cap, i, lo, hi)


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
