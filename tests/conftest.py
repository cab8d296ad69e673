import random

import pytest

from boxvas import VasSystem, Vass1System

# The recurring 2-VAS fixture: proper cone containing the quadrant, norm 28.
EX1_GENS = ((-1, 2), (2, -1), (10, 10))

# 3-VAS whose (2n, n+1, n+1) family is reachable but not box-reachable.
EX2_GENS = ((0, 1, 1), (1, 2, -1), (1, -1, 2))

# Zig-zag 2-VAS viewed as a 1-VASS with the y coordinate as state (0..8).
ZIGZAG_GENS = ((1, 7), (3, -6), (-2, 6))


@pytest.fixture
def ex1():
    return VasSystem(2, EX1_GENS)


@pytest.fixture
def ex2():
    return VasSystem(3, EX2_GENS)


def zigzag_vass(levels: int = 8) -> Vass1System:
    states = tuple(str(y) for y in range(levels + 1))
    trans = []
    for y in range(levels + 1):
        for dx, dy in ZIGZAG_GENS:
            if 0 <= y + dy <= levels:
                trans.append((str(y), dx, str(y + dy)))
    return Vass1System(states, tuple(trans))


def random_vas(rng: random.Random, dim: int, max_entry: int, max_gens: int) -> VasSystem:
    count = rng.randint(1, max_gens)
    gens = tuple(
        tuple(rng.randint(-max_entry, max_entry) for _ in range(dim))
        for _ in range(count)
    )
    return VasSystem(dim, gens)


def index_vas(rng: random.Random, dim: int) -> VasSystem:
    """A random system whose lattice has index > 1 in Z^dim: one coordinate
    of every generator is scaled by 2 or 3, so that coordinate of every
    lattice point is a multiple of the factor."""
    vas = random_vas(rng, dim, 3, 4)
    k, factor = rng.randrange(dim), rng.choice([2, 3])
    gens = tuple(
        tuple(x * factor if i == k else x for i, x in enumerate(g))
        for g in vas.generators
    )
    return VasSystem(dim, gens)


# box sides that keep a full sweep of [0, side]^dim small
INDEX_SIDES = {1: 30, 2: 8, 3: 4}
