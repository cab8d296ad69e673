import itertools
import random
from fractions import Fraction

import pytest

from boxvas import (
    InvalidInputError,
    PreconditionError,
    VasSystem,
    check_steinitz_drop_peak,
    drop_peak,
    effect,
    inf_norm,
    reorder_counts,
    steinitz_reorder,
)
from boxvas.cli import run_command


def corridor_holds(vectors, perm, bound):
    k = len(vectors)
    d = len(vectors[0])
    total = tuple(sum(v[c] for v in vectors) for c in range(d))
    prefix = [0] * d
    for n, idx in enumerate(perm, start=1):
        for c in range(d):
            prefix[c] += vectors[idx][c]
        if n < d:
            continue
        for c in range(d):
            if abs(Fraction(prefix[c]) - Fraction(n - d, k) * total[c]) > bound:
                return False
    return True


def test_single_vector():
    res = steinitz_reorder([(1, 1)])
    assert res.permutation == (0,)
    assert res.verified


def test_two_vector_example():
    res = steinitz_reorder([(5, 0), (-3, 0)])
    assert sorted(res.permutation) == [0, 1]
    assert res.corridor_bound == 10
    assert corridor_holds([(5, 0), (-3, 0)], res.permutation, 10)


def test_four_vector_vs_exhaustive():
    vecs = [(2, -1), (-1, 2), (2, -1), (-1, 2)]
    res = steinitz_reorder(vecs)
    assert corridor_holds(vecs, res.permutation, 4)
    # some permutation satisfies the bound (sanity for the oracle itself)
    assert any(
        corridor_holds(vecs, p, 4) for p in itertools.permutations(range(4))
    )


def test_empty_input_rejected():
    with pytest.raises(PreconditionError):
        steinitz_reorder([])


def test_mixed_arity_is_invalid_input(capsys):
    with pytest.raises(InvalidInputError, match="same arity"):
        steinitz_reorder([(1, 2), (3,)])
    assert run_command(["steinitz", "--vectors", "1,2;3"]) == 2
    assert "same arity" in capsys.readouterr().err


def test_corridor_fuzz():
    rng = random.Random(42)
    for _ in range(400):
        k = rng.randint(1, 10)
        vecs = [
            (rng.randint(-5, 5), rng.randint(-5, 5)) for _ in range(k)
        ]
        res = steinitz_reorder(vecs)
        assert res.verified
        assert sorted(res.permutation) == list(range(k))
        bound = 2 * max(inf_norm(v) for v in vecs)
        assert corridor_holds(vecs, res.permutation, bound)


def test_drop_peak_bounds_on_reordered_paths():
    vas = VasSystem(2, ((-1, 2), (2, -1), (10, 10)))
    rng = random.Random(9)
    checked = 0
    while checked < 120:
        counts = [rng.randint(0, 4) for _ in range(3)]
        expanded = [i for i, c in enumerate(counts) for _ in range(c)]
        if not expanded:
            continue
        eff = effect(vas, expanded)
        if eff[0] < 0 or eff[1] < 0:
            continue
        order = reorder_counts(vas, counts)
        assert check_steinitz_drop_peak(vas, order)
        checked += 1


def test_drop_peak_checker_negative():
    vas = VasSystem(2, ((1, 0), (-1, 0)))
    # front-loading the negative steps exceeds the drop bound 2*norm = 8
    path = [1] * 10 + [0] * 10
    drop, _ = drop_peak(vas, path)
    assert drop[0] > 2 * vas.norm
    assert not check_steinitz_drop_peak(vas, path)
    with pytest.raises(PreconditionError):
        check_steinitz_drop_peak(vas, [1])


def test_reorder_counts_large_multiset():
    vas = VasSystem(2, ((-1, 2), (2, -1), (10, 10)))
    counts = [40000, 40000, 4000]
    order = reorder_counts(vas, counts)
    assert len(order) == 84000
    assert effect(vas, order) == (80000, 80000)
    assert check_steinitz_drop_peak(vas, order)


def test_reorder_counts_matches_multiset():
    vas = VasSystem(2, ((1, 1), (0, -1)))
    order = reorder_counts(vas, [3, 2])
    assert sorted(order) == [0, 0, 0, 1, 1]


def largest_deficit_oracle(counts):
    """The per-step largest-deficit schedule: step n places the type with a
    copy left that maximises n * c_i - p_i * k, ties to the lowest index."""
    k = sum(counts)
    placed = [0] * len(counts)
    order = []
    for n in range(1, k + 1):
        best = max(
            (i for i, c in enumerate(counts) if placed[i] < c),
            key=lambda i: (n * counts[i] - placed[i] * k, -i),
        )
        placed[best] += 1
        order.append(best)
    return order


def test_reorder_counts_matches_per_step_oracle():
    rng = random.Random(12)
    cases = [
        [0], [5], [0, 0, 0], [0, 7, 0], [3, 3], [1, 1, 1], [7, 7, 7, 7],
        [2, 4, 6, 8, 10], [1, 0, 1, 0, 1], [6, 3, 2],
    ]
    for _ in range(1500):
        types = rng.randint(1, 5)
        pool = [0, 0, 1, 2, rng.randint(0, 40), rng.randint(0, 400)]
        counts = [rng.choice(pool) for _ in range(types)]
        if rng.random() < 0.2:
            # ties: every live type has the same count
            counts = [rng.choice((0, 9)) for _ in range(types)]
        cases.append(counts)
    # the multisets of the benchmark's certify witnesses
    cases += [[35451, 0, 54409], [4, 4, 70134], [5803, 94173], [41672, 1]]
    for counts in cases:
        vas = VasSystem(1, tuple((i,) for i in range(len(counts))))
        assert reorder_counts(vas, counts) == largest_deficit_oracle(counts), counts
