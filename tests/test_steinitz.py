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
from boxvas.steinitz import (
    _cofactor_kernel,
    _verify_corridor,
    _window_kernel,
)


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


SHAPES = ("random", "repeated", "collinear", "zeros")


def random_multiset(rng, d, k, shape):
    """k vectors in d dimensions; every shape but "random" makes windows of
    rank below d + 1 common: repeated vectors, multiples of one direction,
    or half of them zero."""
    if shape == "repeated":
        pool = [tuple(rng.randint(-4, 4) for _ in range(d)) for _ in range(3)]
        return [rng.choice(pool) for _ in range(k)]
    if shape == "collinear":
        u = tuple(rng.randint(-3, 3) for _ in range(d))
        return [tuple(a * x for x in u) for a in (rng.randint(-3, 3) for _ in range(k))]
    vecs = [tuple(rng.randint(-5, 5) for _ in range(d)) for _ in range(k)]
    if shape == "zeros":
        for i in rng.sample(range(k), k // 2):
            vecs[i] = (0,) * d
    return vecs


def test_window_corridor_on_random_multisets():
    rng = random.Random(25)
    cases = [(rng.randint(1, 25), 1 + n % 3, rng.choice(SHAPES)) for n in range(90)]
    cases += [(80, 2, shape) for shape in SHAPES] + [(80, 1, "random"), (40, 3, "random")]
    for k, d, shape in cases:
        vecs = random_multiset(rng, d, k, shape)
        res = steinitz_reorder(vecs)
        assert sorted(res.permutation) == list(range(k)), vecs
        assert res.corridor_bound == d * max(inf_norm(v) for v in vecs)
        assert _verify_corridor(vecs, res.permutation, res.corridor_bound), vecs
        assert corridor_holds(vecs, res.permutation, res.corridor_bound), vecs


def window_matrix(cols):
    return [[1] * len(cols)] + [[v[c] for v in cols] for c in range(len(cols[0]))]


def test_cofactor_kernel_parallel_to_elimination():
    def kernel_vector(rows, cols):
        """A nonzero vector in the nullspace of the given row system, by
        Gauss-Jordan elimination over the rationals, or None."""
        mat = [row[:] for row in rows]
        pivots = []
        r = 0
        for c in range(cols):
            pivot = next((i for i in range(r, len(mat)) if mat[i][c] != 0), None)
            if pivot is None:
                continue
            mat[r], mat[pivot] = mat[pivot], mat[r]
            inv = 1 / mat[r][c]
            mat[r] = [x * inv for x in mat[r]]
            for i in range(len(mat)):
                if i != r and mat[i][c] != 0:
                    f = mat[i][c]
                    mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
            pivots.append(c)
            r += 1
            if r == len(mat):
                break
        free = [c for c in range(cols) if c not in pivots]
        if not free:
            return None
        vec = [Fraction(0)] * cols
        vec[free[0]] = Fraction(1)
        for i, pc in enumerate(pivots):
            vec[pc] = -mat[i][free[0]]
        return vec

    rng = random.Random(7)
    full_rank = 0
    while full_rank < 300:
        d = rng.randint(1, 3)
        cols = [tuple(rng.randint(-6, 6) for _ in range(d)) for _ in range(d + 2)]
        rows = [[Fraction(x) for x in row] for row in window_matrix(cols)]
        elim = kernel_vector(rows, d + 2)
        cof = _cofactor_kernel([(1, *v) for v in cols])
        if not any(cof):
            continue
        full_rank += 1
        j = next(j for j, x in enumerate(cof) if x)
        scale = Fraction(elim[j], cof[j])
        assert scale and [scale * x for x in cof] == elim, cols
        if len(set(cols)) == len(cols):
            assert _window_kernel(cols) == cof, cols


def test_window_kernel_on_rank_deficient_windows():
    rng = random.Random(8)
    for _ in range(300):
        d = rng.randint(1, 3)
        cols = random_multiset(rng, d, d + 2, rng.choice(SHAPES))
        nu = _window_kernel(cols)
        assert any(nu)
        for row in window_matrix(cols):
            assert sum(a * x for a, x in zip(row, nu)) == 0, cols
        if len(set(cols)) < len(cols):
            assert sorted(nu) == [-1] + [0] * d + [1]
    # distinct columns whose every cofactor vanishes: collinear, on a line
    # x = 2 (the first coordinate row depends on the ones row), and 3-D
    # points on the plane y = 0 (a zero row between two independent ones)
    for cols in (
        [(1, 2), (2, 4), (-1, -2), (0, 0)],
        [(2, 1), (2, 3), (2, 5), (2, 7)],
        [(1, 0, 5), (2, 0, 3), (3, 0, 1), (0, 0, 2), (5, 0, 0)],
    ):
        assert not any(_cofactor_kernel([(1, *v) for v in cols]))
        nu = _window_kernel(cols)
        assert any(nu) and all(
            sum(a * x for a, x in zip(row, nu)) == 0 for row in window_matrix(cols)
        ), cols


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
