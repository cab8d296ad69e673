import ast
import random
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import boxvas
from boxvas import (
    MalformedPathError,
    PathRecord,
    VasSystem,
    drop_peak,
    effect,
    is_box_reaching_trace,
    is_valid_n_trace,
    prefix_effects,
    reorder_counts,
)
from boxvas.core import walk

ZIGZAG = VasSystem(2, ((1, 7), (3, -6), (-2, 6)))


def test_system_validation():
    with pytest.raises(ValueError):
        VasSystem(0, ())
    with pytest.raises(ValueError):
        VasSystem(2, ((1,),))
    v = VasSystem(2, ((-1, 2), (2, -1), (10, 10)))
    assert v.norm == 2 * (2 + 2 + 10)


def test_effect_examples(ex1):
    assert effect(ex1, [2, 0, 1]) == (11, 11)
    assert effect(ex1, []) == (0, 0)
    assert effect(ZIGZAG, [0, 1]) == (4, 1)
    # a negative index must not wrap around the generator tuple
    for bad in ([3], [-1]):
        with pytest.raises(MalformedPathError):
            effect(ex1, bad)


def test_drop_peak_examples(ex1):
    # path (10,10),(-1,2),(2,-1): prefix (9,12) sets the y peak
    _, peak = drop_peak(ex1, [2, 0, 1])
    assert peak == (11, 12)
    assert drop_peak(ex1, []) == ((0, 0), (0, 0))
    # path (2,-1),(-1,2): prefixes (2,-1), (1,1)
    drop, peak = drop_peak(ex1, [1, 0])
    assert drop == (0, 1)
    assert peak == (2, 1)


def test_valid_n_trace_examples(ex1):
    assert is_valid_n_trace(ex1, [2] + [1] * 10, (0, 0))
    assert not is_valid_n_trace(ex1, [0], (0, 0))
    assert is_valid_n_trace(ex1, [1, 0], (0, 1))


def test_box_reaching_examples(ex1):
    assert is_box_reaching_trace(ex1, [2, 0, 1, 2], (21, 21))
    assert not is_box_reaching_trace(ex1, [2, 0, 1], (11, 11))
    assert is_box_reaching_trace(ex1, [], (0, 0))


def walk_per_step(vas, path):
    """(effect, drop, peak) from every prefix, one step at a time."""
    n = len(vas.generators)
    acc = lo = hi = (0,) * vas.dim
    for i in path:
        if not 0 <= i < n:
            raise MalformedPathError(f"path index {i} out of range for {n} generators")
        acc = tuple(a + x for a, x in zip(acc, vas.generators[i]))
        lo = tuple(map(min, lo, acc))
        hi = tuple(map(max, hi, acc))
    return acc, tuple(-x for x in lo), hi


def test_walk_matches_per_step_reference():
    rng = random.Random(5)
    for dim in (1, 2, 3):
        for _ in range(100):
            vas = VasSystem(
                dim,
                tuple(
                    tuple(rng.randint(-6, 6) for _ in range(dim))
                    for _ in range(rng.randint(1, 4))
                ),
            )
            n = len(vas.generators)
            runs = [
                (rng.randrange(n), rng.choice((1, 1, 2, 50)))
                for _ in range(rng.randint(0, 12))
            ]
            shapes = [
                [],
                [i for i, r in runs for _ in range(r)],
                [rng.randrange(n) for _ in range(rng.randint(1, 40))],
                [j % n for j in range(rng.randint(1, 40))],  # alternating
                [rng.randrange(n)] * 500,
            ]
            for path in shapes:
                assert walk(vas, path) == walk_per_step(vas, path), (vas, path)
                assert walk(vas, tuple(path)) == walk_per_step(vas, path)


def test_walk_names_the_first_bad_index_inside_a_run(ex1):
    cases = [
        ([0, 0, 3, 3, 3, 1], 3),
        ([2, 2, -1, -1, 5, 5], -1),
        ([1, 7, 7, -2], 7),
        ([-3, -3, -3], -3),
    ]
    for path, bad in cases:
        with pytest.raises(MalformedPathError, match=rf"^path index {bad} out of range"):
            walk(ex1, path)


def test_walk_blocks_match_per_step_reference():
    # walk reads paths of BLOCK (64) indices or more in blocks, composing
    # repeated blocks in closed form and walking the rest run by run
    rng = random.Random(28)
    signs = [set(), set()]

    def check(vas, path):
        assert walk(vas, path) == walk_per_step(vas, path), (vas, len(path))
        for start in range(0, len(path) - 63, 64):
            block_effect = walk_per_step(vas, path[start:start + 64])[0]
            for k, e in enumerate(block_effect[:2]):
                signs[k].add((e > 0) - (e < 0))

    cross = VasSystem(2, ((1, 0), (-1, 0), (0, 1), (0, -1), (1, -1)))
    for length in (63, 64, 65, 129, 3 * 64 + 5):
        for vas in (cross, ZIGZAG, VasSystem(3, ((2, -1, 0), (-1, 0, 3), (0, 1, -2)))):
            n = len(vas.generators)
            check(vas, [rng.randrange(n) for _ in range(length)])
            check(vas, [rng.randrange(n)] * length)
    for period in range(1, 71):
        for vas in (cross, ZIGZAG):
            n = len(vas.generators)
            unit = [rng.randrange(n) for _ in range(period)]
            other = [rng.randrange(n) for _ in range(rng.randint(1, 70))]
            for length in (64 * 5 + rng.randrange(64), 64 * 12):
                path = [unit[j % period] for j in range(length)]
                check(vas, path)
                # repeated blocks, then other blocks and the repeats again
                check(vas, path + [other[j % len(other)] for j in range(length)] + path)
    # every coordinate of some block falls, holds and rises
    assert signs == [{-1, 0, 1}, {-1, 0, 1}]
    four = VasSystem(2, ((-1, 2), (2, -1), (10, 10), (3, -4)))
    for types in ((0, 1), (1, 3), (0, 1, 3), (0, 2, 3), (0, 1, 2, 3)):
        for _ in range(4):
            counts = [0] * 4
            for i in types:
                counts[i] = rng.randint(1, 10**4)
            check(four, reorder_counts(four, counts))
    # a random path gives up its blocks past the first 256 and goes on run
    # by run, here into a periodic part
    for vas in (cross, ZIGZAG):
        n = len(vas.generators)
        check(vas, [rng.randrange(n) for _ in range(20000)] + [0, 1, 1] * 2000)
        check(vas, tuple(rng.randrange(n) for _ in range(64 * 300 + 7)))


def test_walk_blocks_name_the_first_bad_index(ex1):
    rng = random.Random(29)
    valid = [rng.randrange(3) for _ in range(64 * 3 + 5)]
    repeated = [rng.randrange(3) for _ in range(64)] * 5
    noise = [rng.randrange(3) for _ in range(20000)]
    cases = [
        # past the first block, with a later bad index too
        (valid[:64 + 9] + [3] + valid[64 + 9:] + [-1], 3),
        (valid[:64] + [-2] + valid[64:], -2),
        # inside the tail of len(path) % 64 indices
        (valid[:64 * 3 + 2] + [7] + valid[64 * 3 + 2:], 7),
        (valid + [4], 4),
        # after a group of repeated blocks, then a repeat again
        (repeated + repeated[:13] + [5] + repeated[13:] + [8] * 3, 5),
        (repeated + [-1] * 64 + repeated, -1),
        # in the run-by-run part after a random path's blocks are given up
        (noise[:19000] + [6] + noise[19000:] + [9], 6),
    ]
    for path, bad in cases:
        with pytest.raises(MalformedPathError, match=rf"^path index {bad} out of range"):
            walk(ex1, path)
        with pytest.raises(MalformedPathError, match=rf"^path index {bad} out of range"):
            walk_per_step(ex1, path)


def test_prefix_effects_starts_empty(ex1):
    effs = list(prefix_effects(ex1, [2, 0]))
    assert effs == [(0, 0), (10, 10), (9, 12)]


def test_path_record(ex1):
    rec = PathRecord.record(ex1, [2, 0, 1, 2])
    assert rec.effect == (21, 21)
    assert len(rec) == 4
    assert rec.drop == (0, 0)


paths = st.lists(st.integers(min_value=0, max_value=2), max_size=12)


@given(paths, paths)
def test_concatenation_properties(p, q):
    vas = ZIGZAG
    eff_p = effect(vas, p)
    eff_q = effect(vas, q)
    assert effect(vas, p + q) == tuple(a + b for a, b in zip(eff_p, eff_q))
    _, peak_p = drop_peak(vas, p)
    _, peak_q = drop_peak(vas, q)
    _, peak_pq = drop_peak(vas, p + q)
    assert peak_pq == tuple(
        max(pp, ep + pq_) for pp, ep, pq_ in zip(peak_p, eff_p, peak_q)
    )


@given(paths)
def test_drop_peak_bracket_effect(p):
    vas = ZIGZAG
    eff = effect(vas, p)
    drop, peak = drop_peak(vas, p)
    for k in range(2):
        assert drop[k] >= 0 and peak[k] >= 0
        assert -drop[k] <= eff[k] <= peak[k]


@given(
    paths,
    st.tuples(st.integers(0, 30), st.integers(0, 30)),
    st.tuples(st.integers(0, 8), st.integers(0, 8)),
)
def test_box_reaching_implies_valid_trace(p, target, start):
    vas = ZIGZAG
    # reference: a direct check over every prefix, independent of the kernel
    prefixes = list(prefix_effects(vas, p))
    reached = tuple(max(0, e) for e in prefixes[-1])
    for t in (target, reached):
        in_box = all(0 <= e <= b for q in prefixes for e, b in zip(q, t))
        assert is_box_reaching_trace(vas, p, t) == (in_box and prefixes[-1] == t)
        if is_box_reaching_trace(vas, p, t):
            assert is_valid_n_trace(vas, p, (0, 0))
            assert effect(vas, p) == t
    stays = all(s + e >= 0 for q in prefixes for s, e in zip(start, q))
    assert is_valid_n_trace(vas, p, start) == stays


def test_package_has_no_assert_statements():
    # python -O strips assert statements, so every guard must raise instead
    for source in sorted(Path(boxvas.__file__).parent.glob("*.py")):
        tree = ast.parse(source.read_text(encoding="utf-8"), filename=str(source))
        lines = [n.lineno for n in ast.walk(tree) if isinstance(n, ast.Assert)]
        assert not lines, f"{source.name}: assert statements at lines {lines}"


def test_package_has_no_raise_valueerror():
    # cli maps InvalidInputError to a usage error; a bare ValueError from the
    # package would be an engine fault passed off as one
    for source in sorted(Path(boxvas.__file__).parent.glob("*.py")):
        tree = ast.parse(source.read_text(encoding="utf-8"), filename=str(source))
        raised = [
            (n.lineno, n.exc.func if isinstance(n.exc, ast.Call) else n.exc)
            for n in ast.walk(tree)
            if isinstance(n, ast.Raise) and n.exc is not None
        ]
        lines = [
            no
            for no, exc in raised
            if isinstance(exc, ast.Name) and exc.id == "ValueError"
        ]
        assert not lines, f"{source.name}: raise ValueError at lines {lines}"


def test_package_has_no_unreferenced_definitions():
    # a module-level function or class that no module of the package names
    # (in a call, an attribute or an import) and that is not exported is dead
    defined: list[tuple[str, str]] = []
    named: set[str] = set()
    for source in sorted(Path(boxvas.__file__).parent.glob("*.py")):
        tree = ast.parse(source.read_text(encoding="utf-8"), filename=str(source))
        defined += [
            (source.name, node.name)
            for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        ]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif isinstance(node, ast.alias):
                named.add(node.name)
    dead = [
        f"{module}:{name}"
        for module, name in defined
        if name not in named and name not in boxvas.__all__
    ]
    assert not dead, f"unreferenced definitions: {dead}"
    missing = [name for name in boxvas.__all__ if not hasattr(boxvas, name)]
    assert not missing, f"__all__ names that do not resolve: {missing}"
