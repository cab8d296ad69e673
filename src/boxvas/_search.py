"""Grid reachability engines over boxes [0, cap].

Two interchangeable implementations are kept on purpose so that higher-level
deciders can be differentially tested against each other:

* ``bfs_grid``: a breadth-first search that yields a witness path.  The box
  is embedded in a table padded by the most negative generator entry below
  and the largest positive one above in each coordinate, and flattened with
  ``_strides``, so a generator step is one integer offset and needs no bounds
  test.  Each cell holds one byte: 0 unseen, i + 1 when generator i reached
  it first, a sentinel for the start cell and for the padding.  The witness
  is rebuilt by subtracting offsets from the target back to the start.
  Frontier order is deterministic (FIFO, generators expanded in index
  order), so witnesses are reproducible.
* ``reachable_bitmap``: a fixpoint over the whole grid encoded as one big
  integer bitmap; a generator step is a single shift-and-mask.  Much faster
  for sweeps, but yields decisions only.

Every table-based engine charges ``node_budget`` the same way, through
``check_cells``: a table of more cells than the budget (the grid for the
bitmap, the padded grid for the BFS, the configuration tables of ``vass1``)
raises ``ResourceBudgetError`` before anything is allocated.  Both grid
engines flatten their box with ``_strides``.
"""
from __future__ import annotations

from array import array
from itertools import product
from math import prod
from typing import Sequence

from .core import Vector
from .errors import ResourceBudgetError

DEFAULT_NODE_BUDGET = 10_000_000


def grid_cells(cap: Sequence[int]) -> int:
    return prod(c + 1 for c in cap)


def check_cells(what: str, cells: int, node_budget: int) -> None:
    """Refuse a table of ``cells`` cells that exceeds ``node_budget``; every
    engine calls this before it allocates the table."""
    if cells > node_budget:
        raise ResourceBudgetError(
            f"{what} of {cells} cells exceeds node budget {node_budget}", node_budget
        )


def _strides(cap: Sequence[int]) -> list[int]:
    d = len(cap)
    s = [1] * d
    for i in range(d - 2, -1, -1):
        s[i] = s[i + 1] * (cap[i + 1] + 1)
    return s


def _coord_range_mask(total_bits: int, stride: int, width: int, lo: int, hi: int) -> int:
    # Bitmap of all cells whose i-th coordinate lies in [lo, hi]; the i-th
    # coordinate occupies blocks of `stride` cells repeating with period
    # stride * width.
    period = stride * width
    block = ((1 << ((hi - lo + 1) * stride)) - 1) << (lo * stride)
    reps = total_bits // period
    return block * (((1 << (reps * period)) - 1) // ((1 << period) - 1))


def reachable_bitmap(
    generators: Sequence[Vector],
    cap: Sequence[int],
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> int:
    """Bitmap (as int) of all points of [0, cap] reachable from 0 inside the box.

    Bit ``sum(x_i * stride_i)`` is set iff x is reachable by generator steps
    that never leave [0, cap].
    """
    cap = tuple(cap)
    n = grid_cells(cap)
    check_cells("grid", n, node_budget)
    strides = _strides(cap)
    moves: list[tuple[int, int]] = []
    for g in generators:
        mask = (1 << n) - 1
        ok = True
        for gi, ci, si in zip(g, cap, strides):
            lo = max(0, -gi)
            hi = min(ci, ci - gi)
            if lo > hi:
                ok = False
                break
            if (lo, hi) != (0, ci):
                mask &= _coord_range_mask(n, si, ci + 1, lo, hi)
        if ok:
            offset = sum(gi * si for gi, si in zip(g, strides))
            moves.append((offset, mask))
    reached = 1  # origin
    while True:
        new = reached
        for offset, mask in moves:
            src = reached & mask
            new |= (src << offset) if offset >= 0 else (src >> -offset)
        if new == reached:
            return reached
        reached = new


def bitmap_has(bitmap: int, cap: Sequence[int], point: Sequence[int]) -> bool:
    strides = _strides(tuple(cap))
    idx = sum(x * s for x, s in zip(point, strides))
    return bool((bitmap >> idx) & 1)


def _mark_code(moves: int) -> tuple[str, int]:
    """The smallest array typecode whose cells hold 0, one mark i + 1 per move
    i and a larger sentinel; returns (typecode, sentinel)."""
    for code in "BHL":
        border = (1 << (8 * array(code).itemsize)) - 1
        if moves < border:
            break
    return code, border


def bfs_grid(
    generators: Sequence[Vector],
    cap: Sequence[int],
    target: Sequence[int],
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> list[int] | None:
    """BFS from 0 inside [0, cap]; returns a witness index path to ``target``.

    Returns None when the target is unreachable or lies outside the cap.
    Deterministic: FIFO frontier, generators tried in index order, so the
    returned witness is a stable fixture for a given instance.  Raises
    ``ResourceBudgetError`` before allocating when the padded table has more
    than ``node_budget`` cells.
    """
    cap = tuple(cap)
    target = tuple(target)
    if len(target) != len(cap) or not all(0 <= x <= c for x, c in zip(target, cap)):
        return None
    if not any(target):
        return []
    below = [max([0] + [-g[k] for g in generators]) for k in range(len(cap))]
    above = [max([0] + [g[k] for g in generators]) for k in range(len(cap))]
    padded = [b + c + a for b, c, a in zip(below, cap, above)]
    n = grid_cells(padded)
    check_cells("padded grid", n, node_budget)
    strides = _strides(padded)
    offsets = [sum(gk * sk for gk, sk in zip(g, strides)) for g in generators]
    # cell value: 0 unseen, i + 1 reached first by generator i, `border` for
    # the start cell and every cell outside [0, cap]
    code, border = _mark_code(len(generators))
    via = array(code, [border]) * n
    width = cap[-1] + 1
    blank = array(code, [0]) * width
    for row in product(*(range(b, b + c + 1) for b, c in zip(below[:-1], cap[:-1]))):
        lo = sum(x * s for x, s in zip(row, strides)) + below[-1]
        via[lo : lo + width] = blank
    start = sum(b * s for b, s in zip(below, strides))
    goal = start + sum(x * s for x, s in zip(target, strides))
    via[start] = border
    moves = [(off, i + 1) for i, off in enumerate(offsets)]
    # level by level: each level lists its cells in discovery order, which is
    # the order a FIFO queue would pop them
    frontier = [start]
    while frontier:
        level: list[int] = []
        push = level.append
        for p in frontier:
            for off, mark in moves:
                q = p + off
                if not via[q]:
                    via[q] = mark
                    if q == goal:
                        path: list[int] = []
                        while q != start:
                            i = via[q] - 1
                            path.append(i)
                            q -= offsets[i]
                        path.reverse()
                        return path
                    push(q)
        frontier = level
    return None
