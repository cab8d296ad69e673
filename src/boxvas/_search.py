"""Grid reachability engines over boxes [0, cap].

Two interchangeable implementations are kept on purpose so that higher-level
deciders can be differentially tested against each other:

* ``bfs_grid``: a breadth-first search that yields a witness path.  The box
  is embedded in a table padded by the most negative generator entry below
  and the largest positive one above in each coordinate, and flattened with
  ``_strides``, so a generator step is one integer offset.  It runs
  ``flat_bfs``, the one BFS kernel, which ``vass1_box_decide`` also runs on
  its (counter, state) table: cells outside the box hold a sentinel, so a
  step needs no bounds test, and the witness is rebuilt from the marks.
  Frontier order is deterministic (FIFO, generators expanded in index
  order), so witnesses are reproducible.
* ``reachable_bitmap``: a fixpoint over the whole grid encoded as one big
  integer bitmap; a generator step is a single shift-and-mask, applied in
  place so that later moves of the same round see its cells, and each range
  mask is one block doubled by shift-and-OR.  Faster for sweeps, decisions only.

Every table-based engine charges ``node_budget`` the same way, through
``check_cells``: a table of more cells than the budget (the grid for the
bitmap, the padded grid for the BFS, the unpadded configuration tables of
``vass1``) raises ``ResourceBudgetError`` before anything is allocated.
Both grid engines flatten their box with ``_strides``.
"""
from __future__ import annotations

from array import array
from itertools import product
from math import prod
from typing import Iterable, Sequence

from .core import Vector, dot
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
    # stride * width, so one block is doubled until it covers total_bits.
    period = stride * width
    mask = ((1 << ((hi - lo + 1) * stride)) - 1) << (lo * stride)
    while period < total_bits:
        mask |= mask << period
        period *= 2
    return mask & ((1 << total_bits) - 1)


def reachable_bitmap(
    generators: Sequence[Vector],
    cap: Sequence[int],
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> int:
    """Bitmap (as int) of all points of [0, cap] reachable from 0 inside the box.

    Bit ``sum(x_i * stride_i)`` is set iff x is reachable by generator steps
    that never leave [0, cap].  A round applies the moves in place, so each
    move also shifts the cells that earlier moves of the round added: the box
    is fixed and every move monotone, so the fixpoint is the same, in fewer rounds.
    """
    cap = tuple(cap)
    n = grid_cells(cap)
    check_cells("grid", n, node_budget)
    strides = _strides(cap)
    moves: list[tuple[int, int]] = []
    for g in generators:
        mask = (1 << n) - 1
        for gi, ci, si in zip(g, cap, strides):
            lo, hi = max(0, -gi), min(ci, ci - gi)
            if lo > hi:
                break  # g fits nowhere in the box
            if (lo, hi) != (0, ci):
                mask &= _coord_range_mask(n, si, ci + 1, lo, hi)
        else:
            moves.append((dot(g, strides), mask))
    reached = 1  # origin
    while True:
        before = reached
        for offset, mask in moves:
            src = reached & mask
            reached |= (src << offset) if offset >= 0 else (src >> -offset)
        if reached == before:
            return reached


def bitmap_has(bitmap: int, cap: Sequence[int], point: Sequence[int]) -> bool:
    strides = _strides(tuple(cap))
    return bool((bitmap >> dot(point, strides)) & 1)


def _mark_code(moves: int) -> tuple[str, int]:
    """The smallest array typecode whose cells hold 0, one mark i + 1 per move
    i and a larger sentinel; returns (typecode, sentinel)."""
    for code in "BHL":
        border = (1 << (8 * array(code).itemsize)) - 1
        if moves < border:
            break
    return code, border


def flat_bfs(
    cells: int,
    open_starts: Iterable[int],
    width: int,
    offsets: Sequence[int],
    classes: Sequence[Sequence[int]],
    start: int,
    goal: int,
) -> list[int] | None:
    """BFS over a flat table of ``cells`` cells: the move indices of a
    shortest path from ``start`` to ``goal``, or None.

    Only the runs of ``width`` cells from each of ``open_starts`` are open;
    the rest hold a sentinel, and the caller pads the table so that no move
    from an open cell leaves it.  Move i adds ``offsets[i]``, and cell p
    takes the moves of class ``classes[p % len(classes)]``, in order.  A
    cell holds 0 unseen, i + 1 when move i reached it first, or the sentinel
    (the start too).  The goal must be an open cell other than the start;
    once a level marks it, the path is rebuilt backwards from its mark.
    """
    code, border = _mark_code(len(offsets))
    via = array(code, [border]) * cells
    blank = array(code, [0]) * width
    for lo in open_starts:
        via[lo : lo + width] = blank
    via[start] = border
    moves = [[(offsets[i], i + 1) for i in cls] for cls in classes]
    nc = len(moves)
    # level by level: each level lists its cells in discovery order, which is
    # the order a FIFO queue would pop them
    frontier = [start]
    while frontier:
        level: list[int] = []
        push = level.append
        for p in frontier:
            for off, mark in moves[p % nc]:
                q = p + off
                if not via[q]:
                    via[q] = mark
                    push(q)
        if via[goal]:
            path: list[int] = []
            q = goal
            while q != start:
                i = via[q] - 1
                path.append(i)
                q -= offsets[i]
            path.reverse()
            return path
        frontier = level
    return None


def bfs_padding(
    generators: Sequence[Vector], cap: Sequence[int]
) -> tuple[list[int], list[int]]:
    """(below, padded) for ``bfs_grid``'s table over [0, cap]: the margin
    below the box in each coordinate (the most negative generator entry)
    and the padded extents, which add the largest positive entry above."""
    below = [max([0] + [-g[k] for g in generators]) for k in range(len(cap))]
    above = [max([0] + [g[k] for g in generators]) for k in range(len(cap))]
    return below, [b + c + a for b, c, a in zip(below, cap, above)]


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
    below, padded = bfs_padding(generators, cap)
    n = grid_cells(padded)
    check_cells("padded grid", n, node_budget)
    strides = _strides(padded)
    offsets = [dot(g, strides) for g in generators]
    # the first open cell of each row along the last coordinate
    rows = product(*(range(b, b + c + 1) for b, c in zip(below[:-1], cap[:-1])))
    starts = (dot(row, strides) + below[-1] for row in rows)
    start = dot(below, strides)
    goal = start + dot(target, strides)
    return flat_bfs(
        n, starts, cap[-1] + 1, offsets, [range(len(generators))], start, goal
    )
