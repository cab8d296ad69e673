"""Reduction of box-reachability to plain reachability by doubling dimension.

A d-dimensional generator g becomes (g, -g) in 2d dimensions, and one pump
generator e_{d+i} is added per mirror coordinate.  Writing a configuration
as (x, y) and P for the pump counts, y = P - x holds throughout, so y >= 0
forces x <= P <= t on every prefix of a run to (t, 0).  Hence t is
box-reachable in the original system iff (t, 0) is reachable in the lifted
one, and every successful lifted run stays within the box [0, (t, t)], so
the capped engine decides it exactly.

``lift_vas`` returns the lifted system itself, a plain ``VasSystem``.
"""
from __future__ import annotations

from typing import Sequence

from ._search import DEFAULT_NODE_BUDGET, bfs_grid, bitmap_has, reachable_bitmap
from .core import VasSystem, check_target, is_box_reaching_trace
from .errors import InternalCheckError


def lift_vas(vas: VasSystem) -> VasSystem:
    """The lifted system: the mirrored generators first, in order, then the
    d pumps, so dropping the indices >= len(vas.generators) from a lifted
    path projects it back onto ``vas``."""
    d = vas.dim
    mirrored = [g + tuple(-x for x in g) for g in vas.generators]
    pumps = [
        tuple(1 if k == d + i else 0 for k in range(2 * d)) for i in range(d)
    ]
    return VasSystem(2 * d, tuple(mirrored + pumps))


def decide_box_via_lift(
    vas: VasSystem,
    target: Sequence[int],
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> bool:
    """Box-reachability decided through the lifted system.

    Independent of the direct grid deciders, so the two can differentially
    test each other.  The empty path reaches the target 0, which is
    answered true without a table.
    """
    t = check_target(target, vas.dim)
    if not any(t):
        return True
    cap = t + t
    bitmap = reachable_bitmap(lift_vas(vas).generators, cap, node_budget)
    return bitmap_has(bitmap, cap, t + (0,) * vas.dim)


def box_witness_via_lift(
    vas: VasSystem,
    target: Sequence[int],
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> list[int] | None:
    """A box-reaching witness for the original system obtained by searching
    the lifted one and projecting out the pump steps; re-verified.  The
    target 0 gets the empty path without a table."""
    t = check_target(target, vas.dim)
    if not any(t):
        return []
    cap = t + t
    path = bfs_grid(lift_vas(vas).generators, cap, t + (0,) * vas.dim, node_budget)
    if path is None:
        return None
    projected = [i for i in path if i < len(vas.generators)]
    if not is_box_reaching_trace(vas, projected, t):
        raise InternalCheckError("projected lifted witness is not box-reaching")
    return projected
