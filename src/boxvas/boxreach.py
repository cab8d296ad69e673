"""Box-reachability deciders, thresholds, and constructive witness synthesis.

Box reachability of t is reachability capped at t, so there is one grid
decider, ``decide_reach_capped``, and ``decide_box_reach`` is that decider
at cap = t with a witness.  It refutes a target outside the generators'
integer lattice before any search, and otherwise runs on either of two
deliberately distinct engines (plain BFS vs. bitmap fixpoint), which
differentially test each other.  The threshold W is the bound above which
reachability and box-reachability coincide for 2-dimensional systems; for
one counter it is M1 = 2*norm^3, proven without a table in
``one_vas_threshold``.
``synthesize_box_witness`` rebuilds the corresponding constructive proof,
emitting an actual box-reaching path.  Every witness is walked once, where
its ``PathRecord`` is built, and ``_bundle`` checks that record with
``PathRecord.box_reaches`` before the witness is returned.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from operator import countOf
from typing import Sequence

from ._search import (
    DEFAULT_NODE_BUDGET,
    bfs_grid,
    bfs_padding,
    bitmap_has,
    check_cells,
    grid_cells,
    reachable_bitmap,
)
from .core import (
    PathRecord,
    VasSystem,
    Vector,
    check_target,
    combination,
    dot,
    # the next three are not called here; perfbench/tracing.py patches them
    effect,
    is_box_reaching_trace,
    is_valid_n_trace,
    vec_scale,
    vec_sub,
)
from .errors import (
    EvidenceError,
    InternalCheckError,
    PreconditionError,
    ResourceBudgetError,
)
from .geometry import (
    DEFAULT_INT_CONE_BUDGET,
    ConeData,
    ConeKind,
    DeepConstant,
    Membership,
    QuadrantRelation,
    _extremal_facet,
    _on_line,
    _require_dim2,
    compute_seed,
    cone_from_generators,
    default_deep_constant,
    int_cone_member,
    is_m_deep,
    lattice_member,
)
from .steinitz import reorder_counts


class ThresholdCase(Enum):
    CONTAINS_QUADRANT = "contains-quadrant"
    CONTAINED_IN_QUADRANT = "contained-in-quadrant"
    INTERSECTS_QUADRANT = "intersects-quadrant"
    ONE_DIMENSIONAL = "one-dimensional"
    HALF_OR_FULL_PLANE = "half-or-full-plane"
    DEGENERATE = "degenerate"


class WitnessMethod(Enum):
    BFS_SEARCH = "bfs-search"
    PROOF_CASE_1 = "proof-case-1"
    PROOF_CASE_2 = "proof-case-2"


@dataclass(frozen=True)
class ThresholdReport:
    w: int
    case_tag: ThresholdCase
    m_used: DeepConstant
    formula_trace: str
    degenerate: bool = False


@dataclass(frozen=True)
class WitnessBundle:
    path: PathRecord
    target: Vector
    method: WitnessMethod


@dataclass(frozen=True)
class OneVasThreshold:
    m1: int
    min_step: int
    degenerate: bool


@dataclass(frozen=True)
class WindowReport:
    violations: tuple[Vector, ...]
    skipped: tuple[Vector, ...]
    checked: int
    cap_margin: int


def _bundle(
    vas: VasSystem,
    indices: Sequence[int],
    target: Vector,
    method: WitnessMethod,
    cap: Vector | None = None,
) -> WitnessBundle:
    record = PathRecord.record(vas, indices)
    if not record.box_reaches(target, cap):
        raise InternalCheckError(
            f"constructed witness does not reach {target} inside "
            f"[0, {target if cap is None else cap}]"
        )
    return WitnessBundle(path=record, target=target, method=method)


def witness_length_lower_bound(vas: VasSystem, target: Sequence[int]) -> int:
    """A lower bound on the number of steps of any path from 0 to ``target``.

    One step raises coordinate k by at most the largest positive entry of a
    generator in coordinate k, so t_k needs at least ceil(t_k / that entry)
    steps; the bound is the largest of these over the positive coordinates.
    It can be below the fewest steps, because the generator that raises one
    coordinate most need not raise the others.
    """
    bound = 0
    for k, x in enumerate(check_target(target, vas.dim)):
        if x == 0:
            continue
        top = max(g[k] for g in vas.generators)
        if top <= 0:
            raise PreconditionError(
                f"no generator raises coordinate {k}, so {tuple(target)} "
                "is unreachable"
            )
        bound = max(bound, -(-x // top))
    return bound


def decide_box_reach(
    vas: VasSystem,
    target: Sequence[int],
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> tuple[bool, WitnessBundle | None]:
    """Exact decision by BFS over the grid [0, target]; witness on success.
    Box reachability of t is reachability capped at t."""
    return decide_reach_capped(vas, target, target, node_budget, want_witness=True)


def decide_reach_capped(
    vas: VasSystem,
    target: Sequence[int],
    cap: Sequence[int],
    node_budget: int = DEFAULT_NODE_BUDGET,
    want_witness: bool = False,
) -> tuple[bool, WitnessBundle | None]:
    """Reachability of ``target`` with every intermediate point within ``cap``.

    The default engine is the bitmap fixpoint (decision only); requesting a
    witness switches to the BFS engine.  The empty path reaches t = 0 inside
    any cap, so 0 is answered True (with that path as the witness) before
    either engine runs.  Every path to t sums generators, so a nonzero t
    outside their integer lattice is answered (False, None) without a
    search.  That test runs after the selected engine's cell check, so a
    table over ``node_budget`` is refused whatever the nonzero target.
    """
    t = check_target(target, vas.dim)
    c = check_target(cap, vas.dim, "cap")
    if not all(x <= y for x, y in zip(t, c)):
        raise PreconditionError(f"target {t} exceeds cap {c}")
    if not any(t):
        if want_witness:
            return True, _bundle(vas, [], t, WitnessMethod.BFS_SEARCH, cap=c)
        return True, None
    if want_witness:
        padded = bfs_padding(vas.generators, c)[1]
        check_cells("padded grid", grid_cells(padded), node_budget)
    else:
        check_cells("grid", grid_cells(c), node_budget)
    if not lattice_member(vas, t):
        return False, None
    if want_witness:
        path = bfs_grid(vas.generators, c, t, node_budget)
        if path is None:
            return False, None
        return True, _bundle(vas, path, t, WitnessMethod.BFS_SEARCH, cap=c)
    bitmap = reachable_bitmap(vas.generators, c, node_budget)
    return bitmap_has(bitmap, c, t), None


def one_vas_threshold(vas: VasSystem) -> OneVasThreshold:
    """The bound M1 = 2*norm^3 above which reachability equals
    box-reachability for a one-dimensional system.

    Above 2*norm^3 reachability reduces to a small-residue representative
    k <= norm^3, so M1 is the larger of 2*norm^3 and the least peak of
    every reachable k <= norm^3.  That peak never exceeds 2*norm^3: take
    the steps of any path to k and apply a negative step whenever one fits,
    a positive one otherwise.  Every prefix then stays inside
    [0, max(k, N + P - 1)], where N and P are the largest negative and
    positive step sizes, and N + P <= norm.
    """
    if vas.dim == 1:
        return _m1(vas, [g[0] for g in vas.generators])
    if vas.dim == 2:
        cone = cone_from_generators(vas)
        if cone.kind in (ConeKind.ZERO_ONLY, ConeKind.RAY, ConeKind.LINE):
            return _m1(vas, _line_steps(vas, cone))
    raise PreconditionError(
        "system is not one-dimensional (generators span two directions)"
    )


def _line_steps(vas: VasSystem, cone: ConeData) -> list[int]:
    """The steps of a collinear 2-VAS: the entries of the generators on its
    line in the first nonzero coordinate of the line's ray inside the
    quadrant, or none when no ray of the line lies there."""
    chis = (cone.chi1, cone.chi2)
    ray = next((d for d in chis if d is not None and min(d) >= 0), None)
    if ray is None:
        return []
    k = 0 if ray[0] else 1
    return [vas.generators[i][k] for i in _on_line(vas.generators, ray)]


def _m1(vas: VasSystem, steps: Sequence[int]) -> OneVasThreshold:
    """M1 = 2*norm^3 with the least positive step, or degenerate when no
    step is positive."""
    positive = [a for a in steps if a > 0]
    if not positive:
        return OneVasThreshold(m1=0, min_step=0, degenerate=True)
    return OneVasThreshold(m1=2 * vas.norm**3, min_step=min(positive), degenerate=False)


def compute_threshold(
    vas: VasSystem, m: DeepConstant | None = None
) -> ThresholdReport:
    """The threshold W for a 2-VAS, dispatching on how its cone meets the
    quadrant (``ConeData.quadrant_relation``), or for one counter, where it
    is M1."""
    return _threshold(vas, m)[0]


def _threshold(
    vas: VasSystem, m: DeepConstant | None
) -> tuple[ThresholdReport, ConeData | None]:
    """``compute_threshold`` with the cone it classified (None when it
    classified none), so that synthesis classifies the cone once."""
    if vas.dim != 1:
        _require_dim2(vas)
    m_used = m if m is not None else default_deep_constant(vas)
    n = vas.norm

    if not any(any(g) and min(g) >= 0 for g in vas.generators):
        # no first step stays in the quadrant, so only 0 is reachable
        return ThresholdReport(
            0,
            ThresholdCase.DEGENERATE,
            m_used,
            "no nonzero nonnegative generator; reach = {0}, W vacuous",
            degenerate=True,
        ), None
    if vas.dim == 1:
        return _m1_report(one_vas_threshold(vas), m_used), None
    cone = cone_from_generators(vas)
    relation = cone.quadrant_relation
    plane = cone.kind in (ConeKind.HALF_PLANE, ConeKind.FULL_PLANE)
    if relation is QuadrantRelation.CONTAINED_IN_QUADRANT:
        report = ThresholdReport(
            0,
            ThresholdCase.CONTAINED_IN_QUADRANT,
            m_used,
            "all generators nonnegative; W = 0",
        )
    elif cone.kind in (ConeKind.RAY, ConeKind.LINE):
        # the nonzero nonnegative generator gives the line a positive step
        report = _m1_report(_m1(vas, _line_steps(vas, cone)), m_used)
    elif relation in (QuadrantRelation.ALONG_X_AXIS, QuadrantRelation.ALONG_Y_AXIS):
        axis = 0 if relation is QuadrantRelation.ALONG_X_AXIS else 1
        report = _axis_ray_threshold(vas, axis, m_used)
    elif plane or relation is QuadrantRelation.CONTAINS_QUADRANT:
        w = 16 * n**3 + m_used.value
        report = ThresholdReport(
            w,
            ThresholdCase.HALF_OR_FULL_PLANE
            if plane
            else ThresholdCase.CONTAINS_QUADRANT,
            m_used,
            f"W = 16*norm^3 + M = 16*{n}^3 + {m_used.value} = {w}",
        )
    elif relation in (
        QuadrantRelation.INTERSECTS_VIA_X_AXIS_SIDE,
        QuadrantRelation.INTERSECTS_VIA_Y_AXIS_SIDE,
    ):
        w = 16 * n**4 + 4 * n + n * m_used.value
        report = ThresholdReport(
            w,
            ThresholdCase.INTERSECTS_QUADRANT,
            m_used,
            f"W = 16*norm^4 + 4*norm + norm*M = 16*{n}^4 + 4*{n} + "
            f"{n}*{m_used.value} = {w}",
        )
    else:
        raise InternalCheckError(
            f"unclassified cone shape {cone.kind.value} meeting the quadrant "
            f"as {relation.value}"
        )
    return report, cone


def _m1_report(one: OneVasThreshold, m_used: DeepConstant) -> ThresholdReport:
    """W = M1 for a one-counter or collinear system with a positive step."""
    return ThresholdReport(
        one.m1,
        ThresholdCase.ONE_DIMENSIONAL,
        m_used,
        f"one-dimensional; W = M1 = {one.m1}",
    )


def _axis_ray_threshold(
    vas: VasSystem, axis: int, m_used: DeepConstant
) -> ThresholdReport:
    """W for a cone that meets the quadrant along one axis ray: inside the
    quadrant only the steps along that axis fire, so they form a
    one-dimensional system, and W is its M1 (0 when every step is positive,
    since then any order of a multiset is box-reaching)."""
    unit = (1, 0) if axis == 0 else (0, 1)
    steps = [vas.generators[i][axis] for i in _on_line(vas.generators, unit)]
    if min(steps) > 0:
        w, where = 0, "only positive axis-parallel steps fire; reach = box-reach, W = 0"
    else:
        w = one_vas_threshold(VasSystem(1, tuple((a,) for a in steps))).m1
        where = f"only the axis-parallel steps fire; W = M1 = {w}"
    return ThresholdReport(
        w,
        ThresholdCase.ONE_DIMENSIONAL,
        m_used,
        f"cone meets the quadrant along one axis ray, where {where}",
    )


def _one_dim_witness(vas: VasSystem, t: Vector) -> WitnessBundle:
    """Box-reaching witness for a target of a one-counter system, or on the
    reachable ray of a collinear 2-D system, searched on the ray alone.

    A one-counter system is searched over [0, t] as it is.  In 2-D, inside
    [0, t] only generators parallel to t can fire (the cone meets the
    quadrant in that ray), so a BFS over [0, max(t)] with their entries in
    t's largest coordinate finds the same path as a 2-D BFS, in time linear
    in the target rather than in the box.
    """
    if not any(t):
        return _bundle(vas, [], t, WitnessMethod.BFS_SEARCH)
    if vas.dim == 1:
        kept: Sequence[int] = range(len(vas.generators))
        k = 0
    else:
        kept = _on_line(vas.generators, t)
        k = 0 if t[0] >= t[1] else 1
    path = bfs_grid([(vas.generators[i][k],) for i in kept], (t[k],), (t[k],))
    if path is None:
        raise InternalCheckError(
            "one-dimensional target above M1 was not box-reachable"
        )
    return _bundle(vas, [kept[i] for i in path], t, WitnessMethod.BFS_SEARCH)


def synthesize_box_witness(
    vas: VasSystem,
    target: Sequence[int],
    coefficients: Sequence[int] | None = None,
    path: Sequence[int] | None = None,
    m: DeepConstant | None = None,
) -> WitnessBundle:
    """Build a box-reaching path to a target at or above the threshold W.

    Evidence that the target is reachable must be supplied: nonnegative
    generator coefficients, or an unconstrained-from-above path.  The shallow
    branch of the intersects-quadrant case consumes facet-parallel steps of
    the evidence path, so coefficients alone are rejected there.

    Proof case 1 emits theta . rho . theta, where theta is the seed path to
    s_pos and rho reorders a least-length multiset of generators summing to
    r = t - 2*s_pos, from an ``int_cone_member`` solve.  The solve runs first
    among the generators of which the evidence keeps copies after the two
    copies of theta, so rho draws on the evidence's own generators and is no
    longer than the evidence whenever the evidence holds both copies of
    theta, and among all of them when r is outside that integer cone.  An
    UNDECIDED solve raises ``ResourceBudgetError``.  When every generator is
    nonnegative the witness reorders the evidence itself.  The result is
    re-verified before being returned; a constructed path that fails the
    check raises ``InternalCheckError``, with no second attempt.
    """
    if vas.dim != 1:
        _require_dim2(vas)
    t = check_target(target, vas.dim)
    if (coefficients is None) == (path is None):
        raise PreconditionError(
            "supply exactly one of coefficients= or path= as evidence"
        )

    counts: list[int]
    if coefficients is not None:
        counts = [int(c) for c in coefficients]
        if len(counts) != len(vas.generators) or any(c < 0 for c in counts):
            raise PreconditionError(
                "coefficients must be one nonnegative integer per generator"
            )
        acc = combination(vas.generators, counts)
        if acc != t:
            raise PreconditionError(
                f"coefficients sum to {acc}, not the target {t}"
            )
    else:
        if path is None:
            raise InternalCheckError("neither coefficients nor path as evidence")
        evidence = PathRecord.record(vas, path)
        if evidence.effect != t:
            raise PreconditionError("evidence path does not end at the target")
        if any(evidence.drop):
            raise PreconditionError("evidence path leaves the nonnegative quadrant")
        counts = [countOf(evidence.indices, i) for i in range(len(vas.generators))]

    report, cone = _threshold(vas, m)
    if report.degenerate:
        raise PreconditionError("degenerate system: threshold is vacuous")
    # in one dimension the threshold constrains the value along the
    # reachable ray, not both coordinates (an axis ray pins one to 0)
    one_dim = report.case_tag is ThresholdCase.ONE_DIMENSIONAL
    if (max(t) if one_dim else min(t)) < report.w:
        raise PreconditionError(f"target {t} is below the threshold W = {report.w}")
    if one_dim:
        return _one_dim_witness(vas, t)

    if report.case_tag is ThresholdCase.CONTAINED_IN_QUADRANT:
        # all generators nonnegative: any multiset order is box-reaching
        order = reorder_counts(vas, counts)
        return _bundle(vas, order, t, WitnessMethod.PROOF_CASE_1)

    seed = compute_seed(vas)
    theta = list(seed.pos_witness_indices())
    r = vec_sub(t, vec_scale(2, seed.s_pos))

    def case1() -> WitnessBundle:
        # any multiset summing to r serves as rho, since the reordering bound
        # depends only on the generators.  rho is a least-length solve for r
        # among the generators the evidence has left after theta (the others
        # zeroed, so indices stay put), so its length follows the evidence,
        # not the cone's shortcuts; among all generators when r is outside
        # that cone
        rest = counts[:]
        for i in theta:
            rest[i] -= 2
        spare = VasSystem(2, tuple(
            g if c > 0 else (0, 0) for g, c in zip(vas.generators, rest)
        ))
        for system in (spare, vas):
            res = int_cone_member(system, r)
            if res.status is Membership.UNDECIDED:
                raise ResourceBudgetError(
                    "integer-cone solve exhausted its budget", DEFAULT_INT_CONE_BUDGET
                )
            if res.is_member and res.coefficients is not None:
                break
        else:
            raise InternalCheckError(
                f"{r} is not an integer-cone member, contradicting the "
                "deep-point argument"
            )
        rho = reorder_counts(vas, res.coefficients)
        return _bundle(vas, theta + rho + theta, t, WitnessMethod.PROOF_CASE_1)

    # the other cases, and deep intersects-quadrant residuals, go through
    # case 1; shallow ones consume facet-parallel steps of the evidence path
    intersects = report.case_tag is ThresholdCase.INTERSECTS_QUADRANT
    if not intersects or is_m_deep(cone, r, report.m_used.value):
        return case1()
    if path is None:
        raise EvidenceError(
            "shallow intersects-quadrant target: an explicit evidence path "
            "is required (coefficients are not enough)"
        )
    f_pos = _extremal_facet(cone, 1)
    if f_pos is None:
        raise InternalCheckError("no strictly positive extremal in intersect case")
    need = 4 * vas.norm
    chosen: list[int] = []
    for i in path:
        # facet-parallel steps are positive multiples of the strictly
        # positive extremal, so they are monotone in both coordinates
        g = vas.generators[i]
        if dot(f_pos, g) == 0 and g[0] > 0:
            chosen.append(i)
            if len(chosen) == need:
                break
    if len(chosen) < need:
        raise InternalCheckError(
            "evidence path lacks the guaranteed facet-parallel steps"
        )
    half = need // 2
    mu, eta = chosen[:half], chosen[half:]
    remaining = counts[:]
    for i in chosen:
        remaining[i] -= 1
    if any(c < 0 for c in remaining):
        raise InternalCheckError("facet-parallel extraction over-consumed steps")
    xi = reorder_counts(vas, remaining)
    return _bundle(vas, mu + xi + eta, t, WitnessMethod.PROOF_CASE_2)


def verify_window(
    vas: VasSystem,
    window_lo: Sequence[int],
    window_size: Sequence[int],
    cap_margin: int | None = None,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> WindowReport:
    """Sweep a rectangle of targets and report every capped-reachable target
    that is not box-reachable.

    Capped-reachable implies reachable, so any hit with the window at or
    above W falsifies the threshold guarantee or this implementation.  Targets
    whose grids exceed the node budget are listed as skipped.
    """
    _require_dim2(vas)
    lo = check_target(window_lo, 2, "window lo")
    size = check_target(window_size, 2, "window size")
    margin = cap_margin if cap_margin is not None else 2 * vas.norm
    if margin < 0:
        raise PreconditionError("cap_margin must be nonnegative")
    violations: list[Vector] = []
    skipped: list[Vector] = []
    checked = 0
    for x in range(lo[0], lo[0] + size[0] + 1):
        for y in range(lo[1], lo[1] + size[1] + 1):
            t = (x, y)
            cap = (x + margin, y + margin)
            try:
                capped, _ = decide_reach_capped(vas, t, cap, node_budget)
                if capped:
                    boxed, _ = decide_reach_capped(vas, t, t, node_budget)
                else:
                    boxed = False
            except ResourceBudgetError:
                skipped.append(t)
                continue
            checked += 1
            if capped and not boxed:
                violations.append(t)
    return WindowReport(
        violations=tuple(violations),
        skipped=tuple(skipped),
        checked=checked,
        cap_margin=margin,
    )
