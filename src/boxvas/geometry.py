"""Cone machinery for 2-D systems, and lattice membership in any dimension.

``_LatticeSolver`` decides membership in the generators' integer lattice
for every dimension; the deciders of ``boxreach`` use it to refute
off-lattice targets before any grid search.  Cone classification, facets
and integer-cone membership are 2-dimensional.

Everything here is exact integer / rational arithmetic.  The cone of a
2-dimensional system is classified by sorting generator directions by angle
and looking at the largest cyclic gap: a gap over 180 degrees leaves a
pointed cone, exactly 180 a half-plane, anything less the full plane.
"""
from __future__ import annotations

import heapq
import itertools
from collections import deque
from dataclasses import dataclass
from enum import Enum
from functools import cmp_to_key
from math import gcd
from typing import Callable, Hashable, Sequence

from .core import (
    PathRecord,
    VasSystem,
    Vector,
    combination,
    dot,
    inf_norm,
    is_box_reaching_trace,  # not called here; perfbench/tracing.py patches it
    vec_scale,
    vec_sub,
)
from .errors import (
    DegenerateSystemError,
    InternalCheckError,
    InvalidInputError,
    PreconditionError,
    UnsupportedDimensionError,
)

DEFAULT_INT_CONE_BUDGET = 1_000_000


class ConeKind(Enum):
    ZERO_ONLY = "zero-only"
    RAY = "ray"
    LINE = "line"
    PROPER_CONE = "proper-cone"
    HALF_PLANE = "half-plane"
    FULL_PLANE = "full-plane"


class QuadrantRelation(Enum):
    CONTAINS_QUADRANT = "contains-quadrant"
    CONTAINED_IN_QUADRANT = "contained-in-quadrant"
    INTERSECTS_VIA_X_AXIS_SIDE = "intersects-via-x-axis-side"
    INTERSECTS_VIA_Y_AXIS_SIDE = "intersects-via-y-axis-side"
    OTHER = "other"


class Membership(Enum):
    MEMBER = "member"
    NON_MEMBER = "non-member"
    UNDECIDED = "undecided"


@dataclass(frozen=True)
class DeepConstant:
    """Depth threshold used by the deep-point shortcut; provenance is recorded
    so reports can tell a configured value from the built-in heuristic."""

    value: int
    provenance: str = "configured"  # or "default"

    def __post_init__(self):
        if self.value < 0:
            raise InvalidInputError("deep constant must be nonnegative")


def default_deep_constant(vas: VasSystem) -> DeepConstant:
    # 16 * norm^3: heuristic default, validated per instance by
    # ditc_falsification_scan before it is trusted in threshold computations.
    return DeepConstant(16 * vas.norm**3, provenance="default")


def _deep_value(m: "DeepConstant | int") -> int:
    return m.value if isinstance(m, DeepConstant) else int(m)


@dataclass(frozen=True)
class ConeData:
    """Classification of the cone spanned by a 2-VAS's generators.

    For PROPER_CONE, chi1 is the counterclockwise-most boundary direction and
    chi2 the clockwise-most; facets = (f1, f2) are their paired inward
    normals, with <f_i, chi_i> = 0.  For HALF_PLANE, chi1/chi2 are the two
    (opposite) boundary directions and a single facet normal is stored.  For
    RAY/LINE both line normals are kept so membership checks stay uniform.
    """

    kind: ConeKind
    chi1: Vector | None
    chi2: Vector | None
    facets: tuple[Vector, ...]
    quadrant_relation: QuadrantRelation
    norm: int


@dataclass(frozen=True)
class IntConeResult:
    status: Membership
    coefficients: tuple[int, ...] | None = None

    @property
    def is_member(self) -> bool:
        return self.status is Membership.MEMBER


@dataclass(frozen=True)
class DitcScanReport:
    counterexamples: tuple[Vector, ...]
    undecided: tuple[Vector, ...]
    deep_lattice_points: int
    radius: int
    m_value: int


@dataclass(frozen=True)
class SeedVector:
    """A strictly positive box-reachable vector s and its scaled copy s_pos.

    ``witness`` box-reaches s; repeating its indices ``repeat`` times
    box-reaches s_pos = repeat * s.
    """

    s: Vector
    s_pos: Vector
    witness: PathRecord
    repeat: int

    def pos_witness_indices(self) -> tuple[int, ...]:
        return self.witness.indices * self.repeat


def cross(a: Vector, b: Vector) -> int:
    return a[0] * b[1] - a[1] * b[0]


def _primitive(v: Vector) -> Vector:
    g = gcd(v[0], v[1])
    return (v[0] // g, v[1] // g)


def _angle_half(v: Vector) -> int:
    # 0 for angles in [0, 180), 1 for [180, 360)
    return 0 if (v[1] > 0 or (v[1] == 0 and v[0] > 0)) else 1


def _angle_cmp(a: Vector, b: Vector) -> int:
    ha, hb = _angle_half(a), _angle_half(b)
    if ha != hb:
        return ha - hb
    c = cross(a, b)
    return 0 if c == 0 else (-1 if c > 0 else 1)


def _require_dim2(vas: VasSystem) -> None:
    if vas.dim != 2:
        raise UnsupportedDimensionError(
            f"operation requires dimension 2, got {vas.dim}"
        )


def _lower_facet(chi: Vector) -> Vector:
    # inward normal of the clockwise-most boundary vector (cone lies ccw of it)
    return (-chi[1], chi[0])


def _upper_facet(chi: Vector) -> Vector:
    # inward normal of the counterclockwise-most boundary vector
    return (chi[1], -chi[0])


def _quadrant_relation(
    kind: ConeKind,
    chi1: Vector | None,
    chi2: Vector | None,
    facets: tuple[Vector, ...],
    nonzero: Sequence[Vector],
) -> QuadrantRelation:
    if all(g[0] >= 0 and g[1] >= 0 for g in nonzero):
        return QuadrantRelation.CONTAINED_IN_QUADRANT
    if kind in (ConeKind.PROPER_CONE, ConeKind.HALF_PLANE, ConeKind.FULL_PLANE):
        if all(f[0] >= 0 for f in facets) and all(f[1] >= 0 for f in facets):
            # both unit axes satisfy every facet, so the quadrant is inside
            return QuadrantRelation.CONTAINS_QUADRANT
    if kind is ConeKind.PROPER_CONE:
        if chi1 is None or chi2 is None:
            raise InternalCheckError("proper cone without extremals")
        if chi2[0] > 0 and chi2[1] > 0 and chi1[0] <= 0:
            return QuadrantRelation.INTERSECTS_VIA_Y_AXIS_SIDE
        if chi1[0] > 0 and chi1[1] > 0 and chi2[1] <= 0:
            return QuadrantRelation.INTERSECTS_VIA_X_AXIS_SIDE
    return QuadrantRelation.OTHER


def cone_from_generators(vas: VasSystem) -> ConeData:
    """Classify the cone of a 2-VAS and compute its extremals and facets."""
    _require_dim2(vas)
    nonzero = [g for g in vas.generators if g != (0, 0)]

    def build(kind, chi1, chi2, facets):
        rel = _quadrant_relation(kind, chi1, chi2, facets, nonzero)
        return ConeData(
            kind=kind,
            chi1=chi1,
            chi2=chi2,
            facets=facets,
            quadrant_relation=rel,
            norm=vas.norm,
        )

    if not nonzero:
        return build(ConeKind.ZERO_ONLY, None, None, ((1, 0), (-1, 0)))

    dirs = sorted({_primitive(g) for g in nonzero}, key=cmp_to_key(_angle_cmp))
    if len(dirs) == 1:
        d = dirs[0]
        return build(ConeKind.RAY, d, d, (_lower_facet(d), _upper_facet(d)))
    if len(dirs) == 2 and dirs[0] == vec_scale(-1, dirs[1]):
        d = dirs[0]
        return build(
            ConeKind.LINE, d, vec_scale(-1, d), (_lower_facet(d), _upper_facet(d))
        )

    # Walk the cyclic gaps between angularly consecutive directions; at most
    # one gap can reach 180 degrees.  A gap from u counterclockwise to w is
    # over 180 iff cross(u, w) < 0, exactly 180 iff cross = 0 with opposite
    # orientation (duplicates were removed, so cross = 0 means w = -u).
    n = len(dirs)
    for i in range(n):
        u, w = dirs[i], dirs[(i + 1) % n]
        c = cross(u, w)
        if c < 0:
            # gap over 180: pointed cone from w (clockwise-most) ccw to u
            return build(
                ConeKind.PROPER_CONE, u, w, (_upper_facet(u), _lower_facet(w))
            )
        if c == 0 and dot(u, w) < 0:
            # gap exactly 180: half-plane whose boundary is the u/w line
            return build(ConeKind.HALF_PLANE, u, w, (_lower_facet(w),))
    return build(ConeKind.FULL_PLANE, None, None, ())


class _LatticeSolver:
    """Integer row echelon of the generator matrix with a transform, so that
    lattice membership plus reproducing coefficients is one back-substitution.
    Works in any dimension; the pivot columns run over every coordinate."""

    def __init__(self, generators: Sequence[Vector]):
        self.generators = [tuple(g) for g in generators]
        n = len(self.generators)
        dim = len(self.generators[0]) if n else 0
        rows = [list(g) for g in self.generators]
        transform = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
        r = 0
        pivots: list[tuple[int, int]] = []  # (row, col)
        for col in range(dim):
            if r >= n:
                break
            while True:
                live = [i for i in range(r, n) if rows[i][col] != 0]
                if not live:
                    break
                p = min(live, key=lambda i: abs(rows[i][col]))
                rows[r], rows[p] = rows[p], rows[r]
                transform[r], transform[p] = transform[p], transform[r]
                reduced = True
                for i in range(r + 1, n):
                    if rows[i][col] == 0:
                        continue
                    q = rows[i][col] // rows[r][col]
                    for k in range(dim):
                        rows[i][k] -= q * rows[r][k]
                    for k in range(n):
                        transform[i][k] -= q * transform[r][k]
                    if rows[i][col] != 0:
                        reduced = False
                if reduced:
                    break
            if r < n and rows[r][col] != 0:
                if rows[r][col] < 0:
                    rows[r] = [-x for x in rows[r]]
                    transform[r] = [-x for x in transform[r]]
                pivots.append((r, col))
                r += 1
        self._rows = rows
        self._transform = transform
        self._pivots = pivots

    def solve(self, v: Vector) -> tuple[int, ...] | None:
        """Integer coefficients over the original generators summing to v,
        or None when v is not in the lattice."""
        n = len(self.generators)
        y = list(v)
        combo = [0] * n
        for r, col in self._pivots:
            q, rem = divmod(y[col], self._rows[r][col])
            if rem != 0:
                return None
            for k, a in enumerate(self._rows[r]):
                y[k] -= q * a
            for k in range(n):
                combo[k] += q * self._transform[r][k]
        if any(y):
            return None
        return tuple(combo)


def lattice_member(
    vas: VasSystem, v: Sequence[int]
) -> tuple[bool, tuple[int, ...] | None]:
    """Exact test for v being an integer combination of the generators, in
    any dimension."""
    v = tuple(int(x) for x in v)
    if len(v) != vas.dim:
        raise InvalidInputError(f"vector {v} does not have {vas.dim} entries")
    coeffs = _LatticeSolver(vas.generators).solve(v)
    return (coeffs is not None), coeffs


def is_m_deep(cone: ConeData, v: Sequence[int], m: "DeepConstant | int") -> bool:
    """True iff every facet dot product with v is at least m (vacuous when
    there are no facets, i.e. the full plane)."""
    mv = _deep_value(m)
    v = tuple(v)
    return all(dot(f, v) >= mv for f in cone.facets)


# ---------------------------------------------------------------------------
# integer-cone membership


def _line_multiple(b: Vector, v: Vector) -> int | None:
    """v as an integer multiple of the primitive direction b, if it is one."""
    if b[0] != 0:
        q, rem = divmod(v[0], b[0])
    else:
        q, rem = divmod(v[1], b[1])
    if rem != 0 or vec_scale(q, b) != v:
        return None
    return q


def _least_per_residue(
    weights: Sequence[int],
    advance: Callable[[Hashable, int, int], Hashable],
    start: Hashable,
    target: Hashable,
    bound: int,
) -> tuple[int, list[int]] | None:
    """The residue table ("round-robin") of Böcker & Lipták: Dijkstra over
    residue keys, where step j adds the positive ``weights[j]`` to the total
    and moves key k at new total v to ``advance(k, j, v)``.

    Returns the least total reaching ``target`` from ``start`` at total 0,
    with the step counts of that combination, or None when the target is
    unreached or its least total exceeds ``bound``.
    """
    dist: dict[Hashable, int] = {start: 0}
    pred: dict[Hashable, tuple[Hashable, int]] = {}
    heap = [(0, start)]
    while heap:
        val, key = heapq.heappop(heap)
        if val != dist[key]:
            continue
        for j, w in enumerate(weights):
            nv = val + w
            nk = advance(key, j, nv)
            if nv < dist.get(nk, nv + 1):
                dist[nk] = nv
                pred[nk] = (key, j)
                heapq.heappush(heap, (nv, nk))
    least = dist.get(target)
    if least is None or least > bound:
        return None
    counts = [0] * len(weights)
    key = target
    while key != start:
        key, j = pred[key]
        counts[j] += 1
    return least, counts


def _semigroup_rep(m: int, coins: Sequence[int]) -> list[int] | None:
    """Nonnegative counts of positive ``coins`` summing to m, or None.

    Residue table modulo the smallest coin; handles arbitrarily large m in
    one pass.
    """
    if m == 0:
        return [0] * len(coins)
    if m < 0 or not coins:
        return None
    a0 = min(coins)
    found = _least_per_residue(coins, lambda _, __, v: v % a0, 0, m % a0, m)
    if found is None:
        return None
    least, counts = found
    counts[coins.index(a0)] += (m - least) // a0
    return counts


def _signed_line_rep(m: int, multiples: Sequence[int]) -> list[int] | None:
    """Nonnegative counts over signed nonzero ``multiples`` summing to m.

    When both signs are present the reachable set is the full group of
    multiples of the overall gcd: a Bezout combination is reduced modulo the
    first negative multiple, and the leftover (a multiple of that negative
    entry) is settled by a two-coin solve with shifted-nonnegative counts.
    """
    if m == 0:
        return [0] * len(multiples)
    g = 0
    for a in multiples:
        g = gcd(g, a)
    if g == 0 or m % g != 0:
        return None
    positives = [a for a in multiples if a > 0]
    negatives = [a for a in multiples if a < 0]
    if not negatives:
        return _semigroup_rep(m, list(multiples)) if m >= 0 else None
    if not positives:
        return _semigroup_rep(-m, [-a for a in multiples]) if m <= 0 else None

    # running Bezout combination over all multiples, scaled to m
    combo = [0] * len(multiples)
    run = 0
    for i, a in enumerate(multiples):
        if run == 0:
            run = a
            combo = [0] * len(multiples)
            combo[i] = 1
            continue
        s, t = _bezout(run, a)
        new = s * run + t * a
        combo = [s * c for c in combo]
        combo[i] += t
        run = new
    if run < 0:
        run = -run
        combo = [-c for c in combo]
    scale = m // run
    combo = [c * scale for c in combo]

    nval = negatives[0]
    iq = multiples.index(nval)
    p = positives[0]
    ip = multiples.index(p)
    width = -nval
    reduced = [c % width for c in combo]
    leftover = m - sum(c * a for c, a in zip(reduced, multiples))
    # each coefficient moved by a multiple of |nval|, so leftover is too
    if leftover % width:
        raise InternalCheckError("signed line leftover is not a multiple")
    x, y = _solve_two_coin(leftover, p, nval)
    reduced[ip] += x
    reduced[iq] += y
    if sum(c * a for c, a in zip(reduced, multiples)) != m or any(
        c < 0 for c in reduced
    ):
        raise InternalCheckError("signed line representation failed to verify")
    return reduced


def _solve_two_coin(m: int, p: int, n: int) -> tuple[int, int]:
    """Nonnegative (x, y) with x*p + y*n = m, given p > 0 > n and gcd | m."""
    g = gcd(p, -n)
    if m % g:
        raise InternalCheckError(f"{m} is not a multiple of gcd {g}")
    x0, y0 = _bezout(p, n)
    x, y = x0 * (m // g), y0 * (m // g)
    step_x, step_y = -n // g, p // g  # both positive
    k = 0
    if x < 0:
        k = max(k, (-x + step_x - 1) // step_x)
    if y < 0:
        k = max(k, (-y + step_y - 1) // step_y)
    return x + k * step_x, y + k * step_y


def _positive_zero_combo(nonzero: list[tuple[int, Vector]]) -> list[int]:
    """For full-plane generator sets: counts z_i >= 1 with sum z_i g_i = 0.

    For each generator g, -g lies in the sector between two angularly
    consecutive representative generators u, w (one per direction) of
    opening under 180 degrees, and Cramer's rule gives the all-integer
    cancelling relation cross(u, w) g + cross(-g, w) u + cross(u, -g) w = 0.
    Summing one relation per generator makes every count strictly positive.
    """
    reps: dict[Vector, int] = {}
    for pos, (_, g) in enumerate(nonzero):
        reps.setdefault(_primitive(g), pos)
    by_angle = cmp_to_key(_angle_cmp)
    order = sorted(reps.values(), key=lambda pos: by_angle(nonzero[pos][1]))
    z = [0] * len(nonzero)
    for pos, (_, g) in enumerate(nonzero):
        t = (-g[0], -g[1])
        for pu, pw in zip(order, order[1:] + order[:1]):
            u, w = nonzero[pu][1], nonzero[pw][1]
            delta, a, b = cross(u, w), cross(t, w), cross(u, t)
            if delta > 0 and a >= 0 and b >= 0:
                z[pos] += delta
                z[pu] += a
                z[pw] += b
                break
        else:
            raise InternalCheckError(
                f"no cancelling sector found for generator {g}"
            )
    if combination([g for _, g in nonzero], z) != (0, 0) or any(c < 1 for c in z):
        raise InternalCheckError("zero-effect combination failed to verify")
    return z


def _finish(
    vas: VasSystem, v: Vector, counts_by_index: dict[int, int]
) -> IntConeResult:
    coeffs = [0] * len(vas.generators)
    for idx, c in counts_by_index.items():
        coeffs[idx] = c
    if combination(vas.generators, coeffs) != v or any(c < 0 for c in coeffs):
        raise InternalCheckError(
            f"integer-cone coefficients failed to reproduce {v}"
        )
    return IntConeResult(Membership.MEMBER, tuple(coeffs))


def _int_cone_line(
    vas: VasSystem, v: Vector, b: Vector, on_line: list[tuple[int, Vector]]
) -> IntConeResult:
    """Membership of v in the integer cone of the generators ``on_line``,
    all multiples of the primitive direction b."""
    m_v = _line_multiple(b, v)
    if m_v is None:
        return IntConeResult(Membership.NON_MEMBER)
    mults = [_line_multiple(b, g) for _, g in on_line]
    # the residue table of a one-signed line has as many keys as its
    # smallest multiple
    if m_v > 0 and min(mults) > DEFAULT_INT_CONE_BUDGET:  # type: ignore[type-var]
        return IntConeResult(Membership.UNDECIDED)
    rep = _signed_line_rep(m_v, mults)  # type: ignore[arg-type]
    if rep is None:
        return IntConeResult(Membership.NON_MEMBER)
    return _finish(vas, v, {i: c for (i, _), c in zip(on_line, rep) if c})


def _int_cone_proper(
    vas: VasSystem,
    cone: ConeData,
    v: Vector,
    nonzero: list[tuple[int, Vector]],
) -> IntConeResult:
    if cone.chi1 is None or cone.chi2 is None:
        raise InternalCheckError("proper cone without extremals")
    i1 = next(i for i, g in nonzero if _primitive(g) == cone.chi1)
    i2 = next(i for i, g in nonzero if _primitive(g) == cone.chi2)
    u1 = vas.generators[i1]
    u2 = vas.generators[i2]
    det = cross(u1, u2)
    d_abs = abs(det)
    others = [(i, g) for i, g in nonzero if i not in (i1, i2)]
    f1, f2 = cone.facets

    if d_abs ** len(others) <= DEFAULT_INT_CONE_BUDGET:
        # any solution can be normalized so every non-extremal coefficient is
        # under |det|: |det| copies of g trade for nonnegative extremal copies
        for combo in itertools.product(range(d_abs), repeat=len(others)):
            r = v
            for c, (_, g) in zip(combo, others):
                r = (r[0] - c * g[0], r[1] - c * g[1])
            if dot(f1, r) < 0 or dot(f2, r) < 0:
                continue
            qa, ra = divmod(cross(r, u2), det)
            qb, rb = divmod(cross(u1, r), det)
            if ra == 0 and rb == 0 and qa >= 0 and qb >= 0:
                counts = {i1: qa, i2: qb}
                for c, (i, _) in zip(combo, others):
                    counts[i] = counts.get(i, 0) + c
                return _finish(vas, v, counts)
        return IntConeResult(Membership.NON_MEMBER)

    # fallback: BFS over the facet-coordinate window, which is finite for a
    # pointed cone; exact if it drains before the budget
    start = (0, 0)
    bound1, bound2 = dot(f1, v), dot(f2, v)
    seen = {start}
    parent: dict[Vector, tuple[Vector, int]] = {}
    frontier = deque([start])
    while frontier:
        p = frontier.popleft()
        for idx, g in nonzero:
            q = (p[0] + g[0], p[1] + g[1])
            if q in seen:
                continue
            if not (0 <= dot(f1, q) <= bound1 and 0 <= dot(f2, q) <= bound2):
                continue
            seen.add(q)
            parent[q] = (p, idx)
            if q == v:
                counts: dict[int, int] = {}
                node = q
                while node != start:
                    node, idx2 = parent[node]
                    counts[idx2] = counts.get(idx2, 0) + 1
                return _finish(vas, v, counts)
            if len(seen) > DEFAULT_INT_CONE_BUDGET:
                return IntConeResult(Membership.UNDECIDED)
            frontier.append(q)
    return IntConeResult(Membership.NON_MEMBER)


def _int_cone_half_plane(
    vas: VasSystem,
    cone: ConeData,
    v: Vector,
    nonzero: list[tuple[int, Vector]],
) -> IntConeResult:
    (f,) = cone.facets
    height = dot(f, v)
    boundary = [(i, g) for i, g in nonzero if dot(f, g) == 0]
    interior = [(i, g) for i, g in nonzero if dot(f, g) > 0]
    b = _primitive(boundary[0][1])
    b_mults = [_line_multiple(b, g) for _, g in boundary]
    if None in b_mults:
        raise InternalCheckError("boundary generator off the boundary line")
    g_b = 0
    for m in b_mults:
        g_b = gcd(g_b, m)  # type: ignore[arg-type]

    if height == 0:
        return _int_cone_line(vas, v, b, boundary)

    # complete b to a basis (b, p) with cross(b, p) = 1; psi(z) is the
    # b-coordinate of z, well defined mod g_b once heights cancel
    x0, y0 = b
    s, t = _bezout(x0, y0)  # s*x0 + t*y0 = 1 since b is primitive
    p = (-t, s)
    if cross(b, p) != 1:
        raise InternalCheckError(f"({b}, {p}) is not a unimodular basis")

    def psi(z: Vector) -> int:
        return cross(z, p)

    if not interior:
        return IntConeResult(Membership.NON_MEMBER)
    heights = [dot(f, g) for _, g in interior]
    psis = [psi(g) for _, g in interior]
    h0 = min(heights)
    j0 = heights.index(h0)
    mod = g_b if g_b > 0 else 1
    k0 = mod // gcd(psis[j0] % mod, mod) if mod > 1 else 1
    period = h0 * k0
    if period * mod > DEFAULT_INT_CONE_BUDGET:
        return IntConeResult(Membership.UNDECIDED)

    # least interior height per (height mod period, psi residue)
    found = _least_per_residue(
        heights,
        lambda key, j, h: (h % period, (key[1] + psis[j]) % mod),
        (0, 0),
        (height % period, psi(v) % mod),
        height,
    )
    if found is None:
        return IntConeResult(Membership.NON_MEMBER)
    least, counts = found
    # pad the remaining height in whole k0-blocks of the smallest coin, which
    # add `period` height each and preserve the psi residue
    if (height - least) % period:
        raise InternalCheckError("remaining height is not whole blocks")
    counts[j0] += (height - least) // period * k0

    residual = vec_sub(v, combination([g for _, g in interior], counts))
    m_res = _line_multiple(b, residual)
    if m_res is None:
        raise InternalCheckError("half-plane residual left the boundary line")
    rep = _signed_line_rep(m_res, b_mults)  # type: ignore[arg-type]
    if rep is None:
        raise InternalCheckError("half-plane residual escaped the boundary group")
    all_counts: dict[int, int] = {}
    for c, (i, _) in zip(counts + rep, interior + boundary):
        if c:
            all_counts[i] = all_counts.get(i, 0) + c
    return _finish(vas, v, all_counts)


def _bezout(a: int, b: int) -> tuple[int, int]:
    """(s, t) with s*a + t*b = gcd(a, b) (gcd taken positive)."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r != 0:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_s, old_t = -old_s, -old_t
    return old_s, old_t


def _int_cone_with(
    vas: VasSystem,
    cone: ConeData,
    solver: _LatticeSolver,
    v: Vector,
) -> IntConeResult:
    if v == (0, 0):
        return IntConeResult(Membership.MEMBER, (0,) * len(vas.generators))
    if any(dot(f, v) < 0 for f in cone.facets):
        return IntConeResult(Membership.NON_MEMBER)
    lam = solver.solve(v)
    if lam is None:
        return IntConeResult(Membership.NON_MEMBER)
    nonzero = [(i, g) for i, g in enumerate(vas.generators) if g != (0, 0)]

    if cone.kind is ConeKind.ZERO_ONLY:
        return IntConeResult(Membership.NON_MEMBER)
    if cone.kind in (ConeKind.RAY, ConeKind.LINE):
        if cone.chi1 is None:
            raise InternalCheckError("one-dimensional cone without direction")
        return _int_cone_line(vas, v, cone.chi1, nonzero)
    if cone.kind is ConeKind.FULL_PLANE:
        z = _positive_zero_combo(nonzero)
        shift = 0
        for (i, _), zi in zip(nonzero, z):
            if lam[i] < 0:
                need = (-lam[i] + zi - 1) // zi
                shift = max(shift, need)
        counts: dict[int, int] = {}
        for pos, (i, _) in enumerate(nonzero):
            counts[i] = lam[i] + shift * z[pos]
        return _finish(vas, v, counts)
    if cone.kind is ConeKind.HALF_PLANE:
        return _int_cone_half_plane(vas, cone, v, nonzero)
    return _int_cone_proper(vas, cone, v, nonzero)


def int_cone_member(vas: VasSystem, v: Sequence[int]) -> IntConeResult:
    """Exact membership of v in the nonnegative-integer span of the generators.

    Returns MEMBER with reproducing coefficients, NON_MEMBER, or UNDECIDED
    when a table or search would exceed ``DEFAULT_INT_CONE_BUDGET`` entries
    before a sound answer was found.
    """
    _require_dim2(vas)
    cone = cone_from_generators(vas)
    solver = _LatticeSolver(vas.generators)
    return _int_cone_with(vas, cone, solver, tuple(int(x) for x in v))


def ditc_falsification_scan(
    vas: VasSystem,
    m: "DeepConstant | int",
    radius: int,
) -> DitcScanReport:
    """Scan all integer points of infinity-norm at most ``radius`` that are
    m-deep lattice members and report any that are not integer-cone members.

    An empty report is evidence (not proof) that m is deep enough for this
    instance; undecided points are listed separately, never counted as clean.
    """
    _require_dim2(vas)
    if radius < 0:
        raise PreconditionError("radius must be nonnegative")
    mv = _deep_value(m)
    cone = cone_from_generators(vas)
    solver = _LatticeSolver(vas.generators)
    bad: list[Vector] = []
    undecided: list[Vector] = []
    checked = 0
    for x in range(-radius, radius + 1):
        for y in range(-radius, radius + 1):
            v = (x, y)
            if not is_m_deep(cone, v, mv):
                continue
            if solver.solve(v) is None:
                continue
            checked += 1
            res = _int_cone_with(vas, cone, solver, v)
            if res.status is Membership.NON_MEMBER:
                bad.append(v)
            elif res.status is Membership.UNDECIDED:
                undecided.append(v)
    return DitcScanReport(
        counterexamples=tuple(bad),
        undecided=tuple(undecided),
        deep_lattice_points=checked,
        radius=radius,
        m_value=mv,
    )


def compute_seed(vas: VasSystem) -> SeedVector:
    """A strictly positive box-reachable vector s with its scaled copy 2*norm*s.

    Either some generator is already strictly positive, or an axis generator
    (x, 0) is combined with a (x', y'), y' > 0 generator via the staircase
    path u1^(-x') u2 u1^(-x'+1); the axis-swapped case is symmetric.
    """
    _require_dim2(vas)
    gens = vas.generators
    repeat = 2 * vas.norm

    def package(s: Vector, indices: list[int]) -> SeedVector:
        witness = PathRecord.record(vas, indices)
        s_pos = vec_scale(repeat, s)
        seed = SeedVector(s=s, s_pos=s_pos, witness=witness, repeat=repeat)
        if not (s[0] >= 1 and s[1] >= 1):
            raise InternalCheckError(f"seed {s} is not strictly positive")
        # repeat copies of a path that box-reaches s >= 0 box-reach
        # repeat * s, so the repeated witness needs no walk of its own
        if not witness.box_reaches(s):
            raise InternalCheckError(f"seed witness does not box-reach {s}")
        if not (s_pos[0] >= repeat and s_pos[1] >= repeat):
            raise InternalCheckError("scaled seed lost its lower bound")
        if inf_norm(s_pos) > 8 * vas.norm**3:
            raise InternalCheckError("scaled seed exceeds the cubic norm bound")
        return seed

    for i, g in enumerate(gens):
        if g[0] > 0 and g[1] > 0:
            return package(g, [i])

    # no strictly positive generator: pump an axis generator, x axis first
    for axis, name in ((0, "x"), (1, "y")):
        i1 = next(
            (i for i, g in enumerate(gens) if g[axis] > 0 and g[1 - axis] == 0),
            None,
        )
        if i1 is None:
            continue
        i2 = next((i for i, g in enumerate(gens) if g[1 - axis] > 0), None)
        if i2 is None:
            raise DegenerateSystemError(
                f"reachability is confined to the {name} axis; use the "
                "one-dimensional analysis instead"
            )
        # with no strictly positive generator, along <= 0 here
        along, up = gens[i2][axis], gens[i2][1 - axis]
        pumped = (-2 * along + 1) * gens[i1][axis] + along
        s = (pumped, up) if axis == 0 else (up, pumped)
        return package(s, [i1] * (-along) + [i2] + [i1] * (-along + 1))
    raise DegenerateSystemError(
        "no generator with nonnegative coordinates is available as a first "
        "step, so only the origin is reachable"
    )


def facet_product_bound_check(cone: ConeData, v: Sequence[int]) -> bool:
    """For a pointed cone with one strictly positive and one strictly negative
    extremal: check <v, f_pos> <= norm * <v, f_neg>.

    Preconditions: v >= 0 and <f_pos, v> >= 0, where f_pos is the facet
    normal paired with the strictly positive extremal.  (For v on the other
    side of that facet the inequality genuinely fails, so cone-side
    membership is part of the contract.)
    """
    if cone.kind is not ConeKind.PROPER_CONE:
        raise PreconditionError("facet product bound requires a pointed cone")
    if cone.chi1 is None or cone.chi2 is None:
        raise InternalCheckError("proper cone without extremals")
    pairs = list(zip((cone.chi1, cone.chi2), cone.facets))
    pos = next(
        ((c, f) for c, f in pairs if c[0] > 0 and c[1] > 0), None
    )
    neg = next(
        ((c, f) for c, f in pairs if c[0] < 0 and c[1] < 0), None
    )
    if pos is None or neg is None:
        raise PreconditionError(
            "expected one strictly positive and one strictly negative extremal"
        )
    v = tuple(int(x) for x in v)
    if v[0] < 0 or v[1] < 0:
        raise PreconditionError("v must be componentwise nonnegative")
    _, f_pos = pos
    _, f_neg = neg
    if dot(f_pos, v) < 0:
        raise PreconditionError("v must lie on the cone side of the positive facet")
    return dot(v, f_pos) <= cone.norm * dot(v, f_neg)
