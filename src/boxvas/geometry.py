"""Cone machinery for 2-D systems, and lattice membership in any dimension.

``lattice_member`` decides membership in the generators' integer lattice
for every dimension; the deciders of ``boxreach`` use it to refute
off-lattice targets before any grid search.  Cone classification, facets
and integer-cone membership are 2-dimensional.

Everything here is exact integer / rational arithmetic.  The cone of a
2-dimensional system is classified by its boundary directions, found by two
tests over the distinct generator directions: every direction lies within
180 degrees counterclockwise of the clockwise-most one, and within 180
degrees clockwise of the counterclockwise-most one.  With no clockwise-most
direction the cone is the full plane, with two (opposite) ones a line;
opposite boundary directions bound a half-plane, any others a pointed cone.
Integer-cone membership is one search for every cone shape: the non-basic
coefficients of a least-length LP basis, in a box that the facets and a
proximity bound cap, walked in order of their cost.
"""
from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from enum import Enum
from math import gcd
from typing import Iterator, Sequence

from .core import (
    PathRecord,
    VasSystem,
    Vector,
    combination,
    dot,
    inf_norm,
    is_box_reaching_trace,  # not called here; perfbench/tracing.py patches it
    vec_scale,
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
    ALONG_X_AXIS = "along-x-axis"
    ALONG_Y_AXIS = "along-y-axis"
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
    # 16 * norm^3: a heuristic, used unchecked and reported with provenance
    # "default"; ditc_falsification_scan tests it only when asked to
    # (threshold --validate-radius).
    return DeepConstant(16 * vas.norm**3, provenance="default")


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


def _on_line(generators: Sequence[Vector], d: Vector) -> list[int]:
    """Indices of the nonzero generators parallel to the nonzero d, in
    either direction."""
    return [i for i, g in enumerate(generators) if any(g) and cross(g, d) == 0]


def _extremal_facet(cone: ConeData, sign: int) -> Vector | None:
    """The facet normal paired with an extremal whose entries both have the
    sign of ``sign`` (1: strictly positive, -1: strictly negative), or None."""
    for chi, f in zip((cone.chi1, cone.chi2), cone.facets):
        if chi is not None and sign * chi[0] > 0 and sign * chi[1] > 0:
            return f
    return None


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
    if kind not in (ConeKind.PROPER_CONE, ConeKind.HALF_PLANE, ConeKind.FULL_PLANE):
        return QuadrantRelation.OTHER
    # the cone meets the quadrant in the cone spanned by the extremals
    # inside the quadrant and the unit axes inside the cone
    contact = {
        v
        for v in (chi1, chi2, (1, 0), (0, 1))
        if v is not None and min(v) >= 0 and all(dot(f, v) >= 0 for f in facets)
    }
    if {(1, 0), (0, 1)} <= contact:
        return QuadrantRelation.CONTAINS_QUADRANT
    if contact == {(1, 0)}:
        return QuadrantRelation.ALONG_X_AXIS
    if contact == {(0, 1)}:
        return QuadrantRelation.ALONG_Y_AXIS
    if kind is ConeKind.PROPER_CONE and len(contact) == 2:
        # a strictly positive extremal, and the axis beside it in the cone
        if (1, 0) in contact:
            return QuadrantRelation.INTERSECTS_VIA_X_AXIS_SIDE
        return QuadrantRelation.INTERSECTS_VIA_Y_AXIS_SIDE
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

    dirs = {_primitive(g) for g in nonzero}
    if len(dirs) == 1:
        (d,) = dirs
        return build(ConeKind.RAY, d, d, (_lower_facet(d), _upper_facet(d)))
    # lo: the clockwise-most directions, with every direction at most 180
    # degrees counterclockwise of them; hi: the counterclockwise-most
    lo = [w for w in dirs if all(cross(w, x) >= 0 for x in dirs)]
    hi = [u for u in dirs if all(cross(x, u) >= 0 for x in dirs)]
    if len(lo) == 2:
        # both directions of one line; chi1 is the one at an angle in [0, 180)
        d = max(lo, key=lambda v: (v[1], v[0]))
        return build(
            ConeKind.LINE, d, vec_scale(-1, d), (_lower_facet(d), _upper_facet(d))
        )
    if not lo:
        return build(ConeKind.FULL_PLANE, None, None, ())
    (u,), (w,) = hi, lo
    if u == vec_scale(-1, w):
        return build(ConeKind.HALF_PLANE, u, w, (_lower_facet(w),))
    return build(ConeKind.PROPER_CONE, u, w, (_upper_facet(u), _lower_facet(w)))


class _LatticeSolver:
    """Integer row echelon of the generator matrix, so that lattice
    membership is one back-substitution along the pivots.  Works in any
    dimension; the pivot columns run over every coordinate."""

    def __init__(self, generators: Sequence[Vector]):
        rows = [list(g) for g in generators]
        n = len(rows)
        dim = len(rows[0]) if n else 0
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
                reduced = True
                for i in range(r + 1, n):
                    if rows[i][col] == 0:
                        continue
                    q = rows[i][col] // rows[r][col]
                    for k in range(dim):
                        rows[i][k] -= q * rows[r][k]
                    if rows[i][col] != 0:
                        reduced = False
                if reduced:
                    break
            if rows[r][col] != 0:
                pivots.append((r, col))
                r += 1
        self._rows = rows
        self._pivots = pivots

    def contains(self, v: Vector) -> bool:
        """Whether v is an integer combination of the generators."""
        y = list(v)
        for r, col in self._pivots:
            q, rem = divmod(y[col], self._rows[r][col])
            if rem:
                return False
            for k, a in enumerate(self._rows[r]):
                y[k] -= q * a
        return not any(y)


def lattice_member(vas: VasSystem, v: Sequence[int]) -> bool:
    """Whether v is an integer combination of the generators, in any
    dimension: an exact test that builds no combination."""
    v = tuple(int(x) for x in v)
    if len(v) != vas.dim:
        raise InvalidInputError(f"vector {v} does not have {vas.dim} entries")
    return _LatticeSolver(vas.generators).contains(v)


def is_m_deep(cone: ConeData, v: Sequence[int], m: int) -> bool:
    """True iff every facet dot product with v is at least m (vacuous when
    there are no facets, i.e. the full plane)."""
    v = tuple(v)
    return all(dot(f, v) >= m for f in cone.facets)


# ---------------------------------------------------------------------------
# integer-cone membership


@dataclass(frozen=True)
class _Basis:
    """A basis of the LP  min sum(c)  s.t.  sum c_i g_i = v, c >= 0.

    Over the basic generators ``indices``, a vector w of the generators'
    linear span has the coefficients ``dot(row, w) / denom``, one per row
    (Cramer's rule, denom > 0).  ``costs[k]`` is denom times the reduced
    cost of the non-basic generator ``others[k]``: how much one copy of it
    lengthens the solution that the basis completes.
    """

    indices: tuple[int, ...]
    rows: tuple[Vector, ...]
    denom: int
    others: tuple[int, ...]
    costs: tuple[int, ...]


def _dual_feasible_bases(gens: tuple[Vector, ...]) -> tuple[tuple[_Basis, ...], int]:
    """The bases with no negative reduced cost, and the proximity bound.

    Bases are the generator pairs with nonzero determinant, or single
    generators when all are collinear; zero generators never shorten a
    solution and are left out.  With Delta the largest absolute entry or
    2x2 determinant and n the number of nonzero generators, some
    least-length integer solution lies within n * Delta of every LP optimum
    (Cook, Gerards, Schrijver & Tardos, Math. Programming 34, 1986).
    """
    nonzero = [i for i, g in enumerate(gens) if g != (0, 0)]
    dets = {
        (i, j): cross(gens[i], gens[j])
        for i, j in itertools.combinations(nonzero, 2)
    }
    candidates = []
    for (i, j), det in dets.items():
        if det:
            s = 1 if det > 0 else -1
            (a, b), (c, d) = gens[i], gens[j]
            candidates.append(((i, j), ((s * d, -s * c), (-s * b, s * a)), abs(det)))
    if not candidates:
        candidates = [((i,), (gens[i],), dot(gens[i], gens[i])) for i in nonzero]
    bases = []
    for indices, rows, denom in candidates:
        others = tuple(k for k in nonzero if k not in indices)
        costs = tuple(denom - sum(dot(row, gens[k]) for row in rows) for k in others)
        if all(c >= 0 for c in costs):
            bases.append(_Basis(indices, rows, denom, others, costs))
    entries = [abs(x) for i in nonzero for x in gens[i]]
    delta = max(entries + [abs(d) for d in dets.values()], default=0)
    return tuple(bases), len(nonzero) * delta


def _cost_order(costs: Sequence[int], caps: Sequence[int]) -> Iterator[tuple[int, ...]]:
    """The points of the box [0, caps] in nondecreasing order of
    sum(costs[k] * c[k]), for nonnegative costs.

    A point's parent lowers its last nonzero coordinate by one, so every
    point is pushed once, by its parent, and costs no less than it.
    """
    if len(caps) == 1:
        # one coordinate: counting up is already cost order
        yield from ((c,) for c in range(caps[0] + 1))
        return
    heap = [(0, (0,) * len(caps), 0)]
    while heap:
        cost, c, last = heapq.heappop(heap)
        yield c
        for k in range(last, len(caps)):
            if c[k] < caps[k]:
                child = c[:k] + (c[k] + 1,) + c[k + 1 :]
                heapq.heappush(heap, (cost + costs[k], child, k))


class _IntConeSearch:
    """Membership of points v, searched around an optimal basis of the LP
    min sum(c); the lattice echelon and the bases are prepared once per
    system, whatever the cone's shape.

    Each non-basic coefficient is capped by the proximity bound and, for
    every facet f with f.g > 0, by floor(f.v / f.g); some least-length
    solution lies in that box.  The box is walked in order of its total
    cost, so the first point whose basic coefficients come out integral and
    nonnegative is one, and an exhausted box proves that v is no member.
    """

    def __init__(self, vas: VasSystem, cone: ConeData):
        self.gens = vas.generators
        self.cone = cone
        self.lattice = _LatticeSolver(self.gens)
        self.bases, self.bound = _dual_feasible_bases(self.gens)

    def member(self, v: Vector) -> IntConeResult:
        gens = self.gens
        if v == (0, 0):
            return IntConeResult(Membership.MEMBER, (0,) * len(gens))
        facets = self.cone.facets
        if any(dot(f, v) < 0 for f in facets) or not self.lattice.contains(v):
            return IntConeResult(Membership.NON_MEMBER)
        for basis in self.bases:
            if min(a * v[0] + b * v[1] for a, b in basis.rows) >= 0:
                break
        else:
            # some dual-feasible basis is primal-feasible if the LP is
            # feasible, so v is outside the real cone (only a ray's facets
            # let it pass)
            return IntConeResult(Membership.NON_MEMBER)
        caps = []
        for k in basis.others:
            cap = self.bound
            for f in facets:
                fg = f[0] * gens[k][0] + f[1] * gens[k][1]
                if fg > 0:
                    cap = min(cap, (f[0] * v[0] + f[1] * v[1]) // fg)
            caps.append(cap)
        for walked, c in enumerate(_cost_order(basis.costs, caps)):
            if walked == DEFAULT_INT_CONE_BUDGET:
                return IntConeResult(Membership.UNDECIDED)
            x, y = v
            for ck, k in zip(c, basis.others):
                x, y = x - ck * gens[k][0], y - ck * gens[k][1]
            qs = []
            for a, b in basis.rows:
                q, rem = divmod(a * x + b * y, basis.denom)
                if rem or q < 0:
                    break
                qs.append(q)
            else:
                found = c + tuple(qs)
                coeffs = [0] * len(gens)
                for k, ck in zip(basis.others + basis.indices, found):
                    coeffs[k] = ck
                if combination(gens, coeffs) != v:
                    raise InternalCheckError(f"integer-cone coefficients miss {v}")
                return IntConeResult(Membership.MEMBER, tuple(coeffs))
        return IntConeResult(Membership.NON_MEMBER)


def int_cone_member(vas: VasSystem, v: Sequence[int]) -> IntConeResult:
    """Exact membership of v in the nonnegative-integer span of the generators.

    Returns MEMBER with reproducing coefficients, NON_MEMBER, or UNDECIDED
    when the search walked ``DEFAULT_INT_CONE_BUDGET`` candidate points
    without an answer.  The coefficients are least-length: no nonnegative
    integer combination summing to v has a smaller total.
    """
    _require_dim2(vas)
    search = _IntConeSearch(vas, cone_from_generators(vas))
    return search.member(tuple(int(x) for x in v))


def ditc_falsification_scan(
    vas: VasSystem,
    m: int,
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
    cone = cone_from_generators(vas)
    search = _IntConeSearch(vas, cone)
    bad: list[Vector] = []
    undecided: list[Vector] = []
    checked = 0
    for x in range(-radius, radius + 1):
        # the m-deep points of column x: a*x + b*y >= m for each facet (a, b)
        lo, hi = -radius, radius
        for a, b in cone.facets:
            if b > 0:
                lo = max(lo, -((a * x - m) // b))
            elif b < 0:
                hi = min(hi, (a * x - m) // -b)
            elif a * x < m:
                hi = lo - 1
        for y in range(lo, hi + 1):
            v = (x, y)
            if not search.lattice.contains(v):
                continue
            checked += 1
            res = search.member(v)
            if res.status is Membership.NON_MEMBER:
                bad.append(v)
            elif res.status is Membership.UNDECIDED:
                undecided.append(v)
    return DitcScanReport(
        counterexamples=tuple(bad),
        undecided=tuple(undecided),
        deep_lattice_points=checked,
        radius=radius,
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
    f_pos, f_neg = _extremal_facet(cone, 1), _extremal_facet(cone, -1)
    if f_pos is None or f_neg is None:
        raise PreconditionError(
            "expected one strictly positive and one strictly negative extremal"
        )
    v = tuple(int(x) for x in v)
    if v[0] < 0 or v[1] < 0:
        raise PreconditionError("v must be componentwise nonnegative")
    if dot(f_pos, v) < 0:
        raise PreconditionError("v must lie on the cone side of the positive facet")
    return dot(v, f_pos) <= cone.norm * dot(v, f_neg)
