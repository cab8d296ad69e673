import functools
import itertools
import math
import random

import pytest

from boxvas import (
    ConeKind,
    DeepConstant,
    DegenerateSystemError,
    InternalCheckError,
    InvalidInputError,
    Membership,
    PreconditionError,
    QuadrantRelation,
    ResourceBudgetError,
    VasSystem,
    compute_seed,
    cone_from_generators,
    default_deep_constant,
    ditc_falsification_scan,
    facet_product_bound_check,
    inf_norm,
    int_cone_member,
    is_box_reaching_trace,
    is_m_deep,
    lattice_member,
)
from boxvas import geometry
from boxvas.core import combination, dot
from boxvas.geometry import DEFAULT_INT_CONE_BUDGET

from conftest import index_vas, random_vas


def test_cone_example1(ex1):
    cone = cone_from_generators(ex1)
    assert cone.kind is ConeKind.PROPER_CONE
    assert {cone.chi1, cone.chi2} == {(-1, 2), (2, -1)}
    assert set(cone.facets) == {(2, 1), (1, 2)}
    assert cone.quadrant_relation is QuadrantRelation.CONTAINS_QUADRANT


def test_cone_half_plane():
    cone = cone_from_generators(VasSystem(2, ((1, 0), (-1, 0), (0, 1))))
    assert cone.kind is ConeKind.HALF_PLANE
    assert cone.facets == ((0, 1),)


def test_cone_axis_quadrant():
    cone = cone_from_generators(VasSystem(2, ((1, 0), (0, 1))))
    assert cone.kind is ConeKind.PROPER_CONE
    assert set(cone.facets) == {(1, 0), (0, 1)}
    assert cone.quadrant_relation is QuadrantRelation.CONTAINED_IN_QUADRANT


@pytest.mark.parametrize(
    "gens, relation",
    [
        (((1, 0), (-1, -1)), QuadrantRelation.ALONG_X_AXIS),
        (((1, 0), (-1, -2)), QuadrantRelation.ALONG_X_AXIS),
        (((0, 1), (-1, -1)), QuadrantRelation.ALONG_Y_AXIS),
        # the half-plane y <= 0
        (((1, 0), (-1, 0), (-1, -1)), QuadrantRelation.ALONG_X_AXIS),
        (((1, 1), (2, -1)), QuadrantRelation.INTERSECTS_VIA_X_AXIS_SIDE),
        # a line along an axis is one-dimensional, not an axis-ray contact
        (((1, 0), (-1, 0)), QuadrantRelation.OTHER),
    ],
)
def test_quadrant_relation(gens, relation):
    assert cone_from_generators(VasSystem(2, gens)).quadrant_relation is relation


def test_facets_nonnegative_on_generators():
    rng = random.Random(11)
    for _ in range(300):
        gens = tuple(
            tuple(rng.randint(-3, 3) for _ in range(2))
            for _ in range(rng.randint(1, 4))
        )
        cone = cone_from_generators(VasSystem(2, gens))
        for f in cone.facets:
            for g in gens:
                assert dot(f, g) >= 0, (gens, f, g)


def _angle_half(v):
    # 0 for angles in [0, 180), 1 for [180, 360)
    return 0 if (v[1] > 0 or (v[1] == 0 and v[0] > 0)) else 1


def _angle_cmp(a, b):
    ha, hb = _angle_half(a), _angle_half(b)
    if ha != hb:
        return ha - hb
    c = geometry.cross(a, b)
    return 0 if c == 0 else (-1 if c > 0 else 1)


def reference_cone(vas):
    """The classifier by angular sort: sort the distinct directions by
    angle and look for a cyclic gap of 180 degrees or more."""
    nonzero = [g for g in vas.generators if g != (0, 0)]
    lower, upper = geometry._lower_facet, geometry._upper_facet

    def build(kind, chi1, chi2, facets):
        rel = geometry._quadrant_relation(kind, chi1, chi2, facets, nonzero)
        return geometry.ConeData(kind, chi1, chi2, facets, rel, vas.norm)

    if not nonzero:
        return build(ConeKind.ZERO_ONLY, None, None, ((1, 0), (-1, 0)))
    dirs = sorted(
        {geometry._primitive(g) for g in nonzero}, key=functools.cmp_to_key(_angle_cmp)
    )
    if len(dirs) == 1:
        d = dirs[0]
        return build(ConeKind.RAY, d, d, (lower(d), upper(d)))
    if len(dirs) == 2 and dirs[0] == (-dirs[1][0], -dirs[1][1]):
        d = dirs[0]
        return build(ConeKind.LINE, d, dirs[1], (lower(d), upper(d)))
    for i, u in enumerate(dirs):
        w = dirs[(i + 1) % len(dirs)]
        c = geometry.cross(u, w)
        if c < 0:  # a gap over 180 degrees from u counterclockwise to w
            return build(ConeKind.PROPER_CONE, u, w, (upper(u), lower(w)))
        if c == 0 and dot(u, w) < 0:  # a gap of exactly 180 degrees
            return build(ConeKind.HALF_PLANE, u, w, (lower(w),))
    return build(ConeKind.FULL_PLANE, None, None, ())


def test_classifier_matches_angular_sort():
    grid = list(itertools.product(range(-2, 3), repeat=2))
    systems = [c for n in range(1, 5) for c in itertools.combinations(grid, n)]
    assert len(systems) == 15_275
    rng = random.Random(22)
    big = 10**9
    for _ in range(3000):
        gens = [
            (rng.randint(-big, big), rng.randint(-big, big))
            for _ in range(rng.randint(1, 4))
        ]
        # parallel and opposite copies of one generator, anywhere in the order
        g = rng.choice(gens)
        for k in rng.sample([-3, -2, -1, 2, 5], rng.randint(1, 3)):
            gens.insert(rng.randint(0, len(gens)), (k * g[0], k * g[1]))
        systems.append(tuple(gens))
    for gens in systems:
        vas = VasSystem(2, gens)
        assert cone_from_generators(vas) == reference_cone(vas), gens


def test_lattice_examples():
    assert not lattice_member(VasSystem(2, ((2, 0), (0, 2))), (1, 1))
    assert not lattice_member(VasSystem(2, ((-1, 2), (2, -1))), (1, 0))
    assert lattice_member(VasSystem(2, ((3, 5), (7, 1))), (10, 6))


def _det(rows):
    if not rows:
        return 1
    return sum(
        (-1) ** j * a * _det([r[:j] + r[j + 1 :] for r in rows[1:]])
        for j, a in enumerate(rows[0])
    )


def _minor_invariants(columns, dim):
    """(rank, gcd of the rank-sized minors) of the matrix with these columns:
    v is in the columns' lattice iff appending it changes neither."""
    for k in range(dim, 0, -1):
        g = 0
        for rs in itertools.combinations(range(dim), k):
            for cs in itertools.combinations(range(len(columns)), k):
                g = math.gcd(g, _det([[columns[c][r] for c in cs] for r in rs]))
        if g:
            return k, g
    return 0, 1


def reference_lattice_member(gens, v):
    if len(v) == 1:
        g = math.gcd(*(x for (x,) in gens)) if gens else 0
        return v[0] == 0 if g == 0 else v[0] % g == 0
    before = _minor_invariants(list(gens), len(v))
    return _minor_invariants(list(gens) + [tuple(v)], len(v)) == before


@pytest.mark.parametrize("dim, radius", [(1, 40), (2, 7), (3, 3)])
def test_lattice_member_every_dimension(dim, radius):
    rng = random.Random(dim)
    members = refuted = 0
    for n in range(40):
        vas = random_vas(rng, dim, 4, 4) if n % 2 else index_vas(rng, dim)
        for v in itertools.product(range(-radius, radius + 1), repeat=dim):
            ok = lattice_member(vas, v)
            assert ok == reference_lattice_member(vas.generators, v), (vas, v)
            members += ok
            refuted += not ok
    assert members and refuted


def test_lattice_member_rank_deficient():
    line = VasSystem(2, ((2, 4), (-3, -6)))
    assert lattice_member(line, (1, 2))
    assert not lattice_member(line, (1, 3))  # off the rational span
    plane = VasSystem(3, ((1, 2, 3), (2, 4, 6), (0, 1, 1)))
    assert lattice_member(plane, (1, 3, 4))
    assert not lattice_member(plane, (1, 2, 4))  # off the rational span
    assert not lattice_member(VasSystem(3, ((0, 0, 0),)), (0, 0, 1))
    assert lattice_member(VasSystem(1, ()), (0,))


def test_lattice_member_checks_arity():
    with pytest.raises(InvalidInputError):
        lattice_member(VasSystem(3, ((1, 0, 0),)), (1, 0))


def test_int_cone_examples(ex1):
    res = int_cone_member(ex1, (1, 1))
    assert res.is_member
    assert res.coefficients is not None
    assert not int_cone_member(ex1, (-1, -1)).is_member
    res = int_cone_member(ex1, (0, 3))
    assert res.is_member


def _brute_int_cone(gens, v, bound=14):
    for combo in itertools.product(range(bound), repeat=len(gens)):
        acc = (
            sum(c * g[0] for c, g in zip(combo, gens)),
            sum(c * g[1] for c, g in zip(combo, gens)),
        )
        if acc == v:
            return True
    return False


def test_int_cone_differential():
    rng = random.Random(5)
    for _ in range(150):
        gens = tuple(
            tuple(rng.randint(-2, 2) for _ in range(2))
            for _ in range(rng.randint(1, 4))
        )
        vas = VasSystem(2, gens)
        v = (rng.randint(-4, 4), rng.randint(-4, 4))
        res = int_cone_member(vas, v)
        assert res.status is not Membership.UNDECIDED
        assert res.is_member == _brute_int_cone(gens, v), (gens, v)
        if res.is_member:
            acc = (0, 0)
            for c, g in zip(res.coefficients, gens):
                acc = (acc[0] + c * g[0], acc[1] + c * g[1])
            assert acc == v


# Rare branches of the integer-cone solvers, each checked against brute force.
FALLBACK_CONE = ((1, 0), (1, 1001), (1, 1), (1, 2))
# a half-plane y >= 0 whose boundary steps are +-3: its members at height 0
# are exactly the (k, 0) with 3 dividing k
BOUNDARY_HALF_PLANE = ((3, 0), (-3, 0), (1, 1), (2, 1))


@pytest.mark.parametrize(
    "gens, v",
    [
        # a line with steps of both signs
        (((2, 0), (-3, 0)), (1, 0)),
        # a half-plane whose boundary line has steps of both signs
        (((1, 0), (-1, 0), (0, 1)), (3, 2)),
        # a proper cone whose |det|^2 candidates exceed the budget, so the
        # facet-window BFS decides; (2, 5) drains it
        (FALLBACK_CONE, (5, 7)),
        (FALLBACK_CONE, (3, 2)),
        (FALLBACK_CONE, (2, 5)),
        # a half-plane target on its boundary line
        *[(BOUNDARY_HALF_PLANE, (k, 0)) for k in range(-6, 7)],
    ],
)
def test_int_cone_rare_branches(gens, v):
    if gens == FALLBACK_CONE:
        assert 1001**2 > DEFAULT_INT_CONE_BUDGET
    res = int_cone_member(VasSystem(2, gens), v)
    assert res.status is not Membership.UNDECIDED
    assert res.is_member == _brute_int_cone(gens, v)
    if gens == BOUNDARY_HALF_PLANE:
        assert res.is_member == (v[0] % 3 == 0)
    if res.is_member:
        assert all(c >= 0 for c in res.coefficients)
        assert tuple(
            sum(c * g[k] for c, g in zip(res.coefficients, gens)) for k in range(2)
        ) == v


@pytest.mark.parametrize(
    "gens, v, walked, status",
    [
        # the whole box of 13 candidates holds no solution
        (BOUNDARY_HALF_PLANE, (4, 0), 13, Membership.NON_MEMBER),
        # every generator adds 1 to x, so every candidate costs 0 and every
        # solution has 5 steps; the 8th candidate, in tuple order, completes
        (FALLBACK_CONE, (5, 7), 8, Membership.MEMBER),
    ],
)
def test_int_cone_budget_counts_walked_points(monkeypatch, gens, v, walked, status):
    vas = VasSystem(2, gens)
    monkeypatch.setattr(geometry, "DEFAULT_INT_CONE_BUDGET", walked)
    assert int_cone_member(vas, v).status is status
    monkeypatch.setattr(geometry, "DEFAULT_INT_CONE_BUDGET", walked - 1)
    assert int_cone_member(vas, v).status is Membership.UNDECIDED


def _plane_distances(gens, window):
    """Least step counts from the origin over the generators, by BFS inside
    the square [-window, window]^2."""
    dist = {(0, 0): 0}
    frontier = [(0, 0)]
    while frontier:
        nxt = []
        for p in frontier:
            for g in gens:
                q = (p[0] + g[0], p[1] + g[1])
                if q not in dist and max(abs(q[0]), abs(q[1])) <= window:
                    dist[q] = dist[p] + 1
                    nxt.append(q)
        frontier = nxt
    return dist


def test_int_cone_least_length():
    # steps of infinity-norm at most 2 to a target of norm at most 6: the
    # Steinitz lemma orders any combination so that its partial sums stay
    # within 2 * (2 + 6) of the segment to the target, inside the window.
    rng = random.Random(13)
    members = {kind: 0 for kind in ConeKind}
    for _ in range(120):
        gens = tuple(
            tuple(rng.randint(-2, 2) for _ in range(2))
            for _ in range(rng.randint(2, 4))
        )
        vas = VasSystem(2, gens)
        cone = cone_from_generators(vas)
        dist = _plane_distances(gens, 6 + 2 * (2 + 6))
        for v in itertools.product(range(-6, 7), repeat=2):
            res = int_cone_member(vas, v)
            assert res.status is not Membership.UNDECIDED
            assert res.is_member == (v in dist), (gens, v)
            if res.is_member:
                assert combination(gens, res.coefficients) == v
                assert min(res.coefficients) >= 0
                assert sum(res.coefficients) == dist[v], (gens, v, res)
                members[cone.kind] += 1
    assert members[ConeKind.PROPER_CONE] > 500, members
    assert sum(members.values()) - members[ConeKind.PROPER_CONE] > 500, members


@pytest.mark.parametrize(
    "gens",
    [
        # proper cones whose extremal rays each hold two generators of
        # different lengths
        ((-1, 2), (-2, 4), (2, -1), (4, -2), (10, 10)),
        ((-1, 1), (-3, 3), (1, 0), (2, 0), (1, 1)),
    ],
)
def test_int_cone_length_independent_of_generator_order(gens):
    forwards, reversed_ = VasSystem(2, gens), VasSystem(2, gens[::-1])
    members = 0
    for v in itertools.product(range(-20, 21), repeat=2):
        a, b = int_cone_member(forwards, v), int_cone_member(reversed_, v)
        assert a.status is b.status, (gens, v)
        if a.is_member:
            members += 1
            assert sum(a.coefficients) == sum(b.coefficients), (gens, v, a, b)
    assert members > 200, members


def test_int_cone_implies_lattice_and_facets(ex1):
    cone = cone_from_generators(ex1)
    for v in [(1, 1), (0, 3), (5, 5), (11, 11)]:
        if int_cone_member(ex1, v).is_member:
            assert lattice_member(ex1, v)
            for f in cone.facets:
                assert dot(f, v) >= 0


def test_is_m_deep(ex1):
    cone = cone_from_generators(ex1)
    assert is_m_deep(cone, (5, 5), 15)
    assert not is_m_deep(cone, (5, 5), 16)
    assert is_m_deep(cone, (0, 0), 0)
    full = cone_from_generators(VasSystem(2, ((1, 0), (-1, 1), (0, -1))))
    assert full.kind is ConeKind.FULL_PLANE
    assert is_m_deep(full, (-50, -50), 10**9)


def test_ditc_scan_example1(ex1):
    report = ditc_falsification_scan(ex1, default_deep_constant(ex1).value, 40)
    assert report.counterexamples == ()
    assert report.undecided == ()
    # the default M is far beyond any 40-radius point, so the scan is vacuous
    assert report.deep_lattice_points == 0


def test_ditc_scan_direct():
    vas = VasSystem(2, ((2, 0), (0, 2)))
    report = ditc_falsification_scan(vas, 0, 3)
    assert report.counterexamples == ()
    assert report.deep_lattice_points == 4  # even points of [0,3]^2


def per_point_scan(vas, m, radius):
    """The scan tested point by point: (counterexamples, undecided, count)."""
    cone = cone_from_generators(vas)
    bad, undecided, checked = [], [], 0
    for v in itertools.product(range(-radius, radius + 1), repeat=2):
        if not is_m_deep(cone, v, m) or not lattice_member(vas, v):
            continue
        checked += 1
        status = int_cone_member(vas, v).status
        if status is Membership.NON_MEMBER:
            bad.append(v)
        elif status is Membership.UNDECIDED:
            undecided.append(v)
    return tuple(bad), tuple(undecided), checked


def test_ditc_scan_matches_per_point_scan():
    rng = random.Random(31)
    systems = [random_vas(rng, 2, 4, 4) for _ in range(60)]
    # a ray, a line, the zero system and an axis-parallel facet (b = 0)
    systems += [VasSystem(2, g) for g in (((1, 2), (2, 4)), ((1, -1), (-2, 2)),
                                          ((0, 0),), ((1, 0), (-1, 0), (1, 1)))]
    for vas in systems:
        m, radius = rng.randint(-5, 20), rng.randint(0, 6)
        report = ditc_falsification_scan(vas, m, radius)
        got = (report.counterexamples, report.undecided, report.deep_lattice_points)
        assert got == per_point_scan(vas, m, radius), (vas, m, radius)


def kind_vas(rng, kind):
    """A random 2-VAS whose cone is of ``kind``, entries up to 12; about
    one in three has every x entry scaled by 2 or 3 (lattice index > 1).
    Half-planes keep entries up to 4: their per-point search exhausts a box
    for each non-member, whose sides grow with the entries."""
    while True:
        d = (rng.randint(-3, 3), rng.randint(-3, 3))
        if kind in (ConeKind.PROPER_CONE, ConeKind.FULL_PLANE):
            gens = random_vas(rng, 2, rng.choice([3, 6, 12]), 5).generators
        elif kind is ConeKind.HALF_PLANE:
            # the line of d, and generators on its left
            side = [(x, y) for x, y in ((rng.randint(-4, 4), rng.randint(-4, 4))
                                        for _ in range(rng.randint(1, 3)))
                    if d[0] * y - d[1] * x > 0]
            gens = [d, (-2 * d[0], -2 * d[1])] + side
        elif kind is ConeKind.RAY:
            gens = [(k * d[0], k * d[1]) for k in rng.sample(range(1, 4), 2)]
        elif kind is ConeKind.LINE:
            gens = [d, (-rng.randint(1, 3) * d[0], -rng.randint(1, 3) * d[1])]
        else:
            gens = [(0, 0)]
        if rng.random() < 1 / 3:
            k = rng.choice([2, 3])
            gens = [(k * x, y) for x, y in gens]
        vas = VasSystem(2, tuple(gens))
        if cone_from_generators(vas).kind is kind:
            return vas


# (kind, systems): the per-point reference is slowest on full planes
SCAN_KINDS = [
    (ConeKind.PROPER_CONE, 40),
    (ConeKind.FULL_PLANE, 5),
    (ConeKind.HALF_PLANE, 12),
    (ConeKind.RAY, 10),
    (ConeKind.LINE, 10),
    (ConeKind.ZERO_ONLY, 3),
]


def scan_tuple(report):
    return report.counterexamples, report.undecided, report.deep_lattice_points


def test_lattice_column_matches_contains():
    rng = random.Random(41)
    for _ in range(30):
        vas = kind_vas(rng, rng.choice([ConeKind.PROPER_CONE, ConeKind.HALF_PLANE]))
        lattice = geometry._LatticeSolver(vas.generators)
        assert lattice.rank == 2
        for x in range(-8, 9):
            ys = [y for y in range(-8, 9) if lattice.contains((x, y))]
            assert list(lattice.column(x, -8, 8)) == ys, (vas, x)
            assert list(lattice.column(x, 3, -3)) == []


@pytest.mark.parametrize("kind, count", SCAN_KINDS, ids=lambda v: getattr(v, "value", v))
def test_ditc_flood_matches_per_point_scan(kind, count):
    rng = random.Random(f"flood {kind.value}")
    for _ in range(count):
        vas = kind_vas(rng, kind)
        m, radius = rng.randint(-5, 20), rng.randint(0, 20)
        got = scan_tuple(ditc_falsification_scan(vas, m, radius))
        assert got == per_point_scan(vas, m, radius), (vas, m, radius)


def test_ditc_flood_reports_points_outside_the_cone():
    # m < 0 admits lattice points outside the cone: counterexamples, listed
    # in column order around the in-cone members of their column
    vas = VasSystem(2, ((1, 0), (1, 2)))
    report = ditc_falsification_scan(vas, -2, 3)
    assert scan_tuple(report) == per_point_scan(vas, -2, 3)
    assert (1, -2) in report.counterexamples and (0, 2) in report.counterexamples


@pytest.fixture
def searched(monkeypatch):
    """The points that ``_IntConeSearch.member`` is asked about."""
    points = []
    member = geometry._IntConeSearch.member

    def spy(self, v):
        points.append(v)
        return member(self, v)

    monkeypatch.setattr(geometry._IntConeSearch, "member", spy)
    return points


def test_ditc_flood_falls_back_over_budget(monkeypatch, searched):
    rng = random.Random(43)
    systems = [kind_vas(rng, ConeKind.PROPER_CONE) for _ in range(6)]
    systems.append(VasSystem(2, ((-1, 2), (2, -1), (10, 10))))
    cases = [(vas, rng.randint(-5, 8), rng.randint(4, 16)) for vas in systems]
    flooded = [ditc_falsification_scan(vas, m, r) for vas, m, r in cases]
    assert searched == []
    # a budget of 0 refuses every flood
    monkeypatch.setattr(geometry, "DEFAULT_NODE_BUDGET", 0)
    for (vas, m, r), report in zip(cases, flooded):
        del searched[:]
        assert ditc_falsification_scan(vas, m, r) == report, (vas, m, r)
        assert len(searched) == report.deep_lattice_points, (vas, m, r)
    # a budget of exactly ex1's table still floods it: 175 x 175 cells at
    # m = 0 and radius 48, with 30 padding rows and columns
    ex1 = systems[-1]
    monkeypatch.setattr(geometry, "DEFAULT_NODE_BUDGET", 175 * 175)
    del searched[:]
    ditc_falsification_scan(ex1, 0, 48)
    assert searched == []
    monkeypatch.setattr(geometry, "DEFAULT_NODE_BUDGET", 175 * 175 - 1)
    assert ditc_falsification_scan(ex1, 0, 48).deep_lattice_points == len(searched)


def test_ditc_scan_never_searches_pointed_cones_or_full_planes(searched):
    rng = random.Random(47)
    for kind in (ConeKind.PROPER_CONE, ConeKind.FULL_PLANE):
        for _ in range(10):
            vas = kind_vas(rng, kind)
            report = ditc_falsification_scan(vas, rng.randint(-5, 20), 12)
            assert searched == [], vas
            assert report.undecided == ()
    # the spy sees the searches that half-planes still make
    vas = kind_vas(rng, ConeKind.HALF_PLANE)
    report = ditc_falsification_scan(vas, 0, 6)
    assert len(searched) == report.deep_lattice_points > 0


def test_seed_example1(ex1):
    seed = compute_seed(ex1)
    assert seed.s == (10, 10)
    assert seed.s_pos == (560, 560)
    assert inf_norm(seed.s_pos) <= 8 * ex1.norm**3
    assert is_box_reaching_trace(ex1, seed.witness.indices, seed.s)


def test_seed_staircase():
    vas = VasSystem(2, ((3, 0), (-1, 2)))
    seed = compute_seed(vas)
    assert seed.s == (8, 2)
    assert is_box_reaching_trace(vas, seed.witness.indices, seed.s)


def test_seed_staircase_length_is_budgeted(monkeypatch):
    vas = VasSystem(2, ((3, 0), (-1, 2)))  # a staircase of 4 steps
    monkeypatch.setattr(geometry, "DEFAULT_NODE_BUDGET", 4)
    assert len(compute_seed(vas).witness) == 4
    monkeypatch.setattr(geometry, "DEFAULT_NODE_BUDGET", 3)
    with pytest.raises(ResourceBudgetError):
        compute_seed(vas)


def test_seed_degenerate():
    with pytest.raises(DegenerateSystemError):
        compute_seed(VasSystem(2, ((-1, 0), (0, -2), (-3, -3))))


def test_facet_product_examples():
    c1 = cone_from_generators(VasSystem(2, ((1, 1), (-2, -1))))
    assert facet_product_bound_check(c1, (3, 3))
    assert facet_product_bound_check(c1, (0, 0))
    skew = cone_from_generators(VasSystem(2, ((100, 100), (-2, -1))))
    assert facet_product_bound_check(skew, (10, 10))


def test_facet_product_preconditions(ex1):
    cone = cone_from_generators(ex1)  # no strictly negative extremal
    with pytest.raises(PreconditionError):
        facet_product_bound_check(cone, (1, 1))
    c1 = cone_from_generators(VasSystem(2, ((1, 1), (-2, -1))))
    with pytest.raises(PreconditionError):
        facet_product_bound_check(c1, (-1, 0))


def test_deep_constant_default(ex1):
    m = default_deep_constant(ex1)
    assert m.value == 16 * ex1.norm**3
    assert m.provenance == "default"
    assert DeepConstant(5).provenance == "configured"
