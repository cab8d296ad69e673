"""Differential test of the threshold dispatch on every 2-VAS with at most
three distinct generators in [-2, 2]^2 (2,625 systems).

The reference below is the dispatch that predates the axis-ray members of
``QuadrantRelation``: ``compute_threshold`` rebuilt the set of directions
where the cone meets the quadrant and routed cones touching it along one
axis ray by that set, the relation called them OTHER, and one-dimensional
steps were found by comparing primitive directions.  Every report and
every ``one_vas_threshold`` answer must be the same, and the relation may
differ only on the axis-contact cones, where it now names the axis.
"""
import itertools

import pytest

from boxvas import (
    DeepConstant,
    InternalCheckError,
    OneVasThreshold,
    PreconditionError,
    VasSystem,
    compute_threshold,
    one_vas_threshold,
)
from boxvas.core import dot
from boxvas.geometry import (
    ConeKind,
    QuadrantRelation,
    _primitive,
    cone_from_generators,
    default_deep_constant,
)

SYSTEMS = [
    gens
    for k in (1, 2, 3)
    for gens in itertools.combinations(
        [(x, y) for x in range(-2, 3) for y in range(-2, 3)], k
    )
]


def _reference_relation(cone, nonzero):
    if all(g[0] >= 0 and g[1] >= 0 for g in nonzero):
        return QuadrantRelation.CONTAINED_IN_QUADRANT
    if cone.kind in (ConeKind.PROPER_CONE, ConeKind.HALF_PLANE, ConeKind.FULL_PLANE):
        if all(f[0] >= 0 and f[1] >= 0 for f in cone.facets):
            return QuadrantRelation.CONTAINS_QUADRANT
    if cone.kind is ConeKind.PROPER_CONE:
        chi1, chi2 = cone.chi1, cone.chi2
        if chi2[0] > 0 and chi2[1] > 0 and chi1[0] <= 0:
            return QuadrantRelation.INTERSECTS_VIA_Y_AXIS_SIDE
        if chi1[0] > 0 and chi1[1] > 0 and chi2[1] <= 0:
            return QuadrantRelation.INTERSECTS_VIA_X_AXIS_SIDE
    return QuadrantRelation.OTHER


def _reference_contact(cone):
    return {
        _primitive(v)
        for v in (cone.chi1, cone.chi2, (1, 0), (0, 1))
        if v is not None and min(v) >= 0 and all(dot(f, v) >= 0 for f in cone.facets)
    }


def _reference_steps(vas):
    if vas.dim == 1:
        return [g[0] for g in vas.generators]
    nonzero = [g for g in vas.generators if any(g)]
    if not nonzero:
        return [0 for _ in vas.generators]
    d = _primitive(nonzero[0])
    if d[0] < 0 or (d[0] == 0 and d[1] < 0):
        d = (-d[0], -d[1])
    for g in nonzero:
        p = _primitive(g)
        if p != d and p != (-d[0], -d[1]):
            return None
    if d[0] < 0 or d[1] < 0:
        return []
    coord = 0 if d[0] != 0 else 1
    return [g[coord] for g in vas.generators]


def _reference_one_vas(vas):
    steps = _reference_steps(vas)
    if steps is None:
        raise PreconditionError("not one-dimensional")
    positive = [a for a in steps if a > 0]
    if not positive:
        return OneVasThreshold(m1=0, min_step=0, degenerate=True)
    return OneVasThreshold(m1=2 * vas.norm**3, min_step=min(positive), degenerate=False)


def _reference_threshold(vas, m):
    """(w, case, formula, degenerate) as the reference dispatch reports them."""
    m_used = m if m is not None else default_deep_constant(vas)
    n = vas.norm
    if not any(any(g) and min(g) >= 0 for g in vas.generators):
        return (0, "degenerate",
                "no nonzero nonnegative generator; reach = {0}, W vacuous", True)
    cone = cone_from_generators(vas)
    nonzero = [g for g in vas.generators if any(g)]
    relation = _reference_relation(cone, nonzero)
    if relation is QuadrantRelation.CONTAINED_IN_QUADRANT:
        return (0, "contained-in-quadrant", "all generators nonnegative; W = 0", False)
    if cone.kind in (ConeKind.RAY, ConeKind.LINE):
        m1 = _reference_one_vas(vas).m1
        return (m1, "one-dimensional", f"one-dimensional; W = M1 = {m1}", False)
    contact = _reference_contact(cone)
    if contact in ({(1, 0)}, {(0, 1)}):
        axis = 0 if (1, 0) in contact else 1
        steps = [g[axis] for g in vas.generators if g[axis] and not g[1 - axis]]
        if min(steps) > 0:
            return (0, "one-dimensional",
                    "cone meets the quadrant along one axis ray, where only positive "
                    "axis-parallel steps fire; reach = box-reach, W = 0", False)
        m1 = _reference_one_vas(VasSystem(1, tuple((a,) for a in steps))).m1
        return (m1, "one-dimensional",
                "cone meets the quadrant along one axis ray, where only the "
                f"axis-parallel steps fire; W = M1 = {m1}", False)
    plane = cone.kind in (ConeKind.HALF_PLANE, ConeKind.FULL_PLANE)
    if plane or relation is QuadrantRelation.CONTAINS_QUADRANT:
        w = 16 * n**3 + m_used.value
        return (w, "half-or-full-plane" if plane else "contains-quadrant",
                f"W = 16*norm^3 + M = 16*{n}^3 + {m_used.value} = {w}", False)
    if relation in (
        QuadrantRelation.INTERSECTS_VIA_X_AXIS_SIDE,
        QuadrantRelation.INTERSECTS_VIA_Y_AXIS_SIDE,
    ):
        w = 16 * n**4 + 4 * n + n * m_used.value
        return (w, "intersects-quadrant",
                f"W = 16*norm^4 + 4*norm + norm*M = 16*{n}^4 + 4*{n} + "
                f"{n}*{m_used.value} = {w}", False)
    raise InternalCheckError("unclassified cone shape")


def _answer(fn, *args):
    try:
        return fn(*args)
    except (PreconditionError, InternalCheckError) as e:
        return type(e)


def _report(vas, m):
    r = compute_threshold(vas, m)
    return (r.w, r.case_tag.value, r.formula_trace, r.degenerate)


@pytest.mark.parametrize("m", [None, DeepConstant(0)], ids=["default-m", "m0"])
def test_threshold_matches_reference_dispatch(m):
    for gens in SYSTEMS:
        vas = VasSystem(2, gens)
        assert _answer(_report, vas, m) == _answer(_reference_threshold, vas, m), gens


def test_one_vas_threshold_matches_reference():
    collinear = 0
    for gens in SYSTEMS:
        vas = VasSystem(2, gens)
        expected = _answer(_reference_one_vas, vas)
        assert _answer(one_vas_threshold, vas) == expected, gens
        collinear += expected is not PreconditionError
    assert collinear == 121


def test_relation_changes_only_on_axis_contact_cones():
    along = {(1, 0): QuadrantRelation.ALONG_X_AXIS, (0, 1): QuadrantRelation.ALONG_Y_AXIS}
    changed = {axis: 0 for axis in along}
    for gens in SYSTEMS:
        cone = cone_from_generators(VasSystem(2, gens))
        old = _reference_relation(cone, [g for g in gens if any(g)])
        axis_contact = (
            cone.kind not in (ConeKind.ZERO_ONLY, ConeKind.RAY, ConeKind.LINE)
            and old is not QuadrantRelation.CONTAINED_IN_QUADRANT
            and len(contact := _reference_contact(cone)) == 1
            and contact <= along.keys()
        )
        if axis_contact:
            (axis,) = contact
            assert old is QuadrantRelation.OTHER, gens
            assert cone.quadrant_relation is along[axis], gens
            changed[axis] += 1
        else:
            assert cone.quadrant_relation is old, gens
    assert changed == {(1, 0): 180, (0, 1): 180}
