"""Rearranging a vector multiset so partial sums hug the straight line.

``steinitz_reorder`` produces a permutation whose prefix sums stay within
d*I (I = largest input infinity-norm) of the line from 0 to the total,
checked in exact integer arithmetic before returning.  The construction is
the classical chain-of-polytopes argument: walk the index set down one
element at a time, at each level purifying a feasible fractional point of

    { lam in [0,1]^A : sum lam = |A| - 1 - d,  sum lam_i v_i is the
      matching point on the line }

until at most d+1 of its entries are fractional.  Such a point always has
a zero coordinate (a counting argument rules out the all-ones/fraction
split), and dropping that index keeps the next level feasible.

Purification works on a window of d + 2 fractional coordinates at a time.
Any d + 2 columns [1; v_i] of the (d+1)-row system are dependent, so the
window has an integer kernel vector: e_a - e_b when two of its vectors
are equal, else one read off the cofactors of r independent rows and
r + 1 columns of rank r of the differences v_j - v_0, where r <= d is
their rank.  The point moves along it until a window coordinate reaches 0
or 1, and the window refills from the other fractional coordinates;
purification stops when at most d + 1 are left.  A step at full rank costs
d + 1 determinants of order d, in closed form up to d = 3, instead of a
``Fraction`` elimination over every fractional coordinate, and a level of
t coordinates takes at most t - d - 1 steps, so the reorder takes fewer
than k^2 / 2 of them.

``reorder_counts`` orders a multiset given as per-generator counts, the form
witness synthesis produces, with a largest-deficit proportional schedule:
each type stays within one copy of its ideal share, which bounds the prefix
deviation by the sum of the distinct generators' norms and so meets the
drop/peak bounds of ``check_steinitz_drop_peak`` for every multiset size.
It is built run by run, never step by step: two types have a closed form
(one list fill plus C-level index arithmetic for the smaller type), and
three or more pay the number of types per run of equal indices.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat
from operator import floordiv
from typing import Sequence

# drop_peak and effect are not called here; perfbench/tracing.py patches them
from .core import VasSystem, Vector, drop_peak, effect, inf_norm, walk
from .errors import InternalCheckError, InvalidInputError, PreconditionError


@dataclass(frozen=True)
class SteinitzResult:
    permutation: tuple[int, ...]
    corridor_bound: int  # d * I
    verified: bool


def _det(rows: list[list[int]]) -> int:
    """Determinant of a square integer matrix: in closed form at order 2 and
    3, else by fraction-free (Bareiss) elimination, in which every division
    is exact."""
    if len(rows) == 2:
        (a, b), (c, d) = rows
        return a * d - b * c
    if len(rows) == 3:
        (a, b, c), (d, e, f), (g, h, i) = rows
        return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
    m = [row[:] for row in rows]
    n = len(m)
    sign, prev = 1, 1
    for c in range(n - 1):
        if not m[c][c]:
            p = next((r for r in range(c + 1, n) if m[r][c]), None)
            if p is None:
                return 0
            m[c], m[p] = m[p], m[c]
            sign = -sign
        piv, top = m[c][c], m[c]
        for r in range(c + 1, n):
            a, row = m[r][c], m[r]
            m[r] = [0] * (c + 1) + [
                (row[j] * piv - a * top[j]) // prev for j in range(c + 1, n)
            ]
        prev = piv
    return sign * m[n - 1][n - 1]


def _cofactor_kernel(cols: Sequence[Sequence[int]]) -> list[int]:
    """The signed r x r minors of r + 1 integer columns of r entries each: a
    kernel vector of them, zero exactly when their rank is below r."""
    return [
        (-1) ** j * _det([*cols[:j], *cols[j + 1:]]) for j in range(len(cols))
    ]


def _window_kernel(cols: Sequence[Vector]) -> list[int]:
    """A nonzero integer kernel vector of the d + 2 columns [1; v], which
    d + 1 rows always leave dependent: e_a - e_b for two equal columns, else
    (sum(mu), -mu) for a kernel vector mu of the d x (d + 1) differences
    w_j = v_j - v_0.  mu is the cofactors of r independent rows of them and
    r + 1 columns of rank r on those rows, padded with zeros, where r is
    their rank; the other rows are combinations of the chosen ones, so they
    vanish on mu too.  Full rank, r = d, takes every row and column, and
    gives the cofactors of the columns [1; v] themselves."""
    first: dict[Vector, int] = {}
    for j, v in enumerate(cols):
        if v in first:
            nu = [0] * len(cols)
            nu[first[v]], nu[j] = 1, -1
            return nu
        first[v] = j
    w = [[x - y for x, y in zip(v, cols[0])] for v in cols[1:]]
    mu = _cofactor_kernel(w)
    if not any(mu):
        # the rank is below d: grow a nonsingular minor to at most d - 1
        # rows; a row independent of the rows chosen so far extends it by
        # some column
        d = len(cols[0])
        rows: list[int] = []
        js: list[int] = []
        for i in range(d):
            if len(rows) == d - 1:
                break
            for j in (j for j in range(len(w)) if j not in js):
                if _det([[w[x][k] for k in rows + [i]] for x in js + [j]]):
                    rows.append(i)
                    js.append(j)
                    break
        js = sorted(js + [next(j for j in range(len(w)) if j not in js)])
        for j, x in zip(js, _cofactor_kernel([[w[j][k] for k in rows] for j in js])):
            mu[j] = x
    return [sum(mu), *(-x for x in mu)]


def _purify(
    mu: dict[int, Fraction], vectors: Sequence[Vector], d: int
) -> None:
    """Move a feasible point, in place, until at most d + 1 coordinates are
    fractional, which is all the counting argument needs.

    Each step walks a kernel direction of a window of d + 2 fractional
    coordinates until one of them reaches 0 or 1; that keeps every
    constraint, and the window is refilled from the other fractional ones.
    """
    free = [i for i in mu if 0 < mu[i] < 1]
    window, rest = free[: d + 2], free[d + 2:]
    while len(window) == d + 2:
        nu = _window_kernel([vectors[i] for i in window])
        theta = min(
            (1 - mu[i]) / x if x > 0 else mu[i] / -x
            for x, i in zip(nu, window)
            if x
        )
        for x, i in zip(nu, window):
            if x:
                mu[i] += theta * x
        window = [i for i in window if 0 < mu[i] < 1]
        while len(window) < d + 2 and rest:
            window.append(rest.pop())


def steinitz_reorder(vectors: Sequence[Sequence[int]]) -> SteinitzResult:
    """Permutation keeping every prefix sum within d*I of the straight line.

    The bound is re-verified exactly before returning; a verification
    failure would contradict the construction and raises an internal error.
    """
    vecs = [tuple(int(x) for x in v) for v in vectors]
    if not vecs:
        raise PreconditionError("steinitz_reorder requires a nonempty input")
    d = len(vecs[0])
    if any(len(v) != d for v in vecs):
        raise InvalidInputError("all vectors must have the same arity")
    k = len(vecs)
    bound = d * max(inf_norm(v) for v in vecs)

    active = set(range(k))
    lam = {i: Fraction(k - d, k) for i in active}
    removed: list[int] = []
    for t in range(k, d, -1):
        # scale the level-t point down to the level-(t-1) polytope over the
        # same ground set, then purify; a point there with at most d + 1
        # fractional entries must have a zero
        ell = t - 1 - d
        rho = Fraction(ell, t - d)
        mu = {i: lam[i] * rho for i in active}
        _purify(mu, vecs, d)
        zeros = sorted(i for i in active if mu[i] == 0)
        if not zeros:
            raise InternalCheckError("no zero coordinate after purification")
        z = zeros[0]
        active.remove(z)
        removed.append(z)
        del mu[z]
        lam = mu
    perm = tuple(sorted(active)) + tuple(reversed(removed))
    if not _verify_corridor(vecs, perm, bound):
        raise InternalCheckError("reordered prefix sums left the corridor")
    return SteinitzResult(perm, bound, True)


def _verify_corridor(
    vecs: list[Vector], perm: tuple[int, ...], bound: int
) -> bool:
    """Exact corridor check: |k * prefix_n - (n - d) * total| <= k * bound
    componentwise for every n in [d, k] (all-integer, no rounding)."""
    k = len(vecs)
    d = len(vecs[0])
    total = tuple(sum(v[c] for v in vecs) for c in range(d))
    prefix = [0] * d
    for n, idx in enumerate(perm, start=1):
        for c in range(d):
            prefix[c] += vecs[idx][c]
        if n < d:
            continue
        for c in range(d):
            if abs(k * prefix[c] - (n - d) * total[c]) > k * bound:
                return False
    return True


def check_steinitz_drop_peak(vas: VasSystem, path: Sequence[int]) -> bool:
    """Check the drop/peak bounds a reordered path must satisfy: drops at
    most 2*norm and peaks at most effect + 2*norm, per coordinate."""
    eff, drops, peaks = walk(vas, path)
    if any(e < 0 for e in eff):
        raise PreconditionError(
            "drop/peak bounds apply to paths with nonnegative effect"
        )
    limit = 2 * vas.norm
    return all(dr <= limit for dr in drops) and all(
        pk <= e + limit for pk, e in zip(peaks, eff)
    )


def reorder_counts(vas: VasSystem, counts: Sequence[int]) -> list[int]:
    """Order a multiset given as per-generator counts so prefix sums track
    the proportional line.

    A largest-deficit schedule keeps each type within one copy of its ideal
    share, so the prefix deviation stays under the sum of the distinct
    generators' norms, for any multiset size.  ``steinitz_reorder`` is the
    exact construction for an explicit vector list.

    Step n (from 1) places a type i with a copy left that maximises
    S_i = n * c_i - p_i * k, where p_i copies of it are placed and k is the
    multiset size; ties go to the lowest index.  The order is built run by
    run: in closed form for two types, one run per loop otherwise.
    """
    counts = [int(c) for c in counts]
    if len(counts) != len(vas.generators):
        raise PreconditionError("one count per generator is required")
    if any(c < 0 for c in counts):
        raise PreconditionError("counts must be nonnegative")
    live = [i for i, c in enumerate(counts) if c > 0]
    if len(live) == 2:
        return _two_type_order(live[0], counts[live[0]], live[1], counts[live[1]])
    return _run_order(counts, live)


def _two_type_order(i: int, ci: int, j: int, cj: int) -> list[int]:
    """The largest-deficit order of ci copies of i and cj copies of j, i < j.

    With k = ci + cj, type i wins step n while p_i = q iff
    n * 2ci >= (2q + 1) * k, the tie going to i, and j wins while p_j = q
    iff n * 2cj > (2q + 1) * k.  So copy q of i sits at step
    ceil(k(2q+1) / 2ci) and copy q of j at step floor(k(2q+1) / 2cj) + 1:
    the list starts as the type with more copies, and the other type's
    copies are written into it at those steps less one, as list indices
    (ceil(a / b) - 1 = (a - 1) // b).
    """
    k = ci + cj
    if ci <= cj:
        order = [j] * k
        minor = i
        spots = map(floordiv, range(k - 1, 2 * k * ci, 2 * k), repeat(2 * ci))
    else:
        order = [i] * k
        minor = j
        spots = map(floordiv, range(k, 2 * k * cj, 2 * k), repeat(2 * cj))
    # consume the map without a Python-level loop
    deque(map(order.__setitem__, spots, repeat(minor)), maxlen=0)
    return order


def _run_order(counts: list[int], live: list[int]) -> list[int]:
    """The largest-deficit order, one run of the winning type per loop.

    While j keeps winning, each step adds c_j - k to S_j and c_i to every
    other S_i, so j still beats i after m more steps iff
    S_j - S_i - [i < j] >= m * (k + c_i - c_j).  The run therefore lasts
    the least of floor((S_j - S_i - [i < j]) / (k + c_i - c_j)) + 1 over
    the other types with copies left, and at most j's own copies left.
    """
    k = sum(counts)
    left = counts[:]
    deficit = counts[:]  # S_i at step 1
    order: list[int] = []
    while live:
        j = live[0]
        for i in live:
            if deficit[i] > deficit[j]:  # strict: ties stay with the lower index
                j = i
        lead, cj = deficit[j], counts[j]
        run = left[j]
        for i in live:
            if i != j:
                m = (lead - deficit[i] - (i < j)) // (k + counts[i] - cj) + 1
                if m < run:
                    run = m
        if run < 1:
            raise InternalCheckError(f"empty run for generator {j}")
        order += repeat(j, run)
        for i in live:
            deficit[i] += run * counts[i]
        deficit[j] -= run * k
        left[j] -= run
        if not left[j]:
            live.remove(j)
    return order
