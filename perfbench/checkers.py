"""Reference computations and answer checks, written apart from boxvas.

Nothing here imports the package under test.  Each check raises
``CheckFailed`` with a reason when an answer is wrong and returns quietly
otherwise; the reference functions compute what the answer must be by the
plainest method that is still fast enough for the benchmark's small inputs.
"""
from __future__ import annotations

from collections import deque
from fractions import Fraction
from math import gcd
from typing import Sequence


class CheckFailed(Exception):
    """An answer disagrees with the independent computation."""


def require(cond: bool, reason: str) -> None:
    if not cond:
        raise CheckFailed(reason)


# ---------------------------------------------------------------------------
# path simulators


def check_vas_path(
    gens: Sequence[Sequence[int]],
    path: Sequence[int],
    target: Sequence[int],
    box: Sequence[int] | None = None,
) -> None:
    """Every prefix of ``path`` lies in [0, box] (box defaults to target) and
    the whole path ends at ``target``."""
    box = tuple(target if box is None else box)
    dim = len(box)
    pos = [0] * dim
    n = len(gens)
    for step, i in enumerate(path):
        require(isinstance(i, int) and 0 <= i < n, f"step {step}: bad index {i!r}")
        g = gens[i]
        for k in range(dim):
            pos[k] += g[k]
            if not 0 <= pos[k] <= box[k]:
                raise CheckFailed(f"step {step}: prefix {pos} leaves [0, {list(box)}]")
    require(pos == list(target), f"path ends at {pos}, not {list(target)}")


def check_vass1_path(
    trans: Sequence[tuple[str, int, str]],
    q0: str,
    q_target: str,
    path: Sequence[int],
    x: int,
) -> None:
    """``path`` is a run of contiguous transitions from (0, q0) to
    (x, q_target) whose counter never leaves [0, x]."""
    q, v = q0, 0
    for step, i in enumerate(path):
        require(isinstance(i, int) and 0 <= i < len(trans), f"step {step}: bad index {i!r}")
        src, w, dst = trans[i]
        require(src == q, f"step {step}: transition {i} leaves {src}, not {q}")
        v += w
        require(0 <= v <= x, f"step {step}: counter {v} leaves [0, {x}]")
        q = dst
    require((v, q) == (x, q_target), f"run ends at {(v, q)}, not {(x, q_target)}")


# ---------------------------------------------------------------------------
# brute-force reachability


def grid_distances(gens: Sequence[Sequence[int]], cap: Sequence[int]) -> dict:
    """Fewest steps from 0 to each cell of [0, cap] it reaches by steps that
    stay inside the box; unreached cells are absent."""
    cap = tuple(cap)
    start = (0,) * len(cap)
    dist = {start: 0}
    queue = deque([start])
    while queue:
        p = queue.popleft()
        for g in gens:
            q = tuple(a + b for a, b in zip(p, g))
            if q not in dist and all(0 <= a <= c for a, c in zip(q, cap)):
                dist[q] = dist[p] + 1
                queue.append(q)
    return dist


def box_reachable(gens: Sequence[Sequence[int]], target: Sequence[int]) -> bool:
    return tuple(target) in grid_distances(gens, target)


def capped_reachable(
    gens: Sequence[Sequence[int]], target: Sequence[int], cap: Sequence[int]
) -> bool:
    return tuple(target) in grid_distances(gens, cap)


def vass1_box_reachable(
    trans: Sequence[tuple[str, int, str]], q0: str, q_target: str, x: int
) -> bool:
    """(x, q_target) reachable from (0, q0) with the counter inside [0, x]."""
    out: dict[str, list[tuple[int, str]]] = {}
    for src, w, dst in trans:
        out.setdefault(src, []).append((w, dst))
    seen = {(0, q0)}
    queue = deque(seen)
    while queue:
        v, q = queue.popleft()
        if (v, q) == (x, q_target):
            return True
        for w, dst in out.get(q, ()):
            nxt = (v + w, dst)
            if 0 <= nxt[0] <= x and nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return False


def semilinear_contains(
    explicit: set[int], components: Sequence[dict], x: int
) -> bool:
    """Membership of x in explicit ∪ {base + N·periods} by direct search."""
    if x in explicit:
        return True
    for comp in components:
        base, periods = comp["base"], comp["periods"]
        rest = x - base
        if rest < 0:
            continue
        if not periods:
            if rest == 0:
                return True
            continue
        if len(periods) == 1:
            if rest % periods[0] == 0:
                return True
            continue
        # representable[r]: r is a nonnegative combination of the periods
        representable = [False] * (rest + 1)
        representable[0] = True
        for r in range(1, rest + 1):
            representable[r] = any(p <= r and representable[r - p] for p in periods)
        if representable[rest]:
            return True
    return False


# ---------------------------------------------------------------------------
# formulas and invariants


def vas_norm(gens: Sequence[Sequence[int]]) -> int:
    """d times the sum of the generators' infinity norms."""
    dim = len(gens[0])
    return dim * sum(max(abs(a) for a in g) for g in gens)


def paper_threshold(
    gens: Sequence[Sequence[int]], case: str, m: int | None = None
) -> tuple[int, int]:
    """(W, M) by the paper's case formula; M defaults to 16·norm³."""
    n = vas_norm(gens)
    if m is None:
        m = 16 * n**3
    if case in ("contains-quadrant", "half-or-full-plane"):
        return 16 * n**3 + m, m
    if case == "intersects-quadrant":
        return 16 * n**4 + 4 * n + n * m, m
    raise ValueError(f"no formula for case {case!r}")


def blocked_by_invariant(
    gens: Sequence[Sequence[int]], target: Sequence[int], weights: Sequence[int], mod: int
) -> bool:
    """True when every generator keeps weights·x ≡ 0 (mod ``mod``) while the
    target breaks it, so the target is unreachable by any path at all."""
    def form(v):
        return sum(w * a for w, a in zip(weights, v)) % mod

    return all(form(g) == 0 for g in gens) and form(target) != 0


def check_steinitz(
    vectors: Sequence[Sequence[int]], permutation: Sequence[int], corridor_bound: int
) -> None:
    """The permutation reorders all vectors and every prefix sum lies within
    d·I of the point (max(0, n - d) / k)·total on the line to the total, in
    exact rational arithmetic."""
    k = len(vectors)
    dim = len(vectors[0])
    require(sorted(permutation) == list(range(k)), "not a permutation of the input")
    bound = dim * max(max(abs(a) for a in v) for v in vectors)
    require(corridor_bound == bound, f"corridor bound {corridor_bound}, expected {bound}")
    total = [sum(v[c] for v in vectors) for c in range(dim)]
    prefix = [0] * dim
    for n, i in enumerate(permutation, start=1):
        for c in range(dim):
            prefix[c] += vectors[i][c]
        lam = Fraction(max(0, n - dim), k)
        for c in range(dim):
            if abs(prefix[c] - lam * total[c]) > bound:
                raise CheckFailed(f"prefix {n} at {prefix} leaves the corridor")


# ---------------------------------------------------------------------------
# deep-point scan of a pointed 2-D cone


def _primitive(v: Sequence[int]) -> tuple[int, int]:
    g = gcd(v[0], v[1])
    return (v[0] // g, v[1] // g)


def _cross(a: Sequence[int], b: Sequence[int]) -> int:
    return a[0] * b[1] - a[1] * b[0]


def pointed_cone_facets(gens: Sequence[Sequence[int]]) -> tuple[tuple[int, int], ...]:
    """Inward facet normals of the cone of nonzero 2-D generators, which
    must be pointed with two extremal directions; each normal is orthogonal
    to a primitive extremal."""
    dirs = {_primitive(g) for g in gens if any(g)}
    ccw = [u for u in dirs if all(_cross(u, w) <= 0 for w in dirs)]
    cw = [u for u in dirs if all(_cross(w, u) <= 0 for w in dirs)]
    require(len(ccw) == 1 and len(cw) == 1 and ccw != cw, "cone is not pointed")
    (u,), (w,) = ccw, cw
    f_u, f_w = (u[1], -u[0]), (-w[1], w[0])
    require(all(f_u[0] * g[0] + f_u[1] * g[1] >= 0 for g in dirs), "bad upper facet")
    require(all(f_w[0] * g[0] + f_w[1] * g[1] >= 0 for g in dirs), "bad lower facet")
    return f_u, f_w


def lattice_basis_2d(gens: Sequence[Sequence[int]]) -> tuple[int, int, int]:
    """(a, b, c) with the lattice spanned by the generators equal to
    Z·(a, b) + Z·(0, c); requires full rank."""
    rows = [list(g) for g in gens if any(g)]
    # Euclid on the first coordinate keeps one row with a nonzero entry there
    while sum(1 for r in rows if r[0] != 0) > 1:
        rows.sort(key=lambda r: (r[0] == 0, abs(r[0])))
        piv = rows[0]
        for r in rows[1:]:
            if r[0] != 0:
                q = r[0] // piv[0]
                r[0] -= q * piv[0]
                r[1] -= q * piv[1]
    piv = next(r for r in rows if r[0] != 0)
    if piv[0] < 0:
        piv = [-piv[0], -piv[1]]
    c = 0
    for r in rows:
        if r[0] == 0:
            c = gcd(c, r[1])
    require(c != 0, "generators do not span the plane")
    return piv[0], piv[1] % c, c


def in_lattice(basis: tuple[int, int, int], v: Sequence[int]) -> bool:
    a, b, c = basis
    if v[0] % a:
        return False
    return (v[1] - (v[0] // a) * b) % c == 0


def deep_scan_reference(
    gens: Sequence[Sequence[int]], m: int, radius: int
) -> tuple[int, list[list[int]]]:
    """(number of m-deep lattice points of infinity norm <= radius, those of
    them that are no nonnegative integer combination of the generators)."""
    facets = pointed_cone_facets(gens)
    basis = lattice_basis_2d(gens)
    f = (facets[0][0] + facets[1][0], facets[0][1] + facets[1][1])
    # every nonzero generator has a positive value under f, so the integer
    # cone below the level fmax is finite and a search enumerates it
    fmax = (abs(f[0]) + abs(f[1])) * radius
    members = {(0, 0)}
    queue = deque(members)
    while queue:
        p = queue.popleft()
        for g in gens:
            q = (p[0] + g[0], p[1] + g[1])
            if f[0] * q[0] + f[1] * q[1] <= fmax and q not in members:
                members.add(q)
                queue.append(q)
    deep = 0
    missing: list[list[int]] = []
    for x in range(-radius, radius + 1):
        for y in range(-radius, radius + 1):
            if any(n[0] * x + n[1] * y < m for n in facets):
                continue
            if not in_lattice(basis, (x, y)):
                continue
            deep += 1
            if (x, y) not in members:
                missing.append([x, y])
    return deep, missing


def plane_scan_reference(
    gens: Sequence[Sequence[int]], m: int, radius: int
) -> tuple[int, list[list[int]]]:
    """``deep_scan_reference`` for a half-plane or full-plane cone with
    m > 0.  The generators of a full plane span a group, so every lattice
    point is a member and every point is deep (there is no facet).  No point
    of a half-plane within ``radius`` is m-deep while m exceeds every facet
    product there; other cases are outside this reference."""
    dirs = [g for g in gens if any(g)]
    full = not any(
        all(f[0] * g[0] + f[1] * g[1] >= 0 for g in dirs)
        for f in ((-g[1], g[0]) for g in dirs)
    )
    if full:
        basis = lattice_basis_2d(gens)
        pts = range(-radius, radius + 1)
        return sum(in_lattice(basis, (x, y)) for x in pts for y in pts), []
    # a facet normal is orthogonal to a primitive generator direction, so its
    # entries are at most the largest generator entry
    top = max(abs(a) for g in dirs for a in g)
    require(m > 2 * top * radius, "half-plane scan needs m above every facet product")
    return 0, []
