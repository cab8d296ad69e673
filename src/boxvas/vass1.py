"""One-counter systems with states: box-reachability and its semilinear shape.

A 1-VASS is a finite state set with integer-weighted transitions; a
configuration is (counter value, state).  Box-reachability of (x, q) from a
start state means reaching it from counter 0 with the counter confined to
[0, x] throughout (states are unconstrained).

The semilinear builder follows the path-scheme characterization: every
box-reachable value beyond an explicit bound p3 is the effect of a pumped
scheme alpha beta^k gamma followed by a closing suffix theta (drop 0, peak =
effect, effect covering the scheme's overshoot).  Enumeration of scheme
parts is deduplicated by profile (end state, effect, drop, peak): two parts
with the same profile yield identical linear components, so one
representative path per profile preserves the emitted union while keeping
the search tractable.  Every emitted component, like every BFS witness, is
verified by simulating an actual path (``_is_box_run``) before it is admitted.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Iterator, Sequence

from ._search import DEFAULT_NODE_BUDGET
from .errors import (
    InternalCheckError,
    PreconditionError,
    ResourceBudgetError,
)
from .geometry import _semigroup_rep


@dataclass(frozen=True)
class Vass1System:
    """States plus (source, integer weight, target) transitions."""

    states: tuple[str, ...]
    transitions: tuple[tuple[str, int, str], ...]

    def __post_init__(self):
        states = tuple(str(s) for s in self.states)
        trans = tuple(
            (str(src), int(w), str(dst)) for src, w, dst in self.transitions
        )
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "transitions", trans)
        if len(set(states)) != len(states):
            raise ValueError("duplicate state names")
        known = set(states)
        for src, _, dst in trans:
            if src not in known or dst not in known:
                raise ValueError(f"transition {src}->{dst} uses unknown state")

    @property
    def norm(self) -> int:
        return max((abs(w) for _, w, _ in self.transitions), default=0)

    def check_state(self, q: str) -> None:
        if q not in self.states:
            raise PreconditionError(f"unknown state {q!r}")

    def check_path(self, path: Sequence[int]) -> None:
        n = len(self.transitions)
        for i in path:
            if not 0 <= i < n:
                raise PreconditionError(f"transition index {i} out of range")
        for a, b in zip(path, path[1:]):
            if self.transitions[a][2] != self.transitions[b][0]:
                raise PreconditionError(
                    f"transitions {a} and {b} are not state-contiguous"
                )

    def outgoing(self, q: str) -> list[int]:
        return [i for i, (src, _, _) in enumerate(self.transitions) if src == q]


def path_weights(sys: Vass1System, path: Sequence[int]) -> list[int]:
    return [sys.transitions[i][1] for i in path]


def path_profile(weights: Sequence[int]) -> tuple[int, int, int]:
    """(effect, drop, peak) of a weight sequence; the empty prefix counts,
    so drop and peak are always nonnegative."""
    acc = lo = hi = 0
    for w in weights:
        acc += w
        if acc < lo:
            lo = acc
        elif acc > hi:
            hi = acc
    return acc, -lo, hi


def path_endpoints(sys: Vass1System, path: Sequence[int]) -> tuple[str, str] | None:
    """(start state, end state) of a nonempty contiguous path, else None."""
    if not path:
        return None
    sys.check_path(path)
    return sys.transitions[path[0]][0], sys.transitions[path[-1]][2]


def _is_box_run(
    sys: Vass1System, q0: str, q_target: str, path: Sequence[int], x: int
) -> bool:
    """True iff ``path`` is a run of contiguous transitions from (0, q0) to
    (x, q_target) whose counter stays inside [0, x]."""
    if (path_endpoints(sys, path) or (q0, q0)) != (q0, q_target):
        return False
    eff, drop, peak = path_profile(path_weights(sys, path))
    return eff == x and drop == 0 and peak <= x


@dataclass(frozen=True)
class Lps:
    """A path scheme alpha beta^* gamma with one pumpable cycle beta."""

    alpha: tuple[int, ...]
    beta: tuple[int, ...]
    gamma: tuple[int, ...]


def validate_lps(sys: Vass1System, lps: Lps, b_lps: int | None = None) -> None:
    whole = lps.alpha + lps.beta + lps.gamma
    sys.check_path(whole)
    if not lps.beta:
        raise PreconditionError("beta must be a nonempty cycle")
    if sys.transitions[lps.beta[0]][0] != sys.transitions[lps.beta[-1]][2]:
        raise PreconditionError("beta does not return to its start state")
    if b_lps is not None:
        for name, part in (("alpha", lps.alpha), ("beta", lps.beta), ("gamma", lps.gamma)):
            if len(part) > b_lps:
                raise PreconditionError(f"{name} exceeds the length bound {b_lps}")


def lps_overshoot(sys: Vass1System, lps: Lps) -> int:
    """Closed-form overshoot of alpha beta^* gamma: independent of the pump
    count once it exceeds peak(alpha)."""
    validate_lps(sys, lps)
    eff_b, _, peak_b = path_profile(path_weights(sys, lps.beta))
    if eff_b <= 0:
        raise PreconditionError("beta is not a pumping cycle (effect <= 0)")
    eff_g, _, peak_g = path_profile(path_weights(sys, lps.gamma))
    over_b = peak_b - eff_b
    over_g = peak_g - eff_g
    return max(over_g, over_b - eff_g)


def lps_final_state(sys: Vass1System, lps: Lps) -> str:
    whole = lps.alpha + lps.beta + lps.gamma
    return sys.transitions[whole[-1]][2]


def closes(sys: Vass1System, theta: Sequence[int], lps: Lps) -> bool:
    """True iff theta is a box-safe suffix covering the scheme's overshoot:
    drop 0, peak = effect, effect >= over(alpha beta^* gamma)."""
    over = lps_overshoot(sys, lps)
    theta = tuple(theta)
    sys.check_path(theta)
    if theta:
        if sys.transitions[theta[0]][0] != lps_final_state(sys, lps):
            raise PreconditionError("theta does not start at the scheme's end state")
    eff_t, drop_t, peak_t = path_profile(path_weights(sys, theta))
    return drop_t == 0 and peak_t == eff_t and eff_t >= over


def default_b_lps(sys: Vass1System) -> int:
    """Stand-in for the cubic length bound of short path schemes, whose exact
    constants are not pinned down; the differential tests detect an
    insufficient choice on concrete instances."""
    return len(sys.states) * (sys.norm + 1) * 4


@dataclass(frozen=True)
class Vass1Bounds:
    b_lps: int
    maxover: int
    theta_len_bound: int
    p3: int

    @staticmethod
    def compute(sys: Vass1System, b_lps: int, maxover: int) -> "Vass1Bounds":
        n = sys.norm
        q = len(sys.states)
        theta_len = n * maxover * q
        p3 = n * (b_lps**2 * n + 2 * b_lps + 2 * theta_len)
        return Vass1Bounds(b_lps, maxover, theta_len, p3)


@dataclass(frozen=True)
class SemilinearSet:
    explicit: frozenset[int]
    components: tuple[tuple[int, tuple[int, ...]], ...]  # (base, periods)
    partial: bool = False


def semilinear_member(s: SemilinearSet, n: int) -> bool:
    if n < 0:
        raise PreconditionError("membership is defined for nonnegative values")
    return n in s.explicit or any(
        n >= base and _semigroup_rep(n - base, periods) is not None
        for base, periods in s.components
    )


def vass1_box_decide(
    sys: Vass1System,
    q0: str,
    q_target: str,
    x_target: int,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> tuple[bool, list[int] | None]:
    """BFS over configurations [0, x_target] x Q; witness is a transition-index
    path.  Deterministic: FIFO frontier, transitions tried in index order."""
    sys.check_state(q0)
    sys.check_state(q_target)
    if x_target < 0:
        raise PreconditionError("x_target must be nonnegative")
    start = (0, q0)
    goal = (x_target, q_target)
    if start == goal:
        return True, []
    parent: dict[tuple[int, str], tuple[tuple[int, str], int]] = {}
    seen = {start}
    frontier = deque([start])
    while frontier:
        x, q = frontier.popleft()
        for i in sys.outgoing(q):
            _, w, dst = sys.transitions[i]
            nxt = (x + w, dst)
            if nxt in seen or not 0 <= nxt[0] <= x_target:
                continue
            seen.add(nxt)
            parent[nxt] = ((x, q), i)
            if nxt == goal:
                path: list[int] = []
                node = nxt
                while node != start:
                    node, idx = parent[node]
                    path.append(idx)
                path.reverse()
                if not _is_box_run(sys, q0, q_target, path, x_target):
                    raise InternalCheckError("BFS witness failed simulation")
                return True, path
            frontier.append(nxt)
            if len(seen) > node_budget:
                raise ResourceBudgetError(
                    f"configuration BFS exceeded node budget {node_budget}",
                    node_budget,
                )
    return False, None


def vass1_min_ceilings(
    sys: Vass1System, q0: str, ceiling: int
) -> list[dict[str, int]]:
    """minceil[v][q] = smallest C such that (v, q) is reachable from (0, q0)
    with the counter confined to [0, C]; absent when not reachable that way.

    Incremental-ceiling closure: a path with peak exactly C first steps onto
    value C from below, after which one BFS settles everything through C.
    In particular (x, q) is box-reachable iff minceil[x][q] == x.
    """
    sys.check_state(q0)
    if ceiling < 0:
        raise PreconditionError("ceiling must be nonnegative")
    minceil: list[dict[str, int]] = [dict() for _ in range(ceiling + 1)]
    minceil[0][q0] = 0
    # closure at ceiling 0 (zero-weight transitions)
    _vass1_closure(sys, minceil, [(0, q0)], 0)
    for c in range(1, ceiling + 1):
        seeds = []
        for q in sys.states:
            if q in minceil[c]:
                continue
            for src, w, dst in sys.transitions:
                if dst != q or w <= 0:
                    continue
                if 0 <= c - w < c and src in minceil[c - w]:
                    seeds.append((c, q))
                    minceil[c][q] = c
                    break
        if seeds:
            _vass1_closure(sys, minceil, seeds, c)
    return minceil


def _vass1_closure(
    sys: Vass1System,
    minceil: list[dict[str, int]],
    seeds: list[tuple[int, str]],
    c: int,
) -> None:
    queue = list(seeds)
    while queue:
        v, q = queue.pop()
        for i in sys.outgoing(q):
            _, w, dst = sys.transitions[i]
            nv = v + w
            if 0 <= nv <= c and dst not in minceil[nv]:
                minceil[nv][dst] = c
                queue.append((nv, dst))


def _pareto2(profiles: dict) -> list:
    """Per effect, keep the (drop, peak) Pareto front of a profile dict
    keyed (effect, drop, peak); returns (effect, drop, peak, rep) tuples."""
    by_eff: dict[int, list[tuple[int, int, object]]] = {}
    for (eff, drop, peak), rep in profiles.items():
        by_eff.setdefault(eff, []).append((drop, peak, rep))
    out = []
    for eff, entries in by_eff.items():
        entries.sort()
        best_peak = None
        for drop, peak, rep in entries:
            if best_peak is None or peak < best_peak:
                best_peak = peak
                out.append((eff, drop, peak, rep))
    return out


class _Budget:
    def __init__(self, limit: int):
        self.limit = limit
        self.used = 0

    def spend(self, n: int = 1) -> None:
        self.used += n
        if self.used > self.limit:
            raise _BudgetExhausted()


class _BudgetExhausted(Exception):
    pass


def _enumerate_paths(
    sys: Vass1System,
    start: str,
    max_len: int,
    budget: _Budget,
    nonneg: bool,
) -> Iterator[tuple[int, ...]]:
    """All contiguous paths from ``start`` up to ``max_len`` (including the
    empty one); with ``nonneg`` only prefixes staying >= 0 are extended."""
    stack: list[tuple[str, tuple[int, ...], int]] = [(start, (), 0)]
    while stack:
        q, path, value = stack.pop()
        budget.spend()
        yield path
        if len(path) == max_len:
            continue
        for i in sys.outgoing(q):
            _, w, dst = sys.transitions[i]
            if nonneg and value + w < 0:
                continue
            stack.append((dst, path + (i,), value + w))


def _simple_cycles_from(
    sys: Vass1System, q: str, budget: _Budget
) -> Iterator[tuple[int, ...]]:
    """Cycles through q with no repeated intermediate state."""
    stack: list[tuple[str, tuple[int, ...], frozenset[str]]] = [(q, (), frozenset())]
    while stack:
        cur, path, seen = stack.pop()
        for i in sys.outgoing(cur):
            _, _, dst = sys.transitions[i]
            budget.spend()
            if dst == q:
                yield path + (i,)
                continue
            if dst in seen:
                continue
            stack.append((dst, path + (i,), seen | {dst}))


def build_semilinear(
    sys: Vass1System,
    q0: str,
    q_target: str,
    b_lps: int | None = None,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> tuple[SemilinearSet, Vass1Bounds]:
    """The set of box-reachable counter values at ``q_target``, as an explicit
    part (everything up to p3) plus one single-period linear component per
    (scheme profile, closing-suffix effect) pair.

    Parts are deduplicated by profile; each emitted component is verified by
    simulating its smallest induced path.  Exhausting the combinatorial
    budget raises a resource error carrying the partial result in
    ``partial_result``.
    """
    sys.check_state(q0)
    sys.check_state(q_target)
    if b_lps is None:
        b_lps = default_b_lps(sys)
    if b_lps < 1:
        raise PreconditionError("b_lps must be >= 1")
    budget = _Budget(node_budget)
    norm = sys.norm

    try:
        # alpha: nonnegative-prefix paths from q0, deduped by
        # (end state, effect, peak)
        alphas: dict[str, dict[tuple[int, int], tuple[int, ...]]] = {
            q: {} for q in sys.states
        }
        for path in _enumerate_paths(sys, q0, b_lps, budget, nonneg=True):
            end = q0 if not path else sys.transitions[path[-1]][2]
            eff, drop, peak = path_profile(path_weights(sys, path))
            if drop > 0:
                continue
            alphas[end].setdefault((eff, peak), path)

        # beta: powers of simple cycles with positive effect, deduped by
        # (anchor state, effect, drop, peak)
        betas: dict[str, dict[tuple[int, int, int], tuple[int, ...]]] = {
            q: {} for q in sys.states
        }
        for q in sys.states:
            for cyc in _simple_cycles_from(sys, q, budget):
                for reps in range(1, b_lps // len(cyc) + 1):
                    budget.spend()
                    powered = cyc * reps
                    eff, drop, peak = path_profile(path_weights(sys, powered))
                    if eff <= 0:
                        continue
                    betas[q].setdefault((eff, drop, peak), powered)

        # gamma: arbitrary paths, deduped by (start, end, effect, drop, peak)
        gammas: dict[str, dict[tuple[str, int, int, int], tuple[int, ...]]] = {
            q: {} for q in sys.states
        }
        for q in sys.states:
            for path in _enumerate_paths(sys, q, b_lps, budget, nonneg=False):
                end = q if not path else sys.transitions[path[-1]][2]
                eff, drop, peak = path_profile(path_weights(sys, path))
                gammas[q].setdefault((end, eff, drop, peak), path)

        maxover = 0
        for q1 in sys.states:
            if not alphas[q1] or not betas[q1]:
                continue
            for (eff_b, _, peak_b) in betas[q1]:
                over_b = peak_b - eff_b
                for (_, eff_g, _, peak_g) in gammas[q1]:
                    over = max(peak_g - eff_g, over_b - eff_g)
                    if over > maxover:
                        maxover = over
        bounds = Vass1Bounds.compute(sys, b_lps, maxover)

        explicit = _explicit_sweep(sys, q0, q_target, bounds.p3, node_budget)

        # closing-suffix effects per start state: E is achievable iff (E,
        # q_target) is box-reachable from (0, q_state)
        e_max = norm * bounds.theta_len_bound
        theta_effs: dict[str, list[int]] = {}
        for q in sys.states:
            mc = vass1_min_ceilings(sys, q, e_max)
            theta_effs[q] = [e for e in range(e_max + 1) if mc[e].get(q_target) == e]

        # Union-preserving reductions for the combination loop: a part
        # profile dominated in (drop, peak) at the same effect only yields
        # components covered by the dominating one, and per (period,
        # residue) only the minimal base matters.
        alpha_front: dict[str, dict[int, tuple[int, tuple[int, ...]]]] = {}
        for q1, profs in alphas.items():
            front: dict[int, tuple[int, tuple[int, ...]]] = {}
            for (eff_a, peak_a), rep in profs.items():
                cur = front.get(eff_a)
                if cur is None or peak_a < cur[0]:
                    front[eff_a] = (peak_a, rep)
            alpha_front[q1] = front
        beta_front = {
            q1: _pareto2({(e, d, p): r for (e, d, p), r in profs.items()})
            for q1, profs in betas.items()
        }
        gamma_front: dict[str, dict[tuple[str, int], list]] = {}
        for q1, profs in gammas.items():
            grouped: dict[tuple[str, int], dict[tuple[int, int, int], tuple]] = {}
            for (q_g, eff_g, drop_g, peak_g), rep in profs.items():
                grouped.setdefault((q_g, eff_g), {})[(eff_g, drop_g, peak_g)] = rep
            gamma_front[q1] = {key: _pareto2(g) for key, g in grouped.items()}

        # per (start state, period): residue-indexed sorted suffix effects
        from bisect import bisect_left

        eff_by_residue: dict[tuple[str, int], list[list[int]]] = {}

        best: dict[tuple[int, int], tuple[int, tuple, tuple, tuple, int, int]] = {}
        for q1 in sys.states:
            for eff_b, drop_b, peak_b, beta in beta_front.get(q1, []):
                over_b = peak_b - eff_b
                for eff_a, (peak_a, alpha) in alpha_front[q1].items():
                    if eff_a < drop_b:
                        continue  # the first cycle iteration would go negative
                    for (q_g, eff_g), gfront in gamma_front[q1].items():
                        for _, drop_g, peak_g, gamma in gfront:
                            over = max(peak_g - eff_g, over_b - eff_g)
                            key = (q_g, eff_b)
                            if key not in eff_by_residue:
                                lists: list[list[int]] = [[] for _ in range(eff_b)]
                                for e in theta_effs[q_g]:
                                    lists[e % eff_b].append(e)
                                eff_by_residue[key] = lists
                            k_min0 = peak_a + 1
                            for elist in eff_by_residue[key]:
                                budget.spend()
                                pos = bisect_left(elist, over)
                                if pos == len(elist):
                                    continue
                                e = elist[pos]
                                k_min = k_min0
                                need = drop_g - eff_a
                                if need > k_min * eff_b:
                                    k_min = -(-need // eff_b)
                                base = eff_a + k_min * eff_b + eff_g + e
                                ckey = (eff_b, base % eff_b)
                                cur = best.get(ckey)
                                if cur is None or base < cur[0]:
                                    best[ckey] = (
                                        base, alpha, beta, gamma, k_min, e
                                    )

        components: dict[tuple[int, int], None] = {}
        theta_paths: dict[tuple[str, int], list[int]] = {}
        for (eff_b, _), (base, alpha, beta, gamma, k_min, e) in best.items():
            q_g = q0 if not (alpha + beta + gamma) else sys.transitions[
                (alpha + beta + gamma)[-1]
            ][2]
            tp = theta_paths.get((q_g, e))
            if tp is None:
                ok, tp = vass1_box_decide(sys, q_g, q_target, e, node_budget)
                if not ok or tp is None:
                    raise InternalCheckError(
                        "closing-suffix effect lost its witness"
                    )
                theta_paths[(q_g, e)] = tp
            induced = list(alpha) + list(beta) * k_min + list(gamma) + tp
            if not _is_box_run(sys, q0, q_target, induced, base):
                raise InternalCheckError("induced scheme path failed simulation")
            components[(base, eff_b)] = None
    except _BudgetExhausted:
        err = ResourceBudgetError(
            f"scheme enumeration exceeded the budget {node_budget}", node_budget
        )
        err.partial_result = SemilinearSet(
            explicit=frozenset(), components=(), partial=True
        )
        raise err

    result = SemilinearSet(
        explicit=frozenset(explicit),
        components=tuple(sorted((b, (p,)) for b, p in components)),
        partial=False,
    )
    return result, bounds


def _explicit_sweep(
    sys: Vass1System, q0: str, q_target: str, p3: int, node_budget: int
) -> set[int]:
    if (p3 + 1) * len(sys.states) > node_budget:
        raise _BudgetExhausted()
    mc = vass1_min_ceilings(sys, q0, p3)
    return {x for x in range(p3 + 1) if mc[x].get(q_target) == x}
