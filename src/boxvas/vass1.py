"""One-counter systems with states: box-reachability and its semilinear shape.

A 1-VASS is a finite state set with integer-weighted transitions; a
configuration is (counter value, state).  Box-reachability of (x, q) from a
start state means reaching it from counter 0 with the counter confined to
[0, x] throughout (states are unconstrained).

``Vass1System`` numbers its states once and groups its transitions by source
state, and every search reads that grouping.  The configurations [0, C] x Q
form one flat table, cell v * |Q| + (state index):
``vass1_min_ceilings`` fills it with the least ceiling under which each
configuration is reachable, in one bucket-queue minimax sweep over the
levels C = 0, 1, ...: a move up past the current level parks its target
in a ring of norm + 1 slots, one per level still ahead, so each cell's
moves are relaxed once.  ``vass1_box_decide`` runs the one BFS kernel,
``_search.flat_bfs``, on the same layout between sentinel rows below 0
and above x.  The BFS table and the explicit sweep of
``build_semilinear`` are refused by ``_search.check_cells``, the one
node-budget refusal, before they are allocated.  ``Vass1System.walk`` is
the one path check: a single pass giving the end states, effect, drop and
peak of a path.

The semilinear builder follows the path-scheme characterization: every
box-reachable value beyond an explicit bound p3 is the effect of a pumped
scheme alpha beta^k gamma followed by a closing suffix theta (drop 0, peak =
effect, effect covering the scheme's overshoot).  The largest overshoot,
``maxover``, sets p3; it splits into a gamma part and a beta part, so it
takes one pass over each part per state, not one per pair.  Parts with
one profile (end state, effect, drop, peak) yield identical linear
components, and paths with one profile extend alike, so ``_profiles``
searches level by level, keeping per length one path count per profile
and one shortest path as its representative; the alpha parts are its
drop-0 profiles from q0, the paths that never go negative.  The
closing-suffix effects of every start state come from one table of the
reversed system, started at the target state.  The least base per
(period, residue) is found without pairing every scheme with every
closing suffix: the scheme's effect before theta does not depend on
theta, so its least value per residue is kept for each (suffix state,
period, overshoot) and paired once with the least suffix effect of each
residue.  Every emitted component, like every BFS witness, is verified by
walking an actual path (``_is_box_run``) before it is admitted.

A component is a (base, period) pair, the values base + k * period for
k >= 0: the period is the effect of the pumped cycle beta.  One period per
component loses nothing, because every semilinear subset of N is
ultimately periodic (Ginsburg & Spanier 1966), so membership is one
congruence test per component.
"""
from __future__ import annotations

from array import array
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterator, Sequence

from ._search import DEFAULT_NODE_BUDGET, check_cells, flat_bfs
from .errors import (
    InternalCheckError,
    InvalidInputError,
    PreconditionError,
    ResourceBudgetError,
)


@dataclass(frozen=True)
class Vass1System:
    """States plus (source, integer weight, target) transitions.

    ``index`` numbers the states in order, and ``out[s]`` lists the
    transitions leaving state index s as (transition index, weight, target
    index), in transition order."""

    states: tuple[str, ...]
    transitions: tuple[tuple[str, int, str], ...]
    index: dict[str, int] = field(init=False, repr=False, compare=False)
    out: tuple[tuple[tuple[int, int, int], ...], ...] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self):
        states = tuple(str(s) for s in self.states)
        trans = tuple(
            (str(src), int(w), str(dst)) for src, w, dst in self.transitions
        )
        index = {q: s for s, q in enumerate(states)}
        if len(index) != len(states):
            raise InvalidInputError("duplicate state names")
        out: list[list[tuple[int, int, int]]] = [[] for _ in states]
        for i, (src, w, dst) in enumerate(trans):
            if src not in index or dst not in index:
                raise InvalidInputError(f"transition {src}->{dst} uses unknown state")
            out[index[src]].append((i, w, index[dst]))
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "transitions", trans)
        object.__setattr__(self, "index", index)
        object.__setattr__(self, "out", tuple(map(tuple, out)))

    @property
    def norm(self) -> int:
        return max((abs(w) for _, w, _ in self.transitions), default=0)

    def check_state(self, q: str) -> None:
        if q not in self.index:
            raise PreconditionError(f"unknown state {q!r}")

    def reversed(self) -> "Vass1System":
        """The same states with every transition (s, w, d) turned into (d, w, s)."""
        flipped = tuple((d, w, s) for s, w, d in self.transitions)
        return Vass1System(self.states, flipped)

    def walk(
        self, path: Sequence[int]
    ) -> tuple[str | None, str | None, int, int, int]:
        """(start state, end state, effect, drop, peak) of ``path`` in one pass.

        Every index must name a transition (a negative one is rejected, not
        wrapped) and each transition must start where the previous one
        ended.  The states are None for the empty path; the empty prefix
        counts, so drop and peak are never negative."""
        n = len(self.transitions)
        start = end = None
        acc = lo = hi = 0
        for i in path:
            if not 0 <= i < n:
                raise PreconditionError(f"transition index {i} out of range")
            src, w, dst = self.transitions[i]
            if end is None:
                start = src
            elif src != end:
                raise PreconditionError(
                    f"transition {i} does not start at state {end!r}"
                )
            end = dst
            acc += w
            if acc < lo:
                lo = acc
            elif acc > hi:
                hi = acc
        return start, end, acc, -lo, hi


def _is_box_run(
    sys: Vass1System, q0: str, q_target: str, path: Sequence[int], x: int
) -> bool:
    """True iff ``path`` is a run of contiguous transitions from (0, q0) to
    (x, q_target) whose counter stays inside [0, x]."""
    start, end, eff, drop, peak = sys.walk(path)
    if not path:
        start = end = q0
    return (start, end) == (q0, q_target) and eff == x and drop == 0 and peak <= x


def _overshoot(eff_b: int, peak_b: int, eff_g: int, peak_g: int) -> int:
    """peak - effect of beta^k gamma for every k >= 1, when beta has a
    positive effect: the rise a closing suffix must cover."""
    return max(peak_g - eff_g, (peak_b - eff_b) - eff_g)


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
    # (base, period >= 1) pairs; one period suffices (see the module docstring)
    components: tuple[tuple[int, int], ...]
    partial: bool = False


def semilinear_member(s: SemilinearSet, n: int) -> bool:
    if n < 0:
        raise PreconditionError("membership is defined for nonnegative values")
    return n in s.explicit or any(
        n >= base and (n - base) % period == 0 for base, period in s.components
    )


def _offsets(sys: Vass1System) -> list[int]:
    """Per transition (s, w, d): the flat-table step w * |Q| + d - s."""
    nq = len(sys.states)
    return [
        w * nq + sys.index[dst] - sys.index[src] for src, w, dst in sys.transitions
    ]


def vass1_box_decide(
    sys: Vass1System,
    q0: str,
    q_target: str,
    x_target: int,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> tuple[bool, list[int] | None]:
    """BFS over configurations [0, x_target] x Q; witness is a transition-index
    path.  Deterministic: FIFO frontier, transitions tried in index order.

    Each state is one move class.  A transition of weight over x_target
    never fires inside the box, so it is left out, and the table is padded
    by min(norm, x_target) sentinel rows on each side.  Raises
    ``ResourceBudgetError`` before allocating when the box's
    (x_target + 1) * |Q| cells exceed ``node_budget``; the padding is not
    counted."""
    sys.check_state(q0)
    sys.check_state(q_target)
    if x_target < 0:
        raise PreconditionError("x_target must be nonnegative")
    if x_target == 0 and q0 == q_target:
        return True, []
    nq = len(sys.states)
    check_cells("configuration table", (x_target + 1) * nq, node_budget)
    pad = min(sys.norm, x_target) * nq
    path = flat_bfs(
        (x_target + 1) * nq + 2 * pad,
        [pad],
        (x_target + 1) * nq,
        _offsets(sys),
        [[i for i, w, _ in out if abs(w) <= x_target] for out in sys.out],
        pad + sys.index[q0],
        pad + x_target * nq + sys.index[q_target],
    )
    if path is None:
        return False, None
    if not _is_box_run(sys, q0, q_target, path, x_target):
        raise InternalCheckError("BFS witness failed simulation")
    return True, path


def vass1_min_ceilings(sys: Vass1System, q0: str, ceiling: int) -> array:
    """The least-ceiling table over [0, ceiling] x Q: cell v * |Q| + s holds
    the smallest C such that (v, state s) is reachable from (0, q0) with the
    counter confined to [0, C], or -1 when it is not reachable that way.

    A bucket-queue minimax sweep, one level C at a time: level C marks the
    cells waiting for it, then every cell reachable from them inside
    [0, C] x Q.  Each marked cell's moves are relaxed once, when it is
    marked.  A target at a value v <= C is marked C at once; a target at a
    higher value v <= C + norm waits in slot v mod (norm + 1) of a ring,
    and level v marks it as it takes it out of its slot (a cell may wait
    there more than once; only its first entry marks it).  The norm + 1
    slots hold levels C through C + norm, so no two pending levels share
    one.  A path with peak exactly C first steps onto value C from below,
    so every cell whose least ceiling is C is marked at level C.  The
    table is the unique least-ceiling table, whatever the order of visits.
    In particular (x, q) is box-reachable iff its cell holds x.
    """
    sys.check_state(q0)
    if ceiling < 0:
        raise PreconditionError("ceiling must be nonnegative")
    nq = len(sys.states)
    offsets = _offsets(sys)
    moves = [[offsets[i] for i, _, _ in out] for out in sys.out]
    size = (ceiling + 1) * nq
    minceil = array("q", [-1]) * size
    slots = sys.norm + 1
    ring: list[list[int]] = [[] for _ in range(slots)]
    ring[0].append(sys.index[q0])
    for c in range(ceiling + 1):
        waiting = ring[c % slots]
        if not waiting:
            continue
        ring[c % slots] = []
        stack = []
        push = stack.append
        for p in waiting:
            if minceil[p] < 0:
                minceil[p] = c
                push(p)
        end = (c + 1) * nq
        while stack:
            p = stack.pop()
            for off in moves[p % nq]:
                q = p + off
                if q < end:
                    if q >= 0 and minceil[q] < 0:
                        minceil[q] = c
                        push(q)
                elif q < size:
                    ring[q // nq % slots].append(q)
    return minceil


def _box_values(minceil: array, nq: int, s: int) -> list[int]:
    """The values x whose cell at state index s holds x: the box-reachable
    ones."""
    return [x for x, c in enumerate(minceil[s::nq]) if c == x]


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


def _partial(err: ResourceBudgetError) -> ResourceBudgetError:
    """``err`` carrying an empty ``partial_result`` marked partial."""
    err.partial_result = SemilinearSet(
        explicit=frozenset(), components=(), partial=True
    )
    return err


class _Budget:
    def __init__(self, limit: int):
        self.limit = limit
        self.used = 0

    def spend(self, units: int = 1) -> None:
        self.used += units
        if self.used > self.limit:
            err = ResourceBudgetError(
                f"scheme enumeration exceeded the budget {self.limit}", self.limit
            )
            raise _partial(err)


def _profiles(
    sys: Vass1System, start: int, max_len: int, budget: _Budget
) -> dict[tuple[int, int, int, int], list]:
    """Per profile (end state index, effect, drop, peak) of the contiguous
    paths from state index ``start`` with at most ``max_len`` transitions,
    the empty one included: [a shortest such path, the number of them].
    Each length keeps one count per profile and charges ``budget`` one unit
    per path, from the counts."""
    level = Counter({(start, 0, 0, 0): 1})
    found = {(start, 0, 0, 0): [(), 0]}
    for length in range(max_len + 1):
        budget.spend(sum(level.values()))
        nxt: Counter = Counter()
        for key, n in level.items():
            found[key][1] += n
            if length == max_len:
                continue
            s, value, drop, peak = key
            for i, w, d in sys.out[s]:
                v = value + w
                step = (d, v, max(drop, -v), max(peak, v))
                nxt[step] += n
                if step not in found:
                    found[step] = [found[key][0] + (i,), 0]
        level = nxt
    return found


def _simple_cycles_from(
    sys: Vass1System, s: int, budget: _Budget
) -> Iterator[tuple[tuple[int, ...], int, int, int]]:
    """Cycles through state index s with no repeated intermediate state, as
    (cycle, effect, drop, peak)."""
    stack = [(s, frozenset(), (), 0, 0, 0)]
    while stack:
        cur, seen, path, value, drop, peak = stack.pop()
        for i, w, d in sys.out[cur]:
            budget.spend()
            v = value + w
            step = (path + (i,), v, max(drop, -v), max(peak, v))
            if d == s:
                yield step
            elif d not in seen:
                stack.append((d, seen | {d}) + step)


def _combination_units(
    alpha_front: list[dict], beta_front: list[list], gamma_front: list[dict]
) -> int:
    """The combination's charge: one unit per (beta, alpha, gamma front
    entry, residue of beta's effect) with alpha's effect covering beta's
    drop, which is what a loop over every residue of the period would
    spend."""
    units = 0
    for s, betas in enumerate(beta_front):
        n_gamma = sum(map(len, gamma_front[s].values()))
        for eff_b, drop_b, _, _ in betas:
            n_alpha = sum(1 for eff_a in alpha_front[s] if eff_a >= drop_b)
            units += eff_b * n_alpha * n_gamma
    return units


def _least_bases(
    alpha_front: list[dict],
    beta_front: list[list],
    gamma_front: list[dict],
    theta_effs: list[list[int]],
) -> dict[tuple[int, int], tuple]:
    """Per (period eff_b, residue of the base): the least base of a scheme
    alpha beta^k gamma theta, as (base, alpha, beta, gamma, k, e, suffix
    state), with k the least admissible count and e the closing effect.

    With the least k the scheme before theta has effect c = max(A, L) +
    eff_g: A = eff_a + (peak_a + 1) * eff_b keeps the counter above
    alpha's peak, and L, the least value >= drop_g congruent to eff_a
    modulo eff_b, lets gamma start.  Alpha enters only through A and eff_a
    mod eff_b, and c does not depend on theta.  So per (suffix state,
    period, overshoot) the least c of each residue is kept, and then paired
    with the least e >= overshoot of each residue of ``theta_effs``."""
    least_c: dict[tuple[int, int, int], dict[int, tuple]] = {}
    for s, betas in enumerate(beta_front):
        for eff_b, drop_b, peak_b, beta in betas:
            least_a: dict[int, tuple[int, int, tuple[int, ...]]] = {}
            for eff_a, (peak_a, alpha) in alpha_front[s].items():
                if eff_a < drop_b:
                    continue  # the first cycle iteration would go negative
                a = eff_a + (peak_a + 1) * eff_b
                cur = least_a.get(eff_a % eff_b)
                if cur is None or a < cur[0]:
                    least_a[eff_a % eff_b] = (a, eff_a, alpha)
            if not least_a:
                continue
            for (s_g, eff_g), gfront in gamma_front[s].items():
                for _, drop_g, peak_g, gamma in gfront:
                    over = _overshoot(eff_b, peak_b, eff_g, peak_g)
                    table = least_c.setdefault((s_g, eff_b, over), {})
                    for rho, (a, eff_a, alpha) in least_a.items():
                        low = drop_g + (rho - drop_g) % eff_b
                        c = (a if a > low else low) + eff_g
                        cur = table.get(c % eff_b)
                        if cur is None or c < cur[0]:
                            k = (c - eff_g - eff_a) // eff_b
                            table[c % eff_b] = (c, alpha, beta, gamma, k)

    best: dict[tuple[int, int], tuple] = {}
    for (s_g, eff_b, over), table in least_c.items():
        least_e: dict[int, int] = {}
        for e in theta_effs[s_g]:  # ascending
            if e >= over and e % eff_b not in least_e:
                least_e[e % eff_b] = e
        for c, alpha, beta, gamma, k in table.values():
            for e in least_e.values():
                key = (eff_b, (c + e) % eff_b)
                cur = best.get(key)
                if cur is None or c + e < cur[0]:
                    best[key] = (c + e, alpha, beta, gamma, k, e, s_g)
    return best


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
    walking its smallest induced path.  ``node_budget`` bounds the explicit
    sweep table in cells and, separately, the scheme enumeration in units:
    one per path of at most ``b_lps`` transitions from each state and once
    more from ``q0`` if it never goes negative (counted, not walked), one
    per cycle power, and one per (alpha, beta, gamma front entry, residue
    of beta's effect) combination, all counted before the sweeps run.
    Exceeding either raises a resource error whose ``partial_result`` is an
    empty set marked partial.
    """
    sys.check_state(q0)
    sys.check_state(q_target)
    if b_lps is None:
        b_lps = default_b_lps(sys)
    if b_lps < 1:
        raise PreconditionError("b_lps must be >= 1")
    budget = _Budget(node_budget)
    norm = sys.norm
    nq = len(sys.states)

    # gamma: arbitrary paths from each state, one per profile
    gammas = [_profiles(sys, s, b_lps, budget) for s in range(nq)]

    # alpha: paths from q0 that never go negative, i.e. those of drop 0,
    # charged once more as their own part; per end state and effect only
    # the least peak matters
    alpha_front: list[dict[int, tuple[int, tuple[int, ...]]]] = [{} for _ in range(nq)]
    for (end, eff, drop, peak), (path, n) in gammas[sys.index[q0]].items():
        if drop == 0:
            budget.spend(n)
            cur = alpha_front[end].get(eff)
            if cur is None or peak < cur[0]:
                alpha_front[end][eff] = (peak, path)

    # beta: powers of simple cycles with positive effect, deduped by
    # (anchor state, effect, drop, peak); the powers of every cycle are charged
    betas: list[dict[tuple[int, int, int], tuple[int, ...]]] = [{} for _ in range(nq)]
    for s in range(nq):
        for cyc, eff, drop, peak in _simple_cycles_from(sys, s, budget):
            budget.spend(b_lps // len(cyc))
            if eff <= 0:
                continue
            for reps in range(1, b_lps // len(cyc) + 1):
                # cyc^reps: effect reps * eff, the drop of cyc, and the peak
                # of its last copy
                key = (reps * eff, drop, peak + (reps - 1) * eff)
                if key not in betas[s]:
                    betas[s][key] = cyc * reps

    # the largest _overshoot over every (beta, gamma) pair at s, one pass
    # over each: the gamma term and the beta term less gamma's effect are
    # maximised apart, and gammas[s] is never empty (it holds the empty path)
    maxover = 0
    for s in range(nq):
        if not alpha_front[s] or not betas[s]:
            continue
        rise_g = max(peak_g - eff_g for _, eff_g, _, peak_g in gammas[s])
        low_g = min(eff_g for _, eff_g, _, _ in gammas[s])
        rise_b = max(peak_b - eff_b for eff_b, _, peak_b in betas[s])
        maxover = max(maxover, rise_g, rise_b - low_g)
    bounds = Vass1Bounds.compute(sys, b_lps, maxover)

    try:
        check_cells("explicit sweep table", (bounds.p3 + 1) * nq, node_budget)
    except ResourceBudgetError as err:
        raise _partial(err)

    # Union-preserving reductions for the combination: a part profile
    # dominated in (drop, peak) at the same effect only yields components
    # covered by the dominating one, and per (period, residue) only the
    # minimal base matters.
    beta_front = [_pareto2(profs) for profs in betas]
    gamma_front: list[dict[tuple[int, int], list]] = []
    for profs in gammas:
        grouped: dict[tuple[int, int], dict[tuple[int, int, int], tuple]] = {}
        for (s_g, eff_g, drop_g, peak_g), (rep, _) in profs.items():
            grouped.setdefault((s_g, eff_g), {})[(eff_g, drop_g, peak_g)] = rep
        gamma_front.append({key: _pareto2(g) for key, g in grouped.items()})

    budget.spend(_combination_units(alpha_front, beta_front, gamma_front))

    explicit = _box_values(
        vass1_min_ceilings(sys, q0, bounds.p3), nq, sys.index[q_target]
    )

    # closing-suffix effects per start state s: E is achievable iff (E,
    # q_target) is box-reachable from (0, s).  In the reversed system,
    # v -> E - v turns such a run into a box run from (0, q_target) to
    # (E, s), so one table answers every s.
    e_max = norm * bounds.theta_len_bound
    back = vass1_min_ceilings(sys.reversed(), q_target, e_max)
    theta_effs = [_box_values(back, nq, s) for s in range(nq)]

    best = _least_bases(alpha_front, beta_front, gamma_front, theta_effs)
    components: dict[tuple[int, int], None] = {}
    theta_paths: dict[tuple[int, int], list[int]] = {}
    for (eff_b, _), (base, alpha, beta, gamma, k_min, e, s_g) in best.items():
        tp = theta_paths.get((s_g, e))
        if tp is None:
            ok, tp = vass1_box_decide(sys, sys.states[s_g], q_target, e, node_budget)
            if not ok or tp is None:
                raise InternalCheckError("closing-suffix effect lost its witness")
            theta_paths[(s_g, e)] = tp
        induced = list(alpha) + list(beta) * k_min + list(gamma) + tp
        if not _is_box_run(sys, q0, q_target, induced, base):
            raise InternalCheckError("induced scheme path failed simulation")
        components[(base, eff_b)] = None

    result = SemilinearSet(
        explicit=frozenset(explicit),
        components=tuple(sorted(components)),
        partial=False,
    )
    return result, bounds
