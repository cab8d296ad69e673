"""Exact-integer VAS model and path algebra.

All arithmetic uses Python ints (arbitrary precision).  Paths are stored as
sequences of generator indices, never as raw vectors, so a witness always
refers back to a concrete system instance.  The empty path is legal and has
effect zero.

``walk`` is the one path kernel: a single pass that checks every index and
returns (effect, drop, peak).  It reads a long path in blocks of ``BLOCK``
indices, summarises each distinct block once per call and composes a
repeat of r equal blocks in closed form, and it walks the rest, and a
shorter path, run by run, so the long runs and the regular orders of a
reordered witness cost little per step.
``PathRecord.record`` and the path predicates are read off it;
``prefix_effects`` keeps its own loop to yield each prefix.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import groupby
from operator import countOf
from typing import Iterable, Iterator, Sequence

from .errors import InvalidInputError, MalformedPathError

Vector = tuple[int, ...]


def zero_vector(dim: int) -> Vector:
    return (0,) * dim


def vec_add(a: Vector, b: Vector) -> Vector:
    return tuple(x + y for x, y in zip(a, b))


def vec_sub(a: Vector, b: Vector) -> Vector:
    return tuple(x - y for x, y in zip(a, b))


def vec_scale(k: int, a: Vector) -> Vector:
    return tuple(k * x for x in a)


def vec_le(a: Vector, b: Vector) -> bool:
    return all(x <= y for x, y in zip(a, b))


def inf_norm(a: Vector) -> int:
    return max((abs(x) for x in a), default=0)


def dot(a: Vector, b: Vector) -> int:
    return sum(x * y for x, y in zip(a, b))


def combination(gens: Sequence[Vector], counts: Sequence[int]) -> Vector:
    """The sum of counts[i] * gens[i]: the effect of any path that takes
    generator i counts[i] times."""
    return tuple(sum(c * x for c, x in zip(counts, col)) for col in zip(*gens))


@dataclass(frozen=True)
class VasSystem:
    """A d-dimensional vector addition system: an ordered tuple of generators.

    Generator order is part of the identity of the system; witness paths
    reference generators by index.
    """

    dim: int
    generators: tuple[Vector, ...]

    def __post_init__(self):
        if self.dim < 1:
            raise InvalidInputError(f"dimension must be >= 1, got {self.dim}")
        gens = tuple(tuple(int(e) for e in g) for g in self.generators)
        object.__setattr__(self, "generators", gens)
        for g in gens:
            if len(g) != self.dim:
                raise InvalidInputError(
                    f"generator {g} does not have {self.dim} entries"
                )

    @cached_property
    def norm(self) -> int:
        """The quantity d * sum over generators of the infinity norm."""
        return self.dim * sum(inf_norm(g) for g in self.generators)


BLOCK = 64  # indices per block of a long path in ``walk``
# a long path whose blocks, past this many indices, still miss the memo
# more than 7 times in 8 goes on run by run (a random path does)
_TRIAL = 256 * BLOCK


def _walk_runs(
    gens: tuple[Vector, ...], path: Iterable[int], acc: list[int], lo: list[int], hi: list[int]
) -> None:
    """Extend the effect ``acc`` and the least and greatest prefixes ``lo``
    and ``hi`` by ``path``, in place, run by run: r equal indices i add
    r * g_i, and a run of one generator is monotone in every coordinate,
    so only its end can set a new least or greatest prefix.  An index
    outside [0, n) raises, the first one of ``path``."""
    n = len(gens)
    coords = range(len(acc))
    for i, run in groupby(path):
        if not 0 <= i < n:
            raise MalformedPathError(
                f"path index {i} out of range for {n} generators"
            )
        g = gens[i]
        r = countOf(run, i)
        for k in coords:
            a = acc[k] + r * g[k]
            acc[k] = a
            if a < lo[k]:
                lo[k] = a
            elif a > hi[k]:
                hi[k] = a


def walk(vas: VasSystem, path: Sequence[int]) -> tuple[Vector, Vector, Vector]:
    """(effect, drop, peak) of ``path`` in one pass.  Per coordinate, drop is
    minus the least prefix effect and peak the greatest; the empty prefix
    counts, so both are >= 0.  An index outside [0, n) raises, negatives too,
    and the error names the first one in the path.

    A path of ``BLOCK`` indices or more is read in blocks of ``BLOCK``, and
    equal consecutive blocks are taken together.  A block not seen before
    in this call is walked run by run for its effect e and its least and
    greatest prefixes l <= 0 <= h; r copies of it from effect a then have
    least prefix a + l + (r - 1) * min(0, e), greatest a + h +
    (r - 1) * max(0, e) and end a + r * e.  Blocks are first walked in path
    order, so a bad index is met where the path has it.  The last
    len(path) % BLOCK indices go run by run, as does a shorter path, and so
    does the rest of a path whose blocks keep missing (see ``_TRIAL``)."""
    gens = vas.generators
    dim = vas.dim
    acc = [0] * dim
    lo = [0] * dim
    hi = [0] * dim
    done = 0
    if len(path) >= BLOCK:
        coords = range(dim)
        seen: dict[tuple[int, ...], tuple[list[int], list[int], list[int]]] = {}
        for block, group in groupby(zip(*[iter(path)] * BLOCK)):
            summary = seen.get(block)
            if summary is None:
                if done >= _TRIAL and 8 * len(seen) * BLOCK > 7 * done:
                    break
                summary = [0] * dim, [0] * dim, [0] * dim
                _walk_runs(gens, block, *summary)
                seen[block] = summary
            e, least, greatest = summary
            more = countOf(group, block) - 1  # copies after the first
            for k in coords:
                a = acc[k]
                ek = e[k]
                # r copies: the least prefix is in the last copy when e < 0,
                # the greatest in the last copy when e > 0
                if ek < 0:
                    low, high = a + least[k] + more * ek, a + greatest[k]
                else:
                    low, high = a + least[k], a + greatest[k] + more * ek
                if low < lo[k]:
                    lo[k] = low
                if high > hi[k]:
                    hi[k] = high
                acc[k] = a + (more + 1) * ek
            done += (more + 1) * BLOCK
        path = path[done:]
    _walk_runs(gens, path, acc, lo, hi)
    return tuple(acc), tuple(-x for x in lo), tuple(hi)


def prefix_effects(vas: VasSystem, path: Sequence[int]) -> Iterator[Vector]:
    """Yield the effects of all prefixes of ``path``, starting with the empty one."""
    n = len(vas.generators)
    bad = next((i for i in path if not 0 <= i < n), None)
    if bad is not None:
        raise MalformedPathError(f"path index {bad} out of range for {n} generators")
    acc = zero_vector(vas.dim)
    yield acc
    for i in path:
        acc = vec_add(acc, vas.generators[i])
        yield acc


def effect(vas: VasSystem, path: Sequence[int]) -> Vector:
    """Sum of the generators along ``path``; the empty path has effect zero."""
    return walk(vas, path)[0]


def drop_peak(vas: VasSystem, path: Sequence[int]) -> tuple[Vector, Vector]:
    """Per-coordinate (drop, peak) over all prefixes of ``path``; see ``walk``."""
    return walk(vas, path)[1:]


def is_valid_n_trace(vas: VasSystem, path: Sequence[int], start: Vector) -> bool:
    """True iff every prefix effect added to ``start`` stays componentwise >= 0."""
    return vec_le(walk(vas, path)[1], tuple(start))


def is_box_reaching_trace(vas: VasSystem, path: Sequence[int], target: Vector) -> bool:
    """True iff ``path`` runs from 0 to ``target`` staying inside [0, target]."""
    target = tuple(target)
    if len(target) != vas.dim:
        raise InvalidInputError("target dimension mismatch")
    return PathRecord.record(vas, path).box_reaches(target)


def check_target(target: Sequence[int], dim: int, name: str = "target") -> Vector:
    """Validate a target vector, or the vector ``name`` that errors call it:
    correct arity, nonnegative integer entries."""
    t = tuple(int(x) for x in target)
    if len(t) != dim:
        raise InvalidInputError(f"{name} {t} does not have {dim} entries")
    if any(x < 0 for x in t):
        raise InvalidInputError(f"{name} {t} has a negative entry")
    return t


@dataclass(frozen=True)
class PathRecord:
    """A path of generator indices with cached effect / drop / peak."""

    indices: tuple[int, ...]
    effect: Vector
    drop: Vector
    peak: Vector

    @classmethod
    def record(cls, vas: VasSystem, indices: Iterable[int]) -> "PathRecord":
        idx = tuple(indices)
        eff, dr, pk = walk(vas, idx)
        return cls(indices=idx, effect=eff, drop=dr, peak=pk)

    def box_reaches(self, target: Vector, cap: Vector | None = None) -> bool:
        """True iff the path runs from 0 to ``target`` inside [0, cap]:
        effect ``target``, drop 0 and peak at most ``cap``, which defaults
        to ``target`` (box reachability is reachability capped at t)."""
        return (
            self.effect == tuple(target)
            and not any(self.drop)
            and vec_le(self.peak, target if cap is None else cap)
        )

    def __len__(self) -> int:
        return len(self.indices)
