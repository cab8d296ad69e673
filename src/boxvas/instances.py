"""Instance file grammar: parse and canonical serialization.

Two kinds of instance:

    vas <dim>            vass1
    <int> ... <int>      states <name> ...
    ...                  init <name>
                         trans <src> <weight> <dst>
                         ...

``#`` starts a comment (anywhere on a line); blank lines are ignored.
Parse -> serialize -> parse is the identity on the canonical form, and
generator / transition order is preserved.
"""
from __future__ import annotations

from dataclasses import dataclass

from .core import VasSystem
from .errors import InstanceParseError, InternalCheckError, PreconditionError
from .vass1 import Vass1System


@dataclass(frozen=True)
class InstanceFile:
    kind: str  # "vas" | "vass1"
    vas: VasSystem | None = None
    vass1: Vass1System | None = None
    init_state: str | None = None


def _int(token: str, line: int) -> int:
    try:
        return int(token)
    except ValueError:
        raise InstanceParseError(f"expected an integer, got {token!r}", line)


def parse_instance(text: str) -> InstanceFile:
    lines: list[tuple[int, list[str]]] = []
    for no, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0].strip()
        if body:
            lines.append((no, body.split()))
    if not lines:
        raise InstanceParseError("empty instance: expected a 'vas' or 'vass1' header")
    head_no, head = lines[0]
    if head[0] == "vas":
        if len(head) != 2:
            raise InstanceParseError("header must be 'vas <dim>'", head_no)
        dim = _int(head[1], head_no)
        if dim < 1:
            raise InstanceParseError("dimension must be >= 1", head_no)
        gens = []
        for no, toks in lines[1:]:
            if len(toks) != dim:
                raise InstanceParseError(
                    f"generator has {len(toks)} entries, expected {dim}", no
                )
            gens.append(tuple(_int(t, no) for t in toks))
        return InstanceFile(kind="vas", vas=VasSystem(dim, tuple(gens)))
    if head[0] == "vass1":
        if len(head) != 1:
            raise InstanceParseError("header must be exactly 'vass1'", head_no)
        states: tuple[str, ...] | None = None
        init: str | None = None
        trans: list[tuple[str, int, str]] = []
        for no, toks in lines[1:]:
            key = toks[0]
            if key == "states":
                if states is not None:
                    raise InstanceParseError("duplicate 'states' line", no)
                if len(toks) < 2:
                    raise InstanceParseError("'states' needs at least one name", no)
                states = tuple(toks[1:])
            elif key == "init":
                if init is not None:
                    raise InstanceParseError("duplicate 'init' line", no)
                if len(toks) != 2:
                    raise InstanceParseError("'init' takes exactly one state", no)
                if states is None:
                    raise InstanceParseError("'init' before 'states'", no)
                if toks[1] not in states:
                    raise InstanceParseError(f"unknown state {toks[1]!r}", no)
                init = toks[1]
            elif key == "trans":
                if len(toks) != 4:
                    raise InstanceParseError(
                        "'trans' takes <src> <weight> <dst>", no
                    )
                if states is None:
                    raise InstanceParseError("'trans' before 'states'", no)
                src, w, dst = toks[1], _int(toks[2], no), toks[3]
                for s in (src, dst):
                    if s not in states:
                        raise InstanceParseError(f"unknown state {s!r}", no)
                trans.append((src, w, dst))
            else:
                raise InstanceParseError(f"unknown directive {key!r}", no)
        if states is None:
            raise InstanceParseError("missing 'states' line")
        if init is None:
            raise InstanceParseError("missing 'init' line")
        return InstanceFile(
            kind="vass1",
            vass1=Vass1System(states, tuple(trans)),
            init_state=init,
        )
    raise InstanceParseError(
        f"unknown instance kind {head[0]!r} (expected 'vas' or 'vass1')", head_no
    )


def serialize_instance(inst: InstanceFile) -> str:
    if inst.kind == "vas":
        if inst.vas is None:
            raise PreconditionError("a 'vas' instance needs a system")
        out = [f"vas {inst.vas.dim}"]
        for g in inst.vas.generators:
            out.append(" ".join(str(x) for x in g))
        return "\n".join(out) + "\n"
    if inst.kind == "vass1":
        if inst.vass1 is None or inst.init_state is None:
            raise PreconditionError("vass1 instance lacks its system or init state")
        out = ["vass1", "states " + " ".join(inst.vass1.states)]
        out.append(f"init {inst.init_state}")
        for src, w, dst in inst.vass1.transitions:
            out.append(f"trans {src} {w} {dst}")
        return "\n".join(out) + "\n"
    raise InternalCheckError(f"unknown instance kind {inst.kind!r}")
