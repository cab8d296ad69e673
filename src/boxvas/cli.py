"""Command-line front end.

One JSON object on stdout, a one-line human summary on stderr.  Exit codes
follow the error hierarchy of ``errors``: 0 success (the boolean decision
lives in the JSON, not the exit code), 2 ``InvalidInputError`` (parse and
usage errors), 3 ``PreconditionError``, 4 ``ResourceBudgetError``, and 1
for ``InternalCheckError`` (a failed re-verification, raised where a witness
is built and checked) or any other toolkit error.

``_parse_args`` reads argv straight from each command's flag table: a
command name, then flags as ``--flag value`` or ``--flag=value``, full
names only.  The value is the next token whatever its first character, so
``--vectors -3,0;5,0`` and ``--instance -a.vas`` need no ``=``.  A flag
given twice keeps its last value.  An unknown or missing command, an
unknown flag, a missing value, a value given to ``--witness``, a missing
required flag, a value its validator or choices reject, or a stray
positional raises ``InvalidInputError`` (exit 2) with a one-line message
that names the flag or command.  ``-h``/``--help`` in a flag position
prints the commands, or the command's flags, to stdout and exits 0.

Stdout is canonical ``json.dumps(envelope, sort_keys=True)`` text, byte for
byte.  A witness of ``FLAT_PATH`` or more indices, all in [0, 10), is
written in one C-level pass (``bytes``, ``translate`` and a strided copy)
and spliced into the ``json.dumps`` text of the rest of the envelope; every
other envelope is ``json.dumps`` itself.  Likewise a ``--values`` text of
``FLAT_PATH`` or more one-digit entries, strictly digit, comma, digit, ...,
digit, is read with one ``translate``; any other text goes through
``split`` and ``int`` and keeps their messages.
"""
from __future__ import annotations

import json
import sys
import time
from types import SimpleNamespace
from typing import Callable, NamedTuple, Sequence

from ._search import DEFAULT_NODE_BUDGET
from .boxreach import (
    compute_threshold,
    decide_box_reach,
    decide_reach_capped,
    synthesize_box_witness,
    verify_window,
    witness_length_lower_bound,
)
# is_box_reaching_trace is not called here; perfbench/tracing.py patches it
from .core import VasSystem, is_box_reaching_trace
from .errors import (
    BoxVasError,
    InvalidInputError,
    PreconditionError,
    ResourceBudgetError,
)
from .geometry import DeepConstant, compute_seed, ditc_falsification_scan
from .instances import InstanceFile, parse_instance, serialize_instance
from .lift import lift_vas
from .steinitz import steinitz_reorder
from .vass1 import Vass1System, build_semilinear, vass1_box_decide

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_USAGE = 2
EXIT_PRECONDITION = 3
EXIT_RESOURCE = 4


def _parse_vector(text: str) -> tuple[int, ...]:
    try:
        return tuple(map(int, text.split(",")))
    except ValueError:
        raise InvalidInputError(f"malformed vector {text!r}: expected comma-separated integers")


# The path text codec: long one-digit paths are written and read in one pass.
FLAT_PATH = 64  # shorter witnesses and --values texts take the general route
_INDEX_DIGITS = b"0123456789" + b"x" * 246  # index k < 10 -> its digit, else "x"
_DIGIT_INDICES = bytes.maketrans(b"0123456789", bytes(range(10)))
_MARK = "\x00witness\x00"  # the witness's place while json.dumps writes the rest
_MARK_TEXT = json.dumps(_MARK)


def _parse_values(text: str) -> tuple[int, ...]:
    """The integers of ``text``, as ``_parse_vector`` reads them."""
    n = len(text)
    if n >= 2 * FLAT_PATH - 1 and n % 2 and text.isascii():
        raw = text.encode()
        digits = raw[::2]
        if raw[1::2] == b"," * (n // 2) and digits.isdigit():
            return tuple(digits.translate(_DIGIT_INDICES))
    return _parse_vector(text)


def _envelope_text(envelope: dict) -> str:
    """``json.dumps(envelope, sort_keys=True)``.  The result's witness, when
    it is a list or tuple of ``FLAT_PATH`` or more int indices in [0, 10),
    is written as ", "-separated digits in one pass (``bytes`` would take a
    bool as 0 or 1, but no handler puts one in a witness)."""
    result = envelope["result"]
    path = result.get("witness")
    if isinstance(path, (list, tuple)) and len(path) >= FLAT_PATH:
        try:
            digits = bytes(path).translate(_INDEX_DIGITS)
        except (TypeError, ValueError):  # not small nonnegative ints
            digits = b""
        if digits.isdigit():
            rest = json.dumps({**envelope, "result": {**result, "witness": _MARK}},
                              sort_keys=True)
            head, _, tail = rest.partition(_MARK_TEXT)
            if _MARK_TEXT not in tail:  # no other value holds the mark
                text = bytearray(b"0, ") * len(digits)
                text[::3] = digits
                del text[-2:]
                return f"{head}[{text.decode()}]{tail}"
    return json.dumps(envelope, sort_keys=True)


def _parse_vector_list(text: str) -> list[tuple[int, ...]]:
    return [_parse_vector(part) for part in text.split(";") if part]


def _load_instance(path: str) -> InstanceFile:
    try:
        with open(path, encoding="utf-8") as fh:
            return parse_instance(fh.read())
    except (OSError, UnicodeDecodeError) as e:
        raise InvalidInputError(f"cannot read instance file {path!r}: {e}")


def _nonnegative(text: str) -> int:
    value = int(text)
    if value < 0:
        raise InvalidInputError(f"must be nonnegative, got {value}")
    return value


def _positive(text: str) -> int:
    value = int(text)
    if value < 1:
        raise InvalidInputError(f"must be positive, got {value}")
    return value


def _require_vas(inst: InstanceFile) -> VasSystem:
    if inst.kind != "vas" or inst.vas is None:
        raise InvalidInputError("this command requires a 'vas' instance")
    return inst.vas


def _require_vass1(inst: InstanceFile) -> Vass1System:
    if inst.kind != "vass1" or inst.vass1 is None:
        raise InvalidInputError("this command requires a 'vass1' instance")
    return inst.vass1


def _arg(name: str, **options):
    """One flag of a subcommand: its name, and the ``add_argument`` options
    that ``_parse_args`` reads: ``required``, ``type``, ``default``,
    ``choices``, ``dest``, ``action="store_true"`` and ``help``."""
    return name, options


_INSTANCE = _arg("--instance", required=True, help="instance file path")
# only the commands whose engines read --node-budget take it
_BUDGET = _arg("--node-budget", type=_nonnegative, default=DEFAULT_NODE_BUDGET,
               help="budget in table cells or enumeration units")


class _Command(NamedTuple):
    """A subcommand: its flags, and the handler that takes the parsed
    arguments and returns the JSON result and the one-line stderr summary."""

    name: str
    purpose: str
    flags: tuple
    run: Callable[[SimpleNamespace], tuple[dict, str]]


def _command(name: str, purpose: str, *flags):
    """Make the decorated handler the subcommand ``name`` with ``flags``."""
    return lambda run: _Command(name, purpose, flags, run)


def _decision(decision: bool, witness: Sequence[int] | None) -> tuple[dict, str]:
    """Result and summary of a decider; ``witness`` is None when not asked."""
    result = {"decision": decision}
    summary = f"decision: {str(decision).lower()}"
    if witness is not None:
        result["witness"] = list(witness)
        summary += f" (witness length {len(witness)})"
    return result, summary


@_command("decide-box", "exact box-reachability decision", _INSTANCE, _BUDGET,
          _arg("--target", required=True, help="comma-separated integers"))
def _decide_box(args):
    vas = _require_vas(_load_instance(args.instance))
    decision, bundle = decide_box_reach(vas, _parse_vector(args.target), args.node_budget)
    return _decision(decision, bundle and bundle.path.indices)


@_command("decide-reach", "reachability within a cap box", _INSTANCE, _BUDGET,
          _arg("--target", required=True, help="comma-separated integers"),
          _arg("--cap", required=True, help="the box [0, cap], comma-separated"),
          _arg("--witness", action="store_true", help="print a witness path"))
def _decide_reach(args):
    vas = _require_vas(_load_instance(args.instance))
    decision, bundle = decide_reach_capped(
        vas, _parse_vector(args.target), _parse_vector(args.cap), args.node_budget,
        want_witness=args.witness,
    )
    return _decision(decision, bundle and bundle.path.indices)


@_command("threshold", "the threshold W and its case", _INSTANCE,
          _arg("--m", type=int, default=None, help="explicit deep constant"),
          _arg("--validate-radius", type=_nonnegative, default=None,
               help="scan deep lattice points up to this radius"))
def _threshold(args):
    vas = _require_vas(_load_instance(args.instance))
    m = DeepConstant(args.m, "configured") if args.m is not None else None
    report = compute_threshold(vas, m)
    result = {
        "w": report.w,
        "case": report.case_tag.value,
        "m": report.m_used.value,
        "m_provenance": report.m_used.provenance,
        "formula": report.formula_trace,
        "degenerate": report.degenerate,
    }
    if args.validate_radius is not None:
        scan = ditc_falsification_scan(vas, report.m_used.value, args.validate_radius)
        result["scan"] = {
            "radius": scan.radius,
            "deep_lattice_points": scan.deep_lattice_points,
            "counterexamples": [list(v) for v in scan.counterexamples],
            "undecided": [list(v) for v in scan.undecided],
        }
    return result, f"W = {report.w} [{report.case_tag.value}]"


@_command("seed", "the strictly positive seed vector", _INSTANCE)
def _seed(args):
    seed = compute_seed(_require_vas(_load_instance(args.instance)))
    result = {
        "s": list(seed.s),
        "s_pos": list(seed.s_pos),
        "witness": list(seed.witness.indices),
        "repeat": seed.repeat,
    }
    return result, f"seed s_pos = {tuple(seed.s_pos)}"


@_command("steinitz", "reorder a vector multiset",
          _arg("--vectors", required=True, help="semicolon-separated vectors, e.g. '1,1;-1,0'"))
def _steinitz(args):
    reordered = steinitz_reorder(_parse_vector_list(args.vectors))
    result = {
        "permutation": list(reordered.permutation),
        "corridor_bound": reordered.corridor_bound,
        "verified": reordered.verified,
    }
    summary = (f"permutation of {len(reordered.permutation)} vectors, "
               f"bound {reordered.corridor_bound}")
    return result, summary


@_command("witness", "constructive box-reaching witness", _INSTANCE,
          _arg("--target", required=True, help="comma-separated integers"),
          _arg("--evidence", choices=["coeffs", "path"], required=True,
               help="what --values holds"),
          _arg("--values", required=True, help="comma-separated integers"),
          _arg("--m", type=int, default=None, help="explicit deep constant"))
def _witness(args):
    vas = _require_vas(_load_instance(args.instance))
    target = _parse_vector(args.target)
    values = _parse_values(args.values)
    m = DeepConstant(args.m, "configured") if args.m is not None else None
    if args.evidence == "coeffs":
        bundle = synthesize_box_witness(vas, target, coefficients=values, m=m)
    else:
        bundle = synthesize_box_witness(vas, target, path=values, m=m)
    result = {
        "method": bundle.method.value,
        "witness": bundle.path.indices,
        "length": len(bundle.path),
        "length_lower_bound": witness_length_lower_bound(vas, bundle.target),
    }
    summary = (f"witness via {result['method']}, length {result['length']} "
               f"(lower bound {result['length_lower_bound']})")
    return result, summary


@_command("lift", "dimension-doubling reduction", _INSTANCE, _BUDGET,
          _arg("--target", default=None, help="decide this target through the lift"))
def _lift(args):
    vas = _require_vas(_load_instance(args.instance))
    lifted = lift_vas(vas)
    result = {
        "dim": lifted.dim,
        "generators": [list(g) for g in lifted.generators],
        "instance": serialize_instance(InstanceFile(kind="vas", vas=lifted)),
    }
    if args.target is None:
        return result, f"lifted to dimension {lifted.dim}"
    from .lift import decide_box_via_lift

    result["decision"] = decide_box_via_lift(vas, _parse_vector(args.target), args.node_budget)
    return result, _decision(result["decision"], None)[1]


@_command("verify-window", "sweep a window of targets", _INSTANCE, _BUDGET,
          _arg("--lo", required=True, help="lowest corner, comma-separated"),
          _arg("--size", required=True, help="window extent, comma-separated"),
          _arg("--margin", type=_nonnegative, default=None,
               help="cap above each target (default 2 * norm)"))
def _verify_window(args):
    report = verify_window(
        _require_vas(_load_instance(args.instance)),
        _parse_vector(args.lo),
        _parse_vector(args.size),
        cap_margin=args.margin,
        node_budget=args.node_budget,
    )
    result = {
        "checked": report.checked,
        "violations": [list(t) for t in report.violations],
        "skipped": [list(t) for t in report.skipped],
        "cap_margin": report.cap_margin,
    }
    return result, f"checked {report.checked}, violations {len(report.violations)}"


@_command("vass1-decide", "1-VASS box-reachability", _INSTANCE, _BUDGET,
          _arg("--from", dest="from_state", default=None, help="start state (default init)"),
          _arg("--to", dest="to_state", required=True, help="end state"),
          _arg("--x", type=_nonnegative, required=True, help="counter value and box bound"))
def _vass1_decide(args):
    inst = _load_instance(args.instance)
    q0 = args.from_state if args.from_state is not None else inst.init_state
    return _decision(*vass1_box_decide(
        _require_vass1(inst), q0, args.to_state, args.x, args.node_budget
    ))


@_command("vass1-semilinear", "semilinear box-reachability set", _INSTANCE, _BUDGET,
          _arg("--to", dest="to_state", required=True, help="end state"),
          _arg("--b-lps", dest="b_lps", type=_positive, default=None,
               help="path-scheme length bound (default heuristic)"))
def _vass1_semilinear(args):
    inst = _load_instance(args.instance)
    semi, bounds = build_semilinear(
        _require_vass1(inst),
        inst.init_state,
        args.to_state,
        b_lps=args.b_lps,
        node_budget=args.node_budget,
    )
    result = {
        "explicit": sorted(semi.explicit),
        "components": [
            {"base": base, "periods": [period]}
            for base, period in semi.components
        ],
        "partial": semi.partial,
        "bounds": {
            "b_lps": bounds.b_lps,
            "b_lps_provenance": "heuristic" if args.b_lps is None else "configured",
            "maxover": bounds.maxover,
            "theta_len_bound": bounds.theta_len_bound,
            "p3": bounds.p3,
        },
    }
    summary = (f"{len(result['explicit'])} explicit values, "
               f"{len(result['components'])} linear components")
    return result, summary


_COMMANDS = {command.name: command for command in (
    _decide_box, _decide_reach, _threshold, _seed, _steinitz, _witness,
    _lift, _verify_window, _vass1_decide, _vass1_semilinear,
)}
_HELP = ("-h", "--help")


def _help(command: _Command | None) -> str:
    """The command list, or the flags of ``command``, for ``--help``."""
    if command is None:
        lines = ["usage: boxvas COMMAND [--flag value | --flag=value ...]",
                 "Box-reachability toolkit for vector addition systems", "", "commands:"]
        lines += [f"  {c.name:<18}{c.purpose}" for c in _COMMANDS.values()]
        lines += ["", "'boxvas COMMAND --help' lists the flags of COMMAND"]
        return "\n".join(lines)
    lines = [f"usage: boxvas {command.name} [--flag value | --flag=value ...]",
             command.purpose, "", "flags:"]
    for name, options in command.flags:
        notes = [f"one of {', '.join(options['choices'])}"] if "choices" in options else []
        if options.get("required"):
            notes.append("required")
        elif options.get("default") is not None:
            notes.append(f"default {options['default']}")
        text = options.get("help", "") + (f" ({'; '.join(notes)})" if notes else "")
        lines.append(f"  {name:<18}{text}")
    return "\n".join(lines)


def _parse_args(argv: Sequence[str]) -> SimpleNamespace | None:
    """The command of ``argv`` as ``command`` and ``run``, and its flag values
    under their ``dest`` names; None once ``--help`` is printed.  Raises
    ``InvalidInputError`` for every usage error (see the module docstring)."""
    if not argv:
        raise InvalidInputError(f"missing command: one of {', '.join(_COMMANDS)}")
    if argv[0] in _HELP:
        print(_help(None))
        return None
    command = _COMMANDS.get(argv[0])
    if command is None:
        raise InvalidInputError(f"unknown command {argv[0]!r}: one of {', '.join(_COMMANDS)}")
    flags = dict(command.flags)
    given: dict[str, str | bool] = {}  # the last value of each flag wins
    tokens = iter(argv[1:])
    for token in tokens:
        if token in _HELP:
            print(_help(command))
            return None
        name, has_value, value = token.partition("=")
        options = flags.get(name)
        if options is None:
            if token.startswith("-"):
                raise InvalidInputError(f"{command.name}: unknown flag {name}")
            raise InvalidInputError(f"{command.name}: stray argument {token!r}")
        if options.get("action") == "store_true":
            if has_value:
                raise InvalidInputError(f"{name}: takes no value, got {value!r}")
            value = True
        elif not has_value:
            value = next(tokens, None)
            if value is None:
                raise InvalidInputError(f"{name}: missing value")
        given[name] = value
    values = {"command": command.name, "run": command.run}
    for name, options in command.flags:
        value = given.get(name)
        if value is None:
            if options.get("required"):
                raise InvalidInputError(f"{command.name}: missing required flag {name}")
            value = False if options.get("action") == "store_true" else options.get("default")
        elif "type" in options:
            try:
                value = options["type"](value)
            except InvalidInputError as e:
                raise InvalidInputError(f"{name}: {e}")
            except ValueError:
                raise InvalidInputError(f"{name}: expected an integer, got {value!r}")
        elif "choices" in options and value not in options["choices"]:
            raise InvalidInputError(
                f"{name}: must be one of {', '.join(options['choices'])}, got {value!r}")
        values[options.get("dest", name[2:].replace("-", "_"))] = value
    return SimpleNamespace(**values)


def run_command(argv: Sequence[str]) -> int:
    try:
        args = _parse_args(argv)
        if args is None:
            return EXIT_OK
        started = time.monotonic()
        result, summary = args.run(args)
    except InvalidInputError as e:
        print(str(e), file=sys.stderr)
        return EXIT_USAGE
    except PreconditionError as e:
        print(str(e), file=sys.stderr)
        return EXIT_PRECONDITION
    except ResourceBudgetError as e:
        print(str(e), file=sys.stderr)
        return EXIT_RESOURCE
    except BoxVasError as e:  # InternalCheckError, or no family at all
        print(f"internal error: {e}", file=sys.stderr)
        return EXIT_INTERNAL
    envelope = {
        "command": args.command,
        "result": result,
        "timing_ms": round((time.monotonic() - started) * 1000, 3),
        "budget": {"node_budget": getattr(args, "node_budget", None)},
        "warnings": [],
    }
    print(_envelope_text(envelope))
    print(summary, file=sys.stderr)
    return EXIT_OK


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
