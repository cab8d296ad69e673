"""Command-line front end.

One JSON object on stdout, a one-line human summary on stderr.  Exit codes
follow the error hierarchy of ``errors``: 0 success (the boolean decision
lives in the JSON, not the exit code), 2 ``InvalidInputError`` (parse and
usage errors), 3 ``PreconditionError``, 4 ``ResourceBudgetError``, and 1
for ``InternalCheckError`` (a failed re-verification, raised where a witness
is built and checked) or any other toolkit error.
"""
from __future__ import annotations

import argparse
import functools
import json
import re
import sys
import time
from typing import Sequence

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


def _parse_vector_list(text: str) -> list[tuple[int, ...]]:
    return [_parse_vector(part) for part in text.split(";") if part]


def _load_instance(path: str) -> InstanceFile:
    try:
        with open(path, encoding="utf-8") as fh:
            return parse_instance(fh.read())
    except OSError as e:
        raise InvalidInputError(f"cannot read instance file {path!r}: {e}")


def _nonnegative(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be nonnegative, got {value}")
    return value


def _positive(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be positive, got {value}")
    return value


def _require_vas(inst: InstanceFile) -> VasSystem:
    if inst.kind != "vas" or inst.vas is None:
        raise InvalidInputError("this command requires a 'vas' instance")
    return inst.vas


def _require_vass1(inst: InstanceFile) -> Vass1System:
    if inst.kind != "vass1" or inst.vass1 is None:
        raise InvalidInputError("this command requires a 'vass1' instance")
    return inst.vass1


@functools.lru_cache(maxsize=1)
def _build_parser() -> argparse.ArgumentParser:
    # built once per process: parse_args leaves the parser unchanged and
    # returns a fresh namespace, so calls share nothing
    parser = argparse.ArgumentParser(
        prog="boxvas",
        description="Box-reachability toolkit for vector addition systems",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, instance=True, budget=False):
        # only the commands whose engines read --node-budget take it
        if instance:
            p.add_argument("--instance", required=True, help="instance file path")
        if budget:
            p.add_argument("--node-budget", type=_nonnegative, default=DEFAULT_NODE_BUDGET)
        p.add_argument("--threads", type=int, default=1, help="accepted for compatibility; execution is single-threaded")

    p = sub.add_parser("decide-box", help="exact box-reachability decision")
    common(p, budget=True)
    p.add_argument("--target", required=True)

    p = sub.add_parser("decide-reach", help="reachability within a cap box")
    common(p, budget=True)
    p.add_argument("--target", required=True)
    p.add_argument("--cap", required=True)
    p.add_argument("--witness", action="store_true")

    p = sub.add_parser("threshold", help="the threshold W and its case")
    common(p)
    p.add_argument("--m", type=int, default=None, help="explicit deep constant")
    p.add_argument("--validate-radius", type=_nonnegative, default=None)

    p = sub.add_parser("seed", help="the strictly positive seed vector")
    common(p)

    p = sub.add_parser("steinitz", help="reorder a vector multiset")
    common(p, instance=False)
    p.add_argument("--vectors", required=True, help="semicolon-separated vectors, e.g. '1,1;-1,0'")

    p = sub.add_parser("witness", help="constructive box-reaching witness")
    common(p)
    p.add_argument("--target", required=True)
    p.add_argument("--evidence", choices=["coeffs", "path"], required=True)
    p.add_argument("--values", required=True, help="comma-separated integers")
    p.add_argument("--m", type=int, default=None)

    p = sub.add_parser("lift", help="dimension-doubling reduction")
    common(p, budget=True)
    p.add_argument("--target", default=None)

    p = sub.add_parser("verify-window", help="sweep a window of targets")
    common(p, budget=True)
    p.add_argument("--lo", required=True)
    p.add_argument("--size", required=True)
    p.add_argument("--margin", type=_nonnegative, default=None)

    p = sub.add_parser("vass1-decide", help="1-VASS box-reachability")
    common(p, budget=True)
    p.add_argument("--from", dest="from_state", default=None)
    p.add_argument("--to", dest="to_state", required=True)
    p.add_argument("--x", type=_nonnegative, required=True)

    p = sub.add_parser("vass1-semilinear", help="semilinear box-reachability set")
    common(p, budget=True)
    p.add_argument("--to", dest="to_state", required=True)
    p.add_argument("--b-lps", dest="b_lps", type=_positive, default=None)

    return parser


def _dispatch(args) -> dict:
    cmd = args.command
    if cmd == "decide-box":
        vas = _require_vas(_load_instance(args.instance))
        target = _parse_vector(args.target)
        decision, bundle = decide_box_reach(vas, target, args.node_budget)
        result = {"decision": decision}
        if bundle is not None:
            result["witness"] = list(bundle.path.indices)
        return result

    if cmd == "decide-reach":
        vas = _require_vas(_load_instance(args.instance))
        target = _parse_vector(args.target)
        cap = _parse_vector(args.cap)
        decision, bundle = decide_reach_capped(
            vas, target, cap, args.node_budget, want_witness=args.witness
        )
        result = {"decision": decision}
        if bundle is not None:
            result["witness"] = list(bundle.path.indices)
        return result

    if cmd == "threshold":
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
            scan = ditc_falsification_scan(vas, report.m_used, args.validate_radius)
            result["scan"] = {
                "radius": scan.radius,
                "deep_lattice_points": scan.deep_lattice_points,
                "counterexamples": [list(v) for v in scan.counterexamples],
                "undecided": [list(v) for v in scan.undecided],
            }
        return result

    if cmd == "seed":
        vas = _require_vas(_load_instance(args.instance))
        seed = compute_seed(vas)
        return {
            "s": list(seed.s),
            "s_pos": list(seed.s_pos),
            "witness": list(seed.witness.indices),
            "repeat": seed.repeat,
        }

    if cmd == "steinitz":
        vectors = _parse_vector_list(args.vectors)
        result = steinitz_reorder(vectors)
        return {
            "permutation": list(result.permutation),
            "corridor_bound": result.corridor_bound,
            "verified": result.verified,
        }

    if cmd == "witness":
        vas = _require_vas(_load_instance(args.instance))
        target = _parse_vector(args.target)
        values = _parse_vector(args.values)
        m = DeepConstant(args.m, "configured") if args.m is not None else None
        if args.evidence == "coeffs":
            bundle = synthesize_box_witness(vas, target, coefficients=values, m=m)
        else:
            bundle = synthesize_box_witness(vas, target, path=values, m=m)
        result = {
            "method": bundle.method.value,
            "witness": list(bundle.path.indices),
            "length": len(bundle.path),
            "length_lower_bound": witness_length_lower_bound(vas, bundle.target),
        }
        if bundle.rho_source is not None:
            result["rho_source"] = bundle.rho_source
        return result

    if cmd == "lift":
        vas = _require_vas(_load_instance(args.instance))
        lifted = lift_vas(vas)
        result = {
            "dim": lifted.system.dim,
            "generators": [list(g) for g in lifted.system.generators],
            "instance": serialize_instance(
                InstanceFile(kind="vas", vas=lifted.system)
            ),
        }
        if args.target is not None:
            from .lift import decide_box_via_lift

            result["decision"] = decide_box_via_lift(
                vas, _parse_vector(args.target), args.node_budget
            )
        return result

    if cmd == "verify-window":
        vas = _require_vas(_load_instance(args.instance))
        report = verify_window(
            vas,
            _parse_vector(args.lo),
            _parse_vector(args.size),
            cap_margin=args.margin,
            node_budget=args.node_budget,
        )
        return {
            "checked": report.checked,
            "violations": [list(t) for t in report.violations],
            "skipped": [list(t) for t in report.skipped],
            "cap_margin": report.cap_margin,
        }

    if cmd == "vass1-decide":
        inst = _load_instance(args.instance)
        q0 = args.from_state if args.from_state is not None else inst.init_state
        decision, witness = vass1_box_decide(
            _require_vass1(inst), q0, args.to_state, args.x, args.node_budget
        )
        result = {"decision": decision}
        if witness is not None:
            result["witness"] = witness
        return result

    if cmd == "vass1-semilinear":
        inst = _load_instance(args.instance)
        semi, bounds = build_semilinear(
            _require_vass1(inst),
            inst.init_state,
            args.to_state,
            b_lps=args.b_lps,
            node_budget=args.node_budget,
        )
        return {
            "explicit": sorted(semi.explicit),
            "components": [
                {"base": base, "periods": list(periods)}
                for base, periods in semi.components
            ],
            "partial": semi.partial,
            "bounds": {
                "b_lps": bounds.b_lps,
                "b_lps_provenance": (
                    "heuristic" if args.b_lps is None else "configured"
                ),
                "maxover": bounds.maxover,
                "theta_len_bound": bounds.theta_len_bound,
                "p3": bounds.p3,
            },
        }

    raise InvalidInputError(f"unknown command {cmd!r}")


def _summary(result: dict) -> str:
    if "decision" in result:
        extra = ""
        if "witness" in result:
            extra = f" (witness length {len(result['witness'])})"
        return f"decision: {str(result['decision']).lower()}{extra}"
    if "w" in result:
        return f"W = {result['w']} [{result['case']}]"
    if "permutation" in result:
        return f"permutation of {len(result['permutation'])} vectors, bound {result['corridor_bound']}"
    if "method" in result:
        return (
            f"witness via {result['method']}, length {result['length']} "
            f"(lower bound {result['length_lower_bound']})"
        )
    if "violations" in result:
        return f"checked {result['checked']}, violations {len(result['violations'])}"
    if "explicit" in result:
        return (
            f"{len(result['explicit'])} explicit values, "
            f"{len(result['components'])} linear components"
        )
    if "s_pos" in result:
        return f"seed s_pos = {tuple(result['s_pos'])}"
    if "generators" in result:
        return f"lifted to dimension {result['dim']}"
    return "ok"


def _attach_negative_values(argv: Sequence[str]) -> list[str]:
    """Rewrite ``--opt -3,0`` as ``--opt=-3,0``: argparse takes a value that
    starts with ``-`` for an option unless it is a plain negative number."""
    out: list[str] = []
    for tok in argv:
        prev = out[-1] if out else ""
        if prev.startswith("--") and "=" not in prev and re.match(r"-\d", tok):
            out[-1] = f"{prev}={tok}"
        else:
            out.append(tok)
    return out


def run_command(argv: Sequence[str]) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(_attach_negative_values(argv))
    except SystemExit as e:
        return EXIT_USAGE if e.code not in (0, None) else EXIT_OK
    started = time.monotonic()
    warnings: list[str] = []
    if getattr(args, "threads", 1) != 1:
        warnings.append("--threads is accepted but execution is single-threaded")
    try:
        result = _dispatch(args)
        code = EXIT_OK
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
        "warnings": warnings,
    }
    print(json.dumps(envelope, sort_keys=True))
    print(_summary(result), file=sys.stderr)
    return code


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
