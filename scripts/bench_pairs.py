"""Paired benchmark runs of a parent commit against HEAD.

    python3 scripts/bench_pairs.py --parent <base-commit> --seeds 101-110 --out BENCH_7.json

Runs the unchanged ``perfbench/run.py`` as a subprocess in two source trees,
snapshots of ``--parent`` and of HEAD, each extracted with ``git archive``
into a temporary directory, so the recorded commits are exactly the code
that ran; uncommitted edits are not measured.  For every workload in
``BENCHMARK.json`` and every seed it runs one pair, alternating which side
goes first, so that a drift in machine speed weighs on both sides alike.  After the untraced pairs it runs one
``--trace 1`` pair per workload on the first seed, for the per-layer counts.

The output file holds both commits, the seeds and the run length; per
workload and end-to-end metric, each side's median and quartiles and the
number of pairs HEAD won (ties count for neither side); and every
run's raw result line.  The metrics, their direction and the run length come
from ``BENCHMARK.json``.
"""
from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def git(*args: str) -> str:
    return subprocess.run(
        ["git", *args], cwd=ROOT, check=True, capture_output=True, text=True
    ).stdout.strip()


def parse_seeds(text: str) -> list[int]:
    """'101-110' or '1,5,9' (or a mix) as a list of seeds."""
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def src_digest(tree: Path) -> str:
    """SHA-256 over the paths and contents of the package sources, so a
    result can be matched to the code that produced it."""
    h = hashlib.sha256()
    for path in sorted((tree / "src").rglob("*.py")):
        h.update(str(path.relative_to(tree)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def extract(rev: str, dest: Path) -> None:
    archive = subprocess.run(
        ["git", "archive", "--format=tar", rev], cwd=ROOT, check=True,
        capture_output=True,
    ).stdout
    dest.mkdir(parents=True)
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")


def run_once(tree: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(
            f"{' '.join(cmd)} in {tree} exited {proc.returncode}:\n{proc.stderr}"
        )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": q2, "q1": q1, "q3": q3}


def summarize(pairs: list[dict], metrics: list[dict]) -> dict:
    """Per-metric medians, quartiles and pair wins, plus failure counts."""
    out: dict = {"metrics": {}}
    for metric in metrics:
        name, higher = metric["name"], metric["better"] == "higher"
        sides = {
            side: [p[side]["metrics"][name]["value"] for p in pairs]
            for side in ("parent", "change")
        }
        wins = sum(
            (c > p) if higher else (c < p)
            for p, c in zip(sides["parent"], sides["change"])
        )
        out["metrics"][name] = {
            "unit": metric["unit"],
            "better": metric["better"],
            "bound": metric["bound"],
            "parent": spread(sides["parent"]),
            "change": spread(sides["change"]),
            "change_wins": wins,
            "pairs": len(pairs),
        }
    for side in ("parent", "change"):
        out[side] = {
            "attempted": sum(p[side]["attempted"] for p in pairs),
            "failed": sum(p[side]["failed"] for p in pairs),
            "all_correct": all(p[side]["correct"] for p in pairs),
        }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="git revision to compare against")
    parser.add_argument("--seeds", required=True, type=parse_seeds,
                        help="e.g. 101-110; one pair per seed and workload")
    parser.add_argument("--out", required=True, help="path of the JSON file to write")
    args = parser.parse_args(argv)
    if len(args.seeds) < 2:
        parser.error("quartiles need at least two seeds")

    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = bench["run_seconds"]
    commits = {
        "parent": git("rev-parse", args.parent),
        "change": git("rev-parse", "HEAD"),
    }
    if commits["parent"] == commits["change"]:
        parser.error("--parent names HEAD itself; commit the change first")

    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        trees = {side: Path(tmp) / side for side in commits}
        for side, tree in trees.items():
            extract(commits[side], tree)
        result = {
            **{
                side: {"commit": commits[side], "src_sha256": src_digest(trees[side])}
                for side in commits
            },
            "seeds": args.seeds,
            "run_seconds": seconds,
            "machine": {
                "python": platform.python_version(),
                "cpus": os.cpu_count(),
                "platform": platform.platform(),
            },
            "workloads": {},
        }
        for workload in (w["name"] for w in bench["workloads"]):
            pairs = []
            for n, seed in enumerate(args.seeds):
                order = ("parent", "change") if n % 2 == 0 else ("change", "parent")
                pair = {"seed": seed, "first": order[0]}
                for side in order:
                    pair[side] = run_once(trees[side], workload, seed, seconds, 0)
                    print(f"{workload} seed {seed} {side}: "
                          f"{json.dumps(pair[side]['metrics'])}", file=sys.stderr)
                pairs.append(pair)
            traced = {
                side: run_once(trees[side], workload, args.seeds[0], seconds, 1)
                for side in ("parent", "change")
            }
            result["workloads"][workload] = {
                **summarize(pairs, bench["end_to_end"]),
                "pairs": pairs,
                "traced": {"seed": args.seeds[0], **traced},
            }

    Path(args.out).write_text(json.dumps(result, indent=1, sort_keys=True) + "\n",
                              encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
