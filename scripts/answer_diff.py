"""Answer identity of a parent commit against HEAD on the benchmark's operations.

    python3 scripts/answer_diff.py --parent <base-commit> --seeds 1-4

Builds, for every workload in ``BENCHMARK.json`` and every seed, the
operations of HEAD's ``perfbench/workloads.py`` (which it imports but does
not change), with their instance files in a temporary directory.  It then
runs each operation through ``boxvas.cli.run_command`` in ``git archive``
snapshots of ``--parent`` and of HEAD, one worker process per snapshot, and
compares the exit code and the envelope's ``result`` (the timing and the
echoed budget are not answers).  It lists every operation whose exit code or
result differs and exits 1 if there is one, 0 otherwise.  Like
``bench_pairs.py``, it compares commits: uncommitted edits are not run.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import subprocess
import sys
import tempfile
from pathlib import Path

from bench_pairs import ROOT, extract, git, parse_seeds


def build_ops(perfbench: Path, workloads: list[str], seeds: list[int], work: Path) -> list[dict]:
    """Every operation of every (workload, seed), as label and argv."""
    sys.path.insert(0, str(perfbench))
    import workloads as wl

    ops = []
    for name in workloads:
        for seed in seeds:
            files_dir = work / f"{name}-{seed}"
            files_dir.mkdir()
            workload = wl.WORKLOADS[name](seed, wl.Files(str(files_dir)))
            for op in workload.batch + [workload.headline]:
                ops.append({"workload": name, "seed": seed, "label": op.label,
                            "argv": op.argv})
    return ops


def run_ops(src: str, ops_path: str, out_path: str) -> None:
    """Worker: run every operation in one process with ``src`` first on the
    path, and write (exit code, result) per operation."""
    sys.path.insert(0, src)
    from boxvas.cli import run_command

    answers = []
    for op in json.loads(Path(ops_path).read_text(encoding="utf-8")):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = run_command(op["argv"])
        result = json.loads(out.getvalue())["result"] if code == 0 else None
        answers.append([code, result])
    Path(out_path).write_text(json.dumps(answers), encoding="utf-8")


def short(answer) -> str:
    text = json.dumps(answer, sort_keys=True)
    return text if len(text) <= 200 else text[:200] + "..."


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="git revision to compare against")
    parser.add_argument("--seeds", required=True, type=parse_seeds, help="e.g. 1-4")
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    commits = {"parent": git("rev-parse", args.parent), "head": git("rev-parse", "HEAD")}
    with tempfile.TemporaryDirectory(prefix="answer-diff-") as tmp:
        tmp_path = Path(tmp)
        trees = {side: tmp_path / side for side in commits}
        for side, tree in trees.items():
            extract(commits[side], tree)
        work = tmp_path / "instances"
        work.mkdir()
        names = [w["name"] for w in bench["workloads"]]
        ops = build_ops(trees["head"] / "perfbench", names, args.seeds, work)
        ops_path = tmp_path / "ops.json"
        ops_path.write_text(json.dumps(ops), encoding="utf-8")
        procs = {
            side: subprocess.Popen([
                sys.executable, __file__, "--worker", str(tree / "src"),
                str(ops_path), str(tmp_path / f"{side}.json"),
            ])
            for side, tree in trees.items()
        }
        for side, proc in procs.items():
            if proc.wait() != 0:
                print(f"the {side} worker exited {proc.returncode}", file=sys.stderr)
                return 2
        answers = {
            side: json.loads((tmp_path / f"{side}.json").read_text(encoding="utf-8"))
            for side in commits
        }

    differing = 0
    for name in names:
        mine = [i for i, op in enumerate(ops) if op["workload"] == name]
        diff = [i for i in mine if answers["parent"][i] != answers["head"][i]]
        differing += len(diff)
        print(f"{name}: {len(mine)} operations, {len(diff)} differ")
        for i in diff:
            op = ops[i]
            print(f"  seed {op['seed']} {op['label']}: {' '.join(op['argv'])}")
            for side in commits:
                print(f"    {side}: {short(answers[side][i])}")
    print(f"{differing} differing operations "
          f"({commits['parent'][:12]} -> {commits['head'][:12]})")
    return 1 if differing else 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["--worker"]:
        run_ops(*sys.argv[2:5])
        sys.exit(0)
    sys.exit(main())
