#!/usr/bin/env python3
"""Alternating before/after pairs of the benchmark, written to BENCH_<pr>.json.

    python scripts/bench_pairs.py --pr 25 --workload closed_forms --parent HEAD~1
    python scripts/bench_pairs.py --pr 25 --workload cli_batch --parent ../old-checkout --pairs 4

Runs `bench/run.py --trace 0` for one workload in fresh processes, a parent
checkout and this working tree in turn, the side that runs first swapping
from pair to pair.  `--parent` is a directory holding a checkout, or a git
revision, which is checked out into a temporary `git worktree` and removed
afterwards.  Each side runs its own `bench/run.py`; nothing under `bench/`
is written to but its own `bench/out/`.

For every metric the last line of a run reports, the output holds each
side's median, first and third quartile and runs, and, for the metrics
that BENCHMARK.json declares better one way, the number of pairs the
working tree won (ties count for neither).  The workload's entry replaces
any earlier one in the output file, so one file collects every workload
of a change.  Only pairs run in one session compare: the host's speed
drifts between sessions.  Exit status 1 if any run was not correct or
printed no result.
"""

import argparse
import json
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]


def _git(cwd, *args):
    """stdout of a git command in cwd, or None where it fails."""
    res = subprocess.run(["git", "-C", str(cwd), *args], capture_output=True, text=True)
    return res.stdout.strip() if res.returncode == 0 else None


def _describe(root):
    """The commit a checkout holds, marked '+dirty' if its tree differs from it."""
    head = _git(root, "rev-parse", "HEAD")
    if head is None:
        return str(root)
    return head + ("+dirty" if _git(root, "status", "--porcelain", "--untracked-files=no")
                   else "")


def run_bench(root, workload, seed, seconds):
    """One fresh `bench/run.py` process in checkout root: its result line, or None."""
    res = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=root, capture_output=True, text=True)
    lines = res.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        print(f"bench_pairs: no result from {root} (exit {res.returncode}):\n{res.stderr}",
              file=sys.stderr)
        return None


def summarise(runs, better):
    """Each metric's quartiles per side and, where `better` names its direction, pairs won."""
    out = {}
    for name, record in runs["change"][0]["metrics"].items():
        entry = {"unit": record["unit"]}
        values = {}
        for side in ("parent", "change"):
            values[side] = [r["metrics"][name]["value"] for r in runs[side]]
            q1, median, q3 = np.percentile(values[side], [25, 50, 75])
            entry[side] = {"median": median, "q1": q1, "q3": q3, "runs": values[side]}
        if name in better:
            sign = 1.0 if better[name] == "higher" else -1.0
            entry["better"] = better[name]
            entry["change_won"] = sum(sign * (c - p) > 0.0
                                      for p, c in zip(values["parent"], values["change"]))
        out[name] = entry
    return out


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--pr", type=int, required=True, help="names the output BENCH_<pr>.json")
    ap.add_argument("--workload", required=True,
                    choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--parent", required=True, help="a checkout directory or a git revision")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--out", type=Path, help="output file (default: BENCH_<pr>.json here)")
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("need at least 1 pair")
    out = args.out or ROOT / f"BENCH_{args.pr}.json"
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}

    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        parent, worktree = Path(args.parent), None
        if not parent.is_dir():
            worktree = Path(tmp) / "parent"
            if _git(ROOT, "worktree", "add", "--detach", str(worktree), args.parent) is None:
                ap.error(f"--parent {args.parent!r} is neither a directory nor a git revision")
            parent = worktree
        try:
            sides = {"parent": parent.resolve(), "change": ROOT}
            runs = {"parent": [], "change": []}
            for i in range(args.pairs):
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                for side in order:
                    result = run_bench(sides[side], args.workload, args.seed, args.seconds)
                    if result is None:
                        return 1
                    runs[side].append(result)
                    print(f"bench_pairs: pair {i + 1}/{args.pairs} {side}: " + " ".join(
                        f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
                        flush=True)
            described = {side: _describe(root) for side, root in sides.items()}
        finally:
            if worktree is not None:
                _git(ROOT, "worktree", "remove", "--force", str(worktree))

    entry = {
        "parent": described["parent"], "change": described["change"],
        "seed": args.seed, "seconds": args.seconds, "pairs": args.pairs,
        "correct": {side: [r["correct"] for r in rs] for side, rs in runs.items()},
        "failed_share": {side: [r["failed"] / r["attempted"] for r in rs]
                         for side, rs in runs.items()},
        "host": {"machine": platform.machine(), "python": platform.python_version()},
        "metrics": summarise(runs, better),
    }
    data = json.loads(out.read_text()) if out.is_file() else {"pr": args.pr, "workloads": {}}
    data["workloads"][args.workload] = entry
    out.write_text(json.dumps(data, indent=1) + "\n")

    print(f"bench_pairs: {args.workload}, {args.pairs} pairs -> {out}")
    for name, m in entry["metrics"].items():
        won = f"  change won {m['change_won']}/{args.pairs}" if "change_won" in m else ""
        print(f"  {name:14s} parent {m['parent']['median']:10.4g} "
              f"[{m['parent']['q1']:.4g}, {m['parent']['q3']:.4g}]  change "
              f"{m['change']['median']:10.4g} [{m['change']['q1']:.4g}, "
              f"{m['change']['q3']:.4g}] {m['unit']}{won}")
    return 0 if all(all(c) for c in entry["correct"].values()) else 1


if __name__ == "__main__":
    sys.exit(main())
