"""Run the benchmark in sets of seeds and compare the sets per metric.

    python3 bench/steadiness.py --workloads bootstrap,pricing --runs 10 --sets 2

Set s runs bench/run.py `--runs` times per workload with seeds
1000 s + 1 .. 1000 s + runs, one run at a time and alternating between
workloads, and collects the end-to-end metrics.  Per metric and set it
reports the median, the quartiles and the spread (q3 - q1) / median, using
statistics.quantiles(values, n=4).  A metric passes when every set's
spread (setup_s excepted) stays within a third of the bound in
BENCHMARK.json and no later set's median is worse than the first set's by
more than the bound.  The table is printed and written to
bench/out/steadiness.json; the exit status is 1 if any metric fails.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def run_once(workload, seed, seconds):
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return {name: m["value"] for name, m in result["metrics"].items()}, wall


def summarize(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else float("inf"),
            "values": values}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    ap.add_argument("--workloads", default=",".join(names))
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, default=2)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    args = ap.parse_args(argv)

    bounds = {m["name"]: (m["bound"], m["better"]) for m in spec["end_to_end"]}
    workloads = args.workloads.split(",")
    # runs[w][s] lists set s's metric dicts; runs alternate between workloads
    # so that a slow spell of the machine does not land on one workload only
    runs = {w: [[] for _ in range(args.sets)] for w in workloads}
    walls = {w: [] for w in workloads}
    for s in range(args.sets):
        for i in range(args.runs):
            for workload in workloads:
                metrics, wall = run_once(workload, 1000 * s + i + 1, args.seconds)
                runs[workload][s].append(metrics)
                walls[workload].append(wall)
                print(f"{workload} set {s} run {i}: {wall:.1f} s "
                      + " ".join(f"{k}={v:.4g}" for k, v in metrics.items()), flush=True)
    report, ok = {}, True
    for workload in workloads:
        sets = [{k: summarize([r[k] for r in set_runs]) for k in bounds}
                for set_runs in runs[workload]]
        rows = {}
        for name, (bound, better) in bounds.items():
            first = sets[0][name]["median"]
            drift = [(st[name]["median"] - first) / first * (1 if better == "lower" else -1)
                     for st in sets[1:]]
            spreads = [st[name]["spread"] for st in sets]
            passed = (name == "setup_s" or all(sp <= bound / 3 for sp in spreads)) and \
                all(d <= bound for d in drift)
            ok &= passed
            rows[name] = {"bound": bound, "spreads": spreads, "worse_by": drift,
                          "medians": [st[name]["median"] for st in sets], "passed": passed}
            print(f"  {workload:12s} {name:12s} bound {bound:<5g} medians "
                  + " ".join(f"{st[name]['median']:.4g}" for st in sets)
                  + "  spreads " + " ".join(f"{sp:.3f}" for sp in spreads)
                  + "  worse_by " + " ".join(f"{d:+.3f}" for d in drift)
                  + ("  ok" if passed else "  FAIL"), flush=True)
        report[workload] = {"sets": sets, "summary": rows, "run_wall_s": walls[workload]}
    out = BENCH / "out" / "steadiness.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(report, indent=1))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
