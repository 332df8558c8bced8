"""ginicorr benchmark: one workload per process, closed loop, one client.

    python3 bench/run.py --workload bootstrap --seed 1 --seconds 16 --trace 0

Run from the root of a source checkout; the library is imported from its
`src/` directory and nowhere else.  The run

1. times SETUP_PROBES fresh interpreters from start to first task ready
   (import ginicorr, build the inputs) and reports the median;
2. builds the inputs from `--seed` and repeats whole cycles of the
   workload's tasks, back to back, until `--seconds` have passed;
3. checks every answer against bench/reference.py;
4. prints a summary and, as the last line, one JSON object.

`--trace 0` reports the end-to-end metrics.  `--trace 1` instead runs one
untraced cycle, then one traced cycle, and reports per-layer metrics for
one set-up plus one cycle (see bench/README.md).  Exit status: 0 when every
answer is correct and the only errors raised are the known defects a
workload declares, 1 when a check failed or any other error was raised, 2
when the library cannot be imported from the checkout.
"""

from __future__ import annotations

import argparse
import os
import sys

# Pin BLAS/OpenMP pools before numpy loads; children inherit the setting.
THREADS = "1"
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = THREADS

import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

from workloads import WORKLOADS, child_env  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
SETUP_PROBES = 3


def import_library():
    """Import ginicorr from this checkout's src/, or exit with status 2."""
    if not (SRC / "ginicorr" / "__init__.py").is_file():
        print(f"bench: no ginicorr sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import ginicorr

    if Path(ginicorr.__file__).resolve().parent != (SRC / "ginicorr").resolve():
        print(f"bench: imported ginicorr from {ginicorr.__file__}, not from {SRC}",
              file=sys.stderr)
        sys.exit(2)
    return ginicorr


@dataclass
class Outcome:
    key: str
    cycle: int
    latency: float
    value: object
    error: BaseException | None
    check: object
    may_fail: bool
    status: str = ""


@dataclass
class Measurement:
    outcomes: list
    elapsed: float
    cycles: int

    @property
    def tasks_per_s(self) -> float:
        return len(self.outcomes) / self.elapsed


def measure(wl, seconds: float, rec=None, max_cycles=None) -> Measurement:
    """Repeat whole cycles, at least one, until `seconds` have passed.

    Whole cycles keep the task mix identical from run to run; max_cycles
    caps the count.
    """
    from ginicorr import GiniCorrError

    outcomes = []
    t0 = time.perf_counter()
    cycle = 0
    while True:
        for task in wl.tasks(cycle, traced=rec is not None):
            if rec is not None:
                rec.task = f"{cycle}/{task.key}"
            start = time.perf_counter()
            try:
                value, error = task.run(), None
            except GiniCorrError as exc:
                value, error = None, exc
            except Exception as exc:  # a task boundary: record it, keep measuring
                value, error = None, exc
                traceback.print_exc()
            outcomes.append(Outcome(task.key, cycle, time.perf_counter() - start,
                                    value, error, task.check, task.may_fail))
        cycle += 1
        if cycle == max_cycles or time.perf_counter() - t0 >= seconds:
            break
    return Measurement(outcomes, time.perf_counter() - t0, cycle)


def classify(outcomes):
    """Check every answer; status ok, raised or wrong.

    `raised` is a typed library error on a task that declares it may fail
    (a known defect the workload keeps visible); any other error is wrong.
    """
    from ginicorr import GiniCorrError

    from reference import CheckFailed

    for o in outcomes:
        if o.error is None:
            try:
                o.check(o.value)
            except (GiniCorrError, CheckFailed) as exc:
                o.error = exc
        if o.error is None:
            o.status = "ok"
        elif o.may_fail and isinstance(o.error, GiniCorrError):
            o.status = "raised"
        else:
            o.status = "wrong"
            print(f"[bench] wrong answer: {o.key}: {type(o.error).__name__}: {o.error}",
                  file=sys.stderr)


# ---------------------------------------------------------------------------
# set-up probes and environment
# ---------------------------------------------------------------------------

def probe_setup(workload: str, seed: int, workdir: Path) -> float:
    """Seconds from spawning a fresh interpreter to its first task ready."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", workload, "--seed", str(seed), "--workdir", str(workdir)]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=child_env(), text=True)
    line = proc.stdout.readline()
    elapsed = time.perf_counter() - start
    _, err = proc.communicate()
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed ({proc.returncode}): {err[-500:]}")
    return elapsed


def import_times() -> dict:
    """cli.import_s and cli.import.scipy_stats_s from python -X importtime.

    The report lists each module after the modules it imported, indented by
    depth.  scipy loads `scipy.stats` lazily and the package gets no line of
    its own, so its import time is the sum over the outermost scipy.stats.*
    entries.
    """
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import ginicorr.cli"],
                          env=child_env(), capture_output=True, text=True, check=True)
    entries = []
    for line in proc.stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        _, cum, name = line[len("import time:"):].split("|")
        if cum.strip().isdigit():  # skips the column header
            entries.append((len(name) - len(name.lstrip()), name.strip(), int(cum)))
    total = sum(cum for depth, name, cum in entries if name == "ginicorr.cli")
    stats = [(depth, cum) for depth, name, cum in entries
             if name == "scipy.stats" or name.startswith("scipy.stats.")]
    top = min((depth for depth, _ in stats), default=0)
    return {"import_s": total / 1e6,
            "scipy_stats_s": sum(cum for depth, cum in stats if depth == top) / 1e6}


def environment() -> dict:
    import numpy
    import scipy

    def getconf(name):
        try:
            out = subprocess.run(["getconf", name], capture_output=True, text=True).stdout
            return int(out.strip())
        except (OSError, ValueError):
            return None

    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh
                          if ln.startswith("model name")), model)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(), "cpu_model": model,
        "cache_bytes": {lvl: getconf(f"LEVEL{lvl}_CACHE_SIZE" if lvl != "1d" else "LEVEL1_DCACHE_SIZE")
                        for lvl in ("1d", "2", "3")},
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "blas_omp_threads": THREADS,
    }


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def end_to_end(m: Measurement, setups, rss_kb) -> tuple:
    """End-to-end metrics of one run.

    The tail is the median over cycles of each cycle's slowest task.  A
    cycle is the same task list on every commit, so the tail keeps its
    meaning when a faster commit fits more cycles into the run.
    """
    lat = [o.latency for o in m.outcomes]
    slowest = {}
    for o in m.outcomes:
        slowest[o.cycle] = max(slowest.get(o.cycle, 0.0), o.latency)
    tail_s = statistics.median(slowest.values())
    failed = sum(o.status != "ok" for o in m.outcomes)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "tasks_per_s": (m.tasks_per_s, "1/s"),
        "task_p50_s": (statistics.median(lat), "s"),
        "task_tail_s": (tail_s, "s"),
        "peak_rss_mb": (rss_kb / 1024.0, "MB"),
    }
    notes = {"tasks": len(lat), "cycles": m.cycles, "elapsed_s": m.elapsed,
             "tasks_per_cycle": len(lat) // m.cycles, "setup_probes": len(setups),
             "failed_share": failed / len(lat)}
    return metrics, notes


# Per-layer metrics named "<span name>.<field>": the field summed over the
# spans of one set-up plus one traced cycle.
LAYER_METRICS = (
    "specfun.hyp_pfq.calls", "specfun.hyp_pfq.self_s", "specfun.hyp_pfq.failed",
    "specfun.reg_inc_beta.points", "specfun.reg_inc_beta.self_s", "weights.eval.calls",
    "weights.eval.points", "weights.eval.scalar_calls", "weights.eval.self_s",
    "distributions.sample.pairs", "distributions.sample.self_s",
    "distributions.quantile.scalar_calls", "distributions.quantile.self_s",
    "gini.rank.calls", "gini.rank.points", "gini.rank.self_s", "gini.bootstrap.resamples",
    "gini.empirical_cw.calls", "gini.empirical_cw.self_s", "gini.closed_cw.calls",
    "gini.closed_cw.self_s", "gini.closed_cw.failed", "gini.cw_via_regression.calls",
    "gini.cw_via_regression.self_s", "wipm.gini_premium.self_s",
    "wipm.gini_wipm_rhs.self_s", "wipm.allocate.self_s", "oracle.quad.calls",
    "oracle.quad.neval", "oracle.quad.self_s", "oracle.quad2_bvp3_moment.self_s",
    "oracle.quad2_bvp3_moment.failed", "oracle.mc_reference.self_s",
)


def per_layer(setup_spans, traced: Measurement, untraced: Measurement, imports):
    import tracing

    spans = list(setup_spans)
    for o in traced.outcomes:
        if isinstance(o.value, dict) and "spans" in o.value:  # cli children
            base = len(spans)
            for sp in o.value["spans"]:
                sp[tracing.TASK] = f"{o.cycle}/{o.key}"
                if sp[tracing.PARENT] >= 0:
                    sp[tracing.PARENT] += base
                spans.append(sp)
    totals = tracing.layer_totals(spans)
    metrics, not_applicable = {}, []
    for name in LAYER_METRICS:
        span, field = name.rsplit(".", 1)
        t = totals.get(span)
        if t is None:
            not_applicable.append(name)
        unit = "s" if field == "self_s" else "count"
        metrics[name] = (t.get(field, 0.0) if t else 0.0, unit)
    ranked, n = tracing.rank_passes(spans)
    metrics["gini.rank.passes_per_estimate"] = (ranked / n if n else 0.0, "ratio")
    # a library that ranks other than through the traced rankdata records
    # no gini.rank spans; its passes are unknown, not zero
    if not n or "gini.rank" not in totals:
        not_applicable.append("gini.rank.passes_per_estimate")
    mains = [o.value["main_s"] for o in traced.outcomes
             if isinstance(o.value, dict) and "main_s" in o.value]
    metrics["cli.import_s"] = (statistics.median(i["import_s"] for i in imports), "s")
    metrics["cli.import.scipy_stats_s"] = (
        statistics.median(i["scipy_stats_s"] for i in imports), "s")
    metrics["cli.main.after_import_s"] = (statistics.median(mains) if mains else 0.0, "s")
    if not mains:
        not_applicable.append("cli.main.after_import_s")
    metrics["trace.tasks_per_s"] = (traced.tasks_per_s, "1/s")
    metrics["trace.untraced_tasks_per_s"] = (untraced.tasks_per_s, "1/s")
    metrics["trace.overhead_ratio"] = (untraced.tasks_per_s / traced.tasks_per_s, "ratio")
    return metrics, not_applicable, spans


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=16.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--workdir", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    import_library()
    if args.workload not in WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; pick from {sorted(WORKLOADS)}")
    cls = WORKLOADS[args.workload]
    if args.setup_probe:
        wl = cls(args.seed, Path(args.workdir))
        wl.setup()
        print("ready", flush=True)
        wl.close()
        return 0

    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-s{args.seed}-t{args.trace}"
    workdir = OUT / f"work-{tag}-{os.getpid()}"
    env = environment()
    setups = []
    if args.trace == 0:
        setups = [probe_setup(args.workload, args.seed, workdir.with_name(workdir.name + f"-p{i}"))
                  for i in range(SETUP_PROBES)]
    wl = cls(args.seed, workdir)
    try:
        if args.trace == 0:
            wl.setup()
            m = measure(wl, args.seconds)
            rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            if not wl.in_process:  # the workload ran in child processes
                rss_kb = max(o.value["rss_kb"] for o in m.outcomes if o.value)
            outcomes = m.outcomes
            classify(outcomes)
            metrics, notes = end_to_end(m, setups, rss_kb)
            not_applicable = []
        else:
            import tracing

            rec = tracing.Recorder()
            rec.task = "setup"
            with tracing.instrument(rec):
                wl.setup()
            untraced = measure(wl, 0.0, max_cycles=1)
            with tracing.instrument(rec):
                traced = measure(wl, 0.0, rec=rec, max_cycles=1)
            imports = [import_times() for _ in range(3)]
            outcomes = untraced.outcomes + traced.outcomes
            classify(outcomes)
            metrics, not_applicable, spans = per_layer(rec.spans, traced, untraced, imports)
            notes = {"tasks": len(outcomes),
                     "failed_share": sum(o.status != "ok" for o in outcomes) / len(outcomes)}
            with open(OUT / f"trace-{tag}.json", "w") as fh:
                json.dump({"spans": spans}, fh)
        info = wl.describe()
    finally:
        wl.close()

    failed = sum(o.status != "ok" for o in outcomes)
    correct = all(o.status != "wrong" for o in outcomes)
    by_key = {}
    for o in outcomes:
        entry = by_key.setdefault(o.key, {"latency_s": [], "status": []})
        entry["latency_s"].append(o.latency)
        entry["status"].append(o.status if o.error is None else
                               f"{o.status}: {type(o.error).__name__}: {str(o.error)[:160]}")
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": env, "inputs": info, "notes": notes,
              "not_applicable": not_applicable, "tasks": by_key,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    with open(OUT / f"result-{tag}.json", "w") as fh:
        json.dump(record, fh, indent=1, default=str)

    print(f"[bench] env {json.dumps(env)}")
    print(f"[bench] {args.workload} seed={args.seed} " + " ".join(
        f"{k}={v:.6g}" if isinstance(v, float) else f"{k}={v}" for k, v in notes.items()))
    for name, (value, unit) in metrics.items():
        print(f"[bench]   {name:38s} {value:14.6g} {unit}")
    # zero on most workloads, so it travels as failed / attempted in the JSON
    print(f"[bench]   {'failed_share':38s} {failed / len(outcomes):14.6g} share")
    if not_applicable:
        print(f"[bench] not applicable on {args.workload}: {', '.join(not_applicable)}")
    print(json.dumps({"correct": correct, "attempted": len(outcomes), "failed": failed,
                      "metrics": record["metrics"]}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
