"""Re-measure the single-operation baseline rows and write bench/baseline.json.

    python3 bench/baseline.py [--repeats 5]

Rows: `import ginicorr` and the CLI cold start in fresh interpreters, the
README `corr --method all -n 200000` command (timed once: it takes about
half a minute), `empirical_cw` on 10^6 pairs without bootstrap,
`reg_inc_beta` on 10^6 points next to scipy's `betainc`, and one 3F2 sum
at z = 1 with margin h = 0.5.  Each row is the median of `--repeats`
timings.  Run it alone on the machine: it is a timing script.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import run

BENCH = Path(__file__).resolve().parent


def wall(cmd) -> float:
    start = time.perf_counter()
    subprocess.run(cmd, env=run.child_env(), check=True, capture_output=True)
    return time.perf_counter() - start


def timed(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--repeats", type=int, default=5)
    args = ap.parse_args(argv)
    run.import_library()
    import numpy as np
    from scipy.special import betainc

    import ginicorr as g

    py, cli = sys.executable, [sys.executable, "-m", "ginicorr.cli"]
    s = g.sample(g.BVP2(delta=2.1, delta_y=0.5254), 1_000_000, 42)
    t = np.random.default_rng(0).random(1_000_000)
    spec = g.HypergeometricSpec((1.5, 2.0, 1.0), (3.0, 2.0), 1.0)
    readme = cli + ["corr", "--family", "bvp2", "--delta", "2.1", "--delta-y", "0.5254",
                    "--weight", "beta:2,2", "--method", "all", "-n", "200000"]
    rows = [
        ("import_ginicorr_s", lambda: wall([py, "-c", "import ginicorr"]), args.repeats),
        ("cli_version_cold_start_s", lambda: wall(cli + ["--version"]), args.repeats),
        ("cli_corr_closed_s", lambda: wall(cli + ["corr", "--family", "bvp1", "--delta", "5.87",
                                                  "--weight", "power:1", "--method", "closed"]),
         args.repeats),
        ("readme_corr_all_n200000_s", lambda: wall(readme), 1),
        ("empirical_cw_1e6_power1_s",
         lambda: timed(lambda: g.empirical_cw(s, g.WeightFunction.power(1), n_boot=0)), args.repeats),
        ("empirical_cw_1e6_beta22_s",
         lambda: timed(lambda: g.empirical_cw(s, g.WeightFunction.beta_cdf(2, 2), n_boot=0)),
         args.repeats),
        ("reg_inc_beta_1e6_s", lambda: timed(lambda: g.reg_inc_beta(t, 2.0, 2.0)), args.repeats),
        ("scipy_betainc_1e6_s", lambda: timed(lambda: betainc(2.0, 2.0, t)), args.repeats),
        ("hyp_pfq_3f2_h0.5_s", lambda: timed(lambda: g.hyp_pfq(spec)), args.repeats),
    ]
    out = {"env": run.environment(), "rows": {}}
    for name, fn, repeats in rows:
        values = [fn() for _ in range(repeats)]
        out["rows"][name] = {"median_s": statistics.median(values), "repeats": repeats,
                             "values_s": values}
        print(f"{name:28s} {statistics.median(values):9.4f} s  (median of {repeats})", flush=True)
    (BENCH / "baseline.json").write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
