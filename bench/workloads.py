"""The four benchmark workloads.

Each workload draws every input from its seed, then hands the library
only generated arrays, parameter values and files.  A cycle is a fixed
list of tasks; run.py repeats whole cycles, so every run
measures the same mix of tasks whatever its length.  Each task carries the
check that compares its answer with reference.py after the timed loop.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

import reference as ref
from reference import CheckFailed, expect_close

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"

TABLE = ("table", (0.0, 0.3, 0.7, 1.0), (0.0, 0.2, 0.6, 1.0))
BETA22 = ("beta", 2.0, 2.0)


@dataclass
class Task:
    key: str
    run: Callable[[], Any]
    check: Callable[[Any], None]
    # True only for a task that holds a known defect: its typed library
    # error then counts as failed, not as wrong
    may_fail: bool = False


def child_env():
    """Environment of a child interpreter that imports this checkout's ginicorr."""
    return dict(os.environ, PYTHONPATH=str(SRC))


def make_weight(spec):
    from ginicorr import WeightFunction

    if spec[0] == "power":
        return WeightFunction.power(spec[1])
    if spec[0] == "beta":
        return WeightFunction.beta_cdf(spec[1], spec[2])
    return WeightFunction.table(spec[1], spec[2])


def make_family(fam):
    """ginicorr family from (kind, *parameters), as the workloads list them."""
    from ginicorr import BVP1, BVP2, BVP3, EllipticalT, Normal

    kind, p = fam[0], fam[1:]
    if kind == "normal":
        return Normal(rho=p[0])
    if kind == "t":
        return EllipticalT(sigma_xy=p[0], nu=p[1])
    if kind == "bvp1":
        return BVP1(delta=p[0])
    if kind == "bvp2":
        return BVP2(delta=p[0], delta_y=p[1])
    return BVP3(delta=p[0], delta_x=p[1], delta_y=p[2])


def spec_name(spec) -> str:
    if spec[0] == "table":
        return "table"
    return f"{spec[0]}:" + ",".join(f"{v:g}" for v in spec[1:])


def _seeds(seed: int, k: int) -> list:
    return [int(s.generate_state(1)[0]) for s in np.random.SeedSequence(seed).spawn(k)]


class Workload:
    name = ""
    in_process = True

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self._refs = {}

    def setup(self):
        """Build the inputs; everything a task needs before it can start."""

    def tasks(self, cycle: int, traced: bool) -> list:
        raise NotImplementedError

    def cached(self, key, fn):
        if key not in self._refs:
            self._refs[key] = fn()
        return self._refs[key]

    def describe(self) -> dict:
        return {}

    def close(self):
        shutil.rmtree(self.workdir, ignore_errors=True)


# ---------------------------------------------------------------------------
# bootstrap
# ---------------------------------------------------------------------------

class Bootstrap(Workload):
    """empirical_cw with its default 200 resamples, and empirical_pearson."""

    name = "bootstrap"

    # (label, family, n, decimals kept when rounding to create ties, weights).
    # A task is one data set: its weighted Gini estimates and its Pearson
    # correlation, each with a 200-resample bootstrap SE.  Every task thus
    # lasts 0.5 s or more; shorter ones time mostly this host's jitter.
    SAMPLES = [
        ("bvp2-50k", ("bvp2", 2.1, 0.5254), 50_000, None, [("power", 1.0)]),
        ("bvp2-20k", ("bvp2", 2.1, 0.5254), 20_000, None, [("beta", 2.0, 2.0)]),
        ("bvp3-10k-tied", ("bvp3", 1.5, 1.5, 1.0), 10_000, 1, [("power", 2.0)]),
        ("normal-5k-tied", ("normal", 0.5), 5_000, 1, [("beta", 2.0, 2.0), ("power", 1.0)]),
        ("bvp3-1k", ("bvp3", 1.5, 1.5, 1.0), 1_000, None,
         [("power", 1.0), ("power", 2.0), ("beta", 2.0, 2.0)]),
    ]

    def setup(self):
        from ginicorr import PairedSample, sample

        self.samples = {}
        for (label, fam, n, decimals, specs), seed in zip(self.SAMPLES,
                                                          _seeds(self.seed, len(self.SAMPLES))):
            smp = sample(make_family(fam), n, seed)
            if decimals is not None:
                smp = PairedSample(np.round(smp.xs, decimals), np.round(smp.ys, decimals))
            self.samples[label] = (smp, [(spec, make_weight(spec)) for spec in specs])

    def describe(self):
        return {label: {"n": s.n, "tied_share_x": 1.0 - np.unique(s.xs).size / s.n,
                        "tied_share_y": 1.0 - np.unique(s.ys).size / s.n}
                for label, (s, _) in self.samples.items()}

    def tasks(self, cycle, traced):
        return [Task(f"sample/{label}", lambda label=label: self._run(label),
                     lambda out, label=label: self._check(out, label))
                for label in self.samples]

    def _run(self, label):
        from ginicorr import empirical_cw, empirical_pearson

        s, weights = self.samples[label]
        out = {spec: empirical_cw(s, w) for spec, w in weights}
        out[None] = empirical_pearson(s)
        return out

    def _check(self, out, label):
        s, _ = self.samples[label]
        ref_seed = _seeds(self.seed + 1, 1)[0]
        for spec, rep in out.items():
            w = ref.weight_fn(spec) if spec else None

            def compute():
                value = ref.RankReference(s.xs, s.ys, w).cw() if w else ref.pearson(s.xs, s.ys)
                return value, ref.bootstrap_se(s.xs, s.ys, w, ref_seed)

            value, se = self.cached((label, spec), compute)
            what = f"{label} {spec_name(spec) if spec else 'pearson'}"
            expect_close(f"{what} value", rep.value, value, rtol=ref.RANK_RTOL, atol=1e-12)
            ref.check_se(what, rep.std_error, se)


# ---------------------------------------------------------------------------
# pricing
# ---------------------------------------------------------------------------

class Pricing(Workload):
    """Large-sample premiums and allocation, no bootstrap, no beta weight."""

    name = "pricing"

    N = 1_000_000
    MC_N, MC_REPS = 10_000, 10
    CASES = [
        ("bvp2-power1", ("bvp2", 2.1, 0.5254), ("power", 1.0)),
        ("bvp1-table", ("bvp1", 3.0), TABLE),
    ]

    def setup(self):
        seeds = _seeds(self.seed, 2 * len(self.CASES))
        self.cases = []
        for i, (label, fam, spec) in enumerate(self.CASES):
            f = make_family(fam)
            # third portfolio column: an independent Pareto(2.5) loss
            z = np.random.default_rng(seeds[2 * i + 1]).pareto(2.5, self.N)
            self.cases.append((label, fam, spec, f, make_weight(spec), seeds[2 * i], z))

    def tasks(self, cycle, traced):
        return [Task(f"price/{c[0]}", lambda c=c: self._run(c), lambda out, c=c: self._check(out, c))
                for c in self.cases]

    def _run(self, case):
        from ginicorr import (Portfolio, allocate, empirical_cw, gini_premium,
                              gini_wipm_rhs, lambda_w_empirical, mc_reference, sample)

        _, _, _, f, w, seed, z = case
        s = sample(f, self.N, seed)
        port = Portfolio(("x", "y", "z"), np.column_stack([s.xs, s.ys, z]))
        return {
            "cw": empirical_cw(s, w, n_boot=0).value,
            "premium": gini_premium(s, w).premium,
            "wipm_rhs": gini_wipm_rhs(s, w).premium,
            "lambda": lambda_w_empirical(s.xs, w),
            "allocation": [a.premium for a in allocate(port, w)],
            "mc": mc_reference(f, "cw", self.MC_N, seed, self.MC_REPS, weight=w),
        }

    def _reference(self, case):
        from ginicorr import sample

        label, fam, spec, f, _, seed, z = case
        s = sample(f, self.N, seed)  # deterministic: the same arrays the task saw
        w = ref.weight_fn(spec)
        if fam[0] == "bvp1":
            pop, dx, dy = 1.0 / fam[1], fam[1], fam[1]
        elif fam[0] == "bvp2":
            pop, dx, dy = ref.bvp2_power(fam[1], fam[1] + fam[2], spec[1]), fam[1], fam[1] + fam[2]
        else:
            pop, dx, dy = ref.bvp3_cw(*fam[1:], spec[1]), fam[1] + fam[2], fam[1] + fam[3]
        ref.check_margin_ddf(f"{label} sampled x", s.xs, dx)
        ref.check_margin_ddf(f"{label} sampled y", s.ys, dy)
        r = ref.RankReference(s.xs, s.ys, w)
        wv = w(1.0 - ref.rank_u(s.xs + s.ys + z))
        return {"pop": pop, "cw": r.cw(), "premium": r.premium(), "wipm_rhs": r.wipm_rhs(),
                "lambda": r.lambda_w(),
                "allocation": [float(c @ wv / wv.sum()) for c in (s.xs, s.ys, z)]}

    def _check(self, out, case):
        r = self.cached(case[0], lambda: self._reference(case))
        for key in ("cw", "premium", "wipm_rhs", "lambda"):
            expect_close(f"{case[0]} {key}", out[key], r[key], rtol=ref.RANK_RTOL, atol=1e-12)
        for j, (got, want) in enumerate(zip(out["allocation"], r["allocation"])):
            expect_close(f"{case[0]} allocation[{j}]", got, want, rtol=ref.RANK_RTOL)
        # n = 1e6 rank estimate against the population value: ~10 sampling SDs
        expect_close(f"{case[0]} cw vs population", out["cw"], r["pop"], atol=0.02)
        mean, se = out["mc"]
        expect_close(f"{case[0]} mc_reference", mean, r["pop"], atol=6.0 * se + 0.01)


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------

class ClosedForms(Workload):
    """Parameter sweep through every deterministic route that applies."""

    name = "closed_forms"

    # (label, family, weights, run the 2-d oracle).  A task sweeps one group
    # of GROUPS, each point under each of its weights; groups take 1.3-1.8 s,
    # as sub-second tasks time mostly this host's jitter.  The parameters
    # listed in JITTERED move by up to 0.5% per seed.  For BVP3 only delta_y moves, so delta_x* stays
    # above 1 and each corner point keeps its margin h (0.13, 0.25, 0.35)
    # within +-0.002.  Larger jitter changed the series and quadrature work
    # enough to widen the run-to-run spread.
    POINTS = [
        ("normal", ("normal", 0.5), [("power", 2.0), BETA22], False),
        ("t3", ("t", 0.4, 3.0), [BETA22], False),
        ("t1.5", ("t", 0.6, 1.5), [("power", 1.0)], False),
        ("bvp1", ("bvp1", 5.87), [TABLE, BETA22, ("power", 2.0)], False),
        ("bvp2-readme", ("bvp2", 2.1, 0.5254), [("power", 1.0), BETA22, TABLE], False),
        ("bvp2-heavy", ("bvp2", 1.3, 0.4), [("power", 2.0), ("beta", 0.5, 3.0)], False),
        ("bvp3-ref", ("bvp3", 1.5, 1.5, 1.0), [("power", 1.0), ("power", 2.0)], True),
        ("bvp3-light", ("bvp3", 1.2, 0.3, 0.2), [("power", 0.5)], True),
        ("bvp3-h0.5", ("bvp3", 0.8, 0.4, 0.2), [("power", 0.1)], False),
        ("bvp3-corner-h0.13", ("bvp3", 1.0, 0.02, 0.01), [("power", 0.1)], False),
        ("bvp3-corner-h0.25", ("bvp3", 0.9, 0.2, 0.1), [("power", 0.05)], False),
        ("bvp3-corner-h0.35", ("bvp3", 0.9, 0.3, 0.1), [("power", 0.05)], False),
    ]

    GROUPS = {
        "normal": ("normal",),
        "t": ("t3", "t1.5"),
        "bvp1-2": ("bvp1", "bvp2-readme", "bvp2-heavy"),
        "bvp3": ("bvp3-ref", "bvp3-light", "bvp3-h0.5"),
        "bvp3-corner": ("bvp3-corner-h0.13", "bvp3-corner-h0.25", "bvp3-corner-h0.35"),
    }
    JITTERED = {"normal": (0,), "t": (0,), "bvp1": (0,), "bvp2": (0, 1), "bvp3": (2,)}
    # (point, route) pairs that raise a typed error at this commit: the 3F2
    # series of closed_cw hits its cap in the heavy-tail corner.  They stay
    # in the sweep and count as failed.  Any other raised route is a wrong
    # answer; a listed route that returns is checked like every other.
    KNOWN_FAILURES = {("bvp3-corner-h0.13", "closed"), ("bvp3-corner-h0.25", "closed"),
                      ("bvp3-corner-h0.35", "closed")}

    def setup(self):
        rng = np.random.default_rng(self.seed)
        self.points = []
        for label, fam, specs, oracle in self.POINTS:
            params = list(fam[1:])
            for i in self.JITTERED[fam[0]]:
                params[i] *= 1.0 + rng.uniform(-0.005, 0.005)
            self.points.append((label, (fam[0], *params), specs, oracle))

    def describe(self):
        return {label: {"family": list(fam), "weights": [spec_name(s) for s in specs]}
                for label, fam, specs, _ in self.points}

    def tasks(self, cycle, traced):
        out = []
        for group, labels in self.GROUPS.items():
            points = [p for p in self.points if p[0] in labels]
            if points:
                may_fail = any(label == p[0] for label, _ in self.KNOWN_FAILURES
                               for p in points)
                out.append(Task(f"group/{group}",
                                lambda points=points: {p[0]: self._run(p) for p in points},
                                lambda out, points=points: self._check(out, points),
                                may_fail))
        return out

    def _routes(self, fam, spec, oracle):
        from ginicorr import (closed_cw, cw_via_regression, gini_wipm_rhs,
                              lambda_w_margin, margins, quad2_bvp3_moment)

        f, w = make_family(fam), make_weight(spec)
        routes = []
        if not (fam[0] == "bvp2" and spec[0] == "table"):
            routes.append(("closed", lambda: closed_cw(f, w).value))
        if fam[0] != "bvp3":
            routes.append(("regression", lambda: cw_via_regression(f, w).value))
            routes.append(("wipm", lambda: gini_wipm_rhs(f, w).premium))
        routes.append(("lambda", lambda: lambda_w_margin(margins(f)[0], w)))
        if oracle:
            routes.append(("oracle", lambda: quad2_bvp3_moment(f, spec[1])))
        return routes

    def _run(self, point):
        from ginicorr import GiniCorrError

        _, fam, specs, oracle = point
        out = {}
        for spec in specs:
            for route, fn in self._routes(fam, spec, oracle):
                try:
                    out[spec, route] = fn()
                except GiniCorrError as exc:
                    out[spec, route] = exc
        return out

    @staticmethod
    def _reference(fam, spec):
        kind, p = fam[0], fam[1:]
        if kind == "normal":
            mx, my = ("normal", 0.0, 1.0), ("normal", 0.0, 1.0)
            cw, beta, ex = p[0], p[0], 0.0
        elif kind == "t":
            mx, my = ("t", 0.0, 1.0, p[1]), ("t", 0.0, 1.0, p[1])
            cw, beta, ex = p[0], p[0], 0.0
        elif kind == "bvp1":
            mx = my = ("pareto", 0.0, 1.0, p[0])
            cw, beta, ex = 1.0 / p[0], 1.0 / p[0], 1.0 / (p[0] - 1.0)
        elif kind == "bvp2":
            dys = p[0] + p[1]
            mx, my = ("pareto", 0.0, 1.0, p[0]), ("pareto", 0.0, 1.0, dys)
            beta, ex = (dys - 1.0) / (dys * (p[0] - 1.0)), 1.0 / (p[0] - 1.0)
            if spec[0] == "power":
                cw = ref.bvp2_power(p[0], dys, spec[1])
            elif spec[0] == "beta":
                cw = ref.bvp2_beta(p[0], dys, spec[1], spec[2])
            else:
                cw = beta * ref.cov_margin(my, spec) / ref.cov_margin(mx, spec)
        else:
            mx = ("pareto", 0.0, 1.0, p[0] + p[1])
            cw = ref.bvp3_cw(p[0], p[1], p[2], spec[1])
            return {"closed": cw, "oracle": cw, "lambda": ref.lambda_margin(mx, spec)}
        wipm = ex + beta * ref.cov_margin(my, spec) / ref.mean_weight(spec)
        return {"closed": cw, "regression": cw, "wipm": wipm,
                "lambda": ref.lambda_margin(mx, spec)}

    def _check(self, out, points):
        """Check every returned value, then re-raise the first known failure."""
        raised = None
        for label, fam, _, _ in points:
            for (spec, route), got in out[label].items():
                if isinstance(got, Exception):
                    if (label, route) not in self.KNOWN_FAILURES:
                        raise CheckFailed(f"{label} {spec_name(spec)} {route} raised "
                                          f"{type(got).__name__}: {got}")
                    raised = raised or got
                    continue
                want = self.cached((label, spec), lambda: self._reference(fam, spec))
                atol = ref.ORACLE_ATOL if route == "oracle" else ref.CLOSED_ATOL
                expect_close(f"{label} {spec_name(spec)} {route}", got, want[route],
                             rtol=atol, atol=atol)
        if raised is not None:
            raise raised


# ---------------------------------------------------------------------------
# cli batch
# ---------------------------------------------------------------------------

class CliBatch(Workload):
    """The README commands, each in a fresh `ginicorr` process."""

    name = "cli_batch"
    in_process = False

    def setup(self):
        rng = np.random.default_rng(self.seed)
        j = 1.0 + rng.uniform(-0.02, 0.02, 4)
        self.delta1 = round(5.87 * j[0], 4)
        self.bvp3 = (round(1.5 * j[1], 4), 1.5, 1.0)
        self.delta_y = round(0.5254 * j[2], 4)
        self.sample_seed = int(rng.integers(1, 2**31))
        self.sample_n = 100_000
        losses = rng.pareto(2.5, (2_000, 3)) * np.array([1.0, 2.0, 0.5]) * j[3]
        self.losses = losses
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.losses_path = self.workdir / "losses.csv"
        np.savetxt(self.losses_path, losses, fmt="%.17g", delimiter=",",
                   header="motor,property,liability", comments="")

    def describe(self):
        return {"delta_bvp1": self.delta1, "bvp3": self.bvp3, "delta_y": self.delta_y,
                "sample_n": self.sample_n, "portfolio_rows": self.losses.shape[0]}

    def commands(self, cycle):
        pairs = self.workdir / f"pairs-c{cycle}.csv"
        d, dx, dy = self.bvp3
        return [
            ("corr-closed", ["corr", "--family", "bvp1", "--delta", f"{self.delta1}",
                             "--weight", "power:1", "--method", "closed"]),
            ("sample", ["sample", "--family", "bvp3", "--delta", f"{d}", "--delta-x", f"{dx}",
                        "--delta-y", f"{dy}", "-n", str(self.sample_n),
                        "--seed", str(self.sample_seed), "--out", str(pairs)]),
            ("corr-data", ["corr", "--data", str(pairs), "--weight", "power:2",
                           "--method", "empirical", "--bootstrap", "0"]),
            ("curves", ["curves", "--delta-min", "2.05", "--delta-max", "10",
                        "--steps", "80", "--delta-y", f"{self.delta_y}"]),
            ("surface", ["surface", "--family", "bvp2", "--delta", "2.1", "--delta-y",
                         f"{self.delta_y}", "--x-max", "4", "--y-max", "4"]),
            ("price", ["price", "--portfolio", str(self.losses_path), "--weight", "power:1",
                       "--allocate"]),
            ("verify", ["verify", "all"]),
        ]

    def tasks(self, cycle, traced):
        return [Task(f"cli/{key}", lambda argv=argv, key=key: self._run(argv, key, cycle, traced),
                     lambda out, key=key, argv=argv: self._check(out, key, argv))
                for key, argv in self.commands(cycle)]

    def _run(self, argv, key, cycle, traced):
        stem = self.workdir / f"{key}-c{cycle}"
        span_file = stem.with_suffix(".spans.json")
        if traced:
            cmd = [sys.executable, str(BENCH / "cli_child.py"), str(span_file), *argv]
        else:
            cmd = [sys.executable, "-m", "ginicorr.cli", *argv]
        with open(stem.with_suffix(".out"), "w+") as out, open(stem.with_suffix(".err"), "w+") as err:
            proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=child_env())
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
            out.seek(0)
            err.seek(0)
            result = {"code": proc.returncode, "stdout": out.read(), "stderr": err.read(),
                      "rss_kb": usage.ru_maxrss}
        if traced and span_file.exists():
            result.update(json.loads(span_file.read_text()))
        return result

    def _check(self, out, key, argv):
        if out["code"] != 0:
            raise CheckFailed(f"{key}: exit code {out['code']}: {out['stderr'][-300:]}")
        text = out["stdout"]
        if key == "verify":
            last = text.strip().splitlines()[-1]
            passed, _, total = last.split()[0].partition("/")
            if passed != total:
                raise CheckFailed(f"verify: {last}")
            return
        if key == "price":
            payload = json.loads(text)
            agg = self.losses.sum(axis=1)
            wv = ref.weight_fn(("power", 1.0))(1.0 - ref.rank_u(agg))
            for col, alloc in zip(self.losses.T, payload["allocations"]):
                expect_close(f"price {alloc['column']}", alloc["premium"],
                             col @ wv / wv.sum(), rtol=ref.CLI_RTOL)
            expect_close("price aggregate", payload["aggregate_premium"],
                         agg @ wv / wv.sum(), rtol=ref.CLI_RTOL)
            return
        if key == "sample":
            path = Path(argv[argv.index("--out") + 1])
            xs, ys = self._pairs(path)
            if xs.size != self.sample_n:
                raise CheckFailed(f"sample: {xs.size} rows, want {self.sample_n}")
            d, dx, dy = self.bvp3
            ref.check_margin_ddf("cli sample x", xs, d + dx)
            ref.check_margin_ddf("cli sample y", ys, d + dy)
            return
        rows = [r for r in text.splitlines() if r and not r.startswith("#")][1:]
        cells = [r.split(",") for r in rows]
        if key == "corr-closed":
            expect_close("corr closed", float(cells[0][1]), 1.0 / self.delta1, rtol=ref.CLI_RTOL)
        elif key == "corr-data":
            path = Path(argv[argv.index("--data") + 1])
            want = self.cached(("corr-data", str(path)), lambda: ref.RankReference(
                *self._pairs(path), ref.weight_fn(("power", 2.0))).cw())
            expect_close("corr data", float(cells[0][1]), want, rtol=ref.RANK_RTOL)
        elif key == "curves":
            if len(cells) != 80:
                raise CheckFailed(f"curves: {len(cells)} rows, want 80")
            for d_s, g_s, p_s in cells:
                d, dys = float(d_s), float(d_s) + self.delta_y
                expect_close(f"curves gini at {d_s}", float(g_s), ref.bvp2_power(d, dys, 1.0),
                             rtol=ref.CLI_RTOL)
                if d > 2.0 and dys > 2.0:
                    want = math.sqrt((d - 2.0) / (d * dys * (dys - 2.0)))
                    expect_close(f"curves pearson at {d_s}", float(p_s), want, rtol=ref.CLI_RTOL)
                elif p_s:
                    raise CheckFailed(f"curves: Pearson {p_s} where it does not exist")
        elif key == "surface":
            if len(cells) != 900:
                raise CheckFailed(f"surface: {len(cells)} rows, want 900")
            for x_s, y_s, v_s in cells:
                x, y = float(x_s), float(y_s)
                want = (1.0 + x + y) ** -2.1 * (1.0 + y) ** -self.delta_y
                expect_close(f"surface at ({x_s}, {y_s})", float(v_s), want,
                             rtol=ref.CLI_RTOL, atol=1e-15)

    @staticmethod
    def _pairs(path: Path):
        with open(path) as fh:
            lines = [ln for ln in fh if not ln.startswith("#")]
        data = np.loadtxt(lines[1:], delimiter=",", ndmin=2)
        return data[:, 0], data[:, 1]

WORKLOADS = {w.name: w for w in (Bootstrap, Pricing, ClosedForms, CliBatch)}

