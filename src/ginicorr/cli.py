"""Batch command-line surface.

Subcommands: corr, sample, curves, surface, price, verify.  Output is CSV
(with `# key=value` provenance comments) or JSON with a `meta` block; both
embed the seed, the parameters, and the package version, and identical
invocations are byte-identical.  Numbers are printed at 12 significant
digits.

Exit codes: 0 success, 1 numerical failure (non-convergence or a failed
verification), 2 usage or validation error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from dataclasses import fields

import numpy as np

from . import __version__, gini, oracle, verify, wipm
from ._csvrows import read_numeric_csv
from .distributions import (
    BVP1,
    BVP2,
    BVP3,
    PARETO_FAMILIES,
    EllipticalT,
    Normal,
    PairedSample,
    joint_ddf,
    pearson_closed_form,
    sample,
)
from .errors import (
    DegenerateSampleError,
    DomainError,
    GiniCorrError,
    MomentError,
    NoLinearRegressionError,
    UnsupportedPairError,
)
from .weights import WeightFunction

FAMILIES = {c.name: c for c in (Normal, EllipticalT, BVP1, BVP2, BVP3)}


def _fmt(x) -> str:
    return format(float(x), ".12g")


class CliError(Exception):
    """Usage/validation failure destined for exit code 2."""


# exit 2; every other GiniCorrError is a numerical failure, exit 1
_USAGE_ERRORS = (CliError, DomainError, MomentError, UnsupportedPairError,
                 NoLinearRegressionError, DegenerateSampleError)


# ---------------------------------------------------------------------------
# flag parsing helpers
# ---------------------------------------------------------------------------

def parse_weight(spec: str) -> WeightFunction:
    """Weight flag grammar: identity | power:G | beta:A,B | table:PATH."""
    name, _, rest = spec.partition(":")
    try:
        if name == "identity":
            return WeightFunction.identity()
        if name == "power":
            return WeightFunction.power(float(rest))
        if name == "beta":
            a, b = (float(v) for v in rest.split(","))
            return WeightFunction.beta_cdf(a, b)
        if name == "table":
            return WeightFunction.from_csv(rest)
    except (ValueError, OSError, DomainError) as exc:
        raise CliError(f"bad weight spec {spec!r}: {exc}") from exc
    raise CliError(
        f"unknown weight kind {name!r}; use identity, power:G, beta:A,B or table:PATH"
    )


def build_family(args):
    """Assemble a family from CLI flags; None when --family was not given.

    Each field comes from its flag; those after location and scale are required.
    """
    if args.family is None:
        return None
    cls = FAMILIES[args.family]
    names = [fl.name for fl in fields(cls)]
    missing = [n for n in names[4:] if getattr(args, n) is None]
    if missing:
        flags = " ".join("--" + m.replace("_", "-") for m in missing)
        raise CliError(f"family {args.family!r} needs {flags}")
    return cls(**{n: getattr(args, n) for n in names})


def _add_family_flags(p: argparse.ArgumentParser):
    p.add_argument("--family", choices=list(FAMILIES))
    # one flag per family field; all but location and scale default to None,
    # so build_family can tell which were given
    flags = {fl.name: fl.default if i < 4 else None
             for cls in FAMILIES.values() for i, fl in enumerate(fields(cls))}
    for name, default in flags.items():
        p.add_argument("--" + name.replace("_", "-"), dest=name, type=float,
                       default=default)


def _add_global_flags(p: argparse.ArgumentParser, default_format="csv"):
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--out", default="-", help="output path, or - for stdout")
    p.add_argument("--format", choices=["csv", "json"], default=default_format)


def load_pairs_csv(path) -> PairedSample:
    try:
        _, pairs = read_numeric_csv(path)
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}") from exc
    if pairs.shape[0] < 3 or pairs.shape[1] < 2:
        raise CliError(f"no (x, y) rows found in {path}")
    xs, ys = np.ascontiguousarray(pairs[:, :2].T)
    return PairedSample(xs, ys, {"source": str(path)})


# ---------------------------------------------------------------------------
# output plumbing
# ---------------------------------------------------------------------------

def _emit(text: str, out: str):
    if out == "-":
        sys.stdout.write(text)
    else:
        with open(out, "w") as fh:
            fh.write(text)


def _meta(args, **extra) -> dict:
    meta = {"version": __version__, "seed": args.seed}
    meta.update(extra)
    return meta


def _write_table(args, meta: dict, header, rows, key="results", **totals):
    """Emit rows of raw cells (floats, strings, None) as CSV or JSON.

    Floats are printed (or round-tripped, for JSON) at 12 significant
    digits; None becomes an empty CSV cell / JSON null.  JSON lists rows
    under `key` and adds `totals` at the top level; CSV omits the totals.
    """
    if args.format == "json":
        def enc(v):
            return float(_fmt(v)) if isinstance(v, float) else v

        payload = {"meta": meta,
                   key: [dict(zip(header, (enc(c) for c in row))) for row in rows],
                   **{name: enc(v) for name, v in totals.items()}}
        _emit(json.dumps(payload, indent=2, sort_keys=True) + "\n", args.out)
        return
    buf = io.StringIO()
    for k in sorted(meta):
        buf.write(f"# {k}={meta[k]}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([_cell(c) for c in row] for row in rows)
    _emit(buf.getvalue(), args.out)


def _cell(value):
    if value is None:
        return ""
    if isinstance(value, float):
        return _fmt(value)
    return value


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_corr(args) -> int:
    w = parse_weight(args.weight)
    fam = build_family(args)
    data = load_pairs_csv(args.data) if args.data else None
    if fam is None and data is None:
        raise CliError("corr needs --data PATH or --family flags")

    methods = [args.method] if args.method != "all" else \
        ["empirical", "closed", "regression", "oracle"]
    rows = []
    for method in methods:
        try:
            if method == "empirical":
                s = data if data is not None else sample(fam, args.n, args.seed)
                rep = gini.empirical_cw(s, w, n_boot=args.bootstrap, seed=args.seed)
            elif fam is None:
                if args.method == "all":
                    rows.append([method, None, None, w.describe(), "needs --family flags"])
                    continue
                raise CliError(f"--method {method} needs --family flags")
            elif method == "closed":
                rep = gini.closed_cw(fam, w)
            elif method == "regression":
                rep = gini.cw_via_regression(fam, w)
            else:
                mean, se = oracle.mc_reference(fam, "cw", args.n, args.seed,
                                               args.replications, weight=w)
                rep = gini.CorrelationReport(mean, "oracle", se, w.describe())
        except (UnsupportedPairError, NoLinearRegressionError) as exc:
            if args.method != "all":
                raise
            rows.append([method, None, None, w.describe(), f"unsupported: {exc}"])
            continue
        rows.append([rep.method, rep.value, rep.std_error, rep.weight, ""])

    meta = _meta(args, weight=w.describe(), n=args.n,
                 family=fam.describe() if fam else "", data=args.data or "")
    _write_table(args, meta, ["method", "value", "std_error", "weight", "note"],
                 rows)
    return 0


def cmd_sample(args) -> int:
    fam = build_family(args)
    if fam is None:
        raise CliError("sample needs --family flags")
    s = sample(fam, args.n, args.seed)
    # Python floats, not numpy scalars: "%.12g" % x is _fmt(x), at a
    # fraction of the cost per value
    xs, ys = s.xs.tolist(), s.ys.tolist()
    if args.format == "json":
        payload = {"meta": _meta(args, family=fam.describe(), n=args.n),
                   "x": [float("%.12g" % v) for v in xs],
                   "y": [float("%.12g" % v) for v in ys]}
        # no indent: indent=2 puts each number on its own line, and json.dumps
        # then takes nearly twice as long
        _emit(json.dumps(payload, sort_keys=True) + "\n", args.out)
        return 0
    head = (f"# version={__version__}\n# family={fam.describe()}\n"
            f"# n={args.n}\n# seed={args.seed}\nx,y\n")
    _emit(head + "".join(["%.12g,%.12g\n" % p for p in zip(xs, ys)]), args.out)
    return 0


def cmd_curves(args) -> int:
    if args.delta_y is None:
        raise CliError("curves needs --delta-y")
    if args.steps < 2 or not args.delta_max > args.delta_min:
        raise CliError("curves needs --delta-min < --delta-max and --steps >= 2")
    if args.delta_min <= 1.0:
        raise CliError("extended Gini needs delta > 1 across the sweep")
    deltas = np.linspace(args.delta_min, args.delta_max, args.steps)
    ginis, pearsons = [], []
    for d in deltas:
        fam = BVP2(delta=float(d), delta_y=args.delta_y)
        ginis.append(gini.closed_cw(fam, WeightFunction.power(args.gamma)).value)
        if d > 2.0 and fam.delta_y_star > 2.0:
            pearsons.append(pearson_closed_form(fam))
        else:
            pearsons.append(None)
    g = np.array(ginis)
    decreasing = bool(np.all(np.diff(g) < 0.0))
    finite_p = [p for p in pearsons if p is not None]
    interior_max = False
    if len(finite_p) >= 3:
        kmax = int(np.argmax(finite_p))
        interior_max = 0 < kmax < len(finite_p) - 1
    meta = _meta(args, delta_y=args.delta_y, gamma=args.gamma,
                 gini_strictly_decreasing=str(decreasing).lower(),
                 pearson_interior_max=str(interior_max).lower())
    rows = [[float(d), gv, pv] for d, gv, pv in zip(deltas, ginis, pearsons)]
    _write_table(args, meta, ["delta", "gini", "pearson"], rows)
    return 0


def cmd_surface(args) -> int:
    fam = build_family(args)
    if fam is None:
        raise CliError("surface needs --family flags")
    if args.x_steps < 2 or args.y_steps < 2:
        raise CliError("surface needs at least 2 steps per axis")
    if not (args.x_max > args.x_min and args.y_max > args.y_min):
        raise CliError("surface needs increasing axis ranges")
    if isinstance(fam, PARETO_FAMILIES):
        if args.x_min < fam.mu_x or args.y_min < fam.mu_y:
            raise CliError(
                f"grid below support: need x >= {fam.mu_x:g} and y >= {fam.mu_y:g}"
            )
    xs = np.linspace(args.x_min, args.x_max, args.x_steps)
    ys = np.linspace(args.y_min, args.y_max, args.y_steps)
    rows = []
    for x in xs:
        vals = joint_ddf(fam, np.full_like(ys, x), ys)
        rows.extend([float(x), float(y), float(v)] for y, v in zip(ys, vals))
    meta = _meta(args, family=fam.describe())
    _write_table(args, meta, ["x", "y", "ddf"], rows)
    return 0


def cmd_price(args) -> int:
    try:
        portfolio = wipm.Portfolio.from_csv(args.portfolio)
    except (OSError, DomainError, ValueError) as exc:
        raise CliError(f"cannot load portfolio: {exc}") from exc
    w = parse_weight(args.weight)
    meta = _meta(args, portfolio=str(args.portfolio), weight=w.describe(),
                 orientation=args.orientation)
    # S ranked once and w evaluated once, however many columns
    price = wipm.allocate if args.allocate else wipm._price_columns
    results = price(portfolio, w, args.orientation)
    header = ["column", "premium", "base", "loading"]
    rows = [[r.detail["column"], r.premium, r.base, r.loading] for r in results]
    if args.allocate:
        _write_table(args, meta, header, rows, key="allocations",
                     aggregate_premium=results[0].detail["aggregate_premium"],
                     allocation_sum=sum(r.premium for r in results))
    else:
        _write_table(args, meta, header, rows, key="premiums")
    return 0


def cmd_verify(args) -> int:
    results = verify.run(args.suite)  # argparse admits only known suites
    _emit(verify.format_table(results) + "\n", args.out)
    return 0 if all(r.passed for r in results) else 1


# ---------------------------------------------------------------------------
# parser / entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ginicorr",
        description="Weighted Gini correlations, bivariate Pareto families, "
                    "and Gini-type weighted insurance pricing.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("corr", help="correlation estimates from data or a family")
    p.add_argument("--data", help="CSV with columns x,y")
    _add_family_flags(p)
    p.add_argument("--weight", default="identity")
    p.add_argument("--method", default="closed",
                   choices=["empirical", "closed", "regression", "oracle", "all"])
    p.add_argument("-n", type=int, default=100_000,
                   help="sample size for empirical/oracle methods")
    p.add_argument("--replications", type=int, default=10)
    p.add_argument("--bootstrap", type=int, default=200,
                   help="bootstrap resamples for the empirical standard error "
                        "(0 disables, else at least 10)")
    _add_global_flags(p)
    p.set_defaults(fn=cmd_corr)

    p = sub.add_parser("sample", help="draw pairs from a family")
    _add_family_flags(p)
    p.add_argument("-n", type=int, default=1000)
    _add_global_flags(p)
    p.set_defaults(fn=cmd_sample)

    p = sub.add_parser("curves", help="extended Gini and Pearson vs delta (BVP2)")
    p.add_argument("--delta-min", dest="delta_min", type=float, default=2.05)
    p.add_argument("--delta-max", dest="delta_max", type=float, default=10.0)
    p.add_argument("--steps", type=int, default=60)
    p.add_argument("--delta-y", dest="delta_y", type=float, default=0.5254)
    p.add_argument("--gamma", type=float, default=1.0)
    _add_global_flags(p)
    p.set_defaults(fn=cmd_curves)

    p = sub.add_parser("surface", help="joint ddf values on a grid")
    _add_family_flags(p)
    p.add_argument("--x-min", dest="x_min", type=float, default=0.0)
    p.add_argument("--x-max", dest="x_max", type=float, default=5.0)
    p.add_argument("--x-steps", dest="x_steps", type=int, default=30)
    p.add_argument("--y-min", dest="y_min", type=float, default=0.0)
    p.add_argument("--y-max", dest="y_max", type=float, default=5.0)
    p.add_argument("--y-steps", dest="y_steps", type=int, default=30)
    _add_global_flags(p)
    p.set_defaults(fn=cmd_surface)

    p = sub.add_parser("price", help="Gini premiums / capital allocation for a portfolio CSV")
    p.add_argument("--portfolio", required=True)
    p.add_argument("--weight", default="identity")
    p.add_argument("--allocate", action="store_true",
                   help="price each column against the aggregate")
    p.add_argument("--orientation", choices=list(wipm.ORIENTATIONS), default="survival")
    _add_global_flags(p, default_format="json")
    p.set_defaults(fn=cmd_price)

    p = sub.add_parser("verify", help="run the self-verification suites")
    p.add_argument("suite", choices=list(verify.SUITES) + ["all"])
    _add_global_flags(p)
    p.set_defaults(fn=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except _USAGE_ERRORS as exc:
        # the library's suggestion names library routes; these two CLI
        # methods serve every (family, weight) pair
        hint = (" (try: --method empirical or --method oracle)"
                if isinstance(exc, UnsupportedPairError) else "")
        print(f"error: {exc}{hint}", file=sys.stderr)
        return 2
    except GiniCorrError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
