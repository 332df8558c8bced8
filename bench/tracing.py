"""Spans around the calls into each ginicorr layer, recorded from outside.

`instrument(recorder)` rebinds, for the duration of a `with` block, every
name under which a ginicorr module holds one of the layer entry points
listed in LAYERS (and the scipy `rankdata` / `integrate.quad` that `gini`,
`wipm` and `oracle` call), to a wrapper that opens a span.  The library
itself is not edited; untraced runs never enter this module.  An entry
point that a later version of the library no longer has is skipped: it
records no spans, so run.py lists its metrics as not applicable.

A span is [name, start, end, parent index, task id, attrs]; spans stay in
memory and are written out when the run ends.  A span's self time is its
duration minus the part of its interval that its child spans cover.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time

import numpy as np

NAME, START, END, PARENT, TASK, ATTRS = range(6)


def _size(x):
    return int(np.size(x))


def _n_arg(args, kwargs):
    return int(kwargs["n"] if "n" in kwargs else args[1])


def _sample_n(args, kwargs):
    s = kwargs.get("s", args[0] if args else None)
    return {"n": int(s.n)} if hasattr(s, "n") else {}


# (span name, module, attribute, attrs from the call arguments); each is
# rebound in every ginicorr namespace that holds it
LAYERS = [
    ("specfun.hyp_pfq", "specfun", "hyp_pfq", None),
    ("specfun.reg_inc_beta", "specfun", "reg_inc_beta",
     lambda a, k: {"points": _size(a[0])}),
    ("distributions.sample", "distributions", "sample",
     lambda a, k: {"pairs": _n_arg(a, k)}),
    ("distributions.sample", "distributions", "sample_chunked",
     lambda a, k: {"pairs": _n_arg(a, k)}),
    ("gini.empirical_cw", "gini", "empirical_cw", _sample_n),
    ("gini.bootstrap", "gini", "_bootstrap_se",
     lambda a, k: {"resamples": int(k.get("n_boot", a[3]))}),
    ("gini.closed_cw", "gini", "closed_cw", None),
    ("gini.cw_via_regression", "gini", "cw_via_regression", None),
    ("gini.lambda_w_empirical", "gini", "lambda_w_empirical",
     lambda a, k: {"n": _size(a[0])}),
    ("wipm.gini_premium", "wipm", "gini_premium", _sample_n),
    ("wipm.gini_wipm_rhs", "wipm", "gini_wipm_rhs", _sample_n),
    ("wipm.allocate", "wipm", "allocate",
     lambda a, k: {"n": int(a[0].columns.shape[0])}),
    ("oracle.quad2_bvp3_moment", "oracle", "quad2_bvp3_moment", None),
    ("oracle.mc_reference", "oracle", "mc_reference", None),
]

# Top-level estimator spans over which rank passes are counted.
RANK_ESTIMATORS = ("gini.empirical_cw", "gini.lambda_w_empirical",
                   "wipm.gini_premium", "wipm.gini_wipm_rhs", "wipm.allocate")


class Recorder:
    """In-memory span list with a stack of open spans (one thread)."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.task = None

    def open(self, name, attrs=None):
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.task,
                           attrs or {}])
        self.stack.append(idx)
        return idx

    def close(self, idx):
        self.spans[idx][END] = time.perf_counter()
        self.stack.pop()

    def wrap(self, name, fn, attrs_fn=None):
        rec = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = rec.open(name, attrs_fn(args, kwargs) if attrs_fn else None)
            try:
                return fn(*args, **kwargs)
            except BaseException:
                rec.spans[idx][ATTRS]["failed"] = 1
                raise
            finally:
                rec.close(idx)

        return traced

    def dump(self, path, **extra):
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, **extra}, fh)


class _QuadProxy:
    """Stands in for `scipy.integrate` inside ginicorr.oracle.

    `quad` opens a span and counts integrand evaluations (neval, nested
    inner integrals included); every other attribute is scipy's own.
    """

    def __init__(self, rec, integrate):
        self._integrate = integrate
        quad = integrate.quad

        @functools.wraps(quad)
        def traced_quad(func, *args, **kwargs):
            idx = rec.open("oracle.quad", {"neval": 0})
            attrs = rec.spans[idx][ATTRS]

            def counted(*a):
                attrs["neval"] += 1
                return func(*a)

            try:
                return quad(counted, *args, **kwargs)
            except BaseException:
                attrs["failed"] = 1
                raise
            finally:
                rec.close(idx)

        self.quad = traced_quad

    def __getattr__(self, name):
        return getattr(self._integrate, name)


def _point_attrs(args, kwargs):
    """Attributes of a method called on one point or an array of points."""
    t = args[1]
    return {"points": _size(t), "scalar_calls": int(np.ndim(t) == 0)}


@contextlib.contextmanager
def instrument(rec: Recorder):
    """Rebind the layer entry points to span-opening wrappers, then restore."""
    import importlib

    import scipy.integrate
    import scipy.stats

    import ginicorr

    mods = {name: importlib.import_module(f"ginicorr.{name}")
            for name in ("specfun", "weights", "distributions", "gini", "wipm",
                         "oracle", "verify", "cli")}
    everywhere = [ginicorr, *mods.values()]
    saved = []  # (namespace, attribute, original)

    def rebind(original, wrapper, namespaces):
        for ns in namespaces:
            for attr, val in list(vars(ns).items()):
                if val is original:
                    saved.append((ns, attr, original))
                    setattr(ns, attr, wrapper)

    for span, mod, attr, attrs_fn in LAYERS:
        original = getattr(mods[mod], attr, None)
        if original is not None:
            rebind(original, rec.wrap(span, original, attrs_fn), everywhere)
    # ranking is counted where gini and wipm call scipy's rankdata
    rebind(scipy.stats.rankdata,
           rec.wrap("gini.rank", scipy.stats.rankdata,
                    lambda a, k: {"points": _size(a[0])}),
           [mods["gini"], mods["wipm"]])
    rebind(scipy.integrate, _QuadProxy(rec, scipy.integrate), [mods["oracle"]])
    # mc_reference draws through the sampling kernel, not `sample`; rebinding
    # it only in oracle keeps `sample` from counting its pairs twice
    draw = getattr(mods["distributions"], "_draw", None)
    if draw is not None:
        rebind(draw, rec.wrap("distributions.sample", draw,
                              lambda a, k: {"pairs": _n_arg(a, k)}), [mods["oracle"]])
    methods = [(getattr(mods["weights"], "WeightFunction", None), "__call__", "weights.eval")]
    for cls in ("ParetoIIMargin", "NormalMargin", "StudentTMargin"):
        methods.append((getattr(mods["distributions"], cls, None), "quantile",
                        "distributions.quantile"))
    for cls, attr, span in methods:
        original = vars(cls).get(attr) if cls is not None else None
        if original is not None:
            saved.append((cls, attr, original))
            setattr(cls, attr, rec.wrap(span, original, _point_attrs))
    try:
        yield rec
    finally:
        for ns, attr, original in reversed(saved):
            setattr(ns, attr, original)


# ---------------------------------------------------------------------------
# span arithmetic
# ---------------------------------------------------------------------------

def self_times(spans) -> list:
    """Duration of each span minus the union of its children's intervals."""
    children = [[] for _ in spans]
    for i, sp in enumerate(spans):
        if sp[PARENT] >= 0:
            children[sp[PARENT]].append(i)
    out = []
    for i, sp in enumerate(spans):
        covered, cur_lo, cur_hi = 0.0, None, None
        for lo, hi in sorted((spans[c][START], spans[c][END]) for c in children[i]):
            lo, hi = max(lo, sp[START]), min(hi, sp[END])
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += max(cur_hi - cur_lo, 0.0)
        out.append(sp[END] - sp[START] - covered)
    return out


def layer_totals(spans) -> dict:
    """Per span name: calls, self_s, failed and the summed count attributes."""
    totals = {}
    for sp, self_s in zip(spans, self_times(spans)):
        t = totals.setdefault(sp[NAME], {"calls": 0, "self_s": 0.0, "failed": 0})
        t["calls"] += 1
        t["self_s"] += self_s
        for key, val in sp[ATTRS].items():
            if key != "n":
                t[key] = t.get(key, 0) + val
    return totals


def rank_passes(spans) -> tuple:
    """(points ranked, sample points) summed over outermost rank estimators.

    Their ratio is the number of full ranking passes per estimate: 2 is the
    floor for a correlation (one pass per margin).
    """
    outer = {}
    for i, sp in enumerate(spans):
        if sp[NAME] in RANK_ESTIMATORS:
            j, top = sp[PARENT], i
            while j >= 0:
                if spans[j][NAME] in RANK_ESTIMATORS:
                    top = j
                j = spans[j][PARENT]
            outer.setdefault(top, 0)
    for i, sp in enumerate(spans):
        if sp[NAME] != "gini.rank":
            continue
        j = sp[PARENT]
        top = None
        while j >= 0:
            if j in outer:
                top = j
            j = spans[j][PARENT]
        if top is not None:
            outer[top] += sp[ATTRS]["points"]
    ranked = sum(outer.values())
    n = sum(spans[i][ATTRS].get("n", 0) for i in outer)
    return ranked, n
