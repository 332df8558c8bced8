"""Self-tests of the benchmark harness.

    python3 -m pytest bench/test_harness.py -q

They check that a wrong answer is counted as failed (and makes the run
incorrect), that a typed library error is counted as failed but not as
incorrect only where a workload lists it as a known defect, that the tail
keeps its meaning when more cycles run, that the span arithmetic holds on a
synthetic tree, that tracing survives a missing entry point, and that the
independent references agree with textbook definitions.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

run.import_library()

import reference as ref  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _closed_forms(tmp_path, points):
    wl = workloads.ClosedForms(7, tmp_path)
    wl.POINTS = [p for p in workloads.ClosedForms.POINTS if p[0] in points]
    wl.setup()
    return wl


def test_correct_answers_pass_and_typed_errors_count_as_failed(tmp_path):
    wl = _closed_forms(tmp_path, {"bvp2-readme", "bvp3-corner-h0.13"})
    m = run.measure(wl, 0.0, max_cycles=1)
    run.classify(m.outcomes)
    status = {o.key: o.status for o in m.outcomes}
    assert status == {"group/bvp1-2": "ok", "group/bvp3-corner": "raised"}


def test_unlisted_typed_error_is_wrong(tmp_path, monkeypatch):
    import ginicorr

    def capped(f, w):
        raise ginicorr.SeriesCapError("series cap reached", 0.0, 1.0, 10)

    monkeypatch.setattr(ginicorr, "closed_cw", capped)
    wl = _closed_forms(tmp_path, {"bvp2-readme", "bvp3-corner-h0.13"})
    m = run.measure(wl, 0.0, max_cycles=1)
    run.classify(m.outcomes)
    status = {o.key: o.status for o in m.outcomes}
    # the corner lists closed_cw as a known defect; BVP2 does not
    assert status == {"group/bvp1-2": "wrong", "group/bvp3-corner": "raised"}


def test_typed_error_from_a_task_without_known_defects_is_wrong():
    import ginicorr

    def degenerate():
        raise ginicorr.DegenerateSampleError("all resamples tied")

    task = workloads.Task("sample/x", degenerate, lambda out: None)
    wl = type("OneTask", (), {"tasks": lambda self, cycle, traced: [task]})()
    m = run.measure(wl, 0.0, max_cycles=1)
    run.classify(m.outcomes)
    assert [o.status for o in m.outcomes] == ["wrong"]


def test_wrong_answer_is_counted_as_failed(tmp_path, monkeypatch):
    import ginicorr

    real = ginicorr.closed_cw

    def off_by_a_little(f, w):
        rep = real(f, w)
        return ginicorr.CorrelationReport(rep.value + 1e-4, rep.method, None, rep.weight)

    monkeypatch.setattr(ginicorr, "closed_cw", off_by_a_little)
    wl = _closed_forms(tmp_path, {"bvp2-readme", "normal"})
    m = run.measure(wl, 0.0, max_cycles=1)
    run.classify(m.outcomes)
    assert [o.status for o in m.outcomes] == ["wrong", "wrong"]
    assert all(isinstance(o.error, ref.CheckFailed) for o in m.outcomes)


def test_wrong_bootstrap_value_is_caught():
    xs = np.random.default_rng(1).pareto(3.0, 2000)
    ys = xs + np.random.default_rng(2).pareto(3.0, 2000)
    w = ref.weight_fn(("power", 1.0))
    want = ref.RankReference(xs, ys, w).cw()
    ref.expect_close("exact", want, want, rtol=ref.RANK_RTOL)
    with pytest.raises(ref.CheckFailed):
        ref.expect_close("perturbed", want * (1 + 1e-7), want, rtol=ref.RANK_RTOL)
    se = ref.bootstrap_se(xs, ys, w, seed=3, b=50)
    ref.check_se("same", se * 1.2, se)
    with pytest.raises(ref.CheckFailed):
        ref.check_se("tenfold", se * 10, se)
    with pytest.raises(ref.CheckFailed):
        ref.check_se("missing", None, se)


def test_self_time_on_synthetic_span_tree():
    # root [0, 10] with children A [1, 4] and B [5, 7]; A has a child [2, 3];
    # C [6, 8] overlaps B, so root's children cover [1, 4] + [5, 8].
    spans = [
        ["root", 0.0, 10.0, -1, "t", {}],
        ["A", 1.0, 4.0, 0, "t", {"points": 5}],
        ["A.a", 2.0, 3.0, 1, "t", {}],
        ["B", 5.0, 7.0, 0, "t", {"points": 7}],
        ["C", 6.0, 8.0, 0, "t", {"failed": 1}],
    ]
    assert tracing.self_times(spans) == pytest.approx([4.0, 2.0, 1.0, 2.0, 2.0])
    totals = tracing.layer_totals(spans)
    assert totals["A"] == {"calls": 1, "self_s": pytest.approx(2.0), "failed": 0, "points": 5}
    assert totals["C"]["failed"] == 1


def test_rank_passes_count_only_outermost_estimators():
    spans = [
        ["wipm.gini_wipm_rhs", 0, 9, -1, "t", {"n": 100}],
        ["gini.empirical_cw", 1, 4, 0, "t", {"n": 100}],
        ["gini.rank", 1, 2, 1, "t", {"points": 100}],
        ["gini.rank", 2, 3, 1, "t", {"points": 100}],
        ["gini.rank", 5, 6, 0, "t", {"points": 100}],
        ["gini.empirical_cw", 10, 12, -1, "t", {"n": 50}],
        ["gini.rank", 10, 11, 5, "t", {"points": 50}],
    ]
    assert tracing.rank_passes(spans) == (350, 150)


def test_instrument_records_layers_and_restores_them():
    import scipy.stats

    import ginicorr
    from ginicorr import gini

    rec = tracing.Recorder()
    s = ginicorr.sample(ginicorr.BVP2(delta=2.1, delta_y=0.5254), 500, 1)
    w = ginicorr.WeightFunction.beta_cdf(2, 2)
    with tracing.instrument(rec):
        traced = ginicorr.empirical_cw(s, w, n_boot=12)
    plain = ginicorr.empirical_cw(s, w, n_boot=12)
    assert (traced.value, traced.std_error) == (plain.value, plain.std_error)
    names = [sp[tracing.NAME] for sp in rec.spans]
    assert names.count("gini.empirical_cw") == 1
    assert names.count("gini.bootstrap") == 1
    assert names.count("gini.rank") == 2 * 13
    assert names.count("specfun.reg_inc_beta") == 2 * 13
    assert gini.empirical_cw is ginicorr.empirical_cw
    assert gini.rankdata is scipy.stats.rankdata
    assert tracing.rank_passes(rec.spans) == (26 * 500, 500)


def _outcome(cycle, latency):
    return run.Outcome("k", cycle, latency, None, None, None, False, "ok")


def test_tail_is_the_median_cycle_maximum():
    # cycles of a fast 1 s task and a slow task; more cycles of the same
    # shape, as a faster commit runs, leave the tail where it was
    slow = (5.0, 5.0, 4.0, 6.0, 5.0)
    for cycles in (2, 3, 5):
        outcomes = [_outcome(c, v) for c in range(cycles) for v in (1.0, slow[c])]
        m = run.Measurement(outcomes, 10.0, cycles)
        metrics, notes = run.end_to_end(m, [1.0], 1024)
        assert metrics["task_tail_s"][0] == pytest.approx(5.0)
        assert metrics["task_p50_s"][0] < 5.0
        assert notes["tasks_per_cycle"] == 2


def test_instrument_skips_missing_entry_points(monkeypatch):
    import ginicorr

    monkeypatch.setattr(tracing, "LAYERS",
                        tracing.LAYERS + [("gini.gone", "gini", "_no_such_function", None)])
    rec = tracing.Recorder()
    s = ginicorr.sample(ginicorr.BVP2(delta=2.1, delta_y=0.5254), 200, 1)
    with tracing.instrument(rec):
        ginicorr.empirical_cw(s, ginicorr.WeightFunction.power(1.0), n_boot=0)
    names = {sp[tracing.NAME] for sp in rec.spans}
    assert "gini.empirical_cw" in names and "gini.gone" not in names


def test_rank_passes_not_applicable_without_rank_spans():
    spans = [["gini.empirical_cw", 0.0, 1.0, -1, "0/k", {"n": 100}]]
    m = run.Measurement([_outcome(0, 1.0)], 1.0, 1)
    imports = [{"import_s": 1.0, "scipy_stats_s": 0.5}]
    metrics, not_applicable, _ = run.per_layer(spans, m, m, imports)
    assert "gini.rank.passes_per_estimate" in not_applicable
    assert "gini.empirical_cw.calls" not in not_applicable


def test_references_match_definitions():
    from scipy.stats import rankdata

    v = np.round(np.random.default_rng(4).normal(size=3000), 1)
    assert np.array_equal(ref.avg_ranks(v), rankdata(v, method="average"))
    # counts-based ranks equal the ranks of the explicitly repeated resample
    c = np.bincount(np.random.default_rng(5).integers(0, v.size, v.size), minlength=v.size)
    gid, ng = np.unique(v, return_inverse=True)[1], np.unique(v).size
    u = ref._count_u(gid, ng, c.astype(float), v.size)
    idx = np.repeat(np.arange(v.size), c)
    assert np.allclose(u[idx], rankdata(v[idx]) / (v.size + 1.0), rtol=0, atol=1e-15)
    # Pareto margin covariance: closed power-weight formula
    d, g = 2.1, 1.0
    want = -(g / (g + 1)) * d / ((d - 1) * (d * (g + 1) - 1))
    assert ref.cov_margin(("pareto", 0.0, 1.0, d), ("power", g)) == pytest.approx(want, rel=1e-12)
    # 3F2 with a cancelling pair reduces to Gauss's 2F1(a, 1; c; 1) = (c-1)/(c-a-1)
    mp = ref._mp()
    assert float(mp.hyp3f2(1.5, 2, 1, 2.8, 2, 1)) == pytest.approx(1.8 / 0.3, rel=1e-14)


def test_bare_benchmark_directory_exits_nonzero(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "bootstrap", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    last = (proc.stdout.strip().splitlines() or [""])[-1]
    with pytest.raises(json.JSONDecodeError):
        json.loads(last)
