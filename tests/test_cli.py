"""Command-line surface tests: determinism, exit codes, wire formats."""

import argparse
import dataclasses
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import ginicorr.gini
import ginicorr.wipm
from ginicorr import verify
from ginicorr._csvrows import _read_rows, read_numeric_csv
from ginicorr.cli import build_parser, load_pairs_csv, main, parse_weight
from ginicorr.distributions import (
    BVP1,
    BVP2,
    BVP3,
    EllipticalT,
    Normal,
    PairedSample,
    sample,
)
from ginicorr.errors import DomainError
from ginicorr.weights import WeightFunction
from ginicorr.wipm import gini_premium


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParseWeight:
    def test_kinds(self):
        assert parse_weight("identity").kind == "identity"
        assert parse_weight("power:2").gamma == 2.0
        w = parse_weight("beta:2,3")
        assert (w.a, w.b) == (2.0, 3.0)

    def test_bad_spec_is_cli_error(self):
        from ginicorr.cli import CliError
        with pytest.raises(CliError):
            parse_weight("power:zero")
        with pytest.raises(CliError):
            parse_weight("sigmoid:1")


class TestCorr:
    def test_closed_bvp1(self, capsys):
        code, out, _ = run_cli(capsys, "corr", "--family", "bvp1",
                               "--delta", "5.87", "--weight", "power:1",
                               "--method", "closed")
        assert code == 0
        row = [l for l in out.splitlines() if l.startswith("closed_form")][0]
        assert row.split(",")[1] == "0.170357751278"

    def test_closed_normal_beta_weight(self, capsys):
        code, out, _ = run_cli(capsys, "corr", "--family", "normal",
                               "--rho", "0.5", "--weight", "beta:2,2",
                               "--method", "closed")
        assert code == 0 and ",0.5," in out

    def test_empirical_from_file_self_correlation(self, capsys, tmp_path):
        path = tmp_path / "pairs.csv"
        rng = np.random.default_rng(0)
        xs = rng.standard_normal(50)
        path.write_text("x,y\n" + "\n".join(f"{x},{x}" for x in xs) + "\n")
        code, out, _ = run_cli(capsys, "corr", "--data", str(path),
                               "--weight", "power:2", "--method", "empirical")
        assert code == 0
        row = [l for l in out.splitlines() if l.startswith("empirical")][0]
        assert row.split(",")[1] == "1"

    def test_all_shows_triangle(self, capsys):
        code, out, _ = run_cli(capsys, "corr", "--family", "bvp2",
                               "--delta", "2.1", "--delta-y", "0.5254",
                               "--weight", "power:1", "--method", "all",
                               "-n", "20000", "--replications", "10")
        assert code == 0
        rows = {l.split(",")[0]: l.split(",") for l in out.splitlines() if "," in l}
        for m in ("empirical", "closed_form", "regression_route", "oracle"):
            assert m in rows
        # stochastic methods carry a standard error, deterministic ones do not
        assert rows["empirical"][2] != "" and rows["oracle"][2] != ""
        assert rows["closed_form"][2] == "" and rows["regression_route"][2] == ""

    def test_data_row_that_does_not_parse_exits_2(self, capsys, tmp_path):
        # a missing value is an error, not a row to drop (n = 5, not 4)
        path = tmp_path / "pairs.csv"
        path.write_text("x,y\n1,2\n2,1\nNA,3\n4,3\n3,5\n")
        code, out, err = run_cli(capsys, "corr", "--data", str(path),
                                 "--method", "empirical", "--bootstrap", "0")
        assert code == 2 and out == ""
        assert f"{path}, line 4" in err and "NA" in err

    def test_row_with_a_bad_y_names_its_line(self, capsys, tmp_path):
        # a good x and a bad y must not misalign the two columns
        path = tmp_path / "pairs.csv"
        path.write_text("# comment\n1,2\n2,1\n3,oops\n4,3\n")
        code, _, err = run_cli(capsys, "corr", "--data", str(path),
                               "--method", "empirical", "--bootstrap", "0")
        assert code == 2
        assert f"{path}, line 4" in err and "equal-length" not in err

    def test_unsupported_pair_exits_2_with_hint(self, capsys, tmp_path):
        t = tmp_path / "w.csv"
        t.write_text("0.0,0.0\n1.0,1.0\n")
        code, _, err = run_cli(capsys, "corr", "--family", "bvp3",
                               "--delta", "1.8", "--delta-x", "1.2",
                               "--delta-y", "0.7", "--weight", f"table:{t}",
                               "--method", "closed")
        assert code == 2
        assert "empirical" in err or "oracle" in err

    @pytest.mark.parametrize("n_boot", ["-4", "5"])
    def test_bootstrap_count_that_cannot_work_exits_2(self, capsys, n_boot):
        code, out, err = run_cli(capsys, "corr", "--family", "bvp1", "--delta", "5.87",
                                 "--method", "all", "-n", "200", "--bootstrap", n_boot)
        assert code == 2 and out == ""
        assert f"n_boot must be 0 (no bootstrap) or at least 10, got {n_boot}" in err

    def test_invalid_delta_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "corr", "--family", "bvp1",
                               "--delta", "-1.0", "--method", "closed")
        assert code == 2 and "delta" in err

    def test_missing_inputs_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "corr", "--method", "closed")
        assert code == 2

    def test_json_format(self, capsys):
        code, out, _ = run_cli(capsys, "corr", "--family", "normal",
                               "--rho", "0.37", "--weight", "beta:2,3",
                               "--method", "closed", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["meta"]["seed"] == 42
        assert payload["results"][0]["value"] == 0.37
        assert payload["results"][0]["std_error"] is None


@pytest.mark.parametrize("command", ["corr", "sample", "surface"])
@pytest.mark.parametrize("family, given, missing", [
    ("normal", [], "--rho"),
    ("elliptical_t", [], "--sigma-xy --nu"),
    ("elliptical_t", ["--nu", "3"], "--sigma-xy"),
    ("bvp1", [], "--delta"),
    ("bvp2", [], "--delta --delta-y"),
    ("bvp2", ["--delta-y", "1"], "--delta"),
    ("bvp3", [], "--delta --delta-x --delta-y"),
    ("bvp3", ["--delta-x", "1"], "--delta --delta-y"),
])
def test_missing_family_flags_are_named_in_field_order(capsys, command, family, given,
                                                        missing):
    code, out, err = run_cli(capsys, command, "--family", family, *given)
    assert (code, out, err) == (2, "", f"error: family {family!r} needs {missing}\n")


@pytest.mark.parametrize("flags, message", [
    (["bvp1", "--delta", "0", "--sigma-y", "-1"], "sigma_y must be > 0, got -1.0"),
    (["bvp1", "--delta", "nan"], "delta must be > 0, got nan"),
    (["bvp2", "--delta", "-1", "--delta-y", "0"], "delta must be > 0, got -1.0"),
    (["bvp2", "--delta", "1", "--delta-y", "0"], "delta_y must be > 0, got 0.0"),
    (["bvp3", "--delta", "1", "--delta-x", "0", "--delta-y", "-1"],
     "delta_x must be > 0, got 0.0"),
    (["bvp3", "--delta", "1", "--delta-x", "2", "--delta-y", "-1"],
     "delta_y must be > 0, got -1.0"),
    (["normal", "--rho", "0.5", "--sigma-x", "0"], "sigma_x must be > 0, got 0.0"),
    (["elliptical_t", "--sigma-xy", "0", "--nu", "1"], "need nu > 1, got 1.0"),
])
def test_first_invalid_family_parameter_is_named(capsys, flags, message):
    code, out, err = run_cli(capsys, "sample", "--family", *flags)
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("argv, message", [
    (["--family", "bvp1", "--delta", "inf", "--method", "closed"],
     "delta must be finite, got inf"),
    (["--family", "bvp1", "--delta", "inf", "--method", "regression"],
     "delta must be finite, got inf"),
    (["--family", "normal", "--rho", "0.5", "--sigma-x", "inf", "--weight", "beta:2,2",
      "--method", "regression"], "sigma_x must be finite, got inf"),
    (["--family", "bvp1", "--delta", "3", "--weight", "power:inf", "--method", "closed"],
     "power weight requires finite gamma > 0, got inf"),
    (["--family", "bvp1", "--delta", "3", "--weight", "beta:inf,1", "--method", "closed"],
     "beta_cdf weight requires finite a, b > 0, got a=inf, b=1.0"),
])
def test_non_finite_parameter_exits_2(capsys, argv, message):
    code, out, err = run_cli(capsys, "corr", *argv)
    assert (code, out) == (2, "") and message in err


@pytest.mark.parametrize("argv", [
    ["sample", "--family", "bvp1", "--delta", "3", "-n", "5", "--seed", "-1"],
    ["corr", "--family", "bvp1", "--delta", "3", "-n", "200", "--method", "empirical",
     "--seed", "-1"],
    ["corr", "--family", "bvp1", "--delta", "3", "-n", "1000", "--method", "oracle",
     "--replications", "10", "--seed", "-1"],
])
def test_negative_seed_exits_2(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out, err) == (2, "", "error: seed must be >= 0, got -1\n")


def test_family_flags_are_the_families_fields():
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction)).choices["sample"]
    flags = {a.dest: (a.option_strings, a.type, a.default) for a in sub._actions
             if a.dest not in ("help", "family", "n", "seed", "out", "format")}
    location_scale = {"mu_x": 0.0, "mu_y": 0.0, "sigma_x": 1.0, "sigma_y": 1.0}
    names = {fl.name for cls in (Normal, EllipticalT, BVP1, BVP2, BVP3)
             for fl in dataclasses.fields(cls)}
    assert flags == {n: (["--" + n.replace("_", "-")], float, location_scale.get(n))
                     for n in names}


class TestSample:
    def test_byte_identical_runs(self, capsys):
        args = ("sample", "--family", "bvp2", "--delta", "2.1",
                "--delta-y", "0.5254", "-n", "5", "--seed", "9")
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert out1 == out2
        assert out1.count("\n") == 5 + 5  # 4 comment lines + header + 5 rows

    def test_header_embeds_provenance(self, capsys):
        _, out, _ = run_cli(capsys, "sample", "--family", "bvp1",
                            "--delta", "3.0", "-n", "5", "--seed", "5")
        assert "# seed=5" in out and "# family=bvp1" in out
        assert "# version=" in out

    def test_round_trip_through_corr(self, capsys, tmp_path):
        path = tmp_path / "s.csv"
        code, _, _ = run_cli(capsys, "sample", "--family", "bvp2",
                             "--delta", "2.1", "--delta-y", "0.5254",
                             "-n", "200000", "--seed", "3", "--out", str(path))
        assert code == 0
        code, out, _ = run_cli(capsys, "corr", "--data", str(path),
                               "--weight", "power:1", "--method", "empirical",
                               "--bootstrap", "0")
        assert code == 0
        val = float([l for l in out.splitlines()
                     if l.startswith("empirical")][0].split(",")[1])
        assert abs(val - 0.358476) < 0.02

    def test_invalid_params_exit_2(self, capsys):
        code, _, _ = run_cli(capsys, "sample", "--family", "bvp1",
                             "--delta", "0.0", "-n", "5")
        assert code == 2

    @pytest.mark.parametrize("n", [0, 2])
    def test_too_few_pairs_exit_2_with_the_sampler_message(self, capsys, n):
        code, out, err = run_cli(capsys, "sample", "--family", "bvp1",
                                 "--delta", "3.0", "-n", str(n))
        assert (code, out) == (2, "")
        assert err == f"error: need n >= 3 for a paired sample, got {n}\n"

    def test_csv_and_json_print_12_digits_and_read_back(self, capsys, tmp_path):
        flags = ("--family", "bvp3", "--delta", "1.5", "--delta-x", "1.5",
                 "--delta-y", "1.0", "-n", "1000", "--seed", "7")
        s = sample(BVP3(delta=1.5, delta_x=1.5, delta_y=1.0), 1000, 7)
        want = [[format(float(v), ".12g") for v in col] for col in (s.xs, s.ys)]
        path = tmp_path / "s.csv"
        assert main(["sample", *flags, "--out", str(path)]) == 0
        lines = [l for l in path.read_text().splitlines() if not l.startswith("#")]
        assert lines == ["x,y", *(f"{x},{y}" for x, y in zip(*want))]
        code, out, _ = run_cli(capsys, "sample", *flags, "--format", "json")
        payload = json.loads(out)
        assert code == 0
        assert [payload["x"], payload["y"]] == [[float(v) for v in col] for col in want]
        back = load_pairs_csv(path)
        assert [back.xs.tolist(), back.ys.tolist()] == [payload["x"], payload["y"]]

    def test_json_is_one_line(self, capsys):
        code, out, _ = run_cli(capsys, "sample", "--family", "bvp1", "--delta", "2.0",
                               "-n", "50", "--seed", "3", "--format", "json")
        payload = json.loads(out)
        assert code == 0 and len(payload["x"]) == len(payload["y"]) == 50
        assert out == json.dumps(payload, sort_keys=True) + "\n"
        assert out.count("\n") == 1


@st.composite
def _csv_texts(draw):
    """Small CSV texts: mostly rows of one width, some skipped or bad lines."""
    width = draw(st.integers(1, 3))
    cell = st.sampled_from(["1", "-2.5", "1e3", "nan", "-inf", " 4 ", "1_0", "x",
                            "", "#", '"3"', "\x1c5"])
    row = st.lists(cell, min_size=width, max_size=width).map(",".join)
    odd = st.sampled_from(["", " \t", ",", " , ", "# note", "  #,x", '""', '"#",1'])
    lines = draw(st.lists(st.one_of(row, row, odd), max_size=8))
    eol = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return eol.join(lines) + draw(st.sampled_from(["", eol]))


class TestReadNumericCsv:
    def read(self, tmp_path, text):
        path = tmp_path / "in.csv"
        path.write_text(text, newline="")
        return read_numeric_csv(path)

    @pytest.mark.parametrize("text", [
        "x,y\r\n1,2\r\n3,4\r\n",             # CRLF line endings
        '"x","y"\n"1","2"\n"3",4\n',           # quoted cells
        "x,y\n1,2\n \t \n,\n3,4\n",           # whitespace and comma lines
        "# n=2\n\nx , y\n1_0e-1,2\n3,4.0\n",  # a number only float() reads
    ])
    def test_rows_and_header(self, tmp_path, text):
        header, data = self.read(tmp_path, text)
        assert header == ["x", "y"] and data.tolist() == [[1.0, 2.0], [3.0, 4.0]]

    @pytest.mark.parametrize("text,line", [
        ("x,y\n1,2\n4,3 # c\n5,6\n", 3),   # a trailing comment is not stripped
        ("# c\n1,2\n3,4\n5\n6,7\n", 4),    # a short row
        ("1,2\r\n3,4\r\n5,6,7\r\n", 3),    # a long row, CRLF
        ("1,2\n3\x1c,4\n", 2),              # \x1c is no space to float()
    ])
    def test_bad_row_names_its_line(self, tmp_path, text, line):
        with pytest.raises(DomainError) as exc:
            self.read(tmp_path, text)
        assert f"in.csv, line {line}: bad data row" in str(exc.value)

    def test_byte_that_is_not_utf8_names_its_offset(self, tmp_path):
        path = tmp_path / "in.csv"
        path.write_bytes(b"x,y\n1,2\n3,\xff4\n5,6\n")
        with pytest.raises(DomainError, match=r"in\.csv, byte 10: not UTF-8"):
            read_numeric_csv(path)

    def test_empty_and_header_only(self, tmp_path):
        assert self.read(tmp_path, "# nothing\n\n")[1].shape == (0, 0)
        header, data = self.read(tmp_path, "x,y\n")
        assert header == ["x", "y"] and data.shape == (0, 0)

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(_csv_texts())
    def test_matches_the_row_by_row_reference(self, tmp_path, text):
        path = tmp_path / "in.csv"
        path.write_text(text, newline="")

        def outcome(read):
            try:
                header, data = read()
            except DomainError as exc:
                return str(exc)
            return header, data.shape, data.tobytes()

        with open(path, newline="") as fh:
            want = outcome(lambda: _read_rows(path, fh))
        assert outcome(lambda: read_numeric_csv(path)) == want


@pytest.mark.parametrize("argv", [
    ["corr", "--data", "{}", "--method", "empirical", "--bootstrap", "0"],
    ["corr", "--family", "bvp1", "--delta", "3", "--weight", "table:{}", "--method", "closed"],
    ["price", "--portfolio", "{}"],
], ids=["data", "table", "portfolio"])
def test_csv_byte_that_is_not_utf8_exits_2(capsys, tmp_path, argv):
    path = tmp_path / "bin.csv"
    path.write_bytes(b"x,y\n1,2\n3,\xff4\n5,6\n")
    code, out, err = run_cli(capsys, *(a.format(path) for a in argv))
    assert code == 2 and out == ""
    assert err.startswith("error:") and f"{path}, byte 10: not UTF-8" in err


class TestCurves:
    def test_fig3_shape_flags(self, capsys):
        code, out, _ = run_cli(capsys, "curves", "--delta-min", "2.05",
                               "--delta-max", "10", "--steps", "40",
                               "--delta-y", "0.5254", "--gamma", "1")
        assert code == 0
        assert "# gini_strictly_decreasing=true" in out
        assert "# pearson_interior_max=true" in out

    def test_pearson_blank_below_2(self, capsys):
        code, out, _ = run_cli(capsys, "curves", "--delta-min", "1.5",
                               "--delta-max", "3.0", "--steps", "4",
                               "--delta-y", "0.5254")
        assert code == 0
        first = [l for l in out.splitlines() if l.startswith("1.5,")][0]
        assert first.endswith(",")  # empty pearson cell

    def test_example_value(self, capsys):
        code, out, _ = run_cli(capsys, "curves", "--delta-min", "5.0",
                               "--delta-max", "6.0", "--steps", "2",
                               "--delta-y", "0.5254", "--gamma", "1")
        want = (1.0 / 5.0) * (2 * 5.0 - 1.0) / (2 * 5.5254 - 1.0)
        got = float([l for l in out.splitlines()
                     if l.startswith("5,")][0].split(",")[1])
        assert got == pytest.approx(want, rel=1e-10)

    def test_empty_range_exits_2(self, capsys):
        code, _, _ = run_cli(capsys, "curves", "--delta-min", "3.0",
                             "--delta-max", "2.0")
        assert code == 2


class TestSurface:
    def test_corner_is_one_and_monotone(self, capsys):
        code, out, _ = run_cli(capsys, "surface", "--family", "bvp3",
                               "--delta", "2.0", "--delta-x", "1.0",
                               "--delta-y", "0.5", "--x-min", "0",
                               "--x-max", "3", "--x-steps", "4",
                               "--y-min", "0", "--y-max", "3", "--y-steps", "4")
        assert code == 0
        rows = [l.split(",") for l in out.splitlines()
                if "," in l and not l.startswith(("#", "x,"))]
        table = {(float(r[0]), float(r[1])): float(r[2]) for r in rows}
        assert table[(0.0, 0.0)] == 1.0
        vals = [table[(x, 0.0)] for x in (0.0, 1.0, 2.0, 3.0)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_grid_below_support_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "surface", "--family", "bvp1",
                               "--delta", "2.0", "--mu-x", "1.0",
                               "--x-min", "0.0", "--x-max", "2.0")
        assert code == 2 and "support" in err


class TestPrice:
    @pytest.fixture
    def portfolio_csv(self, tmp_path):
        rng = np.random.default_rng(1)
        path = tmp_path / "port.csv"
        a = rng.standard_gamma(2.0, 300)
        b = rng.standard_gamma(1.0, 300)
        path.write_text("fire,flood\n" + "\n".join(
            f"{x},{y}" for x, y in zip(a, b)) + "\n")
        return path

    def test_allocation_additivity_in_output(self, capsys, portfolio_csv):
        code, out, _ = run_cli(capsys, "price", "--portfolio",
                               str(portfolio_csv), "--weight", "power:1",
                               "--allocate")
        assert code == 0
        payload = json.loads(out)
        assert payload["allocation_sum"] == pytest.approx(
            payload["aggregate_premium"], rel=1e-9)
        assert {a["column"] for a in payload["allocations"]} == {"fire", "flood"}
        for a in payload["allocations"]:
            assert a["premium"] == pytest.approx(a["base"] + a["loading"], rel=1e-9)

    def test_plain_pricing(self, capsys, portfolio_csv):
        code, out, _ = run_cli(capsys, "price", "--portfolio",
                               str(portfolio_csv), "--weight", "beta:2,2")
        assert code == 0
        payload = json.loads(out)
        assert len(payload["premiums"]) == 2
        assert payload["meta"]["orientation"] == "survival"

    @pytest.mark.parametrize("allocate", [[], ["--allocate"]])
    def test_csv_and_json_carry_the_same_rows(self, capsys, portfolio_csv, allocate):
        args = ("price", "--portfolio", str(portfolio_csv), "--weight", "power:1",
                *allocate)
        _, out_json, _ = run_cli(capsys, *args)
        _, out_csv, _ = run_cli(capsys, *args, "--format", "csv")
        payload = json.loads(out_json)
        rows = payload["allocations" if allocate else "premiums"]
        lines = [l for l in out_csv.splitlines() if not l.startswith("#")]
        assert lines[0] == "column,premium,base,loading"
        assert [l.split(",") for l in lines[1:]] == [
            [r["column"], *(format(r[k], ".12g") for k in ("premium", "base", "loading"))]
            for r in rows]

    @pytest.fixture
    def three_csv(self, tmp_path):
        rng = np.random.default_rng(2)
        path = tmp_path / "three.csv"
        path.write_text("a,b,c\n" + "\n".join(
            ",".join(repr(float(v)) for v in row)
            for row in rng.standard_gamma(2.0, (200, 3))) + "\n")
        return path

    @pytest.mark.parametrize("allocate", [[], ["--allocate"]])
    def test_ranks_the_aggregate_once(self, capsys, monkeypatch, three_csv, allocate):
        ranked = []
        kernel = ginicorr.gini._ranks

        def recording(v):
            ranked.append(v)
            return kernel(v)

        monkeypatch.setattr(ginicorr.gini, "_ranks", recording)
        code, _, _ = run_cli(capsys, "price", "--portfolio", str(three_csv),
                             "--weight", "beta:2,2", *allocate)
        assert code == 0
        assert len(ranked) == 1

    @pytest.mark.parametrize("allocate", [[], ["--allocate"]])
    def test_evaluates_the_weight_once(self, capsys, monkeypatch, three_csv, allocate):
        sizes = []
        evaluate = WeightFunction.__call__

        def counting(w, t):
            sizes.append(np.size(t))
            return evaluate(w, t)

        monkeypatch.setattr(WeightFunction, "__call__", counting)
        code, _, _ = run_cli(capsys, "price", "--portfolio", str(three_csv),
                             "--weight", "power:1", *allocate)
        assert code == 0
        assert sizes == [200]

    def test_one_column_is_priced_against_itself(self, capsys, tmp_path):
        col = np.random.default_rng(4).pareto(2.5, 150)
        path = tmp_path / "one.csv"
        path.write_text("only\n" + "\n".join(repr(float(v)) for v in col) + "\n")
        code, out, _ = run_cli(capsys, "price", "--portfolio", str(path),
                               "--weight", "power:1")
        want = gini_premium(PairedSample(col, col), WeightFunction.power(1.0))
        assert code == 0
        assert json.loads(out)["premiums"] == [
            {"column": "only", "premium": float(format(want.premium, ".12g")),
             "base": float(format(want.base, ".12g")),
             "loading": float(format(want.loading, ".12g"))}]
        code, out, err = run_cli(capsys, "price", "--portfolio", str(path), "--allocate")
        assert (code, out, err) == (2, "", "error: allocation needs at least 2 columns\n")

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("allocate", [[], ["--allocate"]])
    def test_overflowing_aggregate_exits_2_without_a_warning(self, capsys, tmp_path,
                                                             allocate):
        path = tmp_path / "big.csv"
        path.write_text("a,b\n1e308,1e308\n1,2\n3,1\n5,7\n")
        code, out, err = run_cli(capsys, "price", "--portfolio", str(path), *allocate)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and "Warning" not in err

    def test_missing_file_exits_2(self, capsys):
        code, _, _ = run_cli(capsys, "price", "--portfolio", "/nope.csv")
        assert code == 2


def _factor_fault(kinds):
    """A _pareto_factor 0.1% off for the weight kinds given, exact for the others."""
    return lambda orig: lambda d, w: orig(d, w) * 1.001 if w.kind in kinds else orig(d, w)


class TestVerify:
    def test_all_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "all")
        assert code == 0
        assert "FAIL" not in out and out.endswith("13/13 checks passed\n")

    def test_injected_fault_names_failing_check(self, capsys, monkeypatch):
        # flip the sign of the closed covariance: the named quadrature
        # cross-check must catch it
        orig = ginicorr.gini.cov_x_weighted

        def flipped(m, w):  # keeps the error and nfev the routes read
            cov = orig(m, w)
            return type(cov)(-cov, **vars(cov))

        monkeypatch.setattr(ginicorr.verify, "gini", ginicorr.gini)
        monkeypatch.setattr(ginicorr.gini, "cov_x_weighted", flipped)
        results = verify.run("gini")
        failed = [r.name for r in results if not r.passed]
        assert "cov_xx_vs_quadrature" in failed
        code = main(["verify", "gini"])
        capsys.readouterr()
        assert code == 1

    @pytest.mark.parametrize("module,name,fault,also", [
        (ginicorr.gini, "regression_line",
         lambda orig: lambda f: dataclasses.replace(orig(f), beta=orig(f).beta * 1.01), []),
        (ginicorr.gini, "_pareto_factor", _factor_fault(("identity", "power")),
         ["cov_xx_vs_quadrature"]),
        (ginicorr.gini, "_pareto_factor", _factor_fault(("beta_cdf",)),
         ["cov_xx_vs_quadrature"]),
        (ginicorr.gini, "_bvp3_closed",
         lambda orig: lambda *a: (orig(*a)[0] * 1.001, orig(*a)[1]), []),
        (ginicorr.wipm, "gini_wipm_rhs", lambda orig: lambda *a: dataclasses.replace(
            orig(*a), premium=2.0 * orig(*a).base - orig(*a).premium), []),
    ], ids=["regression_beta", "bvp2_power", "bvp2_beta", "bvp3_closed", "wipm_slope"])
    def test_injected_route_fault_fails_the_hoeffding_check(self, monkeypatch, module,
                                                            name, fault, also):
        # one perturbed route among closed_cw, cw_via_regression and the WIPM
        # identity: the Hoeffding-oracle check must name it, and so must every
        # other check that reads the perturbed function (`also`): the Pareto
        # weight factor also makes the closed margin covariance
        monkeypatch.setattr(module, name, fault(getattr(module, name)))
        failed = [r.name for r in verify.run("gini") if not r.passed]
        assert failed == ["routes_vs_hoeffding", *also]

    def test_unknown_suite_exits_2(self, capsys):
        # argparse rejects the choice itself
        with pytest.raises(SystemExit) as exc:
            main(["verify", "everything"])
        capsys.readouterr()
        assert exc.value.code == 2


class TestParserHygiene:
    def test_unknown_flag_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["corr", "--family", "bvp1", "--delta", "2.0", "--frobnicate"])
        assert exc.value.code == 2

    def test_out_file(self, capsys, tmp_path):
        path = tmp_path / "out.csv"
        code, out, _ = run_cli(capsys, "corr", "--family", "normal",
                               "--rho", "0.2", "--method", "closed",
                               "--out", str(path))
        assert code == 0 and out == ""
        assert "closed_form" in path.read_text()


# Each costs more to import than the package.  Only the normal and Student t
# margins and beta weights need scipy.stats or scipy.special, and they import
# them on first use; the quadrature is numpy alone, so nothing loads
# scipy.integrate.
_LAZY_SCIPY = ("scipy.stats", "scipy.integrate", "scipy.special")


def _scipy_loaded_after(code, cwd=None):
    """stdout of code run in a fresh interpreter, then the _LAZY_SCIPY it loaded."""
    src = str(Path(ginicorr.gini.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    code += f"\nimport sys; print([m for m in {_LAZY_SCIPY!r} if m in sys.modules])"
    return subprocess.run([sys.executable, "-c", code], env=env, check=True, cwd=cwd,
                          capture_output=True, text=True).stdout.strip()


def test_cli_import_leaves_scipy_stats_unloaded():
    assert _scipy_loaded_after("import ginicorr.cli") == "[]"


def test_verify_all_loads_no_scipy_integrate():
    code = textwrap.dedent("""
        import contextlib, io
        from ginicorr.cli import main
        with contextlib.redirect_stdout(io.StringIO()):
            code = main(["verify", "all"])
        print(code)
    """)
    status, loaded = _scipy_loaded_after(code).splitlines()
    assert status == "0" and "scipy.integrate" not in loaded


def test_readme_commands_but_verify_load_no_scipy(tmp_path):
    rng = np.random.default_rng(0)
    np.savetxt(tmp_path / "losses.csv", rng.pareto(2.5, (200, 3)), delimiter=",",
               header="motor,property,liability", comments="")
    commands = [
        ["corr", "--family", "bvp1", "--delta", "5.87", "--weight", "power:1",
         "--method", "closed"],
        ["sample", "--family", "bvp3", "--delta", "1.5", "--delta-x", "1.5",
         "--delta-y", "1.0", "-n", "1000", "--seed", "7", "--out", "pairs.csv"],
        ["corr", "--data", "pairs.csv", "--weight", "power:2", "--method", "empirical",
         "--bootstrap", "20"],
        ["curves", "--delta-min", "2.05", "--delta-max", "10", "--steps", "8",
         "--delta-y", "0.5254"],
        ["surface", "--family", "bvp2", "--delta", "2.1", "--delta-y", "0.5254",
         "--x-max", "4", "--y-max", "4"],
        ["price", "--portfolio", "losses.csv", "--weight", "power:1", "--allocate"],
    ]
    code = textwrap.dedent(f"""
        import contextlib, io
        from ginicorr.cli import main
        with contextlib.redirect_stdout(io.StringIO()):
            codes = [main(argv) for argv in {commands!r}]
        print(codes)
    """)
    assert _scipy_loaded_after(code, cwd=tmp_path).splitlines() == [
        str([0] * len(commands)), "[]"]
