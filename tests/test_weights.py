"""Weight-function class tests: admissibility, evaluation, reflection."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from ginicorr.errors import DomainError
from ginicorr.weights import WeightFunction, reflect

GRID = np.linspace(0.0, 1.0, 101)


class TestEval:
    def test_identity(self):
        w = WeightFunction.identity()
        assert w(0.37) == 0.37
        assert np.array_equal(w(GRID), GRID)

    def test_power(self):
        w = WeightFunction.power(2.0)
        assert w(0.5) == 0.25

    def test_power_one_is_identity_pointwise(self):
        w = WeightFunction.power(1.0)
        assert np.max(np.abs(w(GRID) - GRID)) == 0.0

    def test_beta_cdf_b1_is_power(self):
        w = WeightFunction.beta_cdf(3.0, 1.0)
        assert np.max(np.abs(w(GRID) - GRID ** 3)) < 1e-12

    def test_table_interpolates(self):
        w = WeightFunction.table([0.0, 0.5, 1.0], [0.0, 0.1, 1.0])
        assert w(0.25) == pytest.approx(0.05)
        assert w(0.75) == pytest.approx(0.55)

    def test_domain_error(self):
        w = WeightFunction.power(2.0)
        with pytest.raises(DomainError):
            w(1.0001)
        with pytest.raises(DomainError):
            w(np.array([0.5, -0.1]))

    @given(gamma=st.floats(0.05, 20.0))
    @settings(max_examples=50, deadline=None)
    def test_power_monotone_and_bounded(self, gamma):
        vals = WeightFunction.power(gamma)(GRID)
        assert np.all(np.diff(vals) >= 0.0)
        assert vals[0] == 0.0 and vals[-1] == 1.0

    @given(a=st.floats(0.1, 10.0), b=st.floats(0.1, 10.0))
    @settings(max_examples=50, deadline=None)
    def test_beta_monotone_and_bounded(self, a, b):
        vals = WeightFunction.beta_cdf(a, b)(GRID)
        assert np.all(np.diff(vals) >= -1e-15)
        assert abs(vals[0]) < 1e-15 and abs(vals[-1] - 1.0) < 1e-12


class TestAdmissibility:
    def test_bad_power(self):
        with pytest.raises(DomainError):
            WeightFunction.power(0.0)

    def test_bad_beta(self):
        with pytest.raises(DomainError):
            WeightFunction.beta_cdf(1.0, -2.0)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize("make", [lambda v: WeightFunction.power(v),
                                      lambda v: WeightFunction.beta_cdf(v, 1.0),
                                      lambda v: WeightFunction.beta_cdf(1.0, v)],
                             ids=["power-gamma", "beta-a", "beta-b"])
    def test_parameters_must_be_finite(self, make, bad):
        with pytest.raises(DomainError, match="requires finite"):
            make(bad)

    def test_table_must_increase_in_t(self):
        with pytest.raises(DomainError):
            WeightFunction.table([0.0, 0.5, 0.5], [0.0, 0.5, 1.0])

    def test_table_must_be_monotone_in_w(self):
        with pytest.raises(DomainError):
            WeightFunction.table([0.0, 0.5, 1.0], [0.0, 0.8, 0.5])

    def test_table_dip_between_grid_points_rejected(self):
        # the dip at 0.50005 is 1e-4 wide: a sampled check can step over it
        with pytest.raises(DomainError):
            WeightFunction.table([0.0, 0.5, 0.50005, 0.5001, 1.0],
                                 [0.0, 0.5, 0.1, 0.5, 1.0])

    def test_table_flat_between_knots_accepted(self):
        # equal neighbouring knot values are non-decreasing: the check is < 0
        w = WeightFunction.table([0.0, 0.3, 0.7, 1.0], [0.0, 0.5, 0.5, 1.0])
        assert w(0.5) == 0.5

    def test_table_range(self):
        with pytest.raises(DomainError):
            WeightFunction.table([0.0, 1.0], [0.0, 1.2])


class TestValueSemantics:
    def test_table_keeps_read_only_copies_of_the_knots(self):
        from ginicorr.distributions import BVP2, PairedSample, sample
        from ginicorr.wipm import gini_premium

        kt, kw = np.array([0.0, 0.5, 1.0]), np.array([0.0, 0.3, 1.0])
        w = WeightFunction.table(kt, kw)
        s = sample(BVP2(delta=2.1, delta_y=0.5254), 500, seed=4)
        before = gini_premium(s, w).premium
        kt[1], kw[1] = 0.2, 1.5
        assert w(0.5) == 0.3
        assert gini_premium(s, w).premium == before
        assert gini_premium(PairedSample(s.xs.copy(), s.ys.copy()), w).premium == before
        for knots in (w.knots_t, w.knots_w):
            with pytest.raises(ValueError):
                knots[1] = 0.9

    def test_tables_compare_and_hash_by_value(self):
        a = WeightFunction.table([0.0, 0.5, 1.0], [0.0, 0.3, 1.0])
        b = WeightFunction.table(np.array([0.0, 0.5, 1.0]), (0.0, 0.3, 1.0))
        c = WeightFunction.table([0.0, 0.5, 1.0], [0.0, 0.4, 1.0])
        assert a == b and not a != b and hash(a) == hash(b)
        assert a != c and not a == c
        assert a in [c, b] and a not in [c, WeightFunction.identity()]
        assert len({a, b, c}) == 2

    @pytest.mark.parametrize("w", [WeightFunction.identity(), WeightFunction.power(0.3),
                                   WeightFunction.beta_cdf(2.0, 3.0)],
                             ids=["identity", "power", "beta"])
    def test_analytic_weights_compare_and_hash_by_their_fields(self, w):
        # as the generated dataclass methods did: the field tuple, knots None
        twin = WeightFunction(w.kind, w.gamma, w.a, w.b)
        assert w == twin and hash(w) == hash(twin)
        assert hash(w) == hash((w.kind, w.gamma, w.a, w.b, None, None))
        assert w != WeightFunction.power(7.0) and w != "power"
        assert w != WeightFunction.table([0.0, 1.0], [0.0, 1.0])


class TestReflect:
    def test_identity_fixed_point(self):
        assert reflect(WeightFunction.identity()).kind == "identity"

    def test_power_example(self):
        # w*(t) = 1 - (1-t)^2 at t = 0.5 -> 0.75
        assert reflect(WeightFunction.power(2.0))(0.5) == pytest.approx(0.75, abs=1e-14)

    def test_beta_swaps_parameters(self):
        w = WeightFunction.beta_cdf(2.5, 0.7)
        r = reflect(w)
        assert (r.a, r.b) == (0.7, 2.5)
        # pointwise reflection identity to 1e-10
        assert np.max(np.abs(r(GRID) - (1.0 - w(1.0 - GRID)))) < 1e-10

    @given(gamma=st.floats(0.1, 10.0))
    @settings(max_examples=40, deadline=None)
    def test_involution_pointwise(self, gamma):
        w = WeightFunction.power(gamma)
        rr = reflect(reflect(w))
        assert np.max(np.abs(rr(GRID) - w(GRID))) < 1e-12

    def test_table_reflection_exact(self):
        w = WeightFunction.table([0.0, 0.3, 1.0], [0.0, 0.6, 1.0])
        r = reflect(w)
        assert np.max(np.abs(r(GRID) - (1.0 - w(1.0 - GRID)))) < 1e-15

    def test_monotonicity_preserved(self):
        w = WeightFunction.beta_cdf(0.4, 3.0)
        vals = reflect(w)(GRID)
        assert np.all(np.diff(vals) >= -1e-15)


class TestMeanOnUnit:
    @pytest.mark.parametrize("a,b", [(2.0, 3.0), (0.5, 0.5), (4.0, 1.0), (1.0, 6.0)])
    def test_beta_mean_is_b_over_a_plus_b(self, a, b):
        w = WeightFunction.beta_cdf(a, b)
        quad = integrate.quad(w, 0.0, 1.0, epsabs=1e-10, epsrel=1e-10)[0]
        assert w.mean_on_unit() == pytest.approx(b / (a + b), abs=1e-8)
        assert quad == pytest.approx(b / (a + b), abs=1e-8)

    def test_power_and_identity(self):
        assert WeightFunction.identity().mean_on_unit() == 0.5
        assert WeightFunction.power(3.0).mean_on_unit() == 0.25

    def test_table_matches_quadrature(self):
        w = WeightFunction.table([0.1, 0.5, 0.9], [0.05, 0.2, 0.95])
        quad = integrate.quad(w, 0.0, 1.0, epsabs=1e-12, limit=200)[0]
        assert w.mean_on_unit() == pytest.approx(quad, abs=1e-9)


class TestCsv:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "w.csv"
        path.write_text("t,w\n0.0,0.0\n0.4,0.3\n1.0,1.0\n")
        w = WeightFunction.from_csv(path)
        assert w.kind == "table"
        assert w(0.2) == pytest.approx(0.15)

    def test_comments_blank_lines_and_one_header(self, tmp_path):
        path = tmp_path / "w.csv"
        path.write_text("# knots\n\nt,w\n0.0,0.0\n  \n0.4,0.3\n# end\n1.0,1.0\n")
        w = WeightFunction.from_csv(path)
        assert list(w.knots_t) == [0.0, 0.4, 1.0]

    @pytest.mark.parametrize("text,line", [("t,w\n0.0,0.0\nt,w\n1.0,1.0\n", 3),
                                           ("0.0,0.0\n0.5\n1.0,1.0\n", 2),
                                           ("0.0,0.0\n0.5,x\n1.0,1.0\n", 2)])
    def test_rejects_a_row_that_does_not_parse(self, tmp_path, text, line):
        path = tmp_path / "w.csv"
        path.write_text(text)
        with pytest.raises(DomainError, match=f"line {line}"):
            WeightFunction.from_csv(path)

    def test_rejects_non_monotone(self, tmp_path):
        path = tmp_path / "w.csv"
        path.write_text("0.0,0.5\n1.0,0.2\n")
        with pytest.raises(DomainError):
            WeightFunction.from_csv(path)
