import numpy as np
import pytest

from vwslab.grid import Field, forward, make_grid, plane_wave, sobolev_norm
from vwslab.mollify import (LOGLOG_CLAMP, Mollifier, MollifyError, ScaleFn,
                            derivative_bound_probe, fit_slope, mollify,
                            scale_omega, sobolev_boost_probe)
from vwslab.vwsnet import delta_field

DYADIC = [2.0**-j for j in range(2, 8)]
POWER1 = ScaleFn("power", k=1.0)


class TestScaleOmega:
    def test_loglog_clamps_above_threshold(self):
        # at eps = e^{-e} the raw value is exactly 1, held at the clamp
        assert scale_omega(ScaleFn("loglog"), np.exp(-np.e)) == LOGLOG_CLAMP

    def test_loglog_value(self):
        val = scale_omega(ScaleFn("loglog"), np.exp(-np.e**2))
        assert val == pytest.approx(0.5)

    def test_power(self):
        assert scale_omega(ScaleFn("power", k=1.0), 0.1) == pytest.approx(0.1)
        assert scale_omega(ScaleFn("power", k=2.0), 0.1) == pytest.approx(0.01)

    def test_rejects_bad_eps(self):
        with pytest.raises(MollifyError):
            scale_omega(ScaleFn("loglog"), 0.0)
        with pytest.raises(MollifyError):
            scale_omega(ScaleFn("loglog"), 1.5)

    @pytest.mark.parametrize("build, message", [
        (lambda: Mollifier("bad"), "unknown mollifier kind 'bad'"),
        (lambda: Mollifier("vanishing-moment", order=3),
         "vanishing-moment order must be a positive even integer"),
        (lambda: ScaleFn("bad"), "unknown scale kind 'bad'"),
        (lambda: ScaleFn("power", k=0), "power scale needs k > 0")])
    def test_constructors_check_their_kind(self, build, message):
        with pytest.raises(MollifyError, match=f"^{message}$"):
            build()

    def test_decreasing_in_eps(self):
        scale = ScaleFn("loglog")
        omegas = [scale_omega(scale, e) for e in DYADIC]
        assert all(a >= b for a, b in zip(omegas, omegas[1:]))


class TestMollify:
    def test_constant_preserved(self, grid_1d, gaussian):
        u = Field(grid_1d, np.ones(64, dtype=complex))
        out = mollify(u, gaussian, 0.3)
        assert np.allclose(out.values, 1.0, atol=1e-13)

    def test_single_mode_factor(self, gaussian):
        spec = make_grid(1, 16, np.pi)
        u = plane_wave(spec, (1,))
        out = mollify(u, gaussian, 1.0)
        assert np.allclose(out.values, np.exp(-0.5) * u.values, atol=1e-12)

    def test_delta_coefficients(self, grid_1d, gaussian):
        u = delta_field(grid_1d)
        out = forward(mollify(u, gaussian, 0.25))
        kap = grid_1d.kappa_mesh()[0]
        expected = (2 * 8.0) ** -1 * np.exp(-((0.25 * kap) ** 2) / 2)
        assert np.allclose(out, expected, atol=1e-14)

    def test_mass_preserved_exactly(self, grid_2d, gaussian):
        rng = np.random.default_rng(0)
        u = Field(grid_2d, rng.standard_normal(grid_2d.shape) + 0j)
        before = forward(u)[0, 0]
        after = forward(mollify(u, gaussian, 0.7))[0, 0]
        assert abs(after - before) < 1e-15 * max(abs(before), 1.0)

    def test_gaussian_contracts_modes(self, grid_1d, gaussian):
        rng = np.random.default_rng(1)
        u = Field(grid_1d, rng.standard_normal(64) + 1j * rng.standard_normal(64))
        for omega in (0.1, 0.5, 1.0):
            out = np.abs(forward(mollify(u, gaussian, omega)))
            assert np.all(out <= np.abs(forward(u)) + 1e-15)

    def test_rejects_nonpositive_omega(self, grid_1d, gaussian):
        u = Field(grid_1d, np.ones(64, dtype=complex))
        with pytest.raises(MollifyError):
            mollify(u, gaussian, 0.0)


class TestVanishingMoment:
    def test_hat_is_one_to_fourth_order(self):
        m = Mollifier("vanishing-moment", order=4)
        xi = np.array([1e-2, 3e-2, 1e-1])
        defect = np.abs(m.hat(xi**2) - 1.0)
        # phi_hat - 1 = O(xi^4): the ratio stays bounded as xi -> 0
        assert np.all(defect / xi**4 < 0.2)

    def test_moment_order_slope(self):
        spec = make_grid(1, 256, 8.0)
        x = spec.x_axis()
        u = Field(spec, np.exp(-(x**2) / 2).astype(complex))
        m = Mollifier("vanishing-moment", order=4)
        errs = [sobolev_norm(Field(spec, mollify(u, m, w).values - u.values), 0.0)
                for w in DYADIC]
        slope, _ = fit_slope(DYADIC, errs)
        assert slope == pytest.approx(4.0, abs=0.3)

    def test_gaussian_beats_moments_only_to_second_order(self):
        spec = make_grid(1, 256, 8.0)
        x = spec.x_axis()
        u = Field(spec, np.exp(-(x**2) / 2).astype(complex))
        g = Mollifier("gaussian")
        errs = [sobolev_norm(Field(spec, mollify(u, g, w).values - u.values), 0.0)
                for w in DYADIC]
        slope, _ = fit_slope(DYADIC, errs)
        assert slope == pytest.approx(2.0, abs=0.3)


class TestFitSlope:
    def test_agrees_with_polyfit_of_the_logs(self):
        # on positive data the closed form is the least-squares line of the
        # logarithms: LAPACK's, through polyfit, to 1e-12 relative
        rng = np.random.default_rng(0)
        for size in (2, 3, 5, 6, 9, 17):
            xs = np.sort(rng.uniform(1e-3, 1.0, size))[::-1]
            ys = 3.0 * xs ** rng.uniform(-4.0, 4.0) * rng.uniform(0.5, 1.5, size)
            lx, ly = np.log(xs), np.log(ys)
            coef = np.polyfit(lx, ly, 1)
            resid = np.sqrt(np.mean((ly - np.polyval(coef, lx)) ** 2))
            slope, r = fit_slope(xs, ys)
            assert slope == pytest.approx(coef[0], rel=1e-12, abs=0.0)
            if size > 2:  # two points leave a residual of round-off alone
                assert r == pytest.approx(resid, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("p", [-1.5, 0.0, 2.0, 3.25])
    def test_power_law_is_fitted_exactly(self, p):
        slope, resid = fit_slope(DYADIC, 3.0 * np.array(DYADIC) ** p)
        assert slope == pytest.approx(p, rel=0.0, abs=1e-14)
        assert 0.0 <= resid < 1e-14

    @pytest.mark.parametrize("xs, ys", [([1.0, 2.0, 4.0], [1.0, 2.0]),
                                        ([1.0], [1.0]),
                                        ([2.0, 2.0, 2.0, 2.0], [1.0, 2.0, 3.0, 4.0]),
                                        ([[1.0, 2.0]], [[1.0, 2.0]])])
    def test_needs_two_distinct_xs_and_a_y_each(self, xs, ys):
        # a constant x carries no slope: polyfit gave a RankWarning and 0.573
        # for the third case, and the closed form would divide 0 by 0
        with pytest.raises(MollifyError):
            fit_slope(xs, ys)

    @pytest.mark.parametrize("ys", [[1.0, 0.5, 0.0, 0.25], [0.0] * 4,
                                    [1.0, -0.5, 0.25, 0.125],
                                    [1.0, np.nan, 0.25, 0.125],
                                    [1.0, np.inf, 0.25, 0.125],
                                    [1.0, -np.inf, 0.25, 0.125]])
    def test_zero_has_no_exponent(self, ys):
        # a zero has no logarithm, so no slope: nan, which every bound fails;
        # so has a y that is not finite
        slope, resid = fit_slope([1.0, 2.0, 4.0, 8.0], ys)
        assert np.isnan(slope) and np.isnan(resid)


def _fine_grid():
    return make_grid(1, 2048, np.pi)


class TestDerivativeBoundProbe:
    def test_smooth_input_flat(self):
        spec = make_grid(1, 128, np.pi)
        u = Field(spec, np.sin(spec.x_axis()).astype(complex))
        pr = derivative_bound_probe(u, (2,), POWER1, DYADIC)
        assert abs(pr["slope"]) < 0.1
        assert set(pr) == {"omegas", "norms", "slope", "residual"}

    def test_jump_first_derivative(self):
        spec = _fine_grid()
        x = spec.x_axis()
        u = Field(spec, np.where(np.sin(x) >= 0, 1.0, -1.0).astype(complex))
        pr = derivative_bound_probe(u, (1,), POWER1, DYADIC)
        assert pr["slope"] == pytest.approx(-1.0, abs=0.2)
        assert pr["residual"] < 0.1

    def test_lipschitz_second_derivative(self):
        spec = _fine_grid()
        x = spec.x_axis()
        u = Field(spec, np.abs(((x / np.pi) + 1) % 2 - 1).astype(complex))
        pr = derivative_bound_probe(u, (2,), POWER1, DYADIC)
        assert pr["slope"] == pytest.approx(-1.0, abs=0.2)

    def test_soundness_floor(self):
        # bounded inputs never blow up faster than omega^{-|beta|}
        spec = _fine_grid()
        x = spec.x_axis()
        for vals in (np.where(np.sin(x) >= 0, 1.0, -1.0),
                     np.sign(np.sin(3 * x)) * np.cos(x)):
            for beta in ((1,), (2,), (3,)):
                pr = derivative_bound_probe(Field(spec, vals.astype(complex)),
                                            beta, POWER1, DYADIC)
                assert pr["slope"] >= -sum(beta) - 0.3

    def test_requires_four_scales(self, grid_1d):
        u = Field(grid_1d, np.ones(64, dtype=complex))
        with pytest.raises(MollifyError):
            derivative_bound_probe(u, (1,), POWER1, [0.5, 0.25, 0.125])

    def test_requires_decreasing_scales(self, grid_1d):
        u = Field(grid_1d, np.ones(64, dtype=complex))
        with pytest.raises(MollifyError):
            derivative_bound_probe(u, (1,), POWER1, [0.5, 0.5, 0.25, 0.125])


class TestSobolevBoostProbe:
    def test_smooth_input_flat(self):
        spec = make_grid(1, 128, np.pi)
        u = Field(spec, np.sin(spec.x_axis()).astype(complex))
        pr = sobolev_boost_probe(u, 0.0, 2, POWER1, DYADIC)
        assert abs(pr["slope"]) < 0.1

    def test_delta_1d_saturation(self):
        # 1D periodised delta is half an order inside H^{-1}; the measured
        # gain saturates at -(ell - 1/2), safely above the -ell floor
        spec = _fine_grid()
        u = delta_field(spec)
        pr1 = sobolev_boost_probe(u, -1.0, 1, POWER1, DYADIC)
        pr2 = sobolev_boost_probe(u, -1.0, 2, POWER1, DYADIC)
        assert pr1["slope"] == pytest.approx(-0.5, abs=0.1)
        assert pr2["slope"] == pytest.approx(-1.5, abs=0.1)
        assert pr1["slope"] >= -1.0 - 0.2
        assert pr2["slope"] >= -2.0 - 0.2

    def test_delta_2d_attains_floor(self):
        # in 2D the delta is exactly borderline for s = -1, so the fitted
        # slope meets the -ell prediction
        spec = make_grid(2, 512, np.pi)
        u = delta_field(spec)
        for ell in (1, 2):
            pr = sobolev_boost_probe(u, -1.0, ell, POWER1, DYADIC)
            assert pr["slope"] == pytest.approx(-float(ell), abs=0.2)
