import numpy as np
import pytest

from conftest import LADDER, assert_da_is_the_derivative_of_a
from vwslab import coeffs
from vwslab.coeffs import (CoefficientModel, Delta, ModelError, Pointwise,
                           SquareWave, _multi_indices, check_hypotheses,
                           enveloped_bump, preset, regularise, sample)
from vwslab.grid import forward, inverse, make_grid, partial_derivative
from vwslab.mollify import ScaleFn, fit_slope


def ladder_sets(model, spec, scale=None):
    scale = scale or ScaleFn("loglog")
    return [regularise(model, e, scale, spec) for e in LADDER]


class TestPreset:
    def test_unknown_name(self):
        with pytest.raises(ModelError):
            preset("nonsense")

    def test_unknown_parameter(self):
        with pytest.raises(ModelError):
            preset("free", frobnicate=2)

    def test_ultra_diagonal_needs_nonzero_c2(self):
        with pytest.raises(ModelError):
            preset("ultra-diagonal", c2=0.0)

    def test_ultra_diagonal_defaults(self):
        model = preset("ultra-diagonal")
        assert model.n == 2
        assert np.allclose(model.C, np.diag([1.0, -1.0]))

    def test_weight_exponent_must_exceed_one(self):
        with pytest.raises(ModelError):
            preset("free", N=1)

    def test_free_is_identity(self):
        model = preset("free", n=2)
        assert np.allclose(model.C, np.eye(2))
        assert model.smooth


class TestRegularise:
    def test_constants_are_fixed_points(self, grid_1d, loglog):
        cs = regularise(preset("free", n=1), 0.1, loglog, grid_1d)
        assert np.array_equal(cs.a[0][0], np.ones(64))
        assert np.array_equal(cs.b[0], np.zeros(64))
        assert np.array_equal(np.asarray(cs.V), np.zeros(64))

    def test_symmetry_exact(self, grid_2d, loglog):
        model = preset("ultra-diagonal")
        cs = regularise(model, 2**-4, loglog, grid_2d)
        assert cs.a[0][1] is cs.a[1][0]

    def test_dimension_mismatch(self, grid_1d, loglog):
        with pytest.raises(ModelError):
            regularise(preset("ultra-diagonal"), 0.1, loglog, grid_1d)

    def test_delta_potential_coefficients(self, grid_1d, loglog):
        cs = regularise(preset("delta-potential", n=1), 2**-4, loglog, grid_1d)
        kap = grid_1d.kappa_mesh()[0]
        expected = (16.0) ** -1 * np.exp(-((cs.omega * kap) ** 2) / 2)
        assert np.allclose(forward(cs.V.astype(complex), grid_1d), expected,
                           atol=1e-14)

    def test_sample_requires_smooth(self, grid_1d):
        with pytest.raises(ModelError):
            sample(preset("delta-potential", n=1), grid_1d)

    def test_sample_matches_model(self, grid_1d):
        model = preset("smooth-consistency", n=1)
        cs = sample(model, grid_1d)
        assert cs.eps == 0.0

        def unmollified(comp):
            return inverse(comp.coefficients(grid_1d), grid_1d).real

        assert np.array_equal(cs.a[0][0],
                              model.C[0, 0] + unmollified(model.perturb[0, 0]))
        assert np.array_equal(cs.b[0], 1j * unmollified(model.drift_im[0]))
        assert np.array_equal(cs.V, unmollified(model.potential))


class TestSquareWave:
    def test_zero_mean(self, grid_1d):
        coeffs = SquareWave().coefficients(grid_1d)
        assert coeffs[0] == pytest.approx(0.0)

    def test_odd_mode_amplitudes(self, grid_1d):
        coeffs = SquareWave().coefficients(grid_1d)
        # balanced square wave: 2/(i pi k) on odd k, zero on even k
        assert coeffs[1] == pytest.approx(2 / (1j * np.pi), abs=1e-12)
        assert coeffs[3] == pytest.approx(2 / (3j * np.pi), abs=1e-12)
        assert abs(coeffs[2]) < 1e-14


class TestCheckHypotheses:
    def test_ultra_diagonal_band(self, grid_2d):
        model = preset("ultra-diagonal")
        rep = check_hypotheses(ladder_sets(model, grid_2d), nu=0.05, c0=0.05,
                               N=2)
        assert rep.passed
        assert rep.h1_symmetric
        # ratios live in [1/mu, mu] which must sit inside the paper band
        assert rep.mu <= 1.5
        assert 1.0 / rep.mu >= 0.5
        assert rep.mu_variation < 0.05

    def test_ultra_diagonal_h3_stable(self, grid_2d):
        rep = check_hypotheses(ladder_sets(preset("ultra-diagonal"), grid_2d),
                               nu=0.05, c0=0.05, N=2)
        assert rep.h3_variation < 0.10
        assert max(rep.h3_weighted_sup) <= rep.h3_bound

    def test_delta_potential_exponent(self, grid_1d):
        rep = check_hypotheses(ladder_sets(preset("delta-potential", n=1),
                                           grid_1d), nu=0.05, c0=0.05, N=2)
        # sup|d(omega^{-1} phi(x/omega))| = omega^{-2} sup|phi'|, so N2 = 1
        assert rep.potential_exponent_N2 == pytest.approx(1.0, abs=0.2)

    def test_jump_drift_passes(self, grid_1d):
        rep = check_hypotheses(ladder_sets(preset("jump-drift", n=1), grid_1d),
                               nu=0.05, c0=0.05, N=2)
        assert rep.h1_symmetric
        assert max(rep.h4_weighted_im_sup) <= rep.h4_bound

    def test_needs_four_sets(self, grid_1d, gaussian, loglog):
        sets = ladder_sets(preset("free", n=1), grid_1d)[:3]
        with pytest.raises(ModelError):
            check_hypotheses(sets, nu=0.05, c0=0.05, N=2)

    @pytest.mark.parametrize("C", [[[2.0, 0.3], [0.3, -1.0]],   # max |lambda| rules
                                   [[0.4, 0.1], [0.1, -1.0]]])  # 1/min |lambda| rules
    def test_mu_is_the_eigenvalue_bound(self, C):
        # a non-diagonal a: its eigenvectors lie off the coordinate axes
        model = CoefficientModel("tilted", 2, np.array(C))
        rep = check_hypotheses(ladder_sets(model, make_grid(2, 8, 8.0)),
                               nu=0.05, c0=0.05, N=2)
        lam = np.abs(np.linalg.eigvalsh(np.array(C)))
        mu = max(lam.max(), 1.0 / lam.min())
        assert rep.mu == pytest.approx(mu, rel=1e-12)
        np.testing.assert_allclose(rep.mu_values, mu, rtol=1e-12)

    # negative controls: one bump of weighted sup about 0.5 breaks the
    # (H3)/(H4) bound 2*nu (2*c0) at 0.05 and meets it at 0.5
    @pytest.mark.parametrize("slot", ["h3", "h4"])
    def test_bound_fails_below_the_perturbation(self, grid_1d, slot):
        bump = enveloped_bump(2, 0.5, 5.0)
        model = (CoefficientModel("h3-control", 1, np.eye(1), perturb={(0, 0): bump})
                 if slot == "h3" else
                 CoefficientModel("h4-control", 1, np.eye(1), drift_im={0: bump}))
        sets = ladder_sets(model, grid_1d)
        for small, passed in ((0.05, False), (0.5, True)):
            rep = check_hypotheses(sets, nu=small, c0=small, N=2)
            sup, bound = ((rep.h3_weighted_sup, rep.h3_bound) if slot == "h3"
                          else (rep.h4_weighted_im_sup, rep.h4_bound))
            assert bound == 2 * small
            assert (max(sup) <= bound) is passed
            assert rep.passed is passed

    def test_singular_a_fails_h2(self):
        # a_22 = 0: no mu bounds |lambda| from below
        model = CoefficientModel("degenerate", 2, np.diag([1.0, 0.0]))
        rep = check_hypotheses(ladder_sets(model, make_grid(2, 8, 8.0)),
                               nu=0.05, c0=0.05, N=2)
        assert rep.mu == np.inf
        assert not rep.passed


def _exponent_shift_from_scratch(sets, arrays_of):
    """The reference of ``coeffs._exponent_shift``: every d^beta of every
    field, zero fields included, from ``partial_derivative`` alone."""
    omegas = np.array([cs.omega for cs in sets])
    spec = sets[0].spec
    shifts, residuals = [], []
    for order in range(4):
        sups = np.array([
            max((float(np.max(np.abs(partial_derivative(arr, spec, beta))))
                 for arr in arrays_of(cs) for beta in _multi_indices(spec.n, order)),
                default=0.0)
            for cs in sets])
        if np.max(sups) < 1e-14 or np.max(omegas) / np.min(omegas) < 1.0 + 1e-9:
            continue
        slope, resid = fit_slope(np.log(omegas), np.log(np.maximum(sups, 1e-300)))
        shifts.append(-slope - order)
        residuals.append(resid)
    if not shifts:
        return 0.0, []
    return float(max(0.0, np.median(shifts))), residuals


class TestExponentShift:
    """Each derivative order of the (H5) exponent fits is built from the
    one before; the report is that of derivatives taken from scratch."""

    @pytest.mark.parametrize("name, n", [
        ("delta-potential", 1), ("jump-drift", 1), ("smooth-consistency", 1),
        ("ultra-diagonal", 2), ("jump-drift", 2), ("smooth-consistency", 2)])
    def test_report_is_bit_identical(self, monkeypatch, grid_1d, grid_2d, name, n):
        sets = ladder_sets(preset(name, n=n), grid_1d if n == 1 else grid_2d)
        got = check_hypotheses(sets, nu=0.05, c0=0.05, N=2).to_dict()
        monkeypatch.setattr(coeffs, "_exponent_shift", _exponent_shift_from_scratch)
        assert got == check_hypotheses(sets, nu=0.05, c0=0.05, N=2).to_dict()

    @pytest.mark.parametrize("name, n, M, calls", [
        # the net-1d-delta ladder: the zero b is skipped, V takes three
        # derivatives per eps, and da one
        ("delta-potential", 1, 256, 40),
        # b and V are zero: only the eight derivatives of da per eps remain
        ("ultra-diagonal", 2, 64, 80)])
    def test_fft_calls(self, monkeypatch, name, n, M, calls):
        sets = ladder_sets(preset(name, n=n), make_grid(n, M, 8.0))
        count = []
        for fn in ("fft", "ifft"):
            real = getattr(np.fft, fn)
            monkeypatch.setattr(np.fft, fn, lambda *a, real=real, **k:
                                count.append(1) or real(*a, **k))
        check_hypotheses(sets, nu=0.05, c0=0.05, N=2)
        assert len(count) == calls


def test_da_is_the_spectral_derivative_of_a(grid_2d, loglog):
    assert_da_is_the_derivative_of_a(
        regularise(preset("ultra-diagonal"), 2**-4, loglog, grid_2d))


class TestCustomModel:
    def test_asymmetric_matrix_rejected(self):
        with pytest.raises(ModelError):
            CoefficientModel("bad", 2, np.array([[1.0, 0.2], [0.0, 1.0]]))

    def test_pointwise_component(self, grid_1d, loglog):
        model = CoefficientModel(
            "sine", 1, np.eye(1),
            perturb={(0, 0): Pointwise(lambda x: 0.1 * np.sin(np.pi * x / 8))},
            smooth=True)
        cs = regularise(model, 2**-4, loglog, grid_1d)
        kap = np.pi / 8
        factor = np.exp(-((cs.omega * kap) ** 2) / 2)
        x = grid_1d.x_mesh()[0]
        assert np.allclose(cs.a[0][0], 1 + 0.1 * factor * np.sin(kap * x),
                           atol=1e-12)
