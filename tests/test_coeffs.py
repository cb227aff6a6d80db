import copy
import inspect
import re
from pathlib import Path

import numpy as np
import pytest

from conftest import LADDER, assert_da_is_the_derivative_of_a
from vwslab import cli, coeffs
from vwslab.coeffs import (CoefficientModel, CoefficientSet, Delta, ModelError,
                           Pointwise, SquareWave, _multi_indices, check_hypotheses,
                           enveloped_bump, preset, regularise, sample)
from vwslab.grid import forward, inverse, make_grid, partial_derivative
from vwslab.mollify import ScaleFn, fit_slope
from vwslab.vwsnet import _bumps, _perturbed_set


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
        # its perturbation is the C_b^inf enveloped bump
        assert model.smooth

    def test_weight_exponent_must_exceed_one(self):
        with pytest.raises(ModelError):
            preset("free", N=1)

    def test_free_is_identity(self):
        model = preset("free", n=2)
        assert np.allclose(model.C, np.eye(2))
        assert model.smooth

    # the parameters these presets once took and dropped unread
    @pytest.mark.parametrize("name, ignored", [
        ("free", "nu"), ("free", "c0"), ("delta-potential", "nu"),
        ("delta-potential", "c0"), ("elliptic-lipschitz", "c0"), ("jump-drift", "nu")])
    def test_rejects_a_parameter_it_does_not_read(self, name, ignored):
        with pytest.raises(ModelError, match=re.escape(
                f"unknown model parameters: ['{ignored}']")):
            preset(name, **{ignored: 0.3})

    @pytest.mark.parametrize("name", coeffs.PRESETS)
    def test_every_parameter_is_read(self, name):
        # each parameter off its default changes the model or its set
        base = _built(preset(name))
        for key, param in _parameters(name).items():
            if (name, key) == ("ultra-diagonal", "n"):
                with pytest.raises(ModelError, match="two-dimensional"):
                    preset(name, n=3)
                continue
            value = param.default + (1 if key in ("n", "N") else 0.25)
            assert _built(preset(name, **{key: value})) != base, key

    def test_parameters_are_converted(self):
        model = preset("jump-drift", n=1.0, N=3.0, c0=1)
        assert (type(model.n), type(model.N), type(model.c0)) == (int, int, float)
        assert (model.n, model.N) == (1, 3)

    @pytest.mark.parametrize("key, value", [("N", 2.5), ("N", float("inf")),
                                            ("n", 1.5)])
    def test_rejects_a_fractional_n_or_N(self, key, value):
        # int() would truncate it, and a report record the value it was given
        with pytest.raises(ModelError, match=f"{key} must be an integer"):
            preset("delta-potential", **{"n": 1, key: value})

    def test_readme_lists_each_presets_parameters(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text("utf-8")
        for name in coeffs.PRESETS:
            defaults = ", ".join(f"`{key}` {param.default!r}"
                                 for key, param in _parameters(name).items())
            assert f"| `{name}` | {defaults} |" in readme, name


def _parameters(name):
    """The parameters of a preset: those of its builder."""
    return inspect.signature(coeffs._BUILDERS[name]).parameters


def _built(model):
    """What a run reads of a model: its scalars and matrix, and the N and
    arrays of its set at eps = 2^-4."""
    cs = regularise(model, 2**-4, ScaleFn("loglog"), make_grid(model.n, 16, 8.0))
    arrays = [*(arr for row in cs.a for arr in row), *cs.b, cs.V]
    return (model.n, model.N, model.nu, model.c0, model.C.tolist(), cs.N,
            [arr.tobytes() for arr in arrays])


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

    @pytest.mark.parametrize("name, n", [("free", 1), ("ultra-diagonal", 2),
                                         ("delta-potential", 1)])
    def test_constant_entries_are_read_only_broadcasts(self, name, n, loglog):
        spec = make_grid(n, 32, 8.0)
        model = preset(name, n=n)
        cs = regularise(model, 2**-4, loglog, spec)
        constant = [(cs.a[i][j], model.C[i, j]) for i in range(n) for j in range(n)
                    if (i, j) not in model.perturb]
        constant += [(bk, 0j) for bk in cs.b]
        if name != "delta-potential":
            constant.append((cs.V, 0.0))
        for arr, value in constant:
            assert arr.strides == (0,) * n and not arr.flags.writeable
            want = np.full(spec.shape, value)
            assert arr.dtype == want.dtype and np.array_equal(arr, want)
            with pytest.raises(ValueError, match="read-only"):
                arr[...] = 1.0
            with pytest.raises(ValueError, match="read-only"):
                arr += 1.0

    @pytest.mark.parametrize("name", ["delta-potential", "smooth-consistency"])
    def test_a_variable_V_owns_its_data(self, name, grid_1d, loglog):
        # V is the real part of a complex transform: a copy of it, which
        # does not keep the transform alive
        model = preset(name, n=1)
        for cs in [regularise(model, 2**-4, loglog, grid_1d)] + (
                [sample(model, grid_1d)] if model.smooth else []):
            assert cs.V.base is None and cs.V.flags.owndata
            assert cs.V.flags.writeable and cs.V.dtype == float

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
    # the weight of (H3) and (H4) is the sets' N, not a default of 2
    @pytest.mark.parametrize("name, n", [("ultra-diagonal", 2),
                                         ("smooth-consistency", 1)])
    def test_weight_is_the_model_N(self, grid_1d, grid_2d, name, n):
        spec = grid_1d if n == 1 else grid_2d
        sets = ladder_sets(preset(name, n=n, N=3), spec)
        rep = check_hypotheses(sets, nu=0.05, c0=0.05)
        w = spec.x_bracket(3)
        assert rep.h3_weighted_sup == [
            max(float(np.max(w * np.abs(d))) for dk in cs.da for row in dk for d in row)
            for cs in sets]
        assert rep.h4_weighted_im_sup == [
            max(float(np.max(w * np.abs(bk.imag))) for bk in cs.b) for cs in sets]
        assert rep.h3_weighted_sup != check_hypotheses(
            [CoefficientSet(cs.spec, cs.eps, cs.omega, cs.a, cs.b, cs.V, 2) for cs in sets],
            nu=0.05, c0=0.05).h3_weighted_sup

    # passed is derived from failures(), and to_dict is a deep copy: no
    # change to the dict reaches the report
    @pytest.mark.parametrize("bound, passed", [(0.05, True), (0.0, False)])
    def test_passed_is_a_bool_and_the_dict_a_copy(self, grid_2d, bound, passed):
        rep = check_hypotheses(ladder_sets(preset("ultra-diagonal"), grid_2d),
                               nu=bound, c0=bound)
        assert rep.passed is passed
        assert (rep.failures() == []) is passed
        got = rep.to_dict()
        assert got["passed"] is passed
        assert set(got) == {"passed", *rep._fields}
        want = copy.deepcopy(got)
        got["mu_values"].append(0.0)
        got["h3_weighted_sup"][0] = 0.0
        got["fit_residuals"]["potential"].append(0.0)
        got["fit_residuals"]["drift"] = None
        assert rep.to_dict() == want

    def test_ultra_diagonal_band(self, grid_2d):
        model = preset("ultra-diagonal")
        rep = check_hypotheses(ladder_sets(model, grid_2d), nu=0.05, c0=0.05)
        assert rep.passed
        assert rep.h1_symmetric
        # ratios live in [1/mu, mu] which must sit inside the paper band
        assert rep.mu <= 1.5
        assert 1.0 / rep.mu >= 0.5
        assert rep.mu_variation < 0.05

    def test_ultra_diagonal_h3_stable(self, grid_2d):
        sets = ladder_sets(preset("ultra-diagonal"), grid_2d)
        rep = check_hypotheses(sets, nu=0.05, c0=0.05)
        assert rep.h3_variation < 0.10
        assert max(rep.h3_weighted_sup) <= rep.h3_bound
        # the (H3) derivatives are not kept on the sets as da: a validated
        # net is marched next, and the march never reads them
        assert not any("da" in vars(cs) for cs in sets)

    def test_delta_potential_exponent(self, grid_1d):
        rep = check_hypotheses(ladder_sets(preset("delta-potential", n=1),
                                           grid_1d), nu=0.05, c0=0.05)
        # sup|d(omega^{-1} phi(x/omega))| = omega^{-2} sup|phi'|, so N2 = 1
        assert rep.potential_exponent_N2 == pytest.approx(1.0, abs=0.2)

    def test_exponent_of_a_field_zero_on_some_members_is_nan(self, grid_1d):
        # V zeroed at eps = 2^-3 only: sup |d^beta V| = 0 there has no
        # logarithm, so every order's fit is nan, and so is N2, not 0.0
        sets = ladder_sets(preset("delta-potential", n=1), grid_1d)
        sets[0].V = np.zeros_like(sets[0].V)
        rep = check_hypotheses(sets, nu=0.05, c0=0.05)
        assert np.isnan(rep.potential_exponent_N2)
        assert len(rep.fit_residuals["potential"]) == 4
        assert all(np.isnan(r) for r in rep.fit_residuals["potential"])

    def test_jump_drift_passes(self, grid_1d):
        rep = check_hypotheses(ladder_sets(preset("jump-drift", n=1), grid_1d),
                               nu=0.05, c0=0.05)
        assert rep.h1_symmetric
        assert max(rep.h4_weighted_im_sup) <= rep.h4_bound

    def test_needs_four_sets(self, grid_1d, gaussian, loglog):
        sets = ladder_sets(preset("free", n=1), grid_1d)[:3]
        with pytest.raises(ModelError):
            check_hypotheses(sets, nu=0.05, c0=0.05)

    @pytest.mark.parametrize("C", [[[2.0, 0.3], [0.3, -1.0]],   # max |lambda| rules
                                   [[0.4, 0.1], [0.1, -1.0]]])  # 1/min |lambda| rules
    def test_mu_is_the_eigenvalue_bound(self, C):
        # a non-diagonal a: its eigenvectors lie off the coordinate axes
        model = CoefficientModel("tilted", 2, np.array(C))
        rep = check_hypotheses(ladder_sets(model, make_grid(2, 8, 8.0)),
                               nu=0.05, c0=0.05)
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
            rep = check_hypotheses(sets, nu=small, c0=small)
            sup, bound = ((rep.h3_weighted_sup, rep.h3_bound) if slot == "h3"
                          else (rep.h4_weighted_im_sup, rep.h4_bound))
            assert bound == 2 * small
            assert (max(sup) <= bound) is passed
            assert rep.passed is passed

    def test_singular_a_fails_h2(self):
        # a_22 = 0: no mu bounds |lambda| from below
        model = CoefficientModel("degenerate", 2, np.diag([1.0, 0.0]))
        rep = check_hypotheses(ladder_sets(model, make_grid(2, 8, 8.0)),
                               nu=0.05, c0=0.05)
        assert rep.mu == np.inf
        assert not rep.passed


class TestAbsEigenvalues:
    """``coeffs._abs_eigenvalues``, the closed form behind
    ``CoefficientSet.abs_eigenvalues`` and ``evolve.stable_dt``, against
    ``np.linalg.eigvalsh``."""

    @staticmethod
    def check(cs):
        mats = cs.matrix_at().reshape(-1, cs.n, cs.n)
        want = np.sort(np.abs(np.linalg.eigvalsh(mats)), axis=1)
        got = np.sort(cs.abs_eigenvalues(), axis=1)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("M", [64, 16], ids=["uniq-2d-ultra", "doi-2d-ultra"])
    def test_benchmark_ladders(self, M):
        spec = make_grid(2, M, 8.0)
        bumps = _bumps(spec, 2)
        for cs in ladder_sets(preset("ultra-diagonal"), spec):
            self.check(cs)
            # the perturbed uniqueness set has a variable a_12
            self.check(_perturbed_set(cs, cs.eps, 3, bumps))

    @pytest.mark.parametrize("c2", [1e-8, -1e-8])
    def test_near_degenerate(self, c2):
        for cs in ladder_sets(preset("ultra-diagonal", c2=c2), make_grid(2, 16, 8.0)):
            self.check(cs)

    def test_one_dimension(self, grid_1d):
        for cs in ladder_sets(preset("elliptic-lipschitz", n=1), grid_1d):
            self.check(cs)
            np.testing.assert_array_equal(cs.abs_eigenvalues()[:, 0],
                                          np.abs(cs.a[0][0]).ravel())

    def test_singular_is_exactly_zero(self):
        cs = sample(CoefficientModel("degenerate", 2, np.diag([1.0, 0.0]), smooth=True),
                    make_grid(2, 8, 8.0))
        self.check(cs)
        assert np.all(np.min(cs.abs_eigenvalues(), axis=1) == 0.0)

    def test_no_workload_calls_eigvalsh(self, monkeypatch, tmp_path):
        def eigvalsh(*args, **kwargs):
            raise AssertionError("eigvalsh called")

        monkeypatch.setattr(np.linalg, "eigvalsh", eigvalsh)
        workloads = sorted((Path(__file__).resolve().parents[1] / "perfbench"
                            / "workloads").glob("*.json"))
        assert workloads
        for path in workloads:
            cfg = cli.parse_config(path.read_text())
            assert cli.run(cfg, out_dir=str(tmp_path / path.stem)) == 0, path


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
        slope, resid = fit_slope(omegas, sups)
        shifts.append(-slope - order)
        residuals.append(resid)
    if not shifts:
        return 0.0, []
    return float(np.maximum(0.0, np.median(shifts))), residuals


class TestExponentShift:
    """Each derivative order of the (H5) exponent fits is built from the
    one before; the report is that of derivatives taken from scratch."""

    @pytest.mark.parametrize("name, n", [
        ("delta-potential", 1), ("jump-drift", 1), ("smooth-consistency", 1),
        ("ultra-diagonal", 2), ("jump-drift", 2), ("smooth-consistency", 2)])
    def test_report_is_bit_identical(self, monkeypatch, grid_1d, grid_2d, name, n):
        sets = ladder_sets(preset(name, n=n), grid_1d if n == 1 else grid_2d)
        got = check_hypotheses(sets, nu=0.05, c0=0.05).to_dict()
        monkeypatch.setattr(coeffs, "_exponent_shift", _exponent_shift_from_scratch)
        assert got == check_hypotheses(sets, nu=0.05, c0=0.05).to_dict()

    @pytest.mark.parametrize("name, n, M, calls", [
        # the net-1d-delta ladder: the zero b is skipped, V takes three
        # derivatives per eps, and da one
        ("delta-potential", 1, 256, 40),
        # b and V are zero: only da remains, six derivatives per eps, as
        # a_12 and a_21 are one array
        ("ultra-diagonal", 2, 64, 60)])
    def test_fft_calls(self, monkeypatch, name, n, M, calls):
        sets = ladder_sets(preset(name, n=n), make_grid(n, M, 8.0))
        count = []
        for fn in ("fft", "ifft"):
            real = getattr(np.fft, fn)
            monkeypatch.setattr(np.fft, fn, lambda *a, real=real, **k:
                                count.append(1) or real(*a, **k))
        check_hypotheses(sets, nu=0.05, c0=0.05)
        assert len(count) == calls


class TestMedian:
    """coeffs._median is np.median, bit for bit, without numpy.ma."""

    @pytest.mark.parametrize("values", [
        [0.3], [2.1, -0.4], [0.1, 0.7, 0.2], [1.0000000000000002, 3.3, -1.7, 0.1],
        [0.1, 0.2, 0.3, 0.4, 0.5], [-0.0, 0.0], [5.0, 5.0, 5.0, 5.0, 5.0, 5.0]])
    def test_equals_np_median(self, values):
        assert coeffs._median(values) == float(np.median(values))

    def test_equals_np_median_on_random_lists(self):
        rng = np.random.default_rng(0)
        for size in range(1, 7):
            for values in rng.normal(0.0, 3.0, (200, size)):
                assert coeffs._median(list(values)) == float(np.median(values))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("values", [
        [np.nan], [0.5, np.nan], [np.nan, 0.5, 1.0], [0.2, 0.1, 0.4, np.nan]])
    def test_nan_gives_nan(self, values):
        assert np.isnan(coeffs._median(values))
        assert np.isnan(np.median(values))


def test_da_is_the_spectral_derivative_of_a(grid_2d, loglog):
    cs = regularise(preset("ultra-diagonal"), 2**-4, loglog, grid_2d)
    assert_da_is_the_derivative_of_a(cs)
    # a_12 and a_21 are one array, whose derivatives are taken once
    assert all(cs.da[k][0][1] is cs.da[k][1][0] for k in range(2))


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
