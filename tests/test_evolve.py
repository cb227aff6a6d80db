from dataclasses import replace

import numpy as np
import pytest

from conftest import LADDER, random_field, record_marches
from vwslab.coeffs import (CoefficientModel, Pointwise, preset, regularise,
                           sample)
from vwslab.evolve import (EvolutionProblem, EvolveError, Instability,
                           apply_spatial, dense_oracle, march,
                           smoothing_report, solve, solve_stack, stable_dt,
                           step_rk4, sup_differences)
from vwslab.grid import Field, forward, make_grid, plane_wave, sobolev_norm
from vwslab.mollify import ScaleFn
from vwslab import evolve
from vwslab.evolve import (LEVELS, RK4_IMAG_LIMIT, SAFETY, _Diagnostics, _Operator,
                           shared_steps)
from vwslab.grid import (apply_lambda, fft, inverse, spectral_derivative,
                         weight_field)
from vwslab.coeffs import enveloped_bump
from vwslab.vwsnet import (COARSE, NetParams, _bumps, _h2_margin, _perturbed_set,
                           delta_field, ladder, rough_field)


def preset_set(name, spec, eps=2**-4):
    return regularise(preset(name, n=spec.n), eps, ScaleFn("loglog"), spec)


def free_set(spec):
    return preset_set("free", spec)


class TestApplySpatial:
    def test_free_plane_wave_eigenvalue(self):
        spec = make_grid(1, 16, np.pi)
        u = plane_wave(spec, (1,))
        out = apply_spatial(free_set(spec), u)
        assert np.allclose(out, u.values, atol=1e-12)

    def test_ultra_diagonal_null_direction(self):
        spec = make_grid(2, 16, np.pi)
        cs = regularise(preset("ultra-diagonal", nu=0.0, c0=0.0), 2**-4,
                        ScaleFn("loglog"), spec)
        u = plane_wave(spec, (1, 1))
        out = apply_spatial(cs, u)
        assert np.max(np.abs(out)) < 1e-12

    def test_constant_potential_adds_linearly(self):
        spec = make_grid(1, 32, np.pi)
        model = CoefficientModel("shifted", 1, np.eye(1),
                                 potential=Pointwise(lambda x: 3.0 + 0 * x),
                                 smooth=True)
        cs = regularise(model, 2**-4, ScaleFn("loglog"), spec)
        base = apply_spatial(free_set(spec), plane_wave(spec, (2,)))
        out = apply_spatial(cs, plane_wave(spec, (2,)))
        assert np.allclose(out, base + 3.0 * plane_wave(spec, (2,)).values,
                           atol=1e-11)


class TestStepRK4:
    def test_zero_stays_zero(self):
        spec = make_grid(1, 16, np.pi)
        cs = free_set(spec)
        prob = EvolutionProblem(cs, Field(spec, np.zeros(16, dtype=complex)),
                                T=1.0, dt=1e-2)
        out = step_rk4(prob.u0, 0.0, prob.dt, prob)
        assert np.max(np.abs(out.values)) == 0.0

    def test_instability_detected(self):
        spec = make_grid(1, 64, np.pi)
        cs = preset_set("smooth-consistency", spec)
        prob = EvolutionProblem(cs, random_field(spec, seed=1), T=1.0, dt=None)
        with pytest.raises(Instability):
            step_rk4(prob.u0, 0.0, 50 * stable_dt(cs), prob)

    @pytest.mark.parametrize("dt", [0.0, -0.01], ids=["zero", "negative"])
    def test_problem_rejects_non_positive_dt(self, dt):
        spec = make_grid(1, 32, np.pi)
        cs = regularise(preset("delta-potential"), 2**-4, ScaleFn("loglog"), spec)
        with pytest.raises(EvolveError, match="must be positive"):
            EvolutionProblem(cs, random_field(spec, seed=1), T=0.1, dt=dt)

    @pytest.mark.parametrize("slot", ["initial data", "forcing"])
    def test_problem_rejects_a_field_on_another_grid(self, slot):
        spec, other = make_grid(1, 32, np.pi), make_grid(1, 32, 8.0)
        fields = {"initial data": random_field(spec, seed=1), "forcing": None}
        fields[slot] = random_field(other, seed=2)
        with pytest.raises(EvolveError, match=f"{slot} grid does not match"):
            EvolutionProblem(free_set(spec), fields["initial data"],
                             fields["forcing"], T=0.1)

    def test_problem_rejects_unstable_dt(self):
        # the free flow has no remainder and no bound
        spec = make_grid(1, 64, np.pi)
        cs = preset_set("smooth-consistency", spec)
        with pytest.raises(EvolveError):
            EvolutionProblem(cs, random_field(spec, seed=1), T=1.0,
                             dt=10 * stable_dt(cs))

    def test_fourth_order_convergence(self):
        # the step is exact on the free flow, so the order shows only where
        # the coefficients leave a remainder
        spec = make_grid(1, 16, 8.0)
        u0 = random_field(spec, seed=5)
        for name in ("jump-drift", "delta-potential", "smooth-consistency",
                     "elliptic-lipschitz"):
            cs = preset_set(name, spec)
            exact = dense_oracle(EvolutionProblem(cs, u0, T=1.0, dt=1e-3)).values

            def err(dt):
                prob = EvolutionProblem(cs, u0, T=1.0, dt=dt)
                res = solve(prob)
                return np.max(np.abs(res.final.values - exact))

            ratio = err(0.05) / err(0.025)
            assert 14.0 <= ratio <= 18.0, f"{name}: ratio {ratio}"


class TestSolve:
    @staticmethod
    def localised_data(spec, seed):
        # random phases under a gaussian spectral envelope: RK4's phase
        # damping on the top modes stays below round-off at dt = 1e-3
        rng = np.random.default_rng(seed)
        kap = spec.kappa_mesh()[0]
        coeffs = np.exp(-(kap**2) / 2) * np.exp(2j * np.pi * rng.random(spec.shape))
        from vwslab.grid import inverse
        return Field(spec, inverse(coeffs, spec))

    def test_free_l2_conservation(self):
        spec = make_grid(1, 64, 8.0)
        cs = free_set(spec)
        u0 = self.localised_data(spec, seed=2)
        res = solve(EvolutionProblem(cs, u0, T=1.0, dt=1e-3))
        norms = res.series.norms[0.0]
        ref = sobolev_norm(u0, 0.0)
        assert np.max(np.abs(norms - ref)) / ref < 1e-8

    def test_delta_potential_l2_conservation(self):
        spec = make_grid(1, 64, 8.0)
        cs = regularise(preset("delta-potential", n=1), 2**-5, ScaleFn("loglog"), spec)
        u0 = self.localised_data(spec, seed=3)
        res = solve(EvolutionProblem(cs, u0, T=1.0, dt=1e-3))
        norms = res.series.norms[0.0]
        ref = sobolev_norm(u0, 0.0)
        assert np.max(np.abs(norms - ref)) / ref < 1e-8

    def test_zero_mode_sees_only_forcing(self):
        spec = make_grid(1, 32, np.pi)
        cs = free_set(spec)
        g = Field(spec, np.full(32, 2.0, dtype=complex))
        u0 = Field(spec, np.zeros(32, dtype=complex))
        res = solve(EvolutionProblem(cs, u0, g, T=1.0, dt=1e-3))
        zero_mode = forward(res.final)[0]
        assert zero_mode == pytest.approx(2.0j, rel=1e-8)

    def test_duhamel_linearity(self):
        spec = make_grid(1, 32, 8.0)
        cs = regularise(preset("jump-drift", n=1), 2**-4, ScaleFn("loglog"), spec)
        ua, ub = random_field(spec, seed=4), random_field(spec, seed=5)
        ga, gb = random_field(spec, seed=6), random_field(spec, seed=7)
        dt = stable_dt(cs)
        ra = solve(EvolutionProblem(cs, ua, ga, T=0.5, dt=dt)).final.values
        rb = solve(EvolutionProblem(cs, ub, gb, T=0.5, dt=dt)).final.values
        both = Field(spec, ua.values + ub.values)
        gsum = Field(spec, ga.values + gb.values)
        rc = solve(EvolutionProblem(cs, both, gsum, T=0.5, dt=dt)).final.values
        scale = np.max(np.abs(rc))
        assert np.max(np.abs(rc - ra - rb)) / scale < 1e-10

    def test_time_stamps_and_norm_series(self):
        spec = make_grid(1, 32, 8.0)
        cs = free_set(spec)
        res = solve(EvolutionProblem(cs, random_field(spec, seed=8),
                                     T=0.5, s_list=(0.0, 1.0)))
        t = res.series.t
        assert t[0] == 0.0 and t[-1] == pytest.approx(0.5)
        assert np.all(np.diff(t) > 0)
        assert set(res.series.norms) == {0.0, 1.0}
        assert np.all(res.series.integrand[0.0] >= 0.0)
        assert np.all(np.diff(res.series.integral[0.0]) >= 0.0)

    def test_integral_matches_scipy_trapezoid(self):
        from scipy.integrate import cumulative_trapezoid

        spec = make_grid(1, 32, 8.0)
        res = solve(EvolutionProblem(free_set(spec), random_field(spec, seed=8),
                                     T=0.5, s_list=(0.0, 1.0)))
        for s, v in res.series.integrand.items():
            ref = np.concatenate([[0.0], cumulative_trapezoid(v, res.series.t)])
            assert np.array_equal(res.series.integral[s], ref)

    def test_spectral_exactness_under_refinement(self):
        # band-limited coefficient x band-limited state: doubling M must
        # not change apply_spatial on the shared nodes
        def model():
            return CoefficientModel(
                "banded", 1, np.eye(1),
                perturb={(0, 0): Pointwise(lambda x: 0.2 * np.cos(np.pi * x / 8))},
                smooth=True)

        outs = {}
        for M in (64, 128):
            spec = make_grid(1, M, 8.0)
            cs = regularise(model(), 2**-4, ScaleFn("loglog"), spec)
            u = plane_wave(spec, (5,))
            outs[M] = apply_spatial(cs, u)
        assert np.allclose(outs[64], outs[128][::2], atol=1e-11)


class TestDenseOracle:
    def test_free_matches_closed_form(self):
        spec = make_grid(1, 16, np.pi)
        cs = free_set(spec)
        k = 2
        u0 = plane_wave(spec, (k,))
        prob = EvolutionProblem(cs, u0, T=0.7, dt=1e-2)
        out = dense_oracle(prob)
        exact = u0.values * np.exp(1j * k**2 * 0.7)
        assert np.max(np.abs(out.values - exact)) < 1e-10

    def test_unitary_preservation(self):
        spec = make_grid(1, 16, 8.0)
        cs = regularise(preset("delta-potential", n=1), 2**-4, ScaleFn("loglog"), spec)
        u0 = random_field(spec, seed=9)
        prob = EvolutionProblem(cs, u0, T=1.0, dt=1e-2)
        out = dense_oracle(prob)
        assert sobolev_norm(out, 0.0) == pytest.approx(
            sobolev_norm(u0, 0.0), rel=1e-12)

    def test_forced_oracle_matches_stepper(self):
        spec = make_grid(1, 16, 8.0)
        cs = regularise(preset("jump-drift", n=1), 2**-4, ScaleFn("loglog"), spec)
        u0 = random_field(spec, seed=10)
        g = random_field(spec, seed=11)
        prob = EvolutionProblem(cs, u0, g, T=0.5, dt=1e-3)
        stepped = solve(prob).final
        exact = dense_oracle(prob)
        gap = sobolev_norm(Field(spec, stepped.values - exact.values), 0.0)
        assert gap / sobolev_norm(exact, 0.0) < 1e-6

    def test_size_limit(self):
        spec = make_grid(1, 64, 8.0)
        prob = EvolutionProblem(free_set(spec), random_field(spec, seed=12),
                                T=0.5)
        with pytest.raises(EvolveError):
            dense_oracle(prob)


class TestSmoothingReport:
    @staticmethod
    def ladder_series(name, u0_seed=13, **params):
        spec = make_grid(1, 64, 8.0)
        model = preset(name, n=1, **params)
        u0 = random_field(spec, u0_seed)
        series, rhs = {}, {}
        for eps in LADDER:
            cs = regularise(model, eps, ScaleFn("loglog"), spec)
            res = solve(EvolutionProblem(cs, u0, T=0.5,
                                         s_list=(0.0,), N_weight=2))
            series[eps] = (cs.omega, res.series)
            rhs[eps] = (sobolev_norm(u0, 0.0) ** 2, 0.0)
        return series, rhs

    def test_smooth_preset_has_flat_exponent(self):
        series, rhs = self.ladder_series("smooth-consistency")
        rep = smoothing_report(series, 0.0, rhs, 0.5)
        assert rep["holds"]
        assert rep["k1"] == pytest.approx(0.0, abs=0.3)
        assert max(rep["ratio"]) < 50.0

    def test_zero_data_is_trivially_bounded(self):
        spec = make_grid(1, 32, 8.0)
        cs = free_set(spec)
        u0 = Field(spec, np.zeros(32, dtype=complex))
        series, rhs = {}, {}
        for eps in LADDER[:4]:
            res = solve(EvolutionProblem(cs, u0, T=0.2,
                                         s_list=(0.0,)))
            series[eps] = (0.5, res.series)
            rhs[eps] = (0.0, 0.0)
        rep = smoothing_report(series, 0.0, rhs, 0.2)
        assert rep["holds"]
        assert rep["C2"] == 1.0

    def test_delta_potential_gain_is_finite(self):
        series, rhs = self.ladder_series("delta-potential")
        rep = smoothing_report(series, 0.0, rhs, 0.5)
        assert rep["holds"]
        assert all(np.isfinite(v) and v > 0 for v in rep["lhs"])
        assert rep["C1"] > 0 and rep["C2"] > 0 and rep["k1"] >= 0.0


def _apply_spatial_per_axis(cs, vals):
    """Reference form of A u + B u + V u: one spectral derivative per axis."""
    spec, n = cs.spec, cs.spec.n
    du = [-1j * spectral_derivative(vals, spec, j) for j in range(n)]
    out = np.zeros_like(vals)
    for i in range(n):
        acc = sum(cs.a[i][j] * du[j] for j in range(n))
        out += -1j * spectral_derivative(acc, spec, i)
    for k in range(n):
        out += cs.b[k] * du[k]
    return out + cs.V * vals


def _counting(monkeypatch, module, names):
    calls = {"n": 0}
    for name in names:
        fn = getattr(module, name)

        def counted(*args, _fn=fn, **kwargs):
            calls["n"] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    return calls


CASES = {
    "ultra-diagonal-2d": (make_grid(2, 32, 8.0), "ultra-diagonal"),
    "delta-potential-1d": (make_grid(1, 128, 8.0), "delta-potential"),
    "jump-drift-1d": (make_grid(1, 128, 8.0), "jump-drift"),
}


class TestOneTransformPaths:
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_apply_spatial_matches_per_axis_form(self, case):
        spec, name = CASES[case]
        cs = regularise(preset(name), 2**-5, ScaleFn("loglog"), spec)
        u = rough_field(spec, 0.0, seed=4)
        ref = _apply_spatial_per_axis(cs, u.values)
        np.testing.assert_allclose(apply_spatial(cs, u), ref, rtol=1e-12,
                                   atol=1e-12 * np.max(np.abs(ref)))

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("N", [0, 2, 4])
    def test_diagnostics_match_reference(self, n, N):
        spec = make_grid(n, 32, 6.0)
        u = rough_field(spec, 0.0, seed=n + N)
        s_list = (-0.5, 0.0, 1.0, 2.0)
        rows = _Diagnostics(spec, s_list, N)(fft(u.values[None], n))[0]
        for s, (norm, integrand) in zip(s_list, rows):
            assert norm == pytest.approx(sobolev_norm(u, s), rel=1e-12)
            ref = sobolev_norm(weight_field(apply_lambda(u, s + 0.5), -N / 2.0),
                               0.0) ** 2
            assert integrand == pytest.approx(ref, rel=1e-12)

    @pytest.mark.parametrize("n, ffts", [(1, 2), (2, 2)])
    def test_apply_spatial_fft_budget(self, monkeypatch, n, ffts):
        spec = make_grid(n, 16, np.pi)
        cs = free_set(spec)
        calls = _counting(monkeypatch, evolve, ("fft", "ifft"))
        apply_spatial(cs, random_field(spec, seed=2))
        assert calls["n"] == ffts

    @pytest.mark.parametrize("s_list", [(0.0,), (0.0, 1.0), (-0.5, 0.0, 1.0, 2.0)])
    def test_diagnostics_fft_budget(self, monkeypatch, s_list):
        spec = make_grid(2, 16, np.pi)
        diagnose = _Diagnostics(spec, s_list, 2)
        uh = fft(random_field(spec, seed=3).values[None], spec.n)
        calls = _counting(monkeypatch, evolve, ("fft", "ifft"))
        diagnose(uh)
        assert calls["n"] == len(s_list)


class TestStepCount:
    def test_rounding_down_never_exceeds_bound(self):
        spec = make_grid(1, 32, np.pi)
        cs = preset_set("smooth-consistency", spec)
        limit = stable_dt(cs)
        # T/dt = 1.12 rounds to one step of 1.12 times the bound
        prob = EvolutionProblem(cs, random_field(spec, seed=5), T=1.4 * limit,
                                dt=limit / SAFETY)
        ts = solve(prob).series.t
        assert len(ts) == 3
        assert np.max(np.diff(ts)) <= prob.dt_bound

    def test_rounding_down_within_bound_keeps_count(self):
        spec = make_grid(1, 32, np.pi)
        cs = preset_set("smooth-consistency", spec)
        prob = EvolutionProblem(cs, random_field(spec, seed=5),
                                T=3.02 * stable_dt(cs), dt=stable_dt(cs))
        assert len(solve(prob).series.t) == 4


class TestDefaultStep:
    """The default step is min(T/LEVELS, stable_dt); at it the march keeps
    unitary flows unitary and the net-1d-delta ladder converged."""

    def test_levels_or_the_bound(self):
        spec = make_grid(1, 32, 8.0)
        cs = preset_set("smooth-consistency", spec)
        limit = stable_dt(cs)
        for T, dt in ((0.5, 0.5 / LEVELS), (100 * limit, limit)):
            prob = EvolutionProblem(cs, random_field(spec, seed=5), T=T)
            assert prob.dt == dt
        assert EvolutionProblem(free_set(spec), random_field(spec, seed=5),
                                T=0.5).dt == 0.5 / LEVELS

    def test_shared_steps_at_a_level_count(self):
        # T / levels where the bound allows it, else the bound's count
        spec = make_grid(1, 32, 8.0)
        cs = preset_set("smooth-consistency", spec)
        u0, limit = random_field(spec, seed=5), stable_dt(cs)
        for levels in (COARSE, LEVELS):
            assert shared_steps([EvolutionProblem(cs, u0, T=0.5)], levels) == levels
            prob = EvolutionProblem(cs, u0, T=100 * limit)
            assert shared_steps([prob], levels) == shared_steps([prob]) == 100
        # a given dt sets the count without levels, and levels replace it
        prob = EvolutionProblem(cs, u0, T=0.5, dt=0.01)
        assert (shared_steps([prob]), shared_steps([prob], COARSE)) == (50, COARSE)

    def test_solve_takes_a_step_count(self):
        spec = make_grid(1, 32, 8.0)
        prob = EvolutionProblem(preset_set("smooth-consistency", spec),
                                random_field(spec, seed=5), T=0.5)
        got = solve(prob, steps=COARSE)
        np.testing.assert_allclose(got.series.t, np.linspace(0.0, 0.5, COARSE + 1),
                                   rtol=1e-12)
        want = list(march([prob], COARSE))[-1][1]
        _close(got.final.values, evolve.ifft(want, spec.n)[0])

    @pytest.mark.parametrize("data", ["delta", "rough"])
    @pytest.mark.parametrize("name", ["free", "delta-potential"])
    def test_l2_conserved(self, name, data):
        spec = make_grid(1, 256, 8.0)
        u0 = delta_field(spec) if data == "delta" else rough_field(spec, 0.0, seed=1)
        for eps in (2**-3, 2**-5, 2**-7):
            res = solve(EvolutionProblem(preset_set(name, spec, eps), u0, T=0.125))
            norms = res.series.norms[0.0]
            assert np.max(np.abs(norms / sobolev_norm(u0, 0.0) - 1.0)) <= 1e-3

    def test_net_ladder_matches_a_converged_march(self):
        # the net-1d-delta benchmark ladder: u(T) and the smoothing
        # integrals of every member against 2048 steps
        spec = make_grid(1, 256, 8.0)
        params = NetParams(spec=spec, T=0.125, s_list=(0.0, 1.0))
        members = ladder(preset("delta-potential", n=1), params, delta_field(spec))
        for eps, m in members.items():
            got, conv = (solve(EvolutionProblem(m["cs"], m["u0"], T=params.T, dt=dt,
                                                s_list=params.s_list))
                         for dt in (None, params.T / 2048))
            assert len(got.series.t) == LEVELS + 1
            assert len(conv.series.t) == 2049
            gap = np.linalg.norm(got.final.values - conv.final.values)
            assert gap <= 2e-3 * np.linalg.norm(conv.final.values), eps
            for s in params.s_list:
                assert got.series.final_integral(s) == pytest.approx(
                    conv.series.final_integral(s), rel=2e-3), (eps, s)


def _phi_table(z):
    """[e^z, phi_1(z), phi_2(z), phi_3(z)] at every z: the first row of
    expm([[z, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1], [0, 0, 0, 0]])."""
    from scipy.linalg import expm

    flat = np.ravel(z)
    aug = np.zeros((flat.size, 4, 4), dtype=complex)
    aug[:, 0, 0] = flat
    aug[:, 0, 1] = aug[:, 1, 2] = aug[:, 2, 3] = 1.0
    row = expm(aug)[:, 0, :]
    return [row[:, k].reshape(np.shape(z)) for k in range(4)]


class TestPhi:
    # z crosses the closed-form/series switch at |z| = 0.2 on both sides,
    # on the imaginary axis where the mean symbol puts it and off it
    Z = np.concatenate([1j * np.linspace(-3.0, 3.0, 601),
                        np.linspace(-2.0, 0.5, 51) + 0.1j])

    def test_against_expm(self):
        for got, want in zip(evolve._phi(self.Z), _phi_table(self.Z)[1:]):
            assert np.max(np.abs(got - want) / np.abs(want)) < 2e-13

    def test_phi_1_alone_is_the_first_of_three(self):
        assert np.array_equal(evolve._phi(self.Z, last=1)[0],
                              evolve._phi(self.Z)[0])
        assert len(evolve._phi(self.Z, last=1)) == 1


def _physical_rk4(prob, steps):
    """Reference march: ETD-RK4 (Cox & Matthews) on grid values.

    The grid means of the coefficients make the exact part, a Fourier
    multiplier through forward/inverse with phi-functions from expm; the
    rest goes through the per-axis form of the remaining coefficients.
    """
    cs, forcing, spec = prob.cs, prob.forcing, prob.cs.spec
    h, n, km = prob.T / steps, spec.n, spec.kappa_mesh()
    a = [[cs.a[i][j].mean() for j in range(n)] for i in range(n)]
    b = [bk.mean() for bk in cs.b]
    lam = (sum(a[i][j] * km[i] * km[j] for i in range(n) for j in range(n))
           + sum(b[k] * km[k] for k in range(n)) + cs.V.mean())
    rest = replace(cs, a=[[cs.a[i][j] - a[i][j] for j in range(n)] for i in range(n)],
                   b=[cs.b[k] - b[k] for k in range(n)], V=cs.V - cs.V.mean())

    def mult(m, v):
        return inverse(m * forward(v, spec), spec)

    def F(v):
        total = _apply_spatial_per_axis(rest, v)
        return 1j * (total if forcing is None else total + forcing.values)

    E, p1, p2, p3 = _phi_table(1j * h * lam)
    E2, q1, _, _ = _phi_table(0.5j * h * lam)
    v = prob.u0.values.copy()
    states = [v]
    for _ in range(steps):
        Fv = F(v)
        x = mult(E2, v) + 0.5 * h * mult(q1, Fv)
        Fx = F(x)
        y = mult(E2, v) + 0.5 * h * mult(q1, Fx)
        Fy = F(y)
        w = mult(E2, x) + 0.5 * h * mult(q1, 2.0 * Fy - Fv)
        Fw = F(w)
        v = (mult(E, v) + h * mult(p1 - 3.0 * p2 + 4.0 * p3, Fv)
             + 2.0 * h * mult(p2 - 2.0 * p3, Fx + Fy) + h * mult(4.0 * p3 - p2, Fw))
        states.append(v)
    return states


def _close(got, want):
    np.testing.assert_allclose(got, want, rtol=1e-12,
                               atol=1e-12 * np.max(np.abs(want)))


MARCH_CASES = {
    "delta-potential-1d": (make_grid(1, 64, 8.0), "delta-potential"),
    "jump-drift-1d": (make_grid(1, 64, 8.0), "jump-drift"),
    "smooth-consistency-1d": (make_grid(1, 64, 8.0), "smooth-consistency"),
    "ultra-diagonal-2d": (make_grid(2, 16, 8.0), "ultra-diagonal"),
}


def _off_diagonal_model(perturbed):
    """Constant C with a non-zero off-diagonal; optionally a variable a_00,
    drift and potential beside the constant entries."""
    extra = {}
    if perturbed:
        extra = dict(perturb={(0, 0): enveloped_bump(2, 0.05)},
                     drift_im={1: enveloped_bump(2, 0.05)},
                     potential=enveloped_bump(2, 0.5))
    return CoefficientModel("off-diagonal", 2, [[1.0, 0.3], [0.3, -1.0]],
                            **extra)


class TestCoefficientMarch:
    @pytest.mark.parametrize("case", sorted(MARCH_CASES))
    def test_solve_matches_physical_rk4(self, case):
        spec, name = MARCH_CASES[case]
        cs = regularise(preset(name), 2**-4, ScaleFn("loglog"), spec)
        s_list, N = (0.0, 1.0), 2
        prob = EvolutionProblem(cs, random_field(spec, seed=20),
                                random_field(spec, seed=21),
                                T=0.1, s_list=s_list, N_weight=N)
        res = solve(prob, record_states=True)
        ref = _physical_rk4(prob, len(res.series.t) - 1)
        _close(res.final.values, ref[-1])
        assert len(res.states) == len(ref)
        for got, want in zip(res.states, ref):
            _close(got, want)
        fields = [Field(spec, v) for v in ref]
        for s in s_list:
            np.testing.assert_allclose(
                res.series.norms[s], [sobolev_norm(f, s) for f in fields],
                rtol=1e-12)
            np.testing.assert_allclose(
                res.series.integrand[s],
                [sobolev_norm(weight_field(apply_lambda(f, s + 0.5), -N / 2.0),
                              0.0) ** 2 for f in fields],
                rtol=1e-12)

    def test_step_rk4_is_the_step_of_solve(self):
        spec, name = MARCH_CASES["jump-drift-1d"]
        cs = regularise(preset(name), 2**-4, ScaleFn("loglog"), spec)
        prob = EvolutionProblem(cs, random_field(spec, seed=22),
                                random_field(spec, seed=23),
                                T=0.03)
        res = solve(prob, record_states=True)
        t, dt = res.series.t, np.diff(res.series.t)
        u = prob.u0
        for k in range(len(dt)):
            u = step_rk4(u, t[k], dt[k], prob)
            _close(u.values, res.states[k + 1])

    @pytest.mark.parametrize("perturbed", [False, True],
                             ids=["constant", "mixed"])
    def test_off_diagonal_matches_per_axis_form(self, perturbed):
        spec = make_grid(2, 32, 8.0)
        cs = regularise(_off_diagonal_model(perturbed), 2**-5, ScaleFn("loglog"), spec)
        u = rough_field(spec, 0.0, seed=6)
        _close(apply_spatial(cs, u), _apply_spatial_per_axis(cs, u.values))

    def test_constant_drift_and_potential_enter_the_symbol(self, monkeypatch):
        spec = make_grid(2, 32, 8.0)
        cs = regularise(_off_diagonal_model(False), 2**-5, ScaleFn("loglog"), spec)
        cs.b = [np.full(spec.shape, 0.2 + 0.1j), np.full(spec.shape, -0.4j)]
        cs.V = np.full(spec.shape, 0.7)
        u = rough_field(spec, 0.0, seed=7)
        _close(apply_spatial(cs, u), _apply_spatial_per_axis(cs, u.values))
        op, uh = _Operator([cs]), fft(u.values[None], spec.n)
        calls = _counting(monkeypatch, evolve, ("fft", "ifft"))
        op(uh)
        assert calls["n"] == 0

    @pytest.mark.parametrize("name, n, ffts", [
        ("free", 1, 0), ("free", 2, 0), ("delta-potential", 1, 2),
        ("jump-drift", 1, 2), ("smooth-consistency", 1, 4),
        ("ultra-diagonal", 2, 4)])
    def test_rhs_fft_budget(self, monkeypatch, name, n, ffts):
        spec = make_grid(n, 16, np.pi)
        cs = regularise(preset(name, n=n), 2**-4, ScaleFn("loglog"), spec)
        op, uh = _Operator([cs]), fft(random_field(spec, seed=2).values[None], n)
        calls = _counting(monkeypatch, evolve, ("fft", "ifft"))
        op(uh)
        assert calls["n"] == ffts

    def test_solve_transforms_no_step_to_the_grid(self, monkeypatch):
        spec = make_grid(1, 32, np.pi)
        prob = EvolutionProblem(free_set(spec), random_field(spec, seed=3),
                                T=0.5, s_list=(0.0,))
        calls = _counting(monkeypatch, evolve, ("fft", "ifft"))
        steps = len(solve(prob).series.t) - 1
        # u0 in, one integrand per diagnostics row, the final state out
        assert calls["n"] == 1 + (steps + 1) + 1


SPECTRAL_CASES = [("free", 1), ("free", 2), ("ultra-diagonal", 2),
                  ("elliptic-lipschitz", 1), ("elliptic-lipschitz", 2),
                  ("delta-potential", 1), ("jump-drift", 1),
                  ("smooth-consistency", 1), ("smooth-consistency", 2)]


class TestSpectralNorms:
    @staticmethod
    def svd_reference(cs):
        A = cs.matrix_at().reshape(-1, cs.n, cs.n)
        return np.linalg.svd(A, compute_uv=False)

    @staticmethod
    def check(cs):
        sv = TestSpectralNorms.svd_reference(cs)
        # stable_dt bounds the remainder about the grid means, zero for
        # constant entries
        def rest(arr):
            return arr - arr.flat[0] if np.all(arr == arr.flat[0]) else arr - arr.mean()

        A = cs.matrix_at()
        for i in range(cs.n):
            for j in range(cs.n):
                A[..., i, j] = rest(A[..., i, j])
        A = A.reshape(-1, cs.n, cs.n)
        kmax = float(np.max(np.abs(cs.spec.kappa_axis())))
        bmax = max(float(np.max(np.abs(rest(bk)))) for bk in cs.b)
        rho = (np.max(np.linalg.svd(A, compute_uv=False)) * kmax**2 + bmax * kmax
               + float(np.max(np.abs(rest(cs.V)))))
        if rho == 0.0:
            assert stable_dt(cs) == np.inf
        else:
            assert stable_dt(cs) == pytest.approx(SAFETY * RK4_IMAG_LIMIT / rho,
                                                  rel=1e-14)
        assert _h2_margin(cs) == pytest.approx(np.min(sv), rel=1e-14)
        np.testing.assert_allclose(np.sort(cs.abs_eigenvalues(), axis=1),
                                   np.sort(sv, axis=1), rtol=1e-14)

    @pytest.mark.parametrize("name, n", SPECTRAL_CASES)
    def test_presets_match_svd(self, name, n):
        spec = make_grid(n, 32, 8.0)
        self.check(regularise(preset(name, n=n), 2**-4, ScaleFn("loglog"), spec))

    @pytest.mark.parametrize("model", ["off-diagonal", "ultra-diagonal"])
    def test_perturbed_sets_match_svd(self, model):
        spec = make_grid(2, 32, 8.0)
        m = (_off_diagonal_model(True) if model == "off-diagonal"
             else preset(model))
        cs = regularise(m, 2**-2, ScaleFn("loglog"), spec)
        self.check(_perturbed_set(cs, 2**-2, 1, _bumps(spec, 2)))


def _reference_sup_differences(ref, others, s, dt):
    """Each problem solved on its own at step dt, keeping every state, and
    the H^s norm of every difference."""
    def states(p):
        return solve(EvolutionProblem(p.cs, p.u0, p.forcing, T=p.T, dt=dt),
                     record_states=True).states

    base = states(ref)
    out = []
    for p in others:
        xs = states(p)
        assert len(xs) == len(base)
        out.append(max(sobolev_norm(Field(p.cs.spec, x - b), s)
                       for x, b in zip(xs, base)))
    return out


def _perturbed_pair(spec, name):
    """An eps = 2^-4 member and its eps^1-perturbed coefficients, with data
    and forcing that differ too."""
    eps, model = 2**-4, preset(name, n=spec.n)
    cs = regularise(model, eps, ScaleFn("loglog"), spec)
    u0, g = random_field(spec, seed=30), random_field(spec, seed=31)
    u0_p = Field(spec, u0.values + eps * random_field(spec, seed=32).values)
    return (EvolutionProblem(cs, u0, g, T=0.1),
            [EvolutionProblem(_perturbed_set(cs, eps, 1, _bumps(spec, model.N)), u0_p,
                              g, T=0.1)])


def _classical_and_mollified(spec):
    """The classical smooth-consistency problem and two mollified members."""
    model = preset("smooth-consistency", n=spec.n)
    u0 = random_field(spec, seed=33)
    return (EvolutionProblem(sample(model, spec), u0, T=0.1),
            [EvolutionProblem(regularise(model, eps, ScaleFn("power", k=1.0), spec),
                              u0, T=0.1)
             for eps in (2**-2, 2**-4)])


SUP_CASES = {
    "delta-potential-1d": lambda: _perturbed_pair(make_grid(1, 64, 8.0),
                                                  "delta-potential"),
    "ultra-diagonal-2d": lambda: _perturbed_pair(make_grid(2, 16, 8.0),
                                                 "ultra-diagonal"),
    "smooth-consistency-1d": lambda: _classical_and_mollified(make_grid(1, 64, 8.0)),
}


class TestMarch:
    def test_yields_the_coefficients_of_every_level(self):
        spec, name = MARCH_CASES["jump-drift-1d"]
        cs = regularise(preset(name), 2**-4, ScaleFn("loglog"), spec)
        prob = EvolutionProblem(cs, random_field(spec, seed=24),
                                random_field(spec, seed=25), T=0.03)
        levels = list(march([prob]))
        ref = _physical_rk4(prob, len(levels) - 1)
        np.testing.assert_allclose([t for t, _ in levels],
                                   np.linspace(0.0, prob.T, len(levels)), rtol=1e-12)
        for (_, uh), want in zip(levels, ref):
            _close(evolve.ifft(uh, spec.n)[0], want)

    def test_given_step_count(self):
        spec = make_grid(1, 32, np.pi)
        prob = EvolutionProblem(free_set(spec), random_field(spec, seed=26),
                                T=0.5)
        steps = len(list(march([prob]))) - 1 + 3
        ts = [t for t, _ in march([prob], steps)]
        assert len(ts) == steps + 1
        np.testing.assert_allclose(np.diff(ts), 0.5 / steps, rtol=1e-12)


def _assert_same_result(got, want):
    """Two SolveResults hold the same numbers, bit for bit."""
    assert np.array_equal(got.final.values, want.final.values)
    assert np.array_equal(got.series.t, want.series.t)
    for table in ("norms", "integrand", "integral"):
        a, b = getattr(got.series, table), getattr(want.series, table)
        assert a.keys() == b.keys()
        for s in a:
            assert np.array_equal(a[s], b[s]), (table, s)
    assert (got.states is None) == (want.states is None)
    if want.states is not None:
        assert len(got.states) == len(want.states)
        for x, y in zip(got.states, want.states):
            assert np.array_equal(x, y)


def _stack_case(case):
    """Problems of one grid and T that differ in coefficients, data and
    forcing, with the s list of the net-1d-delta workload."""
    if case == "delta-potential-1d":
        # the net-1d-delta ladder on a smaller grid
        spec = make_grid(1, 64, 8.0)
        params = NetParams(spec=spec, T=0.125, s_list=(0.0, 1.0))
        members = ladder(preset("delta-potential", n=1), params, delta_field(spec))
        return [EvolutionProblem(m["cs"], m["u0"], T=params.T, s_list=params.s_list)
                for m in members.values()]
    if case == "ultra-diagonal-2d":
        spec = make_grid(2, 16, 8.0)
        sets = [preset_set("ultra-diagonal", spec, eps) for eps in (2**-3, 2**-5, 2**-7)]
    else:
        # a source on some members only, and members that differ in which
        # coefficients are constant: none, V, b or a_11 variable
        spec = make_grid(1, 64, 8.0)
        sets = [preset_set(name, spec) for name in
                ("free", "delta-potential", "jump-drift", "smooth-consistency")]
    forcing = case == "forcing-1d"
    return [EvolutionProblem(cs, random_field(spec, seed=40 + k),
                             random_field(spec, seed=50 + k) if forcing and k % 2 else None,
                             T=0.1, s_list=(0.0, 1.0))
            for k, cs in enumerate(sets)]


class TestSolveStack:
    """A stack marches each member as it would march alone: the same
    numbers bit for bit."""

    @pytest.mark.parametrize("record_states", [False, True], ids=["norms", "states"])
    @pytest.mark.parametrize("case", ["delta-potential-1d", "ultra-diagonal-2d",
                                      "forcing-1d"])
    def test_matches_one_by_one(self, case, record_states):
        probs = _stack_case(case)
        steps = shared_steps(probs)
        got = solve_stack(probs, record_states, steps)
        assert len(got) == len(probs)
        for prob, res in zip(probs, got):
            _assert_same_result(res, solve(prob, record_states, steps))

    def test_one_march_for_the_stack(self, monkeypatch):
        probs = _stack_case("forcing-1d")
        marches = record_marches(monkeypatch)
        solve_stack(probs)
        assert [len(ts) - 1 for ts in marches] == [shared_steps(probs)]

    def test_default_steps_are_shared(self):
        # the smallest default step of the members sets the count of all: at
        # T = 4 the jump-drift bound takes more than LEVELS steps
        probs = [EvolutionProblem(p.cs, p.u0, p.forcing, T=4.0, s_list=p.s_list)
                 for p in _stack_case("forcing-1d")]
        got = solve_stack(probs)
        assert {len(res.series.t) - 1 for res in got} == {shared_steps(probs)}
        assert shared_steps(probs) > min(shared_steps([p]) for p in probs)

    @pytest.mark.parametrize("change", [{"T": 0.2}, {"s_list": (0.0,)},
                                        {"N_weight": 4}])
    def test_rejects_members_that_differ(self, change):
        probs = _stack_case("forcing-1d")[:2]
        p = probs[1]
        probs[1] = EvolutionProblem(p.cs, p.u0, p.forcing, **{
            "T": p.T, "s_list": p.s_list, "N_weight": p.N_weight, **change})
        with pytest.raises(EvolveError):
            solve_stack(probs)

    def test_instability_of_one_member(self):
        # one step of 50 stability steps blows up the smooth-consistency
        # member alone; the free members are exact at any step, and their
        # norms, a million times larger, would hide its growth from a check
        # of the whole stack
        spec = make_grid(1, 64, np.pi)
        cs = preset_set("smooth-consistency", spec)
        T = 50 * stable_dt(cs)
        big = Field(spec, 1e6 * random_field(spec, seed=1).values)
        probs = [EvolutionProblem(free_set(spec), big, T=T),
                 EvolutionProblem(cs, random_field(spec, seed=2), T=T),
                 EvolutionProblem(free_set(spec), big, T=T)]
        with pytest.raises(Instability) as info:
            solve_stack(probs, steps=1)
        exc = info.value
        assert (exc.member, exc.t, exc.dt, exc.eps) == (1, 0.0, T, None)
        assert exc.ratio > 10.0
        assert str(exc).startswith(f"norm grew x{exc.ratio:.1f} in one step at t = 0 ")
        # the free flow keeps norms: the stack as a whole grows far less
        n0, n1, n2 = (np.linalg.norm(p.u0.values) for p in probs)
        assert np.sqrt((n0**2 + (exc.ratio * n1)**2 + n2**2)
                       / (n0**2 + n1**2 + n2**2)) < 10.0
        for stable in (probs[0], probs[2]):
            solve(stable, steps=1)


class TestSupDifferences:
    @pytest.mark.parametrize("s", [0.0, 1.0])
    @pytest.mark.parametrize("case", sorted(SUP_CASES))
    def test_matches_state_histories(self, case, s):
        ref, others = SUP_CASES[case]()
        dt = min(p.dt for p in [ref, *others])
        got, _ = sup_differences(ref, others, s)
        want = _reference_sup_differences(ref, others, s, dt)
        assert all(w > 0 for w in want)
        np.testing.assert_allclose(got, want, rtol=1e-9)

    def test_problems_share_the_step_count(self, monkeypatch):
        # T = 1.3 dt: alone, the base problem takes one step and the
        # perturbed one, whose bound is smaller, takes two
        spec, model, eps = make_grid(1, 32, 8.0), preset("delta-potential", n=1), 2**-3
        cs = regularise(model, eps, ScaleFn("loglog"), spec)
        cs_p = _perturbed_set(cs, eps, 1, _bumps(spec, model.N))
        dt = min(stable_dt(cs), stable_dt(cs_p))
        u0 = delta_field(spec)
        alone = [len(solve(EvolutionProblem(c, u0, T=1.3 * dt, dt=dt)).series.t)
                 for c in (cs, cs_p)]
        assert alone == [2, 3]
        base, pert = (EvolutionProblem(c, u0, T=1.3 * dt, dt=dt) for c in (cs, cs_p))
        want = _reference_sup_differences(base, [pert], 1.0, 0.65 * dt)
        marches = record_marches(monkeypatch)
        got, _ = sup_differences(base, [pert], 1.0)
        assert len(marches) == 2
        assert marches[0] == marches[1]
        assert len(marches[0]) == 3
        np.testing.assert_allclose(got, want, rtol=1e-9)

    @pytest.mark.parametrize("case", sorted(SUP_CASES))
    def test_returns_each_final_state(self, case):
        ref, others = SUP_CASES[case]()
        _, finals = sup_differences(ref, others, 0.0)
        assert len(finals) == 1 + len(others)
        steps = evolve.shared_steps([ref, *others])
        for p, uh in zip([ref, *others], finals):
            _close(evolve.ifft(uh, p.cs.spec.n), solve(p, steps=steps).final.values)

    def test_given_step_count(self, monkeypatch):
        ref, others = SUP_CASES["delta-potential-1d"]()
        steps = evolve.shared_steps([ref, *others]) + 3
        marches = record_marches(monkeypatch)
        got, _ = sup_differences(ref, others, 1.0, steps)
        assert [len(ts) - 1 for ts in marches] == [steps, steps]
        monkeypatch.undo()
        want = _reference_sup_differences(ref, others, 1.0, ref.T / steps)
        np.testing.assert_allclose(got, want, rtol=1e-9)

    def test_takes_no_transform_beside_the_marches(self, monkeypatch):
        # no state goes back to the grid and no difference is transformed
        ref, others = SUP_CASES["ultra-diagonal-2d"]()
        marches = record_marches(monkeypatch)
        calls = _counting(monkeypatch, evolve, ("fft", "ifft"))
        sup_differences(ref, others, 1.0)
        lockstep, calls["n"] = calls["n"], 0
        for p in [ref, *others]:
            for _ in march([p], len(marches[0]) - 1):
                pass
        assert lockstep == calls["n"]

    def test_rejects_mismatched_horizons(self):
        ref, others = SUP_CASES["delta-potential-1d"]()
        with pytest.raises(EvolveError):
            sup_differences(ref, [EvolutionProblem(others[0].cs, others[0].u0,
                                                   T=0.2)], 0.0)
