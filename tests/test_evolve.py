import math
import tracemalloc
from functools import partial

import numpy as np
import pytest

from conftest import LADDER, random_field, record_marches, solve_at
from oracle import dense_oracle
from vwslab.coeffs import (CoefficientModel, CoefficientSet, Pointwise, preset,
                           regularise, sample)
from vwslab.evolve import (EvolutionProblem, EvolveError, Instability,
                           apply_spatial, march,
                           solve, solve_stack, stable_dt,
                           step_rk4, sup_differences)
from vwslab.grid import Field, forward, make_grid, plane_wave, sobolev_norm
from vwslab.mollify import ScaleFn
from vwslab import evolve
from vwslab.evolve import (LEVELS, RK4_IMAG_LIMIT, SAFETY, _Diagnostics, _Operator,
                           shared_steps)
from vwslab.grid import (apply_lambda, fft, inverse, spectral_derivative,
                         weight_field)
from vwslab.coeffs import enveloped_bump
from vwslab.vwsnet import (COARSE, NetParams, _bumps, _perturbed_set, delta_field,
                           ladder, rough_field)


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
        prob = EvolutionProblem(cs, Field(spec, np.zeros(16, dtype=complex)), T=1.0)
        out = step_rk4(prob.u0, 0.0, 1e-2, prob)
        assert np.max(np.abs(out.values)) == 0.0

    def test_instability_detected(self):
        spec = make_grid(1, 64, np.pi)
        cs = preset_set("smooth-consistency", spec)
        prob = EvolutionProblem(cs, random_field(spec, seed=1), T=1.0)
        with pytest.raises(Instability):
            step_rk4(prob.u0, 0.0, 50 * stable_dt(cs), prob)

    @pytest.mark.parametrize("dt", [0.0, -0.01], ids=["zero", "negative"])
    def test_problem_rejects_non_positive_dt(self, dt):
        # the step rule, shared_steps, checks a given dt
        spec = make_grid(1, 32, np.pi)
        cs = regularise(preset("delta-potential"), 2**-4, ScaleFn("loglog"), spec)
        prob = EvolutionProblem(cs, random_field(spec, seed=1), T=0.1)
        with pytest.raises(EvolveError, match="must be positive"):
            shared_steps([prob], dt=dt)

    def test_problem_rejects_data_on_another_grid(self):
        spec, other = make_grid(1, 32, np.pi), make_grid(1, 32, 8.0)
        with pytest.raises(EvolveError, match="initial data grid does not match"):
            EvolutionProblem(free_set(spec), random_field(other, seed=2), T=0.1)

    def test_problem_rejects_unstable_dt(self):
        # the free flow has no remainder and no bound
        spec = make_grid(1, 64, np.pi)
        cs = preset_set("smooth-consistency", spec)
        prob = EvolutionProblem(cs, random_field(spec, seed=1), T=1.0)
        dt = 10 * stable_dt(cs)
        with pytest.raises(EvolveError) as info:
            shared_steps([prob], dt=dt)
        assert str(info.value) == (f"dt = {dt} exceeds stability bound {prob.dt_bound} "
                                   f"of problem 0 of 1 for eps = {cs.eps!r}")

    def test_fourth_order_convergence(self):
        # the step is exact on the free flow, so the order shows only where
        # the coefficients leave a remainder
        spec = make_grid(1, 16, 8.0)
        u0 = random_field(spec, seed=5)
        for name in ("jump-drift", "delta-potential", "smooth-consistency",
                     "elliptic-lipschitz"):
            cs = preset_set(name, spec)
            exact = dense_oracle(EvolutionProblem(cs, u0, T=1.0)).values

            def err(dt):
                res = solve_at(EvolutionProblem(cs, u0, T=1.0), dt)
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
        res = solve_at(EvolutionProblem(cs, u0, T=1.0), 1e-3)
        norms = res.series.norms[0.0]
        ref = sobolev_norm(u0, 0.0)
        assert np.max(np.abs(norms - ref)) / ref < 1e-8

    def test_delta_potential_l2_conservation(self):
        spec = make_grid(1, 64, 8.0)
        cs = regularise(preset("delta-potential", n=1), 2**-5, ScaleFn("loglog"), spec)
        u0 = self.localised_data(spec, seed=3)
        res = solve_at(EvolutionProblem(cs, u0, T=1.0), 1e-3)
        norms = res.series.norms[0.0]
        ref = sobolev_norm(u0, 0.0)
        assert np.max(np.abs(norms - ref)) / ref < 1e-8

    def test_linearity_in_data(self):
        spec = make_grid(1, 32, 8.0)
        cs = regularise(preset("jump-drift", n=1), 2**-4, ScaleFn("loglog"), spec)
        ua, ub = random_field(spec, seed=4), random_field(spec, seed=5)
        dt = stable_dt(cs)
        ra = solve_at(EvolutionProblem(cs, ua, T=0.5), dt).final.values
        rb = solve_at(EvolutionProblem(cs, ub, T=0.5), dt).final.values
        both = Field(spec, ua.values + ub.values)
        rc = solve_at(EvolutionProblem(cs, both, T=0.5), dt).final.values
        scale = np.max(np.abs(rc))
        assert np.max(np.abs(rc - ra - rb)) / scale < 1e-10

    def test_time_stamps_and_norm_series(self):
        spec = make_grid(1, 32, 8.0)
        cs = free_set(spec)
        res = solve(EvolutionProblem(cs, random_field(spec, seed=8), T=0.5),
                    s_list=(0.0, 1.0))
        t = res.series.t
        assert t[0] == 0.0 and t[-1] == pytest.approx(0.5)
        assert np.all(np.diff(t) > 0)
        assert set(res.series.norms) == {0.0, 1.0}
        assert np.all(res.series.integrand[0.0] >= 0.0)
        assert np.all(np.diff(res.series.integral[0.0]) >= 0.0)

    def test_integral_matches_scipy_trapezoid(self):
        from scipy.integrate import cumulative_trapezoid

        spec = make_grid(1, 32, 8.0)
        res = solve(EvolutionProblem(free_set(spec), random_field(spec, seed=8), T=0.5),
                    s_list=(0.0, 1.0))
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
        prob = EvolutionProblem(cs, u0, T=0.7)
        out = dense_oracle(prob)
        exact = u0.values * np.exp(1j * k**2 * 0.7)
        assert np.max(np.abs(out.values - exact)) < 1e-10

    def test_unitary_preservation(self):
        spec = make_grid(1, 16, 8.0)
        cs = regularise(preset("delta-potential", n=1), 2**-4, ScaleFn("loglog"), spec)
        u0 = random_field(spec, seed=9)
        prob = EvolutionProblem(cs, u0, T=1.0)
        out = dense_oracle(prob)
        assert sobolev_norm(out, 0.0) == pytest.approx(
            sobolev_norm(u0, 0.0), rel=1e-12)

    def test_size_limit(self):
        spec = make_grid(1, 64, 8.0)
        prob = EvolutionProblem(free_set(spec), random_field(spec, seed=12),
                                T=0.5)
        with pytest.raises(EvolveError):
            dense_oracle(prob)


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
    """Count the transforms of `names`, grid.fft and grid.ifft as bound in
    module: calls["n"] is the number of fields transformed, the product of
    the leading axes, and calls[name] the number of calls."""
    calls = {"n": 0, **dict.fromkeys(names, 0)}
    for name in names:
        fn = getattr(module, name)

        def counted(values, n, *args, _fn=fn, _name=name, **kwargs):
            calls["n"] += int(np.prod(values.shape[:values.ndim - n]))
            calls[_name] += 1
            return _fn(values, n, *args, **kwargs)

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
        # one inverse of the stack of every order's lifted field
        assert (calls["fft"], calls["ifft"], calls["n"]) == (0, 1, len(s_list))


class TestStepCount:
    def test_rounding_down_never_exceeds_bound(self):
        spec = make_grid(1, 32, np.pi)
        cs = preset_set("smooth-consistency", spec)
        limit = stable_dt(cs)
        # T/dt = 1.12 rounds to one step of 1.12 times the bound
        prob = EvolutionProblem(cs, random_field(spec, seed=5), T=1.4 * limit)
        ts = solve_at(prob, limit / SAFETY).series.t
        assert len(ts) == 3
        assert np.max(np.diff(ts)) <= prob.dt_bound

    def test_rounding_down_within_bound_keeps_count(self):
        spec = make_grid(1, 32, np.pi)
        cs = preset_set("smooth-consistency", spec)
        prob = EvolutionProblem(cs, random_field(spec, seed=5), T=3.02 * stable_dt(cs))
        assert len(solve_at(prob, stable_dt(cs)).series.t) == 4


class TestStepRule:
    """``shared_steps`` owns the step rule of a march: the default count,
    and the check of a given dt against the bound of each problem."""

    def test_given_dt_names_the_problem_of_a_uniqueness_pair(self):
        # a dt between the bounds of the base and the perturbed problem
        spec, model, eps = make_grid(1, 32, 8.0), preset("delta-potential", n=1), 2**-3
        cs = regularise(model, eps, ScaleFn("loglog"), spec)
        u0 = delta_field(spec)
        base, pert = (EvolutionProblem(c, u0, T=1.0)
                      for c in (cs, _perturbed_set(cs, eps, 1, _bumps(spec, model.N))))
        assert pert.dt_bound < base.dt_bound
        dt = 0.5 * (pert.dt_bound + base.dt_bound)
        shared_steps([base], dt=dt)
        with pytest.raises(EvolveError) as info:
            shared_steps([base, pert], dt=dt)
        assert str(info.value) == (f"dt = {dt} exceeds stability bound {pert.dt_bound} "
                                   f"of problem 1 of 2 for eps = {eps!r}")

    def test_given_dt_names_the_classical_problem(self):
        # a consistency member holds the classical problem first
        ref, (member, _) = _classical_and_mollified(make_grid(1, 64, 8.0))
        dt = 2.0 * max(ref.dt_bound, member.dt_bound)
        with pytest.raises(EvolveError) as info:
            shared_steps([ref, member], dt=dt)
        assert str(info.value) == (f"dt = {dt} exceeds stability bound {ref.dt_bound} "
                                   "of problem 0 of 2 for eps = 0.0")

    @pytest.mark.parametrize("case", ["delta-potential-1d", "ultra-diagonal-2d",
                                      "mixed-1d"])
    def test_default_count_is_that_of_the_smallest_default_step(self, case):
        # each problem's default step, min(T / LEVELS, stable_dt), and the
        # count of the smallest, one more if it exceeds a bound; at T = 4
        # the bounds of the mixed case set the count
        for T in (None, 4.0):
            probs = _stack_case(case)
            if T is not None:
                probs = [EvolutionProblem(p.cs, p.u0, T=T) for p in probs]
            T = probs[0].T
            dt = min(min(T / LEVELS, stable_dt(p.cs)) for p in probs)
            steps = max(1, int(round(T / dt)))
            if T / steps > min(p.dt_bound for p in probs):
                steps += 1
            assert shared_steps(probs) == steps


class TestDefaultStep:
    """The default step of ``shared_steps`` is min(T/LEVELS, stable_dt); at
    it the march keeps unitary flows unitary and the net-1d-delta ladder
    converged."""

    def test_levels_or_the_bound(self):
        spec = make_grid(1, 32, 8.0)
        cs = preset_set("smooth-consistency", spec)
        limit = stable_dt(cs)
        for T, steps in ((0.5, LEVELS), (100 * limit, 100)):
            prob = EvolutionProblem(cs, random_field(spec, seed=5), T=T)
            assert shared_steps([prob]) == steps
        free = EvolutionProblem(free_set(spec), random_field(spec, seed=5), T=0.5)
        assert free.dt_bound == np.inf
        assert shared_steps([free]) == LEVELS

    def test_shared_steps_at_a_level_count(self):
        # T / levels where the bound allows it, else the bound's count
        spec = make_grid(1, 32, 8.0)
        cs = preset_set("smooth-consistency", spec)
        u0, limit = random_field(spec, seed=5), stable_dt(cs)
        for levels in (COARSE, LEVELS):
            assert shared_steps([EvolutionProblem(cs, u0, T=0.5)], levels) == levels
            prob = EvolutionProblem(cs, u0, T=100 * limit)
            assert shared_steps([prob], levels) == shared_steps([prob]) == 100
        # a given dt sets the count, whatever the levels
        prob = EvolutionProblem(cs, u0, T=0.5)
        assert shared_steps([prob], dt=0.01) == shared_steps([prob], COARSE, 0.01) == 50
        assert shared_steps([prob], COARSE) == COARSE

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
            prob = EvolutionProblem(m["cs"], m["u0"], T=params.T)
            got = solve(prob, params.s_list)
            conv = solve_at(prob, params.T / 2048, s_list=params.s_list)
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
    EZ = np.exp(Z)

    def test_against_expm(self):
        for got, want in zip(evolve._phi(self.Z, self.EZ), _phi_table(self.Z)[1:]):
            assert np.max(np.abs(got - want) / np.abs(want)) < 2e-13

    def test_phi_1_alone_is_the_first_of_three(self):
        assert np.array_equal(evolve._phi(self.Z, self.EZ, last=1)[0],
                              evolve._phi(self.Z, self.EZ)[0])
        assert len(evolve._phi(self.Z, self.EZ, last=1)) == 1


def _physical_rk4(prob, steps):
    """Reference march: ETD-RK4 (Cox & Matthews) on grid values.

    The grid means of the coefficients make the exact part, a Fourier
    multiplier through forward/inverse with phi-functions from expm; the
    rest goes through the per-axis form of the remaining coefficients.
    """
    cs, spec = prob.cs, prob.cs.spec
    h, n, km = prob.T / steps, spec.n, spec.kappa_mesh()
    a = [[cs.a[i][j].mean() for j in range(n)] for i in range(n)]
    b = [bk.mean() for bk in cs.b]
    lam = (sum(a[i][j] * km[i] * km[j] for i in range(n) for j in range(n))
           + sum(b[k] * km[k] for k in range(n)) + cs.V.mean())
    rest = CoefficientSet(spec, cs.eps, cs.omega,
                          [[cs.a[i][j] - a[i][j] for j in range(n)] for i in range(n)],
                          [cs.b[k] - b[k] for k in range(n)], cs.V - cs.V.mean(), cs.N)

    def mult(m, v):
        return inverse(m * forward(v, spec), spec)

    def F(v):
        return 1j * _apply_spatial_per_axis(rest, v)

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
    # the smoothing weight <x>^{-N/2} is the model's: a march that fell
    # back to N = 2 would miss the reference at N = 3
    @pytest.mark.parametrize("case, N", [
        pytest.param(case, N, id=case if N == 2 else f"{case}-N{N}")
        for case in sorted(MARCH_CASES) for N in (2, 3)])
    def test_solve_matches_physical_rk4(self, case, N):
        spec, name = MARCH_CASES[case]
        model = preset(name, N=N)
        cs = regularise(model, 2**-4, ScaleFn("loglog"), spec)
        s_list = (0.0, 1.0)
        prob = EvolutionProblem(cs, random_field(spec, seed=20), T=0.1)
        res = solve(prob, s_list, stride=1)
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
                [sobolev_norm(weight_field(apply_lambda(f, s + 0.5), -model.N / 2.0),
                              0.0) ** 2 for f in fields],
                rtol=1e-12)

    def test_step_rk4_is_the_step_of_solve(self):
        spec, name = MARCH_CASES["jump-drift-1d"]
        cs = regularise(preset(name), 2**-4, ScaleFn("loglog"), spec)
        prob = EvolutionProblem(cs, random_field(spec, seed=22), T=0.03)
        res = solve(prob, stride=1)
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
        # the fields of each way go as one stack
        assert calls["fft"] <= 1 and calls["ifft"] <= 1

    def test_solve_transforms_no_step_to_the_grid(self, monkeypatch):
        spec = make_grid(1, 32, np.pi)
        prob = EvolutionProblem(free_set(spec), random_field(spec, seed=3), T=0.5)
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
        # the inertia of a(x) as eigvalsh counts it, on sets with no
        # singular node
        np.testing.assert_array_equal(
            cs.inertia().ravel(),
            np.sum(np.linalg.eigvalsh(cs.matrix_at().reshape(-1, cs.n, cs.n)) < 0.0,
                   axis=-1))
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
        return solve_at(p, dt, stride=1).states

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
    that differ too."""
    eps, model = 2**-4, preset(name, n=spec.n)
    cs = regularise(model, eps, ScaleFn("loglog"), spec)
    u0 = random_field(spec, seed=30)
    u0_p = Field(spec, u0.values + eps * random_field(spec, seed=32).values)
    return (EvolutionProblem(cs, u0, T=0.1),
            [EvolutionProblem(_perturbed_set(cs, eps, 1, _bumps(spec, model.N)), u0_p,
                              T=0.1)])


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
        prob = EvolutionProblem(cs, random_field(spec, seed=24), T=0.03)
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


#: the Sobolev orders of the net-1d-delta workload, which the stack cases
#: are solved at
STACK_S = (0.0, 1.0)


def _stack_case(case):
    """Problems of one grid and T that differ in coefficients and data."""
    if case == "delta-potential-1d":
        # the net-1d-delta ladder on a smaller grid
        spec = make_grid(1, 64, 8.0)
        params = NetParams(spec=spec, T=0.125)
        members = ladder(preset("delta-potential", n=1), params, delta_field(spec))
        return [EvolutionProblem(m["cs"], m["u0"], T=params.T)
                for m in members.values()]
    if case == "ultra-diagonal-2d":
        spec = make_grid(2, 16, 8.0)
        sets = [preset_set("ultra-diagonal", spec, eps) for eps in (2**-3, 2**-5, 2**-7)]
    else:
        # members that differ in which coefficients are constant: none, V,
        # b or a_11 variable
        spec = make_grid(1, 64, 8.0)
        sets = [preset_set(name, spec) for name in
                ("free", "delta-potential", "jump-drift", "smooth-consistency")]
    return [EvolutionProblem(cs, random_field(spec, seed=40 + k), T=0.1)
            for k, cs in enumerate(sets)]


class TestSolveStack:
    """A stack marches each member as it would march alone: the same
    numbers bit for bit."""

    @pytest.mark.parametrize("stride", [0, 1, 3], ids=["norms", "states", "strided"])
    @pytest.mark.parametrize("case", ["delta-potential-1d", "ultra-diagonal-2d",
                                      "mixed-1d"])
    def test_matches_one_by_one(self, case, stride):
        probs = _stack_case(case)
        steps = shared_steps(probs)
        got = solve_stack(probs, STACK_S, stride, steps)
        assert len(got) == len(probs)
        for prob, res in zip(probs, got):
            _assert_same_result(res, solve(prob, STACK_S, stride, steps))

    def test_records_every_stride_th_level(self):
        # levels 0, stride, 2 stride, ... of the states that stride 1 keeps
        probs = _stack_case("mixed-1d")
        every = solve_stack(probs, stride=1)
        assert len(every[0].states) == shared_steps(probs) + 1
        for stride in (2, 3, LEVELS, LEVELS + 1):
            for res, full in zip(solve_stack(probs, stride=stride), every):
                assert len(res.states) == len(full.states[::stride])
                for x, y in zip(res.states, full.states[::stride]):
                    assert np.array_equal(x, y)
        assert all(res.states is None for res in solve_stack(probs))

    def test_one_march_for_the_stack(self, monkeypatch):
        probs = _stack_case("mixed-1d")
        marches = record_marches(monkeypatch)
        solve_stack(probs)
        assert [len(ts) - 1 for ts in marches] == [shared_steps(probs)]

    def test_default_steps_are_shared(self):
        # the smallest default step of the members sets the count of all: at
        # T = 4 the jump-drift bound takes more than LEVELS steps
        probs = [EvolutionProblem(p.cs, p.u0, T=4.0) for p in _stack_case("mixed-1d")]
        got = solve_stack(probs)
        assert {len(res.series.t) - 1 for res in got} == {shared_steps(probs)}
        assert shared_steps(probs) > min(shared_steps([p]) for p in probs)

    # a stack has one smoothing weight: members of models of another N
    # do not share it
    @pytest.mark.parametrize("change", [{"T": 0.2}, {"N": 3}])
    def test_rejects_members_that_differ(self, change):
        probs = _stack_case("mixed-1d")[:2]
        p = probs[1]
        cs = CoefficientSet(p.cs.spec, p.cs.eps, p.cs.omega, p.cs.a, p.cs.b, p.cs.V,
                            change.get("N", p.cs.N))
        probs[1] = EvolutionProblem(cs, p.u0, change.get("T", p.T))
        with pytest.raises(EvolveError, match="must share the grid, T and"):
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
        assert (exc.member, exc.t, exc.dt, exc.eps) == (1, 0.0, T, cs.eps)
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
        dt = ref.T / shared_steps([ref, *others])
        got, _ = sup_differences(ref, others, s)
        want = _reference_sup_differences(ref, others, s, dt)
        assert all(w > 0 for w in want)
        np.testing.assert_allclose(got, want, rtol=1e-9)

    def test_problems_share_the_step_count(self, monkeypatch):
        # T = 1.3 dt: at step dt, alone, the base problem takes one step and
        # the perturbed one, whose bound is smaller, takes two; both march
        # the two of their shared count
        spec, model, eps = make_grid(1, 32, 8.0), preset("delta-potential", n=1), 2**-3
        cs = regularise(model, eps, ScaleFn("loglog"), spec)
        cs_p = _perturbed_set(cs, eps, 1, _bumps(spec, model.N))
        dt = min(stable_dt(cs), stable_dt(cs_p))
        u0 = delta_field(spec)
        base, pert = (EvolutionProblem(c, u0, T=1.3 * dt) for c in (cs, cs_p))
        alone = [len(solve_at(p, dt).series.t) for p in (base, pert)]
        assert alone == [2, 3]
        want = _reference_sup_differences(base, [pert], 1.0, 0.65 * dt)
        marches = record_marches(monkeypatch)
        got, _ = sup_differences(base, [pert], 1.0, shared_steps([base, pert], dt=dt))
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


def _fresh_fft(values, n):
    """``grid.fft`` with a fresh array for each axis, not ``out=``."""
    out = np.fft.fft(values)
    return out if n == 1 else np.fft.fft(out, axis=-2)


def _fresh_ifft(coeffs, n):
    out = np.fft.ifft(coeffs)
    return out if n == 1 else np.fft.ifft(out, axis=-2)


class _ExpressionOperator:
    """``_Operator`` in expression form, a fresh array for every product
    and one transform for each field: the reference for the bits of the
    buffered one."""

    def __init__(self, sets):
        spec, n = sets[0].spec, sets[0].n
        self.n, km = n, spec.kappa_mesh()

        def split(arrs):
            parts = [evolve._split(arr) for arr in arrs]
            means = np.reshape([c for c, _ in parts], (len(parts),) + (1,) * n)
            if all(r is None for _, r in parts):
                return means, None
            return means, np.stack([np.zeros(spec.shape) if r is None else r
                                    for _, r in parts])

        symbol = np.zeros((len(sets),) + spec.shape)
        self.rows = []
        for i in range(n):
            variable = []
            for j in range(n):
                c, r = split([cs.a[i][j] for cs in sets])
                symbol = symbol + c * km[i] * km[j]
                if r is not None:
                    variable.append((j, r))
            if variable:
                self.rows.append((km[i], variable))
        self.drift = []
        for k in range(n):
            c, r = split([cs.b[k] for cs in sets])
            symbol = symbol + c * km[k]
            if r is not None:
                self.drift.append((k, r))
        c, self.V = split([cs.V for cs in sets])
        self.symbol = symbol + c
        needed = {j for _, row in self.rows for j, _ in row}
        needed |= {k for k, _ in self.drift}
        self.kappa = [(j, km[j]) for j in sorted(needed)]

    def remainder(self, uh):
        n = self.n
        du = {j: _fresh_ifft(kj * uh, n) for j, kj in self.kappa}
        out = np.zeros_like(uh)
        for ki, row in self.rows:
            out += ki * _fresh_fft(sum(r * du[j] for j, r in row), n)
        if self.drift or self.V is not None:
            lower = 0.0 if self.V is None else self.V * _fresh_ifft(uh, n)
            for k, rk in self.drift:
                lower = lower + rk * du[k]
            out += _fresh_fft(lower, n)
        return out


def _expression_phi(z, last=3):
    """``evolve._phi`` with its own e^z."""
    small = np.abs(z) < 0.2
    w, zs = np.where(small, 1.0, z), z[small]
    out, p = [], np.exp(w)
    for k in range(1, last + 1):
        p = (p - 1.0 / math.factorial(k - 1)) / w
        series = np.zeros_like(zs)
        for m in range(9, -1, -1):
            series = series * zs + 1.0 / math.factorial(m + k)
        phi = p.copy()
        phi[small] = series
        out.append(phi)
    return out


class _ExpressionStep:
    """``_Step`` in expression form, with four exponentials for its tables."""

    def __init__(self, op, h):
        self.op = op
        z = 1j * h * op.symbol
        self.E, self.E2 = np.exp(z), np.exp(z / 2.0)
        self.Q = h / 2.0 * _expression_phi(z / 2.0, last=1)[0]
        p1, p2, p3 = _expression_phi(z)
        self.f1 = h * (p1 - 3.0 * p2 + 4.0 * p3)
        self.f2 = 2.0 * h * (p2 - 2.0 * p3)
        self.f3 = h * (4.0 * p3 - p2)

    def _F(self, v):
        return 1j * self.op.remainder(v)

    def __call__(self, uh):
        E2, Q = self.E2, self.Q
        Fu = self._F(uh)
        a = E2 * uh + Q * Fu
        Fa = self._F(a)
        b = E2 * uh + Q * Fa
        Fb = self._F(b)
        c = E2 * a + Q * (2.0 * Fb - Fu)
        Fc = self._F(c)
        return self.E * uh + self.f1 * Fu + self.f2 * (Fa + Fb) + self.f3 * Fc


def _every_entry_variable():
    """A 2D ultra-diagonal problem perturbed by bumps, so that every a_ij,
    b_k and V varies on the grid."""
    _, (prob,) = _perturbed_pair(make_grid(2, 16, 8.0), "ultra-diagonal")
    cs = prob.cs
    assert all(evolve._constant(arr) is None
               for arr in [*cs.a[0], *cs.a[1], *cs.b, cs.V])
    return [prob]


def _preset_problem(name, n):
    spec = make_grid(n, 64 if n == 1 else 16, 8.0)
    return [EvolutionProblem(preset_set(name, spec), random_field(spec, seed=50), T=0.1)]


BUFFER_CASES = {f"{name}-{n}d": partial(_preset_problem, name, n)
                for name, n in SPECTRAL_CASES}
BUFFER_CASES["stack-of-3-2d"] = partial(_stack_case, "ultra-diagonal-2d")
BUFFER_CASES["every-entry-variable-2d"] = _every_entry_variable


class TestBufferedStep:
    """The march writes every stage, product and transform into buffers
    built once per march; it gives the bits of the expression form."""

    @pytest.mark.parametrize("case", sorted(BUFFER_CASES))
    def test_remainder_matches_expression_form(self, case):
        probs = BUFFER_CASES[case]()
        sets = [p.cs for p in probs]
        op, ref = _Operator(sets), _ExpressionOperator(sets)
        uh = _fresh_fft(np.stack([p.u0.values for p in probs]), sets[0].n)
        want = ref.remainder(uh)
        work = op.workspace(uh.shape)
        assert np.array_equal(op.remainder(uh, np.empty_like(uh), work), want)
        assert np.array_equal(op(uh), ref.symbol * uh + want)
        # the output may be the input
        assert np.array_equal(op.remainder(uh.copy(), uh, work), want)

    @pytest.mark.parametrize("case", sorted(BUFFER_CASES))
    def test_march_matches_expression_form(self, case):
        probs = BUFFER_CASES[case]()
        steps = 6
        step = _ExpressionStep(_ExpressionOperator([p.cs for p in probs]),
                               probs[0].T / steps)
        want = _fresh_fft(np.stack([p.u0.values for p in probs]), probs[0].cs.n)
        levels = 0
        for _, uh in march(probs, steps):
            assert np.array_equal(uh, want), levels
            want, levels = step(want), levels + 1
        assert levels == steps + 1

    def test_a_symmetric_pair_is_split_once(self):
        # a built set holds a_12 and a_21 as one array: the operator keeps
        # one remainder of the pair, alone and in a stack with a set whose
        # a_12 is constant
        base, (perturbed,) = _perturbed_pair(make_grid(2, 16, 8.0), "ultra-diagonal")
        for sets in ([perturbed.cs], [base.cs, perturbed.cs]):
            sums = _Operator(sets).sums
            (_, row0), (_, row1), _ = sums
            assert row0[1][1] is row1[0][1]
            assert len({id(r) for _, row in sums for _, r in row}) == 6

    def test_a_yielded_state_outlives_the_next_steps(self):
        # solve_stack and sup_differences keep the last level a march yields
        probs = BUFFER_CASES["every-entry-variable-2d"]()
        levels = march(probs, 4)
        _, first = next(levels)
        _, second = next(levels)
        kept = first.copy(), second.copy()
        for _ in levels:
            pass
        assert np.array_equal(first, kept[0]) and np.array_equal(second, kept[1])


def _poison_scratch(shape):
    for buffer in evolve._scratch(shape):
        buffer.fill(np.nan)


def _scratch_cases():
    """A 1D M = 256 stack of 5 members, each with a variable a, b and V,
    and a 2D M = 64 stack of one whose every entry is variable: each fills
    every slot of its scratch."""
    spec = make_grid(1, 256, 8.0)
    one_d = [EvolutionProblem(preset_set("smooth-consistency", spec, eps),
                              random_field(spec, seed=60 + k), T=0.1)
             for k, eps in enumerate(LADDER)]
    _, two_d = _perturbed_pair(make_grid(2, 64, 8.0), "ultra-diagonal")
    return {"1d-stack-of-5": one_d, "2d-stack-of-1": two_d}


class TestSharedScratch:
    """Every march of one stack shape writes its stages, transforms and
    products into that shape's one ``_scratch``: a step writes each buffer
    before it reads it and leaves nothing there that a later step needs."""

    @pytest.fixture(scope="class")
    def cases(self):
        return _scratch_cases()

    @pytest.mark.parametrize("case", ["1d-stack-of-5", "2d-stack-of-1"])
    def test_a_poisoned_scratch_changes_no_number(self, cases, case):
        probs = cases[case]
        shape = (len(probs),) + probs[0].cs.spec.shape
        evolve._scratch.cache_clear()
        want = solve_stack(probs, (0.0, 1.0), stride=2, steps=4)
        _poison_scratch(shape)
        got = solve_stack(probs, (0.0, 1.0), stride=2, steps=4)
        for g, w in zip(got, want):
            assert np.array_equal(g.final.values, w.final.values)
            assert all(np.array_equal(a, b) for a, b in zip(g.states, w.states))
            for s in (0.0, 1.0):
                assert np.array_equal(g.series.norms[s], w.series.norms[s])
                assert np.array_equal(g.series.integrand[s], w.series.integrand[s])

    @pytest.mark.parametrize("case", ["1d-stack-of-5", "2d-stack-of-1"])
    def test_poison_between_the_steps_changes_no_state(self, cases, case):
        probs = cases[case]
        shape = (len(probs),) + probs[0].cs.spec.shape
        want = [uh.copy() for _, uh in march(probs, 4)]
        for level, (_, uh) in enumerate(march(probs, 4)):
            assert np.array_equal(uh, want[level])
            _poison_scratch(shape)

    def test_marches_of_one_shape_share_it(self):
        base, (perturbed,) = _perturbed_pair(make_grid(2, 16, 8.0), "ultra-diagonal")
        steps = [evolve._Step(evolve._Operator([p.cs]), 0.01) for p in (base, perturbed)]
        scratch = evolve._scratch((1, 16, 16))
        for step in steps:
            assert step.stages is scratch[0] and step.work[2] is scratch[3]
            assert all(np.shares_memory(view, whole)
                       for view, whole in zip(step.work[:2], scratch[1:3]))
        # the base problem's a_12, b and V are constant: its transform
        # stacks take fewer slots than those of its perturbed partner
        assert [len(v) for v in steps[0].work[:2]] == [2, 2]
        assert [len(v) for v in steps[1].work[:2]] == [3, 3]

    def test_a_lockstep_gives_each_problem_its_own_march(self):
        # base and partner transform stacks of different sizes in one
        # scratch, one step after the other
        base, (perturbed,) = _perturbed_pair(make_grid(2, 64, 8.0), "ultra-diagonal")
        alone = [[uh[0].copy() for _, uh in march([p], 4)] for p in (base, perturbed)]
        diffs, finals = sup_differences(base, [perturbed], 0.0, steps=4)
        assert np.array_equal(finals[0], alone[0][-1])
        assert np.array_equal(finals[1], alone[1][-1])
        weight = base.cs.spec.sobolev_weight(0.0)
        sq = max(np.sum(weight * np.abs(u - r) ** 2) for r, u in zip(*alone))
        assert diffs == [np.sqrt(sq)]

    def test_a_warm_march_allocates_no_scratch(self, cases):
        # with the scratch built, a march of a 2D M = 64 problem allocates
        # its operator, its step's tables and the states: 1,156 KiB with
        # numpy 2.4, 18 fields of 64 KiB; the bound is that plus 25%.  Each
        # march that built its own buffers peaked at 1,988 KiB.
        probs = cases["2d-stack-of-1"]
        for _ in march(probs, 4):
            pass
        tracemalloc.start()
        try:
            for _ in march(probs, 4):
                pass
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1445 * 1024
