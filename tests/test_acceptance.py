"""End-to-end acceptance suite: eleven property-based checks covering the
solver, the mollifier scaling laws, the symbol construction, and the
epsilon-net verdicts at desk scale."""

import numpy as np
import pytest

from conftest import LADDER, random_field, solve_at
from oracle import dense_oracle
from vwslab.coeffs import check_hypotheses, preset, regularise
from vwslab.doi import (FTable, assemble_a2, build_d, build_q,
                        calibrate_K, check_doi, check_escape, energy_norm,
                        exp_symbol_operator)
from vwslab.evolve import EvolutionProblem
from vwslab.grid import Field, GridSpec, inverse, plane_wave, sobolev_norm
from vwslab.mollify import (Mollifier, ScaleFn, derivative_bound_probe,
                            fit_slope, sobolev_boost_probe)
from vwslab.vwsnet import (NetParams, consistency_run, delta_field,
                           gaussian_field, moderateness_fit, run_net,
                           uniqueness_probe)

LOGLOG = ScaleFn("loglog")
POWER1 = ScaleFn("power", k=1.0)
DYADIC = [2.0**-j for j in range(2, 8)]


def fixed_set(name, spec, eps=2.0**-4, **params):
    return regularise(preset(name, n=spec.n, **params), eps, LOGLOG, spec)


def rel_gap(u, v, s=0.0):
    spec = u.spec
    return (sobolev_norm(Field(spec, u.values - v.values), s)
            / sobolev_norm(v, s))


def localised_data(spec, seed):
    # random phases under a gaussian spectral envelope keep the RK4 phase
    # damping of the top modes below round-off at dt = 1e-3
    rng = np.random.default_rng(seed)
    kap2 = sum(k**2 for k in spec.kappa_mesh())
    coeffs = np.exp(-kap2 / 2) * np.exp(2j * np.pi * rng.random(spec.shape))
    return Field(spec, inverse(coeffs, spec))


def test_01_plane_wave_exactness():
    spec = GridSpec(1, 64, np.pi)
    cs = fixed_set("free", spec)

    def error(k, dt):
        u0 = plane_wave(spec, (k,))
        res = solve_at(EvolutionProblem(cs, u0, T=1.0), dt)
        exact = Field(spec, np.exp(1j * k**2 * 1.0) * u0.values)
        return rel_gap(res.final, exact)

    for k in (1, 2, 3):
        assert error(k, 1e-3) < 1e-8

    # the step is exact on the free flow, so the order shows on a drift
    spec = GridSpec(1, 16, 8.0)
    cs = fixed_set("jump-drift", spec)
    u0 = random_field(spec, seed=5)
    exact = dense_oracle(EvolutionProblem(cs, u0, T=1.0))

    def drift_error(dt):
        res = solve_at(EvolutionProblem(cs, u0, T=1.0), dt)
        return rel_gap(res.final, exact)

    ratio = drift_error(0.05) / drift_error(0.025)
    assert 14.0 <= ratio <= 18.0


def test_02_ultrahyperbolic_dispersion():
    spec = GridSpec(2, 32, np.pi)
    cs = fixed_set("ultra-diagonal", spec, nu=0.0, c0=0.0)

    u0 = plane_wave(spec, (2, 1))
    res = solve_at(EvolutionProblem(cs, u0, T=1.0), 1e-3)
    exact = Field(spec, np.exp(1j * (2**2 - 1**2) * 1.0) * u0.values)
    assert rel_gap(res.final, exact) < 1e-8

    null = plane_wave(spec, (1, 1))
    res = solve_at(EvolutionProblem(cs, null, T=1.0), 1e-3)
    assert rel_gap(res.final, null) < 1e-9


def test_03_oracle_equivalence():
    cases = [("free", 1), ("elliptic-lipschitz", 1), ("delta-potential", 1),
             ("jump-drift", 1), ("smooth-consistency", 1),
             ("ultra-diagonal", 2)]
    for name, n in cases:
        spec = GridSpec(n, 16 if n == 1 else 8, 8.0)
        prob = EvolutionProblem(fixed_set(name, spec),
                                random_field(spec, seed=5), T=0.5)
        gap = rel_gap(solve_at(prob, 1e-3).final, dense_oracle(prob))
        assert gap < 1e-5, f"{name}: oracle gap {gap}"


def test_04_l2_conservation():
    # drift-free models with real potential evolve unitarily
    for name, seed in (("free", 2), ("delta-potential", 3)):
        spec = GridSpec(1, 64, 8.0)
        u0 = localised_data(spec, seed)
        res = solve_at(EvolutionProblem(fixed_set(name, spec, eps=2**-5), u0,
                                        T=1.0), 1e-3)
        norms = res.series.norms[0.0]
        ref = sobolev_norm(u0, 0.0)
        assert np.max(np.abs(norms - ref)) / ref < 1e-7


def test_05_mollifier_scaling_laws():
    spec = GridSpec(1, 2048, np.pi)
    x = spec.x_axis()

    jump = Field(spec, np.where(np.sin(x) >= 0, 1.0, -1.0).astype(complex))
    pr = derivative_bound_probe(jump, (1,), POWER1, DYADIC)
    assert pr["slope"] == pytest.approx(-1.0, abs=0.2)

    lipschitz = Field(spec, np.abs(((x / np.pi) + 1) % 2 - 1).astype(complex))
    pr = derivative_bound_probe(lipschitz, (2,), POWER1, DYADIC)
    assert pr["slope"] == pytest.approx(-1.0, abs=0.2)

    # the 2D delta sits exactly on the H^{-1} borderline, so the boost
    # attains the -ell prediction
    spec2 = GridSpec(2, 512, np.pi)
    delta = delta_field(spec2)
    for ell in (1, 2):
        pr = sobolev_boost_probe(delta, -1.0, ell, POWER1, DYADIC)
        assert pr["slope"] == pytest.approx(-float(ell), abs=0.2)


def test_06_hypothesis_validation():
    spec = GridSpec(2, 32, 8.0)
    c1, c2 = 1.0, -1.0
    model = preset("ultra-diagonal", c1=c1, c2=c2)
    sets = [regularise(model, e, LOGLOG, spec) for e in LADDER]
    report = check_hypotheses(sets, nu=model.nu, c0=model.c0)
    assert report.passed

    lo = min(c1, abs(c2)) / 2.0
    hi = 3.0 * max(c1, abs(c2)) / 2.0
    th = 2.0 * np.pi * np.arange(64) / 64
    dirs = np.stack([np.cos(th), np.sin(th)], axis=1)
    for cs in sets:
        A = cs.matrix_at().reshape(-1, 2, 2)
        ratios = np.linalg.norm(np.einsum("pij,dj->pdi", A, dirs), axis=-1)
        assert lo <= ratios.min() and ratios.max() <= hi

    assert max(report.h3_weighted_sup) <= report.h3_bound
    assert report.h3_variation <= 0.10


def test_07_doi_inequalities():
    for name, n, M in (("free", 1, 64), ("ultra-diagonal", 2, 8)):
        spec = GridSpec(n, M, 8.0)
        model = preset(name, n=n)
        sets = [regularise(model, eps, LOGLOG, spec) for eps in LADDER]
        pairs = [(assemble_a2(cs), build_q(cs)) for cs in sets]
        f = FTable(calibrate_K(sets), model.N)
        gaps, margins = [], []
        for a2, q in pairs:
            gaps.append(check_escape(q, a2)["min_gap"])
            margins.append(check_doi(build_d(q, f), a2,
                                     model.N)["min_margin"])
        for vals in (gaps, margins):
            assert all(np.isfinite(v) for v in vals)
            # a finite ladder-wide constant bounds every deficit, and it is
            # stable: the per-eps values spread by less than 10%
            assert min(vals) > -1e3
            assert np.ptp(vals) <= 0.10 * max(np.mean(np.abs(vals)), 1.0)

    assert f(0.0) == 0.0
    ts = np.linspace(0.0, f.t_max, 1000)
    assert np.all(f.derivative(ts) >= f.lam(ts / f.K - 10.0) - 1e-12)


def test_08_energy_norm_equivalence():
    spec = GridSpec(1, 32, 8.0)
    model = preset("delta-potential", n=1)
    sets = [regularise(model, e, LOGLOG, spec) for e in LADDER]
    qs = [build_q(cs) for cs in sets]
    f = FTable(calibrate_K(sets), 2)
    rng = np.random.default_rng(17)
    omegas, c_eps = [], []
    for cs, q in zip(sets, qs):
        E = exp_symbol_operator(build_d(q, f))
        worst = 1.0
        for _ in range(50):
            u = Field(spec, rng.standard_normal(32)
                      + 1j * rng.standard_normal(32))
            r = energy_norm(E, u, 0.0) / sobolev_norm(u, 0.0)
            assert np.isfinite(r) and r > 0.0
            worst = max(worst, r, 1.0 / r)
        c_eps.append(worst)
        omegas.append(cs.omega)
    # c(eps) is polynomial in 1/omega: the log-log fit is tight
    _, resid = fit_slope(1.0 / np.array(omegas), c_eps)
    assert resid < 0.5


def test_09_moderateness():
    spec = GridSpec(1, 64, 8.0)
    params = NetParams(spec=spec, T=0.5)

    _, results, _ = run_net(preset("delta-potential", n=1), delta_field(spec), params)
    fit = moderateness_fit(results, 0.0)
    assert fit.passed
    assert fit.slope <= 10.0
    assert fit.residual < 0.5

    _, results, _ = run_net(preset("smooth-consistency", n=1), gaussian_field(spec),
                            params)
    fit = moderateness_fit(results, 0.0)
    assert fit.slope == pytest.approx(0.0, abs=0.3)


def test_10_uniqueness():
    spec = GridSpec(1, 64, 8.0)
    params = NetParams(spec=spec, T=0.5)
    for name, u0 in (("free", gaussian_field(spec)),
                     ("delta-potential", delta_field(spec))):
        fit = uniqueness_probe(preset(name, n=1), 3, u0, params)
        assert fit.passed, f"{name}: slope {fit.slope}"
        assert fit.slope >= 2.5


def test_11_consistency():
    spec = GridSpec(1, 64, 8.0)
    params = NetParams(spec=spec, T=0.5, scale=POWER1,
                       data_mollifier=Mollifier("vanishing-moment", order=4))

    fit = consistency_run(preset("smooth-consistency", n=1),
                          gaussian_field(spec), params)
    assert fit.passed
    assert fit.extra["monotone_decreasing"]
    assert fit.extra["final_error"] < 1e-4

    # constant-coefficient sub-case: the whole error is the order-4 data
    # mollification
    flat = preset("smooth-consistency", n=1, nu=0.0, c0=0.0, v_amplitude=0.0)
    fit = consistency_run(flat, gaussian_field(spec), params)
    assert fit.slope == pytest.approx(4.0, abs=0.5)

