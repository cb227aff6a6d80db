import numpy as np
import pytest

from conftest import LADDER, random_field
from vwslab.coeffs import preset, regularise
from vwslab.doi import (DELTA, FTable, SmoothStep, SymbolError, SymbolGrid,
                        assemble_a1, assemble_a2, build_d, build_q, calibrate_K,
                        check_doi, check_escape, dual_xi, energy_norm,
                        exp_symbol_operator, fd4, poisson_bracket, quantize,
                        symbol_seminorm)
from vwslab.grid import Field, apply_lambda, make_grid, sobolev_norm
from vwslab.mollify import ScaleFn, fit_slope


def sets_for(name, spec, **params):
    model = preset(name, n=spec.n, **params)
    scale = ScaleFn("loglog")
    return [regularise(model, e, scale, spec) for e in LADDER]


def q_ladder(sets, C1=4.0):
    out = []
    for cs in sets:
        A = cs.matrix_at().reshape(-1, cs.n, cs.n)
        mu = float(np.max(np.linalg.svd(A, compute_uv=False)))
        out.append((assemble_a2(cs), build_q(cs, C1, mu)))
    return out


def symbol_from(spec, fn, grad_fns=None):
    """Build a SymbolGrid from a closed form fn(x_mesh..., xi_mesh...).

    grad_fns, when given, supplies exact x-gradients (one closed form per
    axis) for symbols that are not periodic in x.
    """
    xi = dual_xi(spec)
    xm = spec.x_mesh()
    xi_m = np.meshgrid(*xi, indexing="ij")
    xs = [x.reshape(x.shape + (1,) * spec.n) for x in xm]
    xis = [z.reshape((1,) * spec.n + z.shape) for z in xi_m]
    full = spec.shape + tuple(len(a) for a in xi)
    grad = None
    if grad_fns is not None:
        grad = [np.broadcast_to(g(*xs, *xis), full).copy() for g in grad_fns]
    return SymbolGrid(spec, np.broadcast_to(fn(*xs, *xis), full).copy(),
                      grad_x=grad)


class TestAssemble:
    def test_free_principal_symbol(self, grid_1d):
        cs = sets_for("free", grid_1d)[0]
        a2 = assemble_a2(cs)
        xi = dual_xi(grid_1d)[0]
        assert np.allclose(a2.values, np.broadcast_to(xi**2, a2.values.shape),
                           atol=1e-12)

    def test_ultra_diagonal_signature(self):
        spec = make_grid(2, 16, 8.0)
        cs = sets_for("ultra-diagonal", spec, nu=0.0, c0=0.0)[0]
        a2 = assemble_a2(cs)
        xi1, xi2 = np.meshgrid(*dual_xi(spec), indexing="ij")
        expected = np.broadcast_to(xi1**2 - xi2**2, a2.values.shape)
        assert np.allclose(a2.values, expected, atol=1e-12)

    def test_free_has_no_subprincipal_part(self, grid_1d):
        cs = sets_for("free", grid_1d)[0]
        a1 = assemble_a1(cs)
        assert np.max(np.abs(a1.values)) < 1e-12

    def test_sine_model_subprincipal(self):
        from vwslab.coeffs import CoefficientModel, Pointwise
        spec = make_grid(1, 32, np.pi)
        model = CoefficientModel(
            "sine", 1, np.eye(1),
            perturb={(0, 0): Pointwise(lambda x: 0.1 * np.sin(x))},
            smooth=True)
        cs = regularise(model, 2**-4, ScaleFn("loglog"), spec)
        a1 = assemble_a1(cs)
        factor = np.exp(-cs.omega**2 / 2)
        x = spec.x_axis().reshape(-1, 1)
        xi = np.asarray(dual_xi(spec)[0]).reshape(1, -1)
        expected = -1j * 0.1 * factor * np.cos(x) * xi
        assert np.allclose(a1.values, expected, atol=1e-10)


class TestPoissonBracket:
    def test_quadratic_against_position(self, grid_1d_pi):
        # x is not periodic, so its exact unit gradient rides along
        a = symbol_from(grid_1d_pi, lambda x, xi: xi**2 + 0.0 * x)
        b = symbol_from(grid_1d_pi, lambda x, xi: x + 0.0 * xi,
                        grad_fns=[lambda x, xi: 1.0 + 0.0 * x + 0.0 * xi])
        br = poisson_bracket(a, b)
        expected = symbol_from(grid_1d_pi, lambda x, xi: 2 * xi + 0.0 * x)
        assert np.allclose(br.values, expected.values, atol=1e-10)

    def test_canonical_pair(self, grid_1d_pi):
        a = symbol_from(grid_1d_pi, lambda x, xi: x + 0.0 * xi,
                        grad_fns=[lambda x, xi: 1.0 + 0.0 * x + 0.0 * xi])
        b = symbol_from(grid_1d_pi, lambda x, xi: xi + 0.0 * x)
        br = poisson_bracket(a, b)
        assert np.allclose(br.values, -1.0, atol=1e-10)

    def test_antisymmetry(self, grid_1d_pi):
        a = symbol_from(grid_1d_pi,
                        lambda x, xi: np.sin(x) * xi**2)
        assert np.max(np.abs(poisson_bracket(a, a).values)) < 1e-10

    def test_leibniz(self, grid_1d_pi):
        a = symbol_from(grid_1d_pi, lambda x, xi: np.cos(x) + 0.1 * xi**2)
        b = symbol_from(grid_1d_pi, lambda x, xi: np.sin(x) * xi)
        c = symbol_from(grid_1d_pi, lambda x, xi: 1.0 + 0.05 * xi**2 + 0.0 * x)
        bc = SymbolGrid(grid_1d_pi, b.values * c.values)
        lhs = poisson_bracket(a, bc).values
        rhs = (b.values * poisson_bracket(a, c).values
               + c.values * poisson_bracket(a, b).values)
        scale = np.max(np.abs(lhs)) + 1e-30
        assert np.max(np.abs(lhs - rhs)) / scale < 1e-8

    def test_grid_mismatch(self, grid_1d_pi, grid_1d):
        a = symbol_from(grid_1d_pi, lambda x, xi: x + 0.0 * xi)
        b = symbol_from(grid_1d, lambda x, xi: x + 0.0 * xi)
        with pytest.raises(SymbolError):
            poisson_bracket(a, b)


class TestFd4:
    @pytest.mark.parametrize("axis", [0, 1, 2])
    def test_exact_on_quartics(self, axis):
        # every stencil, the one-sided edge ones included, is exact to degree 4
        t = np.linspace(-1.5, 2.0, 11)
        shape = [3, 4, 5]
        shape[axis] = t.size
        lead = np.arange(1.0, 1.0 + np.prod(shape) / t.size).reshape(
            [1 if k == axis else s for k, s in enumerate(shape)])
        tt = t.reshape([-1 if k == axis else 1 for k in range(3)])
        got = fd4(lead * (tt**4 - 2 * tt**3 + tt), axis, t[1] - t[0])
        want = lead * (4 * tt**3 - 6 * tt**2 + 1)
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


class TestBuildQ:
    def test_free_closed_form(self, grid_1d):
        cs = sets_for("free", grid_1d)[0]
        xi = dual_xi(grid_1d)
        q = build_q(cs, 4.0, 1.0)
        x = grid_1d.x_axis().reshape(-1, 1)
        z = np.asarray(xi[0]).reshape(1, -1)
        expected = 2 * 4.0 * x * z / np.sqrt(1 + z**2)
        assert np.allclose(q.values, expected, atol=1e-10)

    def test_vanishes_at_zero_frequency(self, grid_1d):
        cs = sets_for("delta-potential", grid_1d)[0]
        q = build_q(cs, 4.0, 1.0)
        zero = np.argmin(np.abs(np.asarray(dual_xi(grid_1d)[0])))
        assert np.max(np.abs(q.values[:, zero])) < 1e-12


class TestBuildF:
    def test_zero_at_zero(self):
        f = FTable(1.0, 2)
        assert f(0.0) == 0.0

    def test_identity_on_the_ramp(self):
        f = FTable(1.0, 2)
        ts = np.linspace(0.0, 10.0, 11)
        assert np.allclose(f(ts), ts, rtol=1e-6)

    def test_bounded_limit(self):
        f = FTable(1.0, 2, t_max=400.0)
        # f(inf) <= 10 + int <s>^{-2} ds = 10 + pi/2
        assert f(400.0) <= 10 + np.pi / 2 + 0.05
        assert f(400.0) >= 10.0

    def test_monotone(self):
        f = FTable(2.5, 2)
        ts = np.linspace(0.0, f.t_max, 500)
        assert np.all(np.diff(f(ts)) >= 0.0)

    def test_derivative_dominates_lambda(self):
        f = FTable(3.0, 2)
        ts = np.linspace(0.0, f.t_max, 700)
        assert np.all(f.derivative(ts) >= f.lam(ts / 3.0 - 10.0) - 1e-12)

    def test_rejects_bad_parameters(self):
        with pytest.raises(SymbolError):
            FTable(0.0, 2)
        with pytest.raises(SymbolError):
            FTable(1.0, 1)


class TestTableLookups:
    """FTable and SmoothStep index their uniform tables directly; the values
    are np.interp's on the same tables, fills and clamps included."""

    @staticmethod
    def _close(got, want):
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))

    def test_ftable_is_np_interp(self):
        f = FTable(2.5, 2)
        rng = np.random.default_rng(3)
        t = np.concatenate([[-3.0, -1e-9], rng.uniform(0.0, f.t_max, 500),
                            f.ts[::37], [f.t_max, f.t_max + 1e-9, 3 * f.t_max]])
        self._close(f(t), np.interp(t, f.ts, f.table))
        # held at f(0) = 0 below the table and at the last entry past it
        assert f(-3.0) == 0.0
        assert f(3 * f.t_max) == f.table[-1]

    def test_smooth_step_is_np_interp(self):
        step = SmoothStep()
        rng = np.random.default_rng(4)
        t = np.concatenate([[-5.0, 0.5, 1.0], rng.uniform(1.0, 2.0, 500),
                            1.0 + step.u[::41], [2.0, 2.0 + 1e-9, 7.0]])
        self._close(step(t), np.interp(t - 1.0, step.u, step.cdf,
                                       left=0.0, right=1.0))
        self._close(step.derivative(t),
                    np.interp(t - 1.0, step.u, step.bump, left=0.0, right=0.0))
        outside = np.array([-5.0, 0.5, 1.0, 2.5, 7.0])
        assert np.array_equal(step(outside), [0.0, 0.0, 0.0, 1.0, 1.0])
        assert np.array_equal(step.derivative(outside), np.zeros(5))


class TestBuildD:
    def setup_method(self):
        self.spec = make_grid(1, 32, 8.0)
        cs = sets_for("free", self.spec)[0]
        self.q = build_q(cs, 4.0, 1.0)
        self.f = FTable(calibrate_K([self.q]), 2)

    def test_inner_region_is_rescaled_q(self):
        d = build_d(self.q, self.f)
        w = np.sqrt(1 + self.spec.x_norm_sq()).reshape(-1, 1)
        r = self.q.values / w
        inner = np.abs(r) <= DELTA
        assert np.allclose(d.values[inner], r[inner], atol=1e-12)

    def test_outer_region_is_plateau(self):
        d = build_d(self.q, self.f)
        w = np.sqrt(1 + self.spec.x_norm_sq()).reshape(-1, 1)
        r = self.q.values / w
        outer = r >= 2 * DELTA
        expected = self.f(np.abs(self.q.values[outer])) + 2 * DELTA
        assert np.allclose(d.values[outer], expected, atol=1e-10)

    def test_cutoff_transition(self):
        # q/<x> = 0.15 lies inside the transition of psi+, where d depends on
        # the cutoff width 0.1 itself
        q = symbol_from(self.spec, lambda x, xi: 0.15 * np.sqrt(1 + x**2) + 0 * xi)
        f = FTable(calibrate_K([q]), 2)
        plus = SmoothStep()(0.15 / 0.1)
        assert 0.0 < plus < 1.0
        expected = 0.15 * (1.0 - plus) + (f(np.abs(q.values)) + 0.2) * plus
        assert np.allclose(build_d(q, f).values, expected, atol=1e-12)

    def test_odd_in_q(self):
        neg = SymbolGrid(self.spec, -self.q.values,
                         grad_x=[-g for g in self.q.grad_x])
        d_pos = build_d(self.q, self.f)
        d_neg = build_d(neg, self.f)
        assert np.allclose(d_neg.values, -d_pos.values, atol=1e-12)

    def test_rejects_miscalibrated_K(self):
        bad = FTable(self.f.K / 100.0, 2)
        with pytest.raises(SymbolError):
            build_d(self.q, bad)


class TestInequalities:
    def test_free_escape_margin(self, grid_1d):
        pairs = q_ladder(sets_for("free", grid_1d), C1=1.0)
        for a2, q in pairs:
            rep = check_escape(q, a2, 1.0)
            assert rep["C2"] <= 2.0

    def test_ultra_diagonal_constant_coefficients(self):
        spec = make_grid(2, 8, 8.0)
        pairs = q_ladder(sets_for("ultra-diagonal", spec, nu=0.0, c0=0.0))
        K = calibrate_K([q for _, q in pairs])
        f = FTable(K, 2)
        stars = []
        for a2, q in pairs:
            d = build_d(q, f)
            stars.append(check_doi(d, a2, 2)["C_star"])
        # constant coefficients: no epsilon dependence at all
        assert np.ptp(stars) < 1e-12

    def test_ultra_diagonal_ladder_stability(self):
        spec = make_grid(2, 8, 8.0)
        pairs = q_ladder(sets_for("ultra-diagonal", spec))
        K = calibrate_K([q for _, q in pairs])
        f = FTable(K, 2)
        gaps, stars = [], []
        for a2, q in pairs:
            gaps.append(check_escape(q, a2, 4.0)["min_gap"])
            stars.append(check_doi(build_d(q, f), a2, 2)["min_margin"])
        assert all(np.isfinite(gaps)) and all(np.isfinite(stars))
        for vals in (gaps, stars):
            mid = np.mean(np.abs(vals))
            assert np.ptp(vals) <= 0.10 * max(mid, 1.0)


def _lift(arr):
    return arr.reshape(arr.shape + (1,) * arr.ndim)


def _reference_a2(cs):
    """a2 and its x-gradient as loops of broadcast products.  It carries no
    xi-gradient, so a bracket takes fd4 of its values."""
    spec, n = cs.spec, cs.n
    xi = np.meshgrid(*dual_xi(spec), indexing="ij")
    vals = np.zeros(spec.shape * 2)
    grads = [np.zeros_like(vals) for _ in range(n)]
    for i in range(n):
        for j in range(n):
            vals += _lift(cs.a[i][j]) * xi[i] * xi[j]
            for k in range(n):
                grads[k] += _lift(cs.da[k][i][j]) * xi[i] * xi[j]
    return SymbolGrid(spec, vals, grad_x=grads)


def _reference_q(cs, C1, mu):
    """q = C1 mu^2 <xi>^{-1} sum_j x_j d_xi_j a2 and its product-rule
    x-gradient, as loops of broadcast products."""
    spec, n = cs.spec, cs.n
    xi = np.meshgrid(*dual_xi(spec), indexing="ij")
    x = [_lift(a) for a in spec.x_mesh()]
    scale = C1 * mu**2 / np.sqrt(1.0 + sum(z**2 for z in xi))

    def dxi_a2(j, a):
        return sum(2.0 * _lift(a[i][j]) * xi[i] for i in range(n))

    vals = scale * sum(x[j] * dxi_a2(j, cs.a) for j in range(n))
    grads = [scale * (dxi_a2(k, cs.a)
                      + sum(x[j] * dxi_a2(j, cs.da[k]) for j in range(n)))
             for k in range(n)]
    return SymbolGrid(spec, vals, grad_x=grads)


def _reference_d(q, f):
    """d with np.interp lookups and psi+ and psi- evaluated one by one."""
    step = SmoothStep()

    def psi(t):
        return np.interp(t - 1.0, step.u, step.cdf, left=0.0, right=1.0)

    def dpsi(t):
        return np.interp(t - 1.0, step.u, step.bump, left=0.0, right=0.0)

    w = _lift(np.sqrt(1.0 + q.spec.x_norm_sq()))
    r = q.values / w
    plus, minus = psi(r / DELTA), psi(-r / DELTA)
    phi0 = 1.0 - plus - minus
    lift = np.interp(np.abs(q.values), f.ts, f.table) + 2.0 * DELTA
    dplus, dminus = dpsi(r / DELTA) / DELTA, -dpsi(-r / DELTA) / DELTA
    dd_dr = phi0 - r * (dplus + dminus) + lift * (dplus - dminus)
    dd_dq = (f.derivative(np.abs(q.values)) * np.sign(q.values)
             * (plus - minus))
    grads = []
    for k, x in enumerate(q.spec.x_mesh()):
        dr = (q.grad_x[k] * w - q.values * _lift(x) / w) / w**2
        grads.append(dd_dr * dr + dd_dq * q.grad_x[k])
    return SymbolGrid(q.spec, r * phi0 + lift * (plus - minus), grad_x=grads)


class TestAgainstLoopReference:
    """The matrix-product builders, the analytic d_xi a2 and the direct
    table lookups agree with loops of broadcast products, fd4 on a2 and
    np.interp, on a ladder whose escape gap and Doi constant are not zero."""

    def setup_method(self):
        spec = make_grid(2, 16, 8.0)
        self.sets = sets_for("ultra-diagonal", spec, nu=2.0, width=0.5)
        self.mus = [float(np.sqrt(np.max(cs.abs_eigenvalues())))
                    for cs in self.sets]

    @staticmethod
    def _close(got, want):
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def _close_symbols(self, got, want):
        self._close(got.values, want.values)
        for g, w in zip(got.grad_x, want.grad_x, strict=True):
            self._close(g, w)

    def test_ladder(self):
        qs = [build_q(cs, 4.0, mu) for cs, mu in zip(self.sets, self.mus)]
        f = FTable(calibrate_K(qs), 2)
        gaps, stars = [], []
        for cs, mu, q in zip(self.sets, self.mus, qs):
            a2, ref_a2 = assemble_a2(cs), _reference_a2(cs)
            ref_q = _reference_q(cs, 4.0, mu)
            d, ref_d = build_d(q, f), _reference_d(ref_q, f)
            self._close_symbols(a2, ref_a2)
            self._close_symbols(q, ref_q)
            self._close_symbols(d, ref_d)
            self._close(poisson_bracket(a2, q).values,
                        poisson_bracket(ref_a2, ref_q).values)
            self._close(poisson_bracket(a2, d).values,
                        poisson_bracket(ref_a2, ref_d).values)
            gaps.append(check_escape(q, a2, 4.0)["min_gap"])
            stars.append(check_doi(d, a2, 2)["C_star"])
        # the checks see more than the clamped zeros of the xi = 0 column
        assert all(g < 0.0 for g in gaps)
        assert max(stars) > 0.0

    @pytest.mark.parametrize("n, M, name", [(1, 64, "delta-potential"),
                                            (2, 16, "ultra-diagonal")])
    def test_xi_gradient_of_a2_is_fd4_of_its_values(self, n, M, name):
        # fd4 is exact on quadratics, its one-sided edge stencils included
        spec = make_grid(n, M, 8.0)
        a2 = assemble_a2(sets_for(name, spec)[-1])
        h = float(np.diff(dual_xi(spec)[0])[0])
        edges = [0, 1, M - 2, M - 1]
        for j in range(n):
            want = fd4(a2.values, n + j, h)
            self._close(a2.grad_xi[j], want)
            self._close(np.take(a2.grad_xi[j], edges, axis=n + j),
                        np.take(want, edges, axis=n + j))


class TestSymbolSeminorm:
    def test_japanese_bracket_symbol(self, grid_1d_pi):
        a = symbol_from(grid_1d_pi,
                        lambda x, xi: np.sqrt(1 + xi**2) + 0.0 * x)
        assert symbol_seminorm(a, 1.0, 0) == pytest.approx(1.0)

    def test_constant_symbol(self, grid_1d_pi):
        a = symbol_from(grid_1d_pi, lambda x, xi: -2.5 + 0.0 * x + 0.0 * xi)
        for k in (0, 1, 2, 3):
            assert symbol_seminorm(a, 0.0, k) == pytest.approx(2.5)

    def test_depth_limit(self, grid_1d_pi):
        a = symbol_from(grid_1d_pi, lambda x, xi: x + 0.0 * xi)
        with pytest.raises(SymbolError):
            symbol_seminorm(a, 0.0, 4)

    def test_first_x_derivative_is_the_attached_gradient(self):
        # zero values with a constant attached gradient: only the gradient,
        # taken on the axis of beta, gives the order-1 seminorm
        spec = make_grid(2, 8, 8.0)
        zero = np.zeros(spec.shape * 2)
        a = SymbolGrid(spec, zero, grad_x=[zero + 1.5, zero - 2.5])
        assert symbol_seminorm(a, 0.0, 1) == 2.5

    def test_lipschitz_principal_growth(self):
        # second x-derivative of a mollified Lipschitz coefficient grows
        # like omega^{-1}; the k=2, m=2 seminorm inherits that rate once
        # the singular term dominates the O(1) background
        spec = make_grid(1, 512, 8.0)
        model = preset("elliptic-lipschitz", n=1, nu=0.4)
        scale = ScaleFn("power", k=1.0)
        vals, omegas = [], []
        for eps in (2.0**-2, 2.0**-3, 2.0**-4, 2.0**-5):
            cs = regularise(model, eps, scale, spec)
            a2 = assemble_a2(cs)
            vals.append(symbol_seminorm(a2, 2.0, 2))
            omegas.append(cs.omega)
        slope, _ = fit_slope(np.log(omegas), np.log(vals))
        assert slope == pytest.approx(-1.0, abs=0.3)

    def test_doi_symbol_class_growth(self, grid_1d):
        pairs = q_ladder(sets_for("delta-potential", grid_1d))
        K = calibrate_K([q for _, q in pairs])
        f = FTable(K, 2)
        s1, s2, omegas = [], [], []
        for cs, (a2, q) in zip(sets_for("delta-potential", grid_1d), pairs):
            d = build_d(q, f)
            s1.append(symbol_seminorm(d, 0.0, 1))
            s2.append(symbol_seminorm(d, 0.0, 2))
            omegas.append(cs.omega)
        slope1, _ = fit_slope(np.log(omegas), np.log(s1))
        slope2, _ = fit_slope(np.log(omegas), np.log(s2))
        assert slope1 >= -0.3
        assert slope2 >= -1.0 - 0.3


class TestQuantize:
    def test_identity_symbol(self, grid_1d_pi):
        a = symbol_from(grid_1d_pi, lambda x, xi: 1.0 + 0.0 * x + 0.0 * xi)
        op = quantize(a)
        u = random_field(grid_1d_pi, seed=8)
        assert np.allclose(op @ u.values.ravel(), u.values.ravel(), atol=1e-12)

    def test_pure_multiplier_matches_lambda(self, grid_1d_pi):
        a = symbol_from(grid_1d_pi,
                        lambda x, xi: (1 + xi**2) ** 0.75 + 0.0 * x)
        op = quantize(a)
        u = random_field(grid_1d_pi, seed=9)
        expected = apply_lambda(u, 1.5).values
        assert np.allclose(op @ u.values.ravel(), expected.ravel(),
                           atol=1e-12)

    def test_pure_multiplication_symbol(self, grid_1d_pi):
        a = symbol_from(grid_1d_pi, lambda x, xi: x + 0.0 * xi)
        op = quantize(a)
        u = random_field(grid_1d_pi, seed=10)
        expected = grid_1d_pi.x_axis() * u.values
        assert np.allclose(op @ u.values.ravel(), expected.ravel(), atol=1e-10)

    def test_size_limit(self):
        spec = make_grid(1, 128, 8.0)
        a = symbol_from(spec, lambda x, xi: 1.0 + 0.0 * x + 0.0 * xi)
        with pytest.raises(SymbolError):
            quantize(a)


class TestEnergyNorm:
    def test_sandwich_on_ladder(self):
        spec = make_grid(1, 32, 8.0)
        sets = sets_for("delta-potential", spec)
        pairs = q_ladder(sets)
        K = calibrate_K([q for _, q in pairs])
        f = FTable(K, 2)
        rng = np.random.default_rng(11)
        cs_omegas, c_eps = [], []
        for cs, (a2, q) in zip(sets, pairs):
            E = exp_symbol_operator(build_d(q, f))
            worst = 1.0
            for _ in range(20):
                u = Field(spec, rng.standard_normal(32)
                          + 1j * rng.standard_normal(32))
                r = energy_norm(E, u, 0.0) / sobolev_norm(u, 0.0)
                assert np.isfinite(r) and r > 0
                worst = max(worst, r, 1.0 / r)
            c_eps.append(worst)
            cs_omegas.append(cs.omega)
        _, resid = fit_slope(np.log(1.0 / np.array(cs_omegas)),
                             np.log(c_eps))
        assert resid < 0.5
