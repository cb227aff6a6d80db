import hashlib
import tracemalloc

import numpy as np
import pytest

from conftest import LADDER, random_field
from vwslab.coeffs import preset, regularise
from vwslab import doi
from vwslab.doi import (C1, DELTA, FTable, SmoothStep, SymbolError, SymbolGrid,
                        _R_IN, _R_TOP, _STEP, _d_rows, _sup_over_x,
                        _x_blocks, assemble_a2, build_d, build_q,
                        calibrate_K, check_doi, check_escape, check_member,
                        dual_xi, energy_norm, exp_symbol_operator, fd4,
                        poisson_bracket, quantize, symbol_seminorm)
from vwslab.grid import Field, GridSpec, apply_lambda, sobolev_norm
from vwslab.mollify import ScaleFn, fit_slope


def sets_for(name, spec, **params):
    model = preset(name, n=spec.n, **params)
    scale = ScaleFn("loglog")
    return [regularise(model, e, scale, spec) for e in LADDER]


def q_ladder(sets):
    return [(assemble_a2(cs), build_q(cs)) for cs in sets]


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
        spec = GridSpec(2, 16, 8.0)
        cs = sets_for("ultra-diagonal", spec, nu=0.0, c0=0.0)[0]
        a2 = assemble_a2(cs)
        xi1, xi2 = np.meshgrid(*dual_xi(spec), indexing="ij")
        expected = np.broadcast_to(xi1**2 - xi2**2, a2.values.shape)
        assert np.allclose(a2.values, expected, atol=1e-12)


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
        q = build_q(cs)
        x = grid_1d.x_axis().reshape(-1, 1)
        z = np.asarray(xi[0]).reshape(1, -1)
        expected = 2 * C1 * x * z / np.sqrt(1 + z**2)
        assert np.allclose(q.values, expected, atol=1e-10)

    def test_vanishes_at_zero_frequency(self, grid_1d):
        cs = sets_for("delta-potential", grid_1d)[0]
        q = build_q(cs)
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

    @pytest.mark.parametrize("K", [1.0, 8.82, 15.27])
    @pytest.mark.parametrize("N", [2, 3, 4])
    def test_identity_to_10K_then_below_t(self, K, N):
        # lambda = 1 on t <= 10 K, so f(t) = t there, to 1 ulp; past 10 K
        # lambda < 1 and f drops below t.  K = 1.1 sup |q|/<x> keeps |q|
        # below 10 K wherever <x> <= 11, so on an L = 8 box (save the
        # corners of a 2D one) d sees f(|q|) = |q|, whatever N is
        f = FTable(K, N)
        ts = np.linspace(0.0, 10.0 * K, 100001)
        assert np.all(np.abs(f(ts) - ts) <= np.spacing(ts))
        past = np.linspace(1.001 * 10.0 * K, f.t_max, 1001)
        assert np.all(f(past) < past)

    def test_bounded_limit(self):
        f = FTable(1.0, 2)
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
        self.spec = GridSpec(1, 32, 8.0)
        cs = sets_for("free", self.spec)[0]
        self.q = build_q(cs)
        self.f = FTable(calibrate_K([cs]), 2)

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
        f = FTable(1.1 * _sup_over_x(q), 2)
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
        pairs = q_ladder(sets_for("free", grid_1d))
        for a2, q in pairs:
            rep = check_escape(q, a2)
            assert rep["C2"] <= 2.0

    def test_ultra_diagonal_constant_coefficients(self):
        spec = GridSpec(2, 8, 8.0)
        sets = sets_for("ultra-diagonal", spec, nu=0.0, c0=0.0)
        pairs = q_ladder(sets)
        K = calibrate_K(sets)
        f = FTable(K, 2)
        stars = []
        for a2, q in pairs:
            d = build_d(q, f)
            stars.append(check_doi(d, a2, 2)["C_star"])
        # constant coefficients: no epsilon dependence at all
        assert np.ptp(stars) < 1e-12

    def test_ultra_diagonal_ladder_stability(self):
        spec = GridSpec(2, 8, 8.0)
        sets = sets_for("ultra-diagonal", spec)
        pairs = q_ladder(sets)
        K = calibrate_K(sets)
        f = FTable(K, 2)
        gaps, stars = [], []
        for a2, q in pairs:
            gaps.append(check_escape(q, a2)["min_gap"])
            stars.append(check_doi(build_d(q, f), a2, 2)["min_margin"])
        assert all(np.isfinite(gaps)) and all(np.isfinite(stars))
        for vals in (gaps, stars):
            mid = np.mean(np.abs(vals))
            assert np.ptp(vals) <= 0.10 * max(mid, 1.0)


class TestCheckMember:
    """check_member, block by block, gives the reports of check_escape and
    check_doi on the built symbols to the bit, and those are the minima
    over the whole grid of the brackets that poisson_bracket builds."""

    @staticmethod
    def _ladder(n, M, name, **params):
        spec = GridSpec(n, M, 8.0)
        sets = sets_for(name, spec, **params)
        return spec, sets, FTable(calibrate_K(sets), params.get("N", 2))

    # 1D M = 256 and 2D M = 16 both take 8 blocks of rows, 2D M = 32 takes
    # 128 blocks of 8 x-points; on the c2 = -0.3, N = 3 ladders no minimum
    # is clamped at the xi = 0 column, where the default ultra-diagonal
    # ladders have every minimum, 0.0
    @pytest.mark.parametrize("n, M, name, params", [
        (1, 256, "delta-potential", {}),
        (2, 16, "ultra-diagonal", {"nu": 2.0, "width": 0.5}),
        (2, 16, "ultra-diagonal", {"nu": 2.0, "width": 0.5, "c2": -0.3, "N": 3}),
        (2, 32, "ultra-diagonal", {}),
        (2, 32, "ultra-diagonal", {"nu": 2.0, "width": 0.5, "c2": -0.3, "N": 3})])
    def test_equals_the_checks_of_built_symbols(self, n, M, name, params):
        spec, sets, f = self._ladder(n, M, name, **params)
        xi_abs = np.sqrt(sum(z**2 for z in np.meshgrid(*dual_xi(spec), indexing="ij")))
        weight = _lift((1.0 + spec.x_norm_sq()) ** (-f.N / 2.0))
        margins = []
        for cs in sets:
            a2, q = assemble_a2(cs), build_q(cs)
            d = build_d(q, f)
            want = {**check_escape(q, a2), **check_doi(d, a2, f.N)}
            assert check_member(cs, f) == want
            gap = poisson_bracket(a2, q).values - C1 * xi_abs
            margin = poisson_bracket(a2, d).values - weight * xi_abs
            assert want["min_gap"] == float(np.min(gap))
            assert want["min_margin"] == float(np.min(margin))
            margins.append(want["min_margin"])
        if params.get("c2") == -0.3:
            assert all(m < 0.0 for m in margins)

    # the same grids, and 2D M = 32, whose blocks are pieces of single rows
    @pytest.mark.parametrize("n, M, name, params", [
        (1, 256, "delta-potential", {}),
        (2, 16, "ultra-diagonal", {"nu": 2.0, "width": 0.5}),
        (2, 32, "ultra-diagonal", {})])
    def test_calibrate_K_is_that_of_built_symbols(self, n, M, name, params):
        sets = sets_for(name, GridSpec(n, M, 8.0), **params)
        assert calibrate_K(sets) == 1.1 * max(_sup_over_x(build_q(cs))
                                               for cs in sets)

    def test_peak_memory_is_under_three_symbol_arrays(self):
        # one (x, xi) array of 2D M = 16 is 512 KB; building a2 and d whole
        # and bracketing them peaked at 6.3 MB, and checking a member
        # against a q built whole outside the call at 1.58 MiB; with q's
        # rows built in the block loop the peak is 1.27 MiB
        spec, sets, f = self._ladder(2, 16, "ultra-diagonal")
        check_member(sets[-1], f)
        tracemalloc.start()
        try:
            check_member(sets[-1], f)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * 8 * spec.size**2

    def test_a_warm_call_allocates_less_than_four_blocks(self):
        # the block arrays live in the grid's workspace, so a warm call
        # allocates only x-sized factors, masks and numpy's own buffers:
        # 165 KiB with numpy 2.4, a block being 64 KiB; the bound is that
        # plus 25%.  Every block made its own arrays at 1,253 KiB.
        spec, sets, f = self._ladder(2, 16, "ultra-diagonal")
        check_member(sets[-1], f)
        tracemalloc.start()
        try:
            check_member(sets[-1], f)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 206 * 1024

    def test_rejects_a_miscalibrated_K_naming_the_member(self):
        spec, sets, f = self._ladder(1, 32, "free")
        with pytest.raises(SymbolError, match="FTable.K") as err:
            check_member(sets[0], FTable(f.K / 100.0, 2))
        assert f"eps = {sets[0].eps!r}" in str(err.value)


def _workspace_arrays(spec):
    mesh, quads, grad_xi, work = doi._workspace(spec)
    return [*mesh, *quads, *grad_xi, *work]


class TestBlockWorkspace:
    """calibrate_K and check_member make every array of an (x, xi) block in
    the grid's one workspace, which every block, member and call reuses:
    no call reads what an earlier one left there, and no symbol built whole
    shares an array with it."""

    # 1D M = 64 is one block, which has the shape of a symbol built whole;
    # 1D M = 256 and 2D M = 16 take 8 blocks of rows, 2D M = 32 128 pieces
    # of single rows; on the c2 = -0.3, N = 3 ladders no minimum is clamped
    # at the xi = 0 column
    GRIDS = [(1, 64, "delta-potential", {}),
             (1, 256, "delta-potential", {}),
             (2, 16, "ultra-diagonal", {"nu": 2.0, "width": 0.5, "c2": -0.3, "N": 3}),
             (2, 32, "ultra-diagonal", {"nu": 2.0, "width": 0.5, "c2": -0.3, "N": 3})]

    @pytest.fixture(scope="class")
    def ladders(self):
        """Per grid: the ladder, its FTable, and the reports in ladder order
        from a new workspace, as reprs, which tell every bit of a float."""
        doi._workspace.cache_clear()
        out = []
        for n, M, name, params in self.GRIDS:
            sets = sets_for(name, GridSpec(n, M, 8.0), **params)
            f = FTable(calibrate_K(sets), params.get("N", 2))
            out.append((sets, f, [repr(check_member(cs, f)) for cs in sets]))
        return out

    @pytest.mark.parametrize("n, M", [(1, 8), (1, 256), (1, 4096), (2, 8),
                                      (2, 16), (2, 32), (2, 128)])
    def test_every_block_has_the_workspace_shape(self, n, M):
        spec = GridSpec(n, M, 8.0)
        shapes = {spec.x_norm_sq()[rows].shape + spec.shape
                  for rows in _x_blocks(spec)}
        assert shapes == {a.shape for a in _workspace_arrays(spec)}
        assert len(shapes) == 1

    def test_the_reports_do_not_depend_on_the_order(self, ladders):
        for sets, f, want in ladders:
            assert [repr(check_member(cs, f)) for cs in sets[::-1]] == want[::-1]
        for i in range(len(LADDER)):
            for sets, f, want in ladders:
                assert calibrate_K(sets) == f.K
                assert repr(check_member(sets[i], f)) == want[i]

    def test_a_poisoned_workspace_changes_nothing(self, ladders):
        # every array a block reads is written in that block first
        for sets, f, want in ladders:
            for cs, report in zip(sets, want):
                for a in _workspace_arrays(cs.spec):
                    a.fill(np.nan)
                assert repr(check_member(cs, f)) == report
            for a in _workspace_arrays(sets[0].spec):
                a.fill(np.nan)
            assert calibrate_K(sets) == f.K

    def test_symbols_built_whole_are_left_alone(self, ladders):
        for sets, f, want in ladders:
            q = build_q(sets[-1])
            symbols = [q, build_d(q, f), assemble_a2(sets[-1])]
            arrays = [a for s in symbols for a in [s.values, *s.grad_x, *s.grad_xi]]
            before = [hashlib.sha256(a).digest() for a in arrays]
            assert calibrate_K(sets) == f.K
            assert [repr(check_member(cs, f)) for cs in sets] == want
            assert [hashlib.sha256(a).digest() for a in arrays] == before
            ws = _workspace_arrays(sets[0].spec)
            assert not any(np.may_share_memory(a, b) for a in arrays for b in ws)


def _same_bits(got, want):
    """Equal to the bit, zeros' signs included."""
    return (np.array_equal(got, want)
            and np.array_equal(np.signbit(got), np.signbit(want)))


class TestDRows:
    """_d_rows reads the step and f tables on the band of |r| where the step
    varies, and lam where |q| >= t_far, yet gives build_d's gradients, which
    read them at every point, to the bit."""

    def test_the_edges_are_where_the_tables_stop_varying(self):
        below, above = np.nextafter(_R_IN, 0.0), np.nextafter(_R_TOP, 0.0)
        step, dstep = _STEP.with_derivative(np.array([0.0, below, _R_TOP, 1.0]) / DELTA)
        assert np.array_equal(step, [0.0, 0.0, 1.0, 1.0])
        assert np.array_equal(dstep, np.zeros(4))
        # locate puts |r| / DELTA = 1 on the first node and 2 on the last
        assert DELTA < _R_IN and above < 2.0 * DELTA <= _R_TOP
        assert [_STEP._cdf.locate(a / DELTA)[0] for a in (_R_IN, above)] == [0, 3999]
        assert _STEP._cdf.locate(below / DELTA) == (0, 0.0)
        assert _STEP._cdf.locate(_R_IN / DELTA)[1] > 0.0
        f = FTable(0.5, 2)
        assert f.derivative(np.nextafter(f.t_far, 0.0)) == 1.0
        assert f._excess(f.t_far) > 0.0 >= f._excess(np.nextafter(f.t_far, 0.0))

    @staticmethod
    def _edge_symbol(K):
        """q on 2D M = 16, L = 32 with |q|/<x> < K, its gradients random
        with zeros of both signs.  At x = 0, where <x> = 1 and r = q, q takes
        the band's edges: |r|/DELTA exactly 1 and 2, the doubles either side
        of _R_IN and _R_TOP, two inner nodes and q = +-0.  At x-points with
        <x> = 11.4, 17.9 and 40.0, |q| takes t_far and the double below it,
        which put r on top of the band, in it and below it."""
        spec = GridSpec(2, 16, 32.0)
        rng = np.random.default_rng(11)
        shape = spec.shape * 2
        w = np.sqrt(1.0 + spec.x_norm_sq())
        q = rng.uniform(-K, K, shape) * _lift(w)
        edges = [DELTA, 2.0 * DELTA, _R_IN, np.nextafter(_R_IN, 0.0), _R_TOP,
                 np.nextafter(_R_TOP, 0.0), DELTA * (1.0 + _STEP.u[1]),
                 DELTA * (1.0 + _STEP.u[-2]), 0.0]
        assert w[8, 8] == 1.0
        q[8, 8].flat[:2 * len(edges)] = edges + [-e for e in edges]
        t_far = FTable(K, 2).t_far
        for point in [(10, 10), (12, 10), (0, 2)]:
            q[point].flat[:3] = [t_far, np.nextafter(t_far, 0.0), -t_far]
        grads = [rng.standard_normal(shape) for _ in range(4)]
        for g in grads:
            g.flat[::97] = 0.0
            g.flat[1::97] = -0.0
        return spec, SymbolGrid(spec, q, grads[:2], grads[2:])

    @pytest.mark.parametrize("N", [2, 3])
    def test_equals_build_d_at_the_edges(self, N):
        K = 0.25
        spec, q = self._edge_symbol(K)
        f = FTable(K, N)
        # f' < 1 at points on top of the band, in it and below it
        abs_r = np.abs(q.values / _lift(np.sqrt(1.0 + spec.x_norm_sq())))
        far = np.abs(q.values) >= f.t_far
        band = (abs_r >= _R_IN) & (abs_r < _R_TOP)
        for where in (abs_r >= _R_TOP, band, abs_r < _R_IN):
            assert np.any(far & where)
        d = build_d(q, f)
        blocks = _x_blocks(spec)
        assert len(blocks) == 8
        for rows in blocks:
            grad_x = [g[rows].copy() for g in q.grad_x]
            grad_xi = [g[rows].copy() for g in q.grad_xi]
            work = [np.empty_like(grad_x[0]) for _ in range(3)]
            _d_rows(spec, rows, q.values[rows], f, grad_x, grad_xi, work)
            for got, want in zip(grad_x + grad_xi, d.grad_x + d.grad_xi):
                assert _same_bits(got, want[rows])

    def test_the_tables_are_read_on_few_points(self, monkeypatch):
        # on the doi-2d-ultra ladder the step varies on about 0.45% of the
        # points, and f' < 1 on 76 of 327,680
        spec = GridSpec(2, 16, 8.0)
        sets = sets_for("ultra-diagonal", spec)
        f = FTable(calibrate_K(sets), 2)
        sizes = {"at": [], "lam": []}
        at, lam = doi._UniformTable.at, FTable.lam

        def record(name, method):
            def call(self, *args):
                sizes[name].append(np.size(args[-1]))
                return method(self, *args)
            return call

        monkeypatch.setattr(doi._UniformTable, "at", record("at", at))
        monkeypatch.setattr(FTable, "lam", record("lam", lam))
        for cs in sets:
            check_member(cs, f)
        assert spec.size**2 // len(_x_blocks(spec)) == doi._BLOCK
        for name in ("at", "lam"):
            assert sizes[name] and max(sizes[name]) < 0.05 * doi._BLOCK
        far = sum(int(np.sum(np.abs(build_q(cs).values) > 10.0 * f.K)) for cs in sets)
        assert far >= 1 and sum(sizes["lam"]) >= 1


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


def _reference_q(cs, mu):
    """q = C1 mu^2 <xi>^{-1} sum_j x_j d_xi_j a2, its product-rule
    x-gradient and its xi-gradient, as loops of broadcast products: the
    xi-gradient takes the xi-Hessian d_xi_k d_xi_j a2 = 2 a_jk and
    d_xi_k <xi>^{-1} = -xi_k <xi>^{-3}."""
    spec, n = cs.spec, cs.n
    xi = np.meshgrid(*dual_xi(spec), indexing="ij")
    x = [_lift(a) for a in spec.x_mesh()]
    bra = np.sqrt(1.0 + sum(z**2 for z in xi))
    scale = C1 * mu**2 / bra

    def dxi_a2(j, a):
        return sum(2.0 * _lift(a[i][j]) * xi[i] for i in range(n))

    sum_x_dxi_a2 = sum(x[j] * dxi_a2(j, cs.a) for j in range(n))
    vals = scale * sum_x_dxi_a2
    grads = [scale * (dxi_a2(k, cs.a)
                      + sum(x[j] * dxi_a2(j, cs.da[k]) for j in range(n)))
             for k in range(n)]
    grads_xi = []
    for k in range(n):
        hess = sum(x[j] * 2.0 * _lift(cs.a[j][k]) for j in range(n))
        grads_xi.append(scale * hess
                        - C1 * mu**2 * xi[k] / bra**3 * sum_x_dxi_a2)
    return SymbolGrid(spec, vals, grad_x=grads, grad_xi=grads_xi)


def _reference_d(q, f):
    """d with np.interp lookups and psi+ and psi- evaluated one by one, and
    its gradients by the chain rule through r = q/<x> and |q|."""
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
    grads_xi = [dd_dr * g / w + dd_dq * g for g in q.grad_xi]
    return SymbolGrid(q.spec, r * phi0 + lift * (plus - minus), grad_x=grads,
                      grad_xi=grads_xi)


class TestAgainstLoopReference:
    """The batched matrix-product builders, the attached xi-gradients and
    the direct table lookups agree with loops of broadcast products, fd4 on
    a2 and np.interp, on a ladder whose escape gap and Doi constant are not
    zero."""

    def setup_method(self):
        spec = GridSpec(2, 16, 8.0)
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
        if want.grad_xi is not None:   # the reference a2 carries none
            for g, w in zip(got.grad_xi, want.grad_xi, strict=True):
                self._close(g, w)

    def test_ladder(self):
        qs = [build_q(cs) for cs in self.sets]
        f = FTable(calibrate_K(self.sets), 2)
        gaps, stars = [], []
        for cs, mu, q in zip(self.sets, self.mus, qs):
            a2, ref_a2 = assemble_a2(cs), _reference_a2(cs)
            ref_q = _reference_q(cs, mu)
            d, ref_d = build_d(q, f), _reference_d(ref_q, f)
            self._close_symbols(a2, ref_a2)
            self._close_symbols(q, ref_q)
            self._close_symbols(d, ref_d)
            self._close(poisson_bracket(a2, q).values,
                        poisson_bracket(ref_a2, ref_q).values)
            self._close(poisson_bracket(a2, d).values,
                        poisson_bracket(ref_a2, ref_d).values)
            gaps.append(check_escape(q, a2)["min_gap"])
            stars.append(check_doi(d, a2, 2)["C_star"])
        # the checks see more than the clamped zeros of the xi = 0 column
        assert all(g < 0.0 for g in gaps)
        assert max(stars) > 0.0

    @pytest.mark.parametrize("n, M, name", [(1, 64, "delta-potential"),
                                            (2, 16, "ultra-diagonal")])
    def test_xi_gradient_of_a2_is_fd4_of_its_values(self, n, M, name):
        # fd4 is exact on quadratics, its one-sided edge stencils included
        spec = GridSpec(n, M, 8.0)
        a2 = assemble_a2(sets_for(name, spec)[-1])
        h = float(np.diff(dual_xi(spec)[0])[0])
        edges = [0, 1, M - 2, M - 1]
        for j in range(n):
            want = fd4(a2.values, n + j, h)
            self._close(a2.grad_xi[j], want)
            self._close(np.take(a2.grad_xi[j], edges, axis=n + j),
                        np.take(want, edges, axis=n + j))


class TestExactXiGradients:
    """The xi-gradients that q and d carry are those of their closed forms:
    central differences with step 1e-5 of q's closed form, and of d as
    build_d evaluates it from that q, agree with them to 1e-8."""

    H = 1e-5

    @staticmethod
    def _close(got, want):
        assert np.max(np.abs(got - want)) <= 1e-8 * np.max(np.abs(want))

    def _central(self, fn, n, k):
        """d/dxi_k of fn(shift), fn evaluated on the lattice shifted by
        shift, by a central difference."""
        e = np.zeros(n)
        e[k] = self.H
        return (fn(e) - fn(-e)) / (2.0 * self.H)

    @staticmethod
    def _q(cs, shift):
        """q = C1 mu^2 <xi>^{-1} sum_ij 2 x_j a_ij(x) xi_i on the dual
        lattice shifted by shift."""
        spec, n = cs.spec, cs.n
        xi = [z + h for z, h in zip(np.meshgrid(*dual_xi(spec), indexing="ij"), shift)]
        x = [_lift(a) for a in spec.x_mesh()]
        mu2 = float(np.max(cs.abs_eigenvalues()))
        total = sum(2.0 * x[j] * _lift(cs.a[i][j]) * xi[i]
                    for i in range(n) for j in range(n))
        return C1 * mu2 * total / np.sqrt(1.0 + sum(z**2 for z in xi))

    def test_q_and_d_of_a_ladder_member(self):
        # the eps = 2^-7 member of the ladder whose Doi margins fd4 misread
        spec = GridSpec(2, 16, 8.0)
        sets = sets_for("ultra-diagonal", spec, nu=2.0, width=0.5, c2=-0.3, N=3)
        cs, f = sets[-1], FTable(calibrate_K(sets), 3)
        q = build_q(cs)
        d = build_d(q, f)
        self._close(self._q(cs, np.zeros(2)), q.values)

        def d_of(shift):
            return build_d(SymbolGrid(spec, self._q(cs, shift)), f).values

        # d's tables are piecewise linear, so their slopes are the chain
        # rule's derivatives only off the cutoff band DELTA < |r| < 2 DELTA
        # and where f(|q|) = |q|, below 10 K
        absr = np.abs(q.values) / _lift(np.sqrt(1.0 + spec.x_norm_sq()))
        off_band = ((absr < 0.99 * DELTA)
                    | ((absr > 2.02 * DELTA) & (np.abs(q.values) < 10.0 * f.K)))
        assert 0.5 < np.mean(off_band) < 1.0
        for k in range(2):
            self._close(q.grad_xi[k], self._central(lambda h: self._q(cs, h), 2, k))
            self._close(d.grad_xi[k][off_band], self._central(d_of, 2, k)[off_band])

    def test_d_in_the_cutoff_band(self):
        # q = r0 <x> (1 + xi / 100) puts r = q/<x> at r0 on the xi = 0
        # column, and r0 / DELTA at the middle of a cell of the smooth
        # step's table, where its slope is the interpolated bump
        spec = GridSpec(1, 32, 8.0)
        r0 = DELTA * (1.5 + 0.5 / 4000.0)
        w = np.sqrt(1.0 + spec.x_norm_sq())

        def q_of(shift):
            return symbol_from(spec, lambda x, xi: r0 * np.sqrt(1.0 + x**2)
                               * (1.0 + (xi + shift[0]) / 100.0))

        q = q_of(np.zeros(1))
        q.grad_xi = [np.broadcast_to(_lift(r0 * w / 100.0), q.values.shape).copy()]
        f = FTable(1.1 * _sup_over_x(q), 2)
        d = build_d(q, f)
        zero = np.argmin(np.abs(dual_xi(spec)[0]))
        assert 0.0 < SmoothStep().derivative(r0 / DELTA)
        want = self._central(lambda h: build_d(q_of(h), f).values, 1, 0)
        self._close(d.grad_xi[0][:, zero], want[:, zero])


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
        spec = GridSpec(2, 8, 8.0)
        zero = np.zeros(spec.shape * 2)
        a = SymbolGrid(spec, zero, grad_x=[zero + 1.5, zero - 2.5])
        assert symbol_seminorm(a, 0.0, 1) == 2.5

    def test_lipschitz_principal_growth(self):
        # second x-derivative of a mollified Lipschitz coefficient grows
        # like omega^{-1}; the k=2, m=2 seminorm inherits that rate once
        # the singular term dominates the O(1) background
        spec = GridSpec(1, 512, 8.0)
        model = preset("elliptic-lipschitz", n=1, nu=0.4)
        scale = ScaleFn("power", k=1.0)
        vals, omegas = [], []
        for eps in (2.0**-2, 2.0**-3, 2.0**-4, 2.0**-5):
            cs = regularise(model, eps, scale, spec)
            a2 = assemble_a2(cs)
            vals.append(symbol_seminorm(a2, 2.0, 2))
            omegas.append(cs.omega)
        slope, _ = fit_slope(omegas, vals)
        assert slope == pytest.approx(-1.0, abs=0.3)

    def test_doi_symbol_class_growth(self, grid_1d):
        sets = sets_for("delta-potential", grid_1d)
        pairs = q_ladder(sets)
        f = FTable(calibrate_K(sets), 2)
        s1, s2, omegas = [], [], []
        for cs, (a2, q) in zip(sets, pairs):
            d = build_d(q, f)
            s1.append(symbol_seminorm(d, 0.0, 1))
            s2.append(symbol_seminorm(d, 0.0, 2))
            omegas.append(cs.omega)
        slope1, _ = fit_slope(omegas, s1)
        slope2, _ = fit_slope(omegas, s2)
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
        spec = GridSpec(1, 128, 8.0)
        a = symbol_from(spec, lambda x, xi: 1.0 + 0.0 * x + 0.0 * xi)
        with pytest.raises(SymbolError):
            quantize(a)


class TestEnergyNorm:
    def test_sandwich_on_ladder(self):
        spec = GridSpec(1, 32, 8.0)
        sets = sets_for("delta-potential", spec)
        pairs = q_ladder(sets)
        f = FTable(calibrate_K(sets), 2)
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
        _, resid = fit_slope(1.0 / np.array(cs_omegas), c_eps)
        assert resid < 0.5
