from fractions import Fraction

import numpy as np
import pytest

from conftest import random_field
from vwslab.grid import (Field, GridError, GridSpec, _tables, apply_lambda, fft,
                         forward, ifft, inverse, plane_wave, sobolev_norm,
                         spectral_derivative, weight_field)


class TestMakeGrid:
    def test_unit_lattice_when_L_is_pi(self):
        spec = GridSpec(1, 16, np.pi)
        assert spec.h == pytest.approx(2 * np.pi / 16)
        assert sorted(spec.kappa_axis().round(12)) == list(range(-8, 8))

    def test_2d_node_count_and_kappa_step(self):
        spec = GridSpec(2, 32, 8.0)
        assert spec.size == 1024
        kappas = np.sort(spec.kappa_axis())
        assert np.allclose(np.diff(kappas), np.pi / 8)

    def test_rejects_non_power_of_two(self):
        with pytest.raises(GridError):
            GridSpec(1, 12, np.pi)

    def test_rejects_bad_dimension_and_length(self):
        with pytest.raises(GridError):
            GridSpec(3, 16, 1.0)
        with pytest.raises(GridError):
            GridSpec(1, 16, 0.0)

    def test_minimum_points(self):
        with pytest.raises(GridError):
            GridSpec(1, 4, 1.0)

    # the grid caches key on the spec, so equal grids must be one key
    def test_spec_is_an_immutable_value(self):
        a, b = GridSpec(2, 16, 4.0), GridSpec(2, 16, 4.0)
        assert a == b and hash(a) == hash(b)
        assert a != GridSpec(2, 16, 8.0) and a != GridSpec(1, 16, 4.0)
        assert len({a, b, GridSpec(2, 32, 4.0)}) == 2
        assert repr(a) == "GridSpec(n=2, M=16, L=4.0)"
        with pytest.raises(AttributeError):
            a.M = 32
        with pytest.raises(AttributeError):
            a.extra = 1
        assert (a.n, a.M, a.L) == (2, 16, 4.0)

    @pytest.mark.parametrize("args, message", [
        ((3, 16, 1.0), "dimension must be 1 or 2, got 3"),
        ((1, 12, 1.0), "M must be a power of two >= 8, got 12"),
        ((1, 4, 1.0), "M must be a power of two >= 8, got 4"),
        ((1, 16, 0.0), "L must be positive, got 0.0"),
        ((1, 16, float("nan")), "L must be positive, got nan"),
        # an infinite L would pass as positive, and every node would be nan
        ((1, 64, float("inf")), "L must be finite, got inf"),
        # n and M are integers and L a real number, though 1.0 == True == 1
        ((1, 64.0, 8.0), "M must be a power of two >= 8, got 64.0"),
        ((1.0, 64, 8.0), "dimension must be 1 or 2, got 1.0"),
        ((True, 64, 8.0), "dimension must be 1 or 2, got True"),
        ((1, 64, "8"), "L must be a real number, got '8'"),
        ((1, 64, True), "L must be a real number, got True"),
        ((1, 64, 8j), "L must be a real number, got 8j")])
    @pytest.mark.parametrize("build", [GridSpec])
    def test_every_check_at_each_entry(self, build, args, message):
        with pytest.raises(GridError, match=f"^{message}$"):
            build(*args)

    @pytest.mark.parametrize("args", [
        (np.int64(1), np.int32(64), 8), (1, np.uint16(64), np.float32(8.0)),
        (2, 16, Fraction(17, 2)), (2, 16, np.int64(8))])
    def test_accepts_numpy_integers_and_every_real_L(self, args):
        n, M, L = args
        spec, plain = GridSpec(*args), GridSpec(int(n), int(M), float(L))
        # one grid, so one key of the grid caches
        assert spec == plain and hash(spec) == hash(plain)
        assert spec.h == plain.h and spec.shape == plain.shape


class TestField:
    def test_rejects_nan(self, grid_1d):
        vals = np.ones(grid_1d.shape, dtype=complex)
        vals[3] = np.nan
        with pytest.raises(GridError):
            Field(grid_1d, vals)

    def test_rejects_wrong_shape(self, grid_1d):
        with pytest.raises(GridError):
            Field(grid_1d, np.ones(7, dtype=complex))


class TestFourier:
    def test_constant_has_unit_zero_mode(self, grid_1d_pi):
        u = Field(grid_1d_pi, np.ones(16, dtype=complex))
        coeffs = forward(u)
        assert coeffs[0] == pytest.approx(1.0)
        assert np.max(np.abs(coeffs[1:])) < 1e-14

    def test_plane_wave_is_single_mode(self, grid_1d_pi):
        u = plane_wave(grid_1d_pi, (3,))
        coeffs = forward(u)
        assert coeffs[3] == pytest.approx(1.0)
        others = np.delete(coeffs, 3)
        assert np.max(np.abs(others)) < 1e-13

    def test_round_trip(self, grid_2d):
        u = random_field(grid_2d, seed=1)
        back = inverse(forward(u), grid_2d)
        assert np.allclose(back, u.values, atol=1e-12)


class TestSobolevNorm:
    def test_constant(self, grid_1d_pi):
        u = Field(grid_1d_pi, np.ones(16, dtype=complex))
        for s in (-2.0, 0.0, 3.5):
            assert sobolev_norm(u, s) == pytest.approx(np.sqrt(2 * np.pi))

    def test_single_mode_order_one(self, grid_1d_pi):
        u = plane_wave(grid_1d_pi, (1,))
        assert sobolev_norm(u, 1.0) == pytest.approx(np.sqrt(2 * np.pi) * np.sqrt(2))

    def test_two_modes_parseval(self, grid_1d_pi):
        x = grid_1d_pi.x_axis()
        u = Field(grid_1d_pi, np.exp(1j * x) + np.exp(-1j * x))
        assert sobolev_norm(u, 0.0) == pytest.approx(np.sqrt(2 * np.pi) * np.sqrt(2))

    def test_parseval_against_grid_sum(self, grid_2d):
        u = random_field(grid_2d, seed=2)
        lhs = sobolev_norm(u, 0.0) ** 2
        rhs = grid_2d.h**2 * np.sum(np.abs(u.values) ** 2)
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_monotone_in_order(self, grid_1d):
        u = random_field(grid_1d, seed=3)
        norms = [sobolev_norm(u, s) for s in (-2.0, -0.5, 0.0, 1.0, 2.5)]
        assert all(a <= b * (1 + 1e-12) for a, b in zip(norms, norms[1:]))


class TestApplyLambda:
    def test_identity_at_zero(self, grid_1d):
        u = random_field(grid_1d, seed=4)
        assert np.allclose(apply_lambda(u, 0.0).values, u.values, atol=1e-13)

    def test_single_mode_factor(self, grid_1d_pi):
        u = plane_wave(grid_1d_pi, (1,))
        out = apply_lambda(u, 2.0)
        assert np.allclose(out.values, 2.0 * u.values, atol=1e-12)

    def test_group_law(self, grid_2d):
        u = random_field(grid_2d, seed=5)
        lhs = apply_lambda(u, 1.7).values
        rhs = apply_lambda(apply_lambda(u, 0.9), 0.8).values
        assert np.allclose(lhs, rhs, rtol=1e-12, atol=1e-12)

    def test_inverse(self, grid_1d):
        u = random_field(grid_1d, seed=6)
        back = apply_lambda(apply_lambda(u, 1.3), -1.3)
        assert np.allclose(back.values, u.values, rtol=1e-11, atol=1e-11)


class TestWeightField:
    def test_unchanged_at_origin(self, grid_1d):
        u = Field(grid_1d, np.ones(64, dtype=complex))
        out = weight_field(u, -3.0)
        origin = np.argmin(np.abs(grid_1d.x_axis()))
        assert out.values[origin] == pytest.approx(1.0)

    def test_value_at_unit_point(self, grid_2d):
        u = Field(grid_2d, np.ones(grid_2d.shape, dtype=complex))
        out = weight_field(u, -2.0)
        x0, x1 = grid_2d.x_mesh()
        i = np.argwhere((np.abs(x0 - 1.0) < 1e-12) & (np.abs(x1) < 1e-12))[0]
        assert out.values[tuple(i)] == pytest.approx(0.5)

    def test_zero_exponent_identity(self, grid_1d):
        u = random_field(grid_1d, seed=7)
        assert np.array_equal(weight_field(u, 0.0).values, u.values)


def test_spectral_derivative_of_sine():
    spec = GridSpec(1, 64, np.pi)
    x = spec.x_axis()
    du = spectral_derivative(np.sin(2 * x).astype(complex), spec, 0)
    assert np.allclose(du, 2 * np.cos(2 * x), atol=1e-12)


class TestGridTables:
    def test_equal_specs_share_arrays(self):
        a, b = GridSpec(2, 16, 4.0), GridSpec(2, 16, 4.0)
        assert a is not b
        assert all(x is y for x, y in zip(a.kappa_mesh(), b.kappa_mesh()))
        assert all(x is y for x, y in zip(a.x_mesh(), b.x_mesh()))
        assert a.kappa_sq() is b.kappa_sq()
        assert a.kappa_bracket() is b.kappa_bracket()
        assert a.x_norm_sq() is b.x_norm_sq()

    @pytest.mark.parametrize("table", [
        lambda s: s.kappa_mesh()[0], lambda s: s.kappa_bracket(),
        lambda s: s.x_norm_sq(), lambda s: s.x_mesh()[0],
        lambda s: s.kappa_sq()])
    def test_tables_are_read_only(self, table):
        arr = table(GridSpec(2, 16, 4.0))
        with pytest.raises(ValueError):
            arr[0] = 1.0
        with pytest.raises(ValueError):
            arr += 1.0

    @pytest.mark.parametrize("n", [1, 2])
    def test_tables_equal_fresh_build(self, n):
        spec = GridSpec(n, 32, 5.0)
        h = 2.0 * 5.0 / 32
        ka = 2.0 * np.pi * np.fft.fftfreq(32, d=h)
        km = np.meshgrid(*([ka] * n), indexing="ij")
        xm = np.meshgrid(*([-5.0 + h * np.arange(32)] * n), indexing="ij")
        k2 = sum(k**2 for k in km)
        for got, want in zip(spec.kappa_mesh(), km):
            assert np.array_equal(got, want)
        for got, want in zip(spec.x_mesh(), xm):
            assert np.array_equal(got, want)
        assert np.array_equal(spec.kappa_sq(), k2)
        assert np.array_equal(spec.kappa_bracket(), np.sqrt(1.0 + k2))
        assert np.array_equal(spec.x_norm_sq(), sum(x**2 for x in xm))


    @pytest.mark.parametrize("n", [1, 2])
    def test_weights_are_the_conventions(self, n):
        # <x>^p = (1 + |x|^2)^(p/2), and the H^s norm of the forward
        # coefficients, which sobolev_norm takes from the raw ones
        spec = GridSpec(n, 16, 3.0)
        x2 = sum(x**2 for x in spec.x_mesh())
        assert np.array_equal(spec.x_bracket(), np.sqrt(1.0 + x2))
        assert np.array_equal(spec.x_bracket(-2), 1.0 / (1.0 + x2))
        u = random_field(spec, seed=n)
        for s in (-1.0, 0.0, 1.5):
            want = np.sqrt((2.0 * spec.L) ** n * np.sum(
                spec.kappa_bracket() ** (2.0 * s) * np.abs(forward(u)) ** 2))
            assert sobolev_norm(u, s) == pytest.approx(want, rel=1e-13)


class TestRawTransforms:
    @pytest.mark.parametrize("n", [1, 2])
    def test_raw_pair_is_numpy_fftn(self, n):
        spec = GridSpec(n, 16, 3.0)
        u = random_field(spec, seed=n)
        uh = fft(u.values, n)
        assert np.array_equal(uh, np.fft.fftn(u.values))
        assert np.array_equal(ifft(uh, n), np.fft.ifftn(uh))
        assert np.allclose(ifft(uh, n), u.values, atol=1e-14)

    @pytest.mark.parametrize("n", [1, 2])
    def test_forward_is_raw_times_phase_over_size(self, n):
        # the phase is (-1)^(k_1 + ... + k_n) exactly, a real table, and
        # exp(i L sum kappa) to rounding
        spec = GridSpec(n, 16, 3.0)
        k = np.fft.fftfreq(16, d=1.0 / 16)
        phase = _tables(spec).phase
        assert phase.dtype == np.float64
        assert np.array_equal(
            phase, np.where(sum(np.meshgrid(*([k] * n), indexing="ij")) % 2, -1.0, 1.0))
        assert np.allclose(phase, np.exp(1j * spec.L * sum(spec.kappa_mesh())),
                           rtol=0.0, atol=1e-14)
        u = random_field(spec, seed=n + 2)
        assert np.array_equal(forward(u), fft(u.values, n) * phase / spec.size)
        c = forward(u)
        assert np.array_equal(inverse(c, spec), ifft(c * phase * spec.size, n))

    @pytest.mark.parametrize("n", [1, 2])
    def test_raw_pair_of_a_stack_is_row_by_row(self, n):
        # a leading axis is a stack of fields: a (P, M) stack of 1D fields
        # is not taken for one 2D field
        spec = GridSpec(n, 16, 3.0)
        stack = np.stack([random_field(spec, seed=k).values for k in range(3)])
        for pair in ((fft, ifft), (ifft, fft)):
            first = pair[0](stack, n)
            assert first.shape == stack.shape
            for row, got in zip(stack, first):
                assert np.array_equal(got, pair[0](row, n))
            assert np.allclose(pair[1](first, n), stack, atol=1e-13)
