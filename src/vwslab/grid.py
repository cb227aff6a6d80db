"""Periodic torus discretisation, spectral transforms and Sobolev norms.

The computational domain is the torus [-L, L)^n with M points per axis
(M a power of two), so the dual lattice is kappa_k = pi*k/L with
k = -M/2, ..., M/2 - 1 per axis.  Fourier coefficients are normalised so
that the constant field 1 has zero-mode coefficient 1; with that choice
the Sobolev norm of the constant field on (1, M, L) is sqrt(2L)
independently of the order.

``fft``/``ifft`` are the raw transform pair underneath ``forward`` and
``inverse``: no 1/size and no phase, for code that stays in coefficient
space and only needs the pair to invert each other.  They transform the
trailing n spatial axes only, so a leading axis of a stack of fields rides
along.

``fft`` indexes nodes from x = -L, so against the e^{i kappa x} basis its
coefficients carry exp(i kappa_k L) = (-1)^{k_1 + ... + k_n}, k the integer
modes.  The phase table is that sign exactly, real and +-1, so ``forward``
and ``inverse`` are the raw pair times one real table.

Every array that depends on the grid alone (the meshes, |kappa|^2,
<kappa>, |x|^2 and the transform phase) is built once per GridSpec and
shared by all callers, so these arrays are read-only: derive new arrays
from them instead of writing into them.
"""

from __future__ import annotations

import functools
import math
import numbers
from typing import NamedTuple

import numpy as np


class GridError(ValueError):
    """Invalid grid parameters or fields."""


def _is_power_of_two(m: int) -> bool:
    return m >= 1 and (m & (m - 1)) == 0


def _is_a(value, kind) -> bool:
    """value is a number of kind (``numbers.Integral`` or ``Real``), numpy
    scalars included, and not a bool."""
    return isinstance(value, kind) and not isinstance(value, bool)


class GridSpec(NamedTuple("_GridSpec", [("n", int), ("M", int), ("L", float)])):
    """Periodic grid on [-L, L)^n.

    n : spatial dimension (1 or 2), an integer
    M : points per axis, an integer power of two, >= 8
    L : half-length of the fundamental domain, a real number, positive and
        finite

    The tuple (n, M, L): immutable, and equal and hashed by value, so that
    the tables of a grid are cached on it.
    """

    __slots__ = ()

    def __new__(cls, n: int, M: int, L: float):
        if not _is_a(n, numbers.Integral) or n not in (1, 2):
            raise GridError(f"dimension must be 1 or 2, got {n!r}")
        if not _is_a(M, numbers.Integral) or not _is_power_of_two(M) or M < 8:
            raise GridError(f"M must be a power of two >= 8, got {M!r}")
        if not _is_a(L, numbers.Real):
            raise GridError(f"L must be a real number, got {L!r}")
        if not (L > 0):
            raise GridError(f"L must be positive, got {L}")
        if not math.isfinite(L):
            raise GridError(f"L must be finite, got {L}")
        return super().__new__(cls, n, M, L)

    @property
    def h(self) -> float:
        return 2.0 * self.L / self.M

    @property
    def shape(self) -> tuple:
        return (self.M,) * self.n

    @property
    def size(self) -> int:
        return self.M**self.n

    def x_axis(self) -> np.ndarray:
        """Nodes along one axis, ordered -L, -L+h, ..., L-h."""
        return -self.L + self.h * np.arange(self.M)

    def kappa_axis(self) -> np.ndarray:
        """Dual frequencies pi*k/L in FFT storage order."""
        return 2.0 * np.pi * np.fft.fftfreq(self.M, d=self.h)

    def x_mesh(self) -> tuple:
        """Meshed coordinates, one array per axis."""
        return _tables(self).x

    def kappa_mesh(self) -> tuple:
        """Meshed dual frequencies in FFT order, one array per axis."""
        return _tables(self).kappa

    def kappa_sq(self) -> np.ndarray:
        """|kappa|^2 on the meshed dual lattice."""
        return _tables(self).kappa_sq

    def x_norm_sq(self) -> np.ndarray:
        return _tables(self).x_sq

    def x_bracket(self, p: float = 1.0) -> np.ndarray:
        """<x>^p = (1 + |x|^2)^{p/2} on the meshed nodes."""
        return (1.0 + self.x_norm_sq()) ** (p / 2.0)

    def kappa_bracket(self) -> np.ndarray:
        """Japanese bracket <kappa> on the meshed dual lattice."""
        return _tables(self).bracket

    def sobolev_weight(self, s: float) -> np.ndarray:
        """w with ||u||_s^2 = sum w |fft(u)|^2: (2L)^n <kappa>^{2s} / size^2,
        ``forward`` being fft / size times a sign."""
        return (2.0 * self.L) ** self.n / self.size**2 * self.kappa_bracket() ** (2.0 * s)


class _Tables(NamedTuple):
    x: tuple
    kappa: tuple
    kappa_sq: np.ndarray
    bracket: np.ndarray
    x_sq: np.ndarray
    phase: np.ndarray


# Bounded so that a long process sweeping many grids does not keep every
# table alive; the pipelines use one or two grids at a time.
@functools.lru_cache(maxsize=32)
def _tables(spec: GridSpec) -> _Tables:
    x = tuple(np.meshgrid(*([spec.x_axis()] * spec.n), indexing="ij"))
    kappa = tuple(np.meshgrid(*([spec.kappa_axis()] * spec.n), indexing="ij"))
    kappa_sq = sum(km**2 for km in kappa)
    sign = np.where(np.arange(spec.M) % 2, -1.0, 1.0)  # (-1)^k, k = j or j - M, M even
    tables = _Tables(x, kappa, kappa_sq, np.sqrt(1.0 + kappa_sq),
                     sum(xm**2 for xm in x),
                     functools.reduce(np.multiply.outer, [sign] * spec.n))
    for arr in (*x, *kappa, *tables[2:]):
        arr.setflags(write=False)
    return tables


class Field:
    """Complex-valued grid function on a GridSpec."""

    def __init__(self, spec: GridSpec, values):
        self.spec = spec
        self.values = np.asarray(values, dtype=complex)
        if self.values.shape != spec.shape:
            raise GridError(
                f"field shape {self.values.shape} does not match grid {spec.shape}"
            )
        if not np.all(np.isfinite(self.values)):
            raise GridError("field contains non-finite entries")


def fft(values: np.ndarray, n: int, out: np.ndarray | None = None) -> np.ndarray:
    """Raw discrete Fourier coefficients of grid values over their trailing
    n axes: no 1/size, no phase.  Leading axes are a stack of fields, each
    transformed as it would be alone.  Given ``out``, a complex array of
    values' shape, the coefficients are written there; it may be values
    itself.

    ``ifft`` inverts it exactly.  ``forward`` and ``inverse`` are these two
    with the normalisation and the phase of the e^{i kappa x} basis applied.
    """
    # the same numbers as fftn, which also takes the last axis first, without
    # its per-call set-up; the second axis is transformed in place
    out = np.fft.fft(values, out=out)
    return out if n == 1 else np.fft.fft(out, axis=-2, out=out)


def ifft(coeffs: np.ndarray, n: int, out: np.ndarray | None = None) -> np.ndarray:
    """Grid values of raw coefficients over their trailing n axes, the
    inverse of :func:`fft`, written to ``out`` as in :func:`fft`."""
    out = np.fft.ifft(coeffs, out=out)
    return out if n == 1 else np.fft.ifft(out, axis=-2, out=out)


def forward(u: Field | np.ndarray, spec: GridSpec | None = None) -> np.ndarray:
    """Fourier coefficients u_hat_k of u with respect to e^{i kappa_k x}.

    Normalised so the constant field 1 has u_hat_0 = 1.
    """
    if isinstance(u, Field):
        spec, values = u.spec, u.values
    else:
        values = u
    return fft(values, spec.n) * (_tables(spec).phase / spec.size)


def inverse(coeffs: np.ndarray, spec: GridSpec) -> np.ndarray:
    """Inverse of :func:`forward`, returning grid values."""
    return ifft(coeffs * (_tables(spec).phase * spec.size), spec.n)


def sobolev_norm(u: Field, s: float) -> float:
    """H^s norm ((2L)^n sum <kappa>^{2s} |u_hat|^2)^{1/2}.

    s = 0 reproduces the L^2 norm by Plancherel.
    """
    power = np.abs(fft(u.values, u.spec.n)) ** 2
    return float(np.sqrt(np.sum(u.spec.sobolev_weight(s) * power)))


def apply_lambda(u: Field, s: float) -> Field:
    """Fourier multiplier <kappa>^s (the operator Lambda^s)."""
    uh = forward(u)
    vals = inverse(uh * u.spec.kappa_bracket() ** s, u.spec)
    return Field(u.spec, vals)


def weight_field(u: Field, p: float) -> Field:
    """Pointwise multiplication by <x>^p on the fundamental domain."""
    return Field(u.spec, u.values * u.spec.x_bracket(p))


def spectral_derivative(values: np.ndarray, spec: GridSpec, axis: int) -> np.ndarray:
    """d/dx_axis computed in Fourier space along that axis alone.

    Axes after the grid's ride along, so this also differentiates an array
    on the (x, xi) grid of a phase-space symbol in x.
    """
    km = spec.kappa_mesh()[axis]
    km = km.reshape(km.shape + (1,) * (values.ndim - km.ndim))
    return np.fft.ifft(1j * km * np.fft.fft(values, axis=axis), axis=axis)


def partial_derivative(values: np.ndarray, spec: GridSpec, beta: tuple) -> np.ndarray:
    """d^beta values: ``spectral_derivative`` once per order, axis by axis;
    beta = 0 returns values unchanged."""
    for axis, order in enumerate(beta):
        for _ in range(order):
            values = spectral_derivative(values, spec, axis)
    return values


def plane_wave(spec: GridSpec, k: tuple) -> Field:
    """e^{i <kappa_k, x>} for integer mode numbers k (per axis)."""
    xm = spec.x_mesh()
    phase = sum(np.pi * ki / spec.L * x for ki, x in zip(k, xm))
    return Field(spec, np.exp(1j * phase))
