"""Singular coefficient models, their regularisation, and hypothesis checks.

Each scalar coefficient component is represented by its Fourier
coefficients on the torus, so "mollify then sample" amounts to an exact
multiplier phi_hat(omega*kappa) and the singular primitives (delta, jump)
carry no quadrature error.
"""

from __future__ import annotations

import copy
import functools
import inspect
from typing import NamedTuple

import numpy as np

from .grid import GridSpec, forward, inverse, spectral_derivative
from .mollify import Mollifier, ScaleFn, fit_slope, scale_omega


class ModelError(ValueError):
    pass


# ---------------------------------------------------------------------------
# closed-form components


class Component:
    """Real scalar generator evaluable as exact Fourier coefficients on a grid."""

    def coefficients(self, spec: GridSpec) -> np.ndarray:
        raise NotImplementedError


class Zero(Component):
    def coefficients(self, spec):
        return np.zeros(spec.shape, dtype=complex)


class Delta(Component):
    """strength times the Dirac delta at the origin: flat coefficients
    strength * (2L)^{-n}."""

    def __init__(self, strength: float = 1.0):
        self.strength = strength

    def coefficients(self, spec):
        return np.full(spec.shape, self.strength * (2.0 * spec.L) ** (-spec.n),
                       dtype=complex)


class SquareWave(Component):
    """Balanced periodic jump sign(sin(pi*x_0/L)): 2/(i*pi*k) on odd modes."""

    def coefficients(self, spec):
        k = np.fft.fftfreq(spec.M, d=1.0 / spec.M).astype(int)  # integer modes
        line = np.zeros(spec.M, dtype=complex)
        odd = k % 2 != 0
        line[odd] = 2.0 / (1j * np.pi * k[odd])
        if spec.n == 1:
            return line
        # constant along x_1: only its zero mode is populated
        c = np.zeros(spec.shape, dtype=complex)
        c[:, 0] = line
        return c


class Pointwise(Component):
    """Smooth closed-form generator sampled on the grid and transformed."""

    def __init__(self, fn):
        self.fn = fn

    def coefficients(self, spec):
        vals = np.asarray(self.fn(*spec.x_mesh()), dtype=complex)
        return forward(vals, spec)


def enveloped_bump(N: int, amplitude: float, width: float = 1.0):
    """<x>^{-N} * amplitude * exp(-|x|^2 / (2 width^2)), a C_b^inf profile."""

    def fn(*xs):
        r2 = sum(x**2 for x in xs)
        return amplitude * (1.0 + r2) ** (-N / 2.0) * np.exp(-r2 / (2.0 * width**2))

    return Pointwise(fn)


def enveloped_lipschitz(N: int, amplitude: float):
    """<x>^{-N} * amplitude * triangle wave of period 2: Lipschitz but not C^1."""

    def fn(*xs):
        r2 = sum(x**2 for x in xs)
        tri = 2.0 * np.abs(xs[0] / 2.0 - np.floor(xs[0] / 2.0 + 0.5))
        return amplitude * (1.0 + r2) ** (-N / 2.0) * (2.0 * tri - 1.0)

    return Pointwise(fn)


# ---------------------------------------------------------------------------
# models


class CoefficientModel:
    """Closed-form description of the operator coefficients.

    C is the constant symmetric matrix; perturb maps (i, j) to the
    generator of a_tilde_ij; drift_re/drift_im generate Re/Im of b_k;
    potential generates V.
    """

    def __init__(self, name: str, n: int, C, perturb: dict | None = None,
                 drift_re: dict | None = None, drift_im: dict | None = None,
                 potential: Component | None = None, N: int = 2,
                 nu: float = 0.05, c0: float = 0.05, smooth: bool = False):
        self.name, self.n = name, n
        self.C = np.asarray(C, dtype=float)
        if self.C.shape != (n, n):
            raise ModelError("constant matrix shape must be n x n")
        if not np.allclose(self.C, self.C.T):
            raise ModelError("constant matrix must be symmetric")
        if N <= 1:
            raise ModelError("weight exponent N must exceed 1")
        if nu < 0 or c0 < 0:
            raise ModelError("smallness constants must be nonnegative")
        self.perturb = {} if perturb is None else perturb
        for (i, j) in list(self.perturb):
            if (j, i) not in self.perturb and i != j:
                self.perturb[(j, i)] = self.perturb[(i, j)]
        self.drift_re = {} if drift_re is None else drift_re
        self.drift_im = {} if drift_im is None else drift_im
        self.potential = Zero() if potential is None else potential
        self.N, self.nu, self.c0, self.smooth = N, nu, c0, smooth


def _free(n=1, N=2, c1=1.0):
    return CoefficientModel("free", n, c1 * np.eye(n), N=N, nu=0.0, c0=0.0,
                            smooth=True)


def _ultra_diagonal(n=2, N=2, nu=0.05, c0=0.05, c1=1.0, c2=-1.0, width=5.0):
    if n != 2:
        raise ModelError(f"ultra-diagonal is two-dimensional, got n={n}")
    if c1 <= 0:
        raise ModelError("ultra-diagonal requires c1 > 0")
    if c2 == 0:
        raise ModelError("ultra-diagonal requires c2 != 0")
    perturb = {(i, i): enveloped_bump(N, nu, width) for i in range(2)} if nu > 0 else {}
    return CoefficientModel("ultra-diagonal", 2, np.diag([c1, c2]),
                            perturb=perturb, N=N, nu=nu, c0=c0, smooth=True)


def _elliptic_lipschitz(n=1, N=2, nu=0.05):
    perturb = {(0, 0): enveloped_lipschitz(N, nu)} if nu > 0 else {}
    return CoefficientModel("elliptic-lipschitz", n, np.eye(n),
                            perturb=perturb, N=N, nu=nu, c0=0.0)


def _delta_potential(n=1, N=2, strength=1.0):
    return CoefficientModel("delta-potential", n, np.eye(n),
                            potential=Delta(strength), N=N, nu=0.0, c0=0.0)


def _jump_drift(n=1, N=2, c0=0.05):
    drift_im = {0: enveloped_bump(N, c0)} if c0 > 0 else {}
    return CoefficientModel("jump-drift", n, np.eye(n),
                            drift_re={0: SquareWave()}, drift_im=drift_im,
                            N=N, nu=0.0, c0=c0)


def _smooth_consistency(n=1, N=2, nu=0.05, c0=0.05, width=2.5, v_amplitude=0.5):
    # every entry C_b^inf with the <x>^{-N} envelopes; wide profiles keep
    # the mollified derivative sups epsilon-stable
    perturb = {(i, i): enveloped_bump(N, nu, width) for i in range(n)} \
        if nu > 0 else {}
    drift_im = {0: enveloped_bump(N, c0, width)} if c0 > 0 else {}
    return CoefficientModel("smooth-consistency", n, np.eye(n),
                            perturb=perturb, drift_im=drift_im,
                            potential=enveloped_bump(N, v_amplitude, width),
                            N=N, nu=nu, c0=c0, smooth=True)


#: preset name -> its builder, whose keyword parameters and their defaults
#: are the preset's parameters
_BUILDERS = {
    "free": _free,
    "ultra-diagonal": _ultra_diagonal,
    "elliptic-lipschitz": _elliptic_lipschitz,
    "delta-potential": _delta_potential,
    "jump-drift": _jump_drift,
    "smooth-consistency": _smooth_consistency,
}
PRESETS = tuple(_BUILDERS)


def preset(name: str, **params) -> CoefficientModel:
    """Construct one of the named coefficient models from the parameters
    of its builder: n and N as int, every other one as float.  A
    fractional n or N is an error, not truncated."""
    if name not in _BUILDERS:
        raise ModelError(f"unknown preset {name!r}; choose from {PRESETS}")
    builder = _BUILDERS[name]
    extra = sorted(set(params) - set(inspect.signature(builder).parameters))
    if extra:
        raise ModelError(f"unknown model parameters: {extra}")
    params = {key: float(value) for key, value in params.items()}
    for key in ("n", "N"):
        if key in params:
            if not params[key].is_integer():
                raise ModelError(f"{key} must be an integer, got {params[key]:g}")
            params[key] = int(params[key])
    return builder(**params)


# ---------------------------------------------------------------------------
# regularisation


class CoefficientSet:
    """Grid realisation of the epsilon-regularised coefficients.

    a[i][j] are real arrays, b[k] complex arrays, V a real array, and N the
    model's decay exponent, the weight of (H3), (H4) and the smoothing
    integrand.  da[k][i][j], the spectral x_k-derivative of a[i][j], is
    derived from a on first read and kept.

    An entry that is constant on the grid (an unperturbed C_ij, a b_k
    without drift, the ``Zero`` potential) is a read-only zero-stride view
    of its one value (``np.broadcast_to``), so it stores no grid of copies:
    derive new arrays from the entries instead of writing into them.
    """

    def __init__(self, spec: GridSpec, eps: float, omega: float, a: list, b: list,
                 V: np.ndarray, N: int):
        self.spec, self.eps, self.omega = spec, eps, omega
        self.a, self.b, self.V, self.N = a, b, V, N

    @property
    def n(self) -> int:
        return self.spec.n

    @functools.cached_property
    def da(self) -> list:
        return _derivatives(self.a, self.spec)

    def matrix_at(self) -> np.ndarray:
        """Coefficient matrix stacked over grid nodes, shape (*grid, n, n)."""
        out = np.empty(self.spec.shape + (self.n, self.n))
        for i in range(self.n):
            for j in range(self.n):
                out[..., i, j] = self.a[i][j]
        return out

    def abs_eigenvalues(self) -> np.ndarray:
        """|eigenvalues| of the coefficient matrix at every node, shape
        (size, n).  a is symmetric by construction, so these are its
        singular values."""
        return _abs_eigenvalues(self.matrix_at().reshape(-1, self.n, self.n))

    def inertia(self) -> np.ndarray:
        """The number of negative eigenvalues of a(x) at each node, -1 where it
        is singular; with det a(x) > 0 in 2D both have the sign of a_11."""
        a = self.a
        det = a[0][0] if self.n == 1 else _det(a[0][0], a[0][1], a[1][1])
        return np.where(det == 0.0, -1,
                        np.where(det < 0.0, 1, np.where(a[0][0] < 0.0, 2, 0)))


def _derivatives(a: list, spec: GridSpec) -> list:
    """d[k][i][j], the spectral x_k-derivative of a[i][j], taken once for
    each distinct array: a built set holds a[i][j] and a[j][i] as one."""
    arrays, out = {id(arr): arr for row in a for arr in row}, []
    for k in range(spec.n):
        d = {key: spectral_derivative(arr, spec, k).real for key, arr in arrays.items()}
        out.append([[d[id(arr)] for arr in row] for row in a])
    return out


def _det(a, b, c):
    """det [[a, b], [b, c]]."""
    return a * c - b * b


def _abs_eigenvalues(mats: np.ndarray) -> np.ndarray:
    """|eigenvalues| of symmetric 1 x 1 or 2 x 2 matrices stacked along the
    leading axes, in closed form: shape (..., n).

    For [[a, b], [b, c]] the larger is |m| + r with m = (a + c) / 2 and
    r = hypot((a - c) / 2, b), a sum of two non-negative terms; the smaller
    is |det| / that, which the difference |m| - r would lose to
    cancellation when the two are close.  A zero det, as of a singular
    diagonal a(x), gives an exact 0.
    """
    if mats.shape[-1] == 1:
        return np.abs(mats[..., 0, :])
    a, b, c = mats[..., 0, 0], mats[..., 0, 1], mats[..., 1, 1]
    big = np.abs(a + c) / 2.0 + np.hypot((a - c) / 2.0, b)
    small = np.divide(np.abs(_det(a, b, c)), big, out=np.zeros_like(big),
                      where=big > 0.0)
    return np.stack([small, big], axis=-1)


def regularise(model: CoefficientModel, eps: float, scale: ScaleFn,
               spec: GridSpec) -> CoefficientSet:
    """Mollify every coefficient of the model with the gaussian at scale
    omega(eps)."""
    if spec.n != model.n:
        raise ModelError(f"grid dimension {spec.n} != model dimension {model.n}")
    return _build_set(model, eps, scale_omega(scale, eps), spec)


def sample(model: CoefficientModel, spec: GridSpec) -> CoefficientSet:
    """Grid realisation with no mollification (classical coefficients)."""
    if not model.smooth:
        raise ModelError("unmollified sampling only makes sense for smooth models")
    return _build_set(model, 0.0, 0.0, spec)


def _build_set(model, eps, omega, spec) -> CoefficientSet:
    # at omega = 0 the gaussian multiplier is exactly 1: sample()'s
    # coefficients are unmollified
    mult = Mollifier("gaussian").hat(omega**2 * spec.kappa_sq())
    n = model.n

    def realise(comp: Component) -> np.ndarray:
        return inverse(comp.coefficients(spec) * mult, spec).real

    def constant(value) -> np.ndarray:
        return np.broadcast_to(value, spec.shape)

    a = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            vals = constant(model.C[i, j])
            if (i, j) in model.perturb:
                vals = vals + realise(model.perturb[(i, j)])
            a[i][j] = a[j][i] = vals  # one array: (H1) symmetry exact by construction
    b = []
    for k in range(n):
        vals = constant(0j)
        if k in model.drift_re:
            vals = vals + realise(model.drift_re[k])
        if k in model.drift_im:
            vals = vals + 1j * realise(model.drift_im[k])
        b.append(vals)
    # a copy, so that V does not keep the complex transform it is taken from
    V = (constant(0.0) if isinstance(model.potential, Zero)
         else realise(model.potential).copy())
    return CoefficientSet(spec, eps, omega, a, b, V, model.N)


# ---------------------------------------------------------------------------
# hypothesis validation


class HypothesisReport(NamedTuple):
    h1_symmetric: bool
    mu: float
    mu_values: list
    mu_variation: float
    h3_weighted_sup: list
    h3_variation: float
    h3_bound: float
    h4_weighted_im_sup: list
    h4_bound: float
    drift_exponent_N1: float
    potential_exponent_N2: float
    fit_residuals: dict
    notes: str = ""

    @property
    def passed(self) -> bool:
        """That no check failed."""
        return not self.failures()

    def to_dict(self) -> dict:
        """The fields and "passed", as a deep copy: mutating it leaves the
        report unchanged."""
        return {"passed": self.passed, **copy.deepcopy(self._asdict())}

    def failures(self) -> list:
        """Each failed check, with its value and its bound."""
        h3, h4 = np.max(self.h3_weighted_sup), np.max(self.h4_weighted_im_sup)
        checks = [
            (self.h1_symmetric, "(H1) a(x) is not symmetric"),
            (np.isfinite(self.mu), f"(H2) mu = {self.mu}: a(x) is singular"),
            (self.mu_variation < 0.05,
             f"(H2) eps-variation of mu {self.mu_variation:.3g} against 0.05"),
            (h3 <= self.h3_bound + 1e-12,
             f"(H3) weighted sup of da {h3:.3g} against {self.h3_bound:.3g}"),
            (self.h3_variation < 0.10 or h3 < 1e-12,
             f"(H3) eps-variation {self.h3_variation:.3g} against 0.10"),
            (h4 <= self.h4_bound + 1e-12,
             f"(H4) weighted sup of Im b {h4:.3g} against {self.h4_bound:.3g}")]
        return [message for holds, message in checks if not holds]


def _variation(vals: np.ndarray) -> float:
    top = float(np.max(vals))
    if top == 0.0:
        return 0.0
    return float((np.max(vals) - np.min(vals)) / top)


def _multi_indices(n: int, total: int):
    if n == 1:
        yield (total,)
        return
    for first in range(total + 1):
        yield (first, total - first)


def _derivative_sups(vals: np.ndarray, spec: GridSpec) -> list:
    """[max over |beta| = k of sup |d^beta vals| for k = 0, 1, 2, 3].

    Each order is built from the one before, in the axis order of
    ``grid.partial_derivative``, so each d^beta is bit for bit its own.
    """
    last = spec.n - 1
    derivs, out = [vals], []
    for order in range(4):
        if order:
            # d^(k, 0) from d^(k-1, 0), then d^(a, k-a) from d^(a, k-1-a)
            head = [spectral_derivative(derivs[0], spec, 0)] if last else []
            derivs = head + [spectral_derivative(d, spec, last) for d in derivs]
        out.append(max(float(np.max(np.abs(d))) for d in derivs))
    return out


def _exponent_shift(sets, arrays_of):
    """Fit sup |d^beta field| ~ omega^{-(|beta| + N*)} for |beta| <= 3 and
    return (N*, residuals).  A field zero everywhere has every sup 0 and is
    skipped, and a constant scale, which carries no slope, fits nothing."""
    omegas = np.array([cs.omega for cs in sets])
    if np.max(omegas) / np.min(omegas) < 1.0 + 1e-9:
        return 0.0, []
    shifts, residuals = [], []
    spec = sets[0].spec
    by_order = np.zeros((len(sets), 4))
    for row, cs in zip(by_order, sets):
        for arr in arrays_of(cs):
            if np.any(arr):
                np.maximum(row, _derivative_sups(arr, spec), out=row)
    for order, sups in enumerate(by_order.T):
        if np.max(sups) < 1e-14:
            continue
        slope, resid = fit_slope(omegas, sups)
        shifts.append(-slope - order)
        residuals.append(resid)
    if not shifts:
        return 0.0, []
    # np.maximum keeps the nan of a field zero on some members only
    return float(np.maximum(0.0, _median(shifts))), residuals


def _median(values) -> float:
    """numpy.median of a short list, bit for bit, without importing numpy.ma.

    numpy.median imports all of numpy.ma on its first call in a process,
    and every ``vws`` call is a fresh process.  On the net-1d-delta
    benchmark (1D delta-potential) that import was 28-30 of the 70-80 ms
    of a profiled ``vws net`` call, and ``run_s`` fell from 0.022 to
    0.013 s without it (numpy 2.4).  Any nan gives nan, as numpy.median
    does: np.sort puts nan last.
    """
    ordered = np.sort(np.asarray(values, dtype=float))
    if np.isnan(ordered[-1]):
        return float("nan")
    mid = ordered.size // 2
    if ordered.size % 2:
        return float(ordered[mid])
    return float((ordered[mid - 1] + ordered[mid]) / 2.0)


def check_hypotheses(sets: list, nu: float, c0: float) -> HypothesisReport:
    """Validate (H1)-(H5) numerically on an epsilon ladder of CoefficientSets,
    with the weight <x>^N of their model's N.

    mu is the (H2) ellipticity/ultrahyperbolicity constant: the least mu
    with mu^{-1} <= |lambda| <= mu for every eigenvalue lambda of a(x),
    that is max(max |lambda|, 1 / min |lambda|) over the grid, taken for
    each set and maximised over the ladder.
    """
    if len(sets) < 4:
        raise ModelError("need at least 4 epsilon values in the ladder")
    spec, N = sets[0].spec, sets[0].N
    n = spec.n

    h1 = all(
        np.shares_memory(cs.a[i][j], cs.a[j][i]) or np.array_equal(cs.a[i][j], cs.a[j][i])
        for cs in sets for i in range(n) for j in range(n)
    )

    # a singular a(x) gives mu = inf, which fails (H2)
    with np.errstate(divide="ignore", invalid="ignore"):
        mu_vals = np.array([max(ev.max(), 1.0 / ev.min())
                            for ev in (cs.abs_eigenvalues() for cs in sets)])
        mu = float(np.max(mu_vals))
        mu_var = _variation(mu_vals)

    w = spec.x_bracket(N)

    # derived here and dropped, not kept as cs.da: a validated net is
    # marched next, and the march never reads da
    h3_sups = np.array([
        max(float(np.max(w * np.abs(d)))
            for dk in _derivatives(cs.a, spec) for row in dk for d in row)
        for cs in sets
    ])
    h4_sups = np.array([
        max((float(np.max(w * np.abs(cs.b[k].imag))) for k in range(n)), default=0.0)
        for cs in sets
    ])

    resids = {}
    n1, r1 = _exponent_shift(sets, lambda cs: [bk for bk in cs.b])
    n2, r2 = _exponent_shift(sets, lambda cs: [cs.V])
    resids["drift"] = r1
    resids["potential"] = r2

    return HypothesisReport(
        h1_symmetric=h1,
        mu=mu,
        mu_values=mu_vals.tolist(),
        mu_variation=mu_var,
        h3_weighted_sup=h3_sups.tolist(),
        h3_variation=_variation(h3_sups),
        h3_bound=2.0 * nu,
        h4_weighted_im_sup=h4_sups.tolist(),
        h4_bound=2.0 * c0,
        drift_exponent_N1=n1,
        potential_exponent_N2=n2,
        fit_residuals=resids,
        notes="verdicts are restricted to the sampled (x, xi) box",
    )
