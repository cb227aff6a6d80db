"""Time evolution of the regularised problems and a dense matrix oracle.

The first-order form is du/dt = i(A u + B u + V u + g) with
A u = sum_ij D_i(a_ij (D_j u)), B u = sum_k b_k (D_k u), V u = V u and
D = -i d/dx computed spectrally.  The stepper is classical RK4 with the
step bounded by the imaginary-axis stability interval.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .coeffs import CoefficientSet
from .grid import Field, forward, inverse

#: RK4 stability interval on the imaginary axis is about |z| <= 2.8
RK4_IMAG_LIMIT = 2.8
SAFETY = 0.8


class EvolveError(RuntimeError):
    pass


class Instability(EvolveError):
    """Raised when the norm explodes within a single step."""


@dataclass(frozen=True)
class Forcing:
    """Separable forcing g(t, x) = e^{i rate t} * G(x); rate 0 means constant."""

    G: Field | None = None
    rate: float = 0.0

    def at(self, t: float):
        if self.G is None:
            return None
        if self.rate == 0.0:
            return self.G.values
        return np.exp(1j * self.rate * t) * self.G.values


@dataclass
class EvolutionProblem:
    cs: CoefficientSet
    u0: Field
    forcing: Forcing = field(default_factory=Forcing)
    T: float = 1.0
    dt: float | None = None
    s_list: tuple = (0.0,)
    N_weight: int = 2
    #: the un-safetied RK4 step bound, limit / SAFETY
    dt_bound: float = field(init=False, repr=False)

    def __post_init__(self):
        if self.T <= 0:
            raise EvolveError("horizon T must be positive")
        if self.u0.spec != self.cs.spec:
            raise EvolveError("initial data grid does not match coefficients")
        limit = stable_dt(self.cs)
        if self.dt is None:
            self.dt = limit
        self.dt_bound = limit / SAFETY
        if self.dt > self.dt_bound * (1.0 + 1e-9):
            raise EvolveError(
                f"dt = {self.dt} exceeds stability bound {self.dt_bound}")


def stable_dt(cs: CoefficientSet) -> float:
    """SAFETY * 2.8 / rho with rho a spectral-radius surrogate of the generator."""
    spec = cs.spec
    kmax = float(np.max(np.abs(spec.kappa_axis())))
    A = cs.matrix_at().reshape(-1, spec.n, spec.n)
    anorm = float(np.max(np.linalg.norm(A, ord=2, axis=(1, 2))))
    bmax = max((float(np.max(np.abs(bk))) for bk in cs.b), default=0.0)
    vmax = float(np.max(np.abs(cs.V)))
    rho = anorm * kmax**2 + bmax * kmax + vmax
    return SAFETY * RK4_IMAG_LIMIT / rho


def apply_spatial(cs: CoefficientSet, u: Field | np.ndarray) -> np.ndarray:
    """A u + B u + V u on raw values, from 2n + 2 transforms."""
    vals = u.values if isinstance(u, Field) else u
    spec = cs.spec
    n = spec.n
    km = spec.kappa_mesh()
    uh = forward(vals, spec)
    du = [inverse(km[j] * uh, spec) for j in range(n)]
    flux = [forward(sum(cs.a[i][j] * du[j] for j in range(n)), spec)
            for i in range(n)]
    out = inverse(sum(km[i] * flux[i] for i in range(n)), spec)
    for k in range(n):
        out += cs.b[k] * du[k]
    out += cs.V * vals
    return out


def _rhs(cs: CoefficientSet, vals: np.ndarray, t: float, forcing: Forcing) -> np.ndarray:
    g = forcing.at(t)
    total = apply_spatial(cs, vals)
    if g is not None:
        total = total + g
    return 1j * total


def step_rk4(u: Field, t: float, dt: float, prob: EvolutionProblem) -> Field:
    """One classical RK4 step of the first-order system."""
    cs, forcing = prob.cs, prob.forcing
    v = u.values
    k1 = _rhs(cs, v, t, forcing)
    k2 = _rhs(cs, v + 0.5 * dt * k1, t + 0.5 * dt, forcing)
    k3 = _rhs(cs, v + 0.5 * dt * k2, t + 0.5 * dt, forcing)
    k4 = _rhs(cs, v + dt * k3, t + dt, forcing)
    new = v + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    before = np.linalg.norm(v)
    after = np.linalg.norm(new)
    if before > 0 and after > 10.0 * before:
        raise Instability(
            f"norm grew x{after / before:.1f} in one step at t = {t:.4g} "
            f"(dt = {dt:.3g}); generator likely under-resolved"
        )
    return Field(u.spec, new)


@dataclass
class NormSeries:
    """Per-step Sobolev norms and the smoothing-integrand time series."""

    t: np.ndarray
    norms: dict            # s -> array of ||u(t)||_s
    integrand: dict        # s -> array of ||<x>^{-N/2} Lambda^{s+1/2} u||_0^2
    integral: dict         # s -> running time integral of the integrand

    def sup_norm(self, s: float) -> float:
        return float(np.max(self.norms[s]))

    def final_integral(self, s: float) -> float:
        return float(self.integral[s][-1])


def _diagnostics(u: Field, s_list, N: int) -> list:
    """(||u||_s, ||<x>^{-N/2} Lambda^{s+1/2} u||_0^2) for each s in s_list.

    One forward transform of u serves every s, and one inverse per s gives
    the weighted values, whose L^2 norm is taken by Plancherel on the grid.
    """
    spec = u.spec
    uh = forward(u)
    power = np.abs(uh) ** 2
    bra = spec.kappa_bracket()
    weight = (1.0 + spec.x_norm_sq()) ** (-N / 4.0)
    vol = (2.0 * spec.L) ** spec.n
    out = []
    for s in s_list:
        v = inverse(uh * bra ** (s + 0.5), spec) * weight
        out.append((float(np.sqrt(vol * np.sum(bra ** (2.0 * s) * power))),
                    spec.h**spec.n * float(np.sum(np.abs(v) ** 2))))
    return out


@dataclass
class SolveResult:
    final: Field
    series: NormSeries
    states: list | None = None


def solve(prob: EvolutionProblem, record_states: bool = False) -> SolveResult:
    """March to T recording norms at every step."""
    steps = max(1, int(round(prob.T / prob.dt)))
    if prob.T / steps > prob.dt_bound:
        steps += 1  # round() went down past the stability bound
    dt = prob.T / steps  # land exactly on T
    u = prob.u0.copy()
    ts = [0.0]
    rows = [_diagnostics(u, prob.s_list, prob.N_weight)]
    states = [u.values.copy()] if record_states else None
    t = 0.0
    for _ in range(steps):
        u = step_rk4(u, t, dt, prob)
        t += dt
        ts.append(t)
        rows.append(_diagnostics(u, prob.s_list, prob.N_weight))
        if record_states:
            states.append(u.values.copy())
    ts = np.array(ts)
    rows = np.array(rows)  # (step, s, [norm, integrand])
    norms = {s: rows[:, i, 0] for i, s in enumerate(prob.s_list)}
    integrand = {s: rows[:, i, 1] for i, s in enumerate(prob.s_list)}
    # cumulative trapezoid rule
    integral = {
        s: np.concatenate([[0.0], np.cumsum(np.diff(ts) * (v[1:] + v[:-1]) / 2.0)])
        for s, v in integrand.items()
    }
    return SolveResult(u, NormSeries(ts, norms, integrand, integral), states)


def dense_oracle(prob: EvolutionProblem) -> Field:
    """Exact-in-time solution of the semi-discrete system via the dense
    generator matrix; independent of the RK4 path."""
    spec = prob.cs.spec
    if spec.n == 1 and spec.M > 32:
        raise EvolveError("dense oracle limited to M <= 32 in 1D")
    if spec.n == 2 and spec.M > 8:
        raise EvolveError("dense oracle limited to M <= 8 in 2D")
    if prob.forcing.G is not None and prob.forcing.rate != 0.0:
        raise EvolveError("dense oracle requires time-constant forcing")

    size = spec.size
    gen = np.empty((size, size), dtype=complex)
    basis = np.zeros(size, dtype=complex)
    for j in range(size):
        basis[:] = 0.0
        basis[j] = 1.0
        gen[:, j] = 1j * apply_spatial(prob.cs, basis.reshape(spec.shape)).ravel()

    u0 = prob.u0.values.ravel()
    g = prob.forcing.at(0.0)
    gvec = 1j * g.ravel() if g is not None else None
    T = prob.T

    w, S = np.linalg.eig(gen)
    if np.linalg.cond(S) < 1e10:
        Sinv = np.linalg.inv(S)
        ew = np.exp(w * T)
        out = S @ (ew * (Sinv @ u0))
        if gvec is not None:
            # phi(w) = (e^{wT} - 1)/w with the removable singularity at 0
            small = np.abs(w) < 1e-12
            phi = np.where(small, T, np.expm1(np.where(small, 1.0, w * T))
                           / np.where(small, 1.0, w))
            out = out + S @ (phi * (Sinv @ gvec))
    else:
        # defective generator: scaling-and-squaring on the augmented system
        from scipy.linalg import expm

        if gvec is None:
            out = expm(gen * T) @ u0
        else:
            aug = np.zeros((size + 1, size + 1), dtype=complex)
            aug[:size, :size] = gen
            aug[:size, size] = gvec
            state = np.concatenate([u0, [1.0]])
            out = (expm(aug * T) @ state)[:size]
    return Field(spec, out.reshape(spec.shape))


def smoothing_report(series_by_eps: dict, s: float, N: int, rhs_by_eps: dict,
                     T: float) -> dict:
    """Fit the a-priori smoothing estimate across an epsilon ladder.

    series_by_eps maps eps -> (omega, NormSeries); rhs_by_eps maps
    eps -> (||u0||_s^2, int ||g||_s^2 dt).
    Returns fitted (C1, k1, C2) with the envelope
    LHS <= C2 exp(C1 omega^{-k1} T) * RHS.
    """
    eps_sorted = sorted(series_by_eps, reverse=True)
    lhs, rhs, omegas = [], [], []
    for eps in eps_sorted:
        omega, series = series_by_eps[eps]
        value = series.sup_norm(s) ** 2 + series.final_integral(s)
        base = sum(rhs_by_eps[eps])
        if base == 0.0 and value > 0.0:
            raise EvolveError("RHS base is zero with nonzero LHS")
        lhs.append(value)
        rhs.append(base)
        omegas.append(omega)
    lhs, rhs, omegas = map(np.array, (lhs, rhs, omegas))
    nonzero = rhs > 0
    ratio = np.where(nonzero, lhs / np.where(nonzero, rhs, 1.0), 0.0)
    out = {
        "eps": list(eps_sorted),
        "omega": omegas.tolist(),
        "lhs": lhs.tolist(),
        "rhs": rhs.tolist(),
        "ratio": ratio.tolist(),
    }
    growth = np.log(np.maximum(ratio, 1e-300))
    spread = np.max(omegas) / max(np.min(omegas), 1e-300)
    if np.all(ratio == 0.0):
        out.update(C1=0.0, k1=0.0, C2=1.0, residual=0.0, holds=True)
        return out
    if np.min(growth) > 0.0 and spread > 1.0 + 1e-9:
        from .mollify import fit_slope

        k1, resid = fit_slope(np.log(1.0 / omegas), np.log(growth))
        k1 = max(0.0, k1)
        C1 = float(np.exp(np.mean(np.log(growth) - k1 * np.log(1.0 / omegas))) / T)
    else:
        # exponent content not resolvable on this ladder: constants absorb it
        k1, resid, C1 = 0.0, 0.0, float(max(np.mean(growth) / T, 1e-6))
    envelope = np.exp(C1 * omegas ** (-k1) * T)
    C2 = float(np.max(ratio / envelope)) * (1.0 + 1e-9)
    holds = bool(np.all(lhs <= C2 * envelope * rhs * (1.0 + 1e-6)))
    out.update(C1=C1, k1=float(k1), C2=C2, residual=float(resid), holds=holds)
    return out
