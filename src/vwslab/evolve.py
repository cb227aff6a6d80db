"""Time evolution of the regularised problems and a dense matrix oracle.

The first-order form is du/dt = i(A u + B u + V u + g) with
A u = sum_ij D_i(a_ij (D_j u)), B u = sum_k b_k (D_k u), V u = V u and
D = -i d/dx computed spectrally.  The stepper is classical RK4 with the
step bounded by the imaginary-axis stability interval.

``march``, the one time loop, yields the raw FFT coefficients
u_hat = ``grid.fft(u)`` at every step; ``solve`` and ``sup_differences``
consume it and form grid values only for the final and recorded states.
The operator is built once per problem: coefficients that are constant on
the grid (zero ones included) are applied as one exact Fourier symbol
sum c_ij kappa_i kappa_j + sum b_k kappa_k + V, and only the variable ones
go through transforms.  ``apply_spatial`` is that operator between one
forward and one inverse transform.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .coeffs import CoefficientSet
from .grid import Field, GridSpec, fft, ifft
from .mollify import fit_slope

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
        if self.dt is not None and not self.dt > 0:
            raise EvolveError(f"time step dt must be positive, got {self.dt}")
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
    anorm = float(np.max(cs.abs_eigenvalues()))
    bmax = max((float(np.max(np.abs(bk))) for bk in cs.b), default=0.0)
    vmax = float(np.max(np.abs(cs.V)))
    rho = anorm * kmax**2 + bmax * kmax + vmax
    return SAFETY * RK4_IMAG_LIMIT / rho


def _constant(arr: np.ndarray):
    """The value of arr if it is the same at every node, else None."""
    first = arr.flat[0]
    return first if np.all(arr == first) else None


class _Operator:
    """Raw coefficients u_hat (``grid.fft``) -> raw coefficients of (A + B + V) u.

    Built once per problem.  Every coefficient that is constant on the grid
    enters the symbol sum c_ij kappa_i kappa_j + sum b_k kappa_k + V; the
    variable ones take one inverse per needed D_j u, one forward per row i
    of variable a_ij and one forward shared by the variable b_k and V.
    """

    def __init__(self, cs: CoefficientSet):
        n = cs.n
        km = cs.spec.kappa_mesh()
        symbol = np.zeros(cs.spec.shape)
        self.rows = []  # (kappa_i, [(j, a_ij)]) for each row with a variable entry
        for i in range(n):
            variable = []
            for j in range(n):
                c = _constant(cs.a[i][j])
                if c is None:
                    variable.append((j, cs.a[i][j]))
                elif c != 0:
                    symbol = symbol + c * km[i] * km[j]
            if variable:
                self.rows.append((km[i], variable))
        self.drift = []  # (k, b_k) for each variable b_k
        for k in range(n):
            c = _constant(cs.b[k])
            if c is None:
                self.drift.append((k, cs.b[k]))
            elif c != 0:
                symbol = symbol + c * km[k]
        c = _constant(cs.V)
        self.V = cs.V if c is None else None
        if c is not None and c != 0:
            symbol = symbol + c
        self.symbol = symbol if np.any(symbol) else None
        needed = {j for _, row in self.rows for j, _ in row}
        needed |= {k for k, _ in self.drift}
        self.kappa = [(j, km[j]) for j in sorted(needed)]

    def __call__(self, uh: np.ndarray) -> np.ndarray:
        du = {j: ifft(kj * uh) for j, kj in self.kappa}
        out = np.zeros_like(uh) if self.symbol is None else self.symbol * uh
        for ki, row in self.rows:
            out += ki * fft(sum(a * du[j] for j, a in row))
        if self.drift or self.V is not None:
            lower = 0.0 if self.V is None else self.V * ifft(uh)
            for k, bk in self.drift:
                lower = lower + bk * du[k]
            out += fft(lower)
        return out


def apply_spatial(cs: CoefficientSet, u: Field | np.ndarray) -> np.ndarray:
    """A u + B u + V u on raw values: the coefficient-space operator of
    ``solve`` between one forward and one inverse transform."""
    vals = u.values if isinstance(u, Field) else u
    return ifft(_Operator(cs)(fft(vals)))


def _forcing_coefficients(forcing: Forcing) -> np.ndarray | None:
    return None if forcing.G is None else fft(forcing.G.values)


def _step(op: _Operator, gh: np.ndarray | None, rate: float, uh: np.ndarray,
          t: float, dt: float) -> np.ndarray:
    """One classical RK4 step on raw coefficients; gh holds those of G."""

    def rhs(v, tau):
        total = op(v)
        if gh is not None:
            total += gh if rate == 0.0 else np.exp(1j * rate * tau) * gh
        return 1j * total

    k1 = rhs(uh, t)
    k2 = rhs(uh + 0.5 * dt * k1, t + 0.5 * dt)
    k3 = rhs(uh + 0.5 * dt * k2, t + 0.5 * dt)
    k4 = rhs(uh + dt * k3, t + dt)
    new = uh + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    # by Parseval the coefficient norms have the ratio of the value norms
    before = np.linalg.norm(uh)
    after = np.linalg.norm(new)
    if before > 0 and after > 10.0 * before:
        raise Instability(
            f"norm grew x{after / before:.1f} in one step at t = {t:.4g} "
            f"(dt = {dt:.3g}); generator likely under-resolved"
        )
    return new


def step_rk4(u: Field, t: float, dt: float, prob: EvolutionProblem) -> Field:
    """One classical RK4 step of the first-order system, the step ``solve``
    takes, on grid values."""
    gh = _forcing_coefficients(prob.forcing)
    new = _step(_Operator(prob.cs), gh, prob.forcing.rate, fft(u.values), t, dt)
    return Field(u.spec, ifft(new))


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


def _norm_weight(spec: GridSpec, s: float) -> np.ndarray:
    """w with ||u||_s^2 = sum w |fft(u)|^2; forward() = fft / size up to a phase."""
    return (2.0 * spec.L) ** spec.n / spec.size**2 * spec.kappa_bracket() ** (2.0 * s)


class _Diagnostics:
    """Raw coefficients -> (||u||_s, ||<x>^{-N/2} Lambda^{s+1/2} u||_0^2) for
    each s in s_list.

    The norm needs no transform; each integrand takes one inverse, and its
    L^2 norm is taken by Plancherel on the grid values.
    """

    def __init__(self, spec: GridSpec, s_list, N: int):
        bra = spec.kappa_bracket()
        self.norm_weights = [_norm_weight(spec, s) for s in s_list]
        self.lifts = [bra ** (s + 0.5) for s in s_list]
        self.x_weight = spec.h**spec.n * (1.0 + spec.x_norm_sq()) ** (-N / 2.0)

    def __call__(self, uh: np.ndarray) -> list:
        power = np.abs(uh) ** 2
        return [(float(np.sqrt(np.sum(w * power))),
                 float(np.sum(self.x_weight * np.abs(ifft(uh * lift)) ** 2)))
                for w, lift in zip(self.norm_weights, self.lifts)]


@dataclass
class SolveResult:
    final: Field
    series: NormSeries
    states: list | None = None


def _step_count(T: float, dt: float, dt_bound: float) -> int:
    steps = max(1, int(round(T / dt)))
    return steps + 1 if T / steps > dt_bound else steps  # round() went past the bound


def march(prob: EvolutionProblem, steps: int | None = None):
    """Yield (t, fft(u)) at t = 0 and after each of `steps` equal RK4 steps
    to T; by default round(T/dt) steps, one more if they exceed the bound."""
    if steps is None:
        steps = _step_count(prob.T, prob.dt, prob.dt_bound)
    dt = prob.T / steps
    op = _Operator(prob.cs)
    gh = _forcing_coefficients(prob.forcing)
    uh, t = fft(prob.u0.values), 0.0
    yield t, uh
    for _ in range(steps):
        uh = _step(op, gh, prob.forcing.rate, uh, t, dt)
        t += dt
        yield t, uh


def solve(prob: EvolutionProblem, record_states: bool = False) -> SolveResult:
    """March to T recording norms at every step."""
    spec = prob.cs.spec
    diagnose = _Diagnostics(spec, prob.s_list, prob.N_weight)
    ts, rows, states = [], [], []
    for t, uh in march(prob):
        ts.append(t)
        rows.append(diagnose(uh))
        if record_states:
            states.append(ifft(uh))
    ts = np.array(ts)
    rows = np.array(rows)  # (step, s, [norm, integrand])
    norms = {s: rows[:, i, 0] for i, s in enumerate(prob.s_list)}
    integrand = {s: rows[:, i, 1] for i, s in enumerate(prob.s_list)}
    # cumulative trapezoid rule
    integral = {
        s: np.concatenate([[0.0], np.cumsum(np.diff(ts) * (v[1:] + v[:-1]) / 2.0)])
        for s, v in integrand.items()
    }
    return SolveResult(Field(spec, ifft(uh)), NormSeries(ts, norms, integrand, integral),
                       states if record_states else None)


def sup_differences(ref: EvolutionProblem, others: list, s: float) -> list:
    """sup over t of ||u_other(t) - u_ref(t)||_s for each problem in others.

    All problems are marched in lockstep, at the smallest dt and the
    smallest step bound among them, so they share every time level; only
    the current states are held.
    """
    probs = [ref, *others]
    if any(p.T != ref.T or p.cs.spec != ref.cs.spec for p in others):
        raise EvolveError("compared problems must share the grid and T")
    steps = _step_count(ref.T, min(p.dt for p in probs), min(p.dt_bound for p in probs))
    weight, sq = _norm_weight(ref.cs.spec, s), np.zeros(len(others))
    for (_, uh_ref), *levels in zip(*(march(p, steps) for p in probs)):
        sq = np.maximum(sq, [np.sum(weight * np.abs(uh - uh_ref) ** 2)
                             for _, uh in levels])
    return np.sqrt(sq).tolist()


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
