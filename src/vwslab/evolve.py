"""Time evolution of the regularised problems and a dense matrix oracle.

The first-order form is du/dt = i(A u + B u + V u + g) with
A u = sum_ij D_i(a_ij (D_j u)), B u = sum_k b_k (D_k u), V u = V u,
D = -i d/dx computed spectrally, and a source g constant in time.

``march``, the one time loop, works on the raw FFT coefficients
u_hat = ``grid.fft(u)`` of a stack of problems that share grid, T and step
count, with a leading problem axis on u_hat, on the operator's symbol and
remainders, on the step's tables and on the diagnostics; each member gets
the numbers it would get marched alone, bit for bit.  ``solve_stack``,
``solve`` (a stack of one) and ``sup_differences`` consume it and form grid
values only for the final and recorded states.  The operator is built once
per stack.  Every a_ij, b_k and V is split into its grid mean and a
variable remainder; an entry that is constant on the grid, zero included,
leaves no remainder.  The means make one Fourier symbol
Lambda = sum mean(a_ij) kappa_i kappa_j + sum mean(b_k) kappa_k + mean(V),
and only the remainders go through transforms.  ``apply_spatial`` is the
whole operator between one forward and one inverse transform.

Which marches are stacked: ``vwsnet.march_ladder`` marches the members of
a ``net`` or ``solve`` ladder after its probe as one stack for each step
count among them, so on net-1d-delta (1D, M=256) four members share every
transform and array pass of one 16-level march.  ``sup_differences``
marches each problem as its own stack of one, in lockstep, so uniqueness
pairs and the consistency ladder are not stacked: a stack pays for the
union of its members' variable coefficients (the base problem of a
uniqueness pair would take the perturbed one's variable a_12, b and V), and
uniq-2d-ultra with each pair stacked ran slower in-process (median of six
runs on a 2-vCPU VM: 0.31 s against 0.29 s apart).

The stepper is ETD-RK4 (exponential time differencing with RK4 stages;
Cox & Matthews, J. Comput. Phys. 176 (2002), in the form of Kassam &
Trefethen, SIAM J. Sci. Comput. 26 (2005)).  The flow of the mean symbol,
e^{i Lambda h}, is applied exactly through its phi-function tables, so the
step is no longer tied to the stiff constant part: ``stable_dt`` bounds it
by the RK4 imaginary-axis limit over rho of the remainder alone, and is
infinite when there is no remainder.  The default step is
min(T / LEVELS, stable_dt).  LEVELS = 16 is the smallest power of two that
keeps u(T) and the smoothing integrals of every member of the net-1d-delta
benchmark ladder (1D, M=256, L=8, delta-potential, delta data, T=0.125)
within 2e-3 of a 2048-step march.  Worst relative errors on that ladder:

    step                      steps   u(T)     int s=0   int s=1
    RK4 at its bound            141   0.57     0.26      0.53
    ETD-RK4, T / LEVELS          16   1.2e-3   3.9e-4    4.7e-4

An epsilon-ladder may march at fewer levels; ``vwsnet.probe_levels`` owns
that choice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .coeffs import CoefficientSet
from .grid import Field, GridSpec, fft, ifft
from .mollify import cumulative_trapezoid, fit_slope

#: RK4 stability interval on the imaginary axis is about |z| <= 2.8; it
#: bounds the remainder that the ETD-RK4 stages take explicitly
RK4_IMAG_LIMIT = 2.8
SAFETY = 0.8
#: time levels of the default step when the remainder bound allows it
LEVELS = 16


class EvolveError(RuntimeError):
    pass


class Instability(EvolveError):
    """Raised when the norm of one member of a march grows more than
    tenfold in one step.

    ``member`` is its position in the marched stack, or in the lockstep of
    ``sup_differences``; ``eps`` is None until a caller that knows the
    member's epsilon sets it, and the message then names it.
    """

    def __init__(self, ratio: float, t: float, dt: float, member: int):
        super().__init__(ratio, t, dt, member)
        self.ratio, self.t, self.dt, self.member = ratio, t, dt, member
        self.eps = None

    def __str__(self) -> str:
        where = "" if self.eps is None else f" for eps = {self.eps!r}"
        return (f"norm grew x{self.ratio:.1f} in one step at t = {self.t:.4g} "
                f"(dt = {self.dt:.3g}){where}; generator likely under-resolved")


@dataclass
class EvolutionProblem:
    cs: CoefficientSet
    u0: Field
    #: the source term g, constant in time; None is no source
    forcing: Field | None = None
    T: float = 1.0
    dt: float | None = None
    s_list: tuple = (0.0,)
    N_weight: int = 2
    #: the un-safetied step bound, stable_dt / SAFETY (inf: no remainder)
    dt_bound: float = field(init=False, repr=False)

    def __post_init__(self):
        if self.T <= 0:
            raise EvolveError("horizon T must be positive")
        if self.dt is not None and not self.dt > 0:
            raise EvolveError(f"time step dt must be positive, got {self.dt}")
        if self.u0.spec != self.cs.spec:
            raise EvolveError("initial data grid does not match coefficients")
        if self.forcing is not None and self.forcing.spec != self.cs.spec:
            raise EvolveError("forcing grid does not match coefficients")
        limit = stable_dt(self.cs)
        if self.dt is None:
            self.dt = min(self.T / LEVELS, limit)
        self.dt_bound = limit / SAFETY
        if self.dt > self.dt_bound * (1.0 + 1e-9):
            raise EvolveError(
                f"dt = {self.dt} exceeds stability bound {self.dt_bound}")


def _constant(arr: np.ndarray):
    """The value of arr if it is the same at every node, else None."""
    first = arr.flat[0]
    return first if np.all(arr == first) else None


def _split(arr: np.ndarray) -> tuple:
    """(grid mean, variable remainder) of arr; the remainder is None when
    arr is constant on the grid."""
    c = _constant(arr)
    if c is not None:
        return c, None
    mean = arr.mean()
    return mean, arr - mean


def stable_dt(cs: CoefficientSet) -> float:
    """SAFETY * 2.8 / rho with rho a spectral-radius surrogate of the
    remainder of the generator; inf when the remainder is zero."""
    spec, n = cs.spec, cs.n
    kmax = float(np.max(np.abs(spec.kappa_axis())))
    rest = np.zeros(spec.shape + (n, n))
    for i in range(n):
        for j in range(n):
            r = _split(cs.a[i][j])[1]
            if r is not None:
                rest[..., i, j] = r
    anorm = float(np.max(np.abs(np.linalg.eigvalsh(rest.reshape(-1, n, n)))))

    def sup_rest(arr):
        r = _split(arr)[1]
        return 0.0 if r is None else float(np.max(np.abs(r)))

    bmax = max((sup_rest(bk) for bk in cs.b), default=0.0)
    rho = anorm * kmax**2 + bmax * kmax + sup_rest(cs.V)
    return SAFETY * RK4_IMAG_LIMIT / rho if rho > 0 else np.inf


class _Operator:
    """Raw coefficients u_hat (``grid.fft``) -> raw coefficients of (A + B + V) u,
    for a stack of problems on one grid: u_hat has a leading problem axis.

    Built once per stack.  The grid means of each member's coefficients make
    its symbol sum mean(a_ij) kappa_i kappa_j + sum mean(b_k) kappa_k + mean(V);
    the remainders take one inverse per needed D_j u, one forward per row i
    with a variable a_ij and one forward shared by the variable b_k and V.
    An entry variable in any member has a remainder in all, zero where it is
    constant; the zero terms add exactly, so each member gets the numbers of
    a stack of its own.
    """

    def __init__(self, sets: list):
        spec, n = sets[0].spec, sets[0].n
        self.n, km = n, spec.kappa_mesh()

        def split(arrs):
            # (means shaped to broadcast over the stack, stacked remainders or None)
            parts = [_split(arr) for arr in arrs]
            means = np.reshape([c for c, _ in parts], (len(parts),) + (1,) * n)
            if all(r is None for _, r in parts):
                return means, None
            return means, np.stack([np.zeros(spec.shape) if r is None else r
                                    for _, r in parts])

        symbol = np.zeros((len(sets),) + spec.shape)
        self.rows = []  # (kappa_i, [(j, remainder of a_ij)]) for each row with one
        for i in range(n):
            variable = []
            for j in range(n):
                c, r = split([cs.a[i][j] for cs in sets])
                symbol = symbol + c * km[i] * km[j]
                if r is not None:
                    variable.append((j, r))
            if variable:
                self.rows.append((km[i], variable))
        self.drift = []  # (k, remainder of b_k) for each variable b_k
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

    def remainder(self, uh: np.ndarray) -> np.ndarray:
        """The variable part alone: (A + B + V) u minus the symbol term."""
        n = self.n
        du = {j: ifft(kj * uh, n) for j, kj in self.kappa}
        out = np.zeros_like(uh)
        for ki, row in self.rows:
            out += ki * fft(sum(r * du[j] for j, r in row), n)
        if self.drift or self.V is not None:
            lower = 0.0 if self.V is None else self.V * ifft(uh, n)
            for k, rk in self.drift:
                lower = lower + rk * du[k]
            out += fft(lower, n)
        return out

    def __call__(self, uh: np.ndarray) -> np.ndarray:
        return self.symbol * uh + self.remainder(uh)


def apply_spatial(cs: CoefficientSet, u: Field | np.ndarray) -> np.ndarray:
    """A u + B u + V u on raw values: the coefficient-space operator of
    ``solve`` between one forward and one inverse transform."""
    vals = u.values if isinstance(u, Field) else u
    n = cs.spec.n
    return ifft(_Operator([cs])(fft(vals[None], n)), n)[0]


def _phi(z: np.ndarray, last: int = 3) -> list:
    """[phi_1(z), ..., phi_last(z)], phi_k(z) = sum_m z^m / (m + k)!.

    Closed forms phi_k = (phi_{k-1} - 1/(k-1)!) / z, phi_0 = e^z, where
    |z| >= 0.2, so rounding grows by at most 1/|z|^3 = 125; a ten-term
    Taylor series below, truncated under 3e-15.  Against the first row of
    expm of the augmented 4 x 4 matrix the relative error is below 2e-13.
    """
    small = np.abs(z) < 0.2
    w, zs = np.where(small, 1.0, z), z[small]
    out, p = [], np.exp(w)
    for k in range(1, last + 1):
        p = (p - 1.0 / math.factorial(k - 1)) / w
        series = np.zeros_like(zs)
        for m in range(9, -1, -1):  # Horner on 1/(m+k)!
            series = series * zs + 1.0 / math.factorial(m + k)
        phi = p.copy()
        phi[small] = series
        out.append(phi)
    return out


class _Step:
    """One ETD-RK4 step of length h on the raw coefficients of a stack
    (Kassam & Trefethen's form of Cox & Matthews' scheme).

    du/dt = c u + F(u) with c = i Lambda the mean symbol and
    F = i(remainder u + g), autonomous since g is constant in time;
    e^{ch}, e^{ch/2} and the phi-function weights are built once per step
    length, and g is transformed once, zero for a member without one.
    """

    def __init__(self, op: _Operator, forcings: list, h: float):
        self.op, self.h = op, h
        self.gh = None
        if any(g is not None for g in forcings):
            shape = op.symbol.shape[1:]
            self.gh = fft(np.stack([np.zeros(shape) if g is None else g.values
                                    for g in forcings]), op.n)
        z = 1j * h * op.symbol
        self.E, self.E2 = np.exp(z), np.exp(z / 2.0)
        self.Q = h / 2.0 * _phi(z / 2.0, last=1)[0]
        p1, p2, p3 = _phi(z)
        self.f1 = h * (p1 - 3.0 * p2 + 4.0 * p3)
        self.f2 = 2.0 * h * (p2 - 2.0 * p3)
        self.f3 = h * (4.0 * p3 - p2)

    def _F(self, v: np.ndarray) -> np.ndarray:
        total = self.op.remainder(v)
        if self.gh is not None:
            total += self.gh
        return 1j * total

    def __call__(self, uh: np.ndarray, t: float) -> np.ndarray:
        h, E2, Q = self.h, self.E2, self.Q
        Fu = self._F(uh)
        a = E2 * uh + Q * Fu
        Fa = self._F(a)
        b = E2 * uh + Q * Fa
        Fb = self._F(b)
        c = E2 * a + Q * (2.0 * Fb - Fu)
        Fc = self._F(c)
        new = self.E * uh + self.f1 * Fu + self.f2 * (Fa + Fb) + self.f3 * Fc
        # by Parseval the coefficient norms have the ratio of the value
        # norms; each member is checked against its own norm
        for p, (u0, u1) in enumerate(zip(uh, new)):
            before, after = np.linalg.norm(u0), np.linalg.norm(u1)
            if before > 0 and after > 10.0 * before:
                raise Instability(float(after / before), t, h, p)
        return new


def step_rk4(u: Field, t: float, dt: float, prob: EvolutionProblem) -> Field:
    """One ETD-RK4 step of the first-order system, the step ``march``
    takes, on grid values."""
    step = _Step(_Operator([prob.cs]), [prob.forcing], dt)
    n = u.spec.n
    return Field(u.spec, ifft(step(fft(u.values[None], n), t), n)[0])


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
    """Raw coefficients of a stack -> (problem, s, [||u||_s,
    ||<x>^{-N/2} Lambda^{s+1/2} u||_0^2]) for each s in s_list.

    The norm needs no transform; each integrand takes one inverse of the
    stack, and its L^2 norm is taken by Plancherel on the grid values.
    """

    def __init__(self, spec: GridSpec, s_list, N: int):
        bra = spec.kappa_bracket()
        self.norm_weights = [_norm_weight(spec, s) for s in s_list]
        self.lifts = [bra ** (s + 0.5) for s in s_list]
        self.x_weight = spec.h**spec.n * (1.0 + spec.x_norm_sq()) ** (-N / 2.0)
        self.n, self.axes = spec.n, tuple(range(-spec.n, 0))

    def __call__(self, uh: np.ndarray) -> np.ndarray:
        power = np.abs(uh) ** 2
        out = np.empty((len(uh), len(self.lifts), 2))
        for k, (w, lift) in enumerate(zip(self.norm_weights, self.lifts)):
            out[:, k, 0] = np.sqrt(np.sum(w * power, axis=self.axes))
            out[:, k, 1] = np.sum(self.x_weight * np.abs(ifft(uh * lift, self.n)) ** 2,
                                  axis=self.axes)
        return out


@dataclass
class SolveResult:
    final: Field
    series: NormSeries
    states: list | None = None


def shared_steps(probs: list, levels: int | None = None) -> int:
    """The number of equal steps that march problems with one horizon T in
    lockstep: round(T/dt) at their smallest dt, or, given ``levels``, at
    min(T / levels, their smallest stable_dt); one more if the steps then
    exceed their smallest bound."""
    T = probs[0].T
    if levels is None:
        dt = min(p.dt for p in probs)
    else:
        dt = min(T / levels, SAFETY * min(p.dt_bound for p in probs))
    steps = max(1, int(round(T / dt)))
    # round() can go past the bound
    return steps + 1 if T / steps > min(p.dt_bound for p in probs) else steps


def _check_shared(probs: list) -> None:
    first = probs[0]
    if any(p.T != first.T or p.cs.spec != first.cs.spec for p in probs):
        raise EvolveError("marched problems must share the grid and T")


def march(probs: list, steps: int | None = None):
    """Yield (t, u_hat) at t = 0 and after each of `steps` equal ETD-RK4
    steps to T, by default ``shared_steps(probs)``; u_hat stacks fft(u) of
    the problems, which share grid and T, along a leading axis."""
    _check_shared(probs)
    if steps is None:
        steps = shared_steps(probs)
    dt, n = probs[0].T / steps, probs[0].cs.spec.n
    step = _Step(_Operator([p.cs for p in probs]), [p.forcing for p in probs], dt)
    uh, t = fft(np.stack([p.u0.values for p in probs]), n), 0.0
    yield t, uh
    for _ in range(steps):
        uh = step(uh, t)
        t += dt
        yield t, uh


def solve_stack(probs: list, record_states: bool = False,
                steps: int | None = None) -> list:
    """``solve`` of each problem, in one march of them all as a stack: they
    share grid, T, s_list and N_weight and march `steps` equal steps, by
    default ``shared_steps(probs)``.  Each SolveResult has the numbers of
    its problem solved alone."""
    first = probs[0]
    if any(p.s_list != first.s_list or p.N_weight != first.N_weight for p in probs):
        raise EvolveError("stacked problems must share s_list and N_weight")
    spec = first.cs.spec
    diagnose = _Diagnostics(spec, first.s_list, first.N_weight)
    ts, rows, states = [], [], []
    for t, uh in march(probs, steps):
        ts.append(t)
        rows.append(diagnose(uh))
        if record_states:
            states.append(ifft(uh, spec.n))
    ts = np.array(ts)
    rows = np.array(rows)  # (level, problem, s, [norm, integrand])
    finals = ifft(uh, spec.n)
    results = []
    for p, final in enumerate(finals):
        norms = {s: rows[:, p, i, 0] for i, s in enumerate(first.s_list)}
        integrand = {s: rows[:, p, i, 1] for i, s in enumerate(first.s_list)}
        integral = {s: cumulative_trapezoid(ts, v) for s, v in integrand.items()}
        results.append(SolveResult(Field(spec, final),
                                   NormSeries(ts, norms, integrand, integral),
                                   [u[p] for u in states] if record_states else None))
    return results


def solve(prob: EvolutionProblem, record_states: bool = False,
          steps: int | None = None) -> SolveResult:
    """March to T in `steps` equal steps, by default ``shared_steps([prob])``,
    recording norms at every step: ``solve_stack`` of a stack of one."""
    return solve_stack([prob], record_states, steps)[0]


def _lockstep_member(k: int, prob: EvolutionProblem, steps: int):
    """(t, fft(u)) of ``march`` of prob alone, as member k of a lockstep:
    an Instability of its march says k."""
    try:
        for t, uh in march([prob], steps):
            yield t, uh[0]
    except Instability as exc:
        exc.member = k
        raise


def sup_differences(ref: EvolutionProblem, others: list, s: float,
                    steps: int | None = None) -> tuple:
    """(sup over t of ||u_other(t) - u_ref(t)||_s for each problem in others,
    [fft(u(T)) of ref and of each problem in others]).

    All problems are marched in lockstep, in `steps` equal steps, by default
    ``shared_steps`` of them all, so they share every time level; each is
    a stack of its own, and only the current states are held.
    """
    probs = [ref, *others]
    _check_shared(probs)
    if steps is None:
        steps = shared_steps(probs)
    weight, sq = _norm_weight(ref.cs.spec, s), np.zeros(len(others))
    for level in zip(*(_lockstep_member(k, p, steps) for k, p in enumerate(probs))):
        uh_ref = level[0][1]
        sq = np.maximum(sq, [np.sum(weight * np.abs(uh - uh_ref) ** 2)
                             for _, uh in level[1:]])
    return np.sqrt(sq).tolist(), [uh for _, uh in level]


def dense_oracle(prob: EvolutionProblem) -> Field:
    """Exact-in-time solution of the semi-discrete system via the dense
    generator matrix G; independent of the time stepper.

    u(T) is the head of expm(T [[G, g], [0, 0]]) [u0, 1], with g the
    forcing (zero when there is none) and scipy's scaling-and-squaring
    ``expm`` (Al-Mohy & Higham, SIAM J. Matrix Anal. Appl. 31 (2009)),
    imported here so that no pipeline loads scipy.
    """
    spec = prob.cs.spec
    if spec.n == 1 and spec.M > 32:
        raise EvolveError("dense oracle limited to M <= 32 in 1D")
    if spec.n == 2 and spec.M > 8:
        raise EvolveError("dense oracle limited to M <= 8 in 2D")

    from scipy.linalg import expm

    size, n = spec.size, spec.n
    aug = np.zeros((size + 1, size + 1), dtype=complex)
    # G applied to every unit vector at once, a stack that the operator of
    # the one problem broadcasts over; row j of the stack is column j of G
    basis = np.eye(size, dtype=complex).reshape((size,) + spec.shape)
    columns = ifft(_Operator([prob.cs])(fft(basis, n)), n)
    aug[:size, :size] = 1j * columns.reshape(size, size).T
    if prob.forcing is not None:
        aug[:size, size] = 1j * prob.forcing.values.ravel()
    state = np.concatenate([prob.u0.values.ravel(), [1.0]])
    out = (expm(aug * prob.T) @ state)[:size]
    return Field(spec, out.reshape(spec.shape))


def smoothing_report(series_by_eps: dict, s: float, rhs_by_eps: dict,
                     T: float) -> dict:
    """Fit the a-priori smoothing estimate across an epsilon ladder.

    series_by_eps maps eps -> (omega, NormSeries), whose integrands carry
    their <x> weight already; rhs_by_eps maps eps -> (||u0||_s^2,
    int ||g||_s^2 dt).
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
