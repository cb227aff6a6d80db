"""Time evolution of the regularised problems.

The first-order form is du/dt = i(A u + B u + V u) with
A u = sum_ij D_i(a_ij (D_j u)), B u = sum_k b_k (D_k u), V u = V u and
D = -i d/dx computed spectrally.  The system is homogeneous: a problem is
its coefficients, its Cauchy data and its horizon T.  ``shared_steps`` owns
the step rule, and the consumers of the march choose what they measure,
with the smoothing weight <x>^{-N/2} of the N that the coefficients carry.

``march``, the one time loop, works on the raw FFT coefficients
u_hat = ``grid.fft(u)`` of a stack of problems that share grid, T, N and
step count, with a leading problem axis on u_hat, on the operator's symbol and
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

Which marches are stacked: after its probe, ``vwsnet.march_ladder`` gives
the built members of every ladder to one answer call at the ladder's one
step count, the probe member too when the probe keeps no result of it.
A ``net`` or ``solve`` ladder marches that call's members as one stack, so
on net-1d-delta (1D, M=256) all five members share every transform and
array pass of one 16-level march (317 numpy FFT calls per run: one field
each way per right-hand side for its V, one inverse a level for all s).
``sup_differences`` marches each problem as its own stack of one, in
lockstep, so uniqueness pairs and the consistency ladder are not stacked: a
stack pays for the union of its members' variable coefficients (the base
problem of a uniqueness pair would take the perturbed one's variable a_12,
b and V).  Measured on uniq-2d-ultra (2D, M=64): perfbench host-scaled
run_s and peak RSS, three alternating runs each (the last row: the median
of ten), and the minor page faults of one call in a fresh process; the
first five rows predate the zero-stride constant coefficients of
``coeffs``:

    march                                   run_s (s)     peak RSS  faults
    a stack per problem, no step buffers    0.111-0.113   36.9 MB   3,700
    a pair per stack, no step buffers       0.117-0.119   37.6 MB   7,000
    a stack per problem, step buffers       0.089         38.1 MB   4,950
    a pair per stack, step buffers          0.097-0.104   38.5 MB   5,770
    the 4 pairs after the probe as two
    stacks of 4 problems, step buffers      0.091         48.0 MB   5,450
    a stack per problem, one scratch        0.079         36.2 MB   1,620

A pair's stack of two 64 x 64 complex fields is 128 KB, glibc's mmap
threshold, so each temporary of a step without buffers was memory that
glibc gave back to the OS when it was freed and faulted in again for the
next, and step buffers of each march's own were new pages for every
march.  Now every march of one stack shape writes its stages, transforms
and products into that shape's one scratch (``_scratch``), built on its
first march and kept: a step writes each buffer before it reads it and
leaves nothing there that a later step needs, so the interleaved marches
of a lockstep share it too, and only a step's new state is a fresh array.
With step buffers a pair per stack still pays for the union, and stacking
the ladder is no faster and holds 10 MB more.

The stepper is ETD-RK4 (exponential time differencing with RK4 stages;
Cox & Matthews, J. Comput. Phys. 176 (2002), in the form of Kassam &
Trefethen, SIAM J. Sci. Comput. 26 (2005)).  The flow of the mean symbol,
e^{i Lambda h}, is applied exactly through its phi-function tables, so the
step is no longer tied to the stiff constant part: ``stable_dt`` bounds it
by the RK4 imaginary-axis limit over rho of the remainder alone, and is
infinite when there is no remainder.  The default step, ``shared_steps``',
is min(T / LEVELS, stable_dt).  LEVELS = 16 is the smallest power of two
that keeps u(T) and the smoothing integrals of every member of the
net-1d-delta benchmark ladder (1D, M=256, L=8, delta-potential, delta
data, T=0.125) within 2e-3 of a 2048-step march.  Worst relative errors:

    step                      steps   u(T)     int s=0   int s=1
    RK4 at its bound            141   0.57     0.26      0.53
    ETD-RK4, T / LEVELS          16   1.2e-3   3.9e-4    4.7e-4

An epsilon-ladder may march at fewer levels; ``vwsnet.probe_levels`` owns
that choice.
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple

import numpy as np

from .coeffs import CoefficientSet, _abs_eigenvalues
from .grid import Field, GridSpec, fft, ifft
from .mollify import cumulative_trapezoid

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
    ``sup_differences``; ``eps`` is the ``CoefficientSet.eps`` of its
    coefficients, 0.0 for a classical (unmollified) problem, and the
    message names it.
    """

    def __init__(self, ratio: float, t: float, dt: float, member: int, eps: float):
        super().__init__(ratio, t, dt, member, eps)
        self.ratio, self.t, self.dt, self.member, self.eps = ratio, t, dt, member, eps

    def __str__(self) -> str:
        return (f"norm grew x{self.ratio:.1f} in one step at t = {self.t:.4g} "
                f"(dt = {self.dt:.3g}) for eps = {self.eps!r}; "
                "generator likely under-resolved")


class EvolutionProblem:
    """The Cauchy problem du/dt = i(A + B + V) u, u(0) = u0, on [0, T].

    dt_bound is the un-safetied step bound, stable_dt / SAFETY (inf: no
    remainder).
    """

    def __init__(self, cs: CoefficientSet, u0: Field, T: float = 1.0):
        if T <= 0:
            raise EvolveError("horizon T must be positive")
        if u0.spec != cs.spec:
            raise EvolveError("initial data grid does not match coefficients")
        self.cs, self.u0, self.T = cs, u0, T
        self.dt_bound = stable_dt(cs) / SAFETY


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
    anorm = float(np.max(_abs_eigenvalues(rest)))

    def sup_rest(arr):
        r = _split(arr)[1]
        return 0.0 if r is None else float(np.max(np.abs(r)))

    bmax = max((sup_rest(bk) for bk in cs.b), default=0.0)
    rho = anorm * kmax**2 + bmax * kmax + sup_rest(cs.V)
    return SAFETY * RK4_IMAG_LIMIT / rho if rho > 0 else np.inf


@functools.lru_cache(maxsize=4)
def _complex_kappa(spec: GridSpec) -> tuple:
    """The kappa meshes of spec, stored complex: built once per grid and
    read-only, as ``GridSpec.kappa_mesh`` is."""
    kc = tuple(k.astype(complex) for k in spec.kappa_mesh())
    for k in kc:
        k.setflags(write=False)
    return kc


@functools.lru_cache(maxsize=4)
def _scratch(shape: tuple) -> tuple:
    """(stages, inverse stack, forward stack, product) for u_hat of a stack
    shape (problems, *grid): the four stage fields of ``_Step``, n + 1 =
    len(shape) fields each way, the most an ``_Operator`` transforms, and
    one product.  Every march of that shape writes into it, both members of
    a ``sup_differences`` lockstep included: a step writes each buffer
    before it reads it and needs nothing in it after it returns."""
    fields = (len(shape),) + shape
    return (np.empty((4,) + shape, complex), np.empty(fields, complex),
            np.empty(fields, complex), np.empty(shape, complex))


class _Operator:
    """Raw coefficients u_hat (``grid.fft``) -> raw coefficients of (A + B + V) u,
    for a stack of problems on one grid: u_hat has a leading problem axis.

    Built once per stack.  The grid means of each member's coefficients make
    its symbol sum mean(a_ij) kappa_i kappa_j + sum mean(b_k) kappa_k + mean(V);
    the remainders take one inverse transform of the stack of every needed
    D_j u, and of u when V is variable, and one forward transform of the
    stack of the sums: one per row i with a variable a_ij, and one of the
    variable b_k and V.  An entry variable in any member has a remainder in
    all, zero where it is constant; the zero terms add exactly, so each
    member gets the numbers of a stack of its own.
    """

    def __init__(self, sets: list):
        spec, n = sets[0].spec, sets[0].n
        self.n, km = n, spec.kappa_mesh()
        self.eps = [cs.eps for cs in sets]
        memo = {}

        def split(arrs):
            # (means shaped to broadcast over the stack, stacked remainders or
            # None); the remainders, like the kappa factors below, are stored
            # complex, as numpy would cast them on every product.  Keyed on
            # the arrays' identities: a built set holds a_ij and a_ji as one
            # array, so the pair is split and stacked once
            key = tuple(map(id, arrs))
            if key not in memo:
                parts = [_split(arr) for arr in arrs]
                means = np.reshape([c for c, _ in parts], (len(parts),) + (1,) * n)
                memo[key] = means, (
                    None if all(r is None for _, r in parts) else
                    np.stack([np.zeros(spec.shape) if r is None else r
                              for _, r in parts], dtype=complex))
            return memo[key]

        symbol = np.zeros((len(sets),) + spec.shape)
        rows = []  # (i, [(j, remainder of a_ij)]) for each row with one
        for i in range(n):
            variable = []
            for j in range(n):
                c, r = split([cs.a[i][j] for cs in sets])
                symbol = symbol + c * km[i] * km[j]
                if r is not None:
                    variable.append((j, r))
            if variable:
                rows.append((i, variable))
        lower = []  # (k, remainder of b_k) for each variable b_k
        for k in range(n):
            c, r = split([cs.b[k] for cs in sets])
            symbol = symbol + c * km[k]
            if r is not None:
                lower.append((k, r))
        c, V = split([cs.V for cs in sets])
        self.symbol = symbol + c
        # the inverse stack: kappa_j u_hat for each needed j, then u_hat when
        # V is variable; a sum is [(slot in that stack, remainder)]
        needed = sorted({j for _, row in rows for j, _ in row} | {k for k, _ in lower})
        kc = _complex_kappa(spec)
        self.kappa = [kc[j] for j in needed]
        self.with_u = V is not None
        slot = {j: m for m, j in enumerate(needed)}
        lower = [(slot[k], r) for k, r in lower]
        if V is not None:
            lower.insert(0, (len(needed), V))
        # the forward stack: (kappa_i, sum) for each variable row, then
        # (None, sum) of the variable b_k and V
        self.sums = [(kc[i], [(slot[j], r) for j, r in row]) for i, row in rows]
        if lower:
            self.sums.append((None, lower))

    def workspace(self, shape: tuple) -> tuple:
        """(inverse stack, forward stack, product): the buffers of
        ``remainder`` for u_hat of the given shape, views of its
        ``_scratch``."""
        _, back, ahead, prod = _scratch(shape)
        return back[:len(self.kappa) + self.with_u], ahead[:len(self.sums)], prod

    def remainder(self, uh: np.ndarray, out: np.ndarray, work: tuple) -> np.ndarray:
        """Write the variable part alone, (A + B + V) u minus the symbol
        term, to out, which may be uh; work is a ``workspace`` of uh's
        shape.

        Every product keeps the operand order of r * D_j u, kappa_i * F and
        their sums left to right: a swapped complex product can round
        differently.
        """
        back, ahead, prod = work
        for du, kj in zip(back, self.kappa):
            np.multiply(kj, uh, out=du)
        if self.with_u:
            back[-1] = uh
        out[...] = 0.0  # uh is read no more
        if not self.sums:
            return out
        ifft(back, self.n, out=back)
        for acc, (_, ((m, r), *rest)) in zip(ahead, self.sums):
            np.multiply(r, back[m], out=acc)
            for m, r in rest:
                acc += np.multiply(r, back[m], out=prod)
        fft(ahead, self.n, out=ahead)
        for (ki, _), f in zip(self.sums, ahead):
            out += f if ki is None else np.multiply(ki, f, out=prod)
        return out

    def __call__(self, uh: np.ndarray) -> np.ndarray:
        return self.symbol * uh + self.remainder(uh, np.empty_like(uh),
                                                 self.workspace(uh.shape))


def apply_spatial(cs: CoefficientSet, u: Field | np.ndarray) -> np.ndarray:
    """A u + B u + V u on raw values: the coefficient-space operator of
    ``solve`` between one forward and one inverse transform."""
    vals = u.values if isinstance(u, Field) else u
    n = cs.spec.n
    return ifft(_Operator([cs])(fft(vals[None], n)), n)[0]


def _phi(z: np.ndarray, ez: np.ndarray, last: int = 3) -> list:
    """[phi_1(z), ..., phi_last(z)], phi_k(z) = sum_m z^m / (m + k)!, given
    ez = e^z.

    Closed forms phi_k = (phi_{k-1} - 1/(k-1)!) / z, phi_0 = e^z, where
    |z| >= 0.2, so rounding grows by at most 1/|z|^3 = 125; a ten-term
    Taylor series below, truncated under 3e-15.  Against the first row of
    expm of the augmented 4 x 4 matrix the relative error is below 2e-13.
    """
    small = np.abs(z) < 0.2
    w, zs = np.where(small, 1.0, z), z[small]
    out, p = [], ez  # the closed form at the small entries is overwritten
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
    F = i remainder u, autonomous; e^{ch}, e^{ch/2} and the phi-function
    weights are built once per step length.  The stages, their right-hand
    sides and the operator's transforms are written into the ``_scratch``
    of the stack's shape, which every step of every march of that shape
    reuses.  Only the new state is a fresh array, so a state that
    ``march`` yields outlives the next steps.

    The stages are Kassam & Trefethen's expressions, E2 u + Q Fu and so on,
    written into the buffers with their operand order: a complex product
    with its operands swapped can round differently.
    """

    def __init__(self, op: _Operator, h: float):
        self.op, self.h = op, h
        z = 1j * h * op.symbol
        self.E, self.E2 = np.exp(z), np.exp(z / 2.0)
        self.Q = h / 2.0 * _phi(z / 2.0, self.E2, last=1)[0]
        p1, p2, p3 = _phi(z, self.E)
        self.f1 = h * (p1 - 3.0 * p2 + 4.0 * p3)
        self.f2 = 2.0 * h * (p2 - 2.0 * p3)
        self.f3 = h * (4.0 * p3 - p2)
        shape = op.symbol.shape
        self.work, self.stages = op.workspace(shape), _scratch(shape)[0]

    def _F(self, v: np.ndarray, out: np.ndarray) -> np.ndarray:
        """out = i remainder(v); out may be v."""
        return np.multiply(1j, self.op.remainder(v, out, self.work), out=out)

    def __call__(self, uh: np.ndarray, t: float) -> np.ndarray:
        h, E2, Q = self.h, self.E2, self.Q
        # a, then c, is built in the buffer of F(c), and b in that of F(b);
        # products go to the operator's, which is free between its calls
        Fu, Fa, Fb, Fc = self.stages
        a, b, prod = Fc, Fb, self.work[2]
        self._F(uh, Fu)
        np.add(np.multiply(E2, uh, out=a), np.multiply(Q, Fu, out=prod), out=a)
        self._F(a, Fa)
        np.add(np.multiply(E2, uh, out=b), np.multiply(Q, Fa, out=prod), out=b)
        self._F(b, Fb)
        np.subtract(np.multiply(2.0, Fb, out=prod), Fu, out=prod)
        c = np.add(np.multiply(E2, a, out=a), np.multiply(Q, prod, out=prod), out=a)
        self._F(c, Fc)
        new = self.E * uh
        new += np.multiply(self.f1, Fu, out=prod)
        new += np.multiply(self.f2, np.add(Fa, Fb, out=prod), out=prod)
        new += np.multiply(self.f3, Fc, out=prod)
        # by Parseval the coefficient norms have the ratio of the value
        # norms; each member is checked against its own norm
        for p, (u0, u1) in enumerate(zip(uh, new)):
            before, after = np.linalg.norm(u0), np.linalg.norm(u1)
            if before > 0 and after > 10.0 * before:
                raise Instability(float(after / before), t, h, p, self.op.eps[p])
        return new


def step_rk4(u: Field, t: float, dt: float, prob: EvolutionProblem) -> Field:
    """One ETD-RK4 step of the first-order system, the step ``march``
    takes, on grid values."""
    step = _Step(_Operator([prob.cs]), dt)
    n = u.spec.n
    return Field(u.spec, ifft(step(fft(u.values[None], n), t), n)[0])


class NormSeries(NamedTuple):
    """Per-step Sobolev norms and the smoothing-integrand time series."""

    t: np.ndarray
    norms: dict            # s -> array of ||u(t)||_s
    integrand: dict        # s -> array of ||<x>^{-N/2} Lambda^{s+1/2} u||_0^2
    integral: dict         # s -> running time integral of the integrand

    def sup_norm(self, s: float) -> float:
        return float(np.max(self.norms[s]))

    def final_integral(self, s: float) -> float:
        return float(self.integral[s][-1])


class _Diagnostics:
    """Raw coefficients of a stack -> (problem, s, [||u||_s,
    ||<x>^{-N/2} Lambda^{s+1/2} u||_0^2]) for each s in s_list, N the
    decay exponent of the stack's coefficient sets.

    The norm needs no transform; the integrands of all s take one inverse of
    the stacked lifts of u, each L^2 norm by Plancherel on its grid values.
    """

    def __init__(self, spec: GridSpec, s_list, N: int):
        self.norm_weights = [spec.sobolev_weight(s) for s in s_list]
        self.lifts = np.stack([spec.kappa_bracket() ** (s + 0.5) for s in s_list])
        self.x_weight = spec.h**spec.n * spec.x_bracket(-N)
        self.n, self.axes = spec.n, tuple(range(-spec.n, 0))

    def __call__(self, uh: np.ndarray) -> np.ndarray:
        power = np.abs(uh) ** 2
        lifted = ifft(uh[:, None] * self.lifts, self.n)
        out = np.empty((len(uh), len(self.lifts), 2))
        for k, w in enumerate(self.norm_weights):
            out[:, k, 0] = np.sqrt(np.sum(w * power, axis=self.axes))
            out[:, k, 1] = np.sum(self.x_weight * np.abs(lifted[:, k]) ** 2,
                                  axis=self.axes)
        return out


class SolveResult(NamedTuple):
    final: Field
    series: NormSeries
    states: list | None = None


def shared_steps(probs: list, levels: int = LEVELS, dt: float | None = None) -> int:
    """The number of equal steps that march problems with one horizon T in
    lockstep: round(T/dt) at a given dt, else at min(T / levels, their
    smallest stable_dt); one more if the steps then exceed their smallest
    bound.  EvolveError names the first problem whose bound a dt exceeds."""
    T, bound = probs[0].T, min(p.dt_bound for p in probs)
    if dt is None:
        dt = min(T / levels, SAFETY * bound)
    elif not dt > 0:
        raise EvolveError(f"time step dt must be positive, got {dt}")
    for k, p in enumerate(probs):
        if dt > p.dt_bound * (1.0 + 1e-9):
            raise EvolveError(f"dt = {dt} exceeds stability bound {p.dt_bound} of "
                              f"problem {k} of {len(probs)} for eps = {p.cs.eps!r}")
    steps = max(1, int(round(T / dt)))
    # round() can go past the bound
    return steps + 1 if T / steps > bound else steps


def _check_shared(probs: list) -> None:
    if len({(p.T, p.cs.spec, p.cs.N) for p in probs}) > 1:
        raise EvolveError("marched problems must share the grid, T and the model's N")


def march(probs: list, steps: int | None = None):
    """Yield (t, u_hat) at t = 0 and after each of `steps` equal ETD-RK4
    steps to T, by default ``shared_steps(probs)``; u_hat stacks fft(u) of
    the problems, which share grid and T, along a leading axis."""
    _check_shared(probs)
    if steps is None:
        steps = shared_steps(probs)
    dt, n = probs[0].T / steps, probs[0].cs.spec.n
    step = _Step(_Operator([p.cs for p in probs]), dt)
    uh, t = fft(np.stack([p.u0.values for p in probs]), n), 0.0
    yield t, uh
    for _ in range(steps):
        uh = step(uh, t)
        t += dt
        yield t, uh


def solve_stack(probs: list, s_list: tuple = (0.0,), stride: int = 0,
                steps: int | None = None) -> list:
    """``solve`` of each problem, in one march of them all as a stack: they
    share grid, T and their coefficients' N, the smoothing weight, and march
    `steps` equal steps, by default ``shared_steps(probs)``.  Each
    SolveResult has the numbers of its problem solved alone, and with
    stride > 0 the grid values of levels 0, stride, 2 stride, ..."""
    spec = probs[0].cs.spec
    diagnose = _Diagnostics(spec, s_list, probs[0].cs.N)
    ts, rows, states = [], [], []
    for level, (t, uh) in enumerate(march(probs, steps)):
        ts.append(t)
        rows.append(diagnose(uh))
        if stride and level % stride == 0:
            states.append(ifft(uh, spec.n))
    ts = np.array(ts)
    rows = np.array(rows)  # (level, problem, s, [norm, integrand])
    finals = ifft(uh, spec.n)
    results = []
    for p, final in enumerate(finals):
        norms = {s: rows[:, p, i, 0] for i, s in enumerate(s_list)}
        integrand = {s: rows[:, p, i, 1] for i, s in enumerate(s_list)}
        integral = {s: cumulative_trapezoid(ts, v) for s, v in integrand.items()}
        results.append(SolveResult(Field(spec, final),
                                   NormSeries(ts, norms, integrand, integral),
                                   [u[p] for u in states] if stride else None))
    return results


def solve(prob: EvolutionProblem, s_list: tuple = (0.0,), stride: int = 0,
          steps: int | None = None) -> SolveResult:
    """March to T in `steps` equal steps, by default ``shared_steps([prob])``,
    recording norms and the smoothing integrand, weighted by the N of
    prob.cs, at every step: ``solve_stack`` of a stack of one."""
    return solve_stack([prob], s_list, stride, steps)[0]


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
    weight, sq = ref.cs.spec.sobolev_weight(s), np.zeros(len(others))
    for level in zip(*(_lockstep_member(k, p, steps) for k, p in enumerate(probs))):
        uh_ref = level[0][1]
        sq = np.maximum(sq, [np.sum(weight * np.abs(uh - uh_ref) ** 2)
                             for _, uh in level[1:]])
    return np.sqrt(sq).tolist(), [uh for _, uh in level]
