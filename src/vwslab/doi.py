"""Symbol-grid calculus: principal/subprincipal symbols, Poisson brackets,
the escape function q, the order-zero symbol d, inequality checks, symbol
seminorms, and a dense Kohn-Nirenberg quantizer for small grids.

Symbols live on the product of the spatial grid and its dual lattice,
sorted ascending, so the GridSpec alone fixes a symbol grid.  x-derivatives
are spectral; xi-derivatives use 4th-order finite differences.  Symbols
that carry explicit x_j or <x> factors are not periodic on the torus, so
their builders attach exact chain-rule x-gradients which the bracket uses
in place of the spectral derivative.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .coeffs import CoefficientSet, _multi_indices
from .grid import (Field, GridSpec, partial_derivative, sobolev_norm,
                   spectral_derivative)
from .mollify import cumulative_trapezoid


class SymbolError(ValueError):
    pass


# ---------------------------------------------------------------------------
# symbol grids


@dataclass
class SymbolGrid:
    """Sampled function on the (x, xi) product grid of spec.

    values has shape spec.shape * 2, the xi axes last.  grad_x, when
    present, holds one array per spatial axis with the exact x-gradient.
    """

    spec: GridSpec
    values: np.ndarray = field(repr=False)
    grad_x: list | None = field(default=None, repr=False)

    def __post_init__(self):
        expected = self.spec.shape * 2
        if self.values.shape != expected:
            raise SymbolError(f"symbol shape {self.values.shape}, expected {expected}")
        if not np.all(np.isfinite(self.values)):
            raise SymbolError("symbol contains non-finite entries")

    @property
    def n(self) -> int:
        return self.spec.n

    @property
    def xi(self) -> tuple:
        return dual_xi(self.spec)


def dual_xi(spec: GridSpec) -> tuple:
    """The sorted dual lattice, one axis per dimension."""
    ax = np.sort(spec.kappa_axis())
    return (ax,) * spec.n


def _xi_mesh(spec: GridSpec) -> list:
    """Meshed xi axes.  They broadcast over the (x, xi) grid as they are,
    since numpy aligns them with its trailing (xi) axes."""
    return np.meshgrid(*dual_xi(spec), indexing="ij")


def _lift(arr: np.ndarray) -> np.ndarray:
    """An x-grid array with unit xi axes appended, to broadcast over (x, xi)."""
    return arr.reshape(arr.shape + (1,) * arr.ndim)


def xi_bracket(sym: SymbolGrid) -> np.ndarray:
    return np.sqrt(1.0 + sum(a**2 for a in _xi_mesh(sym.spec)))


# ---------------------------------------------------------------------------
# derivatives

# 5-point, 4th-order first-derivative stencils (unit spacing): rows are the
# offsets used at the two left edge nodes, interior, and two right edge nodes.
_EDGE0 = np.array([-25.0, 48.0, -36.0, 16.0, -3.0]) / 12.0
_EDGE1 = np.array([-3.0, -10.0, 18.0, -6.0, 1.0]) / 12.0
_CENTER = np.array([1.0, -8.0, 0.0, 8.0, -1.0]) / 12.0


def fd4(values: np.ndarray, axis: int, h: float) -> np.ndarray:
    """4th-order first derivative along a uniformly spaced axis."""
    m = values.shape[axis]
    if m < 5:
        raise SymbolError("fd4 needs at least 5 points per xi axis")
    v = np.moveaxis(values, axis, 0)
    out = np.empty_like(v)
    out[2:-2] = (
        _CENTER[0] * v[:-4] + _CENTER[1] * v[1:-3] + _CENTER[3] * v[3:-1]
        + _CENTER[4] * v[4:]
    )
    head = v[:5]
    out[0] = np.tensordot(_EDGE0, head, axes=(0, 0))
    out[1] = np.tensordot(_EDGE1, head, axes=(0, 0))
    tail = v[-5:]
    out[-1] = -np.tensordot(_EDGE0[::-1], tail, axes=(0, 0))
    out[-2] = -np.tensordot(_EDGE1[::-1], tail, axes=(0, 0))
    return np.moveaxis(out, 0, axis) / h


def _dxi(values: np.ndarray, spec: GridSpec, axis: int) -> np.ndarray:
    """d/dxi_axis of (x, xi) values by finite differences."""
    ax = dual_xi(spec)[axis]
    return fd4(values, spec.n + axis, float(ax[1] - ax[0]))


def _dx(sym: SymbolGrid, axis: int) -> np.ndarray:
    """d/dx_axis of the symbol: its exact gradient when it carries one."""
    if sym.grad_x is not None:
        return sym.grad_x[axis]
    out = spectral_derivative(sym.values, sym.spec, axis)
    return out.real if np.isrealobj(sym.values) else out


def poisson_bracket(a: SymbolGrid, b: SymbolGrid) -> SymbolGrid:
    """{a, b} = sum_j (d_xi_j a · d_x_j b - d_x_j a · d_xi_j b)."""
    if a.spec != b.spec:
        raise SymbolError("poisson_bracket: symbol grids do not match")
    vals = np.zeros(a.values.shape, dtype=np.result_type(a.values, b.values, float))
    for j in range(a.n):
        vals = (vals + _dxi(a.values, a.spec, j) * _dx(b, j)
                - _dx(a, j) * _dxi(b.values, b.spec, j))
    return SymbolGrid(a.spec, vals)


# ---------------------------------------------------------------------------
# symbol assembly


def assemble_a2(cs: CoefficientSet) -> SymbolGrid:
    """Principal symbol sum_ij a_ij(x) xi_i xi_j, with exact x-gradient."""
    spec, n = cs.spec, cs.spec.n
    xi = _xi_mesh(spec)
    vals = np.zeros(spec.shape * 2)
    grads = [np.zeros_like(vals) for _ in range(n)]
    for i in range(n):
        for j in range(n):
            quad = xi[i] * xi[j]
            vals += _lift(cs.a[i][j]) * quad
            for k in range(n):
                grads[k] += _lift(cs.da[k][i][j]) * quad
    return SymbolGrid(spec, vals, grad_x=grads)


def assemble_a1(cs: CoefficientSet) -> SymbolGrid:
    """Subprincipal symbol sum_ij (D_x_i a_ij)(x) xi_j with D = -i d/dx."""
    spec, n = cs.spec, cs.spec.n
    xi = _xi_mesh(spec)
    vals = np.zeros(spec.shape * 2, dtype=complex)
    for i in range(n):
        for j in range(n):
            vals = vals + _lift(-1j * cs.da[i][i][j]) * xi[j]
    return SymbolGrid(spec, vals)


def build_q(cs: CoefficientSet, C1: float, mu: float) -> SymbolGrid:
    """Escape symbol C1 mu^2 <xi>^{-1} sum_j x_j d_xi_j a2."""
    spec, n = cs.spec, cs.spec.n
    xi = _xi_mesh(spec)
    bra = np.sqrt(1.0 + sum(a**2 for a in xi))
    x = [_lift(a) for a in spec.x_mesh()]
    scale = C1 * mu**2

    def dxi_a2(j, a=cs.a):
        # d_xi_j a2 = 2 sum_i a_ij xi_i, evaluated analytically
        total = np.zeros(spec.shape * 2)
        for i in range(n):
            total += 2.0 * _lift(a[i][j]) * xi[i]
        return total

    core = sum(x[j] * dxi_a2(j) for j in range(n))
    vals = scale / bra * core
    grads = []
    for k in range(n):
        # product rule: the x_k factor contributes d_xi_k a2 directly, the
        # coefficients contribute through their cached derivatives
        g = dxi_a2(k)
        for j in range(n):
            g = g + x[j] * dxi_a2(j, a=cs.da[k])
        grads.append(scale / bra * g)
    return SymbolGrid(spec, vals, grad_x=grads)


# ---------------------------------------------------------------------------
# the monotone function f and the smooth step


class FTable:
    """f(t) = int_0^t lambda(K^{-1} s - 10) ds with lambda(t) = <t>^{-N} for
    t >= 0 and 1 for t < 0; tabulated with the trapezoid rule."""

    def __init__(self, K: float, N: int, t_max: float | None = None):
        if K <= 0:
            raise SymbolError("K must be positive")
        if N <= 1:
            raise SymbolError("N must exceed 1")
        self.K = K
        self.N = N
        if t_max is None:
            t_max = 40.0 * K + 10.0
        step = K / 100.0
        self.ts = np.arange(0.0, t_max + step, step)
        self.t_max = float(self.ts[-1])
        self.table = cumulative_trapezoid(self.ts, self.lam(self.ts / K - 10.0))

    def lam(self, t: np.ndarray) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        return np.where(t < 0.0, 1.0, (1.0 + np.maximum(t, 0.0) ** 2) ** (-self.N / 2.0))

    def __call__(self, t):
        return np.interp(np.asarray(t, dtype=float), self.ts, self.table)

    def derivative(self, t):
        """Exact integrand lambda(K^{-1} t - 10); f' on the table."""
        return self.lam(np.asarray(t, dtype=float) / self.K - 10.0)


class SmoothStep:
    """C^inf monotone step: 0 for t <= 1, 1 for t >= 2, a normalised
    bump-integral in between, tabulated on 4001 points."""

    def __init__(self):
        u = np.linspace(0.0, 1.0, 4001)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            bump = np.exp(-1.0 / (u * (1.0 - u)))
        bump[~np.isfinite(bump)] = 0.0
        cdf = cumulative_trapezoid(u, bump)
        self.u = u
        self.norm = cdf[-1]
        self.cdf = cdf / self.norm
        self.bump = bump / self.norm

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        return np.interp(t - 1.0, self.u, self.cdf, left=0.0, right=1.0)

    def derivative(self, t):
        t = np.asarray(t, dtype=float)
        return np.interp(t - 1.0, self.u, self.bump, left=0.0, right=0.0)


_STEP = SmoothStep()


#: width of the cutoffs psi+- and phi0 in the order-zero symbol d
DELTA = 0.1


def _over_x(q: SymbolGrid) -> tuple:
    """<x> lifted onto the (x, xi) grid, q/<x> and sup |q|/<x>."""
    w = _lift(np.sqrt(1.0 + q.spec.x_norm_sq()))
    r = q.values / w
    return w, r, float(np.max(np.abs(r)))


def calibrate_K(qs: list) -> float:
    """K = 1.1 * sup |q| / <x>, maximised over a ladder of q symbols."""
    return 1.1 * max((_over_x(q)[2] for q in qs), default=0.0)


def build_d(q: SymbolGrid, f: FTable) -> SymbolGrid:
    """Order-zero symbol (q/<x>) phi0 + (f(|q|) + 2 DELTA)(psi+ - psi-)."""
    w, r, sup_ratio = _over_x(q)
    if f.K < sup_ratio * (1.0 - 1e-12):
        raise SymbolError(
            f"FTable.K = {f.K} below measured sup |q|/<x> = {sup_ratio}"
        )
    plus = _STEP(r / DELTA)
    minus = _STEP(-r / DELTA)
    phi0 = 1.0 - plus - minus
    absq = np.abs(q.values)
    fq = f(absq)
    vals = r * phi0 + (fq + 2.0 * DELTA) * (plus - minus)

    grads = None
    if q.grad_x is not None:
        dplus = _STEP.derivative(r / DELTA) / DELTA
        dminus = -_STEP.derivative(-r / DELTA) / DELTA
        dphi0 = -(dplus + dminus)
        dd_dr = phi0 + r * dphi0 + (fq + 2.0 * DELTA) * (dplus - dminus)
        # f(|q|) only enters where the cutoffs are active, away from q = 0,
        # so sign(q) is well-defined there
        dd_dq = f.derivative(absq) * np.sign(q.values) * (plus - minus)
        grads = []
        for k, x in enumerate(q.spec.x_mesh()):
            dw = _lift(x) / w
            dr = (q.grad_x[k] * w - q.values * dw) / w**2
            grads.append(dd_dr * dr + dd_dq * q.grad_x[k])
    return SymbolGrid(q.spec, vals, grad_x=grads)


# ---------------------------------------------------------------------------
# inequality checks and seminorms


def check_escape(q: SymbolGrid, a2: SymbolGrid, C1: float) -> dict:
    """Grid minimum of H_{a2} q - C1 |xi| (should exceed -C2)."""
    H = poisson_bracket(a2, q).values
    gap = H - C1 * np.sqrt(sum(a**2 for a in _xi_mesh(q.spec)))
    return {"min_gap": float(np.min(gap)), "C2": float(max(0.0, -np.min(gap)))}


def check_doi(d: SymbolGrid, a2: SymbolGrid, N: int) -> dict:
    """Grid maximum C* of <x>^{-N} |xi| - H_{a2} d (the Doi constant)."""
    H = poisson_bracket(a2, d).values
    xi_abs = np.sqrt(sum(a**2 for a in _xi_mesh(d.spec)))
    w = _lift((1.0 + d.spec.x_norm_sq()) ** (-N / 2.0))
    deficit = w * xi_abs - H
    cstar = float(np.max(deficit))
    return {
        "C_star": cstar,
        "min_margin": float(np.min(H - w * xi_abs)),
        "note": "no violation on the sampled (x, xi) box only",
    }


def symbol_seminorm(a: SymbolGrid, m: float, k: int) -> float:
    """|a|_k^(m): max over |alpha|+|beta| <= k of
    sup |d_x^beta d_xi^alpha a| <xi>^{-(m - |alpha|)}."""
    if k > 3:
        raise SymbolError("seminorm depth limited to k <= 3")
    bra = xi_bracket(a)
    best = 0.0
    n = a.n
    for total in range(k + 1):
        for alpha, beta in _orders(n, total):
            vals, beta = a.values, list(beta)
            # x-derivatives first; the attached exact gradient replaces the
            # spectral derivative at the first order when available
            if a.grad_x is not None and any(beta):
                axis = next(i for i, b in enumerate(beta) if b)
                vals, beta[axis] = a.grad_x[axis], beta[axis] - 1
            vals = partial_derivative(vals, a.spec, beta)
            for axis in range(n):
                for _ in range(alpha[axis]):
                    vals = _dxi(vals, a.spec, axis)
            weight = bra ** (-(m - sum(alpha)))
            best = max(best, float(np.max(np.abs(vals) * weight)))
    return best


def _orders(n: int, total: int):
    """All (alpha, beta) multi-index pairs with |alpha| + |beta| = total."""
    for a_tot in range(total + 1):
        for alpha in _multi_indices(n, a_tot):
            for beta in _multi_indices(n, total - a_tot):
                yield alpha, beta


# ---------------------------------------------------------------------------
# dense Kohn-Nirenberg quantizer


def quantize(a: SymbolGrid) -> np.ndarray:
    """Dense matrix of Op(a): (Op(a)u)(x_j) = sum_k a(x_j, kappa_k) u_hat_k
    e^{i kappa_k x_j}, acting on flattened field values."""
    spec = a.spec
    if spec.n == 1 and spec.M > 64:
        raise SymbolError("dense quantizer limited to M <= 64 in 1D")
    if spec.n == 2 and spec.M > 16:
        raise SymbolError("dense quantizer limited to M <= 16 in 2D")

    xm = spec.x_mesh()
    xflat = [x.ravel() for x in xm]
    kflat = [k.ravel() for k in _xi_mesh(spec)]
    phase = sum(np.outer(x, k) for x, k in zip(xflat, kflat))
    E = np.exp(1j * phase)  # rows x_j, cols kappa_k
    F = np.exp(-1j * phase).T / spec.size  # forward transform, u -> u_hat
    avals = a.values.reshape(spec.size, spec.size)
    return (avals * E) @ F


def exp_symbol_operator(d: SymbolGrid) -> np.ndarray:
    """Dense operator Op(e^{d})."""
    return quantize(SymbolGrid(d.spec, np.exp(d.values)))


def energy_norm(E: np.ndarray, u: Field, s: float) -> float:
    """(||E Lambda^s u||_0^2 + ||u||_{s-1}^2)^{1/2} with dense E."""
    from .grid import apply_lambda

    v = apply_lambda(u, s)
    Ev = Field(u.spec, (E @ v.values.ravel()).reshape(u.spec.shape))
    return float(np.sqrt(sobolev_norm(Ev, 0.0) ** 2 + sobolev_norm(u, s - 1.0) ** 2))
