"""Symbol-grid calculus: principal/subprincipal symbols, Poisson brackets,
the escape function q, the order-zero symbol d, inequality checks, symbol
seminorms, and a dense Kohn-Nirenberg quantizer for small grids.

Symbols live on the product of the spatial grid and a xi-lattice (by
default the dual lattice, sorted ascending).  x-derivatives are spectral;
xi-derivatives use 4th-order finite differences.  Symbols that carry
explicit x_j or <x> factors are not periodic on the torus, so their
builders attach exact chain-rule x-gradients which the bracket uses in
place of the spectral derivative.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .coeffs import CoefficientSet
from .grid import Field, GridSpec, sobolev_norm


class SymbolError(ValueError):
    pass


# ---------------------------------------------------------------------------
# symbol grids


@dataclass
class SymbolGrid:
    """Sampled function on the (x, xi) product grid.

    values has shape spec.shape + (len(xi[0]), ...).  grad_x, when present,
    holds one array per spatial axis with the exact x-gradient.
    """

    spec: GridSpec
    xi: tuple
    values: np.ndarray = field(repr=False)
    grad_x: list | None = field(default=None, repr=False)

    def __post_init__(self):
        expected = self.spec.shape + tuple(len(ax) for ax in self.xi)
        if self.values.shape != expected:
            raise SymbolError(f"symbol shape {self.values.shape}, expected {expected}")
        if not np.all(np.isfinite(self.values)):
            raise SymbolError("symbol contains non-finite entries")

    @property
    def n(self) -> int:
        return self.spec.n

    def xi_mesh(self) -> tuple:
        return np.meshgrid(*self.xi, indexing="ij")

    def same_grid(self, other: "SymbolGrid") -> bool:
        return self.spec == other.spec and all(
            np.array_equal(a, b) for a, b in zip(self.xi, other.xi)
        )


def dual_xi(spec: GridSpec) -> tuple:
    """The sorted dual lattice, one axis per dimension."""
    ax = np.sort(spec.kappa_axis())
    return (ax,) * spec.n


def _broadcast_x(arr: np.ndarray, sym: SymbolGrid) -> np.ndarray:
    """Expand an x-grid array over the xi axes."""
    return arr.reshape(arr.shape + (1,) * sym.n)


def _broadcast_xi(arrs: tuple, sym: SymbolGrid) -> list:
    """Expand meshed xi arrays over the x axes."""
    return [a.reshape((1,) * sym.n + a.shape) for a in arrs]


def xi_bracket(sym: SymbolGrid) -> np.ndarray:
    xm = sym.xi_mesh()
    k2 = sum(a**2 for a in xm)
    return np.sqrt(1.0 + k2).reshape((1,) * sym.n + k2.shape)


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


def sym_dxi(sym: SymbolGrid, axis: int) -> np.ndarray:
    """d/dxi_axis of the symbol values by finite differences."""
    ax = sym.xi[axis]
    h = float(ax[1] - ax[0])
    return fd4(sym.values, sym.n + axis, h)


def sym_dx_spectral(values: np.ndarray, spec: GridSpec, axis: int) -> np.ndarray:
    """Spectral d/dx_axis of an (x, xi) array along one x axis."""
    kappa = spec.kappa_axis()
    shape = [1] * values.ndim
    shape[axis] = len(kappa)
    coeffs = np.fft.fft(values, axis=axis)
    return np.fft.ifft(1j * kappa.reshape(shape) * coeffs, axis=axis)


def sym_dx(sym: SymbolGrid, axis: int) -> np.ndarray:
    if sym.grad_x is not None:
        return sym.grad_x[axis]
    out = sym_dx_spectral(sym.values, sym.spec, axis)
    if np.isrealobj(sym.values):
        out = out.real
    return out


def poisson_bracket(a: SymbolGrid, b: SymbolGrid) -> SymbolGrid:
    """{a, b} = sum_j (d_xi_j a · d_x_j b - d_x_j a · d_xi_j b)."""
    if not a.same_grid(b):
        raise SymbolError("poisson_bracket: symbol grids do not match")
    vals = np.zeros(a.values.shape, dtype=np.result_type(a.values, b.values, float))
    for j in range(a.n):
        vals = vals + sym_dxi(a, j) * sym_dx(b, j) - sym_dx(a, j) * sym_dxi(b, j)
    return SymbolGrid(a.spec, a.xi, vals)


# ---------------------------------------------------------------------------
# symbol assembly


def assemble_a2(cs: CoefficientSet, xi: tuple | None = None) -> SymbolGrid:
    """Principal symbol sum_ij a_ij(x) xi_i xi_j, with exact x-gradient."""
    spec = cs.spec
    if xi is None:
        xi = dual_xi(spec)
    n = spec.n
    xim = np.meshgrid(*xi, indexing="ij")
    vals = np.zeros(spec.shape + xim[0].shape)
    grads = [np.zeros_like(vals) for _ in range(n)]
    for i in range(n):
        for j in range(n):
            quad = (xim[i] * xim[j]).reshape((1,) * n + xim[0].shape)
            vals += cs.a[i][j].reshape(spec.shape + (1,) * n) * quad
            for k in range(n):
                grads[k] += cs.da[k][i][j].reshape(spec.shape + (1,) * n) * quad
    return SymbolGrid(spec, xi, vals, grad_x=grads)


def assemble_a1(cs: CoefficientSet, xi: tuple | None = None) -> SymbolGrid:
    """Subprincipal symbol sum_ij (D_x_i a_ij)(x) xi_j with D = -i d/dx."""
    spec = cs.spec
    if xi is None:
        xi = dual_xi(spec)
    n = spec.n
    xim = np.meshgrid(*xi, indexing="ij")
    vals = np.zeros(spec.shape + xim[0].shape, dtype=complex)
    for i in range(n):
        for j in range(n):
            lin = xim[j].reshape((1,) * n + xim[0].shape)
            dai = (-1j * cs.da[i][i][j]).reshape(spec.shape + (1,) * n)
            vals = vals + dai * lin
    return SymbolGrid(spec, xi, vals)


def build_q(cs: CoefficientSet, C1: float, mu: float,
            xi: tuple | None = None) -> SymbolGrid:
    """Escape symbol C1 mu^2 <xi>^{-1} sum_j x_j d_xi_j a2."""
    spec = cs.spec
    if xi is None:
        xi = dual_xi(spec)
    n = spec.n
    xim = np.meshgrid(*xi, indexing="ij")
    bra = np.sqrt(1.0 + sum(a**2 for a in xim)).reshape((1,) * n + xim[0].shape)
    xmesh = [x.reshape(spec.shape + (1,) * n) for x in spec.x_mesh()]
    scale = C1 * mu**2

    def dxi_a2(j, a=None):
        # d_xi_j a2 = 2 sum_i a_ij xi_i, evaluated analytically
        coeff = a if a is not None else cs.a
        total = np.zeros(spec.shape + xim[0].shape)
        for i in range(n):
            total += 2.0 * coeff[i][j].reshape(spec.shape + (1,) * n) \
                * xim[i].reshape((1,) * n + xim[0].shape)
        return total

    core = sum(xmesh[j] * dxi_a2(j) for j in range(n))
    vals = scale / bra * core
    grads = []
    for k in range(n):
        # product rule: the x_k factor contributes d_xi_k a2 directly, the
        # coefficients contribute through their cached derivatives
        g = dxi_a2(k)
        for j in range(n):
            g = g + xmesh[j] * dxi_a2(j, a=cs.da[k])
        grads.append(scale / bra * g)
    return SymbolGrid(spec, xi, vals, grad_x=grads)


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
        integrand = self.lam(self.ts / K - 10.0)
        self.table = np.concatenate(
            [[0.0], np.cumsum((integrand[1:] + integrand[:-1]) / 2.0 * np.diff(self.ts))]
        )

    def lam(self, t: np.ndarray) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        return np.where(t < 0.0, 1.0, (1.0 + np.maximum(t, 0.0) ** 2) ** (-self.N / 2.0))

    def __call__(self, t):
        return np.interp(np.asarray(t, dtype=float), self.ts, self.table)

    def derivative(self, t):
        """Exact integrand lambda(K^{-1} t - 10); f' on the table."""
        return self.lam(np.asarray(t, dtype=float) / self.K - 10.0)


def build_f(K: float, N: int, t_max: float | None = None) -> FTable:
    return FTable(K, N, t_max)


class SmoothStep:
    """C^inf monotone step: 0 for t <= 1, 1 for t >= 2, a normalised
    bump-integral in between, tabulated on 4001 points."""

    def __init__(self):
        u = np.linspace(0.0, 1.0, 4001)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            bump = np.exp(-1.0 / (u * (1.0 - u)))
        bump[~np.isfinite(bump)] = 0.0
        cdf = np.concatenate([[0.0], np.cumsum((bump[1:] + bump[:-1]) / 2.0 * np.diff(u))])
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


@dataclass
class DoiParams:
    """Parameters of the order-zero symbol construction; the cutoff width
    delta is fixed at 0.1 and f is built from K and N."""

    C1: float = 4.0
    K: float = 1.0
    N: int = 2
    delta: float = field(default=0.1, init=False)
    f: FTable = field(init=False)

    def __post_init__(self):
        if self.C1 <= 0:
            raise SymbolError("C1 must be positive")
        if self.N <= 1:
            raise SymbolError("N must exceed 1")
        self.f = build_f(self.K, self.N)


def calibrate_K(qs: list) -> float:
    """K = 1.1 * sup |q| / <x>, maximised over a ladder of q symbols."""
    best = 0.0
    for q in qs:
        w = _broadcast_x(np.sqrt(1.0 + q.spec.x_norm_sq()), q)
        best = max(best, float(np.max(np.abs(q.values) / w)))
    return 1.1 * best


def build_d(q: SymbolGrid, p: DoiParams) -> SymbolGrid:
    """Order-zero symbol (q/<x>) phi0 + (f(|q|) + 2 delta)(psi+ - psi-)."""
    w = _broadcast_x(np.sqrt(1.0 + q.spec.x_norm_sq()), q)
    sup_ratio = float(np.max(np.abs(q.values) / w))
    if p.K < sup_ratio * (1.0 - 1e-12):
        raise SymbolError(
            f"DoiParams.K = {p.K} below measured sup |q|/<x> = {sup_ratio}"
        )
    r = q.values / w
    plus = _STEP(r / p.delta)
    minus = _STEP(-r / p.delta)
    phi0 = 1.0 - plus - minus
    absq = np.abs(q.values)
    fq = p.f(absq)
    vals = r * phi0 + (fq + 2.0 * p.delta) * (plus - minus)

    grads = None
    if q.grad_x is not None:
        dplus = _STEP.derivative(r / p.delta) / p.delta
        dminus = -_STEP.derivative(-r / p.delta) / p.delta
        dphi0 = -(dplus + dminus)
        dd_dr = phi0 + r * dphi0 + (fq + 2.0 * p.delta) * (dplus - dminus)
        # f(|q|) only enters where the cutoffs are active, away from q = 0,
        # so sign(q) is well-defined there
        dd_dq = p.f.derivative(absq) * np.sign(q.values) * (plus - minus)
        xmesh = [x.reshape(q.spec.shape + (1,) * q.n) for x in q.spec.x_mesh()]
        grads = []
        for k in range(q.n):
            dw = xmesh[k] / w
            dr = (q.grad_x[k] * w - q.values * dw) / w**2
            grads.append(dd_dr * dr + dd_dq * q.grad_x[k])
    return SymbolGrid(q.spec, q.xi, vals, grad_x=grads)


# ---------------------------------------------------------------------------
# inequality checks and seminorms


def check_escape(q: SymbolGrid, a2: SymbolGrid, C1: float) -> dict:
    """Grid minimum of H_{a2} q - C1 |xi| (should exceed -C2)."""
    H = poisson_bracket(a2, q).values
    xim = _broadcast_xi(q.xi_mesh(), q)
    xi_abs = np.sqrt(sum(a**2 for a in xim))
    gap = H - C1 * xi_abs
    return {"min_gap": float(np.min(gap)), "C2": float(max(0.0, -np.min(gap)))}


def check_doi(d: SymbolGrid, a2: SymbolGrid, N: int) -> dict:
    """Grid maximum C* of <x>^{-N} |xi| - H_{a2} d (the Doi constant)."""
    if not d.same_grid(a2):
        raise SymbolError("check_doi: symbol grids do not match")
    H = poisson_bracket(a2, d).values
    xim = _broadcast_xi(d.xi_mesh(), d)
    xi_abs = np.sqrt(sum(a**2 for a in xim))
    w = _broadcast_x((1.0 + d.spec.x_norm_sq()) ** (-N / 2.0), d)
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
        for ax_order in _orders(n, total):
            alpha, beta = ax_order
            vals = a.values
            first_x = True
            # x-derivatives first; the attached exact gradient replaces the
            # spectral derivative at the first order when available
            for axis in range(n):
                for _ in range(beta[axis]):
                    if first_x and a.grad_x is not None:
                        vals = a.grad_x[axis]
                    else:
                        vals = sym_dx_spectral(vals, a.spec, axis)
                    first_x = False
            for axis in range(n):
                h = float(a.xi[axis][1] - a.xi[axis][0])
                for _ in range(alpha[axis]):
                    vals = fd4(vals, n + axis, h)
            weight = bra ** (-(m - sum(alpha)))
            best = max(best, float(np.max(np.abs(vals) * weight)))
    return best


def _orders(n: int, total: int):
    """All (alpha, beta) multi-index pairs with |alpha| + |beta| = total."""
    def splits(t):
        if n == 1:
            return [(t,)]
        return [(i, t - i) for i in range(t + 1)]

    for a_tot in range(total + 1):
        for alpha in splits(a_tot):
            for beta in splits(total - a_tot):
                yield alpha, beta


# ---------------------------------------------------------------------------
# dense Kohn-Nirenberg quantizer


def quantize(a: SymbolGrid) -> np.ndarray:
    """Dense matrix of Op(a): (Op(a)u)(x_j) = sum_k a(x_j, kappa_k) u_hat_k
    e^{i kappa_k x_j}, acting on flattened field values."""
    spec = a.spec
    expected = dual_xi(spec)
    if not all(np.array_equal(p, q) for p, q in zip(a.xi, expected)):
        raise SymbolError("quantize requires the dual lattice as xi grid")
    if spec.n == 1 and spec.M > 64:
        raise SymbolError("dense quantizer limited to M <= 64 in 1D")
    if spec.n == 2 and spec.M > 16:
        raise SymbolError("dense quantizer limited to M <= 16 in 2D")

    xm = spec.x_mesh()
    xflat = [x.ravel() for x in xm]
    km = np.meshgrid(*a.xi, indexing="ij")
    kflat = [k.ravel() for k in km]
    phase = sum(np.outer(x, k) for x, k in zip(xflat, kflat))
    E = np.exp(1j * phase)  # rows x_j, cols kappa_k
    F = np.exp(-1j * phase).T / spec.size  # forward transform, u -> u_hat
    avals = a.values.reshape(spec.size, spec.size)
    return (avals * E) @ F


def exp_symbol_operator(d: SymbolGrid) -> np.ndarray:
    """Dense operator Op(e^{d})."""
    return quantize(SymbolGrid(d.spec, d.xi, np.exp(d.values)))


def energy_norm(E: np.ndarray, u: Field, s: float) -> float:
    """(||E Lambda^s u||_0^2 + ||u||_{s-1}^2)^{1/2} with dense E."""
    from .grid import apply_lambda

    v = apply_lambda(u, s)
    Ev = Field(u.spec, (E @ v.values.ravel()).reshape(u.spec.shape))
    return float(np.sqrt(sobolev_norm(Ev, 0.0) ** 2 + sobolev_norm(u, s - 1.0) ** 2))
