"""Symbol-grid calculus: principal/subprincipal symbols, Poisson brackets,
the escape function q, the order-zero symbol d, inequality checks, symbol
seminorms, and a dense Kohn-Nirenberg quantizer for small grids.

Symbols live on the product of the spatial grid and its dual lattice,
sorted ascending, so the GridSpec alone fixes a symbol grid.  a2, q and
their x-gradients are sums of products f_r(x) g_r(xi), each built as one
(M^n x r) @ (r x M^n) matrix product.  x-derivatives are spectral unless a
symbol carries its exact x-gradient: symbols with explicit x_j or <x>
factors are not periodic on the torus, so their builders attach chain-rule
x-gradients, which the bracket uses in place of the spectral derivative.
xi-derivatives use 4th-order finite differences, except that a2 carries
its exact xi-gradient 2 sum_i a_ij xi_i, which the bracket uses instead.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import NamedTuple

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

    values has shape spec.shape * 2, the xi axes last.  grad_x and grad_xi,
    when present, hold one array per axis with the exact x- and
    xi-gradient.
    """

    spec: GridSpec
    values: np.ndarray = field(repr=False)
    grad_x: list | None = field(default=None, repr=False)
    grad_xi: list | None = field(default=None, repr=False)

    def __post_init__(self):
        expected = self.spec.shape * 2
        if self.values.shape != expected:
            raise SymbolError(f"symbol shape {self.values.shape}, expected {expected}")
        if not np.all(np.isfinite(self.values)):
            raise SymbolError("symbol contains non-finite entries")

    @property
    def n(self) -> int:
        return self.spec.n


def dual_xi(spec: GridSpec) -> tuple:
    """The sorted dual lattice, one axis per dimension."""
    ax = np.sort(spec.kappa_axis())
    return (ax,) * spec.n


class _XiTables(NamedTuple):
    mesh: tuple
    abs: np.ndarray
    bracket: np.ndarray


# Built once per GridSpec and shared, so read-only, as in grid._tables.
# The arrays have the xi-grid shape; they broadcast over the (x, xi) grid
# as they are, since numpy aligns them with its trailing (xi) axes.
@functools.lru_cache(maxsize=32)
def _xi_tables(spec: GridSpec) -> _XiTables:
    mesh = tuple(np.meshgrid(*dual_xi(spec), indexing="ij"))
    sq = sum(a**2 for a in mesh)
    tables = _XiTables(mesh, np.sqrt(sq), np.sqrt(1.0 + sq))
    for arr in (*mesh, *tables[1:]):
        arr.setflags(write=False)
    return tables


def _lift(arr: np.ndarray) -> np.ndarray:
    """An x-grid array with unit xi axes appended, to broadcast over (x, xi)."""
    return arr.reshape(arr.shape + (1,) * arr.ndim)


def _separable(fs: list, gs: list) -> np.ndarray:
    """sum_r fs[r](x) gs[r](xi) on the (x, xi) grid, as one matrix product
    of the stacked x-grid factors with the stacked xi-grid factors."""
    left = np.stack([f.ravel() for f in fs], axis=1)
    right = np.stack([g.ravel() for g in gs])
    return (left @ right).reshape(fs[0].shape + gs[0].shape)


# ---------------------------------------------------------------------------
# derivatives

# 5-point, 4th-order first-derivative stencils (unit spacing): the interior
# one is (v[k-2] - 8 v[k-1] + 8 v[k+1] - v[k+2]) / 12; the rows below are
# the one-sided ones of the two left edge nodes, mirrored at the right edge.
_EDGES = np.array([[-25.0, 48.0, -36.0, 16.0, -3.0],
                   [-3.0, -10.0, 18.0, -6.0, 1.0]]) / 12.0


def fd4(values: np.ndarray, axis: int, h: float) -> np.ndarray:
    """4th-order first derivative along a uniformly spaced axis."""
    m = values.shape[axis]
    if m < 5:
        raise SymbolError("fd4 needs at least 5 points per xi axis")
    # a contiguous copy with the axis first makes each stencil term one long
    # in-place pass; the result is a view with the axis back in its place
    v = np.ascontiguousarray(np.moveaxis(values, axis, 0))
    out = np.empty_like(v)
    mid = out[2:-2]
    np.subtract(v[3:-1], v[1:-3], out=mid)
    mid *= 8.0
    mid += v[:-4]
    mid -= v[4:]
    mid /= 12.0 * h
    out[:2] = np.tensordot(_EDGES / h, v[:5], axes=(1, 0))
    out[-2:] = -np.tensordot(_EDGES[::-1, ::-1] / h, v[-5:], axes=(1, 0))
    return np.moveaxis(out, 0, axis)


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


def _dxi_symbol(sym: SymbolGrid, axis: int) -> np.ndarray:
    """d/dxi_axis of the symbol: its exact gradient when it carries one."""
    if sym.grad_xi is not None:
        return sym.grad_xi[axis]
    return _dxi(sym.values, sym.spec, axis)


def poisson_bracket(a: SymbolGrid, b: SymbolGrid) -> SymbolGrid:
    """{a, b} = sum_j (d_xi_j a · d_x_j b - d_x_j a · d_xi_j b)."""
    if a.spec != b.spec:
        raise SymbolError("poisson_bracket: symbol grids do not match")
    vals = np.zeros(a.values.shape, dtype=np.result_type(a.values, b.values, float))
    for j in range(a.n):
        term = _dxi_symbol(a, j) * _dx(b, j)
        vals += term
        vals -= np.multiply(_dx(a, j), _dxi_symbol(b, j), out=term)
    return SymbolGrid(a.spec, vals)


# ---------------------------------------------------------------------------
# symbol assembly


def assemble_a2(cs: CoefficientSet) -> SymbolGrid:
    """Principal symbol sum_ij a_ij(x) xi_i xi_j, with exact x-gradient and
    exact xi-gradient d_xi_j a2 = 2 sum_i a_ij xi_i."""
    n = cs.spec.n
    xi = _xi_tables(cs.spec).mesh
    pairs = [(i, j) for i in range(n) for j in range(n)]
    quads = [xi[i] * xi[j] for i, j in pairs]
    vals = _separable([cs.a[i][j] for i, j in pairs], quads)
    grad_x = [_separable([cs.da[k][i][j] for i, j in pairs], quads)
              for k in range(n)]
    grad_xi = [_separable([2.0 * cs.a[i][j] for i in range(n)], xi)
               for j in range(n)]
    return SymbolGrid(cs.spec, vals, grad_x=grad_x, grad_xi=grad_xi)


def assemble_a1(cs: CoefficientSet) -> SymbolGrid:
    """Subprincipal symbol sum_ij (D_x_i a_ij)(x) xi_j with D = -i d/dx."""
    spec, n = cs.spec, cs.spec.n
    xi = _xi_tables(spec).mesh
    vals = np.zeros(spec.shape * 2, dtype=complex)
    for i in range(n):
        for j in range(n):
            vals = vals + _lift(-1j * cs.da[i][i][j]) * xi[j]
    return SymbolGrid(spec, vals)


def build_q(cs: CoefficientSet, C1: float, mu: float) -> SymbolGrid:
    """Escape symbol C1 mu^2 <xi>^{-1} sum_j x_j d_xi_j a2.

    With d_xi_j a2 = 2 sum_i a_ij xi_i this is C1 mu^2 <xi>^{-1} times
    sum_i f_i(x) xi_i for f_i = 2 sum_j x_j a_ij.  Its x_k-gradient has the
    same form with f_i = 2 (a_ik + sum_j x_j d_x_k a_ij): the x_k factor
    contributes d_xi_k a2 directly, the coefficients through their cached
    derivatives.
    """
    spec, n = cs.spec, cs.spec.n
    tables = _xi_tables(spec)
    x = spec.x_mesh()
    two_a = [[2.0 * a for a in row] for row in cs.a]
    vals = _separable([sum(x[j] * two_a[i][j] for j in range(n))
                       for i in range(n)], tables.mesh)
    grads = [_separable([two_a[i][k]
                         + sum(x[j] * (2.0 * cs.da[k][i][j]) for j in range(n))
                         for i in range(n)], tables.mesh)
             for k in range(n)]
    weight = C1 * mu**2 / tables.bracket
    for arr in (vals, *grads):
        arr *= weight
    return SymbolGrid(spec, vals, grad_x=grads)


# ---------------------------------------------------------------------------
# the monotone function f and the smooth step


class _UniformTable:
    """Piecewise-linear interpolant of ys on the nodes x0 + k h, held at
    ys[0] left of them and at ys[-1] right of them.

    These are np.interp's values with those fills, to rounding; the node is
    found by arithmetic instead of a binary search.
    """

    def __init__(self, x0: float, h: float, ys: np.ndarray):
        self.x0, self.h, self.ys = x0, h, ys
        # a zero step past the last node returns ys[-1] there exactly
        self.dy = np.append(np.diff(ys), 0.0)

    def __call__(self, t):
        # s is the fractional node index, worked on in place in one copy
        s = np.array(t, dtype=float)
        s -= self.x0
        s /= self.h
        np.clip(s, 0.0, len(self.ys) - 1.0, out=s)
        j = s.astype(np.intp)
        s -= j
        s *= self.dy[j]
        s += self.ys[j]
        return s


class FTable:
    """f(t) = int_0^t lambda(K^{-1} s - 10) ds with lambda(t) = <t>^{-N} for
    t >= 0 and 1 for t < 0; tabulated with the trapezoid rule, held at
    f(0) = 0 below the table and at f(t_max) past it."""

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
        self._lookup = _UniformTable(0.0, float(self.ts[1]), self.table)

    def lam(self, t: np.ndarray) -> np.ndarray:
        # for t < 0 the clamp gives 1^{-N/2} = 1 exactly
        t = np.maximum(np.asarray(t, dtype=float), 0.0)
        return (1.0 + t**2) ** (-self.N / 2.0)

    def __call__(self, t):
        return self._lookup(t)

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
        # the tables end at cdf 0 and 1 and bump 0, the fills either side
        h = float(u[1] - u[0])
        self._cdf = _UniformTable(1.0, h, self.cdf)
        self._bump = _UniformTable(1.0, h, self.bump)

    def __call__(self, t):
        return self._cdf(t)

    def derivative(self, t):
        return self._bump(t)


_STEP = SmoothStep()


#: width of the cutoffs psi+- and phi0 in the order-zero symbol d
DELTA = 0.1


def _sup_over_x(q: SymbolGrid) -> float:
    """sup |q| / <x>, from the extremes of q over xi at each x, so that no
    array of the full (x, xi) size is made."""
    axes = tuple(range(q.n, 2 * q.n))
    peak = np.maximum(q.values.max(axis=axes), -q.values.min(axis=axes))
    return float(np.max(peak / np.sqrt(1.0 + q.spec.x_norm_sq())))


def calibrate_K(qs: list) -> float:
    """K = 1.1 * sup |q| / <x>, maximised over a ladder of q symbols."""
    return 1.1 * max((_sup_over_x(q) for q in qs), default=0.0)


#: (x, xi) points per block of x-rows in build_d: small enough that a
#: block's temporaries stay in cache and are recycled by the allocator
_BLOCK = 8192


def build_d(q: SymbolGrid, f: FTable) -> SymbolGrid:
    """Order-zero symbol (q/<x>) phi0 + (f(|q|) + 2 DELTA)(psi+ - psi-).

    d and its x-gradient are pointwise in (x, xi), given q and its
    x-gradient, so they are evaluated on blocks of rows of the first x axis.
    """
    sup_ratio = _sup_over_x(q)
    if f.K < sup_ratio * (1.0 - 1e-12):
        raise SymbolError(
            f"FTable.K = {f.K} below measured sup |q|/<x> = {sup_ratio}"
        )
    w = _lift(np.sqrt(1.0 + q.spec.x_norm_sq()))
    xs = [_lift(x) for x in q.spec.x_mesh()]
    grads_q = q.grad_x if q.grad_x is not None else []
    out = [np.empty_like(q.values) for _ in range(1 + len(grads_q))]
    rows = max(1, _BLOCK * q.spec.M // q.values.size)
    for lo in range(0, q.spec.M, rows):
        sl = slice(lo, lo + rows)
        block = _d_rows(q.values[sl], [g[sl] for g in grads_q], w[sl],
                        [x[sl] for x in xs], f)
        for dst, src in zip(out, block):
            dst[sl] = src
    return SymbolGrid(q.spec, out[0],
                      grad_x=out[1:] if q.grad_x is not None else None)


def _d_rows(qv, grads_q, w, xs, f) -> list:
    """[d, d_x_1 d, ...] on a block of rows, from q, its x-gradient, <x>
    and the x coordinates there.

    psi+ and psi- have the disjoint supports r > DELTA and r < -DELTA, with
    r = q/<x>, so one smooth step of |r|/DELTA is psi+ + psi-, and the sign
    of r splits it: psi+ - psi- = sign(r) (psi+ + psi-).
    """
    r = qv / w
    absr = np.abs(r)
    step = _STEP(absr / DELTA)
    phi0 = 1.0 - step
    absq = np.abs(qv)
    lift = f(absq) + 2.0 * DELTA
    vals = r * phi0 + lift * np.copysign(step, r)
    if not grads_q:
        return [vals]
    # d(psi+ - psi-)/dr = d(psi+ + psi-)/d|r|, and d phi0/dr is -sign(r)
    # times it, so r d phi0/dr = -|r| times it
    dd_dr = phi0 + (lift - absr) * (_STEP.derivative(absr / DELTA) / DELTA)
    # f(|q|) only enters where the cutoffs are active, away from q = 0,
    # where sign(q) (psi+ - psi-) = psi+ + psi-
    dd_dq = f.derivative(absq) * step
    # d_x_k r = d_x_k q / <x> - r x_k / <x>^2, so d_x_k d is
    # (dd_dr / <x> + dd_dq) d_x_k q - dd_dr r x_k / <x>^2
    per_q, per_x = dd_dr / w + dd_dq, dd_dr * r
    return [vals] + [per_q * g - per_x * (x / w**2)
                     for g, x in zip(grads_q, xs)]


# ---------------------------------------------------------------------------
# inequality checks and seminorms


def check_escape(q: SymbolGrid, a2: SymbolGrid, C1: float) -> dict:
    """Grid minimum of H_{a2} q - C1 |xi| (should exceed -C2)."""
    gap = poisson_bracket(a2, q).values
    gap -= C1 * _xi_tables(q.spec).abs
    min_gap = float(np.min(gap))
    return {"min_gap": min_gap, "C2": max(0.0, -min_gap)}


def check_doi(d: SymbolGrid, a2: SymbolGrid, N: int) -> dict:
    """Grid maximum C* of <x>^{-N} |xi| - H_{a2} d (the Doi constant)."""
    margin = poisson_bracket(a2, d).values
    margin -= _lift((1.0 + d.spec.x_norm_sq()) ** (-N / 2.0)) * _xi_tables(d.spec).abs
    min_margin = float(np.min(margin))
    return {
        # the deficit is minus the margin; 0.0 - m, not -m, so that a zero
        # margin gives C* = 0.0 and not -0.0
        "C_star": 0.0 - min_margin,
        "min_margin": min_margin,
        "note": "no violation on the sampled (x, xi) box only",
    }


def symbol_seminorm(a: SymbolGrid, m: float, k: int) -> float:
    """|a|_k^(m): max over |alpha|+|beta| <= k of
    sup |d_x^beta d_xi^alpha a| <xi>^{-(m - |alpha|)}."""
    if k > 3:
        raise SymbolError("seminorm depth limited to k <= 3")
    bra = _xi_tables(a.spec).bracket
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
    kflat = [k.ravel() for k in _xi_tables(spec).mesh]
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
