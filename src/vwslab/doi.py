"""Symbol-grid calculus: the principal symbol, Poisson brackets,
the escape function q, the order-zero symbol d, inequality checks, symbol
seminorms, and a dense Kohn-Nirenberg quantizer for small grids.

Symbols live on the product of the spatial grid and its dual lattice,
sorted ascending, so the GridSpec alone fixes a symbol grid.  a2, q and
their x-gradients are sums of products f_r(x) g_r(xi).  The xi factors g_r
are stacked once per grid; every set of x factors that shares them is one
batch of a single (points x r) @ (r x M^n) matrix product, over some or
all x-points.  The bracket takes a symbol's exact gradients where the symbol
carries them.  a2, q and d carry both: a2's xi-gradient is
2 sum_i a_ij xi_i, q's follows from its closed form, and d's from q's by the
chain rule.  x_j and <x> factors are not periodic on the torus, so the
x-gradients are chain-rule ones, not spectral.  A symbol without exact
gradients gets the spectral x-derivative and 4th-order finite differences
along xi; ``symbol_seminorm`` takes its higher xi-derivatives that way too.

With exact gradients every quantity the escape and Doi checks read is
pointwise in x, and so is q, so both run over blocks of x-points, each of
about _BLOCK (x, xi) points.  ``calibrate_K`` evaluates q's values block by
block and keeps each block's sup of |q|/<x>; ``check_member`` evaluates q
and its gradients, a2's gradients, d's gradients and both brackets block by
block and keeps each block's minima.  So no array of the full (x, xi) size
is made for a ladder member, and the arrays of a block are those of one
workspace per grid, which every block, member and call reuses.  d's
gradients read the smooth step's and f's tables only on the band of q/<x>
where the step varies, and lam only where |q| > 10 K; ``build_d`` reads
them at every point, to the same bits.
``check_escape`` and ``check_doi`` are the reference: the same minima over
the whole grid, of ``poisson_bracket``s of symbols already built by
``build_q``, ``build_d`` and ``assemble_a2``.
"""

from __future__ import annotations

import functools
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


class SymbolGrid:
    """Sampled function on the (x, xi) product grid of spec.

    values has shape spec.shape * 2, the xi axes last.  grad_x and grad_xi,
    when present, hold one array per axis with the exact x- and
    xi-gradient.
    """

    def __init__(self, spec: GridSpec, values: np.ndarray, grad_x: list | None = None,
                 grad_xi: list | None = None):
        expected = spec.shape * 2
        if values.shape != expected:
            raise SymbolError(f"symbol shape {values.shape}, expected {expected}")
        if not np.all(np.isfinite(values)):
            raise SymbolError("symbol contains non-finite entries")
        self.spec, self.values, self.grad_x, self.grad_xi = spec, values, grad_x, grad_xi

    @property
    def n(self) -> int:
        return self.spec.n


def dual_xi(spec: GridSpec) -> tuple:
    """The sorted dual lattice, one axis per dimension."""
    ax = np.sort(spec.kappa_axis())
    return (ax,) * spec.n


class _XiTables(NamedTuple):
    step: float         # the spacing of the dual lattice
    mesh: np.ndarray    # xi_j at [j]
    quads: np.ndarray   # xi_i xi_j at [n i + j]
    abs: np.ndarray
    bracket: np.ndarray
    tilt: np.ndarray    # xi_j / <xi>^2 at [j]


# Built once per GridSpec and shared, so read-only, as in grid._tables.
# The arrays have the xi-grid shape, stacked along a first axis for the
# factor tables; they broadcast over the (x, xi) grid as they are, since
# numpy aligns them with its trailing (xi) axes.
@functools.lru_cache(maxsize=32)
def _xi_tables(spec: GridSpec) -> _XiTables:
    axes = dual_xi(spec)
    mesh = np.stack(np.meshgrid(*axes, indexing="ij"))
    quads = np.stack([a * b for a in mesh for b in mesh])
    sq = sum(a**2 for a in mesh)
    tables = _XiTables(float(axes[0][1] - axes[0][0]), mesh, quads,
                       np.sqrt(sq), np.sqrt(1.0 + sq), mesh / (1.0 + sq))
    for arr in tables[1:]:
        arr.setflags(write=False)
    return tables


def _lift(arr: np.ndarray) -> np.ndarray:
    """An x-grid array with unit xi axes appended, to broadcast over (x, xi)."""
    return arr.reshape(arr.shape + (1,) * arr.ndim)


def _separable(sets: list, table: np.ndarray, rows=slice(None),
               out: np.ndarray | None = None) -> np.ndarray:
    """[sum_r fs[r](x) table[r](xi) for fs in sets], stacked along a first
    axis, on the x-points `rows` of the (x, xi) grid: one batched matrix
    product of each set's stacked x factors with the xi factors, which the
    table holds stacked already.  Given out, a contiguous stack of at least
    len(sets) arrays of the result's shape, the products are written into
    its first len(sets); else a fresh stack is made."""
    left = np.array([[f[rows].ravel() for f in fs] for fs in sets])
    if out is not None:
        out = out[:len(sets)].reshape(len(sets), left.shape[2], -1)
    out = np.matmul(left.transpose(0, 2, 1), table.reshape(len(table), -1),
                    out=out)
    return out.reshape((len(sets),) + sets[0][0][rows].shape + table.shape[1:])


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
    # the edge stencils as matrix products with the other axes flattened
    flat_v, flat_out = v.reshape(m, -1), out.reshape(m, -1)
    flat_out[:2] = np.dot(_EDGES / h, flat_v[:5])
    flat_out[-2:] = -np.dot(_EDGES[::-1, ::-1] / h, flat_v[-5:])
    return np.moveaxis(out, 0, axis)


def _dxi(values: np.ndarray, spec: GridSpec, axis: int) -> np.ndarray:
    """d/dxi_axis of (x, xi) values by finite differences."""
    return fd4(values, spec.n + axis, _xi_tables(spec).step)


class _Partials(NamedTuple):
    """First partials of a symbol on the (x, xi) grid or on a block of its
    x-points: dx[j] = d/dx_j and dxi[j] = d/dxi_j there."""

    dx: list
    dxi: list


def _partials(spec: GridSpec, values: np.ndarray, grad_x: list | None = None,
              grad_xi: list | None = None) -> _Partials:
    """The partials of a symbol from its values on the (x, xi) grid or on a
    block of its x-points: the exact gradients given; else the spectral
    x-derivative, which needs the whole grid, and fd4 along the xi axes."""
    n = spec.n
    if grad_x is None:
        grad_x = [spectral_derivative(values, spec, j) for j in range(n)]
        grad_x = [g.real if np.isrealobj(values) else g for g in grad_x]
    if grad_xi is None:
        grad_xi = [_dxi(values, spec, j) for j in range(n)]
    return _Partials(grad_x, grad_xi)


def _bracket(a: _Partials, b: _Partials, out: np.ndarray,
             work: np.ndarray | None = None) -> np.ndarray:
    """out = {a, b} = sum_j (d_xi_j a · d_x_j b - d_x_j a · d_xi_j b), on
    the grid or block of x-points that the partials cover; each term is
    made in work, of out's shape, when it is given."""
    out.fill(0.0)
    for a_dx, a_dxi, b_dx, b_dxi in zip(a.dx, a.dxi, b.dx, b.dxi):
        term = np.multiply(a_dxi, b_dx, out=work)
        out += term
        out -= np.multiply(a_dx, b_dxi, out=term)
    return out


def poisson_bracket(a: SymbolGrid, b: SymbolGrid) -> SymbolGrid:
    """{a, b} = sum_j (d_xi_j a · d_x_j b - d_x_j a · d_xi_j b)."""
    if a.spec != b.spec:
        raise SymbolError("poisson_bracket: symbol grids do not match")
    vals = np.empty(a.values.shape, dtype=np.result_type(a.values, b.values, float))
    partials = [_partials(c.spec, c.values, c.grad_x, c.grad_xi) for c in (a, b)]
    return SymbolGrid(a.spec, _bracket(*partials, vals))


# ---------------------------------------------------------------------------
# symbol assembly


def assemble_a2(cs: CoefficientSet) -> SymbolGrid:
    """Principal symbol sum_ij a_ij(x) xi_i xi_j, with exact x-gradient and
    exact xi-gradient d_xi_j a2 = 2 sum_i a_ij xi_i."""
    tables = _xi_tables(cs.spec)
    dx, dxi = _a2_factors(cs)
    vals, *grad_x = _separable([[a for row in cs.a for a in row], *dx], tables.quads)
    return SymbolGrid(cs.spec, vals, grad_x, list(_separable(dxi, tables.mesh)))


def _a2_factors(cs: CoefficientSet) -> tuple:
    """The x factors of a2's gradients: one set per x_k against the xi
    quads for d_x_k a2, and one per xi_j against the xi mesh for
    d_xi_j a2 = 2 sum_i a_ij xi_i."""
    n = cs.spec.n
    dx = [[a for row in cs.da[k] for a in row] for k in range(n)]
    dxi = [[2.0 * cs.a[i][j] for i in range(n)] for j in range(n)]
    return dx, dxi


#: the escape constant: H_{a2} q >= C1 |xi| - C2, with C1 in q itself
C1 = 4.0


def _mu(cs: CoefficientSet) -> float:
    """q's mu: mu^2 = max |lambda(a(x))| over the whole grid of cs."""
    return float(np.sqrt(np.max(cs.abs_eigenvalues())))


def build_q(cs: CoefficientSet) -> SymbolGrid:
    """Escape symbol C1 mu^2 <xi>^{-1} sum_j x_j d_xi_j a2, with mu^2 =
    max |lambda(a(x))| over the grid of cs, not (H2)'s
    mu = max(max |lambda|, 1 / min |lambda|).

    With d_xi_j a2 = 2 sum_i a_ij xi_i this is w(xi) sum_i f_i(x) xi_i for
    w = C1 mu^2 <xi>^{-1} and f_i = 2 sum_j x_j a_ij.  Its x_k-gradient has
    the same form with f_i = 2 (a_ik + sum_j x_j d_x_k a_ij): the x_k factor
    contributes d_xi_k a2 directly, the coefficients through their cached
    derivatives.  Its xi_j-gradient is w f_j - q xi_j / <xi>^2, since
    d_xi_j <xi>^{-1} = -<xi>^{-1} xi_j / <xi>^2.
    """
    n = cs.n
    vals, *grads = _q_rows(cs.spec, _q_factors(cs), slice(None), _mu(cs))
    return SymbolGrid(cs.spec, vals, grads[:n], grads[n:])


def _q_factors(cs: CoefficientSet, grad: bool = True) -> list:
    """The x-factor sets of q against the xi mesh, before the weight w:
    [f_1, ..., f_n] for q, then with grad one set per x_k for d_x_k q."""
    spec, n = cs.spec, cs.spec.n
    x = spec.x_mesh()
    two_a = [[2.0 * a for a in row] for row in cs.a]
    sets = [[sum(x[j] * two_a[i][j] for j in range(n)) for i in range(n)]]
    if grad:
        sets += [[two_a[i][k] + sum(x[j] * (2.0 * cs.da[k][i][j])
                                    for j in range(n))
                  for i in range(n)]
                 for k in range(n)]
    return sets


def _q_rows(spec: GridSpec, sets: list, rows, mu: float,
            extra: list = (), ws: tuple | None = None) -> list:
    """[q, d_x_1 q, ..., d_x_n q, d_xi_1 q, ..., d_xi_n q] of ``build_q``
    on the x-points `rows`, from the sets of ``_q_factors``; [q] alone from
    q's set alone.  mu is the member's, taken over the whole grid.  The
    x-factor sets `extra` share q's batched product on the xi mesh, and
    their products follow q's rows.  Given the block workspace ws, the rows
    are views of its buffers, and its first work array is overwritten;
    else they are fresh arrays."""
    tables = _xi_tables(spec)
    mesh, _, grads, work = ws or (None, None, [None] * spec.n, [None])
    mesh = _separable(sets + list(extra), tables.mesh, rows, mesh)
    weight = C1 * mu**2 / tables.bracket
    q_rows = mesh[:len(sets)]
    q_rows *= weight
    out = list(q_rows)
    if len(sets) > 1:
        q = out[0]
        for f, tilt, g in zip(sets[0], tables.tilt, grads):
            g = np.multiply(_lift(f[rows]), weight, out=g)
            g -= np.multiply(q, tilt, out=work[0])
            out.append(g)
    return out + list(mesh[len(sets):])


# ---------------------------------------------------------------------------
# the monotone function f and the smooth step


def _edge(pred, x: float) -> float:
    """The least double at which pred holds, for pred false and then true
    along the doubles, walked to from x, which lies a few doubles away."""
    x = float(x)
    while pred(x):
        x = float(np.nextafter(x, -np.inf))
    while not pred(x):
        x = float(np.nextafter(x, np.inf))
    return x


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
        return self.at(*self.locate(t))

    def locate(self, t) -> tuple:
        """(j, s): the node below t and the fraction of a step past it, s
        worked on in place in one copy of t."""
        s = np.array(t, dtype=float)
        s -= self.x0
        s /= self.h
        np.clip(s, 0.0, len(self.ys) - 1.0, out=s)
        j = s.astype(np.intp)
        s -= j
        return j, s

    def at(self, j, s):
        """The interpolant at locate's (j, s), written over s."""
        s *= self.dy[j]
        s += self.ys[j]
        return s


class FTable:
    """f(t) = int_0^t lambda(K^{-1} s - 10) ds with lambda(t) = <t>^{-N} for
    t >= 0 and 1 for t < 0; tabulated with the trapezoid rule in steps of
    K / 100 up to t_max, about 40 K + 10, and held at f(0) = 0 below the
    table and at f(t_max) past it."""

    def __init__(self, K: float, N: int):
        if K <= 0:
            raise SymbolError("K must be positive")
        if N <= 1:
            raise SymbolError("N must exceed 1")
        self.K = K
        self.N = N
        step = K / 100.0
        self.ts = np.arange(0.0, 40.0 * K + 10.0 + step, step)
        self.t_max = float(self.ts[-1])
        self.table = cumulative_trapezoid(self.ts, self.lam(self.ts / K - 10.0))
        self._lookup = _UniformTable(0.0, float(self.ts[1]), self.table)
        #: f'(t) is exactly 1 for t < t_far, where t / K - 10 <= 0
        self.t_far = _edge(lambda t: self._excess(t) > 0.0, 10.0 * K)

    def lam(self, t: np.ndarray) -> np.ndarray:
        # for t < 0 the clamp gives 1^{-N/2} = 1 exactly; the clamped copy
        # is the one array made
        t = np.maximum(np.asarray(t, dtype=float), 0.0)
        t *= t
        t += 1.0
        t **= -self.N / 2.0
        return t

    def __call__(self, t):
        return self._lookup(t)

    def derivative(self, t):
        """Exact integrand lambda(K^{-1} t - 10); f' on the table."""
        return self.lam(self._excess(t))

    def _excess(self, t):
        s = np.divide(t, self.K)
        s -= 10.0
        return s


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

    def with_derivative(self, t) -> tuple:
        """(step(t), step'(t)) from one node lookup: both tables have the
        nodes 1 + k h."""
        j, s = self._cdf.locate(t)
        return self._cdf.at(j, s.copy()), self._bump.at(j, s)


_STEP = SmoothStep()


#: width of the cutoffs psi+- and phi0 in the order-zero symbol d
DELTA = 0.1


def _step_node(abs_r: float) -> tuple:
    """locate's (j, s) for the step of |r| / DELTA, as build_d places it."""
    j, s = _STEP._cdf.locate(np.divide(abs_r, DELTA))
    return int(j), float(s)


# The step of |r| / DELTA and its derivative are the tables' first entries,
# 0 and 0, for |r| < _R_IN, where locate puts |r| / DELTA on the first node,
# and their last, 1 and 0, for |r| >= _R_TOP, on the last node
_R_IN = _edge(lambda a: _step_node(a) != (0, 0.0), DELTA)
_R_TOP = _edge(lambda a: _step_node(a)[0] == len(_STEP.cdf) - 1, 2.0 * DELTA)


def _sup_ratio(values: np.ndarray, bracket: np.ndarray) -> float:
    """max |values| / <x> for values on some x-points and <x> on the same
    points, from the extremes over xi at each x, so that no array of the
    values' size is made."""
    axes = tuple(range(bracket.ndim, values.ndim))
    peak = np.maximum(values.max(axis=axes), -values.min(axis=axes))
    return float(np.max(peak / bracket))


def _sup_over_x(q: SymbolGrid) -> float:
    """sup |q| / <x> over the whole grid."""
    return _sup_ratio(q.values, q.spec.x_bracket())


#: (x, xi) points per block of x-points in calibrate_K and check_member,
#: small enough that a block's arrays stay in cache; they live in the grid's
#: block workspace (``_workspace``), so no block allocates one
_BLOCK = 8192


def _x_blocks(spec: GridSpec) -> list:
    """Blocks of x-points, each a tuple of slices of the leading x axes and
    each of about _BLOCK (x, xi) points: whole rows of the first x axis
    while one fits in a block, else pieces of one row along the next axis,
    and so on, down to a single x-point."""
    points = max(1, _BLOCK // spec.size)   # x-points per block
    blocks = [()]
    for axis in range(spec.n):
        inner = spec.M ** (spec.n - 1 - axis)   # x-points per index of axis
        # the last axis has inner = 1, so every loop returns
        if points >= inner:
            step = points // inner
            return [b + (slice(lo, lo + step),) for b in blocks
                    for lo in range(0, spec.M, step)]
        blocks = [b + (slice(i, i + 1),) for b in blocks for i in range(spec.M)]


def _aligned(shape: tuple) -> np.ndarray:
    """An empty float array of the shape whose data starts on a 64-byte
    cache line; malloc aligns only to 16 bytes."""
    size = int(np.prod(shape))
    buf = np.empty(size + 8)
    start = -buf.__array_interface__["data"][0] % 64 // 8
    return buf[start:start + size].reshape(shape)


# Built once per GridSpec, as _xi_tables is, and written by every block of
# calibrate_K and check_member: nothing they return is a view of it, and no
# two calls on one grid may run at once, as from two threads.  M is a power
# of two, so every block of _x_blocks has the first one's shape.  The arrays
# live on, so glibc never hands their pages back to the system to fault them
# in again.  Apart from the two stacks each holds about _BLOCK doubles,
# 64 KiB, below glibc's mmap threshold, so it comes from heap pages that the
# set-up has faulted in already.  Each starts on a cache line: at malloc's
# 16-byte offsets, which turn on the heap's layout, a warm check_member on
# 2D M = 16 ran about 10% slower (2-vCPU Xeon, numpy 2.4).
@functools.lru_cache(maxsize=4)
def _workspace(spec: GridSpec) -> tuple:
    """(mesh, quads, grad_xi, work): arrays of a block's (x, xi) shape.  The
    stacks mesh and quads take the products on the xi mesh (q, d_x q,
    d_xi a2) and on the xi quads (d_x a2); the lists grad_xi take d_xi q,
    then d_xi d, and work the bracket's out and term and _d_rows' three."""
    n = spec.n
    shape = spec.x_norm_sq()[_x_blocks(spec)[0]].shape + spec.shape
    blocks = [_aligned(shape) for _ in range(n + 3)]
    return (_aligned((2 * n + 1,) + shape), _aligned((n,) + shape),
            blocks[:n], blocks[n:])


def calibrate_K(sets: list) -> float:
    """K = 1.1 * sup |q| / <x>, maximised over the ``build_q`` symbols of a
    ladder of coefficient sets.  Each q's values are made one block of
    x-points at a time, in the first array of the block workspace, and only
    each block's sup is kept."""
    def sup(cs):
        mu, bracket = _mu(cs), cs.spec.x_bracket()
        sets, ws = _q_factors(cs, grad=False), _workspace(cs.spec)
        return max(_sup_ratio(_q_rows(cs.spec, sets, rows, mu, ws=ws)[0],
                              bracket[rows])
                   for rows in _x_blocks(cs.spec))
    return 1.1 * max((sup(cs) for cs in sets), default=0.0)


def _check_calibration(sup_ratio: float, f: FTable, member: str = "") -> None:
    """f's table must cover |q| <= K <x>, for the whole of q."""
    if f.K < sup_ratio * (1.0 - 1e-12):
        raise SymbolError(
            f"FTable.K = {f.K} below measured sup |q|/<x> = {sup_ratio}{member}"
        )


def build_d(q: SymbolGrid, f: FTable) -> SymbolGrid:
    """Order-zero symbol (q/<x>) phi0 + (f(|q|) + 2 DELTA)(psi+ - psi-).

    d carries an x- or xi-gradient when q carries one.  This is the
    reference form, with every table read at every point; check_member
    takes d's gradients from ``_d_rows`` to the bit.

    psi+ and psi- have the disjoint supports r > DELTA and r < -DELTA, with
    r = q/<x>, so one smooth step of |r|/DELTA is psi+ + psi-, and the sign
    of r splits it: psi+ - psi- = sign(r) (psi+ + psi-).  Arrays are reused
    once their last term is taken, so that few of the grid's size are live.
    """
    _check_calibration(_sup_over_x(q), f)
    spec = q.spec
    grad_x, grad_xi = [None if g is None else [a.copy() for a in g]
                       for g in (q.grad_x, q.grad_xi)]
    w = _lift(spec.x_bracket())
    r = q.values / w
    absr = np.abs(r)
    step, dstep = _STEP.with_derivative(absr / DELTA)
    absq = np.abs(q.values)
    lift = f(absq)
    lift += 2.0 * DELTA
    # f(|q|) only enters where the cutoffs are active, away from q = 0,
    # where sign(q) (psi+ - psi-) = psi+ + psi-
    dd_dq = np.multiply(f.derivative(absq), step, out=absq)
    phi0 = 1.0 - step
    vals = r * phi0
    term = np.copysign(step, r, out=step)
    term *= lift
    vals += term
    if grad_x is None and grad_xi is None:
        return SymbolGrid(spec, vals)
    # d(psi+ - psi-)/dr = d(psi+ + psi-)/d|r|, and d phi0/dr is -sign(r)
    # times it, so r d phi0/dr = -|r| times it: dd_dr is
    # phi0 + (lift - |r|) dstep / DELTA
    dstep /= DELTA
    lift -= absr
    lift *= dstep
    dd_dr = np.add(phi0, lift, out=phi0)
    # d depends on xi through q alone, and on x through q and r = q / <x>:
    # d_xi_k d = per_q d_xi_k q with per_q = dd_dr / <x> + dd_dq, and, as
    # d_x_k r = d_x_k q / <x> - r x_k / <x>^2, d_x_k d is
    # per_q d_x_k q - dd_dr r x_k / <x>^2
    per_q = np.divide(dd_dr, w, out=lift)
    per_q += dd_dq
    per_x = np.multiply(dd_dr, r, out=r)
    del absr, dstep, dd_dq
    for g in grad_xi or ():
        g *= per_q
    for g, x in zip(grad_x or (), spec.x_mesh()):
        g *= per_q
        g -= np.multiply(per_x, _lift(x) / w**2, out=term)
    return SymbolGrid(spec, vals, grad_x, grad_xi)


def _d_rows(spec: GridSpec, rows, q: np.ndarray, f: FTable,
            grad_x: list, grad_xi: list, work: list) -> None:
    """d's x- and xi-gradients on the x-points `rows`, from q and q's
    gradients there, each written over the gradient of q it comes from;
    ``build_d``'s to the bit.  d's values are not made.  The block's
    temporaries are made in work, three arrays of q's shape.

    Each table is read only where it varies.  The smooth step of |r|/DELTA
    varies on the band _R_IN <= |r| < _R_TOP, and f(|q|) and the term
    (f(|q|) + 2 DELTA - |r|) step' / DELTA of dd_dr enter only there.
    f'(|q|) differs from 1 only where |q| >= t_far, and enters only where
    the step is not 0.  Below the band step and step' are 0, so dd_dr is 1,
    dd_dq is +0 and per_q is 1/<x>; above it they are 1 and 0, so dd_dr is
    +0 and per_q is f'(|q|).  In both, per_x = dd_dr r is r times 1 or +0.
    """
    w = _lift(spec.x_bracket())[rows]
    r = np.divide(q, w, out=work[0])
    abs_r = np.abs(r, out=work[1])
    top = abs_r >= _R_TOP
    inside = np.flatnonzero((abs_r >= _R_IN) & ~top)
    abs_q = np.abs(q, out=work[2])
    far = np.flatnonzero(abs_q >= f.t_far)
    ends = far[np.take(top, far)]
    r_in, q_in = np.take(r, inside), np.take(abs_q, inside)
    q_ends = np.take(abs_q, ends)
    # per_q off the band, over abs_q: 1/<x> below it, f'(|q|) on top, 1 but
    # where far
    per_q = abs_q
    per_q[...] = 1.0 / w
    np.copyto(per_q, 1.0, where=top)
    np.put(per_q, ends, f.derivative(q_ends))
    # on the band, build_d's arithmetic on the band's points alone
    r_abs = np.abs(r_in)
    step, dstep = _STEP.with_derivative(r_abs / DELTA)
    lift = f(q_in)
    lift += 2.0 * DELTA
    dd_dq = np.ones_like(q_in)
    hit = q_in >= f.t_far
    dd_dq[hit] = f.derivative(q_in[hit])
    dd_dq *= step
    phi0 = 1.0 - step
    dstep /= DELTA
    lift -= r_abs
    lift *= dstep
    dd_dr = np.add(phi0, lift, out=phi0)
    per_q_in = np.divide(dd_dr, np.take(w, inside // spec.size), out=lift)
    per_q_in += dd_dq
    np.put(per_q, inside, per_q_in)
    per_x = np.multiply(r, 0.0, out=r, where=top)
    np.put(per_x, inside, dd_dr * r_in)
    # abs_r is free: the work array of the x-gradients' last term
    for g in grad_xi:
        g *= per_q
    for g, x in zip(grad_x, spec.x_mesh()):
        g *= per_q
        g -= np.multiply(per_x, _lift(x)[rows] / w**2, out=abs_r)


# ---------------------------------------------------------------------------
# inequality checks and seminorms


def _min_excess(a2: _Partials, b: _Partials, envelope: np.ndarray,
                out: np.ndarray, work: np.ndarray) -> float:
    """Minimum of H_{a2} b - envelope over a block of x-points, with out and
    work, of the block's shape, as the bracket's arrays."""
    excess = _bracket(a2, b, out, work)
    excess -= envelope
    return float(np.min(excess))


def _escape_report(min_gap: float) -> dict:
    return {"min_gap": min_gap, "C2": max(0.0, -min_gap)}


def _doi_report(min_margin: float) -> dict:
    return {
        # the deficit is minus the margin; 0.0 - m, not -m, so that a zero
        # margin gives C* = 0.0 and not -0.0
        "C_star": 0.0 - min_margin,
        "min_margin": min_margin,
        "note": "no violation on the sampled (x, xi) box only",
    }


def check_escape(q: SymbolGrid, a2: SymbolGrid) -> dict:
    """Grid minimum of H_{a2} q - C1 |xi| (should exceed -C2)."""
    excess = poisson_bracket(a2, q).values
    excess -= C1 * _xi_tables(q.spec).abs
    return _escape_report(float(np.min(excess)))


def check_doi(d: SymbolGrid, a2: SymbolGrid, N: int) -> dict:
    """Grid maximum C* of <x>^{-N} |xi| - H_{a2} d (the Doi constant)."""
    excess = poisson_bracket(a2, d).values
    excess -= _lift(d.spec.x_bracket(-N)) * _xi_tables(d.spec).abs
    return _doi_report(float(np.min(excess)))


def check_member(cs: CoefficientSet, f: FTable) -> dict:
    """The escape and Doi checks of one ladder member: with q =
    ``build_q(cs)``, the reports of ``check_escape(q, assemble_a2(cs))``
    and ``check_doi(build_d(q, f), assemble_a2(cs), f.N)``, to the bit.

    q and its gradients, a2's gradients (its values enter neither check), d's
    gradients (its values enter no check either) and the two brackets are
    evaluated on one block of x-points at a time, and only each block's
    minima are kept, with its sup |q|/<x>, which f's table must cover as in
    ``build_d``.  q, its x-gradient and a2's xi-gradient are one batched
    product on the xi mesh, and a2's x-gradient one on the xi quads.
    ``_d_rows`` reads the step's and f's tables, and lam, only on the
    points of a block where they vary, about 0.5% of them on the
    ``doi-2d-ultra`` ladder.
    """
    spec, n = cs.spec, cs.spec.n
    mu, bracket = _mu(cs), spec.x_bracket()
    tables = _xi_tables(spec)
    escape, weight = C1 * tables.abs, _lift(spec.x_bracket(-f.N))
    q_sets, (a2_dx, a2_dxi) = _q_factors(cs), _a2_factors(cs)
    sups, gaps, margins = [], [], []
    # every (x, xi) array of a block is one of the grid's workspace, which
    # lives on: no block or member frees one, so glibc hands none of their
    # pages back to the system, to fault them in again for the next
    ws = _workspace(spec)
    _, quads, _, work = ws
    out, term = work[:2]
    for rows in _x_blocks(spec):
        q, *rows_of = _q_rows(spec, q_sets, rows, mu, extra=a2_dxi, ws=ws)
        dq = _Partials(rows_of[:n], rows_of[n:2 * n])
        a2 = _Partials(list(_separable(a2_dx, tables.quads, rows, quads)),
                       rows_of[2 * n:])
        sups.append(_sup_ratio(q, bracket[rows]))
        gaps.append(_min_excess(a2, dq, escape, out, term))
        # with the gap taken, d's gradients replace q's in dq, and q's array
        # takes the Doi envelope
        _d_rows(spec, rows, q, f, *dq, work)
        envelope = np.multiply(weight[rows], tables.abs, out=q)
        margins.append(_min_excess(a2, dq, envelope, out, term))
    _check_calibration(max(sups), f, f" for the member eps = {cs.eps!r}")
    return {**_escape_report(float(np.min(gaps))),
            **_doi_report(float(np.min(margins)))}


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
