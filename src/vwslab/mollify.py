"""Mollifier families, regularising scales, and scaling-law probes.

Convolution with the periodised mollifier is computed spectrally: the
Fourier coefficients of u * phi_omega are u_hat_k * phi_hat(omega*kappa_k),
which is exact on the torus and keeps the slope fits quadrature-free.
"""

from __future__ import annotations

import math

import numpy as np

from .grid import Field, forward, inverse, partial_derivative, sobolev_norm

#: clamp value returned by the loglog scale for epsilon >= e^{-e}
LOGLOG_CLAMP = 1.0 - 1e-6


class MollifyError(ValueError):
    pass


class Mollifier:
    """Unit-mass profile with closed-form Fourier transform.

    kind "gaussian": phi >= 0, phi_hat(xi) = exp(-|xi|^2/2).
    kind "vanishing-moment": Fourier-side polynomial correction of the
    gaussian; ``order`` (even) is the approximation order, i.e. the
    moments of order 1 .. order-1 vanish and phi_hat(xi) - 1 = O(|xi|^order).
    """

    def __init__(self, kind: str = "gaussian", order: int = 4):
        if kind not in ("gaussian", "vanishing-moment"):
            raise MollifyError(f"unknown mollifier kind {kind!r}")
        if kind == "vanishing-moment" and (order < 2 or order % 2):
            raise MollifyError("vanishing-moment order must be a positive even integer")
        self.kind, self.order = kind, order

    def hat(self, xi_sq: np.ndarray) -> np.ndarray:
        """phi_hat as a function of |xi|^2."""
        if self.kind == "gaussian":
            return np.exp(-xi_sq / 2.0)
        # vanishing-moment: q(t) = sum_{j<order/2} t^j / (2^j j!) truncates the
        # expansion of e^{t/2}, so q(t) e^{-t/2} = 1 + O(t^{order/2}).
        m = self.order // 2
        q = sum(xi_sq**j / (2.0**j * math.factorial(j)) for j in range(m))
        return q * np.exp(-xi_sq / 2.0)


class ScaleFn:
    """Regularising scale omega(epsilon).

    kind "loglog": (log log(1/eps))^{-1}, clamped to LOGLOG_CLAMP for
    eps >= e^{-e} where the formula leaves (0,1).
    kind "power": eps^k.
    """

    def __init__(self, kind: str = "loglog", k: float = 1.0):
        if kind not in ("loglog", "power"):
            raise MollifyError(f"unknown scale kind {kind!r}")
        if kind == "power" and k <= 0:
            raise MollifyError("power scale needs k > 0")
        self.kind, self.k = kind, k


def scale_omega(scale: ScaleFn, eps: float) -> float:
    """Evaluate omega(eps) in (0, 1)."""
    if not (0.0 < eps <= 1.0):
        raise MollifyError(f"epsilon must lie in (0, 1], got {eps}")
    if scale.kind == "power":
        return eps**scale.k
    # loglog
    if eps >= math.exp(-math.e):
        return LOGLOG_CLAMP
    return min(1.0 / math.log(math.log(1.0 / eps)), LOGLOG_CLAMP)


def mollify(u: Field, m: Mollifier, omega: float) -> Field:
    """Exact periodic convolution with the periodised mollifier at width omega."""
    if not (0.0 < omega <= 1.0):
        raise MollifyError(f"omega must lie in (0, 1], got {omega}")
    uh = forward(u)
    vals = inverse(uh * m.hat(omega**2 * u.spec.kappa_sq()), u.spec)
    return Field(u.spec, vals)


def fit_slope(xs, ys) -> tuple[float, float]:
    """Least-squares slope of log ys against log xs, the exponent p of
    ys ~ xs^p, with the fit's RMS residual; (nan, nan) when some y <= 0,
    since a zero has no logarithm and so carries no exponent, or when
    some y is not finite.  MollifyError unless xs and ys have one length
    and xs holds at least two distinct values.

    The line is the closed form on the centred logs, slope = sum dx dy /
    sum dx^2, whose slope agrees with ``np.polyfit``'s to a few ulp.
    polyfit is LAPACK's least squares, whose first call in a process faults
    in about 1 MB of library pages; no ``vws`` pipeline calls LAPACK.
    """
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.shape != ys.shape or xs.ndim != 1:
        raise MollifyError(f"xs and ys must be 1D of one length, got "
                           f"{xs.shape} and {ys.shape}")
    if len(xs) < 2 or np.all(xs == xs[0]):  # np.unique would import numpy.ma
        raise MollifyError("need at least two distinct x values for a slope fit")
    if not np.all(np.isfinite(ys) & (ys > 0.0)):
        return float("nan"), float("nan")
    dx, dy = np.log(xs), np.log(ys)
    dx -= dx.mean()
    dy -= dy.mean()
    slope = np.sum(dx * dy) / np.sum(dx * dx)
    resid = dy - slope * dx
    return float(slope), float(np.sqrt(np.mean(resid**2)))


def cumulative_trapezoid(xs, ys) -> np.ndarray:
    """Running trapezoid-rule integral of ys over xs, starting from 0."""
    return np.concatenate([[0.0], np.cumsum(np.diff(xs) * (ys[1:] + ys[:-1]) / 2.0)])


def _scaling_probe(u: Field, scale: ScaleFn, eps_list, measure) -> dict:
    """Mollify u with the gaussian at each omega(eps) of the ladder, measure
    each result and fit log measure against log omega."""
    eps_list = list(eps_list)
    if len(eps_list) < 4:
        raise MollifyError("need at least 4 epsilon values")
    if any(b >= a for a, b in zip(eps_list, eps_list[1:])):
        raise MollifyError("epsilon ladder must be strictly decreasing")
    omegas = np.array([scale_omega(scale, e) for e in eps_list])
    moll = Mollifier("gaussian")
    norms = np.array([measure(mollify(u, moll, om)) for om in omegas])
    slope, resid = fit_slope(omegas, norms)
    return {"omegas": omegas.tolist(), "norms": norms.tolist(),
            "slope": slope, "residual": resid}


def derivative_bound_probe(u: Field, beta: tuple, scale: ScaleFn, eps_list):
    """Sup-norm growth of d^beta (u * phi_omega) along an omega ladder:
    the per-omega sup norms and the fitted slope of log sup vs log omega."""
    if len(beta) != u.spec.n or any(b < 0 for b in beta):
        raise MollifyError(f"bad multi-index {beta} for dimension {u.spec.n}")

    def sup_of_derivative(v: Field) -> float:
        return float(np.max(np.abs(partial_derivative(v.values, v.spec, beta))))

    return _scaling_probe(u, scale, eps_list, sup_of_derivative)


def sobolev_boost_probe(u: Field, s: float, ell: int, scale: ScaleFn, eps_list):
    """Slope of log ||u * phi_omega||_{s+ell} vs log omega."""
    if ell < 1:
        raise MollifyError("ell must be >= 1")
    return _scaling_probe(u, scale, eps_list, lambda v: sobolev_norm(v, s + ell))
