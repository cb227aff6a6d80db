"""Epsilon-net orchestration: moderateness, negligibility/uniqueness, and
classical-consistency verdicts for the regularised Cauchy problems.

``ladder`` builds the members of a net, and ``march_ladder`` marches them,
giving each member's result and march health keyed by eps, in ladder order.

Each ladder chooses its level count once, in ``probe_levels``: its smallest
eps marches at ``evolve.LEVELS`` and at COARSE = 4 levels, and the other
members take COARSE levels when u(T) and the reported numbers of the two
agree within TOL = 1e-3 relative, half the 2e-3 to which LEVELS keeps the
net-1d-delta ladder of a 2048-step march.  On net-1d-delta the 4-vs-16 gap
of u(T) understates the 4-level error by at most 1.15x.  The 4-vs-16 gap
of the smallest eps on the benchmark ladders:

    ladder          u(T)     reported numbers       levels
    uniq-2d-ultra   8.4e-8   2.5e-7 sup difference  COARSE
    net-1d-delta    2.7e-3   0.16 smoothing int     LEVELS

net-1d-delta keeps LEVELS: its smoothing integrals are trapezoids over the
level times, and with delta data four intervals miss them by 16%.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .coeffs import (CoefficientModel, CoefficientSet, HypothesisReport,
                     check_hypotheses, regularise, sample)
from .evolve import (LEVELS, EvolutionProblem, Instability, shared_steps,
                     solve_stack, sup_differences)
from .grid import Field, GridSpec, inverse
from .mollify import Mollifier, ScaleFn, fit_slope, mollify

#: time levels of an epsilon-ladder whose probe shows COARSE levels agree
#: with LEVELS to TOL relative
COARSE = 4
TOL = 1e-3


class NetError(ValueError):
    pass


class HypothesisFailure(NetError):
    def __init__(self, report: HypothesisReport):
        super().__init__("coefficient model failed hypothesis validation")
        self.report = report


# ---------------------------------------------------------------------------
# data generators


def rough_field(spec: GridSpec, s: float, seed: int) -> Field:
    """Fourier coefficients <k>^{-s-0.51} with random phases: borderline
    H^s data."""
    rng = np.random.default_rng(seed)
    bra = spec.kappa_bracket()
    phases = np.exp(2j * np.pi * rng.random(spec.shape))
    coeffs = bra ** (-(s + 0.51)) * phases
    return Field(spec, inverse(coeffs, spec))


def delta_field(spec: GridSpec) -> Field:
    """Grid realisation of the Dirac delta: flat coefficients (2L)^{-n}."""
    coeffs = np.full(spec.shape, (2.0 * spec.L) ** (-spec.n), dtype=complex)
    return Field(spec, inverse(coeffs, spec))


def gaussian_field(spec: GridSpec, width: float = 1.0, amplitude: float = 1.0) -> Field:
    r2 = spec.x_norm_sq()
    return Field(spec, amplitude * np.exp(-r2 / (2.0 * width**2)))


def bump_perturbation(spec: GridSpec, N: int, seed_shift: float = 0.0) -> np.ndarray:
    """Fixed smooth symmetric bump obeying the <x>^{-N} derivative envelope."""
    r2 = spec.x_norm_sq()
    x0 = spec.x_mesh()[0]
    return ((1.0 + r2) ** (-N / 2.0) * np.exp(-r2 / 2.0)
            * np.cos(x0 + seed_shift)).astype(float)


# ---------------------------------------------------------------------------
# nets


@dataclass
class NetParams:
    spec: GridSpec
    eps_ladder: tuple = (2**-3, 2**-4, 2**-5, 2**-6, 2**-7)
    scale: ScaleFn = field(default_factory=ScaleFn)
    T: float = 0.5
    dt: float | None = None      # None: the default step, smallest of compared ones
    s_list: tuple = (0.0,)
    N_weight: int = 2
    data_mollifier: Mollifier = field(default_factory=Mollifier)

    def __post_init__(self):
        eps = list(self.eps_ladder)
        if not eps:
            raise NetError("epsilon ladder is empty")
        if any(not (0.0 < e <= 1.0) for e in eps):
            raise NetError("epsilon values must lie in (0, 1]")
        if any(b >= a for a, b in zip(eps, eps[1:])):
            raise NetError("epsilon ladder must be strictly decreasing")


@dataclass
class FitReport:
    slope: float
    residual: float
    passed: bool
    bound: float
    values: dict
    extra: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return asdict(self)


def ladder(model: CoefficientModel, params: NetParams, u0: Field | None = None) -> dict:
    """The regularised problems of the net: eps -> dict(cs, u0).

    Coefficients are mollified with the gaussian at omega(eps); the Cauchy
    data with ``params.data_mollifier`` at eps itself, not omega(eps).  With
    ``u0=None`` the members carry coefficients only.
    """
    return {eps: {"cs": regularise(model, eps, params.scale, params.spec),
                  "u0": None if u0 is None else mollify(u0, params.data_mollifier, eps)}
            for eps in params.eps_ladder}


def validate(model: CoefficientModel, members: dict) -> HypothesisReport:
    """(H1)-(H5) on the ladder's coefficient sets, nu and c0 floored at 0.05."""
    return check_hypotheses([m["cs"] for m in members.values()],
                            nu=max(model.nu, 0.05), c0=max(model.c0, 0.05),
                            N=model.N)


def problem(cs: CoefficientSet, u0: Field, params: NetParams,
            forcing: Field | None = None) -> EvolutionProblem:
    """The Cauchy problem of one member, marched as ``params`` set out, with
    the time-constant source ``forcing``."""
    return EvolutionProblem(cs, u0, forcing, T=params.T, dt=params.dt,
                            s_list=params.s_list, N_weight=params.N_weight)


@dataclass
class LevelProbe:
    """The level count of a ladder, chosen on its smallest-eps member."""

    eps: float | None     # None: an explicit dt, and no probe
    levels: int | None    # COARSE or LEVELS; None with an explicit dt
    gap: float | None     # the COARSE-vs-LEVELS gap; None if not measured

    def health(self, T: float, steps: int) -> dict:
        """dt and step count of one member's march, and the probe."""
        return {"dt": T / steps, "steps": steps, "levels": self.levels,
                "probe_eps": self.eps, "probe_gap": self.gap}


def _relative_gap(fine, coarse) -> float:
    """||fine - coarse|| / ||fine||; 0 when both vanish."""
    diff, size = np.linalg.norm(fine - coarse), np.linalg.norm(fine)
    return float(diff / size) if size > 0 else (0.0 if diff == 0 else np.inf)


def probe_levels(eps: float, probs: list, answer, params: NetParams) -> tuple:
    """March the smallest-eps member of a ladder, and choose from it the
    level count of every other member.

    ``answer(members, steps)`` marches members, a dict eps -> the member's
    problems, in `steps` equal steps, the problems of each in lockstep, and
    returns for each member in order (result, compared): its result, and
    u(T) of each of its problems followed by the numbers it reports.

    - With ``params.dt`` set, the member marches at it and nothing is probed.
    - Else the member marches at LEVELS, and that result is kept.  If the
      remainder bound forces LEVELS steps or more, the ladder keeps LEVELS.
    - Else the member marches once more at COARSE levels, or at the bound's
      count if that is larger.  The ladder takes COARSE levels if every u(T)
      (in L^2) and every number of the two answers agree within TOL
      relative, else LEVELS.

    Returns (LevelProbe, the member's step count, its result).
    """
    def alone(steps):
        return answer({eps: probs}, steps)[0]

    if params.dt is not None:
        steps = shared_steps(probs)
        return LevelProbe(None, None, None), steps, alone(steps)[0]
    fine, coarse = shared_steps(probs, LEVELS), shared_steps(probs, COARSE)
    result, kept = alone(fine)
    if coarse >= fine:
        return LevelProbe(eps, LEVELS, None), fine, result
    gap = max(map(_relative_gap, kept, alone(coarse)[1]))
    return LevelProbe(eps, COARSE if gap <= TOL else LEVELS, gap), fine, result


@contextmanager
def _naming(eps_of: list):
    """Let an Instability name the eps of the member that blew up:
    eps_of[its member]."""
    try:
        yield
    except Instability as exc:
        exc.eps = eps_of[exc.member]
        raise


def _solve_answer(record_states: bool):
    """``probe_levels``'s answer for members of one problem each, marched as
    one stack: each SolveResult, u(T), and the sup norm and final smoothing
    integral for each s."""
    def answer(members, steps):
        with _naming(list(members)):
            results = solve_stack([probs[0] for probs in members.values()],
                                  record_states, steps)
        return [(res, [res.final.values,
                       *(f(s) for f in (res.series.sup_norm, res.series.final_integral)
                         for s in res.series.norms)])
                for res in results]
    return answer


def march_ladder(ladder_eps: list, build, answer, params: NetParams,
                 stack: bool = False) -> tuple:
    """(results, health), each a dict keyed by the eps of a ladder in its
    order, at the level count that ``probe_levels`` chooses on the last,
    smallest eps; that member is marched first.  ``build(eps)`` gives a
    member's problems and ``answer`` is that of ``probe_levels``.  With
    ``stack`` the other members go to ``answer`` together, one call for
    each step count among them; else one by one, each built when it is
    marched."""
    *rest, last = ladder_eps
    results, health = dict.fromkeys(ladder_eps), dict.fromkeys(ladder_eps)
    probe, steps, results[last] = probe_levels(last, build(last), answer, params)
    health[last] = probe.health(params.T, steps)

    def record(members, steps):
        for eps, (result, _) in zip(members, answer(members, steps)):
            results[eps], health[eps] = result, probe.health(params.T, steps)

    groups = {}  # step count -> {eps: problems}
    for eps in rest:
        probs = build(eps)
        steps = shared_steps(probs, probe.levels)
        if stack:
            groups.setdefault(steps, {})[eps] = probs
        else:
            record({eps: probs}, steps)
    for steps, members in groups.items():
        record(members, steps)
    return results, health


def solve_ladder(members: dict, params: NetParams, record_states: bool = False) -> tuple:
    """``march_ladder`` over the members of ``ladder``, one problem each,
    stacked: (SolveResults, health) keyed by eps."""
    def build(eps):
        return [problem(members[eps]["cs"], members[eps]["u0"], params)]
    return march_ladder(list(members), build, _solve_answer(record_states), params,
                        stack=True)


def run_net(model: CoefficientModel, u0: Field, params: NetParams) -> tuple:
    """Regularise, validate and solve every epsilon on the ladder:
    (HypothesisReport, SolveResults, health), the last two keyed by eps."""
    members = ladder(model, params, u0)
    report = validate(model, members)
    if not report.passed:
        raise HypothesisFailure(report)
    return (report, *solve_ladder(members, params))


def moderateness_fit(results: dict, s: float, n_cap: float = 10.0,
                     residual: float = 0.5) -> FitReport:
    """Slope of log sup_t ||u_eps||_s against log(1/eps) over results, eps
    -> SolveResult; pass iff the exponent is at most n_cap and the fit's
    residual below ``residual`` (polynomial moderateness)."""
    eps = np.array(sorted(results, reverse=True))
    sups = np.array([results[e].series.sup_norm(s) for e in eps])
    if np.max(sups) <= 0.0:
        return FitReport(0.0, 0.0, True, n_cap, {float(e): 0.0 for e in eps})
    slope, resid = fit_slope(np.log(1.0 / eps), np.log(np.maximum(sups, 1e-300)))
    passed = bool(slope <= n_cap and resid < residual)
    return FitReport(slope, resid, passed, n_cap,
                     {float(e): float(v) for e, v in zip(eps, sups)})


# ---------------------------------------------------------------------------
# uniqueness


def _bumps(spec: GridSpec, N: int) -> dict:
    """The fixed bumps of the uniqueness perturbation by slot: ("a", i, j)
    for i <= j, ("b", k), "V", and "u0" and "g" for the data."""
    n = spec.n
    out = {("a", i, j): bump_perturbation(spec, N, seed_shift=0.3 * (i + j))
           for i in range(n) for j in range(i, n)}
    for k in range(n):
        out["b", k] = bump_perturbation(spec, N, seed_shift=1.0 + k)
    out["V"] = bump_perturbation(spec, N, seed_shift=2.0)
    out["u0"] = bump_perturbation(spec, N, seed_shift=3.0)
    out["g"] = bump_perturbation(spec, N, seed_shift=4.0)
    return out


def _perturbed_set(cs: CoefficientSet, eps: float, q: int, bumps: dict) -> CoefficientSet:
    """Coefficients plus eps^q times the bumps of ``_bumps`` (symmetric in (i,j))."""
    n = cs.n
    amp = eps**q
    a = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            a[i][j] = a[j][i] = cs.a[i][j] + amp * bumps["a", i, j]
    return replace(cs, a=a, b=[cs.b[k] + amp * bumps["b", k] for k in range(n)],
                   V=cs.V + amp * bumps["V"])


def _h2_margin(cs: CoefficientSet) -> float:
    return float(np.min(cs.abs_eigenvalues()))


def _log_fit(eps, values) -> tuple:
    """Slope and residual of log values against log eps; (inf, 0) when every
    value is zero."""
    if np.max(values) == 0.0:
        return float("inf"), 0.0
    return fit_slope(np.log(eps), np.log(np.maximum(values, 1e-300)))


def uniqueness_probe(model: CoefficientModel, q: int, u0: Field,
                     params: NetParams) -> FitReport:
    """Negligible-in, negligible-out: solve the base and the eps^q-perturbed
    families and fit the difference-norm slope against log eps."""
    if q < 1:
        raise NetError("perturbation order q must be >= 1")
    s = params.s_list[0]
    spec = params.spec
    bumps = _bumps(spec, model.N)
    members = ladder(model, params, u0)
    # shrink eps_0: drop the eps whose perturbation breaks (H2)
    dropped = [eps for eps, m in members.items()
               if _h2_margin(_perturbed_set(m["cs"], eps, q, bumps)) <= 0.0]
    used = [float(eps) for eps in members if eps not in dropped]
    if len(used) < 4:
        raise NetError(f"fewer than 4 usable epsilons (dropped {dropped})")

    def pair(eps):
        # data perturbations eps^q * bump on both slots: u0, and the source
        # that the unperturbed member does not have
        m = members[eps]
        du = Field(spec, m["u0"].values + eps**q * bumps["u0"])
        g_p = Field(spec, eps**q * bumps["g"])
        return [problem(m["cs"], m["u0"], params),
                problem(_perturbed_set(m["cs"], eps, q, bumps), du, params, g_p)]

    values, health = march_ladder(used, pair, _difference_answer(s), params)
    slope, resid = _log_fit(used, list(values.values()))
    return FitReport(slope, resid, bool(slope >= q - 0.5), q - 0.5, values,
                     extra={"dropped_eps": dropped, "health": health})


def _difference_answer(s: float):
    """``probe_levels``'s answer for members compared with a reference, the
    first of each member's two problems, marched member by member:
    sup_t ||u - u_ref||_s, both u(T), and that difference."""
    def answer(members, steps):
        out = []
        for eps, probs in members.items():
            with _naming([eps] * len(probs)):
                diffs, finals = sup_differences(probs[0], probs[1:], s, steps)
            out.append((diffs[0], finals + diffs))
        return out
    return answer


# ---------------------------------------------------------------------------
# consistency


def consistency_run(model: CoefficientModel, u0: Field, params: NetParams,
                    final_error: float = 1e-4) -> FitReport:
    """Compare the epsilon-net against the classical solution of the smooth
    problem; pass iff the error falls along the ladder and ends below
    ``final_error``.  The data mollifier must be of vanishing-moment type."""
    if not model.smooth:
        raise NetError("consistency requires a smooth-coefficient model")
    if params.data_mollifier.kind == "gaussian":
        raise NetError("consistency requires a vanishing-moment data mollifier")
    if len(params.eps_ladder) < 4:
        raise NetError("consistency needs at least 4 epsilon values")
    s = params.s_list[0]
    classical = problem(sample(model, params.spec), u0, params)
    members = [problem(m["cs"], m["u0"], params)
               for m in ladder(model, params, u0).values()]
    *rest, last = members
    probe, last_steps, last_error = probe_levels(
        params.eps_ladder[-1], [classical, last], _difference_answer(s), params)
    # one lockstep takes the classical problem and every other member to T
    steps = shared_steps([classical, *rest], probe.levels)
    with _naming([None, *params.eps_ladder[:-1]]):
        diffs = sup_differences(classical, rest, s, steps)[0]
    errors = np.array(diffs + [last_error])
    values = {float(e): float(v) for e, v in zip(params.eps_ladder, errors)}
    decreasing = bool(np.all(np.diff(errors) < 0.0))
    final_ok = bool(errors[-1] < final_error)
    slope, resid = _log_fit(params.eps_ladder, errors)
    health = {float(e): probe.health(params.T, steps) for e in params.eps_ladder[:-1]}
    health[float(params.eps_ladder[-1])] = probe.health(params.T, last_steps)
    return FitReport(slope, resid, decreasing and final_ok, final_error, values,
                     extra={"monotone_decreasing": decreasing,
                            "final_error": float(errors[-1]),
                            "health": health})
