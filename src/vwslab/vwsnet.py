"""Epsilon-net orchestration: moderateness, negligibility/uniqueness, and
classical-consistency verdicts for the regularised Cauchy problems.

``ladder`` builds the members of a net, each pipeline builds every
member's Cauchy problems from them, and ``march_ladder``, the ladder driver
of every pipeline, marches them with the net's step rule and diagnostics:
the smallest eps is probed, then the others go to one answer call at the
ladder's one step count, so that members are compared at common times,
giving each member's result by eps, in ladder order, and the ladder's health.
A uniqueness pair's perturbed problem exists only while ``uniqueness_probe``
checks, bounds or marches it, one at a time.

Each ladder without a given dt chooses its level count once, in
``probe_levels``: its smallest eps marches at 2c steps and at c, c the
ladder's count at COARSE = 4 levels, and the ladder takes COARSE levels
when u(T) and the reported numbers of the two agree within TOL = 1e-3
relative.  The probe member then keeps its c-step result; else every
member, the probe's included, marches at ``evolve.LEVELS``.  ETD-RK4 is of
4th order, so the c-vs-2c gap of the roughest member estimates its c-step
error and bounds that of every member it accepts: against 256 levels it
understates the 4-level error of u(T) by at most 1.55x on the net-1d-delta
ladder (at eps = 2^-7) and 1.07x on uniq-2d-ultra, which keeps an accepted
ladder inside the 2e-3 to which LEVELS keeps the net-1d-delta ladder of a
2048-step march.  The 4-vs-8 gap of the smallest eps on the benchmark
ladders:

    ladder          u(T)     reported numbers       levels
    uniq-2d-ultra   7.9e-8   2.6e-7 sup difference  COARSE
    net-1d-delta    2.0e-3   0.15 smoothing int     LEVELS

net-1d-delta takes LEVELS: its smoothing integrals are trapezoids over the
level times, and with delta data four intervals miss them by 16%.

The march layer, ``evolve``, is imported inside the functions that march,
so that ``vws doi-check`` and ``vws validate-hypotheses``, which build
ladders but march none, do not compile it; ``cli`` imports it at parse
time for the subcommands that march.
"""

from __future__ import annotations

import copy
from itertools import groupby
from typing import NamedTuple

import numpy as np

from .coeffs import (CoefficientModel, CoefficientSet, Delta, HypothesisReport,
                     check_hypotheses, regularise, sample)
from .grid import Field, GridSpec, inverse
from .mollify import Mollifier, ScaleFn, fit_slope, mollify

#: time levels of an epsilon-ladder whose probe shows COARSE levels agree
#: with twice as many to TOL relative
COARSE = 4
TOL = 1e-3

#: the verdicts' bounds: a moderateness exponent of at most N_CAP with a
#: fit residual below RESIDUAL_CAP, and a last consistency error below
#: FINAL_ERROR
N_CAP = 10.0
RESIDUAL_CAP = 0.5
FINAL_ERROR = 1e-4


class NetError(ValueError):
    pass


class HypothesisFailure(NetError):
    def __init__(self, report: HypothesisReport):
        super().__init__("coefficient model failed hypothesis validation: "
                         + "; ".join(report.failures()))
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
    """Grid realisation of the Dirac delta, ``coeffs.Delta(1.0)``."""
    return Field(spec, inverse(Delta(1.0).coefficients(spec), spec))


def gaussian_field(spec: GridSpec, width: float = 1.0, amplitude: float = 1.0) -> Field:
    r2 = spec.x_norm_sq()
    return Field(spec, amplitude * np.exp(-r2 / (2.0 * width**2)))


def bump_perturbation(spec: GridSpec, N: int, seed_shift: float = 0.0) -> np.ndarray:
    """Fixed smooth symmetric bump obeying the <x>^{-N} derivative envelope."""
    return (spec.x_bracket(-N) * np.exp(-spec.x_norm_sq() / 2.0)
            * np.cos(spec.x_mesh()[0] + seed_shift)).astype(float)


# ---------------------------------------------------------------------------
# nets


class NetParams:
    """A net's grid, eps ladder and scale, horizon, step (dt None: the
    default step, smallest of compared ones), Sobolev orders and data
    mollifier; scale and data_mollifier default to ``ScaleFn()`` and
    ``Mollifier()``."""

    def __init__(self, spec: GridSpec,
                 eps_ladder: tuple = (2**-3, 2**-4, 2**-5, 2**-6, 2**-7),
                 scale: ScaleFn | None = None, T: float = 0.5,
                 dt: float | None = None, s_list: tuple = (0.0,),
                 data_mollifier: Mollifier | None = None):
        eps = list(eps_ladder)
        if not eps:
            raise NetError("epsilon ladder is empty")
        if any(not (0.0 < e <= 1.0) for e in eps):
            raise NetError("epsilon values must lie in (0, 1]")
        if any(b >= a for a, b in zip(eps, eps[1:])):
            raise NetError("epsilon ladder must be strictly decreasing")
        self.spec, self.eps_ladder, self.T, self.dt, self.s_list = (
            spec, eps_ladder, T, dt, s_list)
        self.scale = ScaleFn() if scale is None else scale
        self.data_mollifier = Mollifier() if data_mollifier is None else data_mollifier


class FitReport:
    """A verdict's exponent fit: slope and residual, whether it passed
    against bound, the fitted values by eps, and extra numbers."""

    def __init__(self, slope: float, residual: float, passed: bool, bound: float,
                 values: dict, extra: dict | None = None):
        self.slope, self.residual, self.passed, self.bound = slope, residual, passed, bound
        self.values, self.extra = values, {} if extra is None else extra

    def to_dict(self) -> dict:
        """The fields as a deep copy: mutating it leaves the report unchanged."""
        return copy.deepcopy(vars(self))


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
                            nu=max(model.nu, 0.05), c0=max(model.c0, 0.05))


def _require_valid(model: CoefficientModel, members: dict) -> HypothesisReport:
    """``validate``'s report; HypothesisFailure when it fails."""
    report = validate(model, members)
    if not report.passed:
        raise HypothesisFailure(report)
    return report


class LevelProbe(NamedTuple):
    """The level count of a ladder, chosen on its smallest-eps member."""

    eps: float | None     # None: an explicit dt, and no probe
    levels: int | None    # COARSE or LEVELS; None with an explicit dt
    gap: float | None     # the c-vs-2c gap; None if not measured

    def health(self, T: float, steps: int) -> dict:
        """dt and step count of the ladder's march, and the probe."""
        return {"dt": T / steps, "steps": steps, "levels": self.levels,
                "probe_eps": self.eps, "probe_gap": self.gap}


def _relative_gap(fine, coarse) -> float:
    """||fine - coarse|| / ||fine||; 0 when both vanish."""
    diff, size = np.linalg.norm(fine - coarse), np.linalg.norm(fine)
    return float(diff / size) if size > 0 else (0.0 if diff == 0 else np.inf)


def _ladder_steps(members: dict, levels: int | None, dt: float | None = None) -> int:
    """The largest ``shared_steps`` of the members, in ladder order, so
    that a dt too large names the first problem it exceeds."""
    from .evolve import shared_steps

    return max(shared_steps(probs, levels, dt) for probs in members.values())


def probe_levels(members: dict, answer) -> tuple:
    """Choose the level count of a ladder, eps -> that member's problems in
    ladder order, on its last, smallest-eps member.

    ``answer(members, steps)`` marches members, a dict eps -> the member's
    problems, in `steps` equal steps, the problems of each in lockstep, and
    returns an iterable, read once, of (result, compared) for each member in
    order: its result, and u(T) of each of its problems followed by the
    numbers it reports.

    With c the ladder's count at COARSE levels, the member marches in 2c
    steps and then in c steps of twice the length, unless 2c reaches the
    ladder's LEVELS count.  The ladder takes COARSE levels if every u(T)
    (in L^2) and every number of the two answers agree within TOL
    relative, else LEVELS.

    Returns (LevelProbe, kept).  kept is {eps: the member's c-step result}
    when the ladder takes COARSE; else it is empty, and the member marches
    at LEVELS with the others.
    """
    from .evolve import LEVELS

    *_, eps = members
    coarse = _ladder_steps(members, COARSE)
    if 2 * coarse >= _ladder_steps(members, LEVELS):
        return LevelProbe(eps, LEVELS, None), {}
    trial = {eps: members[eps]}
    (_, fine), = answer(trial, 2 * coarse)
    (result, compared), = answer(trial, coarse)
    gap = max(map(_relative_gap, fine, compared))
    if gap > TOL:
        return LevelProbe(eps, LEVELS, gap), {}
    return LevelProbe(eps, COARSE, gap), {eps: result}


def _solve_answer(params: NetParams, stride: int, ladder: list):
    """``probe_levels``'s answer for members of one problem each, marched as
    one stack with the Sobolev orders of ``params``: each SolveResult, u(T),
    and the sup norm and final smoothing integral for each s.  An
    Instability names the member's place in ``ladder``, the eps of the
    whole ladder in order, not in the stack marched: a probe trial marches
    a stack of one."""
    from .evolve import Instability, solve_stack

    def answer(members, steps):
        try:
            results = solve_stack([probs[0] for probs in members.values()],
                                  params.s_list, stride, steps)
        except Instability as exc:
            exc.member = ladder.index([*members][exc.member])
            raise
        return [(res, [res.final.values,
                       *(f(s) for f in (res.series.sup_norm, res.series.final_integral)
                         for s in res.series.norms)])
                for res in results]
    return answer


def march_ladder(members: dict, answer, params: NetParams) -> tuple:
    """(results, health): results keyed by the eps of ``members``, a
    ladder's eps -> that member's problems, each with its bound, in ladder
    order, and health the ladder's record, ``LevelProbe.health`` of its
    probe.
    ``answer`` is that of ``probe_levels``, which chooses the level count
    on the last, smallest eps; with ``params.dt`` set nothing is probed.
    The ladder marches one step count, the largest of its members' at
    that level count or dt: every member the probe kept no result of goes
    to ``answer`` in one call, in ladder order."""
    probe, kept = ((LevelProbe(None, None, None), {}) if params.dt is not None
                   else probe_levels(members, answer))
    steps = _ladder_steps(members, probe.levels, params.dt)
    rest = {eps: probs for eps, probs in members.items() if eps not in kept}
    results = {eps: result for eps, (result, _) in
               zip(rest, answer(rest, steps) if rest else ())}
    results.update(kept)  # the probe member, last in ladder order
    return results, probe.health(params.T, steps)


def solve_ladder(members: dict, params: NetParams, stride: int = 0) -> tuple:
    """``march_ladder`` over the members of ``ladder``, one problem each,
    stacked: (SolveResults keyed by eps, the ladder's health)."""
    from .evolve import EvolutionProblem

    return march_ladder({eps: [EvolutionProblem(m["cs"], m["u0"], params.T)]
                         for eps, m in members.items()},
                        _solve_answer(params, stride, [*members]), params)


def run_net(model: CoefficientModel, u0: Field, params: NetParams) -> tuple:
    """Regularise, validate and solve every epsilon on the ladder:
    (HypothesisReport, SolveResults keyed by eps, the ladder's health)."""
    members = ladder(model, params, u0)
    return (_require_valid(model, members), *solve_ladder(members, params))


def moderateness_fit(results: dict, s: float) -> FitReport:
    """Slope of log sup_t ||u_eps||_s against log(1/eps) over results, eps
    -> SolveResult; pass iff the exponent is at most N_CAP and the fit's
    residual below RESIDUAL_CAP (polynomial moderateness).  A zero sup
    has no exponent: the slope is nan, and the fit fails."""
    eps = np.array(sorted(results, reverse=True))
    sups = np.array([results[e].series.sup_norm(s) for e in eps])
    slope, resid = fit_slope(1.0 / eps, sups)
    passed = bool(slope <= N_CAP and resid < RESIDUAL_CAP)
    return FitReport(slope, resid, passed, N_CAP,
                     {float(e): float(v) for e, v in zip(eps, sups)})


# ---------------------------------------------------------------------------
# uniqueness


def _bumps(spec: GridSpec, N: int) -> dict:
    """The fixed bumps of the uniqueness perturbation by slot: ("a", i, j)
    for i <= j, ("b", k), "V", and "u0" for the Cauchy data."""
    n = spec.n
    out = {("a", i, j): bump_perturbation(spec, N, seed_shift=0.3 * (i + j))
           for i in range(n) for j in range(i, n)}
    for k in range(n):
        out["b", k] = bump_perturbation(spec, N, seed_shift=1.0 + k)
    out["V"] = bump_perturbation(spec, N, seed_shift=2.0)
    out["u0"] = bump_perturbation(spec, N, seed_shift=3.0)
    return out


def _perturbed_set(cs: CoefficientSet, eps: float, q: int, bumps: dict) -> CoefficientSet:
    """Coefficients plus eps^q times the bumps of ``_bumps`` (symmetric in (i,j))."""
    n = cs.n
    amp = eps**q
    a = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            a[i][j] = a[j][i] = cs.a[i][j] + amp * bumps["a", i, j]
    return CoefficientSet(cs.spec, cs.eps, cs.omega, a,
                          [cs.b[k] + amp * bumps["b", k] for k in range(n)],
                          cs.V + amp * bumps["V"], cs.N)


class _Partner:
    """The eps^q-perturbed problem of a uniqueness pair as ``evolve`` reads
    it: cs and u0 are those of the one perturbed problem that ``built``
    holds, built on the first read after another eps's, and dt_bound is
    measured once, as ``EvolutionProblem`` measures it."""

    def __init__(self, eps: float, T: float, built):
        from .evolve import SAFETY, stable_dt

        self.eps, self.T, self.built = eps, T, built
        self.dt_bound = stable_dt(self.cs) / SAFETY

    cs = property(lambda self: self.built(self.eps)[0])
    u0 = property(lambda self: self.built(self.eps)[1])


def uniqueness_probe(model: CoefficientModel, q: int, u0: Field,
                     params: NetParams) -> FitReport:
    """Negligible-in, negligible-out: solve the base and the eps^q-perturbed
    families and fit the difference-norm slope against log eps.  The base
    net must pass (H1)-(H5), as in ``run_net``: HypothesisFailure if not.
    A difference that round-off zeroed has no exponent: the slope is nan,
    and the probe fails.

    One perturbed problem exists at a time: each eps's is built for its
    (H2) check, for its bound and when its pair's lockstep starts, and is
    dropped when another's is built, so the probe's pair marches both
    trials on one build."""
    from .evolve import EvolutionProblem

    if q < 1:
        raise NetError("perturbation order q must be >= 1")
    s = params.s_list[0]
    spec = params.spec
    bumps = _bumps(spec, model.N)
    members = ladder(model, params, u0)
    # shrink eps_0: drop the eps whose perturbation breaks (H2), leaving
    # a(x) singular or of another inertia at some node (a singular base
    # fails the validation below)
    dropped = [eps for eps, m in members.items() if np.any(
        _perturbed_set(m["cs"], eps, q, bumps).inertia() != m["cs"].inertia())]
    used = [float(eps) for eps in members if eps not in dropped]
    if len(used) < 4:
        raise NetError(f"fewer than 4 usable epsilons (dropped {dropped})")
    _require_valid(model, members)
    held = {}  # eps -> (set, data) of the one perturbed problem built

    def built(eps):
        if eps not in held:
            held.clear()
            m = members[eps]
            held[eps] = (_perturbed_set(m["cs"], eps, q, bumps),
                         Field(spec, m["u0"].values + eps**q * bumps["u0"]))
        return held[eps]

    pairs = {}
    for eps in used:
        m = members[eps]
        pairs[eps] = [EvolutionProblem(m["cs"], m["u0"], params.T),
                      _Partner(eps, params.T, built)]
    values, health = march_ladder(pairs, _difference_answer(s), params)
    slope, resid = fit_slope(used, list(values.values()))
    return FitReport(slope, resid, bool(slope >= q - 0.5), q - 0.5, values,
                     extra={"dropped_eps": dropped, "health": health})


def _difference_answer(s: float):
    """``probe_levels``'s answer for members of two problems each, a
    reference and the one compared with it: sup_t ||u - u_ref||_s, both
    u(T), and that difference, in member order.  Each run of consecutive
    members that hold the same reference problem marches it once, in one
    ``sup_differences`` lockstep with every compared problem of the run.
    The numbers of a run are yielded before the next run marches, so a
    consumer that reads each member once holds no finished run's u(T)."""
    def run_numbers(run, steps):
        from .evolve import sup_differences

        diffs, (final_ref, *finals) = sup_differences(
            run[0][0], [p for _, p in run], s, steps)
        for d, f in zip(diffs, finals):
            yield d, [final_ref, f, d]

    def answer(members, steps):
        for _, run in groupby(members.values(), key=lambda pair: id(pair[0])):
            yield from run_numbers(list(run), steps)
    return answer


# ---------------------------------------------------------------------------
# consistency


def consistency_run(model: CoefficientModel, u0: Field, params: NetParams) -> FitReport:
    """Compare the epsilon-net against the classical solution of the smooth
    problem; pass iff the error falls along the ladder and ends below
    FINAL_ERROR.  The data mollifier must be of vanishing-moment type, and
    the model smooth: ``coeffs.sample`` raises ModelError on any other.

    Each member is the pair (classical problem, its mollified problem),
    with the one classical problem in every pair, marched by
    ``march_ladder``: after the probe, one ``sup_differences`` lockstep at
    the ladder's step count takes the classical problem and every member
    the probe kept no result of to T."""
    from .evolve import EvolutionProblem

    if params.data_mollifier.kind == "gaussian":
        raise NetError("consistency requires a vanishing-moment data mollifier")
    if len(params.eps_ladder) < 4:
        raise NetError("consistency needs at least 4 epsilon values")
    classical = EvolutionProblem(sample(model, params.spec), u0, params.T)
    pairs = {float(eps): [classical, EvolutionProblem(m["cs"], m["u0"], params.T)]
             for eps, m in ladder(model, params, u0).items()}
    values, health = march_ladder(pairs, _difference_answer(params.s_list[0]), params)
    errors = np.array(list(values.values()))
    decreasing = bool(np.all(np.diff(errors) < 0.0))
    final_ok = bool(errors[-1] < FINAL_ERROR)
    slope, resid = fit_slope(params.eps_ladder, errors)
    return FitReport(slope, resid, decreasing and final_ok, FINAL_ERROR, values,
                     extra={"monotone_decreasing": decreasing,
                            "final_error": float(errors[-1]),
                            "health": health})
