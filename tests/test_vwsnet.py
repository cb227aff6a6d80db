import weakref

import numpy as np
import pytest

from conftest import (LADDER, assert_da_is_the_derivative_of_a, random_field,
                      record_marches)
import vwslab
from vwslab import evolve
from vwslab.coeffs import (ModelError, check_hypotheses, preset, regularise,
                           sample)
from vwslab.evolve import (LEVELS, EvolutionProblem, EvolveError, Instability,
                           solve, stable_dt)
from vwslab.grid import Field, GridSpec, sobolev_norm, spectral_derivative
from vwslab.mollify import Mollifier, ScaleFn, mollify, scale_omega
from vwslab import vwsnet
from vwslab.vwsnet import (COARSE, TOL, HypothesisFailure, NetError, NetParams,
                           LevelProbe, _bumps, _perturbed_set,
                           bump_perturbation, consistency_run, delta_field,
                           gaussian_field, ladder, moderateness_fit,
                           probe_levels, rough_field, run_net,
                           solve_ladder, uniqueness_probe, validate)


@pytest.fixture(scope="module")
def spec():
    return GridSpec(1, 64, 8.0)


@pytest.fixture(scope="module")
def params(spec):
    return NetParams(spec=spec, T=0.5)


def fixed_data_ladder(model, params, u0):
    """The ladder as ``vws solve`` builds it: the coefficients of
    ``ladder``, with u0 itself, unmollified, for every member."""
    members = ladder(model, params)
    for m in members.values():
        m["u0"] = u0
    return members


class TestNetParams:
    def test_short_ladders_accepted_empty_rejected(self, spec):
        for eps in ((0.5,), (0.5, 0.25), (0.5, 0.25, 0.125)):
            assert NetParams(spec=spec, eps_ladder=eps).eps_ladder == eps
        with pytest.raises(NetError, match="empty"):
            NetParams(spec=spec, eps_ladder=())

    def test_slope_pipelines_reject_three_rungs(self, spec):
        # the four-rung minimum lives where a slope is fitted
        p = NetParams(spec=spec, T=0.05, eps_ladder=(0.5, 0.25, 0.125),
                      data_mollifier=Mollifier("vanishing-moment", order=4))
        u0 = gaussian_field(spec)
        with pytest.raises(ModelError, match="at least 4"):
            run_net(preset("free", n=1), u0, p)
        with pytest.raises(NetError, match="fewer than 4"):
            uniqueness_probe(preset("free", n=1), 2, u0, p)
        with pytest.raises(NetError, match="at least 4"):
            consistency_run(preset("smooth-consistency", n=1), u0, p)

    def test_non_decreasing_ladder_rejected(self, spec):
        with pytest.raises(NetError):
            NetParams(spec=spec, eps_ladder=(0.5, 0.5, 0.25, 0.125))

    def test_out_of_range_rejected(self, spec):
        with pytest.raises(NetError):
            NetParams(spec=spec, eps_ladder=(2.0, 0.5, 0.25, 0.125))


class TestLadder:
    @staticmethod
    def lparams(spec, **kw):
        return NetParams(spec=spec, scale=ScaleFn("power", k=0.5),
                         data_mollifier=Mollifier("vanishing-moment", order=4),
                         **kw)

    def test_coefficients_at_omega_of_eps(self, spec):
        p = self.lparams(spec)
        members = ladder(preset("delta-potential", n=1), p)
        assert list(members) == list(p.eps_ladder)
        for eps, m in members.items():
            assert m["cs"].eps == eps
            assert m["cs"].omega == scale_omega(p.scale, eps)

    def test_data_mollified_at_eps(self, spec):
        p = self.lparams(spec)
        u0 = rough_field(spec, 0.0, seed=3)
        members = ladder(preset("free", n=1), p, u0)
        for eps, m in members.items():
            assert np.array_equal(m["u0"].values,
                                  mollify(u0, p.data_mollifier, eps).values)

    def test_unmollified_data_pass_through(self, spec):
        # the fixed-data ladder of ``vws solve``: coefficients only, then
        # the one field for every member
        u0 = gaussian_field(spec)
        members = fixed_data_ladder(preset("free", n=1), self.lparams(spec), u0)
        for m in members.values():
            assert m["u0"] is u0

    def test_coefficient_only_members(self, spec):
        for m in ladder(preset("free", n=1), self.lparams(spec)).values():
            assert set(m) == {"cs", "u0"}
            assert m["u0"] is None

    def test_validate_floors_nu_and_c0(self, spec):
        model = preset("delta-potential", n=1)
        assert model.nu == model.c0 == 0.0
        members = ladder(model, self.lparams(spec))
        report = validate(model, members)
        direct = check_hypotheses([m["cs"] for m in members.values()],
                                  nu=0.05, c0=0.05)
        assert report.to_dict() == direct.to_dict()
        assert report.h3_bound == report.h4_bound == pytest.approx(0.1)


class TestRunNet:
    def test_smooth_preset_runs_and_is_stable(self, spec, params):
        report, results, health = run_net(preset("smooth-consistency", n=1),
                                          gaussian_field(spec), params)
        assert report.passed
        assert list(results) == list(LADDER)
        assert health["probe_eps"] == LADDER[-1]
        sups = [results[e].series.sup_norm(0.0) for e in LADDER]
        assert all(np.isfinite(v) for v in sups)
        assert np.ptp(sups) / np.mean(sups) < 0.05

    def test_hypothesis_failure_raised_with_report(self, spec, params):
        # narrow sharp bumps destabilise the (H3) sup across the ladder
        bad = preset("ultra-diagonal", nu=0.8, width=0.3)
        params2d = NetParams(spec=GridSpec(2, 16, 8.0), T=0.1)
        with pytest.raises(HypothesisFailure) as info:
            run_net(bad, gaussian_field(params2d.spec), params2d)
        assert not info.value.report.passed

    def test_smoothing_weight_is_the_model_N(self, spec):
        # (H3)/(H4) and the smoothing integral weigh by one N, the model's;
        # at <x>^{-2/2} the eps = 2^-7 integral read 2.8791363191750228
        model = preset("delta-potential", n=1, N=3)
        report, results, _ = run_net(model, delta_field(spec), NetParams(spec))
        assert report.passed
        assert results[2**-7].series.final_integral(0.0) == 2.124011333057136

    def test_omega_recorded_per_member(self, spec, params):
        members = ladder(preset("free", n=1), params, gaussian_field(spec))
        omegas = [members[e]["cs"].omega for e in LADDER]
        assert all(a >= b for a, b in zip(omegas, omegas[1:]))


class TestModeratenessFit:
    def test_smooth_slope_is_flat(self, spec, params):
        _, results, _ = run_net(preset("smooth-consistency", n=1),
                                gaussian_field(spec), params)
        fit = moderateness_fit(results, 0.0)
        assert fit.passed
        assert fit.slope == pytest.approx(0.0, abs=0.3)

    def test_delta_potential_is_moderate(self, spec, params):
        _, results, _ = run_net(preset("delta-potential", n=1), delta_field(spec),
                                params)
        fit = moderateness_fit(results, 0.0)
        assert fit.passed
        assert fit.slope <= 10.0
        assert fit.residual < 0.5

    def test_scaled_data_slope_matches_power(self, spec, params):
        # u_{0,eps} = eps^q * fixed field evolves linearly, so the fitted
        # moderateness slope is exactly -q
        q = 2
        results = {}
        model = preset("free", n=1)
        base = gaussian_field(spec)
        for eps in LADDER:
            cs = regularise(model, eps, ScaleFn("loglog"), spec)
            u0 = Field(spec, eps**q * base.values)
            results[eps] = solve(EvolutionProblem(cs, u0, T=0.25))
        fit = moderateness_fit(results, 0.0)
        assert fit.slope == pytest.approx(-q, abs=0.05)

    def test_scale_sensitivity_ordering(self, spec):
        # stronger regularising scales sharpen the delta faster, so the
        # fitted growth exponent cannot decrease with k
        slopes = []
        for k in (1.0, 2.0):
            p = NetParams(spec=spec, T=0.25, scale=ScaleFn("power", k=k),
                          eps_ladder=(2**-1, 2**-2, 2**-3, 2**-4))
            _, results, _ = run_net(preset("delta-potential", n=1), delta_field(spec), p)
            slopes.append(moderateness_fit(results, 0.0).slope)
        assert slopes[1] >= slopes[0] - 0.05


class TestHsMode:
    def test_fixed_data_finite_slope(self, spec, params):
        u0 = rough_field(spec, 0.0, seed=21)
        members = fixed_data_ladder(preset("delta-potential", n=1), params, u0)
        for eps in LADDER:
            assert members[eps]["u0"] is u0
        results, _ = solve_ladder(members, params)
        fit = moderateness_fit(results, 0.0)
        assert np.isfinite(fit.slope)
        assert fit.passed


class TestUniquenessProbe:
    def test_q3_free(self, spec, params):
        fit = uniqueness_probe(preset("free", n=1), 3, gaussian_field(spec),
                               params)
        assert fit.passed
        assert fit.slope >= 2.5

    def test_q1_delta_potential(self, spec, params):
        fit = uniqueness_probe(preset("delta-potential", n=1), 1,
                               delta_field(spec), params)
        assert fit.passed
        assert fit.slope >= 0.5

    def test_rejects_bad_order(self, spec, params):
        with pytest.raises(NetError):
            uniqueness_probe(preset("free", n=1), 0, gaussian_field(spec),
                             params)

    def test_bumps_are_built_once(self, monkeypatch, spec, params):
        # a_00, b_0, V and u0, for all five epsilons
        calls, real = [], bump_perturbation
        monkeypatch.setattr(vwsnet, "bump_perturbation",
                            lambda *a, **k: calls.append(a) or real(*a, **k))
        uniqueness_probe(preset("delta-potential", n=1), 1, delta_field(spec), params)
        assert len(calls) == 4

    def test_fixed_coefficient_perturbation_fails(self, monkeypatch):
        # negative control: the coefficient bumps at amplitude 0.05 on every
        # eps, not eps^q, are not negligible, and the difference stays O(1)
        spec = GridSpec(2, 16, 8.0)
        params = NetParams(spec=spec, T=0.25)

        def fit():
            return uniqueness_probe(preset("ultra-diagonal"), 3, gaussian_field(spec),
                                    params)

        negligible = fit()
        assert negligible.passed
        assert negligible.slope == pytest.approx(3.0, abs=0.02)
        real = vwsnet._perturbed_set
        # _perturbed_set scales the bumps by its eps ** q
        monkeypatch.setattr(vwsnet, "_perturbed_set",
                            lambda cs, eps, q, bumps: real(cs, 0.05 ** (1 / q), q, bumps))
        fixed = fit()
        assert not fixed.passed
        assert fixed.slope == pytest.approx(0.0, abs=0.02)

    def test_one_perturbed_problem_at_a_time(self, monkeypatch):
        # when a march builds its operator, at most the probe's pair and the
        # pair being marched hold a perturbed set, not every pair of the ladder
        sets, real = [], vwsnet._perturbed_set

        def recorded(*args):
            cs = real(*args)
            sets.append(weakref.ref(cs))
            return cs

        monkeypatch.setattr(vwsnet, "_perturbed_set", recorded)
        live, Operator = [], evolve._Operator

        def counted(stack):
            live.append(sum(ref() is not None for ref in sets))
            return Operator(stack)

        monkeypatch.setattr(evolve, "_Operator", counted)
        spec = GridSpec(2, 16, 8.0)
        fit = uniqueness_probe(preset("ultra-diagonal"), 3, gaussian_field(spec),
                               NetParams(spec=spec, T=0.25))
        # the probe's two trials and the four other pairs, two problems each
        assert fit.extra["health"]["levels"] == COARSE
        assert len(live) == 2 * (2 + 4)
        assert max(live) <= 2

    def test_perturbed_set_adds_each_slot_bump(self):
        spec = GridSpec(2, 16, 8.0)
        cs = regularise(preset("ultra-diagonal"), 2**-2, ScaleFn("loglog"), spec)
        cs_p = _perturbed_set(cs, 0.5, 2, _bumps(spec, 2))
        for got, base, shift in ((cs_p.a[0][0], cs.a[0][0], 0.0),
                                 (cs_p.a[0][1], cs.a[0][1], 0.3),
                                 (cs_p.a[1][0], cs.a[1][0], 0.3),
                                 (cs_p.a[1][1], cs.a[1][1], 0.6),
                                 (cs_p.b[0], cs.b[0], 1.0), (cs_p.b[1], cs.b[1], 2.0),
                                 (cs_p.V, cs.V, 2.0)):
            np.testing.assert_array_equal(got, base + 0.25 * bump_perturbation(spec, 2, shift))

    def test_perturbed_set_derives_da_from_its_own_a(self):
        spec = GridSpec(2, 16, 8.0)
        cs = regularise(preset("ultra-diagonal"), 2**-2, ScaleFn("loglog"), spec)
        cs.da  # a derivative of the base set must not leak into the copy
        assert_da_is_the_derivative_of_a(_perturbed_set(cs, 0.5, 2, _bumps(spec, 2)))

    def test_no_coefficient_derivatives(self, monkeypatch):
        # the march reads no da: every spectral derivative the probe takes
        # is one of validating its net
        calls = []

        def counting(*args):
            calls.append(args)
            return spectral_derivative(*args)

        for module in vars(vwslab).values():
            if hasattr(module, "spectral_derivative"):
                monkeypatch.setattr(module, "spectral_derivative", counting)
        spec = GridSpec(2, 16, 8.0)
        model, params = preset("ultra-diagonal"), NetParams(spec=spec, T=0.05)
        assert validate(model, ladder(model, params)).passed
        validating = len(calls)
        uniqueness_probe(model, 3, gaussian_field(spec), params)
        assert validating > 0
        assert len(calls) == 2 * validating


class TestConsistencyRun:
    @staticmethod
    def cparams(spec):
        return NetParams(spec=spec, T=0.5, scale=ScaleFn("power", k=1.0),
                         data_mollifier=Mollifier("vanishing-moment", order=4))

    def test_rejects_non_smooth_model(self, spec):
        # the classical problem samples the unmollified coefficients
        with pytest.raises(ModelError, match="smooth models"):
            consistency_run(preset("delta-potential", n=1),
                            gaussian_field(spec), self.cparams(spec))

    def test_rejects_gaussian_data_mollifier(self, spec):
        p = NetParams(spec=spec, T=0.5, scale=ScaleFn("power", k=1.0))
        with pytest.raises(NetError):
            consistency_run(preset("smooth-consistency", n=1),
                            gaussian_field(spec), p)

    def test_constant_coefficient_rate_is_mollifier_order(self, spec):
        model = preset("smooth-consistency", n=1, nu=0.0, c0=0.0,
                       v_amplitude=0.0)
        fit = consistency_run(model, gaussian_field(spec), self.cparams(spec))
        assert fit.passed
        assert fit.slope == pytest.approx(4.0, abs=0.5)

    def test_variable_coefficients_still_converge(self, spec):
        fit = consistency_run(preset("smooth-consistency", n=1),
                              gaussian_field(spec), self.cparams(spec))
        assert fit.passed
        assert fit.extra["monotone_decreasing"]
        assert fit.extra["final_error"] < 1e-4


class TestDifferenceAnswer:
    """One call of ``_difference_answer`` marches once the reference problem
    that all its members hold, in lockstep with each compared problem."""

    @staticmethod
    def pairs(spec):
        """Two smooth-consistency members that hold one classical problem."""
        model, u0 = preset("smooth-consistency", n=1), gaussian_field(spec)
        ref = EvolutionProblem(sample(model, spec), u0, T=0.1)
        return {eps: [ref, EvolutionProblem(
                    regularise(model, eps, ScaleFn("power", k=1.0), spec), u0, T=0.1)]
                for eps in (0.25, 0.125)}

    def test_each_run_of_one_reference_is_one_lockstep(self, monkeypatch, spec):
        # references A, A and B: a lockstep of A and two compared problems,
        # then one of B and the third
        pairs = self.pairs(spec)
        ref = pairs[0.125][0]
        # an equal problem, but not the one the other members hold
        pairs[0.0625] = [EvolutionProblem(ref.cs, ref.u0, T=ref.T), EvolutionProblem(
            regularise(preset("smooth-consistency", n=1), 0.0625,
                       ScaleFn("power", k=1.0), spec), ref.u0, T=ref.T)]
        answer = vwsnet._difference_answer(1.0)
        locksteps, real = [], evolve.sup_differences
        monkeypatch.setattr(evolve, "sup_differences",
                            lambda ref, others, *a: locksteps.append(1 + len(others))
                            or real(ref, others, *a))
        marches = record_marches(monkeypatch)
        got = list(answer(pairs, 4))
        assert locksteps == [3, 2]
        assert len(marches) == 5
        assert len(got) == len(pairs)
        for (diff, compared), pair in zip(got, pairs.values()):
            (want_diff, want_compared), = answer({0.5: pair}, 4)
            assert diff == want_diff
            for a, b in zip(compared, want_compared):
                assert np.array_equal(a, b)
        # the three differ, so matching each pair alone checks member order
        assert len({d for d, _ in got}) == 3

    def test_shared_reference_answers_each_pair_alone(self, monkeypatch, spec):
        pairs = self.pairs(spec)
        answer = vwsnet._difference_answer(1.0)
        marches = record_marches(monkeypatch)
        got = list(answer(pairs, 4))
        assert len(marches) == 3
        for (diff, compared), pair in zip(got, pairs.values()):
            (want_diff, want_compared), = answer({0.5: pair}, 4)
            assert diff == want_diff
            assert len(compared) == len(want_compared) == 3
            for a, b in zip(compared, want_compared):
                assert np.array_equal(a, b)


def _count_stable_dt(monkeypatch):
    """Make ``evolve.stable_dt`` record (cs, result) for every call."""
    calls, real = [], evolve.stable_dt

    def counted(cs):
        calls.append((cs, real(cs)))
        return calls[-1][1]

    monkeypatch.setattr(evolve, "stable_dt", counted)
    return calls


class TestComparedProblemsStep:
    """uniqueness_probe and consistency_run march compared problems at one
    step: params.dt when it is set, else the smallest default step,
    min(T / LEVELS, stability step)."""

    @staticmethod
    def cases(spec):
        cparams = TestConsistencyRun.cparams(spec)
        return {
            "uniqueness": lambda p: uniqueness_probe(
                preset("delta-potential", n=1), 1, delta_field(spec), p),
            "consistency": lambda p: consistency_run(
                preset("smooth-consistency", n=1), gaussian_field(spec),
                NetParams(p.spec, p.eps_ladder, cparams.scale, p.T, p.dt, p.s_list,
                          cparams.data_mollifier)),
        }

    @pytest.mark.parametrize("kind, problems", [("uniqueness", 10),
                                                ("consistency", 6)])
    def test_stable_dt_once_per_problem(self, monkeypatch, spec, kind, problems):
        calls = _count_stable_dt(monkeypatch)
        self.cases(spec)[kind](NetParams(spec=spec, T=0.1))
        assert len(calls) == problems
        assert len({id(cs) for cs, _ in calls}) == problems

    @pytest.mark.parametrize("kind", ["uniqueness", "consistency"])
    def test_dt_above_the_bound_raises(self, spec, kind):
        # the remainder bounds of these problems lie between 0.4 and 8.4
        with pytest.raises(EvolveError):
            self.cases(spec)[kind](NetParams(spec=spec, T=0.5, dt=20.0))

    @pytest.mark.parametrize("kind", ["uniqueness", "consistency"])
    def test_given_dt_is_used(self, monkeypatch, spec, kind):
        marches = record_marches(monkeypatch)
        self.cases(spec)[kind](NetParams(spec=spec, T=0.05, dt=0.002))
        assert marches
        for ts in marches:
            assert len(ts) == 26
            np.testing.assert_allclose(np.diff(ts), 0.002, rtol=1e-9)

    @pytest.mark.parametrize("kind, group", [("uniqueness", 2),
                                             ("consistency", 6)])
    def test_health_is_the_lockstep_march(self, monkeypatch, spec, kind, group):
        # at T = 2 the eps = 2^-3 perturbed problem's bound sets the
        # uniqueness ladder's count, 17 at COARSE levels as at LEVELS, so
        # nothing is probed; the consistency ladder's bound sets its COARSE
        # count, 7, and its probe marches 14 and 7
        marches = record_marches(monkeypatch)
        fit = self.cases(spec)[kind](NetParams(spec=spec, T=2.0))
        health = fit.extra["health"]
        # the probe's problems at 2c and at c steps, if probed; then at the
        # ladder's one count the uniqueness pairs, each its own lockstep,
        # or the classical problem with the four other consistency members
        # at once
        (levels, sizes, counts, steps), = [{
            "uniqueness": (LEVELS, [2] * 5, [17] * 5, 17),
            "consistency": (COARSE, [2, 2, group - 1], [14, 7, 7], 7),
        }[kind]]
        assert health["levels"] == levels
        if kind == "uniqueness":
            assert health["probe_gap"] is None
        else:
            assert health["probe_gap"] <= TOL
        assert sum(sizes) == len(marches)
        starts = np.cumsum([0] + sizes)
        groups = [marches[a:b] for a, b in zip(starts, starts[1:])]
        for lockstep in groups:
            assert all(ts == lockstep[0] for ts in lockstep)
        assert [len(g[0]) - 1 for g in groups] == counts
        assert health["steps"] == steps
        assert health["dt"] * health["steps"] == 2.0

    @pytest.mark.parametrize("kind", ["uniqueness", "consistency"])
    def test_rejected_probe_member_marches_with_the_others(self, monkeypatch,
                                                           spec, kind):
        # at TOL = 0 every probe rejects: its member marches at LEVELS as one
        # more uniqueness pair, or in the classical consistency lockstep, and
        # every value is that of a march at the LEVELS step
        monkeypatch.setattr(vwsnet, "TOL", 0.0)
        marches = record_marches(monkeypatch)
        T = 0.1
        fit = self.cases(spec)[kind](NetParams(spec=spec, T=T))
        health = fit.extra["health"]
        assert (health["levels"], health["steps"]) == (LEVELS, LEVELS)
        rest = [LEVELS] * 10 if kind == "uniqueness" else [LEVELS] * 6
        assert [len(ts) - 1 for ts in marches] == [2 * COARSE] * 2 + [COARSE] * 2 + rest
        monkeypatch.undo()
        assert fit.values == self.cases(spec)[kind](
            NetParams(spec=spec, T=T, dt=T / LEVELS)).values

    @pytest.mark.parametrize("kind, group", [("uniqueness", 2),
                                             ("consistency", 6)])
    def test_auto_dt_is_the_smallest_stability_step(self, monkeypatch, spec,
                                                    kind, group):
        # each march is at min(T / levels, the smallest stability step of
        # the problems it takes): the probe's problems at twice COARSE's
        # count and at that count, then every member the probe kept no
        # result of at the level count chosen
        calls = _count_stable_dt(monkeypatch)
        marches = record_marches(monkeypatch)
        T = 0.1
        fit = self.cases(spec)[kind](NetParams(spec=spec, T=T))
        limits = [limit for _, limit in calls]
        levels, gap = fit.extra["health"]["levels"], fit.extra["health"]["probe_gap"]
        assert levels == (COARSE if gap <= TOL else LEVELS)
        kept = levels == COARSE
        if kind == "uniqueness":
            # every pair's bounds are measured before the probe, in ladder order
            *rest, probe = [limits[k:k + group] for k in range(0, len(limits), group)]
            if not kept:
                rest = [probe] + rest
        else:
            probe, rest = [limits[0], limits[-1]], [limits[:-1] if kept else limits]

        def steps(g, count):
            return round(T / min(T / count, *g))
        coarse = steps(probe, COARSE)
        want = [(probe, 2 * coarse), (probe, coarse)] + [(g, steps(g, levels))
                                                        for g in rest]
        assert sum(len(g) for g, _ in want) == len(marches)
        k = 0
        for g, count in want:
            for ts in marches[k:k + len(g)]:
                assert len(ts) - 1 == count
            k += len(g)


def _record_stack_sizes(monkeypatch):
    """Make every ``evolve.march`` record how many problems it stacks;
    returns the list of sizes, one per march."""
    sizes, real = [], evolve.march

    def sized(probs, steps=None):
        sizes.append(len(probs))
        return real(probs, steps)

    monkeypatch.setattr(evolve, "march", sized)
    return sizes


def _delta_net_params():
    """The net-1d-delta benchmark ladder."""
    return NetParams(spec=GridSpec(1, 256, 8.0), T=0.125, s_list=(0.0, 1.0))


class TestLevelProbe:
    """``probe_levels`` marches the smallest eps at 2c and at c steps, c the
    ladder's COARSE count, and gives the ladder COARSE levels, the member
    keeping its c-step result, when the two agree within TOL."""

    @staticmethod
    def probs(T):
        spec = GridSpec(1, 32, 8.0)
        cs = regularise(preset("smooth-consistency", n=1), 2**-4, ScaleFn("loglog"),
                        spec)
        return [EvolutionProblem(cs, gaussian_field(spec), T=T)]

    @staticmethod
    def free_probs(T):
        """A member without remainder, whose bound is infinite."""
        spec = GridSpec(1, 32, 8.0)
        cs = regularise(preset("free", n=1), 2**-5, ScaleFn("loglog"), spec)
        return [EvolutionProblem(cs, gaussian_field(spec), T=T)]

    @staticmethod
    def answers(gap_at):
        """An answer that records its step counts; at the counts in gap_at
        its u(T) and number move by that relative gap."""
        calls = []

        def answer(members, steps):
            calls.append(steps)
            final, number = 1.0 + np.array(gap_at.get(steps, (0.0, 0.0)))
            return [(f"result@{steps}", [np.array([3.0, 4.0]) * final, 2.0 * number])]
        return answer, calls

    def test_coarse_when_the_trial_agrees(self):
        answer, calls = self.answers({COARSE: (0.5 * TOL, 0.0)})
        probe, kept = probe_levels({0.5: self.probs(0.5)}, answer)
        assert calls == [2 * COARSE, COARSE]
        assert kept == {0.5: f"result@{COARSE}"}
        assert probe == LevelProbe(0.5, COARSE, pytest.approx(0.5 * TOL))

    @pytest.mark.parametrize("rel", [(2.0 * TOL, 0.0), (0.0, 2.0 * TOL)],
                             ids=["u(T)", "number"])
    def test_levels_when_any_part_of_the_trial_disagrees(self, rel):
        answer, calls = self.answers({COARSE: rel})
        probe, kept = probe_levels({0.5: self.probs(0.5)}, answer)
        assert calls == [2 * COARSE, COARSE]
        assert kept == {}
        assert probe == LevelProbe(0.5, LEVELS, pytest.approx(2.0 * TOL))

    def test_zero_answers_agree(self):
        def answer(members, steps):
            return [(None, [np.zeros(3), 0.0])]
        probe, _ = probe_levels({0.5: self.probs(0.5)}, answer)
        assert (probe.levels, probe.gap) == (COARSE, 0.0)

    def test_trial_at_the_bound_count(self):
        # the bound forces c = 7 steps: the trial takes 14 and 7
        limit = stable_dt(self.probs(1.0)[0].cs)
        answer, calls = self.answers({})
        probe, kept = probe_levels({0.5: self.probs(7 * limit)}, answer)
        assert calls == [14, 7]
        assert probe.levels == COARSE
        assert kept == {0.5: "result@7"}

    def test_trial_at_the_ladder_count(self):
        # the bound of the larger eps forces the ladder's c = 7 steps: the
        # probe member, whose own count is COARSE, takes 14 and 7
        T = 7 * stable_dt(self.probs(1.0)[0].cs)
        members = {0.5: self.probs(T), 0.25: self.free_probs(T)}
        assert evolve.shared_steps(members[0.25], COARSE) == COARSE
        answer, calls = self.answers({})
        probe, kept = probe_levels(members, answer)
        assert calls == [14, 7]
        assert (probe, kept) == (LevelProbe(0.25, COARSE, 0.0), {0.25: "result@7"})

    def test_no_trial_where_the_bound_forces_levels(self):
        # the bound forces c steps, and 2c reaches the LEVELS count
        limit = stable_dt(self.probs(1.0)[0].cs)
        for c in (8, 10, 20):
            answer, calls = self.answers({})
            probs = self.probs(c * limit)
            assert evolve.shared_steps(probs, COARSE) == c
            probe, kept = probe_levels({0.5: probs}, answer)
            assert calls == [], c
            assert (probe, kept) == (LevelProbe(0.5, LEVELS, None), {}), c

    def test_no_probe_with_a_given_dt(self, monkeypatch, spec):
        # march_ladder marches every member at the given dt in one call: the
        # net's five members as one stack, and the classical problem once,
        # in one lockstep with the five consistency members
        marches = record_marches(monkeypatch)
        params = NetParams(spec=spec, T=0.1, dt=0.01)
        _, _, health = run_net(preset("delta-potential", n=1), gaussian_field(spec),
                               params)
        assert [len(ts) - 1 for ts in marches] == [10]
        marches.clear()
        c = TestConsistencyRun.cparams(spec)
        cparams = NetParams(c.spec, c.eps_ladder, c.scale, c.T, 0.05, c.s_list,
                            c.data_mollifier)
        fit = consistency_run(preset("smooth-consistency", n=1), gaussian_field(spec),
                              cparams)
        assert [len(ts) - 1 for ts in marches] == [10] * 6
        for health, p in ((health, params), (fit.extra["health"], cparams)):
            assert health == {"dt": pytest.approx(p.dt, rel=1e-12), "steps": 10,
                              "levels": None, "probe_eps": None, "probe_gap": None}

    def test_net_ladder_rejects_coarse(self):
        # negative control: on the net-1d-delta ladder the trapezoid
        # smoothing integrals at 4 levels miss by about 10^-1
        params = _delta_net_params()
        u0 = delta_field(params.spec)
        _, _, health = run_net(preset("delta-potential", n=1), u0, params)
        assert (health["levels"], health["steps"]) == (LEVELS, LEVELS)
        assert health["probe_eps"] == params.eps_ladder[-1]
        assert health["probe_gap"] > 10 * TOL

    def test_net_ladder_marches_each_member_once(self, monkeypatch):
        # the probe's two trial marches, which reject COARSE, then one march
        # of all five members, the probe's included, as one stack
        marches = record_marches(monkeypatch)
        sizes = _record_stack_sizes(monkeypatch)
        params = _delta_net_params()
        run_net(preset("delta-potential", n=1), delta_field(params.spec), params)
        assert [len(ts) - 1 for ts in marches] == [2 * COARSE, COARSE, LEVELS]
        assert sizes == [1, 1, 5]

    def test_probe_member_in_the_stack_is_its_march_alone(self):
        # on the net-1d-delta ladder the probe rejects, and its member
        # marches at LEVELS in the stack
        params = _delta_net_params()
        members = ladder(preset("delta-potential", n=1), params,
                         delta_field(params.spec))
        results, health = solve_ladder(members, params)
        last = params.eps_ladder[-1]
        assert (health["levels"], health["steps"]) == (LEVELS, LEVELS)
        m = members[last]
        alone = solve(EvolutionProblem(m["cs"], m["u0"], params.T),
                      params.s_list, steps=LEVELS)
        assert np.array_equal(results[last].final.values, alone.final.values)
        for s in params.s_list:
            assert np.array_equal(results[last].series.norms[s], alone.series.norms[s])
            assert np.array_equal(results[last].series.integral[s],
                                  alone.series.integral[s])

    def test_instability_of_the_probe_member_names_its_eps(self, monkeypatch):
        # a stability bound patched to T / 8 makes c = 8, so nothing is
        # probed and the smooth-consistency probe member marches straight in
        # the stack, at 50 times its true bound a step, and blows up there
        spec = GridSpec(1, 64, np.pi)
        eps_ladder = (0.5, 0.25, 0.125)
        sets = {eps: regularise(preset("smooth-consistency" if eps == 0.125 else "free",
                                       n=1), eps, ScaleFn("loglog"), spec)
                for eps in eps_ladder}
        T = LEVELS * 50 * stable_dt(sets[0.125])
        monkeypatch.setattr(evolve, "stable_dt", lambda cs: T / 8)
        members = {eps: {"cs": cs, "u0": random_field(spec, seed=1)}
                   for eps, cs in sets.items()}
        params = NetParams(spec=spec, eps_ladder=eps_ladder, T=T)
        sizes = _record_stack_sizes(monkeypatch)
        with pytest.raises(Instability) as info:
            solve_ladder(members, params)
        # the probe member is the last of the stack of three, in ladder order
        assert sizes == [3]
        assert (info.value.member, info.value.eps) == (2, 0.125)
        assert "for eps = 0.125;" in str(info.value)

    def test_instability_in_the_probe_trial_names_the_ladder_place(self, monkeypatch):
        # without stability bounds the smooth-consistency probe member
        # survives its 2c-step trial and blows up in the first step of its
        # c-step one, T / 4, 50 times its true bound; both trials are stacks
        # of one, and it is still member 2 of the ladder
        spec = GridSpec(1, 64, np.pi)
        eps_ladder = (0.5, 0.25, 0.125)
        sets = {eps: regularise(preset("smooth-consistency" if eps == 0.125 else "free",
                                       n=1), eps, ScaleFn("loglog"), spec)
                for eps in eps_ladder}
        T = 200 * stable_dt(sets[0.125])
        monkeypatch.setattr(evolve, "stable_dt", lambda cs: np.inf)
        members = {eps: {"cs": cs, "u0": random_field(spec, seed=1)}
                   for eps, cs in sets.items()}
        params = NetParams(spec=spec, eps_ladder=eps_ladder, T=T)
        sizes = _record_stack_sizes(monkeypatch)
        with pytest.raises(Instability) as info:
            solve_ladder(members, params)
        assert sizes == [1, 1]
        assert (info.value.member, info.value.eps, info.value.t) == (2, 0.125, 0.0)

    @pytest.mark.parametrize("name", ["uniq-2d-reduced", "delta-potential-1d"])
    def test_uniqueness_matches_a_converged_march(self, name):
        # every member's sup difference at the chosen count against 256
        # levels; both ladders take COARSE
        spec, model, params = {
            # uniq-2d-ultra at M = 32
            "uniq-2d-reduced": (GridSpec(2, 32, 8.0), preset("ultra-diagonal"),
                                {"T": 0.25}),
            # the 1D uniqueness config of the CLI tests
            "delta-potential-1d": (GridSpec(1, 32, 8.0), preset("delta-potential", n=1),
                                   {"T": 0.5, "eps_ladder": (0.5, 0.25, 0.125, 0.0625)}),
        }[name]
        params = NetParams(spec=spec, **params)
        u0 = gaussian_field(spec)
        got = uniqueness_probe(model, 3, u0, params)
        conv = uniqueness_probe(model, 3, u0, NetParams(
            spec, params.eps_ladder, params.scale, params.T, params.T / 256,
            params.s_list, params.data_mollifier))
        assert got.extra["health"]["levels"] == COARSE
        assert conv.extra["health"]["steps"] == 256
        assert got.values.keys() == conv.values.keys()
        for eps, want in conv.values.items():
            assert got.values[eps] == pytest.approx(want, rel=2e-3), eps


class TestMarchLadder:
    """``march_ladder`` probes the last member, then calls its answer once,
    in ladder order, for every member the probe kept no result of, at the
    ladder's count: the largest of its members'."""

    #: eps -> {levels: that member's step count}; None is a given dt
    COUNTS = {0.5: {COARSE: 4, LEVELS: 16, None: 10},
              0.25: {COARSE: 5, LEVELS: 20, None: 11},
              0.125: {COARSE: 4, LEVELS: 16, None: 10},
              0.0625: {COARSE: 4, LEVELS: 16, None: 10}}
    #: the ladder's counts
    STEPS = {COARSE: 5, LEVELS: 20, None: 11}

    @pytest.fixture
    def ladder_run(self, monkeypatch, spec):
        """march_ladder over members whose step counts are COUNTS, with an
        answer whose u(T) moves by `gap` relative at the ladder's COARSE
        count; returns (results, health, [(eps marched, steps)] per call)."""
        monkeypatch.setattr(evolve, "shared_steps",
                            lambda probs, levels=LEVELS, dt=None: probs[0][levels])

        def run(gap, dt=None):
            calls = []

            def answer(members, steps):
                calls.append((list(members), steps))
                coarse = steps == self.STEPS[COARSE]
                final = np.array([3.0, 4.0]) * (1.0 + (gap if coarse else 0.0))
                return [(f"{eps}@{steps}", [final]) for eps in members]

            params = NetParams(spec=spec, eps_ladder=tuple(self.COUNTS), T=1.0, dt=dt)
            members = {eps: [counts] for eps, counts in self.COUNTS.items()}
            return (*vwsnet.march_ladder(members, answer, params), calls)
        return run

    def test_rejected_probe_member_marches_in_ladder_order(self, ladder_run):
        results, health, calls = ladder_run(2.0 * TOL)
        assert calls == [([0.0625], 10), ([0.0625], 5),
                         ([0.5, 0.25, 0.125, 0.0625], 20)]
        assert list(results) == list(self.COUNTS)
        assert results == {eps: f"{eps}@20" for eps in self.COUNTS}
        assert (health["levels"], health["steps"]) == (LEVELS, 20)
        assert health["probe_eps"] == 0.0625

    def test_kept_probe_result_is_not_marched_again(self, ladder_run):
        results, health, calls = ladder_run(0.0)
        assert calls == [([0.0625], 10), ([0.0625], 5), ([0.5, 0.25, 0.125], 5)]
        assert list(results) == list(self.COUNTS)
        assert results == {eps: f"{eps}@5" for eps in self.COUNTS}
        assert (health["levels"], health["steps"]) == (COARSE, 5)

    def test_no_probe_with_a_given_dt(self, ladder_run):
        # one call in ladder order, at the largest count of the given dt
        results, health, calls = ladder_run(0.0, dt=0.1)
        assert calls == [([0.5, 0.25, 0.125, 0.0625], 11)]
        assert list(results) == list(self.COUNTS)
        assert health == {"dt": 1.0 / 11, "steps": 11, "levels": None, "probe_eps": None,
                          "probe_gap": None}


class TestSolveLadderStack:
    """``solve_ladder`` marches the members after the probe as one stack,
    at the ladder's one step count."""

    def test_members_march_the_ladders_count(self, monkeypatch):
        # at T = 100 the remainder bounds of the delta-potential ladder,
        # 6.7 down to 3.9, would give its members 16, 16, 19, 23 and 25
        # steps; the ladder marches the largest, and the probe member's
        # bound skips the trial
        spec = GridSpec(1, 32, 8.0)
        params = NetParams(spec=spec, T=100.0)
        members = ladder(preset("delta-potential", n=1), params, gaussian_field(spec))
        assert [evolve.shared_steps([EvolutionProblem(m["cs"], m["u0"], params.T)])
                for m in members.values()] == [16, 16, 19, 23, 25]
        marches = record_marches(monkeypatch)
        sizes = _record_stack_sizes(monkeypatch)
        results, health = solve_ladder(members, params)
        assert list(results) == list(members)
        assert health["steps"] == 25
        assert [len(ts) - 1 for ts in marches] == [25]
        assert sizes == [5]
        monkeypatch.undo()
        for eps, res in results.items():
            m = members[eps]
            alone = solve(EvolutionProblem(m["cs"], m["u0"], params.T),
                          params.s_list, steps=health["steps"])
            assert np.array_equal(res.final.values, alone.final.values)
            for s in params.s_list:
                assert np.array_equal(res.series.norms[s], alone.series.norms[s])
                assert np.array_equal(res.series.integral[s],
                                      alone.series.integral[s])

    def test_one_member_ladder_is_its_probe(self, monkeypatch, spec):
        # a ladder of one eps that takes COARSE levels keeps the probe's
        # c-step result and marches nothing more
        params = NetParams(spec=spec, eps_ladder=(0.5,), T=0.1)
        members = ladder(preset("smooth-consistency", n=1), params, gaussian_field(spec))
        marches = record_marches(monkeypatch)
        results, health = solve_ladder(members, params)
        assert [len(ts) - 1 for ts in marches] == [2 * COARSE, COARSE]
        assert (health["levels"], health["steps"]) == (COARSE, COARSE)
        monkeypatch.undo()
        m = members[0.5]
        alone = solve(EvolutionProblem(m["cs"], m["u0"], params.T), steps=COARSE)
        assert np.array_equal(results[0.5].final.values, alone.final.values)

    def test_instability_names_the_member(self, monkeypatch):
        # without stability bounds, one step of 50 of its bound blows up
        # the smooth-consistency member alone; it marches second in the
        # stack, its place in the ladder
        spec = GridSpec(1, 64, np.pi)
        eps_ladder = (0.5, 0.25, 0.125)
        sets = {eps: regularise(preset("smooth-consistency" if eps == 0.25 else "free",
                                       n=1), eps, ScaleFn("loglog"), spec)
                for eps in eps_ladder}
        T = 50 * stable_dt(sets[0.25])
        params = NetParams(spec=spec, eps_ladder=eps_ladder, T=T, dt=T)
        monkeypatch.setattr(evolve, "stable_dt", lambda cs: np.inf)
        members = {eps: {"cs": cs, "u0": random_field(spec, seed=1)}
                   for eps, cs in sets.items()}
        marches = record_marches(monkeypatch)
        with pytest.raises(Instability) as info:
            solve_ladder(members, params)
        # with a given dt nothing is probed: one stack, in ladder order
        assert len(marches) == 1
        assert (info.value.member, info.value.eps) == (1, 0.25)
        assert str(info.value).startswith("norm grew x")
        assert "for eps = 0.25;" in str(info.value)

