import copy
import csv
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import vwslab
from vwslab import cli, evolve
from vwslab.cli import ConfigError, main, parse_config, run
from vwslab.doi import C1, FTable, _sup_over_x, build_q, calibrate_K, check_member
from vwslab.evolve import LEVELS
from vwslab.vwsnet import COARSE, TOL, ladder


def cfg_text(**overrides) -> str:
    base = {"experiment": {"kind": "solve"},
            "grid": {"n": 1, "M": 32, "L": 8.0},
            "model": {"preset": "free"},
            "ladder": [0.5, 0.25, 0.125, 0.0625]}
    base.update(overrides)
    return json.dumps(base)


class TestParseConfig:
    def test_defaults_filled(self):
        cfg = parse_config(cfg_text())
        assert cfg["mollifier"] == {"kind": "gaussian", "moment_order": 4}
        assert cfg["scale"] == {"kind": "loglog", "k": 1.0}
        assert cfg["evolution"]["T"] == 0.5
        assert cfg["evolution"]["dt"] == "auto"
        assert cfg["seed"] == 0

    def test_invalid_json(self):
        with pytest.raises(ConfigError, match="invalid JSON"):
            parse_config("{not json")

    def test_unknown_key_is_named(self):
        with pytest.raises(ConfigError, match="config.moolifier"):
            parse_config(cfg_text(moolifier={"kind": "gaussian"}))

    def test_unknown_nested_key_is_named(self):
        with pytest.raises(ConfigError, match="config.grid.m"):
            parse_config(cfg_text(grid={"n": 1, "m": 32, "L": 8.0}))

    def test_m_must_be_power_of_two(self):
        with pytest.raises(ConfigError, match="power of two"):
            parse_config(cfg_text(grid={"n": 1, "M": 12, "L": 8.0}))

    def test_ladder_must_decrease(self):
        with pytest.raises(ConfigError, match="strictly decreasing"):
            parse_config(cfg_text(ladder=[0.5, 0.5, 0.25, 0.125]))

    def test_ladder_range(self):
        with pytest.raises(ConfigError, match=r"\(0, 1\]"):
            parse_config(cfg_text(ladder=[2.0, 0.5, 0.25, 0.125]))

    def test_short_ladder_ok_for_solve(self):
        cfg = parse_config(cfg_text(ladder=[0.5]))
        assert cfg["ladder"] == [0.5]

    def test_short_ladder_rejected_for_net(self):
        with pytest.raises(ConfigError, match="at least 4"):
            parse_config(cfg_text(experiment={"kind": "net"},
                                  ladder=[0.5, 0.25]))

    def test_kind_conflict(self):
        with pytest.raises(ConfigError, match="conflicts"):
            parse_config(cfg_text(), kind="net")

    def test_kind_from_subcommand(self):
        raw = json.dumps({"grid": {"n": 1, "M": 32, "L": 8.0}})
        cfg = parse_config(raw, kind="solve")
        assert cfg["experiment"]["kind"] == "solve"

    def test_parse_leaves_the_defaults_alone(self):
        saved = copy.deepcopy(cli._DEFAULTS)
        assert parse_config("{}", kind="solve")["experiment"]["kind"] == "solve"
        assert parse_config("{}", kind="net")["experiment"]["kind"] == "net"
        assert cli._DEFAULTS == saved

    def test_unknown_kind(self):
        with pytest.raises(ConfigError, match="experiment.kind"):
            parse_config(cfg_text(experiment={"kind": "frobnicate"}))

    def test_reparse_is_idempotent(self):
        cfg = parse_config(cfg_text())
        assert parse_config(json.dumps(cfg)) == cfg

    def test_bad_dt_string(self):
        with pytest.raises(ConfigError, match="dt"):
            parse_config(cfg_text(evolution={"dt": "fast"}))

    @pytest.mark.parametrize("override, section", [
        ({"grid": {"n": 1, "M": 4, "L": 8.0}}, "config.grid"),
        ({"scale": {"kind": "constant-test"}}, "config.scale"),
        ({"mollifier": {"kind": "flat-band"}}, "config.mollifier"),
    ])
    def test_rejected_by_grid_mollifier_and_scale(self, override, section,
                                                   tmp_path, capsys):
        with pytest.raises(ConfigError, match=section):
            parse_config(cfg_text(**override))
        path = tmp_path / "bad.json"
        path.write_text(cfg_text(**override))
        assert main(["solve", str(path), "--out", str(tmp_path)]) == 2
        assert section in capsys.readouterr().err
        assert not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize("mollifier, order", [({}, 4), ({"moment_order": 2}, 2)])
    def test_consistency_records_its_mollifier(self, mollifier, order):
        # consistency reads a vanishing-moment data mollifier, and the filled
        # config says so
        cfg = parse_config(cfg_text(experiment={"kind": "consistency"},
                                    mollifier=mollifier))
        assert cfg["mollifier"] == {"kind": "vanishing-moment", "moment_order": order}
        assert parse_config(json.dumps(cfg)) == cfg

    def test_bad_tolerance(self):
        with pytest.raises(ConfigError, match="tolerances"):
            parse_config(cfg_text(
                experiment={"kind": "net", "tolerances": {"residual": -1}}))


class TestConfigErrors:
    """Each of these configs fails at parse: exit 2, the cause on stderr and
    no report."""

    @staticmethod
    def assert_config_error(tmp_path, capsys, text, message):
        path = tmp_path / "bad.json"
        path.write_text(text)
        out = tmp_path / "out"
        kind = json.loads(text)["experiment"]["kind"]
        assert main([kind, str(path), "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not (out / "report.json").exists()

    @pytest.mark.parametrize("model, message", [
        ({"preset": "nonsense"}, "unknown preset 'nonsense'"),
        ({"preset": "free", "params": {"frobnicate": 2}},
         "unknown model parameters: ['frobnicate']"),
        # cfg_text's grid has n = 1
        ({"preset": "ultra-diagonal"}, "ultra-diagonal is two-dimensional, got n=1"),
        # free has no perturbation: a report would record a nu it never used
        ({"preset": "free", "params": {"nu": 0.3}}, "unknown model parameters: ['nu']")])
    def test_unknown_preset_or_model_parameter(self, tmp_path, capsys, model,
                                               message):
        self.assert_config_error(tmp_path, capsys, cfg_text(model=model),
                                 f"config.model: {message}")

    def test_fractional_weight_exponent(self, tmp_path, capsys):
        # int() truncated it: this net ran at N = 2 and reported N = 2.5
        text = json.dumps({"grid": {"n": 1, "M": 64, "L": 8},
                           "model": {"preset": "delta-potential", "params": {"N": 2.5}},
                           "evolution": {"T": 0.125}, "experiment": {"kind": "net"}})
        self.assert_config_error(tmp_path, capsys, text,
                                 "config.model: N must be an integer, got 2.5")

    def test_model_dimension_parameter(self, tmp_path, capsys):
        text = cfg_text(model={"preset": "free", "params": {"n": 2}})
        self.assert_config_error(tmp_path, capsys, text,
                                 "grid.n sets the dimension")

    def test_empty_ladder(self, tmp_path, capsys):
        self.assert_config_error(tmp_path, capsys, cfg_text(ladder=[]),
                                 "config.ladder: epsilon ladder is empty")

    @pytest.mark.parametrize("k", [[], [1, 2]])
    def test_plane_wave_modes_per_axis(self, tmp_path, capsys, k):
        # cfg_text's grid has n = 1
        text = cfg_text(data={"kind": "plane-wave", "k": k})
        self.assert_config_error(tmp_path, capsys, text,
                                 "config.data.k needs one mode number per axis")

    def test_unknown_data_kind(self, tmp_path, capsys):
        text = cfg_text(experiment={"kind": "net"}, data={"kind": "bogus"})
        self.assert_config_error(tmp_path, capsys, text,
                                 "config.data.kind 'bogus' not recognised")

    @pytest.mark.parametrize("kind, name", [("net", "residul"),
                                            ("solve", "n_cap"),
                                            ("consistency", "residual")])
    def test_tolerance_the_subcommand_does_not_read(self, tmp_path, capsys,
                                                     kind, name):
        # a verdict's bounds are constants of vwsnet, which no config sets
        text = cfg_text(experiment={"kind": kind, "tolerances": {name: 0.1}})
        self.assert_config_error(tmp_path, capsys, text,
                                 "unknown key config.experiment.tolerances")

    @pytest.mark.parametrize("override, path", [
        ({"evolution": {"T": float("nan")}}, "config.evolution.T"),
        ({"model": {"preset": "delta-potential", "params": {"strength": float("nan")}}},
         "config.model.params.strength"),
        ({"scale": {"kind": "power", "k": float("inf")}}, "config.scale.k"),
        ({"data": {"width": float("-inf")}}, "config.data.width")])
    def test_non_finite_number(self, tmp_path, capsys, override, path):
        # Python's json reads NaN, Infinity and -Infinity
        self.assert_config_error(tmp_path, capsys, cfg_text(**override),
                                 f"{path} must be a finite number")

    @pytest.mark.parametrize("override, section", [
        ({"model": {"preset": "delta-potential", "params": {"strength": 10**400}}},
         "config.model"),
        ({"grid": {"n": 1, "M": 32, "L": 10**400}}, "config.grid")])
    def test_integer_past_the_float_range(self, tmp_path, capsys, override, section):
        # json reads any integer, and float() of one past 1.8e308 raised an
        # OverflowError out of parse_config
        self.assert_config_error(tmp_path, capsys, cfg_text(**override),
                                 f"{section}: int too large to convert to float")

    @pytest.mark.parametrize("kind, override, message", [
        # the decay exponent N is the model's; evolution.N is no key
        ("doi-check", {"evolution": {"N": 1}}, "unknown key config.evolution.N"),
        ("net", {"model": {"preset": "free", "params": {"N": -3}}},
         "config.model: weight exponent N must exceed 1"),
        ("net", {"data": {"width": 0}}, "config.data.width must be positive"),
        ("net", {"data": {"width": -1.0}}, "config.data.width must be positive"),
        ("consistency", {"mollifier": {"kind": "gaussian"}},
         "config.mollifier.kind: consistency needs vanishing-moment"),
        ("net", {"evolution": {"dt": -1}}, "config.evolution.dt must be positive")])
    def test_out_of_range_value(self, tmp_path, capsys, kind, override, message):
        text = cfg_text(experiment={"kind": kind}, **override)
        self.assert_config_error(tmp_path, capsys, text, message)

    def test_perturbation_order_below_one(self, tmp_path, capsys):
        text = cfg_text(experiment={"kind": "uniqueness", "q": 0})
        self.assert_config_error(tmp_path, capsys, text,
                                 "config.experiment.q must be >= 1")

    def test_root_must_be_an_object(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("[]")
        assert main(["net", str(path), "--out", str(tmp_path / "out")]) == 2
        assert "config root must be an object" in capsys.readouterr().err
        assert not (tmp_path / "out" / "report.json").exists()

    @pytest.mark.parametrize("model", ["delta-potential", "jump-drift",
                                       "elliptic-lipschitz"])
    def test_consistency_needs_a_smooth_model(self, tmp_path, capsys, model):
        # the classical problem is marched on the unmollified coefficients
        text = cfg_text(experiment={"kind": "consistency"}, model={"preset": model})
        self.assert_config_error(
            tmp_path, capsys, text,
            "config.model: consistency requires a smooth-coefficient model")

    @pytest.mark.parametrize("kind", ["net", "uniqueness"])
    def test_no_sobolev_order(self, tmp_path, capsys, kind):
        text = cfg_text(experiment={"kind": kind}, evolution={"s": []})
        self.assert_config_error(tmp_path, capsys, text,
                                 "config.evolution.s needs at least one Sobolev order")

    @pytest.mark.parametrize("override, message", [
        ({"evolution": {"s": [0.0, "1"]}}, "config.evolution.s[1] has wrong type str"),
        ({"data": {"kind": "plane-wave", "k": ["x"]}}, "config.data.k[0] has wrong type str"),
        ({"data": {"k": [1.5]}}, "config.data.k[0] has wrong type float"),
        ({"ladder": 0.5}, "config.ladder has wrong type float"),
        ({"grid": 3}, "config.grid must be an object")])
    def test_list_entry_of_wrong_type(self, tmp_path, capsys, override, message):
        self.assert_config_error(tmp_path, capsys, cfg_text(**override), message)

    @pytest.mark.parametrize("override", [{"ladder": [0.5, 0.25]},
                                          {"scale": {"kind": "loglog", "k": 3}}],
                             ids=["ladder", "scale"])
    def test_mollifier_bench_reads_no_ladder_or_scale(self, tmp_path, capsys,
                                                      override):
        # the bench fits over its own omega ladder under its own scale
        raw = json.loads(cfg_text(experiment={"kind": "mollifier-bench"}))
        del raw["ladder"]
        raw.update(override)
        key, = override
        self.assert_config_error(tmp_path, capsys, json.dumps(raw),
                                 f"config.{key} is not read by mollifier-bench")

    def test_mollifier_bench_config_holds_no_ladder_or_scale(self):
        # so that a report's config parses again
        cfg = parse_config(json.dumps({"grid": {"n": 1, "M": 64, "L": 8.0}}),
                           kind="mollifier-bench")
        assert "ladder" not in cfg and "scale" not in cfg
        assert parse_config(json.dumps(cfg)) == cfg

    @pytest.mark.parametrize("override, message", [
        ({"grid": {"n": 1, "M": 32, "L": True}}, "config.grid.L has wrong type bool"),
        ({"grid": {"n": True, "M": 32, "L": 8.0}}, "config.grid.n has wrong type bool"),
        ({"ladder": [True, 0.5, 0.25, 0.125]}, "config.ladder[0] has wrong type bool"),
        ({"model": {"preset": "delta-potential", "params": {"strength": True}}},
         "config.model.params.strength must not be a boolean, got true")])
    def test_boolean_is_no_number(self, tmp_path, capsys, override, message):
        # bool is a subclass of int in Python
        self.assert_config_error(tmp_path, capsys, cfg_text(**override), message)


@pytest.fixture(scope="module")
def outcome(tmp_path_factory):
    out = tmp_path_factory.mktemp("solve")
    cfg = parse_config(cfg_text(
        ladder=[0.5, 0.25],
        evolution={"T": 0.2, "dt": 1e-3},
        data={"kind": "plane-wave", "k": [1]},
        output={"stride": 50}))
    status = run(cfg, out_dir=str(out))
    return status, out


class TestRunSolve:
    def test_exit_status(self, outcome):
        assert outcome[0] == 0

    def test_report_written(self, outcome):
        report = json.loads((outcome[1] / "report.json").read_text())
        assert report["all_pass"] is True
        assert report["verdict"]["pass"] is True
        assert report["config"]["experiment"]["kind"] == "solve"

    def test_norm_series_csv(self, outcome):
        # the free evolution is unitary, so the L2 column is constant
        with (outcome[1] / "norms-eps-0.5.csv").open() as fh:
            rows = list(csv.DictReader(fh))
        assert rows[0].keys() == {"t", "s", "norm", "smooth_integrand",
                                  "smooth_integral"}
        norms = [float(r["norm"]) for r in rows if r["s"] == "0"]
        assert len(norms) > 1
        assert np.ptp(norms) < 1e-8

    def test_snapshots_written(self, outcome):
        # 200 steps of 1e-3 at stride 50: levels 0, 50, ..., 200
        snaps = json.loads(
            (outcome[1] / "snapshots-eps-0.25.json").read_text())
        assert [snap["t"] for snap in snaps] == pytest.approx([0.0, 0.05, 0.1, 0.15, 0.2],
                                                             rel=1e-12)
        assert all(set(snap) == {"t", "values"} for snap in snaps)
        assert len(snaps[0]["values"]) == 32
        assert len(snaps[0]["values"][0]) == 2


def test_snapshots_share_their_times(tmp_path):
    # a ladder that takes COARSE levels: the probe member keeps its c-step
    # trial, so every member marches 4 steps and at stride 2 writes the
    # states at t = 0, T/2 and T
    cfg = parse_config(json.dumps({"model": {"preset": "free"},
                                   "data": {"kind": "plane-wave", "k": [1]},
                                   "output": {"stride": 2}}), kind="solve")
    assert run(cfg, out_dir=str(tmp_path)) == 0
    health = json.loads((tmp_path / "report.json").read_text())["verdict"]["health"]
    assert {(h["levels"], h["steps"]) for h in health.values()} == {(COARSE, COARSE)}
    T = cfg["evolution"]["T"]
    paths = sorted(tmp_path.glob("snapshots-eps-*.json"))
    assert len(paths) == len(cfg["ladder"])
    for path in paths:
        snaps = json.loads(path.read_text())
        assert [snap["t"] for snap in snaps] == [0.0, T / 2, T], path.name


def test_solve_holds_the_data_fixed(tmp_path):
    # every member starts from the one field: mollified at each eps, the
    # t = 0 rows would differ along the ladder
    cfg = parse_config(cfg_text(model={"preset": "delta-potential"},
                                data={"kind": "rough"}, evolution={"T": 0.1}))
    assert run(cfg, out_dir=str(tmp_path)) == 0
    starts = []
    for path in sorted(tmp_path.glob("norms-eps-*.csv")):
        with path.open() as fh:
            starts.append([r for r in csv.DictReader(fh) if float(r["t"]) == 0.0])
    assert len(starts) == len(cfg["ladder"])
    assert starts[0] and all(rows == starts[0] for rows in starts)


_ULTRA = {"grid": {"n": 2, "M": 32, "L": 8}, "scale": {"kind": "power", "k": 1}}


@pytest.mark.parametrize("cfg, status, levels", [
    ({**_ULTRA, "model": {"preset": "ultra-diagonal", "params": {"nu": 0.3}}}, 0, LEVELS),
    ({**_ULTRA, "model": {"preset": "ultra-diagonal",
                          "params": {"nu": 0.3, "c2": -0.5}}}, 0, COARSE),
    ({"model": {"preset": "delta-potential"}}, 2, None)],
    ids=["ultra-diagonal", "ultra-diagonal-c2", "delta-potential"])
def test_consistency_on_the_ultrahyperbolic_class(tmp_path, cfg, status, levels):
    # ultra-diagonal perturbs a11 and a22 by the C_b^inf enveloped bump, so
    # its classical problem is marched, and with the power k = 1 scale the
    # error falls as eps^2; a delta potential has no classical problem
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert main(["consistency", str(path), "--out", str(tmp_path / "out")]) == status
    if status:
        return
    verdict = json.loads((tmp_path / "out" / "report.json").read_text())["verdict"]
    assert verdict["pass"] is True
    assert verdict["slope"] == pytest.approx(2.0, abs=0.01)
    assert {(h["levels"], h["steps"]) for h in verdict["health"].values()} == {
        (levels, levels)}


class TestToleranceDefaults:
    """A verdict's bound is the constant of vwsnet that its fit reads."""

    def test_net_n_cap(self, tmp_path):
        cfg = parse_config(cfg_text(experiment={"kind": "net"},
                                    evolution={"T": 0.1, "s": [0.0, 1.0]}))
        run(cfg, out_dir=str(tmp_path))
        fits = json.loads((tmp_path / "report.json").read_text())["verdict"]["moderateness"]
        assert set(fits) == {"0.0", "1.0"}
        assert {fit["bound"] for fit in fits.values()} == {10.0}

    def test_consistency_final_error(self, tmp_path):
        cfg = parse_config(cfg_text(experiment={"kind": "consistency"},
                                    model={"preset": "smooth-consistency"},
                                    evolution={"T": 0.1}))
        run(cfg, out_dir=str(tmp_path))
        verdict = json.loads((tmp_path / "report.json").read_text())["verdict"]
        assert verdict["bound"] == 1e-4


class TestZeroRule:
    """A value that round-off zeroed has no logarithm, so the fit has no
    exponent: slope and residual are nan, and the verdict fails."""

    @pytest.mark.parametrize("q, zeros", [(12, 3), (25, 5)])
    def test_uniqueness_on_a_zeroed_difference_fails(self, tmp_path, q, zeros):
        # eps^q bumps below round-off of u: the march gives a difference of
        # exactly 0.0 on the smallest eps (at q = 12 the rest once fitted
        # slope 286.95, and at q = 25 every value is 0.0)
        cfg = parse_config(json.dumps({
            "grid": {"n": 1, "M": 32, "L": 8}, "model": {"preset": "delta-potential"},
            "evolution": {"T": 0.1}, "experiment": {"q": q}}), kind="uniqueness")
        assert run(cfg, out_dir=str(tmp_path)) == 1
        verdict = json.loads((tmp_path / "report.json").read_text())["verdict"]
        assert list(verdict["values"].values()).count(0.0) == zeros
        assert verdict["slope"] == verdict["residual"] == "nan"

    def test_net_on_zero_data_fails(self, tmp_path):
        cfg = parse_config(cfg_text(experiment={"kind": "net"},
                                    data={"amplitude": 0}, evolution={"T": 0.1}))
        assert run(cfg, out_dir=str(tmp_path)) == 1
        fit, = json.loads((tmp_path / "report.json").read_text())[
            "verdict"]["moderateness"].values()
        assert set(fit["values"].values()) == {0.0}
        assert fit["slope"] == fit["residual"] == "nan"
        assert fit["passed"] is False


def test_close_epsilons_write_apart(tmp_path):
    # 0.50000001 and 0.5 agree to six significant digits
    cfg = parse_config(cfg_text(ladder=[0.50000001, 0.5],
                                evolution={"T": 0.01, "dt": 1e-3},
                                output={"stride": 5}))
    assert run(cfg, out_dir=str(tmp_path)) == 0
    for stem, ext in (("norms", "csv"), ("snapshots", "json")):
        assert sorted(p.name for p in tmp_path.glob(f"{stem}-eps-*")) == [
            f"{stem}-eps-0.5.{ext}", f"{stem}-eps-0.50000001.{ext}"]


class TestRunReportContract:
    def test_failed_write_keeps_the_earlier_report(self, tmp_path, monkeypatch):
        cfg = parse_config(cfg_text(experiment={"kind": "validate-hypotheses"}))
        assert run(cfg, out_dir=str(tmp_path)) == 0
        first = (tmp_path / "report.json").read_text()

        def truncate_and_fail(path, *args, **kwargs):
            path.open("w").close()
            raise OSError("disk full")

        monkeypatch.setattr(Path, "write_text", truncate_and_fail)
        with pytest.raises(OSError, match="disk full"):
            run(cfg, out_dir=str(tmp_path))
        monkeypatch.undo()
        assert (tmp_path / "report.json").read_text() == first
        assert [p.name for p in tmp_path.iterdir()] == ["report.json"]

    def test_crash_gives_exit_3_and_error_field(self, tmp_path, capsys):
        # a 3-step ladder passes parse for solve but breaks the net pipeline
        cfg = parse_config(cfg_text(ladder=[0.5, 0.25, 0.125]))
        cfg["experiment"]["kind"] = "net"
        status = run(cfg, out_dir=str(tmp_path))
        assert status == 3
        assert "net: ERROR" in capsys.readouterr().out
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["all_pass"] is False
        assert report["verdict"]["error"].startswith("ModelError: ")
        assert report["verdict"]["traceback"].startswith("Traceback")
        assert "ModelError" in report["verdict"]["traceback"].splitlines()[-1]

    def test_hypothesis_failure_names_the_check(self, tmp_path):
        cfg = parse_config(json.dumps({"model": {"preset": "elliptic-lipschitz"}}),
                           kind="net")
        assert run(cfg, out_dir=str(tmp_path)) == 1
        verdict = json.loads((tmp_path / "report.json").read_text())["verdict"]
        assert verdict["failures"] == ["(H3) eps-variation 0.73 against 0.10"]
        assert verdict["hypotheses"]["passed"] is False
        assert "error" not in verdict

    def test_uniqueness_on_an_invalid_net_exits_1(self, tmp_path):
        # the net fails (H3), so no slope is fitted on it
        cfg = parse_config(json.dumps({"model": {"preset": "elliptic-lipschitz"}}),
                           kind="uniqueness")
        assert run(cfg, out_dir=str(tmp_path)) == 1
        verdict = json.loads((tmp_path / "report.json").read_text())["verdict"]
        assert "slope" not in verdict
        assert verdict["failures"] == ["(H3) eps-variation 0.73 against 0.10"]

    @pytest.mark.parametrize("kind", ["validate-hypotheses", "net", "uniqueness"])
    def test_failed_hypothesis_is_one_outcome(self, tmp_path, capsys, kind):
        # a net that fails (H2) and (H3) is a verdict that ran and failed in
        # every subcommand that validates it, with the same failed checks
        cfg = parse_config(json.dumps({
            "grid": {"n": 2, "M": 16, "L": 8},
            "model": {"preset": "ultra-diagonal",
                      "params": {"nu": 2.0, "width": 0.5}},
            "evolution": {"T": 0.1}}), kind=kind)
        assert run(cfg, out_dir=str(tmp_path)) == 1
        assert f"{kind}: FAIL" in capsys.readouterr().out
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["all_pass"] is False
        assert report["verdict"]["failures"] == [
            "(H2) eps-variation of mu 0.662 against 0.05",
            "(H3) eps-variation 0.573 against 0.10"]

    @pytest.mark.parametrize("c2, status", [(-0.05, 0), (-0.02, 3)])
    def test_uniqueness_drops_the_eps_whose_perturbation_breaks_h2(self, tmp_path,
                                                                   c2, status):
        # with q = 1 the eps-perturbation of a(x) flips the sign of det a(x)
        # at some nodes for eps = 2^-3 (c2 = -0.05), and for 2^-3 to 2^-5
        # (c2 = -0.02), though no eigenvalue is zero at a node
        cfg = parse_config(json.dumps({
            "grid": {"n": 2, "M": 16, "L": 8},
            "model": {"preset": "ultra-diagonal",
                      "params": {"c2": c2, "nu": 0.0, "c0": 0.0}},
            "evolution": {"T": 0.1}, "experiment": {"q": 1}}), kind="uniqueness")
        assert run(cfg, out_dir=str(tmp_path)) == status
        verdict = json.loads((tmp_path / "report.json").read_text())["verdict"]
        if status == 0:
            assert verdict["extra"]["dropped_eps"] == [0.125]
            assert set(verdict["health"]) == {str(e) for e in cfg["ladder"][1:]}
        else:
            assert verdict["error"] == ("NetError: fewer than 4 usable epsilons "
                                        "(dropped [0.125, 0.0625, 0.03125])")

    @pytest.mark.parametrize("kind, model", [("uniqueness", "delta-potential"),
                                             ("consistency", "smooth-consistency")])
    def test_dt_above_the_bound_gives_exit_3(self, tmp_path, kind, model):
        # the remainder bounds of these problems lie between 1.6 and 8.4
        cfg = parse_config(cfg_text(experiment={"kind": kind},
                                    model={"preset": model},
                                    evolution={"T": 0.5, "dt": 20.0}))
        assert run(cfg, out_dir=str(tmp_path)) == 3
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["verdict"]["error"].startswith("EvolveError: dt = 20.0 exceeds")
        assert "traceback" in report["verdict"]

    def test_dt_above_the_bound_names_the_eps(self, tmp_path):
        # the CI crash config: the step rule checks the members in ladder
        # order, so the base problem of the first member's pair is named
        cfg = parse_config('{"model": {"preset": "delta-potential"}, '
                           '"evolution": {"dt": 20.0}}', kind="uniqueness")
        assert run(cfg, out_dir=str(tmp_path)) == 3
        error = json.loads((tmp_path / "report.json").read_text())["verdict"]["error"]
        assert error.startswith("EvolveError: dt = 20.0 exceeds stability bound ")
        assert error.endswith(f" of problem 0 of 2 for eps = {cfg['ladder'][0]!r}")
        assert cfg["ladder"][0] == 0.125

    def test_instability_gives_exit_3(self, tmp_path, monkeypatch):
        # without its stability bound, one step of T = 0.5 blows up
        monkeypatch.setattr(evolve, "stable_dt", lambda cs: np.inf)
        model = {"preset": "delta-potential", "params": {"strength": 100.0}}
        cfg = parse_config(cfg_text(experiment={"kind": "uniqueness"}, model=model,
                                    evolution={"T": 0.5, "dt": 0.5}))
        assert run(cfg, out_dir=str(tmp_path)) == 3
        verdict = json.loads((tmp_path / "report.json").read_text())["verdict"]
        assert verdict["pass"] is False
        assert verdict["error"].startswith("Instability: norm grew x")
        assert "in one step at t = 0" in verdict["error"]
        # the largest eps, marched first in ladder order, blows up first
        assert f"for eps = {cfg['ladder'][0]!r};" in verdict["error"]
        assert verdict["traceback"].splitlines()[-1].startswith(
            "vwslab.evolve.Instability: norm grew x")

    def test_instability_in_the_consistency_ladder_is_named(self, tmp_path, monkeypatch):
        # one step of T = 0.5, about 20 times the classical problem's bound
        # of 0.026, blows it up first: it is the first of the lockstep, and
        # its unmollified coefficients have eps 0.0
        monkeypatch.setattr(evolve, "stable_dt", lambda cs: np.inf)
        model = {"preset": "smooth-consistency", "params": {"v_amplitude": 100.0}}
        cfg = parse_config(cfg_text(experiment={"kind": "consistency"}, model=model,
                                    evolution={"T": 0.5, "dt": 0.5}))
        assert run(cfg, out_dir=str(tmp_path)) == 3
        verdict = json.loads((tmp_path / "report.json").read_text())["verdict"]
        assert verdict["error"].startswith("Instability: norm grew x")
        assert "in one step at t = 0 (dt = 0.5) for eps = 0.0;" in verdict["error"]

    def test_net_report_holds_each_march(self, tmp_path):
        # the net-1d-delta benchmark config
        cfg = parse_config(json.dumps({
            "grid": {"n": 1, "M": 256, "L": 8}, "model": {"preset": "delta-potential"},
            "scale": {"kind": "loglog"}, "data": {"kind": "delta"},
            "evolution": {"T": 0.125, "s": [0.0, 1.0]}, "experiment": {"kind": "net"}}))
        assert run(cfg, out_dir=str(tmp_path)) == 0
        health = json.loads((tmp_path / "report.json").read_text())["verdict"]["health"]
        assert set(health) == {str(eps) for eps in cfg["ladder"]}
        for h in health.values():
            assert h["steps"] == 16
            assert h["dt"] == pytest.approx(0.125 / 16, rel=1e-15)

    @pytest.mark.parametrize("kind, model, dt", [
        ("uniqueness", "delta-potential", "auto"),
        ("consistency", "smooth-consistency", "auto"),
        ("consistency", "smooth-consistency", 0.01)])
    def test_compared_report_holds_each_march(self, tmp_path, kind, model, dt):
        # the loglog consistency verdict fails on this grid; the report
        # still holds the marches.  With dt "auto" both ladders take COARSE
        # levels, and the smallest eps, the probe, keeps its trial at that
        # count.
        cfg = parse_config(cfg_text(experiment={"kind": kind}, model={"preset": model},
                                    evolution={"T": 0.5, "dt": dt}))
        run(cfg, out_dir=str(tmp_path))
        verdict = json.loads((tmp_path / "report.json").read_text())["verdict"]
        assert "error" not in verdict
        assert set(verdict["health"]) == {str(eps) for eps in cfg["ladder"]}
        assert "health" not in verdict["extra"]
        for h in verdict["health"].values():
            assert h["steps"] == (50 if dt != "auto" else COARSE)
            assert h["dt"] * h["steps"] == pytest.approx(0.5, rel=1e-12)

    @pytest.mark.parametrize("kind, model, data, T, levels", [
        ("solve", "smooth-consistency", "gaussian", 0.1, COARSE),
        ("net", "smooth-consistency", "gaussian", 0.1, COARSE),
        ("uniqueness", "delta-potential", "gaussian", 0.5, COARSE),
        ("consistency", "smooth-consistency", "gaussian", 0.5, COARSE),
        # the trapezoid smoothing integrals at 4 levels miss by more than TOL
        ("solve", "delta-potential", "gaussian", 0.5, LEVELS),
        ("net", "delta-potential", "delta", 0.5, LEVELS)])
    def test_health_reports_the_level_probe(self, tmp_path, kind, model, data, T,
                                            levels):
        cfg = parse_config(cfg_text(experiment={"kind": kind}, model={"preset": model},
                                    data={"kind": data}, evolution={"T": T}))
        run(cfg, out_dir=str(tmp_path))
        health = json.loads((tmp_path / "report.json").read_text())["verdict"]["health"]
        probe = cfg["ladder"][-1]
        assert set(health) == {str(eps) for eps in cfg["ladder"]}
        for h in health.values():
            assert set(h) == {"dt", "steps", "levels", "probe_eps", "probe_gap"}
            assert (h["levels"], h["probe_eps"]) == (levels, probe)
            assert (h["probe_gap"] <= TOL) == (levels == COARSE)
            # one count per ladder: a ladder at COARSE levels keeps the
            # probe's COARSE trial
            assert h["steps"] == levels

    def test_given_dt_reports_no_probe(self, tmp_path):
        cfg = parse_config(cfg_text(experiment={"kind": "net"},
                                    evolution={"T": 0.5, "dt": 0.01}))
        assert run(cfg, out_dir=str(tmp_path)) == 0
        health = json.loads((tmp_path / "report.json").read_text())["verdict"]["health"]
        for h in health.values():
            assert h == {"dt": pytest.approx(0.01, rel=1e-12), "steps": 50,
                         "levels": None, "probe_eps": None, "probe_gap": None}

    def test_deterministic_reports(self, tmp_path):
        cfg = parse_config(cfg_text(
            experiment={"kind": "validate-hypotheses"},
            model={"preset": "delta-potential"}))
        texts = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert run(cfg, out_dir=str(out)) == 0
            report = json.loads((out / "report.json").read_text())
            del report["timings"]
            texts.append(json.dumps(report, sort_keys=True))
        assert texts[0] == texts[1]

    def test_report_keys_sorted(self, tmp_path):
        cfg = parse_config(cfg_text(
            experiment={"kind": "validate-hypotheses"},
            model={"preset": "free"}))
        run(cfg, out_dir=str(tmp_path))
        text = (tmp_path / "report.json").read_text()
        assert text == json.dumps(json.loads(text), indent=2, sort_keys=True)


@pytest.mark.parametrize("grid, slopes, status", [
    ({"n": 1, "M": 1024, "L": 1.0}, (-1.0, -0.5, -1.5), 0),
    ({"n": 2, "M": 256, "L": np.pi}, (-1.0, -1.0, -2.0), 0),
    # h = 1/4 does not resolve omega down to 2^-7: the slopes flatten
    ({"n": 1, "M": 64, "L": 8.0}, None, 1)], ids=["1d", "2d", "1d-coarse"])
def test_mollifier_bench(tmp_path, grid, slopes, status):
    # the delta boost tends to -(s + l + n/2) with s = -1, the jump's
    # derivative to -1
    cfg = parse_config(json.dumps({"grid": grid,
                                   "experiment": {"kind": "mollifier-bench"}}))
    assert run(cfg, out_dir=str(tmp_path)) == status
    got = json.loads((tmp_path / "report.json").read_text())["verdict"]["slopes"]
    if slopes is not None:
        for name, want in zip(("jump_beta1", "delta_boost_l1", "delta_boost_l2"),
                              slopes):
            assert got[name] == pytest.approx(want, abs=0.2), name


def test_doi_check_negative_ladder(tmp_path):
    # 2D M = 16 ultra-diagonal with nu 2.0, width 0.5: the escape gap drifts
    # 26x down the ladder and the Doi margin turns negative at eps = 2^-7
    cfg = parse_config(json.dumps({
        "grid": {"n": 2, "M": 16, "L": 8},
        "model": {"preset": "ultra-diagonal", "params": {"nu": 2.0, "width": 0.5}}}),
        kind="doi-check")
    assert run(cfg, out_dir=str(tmp_path)) == 1
    per_eps = json.loads((tmp_path / "report.json").read_text())["verdict"]["per_eps"]
    assert [e["eps"] for e in per_eps] == cfg["ladder"]
    assert [e["min_gap"] for e in per_eps] == [
        -0.3289960726880674, -0.3699066985842776, -0.8352872909884954,
        -4.239364059930011, -8.719215575396461]
    assert [e["min_margin"] for e in per_eps] == [0.0, 0.0, 0.0, 0.0,
                                                  -0.20822995825919388]


def test_doi_check_weighs_by_the_model_N(tmp_path):
    # with c2 = -0.3 the Doi margins of eps <= 2^-5 are not clamped at 0 and
    # move with f's exponent; at c2 = -1 they do not (only eps = 2^-7 is
    # unclamped there, and its margin is the same for N = 2 and 3)
    cfg = parse_config(json.dumps({
        "grid": {"n": 2, "M": 16, "L": 8},
        "model": {"preset": "ultra-diagonal",
                  "params": {"nu": 2.0, "width": 0.5, "c2": -0.3, "N": 3}}}),
        kind="doi-check")
    assert run(cfg, out_dir=str(tmp_path)) == 1
    per_eps = json.loads((tmp_path / "report.json").read_text())["verdict"]["per_eps"]
    model = cli._model(cfg)
    params = cli._net_params(cfg, cli._grid(cfg))
    sets = [m["cs"] for m in ladder(model, params).values()]
    reports = {N: [{"eps": eps, **check_member(cs, FTable(calibrate_K(sets), N))}
                   for eps, cs in zip(cfg["ladder"], sets)] for N in (2, 3)}
    assert per_eps == reports[3] != reports[2]
    # d's exact xi-gradient: fd4 of d read -0.9529582984558007 and
    # -3.2034220982747894 at eps = 2^-6 and 2^-7
    assert [e["min_margin"] for e in per_eps][3:] == [-0.21944768008199386,
                                                      -0.6295509838898735]


def _doi_ultra_config():
    path = (Path(__file__).resolve().parents[1] / "perfbench" / "workloads"
            / "doi-2d-ultra.json")
    return parse_config(path.read_text(encoding="utf-8"), kind="doi-check")


def test_doi_check_builds_the_q_of_build_q(tmp_path):
    # the pipeline's q, evaluated block by block, is doi.build_q's on the
    # sets of vwsnet.ladder, the q that the doi tests check: K is that of
    # the whole build_q symbols, to the bit
    cfg = _doi_ultra_config()
    assert run(cfg, out_dir=str(tmp_path)) == 0
    verdict = json.loads((tmp_path / "report.json").read_text())["verdict"]
    model = cli._model(cfg)
    params = cli._net_params(cfg, cli._grid(cfg))
    sets = [m["cs"] for m in ladder(model, params).values()]
    assert verdict["K"] == 1.1 * max(_sup_over_x(build_q(cs)) for cs in sets)
    assert verdict["C1"] == C1


def test_doi_check_holds_no_ladder_of_symbols(tmp_path):
    # one (x, xi) array of 2D M = 16 is 512 KB; holding the q of every
    # member, values and x-gradient, for K's calibration peaked at 9.4 MiB,
    # and evaluating q a block of x-rows at a time peaks at 1.6 MiB
    cfg = _doi_ultra_config()
    assert run(cfg, out_dir=str(tmp_path)) == 0
    tracemalloc.start()
    try:
        assert run(cfg, out_dir=str(tmp_path)) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * 8 * cli._grid(cfg).size**2


def test_import_loads_no_scipy_and_no_numpy_ma(tmp_path):
    # scipy.linalg doubles the resident set; only the dense oracle, which
    # the tests alone call, may import it.  numpy.ma costs about 20 ms to
    # import, and np.median imports it on its first call.  Each benchmark
    # workload, and a 1D delta-potential hypothesis check, whose V reaches
    # the median of the exponent fit, is run after the import, in the same
    # interpreter.
    src = Path(vwslab.__file__).resolve().parents[1]
    workloads = sorted((Path(__file__).resolve().parents[1] / "perfbench"
                        / "workloads").glob("*.json"))
    assert workloads
    hypotheses = tmp_path / "hypotheses.json"
    hypotheses.write_text(json.dumps({"model": {"preset": "delta-potential"},
                                      "experiment": {"kind": "validate-hypotheses"}}))
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(
               filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    code = ("import sys, pathlib, vwslab.cli as cli\n"
            "for i, path in enumerate(sys.argv[1:]):\n"
            "    cfg = cli.parse_config(pathlib.Path(path).read_text())\n"
            "    assert cli.run(cfg, out_dir=str(i)) == 0, path\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'\n"
            "             or m.split('.')[:2] == ['numpy', 'ma']))")
    out = subprocess.run([sys.executable, "-c", code, *map(str, workloads), str(hypotheses)],
                         env=env, cwd=tmp_path, check=True, capture_output=True,
                         text=True).stdout
    assert out.splitlines()[-1] == "[]"


_WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads"
_CALLS = [
    ("net", _WORKLOADS / "net-1d-delta.json"),
    ("uniqueness", _WORKLOADS / "uniq-2d-ultra.json"),
    ("doi-check", _WORKLOADS / "doi-2d-ultra.json"),
    ("solve", {"grid": {"n": 1, "M": 32, "L": 8}, "model": {"preset": "delta-potential"},
               "ladder": [0.5], "evolution": {"T": 0.1}}),
    ("consistency", {"grid": {"n": 1, "M": 32, "L": 8},
                     "model": {"preset": "smooth-consistency"},
                     "scale": {"kind": "power", "k": 1}, "evolution": {"T": 0.1}}),
    ("validate-hypotheses", {"grid": {"n": 1, "M": 32, "L": 8},
                             "model": {"preset": "delta-potential"}}),
    ("mollifier-bench", {"grid": {"n": 1, "M": 1024, "L": 1}})]


@pytest.mark.parametrize("kind, config", _CALLS, ids=[kind for kind, _ in _CALLS])
def test_a_call_loads_only_the_layers_it_runs(tmp_path, kind, config):
    # doi is the largest module to compile and argparse is read by main()
    # alone: importing vwslab.cli loads neither, parse_config loads doi for
    # doi-check only, so that its compile is set-up, and run loads nothing
    # more.  One fresh interpreter per subcommand.
    if isinstance(config, dict):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
    else:
        path = config
    src = Path(vwslab.__file__).resolve().parents[1]
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(
               filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    code = ("import json, sys, pathlib, vwslab.cli as cli\n"
            "def loaded():\n"
            "    return sorted({'argparse', 'vwslab.doi'} & set(sys.modules))\n"
            "stages = [loaded()]\n"
            "cfg = cli.parse_config(pathlib.Path(sys.argv[1]).read_text(), kind=sys.argv[2])\n"
            "stages.append(loaded())\n"
            "status = cli.run(cfg, out_dir='out')\n"
            "print(json.dumps([status, stages + [loaded()]]))")
    out = subprocess.run([sys.executable, "-c", code, str(path), kind],
                         env=env, cwd=tmp_path, check=True, capture_output=True,
                         text=True).stdout
    layers = ["vwslab.doi"] if kind == "doi-check" else []
    assert json.loads(out.splitlines()[-1]) == [0, [[], layers, layers]]


class TestMain:
    def test_help_lists_every_default_of_the_schema(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        lines = capsys.readouterr().out.splitlines()
        block = lines[lines.index("Defaults (applied by parse_config):") + 1:]
        assert [line.split()[0] for line in block[:len(cli._SCHEMA)]] == list(cli._SCHEMA)
        assert "  grid        n=1, M=64, L=8.0" in block
        assert ("  data        kind=\"gaussian\", width=1.0, amplitude=1.0, "
                "k=[1], s=0.0") in block

    def test_config_error_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(cfg_text(moolifier={}))
        assert main(["solve", str(path)]) == 2
        assert "config.moolifier" in capsys.readouterr().err

    def test_missing_file_exits_2(self, tmp_path):
        assert main(["solve", str(tmp_path / "nope.json")]) == 2

    def test_solve_end_to_end(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(cfg_text(ladder=[0.5],
                                 evolution={"T": 0.1, "dt": 1e-3}))
        out = tmp_path / "out"
        assert main(["solve", str(path), "--out", str(out)]) == 0
        assert (out / "report.json").exists()
        assert "PASS" in capsys.readouterr().out

    def test_seed_override_recorded(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(cfg_text(ladder=[0.5],
                                 evolution={"T": 0.1, "dt": 1e-3}))
        out = tmp_path / "out"
        assert main(["solve", str(path), "--out", str(out),
                     "--seed", "7"]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["config"]["seed"] == 7
