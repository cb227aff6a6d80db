import copy
import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import vwslab
from vwslab import cli, evolve
from vwslab.cli import ConfigError, main, parse_config, run
from vwslab.evolve import LEVELS
from vwslab.vwsnet import COARSE, TOL


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
        ({"preset": "ultra-diagonal"}, "ultra-diagonal is two-dimensional, got n=1")])
    def test_unknown_preset_or_model_parameter(self, tmp_path, capsys, model,
                                               message):
        self.assert_config_error(tmp_path, capsys, cfg_text(model=model),
                                 f"config.model: {message}")

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
        text = cfg_text(experiment={"kind": kind, "tolerances": {name: 0.1}})
        self.assert_config_error(tmp_path, capsys, text,
                                 f"config.experiment.tolerances.{name} is not "
                                 f"read by {kind}")

    @pytest.mark.parametrize("override, path", [
        ({"evolution": {"T": float("nan")}}, "config.evolution.T"),
        ({"experiment": {"kind": "net", "tolerances": {"n_cap": float("nan")}}},
         "config.experiment.tolerances.n_cap"),
        ({"scale": {"kind": "power", "k": float("inf")}}, "config.scale.k"),
        ({"data": {"width": float("-inf")}}, "config.data.width")])
    def test_non_finite_number(self, tmp_path, capsys, override, path):
        # Python's json reads NaN, Infinity and -Infinity
        self.assert_config_error(tmp_path, capsys, cfg_text(**override),
                                 f"{path} must be a finite number")

    @pytest.mark.parametrize("kind", ["net", "uniqueness"])
    def test_no_sobolev_order(self, tmp_path, capsys, kind):
        text = cfg_text(experiment={"kind": kind}, evolution={"s": []})
        self.assert_config_error(tmp_path, capsys, text,
                                 "config.evolution.s needs at least one Sobolev order")

    @pytest.mark.parametrize("override, message", [
        ({"evolution": {"s": [0.0, "1"]}}, "config.evolution.s[1] has wrong type str"),
        ({"data": {"kind": "plane-wave", "k": ["x"]}}, "config.data.k[0] has wrong type str"),
        ({"data": {"k": [1.5]}}, "config.data.k[0] has wrong type float"),
        ({"ladder": 0.5}, "config.ladder has wrong type float")])
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
         "config.model.params.strength must not be a boolean, got true"),
        ({"experiment": {"kind": "net", "tolerances": {"n_cap": True}}},
         "config.experiment.tolerances.n_cap must not be a boolean, got true")])
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
        snaps = json.loads(
            (outcome[1] / "snapshots-eps-0.25.json").read_text())
        assert len(snaps) >= 2
        assert len(snaps[0]) == 32
        assert len(snaps[0][0]) == 2


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


class TestToleranceDefaults:
    """A fit's default tolerance is the keyword default of the fit; a
    config passes only the tolerances it sets."""

    @pytest.mark.parametrize("tolerances, bound", [({}, 10.0), ({"n_cap": 5.0}, 5.0)])
    def test_net_n_cap(self, tmp_path, tolerances, bound):
        cfg = parse_config(cfg_text(experiment={"kind": "net", "tolerances": tolerances},
                                    evolution={"T": 0.1, "s": [0.0, 1.0]}))
        run(cfg, out_dir=str(tmp_path))
        fits = json.loads((tmp_path / "report.json").read_text())["verdict"]["moderateness"]
        assert set(fits) == {"0.0", "1.0"}
        assert {fit["bound"] for fit in fits.values()} == {bound}

    def test_consistency_final_error(self, tmp_path):
        cfg = parse_config(cfg_text(experiment={"kind": "consistency"},
                                    model={"preset": "smooth-consistency"},
                                    evolution={"T": 0.1}))
        run(cfg, out_dir=str(tmp_path))
        verdict = json.loads((tmp_path / "report.json").read_text())["verdict"]
        assert verdict["bound"] == 1e-4


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
        # the probe, the smallest eps, blows up first
        assert f"for eps = {cfg['ladder'][-1]!r};" in verdict["error"]
        assert verdict["traceback"].splitlines()[-1].startswith(
            "vwslab.evolve.Instability: norm grew x")

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
        # still holds the marches.  With dt "auto" the smallest eps, the
        # probe, marches LEVELS and both ladders take COARSE levels.
        cfg = parse_config(cfg_text(experiment={"kind": kind}, model={"preset": model},
                                    evolution={"T": 0.5, "dt": dt}))
        run(cfg, out_dir=str(tmp_path))
        verdict = json.loads((tmp_path / "report.json").read_text())["verdict"]
        assert "error" not in verdict
        assert set(verdict["health"]) == {str(eps) for eps in cfg["ladder"]}
        assert "health" not in verdict["extra"]
        probe = str(cfg["ladder"][-1])
        for eps, h in verdict["health"].items():
            if dt != "auto":
                assert h["steps"] == 50
            else:
                assert h["steps"] == (LEVELS if eps == probe else COARSE)
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
        for eps, h in health.items():
            assert set(h) == {"dt", "steps", "levels", "probe_eps", "probe_gap"}
            assert (h["levels"], h["probe_eps"]) == (levels, probe)
            assert (h["probe_gap"] <= TOL) == (levels == COARSE)
            assert h["steps"] == (LEVELS if float(eps) == probe else levels)

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


def test_import_loads_no_scipy(tmp_path):
    # scipy.linalg doubles the resident set; only the dense oracle, which
    # the tests alone call, may import it.  Each benchmark workload is run
    # after the import, in the same interpreter.
    src = Path(vwslab.__file__).resolve().parents[1]
    workloads = sorted((Path(__file__).resolve().parents[1] / "perfbench"
                        / "workloads").glob("*.json"))
    assert workloads
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(
               filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    code = ("import sys, pathlib, vwslab.cli as cli\n"
            "for i, path in enumerate(sys.argv[1:]):\n"
            "    cfg = cli.parse_config(pathlib.Path(path).read_text())\n"
            "    assert cli.run(cfg, out_dir=str(i)) == 0, path\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code, *map(str, workloads)],
                         env=env, cwd=tmp_path, check=True, capture_output=True,
                         text=True).stdout
    assert out.splitlines()[-1] == "[]"


class TestMain:
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
