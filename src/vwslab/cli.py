"""Experiment runner: JSON configs in, JSON verdicts and CSV norm series out.

A config is a JSON object of the sections listed below with their
defaults; parse_config fills in every key a config leaves out.  The
subcommand sets experiment.kind.  For consistency the mollifier kind
defaults to "vanishing-moment", and "gaussian" is rejected; data.width must
be positive; vws solve writes each state of levels 0, k, 2k, ... with its
t for an output.stride k > 0, and none for 0.  net and solve report every
order of evolution.s; uniqueness and consistency judge only the first,
params.s_list[0].  model.params takes only its preset's parameters.

mollifier-bench fits over its own omega ladder under its own scale: a
config for it that sets scale or ladder is rejected.

Only doi-check loads the Doi symbol layer, doi, and only solve, net,
uniqueness and consistency load the march layer, evolve (``_LAYERS``);
parse_config imports them, so that report.json's wall_seconds times the
experiment and not the import.
"""

from __future__ import annotations

import copy
import csv
import importlib
import json
import math
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .coeffs import ModelError, preset
from .grid import Field, GridSpec, plane_wave
from .mollify import (Mollifier, ScaleFn, derivative_bound_probe,
                      sobolev_boost_probe)
from .vwsnet import (FitReport, HypothesisFailure, NetParams, consistency_run,
                     delta_field, gaussian_field, ladder, moderateness_fit, rough_field,
                     run_net, solve_ladder, uniqueness_probe, validate)


class ConfigError(ValueError):
    pass


# ---------------------------------------------------------------------------
# config parsing

#: a nested section, or a leaf (expected, default): the expected type is a
#: type, a tuple of types, or [types] for a list whose entries have those
#: types
_SCHEMA = {
    "grid": {"n": (int, 1), "M": (int, 64), "L": ((int, float), 8.0)},
    "model": {"preset": (str, "free"), "params": (dict, {})},
    "mollifier": {"kind": (str, "gaussian"), "moment_order": (int, 4)},
    "scale": {"kind": (str, "loglog"), "k": ((int, float), 1.0)},
    "ladder": ([(int, float)], [2.0**-3, 2.0**-4, 2.0**-5, 2.0**-6, 2.0**-7]),
    "data": {"kind": (str, "gaussian"), "width": ((int, float), 1.0),
             "amplitude": ((int, float), 1.0), "k": ([int], [1]),
             "s": ((int, float), 0.0)},
    "evolution": {"T": ((int, float), 0.5), "dt": ((int, float, str), "auto"),
                  "s": ([(int, float)], [0.0])},
    "experiment": {"kind": (str, None), "q": (int, 3)},
    "output": {"directory": (str, "out"), "stride": (int, 0)},
    "seed": (int, 0),
}


def _defaults(schema: dict) -> dict:
    return {key: _defaults(entry) if isinstance(entry, dict) else entry[1]
            for key, entry in schema.items()}


_DEFAULTS = _defaults(_SCHEMA)


def _defaults_help(defaults: dict) -> str:
    """The defaults block of ``vws --help``, one line per section."""
    lines = ["Defaults (applied by parse_config):"]
    for key, value in defaults.items():
        text = (", ".join(f"{k}={json.dumps(v)}" for k, v in value.items())
                if isinstance(value, dict) else json.dumps(value))
        lines.append(f"  {key:<11} {text}")
    return "\n".join(lines)


def _check_keys(section: dict, schema: dict, path: str) -> None:
    for key, value in section.items():
        if key not in schema:
            raise ConfigError(f"unknown key {path}.{key}")
        entry = schema[key]
        if isinstance(entry, dict):
            if not isinstance(value, dict):
                raise ConfigError(f"{path}.{key} must be an object")
            _check_keys(value, entry, f"{path}.{key}")
        elif isinstance(entry[0], list):
            _check_type(value, list, f"{path}.{key}")
            for i, item in enumerate(value):
                _check_type(item, entry[0][0], f"{path}.{key}[{i}]")
        else:
            _check_type(value, entry[0], f"{path}.{key}")


def _check_type(value, expected, path: str) -> None:
    # bool is a subclass of int, but no config value is a JSON boolean
    if isinstance(value, bool) or not isinstance(value, expected):
        raise ConfigError(f"{path} has wrong type {type(value).__name__}")


def _check_values(value, path: str) -> None:
    """Python's json reads NaN and +-Infinity; no config value may be one,
    nor a boolean, here in the model parameters, which the schema leaves
    untyped, too."""
    if isinstance(value, dict):
        for key, item in value.items():
            _check_values(item, f"{path}.{key}")
    elif isinstance(value, list):
        for i, item in enumerate(value):
            _check_values(item, f"{path}[{i}]")
    elif isinstance(value, bool):
        raise ConfigError(f"{path} must not be a boolean, got {json.dumps(value)}")
    elif isinstance(value, float) and not math.isfinite(value):
        raise ConfigError(f"{path} must be a finite number, got {value}")


def _merge(defaults, given):
    if not isinstance(defaults, dict):
        return given
    out = dict(defaults)
    for key, value in given.items():
        out[key] = _merge(defaults.get(key), value) if isinstance(value, dict) \
            else value
    return out


def parse_config(text: str, kind: str | None = None) -> dict:
    """Validate a JSON experiment config and fill documented defaults."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config root must be an object")
    _check_keys(raw, _SCHEMA, "config")
    cfg = _merge(copy.deepcopy(_DEFAULTS), raw)
    if kind is not None:
        stated = cfg["experiment"]["kind"]
        if stated is not None and stated != kind:
            raise ConfigError(f"config.experiment.kind={stated!r} conflicts "
                              f"with subcommand {kind!r}")
        cfg["experiment"]["kind"] = kind
    kind = cfg["experiment"]["kind"]
    if kind not in EXPERIMENT_KINDS:
        raise ConfigError(f"config.experiment.kind must be one of "
                          f"{EXPERIMENT_KINDS}")
    if kind == "consistency":
        # the rate needs a data mollifier with vanishing moments
        if "kind" not in raw.get("mollifier", {}):
            cfg["mollifier"]["kind"] = "vanishing-moment"
        elif cfg["mollifier"]["kind"] == "gaussian":
            raise ConfigError("config.mollifier.kind: consistency needs vanishing-moment")

    # the grid, mollifier, scale, net and model classes own their allowed values;
    # float() of a bad model parameter raises ValueError or TypeError, and of
    # an integer past the float range (json reads any) OverflowError
    for section, build in (
            ("grid", _grid), ("mollifier", _data_mollifier), ("scale", _scale),
            ("ladder", lambda c: NetParams(_grid(c), tuple(c["ladder"]))),
            ("model", _model)):
        try:
            build(cfg)
        except (ValueError, TypeError, OverflowError) as exc:
            raise ConfigError(f"config.{section}: {exc}") from exc
    if len(cfg["ladder"]) < 4 and kind not in ("solve", "mollifier-bench"):
        raise ConfigError("config.ladder needs at least 4 epsilon values")
    _check_values(cfg, "config")

    if not cfg["evolution"]["s"]:
        raise ConfigError("config.evolution.s needs at least one Sobolev order")
    if cfg["evolution"]["T"] <= 0:
        raise ConfigError("config.evolution.T must be positive")
    if cfg["data"]["width"] <= 0:
        raise ConfigError("config.data.width must be positive")
    dt = cfg["evolution"]["dt"]
    if isinstance(dt, str) and dt != "auto":
        raise ConfigError('config.evolution.dt must be a number or "auto"')
    if isinstance(dt, (int, float)) and dt <= 0:
        raise ConfigError("config.evolution.dt must be positive")
    if cfg["data"]["kind"] not in _DATA:
        raise ConfigError(f"config.data.kind {cfg['data']['kind']!r} not "
                          f"recognised; choose from {tuple(_DATA)}")
    if cfg["data"]["kind"] == "plane-wave" and len(cfg["data"]["k"]) != cfg["grid"]["n"]:
        raise ConfigError("config.data.k needs one mode number per axis of the grid")
    if cfg["experiment"]["q"] < 1:
        raise ConfigError("config.experiment.q must be >= 1")
    if cfg["output"]["stride"] < 0:
        raise ConfigError("config.output.stride must be >= 0")
    if kind == "mollifier-bench":
        # the bench fits over its own omega ladder; the filled config keeps
        # only what the bench reads, so that its report's config parses again
        for key in ("ladder", "scale"):
            if key in raw:
                raise ConfigError(f"config.{key} is not read by mollifier-bench")
            del cfg[key]
    for layer in _LAYERS.get(kind, ()):
        importlib.import_module(f".{layer}", __package__)
    return cfg


# ---------------------------------------------------------------------------
# config -> objects


def _grid(cfg) -> GridSpec:
    g = cfg["grid"]
    return GridSpec(g["n"], g["M"], float(g["L"]))


def _scale(cfg) -> ScaleFn:
    return ScaleFn(cfg["scale"]["kind"], k=float(cfg["scale"]["k"]))


def _data_mollifier(cfg) -> Mollifier:
    m = cfg["mollifier"]
    return Mollifier(m["kind"], order=m["moment_order"])


def _model(cfg):
    params = cfg["model"]["params"]
    if "n" in params:
        raise ModelError("params.n is not a model parameter: grid.n sets "
                         "the dimension")
    model = preset(cfg["model"]["preset"], n=cfg["grid"]["n"], **params)
    if cfg["experiment"]["kind"] == "consistency" and not model.smooth:
        raise ModelError("consistency requires a smooth-coefficient model")
    return model


#: data.kind -> the Cauchy data, built from (spec, config.data, config.seed)
_DATA = {
    "gaussian": lambda spec, d, seed: gaussian_field(spec, d["width"], d["amplitude"]),
    "delta": lambda spec, d, seed: delta_field(spec),
    "plane-wave": lambda spec, d, seed: plane_wave(spec, tuple(int(k) for k in d["k"])),
    "rough": lambda spec, d, seed: rough_field(spec, float(d["s"]), seed=seed),
}


def _data(cfg, spec: GridSpec) -> Field:
    return _DATA[cfg["data"]["kind"]](spec, cfg["data"], cfg["seed"])


def _net_params(cfg, spec: GridSpec) -> NetParams:
    """The net of cfg."""
    ev = cfg["evolution"]
    dt = None if ev["dt"] == "auto" else float(ev["dt"])
    return NetParams(
        spec=spec,
        eps_ladder=tuple(cfg["ladder"]),
        scale=_scale(cfg),
        T=float(ev["T"]),
        dt=dt,
        s_list=tuple(float(s) for s in ev["s"]),
        data_mollifier=_data_mollifier(cfg),
    )


# ---------------------------------------------------------------------------
# experiment pipelines (each returns a JSON-able verdict dict)


def _run_validate_hypotheses(cfg, out: Path) -> dict:
    model = _model(cfg)
    report = validate(model, ladder(model, _net_params(cfg, _grid(cfg))))
    d = report.to_dict()
    return {"pass": d.pop("passed"), **d, "failures": report.failures()}


def _run_doi_check(cfg, out: Path) -> dict:
    # parse_config has loaded doi (see _LAYERS), so this only binds it; its
    # functions are read from it at call time, so that a wrapper bound in
    # doi after import, as perfbench's tracer binds, is the one called
    from . import doi

    model = _model(cfg)
    params = _net_params(cfg, _grid(cfg))
    sets = [m["cs"] for m in ladder(model, params).values()]
    # K needs every member's q first; calibrate_K and check_member each
    # evaluate q a block of x-rows at a time, so only the coefficient sets
    # are held across the ladder
    K = doi.calibrate_K(sets)
    f = doi.FTable(K, model.N)
    per_eps = [{"eps": eps, **doi.check_member(cs, f)}
               for eps, cs in zip(cfg["ladder"], sets)]
    c2s = [e["C2"] for e in per_eps]
    cstars = [e["C_star"] for e in per_eps]
    def variation(vals):
        vals = np.asarray(vals)
        mid = np.mean(np.abs(vals))
        return float(np.ptp(vals) / mid) if mid > 0 else 0.0
    v2, vs = variation(c2s), variation(cstars)
    ok = bool(np.all(np.isfinite(c2s)) and np.all(np.isfinite(cstars))
              and v2 < 0.10 and vs < 0.10)
    return {
        "pass": ok,
        "K": K, "C1": doi.C1,
        "per_eps": per_eps,
        "C2_variation": v2,
        "C_star_variation": vs,
    }


def _write_series(out: Path, eps: float, series) -> None:
    path = out / f"norms-eps-{eps!r}.csv"
    with path.open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["t", "s", "norm", "smooth_integrand", "smooth_integral"])
        for s in sorted(series.norms):
            for i, t in enumerate(series.t):
                w.writerow([f"{t:.12g}", f"{s:g}",
                            f"{series.norms[s][i]:.12g}",
                            f"{series.integrand[s][i]:.12g}",
                            f"{series.integral[s][i]:.12g}"])


def _write_snapshots(out: Path, eps: float, res, stride: int) -> None:
    """The recorded states, each its t and a list of [re, im] per node."""
    if res.states is None:
        return
    snaps = [{"t": t, "values": np.ravel(u).view(float).reshape(-1, 2).tolist()}
             for t, u in zip(res.series.t[::stride].tolist(), res.states)]
    (out / f"snapshots-eps-{eps!r}.json").write_text(
        json.dumps(snaps), encoding="utf-8")


def _run_solve(cfg, out: Path) -> dict:
    # the ladder's coefficients with the Cauchy data held fixed
    spec = _grid(cfg)
    model = _model(cfg)
    params = _net_params(cfg, spec)
    members = ladder(model, params)
    u0 = _data(cfg, spec)
    for m in members.values():
        m["u0"] = u0
    results, health = solve_ladder(members, params, cfg["output"]["stride"])
    sups = {}
    for eps, res in results.items():
        _write_series(out, eps, res.series)
        _write_snapshots(out, eps, res, cfg["output"]["stride"])
        sups[str(eps)] = {str(s): res.series.sup_norm(s)
                          for s in res.series.norms}
    finite = all(np.isfinite(v) for per in sups.values() for v in per.values())
    return {"pass": bool(finite), "sup_norms": sups, "health": health}


def _run_net(cfg, out: Path) -> dict:
    spec = _grid(cfg)
    model = _model(cfg)
    u0 = _data(cfg, spec)
    params = _net_params(cfg, spec)
    report, results, health = run_net(model, u0, params)
    for eps, res in results.items():
        _write_series(out, eps, res.series)
    fits = {str(s): moderateness_fit(results, s).to_dict()
            for s in params.s_list}
    return {
        "pass": all(f["passed"] for f in fits.values()),
        "hypotheses": report.to_dict(),
        "moderateness": fits,
        "health": health,
    }


def _fit_verdict(fit: FitReport) -> dict:
    """A fit as a verdict: "passed" becomes "pass", and the ladder's march
    health moves from its extra to the top, where the net has it."""
    d = fit.to_dict()
    d["pass"] = d.pop("passed")
    d["health"] = d["extra"].pop("health")
    return d


def _run_uniqueness(cfg, out: Path) -> dict:
    spec, model = _grid(cfg), _model(cfg)
    return _fit_verdict(uniqueness_probe(model, cfg["experiment"]["q"], _data(cfg, spec),
                                         _net_params(cfg, spec)))


def _run_consistency(cfg, out: Path) -> dict:
    spec, model = _grid(cfg), _model(cfg)
    return _fit_verdict(consistency_run(model, _data(cfg, spec),
                                        _net_params(cfg, spec)))


def _run_mollifier_bench(cfg, out: Path) -> dict:
    spec = _grid(cfg)
    scale = ScaleFn("power", k=1.0)
    eps = [2.0**-j for j in range(2, 8)]
    x0 = spec.x_mesh()[0]
    jump = Field(spec, np.where(np.sin(np.pi * x0 / spec.L) >= 0, 1.0, -1.0)
                 .astype(complex))
    # the delta lies in H^t for t < -n/2 only, so its mollification at omega
    # has H^{s+l} norm ~ omega^{-(s + l + n/2)}; the jump's derivative ~ 1/omega
    s = -1.0
    probes = {
        "jump_beta1": derivative_bound_probe(jump, (1,) + (0,) * (spec.n - 1),
                                             scale, eps),
        "delta_boost_l1": sobolev_boost_probe(delta_field(spec), s, 1, scale, eps),
        "delta_boost_l2": sobolev_boost_probe(delta_field(spec), s, 2, scale, eps),
    }
    predicted = {"jump_beta1": -1.0,
                 "delta_boost_l1": -(s + 1 + spec.n / 2.0),
                 "delta_boost_l2": -(s + 2 + spec.n / 2.0)}
    rows = [[name, f"{om:.12g}", f"{v:.12g}", f"{pr['slope']:.12g}"]
            for name, pr in probes.items()
            for om, v in zip(pr["omegas"], pr["norms"])]
    with (out / "mollifier-bench.csv").open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["probe", "omega", "sup_norm", "slope"])
        w.writerows(rows)
    ok = all(abs(probes[k]["slope"] - v) < 0.2 for k, v in predicted.items())
    return {"pass": ok,
            "slopes": {k: pr["slope"] for k, pr in probes.items()}}


_PIPELINES = {
    "validate-hypotheses": _run_validate_hypotheses,
    "doi-check": _run_doi_check,
    "solve": _run_solve,
    "net": _run_net,
    "uniqueness": _run_uniqueness,
    "consistency": _run_consistency,
    "mollifier-bench": _run_mollifier_bench,
}
EXPERIMENT_KINDS = tuple(_PIPELINES)

#: experiment.kind -> the layer modules its pipeline runs beyond those
#: imported above.  parse_config imports them, so that their compile counts
#: to a call's set-up, not to the run that report.json times.
_LAYERS = {"doi-check": ("doi",), "solve": ("evolve",), "net": ("evolve",),
           "uniqueness": ("evolve",), "consistency": ("evolve",)}


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.floating, float)):
        v = float(obj)
        return v if np.isfinite(v) else repr(v)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj


def _write_atomic(path: Path, text: str) -> None:
    """Write through a temporary file beside path, so that a failed write
    leaves an earlier file at path whole."""
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_text(text, encoding="utf-8")
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def run(cfg: dict, out_dir: str | None = None, seed: int | None = None,
        verbose: bool = False) -> int:
    """Execute the configured experiment; returns the process exit status."""
    if seed is not None:
        cfg = {**cfg, "seed": seed}
    out = Path(out_dir if out_dir is not None else cfg["output"]["directory"])
    out.mkdir(parents=True, exist_ok=True)
    kind = cfg["experiment"]["kind"]
    t0 = time.perf_counter()
    crashed = False
    try:
        verdict = _PIPELINES[kind](cfg, out)
    except HypothesisFailure as exc:
        # a net that fails (H1)-(H5) is a failed verdict, as in validate-hypotheses
        verdict = {"pass": False, "hypotheses": exc.report.to_dict(),
                   "failures": exc.report.failures()}
    except Exception as exc:
        # a run that could not finish, apart from a verdict that ran and
        # failed; traceback is imported here, off the path of every run
        import traceback

        crashed = True
        verdict = {"pass": False, "error": f"{type(exc).__name__}: {exc}",
                   "traceback": traceback.format_exc()}
    elapsed = time.perf_counter() - t0
    # every pipeline ANDs its nested checks into its own "pass"
    all_pass = verdict["pass"] is True
    report = {
        "config": _jsonable(cfg),
        "verdict": _jsonable(verdict),
        "all_pass": all_pass,
        "timings": {"wall_seconds": elapsed},
        "version": __version__,
    }
    _write_atomic(out / "report.json", json.dumps(report, indent=2, sort_keys=True))
    if verbose:
        print(json.dumps(report["verdict"], indent=2, sort_keys=True))
    outcome = "ERROR" if crashed else "PASS" if all_pass else "FAIL"
    print(f"{kind}: {outcome} ({elapsed:.2f}s, report in {out / 'report.json'})")
    return 3 if crashed else 0 if all_pass else 1


def main(argv: list | None = None) -> int:
    # imported here: only the console script calls main, not parse_config or run
    import argparse

    parser = argparse.ArgumentParser(
        prog="vws",
        description=f"{__doc__}\n{_defaults_help(_DEFAULTS)}",
        formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="kind", required=True)
    for kind in EXPERIMENT_KINDS:
        p = sub.add_parser(kind)
        p.add_argument("config", help="path to the JSON experiment config")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--verbose", action="store_true")
    args = parser.parse_args(argv)
    try:
        text = Path(args.config).read_text(encoding="utf-8")
        cfg = parse_config(text, kind=args.kind)
    except (OSError, ConfigError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return run(cfg, out_dir=args.out, seed=args.seed, verbose=args.verbose)


if __name__ == "__main__":
    sys.exit(main())
