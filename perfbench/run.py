"""vwslab benchmark: real `vws` calls, each in a fresh interpreter.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Every repetition starts one child
interpreter (``child.py``) that imports ``vwslab`` from ``src/``, parses the
workload config and calls ``vwslab.cli.run`` on it, one repetition after
the other: a closed loop with one client, as a user calling ``vws`` pays.

``--trace 0`` measures the end-to-end metrics: a few set-up-only children,
then whole calls until ``--seconds`` are used up (at least MIN_REPS).  The
times reported are scaled to a fixed host speed (see ``host_scaled``).
``--trace 1`` alternates two untraced and two traced calls and reports the
per-layer metrics; the two traced calls must give identical call counts.
Every call is checked against the verdicts pinned in REFERENCE.  The metric
names and units come from BENCHMARK.json; the last line of standard output
is one JSON object with them.  A fuller record of each run, with the
machine and library versions, goes to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

# The whole harness must end within this many seconds of starting.
HARD_LIMIT_S = 170.0
SETUP_REPS = 4
MIN_REPS = 5

# Times are reported at the host speed at which the reference kernel of
# child.py takes this long (about its time on an idle 2-vCPU Xeon VM).
KERNEL_S = 0.05

# One thread per child: no BLAS or OpenMP worker threads beside the main one.
CHILD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
             "MKL_NUM_THREADS": "1"}

# workload -> (vws subcommand, files the call must write besides report.json)
WORKLOADS = {
    "net-1d-delta": ("net", 5),
    "uniq-2d-ultra": ("uniqueness", 0),
    "doi-2d-ultra": ("doi-check", 0),
}

# Verdict numbers pinned from the seed commit: path in report["verdict"] ->
# (value, absolute tolerance).  The slopes are log-log fits over ln(16) of
# epsilon, so 0.02 allows a systematic 5% drift of the norms across the
# ladder: far above the truncation error of any accurate time stepper,
# far below what a wrong one gives.  doi-check does no time stepping, so its
# numbers only carry rounding error.
REFERENCE = {
    "net-1d-delta": {
        ("moderateness", "0.0", "slope"): (0.3529347594536282, 0.02),
        ("moderateness", "1.0", "slope"): (0.9371786542915308, 0.02),
    },
    "uniq-2d-ultra": {
        ("slope",): (2.99965337639834, 0.02),
    },
    "doi-2d-ultra": {
        ("K",): (8.818879159643826, 1e-5),
        ("C2_variation",): (0.0, 1e-9),
    },
}

BYTES_PER_VALUE = 16  # complex128


class BenchError(RuntimeError):
    pass


def check_outputs(workload: str, out_dir: Path) -> str | None:
    """Return why the call's outputs are wrong, or None when they are right."""
    try:
        report = json.loads((out_dir / "report.json").read_text("utf-8"))
    except (OSError, ValueError) as exc:
        return f"report.json unreadable: {exc}"
    if report.get("all_pass") is not True:
        return f"all_pass is not true: {report.get('verdict')}"
    for path, (want, tol) in REFERENCE[workload].items():
        got = report["verdict"]
        for key in path:
            got = got.get(key) if isinstance(got, dict) else None
        if not isinstance(got, (int, float)) or not abs(got - want) <= tol:
            return f"{'.'.join(path)} = {got}, pinned {want} +- {tol}"
    csvs = len(list(out_dir.glob("*.csv")))
    if csvs != WORKLOADS[workload][1]:
        return f"{csvs} CSV files, expected {WORKLOADS[workload][1]}"
    return None


class Harness:
    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.kind = WORKLOADS[workload][0]
        self.config = HERE / "workloads" / f"{workload}.json"
        self.seed = seed
        self.start = time.perf_counter()
        self._ids = itertools.count()

    def remaining(self) -> float:
        return HARD_LIMIT_S - (time.perf_counter() - self.start)

    def call(self, mode: str) -> dict:
        """Run one child; its record gains ``wall_s`` and ``error``."""
        name = f"{self.workload}-{os.getpid()}-{next(self._ids)}"
        out_dir = OUT / "work" / name
        cmd = [sys.executable, str(HERE / "child.py"), str(SRC), self.kind,
               str(self.config), str(out_dir), str(self.seed), mode]
        timeout = max(1.0, self.remaining())
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                                  text=True, timeout=timeout,
                                  env={**os.environ, **CHILD_ENV})
        except subprocess.TimeoutExpired:
            shutil.rmtree(out_dir, ignore_errors=True)
            return {"error": f"timed out after {timeout:.0f} s",
                    "wall_s": time.perf_counter() - t0}
        wall = time.perf_counter() - t0
        try:
            rec = json.loads(proc.stdout.strip().splitlines()[-1])
        except (IndexError, ValueError):
            rec = {}
        rec["wall_s"] = wall
        if not rec:
            tail = proc.stderr.strip().splitlines()[-3:]
            rec["error"] = f"exit {proc.returncode}, no result: {tail}"
        elif not Path(rec["vwslab_file"]).resolve().is_relative_to(SRC):
            rec["error"] = f"imported vwslab from {rec['vwslab_file']}"
        elif proc.returncode != 0 or rec["status"] != 0:
            rec["error"] = f"exit {proc.returncode}"
        elif mode != "setup":
            rec["error"] = check_outputs(self.workload, out_dir)
        else:
            rec["error"] = None
        shutil.rmtree(out_dir, ignore_errors=True)
        return rec

    def timed(self, seconds: float) -> tuple:
        """Set-up children, then whole calls until the time is used up."""
        self.call("setup")  # compiles bytecode and warms the file cache
        deadline = time.perf_counter() + seconds
        setups = [self.call("setup") for _ in range(SETUP_REPS)]
        reps = []
        while True:
            reps.append(self.call("run"))
            last = reps[-1]["wall_s"]
            if self.remaining() < 2.0 * last:
                break
            if len(reps) >= MIN_REPS and time.perf_counter() + last > deadline:
                break
        return setups, reps

    def traced(self) -> tuple:
        """Untraced and traced calls, two of each, alternating."""
        self.call("setup")
        base, traced = [], []
        for _ in range(2):
            base.append(self.call("run"))
            traced.append(self.call("trace"))
        return base, traced


def host_scaled(rec: dict) -> dict:
    """The call's times at the host speed where KERNEL_S holds.

    Each time is divided by the reference kernel timed next to it in the
    same child (``child.reference``) and multiplied by KERNEL_S.
    """
    out = {}
    if "ref_setup_s" in rec:
        out["setup_s"] = rec["setup_s"] * KERNEL_S / rec["ref_setup_s"]
    if "ref_run_s" in rec:
        ref = (rec["ref_setup_s"] + rec["ref_run_s"]) / 2.0
        out["run_s"] = rec["run_s"] * KERNEL_S / ref
    return out


def end_to_end(setups: list, reps: list) -> dict:
    """Metric -> (median, median wall value, sample count).

    Medians over the calls that passed; all calls if none did.  The times
    are host-scaled (``host_scaled``); the wall-clock median is kept beside
    them for the record.
    """
    good = [r for r in reps if not r["error"]] or reps
    good_setups = [r for r in setups if not r["error"]]
    values = {}
    for key, pool in (("setup_s", good_setups + good), ("run_s", good),
                      ("peak_rss_mb", good)):
        pool = [r for r in pool if key in r]
        if not pool:
            continue
        wall = [r[key] for r in pool]
        scaled = wall if key == "peak_rss_mb" else [
            host_scaled(r)[key] for r in pool]
        values[key] = (statistics.median(scaled), statistics.median(wall),
                       len(pool))
    return values


def per_layer(base: list, traced: list, grid_size: int) -> tuple:
    """Per-layer values from the traced calls, and any count mismatch."""
    if any("run_s" not in r for r in base + traced):
        return {}, {}, "a call gave no result"
    tables = [r["trace"] for r in traced]
    first = tables[0]
    mismatch = None
    for other in tables[1:]:
        diff = [n for n in first if other[n]["calls"] != first[n]["calls"]]
        if diff:
            mismatch = f"call counts differ between traced runs: {diff}"
    values, table = {}, {}
    for name, row in first.items():
        self_s = statistics.median(t[name]["self_s"] for t in tables)
        table[name] = {"calls": row["calls"], "self_s": self_s}
        values[f"{name}.calls"] = row["calls"]
        values[f"{name}.self_s"] = self_s
    fft = (first["grid.forward"]["calls"] + first["grid.inverse"]["calls"]
           + 2 * first["grid.spectral_derivative"]["calls"])
    values["grid.fft_count"] = fft
    values["grid.fft_mb"] = fft * grid_size * BYTES_PER_VALUE * 2 / 1e6
    values["evolve.states_mb"] = traced[0]["states_mb"]
    values["cli.import_s"] = statistics.median(
        r["import_s"] for r in base + traced)
    values["trace.overhead_s"] = (
        statistics.median(r["run_s"] for r in traced)
        - statistics.median(r["run_s"] for r in base))
    return values, table, mismatch


def machine(recs: list) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = "unknown"
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                             cwd=ROOT, capture_output=True, text=True,
                             timeout=10)
        lines = top.stdout.split()
        if top.returncode == 0 and Path(lines[0]).resolve() == ROOT:
            commit = lines[1]
    except (OSError, subprocess.TimeoutExpired, IndexError):
        pass
    versions = next((r for r in recs if "numpy" in r), {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": versions.get("numpy"),
        "scipy": versions.get("scipy"),
        "commit": commit,
    }


def main(argv: list | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "vwslab" / "cli.py").is_file():
        raise BenchError(f"no vwslab sources under {SRC}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    harness = Harness(args.workload, args.seed)
    grid = json.loads(harness.config.read_text("utf-8"))["grid"]

    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace}
    problems = []
    if args.trace:
        base, traced = harness.traced()
        calls = reps = base + traced
        values, table, mismatch = per_layer(base, traced,
                                            grid["M"] ** grid["n"])
        counts = {k: (v, None, len(traced)) for k, v in values.items()}
        if mismatch:
            problems.append(mismatch)
        record["trace_table"] = table
        record["computed"] = ["grid.fft_count", "grid.fft_mb"]
    else:
        setups, reps = harness.timed(args.seconds)
        calls = setups + reps
        counts = end_to_end(setups, reps)
        problems += [f"set-up call: {r['error']}" for r in setups if r["error"]]
    failed = sum(1 for r in reps if r["error"])
    problems += [r["error"] for r in reps if r["error"]]

    missing = [m["name"] for m in wanted if m["name"] not in counts]
    if missing:
        raise BenchError(f"no value for {missing}; failures: {problems}")
    metrics = {m["name"]: {"value": counts[m["name"]][0], "unit": m["unit"]}
               for m in wanted}
    record.update(machine=machine(calls), failures=problems,
                  attempted=len(reps), failed=failed,
                  calls=[{k: v for k, v in r.items() if k != "trace"}
                         for r in calls],
                  metrics=metrics)
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=2, sort_keys=True), "utf-8")

    print(f"{args.workload} seed {args.seed}: {len(reps)} calls, {failed} "
          f"failed, fail_rate {failed / len(reps):g}; record in {path}")
    for problem in problems:
        print(f"  FAIL {problem}")
    for m in wanted:
        value, wall, n = counts[m["name"]]
        wall = "" if wall is None else f", wall median {wall:.6g}"
        print(f"  {m['name']:32s} {value:14.6g} {m['unit']:6s} (n={n}{wall})")
    if args.trace:
        print(f"  {'span':32s} {'calls':>9s} {'self_s':>10s}")
        for name, row in sorted(table.items()):
            print(f"  {name:32s} {row['calls']:9d} {row['self_s']:10.4f}")
    print(json.dumps({"correct": not problems, "attempted": len(reps),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (BenchError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(2)
