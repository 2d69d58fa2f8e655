#!/usr/bin/env python3
"""qhelab benchmark: end-to-end and per-layer metrics for one workload.

Run from the repository root:

    python3 bench/run.py --workload qhe_trap_mc --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20 --trace 1

One run, in one process (closed loop, one client, QHELAB_WORKERS unset):

1. set-up time: SETUP_PROBES fresh interpreters each import qhelab, build
   the workload's inputs from the seed and make one warm-up call; the
   median is `setup_s`;
2. one warm-up pass, discarded (the first pass runs slower);
3. measured passes until `--seconds` of pass time has been spent; with
   `--workload all` the workloads' passes are interleaved and peak_rss_mb
   is that of the whole process;
4. with `--trace 1`, one more pass under the tracer (bench/tracer.py),
   which gives the per-layer metrics and the tracing overhead.

Every pass checks its outputs (see bench/workloads.py).  The last line
of standard output is one JSON object with the keys correct, attempted,
failed and metrics: the end-to-end metrics with `--trace 0`, the
per-layer metrics with `--trace 1`.  Lines before it record the machine
and each workload's pass times and report digests.
"""

import time

_START = time.perf_counter()  # set-up probes time from interpreter entry

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
SRC = ROOT / "src"
SETUP_PROBES = 5

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "outcomes_per_s": "1/s",
    "peak_rss_mb": "MiB",
}

_CALLS_SELF = [
    "qsim.measure", "qsim.trace_distance", "harness.teleport_symbolic",
    "harness.measure_with", "harness.bell_measure_with",
    "harness.Transcript.record", "linpoly.run_scheme4",
    "linpoly.run_scheme8", "linpoly.run_scheme10", "qhe_core.t_gate_step",
    "qhe_core.garden_hose", "qhe_core.run_scheme5", "qhe_core.run_scheme6",
    "rebit_schemes.run_scheme2", "seclab.bob_view", "linalg.eigvalsh",
]
LAYERS = ["qsim", "harness", "rebit", "rebit_schemes", "linpoly", "qhe_core",
          "seclab", "cli", "linalg"]
PER_LAYER = {
    "qsim.apply_gate.calls": "count",
    "qsim.apply_gate.self_s": "s",
    "qsim.apply_gate.max_width": "qubits",
    "qsim.apply_gate.amp_bytes_computed": "bytes",
    "qsim.QuantumState.init.calls": "count",
    "qsim.outcome_probability.per_measure": "ratio",
    **{f"{name}.{field}": unit for name in _CALLS_SELF
       for field, unit in (("calls", "count"), ("self_s", "s"))},
    "qhe_core.run_scheme6.trial_ms_p50": "ms",
    "qhe_core.run_scheme6.trial_ms_p90": "ms",
    "harness.enumerate.attempts": "count",
    "harness.enumerate.leaves": "count",
    "harness.enumerate.leaf_ratio": "ratio",
    "harness.hidden_bits.drawn": "count",
    "seclab.bob_view.max_dim": "dim",
    "seclab.privacy_distance.self_s": "s",
    "linalg.eigvalsh.max_dim": "dim",
    "cli.main.self_s": "s",
    **{f"{layer}.{field}": unit for layer in LAYERS
       for field, unit in (("calls", "count"), ("self_s", "s"))},
    "checks.failed_frac": "ratio",
    "trace.overhead": "ratio",
}


def _cap_threads():
    """Cap BLAS threads at the cores this process may use, before numpy is
    imported; keep the CLI in-process."""
    nproc = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        try:
            want = int(os.environ.get(var, nproc))
        except ValueError:
            want = nproc
        os.environ[var] = str(max(1, min(want, nproc)))
    os.environ.pop("QHELAB_WORKERS", None)
    return nproc


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help=argparse.SUPPRESS)
    return p.parse_args(argv)


# --- passes ------------------------------------------------------------------

class WorkloadRun:
    """Pass times, check tallies and report digests of one workload."""

    def __init__(self, name, calls):
        self.name = name
        self.calls = calls
        self.pass_s = []
        self.warmup_s = None
        self.traced_s = None
        self.checks = 0
        self.failures = []
        self.outcomes = None
        self.digests = None

    def run_pass(self):
        outcomes, digests = 0, {}
        t0 = time.perf_counter()
        for call in self.calls:
            try:
                out = call.run()
            except Exception:  # a raising call is a failed check, not a crash
                self.checks += 1
                self.failures.append(f"{call.label}: raised\n"
                                     + traceback.format_exc(limit=3))
                continue
            self.checks += out.checks
            self.failures.extend(f"{call.label}: {m}" for m in out.failures)
            outcomes += out.outcomes
            digests[call.label] = out.digest
        elapsed = time.perf_counter() - t0
        self.checks += 1
        if self.digests is None:
            self.outcomes, self.digests = outcomes, digests
        elif digests != self.digests or outcomes != self.outcomes:
            self.failures.append("pass did not repeat the first pass's "
                                 "reports byte for byte")
        return elapsed


def measure(names, seed, seconds, trace):
    from workloads import WORKLOADS
    runs = [WorkloadRun(name, WORKLOADS[name](seed)) for name in names]
    for run in runs:
        run.warmup_s = run.run_pass()
    pending = list(runs)
    while pending:
        for run in pending:
            run.pass_s.append(run.run_pass())
        pending = [r for r in pending if sum(r.pass_s) < seconds]
    tracers = {}
    if trace:
        from tracer import Tracer
        for run in runs:
            with Tracer() as tracer:
                run.traced_s = run.run_pass()
            tracers[run.name] = tracer
    return runs, tracers


def setup_seconds(name, seed):
    """Median set-up time over SETUP_PROBES fresh interpreters."""
    values = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", name, "--seed", str(seed), "--seconds", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        values.append(json.loads(proc.stdout.splitlines()[-1])["setup_s"])
    return statistics.median(values)


def setup_probe(name, seed):
    from workloads import WARMUP_ARGV, WORKLOADS, cli_call
    WORKLOADS[name](seed)
    out = cli_call(WARMUP_ARGV[name]).run()
    if out.failures:
        raise RuntimeError(f"warm-up call failed: {out.failures}")
    print(json.dumps({"setup_s": time.perf_counter() - _START}))


# --- metrics -----------------------------------------------------------------

def end_to_end(run, setup_s):
    wall = statistics.median(run.pass_s)
    return {
        "setup_s": setup_s,
        "wall_s": wall,
        "outcomes_per_s": run.outcomes / wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024,
    }


def per_layer(run, tracer):
    from tracer import Stat
    stats, counters = tracer.stats, tracer.counters
    layers = {layer: Stat() for layer in LAYERS}
    for name, stat in stats.items():
        layers[name.split(".")[0]].calls += stat.calls
        layers[name.split(".")[0]].self_s += stat.self_s
    trials = [1000 * d for d in stats["qhe_core.run_scheme6"].durations]
    derived = {
        "qsim.outcome_probability.per_measure": _ratio(
            stats["qsim.outcome_probability"].calls,
            stats["qsim.measure"].calls),
        "qhe_core.run_scheme6.trial_ms_p50": _percentile(trials, 50),
        "qhe_core.run_scheme6.trial_ms_p90": _percentile(trials, 90),
        "harness.enumerate.leaf_ratio": _ratio(
            counters.get("harness.enumerate.leaves", 0),
            counters.get("harness.enumerate.attempts", 0)),
        "checks.failed_frac": _ratio(len(run.failures), run.checks),
        "trace.overhead": run.traced_s / statistics.median(run.pass_s),
    }
    spans = {**stats, **layers}
    out = {}
    for metric in PER_LAYER:
        base, _, field = metric.rpartition(".")
        if metric in derived:
            out[metric] = derived[metric]
        elif base in spans and field in ("calls", "self_s"):
            out[metric] = getattr(spans[base], field)
        else:
            out[metric] = counters.get(metric, 0)
    return out


def _ratio(num, den):
    return num / den if den else 0.0


def _percentile(values, q):
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def environment(nproc):
    import platform
    import numpy as np
    env = {"nproc": nproc, "python": platform.python_version(),
           "numpy": np.__version__,
           "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"])}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        env["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        env["blas"] = "unknown"
    env["git_sha"] = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
        if proc.returncode == 0:
            env["git_sha"] = proc.stdout.strip()
    for level in ("LEVEL2_CACHE_SIZE", "LEVEL3_CACHE_SIZE"):
        try:
            proc = subprocess.run(["getconf", level], capture_output=True,
                                  text=True, timeout=30)
            env[level.lower() + "_bytes"] = int(proc.stdout.strip())
        except (OSError, ValueError, subprocess.SubprocessError):
            env[level.lower() + "_bytes"] = None
    env["note"] = ("byte counts are computed from array sizes, not measured "
                   "traffic; one 4096x4096 float64 view is 128 MiB, larger "
                   "than L3")
    return env


def _emit(result):
    print(json.dumps(result, sort_keys=True), flush=True)


def main(argv=None):
    args = _parse(argv)
    if not (SRC / "qhelab" / "cli.py").is_file():
        sys.stderr.write(f"qhelab sources not found under {SRC}; run from "
                         "a checkout of the repository\n")
        return 2
    nproc = _cap_threads()
    sys.path[:0] = [str(SRC), str(BENCH)]
    from workloads import WORKLOADS
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if any(name not in WORKLOADS for name in names):
        sys.stderr.write(f"unknown workload {args.workload!r}; choose from "
                         f"{sorted(WORKLOADS)} or all\n")
        return 2
    if args.setup_probe:
        setup_probe(names[0], args.seed)
        return 0

    setups = {name: None if args.trace else setup_seconds(name, args.seed)
              for name in names}
    runs, tracers = measure(names, args.seed, args.seconds, args.trace)
    _emit({"env": environment(nproc)})
    results = {}
    for run in runs:
        _emit({"workload": run.name, "passes": len(run.pass_s),
               "pass_s": run.pass_s, "warmup_s": run.warmup_s,
               "traced_s": run.traced_s, "outcomes_per_pass": run.outcomes,
               "report_sha256": run.digests, "failures": run.failures[:5]})
        if args.trace:
            values = per_layer(run, tracers[run.name])
            units = PER_LAYER
        else:
            values = end_to_end(run, setups[run.name])
            units = END_TO_END
        failed = len(run.failures)
        results[run.name] = {
            "correct": failed == 0, "attempted": run.checks,
            "failed": failed,
            "metrics": {name: {"value": values[name], "unit": unit}
                        for name, unit in units.items()}}
    if len(runs) == 1:
        final = results[names[0]]
    else:
        for name, result in results.items():
            _emit({"workload": name, **result})
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {f"{name}.{metric}": value
                             for name, r in results.items()
                             for metric, value in r["metrics"].items()}}
    _emit(final)
    return 0  # a printed result carries its own verdict in "correct"


if __name__ == "__main__":
    sys.exit(main())
