"""Self-test of the benchmark at tiny sizes.

Run from the repository root:  python3 -m pytest -q bench/test_bench.py
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run as bench  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, Call, value_call  # noqa: E402

# Counters that depend only on the inputs, never on the clock.
DETERMINISTIC = (".calls", ".max_width", ".amp_bytes_computed", ".max_dim",
                 ".attempts", ".leaves", ".leaf_ratio", ".drawn",
                 ".per_measure")


def traced_run(name):
    run = bench.WorkloadRun(name, WORKLOADS[name](5, tiny=True))
    run.pass_s.append(run.run_pass())
    with Tracer() as tracer:
        run.traced_s = run.run_pass()
    return run, bench.per_layer(run, tracer)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_workload_is_correct_and_counters_repeat(name):
    first, metrics = traced_run(name)
    second, again = traced_run(name)
    assert first.failures == [] and second.failures == []
    assert set(metrics) == set(bench.PER_LAYER)
    assert set(bench.end_to_end(first, 0.1)) == set(bench.END_TO_END)
    counted = {k: v for k, v in metrics.items() if k.endswith(DETERMINISTIC)}
    assert counted == {k: again[k] for k in counted}
    assert first.digests == second.digests
    assert metrics["cli.calls"] >= 1 and metrics["cli.main.self_s"] > 0


def test_layers_reach_their_modules():
    _, mc = traced_run("qhe_trap_mc")
    assert mc["qsim.apply_gate.max_width"] == 13
    assert mc["linpoly.run_scheme4.calls"] > 0
    assert mc["qhe_core.garden_hose.calls"] > 0
    assert mc["qsim.outcome_probability.per_measure"] > 0
    _, sweep = traced_run("small_register_sweep")
    assert 0 < sweep["harness.enumerate.leaf_ratio"] <= 1
    assert sweep["harness.Transcript.record.calls"] > 0
    assert sweep["rebit.calls"] > 0 and sweep["rebit_schemes.calls"] > 0
    _, exact = traced_run("exact_privacy")
    assert exact["linalg.eigvalsh.max_dim"] == exact["seclab.bob_view.max_dim"]
    assert exact["qsim.trace_distance.calls"] > 0


def test_tracer_restores_every_patched_function():
    import numpy as np
    import qhelab.cli  # noqa: F401  (loads every qhelab module)

    def snapshot():
        modules = [m for name, m in sys.modules.items()
                   if name.startswith("qhelab.")] + [np.linalg]
        owners = modules + [v for m in modules for v in vars(m).values()
                            if isinstance(v, type)]
        return {(id(o), k): v for o in owners for k, v in vars(o).items()}

    from qhelab import harness, linpoly, qhe_core, rebit_schemes, seclab
    before = snapshot()
    measure_with, run_scheme4 = harness.measure_with, linpoly.run_scheme4
    with Tracer():
        during = snapshot()
        # every `from ... import` site sees the same wrapper
        assert harness.measure_with is not measure_with
        for module in (linpoly, qhe_core, rebit_schemes, seclab):
            assert module.measure_with is harness.measure_with
        assert qhe_core.run_scheme4 is linpoly.run_scheme4 is not run_scheme4
        assert seclab.run_scheme4 is linpoly.run_scheme4
    assert any(during[key] is not before[key] for key in before)
    after = snapshot()
    assert all(after[key] is before[key] for key in before)


def test_failed_and_raising_checks_are_counted():
    def boom():
        raise RuntimeError("boom")

    run = bench.WorkloadRun("t", [value_call("one", lambda: 1.0, 2.0),
                                  Call("raises", boom)])
    run.pass_s.append(run.run_pass())
    assert len(run.failures) == 2 and run.checks == 3


def test_benchmark_json_matches_emitted_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        bench.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        bench.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def test_refuses_to_run_without_sources(tmp_path):
    (tmp_path / "bench").mkdir()
    for path in BENCH.glob("*.py"):
        (tmp_path / "bench" / path.name).write_text(path.read_text())
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "qhe_trap_mc",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
