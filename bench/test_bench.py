"""Self-test of the benchmark, at the smallest size of every workload.

    python3 -m pytest -q bench/test_bench.py

Each run is a fresh process, as the benchmark is meant to be run. The
test checks that every metric BENCHMARK.json names is emitted, that the
traced run sees the layers each workload is meant to exercise, that a
planted wrong answer is counted as failed, and that the benchmark
refuses to run in a directory without the gatesynth source. Workload
inputs depend on the seed alone, and the host-speed sampler scales a
stretch of work by its own chunk times.
"""

import json
import os
import shutil
import subprocess
import sys
import time

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)

WORKLOADS = [w["name"] for w in SPEC["workloads"]]

# Per-layer metrics that must be non-zero on a workload, even at its
# smallest size: the layers the workload exists to exercise.
EXERCISED = {
    "firm-synth": ["formulas.regions", "encoder.ground_s", "encoder.fold_calls",
                   "encoder.grounded_nodes", "encoder.ground_kept_ratio",
                   "encoder.solve_s", "encoder.dpll_s", "encoder.cnf_vars",
                   "encoder.cnf_clauses", "templates.control_bits",
                   "checker.holds_s", "checker.representatives",
                   "app.policy_atoms"],
    "grid-until": ["encoder.encode_s", "encoder.guard_nodes", "encoder.expand_s",
                   "encoder.expanded_nodes", "encoder.ground_s"],
    "office-conflict": ["rules.numeric_values", "templates.build_s",
                        "templates.attempts", "classic.complete_s",
                        "classic.cap_exceeded", "encoder.dpll_s"],
    "replica-verify": ["model.restrict_s", "model.restrict_calls",
                       "formulas.regions_s", "checker.holds_s", "checker.label_s",
                       "checker.representatives"],
}
EVERYWHERE = ["rules.parse_s", "model.load_s", "app.self_s"]


def run(*extra, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, os.path.join(cwd, "bench", "run.py"), "--seed", "3",
         "--seconds", "1", *extra],
        cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc


def result(*extra):
    proc = run("--small", *extra)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(out) == ["attempted", "correct", "failed", "metrics"]
    assert out["attempted"] >= 1
    return out


def test_inputs_depend_on_the_seed_only():
    sys.path.insert(0, BENCH)
    from checkout import use_checkout_source
    use_checkout_source()
    import workloads

    for make in (lambda s: workloads.grid_pool(s, 4, 5),
                 lambda s: workloads.office_conflict_rules(s, False),
                 workloads.firm_rules):
        assert make(7) == make(7)
        assert any(make(7) != make(s) for s in range(8, 12))


def test_spec_names_the_workloads_and_layers():
    assert sorted(WORKLOADS) == sorted(EXERCISED)
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert {"name": "setup_s", "unit": "s", "better": "lower",
            "bound": max(m["bound"] for m in SPEC["end_to_end"])} in SPEC["end_to_end"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload):
    out = result("--workload", workload, "--trace", "0")
    assert out["correct"] and out["failed"] == 0
    metrics = out["metrics"]
    assert sorted(metrics) == sorted(m["name"] for m in SPEC["end_to_end"])
    for m in SPEC["end_to_end"]:
        assert metrics[m["name"]]["unit"] == m["unit"]
        assert metrics[m["name"]]["value"] > 0, m["name"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics(workload):
    out = result("--workload", workload, "--trace", "1")
    assert out["correct"] and out["failed"] == 0
    metrics = out["metrics"]
    assert sorted(metrics) == sorted(m["name"] for m in SPEC["per_layer"])
    for m in SPEC["per_layer"]:
        assert metrics[m["name"]]["unit"] == m["unit"]
    for name in EXERCISED[workload] + EVERYWHERE:
        assert metrics[name]["value"] > 0, name


def test_planted_wrong_verdict_is_counted():
    out = result("--workload", "replica-verify", "--trace", "0",
                 "--plant-wrong-verdict")
    assert not out["correct"]
    assert out["failed"] == out["attempted"]
    assert out["metrics"]["ok_ops"]["value"] == 0


def test_refuses_to_run_without_the_source():
    bare = os.path.join(BENCH, "out", "bare-checkout")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, os.path.join(bare, "bench"),
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    try:
        proc = run("--workload", "firm-synth", "--trace", "0", cwd=bare)
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_pace_scales_work_to_nominal_speed():
    sys.path.insert(0, BENCH)
    import pace as pace_module

    pace = pace_module.Pace()
    pace.start()
    try:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.3:
            sum(i * i for i in range(1000))
        t1 = time.perf_counter()
        time.sleep(2 * pace_module.MARGIN_S)
    finally:
        pace.stop()
    assert len(pace.times) >= 10
    inside = sum(t for s, t in zip(pace.starts, pace.times) if t0 <= s <= t1)
    assert 0 < inside < t1 - t0
    # At a host speed where a chunk takes exactly NOMINAL_CHUNK_S, the
    # result is the wall time less the chunks.
    mean = sum(pace.times) / len(pace.times)
    expected = (t1 - t0 - inside) * pace_module.NOMINAL_CHUNK_S / mean
    assert 0.5 * expected < pace.seconds(t0, t1) < 2 * expected
