"""Tests of the benchmark itself: smoke-size runs of every workload.

    python3 -m pytest perfbench -q

Each run must be correct and print exactly the metrics that BENCHMARK.json
names, each with its unit.  The traced runs must report a layer's numbers
on exactly the workloads that exercise that layer.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from spans import Tracer, check_nesting, self_times

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# per-layer metrics that must be non-zero on each workload; every other span
# time and work count must be zero there (module self times and the tracing
# overhead are not constrained)
EXERCISED = {
    "cauchy_walk": {
        "montecarlo.run_walks_s", "montecarlo.walker_steps", "montecarlo.walker_steps_per_s",
        "montecarlo.walker_steps_per_s_1t", "montecarlo.to_csv_s", "montecarlo.csv_bytes",
        "montecarlo.summary_s", "montecarlo.build_sampler_s", "montecarlo.outcomes",
        "kernel.stability_sigma_s", "kernel.build_kernel_s", "kernel.sites",
        "diagnostics.ks_distance_s", "config.load_s",
    },
    "mixed_density": {
        "analytic.green_density_s", "analytic.ms_per_point", "analytic.points",
        "analytic.terms", "analytic.cdf_s", "analytic.to_csv_s", "config.load_s",
    },
    "study_2d": {
        "analytic.green_density_s", "analytic.ms_per_point", "analytic.points",
        "analytic.terms", "analytic.cdf_s", "montecarlo.run_walks_s",
        "montecarlo.walker_steps", "montecarlo.walker_steps_per_s",
        "montecarlo.build_sampler_s", "montecarlo.outcomes", "kernel.stability_sigma_s",
        "kernel.build_kernel_s", "kernel.sites", "diagnostics.cf_sup_error_s",
        "diagnostics.cf_work", "diagnostics.cf_peak_mb", "diagnostics.ks_distance_s",
        "diagnostics.refinement_study_s", "config.load_s",
    },
    "master_eq_2d": {
        "montecarlo.run_walks_s", "montecarlo.walker_steps", "montecarlo.walker_steps_per_s",
        "montecarlo.build_sampler_s", "montecarlo.outcomes", "montecarlo.histogram_s",
        "kernel.stability_sigma_s", "kernel.build_kernel_s", "kernel.sites",
        "diagnostics.total_variation_s", "evolution.evolve_s", "evolution.steps",
        "evolution.final_sites", "evolution.peak_mb", "evolution.characteristic_function_s",
    },
}
UNCONSTRAINED = {"trace.overhead_s", "trace.wall_s"}


def run_bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_prints_every_metric(workload, trace):
    proc = run_bench("--workload", workload, "--seed", "3", "--seconds", "1",
                     "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m: v["unit"] for m, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted
    }
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name
        if not trace:
            assert metric["value"] > 0, name
        elif name in EXERCISED[workload]:
            assert metric["value"] > 0, name
        elif name not in UNCONSTRAINED and not name.endswith(".self_s"):
            assert metric["value"] == 0, name
    if trace:
        assert result["metrics"]["cli.self_s"]["value"] > 0 or workload == "master_eq_2d"


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", "cauchy_walk", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_self_times_add_up_to_the_root():
    tracer = Tracer()
    with tracer.span("root"):
        with tracer.span("a"):
            with tracer.span("b"):
                pass
        tracer.wrap("c", lambda: None)()
    check_nesting(tracer.spans)
    own = self_times(tracer.spans)
    root = tracer.spans[0]
    assert abs(sum(own) - (root["end"] - root["start"])) < 1e-9
    assert [s["parent"] for s in tracer.spans] == [None, 0, 1, 0]


def test_nesting_check_rejects_overlapping_siblings():
    spans = [
        {"name": "root", "parent": None, "start": 0.0, "end": 3.0},
        {"name": "a", "parent": 0, "start": 0.5, "end": 2.0},
        {"name": "b", "parent": 0, "start": 1.5, "end": 2.5},
    ]
    with pytest.raises(ValueError, match="overlaps"):
        check_nesting(spans)
