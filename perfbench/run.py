"""fracwalk benchmark: time from a `fracwalk` command to a verified answer.

Run from the root of a checkout::

    python3 perfbench/run.py --workload cauchy_walk --seed 1 --seconds 20 --trace 0

Each repetition of the workload runs in a fresh interpreter (``worker.py``)
with ``PYTHONPATH=src``, so it pays the import of ``fracwalk.cli`` like every
CLI call does, and checks its own outputs.  Repetitions run one after another
(a closed loop with one client) until ``--seconds`` have passed, and never
fewer than ``MIN_REPS``.  The workload seed feeds every walker seed; all
repetitions of one run use the same walker seed, so their outputs must be
byte-identical.

``--trace 0`` reports the end-to-end metrics (medians over repetitions).
``setup_s`` and ``wall_s`` are given at a reference CPU speed: one probe
process per CPU (``probe.py``) times a fixed loop every 25 ms, and each
repetition's time is scaled by the probe speed measured while it ran.  On a
shared 2-vCPU Intel Xeon virtual machine the raw time of one repetition
varies by up to 1.7x as other tenants load the cores; the scaled times vary
about half as much run to run.  The raw times are printed beside them.

``--trace 1`` alternates untraced and traced repetitions and reports the
per-layer metrics of the traced ones (raw times), plus the tracing overhead.
``--smoke`` runs the same pipelines at tiny sizes.  The last line of
standard output is one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``;
the lines before it give each metric's median, maximum and sample count and
the environment.  A full report (samples, environment, the spans of the last
traced repetition) is written to ``.perfbench/results/``; compare two reports
with ``perfbench/compare.py``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
STATE = ROOT / ".perfbench"

WORKLOADS = ("cauchy_walk", "mixed_density", "study_2d", "master_eq_2d")
# worker threads per workload; None keeps the command's default (one thread)
THREADS = {"cauchy_walk": 2, "mixed_density": None, "study_2d": None, "master_eq_2d": 2}

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}

# span name -> metric name for the summed span times
SPAN_METRICS = {
    "analytic.green_density": "analytic.green_density_s",
    "analytic.cdf": "analytic.cdf_s",
    "analytic.to_csv": "analytic.to_csv_s",
    "montecarlo.run_walks": "montecarlo.run_walks_s",
    "montecarlo.to_csv": "montecarlo.to_csv_s",
    "montecarlo.summary": "montecarlo.summary_s",
    "montecarlo.build_sampler": "montecarlo.build_sampler_s",
    "montecarlo.histogram": "montecarlo.histogram_s",
    "kernel.stability_sigma": "kernel.stability_sigma_s",
    "kernel.build_kernel": "kernel.build_kernel_s",
    "diagnostics.cf_sup_error": "diagnostics.cf_sup_error_s",
    "diagnostics.ks_distance": "diagnostics.ks_distance_s",
    "diagnostics.total_variation": "diagnostics.total_variation_s",
    "diagnostics.refinement_study": "diagnostics.refinement_study_s",
    "evolution.evolve": "evolution.evolve_s",
    "evolution.characteristic_function": "evolution.characteristic_function_s",
    "config.load": "config.load_s",
}
MODULES = ("cli", "kernel", "montecarlo", "analytic", "diagnostics", "evolution")
COUNTS = {
    "analytic.points": "count",
    "analytic.terms": "count",
    "montecarlo.walker_steps": "count",
    "montecarlo.csv_bytes": "bytes",
    "montecarlo.outcomes": "count",
    "kernel.sites": "count",
    "diagnostics.cf_work": "count",
    "evolution.steps": "count",
    "evolution.final_sites": "count",
}
PEAKS = {"diagnostics.cf_sup_error": "diagnostics.cf_peak_mb",
         "evolution.evolve": "evolution.peak_mb"}

PER_LAYER = {
    **{m: "s" for m in SPAN_METRICS.values()},
    **{f"{m}.self_s": "s" for m in MODULES},
    **COUNTS,
    **{m: "MB" for m in PEAKS.values()},
    "analytic.ms_per_point": "ms",
    "montecarlo.walker_steps_per_s": "1/s",
    "montecarlo.walker_steps_per_s_1t": "1/s",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
}

MIN_REPS = 4  # in a traced run, half of them are traced
HARD_LIMIT_S = 120.0  # no repetition starts after this, whatever MIN_REPS says
REP_TIMEOUT_S = 170.0
# The probe loop (probe.py) takes PROBE_REF_S at the reference CPU speed;
# probe samples within PROBE_PAD_S of a timed interval count towards it.
PROBE_REF_S = 0.0005
PROBE_PAD_S = 0.05
MAX_PROBES = 8
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def walker_seed(workload: str, seed: int) -> int:
    digest = hashlib.sha256(f"{workload}:{seed}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():  # an exported checkout; src_sha256 still identifies it
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def version(package: str) -> str | None:
    try:
        return metadata.version(package)
    except metadata.PackageNotFoundError:
        return None


def environment(seed: int) -> dict:
    """What a comparison between two reports must hold fixed (see compare.py)."""
    return {
        "git_commit": git_commit(),
        "src_sha256": source_digest(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "blas_threads": {v: os.environ.get(v) for v in BLAS_VARS},
        "seed": seed,
        "loadavg": os.getloadavg(),
    }


def run_rep(work: Path, index: int, spec: dict, timeout: float) -> dict:
    """One repetition in a fresh interpreter; returns the worker's result."""
    out = work / f"rep{index}"
    out.mkdir(parents=True)
    spec = dict(spec, out=str(out), root=str(ROOT))
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    start = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, str(HERE / "worker.py"), json.dumps(spec)],
                              cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"ok": False, "error": f"timed out after {timeout:.0f} s", "elapsed": timeout}
    elapsed = time.monotonic() - start
    try:
        result = json.loads((out / "result.json").read_text())
    except (OSError, ValueError):
        result = {"ok": False, "error": f"no result (exit {proc.returncode})"}
    if proc.returncode != 0:
        result["ok"] = False
        result.setdefault("error", f"exit {proc.returncode}")
    if not result["ok"]:
        sys.stderr.write(f"repetition {index} failed: {result.get('error')}\n"
                         f"{result.get('traceback', '')}{proc.stderr[-2000:]}\n")
    else:
        result["spawned_at"] = start
    result["elapsed"] = elapsed
    shutil.rmtree(out, ignore_errors=True)
    return result


def measure(args, work: Path) -> tuple[list[dict], list[dict]]:
    """Timed repetitions until --seconds pass, then the untimed check runs."""
    spec = {"workload": args.workload, "smoke": args.smoke,
            "walker_seed": walker_seed(args.workload, args.seed),
            "threads": THREADS[args.workload]}
    traced_run = bool(args.trace)
    timed = []
    start = time.monotonic()
    while True:
        trace = traced_run and len(timed) % 2 == 1
        left = REP_TIMEOUT_S - (time.monotonic() - start)
        r = run_rep(work, len(timed), dict(spec, trace=trace), left)
        r["traced"] = trace
        timed.append(r)
        elapsed = time.monotonic() - start
        if not r["ok"] or elapsed + r["elapsed"] > HARD_LIMIT_S:
            break
        if len(timed) >= MIN_REPS and elapsed + r["elapsed"] > args.seconds:
            break
    checks = []
    if args.workload == "cauchy_walk" and all(r["ok"] for r in timed):
        # the ensemble must not depend on the thread count (README contract);
        # in the traced run this repetition also gives the 1-thread throughput
        left = REP_TIMEOUT_S - (time.monotonic() - start)
        checks.append(run_rep(work, len(timed), dict(spec, threads=1, trace=traced_run), left))
    return timed, checks


def median_max(values: list[float]) -> tuple[float, float, int]:
    return statistics.median(values), max(values), len(values)


def start_probes() -> list[subprocess.Popen]:
    # one probe per CPU the workload may run on (at most MAX_PROBES of them)
    return [subprocess.Popen([sys.executable, str(HERE / "probe.py"), str(cpu)],
                             stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
            for cpu in sorted(os.sched_getaffinity(0))[:MAX_PROBES]]


def stop_probes(probes: list[subprocess.Popen]) -> list[tuple[float, float]]:
    samples = []
    for p in probes:
        try:
            out, _ = p.communicate(timeout=30)  # closing stdin stops the probe
            samples += json.loads(out)
        except (subprocess.TimeoutExpired, ValueError):
            p.kill()
            p.wait()
    return samples


def at_reference_speed(probe: list, start: float, end: float) -> float:
    """Seconds spent in [start, end], scaled to the probe's reference speed:
    (end - start) * PROBE_REF_S * mean(1 / probe time) over the interval."""
    inv = [1.0 / d for t, d in probe if start - PROBE_PAD_S <= t <= end + PROBE_PAD_S]
    if not inv:
        raise RuntimeError("the CPU speed probe recorded no samples")
    return (end - start) * PROBE_REF_S * statistics.fmean(inv)


def end_to_end(timed: list[dict], probe: list) -> dict:
    ok = [r for r in timed if r["ok"]]
    plain = [r for r in ok if not r["traced"]]
    return {
        "setup_s": [at_reference_speed(probe, r["spawned_at"], r["imported_at"]) for r in ok],
        "wall_s": [at_reference_speed(probe, r["started_at"], r["ended_at"]) for r in plain],
        "peak_rss_mb": [r["peak_rss_mb"] for r in plain],
        "raw_setup_s": [r["imported_at"] - r["spawned_at"] for r in ok],
        "raw_wall_s": [r["wall_s"] for r in plain],
    }


def per_layer(timed: list[dict], checks: list[dict], probe: list) -> dict:
    """Per-layer samples from the traced repetitions."""
    traced = [r for r in timed if r["ok"] and r["traced"]]
    plain = [r for r in timed if r["ok"] and not r["traced"]]
    samples: dict[str, list[float]] = {m: [] for m in PER_LAYER}
    for r in traced:
        tr = r["trace"]
        for span, metric in SPAN_METRICS.items():
            samples[metric].append(tr["span_s"].get(span, 0.0))
        for module in MODULES:
            samples[f"{module}.self_s"].append(tr["self_s"].get(module, 0.0))
        for counter in COUNTS:
            samples[counter].append(tr["counts"].get(counter, 0))
        for span, metric in PEAKS.items():
            samples[metric].append(tr["peak_mb"].get(span, 0.0))
        points = tr["counts"].get("analytic.points", 0)
        green = tr["span_s"].get("analytic.green_density", 0.0)
        samples["analytic.ms_per_point"].append(1e3 * green / points if points else 0.0)
        steps = tr["counts"].get("montecarlo.walker_steps", 0)
        walks = tr["span_s"].get("montecarlo.run_walks", 0.0)
        samples["montecarlo.walker_steps_per_s"].append(steps / walks if walks else 0.0)
        samples["trace.wall_s"].append(r["wall_s"])
    one_thread = [r["trace"] for r in checks if r["ok"] and r.get("trace")]
    for tr in one_thread:
        steps = tr["counts"].get("montecarlo.walker_steps", 0)
        samples["montecarlo.walker_steps_per_s_1t"].append(
            steps / tr["span_s"]["montecarlo.run_walks"])
    if not one_thread:
        samples["montecarlo.walker_steps_per_s_1t"].append(0.0)
    overhead = statistics.median(
        at_reference_speed(probe, r["started_at"], r["ended_at"]) for r in traced
    ) - statistics.median(at_reference_speed(probe, r["started_at"], r["ended_at"]) for r in plain)
    samples["trace.overhead_s"].append(overhead)
    return samples


def consistency_errors(timed: list[dict], checks: list[dict]) -> list[str]:
    """Determinism guard: outputs and work counts repeat exactly."""
    errors = []
    ok = [r for r in timed + checks if r["ok"]]
    if len({r["fingerprint"] for r in ok}) > 1:
        errors.append("outputs differ between repetitions or thread counts: "
                      + ", ".join(sorted({r["fingerprint"][:12] for r in ok})))
    counts = [json.dumps(r["trace"]["counts"], sort_keys=True) for r in ok if r.get("trace")]
    if len(set(counts)) > 1:
        errors.append(f"work counts differ between repetitions: {sorted(set(counts))}")
    for r in ok:
        # self times of all spans must account for the separately timed wall
        tr = r.get("trace")
        if tr and abs(tr["self_total_s"] - r["wall_s"]) > 1e-3:
            errors.append(f"span self times sum to {tr['self_total_s']:.6f} s, "
                          f"wall_s is {r['wall_s']:.6f} s")
    return errors


def write_report(args, report: dict) -> Path:
    results = STATE / "results"
    results.mkdir(parents=True, exist_ok=True)
    kind = "smoke" if args.smoke else "full"
    path = results / f"{args.workload}-{kind}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(report, indent=1))
    return path


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny sizes, for the benchmark's tests")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "fracwalk" / "cli.py").is_file():
        sys.stderr.write(f"error: no fracwalk sources under {ROOT / 'src'}\n")
        return 2
    env = environment(args.seed)
    work = STATE / "work" / f"{args.workload}-{os.getpid()}"
    probes = []
    try:
        # untimed: compiles bytecode and warms the file cache for the imports
        warm = subprocess.run([sys.executable, "-c", "import fracwalk.cli"], cwd=ROOT,
                              env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
                              capture_output=True, text=True, timeout=REP_TIMEOUT_S)
        if warm.returncode != 0:
            sys.stderr.write(f"error: cannot import fracwalk.cli\n{warm.stderr}")
            return 2
        probes = start_probes()
        timed, checks = measure(args, work)
    finally:
        probe = stop_probes(probes)
        shutil.rmtree(work, ignore_errors=True)

    attempted = len(timed) + len(checks)
    failed = sum(not r["ok"] for r in timed + checks)
    e2e = end_to_end(timed, probe)
    if not e2e["wall_s"] or (args.trace and not any(r["ok"] and r["traced"] for r in timed)):
        sys.stderr.write("error: no repetition succeeded\n")
        return 1
    errors = consistency_errors(timed, checks)
    samples = per_layer(timed, checks, probe) if args.trace else e2e
    units = PER_LAYER if args.trace else END_TO_END
    metrics = {m: {"value": statistics.median(samples[m]), "unit": u} for m, u in units.items()}

    printed = units if args.trace else {**units, "raw_setup_s": "s", "raw_wall_s": "s"}
    for m, u in printed.items():
        med, top, n = median_max(samples[m])
        print(f"{m:40s} median {med:<14.6g} max {top:<14.6g} n={n} [{u}]")
    for r in timed + checks:
        if r["ok"]:
            print(f"checks: {json.dumps(r['checks'])}")
            break
    for e in errors:
        print(f"CONSISTENCY FAILURE: {e}")
    print(f"environment: {json.dumps(env)}")

    last_trace = next((r["trace"] for r in reversed(timed) if r.get("trace")), None)
    path = write_report(args, {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "smoke": args.smoke, "environment": env, "attempted": attempted, "failed": failed,
        "errors": errors, "samples": samples, "metrics": metrics,
        "checks": [r.get("checks") for r in timed + checks],
        "spans": last_trace["spans"] if last_trace else None,
    })
    print(f"report: {path.relative_to(ROOT)}")
    print(json.dumps({"correct": failed == 0 and not errors, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
