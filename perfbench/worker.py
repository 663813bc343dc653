"""One repetition of one benchmark workload, in a fresh interpreter.

``run.py`` starts this script once per repetition::

    python3 perfbench/worker.py '<spec json>'

The spec names the workload, the output directory, the walker seed, the
thread count, whether to trace and whether to use the tiny smoke sizes.  The
script imports ``fracwalk.cli`` (the set-up every CLI call pays), runs the
workload, checks its outputs and writes ``result.json`` into the output
directory.  It exits 1 when the workload fails or a check does not hold.
"""

from __future__ import annotations

import json
import sys
import time

import fracwalk.cli

IMPORTED_AT = time.monotonic()

import contextlib  # noqa: E402  (after the timed import on purpose)
import hashlib  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import yaml  # noqa: E402

import fracwalk as fw  # noqa: E402
from fracwalk import diagnostics  # noqa: E402
from fracwalk.analytic import RadialDensity  # noqa: E402
from fracwalk.config import RunConfig  # noqa: E402
from fracwalk.montecarlo import WalkEnsemble  # noqa: E402

from spans import Tracer, check_nesting, durations, self_times  # noqa: E402

# Workload sizes.  "full" is what the benchmark measures; "smoke" is the same
# pipeline at tiny sizes for the benchmark's own tests.
SIZES = {
    "cauchy_walk": {
        "full": {"h": 0.025, "trunc_radius": 4096, "walkers": 400_000},
        "smoke": {"h": 0.05, "trunc_radius": 256, "walkers": 20_000},
    },
    "mixed_density": {
        "full": {"r_points": 512},
        "smoke": {"r_points": 512, "density_nodes": 4},
    },
    "study_2d": {
        "full": {"h_list": [0.2, 0.1], "walkers": 100_000},
        "smoke": {"h_list": [0.4, 0.2], "walkers": 20_000, "trunc_radius": 8},
    },
    "master_eq_2d": {
        "full": {"h": 0.2, "trunc_radius": 16, "walkers": 200_000},
        "smoke": {"h": 0.4, "trunc_radius": 8, "walkers": 20_000},
    },
}


class CheckFailed(Exception):
    """A workload output violated its correctness check."""


def _steps(tr, ens, *a, **k):
    tr.add("montecarlo.walker_steps", ens.n_steps * ens.n_walkers)


def _outcomes(tr, sampler, *a, **k):
    tr.add("montecarlo.outcomes", sampler.n_outcomes)


def _sites(tr, kernel, *a, **k):
    tr.add("kernel.sites", len(kernel.shells.sites))


def _points(tr, dens, *a, **k):
    tr.add("analytic.points", len(dens.r))
    tr.add("analytic.terms", len(dens.measure.terms))


def _cf_work(tr, _, kernel, n_steps, sym, t, xi_grid):
    # sites x frequencies of the dense phase matrix, computed from the inputs
    tr.add("diagnostics.cf_work", len(kernel.shells.sites) * len(xi_grid))


def _evolved(tr, law, dist, kernel, n_steps, *a, **k):
    tr.add("evolution.steps", n_steps)
    tr.add("evolution.final_sites", law.mass.size)


def _csv_bytes(tr, _, ensemble, path):
    tr.add("montecarlo.csv_bytes", os.path.getsize(path))


# Public fracwalk functions and the span each call is timed as:
# attribute name -> (span name, work counter, track peak memory).
FUNCTION_SPANS = {
    "stability_sigma": ("kernel.stability_sigma", None, False),
    "build_kernel": ("kernel.build_kernel", _sites, False),
    "build_sampler": ("montecarlo.build_sampler", _outcomes, False),
    "run_walks": ("montecarlo.run_walks", _steps, False),
    "histogram": ("montecarlo.histogram", None, False),
    "green_density": ("analytic.green_density", _points, False),
    "cf_sup_error": ("diagnostics.cf_sup_error", _cf_work, True),
    "ks_distance": ("diagnostics.ks_distance", None, False),
    "total_variation": ("diagnostics.total_variation", None, False),
    "refinement_study": ("diagnostics.refinement_study", None, False),
    "evolve": ("evolution.evolve", _evolved, True),
    "characteristic_function": ("evolution.characteristic_function", None, False),
}

# Methods called on library objects by the CLI commands.
METHOD_SPANS = [
    (WalkEnsemble, "to_csv", "montecarlo.to_csv", _csv_bytes),
    (WalkEnsemble, "summary_dict", "montecarlo.summary", None),
    (RadialDensity, "to_csv", "analytic.to_csv", None),
    # the first of these builds the lazy cumulative table
    (RadialDensity, "radial_cdf", "analytic.cdf", None),
    (RadialDensity, "axis_cdf", "analytic.cdf", None),
    (RadialDensity, "mass", "analytic.cdf", None),
    (RunConfig, "from_file", "config.load", None),
]


def traced(tracer: Tracer, module, attr: str):
    name, count, track_memory = FUNCTION_SPANS[attr]
    return tracer.wrap(name, getattr(module, attr), count, track_memory)


def install_cli_spans(tracer: Tracer) -> None:
    """Wrap the public functions where the CLI and the diagnostics call them."""
    for module in (fracwalk.cli, diagnostics):
        for attr in FUNCTION_SPANS:
            if attr in vars(module):
                setattr(module, attr, traced(tracer, module, attr))
    for cls, attr, name, count in METHOD_SPANS:
        setattr(cls, attr, tracer.wrap(name, getattr(cls, attr), count))


def run_cli(tracer: Tracer, command: str, args: list[str]) -> None:
    with tracer.span(f"cli.{command}"):
        try:
            fracwalk.cli.main.main(args=[command, *args], standalone_mode=False)
            code = 0
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
    if code != 0:
        raise CheckFailed(f"fracwalk {command} exited with code {code}")


def file_digest(path: Path) -> tuple[str, int]:
    """(SHA-256, number of lines) of a file."""
    digest, lines = hashlib.sha256(), 0
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            digest.update(block)
            lines += block.count(b"\n")
    return digest.hexdigest(), lines


def write_config(out: Path, cfg: dict) -> str:
    path = out / "config.yaml"
    path.write_text(yaml.safe_dump(cfg))
    return str(path)


# --------------------------------------------------------------------------
# workloads: each returns (checks, fingerprint); the fingerprint must repeat
# exactly for one seed, in every process and at every thread count


def cauchy_walk(spec, size, out, tracer):
    """simulate, 1D Cauchy law: walk engine and CSV writer, closed-form KS."""
    cfg = write_config(out, {"measure": {"atoms": [[1.0, 1.0]]}, "dim": 1, "t": 1.0,
                             "theta": 0.5, **size})
    run_cli(tracer, "simulate", ["--config", cfg, "--out", str(out),
                                 "--seed", str(spec["walker_seed"]),
                                 "--threads", str(spec["threads"])])
    with tracer.span("bench.check"):
        summary = json.loads((out / "summary.json").read_text())
        sha, lines = file_digest(out / "ensemble.csv")
        rows = lines - 1
        if summary.get("ks_reference") != "cauchy" or not summary["ks"] <= 0.03:
            raise CheckFailed(f"ks {summary.get('ks')} vs cauchy exceeds 0.03")
        if rows != size["walkers"]:
            raise CheckFailed(f"ensemble.csv has {rows} rows, expected {size['walkers']}")
    return {"ks": summary["ks"], "rows": rows}, sha


def mixed_density(spec, size, out, tracer):
    """density --selfcheck, 34-term mixed measure: analytic inversion only."""
    measure = {
        "atoms": [[0.8, 1.0], [1.6, 0.5]],
        "density": {"family": "constant", "support": [0.5, 1.5], "coeff": 1.0},
    }
    if "density_nodes" in size:
        measure["density"].update(nodes=size["density_nodes"], panels=1)
    cfg = write_config(out, {"measure": measure, "dim": 1, "t": 1.0,
                             "r_points": size["r_points"]})
    run_cli(tracer, "density", ["--config", cfg, "--out", str(out), "--selfcheck"])
    with tracer.span("bench.check"):
        doc = json.loads((out / "density.json").read_text())
        if not abs(doc["mass"] - 1.0) <= 1e-3:
            raise CheckFailed(f"density mass {doc['mass']} not within 1e-3 of 1")
        if len(doc["r"]) != size["r_points"]:
            raise CheckFailed(f"density grid has {len(doc['r'])} points")
        sha, _ = file_digest(out / "density.csv")
    return {"mass": doc["mass"]}, sha


def study_2d(spec, size, out, tracer):
    """study, 2D two-atom measure: kernels, dense CF error, walks and KS."""
    cfg = write_config(out, {"measure": {"atoms": [[0.7, 1.0], [1.4, 0.5]]},
                             "dim": 2, "t": 1.0, **size})
    run_cli(tracer, "study", ["--config", cfg, "--out", str(out),
                              "--seed", str(spec["walker_seed"])])
    with tracer.span("bench.check"):
        rows = json.loads((out / "study.json").read_text())["rows"]
        cf = [r["cf_sup_error"] for r in rows]
        ks = [r["ks_distance"] for r in rows]
        if len(rows) != len(size["h_list"]):
            raise CheckFailed(f"study has {len(rows)} rows")
        for name, seq in (("cf_sup_error", cf), ("ks_distance", ks)):
            if not all(b < a for a, b in zip(seq, seq[1:])):
                raise CheckFailed(f"{name} does not strictly decrease: {seq}")
        sha, _ = file_digest(out / "study.csv")
    return {"cf_sup_error": cf, "ks_distance": ks}, sha


def tv_sampling_bound(mass: np.ndarray, walkers: int, false_alarm: float = 1e-6) -> float:
    """Upper bound on the TV distance between an exact lattice law and the
    histogram of ``walkers`` independent draws from it.

    Per site E|count/n - p| <= min(sqrt(p(1-p)/n), 2p), so half their sum
    bounds E[TV].  Moving one walker changes TV by at most 1/n, so by
    McDiarmid's inequality TV exceeds E[TV] + sqrt(ln(1/a) / 2n) with
    probability below a.
    """
    p = mass.ravel()
    per_site = np.minimum(np.sqrt(p * (1.0 - p) / walkers), 2.0 * p)
    return float(0.5 * per_site.sum() + math.sqrt(math.log(1 / false_alarm) / (2 * walkers)))


def master_eq_2d(spec, size, out, tracer):
    """Library pipeline: exact master-equation evolution against walkers."""
    call = {attr: traced(tracer, fw, attr) for attr in (
        "stability_sigma", "build_kernel", "evolve", "build_sampler", "run_walks",
        "histogram", "total_variation", "characteristic_function")}
    dim, t, h, K, walkers = 2, 1.0, size["h"], size["trunc_radius"], size["walkers"]
    measure = fw.OrderMeasure.single(1.5)
    tau = 0.5 * call["stability_sigma"](measure, dim, h, 0.0).tau_max
    n = math.ceil(t / tau)
    kernel = call["build_kernel"](measure, dim, h, tau, K)
    law = call["evolve"](fw.LatticeDistribution.delta(dim, h), kernel, n)
    ensemble = call["run_walks"](call["build_sampler"](kernel), n, walkers,
                                 spec["walker_seed"], spec["threads"])
    tv = call["total_variation"](call["histogram"](ensemble, h), law)
    rho = np.array([0.5, 2.0, 5.0])
    xi = np.vstack([np.column_stack([rho, 0 * rho]),
                    np.column_stack([rho, rho]) / math.sqrt(2)])
    law_cf = call["characteristic_function"](law, xi)
    with tracer.span("bench.check"):
        mass_error = abs(law.total_mass() + law.mass_deficit - 1.0)
        cf_error = float(np.max(np.abs(law_cf - kernel.cf(xi) ** n)))
        tv_bound = tv_sampling_bound(law.mass, walkers)
        if not mass_error <= 1e-12:
            raise CheckFailed(f"mass + deficit misses 1 by {mass_error:.3e}")
        if not cf_error <= 1e-10:
            raise CheckFailed(f"evolved CF misses kernel CF^n by {cf_error:.3e}")
        if not tv <= tv_bound:
            raise CheckFailed(f"TV {tv:.5f} above the sampling bound {tv_bound:.5f}")
        digest = hashlib.sha256(law.mass.tobytes())
        digest.update(np.ascontiguousarray(ensemble.lattice_positions).tobytes())
    return ({"n_steps": n, "mass_error": mass_error, "cf_error": cf_error,
             "tv": tv, "tv_bound": tv_bound}, digest.hexdigest())


WORKLOADS = {f.__name__: f for f in (cauchy_walk, mixed_density, study_2d, master_eq_2d)}


def trace_summary(tracer: Tracer) -> dict:
    """Per-span-name time, per-module self time, counters and peaks."""
    check_nesting(tracer.spans)
    span_s: dict[str, float] = {}
    self_s: dict[str, float] = {}
    for s, d, own in zip(tracer.spans, durations(tracer.spans), self_times(tracer.spans)):
        span_s[s["name"]] = span_s.get(s["name"], 0.0) + d
        module = s["name"].split(".")[0]
        self_s[module] = self_s.get(module, 0.0) + own
    return {
        "span_s": span_s,
        "self_s": self_s,
        "self_total_s": sum(self_s.values()),
        "counts": tracer.counts,
        "peak_mb": tracer.peak_mb,
        "spans": tracer.spans,
    }


def main() -> int:
    spec = json.loads(sys.argv[1])
    out = Path(spec["out"])
    result = {"ok": False, "imported_at": IMPORTED_AT}
    try:
        src = Path(spec["root"], "src").resolve()
        if not Path(fracwalk.cli.__file__).resolve().is_relative_to(src):
            raise CheckFailed(f"fracwalk imported from {fracwalk.cli.__file__}, not {src}")
        size = SIZES[spec["workload"]]["smoke" if spec["smoke"] else "full"]
        tracer = Tracer(enabled=spec["trace"])
        if spec["trace"]:
            install_cli_spans(tracer)
        result["started_at"] = time.monotonic()
        with tracer.span("bench.run"):
            checks, fingerprint = WORKLOADS[spec["workload"]](spec, size, out, tracer)
        result["ended_at"] = time.monotonic()
        result["wall_s"] = result["ended_at"] - result["started_at"]
        if spec["trace"]:
            result["trace"] = trace_summary(tracer)
        result.update(ok=True, checks=checks, fingerprint=fingerprint)
    except Exception as exc:  # report any failure in the result, not as a crash
        result["error"] = f"{type(exc).__name__}: {exc}"
        result["traceback"] = traceback.format_exc()
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    with contextlib.suppress(OSError):
        (out / "result.json").write_text(json.dumps(result))
    return 0 if result["ok"] else 1


if __name__ == "__main__":
    sys.exit(main())
