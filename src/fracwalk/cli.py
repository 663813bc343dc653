"""Command-line interface.

Subcommands wrap the library: ``kernel`` builds and dumps a jump law,
``simulate`` runs walker ensembles, ``density`` tabulates the analytic
fundamental solution, ``study`` runs an h-refinement convergence report,
``oracle`` checks the symbol identity matrix, and ``defaults`` prints every
configurable default.  Exit codes: 0 success, 1 runtime or numerical
failure, 2 validation failure.
"""

from __future__ import annotations

import sys
from pathlib import Path

import click

from . import __version__
from .analytic import (
    DiffusionSymbol,
    default_radial_grid,
    green_density,
    symbol_oracle,
)
from .config import ConfigError, DEFAULTS, RunConfig, defaults_yaml
from .diagnostics import is_cauchy, ks_distance, reference_cdf, refinement_study, resolve_run
from .kernel import StabilityError
from .montecarlo import build_sampler, run_walks
from .output import write_csv, write_json
from .quadrature import QuadratureError

EXIT_RUNTIME = 1
EXIT_VALIDATION = 2


def _handle_errors(fn):
    """Map failures to the exit-code contract: 2 validation, 1 runtime (running
    out of memory included), each with one ``error:`` line."""
    import functools

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except (ConfigError, StabilityError, ValueError) as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(EXIT_VALIDATION)
        except (QuadratureError, RuntimeError, OSError, MemoryError) as exc:
            click.echo(f"error: {str(exc) or type(exc).__name__}", err=True)
            sys.exit(EXIT_RUNTIME)

    return wrapper


def _out_dir(out: str | None, cfg: RunConfig | None = None) -> Path:
    if out is None and cfg is not None:
        out = cfg.raw.get("out")
    d = Path(out) if out else Path(".")
    d.mkdir(parents=True, exist_ok=True)
    return d


@click.group()
@click.version_option(__version__)
def main() -> None:
    """Lattice walks for distributed-order fractional diffusion."""


@main.command()
@click.option("--config", "config_path", type=click.Path(exists=True), required=True)
@click.option("--out", "out", type=click.Path(), default=None, help="output directory")
@_handle_errors
def kernel(config_path: str, out: str | None) -> None:
    """Build the transition kernel and write it as JSON."""
    cfg = RunConfig.from_file(config_path)
    r = cfg.resolved
    k, _, tau_max = resolve_run(cfg.measure, r["dim"], r["h"], r["t"], r["theta"], r["tau"],
                                r["trunc_radius"], r["n_steps"])
    payload = k.to_json_dict()
    payload["tau_max"] = tau_max
    payload.update(cfg.echo())
    path = _out_dir(out, cfg) / "kernel.json"
    write_json(path, payload)
    click.echo(
        f"kernel: dim={k.dim} h={k.h} tau={k.tau:.10g} K={k.trunc_radius}\n"
        f"  sigma={k.sigma:.10g}  p0={k.p0:.10g}  tau_max={tau_max:.10g}\n"
        f"  tail_mass={k.tail_mass:.3e}"
        + ("  [WARNING: truncation tail exceeds 10% of sigma]" if k.tail_warning else "")
        + f"\n  written to {path}"
    )


@main.command()
@click.option("--config", "config_path", type=click.Path(exists=True), required=True)
@click.option("--out", "out", type=click.Path(), default=None)
@click.option("--seed", type=click.IntRange(0, 2**64 - 1), default=None, help="override config seed")
@click.option("--threads", type=click.IntRange(1, None), default=None, help="worker threads (no effect on results)")
@_handle_errors
def simulate(config_path: str, out: str | None, seed: int | None, threads: int | None) -> None:
    """Sample a walker ensemble; write positions CSV and a summary JSON."""
    cfg = RunConfig.from_file(config_path)
    r = cfg.resolved
    reference = r["ks_reference"]
    if reference == "cauchy" and not is_cauchy(cfg.measure, r["dim"]):
        raise ConfigError("ks_reference cauchy needs one atom at alpha = 1 in dim 1")
    k, n_steps, _ = resolve_run(cfg.measure, r["dim"], r["h"], r["t"], r["theta"], r["tau"],
                                r["trunc_radius"], r["n_steps"])
    moves = n_steps > 0 and k.tau > 0.0  # simulated time n_steps * tau is positive
    if reference == "auto":
        reference = "cauchy" if moves and is_cauchy(cfg.measure, r["dim"]) else "none"
    elif reference != "none" and not moves:
        raise ConfigError(f"ks_reference {reference} needs a positive simulated time n_steps * tau")
    use_seed = seed if seed is not None else r["seed"]
    use_threads = threads if threads is not None else r["threads"]
    ensemble = run_walks(build_sampler(k), n_steps, r["walkers"], use_seed, use_threads)

    out_dir = _out_dir(out, cfg)
    csv_path = out_dir / "ensemble.csv"
    ensemble.to_csv(csv_path)
    census = ensemble.census()  # for the quantiles, the histogram and the KS
    summary = ensemble.summary_dict(census)
    summary["tail_mass"] = k.tail_mass

    if reference != "none":
        cdf = reference_cdf(cfg.measure, r["dim"], n_steps * k.tau, r["quad_tol"])
        summary["ks"] = ks_distance(ensemble, cdf, census=census)
        summary["ks_reference"] = reference
    summary.update(cfg.echo())
    write_json(out_dir / "summary.json", summary)
    click.echo(
        f"simulate: {ensemble.n_walkers} walkers x {ensemble.n_steps} steps "
        f"(h={k.h}, tau={k.tau:.6g}, seed={use_seed})\n"
        + (f"  ks={summary['ks']:.5f} vs {summary['ks_reference']}\n" if "ks" in summary else "")
        + f"  written to {csv_path} and summary.json"
    )


@main.command()
@click.option("--config", "config_path", type=click.Path(exists=True), required=True)
@click.option("--out", "out", type=click.Path(), default=None)
@click.option("--selfcheck", is_flag=True, help="verify the tabulated mass integrates to 1")
@_handle_errors
def density(config_path: str, out: str | None, selfcheck: bool) -> None:
    """Tabulate the analytic fundamental solution on a radial grid."""
    cfg = RunConfig.from_file(config_path)
    r = cfg.resolved
    if r["t"] <= 0.0:
        raise ConfigError("density requires t > 0")
    sym = DiffusionSymbol(cfg.measure, r["dim"])
    r_grid = default_radial_grid(sym, r["t"], r["r_points"], r_max=r["r_max"])
    dens = green_density(sym, r["t"], r_grid, r["quad_tol"])

    out_dir = _out_dir(out, cfg)
    csv_path = out_dir / "density.csv"
    dens.to_csv(csv_path)
    payload = dens.to_json_dict()
    payload.update(cfg.echo())
    mass = dens.mass()
    payload["mass"] = mass
    write_json(out_dir / "density.json", payload)
    click.echo(
        f"density: dim={r['dim']} t={r['t']} grid [0, {r_grid[-1]:.6g}] x {len(r_grid)}\n"
        f"  G(t, 0)={dens.values[0]:.10g}  mass={mass:.8f}\n"
        f"  written to {csv_path} and density.json"
    )
    if selfcheck:
        if abs(mass - 1.0) > 1e-3:
            click.echo(f"selfcheck FAILED: mass {mass:.8f} deviates from 1 by > 1e-3", err=True)
            sys.exit(EXIT_RUNTIME)
        click.echo("selfcheck passed: mass within 1e-3 of 1")


@main.command()
@click.option("--config", "config_path", type=click.Path(exists=True), required=True)
@click.option("--out", "out", type=click.Path(), default=None)
@click.option("--seed", type=click.IntRange(0, 2**64 - 1), default=None)
@click.option("--threads", type=click.IntRange(1, None), default=None)
@_handle_errors
def study(config_path: str, out: str | None, seed: int | None, threads: int | None) -> None:
    """Refinement study: CF and KS convergence metrics along decreasing h."""
    cfg = RunConfig.from_file(config_path)
    r = cfg.resolved
    if r["h_list"] is None:
        raise ConfigError("study requires h_list (strictly decreasing)")
    for name in ("tau", "n_steps"):
        if r[name] is not None:
            raise ConfigError(f"study derives {name} per mesh from theta and t; leave {name} unset")
    report = refinement_study(
        cfg.measure,
        r["dim"],
        r["t"],
        r["h_list"],
        r["walkers"],
        seed if seed is not None else r["seed"],
        theta=r["theta"],
        xi_max=r["xi_max"],
        xi_points=r["xi_points"],
        trunc_radius=r["trunc_radius"],
        threads=threads if threads is not None else r["threads"],
        tol=r["quad_tol"],
    )
    out_dir = _out_dir(out, cfg)
    payload = report.to_json_dict()
    payload.update(cfg.echo())
    write_json(out_dir / "study.json", payload)
    report.to_csv(out_dir / "study.csv")
    # plot data: one (x, y) CSV per metric plus a sidecar describing the axes
    for name, column in (("plot_cf_error.csv", "cf_sup_error"), ("plot_ks.csv", "ks_distance")):
        write_csv(out_dir / name, ["h", column], [(row.h, getattr(row, column)) for row in report.rows])
    write_json(
        out_dir / "plot_axes.json",
        {
            "plot_cf_error.csv": {
                "x": {"column": "h", "label": "mesh width h", "scale": "log"},
                "y": {"column": "cf_sup_error",
                      "label": f"sup |cf error| on |xi| <= {r['xi_max']}", "scale": "log"},
            },
            "plot_ks.csv": {
                "x": {"column": "h", "label": "mesh width h", "scale": "log"},
                "y": {"column": "ks_distance", "label": "KS distance", "scale": "log"},
            },
        },
    )
    click.echo("h        tau          n      cf_sup_error   ks_distance   tail_mass")
    for row in report.rows:
        click.echo(
            f"{row.h:<8g} {row.tau:<12.6g} {row.n_steps:<6d} {row.cf_sup_error:<14.6g} "
            f"{row.ks_distance:<13.6g} {row.tail_mass:.3e}"
        )
    click.echo(f"written to {out_dir}/study.json, study.csv, plot_*.csv")


@main.command()
@click.option("--config", "config_path", type=click.Path(exists=True), default=None,
              help="optional override of the check matrix")
@click.option("--out", "out", type=click.Path(), default=None)
@_handle_errors
def oracle(config_path: str | None, out: str | None) -> None:
    """Verify the hypersingular symbol identity over a (alpha, dim, |xi|) matrix."""
    r = RunConfig.from_file(config_path).resolved if config_path is not None else DEFAULTS
    rtol = r["oracle_rtol"]

    rows, worst = [], 0.0
    click.echo("alpha   dim   |xi|   numeric            target             rel_error")
    for a in r["oracle_alphas"]:
        for n in r["oracle_dims"]:
            for q in r["oracle_xis"]:
                got = symbol_oracle(a, n, q)
                want = -q**a
                rel = abs(got - want) / abs(want)
                worst = max(worst, rel)
                rows.append(
                    {"alpha": a, "dim": n, "xi": q, "numeric": got,
                     "target": want, "rel_error": rel, "pass": rel <= rtol}
                )
                click.echo(f"{a:<7g} {n:<5d} {q:<6g} {got:<18.12g} {want:<18.12g} {rel:.3e}")
    n_fail = sum(not r["pass"] for r in rows)
    if out is not None:
        write_json(_out_dir(out) / "oracle.json",
                   {"rtol": rtol, "worst_rel_error": worst, "cases": rows})
    click.echo(f"{len(rows)} cases, worst relative error {worst:.3e} (tolerance {rtol:g})")
    if n_fail:
        click.echo(f"{n_fail} case(s) FAILED", err=True)
        sys.exit(EXIT_RUNTIME)


@main.command()
def defaults() -> None:
    """Print every configurable default as a YAML document."""
    click.echo(defaults_yaml().rstrip())


if __name__ == "__main__":
    main()
