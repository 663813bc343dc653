"""Acceptance gate: every release criterion, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
criteria execute.  Tolerances are pinned here and nowhere else.
"""

import json
import math
import time

import numpy as np
import pytest
import yaml
from click.testing import CliRunner

import fracwalk as fw
from fracwalk import montecarlo
from fracwalk.cli import main as cli_main
from fracwalk.diagnostics import (
    cf_sup_error,
    default_xi_grid,
    ks_distance,
    total_variation,
)
from oracles import cauchy_density, normalization_defect

SINGLE = fw.OrderMeasure.single(1.0)


def _report(num: int, name: str, ok: bool, detail: str = "") -> None:
    print(f"\n[ACCEPTANCE {num}] {name}: {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def test_criterion_1_symbol_identity(tmp_path):
    start = time.monotonic()
    res = CliRunner().invoke(cli_main, ["oracle", "--out", str(tmp_path)])
    elapsed = time.monotonic() - start
    doc = json.loads((tmp_path / "oracle.json").read_text())
    worst = doc["worst_rel_error"]
    ok = (
        res.exit_code == 0
        and len(doc["cases"]) == 27
        and all(c["pass"] for c in doc["cases"])
        and worst <= 1e-6
        and elapsed < 60.0
    )
    _report(1, "symbol identity (27-case oracle matrix, rel err <= 1e-6)", ok,
            f"worst rel err {worst:.2e}, {elapsed:.1f}s")


def test_criterion_2_kernel_validity():
    start = time.monotonic()
    rng = np.random.default_rng(20260809)
    checked = 0
    for case in range(20):
        dim = int(rng.integers(1, 4))
        n_atoms = int(rng.integers(1, 5))
        atoms = [
            (float(rng.uniform(0.1, 1.9)), float(rng.uniform(0.2, 2.0)))
            for _ in range(n_atoms)
        ]
        if rng.random() < 0.5:
            lo = float(rng.uniform(0.3, 1.2))
            hi = lo + float(rng.uniform(0.2, 0.6))
            coeff = float(rng.uniform(0.2, 1.0))
            measure = fw.OrderMeasure.with_density(
                lambda a: np.full_like(np.asarray(a), coeff), lo, hi,
                nodes=16, panels=2, atoms=atoms,
            )
        else:
            measure = fw.OrderMeasure.from_atoms(atoms)
        for h in (0.05, 0.1, 0.2):
            tau_max = fw.stability_sigma(measure, dim, h, 0.0).tau_max
            for tau in (0.5 * tau_max, tau_max):
                k = fw.build_kernel(measure, dim, h, tau)
                assert normalization_defect(k) <= 1e-12
                assert np.all(k.shell_prob >= 0.0) and k.p0 >= 0.0
                assert abs(k.p0 - (1.0 - k.sigma)) <= 1e-12
                per_site = k.site_probabilities
                nsq = k.shells.norm_sq[k.shells.site_shell]
                for q in np.unique(nsq):
                    vals = per_site[nsq == q]
                    assert np.all(vals == vals[0])  # radial symmetry
                if tau == tau_max:
                    assert k.p0 <= 1e-10
                checked += 1
    elapsed = time.monotonic() - start
    _report(2, "kernel validity (20 random measures x 3 meshes)",
            checked == 120 and elapsed < 60.0,
            f"{checked} kernels, {elapsed:.1f}s")


def _multiterm_oracle_probs(atoms, dim, h, tau, vectors):
    # independent implementation of the explicit multiterm jump law
    def b(alpha, n):
        return (
            alpha
            * math.gamma(alpha / 2)
            * math.gamma((n + alpha) / 2)
            * math.sin(alpha * math.pi / 2)
            / (2 ** (2 - alpha) * math.pi ** (1 + n / 2))
        )

    out = []
    for k in vectors:
        norm = math.sqrt(sum(c * c for c in k))
        mu_sum = sum(
            (2.0 * tau / h**a) * w * b(a, dim) / norm**a for a, w in atoms
        )
        out.append(mu_sum / norm**dim)
    return out


def test_criterion_3_multiterm_consistency():
    import mpmath as mp

    rng = np.random.default_rng(77)
    worst = 0.0
    for case in range(10):
        n_atoms = int(rng.integers(2, 5))
        atoms = [
            (float(rng.uniform(0.15, 1.85)), float(rng.uniform(0.2, 2.0)))
            for _ in range(n_atoms)
        ]
        h = float(rng.choice([0.05, 0.1, 0.2]))
        measure = fw.OrderMeasure.from_atoms(atoms)
        tau = 0.5 * fw.stability_sigma(measure, 1, h, 0.0).tau_max
        k = fw.build_kernel(measure, 1, h, tau, trunc_radius=32)
        vectors = [[j] for j in range(1, 33)]
        oracle = _multiterm_oracle_probs(atoms, 1, h, tau, vectors)
        raw = k.shell_prob_raw  # shells in 1-D are ordered by |k|
        for got, want in zip(raw, oracle):
            worst = max(worst, abs(got - want) / want)
        # laziness against an independent zeta: p0 = 1 - sum_m mu_m a_m b R(alpha_m)
        sigma_oracle = 0.0
        for a, w in atoms:
            b_aw = (
                a * math.gamma(a / 2) * math.gamma((1 + a) / 2)
                * math.sin(a * math.pi / 2) / (2 ** (2 - a) * math.pi ** 1.5)
            )
            zeta_ref = float(2 * mp.zeta(1 + mp.mpf(a)))
            sigma_oracle += (2.0 * tau / h**a) * w * b_aw * zeta_ref
        p0_oracle = 1.0 - sigma_oracle
        worst = max(worst, abs(k.p0 - p0_oracle) / abs(p0_oracle))
    # higher dimensions: off-origin formula agreement on a shell sample
    for dim in (2, 3):
        atoms = [(0.7, 1.0), (1.4, 0.5)]
        h, tau = 0.2, 1e-3
        k = fw.build_kernel(fw.OrderMeasure.from_atoms(atoms), dim, h, tau, trunc_radius=6)
        sample = [s for s in k.shells.sites.tolist()[:40]]
        oracle = _multiterm_oracle_probs(atoms, dim, h, tau, sample)
        got = k.shell_prob_raw[k.shells.site_shell[:40]]
        for g, w in zip(got, oracle):
            worst = max(worst, abs(g - w) / w)
    _report(3, "multiterm jump-law consistency (10 random measures, rel err <= 1e-14)",
            worst <= 1e-14, f"worst rel err {worst:.2e}")


def test_criterion_4_cf_convergence():
    start = time.monotonic()
    sym = fw.DiffusionSymbol(SINGLE, 1)
    xi = default_xi_grid(1, 10.0, 101)
    errors = []
    for h in (0.2, 0.1, 0.05):
        tau = 0.5 * fw.stability_sigma(SINGLE, 1, h, 0.0).tau_max
        n = math.ceil(1.0 / tau)
        K = math.ceil(64 * (0.2 / h) ** 2)
        kernel = fw.build_kernel(SINGLE, 1, h, tau, trunc_radius=K)
        errors.append(cf_sup_error(kernel, n, sym, 1.0, xi))
    elapsed = time.monotonic() - start
    ok = errors[0] > errors[1] > errors[2] and errors[2] < 0.05 and elapsed < 60.0
    _report(4, "CF convergence (strictly decreasing, final < 0.05, exact)",
            ok, "errors " + " > ".join(f"{e:.5f}" for e in errors) + f", {elapsed:.1f}s")


def test_criterion_5_convergence_in_law_to_cauchy():
    start = time.monotonic()
    cauchy_cdf = lambda x: 0.5 + np.arctan(x) / math.pi
    ks = {}
    for h in (0.05, 0.1):
        tau = 0.5 * fw.stability_sigma(SINGLE, 1, h, 0.0).tau_max
        n = math.ceil(1.0 / tau)
        K = math.ceil(64 * (0.2 / h) ** 2)
        sampler = fw.build_sampler(fw.build_kernel(SINGLE, 1, h, tau, trunc_radius=K))
        ks[h] = [
            ks_distance(fw.run_walks(sampler, n, 100_000, seed), cauchy_cdf)
            for seed in (101, 202)
        ]
    elapsed = time.monotonic() - start
    noise = max(abs(ks[0.05][0] - ks[0.05][1]), abs(ks[0.1][0] - ks[0.1][1]))
    fine_ok = all(d <= 0.03 for d in ks[0.05])
    ordering_ok = np.mean(ks[0.1]) >= np.mean(ks[0.05]) - noise
    ok = fine_ok and ordering_ok and elapsed < 120.0
    _report(5, "convergence in law to the scale-t Cauchy (KS <= 0.03)", ok,
            f"KS(h=0.05)={ks[0.05]}, KS(h=0.1)={ks[0.1]}, {elapsed:.1f}s")


def test_criterion_6_analytic_inversion():
    start = time.monotonic()
    r = np.linspace(0.0, 10.0, 201)
    worst = 0.0
    for dim in (1, 2, 3):
        sym = fw.DiffusionSymbol(fw.OrderMeasure.single(1.0), dim)
        dens = fw.green_density(sym, 1.0, r)
        exact = np.array(
            [cauchy_density(1.0, [x] + [0.0] * (dim - 1), dim) for x in r]
        )
        worst = max(worst, float(np.max(np.abs(dens.values - exact))))
    mixed = fw.OrderMeasure.with_density(
        lambda a: np.ones_like(a), 0.5, 1.5, atoms=[(0.8, 1.0), (1.6, 0.5)]
    )
    grid = np.concatenate([[0.0], np.geomspace(2e-4, 2000.0, 400)])
    mass = fw.green_density(fw.DiffusionSymbol(mixed, 1), 1.0, grid).mass()
    elapsed = time.monotonic() - start
    ok = worst <= 1e-6 and abs(mass - 1.0) <= 1e-3 and elapsed < 120.0
    _report(6, "analytic inversion (Cauchy sup err <= 1e-6, mixed mass within 1e-3)",
            ok, f"sup err {worst:.2e}, mass {mass:.6f}, {elapsed:.1f}s")


def test_criterion_7_walkers_match_master_equation(monkeypatch):
    start = time.monotonic()
    kernel = fw.build_kernel(SINGLE, 1, 0.1, 0.01, trunc_radius=64)
    sampler = fw.build_sampler(kernel)
    tvs = {}
    # each walk with one step per draw (a one-site table budget), the
    # kernel's own table, and at the default budget, D >= 2 draws of
    # m-step tables: neither is one draw of the law it is checked against
    for budget in (1, montecarlo._TABLE_SITES):
        monkeypatch.setattr(montecarlo, "_TABLE_SITES", budget)
        for n in (8, 32):
            draws = sum(count for _, count in montecarlo._plan(sampler, n))
            exact = fw.evolve(fw.LatticeDistribution.delta(1, 0.1), kernel, n)
            ens = fw.run_walks(sampler, n, 100_000, seed=424242)
            tvs[n, draws] = total_variation(fw.histogram(ens, bin_width=0.1), exact)
    elapsed = time.monotonic() - start
    ok = all(tv <= 0.02 and draws > 1 for (_, draws), tv in tvs.items())
    _report(7, "Monte Carlo vs master equation (TV <= 0.02, n <= 32)",
            ok, f"TV by (n, draws) {dict((k, round(v, 5)) for k, v in tvs.items())}, "
            f"{elapsed:.1f}s")


def test_criterion_8_simulate_determinism(tmp_path):
    cfg = {
        "measure": {"atoms": [[1.0, 1.0]]},
        "dim": 1, "t": 1.0, "h": 0.1, "tau": 0.01,
        "walkers": 20_000, "seed": 2718,
    }
    cfg_path = tmp_path / "cfg.yaml"
    cfg_path.write_text(yaml.safe_dump(cfg))
    runner = CliRunner()
    blobs = []
    for threads in ("1", "4", "8"):
        out = tmp_path / f"threads{threads}"
        res = runner.invoke(
            cli_main,
            ["simulate", "--config", str(cfg_path), "--out", str(out), "--threads", threads],
        )
        assert res.exit_code == 0, res.output
        blobs.append((out / "ensemble.csv").read_bytes())
    ok = blobs[0] == blobs[1] == blobs[2]
    _report(8, "simulate determinism (byte-identical at 1/4/8 threads)", ok,
            f"{len(blobs[0])} bytes each")


def test_criterion_9_self_similarity():
    worst = 0.0
    for alpha, t in ((0.7, 0.5), (1.3, 2.0)):
        sym = fw.DiffusionSymbol(fw.OrderMeasure.single(alpha), 1)
        r = np.linspace(0.0, 8.0, 81)
        direct = fw.green_density(sym, t, r).values
        rescaled = t ** (-1.0 / alpha) * fw.green_density(
            sym, 1.0, r * t ** (-1.0 / alpha)
        ).values
        worst = max(worst, float(np.max(np.abs(direct - rescaled))))
    _report(9, "self-similarity of single-exponent densities (<= 1e-6)",
            worst <= 1e-6, f"worst abs err {worst:.2e}")
