import json
import math
import os
import subprocess
import sys
import tempfile
import time

from pathlib import Path

import numpy as np
import pytest
import yaml
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from fracwalk import OrderMeasure, build_kernel, build_sampler, cli, run_walks
from fracwalk.cli import main
from fracwalk.config import DEFAULTS, ConfigError, RunConfig, defaults_yaml
from fracwalk.diagnostics import reference_cdf
from fracwalk.montecarlo import STREAM_VERSION
from oracles import ks_distance_every_value

BENCH = {
    "measure": {"atoms": [[1.0, 1.0]]},
    "dim": 1,
    "t": 1.0,
    "h": 0.1,
    "tau": 0.01,
    "walkers": 500,
    "seed": 99,
}


@pytest.fixture
def runner():
    return CliRunner()


def _write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(doc))
    return str(path)


class TestKernelCommand:
    def test_json_matches_library_sigma(self, runner, tmp_path):
        cfg = _write(tmp_path, "c.yaml", BENCH)
        res = runner.invoke(main, ["kernel", "--config", cfg, "--out", str(tmp_path)])
        assert res.exit_code == 0, res.output
        doc = json.loads((tmp_path / "kernel.json").read_text())
        assert doc["sigma"] == pytest.approx(0.01 * math.pi / 0.3, rel=1e-12)
        assert doc["K"] == 64 and doc["dim"] == 1
        assert doc["config"]["measure"]["atoms"] == [[1.0, 1.0]]  # provenance echo
        total = doc["p0"] + sum(s["prob_per_site"] * s["multiplicity"] for s in doc["shells"])
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_unstable_tau_exits_2_with_tau_max(self, runner, tmp_path):
        doc = dict(BENCH, tau=0.2)
        cfg = _write(tmp_path, "c.yaml", doc)
        res = runner.invoke(main, ["kernel", "--config", cfg, "--out", str(tmp_path)])
        assert res.exit_code == 2
        assert "0.0954929" in res.output  # tau_max = 3h/pi printed

    def test_alpha_two_atom_exits_2(self, runner, tmp_path):
        doc = dict(BENCH, measure={"atoms": [[2.0, 1.0]]})
        cfg = _write(tmp_path, "c.yaml", doc)
        res = runner.invoke(main, ["kernel", "--config", cfg])
        assert res.exit_code == 2
        assert "alpha" in res.output.lower()


class TestSimulateCommand:
    def test_fixed_seed_reproducible_bytes(self, runner, tmp_path):
        cfg = _write(tmp_path, "c.yaml", BENCH)
        outs = []
        for sub in ("a", "b"):
            res = runner.invoke(
                main, ["simulate", "--config", cfg, "--out", str(tmp_path / sub)]
            )
            assert res.exit_code == 0, res.output
            outs.append((tmp_path / sub / "ensemble.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_thread_count_does_not_change_bytes(self, runner, tmp_path):
        doc = dict(BENCH, walkers=20_000)
        cfg = _write(tmp_path, "c.yaml", doc)
        blobs = []
        for threads in ("1", "4", "8"):
            out = tmp_path / f"t{threads}"
            res = runner.invoke(
                main,
                ["simulate", "--config", cfg, "--out", str(out), "--threads", threads],
            )
            assert res.exit_code == 0, res.output
            blobs.append((out / "ensemble.csv").read_bytes())
        assert blobs[0] == blobs[1] == blobs[2]

    def test_single_walker_zero_steps(self, runner, tmp_path):
        doc = dict(BENCH, walkers=1, n_steps=0)
        cfg = _write(tmp_path, "c.yaml", doc)
        res = runner.invoke(main, ["simulate", "--config", cfg, "--out", str(tmp_path)])
        assert res.exit_code == 0, res.output
        lines = (tmp_path / "ensemble.csv").read_text().strip().splitlines()
        assert lines == ["x1", "0.0"]

    def test_summary_has_ks_for_cauchy_benchmark(self, runner, tmp_path):
        doc = dict(BENCH, walkers=5_000)
        cfg = _write(tmp_path, "c.yaml", doc)
        res = runner.invoke(main, ["simulate", "--config", cfg, "--out", str(tmp_path)])
        assert res.exit_code == 0, res.output
        doc = json.loads((tmp_path / "summary.json").read_text())
        assert doc["ks_reference"] == "cauchy"
        assert 0.0 <= doc["ks"] <= 1.0
        assert doc["config"]["seed"] == 99

    def test_summary_quantiles_and_ks_match_the_library(self, runner, tmp_path):
        # simulate counts the walkers once, in the census the quantiles and the KS read
        cfg = _write(tmp_path, "c.yaml", dict(BENCH, walkers=3_000))
        res = runner.invoke(main, ["simulate", "--config", cfg, "--out", str(tmp_path)])
        assert res.exit_code == 0, res.output
        doc = json.loads((tmp_path / "summary.json").read_text())
        kernel = build_kernel(OrderMeasure.single(1.0), 1, 0.1, 0.01)
        ens = run_walks(build_sampler(kernel), math.ceil(1.0 / 0.01), 3_000, seed=99)
        cdf = reference_cdf(OrderMeasure.single(1.0), 1, ens.n_steps * ens.tau)
        levels = (0.05, 0.25, 0.5, 0.75, 0.95)
        assert list(doc["quantiles_first_coordinate"].values()) == (
            np.quantile(ens.final_positions[:, 0], levels).tolist()
        )
        assert doc["ks"] == ks_distance_every_value(ens, cdf)

    def test_summary_is_written_as_json_dump_writes_it(self, runner, tmp_path):
        cfg = _write(tmp_path, "c.yaml", dict(BENCH, walkers=2_000))
        res = runner.invoke(main, ["simulate", "--config", cfg, "--out", str(tmp_path)])
        assert res.exit_code == 0, res.output
        text = (tmp_path / "summary.json").read_text()
        with open(tmp_path / "dumped.json", "w") as f:
            json.dump(json.loads(text), f, indent=2)
        assert (tmp_path / "dumped.json").read_text() == text

    def test_outputs_and_readme_name_the_stream_version(self, runner, tmp_path):
        cfg = _write(tmp_path, "c.yaml", dict(UNSET_TAU, h_list=[0.2], t=0.5, walkers=200))
        for command in ("simulate", "study"):
            res = runner.invoke(main, [command, "--config", cfg, "--out", str(tmp_path)])
            assert res.exit_code == 0, res.output
        for name in ("summary.json", "study.json"):
            assert json.loads((tmp_path / name).read_text())["stream"] == STREAM_VERSION
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        assert f"This stream is version {STREAM_VERSION}." in readme

    def test_seed_flag_overrides_config(self, runner, tmp_path):
        cfg = _write(tmp_path, "c.yaml", BENCH)
        r1 = runner.invoke(main, ["simulate", "--config", cfg, "--out", str(tmp_path / "x"), "--seed", "1"])
        r2 = runner.invoke(main, ["simulate", "--config", cfg, "--out", str(tmp_path / "y"), "--seed", "2"])
        assert r1.exit_code == r2.exit_code == 0
        assert (tmp_path / "x/ensemble.csv").read_bytes() != (tmp_path / "y/ensemble.csv").read_bytes()

    @pytest.mark.parametrize(
        "key, value", [("walkers", 1.5), ("walkers", "abc"), ("threads", 2.5), ("seed", True)]
    )
    def test_non_integer_counts_exit_2(self, runner, tmp_path, key, value):
        cfg = _write(tmp_path, "c.yaml", dict(BENCH, **{key: value}))
        res = runner.invoke(main, ["simulate", "--config", cfg, "--out", str(tmp_path)])
        assert res.exit_code == 2
        assert res.output == f"error: {key} must be an integer, got {value!r}\n"
        assert not (tmp_path / "ensemble.csv").exists()

    def test_cauchy_reference_needs_the_cauchy_law(self, runner, tmp_path):
        doc = dict(BENCH, measure={"atoms": [[1.5, 1.0]]}, ks_reference="cauchy")
        cfg = _write(tmp_path, "c.yaml", doc)
        res = runner.invoke(main, ["simulate", "--config", cfg, "--out", str(tmp_path)])
        assert res.exit_code == 2
        assert res.output.startswith("error: ks_reference cauchy") and res.output.count("\n") == 1

    def test_analytic_reference_in_two_dimensions(self, runner, tmp_path):
        doc = dict(BENCH, dim=2, h=0.2, tau=None, walkers=2_000, ks_reference="analytic")
        cfg = _write(tmp_path, "c.yaml", doc)
        res = runner.invoke(main, ["simulate", "--config", cfg, "--out", str(tmp_path)])
        assert res.exit_code == 0, res.output
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["ks_reference"] == "analytic"
        assert 0.0 < summary["ks"] < 1.0

    @pytest.mark.parametrize("reference", ["analytic", "cauchy"])
    @pytest.mark.parametrize("frozen", [{"n_steps": 0}, {"tau": 0.0}])
    def test_explicit_reference_at_zero_time_exits_2(self, runner, tmp_path, reference, frozen):
        cfg = _write(tmp_path, "c.yaml", dict(BENCH, ks_reference=reference, **frozen))
        res = runner.invoke(main, ["simulate", "--config", cfg, "--out", str(tmp_path)])
        assert res.exit_code == 2 and isinstance(res.exception, SystemExit)
        assert res.output == (
            f"error: ks_reference {reference} needs a positive simulated time n_steps * tau\n"
        )
        assert not (tmp_path / "ensemble.csv").exists()

    def test_auto_reference_at_zero_time_writes_no_ks(self, runner, tmp_path):
        cfg = _write(tmp_path, "c.yaml", dict(BENCH, tau=0.0, walkers=3))
        res = runner.invoke(main, ["simulate", "--config", cfg, "--out", str(tmp_path)])
        assert res.exit_code == 0, res.output
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["n_steps"] == 0 and "ks" not in summary


class TestDensityCommand:
    def test_cauchy_peak_and_selfcheck(self, runner, tmp_path):
        doc = {
            "measure": {"atoms": [[1.0, 1.0]]},
            "dim": 1,
            "t": 1.0,
            "r_max": 800.0,
            "r_points": 200,
        }
        cfg = _write(tmp_path, "c.yaml", doc)
        res = runner.invoke(
            main, ["density", "--config", cfg, "--out", str(tmp_path), "--selfcheck"]
        )
        assert res.exit_code == 0, res.output
        rows = (tmp_path / "density.csv").read_text().strip().splitlines()
        assert rows[0] == "r,G"
        r0, g0 = rows[1].split(",")
        assert float(r0) == 0.0
        assert float(g0) == pytest.approx(1.0 / math.pi, abs=1e-6)
        assert "selfcheck passed" in res.output

    def test_zero_time_rejected(self, runner, tmp_path):
        doc = {"measure": {"atoms": [[1.0, 1.0]]}, "t": 0.0}
        cfg = _write(tmp_path, "c.yaml", doc)
        res = runner.invoke(main, ["density", "--config", cfg, "--out", str(tmp_path)])
        assert res.exit_code == 2

    def test_mass_written_to_json(self, runner, tmp_path):
        doc = {"measure": {"atoms": [[1.5, 1.0]]}, "t": 1.0, "r_points": 128}
        cfg = _write(tmp_path, "c.yaml", doc)
        res = runner.invoke(main, ["density", "--config", cfg, "--out", str(tmp_path)])
        assert res.exit_code == 0, res.output
        payload = json.loads((tmp_path / "density.json").read_text())
        assert payload["mass"] == pytest.approx(1.0, abs=1e-3)


class TestStudyCommand:
    def test_two_rows_with_plot_data(self, runner, tmp_path):
        doc = {
            "measure": {"atoms": [[1.0, 1.0]]},
            "dim": 1,
            "t": 0.5,
            "h_list": [0.2, 0.1],
            "walkers": 2_000,
            "seed": 4,
            "xi_points": 51,
        }
        cfg = _write(tmp_path, "c.yaml", doc)
        res = runner.invoke(main, ["study", "--config", cfg, "--out", str(tmp_path)])
        assert res.exit_code == 0, res.output
        study = json.loads((tmp_path / "study.json").read_text())
        assert len(study["rows"]) == 2
        csv_lines = (tmp_path / "study.csv").read_text().strip().splitlines()
        assert len(csv_lines) == 3
        for fname in ("plot_cf_error.csv", "plot_ks.csv", "plot_axes.json"):
            assert (tmp_path / fname).exists()
        axes = json.loads((tmp_path / "plot_axes.json").read_text())
        assert "plot_cf_error.csv" in axes

    def test_single_h_row(self, runner, tmp_path):
        doc = {
            "measure": {"atoms": [[1.0, 1.0]]},
            "h_list": [0.2],
            "t": 0.5,
            "walkers": 500,
        }
        cfg = _write(tmp_path, "c.yaml", doc)
        res = runner.invoke(main, ["study", "--config", cfg, "--out", str(tmp_path)])
        assert res.exit_code == 0, res.output
        study = json.loads((tmp_path / "study.json").read_text())
        assert len(study["rows"]) == 1

    def test_non_decreasing_h_list_rejected(self, runner, tmp_path):
        doc = {"measure": {"atoms": [[1.0, 1.0]]}, "h_list": [0.1, 0.2], "walkers": 100}
        cfg = _write(tmp_path, "c.yaml", doc)
        res = runner.invoke(main, ["study", "--config", cfg, "--out", str(tmp_path)])
        assert res.exit_code == 2

    def test_missing_h_list_rejected(self, runner, tmp_path):
        cfg = _write(tmp_path, "c.yaml", BENCH)
        res = runner.invoke(main, ["study", "--config", cfg, "--out", str(tmp_path)])
        assert res.exit_code == 2

    @pytest.mark.parametrize("key, value", [("tau", 0.001), ("n_steps", 3)])
    def test_tau_and_n_steps_rejected(self, runner, tmp_path, key, value):
        # each row takes its own tau and n; a fixed one used to be ignored silently
        doc = dict(UNSET_TAU, h_list=[0.2, 0.1], walkers=100, **{key: value})
        cfg = _write(tmp_path, "c.yaml", doc)
        res = runner.invoke(main, ["study", "--config", cfg, "--out", str(tmp_path)])
        assert res.exit_code == 2 and isinstance(res.exception, SystemExit)
        assert res.output.startswith("error: ") and res.output.count("\n") == 1
        assert key in res.output
        assert not (tmp_path / "study.json").exists()

    def test_null_tau_and_n_steps_run(self, runner, tmp_path):
        # `fracwalk defaults` prints both as null
        doc = dict(UNSET_TAU, h_list=[0.2], t=0.5, walkers=100, tau=None, n_steps=None)
        cfg = _write(tmp_path, "c.yaml", doc)
        res = runner.invoke(main, ["study", "--config", cfg, "--out", str(tmp_path)])
        assert res.exit_code == 0, res.output


class TestOracleCommand:
    def test_default_matrix_passes(self, runner, tmp_path):
        res = runner.invoke(main, ["oracle", "--out", str(tmp_path)])
        assert res.exit_code == 0, res.output
        doc = json.loads((tmp_path / "oracle.json").read_text())
        assert len(doc["cases"]) == 27
        assert doc["worst_rel_error"] <= 1e-6
        assert all(case["pass"] for case in doc["cases"])

    def test_custom_matrix_from_config(self, runner, tmp_path):
        doc = {
            "measure": {"atoms": [[1.0, 1.0]]},
            "oracle_alphas": [0.8],
            "oracle_dims": [1],
            "oracle_xis": [1.0, 3.0],
        }
        cfg = _write(tmp_path, "c.yaml", doc)
        res = runner.invoke(main, ["oracle", "--config", cfg, "--out", str(tmp_path)])
        assert res.exit_code == 0, res.output
        doc = json.loads((tmp_path / "oracle.json").read_text())
        assert len(doc["cases"]) == 2

    @pytest.mark.parametrize("xi", [1.0e-300, 1.0e200])
    def test_frequency_out_of_float_range_exits_2(self, runner, tmp_path, xi):
        doc = {
            "measure": {"atoms": [[1.0, 1.0]]},
            "oracle_alphas": [1.9],
            "oracle_dims": [1],
            "oracle_xis": [xi],
        }
        cfg = _write(tmp_path, "c.yaml", doc)
        res = runner.invoke(main, ["oracle", "--config", cfg, "--out", str(tmp_path)])
        assert res.exit_code == 2 and isinstance(res.exception, SystemExit)
        assert res.output.splitlines()[-1].startswith("error: xi must have |xi|^alpha a normal float")
        assert not (tmp_path / "oracle.json").exists()


class TestDefaultsCommand:
    def test_prints_parseable_yaml(self, runner):
        res = runner.invoke(main, ["defaults"])
        assert res.exit_code == 0
        doc = yaml.safe_load(res.output)
        assert doc["theta"] == DEFAULTS["theta"]
        assert doc["walkers"] == DEFAULTS["walkers"]
        assert "measure" in doc


class TestRunConfig:
    def test_round_trip_is_lossless(self):
        cfg = RunConfig.from_dict(BENCH)
        again = RunConfig.from_dict(cfg.raw)
        assert again.raw == cfg.raw
        assert again.measure == cfg.measure
        assert again.resolved == cfg.resolved

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError):
            RunConfig.from_dict(dict(BENCH, bogus=1))

    def test_defaults_yaml_round_trips(self):
        doc = yaml.safe_load(defaults_yaml())
        doc.pop("measure")
        for key, value in doc.items():
            assert DEFAULTS[key] == value

    def test_density_families(self):
        base = {"measure": {"atoms": [[1.0, 1.0]], "density": {
            "family": "power", "support": [0.5, 1.5], "coeff": 2.0, "exponent": 1.0,
            "nodes": 8, "panels": 1,
        }}}
        cfg = RunConfig.from_dict(base)
        # integral of 2a over [0.5, 1.5] is 2.0
        assert sum(w for _, w in cfg.measure.density_nodes) == pytest.approx(2.0, abs=1e-12)

        table = {"measure": {"density": {
            "family": "table", "points": [[0.5, 1.0], [1.5, 3.0]], "nodes": 8, "panels": 1,
        }}}
        cfg2 = RunConfig.from_dict(table)
        assert sum(w for _, w in cfg2.measure.density_nodes) == pytest.approx(2.0, abs=1e-12)

    def test_validation_errors(self):
        with pytest.raises(ValueError):
            RunConfig.from_dict({"measure": {"atoms": [[1.0, 1.0]]}, "dim": 5})
        with pytest.raises(ValueError):
            RunConfig.from_dict({"measure": {"atoms": [[1.0, 1.0]]}, "theta": 0.0})
        with pytest.raises(ValueError):
            RunConfig.from_dict({"measure": {"atoms": []}})
        with pytest.raises(ValueError):
            RunConfig.from_dict({"measure": {"atoms": [[1.0, 1.0]]}, "seed": -1})


# Each of these used to crash with a traceback or run silently.
MALFORMED = [
    ("theta", "x"), ("theta", None), ("h", "x"), ("t", "x"), ("tau", "x"), ("dim", True),
    ("quad_tol", "x"), ("zeta_tol", "x"), ("h", math.inf), ("t", math.inf), ("h", math.nan),
    ("tau", math.nan), ("n_steps", 1.5), ("trunc_radius", 1.5), ("ks_reference", "bogus"),
    ("bin_width", 0.1), ("quad_tol", -1),
]


@pytest.mark.parametrize("command", ["simulate", "study", "density"])
@pytest.mark.parametrize("key, value", MALFORMED)
def test_malformed_value_exits_2_with_one_line(runner, tmp_path, command, key, value):
    cfg = _write(tmp_path, "c.yaml", dict(BENCH, h_list=[0.2, 0.1], **{key: value}))
    res = runner.invoke(main, [command, "--config", cfg, "--out", str(tmp_path)])
    assert res.exit_code == 2 and isinstance(res.exception, SystemExit)
    assert res.output.startswith("error: ") and res.output.count("\n") == 1
    assert key in res.output


# Any value a YAML file can hold, of every type.
ANY_VALUE = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=4)),
    lambda inner: st.one_of(
        st.lists(inner, max_size=3), st.dictionaries(st.text(max_size=2), inner, max_size=2)
    ),
    max_leaves=4,
)


@settings(max_examples=300, deadline=None)
@given(st.dictionaries(st.sampled_from(sorted(DEFAULTS) + ["out", "zeta_tol"]), ANY_VALUE))
def test_fuzzed_config_is_accepted_or_rejected_cleanly(values):
    try:
        cfg = RunConfig.from_dict({"measure": {"atoms": [[1.0, 1.0]]}, **values})
    except ConfigError:
        return
    assert list(cfg.resolved) == list(DEFAULTS)


# Accepted values are kept small: the kernel command builds whatever
# trunc_radius passes validation (a huge one in 1D allocates gigabytes).
KERNEL_VALUES = {
    "dim": st.integers(1, 3),
    "h": st.floats(1e-3, 1e3),
    "theta": st.floats(0.0, 1.0, exclude_min=True),
    "tau": st.floats(0.0, 1.0),
    "trunc_radius": st.integers(1, 32),
    "t": st.floats(0.0, 1e308),  # kernel never walks, so a huge t / tau cannot hang
}
JUNK = st.one_of(
    st.none(), st.booleans(), st.text(max_size=3), st.lists(st.integers(), max_size=2),
    st.integers(-3, 0), st.sampled_from([math.nan, math.inf, -math.inf, -1.0, 0.0, 1.5, 4.0]),
)


@st.composite
def kernel_configs(draw):
    values = draw(st.fixed_dictionaries({}, optional=KERNEL_VALUES))
    if draw(st.booleans()):
        values[draw(st.sampled_from(sorted(KERNEL_VALUES)))] = draw(JUNK)
    return values


@settings(max_examples=100, deadline=None)
@given(kernel_configs())
def test_fuzzed_kernel_command_exits_0_or_2(values):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "c.yaml")
        with open(path, "w") as f:
            yaml.safe_dump({"measure": {"atoms": [[1.0, 1.0]]}, **values}, f)
        res = CliRunner().invoke(main, ["kernel", "--config", path, "--out", tmp])
    assert res.exit_code in (0, 2), res.output
    assert isinstance(res.exception, (SystemExit, type(None))), res.exception
    if res.exit_code == 2:
        assert res.output.startswith("error: ") and res.output.count("\n") == 1


class TestFailurePaths:
    def test_selfcheck_failure_exits_1(self, runner, tmp_path):
        # a grid that stops far inside the bulk leaves the first-order tail
        # estimate badly wrong, so the mass check must fail
        doc = {
            "measure": {"atoms": [[1.0, 1.0]]},
            "t": 1.0,
            "r_max": 1.0,
            "r_points": 64,
        }
        cfg = _write(tmp_path, "c.yaml", doc)
        res = runner.invoke(
            main, ["density", "--config", cfg, "--out", str(tmp_path), "--selfcheck"]
        )
        assert res.exit_code == 1
        assert "selfcheck FAILED" in res.output

    def test_unreachable_quadrature_tolerance_exits_1(self, runner, tmp_path):
        doc = {
            "measure": {"atoms": [[1.0, 1.0]]},
            "t": 1.0,
            "r_points": 16,
            "quad_tol": 1e-18,
        }
        cfg = _write(tmp_path, "c.yaml", doc)
        res = runner.invoke(main, ["density", "--config", cfg, "--out", str(tmp_path)])
        assert res.exit_code == 1

    @pytest.mark.parametrize("message, line", [
        ("Unable to allocate 8.00 GiB for an array", "error: Unable to allocate 8.00 GiB for an array\n"),
        ("", "error: MemoryError\n"),
    ])
    def test_running_out_of_memory_exits_1(self, runner, tmp_path, monkeypatch, message, line):
        def exhausted(*args, **kwargs):
            raise MemoryError(message)

        monkeypatch.setattr(cli, "run_walks", exhausted)
        cfg = _write(tmp_path, "c.yaml", BENCH)
        res = runner.invoke(main, ["simulate", "--config", cfg, "--out", str(tmp_path)])
        assert res.exit_code == 1 and res.output == line

    def test_missing_config_file(self, runner):
        res = runner.invoke(main, ["kernel", "--config", "/nonexistent.yaml"])
        assert res.exit_code == 2


class TestBenchmarkThroughCli:
    def test_simulate_cauchy_benchmark_ks(self, runner, tmp_path):
        doc = {
            "measure": {"atoms": [[1.0, 1.0]]},
            "dim": 1,
            "t": 1.0,
            "h": 0.05,
            "theta": 0.5,
            "trunc_radius": 1024,
            "walkers": 100_000,
            "seed": 101,
        }
        cfg = _write(tmp_path, "c.yaml", doc)
        res = runner.invoke(main, ["simulate", "--config", cfg, "--out", str(tmp_path)])
        assert res.exit_code == 0, res.output
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["ks_reference"] == "cauchy"
        assert summary["ks"] <= 0.03

    def test_study_three_resolution_monotone_cf(self, runner, tmp_path):
        doc = {
            "measure": {"atoms": [[1.0, 1.0]]},
            "dim": 1,
            "t": 1.0,
            "h_list": [0.2, 0.1, 0.05],
            "walkers": 2_000,
            "seed": 14,
            "xi_points": 51,
        }
        cfg = _write(tmp_path, "c.yaml", doc)
        res = runner.invoke(main, ["study", "--config", cfg, "--out", str(tmp_path)])
        assert res.exit_code == 0, res.output
        rows = json.loads((tmp_path / "study.json").read_text())["rows"]
        cf = [r["cf_sup_error"] for r in rows]
        assert cf[0] > cf[1] > cf[2]


def test_out_directory_from_config(runner, tmp_path):
    doc = dict(BENCH, out=str(tmp_path / "from_config"))
    cfg = _write(tmp_path, "c.yaml", doc)
    res = runner.invoke(main, ["kernel", "--config", cfg])
    assert res.exit_code == 0, res.output
    assert (tmp_path / "from_config" / "kernel.json").exists()


def test_density_selfcheck_passes_on_default_grid_heavy_tails(runner, tmp_path):
    # short-alpha mixtures need far-field reach; the default grid must extend
    # enough that the mass check holds without hand-tuned r_max
    doc = {
        "measure": {
            "atoms": [[0.8, 1.0], [1.6, 0.5]],
            "density": {"family": "constant", "support": [0.5, 1.5], "coeff": 1.0},
        },
        "dim": 1,
        "t": 0.5,
        "r_points": 400,
    }
    cfg = _write(tmp_path, "c.yaml", doc)
    res = runner.invoke(
        main, ["density", "--config", cfg, "--out", str(tmp_path), "--selfcheck"]
    )
    assert res.exit_code == 0, res.output
    assert "selfcheck passed" in res.output


def test_density_selfcheck_on_a_sharp_core(runner, tmp_path):
    # at alpha = 0.1 the first radius lies outside G's flat core: the core
    # cell held mass 154 and the selfcheck read mass=154.92553255
    cfg = _write(tmp_path, "c.yaml", {"measure": {"atoms": [[0.1, 1.0]]}, "dim": 1, "t": 1.0})
    res = runner.invoke(main, ["density", "--config", cfg, "--out", str(tmp_path), "--selfcheck"])
    mass = json.loads((tmp_path / "density.json").read_text())["mass"]
    assert f"mass={mass:.8f}" in res.output
    assert abs(mass - 1.0) <= 1e-2


def test_commands_load_no_numpy_ma(tmp_path):
    # a plain np.unique imports numpy.ma (14 ms) on first use; its
    # return_counts and axis forms, which the census and KS distance take, do not
    runs = [
        ("simulate", {"measure": {"atoms": [[1.0, 1.0]]}, "dim": 1, "t": 0.5, "h": 0.2,
                      "trunc_radius": 16, "walkers": 500}),
        ("simulate", {"measure": {"atoms": [[0.7, 1.0]]}, "dim": 2, "t": 0.5, "h": 0.4,
                      "trunc_radius": 8, "walkers": 500, "ks_reference": "analytic"}),
        ("study", {"measure": {"atoms": [[0.7, 1.0], [1.4, 0.5]]}, "dim": 2, "t": 1.0,
                   "h_list": [0.4, 0.2], "trunc_radius": 8, "walkers": 500}),
        ("density", {"measure": {"atoms": [[0.8, 1.0], [1.6, 0.5]]}, "dim": 1, "t": 1.0,
                     "r_points": 64}),
    ]
    code = ["import sys", "import numpy as np", "from fracwalk.cli import main",
            "from fracwalk.montecarlo import WalkEnsemble"]
    for i, (command, doc) in enumerate(runs):
        cfg = _write(tmp_path, f"c{i}.yaml", doc)
        out = str(tmp_path / f"out{i}")
        code.append(f"main([{command!r}, '--config', {cfg!r}, '--out', {out!r}], standalone_mode=False)")
    # walkers 2^40 sites apart: the census's sort paths
    code.append("far = np.arange(3000, dtype=np.int64).reshape(1000, 3) % 7 << 40")
    code.append("WalkEnsemble(3, 0.1, 0.1, 1, 1000, 0, far).summary_dict()")
    code.append("print('numpy.ma' in sys.modules)")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    proc = subprocess.run([sys.executable, "-c", "\n".join(code)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "False"
    assert all((tmp_path / f"out{i}").is_dir() for i in range(len(runs)))


def test_import_loads_no_scipy_or_mpmath():
    # scipy's import alone cost every command about 0.13 s and 25 MB; both
    # packages are test-only oracles now
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    for module in ("fracwalk", "fracwalk.cli"):
        code = (
            f"import sys, {module}; "
            "print([m for m in sys.modules if m.split('.')[0] in ('scipy', 'mpmath')])"
        )
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        assert out.stdout.strip() == "[]", module


# tau = theta * tau_max(h): a non-finite weight or h**alpha reaches the kernel
UNSET_TAU = {k: v for k, v in BENCH.items() if k != "tau"}

# Each of these measure blocks used to crash with a traceback, write a
# kernel of nan probabilities or run silently on a truncated value.
MALFORMED_MEASURES = [
    {"atoms": [None]},
    {"atoms": [[]]},
    {"atoms": [[1.0, 2.0, 3.0]]},
    {"atoms": "x"},
    {"atoms": [[1.0, math.nan]]},
    {"atoms": [[1.0, math.inf]]},
    {"atoms": [[math.nan, 1.0]]},
    {"atoms": [[1.0, True]]},
    {"atoms": [{"alpha": 1.0, "weight": None}]},
    {"density": {"family": "constant", "support": [0.5, 1.5], "coeff": math.nan}},
    {"density": {"family": "constant", "support": [0.5, 1.5], "nodes": 32.7}},
    {"density": {"family": "constant", "support": [0.5, "x"]}},
    {"density": {"family": "constant", "support": 1.0}},
    {"density": {"family": "table", "points": [[0.5, 1.0], 1.5]}},
    {"density": "constant"},
]


@pytest.mark.parametrize("measure", MALFORMED_MEASURES)
def test_malformed_measure_exits_2_with_one_line(runner, tmp_path, measure):
    cfg = _write(tmp_path, "c.yaml", dict(UNSET_TAU, measure=measure))
    res = runner.invoke(main, ["kernel", "--config", cfg, "--out", str(tmp_path)])
    assert res.exit_code == 2 and isinstance(res.exception, SystemExit)
    assert res.output.startswith("error: ") and res.output.count("\n") == 1
    assert not (tmp_path / "kernel.json").exists()


@pytest.mark.parametrize("command", ["kernel", "simulate"])
@pytest.mark.parametrize("h", [1.0e300, 1.0e-300])
def test_mesh_width_where_h_to_alpha_overflows_exits_2(runner, tmp_path, command, h):
    cfg = _write(tmp_path, "c.yaml", dict(UNSET_TAU, measure={"atoms": [[1.5, 1.0]]}, h=h))
    res = runner.invoke(main, [command, "--config", cfg, "--out", str(tmp_path)])
    assert res.exit_code == 2 and isinstance(res.exception, SystemExit)
    assert res.output.startswith("error: ") and res.output.count("\n") == 1
    assert f"h = {h!r}" in res.output


def test_density_nodes_are_capped(runner, tmp_path):
    # Gauss-Legendre nodes take O(nodes^2) memory: 100000 would need about 77 GB
    import tracemalloc

    measure = {"density": {"family": "constant", "support": [0.5, 1.5], "nodes": 100000, "panels": 1}}
    cfg = _write(tmp_path, "c.yaml", dict(UNSET_TAU, measure=measure))
    tracemalloc.start()
    try:
        res = runner.invoke(main, ["kernel", "--config", cfg, "--out", str(tmp_path)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.exit_code == 2 and isinstance(res.exception, SystemExit)
    assert res.output.startswith("error: ") and res.output.count("\n") == 1
    assert "density nodes" in res.output
    assert peak < 64 * 2**20


@pytest.mark.parametrize("command, key", [("study", "xi_points"), ("density", "r_points")])
def test_grid_sizes_are_capped(runner, tmp_path, command, key):
    # a billion-point frequency or radial grid would allocate gigabytes
    import tracemalloc

    cfg = _write(tmp_path, "c.yaml", dict(BENCH, h_list=[0.2, 0.1], **{key: 10**9}))
    tracemalloc.start()
    try:
        res = runner.invoke(main, [command, "--config", cfg, "--out", str(tmp_path)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.exit_code == 2 and isinstance(res.exception, SystemExit)
    assert res.output.startswith("error: ") and res.output.count("\n") == 1
    assert key in res.output
    assert peak < 64 * 2**20
    assert RunConfig.from_dict({**BENCH, key: 2**16}).resolved[key] == 2**16


@pytest.mark.parametrize("command", ["kernel", "simulate"])
@pytest.mark.parametrize("run", [{"tau": 1.0e-320}, {"t": 1.0e300, "tau": 1.0e-10}])
def test_step_count_past_float_range_exits_2(runner, tmp_path, command, run):
    # ceil(t / tau) used to raise OverflowError with a traceback
    cfg = _write(tmp_path, "c.yaml", dict(BENCH, **run))
    res = runner.invoke(main, [command, "--config", cfg, "--out", str(tmp_path)])
    assert res.exit_code == 2 and isinstance(res.exception, SystemExit)
    assert res.output.startswith("error: ") and res.output.count("\n") == 1
    assert f"t = {float(run.get('t', 1.0))!r}, tau = {run['tau']!r}" in res.output
    assert not (tmp_path / "kernel.json").exists() and not (tmp_path / "ensemble.csv").exists()


@pytest.mark.parametrize("doc", [
    {"measure": {"atoms": [[1.0, 1.0]]}, "dim": 2, "t": 1.0e300},
    {"measure": {"atoms": [[1.0, 1.0e300]]}, "dim": 1},
])
def test_density_envelope_too_steep_to_panel_exits_2(runner, tmp_path, doc):
    # the decay refinement doubled its panels for 40 rounds, to 51 million
    # edges (392 MiB in one array), and exhausted memory
    import tracemalloc

    cfg = _write(tmp_path, "c.yaml", doc)
    tracemalloc.start()
    try:
        res = runner.invoke(main, ["density", "--config", cfg, "--out", str(tmp_path)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.exit_code == 2 and isinstance(res.exception, SystemExit)
    assert res.output.startswith("error: ") and res.output.count("\n") == 1
    assert "too steeply" in res.output
    assert peak < 64 * 2**20
    assert not (tmp_path / "density.csv").exists()


def test_study_mesh_ratio_past_float_range_exits_2(runner, tmp_path):
    # (h_list[0] / h) ** 2 overflowed in the truncation radius, with a traceback;
    # the cap takes that row, and the mesh width itself is then out of range
    doc = {"measure": {"atoms": [[1.0, 1.0]]}, "dim": 1, "h_list": [1.0e10, 1.0e-320],
           "walkers": 100}
    cfg = _write(tmp_path, "c.yaml", doc)
    res = runner.invoke(main, ["study", "--config", cfg, "--out", str(tmp_path)])
    assert res.exit_code == 2 and isinstance(res.exception, SystemExit)
    assert res.output.startswith("error: ") and res.output.count("\n") == 1
    assert "mesh width h = 1e-320 out of range" in res.output
    assert not (tmp_path / "study.json").exists()


@pytest.mark.parametrize("n_steps", [10**300, 10**400])
def test_walker_windows_past_the_generator_period_exit_2(runner, tmp_path, n_steps):
    # the walk of 10^400 steps used to run without end; the refusal comes
    # from planning, well under a second (the bound leaves room for a slow host)
    cfg = _write(tmp_path, "c.yaml", dict(BENCH, n_steps=n_steps, tau=1.0e-300, trunc_radius=64))
    start = time.perf_counter()
    res = runner.invoke(main, ["simulate", "--config", cfg, "--out", str(tmp_path)])
    assert time.perf_counter() - start < 20
    assert res.exit_code == 2 and isinstance(res.exception, SystemExit)
    assert res.output.startswith("error: ") and res.output.count("\n") == 1
    assert "period of 2^128 words" in res.output
    assert not (tmp_path / "ensemble.csv").exists()


@pytest.mark.parametrize("doc", [
    {"measure": {"atoms": [[1.0, 1.0]]}, "dim": 1, "h": 0.1, "t": 0.5},
    {"measure": {"atoms": [[0.7, 1.0], [1.4, 0.5]]}, "dim": 2, "h": 0.2, "t": 0.5,
     "trunc_radius": 12},
])
def test_every_command_resolves_the_same_run(runner, tmp_path, doc):
    cfg = _write(tmp_path, "c.yaml", dict(doc, h_list=[doc["h"]], walkers=200, xi_points=11))
    for command in ("kernel", "simulate", "study"):
        res = runner.invoke(main, [command, "--config", cfg, "--out", str(tmp_path)])
        assert res.exit_code == 0, res.output
    kernel = json.loads((tmp_path / "kernel.json").read_text())
    summary = json.loads((tmp_path / "summary.json").read_text())
    (row,) = json.loads((tmp_path / "study.json").read_text())["rows"]
    assert kernel["tau"] == summary["tau"] == row["tau"] == 0.5 * kernel["tau_max"]
    assert summary["n_steps"] == row["n_steps"] == math.ceil(doc["t"] / kernel["tau"])
    # the truncation radius K shows in every output's tail mass
    assert kernel["K"] == doc.get("trunc_radius", 64)
    assert kernel["tail_mass"] == summary["tail_mass"] == row["tail_mass"]
