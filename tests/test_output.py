"""The one result-file format: every CSV the package writes has CRLF line
ends, parses with ``csv.reader`` and round-trips its floats exactly, and
every library JSON file is ``json.dumps(to_json_dict(), indent=2)``."""

import csv
import io
import json

import numpy as np
import pytest
import yaml
from click.testing import CliRunner

from fracwalk import (
    DiffusionSymbol, LatticeDistribution, OrderMeasure, build_kernel, evolve, green_density,
    refinement_study,
)
from fracwalk.cli import main
from fracwalk.output import write_csv

MEASURE = {"atoms": [[0.8, 0.6], [1.5, 0.4]]}


def _rows(path):
    """The file's rows by ``csv.reader``, after checking every line ends in CRLF."""
    data = path.read_bytes()
    assert data.endswith(b"\r\n")
    lines = data.split(b"\r\n")[:-1]
    assert not any(b"\r" in line or b"\n" in line for line in lines)
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    assert len(rows) == len(lines)
    return rows


def _columns(path, header):
    rows = _rows(path)
    assert rows[0] == header
    for row in rows[1:]:
        assert all(repr(float(x)) == x or str(int(x)) == x for x in row)
    return np.array(rows[1:], dtype=float).T


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """The CLI's files for one small 2D run: ensemble, density and study."""
    out = tmp_path_factory.mktemp("out")
    doc = {"measure": MEASURE, "dim": 2, "t": 0.5, "h": 0.2, "h_list": [0.4, 0.2],
           "walkers": 300, "seed": 5, "xi_points": 11, "r_points": 64}
    cfg = out / "c.yaml"
    cfg.write_text(yaml.safe_dump(doc))
    for command in ("simulate", "density", "study"):
        res = CliRunner().invoke(main, [command, "--config", str(cfg), "--out", str(out)])
        assert res.exit_code == 0, res.output
    return out


def test_density_csv(outputs):
    doc = json.loads((outputs / "density.json").read_text())
    r, g = _columns(outputs / "density.csv", ["r", "G"])
    assert r.tolist() == doc["r"] and g.tolist() == doc["G"]


def test_study_csv(outputs):
    rows = json.loads((outputs / "study.json").read_text())["rows"]
    names = ["h", "tau", "n_steps", "cf_sup_error", "ks_distance", "tail_mass"]
    columns = _columns(outputs / "study.csv", names)
    for name, column in zip(names, columns):
        assert column.tolist() == [row[name] for row in rows]


@pytest.mark.parametrize("name, metric", [("plot_cf_error.csv", "cf_sup_error"),
                                          ("plot_ks.csv", "ks_distance")])
def test_plot_csv(outputs, name, metric):
    rows = json.loads((outputs / "study.json").read_text())["rows"]
    h, y = _columns(outputs / name, ["h", metric])
    assert h.tolist() == [row["h"] for row in rows]
    assert y.tolist() == [row[metric] for row in rows]


def test_ensemble_csv(outputs):
    positions = _columns(outputs / "ensemble.csv", ["x1", "x2"]).T
    assert positions.shape == (300, 2)
    # each coordinate is a lattice vector times h, as final_positions gives it
    assert np.array_equal(positions, np.round(positions / 0.2) * 0.2)


def test_law_csv(tmp_path):
    kernel = build_kernel(OrderMeasure.from_atoms(MEASURE["atoms"]), 2, 0.2, 0.01, 8)
    law = evolve(LatticeDistribution.delta(2, 0.2), kernel, 3)
    law.to_csv(tmp_path / "law.csv")
    j1, j2, mass = _columns(tmp_path / "law.csv", ["j1", "j2", "mass"])
    sites, masses = law.nonzero_sites()
    assert np.array_equal(np.stack([j1, j2], axis=1), sites)
    assert mass.tolist() == masses.tolist()


def test_write_csv_is_csv_writer_bytes(tmp_path):
    rows = [(0.1, -0.0, 3), (1e-320, float("inf"), -7), (2.5e300, float("nan"), 0)]
    write_csv(tmp_path / "a.csv", ["a", "b", "c"], rows)
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(["a", "b", "c"])
    writer.writerows([repr(x) for x in row] for row in rows)
    assert (tmp_path / "a.csv").read_bytes() == buf.getvalue().encode()


def test_library_json_files(tmp_path):
    measure = OrderMeasure.from_atoms(MEASURE["atoms"])
    kernel = build_kernel(measure, 1, 0.2, 0.01, 8)
    objects = [
        green_density(DiffusionSymbol(measure, 1), 0.5, np.linspace(0.0, 4.0, 9)),
        refinement_study(measure, 1, 0.5, [0.4], walkers=200, seed=3, xi_points=11),
        evolve(LatticeDistribution.delta(1, 0.2), kernel, 3),
    ]
    for i, obj in enumerate(objects):
        path = tmp_path / f"{i}.json"
        obj.to_json(path)
        assert path.read_text() == json.dumps(obj.to_json_dict(), indent=2)
