"""The FFTLog tabulation of the Green density and its radial CDF.

``green_density`` takes G on a geometric grid, and the radial CDF on any
grid, from FFTLog transforms; the per-radius panel quadrature
(``_radial_point``) is the reference they are checked against here.
"""

import gc
import math
import tracemalloc
import weakref

import numpy as np
import pytest
import yaml
from click.testing import CliRunner

from fracwalk import (
    DiffusionSymbol,
    OrderMeasure,
    QuadratureError,
    analytic,
    green_density,
    quadrature,
    special,
    symbol_oracle,
)
from fracwalk.analytic import (
    _fftlog_tables,
    _radial_point,
    _smooth_panels,
    default_radial_grid,
)
from fracwalk.cli import main
from oracles import MIXED, fht_out_of_place

MEASURES = {
    "mixed": MIXED,
    "alpha0.3": OrderMeasure.single(0.3),
    "alpha1.0": OrderMeasure.single(1.0),
    "alpha1.9": OrderMeasure.single(1.9),
}


def _quadrature(sym, t, radii):
    smooth = _smooth_panels(sym, t)
    return np.array([_radial_point(sym, t, float(x), smooth)[0] for x in radii])


def _from_fftlog(dens) -> bool:
    # the FFTLog table is finer than the grid; the quadrature keeps the grid
    return len(dens.table[0]) > len(dens.r)


# alpha = 0.3 peaks at G(1, 0) = 206 in 2D and 6.1e4 in 3D (where doubles
# are 7.3e-12 apart); both sides round relative to the peak, so there the
# bound is 1e-12 relative to G(1, 0)
LARGE_PEAK = {("alpha0.3", 2), ("alpha0.3", 3)}


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("name", sorted(MEASURES))
def test_fftlog_matches_quadrature_on_default_grid(name, dim):
    sym = DiffusionSymbol(MEASURES[name], dim)
    dens = green_density(sym, 1.0)
    assert _from_fftlog(dens)
    ref = _quadrature(sym, 1.0, dens.r)
    bound = 1e-12 * (ref[0] if (name, dim) in LARGE_PEAK else 1.0)
    assert np.max(np.abs(dens.values - ref)) <= bound
    assert dens.error_estimate <= 1e-7  # green_density's default tol


def _cauchy_cdf(r, dim, t):
    if dim == 1:
        return 2.0 / math.pi * np.arctan(r / t)
    if dim == 2:
        return 1.0 - t / np.sqrt(r * r + t * t)
    return 2.0 / math.pi * (np.arctan(r / t) - r * t / (r * r + t * t))


@pytest.mark.parametrize("t", [0.5, 2.0])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_radial_cdf_matches_cauchy_closed_forms(dim, t):
    sym = DiffusionSymbol(OrderMeasure.single(1.0), dim)
    dens = green_density(sym, t)
    assert _from_fftlog(dens)
    r = dens.r[1:]
    between = np.sqrt(r[1:] * r[:-1])  # geometric midpoints, off the table nodes
    probe = np.concatenate([[0.0], r, between, [0.3 * t, t, 7.0 * t]])
    err = np.abs(dens.radial_cdf(probe) - _cauchy_cdf(probe, dim, t))
    assert np.max(err) <= 1e-10


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_fallback_radial_cdf_matches_cauchy_closed_forms(dim):
    # without the FFTLog table the CDF integrates the requested grid
    sym = DiffusionSymbol(OrderMeasure.single(1.0), dim)
    certified = green_density(sym, 1.0)
    dens = green_density(sym, 1.0, tol=0.5 * certified.error_estimate)
    assert not _from_fftlog(dens)
    r = dens.r[1:]
    probe = np.concatenate([[0.0], r, np.sqrt(r[1:] * r[:-1]), [0.3, 1.0, 7.0]])
    err = np.abs(dens.radial_cdf(probe) - _cauchy_cdf(probe, dim, 1.0))
    assert np.max(err) <= 1e-6
    assert dens.mass() == pytest.approx(1.0, abs=1e-3)


def test_non_geometric_grid_takes_the_quadrature():
    sym = DiffusionSymbol(OrderMeasure(atoms=[(0.7, 1.0), (1.4, 0.5)]), 2)
    r = np.linspace(0.0, 6.0, 25)
    dens = green_density(sym, 1.0, r)
    np.testing.assert_array_equal(dens.values, _quadrature(sym, 1.0, r))
    assert _from_fftlog(dens)  # density() and the CDF still use the FFTLog table


def test_missed_certificate_falls_back_to_the_quadrature():
    # G's certificate in 3D includes the CDF table's small-r rounding; a
    # tolerance between it and the quadrature's own estimates forces the
    # per-radius quadrature, which then meets the tolerance on its own
    sym = DiffusionSymbol(OrderMeasure.single(1.9), 3)
    grid = default_radial_grid(sym, 1.0, 64)
    certified = green_density(sym, 1.0, grid)
    tol = 0.5 * certified.error_estimate
    dens = green_density(sym, 1.0, grid, tol=tol)
    assert not _from_fftlog(dens)
    np.testing.assert_array_equal(dens.values, _quadrature(sym, 1.0, grid))
    assert dens.error_estimate <= tol
    assert dens.mass() == pytest.approx(1.0, abs=1e-3)


def test_large_peak_scales_only_the_density_certificate():
    # alpha = 0.3 in 3D peaks at G(1, 0) = 6.1e4: G's part of the certificate
    # is held to the tolerance relative to the peak, the CDF's part and the
    # quadrature's own estimates absolutely
    sym = DiffusionSymbol(OrderMeasure.single(0.3), 3)
    r = default_radial_grid(sym, 1.0)
    cdf_spread = _fftlog_tables(sym, 1.0, r)[3][1]
    dens = green_density(sym, 1.0, r, tol=2.0 * cdf_spread)
    assert _from_fftlog(dens)
    assert dens.error_estimate > 2.0 * cdf_spread
    with pytest.raises(QuadratureError):
        green_density(sym, 1.0, r, tol=0.5 * cdf_spread)


@pytest.mark.parametrize("r_max_scale", [None, 10.0])
@pytest.mark.parametrize("t", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("alpha", [0.3, 0.5])
def test_grid_starts_inside_the_bulk(tmp_path, alpha, dim, t, r_max_scale):
    # the grid used to start at 1e-4 r_max, whether r_max was given or not,
    # beyond the bulk of heavy tails (alpha = 0.3 in 1D: G(r_1) = 7e-5
    # against G(0) = 2.95, mass 89.9)
    config = {"measure": {"atoms": [[alpha, 1.0]]}, "dim": dim, "t": t}
    if r_max_scale is not None:
        sym = DiffusionSymbol(OrderMeasure.single(alpha), dim)
        config["r_max"] = r_max_scale * float(default_radial_grid(sym, t)[-1])
    cfg = tmp_path / "c.yaml"
    cfg.write_text(yaml.safe_dump(config))
    res = CliRunner().invoke(main, ["density", "--config", str(cfg), "--out", str(tmp_path), "--selfcheck"])
    assert res.exit_code == 0, res.output
    assert "selfcheck passed" in res.output
    rG = np.loadtxt(tmp_path / "density.csv", delimiter=",", skiprows=1)
    if r_max_scale is not None:
        assert rG[-1, 0] == pytest.approx(config["r_max"])
    assert rG[1, 1] >= 0.5 * rG[0, 1]


@pytest.mark.parametrize("dim, lines", [(1, 3), (2, 3), (3, 5)])
def test_each_log_gamma_line_is_computed_once_per_call(monkeypatch, dim, lines):
    # G's unbiased transforms read one line for both gammas, the CDF's biased
    # one two; 3D adds the biased core transform's two.  Each base transform
    # reads a prefix of its fine transform's lines.
    lengths = []
    real = special.loggamma
    monkeypatch.setattr(special, "loggamma", lambda z: lengths.append(len(z)) or real(z))
    special._held_line.cache_clear()
    green_density(DiffusionSymbol(MIXED, dim), 1.0)
    assert len(lengths) == lines


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_tables_do_not_depend_on_the_symbol_block(monkeypatch, dim):
    # blocks of 7 nodes, then one block past the largest window
    sym = DiffusionSymbol(MIXED, dim)
    default = green_density(sym, 1.0)
    for block in (7, 2 * analytic._MAX_NODES + 1):
        monkeypatch.setattr(analytic, "_RADIAL_BLOCK", block)
        dens = green_density(sym, 1.0)
        for ours, theirs in zip(dens.table, default.table):
            assert ours.tobytes() == theirs.tobytes()
        assert dens.error_estimate == default.error_estimate


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("name", ["mixed", "alpha0.3"])
def test_outputs_do_not_depend_on_the_panel_block_or_the_fht_buffers(monkeypatch, name, dim):
    # panels in blocks of 64, then one block past any panel count; then the
    # transforms with every step in a fresh array.  alpha = 0.3 in 3D has 70
    # smooth panels, so its smooth integrand also comes in blocks; r = 1000
    # takes the Aitken tail
    sym = DiffusionSymbol(MEASURES[name], dim)
    off_grid = [0.0, 0.3, 1.7, 4.0, 25.0, 1000.0]

    def outputs():
        dens, quad = green_density(sym, 1.0), green_density(sym, 1.0, off_grid)
        oracle = [symbol_oracle(alpha, dim, [2.5] * dim) for alpha in (0.5, 1.0, 1.7)]
        return [*dens.table, dens.values, quad.values, np.array([dens.error_estimate, quad.error_estimate, *oracle])]

    default = outputs()
    for block in (64, 2 * analytic._MAX_PANELS):
        monkeypatch.setattr(quadrature, "_PANEL_BLOCK", block)
        for ours, theirs in zip(outputs(), default):
            assert ours.tobytes() == theirs.tobytes()
    monkeypatch.undo()
    monkeypatch.setattr(analytic, "fht", fht_out_of_place)
    for ours, theirs in zip(outputs(), default):
        assert ours.tobytes() == theirs.tobytes()


def test_no_log_gamma_line_outlives_the_call(monkeypatch):
    # the fine and base transforms of one call share their lines (see
    # above); none is referenced once green_density returns, nor once a
    # transform raises between the two
    lines, real = [], special.loggamma

    def recording_loggamma(z):
        out = real(z)
        lines.append(weakref.ref(out))
        return out

    monkeypatch.setattr(special, "loggamma", recording_loggamma)
    green_density(DiffusionSymbol(MIXED, 3), 1.0)
    gc.collect()
    assert len(lines) == 5
    assert all(line() is None for line in lines)

    def fine_only(a, dln, *args, **kwargs):
        if lines:
            raise MemoryError("base transform")
        return special.fht(a, dln, *args, **kwargs)

    lines.clear()
    monkeypatch.setattr(analytic, "fht", fine_only)
    with pytest.raises(MemoryError, match="base transform"):
        green_density(DiffusionSymbol(MIXED, 1), 1.0)
    gc.collect()
    assert len(lines) == 1
    assert lines[0]() is None


def test_wide_window_peak_memory():
    # one atom at alpha = 0.1 in 2D: log-gamma lines of 55297 entries and
    # 2000 panels at the farthest check radius.  The Stirling steps run in
    # place; the shift, the fht factors and the panels go in fixed blocks
    # (7.71 MB; 13.0 MB with every step in a fresh array and all panels at once)
    sym = DiffusionSymbol(OrderMeasure.single(0.1), 2)
    tracemalloc.start()
    try:
        green_density(sym, 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8.0e6


def test_fftlog_tables_peak_memory():
    # the mixed_density measure and grid, log-gamma lines included: the symbol
    # goes through the window in blocks and each input is freed once
    # transformed (3.33 MB with the whole window evaluated at once, every
    # input kept)
    sym = DiffusionSymbol(MIXED, 1)
    grid = default_radial_grid(sym, 1.0, 512)
    special._held_line.cache_clear()
    tracemalloc.start()
    try:
        assert _fftlog_tables(sym, 1.0, grid) is not None
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3.0e6
