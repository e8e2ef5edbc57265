"""The chunk engine: one grid pass per sweep, one pool per call.

A temperature sweep integrates every temperature in one pass over the
grid, and each value must equal the single-temperature integral bit for
bit, at any worker count. The lattice oracle builds its frames through
the same engine. Each top-level call starts at most one process pool,
and a typed error raised inside a pooled chunk reaches the caller with
its type. Every chunk job returns (ground sizes, *columns): _map_chunks
raises GapClosed when the sizes differ across chunks, and otherwise hands
back each column in range order.
"""
import json
import math

import numpy as np
import pytest

from uhlmann_chern import chern, cli, geometry, linalg, models
from uhlmann_chern.errors import GapClosed, NonFiniteInput, ResolutionTooLowWarning

from conftest import random_points

TEMPS = [0.05, 0.3, 1.0, 4.0]


@pytest.fixture
def pools(monkeypatch):
    """Counts the process pools the chunk engine starts."""
    started = []

    class CountingPool(chern.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            started.append(kwargs.get("max_workers"))
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(chern, "ProcessPoolExecutor", CountingPool)
    return started


# -- temperature batching ------------------------------------------------------


@pytest.mark.parametrize("workers", [1, 2])
def test_first_order_sweep_equals_single_temperature_integrals(haldane, workers):
    grid = chern.default_grid(haldane, 72)  # two chunks, the second partial
    sweep = chern.temperature_sweep(haldane, TEMPS, grid, workers=workers)
    for t, value, diag in zip(TEMPS, sweep.values, sweep.diagnostics):
        lone = chern.first_thermal_uc(haldane, chern.beta_from_temperature(t, haldane.r0), grid)
        assert value == lone.value
        assert diag["imag_residual"] == lone.imag_residual


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.filterwarnings("ignore::uhlmann_chern.errors.ResolutionTooLowWarning")
def test_second_order_sweep_equals_single_temperature_integrals(fourband, workers):
    grid = chern.default_grid(fourband, 9)  # two chunks
    temps = [0.4, 1.2]
    sweep = chern.temperature_sweep(fourband, temps, grid, workers=workers)
    for t, value, diag in zip(temps, sweep.values, sweep.diagnostics):
        lone = chern.second_thermal_uc(fourband, chern.beta_from_temperature(t, fourband.r0), grid)
        assert value == lone.value
        assert diag["imag_residual"] == lone.imag_residual
        assert diag["route_disagreement"] == lone.extra["route_disagreement"]


def test_thermal_trace_grid_takes_a_sequence_of_betas(haldane, rng):
    pts = rng.uniform(0.0, 1.0, (5, 2)) * np.asarray(haldane.manifold.cell)
    betas = (0.0, 0.7, models.BETA_INF)
    batched = geometry.thermal_trace_grid(haldane, pts, betas)
    assert batched.shape == (3, 1, 5)
    for beta, traces in zip(betas, batched):
        assert np.array_equal(traces, geometry.thermal_trace_grid(haldane, pts, beta))


@pytest.mark.parametrize("name", ["fourband", "coherent"])  # two clusters, and many
def test_curvature_frame_serves_every_beta(request, rng, name):
    model = request.getfixturevalue(name)
    pts = random_points(model, rng, 6)
    frame = geometry.curvature_frame_grid(model, pts)
    for beta in (0.3, 2.0, models.BETA_INF):
        f, lam = geometry.uhlmann_curvature_from_frame(frame, beta)
        ref_f, ref_lam = geometry.uhlmann_curvature_from_frame(
            geometry.curvature_frame_grid(model, pts), beta)
        assert np.array_equal(f, ref_f) and np.array_equal(lam, ref_lam)


# -- one pool per call -----------------------------------------------------------


@pytest.mark.filterwarnings("ignore::uhlmann_chern.errors.ResolutionTooLowWarning")
def test_each_call_starts_one_pool(haldane, fourband, pools):
    chern.temperature_sweep(haldane, TEMPS, chern.default_grid(haldane, 72), workers=2)
    assert pools == [2]
    chern.second_thermal_uc(fourband, 1.0, chern.default_grid(fourband, 9), workers=2)
    assert pools == [2, 2]
    chern.temperature_sweep(fourband, [0.4, 1.2], chern.default_grid(fourband, 9), workers=2)
    assert pools == [2, 2, 2]
    chern.pure_chern_fhs(haldane, 0, chern.default_grid(haldane, 72), workers=2)
    assert pools == [2, 2, 2, 1]  # 72 plaquette rows are one row block: one worker
    chern.first_thermal_uc(haldane, 1.0, chern.default_grid(haldane, 72), workers=1)
    assert pools == [2, 2, 2, 1]


@pytest.fixture
def serial_pools(monkeypatch):
    """Records the max_workers of each pool the chunk engine starts and runs
    its jobs in this process, so that no worker count asked for is forked."""
    started = []

    class SerialPool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs, chunksize=1):
            return map(fn, jobs)

    monkeypatch.setattr(chern, "ProcessPoolExecutor", SerialPool)
    return started


@pytest.mark.parametrize("n, workers, started", [(72, 10**6, [2]), (32, 2, [1]), (72, 1, [])],
                         ids=["huge", "one_range", "serial"])
def test_a_pool_has_at_most_one_worker_per_range(haldane, serial_pools, n, workers, started):
    grid = chern.default_grid(haldane, n)  # 72: two chunks; 32: one
    pooled = chern.first_thermal_uc(haldane, 1.0, grid, workers=workers)
    assert serial_pools == started
    assert pooled == chern.first_thermal_uc(haldane, 1.0, grid)


# -- the chunk-job contract ---------------------------------------------------------


def reporting_job(model, pts, sizes, tol):
    """A chunk job that reports sizes[0] as its ground sizes on a full chunk and
    sizes[1] on a short one, with its point count and first point as columns."""
    return sizes[len(pts) < chern.CHUNK_SIZE], len(pts), float(pts[0, 1])


@pytest.mark.parametrize("workers", [1, 2])
def test_map_chunks_checks_the_ground_size_across_chunks(haldane, workers):
    grid = chern.default_grid(haldane, 72)  # two chunks: 4,096 and 1,088 points
    with pytest.raises(GapClosed, match="ground degeneracy varies"):
        chern._map_chunks(reporting_job, haldane, grid, ((1,), (2,)), 0.0, workers)
    firsts = (grid.points_range(0, 1)[0, 1], grid.points_range(4096, 4097)[0, 1])
    for sizes in (((), ()), ((2,), (2,)), ((2,), ())):
        counts, first = chern._map_chunks(reporting_job, haldane, grid, sizes, 0.0, workers)
        assert counts == (4096, 1088) and first == firsts  # columns in range order


# -- the lattice oracle through the engine ---------------------------------------


def frames_job(model, pts, group, tol):
    """chern._frame_grid as a chunk job: no ground sizes, one column of frames."""
    return (), chern._frame_grid(model, pts, group, tol)


@pytest.mark.parametrize("variant", ["haldane", "sphere"])
def test_fhs_frames_do_not_depend_on_workers_or_chunking(variant, haldane_ref, sphere):
    model = haldane_ref if variant == "haldane" else sphere
    grid = chern.default_grid(model, 72)
    points = chern._ClosedGrid(grid)
    serial, pooled = (np.concatenate(chern._map_chunks(frames_job, model, points, (0,),
                                                       linalg.DEGENERACY_TOL, workers)[0])
                      for workers in (1, 2))
    assert np.array_equal(serial, pooled)
    whole = chern._frame_grid(model, points.points_range(0, points.n_points), (0,),
                              linalg.DEGENERACY_TOL)
    assert np.array_equal(serial.reshape(whole.shape), whole)
    expected = 1 if variant == "haldane" else chern.pure_chern_fhs(model, 0, grid)
    assert chern.pure_chern_fhs(model, 0, grid, workers=2) == expected


def test_pole_closed_grid_layout(sphere, haldane):
    # A sphere: the two pole rows and the seam column at phi_0 + 2 pi.
    grid = chern.default_grid(sphere, 8)
    layout = chern._ClosedGrid(grid)
    assert layout.resolution == (10, 9) and layout.n_points == 90
    pts = layout.points_range(0, 90)
    assert pts.shape == (90, 2)
    assert np.all(pts[:9, 0] == 0.0) and np.all(pts[-9:, 0] == math.pi)
    assert np.array_equal(pts[9:18, 0], np.full(9, grid.axis(0)[0]))
    assert np.array_equal(pts[9:17, 1], grid.axis(1))
    assert np.all(pts[8::9, 1] == grid.axis(1)[0] + 2 * math.pi)
    # A torus: the seam row k_0 + cell_0 and the seam column k_1 + cell_1.
    grid = chern.default_grid(haldane, 8)
    cell = haldane.manifold.cell
    layout = chern._ClosedGrid(grid)
    assert layout.resolution == (9, 9)
    pts = layout.points_range(0, 81)
    assert np.array_equal(pts[:72:9, 0], grid.axis(0))
    assert np.all(pts[-9:, 0] == grid.axis(0)[0] + cell[0])
    assert np.array_equal(pts[:8, 1], grid.axis(1))
    assert np.all(pts[8::9, 1] == grid.axis(1)[0] + cell[1])


def test_cli_chern_uses_the_workers(tmp_path, pools):
    cfg = {
        "model": {"variant": "haldane",
                  "parameters": {"t1": 1.0, "t2": 0.5, "phi": math.pi / 2, "M": 0.0}},
        "grid": {"resolution": [200, 200]},  # 200 plaquette rows: three row blocks
        "run": {"type": "chern"},
    }
    path = tmp_path / "chern.json"
    path.write_text(json.dumps(cfg))
    values = []
    for workers in ("1", "2"):
        out = tmp_path / f"out{workers}"
        assert cli.main(["--config", str(path), "--out", str(out), "--workers", workers]) == 0
        values.append(json.loads((out / "chern.json").read_text())["value"])
    assert values == [1, 1]
    assert pools == [2]


# -- typed errors through the pool ---------------------------------------------------


class GapClosingHaldane(models.Haldane):
    """Haldane model whose Hamiltonian refuses points past the middle of
    the first coordinate, as a closing gap would; module level, so a
    pool can unpickle it."""

    def hamiltonian_batch(self, pts):
        if np.any(np.asarray(pts)[:, 0] > 0.5 * self.manifold.cell[0]):
            raise GapClosed("test gap closes past the middle of the cell")
        return super().hamiltonian_batch(pts)


def _closing():
    return GapClosingHaldane(t1=1.0, t2=0.5, phi=math.pi / 2, M=0.0)


def test_gap_closed_in_a_pooled_chunk_keeps_its_type():
    grid = chern.default_grid(_closing(), 72)
    with pytest.raises(GapClosed, match="middle of the cell"):
        chern.temperature_sweep(_closing(), TEMPS, grid, workers=2)
    with pytest.raises(GapClosed, match="middle of the cell"):
        chern.pure_chern_fhs(_closing(), 0, grid, workers=2)


@pytest.mark.parametrize("run", [
    {"type": "chern"},
    {"type": "sweep", "temperatures": [0.1, 1.0]},
])
def test_cli_gap_closed_in_a_pooled_chunk_exits_3(tmp_path, capsys, monkeypatch, run):
    monkeypatch.setitem(models.MODEL_VARIANTS, "haldane", GapClosingHaldane)
    cfg = {
        "model": {"variant": "haldane",
                  "parameters": {"t1": 1.0, "t2": 0.5, "phi": math.pi / 2, "M": 0.0}},
        "grid": {"resolution": [72, 72]},
        "run": run,
    }
    path = tmp_path / "closing.json"
    path.write_text(json.dumps(cfg))
    assert cli.main(["--config", str(path), "--out", str(tmp_path / "out"), "--workers", "2"]) == 3
    err = capsys.readouterr().err
    assert "GapClosed" in err and "Traceback" not in err


# -- NaN temperatures ----------------------------------------------------------------


def test_nan_temperature_raises_non_finite_input(haldane):
    grid = chern.default_grid(haldane, 16)
    with pytest.raises(NonFiniteInput):
        chern.beta_from_temperature(math.nan, 1.0)
    with pytest.raises(NonFiniteInput):
        chern.beta_from_temperature(math.inf, math.nan)
    for temps in ([math.nan], [0.1, math.nan]):
        with pytest.raises(NonFiniteInput):
            chern.temperature_sweep(haldane, temps, grid)
    assert chern.beta_from_temperature(math.inf, 1.0) == 0.0
    assert chern.beta_from_temperature(0.0, 1.0) == models.BETA_INF


@pytest.mark.parametrize("run", [
    {"type": "sweep", "temperatures": [math.nan]},
    {"type": "sweep", "temperatures": [0.1, math.nan]},
    {"type": "map", "temperatures": [math.nan]},
])
def test_cli_nan_temperature_exits_3(tmp_path, capsys, run):
    cfg = {
        "model": {"variant": "haldane",
                  "parameters": {"t1": 1.0, "t2": 0.5, "phi": math.pi / 2, "M": 0.0}},
        "grid": {"resolution": [16, 16]},
        "run": run,
    }
    path = tmp_path / "nan.json"
    path.write_text(json.dumps(cfg))  # json writes NaN, which json.loads accepts
    out = tmp_path / "out"
    assert cli.main(["--config", str(path), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert "NonFiniteInput" in err and "Traceback" not in err
    assert not (out / "sweep.csv").exists()


def test_infinite_temperature_sweeps_to_zero(haldane):
    sweep = chern.temperature_sweep(haldane, [1.0, math.inf], chern.default_grid(haldane, 16))
    assert sweep.diagnostics[1]["beta"] == 0.0
    assert sweep.values[1] == 0.0
