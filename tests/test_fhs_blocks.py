"""The lattice oracle in row blocks, and CLI map through the chunk engine.

pure_chern_fhs hands each chunk job a block of whole grid rows plus one
halo row; the job forms its own frames, links and plaquettes and
returns two scalars. The integers must not depend on the worker count
or the block size, and must equal the integers recorded before the
oracle moved into the chunk jobs. CLI map makes one spectral pass per
chunk and writes the same bytes as the two-call form.
"""
import json
import math

import numpy as np
import pytest

from uhlmann_chern import chern, cli, geometry, models

# (phi, M) -> lower-band Chern number, recorded from the frame-
# concatenating oracle on every grid below.
HALDANE_TABLE = {
    (-1.2, 0.0): -1,
    (-1.2, 3.0): 0,
    (0.6, -2.0): 0,
    (0.6, 1.2): 1,
    (1.8, -2.0): 1,
    (math.pi / 2, 3.0): 0,
}
GRIDS = [(40, 72), (9, 1000)]  # 1000 columns do not divide the 4096-point chunk


@pytest.fixture
def fhs_results(monkeypatch):
    """Every per-chunk result list that _map_chunks hands back."""
    seen = []
    inner = chern._map_chunks

    def recording(job, *args, **kwargs):
        out = inner(job, *args, **kwargs)
        seen.append((job, out))
        return out

    monkeypatch.setattr(chern, "_map_chunks", recording)
    return seen


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("resolution", GRIDS)
def test_haldane_phase_table(resolution, workers):
    for (phi, mass), expected in HALDANE_TABLE.items():
        model = models.Haldane(t1=1.0, t2=0.5, phi=phi, M=mass)
        grid = chern.GridSpec(model.manifold, resolution)
        assert chern.pure_chern_fhs(model, 0, grid, workers=workers) == expected


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("resolution", GRIDS + [(8, 8)])
def test_sphere_bands(resolution, workers):
    model = models.TwoLevelSphere(radius=1.3)
    grid = chern.GridSpec(model.manifold, resolution)
    assert chern.pure_chern_fhs(model, 0, grid, workers=workers) == 1
    assert chern.pure_chern_fhs(model, 1, grid, workers=workers) == -1
    assert chern.pure_chern_fhs(model, (0, 1), grid, workers=workers) == 0


@pytest.mark.parametrize("variant", ["haldane", "sphere"])
def test_reports_equal_across_workers_and_integers_across_blocks(variant, monkeypatch):
    model = (models.Haldane(t1=1.0, t2=0.5, phi=0.6, M=1.2) if variant == "haldane"
             else models.TwoLevelSphere())
    grid = chern.GridSpec(model.manifold, (40, 72))
    expected = 1
    for points in (chern.FHS_BLOCK_POINTS, 72, 100, 3000):  # one block, one row, uneven rows
        monkeypatch.setattr(chern, "FHS_BLOCK_POINTS", points)
        serial = chern.pure_chern_fhs(model, 0, grid, detail=True)
        pooled = chern.pure_chern_fhs(model, 0, grid, workers=2, detail=True)
        assert serial == pooled
        assert serial["value"] == expected
        assert serial["integer_distance"] == abs(serial["plaquette_sum"] - expected) <= 1e-9
        assert 0.5 < serial["min_link_det"] <= 1.0 + 1e-12
        assert chern.pure_chern_fhs(model, (0, 1), grid, workers=2) == 0


@pytest.mark.parametrize("points", [16384, 72, 100, 3000])
@pytest.mark.parametrize("variant, resolution", [("haldane", (40, 72)), ("haldane", (100, 37)),
                                                 ("sphere", (48, 48)), ("sphere", (9, 17))])
def test_row_blocks_are_whole_rows_that_end_on_their_halo(variant, resolution, points,
                                                          monkeypatch):
    # The oracle hands _map_chunks the index ranges of its _ClosedGrid: blocks
    # of whole rows, about FHS_BLOCK_POINTS points each, that cover each
    # plaquette row once and end on the row after it, the block's halo.
    seen = []
    inner = chern._map_chunks

    def recording(job, model, layout, params, tol, workers, ranges=None):
        seen.append((layout, ranges))
        return inner(job, model, layout, params, tol, workers, ranges)

    monkeypatch.setattr(chern, "_map_chunks", recording)
    monkeypatch.setattr(chern, "FHS_BLOCK_POINTS", points)
    model = (models.Haldane(t1=1.0, t2=0.5, phi=0.6, M=1.2) if variant == "haldane"
             else models.TwoLevelSphere())
    grid = chern.GridSpec(model.manifold, resolution)
    assert chern.pure_chern_fhs(model, 0, grid) == 1
    ((layout, blocks),) = seen
    assert isinstance(layout, chern._ClosedGrid)
    n_rows, n_cols = layout.resolution
    assert n_rows == resolution[0] + (2 if variant == "sphere" else 1)
    rows = [(start // n_cols, stop // n_cols) for start, stop in blocks]
    assert all(start % n_cols == stop % n_cols == 0 for start, stop in blocks)
    plaquette_rows = [r for first, end in rows for r in range(first, end - 1)]
    assert plaquette_rows == list(range(n_rows - 1))  # each once, in order
    assert all(end - 1 == next_first for (_, end), (next_first, _) in zip(rows, rows[1:]))
    assert rows[-1][1] == n_rows  # the last block's halo is the closing row
    per_block = -(-points // n_cols)  # rows of plaquettes per block, rounded up
    assert all(end - 1 - first == per_block for first, end in rows[:-1])
    assert 0 < rows[-1][1] - 1 - rows[-1][0] <= per_block


def test_only_multi_band_links_take_a_determinant(monkeypatch):
    model = models.Haldane(t1=1.0, t2=0.5, phi=0.6, M=1.2)
    for resolution in GRIDS:
        grid = chern.GridSpec(model.manifold, resolution)
        assert chern.pure_chern_fhs(model, (0, 1), grid) == 0
    # A one-band link is the overlap itself.
    monkeypatch.setattr(np.linalg, "det", lambda m: pytest.fail("det of a one-band link"))
    for resolution in GRIDS:
        grid = chern.GridSpec(model.manifold, resolution)
        assert chern.pure_chern_fhs(model, 1, grid) == -1


@pytest.mark.parametrize("workers", [1, 2])
def test_chunk_results_are_scalars_only(workers, fhs_results, monkeypatch):
    monkeypatch.setattr(chern, "FHS_BLOCK_POINTS", 500)
    model = models.Haldane(t1=1.0, t2=0.5, phi=math.pi / 2, M=0.0)
    assert chern.pure_chern_fhs(model, 0, chern.GridSpec(model.manifold, (40, 72)),
                                workers=workers) == 1
    assert chern.pure_chern_fhs(models.TwoLevelSphere(), 0,
                                chern.default_grid(models.TwoLevelSphere(), 24),
                                workers=workers) == 1
    assert [job for job, _ in fhs_results] == [chern._fhs_job, chern._fhs_job]
    for _, rows in fhs_results:
        assert len(rows) > 1
        for row in rows:
            assert isinstance(row, tuple) and len(row) == 2
            assert all(type(x) is float for x in row)


class _TwistlessTorus:
    """Haldane's H on its torus chart, without any twist hook; wrap=True
    evaluates it at k modulo the cell, so the seam frames are those of the
    first row and column."""

    dim = 2

    def __init__(self, wrap=False):
        self._inner = models.Haldane(t1=1.0, t2=0.5, phi=math.pi / 2, M=0.0)
        self.manifold = self._inner.manifold
        self._wrap = wrap

    def hamiltonian_batch(self, pts):
        return self._inner.hamiltonian_batch(np.mod(pts, self.manifold.cell) if self._wrap else pts)


@pytest.mark.parametrize("workers", [1, 2])
def test_torus_seam_takes_the_boundary_twist(workers):
    # The seam frames are Haldane's own at k + cell, so they carry its
    # x twist. The first row's frames instead (H wrapped into the cell)
    # still wind to the same integer, but their seam overlaps halve.
    model = models.Haldane(t1=1.0, t2=0.5, phi=math.pi / 2, M=0.0)
    grid = chern.GridSpec(model.manifold, (40, 72))
    seam = chern.pure_chern_fhs(model, 0, grid, workers=workers, detail=True)
    wrapped = chern.pure_chern_fhs(_TwistlessTorus(wrap=True), 0, grid, detail=True)
    assert seam["value"] == wrapped["value"] == 1
    assert seam["min_link_det"] > 0.9 > 0.6 > wrapped["min_link_det"]


def test_a_torus_model_without_a_boundary_twist_gives_haldanes_report():
    for model in (models.Haldane(t1=1.0, t2=0.5, phi=0.6, M=1.2), models.TwoLevelSphere(),
                  models.FourBandGamma(m=1.5), models.CoherentOscillator(fock_dim=8)):
        assert not hasattr(model, "boundary_twist")
    model = _TwistlessTorus()
    grid = chern.GridSpec(model.manifold, (16, 16))
    for workers in (1, 2):
        assert (chern.pure_chern_fhs(model, 0, grid, workers=workers, detail=True)
                == chern.pure_chern_fhs(model._inner, 0, grid, detail=True))


# -- CLI --------------------------------------------------------------------------


def _config(tmp_path, run, resolution=(40, 72)):
    cfg = {
        "model": {"variant": "haldane",
                  "parameters": {"t1": 1.0, "t2": 0.4, "phi": 1.1, "M": 0.3}},
        "grid": {"resolution": list(resolution)},
        "run": run,
    }
    path = tmp_path / f"{run['type']}.json"
    path.write_text(json.dumps(cfg))
    return path


def test_cli_chern_writes_the_fhs_report(tmp_path):
    path = _config(tmp_path, {"type": "chern"})
    payloads = []
    for workers in ("1", "2"):
        out = tmp_path / f"out{workers}"
        assert cli.main(["--config", str(path), "--out", str(out), "--workers", workers]) == 0
        payloads.append(json.loads((out / "chern.json").read_text()))
    serial, pooled = payloads
    assert serial["value"] == 1
    for key in ("value", "plaquette_sum", "integer_distance", "min_link_det"):
        assert serial[key] == pooled[key]
    assert serial["integer_distance"] == abs(serial["plaquette_sum"] - 1)
    assert 0.0 < serial["min_link_det"] <= 1.0 + 1e-12


@pytest.mark.parametrize("temperature", [0.0, 0.3])
def test_cli_map_bytes_match_the_two_call_form(tmp_path, temperature):
    path = _config(tmp_path, {"type": "map", "temperatures": [temperature]}, (40, 130))
    outs = []
    for workers in ("1", "2"):
        out = tmp_path / f"out{workers}"
        assert cli.main(["--config", str(path), "--out", str(out), "--workers", workers]) == 0
        outs.append(out)
    model = models.Haldane(t1=1.0, t2=0.4, phi=1.1, M=0.3)
    grid = chern.GridSpec(model.manifold, (40, 130))
    beta = chern.beta_from_temperature(temperature, model.r0)
    trace_rows, berry_rows = [], []
    for start, stop in chern._chunk_ranges(grid.n_points):
        pts = grid.points_range(start, stop)
        trace = geometry.thermal_trace_grid(model, pts, beta)[0]
        f, _ = geometry.ground_block_curvature_grid(model, pts)
        berry = np.trace(f[0], axis1=-2, axis2=-1)
        trace_rows += [(p[0], p[1], x.imag) for p, x in zip(pts, trace)]
        berry_rows += [(p[0], p[1], x.imag) for p, x in zip(pts, berry)]
    cli._write_csv(tmp_path / "curvature.csv", "kx,ky,Im_Tr_rhoFU", trace_rows)
    cli._write_csv(tmp_path / "berry.csv", "kx,ky,Im_F_B", berry_rows)
    for name in ("curvature.csv", "berry.csv"):
        expected = (tmp_path / name).read_bytes()
        assert all((out / name).read_bytes() == expected for out in outs)


def test_cli_map_uses_the_workers(tmp_path, monkeypatch):
    started = []

    class CountingPool(chern.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            started.append(kwargs.get("max_workers"))
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(chern, "ProcessPoolExecutor", CountingPool)
    path = _config(tmp_path, {"type": "map", "temperatures": [0.3]}, (40, 130))
    assert cli.main(["--config", str(path), "--out", str(tmp_path / "out"), "--workers", "2"]) == 0
    assert started == [2]
