"""First-order spectral passes walk a chunk in blocks of points.

thermal_trace_grid and chern._map_job, the ground walk of the CLI map and
of chern._first_order_job at BETA_INF, take their ranges from
geometry._spectral_blocks: blocks of at most geometry.BLOCK_ENTRIES
tangent entries d b N^2 (geometry._blocks, the one block rule) for a model
with n_levels N, one block for a model without it. Every per-point value is independent
of the partition (the frames are elementwise or one matrix at a time,
LAPACK and the Hermiticity check work per matrix, _trace_pairs is a
per-point einsum, and Haldane forms its bond phases elementwise), so every
integral, sweep, trace row and map is bitwise the same at a few points per
block, at the default and at one block per chunk, and at any worker count,
and a point's per-point trace row is its row in a chunk. The oscillator's
chunk then holds one block's frame: its memory no longer grows with
points x fock_dim^2.
"""
import json
import tracemalloc

import numpy as np
import pytest

from uhlmann_chern import chern, cli, geometry, linalg, models
from uhlmann_chern.errors import GapClosed, NegativeBeta

from test_ground_size import ConstantLevels, LiftedLevels
from test_oscillator_frame import GenericView

TOL = linalg.DEGENERACY_TOL
INF = models.BETA_INF

# One 256-point fock-40 chunk peaked at 56.66 MiB with the whole chunk's
# frame; one block's frame is 1 MiB, and the jobs peak near 6 MiB.
JOB_PEAK_BOUND = 8 * 2**20

HALDANE = {"variant": "haldane", "parameters": {"t1": 1.0, "t2": 0.4, "phi": 1.1, "M": 0.3}}
OSCILLATOR = {"variant": "coherent_oscillator", "parameters": {"fock_dim": 12}}


def map_bytes(tmp_path, model_cfg, n, workers):
    cfg = {"model": model_cfg, "grid": {"resolution": [n, n]},
           "run": {"type": "map", "temperatures": [0.5]}}
    path = tmp_path / "map.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert cli.main(["--config", str(path), "--out", str(out), "--workers", str(workers)]) == 0
    return [(out / name).read_bytes() for name in ("curvature.csv", "berry.csv")]


def first_order_outputs(model, n, workers, tmp_path, map_cfg):
    grid = chern.default_grid(model, n)
    results = [chern.first_thermal_uc(model, beta, grid, workers=workers) for beta in (0.8, INF)]
    sweep = chern.temperature_sweep(model, (0.5, 1.0, 2.0), grid, workers=workers)
    rows = geometry.thermal_trace_grid(model, grid.points_range(0, grid.n_points - 3),
                                       (0.5, 2.0, INF))
    return ([(r.value, r.imag_residual) for r in results], sweep.values, sweep.diagnostics,
            rows.tobytes(), map_bytes(tmp_path, map_cfg, n, workers))


# (name, model, grid side, map config, its smallest block): one point for the
# oscillator, three for Haldane, which runs as one block per chunk by default.
CASES = [("oscillator", models.CoherentOscillator(fock_dim=40), 16, OSCILLATOR, 1),
         ("haldane", models.Haldane(t1=1.0, t2=0.4, phi=1.1, M=0.3), 64, HALDANE, 8 * 3)]


@pytest.fixture(scope="module")
def reference(tmp_path_factory):
    """The outputs at one block per chunk, serial: the parent's call pattern."""
    out = {}
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(geometry, "BLOCK_ENTRIES", 1 << 40)
        for name, model, n, map_cfg, _ in CASES:
            out[name] = first_order_outputs(model, n, 1, tmp_path_factory.mktemp(name), map_cfg)
    return out


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("block", ["small", "default", "chunk"])
@pytest.mark.parametrize("case", CASES, ids=[c[0] for c in CASES])
def test_first_order_outputs_do_not_depend_on_the_blocks(reference, monkeypatch, tmp_path,
                                                         case, block, workers):
    name, model, n, map_cfg, small = case
    size = {"small": small, "default": geometry.BLOCK_ENTRIES, "chunk": 1 << 40}[block]
    monkeypatch.setattr(geometry, "BLOCK_ENTRIES", size)
    if block == "small":
        assert len(geometry._spectral_blocks(model, n * n)) > 1
    assert first_order_outputs(model, n, workers, tmp_path, map_cfg) == reference[name]


def test_a_haldane_point_has_the_same_bits_alone_and_in_a_chunk():
    # Bond phases from a matmul rounded a column by the batch width: 41 of these
    # 64 trace rows differed from the per-point view in their last bits.
    model = models.Haldane(t1=1.0, t2=0.5, phi=1.1, M=0.3)
    chunk = chern.default_grid(model, 64).points_range(0, chern.CHUNK_SIZE)
    rows = geometry.thermal_trace_grid(model, chunk, 0.7)
    r, dr = model.r_vector_batch(chunk), model.r_gradient_batch(chunk, 1)
    for i in range(0, chern.CHUNK_SIZE, 64):
        p = chunk[i]
        assert np.array_equal(geometry.thermal_trace_spectral(model, p, 0.7), rows[:, i])
        assert np.array_equal(model.r_vector_batch(p[None])[0], r[i])
        assert np.array_equal(model.r_gradient_batch(p[None], 1)[0], dr[i])


def test_blocks_cover_the_batch_in_order():
    oscillator = models.CoherentOscillator(fock_dim=40)
    blocks = geometry._spectral_blocks(oscillator, 256)
    assert blocks[0] == (0, 20) and blocks[-1] == (240, 256) and len(blocks) == 13
    assert all(a[1] == b[0] for a, b in zip(blocks, blocks[1:]))
    haldane = models.Haldane(t1=1.0, t2=0.4, phi=1.1, M=0.3)
    assert geometry._spectral_blocks(haldane, chern.CHUNK_SIZE) == [(0, chern.CHUNK_SIZE)]
    assert geometry._spectral_blocks(GenericView(oscillator), 256) == [(0, 256)]
    assert geometry._spectral_blocks(oscillator, 0) == [(0, 0)]
    # An empty batch still runs one pass, so its beta is checked as before.
    assert geometry.thermal_trace_grid(oscillator, np.zeros((0, 2)), 1.0).shape == (1, 0)
    with pytest.raises(NegativeBeta):
        geometry.thermal_trace_grid(oscillator, np.zeros((0, 2)), -1.0)


def test_the_walkers_run_one_spectral_pass_per_block(monkeypatch):
    model = models.CoherentOscillator(fock_dim=40)
    pts = chern.default_grid(model, 16).points_range(0, 256)
    sizes = []
    original = geometry._spectral_data

    def counted(model, pts, tol):
        sizes.append(len(pts))
        return original(model, pts, tol)

    monkeypatch.setattr(geometry, "_spectral_data", counted)
    monkeypatch.setattr(chern, "_spectral_data", counted)
    for run in (lambda: geometry.thermal_trace_grid(model, pts, (0.8, 2.0)),
                lambda: chern._first_order_job(model, pts, (0.8, INF), TOL),
                lambda: chern._map_job(model, pts, (0.8,), TOL)):
        sizes.clear()
        run()
        assert sizes == [20] * 12 + [16]


def _peak(run):
    run()  # first-call allocations stay out of the count
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        run()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("job", ["finite", "zero_temperature", "map"])
def test_an_oscillator_chunk_holds_one_block_of_frames(job):
    model = models.CoherentOscillator(fock_dim=40)
    pts = chern.default_grid(model, 16).points_range(0, 256)
    run = {"finite": lambda: chern._first_order_job(model, pts, (0.8,), TOL),
           "zero_temperature": lambda: chern._first_order_job(model, pts, (INF,), TOL),
           "map": lambda: chern._map_job(model, pts, (0.8,), TOL)}[job]
    peak = _peak(run)
    assert peak <= JOB_PEAK_BOUND, peak / 2**20


def test_the_oscillator_integral_peak_does_not_grow_with_the_grid():
    model = models.CoherentOscillator(fock_dim=40)
    small, large = (_peak(lambda: chern.first_thermal_uc(model, 0.8, chern.default_grid(model, n)))
                    for n in (16, 32))
    assert large <= small + 2**20, (small / 2**20, large / 2**20)


@pytest.mark.parametrize("name", ["sphere", "haldane", "fourband", "coherent"])
def test_n_levels_is_the_side_of_h(request, rng, name):
    model = request.getfixturevalue(name)
    p = np.array(model.manifold.origin) + 0.3 * np.array(model.manifold.cell)
    assert model.n_levels == model.hamiltonian(p).shape[-1]
    with pytest.raises(AttributeError):
        model.n_levels = 3


@pytest.mark.parametrize("beta", [0.8, INF, (0.5, 2.0)])
def test_a_model_without_n_levels_runs_as_one_block(monkeypatch, coherent, rng, beta):
    pts = rng.uniform(-0.7, 0.7, (37, 2))
    whole = geometry.thermal_trace_grid(GenericView(coherent), pts, beta)
    passes = []
    original = geometry.spectral_data_grid
    monkeypatch.setattr(geometry, "BLOCK_ENTRIES", 1)
    monkeypatch.setattr(geometry, "spectral_data_grid",
                        lambda *args: passes.append(len(args[1])) or original(*args))
    assert np.array_equal(geometry.thermal_trace_grid(GenericView(coherent), pts, beta), whole)
    assert passes == [37]


class BlockedLevels(LiftedLevels):
    """LiftedLevels with n_levels, so its chunks are walked in blocks."""

    n_levels = 3


class BlockedConstantLevels(ConstantLevels):
    n_levels = property(lambda self: len(self.h))


# D changes between two grid rows, at point n^2 / 2 of the one chunk: blocks of
# one point never hold both sizes, so only the rule across blocks sees them;
# blocks of seven points straddle that boundary, as a chunk can.
@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("per_block", [1, 7])
@pytest.mark.parametrize("n", [8, 32])
def test_a_ground_size_that_varies_across_blocks_raises(monkeypatch, tmp_path, capsys, n,
                                                        per_block, workers):
    monkeypatch.setattr(geometry, "BLOCK_ENTRIES", 2 * 3 * 3 * per_block)
    model = BlockedLevels()
    assert geometry._spectral_blocks(model, 15)[0] == (0, per_block)
    with pytest.raises(GapClosed, match="ground degeneracy varies"):
        chern.first_thermal_uc(model, INF, chern.default_grid(model, n), workers=workers)
    monkeypatch.setattr(cli, "_build_model", lambda cfg: BlockedLevels())
    cfg = {"model": HALDANE, "grid": {"resolution": [n, n]},
           "run": {"type": "map", "temperatures": [0.5]}}
    path = tmp_path / "map.json"
    path.write_text(json.dumps(cfg))
    argv = ["--config", str(path), "--out", str(tmp_path / "out"), "--workers", str(workers)]
    assert cli.main(argv) == 3
    assert "ground degeneracy varies" in capsys.readouterr().err


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("levels, message", [((0.0, 0.0), "whole space"),
                                             ((0.0, 5e-9), "touch level 1")])
def test_the_ground_rule_applies_to_every_block(monkeypatch, levels, message, workers):
    monkeypatch.setattr(geometry, "BLOCK_ENTRIES", 1)
    model = BlockedConstantLevels(*levels)
    grid = chern.default_grid(model, 16)
    with pytest.raises(GapClosed, match=message):
        chern.first_thermal_uc(model, INF, grid, workers=workers)
    assert chern.first_thermal_uc(model, 1.0, grid, workers=workers).value == 0.0
