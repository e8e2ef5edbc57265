"""One block kernel and one gap rule for the pure-state curvatures.

geometry._cluster_curvature gives the curvature of any run of levels
lo..hi-1: berry_curvature is its one-level block, wz_curvature the block
of a maximal cluster and ground_block_curvature_grid the ground block.
geometry._require_isolated decides whether such a run is cut off from
its neighbours (another cluster label and a gap above GAP_FLOOR at each
end), for those three and for the lattice oracle's frames. The
reference formulas below are the three separate implementations that
the kernel replaced, written out here.
"""
import json
import math
import tracemalloc

import numpy as np
import pytest

from uhlmann_chern import chern, cli, geometry, linalg, models
from uhlmann_chern.errors import DegenerateBand, GapClosed, ManifoldMismatch, NotMaximalCluster

from conftest import random_points
from test_cluster_rule import _COUPLING, GROUND, ORIGIN, ChainModel

GAP = geometry.GAP_FLOOR


def band_formula(t, band):
    """The one-band sum: -(T^mu_b. T^nu_.b - T^nu_b. T^mu_.b) per pair and point, (P, B)."""
    pairs = geometry.direction_pairs(t.shape[0])
    return np.array([[-(np.dot(t[mu, i, band], t[nu, i, :, band])
                        - np.dot(t[nu, i, band], t[mu, i, :, band]))
                      for i in range(t.shape[1])] for mu, nu in pairs])


def index_formula(t, group):
    """The cluster product: -(T^mu[group, rest] T^nu[rest, group] - h.c.), (P, B, n, n)."""
    idx = np.array(group)
    rest = np.array([k for k in range(t.shape[-1]) if k not in group])
    pairs = geometry.direction_pairs(t.shape[0])
    out = np.empty((len(pairs), t.shape[1], idx.size, idx.size), dtype=np.complex128)
    for p, (mu, nu) in enumerate(pairs):
        for i in range(t.shape[1]):
            fwd = t[mu, i][np.ix_(idx, rest)] @ t[nu, i][np.ix_(rest, idx)]
            out[p, i] = -(fwd - fwd.conj().T)
    return out


def ground_loop(t, d):
    """The ground-block sum over excited k: M - M^dagger with M = T_ground,k conj(T_ground,k)."""
    pairs = geometry.direction_pairs(t.shape[0])
    tg = t[:, :, :d, d:]
    tc = tg.conj()
    out = np.empty((len(pairs), t.shape[1], d, d), dtype=np.complex128)
    for p, (mu, nu) in enumerate(pairs):
        m = sum(tg[mu, :, :, None, k] * tc[nu, :, None, :, k] for k in range(tg.shape[-1]))
        out[p] = m - m.conj().swapaxes(-1, -2)
    return out


def assert_close(got, ref, rtol=1e-13):
    assert got.shape == ref.shape
    assert np.abs(got - ref).max() <= rtol * max(1.0, np.abs(ref).max())


def model_data(request, rng, name):
    if name == "chain":
        model, pts = ChainModel(), ORIGIN[None]
    else:
        model = request.getfixturevalue(name)
        pts = random_points(model, rng, 6)
    w, _, _, labels, _, t = geometry._spectral_data(model, pts, linalg.DEGENERACY_TOL)
    return w, labels, t


@pytest.mark.parametrize("name", ["sphere", "haldane", "fourband", "coherent", "chain"])
def test_cluster_curvature_matches_the_three_formulas(request, rng, name):
    w, labels, t = model_data(request, rng, name)
    groups = linalg._group_eigenvalues(labels[0])
    assert all(linalg._group_eigenvalues(x) == groups for x in labels)
    if name == "chain":
        assert groups[0] == GROUND
    for band in range(w.shape[1]):
        got = geometry._cluster_curvature(geometry._run_rows(t, band, band + 1))
        assert_close(got[:, :, 0, 0], band_formula(t, band))
    for group in groups:
        got = geometry._cluster_curvature(geometry._run_rows(t, group[0], group[-1] + 1))
        assert_close(got, index_formula(t, group))
    d = len(groups[0])
    got = geometry._cluster_curvature(geometry._run_rows(t, 0, d))
    assert np.array_equal(got, ground_loop(t, d))
    assert geometry._ground_size(w, labels) == d


def test_cluster_curvature_of_all_levels_is_zero(fourband, rng):
    t = geometry.spectral_data_grid(fourband, random_points(fourband, rng, 3), 1.0)[3]
    f = geometry._cluster_curvature(geometry._run_rows(t, 0, 4))
    assert f.shape == (6, 3, 4, 4) and not f.any()


def test_berry_on_a_band_inside_one_wide_cluster_raises():
    # degeneracy_tol = 10 puts both Haldane bands in one cluster, where the
    # tangents vanish: the Berry sum would be an exact, silent 0.
    model = models.Haldane(t1=1.0, t2=0.5, phi=math.pi / 2, M=0.3)
    p = np.array([0.3, 0.2])
    assert abs(geometry.berry_curvature(model, p, 0).scalar(0, 1)) > 0
    for band in (0, 1):
        with pytest.raises(DegenerateBand):
            geometry.berry_curvature(model, p, band, degeneracy_tol=10.0)


# Levels 0 and 1 are split by 5e-9: above the grouping threshold
# 1e-9 (1 + 2), so each is its own maximal cluster, and below GAP_FLOOR.
SPLIT = 5e-9
SPLIT_LEVELS = np.array([0.0, SPLIT, 1.0, 2.0])
assert linalg.DEGENERACY_TOL * 3.0 < SPLIT <= GAP


class SplitModel(ChainModel):
    """ChainModel with the levels SPLIT_LEVELS at p = 0."""

    def hamiltonian_batch(self, pts):
        pts = np.asarray(pts, dtype=np.float64)
        return np.diag(SPLIT_LEVELS).astype(np.complex128) + np.einsum(
            "bm,mij->bij", pts, _COUPLING)


def test_wz_cluster_within_the_gap_floor_of_a_neighbour_raises():
    model = SplitModel()
    w = linalg.eigh_batch(model.hamiltonian_batch(ORIGIN[None]))[0][0]
    assert np.array_equal(w, SPLIT_LEVELS)
    labels = linalg.cluster_labels(w, linalg.DEGENERACY_TOL)
    assert linalg._group_eigenvalues(labels) == ((0,), (1,), (2,), (3,))
    for group in ((0,), (1,)):
        with pytest.raises(GapClosed):
            geometry.wz_curvature(model, ORIGIN, group)
    with pytest.raises(DegenerateBand):
        geometry.berry_curvature(model, ORIGIN, 1)
    for band in (2, 3):  # isolated: both routes agree
        wz = geometry.wz_curvature(model, ORIGIN, (band,)).matrices
        berry = geometry.berry_curvature(model, ORIGIN, band).matrices
        assert np.abs(wz - berry).max() <= 1e-13 * max(1.0, np.abs(berry).max())


# -- the gap rule on its own ----------------------------------------------------

W = np.array([[0.0, 1.0, 2.0, 3.0, 4.0], [0.0, 1.5, 2.0, 2.5, 4.0]])
LABELS = np.broadcast_to(np.arange(5), W.shape)


@pytest.mark.parametrize("lo, hi", [(0, 1), (4, 5), (1, 3), (0, 5)])
def test_require_isolated_passes_separated_runs(lo, hi):
    geometry._require_isolated(W, LABELS, lo, hi, GapClosed)


@pytest.mark.parametrize("lo, hi, neighbour", [
    (0, 1, 1),  # band 0: only the level above counts
    (4, 5, 3),  # the top band: only the level below counts
    (1, 3, 0),  # a middle run, touched below
    (1, 3, 3),  # a middle run, touched above
])
@pytest.mark.parametrize("touch", ["label", "gap"])
def test_require_isolated_raises_at_each_edge(lo, hi, neighbour, touch):
    edge = lo if neighbour < lo else hi - 1
    w, labels = W.copy(), LABELS.copy()
    if touch == "label":  # one point of the batch puts the neighbour in the run's cluster
        labels[1, neighbour] = labels[1, edge]
    else:  # distinct labels, but at one point a gap just above, then below, GAP_FLOOR
        side = 1.0 if neighbour > edge else -1.0
        w[1, neighbour] = w[1, edge] + side * 2.0 * GAP
        geometry._require_isolated(w, labels, lo, hi, GapClosed)
        w[1, neighbour] = w[1, edge] + side * 0.5 * GAP
    with pytest.raises(DegenerateBand):
        geometry._require_isolated(w, labels, lo, hi, DegenerateBand)


def test_require_isolated_ignores_touches_away_from_the_run_edges():
    w, labels = W.copy(), LABELS.copy()
    labels[:, 2] = labels[:, 1]  # inside the run 1..2
    labels[:, 4] = labels[:, 3]  # between levels 3 and 4
    w[:, 4] = w[:, 3]
    geometry._require_isolated(w, labels, 1, 3, GapClosed)


def test_ground_size_uses_the_gap_rule_on_the_weight_marks():
    labels = np.array([[0, 0, 1], [0, 0, 1]])
    w = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 1.0]])
    assert geometry._ground_size(w, labels) == 2
    w[1, 2] = GAP
    with pytest.raises(GapClosed):
        geometry._ground_size(w, labels)


# -- group arguments --------------------------------------------------------------


def test_a_scalar_group_is_a_group_of_one(sphere, rng):
    p = random_points(sphere, rng, 1)[0]
    got = geometry.wz_curvature(sphere, p, 0)
    ref = geometry.wz_curvature(sphere, p, (0,))
    assert np.array_equal(got.matrices, ref.matrices)
    assert np.array_equal(got.basis, ref.basis)
    with pytest.raises(NotMaximalCluster):
        geometry.wz_curvature(sphere, p, 5)


def test_bad_groups_keep_their_typed_errors(fourband, rng):
    p = random_points(fourband, rng, 1)[0]
    for group in (0, (0,), (), (0, 2), (1, 2)):
        with pytest.raises(NotMaximalCluster):
            geometry.wz_curvature(fourband, p, group)


# -- the lattice oracle's chart -------------------------------------------------------


def test_lattice_oracle_rejects_an_open_chart_before_grid_work(monkeypatch):
    model = models.CoherentOscillator(fock_dim=8)
    assert model.manifold.kind == "plane"

    def no_grid_work(*args, **kwargs):
        raise AssertionError("grid work started")

    monkeypatch.setattr(chern, "_map_chunks", no_grid_work)
    with pytest.raises(ManifoldMismatch):
        chern.pure_chern_fhs(model, 0, chern.default_grid(model, 16))


def test_cli_chern_on_an_open_chart_exits_2(tmp_path, capsys, monkeypatch):
    """A 2D chern on a plane chart is an argument error, as map on a 4D model is."""
    cfg = {"model": {"variant": "coherent_oscillator", "parameters": {"fock_dim": 8}},
           "grid": {"resolution": [16, 16]}, "run": {"type": "chern"}}
    path = tmp_path / "plane.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    monkeypatch.setattr(chern, "pure_chern_fhs", None)  # never reached
    assert cli.main(["--config", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: run.type: chern needs a closed 2D chart, not a plane")
    assert "Traceback" not in err and not (out / "chern.json").exists()


# -- _commutators memory ----------------------------------------------------------------


def test_commutator_blocks_bound_their_memory_at_large_n(rng):
    d, n, batch = 2, 40, 1000
    a = rng.normal(size=(d, batch, n, n)) + 1j * rng.normal(size=(d, batch, n, n))
    pairs = geometry.direction_pairs(d)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        out = geometry._commutators(a, pairs)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak - out.nbytes <= 8e6, (peak, out.nbytes)
    np.testing.assert_allclose(out[0, :3], a[0, :3] @ a[1, :3] - a[1, :3] @ a[0, :3], atol=1e-12)
