"""Cluster labels and thermal weights, each from one place.

A per-point pure-state curvature groups the levels of its point once:
berry_curvature, wz_curvature and projector_limit_curvature take the
labels from the same spectral-data pass as their tangents, and
wz_curvature reads its maximal clusters off those labels. Their values
are the batch kernels' on a batch of one, bit for bit. weights_batch
reads the ground cluster off the labels it is given at BETA_INF, and an
overflowing beta gives its limit without a numpy warning. thermal_state
takes its weights from weights_batch on a batch of one and the labels of
its own decomposition, so it too groups its levels once.
The ground cluster is label 0 of the same labels: the ground block, the
projector limit and a CLI map chunk build no zero-temperature weights to
find it.
"""
import warnings

import numpy as np
import pytest

from uhlmann_chern import chern, geometry, linalg, models

from conftest import random_points


@pytest.fixture
def label_calls(monkeypatch):
    """Shapes of every cluster_labels call, from whichever module makes it."""
    calls = []
    original = linalg.cluster_labels

    def counted(w, tol):
        calls.append(np.shape(w))
        return original(w, tol)

    for module in (linalg, models, geometry):
        monkeypatch.setattr(module, "cluster_labels", counted)
    return calls


def zero_temperature_data(model, p):
    return geometry.spectral_data_grid(model, p[None], models.BETA_INF)


def test_berry_curvature_groups_once(haldane, rng, label_calls):
    p = random_points(haldane, rng, 1)[0]
    f = geometry.berry_curvature(haldane, p, band=1)
    assert label_calls == [(1, 2)]
    _, _, _, t = zero_temperature_data(haldane, p)
    block = geometry._cluster_curvature(geometry._run_rows(t, 1, 2))
    assert np.array_equal(f.matrices, block[:, 0])


def test_wz_curvature_groups_once(fourband, rng, label_calls):
    p = random_points(fourband, rng, 1)[0]
    f = geometry.wz_curvature(fourband, p, (2, 3))
    assert label_calls == [(1, 4)]
    _, v, _, t = zero_temperature_data(fourband, p)
    block = geometry._cluster_curvature(geometry._run_rows(t, 2, 4))
    assert np.array_equal(f.matrices, block[:, 0])
    assert np.array_equal(f.basis, v[0, :, 2:4])


def test_projector_limit_curvature_groups_once(fourband, rng, label_calls):
    p = random_points(fourband, rng, 1)[0]
    f = geometry.projector_limit_curvature(fourband, p)
    assert label_calls == [(1, 4)]
    _, v, _, t = zero_temperature_data(fourband, p)
    ground = np.array([1.0, 1.0, 0.0, 0.0])
    ref = geometry._commutators((ground[None, :] - ground[:, None]) * t, f.pairs)[:, 0, :2, :2]
    assert np.array_equal(f.matrices, ref)
    assert np.array_equal(f.basis, v[0, :, :2])


def test_maximal_clusters_come_from_the_given_labels():
    w = np.array([0.0, 0.0, 1.0, 2.0])
    labels = linalg.cluster_labels(w, linalg.DEGENERACY_TOL)
    assert linalg._group_eigenvalues(labels) == ((0, 1), (2,), (3,))


@pytest.mark.parametrize("beta", [0.0, 0.7, 1e308, models.BETA_INF])
def test_thermal_weights_is_weights_batch_on_one_spectrum(beta):
    energies = np.array([[-2.0, -2.0, 0.5, 3.0]])
    labels = np.array([[0, 0, 1, 2]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # 1e308 overflows beta (E - E_0): weight 0, no warning
        got = models.weights_batch(energies, beta, labels)
        assert np.array_equal(got, models.weights_batch(energies, beta))


@pytest.mark.parametrize("beta", [0.0, 0.7, models.BETA_INF])
def test_thermal_state_groups_once(fourband, rng, label_calls, beta):
    p = random_points(fourband, rng, 1)[0]
    state = models.thermal_state(fourband, p, beta)
    assert label_calls == [(4,)]
    w = state.spectrum.eigenvalues[None]
    assert np.array_equal(state.weights, models.weights_batch(w, beta)[0])
    if beta == models.BETA_INF:
        assert np.array_equal(state.weights, [0.5, 0.5, 0.0, 0.0])


@pytest.fixture
def weight_calls(monkeypatch):
    """The beta of every weights_batch call, from whichever module makes it."""
    calls = []
    original = models.weights_batch

    def counted(w, beta, *args, **kwargs):
        calls.append(beta)
        return original(w, beta, *args, **kwargs)

    for module in (models, geometry, chern):
        monkeypatch.setattr(module, "weights_batch", counted)
    return calls


def test_the_ground_cluster_is_read_off_the_labels(fourband, haldane, rng, weight_calls):
    pts = random_points(fourband, rng, 3)
    _, d = geometry.ground_block_curvature_grid(fourband, pts)
    proj = geometry.projector_limit_curvature(fourband, pts[0])
    assert weight_calls == [] and d == 2 and proj.matrices.shape == (6, 2, 2)
    _, (trace,), berry = chern._map_job(haldane, random_points(haldane, rng, 5), (0.7,),
                                        linalg.DEGENERACY_TOL)
    assert weight_calls == [0.7]
    assert trace.shape == berry.shape == (5,)
