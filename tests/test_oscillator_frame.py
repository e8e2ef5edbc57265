"""The oscillator's covariant eigenframe against the generic eigh path.

CoherentOscillator.eigenframe_batch hands the geometry kernels exact
spectral data built from one cached eigendecomposition. The generic
path (one eigh of H per point, gradients rotated into its eigenbasis)
stays in the package for every other model and is the oracle here.
"""
import math

import numpy as np
import pytest

from uhlmann_chern import geometry, linalg, models


class GenericView:
    """A model seen only through H and dH, so the geometry kernels take
    the generic eigh path."""

    def __init__(self, model):
        self._model = model
        self.dim = model.dim
        self.manifold = model.manifold

    def hamiltonian_batch(self, pts):
        return self._model.hamiltonian_batch(pts)

    def gradient_batch(self, pts, mu):
        return self._model.gradient_batch(pts, mu)


def frame_points(rng):
    """Random points in all four quadrants, the negative real axis (the
    branch cut of arg z), both axes, tiny |z| and z = 0."""
    special = [
        (-0.9, 0.0), (-0.3, -0.0), (0.0, 0.6), (0.0, -0.6), (0.7, 0.0),
        (1e-3, 0.0), (-7e-4, 7e-4), (0.0, -1e-3), (0.0, 0.0),
    ]
    signs = np.array([(1, 1), (-1, 1), (-1, -1), (1, -1)], dtype=float)
    quadrants = np.concatenate([s * rng.uniform(0.05, 0.9, (4, 2)) for s in signs])
    return np.concatenate([np.array(special), quadrants])


@pytest.fixture
def pts(rng):
    return frame_points(rng)


def test_frame_energies_are_the_oscillator_levels(coherent, pts):
    w, _, _ = coherent.eigenframe_batch(pts)
    w_eigh, _ = linalg.eigh_batch(coherent.hamiltonian_batch(pts))
    np.testing.assert_allclose(w, w_eigh, rtol=1e-12, atol=1e-12)
    assert (w == coherent.hbar_omega * (np.arange(coherent.fock_dim) + 0.5)).all()


def test_frame_diagonalizes_h_and_rotates_gradients(coherent, pts):
    w, v, g = coherent.eigenframe_batch(pts)
    h = coherent.hamiltonian_batch(pts)
    vh = v.conj().swapaxes(-1, -2)
    np.testing.assert_allclose(vh @ v, np.broadcast_to(np.eye(w.shape[1]), v.shape), atol=1e-12)
    np.testing.assert_allclose(h @ v, v * w[:, None, :], atol=1e-12)
    for mu in range(2):
        rotated = vh @ coherent.gradient_batch(pts, mu) @ v
        np.testing.assert_allclose(g[mu], rotated, atol=1e-12)


def test_covariant_displacement_matches_unitary_exp(coherent, pts):
    _, v, _ = coherent.eigenframe_batch(pts)
    for p, d in zip(pts, v):
        np.testing.assert_allclose(d, coherent.displacement(complex(*p)), atol=1e-12)


@pytest.mark.parametrize("beta", [0.3, 1.2, models.BETA_INF])
def test_thermal_trace_matches_generic_path(coherent, pts, beta):
    fast = geometry.thermal_trace_grid(coherent, pts, beta)
    slow = geometry.thermal_trace_grid(GenericView(coherent), pts, beta)
    np.testing.assert_allclose(fast, slow, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("beta", [0.5, 2.0])
def test_connection_matches_generic_path(coherent, pts, beta):
    fast = geometry.connection_grid(coherent, pts, beta)
    slow = geometry.connection_grid(GenericView(coherent), pts, beta)
    np.testing.assert_allclose(fast, slow, rtol=1e-12, atol=1e-12)


def test_berry_curvature_matches_generic_path(coherent, pts):
    # The displaced vacuum has the same Berry curvature at every point:
    # the plane's flat symplectic area form.
    # The generic path is the thermal trace at BETA_INF: one eigh of H,
    # and with a non-degenerate ground level its coefficients reduce
    # term by term to the Berry sum.
    values = []
    for p in pts:
        fast = geometry.berry_curvature(coherent, p, band=0).scalar(0, 1)
        slow = geometry.thermal_trace_spectral(GenericView(coherent), p, models.BETA_INF)[0]
        assert fast == pytest.approx(slow, rel=1e-12, abs=1e-12)
        values.append(fast)
    np.testing.assert_allclose(values, values[0], atol=1e-12)


def test_frame_rejects_oversized_displacement(coherent):
    too_far = math.sqrt(coherent.fock_dim / 8.0) * 1.01
    with pytest.raises(models.TruncationTooSmall):
        coherent.eigenframe_batch(np.array([[too_far, 0.0]]))


def test_spectral_data_grid_calls_eigh_at_most_once(monkeypatch):
    calls = []
    original = linalg.eigh_batch

    def counted(ms, *args, **kwargs):
        calls.append(np.shape(ms))
        return original(ms, *args, **kwargs)

    for module in (geometry, models):
        monkeypatch.setattr(module, "eigh_batch", counted)
    model = models.CoherentOscillator(fock_dim=40)
    rng = np.random.default_rng(3)
    pts = rng.uniform(-1.5, 1.5, (256, 2))
    geometry.spectral_data_grid(model, pts, 0.8)
    geometry.spectral_data_grid(model, pts, 0.8)
    assert len(calls) <= 1
    assert all(len(shape) == 2 for shape in calls)
