"""One level-grouping rule for every route.

At zero temperature the thermal Uhlmann-Chern number is the Chern
number of the ground cluster divided by its degeneracy D, so which
levels form that cluster must be decided the same way by the spectral
decomposition, the thermal state, the batched kernels and the
ground-block curvature. The model below puts levels 0-2 on a chain of
gaps each below the grouping threshold while levels 0 and 2 lie further
apart than it: consecutive-gap chaining makes them one cluster, and
every route has to agree.
"""
import numpy as np
import pytest

from uhlmann_chern import geometry, linalg, models

TOL = linalg.DEGENERACY_TOL
TOP = 5.0
STEP = 0.6 * TOL * (1.0 + TOP)  # 0.6 of the grouping threshold
LEVELS = np.array([0.0, STEP, 2.0 * STEP, TOP])
GROUND = (0, 1, 2)

_OFF = np.ones((4, 4)) - np.eye(4)
_COUPLING = np.stack([_OFF, 1j * np.triu(_OFF) - 1j * np.tril(_OFF)]).astype(np.complex128)


class ChainModel:
    """H(p) = diag(LEVELS) + p_0 X + p_1 Y, with X and Y coupling every
    pair of levels; at p = 0 the spectrum is exactly LEVELS."""

    dim = 2

    def hamiltonian_batch(self, pts):
        pts = np.asarray(pts, dtype=np.float64)
        return np.diag(LEVELS).astype(np.complex128) + np.einsum(
            "bm,mij->bij", pts, _COUPLING)

    def gradient_batch(self, pts, mu):
        return np.repeat(_COUPLING[mu][None], len(pts), axis=0)

    def hamiltonian(self, p):
        return self.hamiltonian_batch(np.asarray(p, dtype=np.float64)[None])[0]


ORIGIN = np.zeros(2)


def test_cluster_labels_chain_consecutive_gaps():
    assert linalg.cluster_labels(LEVELS, TOL).tolist() == [0, 0, 0, 1]
    stack = np.stack([LEVELS, [0.0, 1.0, 2.0, 3.0], [1.0, 1.0, 1.0, 1.0]])
    labels = linalg.cluster_labels(stack[:, None, :], TOL)
    assert labels.shape == (3, 1, 4)
    assert labels[:, 0].tolist() == [[0, 0, 0, 1], [0, 1, 2, 3], [0, 0, 0, 0]]
    assert linalg.cluster_labels(np.zeros((2, 0)), TOL).shape == (2, 0)


def test_every_route_finds_the_same_ground_cluster():
    model = ChainModel()
    assert linalg.hermitian_eig(model.hamiltonian(ORIGIN)).groups[0] == GROUND

    state = models.thermal_state(model, ORIGIN, models.BETA_INF)
    assert tuple(np.flatnonzero(state.weights)) == GROUND
    assert np.array_equal(state.weights, np.array([1.0, 1.0, 1.0, 0.0]) / 3.0)

    w, _, lam, t = geometry.spectral_data_grid(model, ORIGIN[None], models.BETA_INF)
    assert np.array_equal(w[0], LEVELS)
    assert np.array_equal(lam[0], state.weights)

    f, d = geometry.ground_block_curvature_grid(model, ORIGIN[None])
    assert d == len(GROUND)
    wz = geometry.wz_curvature(model, ORIGIN, GROUND)
    np.testing.assert_allclose(f[:, 0], wz.matrices, atol=1e-12)
    assert geometry.projector_limit_curvature(model, ORIGIN).matrices.shape == (1, 3, 3)


@pytest.mark.parametrize("beta", [0.5, models.BETA_INF])
def test_tangent_and_connection_vanish_inside_the_cluster(beta):
    model = ChainModel()
    _, _, _, t = geometry.spectral_data_grid(model, ORIGIN[None], beta)
    assert not t[:, 0, :3, :3].any()  # exactly zero, T_02 included
    across = t[:, 0, :3, 3]
    expected = np.broadcast_to(1.0 / (TOP - LEVELS[:3]), across.shape)
    np.testing.assert_allclose(np.abs(across), expected, rtol=1e-12)
    # H(0) is diagonal, so the original basis is the eigenbasis
    a = geometry.connection_grid(model, ORIGIN[None], beta)[:, 0]
    assert not a[:, :3, :3].any()
