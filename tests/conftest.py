import math

import numpy as np
import pytest

from uhlmann_chern import models


@pytest.fixture
def rng():
    return np.random.default_rng(20260818)


@pytest.fixture
def sphere():
    return models.TwoLevelSphere()


@pytest.fixture
def haldane():
    # gapped topological point away from the symmetry axes
    return models.Haldane(t1=1.0, t2=0.4, phi=1.1, M=0.3)


@pytest.fixture
def haldane_ref():
    # the quantization reference point: lower band carries n = +1
    return models.Haldane(t1=1.0, t2=0.5, phi=math.pi / 2, M=0.0)


@pytest.fixture
def fourband():
    return models.FourBandGamma(m=1.5)


@pytest.fixture
def coherent():
    return models.CoherentOscillator(fock_dim=24)


def sphere_points(rng, count, margin=0.3):
    theta = rng.uniform(margin, math.pi - margin, count)
    phi = rng.uniform(0.0, 2.0 * math.pi, count)
    return np.column_stack([theta, phi])


def cell_points(model, rng, count, pad=0.05):
    man = model.manifold
    low = np.asarray(man.origin, dtype=float)
    span = np.asarray(man.cell, dtype=float)
    return low + span * rng.uniform(pad, 1.0 - pad, (count, man.dim))


def random_points(model, rng, count):
    if model.manifold.kind == "sphere":
        return sphere_points(rng, count)
    if isinstance(model, models.CoherentOscillator):
        # stay well inside the displacement budget of small truncations
        return rng.uniform(-0.7, 0.7, (count, 2))
    return cell_points(model, rng, count)


def random_hermitian(rng, n):
    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return (m + m.conj().T) / 2.0


class EighFourBand:
    """FourBandGamma(m) without its eigenframe_batch hook, so the
    geometry kernels build its frames from one eigh_batch of H: the
    generic path, kept as the closed-form frame's reference."""

    dim = 4

    def __init__(self, m):
        self._inner = models.FourBandGamma(m=m)
        self.manifold = self._inner.manifold

    def hamiltonian_batch(self, pts):
        return self._inner.hamiltonian_batch(pts)

    def gradient_batch(self, pts, mu):
        return self._inner.gradient_batch(pts, mu)

    def r_vector_batch(self, pts):
        return self._inner.r_vector_batch(pts)

    def r_gradient_batch(self, pts, mu):
        return self._inner.r_gradient_batch(pts, mu)

    def r_determinant_batch(self, pts):
        return self._inner.r_determinant_batch(pts)
