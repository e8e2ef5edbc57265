"""Tests for the dense Hermitian building blocks.

scipy.linalg serves as the independent oracle where one is needed;
everything else is checked against hand-computable spectra.
"""
import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from uhlmann_chern import linalg
from uhlmann_chern.errors import (
    IndefiniteInput,
    NonAntiHermitianInput,
    NonHermitianInput,
)
from uhlmann_chern.models import GAMMA, PAULI

from conftest import random_hermitian


def test_diagonal_two_level():
    dec = linalg.hermitian_eig(np.diag([1.0, -1.0]).astype(np.complex128))
    assert np.allclose(dec.eigenvalues, [-1.0, 1.0])
    assert dec.groups == ((0,), (1,))
    # ascending order puts the -1 level first; phase fixing makes the
    # leading entries real positive
    assert dec.eigenvectors[1, 0] == pytest.approx(1.0)
    assert dec.eigenvectors[0, 1] == pytest.approx(1.0)


def test_pauli_eigenvalues_match_radius(rng):
    for _ in range(50):
        r = rng.normal(size=3)
        h = np.einsum("i,ijk->jk", r, PAULI)
        dec = linalg.hermitian_eig(h)
        rad = np.linalg.norm(r)
        np.testing.assert_allclose(dec.eigenvalues, [-rad, rad], atol=1e-12)
        assert tuple(len(g) for g in dec.groups) == (1, 1)


def test_gamma_hamiltonian_clusters(rng):
    # five anticommuting generators give exactly twofold +-|R| pairs
    for _ in range(25):
        r = rng.normal(size=5)
        h = np.einsum("i,ijk->jk", r, GAMMA)
        dec = linalg.hermitian_eig(h)
        rad = np.linalg.norm(r)
        np.testing.assert_allclose(
            dec.eigenvalues, [-rad, -rad, rad, rad], atol=1e-10 * (1 + rad)
        )
        assert tuple(len(g) for g in dec.groups) == (2, 2)


def test_non_hermitian_rejected():
    with pytest.raises(NonHermitianInput):
        linalg.hermitian_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_phase_fixing_and_determinism(rng):
    h = random_hermitian(rng, 7)
    a = linalg.hermitian_eig(h)
    b = linalg.hermitian_eig(h.copy())
    assert np.array_equal(a.eigenvalues, b.eigenvalues)
    assert np.array_equal(a.eigenvectors, b.eigenvectors)
    for col in a.eigenvectors.T:
        lead = col[int(np.argmax(np.abs(col)))]
        assert lead.real > 0
        assert abs(lead.imag) < 1e-13


def test_projector_idempotent(rng):
    dec = linalg.hermitian_eig(random_hermitian(rng, 5))
    p = dec.projector(dec.groups[0])
    np.testing.assert_allclose(p @ p, p, atol=1e-13)
    np.testing.assert_allclose(p, p.conj().T, atol=1e-14)


@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 8))
@settings(max_examples=40, deadline=None)
def test_reconstruction_property(seed, n):
    rng = np.random.default_rng(seed)
    h = random_hermitian(rng, n)
    dec = linalg.hermitian_eig(h)
    scale = max(1.0, float(np.abs(h).max()))
    np.testing.assert_allclose(dec.reconstruct(), h, atol=1e-12 * scale)


@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 8))
@settings(max_examples=40, deadline=None)
def test_groups_partition_property(seed, n):
    # integer spectra force exact degeneracies through a random frame
    rng = np.random.default_rng(seed)
    w = np.sort(rng.integers(-3, 4, size=n)).astype(float)
    q = np.linalg.qr(
        rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    )[0]
    h = (q * w) @ q.conj().T
    dec = linalg.hermitian_eig((h + h.conj().T) / 2)
    flat = [i for g in dec.groups for i in g]
    assert flat == list(range(n))
    for g in dec.groups:
        assert list(g) == list(range(g[0], g[-1] + 1))
    assert len(dec.groups) == len(np.unique(w))


def test_eigh_batch_matches_single(rng):
    ms = np.stack([random_hermitian(rng, 4) for _ in range(6)])
    w, v = linalg.eigh_batch(ms)
    for i in range(ms.shape[0]):
        dec = linalg.hermitian_eig(ms[i])
        np.testing.assert_allclose(w[i], dec.eigenvalues, atol=1e-13)
        np.testing.assert_allclose(v[i], dec.eigenvectors, atol=1e-12)


def test_eigh_batch_deterministic(rng):
    ms = np.stack([random_hermitian(rng, 5) for _ in range(4)])
    w1, v1 = linalg.eigh_batch(ms)
    w2, v2 = linalg.eigh_batch(ms.copy())
    assert np.array_equal(w1, w2)
    assert np.array_equal(v1, v2)


# -- psd_sqrt ---------------------------------------------------------------


def test_psd_sqrt_diagonal():
    s = linalg.psd_sqrt(np.diag([4.0, 9.0]).astype(np.complex128))
    np.testing.assert_allclose(s, np.diag([2.0, 3.0]), atol=1e-14)


def test_psd_sqrt_identity():
    s = linalg.psd_sqrt(np.eye(3, dtype=np.complex128))
    np.testing.assert_allclose(s, np.eye(3), atol=1e-14)


def test_psd_sqrt_thermal_two_level(rng):
    # Gibbs state of a two-level system at beta*R = 1 has eigenvalues
    # (1 -+ tanh 1)/2; the root must carry their square roots
    lam = np.array([(1 + math.tanh(1.0)) / 2, (1 - math.tanh(1.0)) / 2])
    q = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))[0]
    rho = (q * lam) @ q.conj().T
    s = linalg.psd_sqrt(rho)
    np.testing.assert_allclose(
        np.sort(np.linalg.eigvalsh(s)), np.sort(np.sqrt(lam)), atol=1e-13
    )
    np.testing.assert_allclose(s @ s, rho, atol=1e-13)


def test_psd_sqrt_rejects_indefinite():
    with pytest.raises(IndefiniteInput):
        linalg.psd_sqrt(np.diag([1.0, -0.5]).astype(np.complex128))


@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 6))
@settings(max_examples=40, deadline=None)
def test_psd_sqrt_squares_back(seed, n):
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    psd = m @ m.conj().T
    s = linalg.psd_sqrt(psd)
    scale = max(1.0, float(np.abs(psd).max()))
    np.testing.assert_allclose(s @ s, psd, atol=1e-11 * scale)
    np.testing.assert_allclose(s, s.conj().T, atol=1e-12 * scale)


# -- unitary_exp ------------------------------------------------------------


def test_unitary_exp_zero_generator():
    np.testing.assert_allclose(
        linalg.unitary_exp(np.zeros((3, 3), dtype=np.complex128)),
        np.eye(3),
        atol=1e-15,
    )


def test_unitary_exp_pauli_rotation():
    # exp(i (pi/2) sigma_x) = i sigma_x
    a = 1j * (math.pi / 2) * PAULI[0]
    np.testing.assert_allclose(linalg.unitary_exp(a), 1j * PAULI[0], atol=1e-14)


def test_unitary_exp_takes_a_small_generator_that_passed_its_own_check():
    # Scale 1e-4, anti-Hermiticity defect 2.4e-13: within unitary_exp's bound
    # 1e-12 * max(scale, 1), but 2.4e-9 relative to 1j*A's own scale, so
    # eigh_batch once raised NonHermitianInput on 1j*A itself.
    a = 1j * 1e-4 * np.array([[0.3, 0.5 - 0.2j, 0.1j], [0.5 + 0.2j, -0.7, 0.4],
                              [-0.1j, 0.4, 0.2]])
    a[0, 1] += 2.4e-13
    assert np.abs(a + a.conj().T).max() == pytest.approx(2.4e-13, rel=1e-2)
    u = linalg.unitary_exp(a)
    np.testing.assert_allclose(u @ u.conj().T, np.eye(3), rtol=0, atol=1e-14)
    np.testing.assert_allclose(u, linalg.unitary_exp(0.5 * (a - a.conj().T)), rtol=0, atol=1e-15)
    np.testing.assert_allclose(u, scipy.linalg.expm(0.5 * (a - a.conj().T)), rtol=0, atol=1e-15)


def test_unitary_exp_rejects_hermitian_generator():
    with pytest.raises(NonAntiHermitianInput):
        linalg.unitary_exp(np.eye(2, dtype=np.complex128))


@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 8))
@settings(max_examples=30, deadline=None)
def test_unitary_exp_matches_scipy_expm(seed, n):
    rng = np.random.default_rng(seed)
    a = 1j * random_hermitian(rng, n)
    u = linalg.unitary_exp(a)
    np.testing.assert_allclose(u @ u.conj().T, np.eye(n), atol=1e-12)
    np.testing.assert_allclose(u, scipy.linalg.expm(a), atol=1e-10)


# -- small helpers ----------------------------------------------------------


def test_commutator():
    c = linalg.commutator(PAULI[0], PAULI[1])
    np.testing.assert_allclose(c, 2j * PAULI[2], atol=1e-15)


def test_hermiticity_defect_scales():
    assert linalg.hermiticity_defect(np.eye(2)) == 0.0
    m = np.array([[0.0, 1.0], [0.0, 0.0]])
    assert linalg.hermiticity_defect(m) == pytest.approx(1.0)


def test_hermitian_eig_checks_hermiticity_once(monkeypatch, rng):
    calls = []

    def counted(m):
        calls.append(np.shape(m))
        return defect(m)

    defect = linalg.hermiticity_defect
    monkeypatch.setattr(linalg, "hermiticity_defect", counted)
    linalg.hermitian_eig(random_hermitian(rng, 5))
    assert calls == [(1, 5, 5)]
    with pytest.raises(NonHermitianInput):
        linalg.hermitian_eig(np.ones((2, 3)))
    with pytest.raises(NonHermitianInput):
        linalg.hermitian_eig(np.ones((1, 2, 2)))
    with pytest.raises(NonHermitianInput):
        linalg.hermitian_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))
