"""Tests for the model families and thermal-state construction.

Hand-evaluated Hamiltonians at symmetry points, finite-difference
gradient checks, and scipy.linalg.expm as the independent Gibbs-state
oracle.
"""
import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from uhlmann_chern import linalg, models
from uhlmann_chern.errors import (
    ManifoldMismatch,
    TruncationTooSmall,
    TruncationWeightWarning,
    UnsupportedDirection,
)

from conftest import random_points


def _all_models():
    return [
        models.TwoLevelSphere(),
        models.Haldane(t1=1.0, t2=0.4, phi=1.1, M=0.3),
        models.FourBandGamma(m=1.5),
        models.CoherentOscillator(fock_dim=16),
    ]


# -- constant tables ---------------------------------------------------------


def test_sigma_table():
    assert np.array_equal(models.SIGMA[0], np.eye(2))
    for i in range(3):
        np.testing.assert_allclose(
            models.PAULI[i] @ models.PAULI[i], np.eye(2), atol=0
        )
    np.testing.assert_allclose(
        models.PAULI[0] @ models.PAULI[1], 1j * models.PAULI[2], atol=0
    )


def test_gamma_anticommutation_residual_zero():
    assert models.gamma_anticommutation_residual() == 0.0


def test_constant_tables_read_only():
    with pytest.raises(ValueError):
        models.GAMMA[0, 0, 0] = 1.0
    with pytest.raises(ValueError):
        models.PAULI[0, 0, 0] = 1.0


# -- reference Hamiltonians --------------------------------------------------


def test_haldane_reference_point(haldane_ref):
    # at k = 0 the nearest-neighbor sum is 3 t1 and every other term
    # vanishes for phi = pi/2, M = 0
    h = haldane_ref.hamiltonian(np.zeros(2))
    np.testing.assert_allclose(h, 3.0 * models.PAULI[0], atol=1e-14)


def test_fourband_reference_point(fourband):
    p = np.full(4, math.pi / 4)
    h = fourband.hamiltonian(p)
    np.testing.assert_allclose(h, 5.5 * models.GAMMA[4], atol=1e-14)


def test_sphere_pole_and_gradient(sphere):
    np.testing.assert_allclose(
        sphere.hamiltonian(np.array([0.0, 0.0])), models.PAULI[2], atol=1e-15
    )
    grad = sphere.gradient(np.array([math.pi / 2, 0.0]), 0)
    np.testing.assert_allclose(grad, -models.PAULI[2], atol=1e-15)


def test_gradients_match_finite_differences(rng):
    h_step = 1e-5
    for model in _all_models():
        count = 20 if isinstance(model, models.CoherentOscillator) else 100
        pts = random_points(model, rng, count)
        for mu in range(model.dim):
            e = np.zeros(model.dim)
            e[mu] = h_step
            fd = (
                model.hamiltonian_batch(pts + e) - model.hamiltonian_batch(pts - e)
            ) / (2.0 * h_step)
            grad = model.gradient_batch(pts, mu)
            scale = 1.0 + float(np.abs(grad).max())
            assert float(np.abs(fd - grad).max()) <= 1e-7 * scale


def test_fourband_spectrum_symmetric(fourband, rng):
    pts = random_points(fourband, rng, 40)
    for p in pts:
        w = np.linalg.eigvalsh(fourband.hamiltonian(p))
        r = np.linalg.norm(fourband.r_vector_batch(p[None, :])[0])
        np.testing.assert_allclose(w, [-r, -r, r, r], atol=1e-10 * (1 + r))


def test_fourband_r0_pin():
    assert models.FourBandGamma(m=0.7).r0 == 1.0


# -- periodicity and twists --------------------------------------------------


def test_haldane_cell_periods(haldane):
    man = haldane.manifold
    assert man.cell[0] == pytest.approx(4 * math.pi / (3 * math.sqrt(3.0)))
    assert man.cell[1] == pytest.approx(4 * math.pi / 3)
    assert man.multiplicity == 2
    assert man.volume == pytest.approx(man.cell[0] * man.cell[1])


def test_haldane_twisted_periodicity(haldane, rng):
    # crossing the x period conjugates by the constant diagonal unitary
    # W; the y period is exact
    wx = np.diag([np.exp(2j * math.pi / 3), 1.0])
    np.testing.assert_allclose(wx @ wx.conj().T, np.eye(2), atol=1e-15)
    pts = random_points(haldane, rng, 25)
    lx = np.array([haldane.manifold.cell[0], 0.0])
    ly = np.array([0.0, haldane.manifold.cell[1]])
    h0 = haldane.hamiltonian_batch(pts)
    hx = haldane.hamiltonian_batch(pts + lx)
    hy = haldane.hamiltonian_batch(pts + ly)
    np.testing.assert_allclose(hx, np.einsum("ij,bjk,lk->bil", wx, h0, wx.conj()), atol=1e-12)
    np.testing.assert_allclose(hy, h0, atol=1e-12)


def test_plain_periodicity_elsewhere(fourband, rng):
    pts = random_points(fourband, rng, 10)
    shift = np.zeros(4)
    shift[2] = fourband.manifold.cell[2]
    np.testing.assert_allclose(
        fourband.hamiltonian_batch(pts + shift),
        fourband.hamiltonian_batch(pts),
        atol=1e-12,
    )


# -- thermal weights and states ----------------------------------------------


def test_thermal_weights_two_level_closed_form():
    w = models.thermal_weights(np.array([-1.0, 1.0]), 2.0)
    target = np.array([(1 + math.tanh(2.0)) / 2, (1 - math.tanh(2.0)) / 2])
    np.testing.assert_allclose(w, target, atol=1e-15)


def test_thermal_weights_beta_zero_exactly_uniform():
    w = models.thermal_weights(np.array([-2.0, 0.5, 3.0, 9.0]), 0.0)
    assert np.array_equal(w, np.full(4, 0.25))


def test_thermal_weights_beta_inf_ground_cluster():
    w = models.thermal_weights(
        np.array([-3.0, -3.0, 1.0, 1.0]), models.BETA_INF, groups=((0, 1), (2, 3))
    )
    assert np.array_equal(w, np.array([0.5, 0.5, 0.0, 0.0]))


def test_thermal_weights_beta_inf_needs_groups():
    with pytest.raises(ValueError):
        models.thermal_weights(np.array([-1.0, 1.0]), models.BETA_INF)


@given(
    seed=st.integers(0, 2**32 - 1),
    beta=st.floats(0.0, 50.0),
    n=st.integers(2, 9),
)
@settings(max_examples=60, deadline=None)
def test_thermal_weights_properties(seed, beta, n):
    rng = np.random.default_rng(seed)
    energies = np.sort(rng.normal(size=n))
    w = models.thermal_weights(energies, beta)
    assert np.all(w >= 0)
    assert np.all(w <= 1)
    assert abs(w.sum() - 1.0) <= 1e-12
    assert np.all(np.diff(w) <= 1e-15)  # non-increasing along energy


def test_thermal_state_matches_scipy_expm(rng):
    for model in _all_models()[:3]:
        p = random_points(model, rng, 1)[0]
        for beta in (0.3, 1.7):
            state = models.thermal_state(model, p, beta)
            h = model.hamiltonian(p)
            ref = scipy.linalg.expm(-beta * h)
            ref /= np.trace(ref).real
            np.testing.assert_allclose(state.rho, ref, atol=1e-12)
            assert np.trace(state.rho).real == pytest.approx(1.0, abs=1e-12)


def test_thermal_state_rejects_negative_beta(sphere):
    with pytest.raises(ValueError):
        models.thermal_state(sphere, np.array([1.0, 1.0]), -0.5)


def test_thermal_state_arrays_read_only(sphere):
    state = models.thermal_state(sphere, np.array([1.0, 1.0]), 1.0)
    assert not state.rho.flags.writeable
    assert not state.weights.flags.writeable
    assert state.ground == (0,)
    assert state.dim == 2


def test_thermal_state_beta_inf_fourband(fourband, rng):
    p = random_points(fourband, rng, 1)[0]
    state = models.thermal_state(fourband, p, models.BETA_INF)
    assert np.array_equal(np.sort(state.weights)[::-1], np.array([0.5, 0.5, 0.0, 0.0]))
    proj = state.spectrum.projector(state.ground)
    np.testing.assert_allclose(state.rho, proj / 2.0, atol=1e-13)


# -- displaced oscillator ----------------------------------------------------


def test_displacement_identity():
    model = models.CoherentOscillator(fock_dim=24)
    np.testing.assert_allclose(model.displacement(0.0), np.eye(24), atol=1e-14)


def test_displacement_vacuum_overlap():
    # <0|D(z)|0> = exp(-|z|^2 / 2)
    model = models.CoherentOscillator(fock_dim=40)
    z = 0.5 + 0.3j
    d = model.displacement(z)
    assert abs(d[0, 0] - math.exp(-abs(z) ** 2 / 2)) <= 1e-9


def test_displacement_inverse_and_unitarity():
    model = models.CoherentOscillator(fock_dim=32)
    z = 0.4 - 0.6j
    d = model.displacement(z)
    np.testing.assert_allclose(d @ d.conj().T, np.eye(32), atol=1e-12)
    np.testing.assert_allclose(d @ model.displacement(-z), np.eye(32), atol=1e-8)


def test_displacement_budget_guard():
    model = models.CoherentOscillator(fock_dim=16)
    with pytest.raises(TruncationTooSmall):
        model.displacement(2.0)  # |z|^2 = 4 > fock_dim / 8


def test_fock_dim_bounds():
    with pytest.raises(ManifoldMismatch):
        models.CoherentOscillator(fock_dim=4)
    with pytest.raises(ManifoldMismatch):
        models.CoherentOscillator(fock_dim=200)


def test_truncation_weight_warning():
    model = models.CoherentOscillator(fock_dim=16)
    with pytest.warns(TruncationWeightWarning):
        models.thermal_state(model, np.zeros(2), 0.1)


def test_uhlmann_mixing_exact_limits():
    model = models.CoherentOscillator(fock_dim=16)
    assert model.uhlmann_mixing_exact(models.BETA_INF, 0, 0) == 0.0
    assert model.uhlmann_mixing_exact(models.BETA_INF, 0, 3) == 1.0
    for n, m in [(0, 1), (2, 5), (3, 3)]:
        c = model.uhlmann_mixing_exact(0.9, n, m)
        assert 0.0 <= c <= 1.0
        assert c == pytest.approx(model.uhlmann_mixing_exact(0.9, m, n))
    assert model.uhlmann_mixing_exact(0.9, 4, 4) == 0.0


# -- validation and identity -------------------------------------------------


def test_point_validators(sphere):
    with pytest.raises(ManifoldMismatch):
        sphere.hamiltonian(np.array([1.0, 2.0, 3.0]))
    with pytest.raises(UnsupportedDirection):
        sphere.gradient(np.array([1.0, 2.0]), 2)


def test_haldane_requires_explicit_t2():
    with pytest.raises(TypeError):
        models.Haldane(t1=1.0, phi=1.0, M=0.0)


def test_model_id_names_parameters(haldane_ref):
    ident = models.model_id(haldane_ref)
    assert "Haldane" in ident
    assert "t2=0.5" in ident


def test_model_variants_complete():
    assert set(models.MODEL_VARIANTS) == {
        "two_level_sphere",
        "haldane",
        "four_band_gamma",
        "coherent_oscillator",
    }


def test_dirac_models_assemble_r_dot_basis(rng, sphere, haldane, fourband):
    # The shared Dirac base builds H and dH as r . sigma or r . Gamma,
    # equal entry for entry to the contraction with the basis table.
    for model, basis in ((sphere, models.PAULI), (haldane, models.PAULI),
                         (fourband, models.GAMMA)):
        pts = random_points(model, rng, 40)
        r = model.r_vector_batch(pts)
        assert np.array_equal(model.hamiltonian_batch(pts), np.einsum("bi,ijk->bjk", r, basis))
        for mu in range(model.dim):
            dr = model.r_gradient_batch(pts, mu)
            assert np.array_equal(model.gradient_batch(pts, mu),
                                  np.einsum("bi,ijk->bjk", dr, basis))
            assert np.array_equal(model.gradient(pts[0], mu), model.gradient_batch(pts[:1], mu)[0])
        assert np.array_equal(model.hamiltonian(pts[0]), model.hamiltonian_batch(pts[:1])[0])
