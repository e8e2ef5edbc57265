"""Tests for connections, curvatures, and thermally weighted traces.

The two-level sphere carries closed-form references for everything, so
most numeric routes are checked against it. Where two independent
routes exist (spectral vs finite-differenced sqrt(rho), cluster formula
vs projector algebra) both are exercised and compared, and the
finite-difference routes get Richardson step-halving checks to confirm
the error actually shrinks at the expected order.
"""
import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uhlmann_chern import geometry, linalg, models
from uhlmann_chern.errors import (
    DegenerateBand,
    GapClosed,
    ManifoldMismatch,
    NotMaximalCluster,
    StepTooLarge,
    VanishingDenominatorWarning,
)
from uhlmann_chern.geometry import (
    CurvatureComponents,
    berry_curvature,
    direction_pairs,
    projector_limit_curvature,
    thermal_trace_spectral,
    uhlmann_connection_spectral,
    uhlmann_connection_sqrt_fd,
    uhlmann_curvature,
    weighted_trace,
    wz_curvature,
)

from conftest import cell_points, sphere_points


# -- containers --------------------------------------------------------------


def test_direction_pairs():
    assert direction_pairs(2) == ((0, 1),)
    assert direction_pairs(4) == (
        (0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3),
    )


def test_curvature_components_antisymmetry(sphere):
    f = uhlmann_curvature(sphere, np.array([1.0, 0.5]), 1.0)
    assert np.array_equal(f.component(1, 0), -f.component(0, 1))
    assert not f.component(0, 0).any()
    with pytest.raises(KeyError):
        f.component(0, 5)
    with pytest.raises(ValueError):
        f.scalar(0, 1)  # full-space block is 2x2, not abelian
    b = berry_curvature(sphere, np.array([1.0, 0.5]), 0)
    assert b.scalar(0, 1) == -b.scalar(1, 0)


def test_connection_field_defect_and_drops(sphere):
    a = uhlmann_connection_spectral(sphere, np.array([1.0, 0.5]), 1.0)
    assert a.dropped_pairs == 0
    assert a.anti_hermiticity_defect() <= 1e-14
    assert a.dim == 2 and a.n_dirs == 2


# -- pure-state curvature: abelian -------------------------------------------


def test_berry_equator_value(sphere):
    f = berry_curvature(sphere, np.array([math.pi / 2, 0.3]), 0)
    assert abs(f.scalar(0, 1) - (-0.5j)) <= 1e-13


def test_berry_matches_closed_form(sphere, rng):
    for p in sphere_points(rng, 40):
        for band in (0, 1):
            got = berry_curvature(sphere, p, band).scalar(0, 1)
            assert abs(got - sphere.berry_curvature_exact(p, band)) <= 1e-12


def test_berry_band_sum_vanishes(haldane, rng):
    for p in cell_points(haldane, rng, 15):
        lower = berry_curvature(haldane, p, 0).scalar(0, 1)
        upper = berry_curvature(haldane, p, 1).scalar(0, 1)
        assert abs(lower + upper) <= 1e-10 * (1 + abs(lower))


def test_berry_rejects_degenerate_band(fourband):
    with pytest.raises(DegenerateBand):
        berry_curvature(fourband, np.full(4, 0.4), 0)
    with pytest.raises(DegenerateBand):
        berry_curvature(fourband, np.full(4, 0.4), 7)


def test_coherent_berry_is_uniform():
    # lowest Landau-level analogue: curvature 2i independent of the
    # displacement, up to Fock truncation
    model = models.CoherentOscillator(fock_dim=40)
    f = berry_curvature(model, np.array([0.05, 0.02]), 0)
    assert abs(f.scalar(0, 1) - 2.0j) <= 1e-6


# -- pure-state curvature: degenerate clusters -------------------------------


def test_wz_singleton_equals_berry(sphere, rng):
    for p in sphere_points(rng, 10):
        a = wz_curvature(sphere, p, (0,)).scalar(0, 1)
        b = berry_curvature(sphere, p, 0).scalar(0, 1)
        assert abs(a - b) <= 1e-12


def test_wz_requires_maximal_cluster(fourband):
    p = np.full(4, 0.4)
    with pytest.raises(NotMaximalCluster):
        wz_curvature(fourband, p, (0,))
    with pytest.raises(NotMaximalCluster):
        wz_curvature(fourband, p, (0, 2))


def test_wz_anti_hermitian(fourband, rng):
    for p in cell_points(fourband, rng, 5):
        f = wz_curvature(fourband, p, (0, 1))
        assert f.anti_hermiticity_defect() <= 1e-12


def test_projector_route_matches_cluster_formula(fourband, rng):
    for p in cell_points(fourband, rng, 10):
        a = wz_curvature(fourband, p, (0, 1))
        b = projector_limit_curvature(fourband, p)
        assert np.array_equal(a.basis, b.basis)
        assert np.abs(a.matrices - b.matrices).max() <= 1e-10


def _fd_projector_curvature(model, p, group, h, basis):
    """Oracle: difference the spectral projector itself (gauge-free)
    and assemble the commutator of its derivatives in the cluster
    frame given by the columns of basis."""
    def proj(q):
        return linalg.hermitian_eig(model.hamiltonian(q)).projector(group)

    dps = []
    for mu in range(model.dim):
        e = np.zeros(model.dim)
        e[mu] = h
        dps.append((proj(p + e) - proj(p - e)) / (2.0 * h))
    return {
        pair: basis.conj().T @ (dps[pair[0]] @ dps[pair[1]] - dps[pair[1]] @ dps[pair[0]]) @ basis
        for pair in direction_pairs(model.dim)
    }


def test_cluster_curvature_against_projector_differences(fourband, rng):
    p = cell_points(fourband, rng, 1)[0]
    f = wz_curvature(fourband, p, (0, 1))
    errs = []
    for h in (1e-3, 5e-4):
        oracle = _fd_projector_curvature(fourband, p, (0, 1), h, f.basis)
        errs.append(
            max(np.abs(oracle[pair] - f.component(*pair)).max() for pair in oracle)
        )
    # second-order differences: halving the step should cut the error
    # by about four
    assert errs[0] / errs[1] == pytest.approx(4.0, abs=1.0)
    assert errs[1] <= 1e-4


def test_ground_block_grid_matches_pointwise(fourband, rng):
    pts = cell_points(fourband, rng, 8)
    f, d = geometry.ground_block_curvature_grid(fourband, pts)
    assert d == 2
    for b, p in enumerate(pts):
        ref = wz_curvature(fourband, p, (0, 1))
        assert np.abs(f[:, b] - ref.matrices).max() <= 1e-12


@dataclasses.dataclass(frozen=True)
class _FlatModel:
    """Scalar multiple of the identity everywhere: the whole spectrum is
    one cluster, so there is no gap to work across."""

    dim = 2
    manifold = models.Manifold("torus", 2, (1.0, 1.0), (0.0, 0.0))

    @property
    def r0(self):
        return 1.0

    def hamiltonian(self, p):
        return self.hamiltonian_batch(np.asarray(p)[None])[0]

    def hamiltonian_batch(self, pts):
        pts = np.asarray(pts, dtype=np.float64)
        s = np.sin(2 * math.pi * pts[:, 0])
        return s[:, None, None] * np.eye(2, dtype=np.complex128)

    def gradient_batch(self, pts, mu):
        pts = np.asarray(pts, dtype=np.float64)
        if mu == 0:
            g = 2 * math.pi * np.cos(2 * math.pi * pts[:, 0])
        else:
            g = np.zeros(pts.shape[0])
        return g[:, None, None] * np.eye(2, dtype=np.complex128)


def test_ground_block_rejects_gapless_spectrum():
    pts = np.array([[0.3, 0.1], [0.4, 0.9]])
    with pytest.raises(GapClosed):
        geometry.ground_block_curvature_grid(_FlatModel(), pts)


# -- mixing coefficients ------------------------------------------------------


def test_mixing_pure_state_limit():
    c = geometry._mixing_batch(np.array([[1.0, 0.0, 0.0]]))[0]
    # zero-weight pairs continue the large-beta limit C -> 1, including
    # the zero-weight diagonal (harmless: those entries multiply zeros)
    assert np.array_equal(c, np.array([
        [0.0, 1.0, 1.0],
        [1.0, 1.0, 1.0],
        [1.0, 1.0, 1.0],
    ]))


def test_mixing_matches_oscillator_closed_form(coherent):
    lam = models.weights_batch(
        coherent.hbar_omega * (np.arange(coherent.fock_dim) + 0.5)[None], 0.7
    )
    c = geometry._mixing_batch(lam)[0]
    for n in range(6):
        for m in range(6):
            assert abs(c[n, m] - coherent.uhlmann_mixing_exact(0.7, n, m)) <= 1e-10


@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 8))
@settings(max_examples=40, deadline=None)
def test_mixing_properties(seed, n):
    rng = np.random.default_rng(seed)
    lam = rng.uniform(1e-6, 1.0, n)
    lam /= lam.sum()
    c = geometry._mixing_batch(lam[None])[0]
    assert np.all(c >= 0) and np.all(c <= 1)
    assert np.abs(c - c.T).max() <= 1e-15
    assert np.abs(np.diag(c)).max() == 0.0


# -- Uhlmann connection -------------------------------------------------------


def test_connection_matches_closed_form(sphere, rng):
    beta = 1.0 / sphere.radius
    for p in sphere_points(rng, 20):
        a = uhlmann_connection_spectral(sphere, p, beta)
        exact = sphere.uhlmann_connection_exact(p, beta)
        for mu in range(2):
            assert np.abs(a.component(mu) - exact[mu]).max() <= 1e-9


def test_connection_anti_hermitian_traceless(haldane, rng):
    for p in cell_points(haldane, rng, 10):
        a = uhlmann_connection_spectral(haldane, p, 0.8 / haldane.r0)
        assert a.anti_hermiticity_defect() <= 1e-12
        for mu in range(2):
            assert abs(np.trace(a.component(mu))) <= 1e-14


def test_connection_vanishes_inside_clusters(fourband, rng):
    # degenerate pairs never mix: in the energy eigenbasis the
    # in-cluster entries are pinned to zero, not merely small
    for p in cell_points(fourband, rng, 5):
        state = models.thermal_state(fourband, p, 1.1)
        a = uhlmann_connection_spectral(fourband, p, 1.1)
        v = state.spectrum.eigenvectors
        for mu in range(4):
            tilde = v.conj().T @ a.component(mu) @ v
            for j, k in ((0, 1), (1, 0), (2, 3), (3, 2)):
                assert abs(tilde[j, k]) <= 1e-14


@pytest.mark.filterwarnings("ignore::uhlmann_chern.errors.TruncationWeightWarning")
def test_connection_routes_agree(sphere, haldane, fourband, rng):
    cases = [
        (sphere, 1.5 / sphere.r0, sphere_points(rng, 6), 1e-7),
        (haldane, 1.5 / haldane.r0, cell_points(haldane, rng, 6), 1e-7),
        (fourband, 1.5, cell_points(fourband, rng, 4), 1e-7),
        (models.CoherentOscillator(fock_dim=16), 0.8, rng.uniform(-0.5, 0.5, (3, 2)), 1e-6),
    ]
    for model, beta, pts, tol in cases:
        for p in pts:
            spectral = uhlmann_connection_spectral(model, p, beta)
            fd = uhlmann_connection_sqrt_fd(model, p, beta, h=1e-4)
            assert np.abs(spectral.components - fd.components).max() <= tol


def test_sqrt_route_error_is_second_order(sphere, rng):
    p = sphere_points(rng, 1)[0]
    beta = 1.2
    ref = uhlmann_connection_spectral(sphere, p, beta).components
    errs = [
        np.abs(uhlmann_connection_sqrt_fd(sphere, p, beta, h=h).components - ref).max()
        for h in (2e-3, 1e-3)
    ]
    assert errs[0] / errs[1] == pytest.approx(4.0, abs=0.5)


def test_sqrt_route_warns_on_vanished_pairs(sphere):
    p = np.array([1.1, 0.4])
    with pytest.warns(VanishingDenominatorWarning):
        a = uhlmann_connection_sqrt_fd(sphere, p, models.BETA_INF)
    assert a.dropped_pairs > 0


# -- Uhlmann curvature --------------------------------------------------------


def test_curvature_matches_closed_form(sphere, rng):
    beta = 1.0 / sphere.radius
    for p in sphere_points(rng, 10):
        f = uhlmann_curvature(sphere, p, beta)
        assert np.abs(f.component(0, 1) - sphere.uhlmann_curvature_exact(p, beta)).max() <= 1e-6


def test_curvature_step_halving(sphere, rng):
    p = sphere_points(rng, 1)[0]
    beta = 1.0
    exact = sphere.uhlmann_curvature_exact(p, beta)
    errs = [
        np.abs(uhlmann_curvature(sphere, p, beta, h=h).component(0, 1) - exact).max()
        for h in (2e-3, 1e-3)
    ]
    assert errs[0] / errs[1] == pytest.approx(4.0, abs=0.5)


def test_curvature_routes_agree(sphere, rng):
    for p in sphere_points(rng, 4):
        a = uhlmann_curvature(sphere, p, 1.2, connection_route="spectral")
        b = uhlmann_curvature(sphere, p, 1.2, connection_route="sqrt_fd")
        assert np.abs(a.matrices - b.matrices).max() <= 1e-5


@pytest.mark.parametrize("route", ["spectral", "sqrt_fd"])
def test_curvature_reads_one_point(sphere, route):
    # The spectral route once read its point with np.asarray: a (1, 2) point
    # gave matrices (1, 1, 2, 2), and a (2, 2) batch both points' curvatures.
    p = np.array([1.1, 0.4])
    flat = uhlmann_curvature(sphere, p, 0.8, connection_route=route)
    row = uhlmann_curvature(sphere, p[None], 0.8, connection_route=route)
    assert row.matrices.shape == flat.matrices.shape == (1, 2, 2)
    np.testing.assert_array_equal(row.matrices, flat.matrices)
    with pytest.raises(ManifoldMismatch):
        uhlmann_curvature(sphere, np.stack([p, p + 0.1]), 0.8, connection_route=route)


def test_curvature_rejects_unknown_route(sphere):
    with pytest.raises(ValueError):
        uhlmann_curvature(sphere, np.array([1.0, 1.0]), 1.0, connection_route="magic")


def test_step_bounds(sphere):
    p = np.array([1.0, 1.0])
    with pytest.raises(StepTooLarge):
        uhlmann_curvature(sphere, p, 1.0, h=min(sphere.manifold.cell) / 5)
    with pytest.raises(StepTooLarge):
        uhlmann_curvature(sphere, p, 1.0, h=0.0)
    with pytest.raises(StepTooLarge):
        uhlmann_connection_sqrt_fd(sphere, p, 1.0, h=-1e-3)


def test_curvature_grid_matches_pointwise(sphere, rng):
    pts = sphere_points(rng, 5)
    f = geometry.uhlmann_curvature_grid(sphere, pts, 1.3)
    assert f.shape == (1, 5, 2, 2)
    for b, p in enumerate(pts):
        ref = uhlmann_curvature(sphere, p, 1.3)
        assert np.array_equal(f[:, b], ref.matrices)


# -- weighted trace -----------------------------------------------------------


def test_trace_frozen_value(sphere):
    # equator point, beta * radius = 1; the phi coordinate drops out
    beta = 1.0 / sphere.radius
    for phi in (0.0, 1.234, 4.0):
        p = np.array([math.pi / 2, phi])
        tr = thermal_trace_spectral(sphere, p, beta)[0]
        assert abs(tr - (-0.22087207586557628j)) <= 5e-15
        assert abs(tr - (-0.5j * math.tanh(1.0) ** 3)) <= 5e-15
        assert abs(tr - sphere.thermal_trace_exact(p, beta)) <= 1e-14


def test_trace_tanh_cubed_law(sphere, rng):
    pts = sphere_points(rng, 10)
    for beta in (0.5, 2.0):
        for p in pts:
            cold = thermal_trace_spectral(sphere, p, models.BETA_INF)[0]
            warm = thermal_trace_spectral(sphere, p, beta)[0]
            assert abs(warm - math.tanh(beta * sphere.radius) ** 3 * cold) <= 1e-9


def test_trace_purely_imaginary(haldane, rng):
    for p in cell_points(haldane, rng, 10):
        tr = thermal_trace_spectral(haldane, p, 0.7 / haldane.r0)
        assert np.abs(tr.real).max() <= 1e-12


def test_trace_agrees_with_weighted_curvature(haldane, rng):
    beta = 1.5 / haldane.r0
    h = 2e-5 * min(haldane.manifold.cell)
    for p in cell_points(haldane, rng, 6):
        state = models.thermal_state(haldane, p, beta)
        direct = thermal_trace_spectral(haldane, p, beta)
        f = uhlmann_curvature(haldane, p, beta, h=h)
        assert np.abs(direct - weighted_trace(state, f)).max() <= 1e-6


def test_zero_temperature_trace_equals_berry(sphere, haldane, rng):
    for model, pts in ((sphere, sphere_points(rng, 8)),
                       (haldane, cell_points(haldane, rng, 8))):
        for p in pts:
            tr = thermal_trace_spectral(model, p, models.BETA_INF)[0]
            assert abs(tr - berry_curvature(model, p, 0).scalar(0, 1)) <= 1e-9


def test_infinite_temperature_everything_vanishes(haldane):
    # beta = 0 zeros out the mixing coefficients identically, so the
    # connection, the curvature, and the trace are exact zeros
    p = np.array([1.0, 2.0])
    a = uhlmann_connection_spectral(haldane, p, 0.0)
    assert not a.components.any()
    tr = thermal_trace_spectral(haldane, p, 0.0)
    assert not tr.any()
    f = uhlmann_curvature(haldane, p, 0.0)
    assert not f.matrices.any()
    assert projector_limit_curvature(haldane, p).matrices.any()


def test_trace_grid_matches_spectral(haldane, rng):
    pts = cell_points(haldane, rng, 7)
    beta = 0.9 / haldane.r0
    grid = geometry.thermal_trace_grid(haldane, pts, beta)
    for b, p in enumerate(pts):
        one = thermal_trace_spectral(haldane, p, beta)
        assert np.abs(grid[:, b] - one).max() <= 1e-14


def test_mixing_from_energies_survives_weight_underflow():
    # At beta = 20 the oscillator weights of levels 37 and 38 are a
    # subnormal 4e-322 and an exact 0; read off the weights, C_37,38
    # would be 1 instead of 1 - sech(10).
    model = models.CoherentOscillator(fock_dim=40)
    beta = 20.0
    pts = np.array([[0.3, -0.2]])
    w, v, lam, t = geometry.spectral_data_grid(model, pts, beta)
    assert 0.0 < lam[0, 37] < 1e-300 and lam[0, 38] == 0.0
    exact = 1.0 - 1.0 / math.cosh(0.5 * beta * (w[0, 38] - w[0, 37]))
    assert exact == pytest.approx(0.9999092, abs=1e-7)
    c = geometry._mixing_batch(lam, geometry._pair_exponents(w, beta))[0]
    assert abs(c[37, 38] - exact) <= 1e-12
    assert abs(c[37, 38] - model.uhlmann_mixing_exact(beta, 37, 38)) <= 1e-12
    # the connection entry A~_37,38 = -C T_37,38 in the eigenbasis
    a = geometry.connection_grid(model, pts, beta)
    for mu in range(2):
        a_tilde = v[0].conj().T @ a[mu, 0] @ v[0]
        assert abs(t[mu, 0, 37, 38]) > 1.0
        assert abs(a_tilde[37, 38] + exact * t[mu, 0, 37, 38]) <= 1e-12 * abs(t[mu, 0, 37, 38])


@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 8))
@settings(max_examples=40, deadline=None)
def test_mixing_from_energies_matches_the_weights(seed, n):
    rng = np.random.default_rng(seed)
    w = np.sort(rng.normal(0.0, 2.0, n))[None]
    beta = float(rng.uniform(0.05, 5.0))
    lam = models.weights_batch(w, beta)
    c = geometry._mixing_batch(lam, geometry._pair_exponents(w, beta))
    assert np.abs(c - geometry._mixing_batch(lam)).max() <= 1e-12
    assert np.all(c >= 0) and np.all(c <= 1)
    assert np.array_equal(c[0], c[0].T) and np.all(np.diag(c[0]) == 0.0)
