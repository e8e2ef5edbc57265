"""The closed-form Uhlmann curvature against its references.

geometry.curvature_frame_grid and uhlmann_curvature_from_frame
differentiate the spectral connection analytically, in the energy
eigenbasis. Their references are
the sphere's closed form, the central-difference stencil
(uhlmann_curvature_grid), whose gap to the closed form must shrink
fourfold when the step halves, and, for the 4D integral it feeds, the
model's closed-form determinant route. The curl of the tangents, which
it reads off the Maurer-Cartan equation, is checked against first-order
perturbation theory.
"""
import math
import warnings

import numpy as np
import pytest

from uhlmann_chern import chern, geometry, linalg, models
from uhlmann_chern.errors import ResolutionTooLowWarning

from conftest import EighFourBand, random_hermitian, random_points, sphere_points


def closed_form(model, pts, beta):
    """(f, lam) of the closed form's two halves at one beta."""
    return geometry.uhlmann_curvature_from_frame(geometry.curvature_frame_grid(model, pts), beta)


def to_original_basis(model, pts, f):
    """v F v^dagger for eigenbasis curvature stacks f (P, B, N, N)."""
    _, v, _, _ = geometry.spectral_data_grid(model, pts, 1.0)
    return np.einsum("bij,pbjk,blk->pbil", v, f, v.conj(), optimize=True)


@pytest.mark.parametrize("beta", [0.3, 1.0, 5.0, 300.0, models.BETA_INF])
def test_sphere_matches_closed_form(rng, beta):
    model = models.TwoLevelSphere(radius=1.3)
    pts = sphere_points(rng, 20)
    f, lam = closed_form(model, pts, beta)
    assert f.shape == (1, 20, 2, 2)
    assert lam.shape == (20, 2)
    got = to_original_basis(model, pts, f)[0]
    for b, p in enumerate(pts):
        assert np.abs(got[b] - model.uhlmann_curvature_exact(p, beta)).max() <= 1e-12


@pytest.mark.parametrize(
    "name, zero_temperature",
    [("haldane", False), ("fourband", False), ("coherent", False),
     ("fourband", True), ("coherent", True)],
    ids=["haldane", "fourband", "coherent", "fourband-beta_inf", "coherent-beta_inf"],
)
def test_stencil_gap_is_its_truncation_error(request, rng, name, zero_temperature):
    model = request.getfixturevalue(name)
    pts = random_points(model, rng, 5)
    if zero_temperature:  # C = 1 inside excited clusters, which keep must mask
        beta = models.BETA_INF
    else:
        beta = 0.8 if name == "coherent" else 1.1 / model.r0
    f, _ = closed_form(model, pts, beta)
    exact = to_original_basis(model, pts, f)
    gaps = []
    for h in (4e-3, 2e-3):
        stencil = geometry.uhlmann_curvature_grid(model, pts, beta, h=h)
        gaps.append(float(np.abs(stencil - exact).max()))
    assert gaps[0] / gaps[1] == pytest.approx(4.0, abs=0.5)


class RandomFamily:
    """H(k) = H0 + sum_mu sin(k_mu) A_mu for random Hermitian 5x5
    matrices: five non-degenerate levels, so five clusters."""

    dim = 3

    def __init__(self, rng, n=5):
        self.h0 = random_hermitian(rng, n)
        self.a = np.stack([random_hermitian(rng, n) for _ in range(self.dim)])

    def hamiltonian_batch(self, pts):
        return self.h0 + np.einsum("bd,dij->bij", np.sin(pts), self.a)

    def gradient_batch(self, pts, mu):
        return np.cos(pts[:, mu])[:, None, None] * self.a[mu]


def curl_of_tangents(model, pts):
    """d_mu T_nu - d_nu T_mu per direction pair by first-order
    perturbation theory, off-cluster: ([G_nu, T_mu] - [G_mu, T_nu] +
    T_nu o Delta_mu - T_mu o Delta_nu) / (E_k - E_j), with G = v^dagger
    dH v and Delta_mu,jk = G_mu,jj - G_mu,kk."""
    w, _, g = geometry._frame_data(model, pts)
    den, keep = geometry._gap_mask(w, linalg.cluster_labels(w, linalg.DEGENERACY_TOL))
    t = geometry._divide_gaps(g, den, keep)
    de = np.diagonal(g, axis1=-2, axis2=-1).real
    delta = de[:, :, :, None] - de[:, :, None, :]
    out = []
    for mu, nu in geometry.direction_pairs(model.dim):
        num = (linalg.commutator(g[nu], t[mu]) - linalg.commutator(g[mu], t[nu])
               + t[nu] * delta[mu] - t[mu] * delta[nu])
        out.append(geometry._divide_gaps(num, den, keep))
    return np.stack(out)


@pytest.mark.parametrize("name", ["coherent", "haldane", "random"])
def test_curl_of_tangents_is_the_maurer_cartan_commutator(request, rng, name):
    if name == "random":
        model = RandomFamily(rng)
        pts = rng.uniform(0.0, 2.0 * math.pi, (6, model.dim))
    else:
        model = request.getfixturevalue(name)
        pts = random_points(model, rng, 6)
    _, labels, _, _, keep, tt = geometry.curvature_frame_grid(model, pts)
    if name != "haldane":  # Haldane has two clusters; the others need three or more
        assert labels.max() >= 2
    dt = curl_of_tangents(model, pts)
    # On Haldane the curl is roundoff, so the scale is that of [T, T].
    assert np.abs(dt + keep * tt).max() <= 1e-12 * np.abs(tt).max()


@pytest.mark.parametrize("mass, beta", [(0.9, 0.7), (3.1, 2.0), (4.7, 1.3)])
def test_epsilon_route_matches_determinant_route(mass, beta):
    model = models.FourBandGamma(m=mass)
    grid = chern.GridSpec(model.manifold, (12, 12, 12, 12))
    with pytest.warns(ResolutionTooLowWarning):
        res = chern.second_thermal_uc(model, beta, grid)
    assert res.extra["route_disagreement"] <= 1e-10
    assert res.imag_residual <= 1e-12


@pytest.mark.parametrize("name", ["sphere", "haldane", "fourband", "coherent"])
def test_infinite_temperature_gives_exact_zeros(request, rng, name):
    model = request.getfixturevalue(name)
    f, lam = closed_form(model, random_points(model, rng, 6), 0.0)
    assert np.all(f == 0.0)
    assert np.all(lam == lam[:, :1])


@pytest.mark.parametrize("name", ["sphere", "haldane", "fourband"])
def test_large_beta_is_finite_without_warnings(request, rng, name):
    model = request.getfixturevalue(name)
    pts = random_points(model, rng, 6)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        f, lam = closed_form(model, pts, 1e4)
    assert np.isfinite(f).all() and np.isfinite(lam).all()


def test_second_thermal_uc_workers_bitwise_identical(fourband):
    grid = chern.default_grid(fourband, 10)
    assert len(geometry._ranges(grid.n_points, chern.CHUNK_SIZE)) >= 3
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ResolutionTooLowWarning)
        serial = chern.second_thermal_uc(fourband, 1.1, grid, workers=1)
        pooled = chern.second_thermal_uc(fourband, 1.1, grid, workers=2)
    assert serial.value == pooled.value
    assert serial.extra == pooled.extra


def count_eigh_calls(monkeypatch):
    """Shapes of every eigh_batch call, from whichever module makes it."""
    calls = []
    original = linalg.eigh_batch

    def counted(ms, *args, **kwargs):
        calls.append(np.shape(ms))
        return original(ms, *args, **kwargs)

    for module in (linalg, models, geometry):
        monkeypatch.setattr(module, "eigh_batch", counted)
    return calls


def test_stencil_makes_one_eigendecomposition(monkeypatch, haldane, rng):
    calls = count_eigh_calls(monkeypatch)
    pts = random_points(haldane, rng, 7)
    geometry.uhlmann_curvature_grid(haldane, pts, 1.3)
    assert calls == [((2 * haldane.dim + 1) * 7, 2, 2)]


def test_closed_form_makes_one_eigendecomposition_per_point(monkeypatch, fourband, rng):
    calls = count_eigh_calls(monkeypatch)
    pts = random_points(fourband, rng, 7)
    closed_form(EighFourBand(fourband.m), pts, 1.3)
    assert calls == [(7, 4, 4)]
    # The model's closed-form eigenframe replaces that eigendecomposition.
    closed_form(fourband, pts, 1.3)
    assert calls == [(7, 4, 4)]
