"""The closed-form Uhlmann curvature against its references.

geometry.uhlmann_curvature_spectral_grid differentiates the spectral
connection analytically, in the energy eigenbasis. Its references are
the sphere's closed form, the central-difference stencil
(uhlmann_curvature_grid), whose gap to the closed form must shrink
fourfold when the step halves, and, for the 4D integral it feeds, the
model's closed-form determinant route.
"""
import math
import warnings

import numpy as np
import pytest

from uhlmann_chern import chern, geometry, models
from uhlmann_chern.errors import ResolutionTooLowWarning

from conftest import random_points, sphere_points


def to_original_basis(model, pts, f):
    """v F v^dagger for eigenbasis curvature stacks f (P, B, N, N)."""
    _, v, _, _ = geometry.spectral_data_grid(model, pts, 1.0)
    return np.einsum("bij,pbjk,blk->pbil", v, f, v.conj(), optimize=True)


@pytest.mark.parametrize("beta", [0.3, 1.0, 5.0, 300.0, models.BETA_INF])
def test_sphere_matches_closed_form(rng, beta):
    model = models.TwoLevelSphere(radius=1.3)
    pts = sphere_points(rng, 20)
    f, lam = geometry.uhlmann_curvature_spectral_grid(model, pts, beta)
    assert f.shape == (1, 20, 2, 2)
    assert lam.shape == (20, 2)
    got = to_original_basis(model, pts, f)[0]
    for b, p in enumerate(pts):
        assert np.abs(got[b] - model.uhlmann_curvature_exact(p, beta)).max() <= 1e-12


@pytest.mark.parametrize("name", ["haldane", "fourband", "coherent"])
def test_stencil_gap_is_its_truncation_error(request, rng, name):
    model = request.getfixturevalue(name)
    pts = random_points(model, rng, 5)
    beta = 0.8 if name == "coherent" else 1.1 / model.r0
    f, _ = geometry.uhlmann_curvature_spectral_grid(model, pts, beta)
    exact = to_original_basis(model, pts, f)
    gaps = []
    for h in (4e-3, 2e-3):
        stencil, _ = geometry.uhlmann_curvature_grid(model, pts, beta, h=h)
        gaps.append(float(np.abs(stencil - exact).max()))
    assert gaps[0] / gaps[1] == pytest.approx(4.0, abs=0.5)


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
    f, lam = geometry.uhlmann_curvature_spectral_grid(model, random_points(model, rng, 6), 0.0)
    assert np.all(f == 0.0)
    assert np.all(lam == lam[:, :1])


@pytest.mark.parametrize("name", ["sphere", "haldane", "fourband"])
def test_large_beta_is_finite_without_warnings(request, rng, name):
    model = request.getfixturevalue(name)
    pts = random_points(model, rng, 6)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        f, lam = geometry.uhlmann_curvature_spectral_grid(model, pts, 1e4)
    assert np.isfinite(f).all() and np.isfinite(lam).all()


def test_second_thermal_uc_workers_bitwise_identical(fourband):
    grid = chern.default_grid(fourband, 10)
    assert len(grid.chunk_ranges()) >= 3
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ResolutionTooLowWarning)
        serial = chern.second_thermal_uc(fourband, 1.1, grid, workers=1)
        pooled = chern.second_thermal_uc(fourband, 1.1, grid, workers=2)
    assert serial.value == pooled.value
    assert serial.extra == pooled.extra


def count_eigh_calls(monkeypatch):
    calls = []
    original = geometry.eigh_batch

    def counted(ms, *args, **kwargs):
        calls.append(np.shape(ms))
        return original(ms, *args, **kwargs)

    monkeypatch.setattr(geometry, "eigh_batch", counted)
    return calls


def test_stencil_makes_one_eigendecomposition(monkeypatch, haldane, rng):
    calls = count_eigh_calls(monkeypatch)
    pts = random_points(haldane, rng, 7)
    geometry.uhlmann_curvature_grid(haldane, pts, 1.3)
    assert calls == [((2 * haldane.dim + 1) * 7, 2, 2)]


def test_closed_form_makes_one_eigendecomposition_per_point(monkeypatch, fourband, rng):
    calls = count_eigh_calls(monkeypatch)
    pts = random_points(fourband, rng, 7)
    geometry.uhlmann_curvature_spectral_grid(fourband, pts, 1.3)
    assert calls == [(7, 4, 4)]


def test_stencil_density_matrix_is_the_thermal_state(haldane, rng):
    pts = random_points(haldane, rng, 4)
    _, rho = geometry.uhlmann_curvature_grid(haldane, pts, 1.3)
    for b, p in enumerate(pts):
        ref = models.thermal_state(haldane, p, 1.3).rho
        assert np.abs(rho[b] - ref).max() <= 1e-14
        assert math.isclose(np.trace(rho[b]).real, 1.0, abs_tol=1e-14)
