"""The four-band model's r-jet and its closed-form determinant.

FourBandGamma.r_jet_batch evaluates r and the four gradients d_mu r from
one sin and one cos of 2k. r_vector_batch, r_gradient_batch and the
closed-form frame read it, and so does r_determinant_batch, the
determinant route's one hook: d_mu r has only a_mu = -2 sin 2k_mu in row
mu and b_mu = 2 cos 2k_mu in row 4, so det[r/|r|, d_0 r, ..., d_3 r] has
a closed form and needs no 5x5 matrix. The hook returns |r| with it: the
determinant is linear in its first column, so the route weighs it by
|r|^-4, and it stays finite wherever |r| is, up to the float limit. The
references are the per-direction formulas the model evaluated before the
jet, kept here, and np.linalg.det of the stacked columns.
"""
import math

import numpy as np
import pytest

from uhlmann_chern import chern, models
from uhlmann_chern.errors import MissingModelHook

from conftest import cell_points

pytestmark = pytest.mark.filterwarnings("ignore::uhlmann_chern.errors.ResolutionTooLowWarning")


def r_reference(m, pts):
    two_k = 2.0 * pts
    r5 = m + np.sin(two_k).sum(axis=1)
    return np.concatenate([np.cos(two_k), r5[:, None]], axis=1)


def r_gradient_reference(pts, mu):
    out = np.zeros((pts.shape[0], 5))
    out[:, mu] = -2.0 * np.sin(2.0 * pts[:, mu])
    out[:, 4] = 2.0 * np.cos(2.0 * pts[:, mu])
    return out


def edge_points():
    """Every k with k_mu in {0, pi/4, pi/2, 3 pi/4}: a_mu = 0 at 0 and roundoff
    at pi/2, and r_4 = 0 exactly for m = -1 (one pi/4), m = 2 (two 3 pi/4)
    and m = -4 (four pi/4)."""
    axis = np.array([0.0, math.pi / 4, math.pi / 2, 3 * math.pi / 4])
    return np.stack(np.meshgrid(*[axis] * 4, indexing="ij"), axis=-1).reshape(-1, 4)


@pytest.mark.parametrize("m", [1.25, 2.75, -1.0, 0.0, 1e8, 1e200])
def test_the_jet_is_the_per_direction_formulas_bit_for_bit(rng, m):
    model = models.FourBandGamma(m=m)
    pts = np.concatenate([cell_points(model, rng, 500), rng.uniform(-50.0, 50.0, (500, 4)),
                          edge_points()])
    r, dr = model.r_jet_batch(pts)
    assert dr.shape == (4, len(pts), 5)
    assert np.array_equal(r, r_reference(m, pts))
    assert np.array_equal(model.r_vector_batch(pts), r)
    for mu in range(4):
        assert np.array_equal(dr[mu], r_gradient_reference(pts, mu))
        assert np.array_equal(model.r_gradient_batch(pts, mu), dr[mu])
    ref = np.stack([r_gradient_reference(pts, mu) for mu in range(4)])
    for got, want in zip(model.eigenframe_batch(pts), models._gamma_eigenpairs(r, ref)):
        assert np.array_equal(got, want)


def test_a_fourband_point_has_the_same_bits_alone_and_in_a_chunk():
    model = models.FourBandGamma(m=1.25)
    chunk = chern.default_grid(model, 16).points_range(0, chern.CHUNK_SIZE)
    (r, dr), (_, det) = model.r_jet_batch(chunk), model.r_determinant_batch(chunk)
    w, v, g = model.eigenframe_batch(chunk)
    for i in range(0, chern.CHUNK_SIZE, 64):
        p = chunk[i:i + 1]
        r1, dr1 = model.r_jet_batch(p)
        assert np.array_equal(r1[0], r[i]) and np.array_equal(dr1[:, 0], dr[:, i])
        assert np.array_equal(model.r_determinant_batch(p)[1][0], det[i])
        w1, v1, g1 = model.eigenframe_batch(p)
        assert np.array_equal(w1[0], w[i]) and np.array_equal(v1[0], v[i])
        assert np.array_equal(g1[:, 0], g[:, i])


@pytest.mark.parametrize("m", [1.25, 2.75, -1.0, 0.0, 2.0, -4.0])
def test_the_closed_form_determinant_is_lapacks(rng, m):
    model = models.FourBandGamma(m=m)
    pts = np.concatenate([cell_points(model, rng, 2000), edge_points()])
    rnorm, det = model.r_determinant_batch(pts)
    r, dr = model.r_jet_batch(pts)
    assert np.array_equal(rnorm, np.hypot.reduce(r, axis=-1))
    ref = np.linalg.det(np.stack([r / rnorm[:, None], *dr], axis=-1))  # columns r/|r|, d_0 r, ...
    assert np.abs(det - ref).max() <= 1e-14 * np.abs(ref).max()
    if m in (-1.0, 0.0, 2.0, -4.0):
        assert (r[2000:, 4] == 0.0).any()  # the edge points hold r_4 = 0


@pytest.mark.filterwarnings("error")  # the determinant squares no entry of r
def test_a_huge_mass_gives_a_finite_determinant_and_a_zero_route():
    model = models.FourBandGamma(m=1e200)
    _, det = model.r_determinant_batch(edge_points())
    assert np.isfinite(det).all()
    grid = chern.default_grid(model, 8)
    for beta in (models.BETA_INF, 1.0):
        result = chern.second_thermal_uc(model, beta, grid)
        assert result.value == 0.0 and result.extra["closed_form_route"] == 0.0


@pytest.mark.filterwarnings("error")  # no overflow to inf times an underflow to 0
@pytest.mark.parametrize("m", [1e306, 1e307, 5e307])
def test_a_mass_near_the_float_limit_gives_a_finite_route_and_no_warning(m):
    model = models.FourBandGamma(m=m)
    grid = chern.default_grid(model, 8)
    pts, betas = grid.points_range(0, chern.CHUNK_SIZE), (models.BETA_INF, 1.0, 0.3)
    rnorm, det = model.r_determinant_batch(pts)
    assert np.isfinite(rnorm).all() and np.isfinite(det).all()
    assert chern._closed_form_partials(model, pts, betas) == [0.0] * 3  # |r|^-4 underflows to 0
    for beta in betas:
        result = chern.second_thermal_uc(model, beta, grid)
        assert result.value == 0.0 and result.extra["closed_form_route"] == 0.0
        assert result.extra["route_disagreement"] == 0.0


class GradientHooksOnly:
    """FourBandGamma(1.5) with its r and d_mu r hooks but no r_determinant_batch."""

    dim = 4

    def __init__(self):
        self._inner = models.FourBandGamma(m=1.5)
        self.manifold = self._inner.manifold

    def hamiltonian_batch(self, pts):
        return self._inner.hamiltonian_batch(pts)

    def gradient_batch(self, pts, mu):
        return self._inner.gradient_batch(pts, mu)

    def r_vector_batch(self, pts):
        return self._inner.r_vector_batch(pts)

    def r_gradient_batch(self, pts, mu):
        return self._inner.r_gradient_batch(pts, mu)


def test_a_model_without_r_determinant_batch_lacks_the_route_hook():
    grid = chern.default_grid(GradientHooksOnly(), 8)
    with pytest.raises(MissingModelHook, match="r_determinant_batch"):
        chern.second_thermal_uc(GradientHooksOnly(), 1.0, grid)
