"""Tests for grid quadrature, lattice Chern integers, and thermal sweeps.

Quantized references anchor everything: the two-level sphere and the
honeycomb model carry first Chern numbers known by construction, the
four-band model carries second Chern numbers -1/3/-1/0 across its mass
windows, and the thermal integrals must land on (integer / ground
degeneracy) at zero temperature and die at infinite temperature.
"""
import dataclasses
import math

import numpy as np
import pytest

from uhlmann_chern import chern, geometry, models
from uhlmann_chern.chern import (
    GridSpec,
    IntegralResult,
    default_grid,
    first_thermal_uc,
    pure_chern_fhs,
    second_chern_pure,
    second_thermal_uc,
    temperature_sweep,
)
from uhlmann_chern.errors import (
    DimensionMismatch,
    GapClosed,
    NonIntegerPlaquetteSum,
    ResolutionTooLowWarning,
)


# -- grids ---------------------------------------------------------------------


def test_gridspec_validation(sphere, haldane):
    with pytest.raises(DimensionMismatch):
        GridSpec(haldane.manifold, (16, 16, 16))
    with pytest.raises(ValueError):
        GridSpec(haldane.manifold, (16, 4))
    # sphere grids force midpoint offset so no point sits on a pole
    g = GridSpec(sphere.manifold, (16, 16), offset=False)
    assert g.offset is True
    assert g.axis(0)[0] > 0.0


def test_gridspec_layout(haldane):
    g = default_grid(haldane, 8)
    assert g.resolution == (8, 8)
    assert g.n_points == 64
    assert g.point_measure == pytest.approx(g.manifold.volume / 64)
    pts = g.points_range(0, 3)
    # row-major: the last coordinate varies fastest
    assert pts[0, 0] == pts[1, 0] == pts[2, 0]
    assert pts[1, 1] > pts[0, 1]
    ranges = chern._chunk_ranges(g.n_points, 20)
    assert ranges[0] == (0, 20)
    assert ranges[-1][1] == 64
    covered = sum(b - a for a, b in ranges)
    assert covered == 64


def test_integral_result_float():
    r = IntegralResult(value=0.5, imag_residual=1e-12)
    assert float(r) == 0.5


def test_grid_model_mismatch(sphere, haldane, fourband):
    with pytest.raises(DimensionMismatch):
        first_thermal_uc(sphere, 1.0, default_grid(haldane, 32))
    with pytest.raises(DimensionMismatch):
        first_thermal_uc(fourband, 1.0, default_grid(fourband, 8))


# -- lattice Chern integers ----------------------------------------------------


def test_sphere_band_integers(sphere):
    grid = default_grid(sphere, 32)
    assert pure_chern_fhs(sphere, 0, grid) == 1
    assert pure_chern_fhs(sphere, 1, grid) == -1


def test_haldane_integers(haldane_ref):
    grid = default_grid(haldane_ref, 64)
    assert pure_chern_fhs(haldane_ref, 0, grid) == 1
    trivial = models.Haldane(t1=1.0, t2=0.5, phi=math.pi / 2, M=10.0)
    assert pure_chern_fhs(trivial, 0, default_grid(trivial, 64)) == 0


def test_group_normalization():
    assert chern._normalize_group(1) == (1,)
    assert chern._normalize_group((1, 0)) == (0, 1)
    with pytest.raises(GapClosed):
        chern._normalize_group((0, 2))


@dataclasses.dataclass(frozen=True)
class _StripeModel:
    """Ground frame flips between orthogonal states from one grid column
    to the next, so every link overlap determinant vanishes."""

    dim = 2
    manifold = models.Manifold("torus", 2, (1.0, 1.0), (0.0, 0.0))

    @property
    def r0(self):
        return 1.0

    def hamiltonian(self, p):
        return self.hamiltonian_batch(np.asarray(p)[None])[0]

    def hamiltonian_batch(self, pts):
        pts = np.asarray(pts, dtype=np.float64)
        sign = np.where(np.floor(pts[:, 0] * 8).astype(int) % 2 == 0, 1.0, -1.0)
        return sign[:, None, None] * np.diag([1.0, -1.0]).astype(np.complex128)

    def gradient_batch(self, pts, mu):
        pts = np.asarray(pts, dtype=np.float64)
        return np.zeros((pts.shape[0], 2, 2), dtype=np.complex128)


def test_vanishing_link_overlap_rejected():
    model = _StripeModel()
    with pytest.raises(NonIntegerPlaquetteSum):
        pure_chern_fhs(model, 0, default_grid(model, 8))


class _FourfoldHaldane(models.Haldane):
    """Haldane with a cell that claims to cover the primitive cell four
    times instead of twice: the plaquette sum normalises to 1/2."""

    @property
    def manifold(self):
        return dataclasses.replace(super().manifold, multiplicity=4)


def test_half_integer_plaquette_sum_rejected():
    plain = models.Haldane(t1=1.0, t2=0.5, phi=math.pi / 2, M=0.0)
    assert pure_chern_fhs(plain, 0, default_grid(plain, 32)) == 1
    model = _FourfoldHaldane(t1=1.0, t2=0.5, phi=math.pi / 2, M=0.0)
    with pytest.raises(NonIntegerPlaquetteSum, match=r"sum 0\.500000 is 0\.500 from an integer"):
        pure_chern_fhs(model, 0, default_grid(model, 32))


@dataclasses.dataclass(frozen=True)
class _PinchModel:
    """Gap closes exactly on a grid point (the first midpoint)."""

    dim = 2
    manifold = models.Manifold("torus", 2, (1.0, 1.0), (0.0, 0.0))

    @property
    def r0(self):
        return 1.0

    def hamiltonian(self, p):
        return self.hamiltonian_batch(np.asarray(p)[None])[0]

    def hamiltonian_batch(self, pts):
        pts = np.asarray(pts, dtype=np.float64)
        f = pts[:, 0] - 0.0625
        return f[:, None, None] * np.diag([1.0, -1.0]).astype(np.complex128)

    def gradient_batch(self, pts, mu):
        pts = np.asarray(pts, dtype=np.float64)
        g = np.ones(pts.shape[0]) if mu == 0 else np.zeros(pts.shape[0])
        return g[:, None, None] * np.diag([1.0, -1.0]).astype(np.complex128)


def test_on_grid_gap_closure_rejected():
    model = _PinchModel()
    with pytest.raises(GapClosed):
        pure_chern_fhs(model, 0, default_grid(model, 8))


# -- first-order thermal integral ----------------------------------------------


def test_sphere_thermal_suppression(sphere):
    grid = default_grid(sphere, 100)
    beta = 1.0 / sphere.radius
    cold = first_thermal_uc(sphere, models.BETA_INF, grid)
    warm = first_thermal_uc(sphere, beta, grid)
    assert cold.value == pytest.approx(1.0, abs=1e-4)
    # the suppression factor is exact pointwise, so quadrature error
    # cancels in the ratio
    assert warm.value / cold.value == pytest.approx(math.tanh(1.0) ** 3, abs=1e-9)
    assert warm.imag_residual <= 1e-10


def test_haldane_zero_temperature_integers(haldane_ref):
    grid = default_grid(haldane_ref, 128)
    res = first_thermal_uc(haldane_ref, models.BETA_INF, grid)
    assert abs(res.value - 1.0) <= 1e-9
    trivial = models.Haldane(t1=1.0, t2=0.5, phi=math.pi / 2, M=10.0)
    res = first_thermal_uc(trivial, models.BETA_INF, default_grid(trivial, 128))
    assert abs(res.value) <= 1e-9


def test_haldane_phase_diagram_consistency():
    # inside the topological window the zero-temperature thermal
    # integral and the lattice integer must agree
    t2 = 0.5
    for phi in (-1.2, 0.6, 1.8):
        for mass in (-1.2, 0.0, 1.2):
            if abs(mass) >= 3 * math.sqrt(3.0) * t2 * abs(math.sin(phi)) - 0.3:
                continue
            model = models.Haldane(t1=1.0, t2=t2, phi=phi, M=mass)
            grid = default_grid(model, 64)
            n_int = pure_chern_fhs(model, 0, grid)
            assert n_int == (1 if math.sin(phi) > 0 else -1)
            res = first_thermal_uc(model, models.BETA_INF, grid)
            assert abs(res.value - n_int) <= 0.01


def test_workers_bitwise_identical(haldane):
    grid = default_grid(haldane, 32)
    a = first_thermal_uc(haldane, 2.0, grid, workers=1)
    b = first_thermal_uc(haldane, 2.0, grid, workers=2)
    assert a.value == b.value
    assert a.imag_residual == b.imag_residual


def test_grid_refinement_stability(haldane):
    beta = 1.0 / haldane.r0
    a = first_thermal_uc(haldane, beta, default_grid(haldane, 64)).value
    b = first_thermal_uc(haldane, beta, default_grid(haldane, 128)).value
    assert abs(a - b) < 0.005


def test_integrand_periodicity(haldane):
    # y period is exact; the x period conjugates the Hamiltonian by a
    # unitary, which the spectral trace cannot see
    rng = np.random.default_rng(3)
    pts = np.stack([
        rng.uniform(0, haldane.manifold.cell[0], 12),
        rng.uniform(0, haldane.manifold.cell[1], 12),
    ], axis=1)
    beta = 1.3 / haldane.r0
    base = geometry.thermal_trace_grid(haldane, pts, beta)
    for mu in range(2):
        shift = np.zeros(2)
        shift[mu] = haldane.manifold.cell[mu]
        moved = geometry.thermal_trace_grid(haldane, pts + shift, beta)
        assert np.abs(moved - base).max() <= 1e-10


# -- second-order integrals ------------------------------------------------------


def test_second_chern_windows(fourband):
    with pytest.warns(ResolutionTooLowWarning):
        second_chern_pure(fourband, default_grid(fourband, 8))
    grid = default_grid(fourband, 16)
    assert second_chern_pure(fourband, grid).value == pytest.approx(3.0, abs=0.05)
    upper = models.FourBandGamma(m=3.5)
    assert second_chern_pure(upper, default_grid(upper, 16)).value == pytest.approx(-1.0, abs=0.05)


def test_second_thermal_routes_agree(rng):
    masses = np.concatenate([
        rng.uniform(0.5, 1.5, 4), rng.uniform(2.5, 3.5, 4), rng.uniform(4.5, 5.0, 2),
    ])
    betas = rng.uniform(0.5, 3.0, 10)
    for mass, beta in zip(masses, betas):
        model = models.FourBandGamma(m=float(mass))
        grid = GridSpec(model.manifold, (12, 12, 12, 12))
        with pytest.warns(ResolutionTooLowWarning):
            res = second_thermal_uc(model, float(beta), grid)
        gap = res.extra["route_disagreement"]
        assert gap <= 0.01 * max(1.0, abs(res.value))
        assert res.extra["epsilon_route"] == pytest.approx(res.extra["closed_form_route"], abs=gap + 1e-15)


@pytest.mark.filterwarnings("ignore::uhlmann_chern.errors.ResolutionTooLowWarning")
def test_second_order_degeneracy_split(fourband):
    # at zero temperature the thermal value is the pure integer divided
    # by the ground degeneracy (two), identically in the quadrature
    grid = default_grid(fourband, 10)
    cold = second_thermal_uc(fourband, models.BETA_INF, grid)
    pure = second_chern_pure(fourband, grid)
    assert cold.value == pytest.approx(pure.value / 2.0, rel=1e-12)


# -- temperature sweeps -----------------------------------------------------------


def test_sweep_input_validation(haldane):
    grid = default_grid(haldane, 16)
    with pytest.raises(ValueError, match="temperatures: empty"):
        temperature_sweep(haldane, [], grid)
    with pytest.raises(ValueError, match="positive and strictly ascending"):
        temperature_sweep(haldane, [0.5, 0.5], grid)
    with pytest.raises(ValueError, match="positive and strictly ascending"):
        temperature_sweep(haldane, [-1.0, 0.5], grid)


def test_first_order_sweep_decays(haldane_ref):
    grid = default_grid(haldane_ref, 64)
    sweep = temperature_sweep(haldane_ref, [0.05, 0.5, 2.0], grid)
    assert sweep.order == 1
    assert sweep.model == models.model_id(haldane_ref)
    assert sweep.values[0] > sweep.values[1] > sweep.values[2] > 0.0
    assert sweep.values[0] == pytest.approx(1.0, abs=0.01)
    assert sweep.values[2] < 0.01
    for diag in sweep.diagnostics:
        assert set(diag) == {
            "T_over_R0", "beta", "imag_residual",
            "max_trace_residual", "route_disagreement",
        }
        assert diag["imag_residual"] <= 1e-10
        assert diag["max_trace_residual"] <= 1e-10
        assert diag["route_disagreement"] <= 1e-5


def test_second_order_sweep(fourband):
    grid = default_grid(fourband, 8)
    with pytest.warns(ResolutionTooLowWarning):
        sweep = temperature_sweep(fourband, [0.4, 1.2], grid)
    assert sweep.order == 2
    assert abs(sweep.values[1]) < abs(sweep.values[0])
    for diag in sweep.diagnostics:
        assert diag["route_disagreement"] <= 0.05
