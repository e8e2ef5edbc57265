"""Bad input fails loudly with a typed UhlmannChernError.

Non-finite and overflowing parameters, matrices whose Hermiticity
check could depend on their batch neighbours, and models without the
hooks an operation needs each raise a subclass of UhlmannChernError,
never a silent NaN, a silent 0 or an untyped exception.
"""
import json
import math

import numpy as np
import pytest

from uhlmann_chern import chern, cli, geometry, linalg, models
from uhlmann_chern.errors import (
    DegenerateBand,
    GapClosed,
    MissingModelHook,
    NegativeBeta,
    NonFiniteInput,
    NonHermitianInput,
    ResolutionTooLowWarning,
    UhlmannChernError,
)


def haldane_with_mass(mass):
    return models.Haldane(t1=1.0, t2=0.5, phi=math.pi / 2, M=mass)


@pytest.mark.parametrize("mass", [math.nan, math.inf, 1e308])
@pytest.mark.filterwarnings("error")  # the typed error comes before any numpy warning
def test_first_thermal_uc_rejects_non_finite_spectrum(mass):
    model = haldane_with_mass(mass)
    with pytest.raises(NonFiniteInput):
        chern.first_thermal_uc(model, 1.0, chern.default_grid(model, 16))


@pytest.mark.parametrize("mass", [math.nan, 1e308])
def test_pure_chern_fhs_rejects_non_finite_spectrum(mass):
    model = haldane_with_mass(mass)
    with pytest.raises(NonFiniteInput):
        chern.pure_chern_fhs(model, 0, chern.default_grid(model, 16))


def test_pure_chern_fhs_guards_the_rounding(monkeypatch):
    model = haldane_with_mass(0.0)
    # Links that are NaN although every frame was finite.
    monkeypatch.setattr(chern, "_link_phases", lambda a, b: np.full(a.shape[:-2], complex(math.nan)))
    with pytest.raises(NonFiniteInput):
        chern.pure_chern_fhs(model, 0, chern.default_grid(model, 16))


def test_per_point_eigendecomposition_rejects_non_finite_input():
    with pytest.raises(NonFiniteInput):
        linalg.hermitian_eig(np.diag([1.0, math.nan]))
    with pytest.raises(NonFiniteInput):
        linalg.hermitian_eig(np.diag([1e308, -1e308]))
    with pytest.raises(NonFiniteInput):
        models.thermal_state(haldane_with_mass(math.nan), (0.1, 0.2), 1.0)


def test_eigh_batch_rejects_non_finite_entries():
    ms = np.stack([np.eye(2), np.eye(2)]).astype(np.complex128)
    ms[1, 0, 1] = complex(math.inf, 0.0)
    with pytest.raises(NonFiniteInput):
        linalg.eigh_batch(ms)


def test_hermiticity_check_does_not_depend_on_the_batch():
    bad = np.array([[0.0, 1e-8], [0.0, 0.0]], dtype=np.complex128)
    big = np.diag([1e6, -1e6]).astype(np.complex128)
    with pytest.raises(NonHermitianInput):
        linalg.eigh_batch(bad[None])
    with pytest.raises(NonHermitianInput):
        linalg.eigh_batch(np.stack([bad, big]))
    with pytest.raises(NonHermitianInput):
        linalg.eigh_batch(np.stack([big, bad, big]))


def test_hermiticity_defect_is_per_matrix():
    bad = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=np.complex128)
    stack = np.stack([np.eye(2) * 1e6, bad, np.zeros((2, 2))])
    np.testing.assert_array_equal(linalg.hermiticity_defect(stack), [0.0, 1.0, 0.0])
    np.testing.assert_array_equal(linalg.hermiticity_defect(np.stack([np.eye(2)] * 3)), 0.0)


class NotDiracForm:
    """A 4D model with H and dH but no Dirac vector hooks."""

    dim = 4

    def __init__(self):
        self._inner = models.FourBandGamma(m=1.5)
        self.manifold = self._inner.manifold

    def hamiltonian_batch(self, pts):
        return self._inner.hamiltonian_batch(pts)

    def gradient_batch(self, pts, mu):
        return self._inner.gradient_batch(pts, mu)


def test_second_thermal_uc_needs_dirac_hooks_before_grid_work(monkeypatch):
    def no_chunks(*args, **kwargs):
        raise AssertionError("chunk work started before the hook check")

    monkeypatch.setattr(chern, "_map_chunks", no_chunks)
    model = NotDiracForm()
    grid = chern.default_grid(model, 16)
    for beta in (1.0, models.BETA_INF):
        with pytest.raises(MissingModelHook):
            chern.second_thermal_uc(model, beta, grid)


def test_typed_errors_share_the_package_base():
    for exc in (NonFiniteInput, MissingModelHook):
        assert issubclass(exc, UhlmannChernError)


def beta_entry_points(model, beta):
    """Every route from a beta to thermal weights: the integral, the
    batched connection, the per-point curvature and the Gibbs state."""
    p = np.array([0.1, 0.2])
    return [
        lambda: chern.first_thermal_uc(model, beta, chern.default_grid(model, 16)),
        lambda: geometry.connection_grid(model, p[None], beta),
        lambda: geometry.uhlmann_curvature(model, p, beta),
        lambda: models.thermal_state(model, p, beta),
        lambda: models.thermal_weights(np.array([-1.0, 1.0]), beta, [(0,), (1,)]),
    ]


def test_nan_beta_raises_non_finite_input():
    for call in beta_entry_points(haldane_with_mass(0.3), math.nan):
        with pytest.raises(NonFiniteInput):
            call()


@pytest.mark.parametrize("beta", [-1.0, -math.inf])
def test_negative_beta_raises_a_typed_value_error(beta):
    assert issubclass(NegativeBeta, UhlmannChernError) and issubclass(NegativeBeta, ValueError)
    for call in beta_entry_points(haldane_with_mass(0.3), beta):
        with pytest.raises(NegativeBeta):
            call()


@pytest.mark.parametrize("beta, error", [(math.nan, NonFiniteInput), (-math.inf, NegativeBeta)])
def test_second_order_rejects_bad_beta(beta, error):
    model = models.FourBandGamma(m=1.5)
    with pytest.warns(ResolutionTooLowWarning), pytest.raises(error):
        chern.second_thermal_uc(model, beta, chern.default_grid(model, 8))


def test_pure_chern_fhs_rejects_an_empty_band_group():
    model = haldane_with_mass(0.3)
    with pytest.raises(DegenerateBand, match="empty"):
        chern.pure_chern_fhs(model, [], chern.default_grid(model, 16))


def test_cli_chern_with_nan_mass_exits_3(tmp_path, capsys):
    cfg = {
        "model": {"variant": "haldane",
                  "parameters": {"t1": 1.0, "t2": 0.5, "phi": math.pi / 2, "M": math.nan}},
        "grid": {"resolution": [16, 16]},
        "run": {"type": "chern"},
    }
    path = tmp_path / "nan.json"
    path.write_text(json.dumps(cfg))
    assert cli.main(["--config", str(path), "--out", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert "NonFiniteInput" in err and "Traceback" not in err


def test_pure_chern_fhs_honours_the_degeneracy_tolerance():
    model = haldane_with_mass(0.0)
    grid = chern.default_grid(model, 16)
    assert chern.pure_chern_fhs(model, 0, grid, degeneracy_tol=1e-6) == 1
    with pytest.raises(GapClosed):
        chern.pure_chern_fhs(model, 0, grid, degeneracy_tol=10.0)


def test_cli_chern_passes_the_degeneracy_tolerance(tmp_path, capsys):
    cfg = {
        "model": {"variant": "haldane",
                  "parameters": {"t1": 1.0, "t2": 0.5, "phi": math.pi / 2, "M": 0.0}},
        "grid": {"resolution": [16, 16]},
        "run": {"type": "chern"},
        "tolerances": {"degeneracy": 10.0},
    }
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(cfg))
    assert cli.main(["--config", str(path), "--out", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert "GapClosed" in err and "Traceback" not in err


def test_pure_chern_fhs_rejects_a_band_outside_the_spectrum(tmp_path, capsys):
    model = models.TwoLevelSphere()
    with pytest.raises(DegenerateBand):
        chern.pure_chern_fhs(model, 2, chern.default_grid(model, 8))
    cfg = {
        "model": {"variant": "two_level_sphere", "parameters": {}},
        "grid": {"resolution": [8, 8]},
        "run": {"type": "chern", "band": 2},
    }
    path = tmp_path / "band.json"
    path.write_text(json.dumps(cfg))
    assert cli.main(["--config", str(path), "--out", str(tmp_path / "out")]) == 3
    assert "Traceback" not in capsys.readouterr().err


def test_underflowing_temperature_raises_non_finite_input(tmp_path):
    model = models.CoherentOscillator(hbar_omega=1e-300)
    with pytest.raises(NonFiniteInput):
        chern.temperature_sweep(model, [1e-165], chern.default_grid(model, 8))
    cfg = {
        "model": {"variant": "coherent_oscillator", "parameters": {"hbar_omega": 1e-300}},
        "grid": {"resolution": [8, 8]},
        "run": {"type": "map", "temperatures": [1e-165]},
    }
    path = tmp_path / "cold.json"
    path.write_text(json.dumps(cfg))
    assert cli.main(["--config", str(path), "--out", str(tmp_path / "out")]) == 3


@pytest.mark.parametrize("phi", [math.inf, -math.inf])
def test_infinite_haldane_phase_raises_non_finite_input(tmp_path, capsys, phi):
    with pytest.raises(NonFiniteInput):
        models.Haldane(t1=1.0, t2=0.0, phi=phi, M=0.0)
    cfg = {
        "model": {"variant": "haldane",
                  "parameters": {"t1": 1.0, "t2": 0.0, "phi": phi, "M": 0.0}},
        "grid": {"resolution": [8, 8]},
        "run": {"type": "chern"},
    }
    path = tmp_path / "phi.json"
    path.write_text(json.dumps(cfg))
    assert cli.main(["--config", str(path), "--out", str(tmp_path / "out")]) == 3
    assert "Traceback" not in capsys.readouterr().err
