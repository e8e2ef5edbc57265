"""Bad input fails loudly with a typed UhlmannChernError.

Non-finite and overflowing parameters, matrices whose Hermiticity
check could depend on their batch neighbours, and models without the
hooks an operation needs each raise a subclass of UhlmannChernError,
never a silent NaN, a silent 0 or an untyped exception.
"""
import json
import math
import warnings

import numpy as np
import pytest

from uhlmann_chern import chern, cli, geometry, linalg, models
from uhlmann_chern.errors import (
    DegenerateBand,
    GapClosed,
    InvalidArgument,
    MissingModelHook,
    NegativeBeta,
    NonFiniteInput,
    NonHermitianInput,
    ResolutionTooLowWarning,
    TruncationWeightWarning,
    UhlmannChernError,
    VanishingDenominatorWarning,
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


class NotDiracFormWithScale(NotDiracForm):
    r0 = 1.0  # the energy unit a temperature sweep reads


def test_only_the_determinant_route_needs_dirac_hooks(monkeypatch):
    model = NotDiracFormWithScale()
    grid = chern.default_grid(model, 16)
    pure = chern.second_chern_pure(model, grid)
    assert pure.value == chern.second_chern_pure(models.FourBandGamma(m=1.5), grid).value

    def no_chunks(*args, **kwargs):
        raise AssertionError("chunk work started before the hook check")

    monkeypatch.setattr(chern, "_map_chunks", no_chunks)
    with pytest.raises(MissingModelHook):
        chern.temperature_sweep(model, [0.5, 1.0], grid)


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
        lambda: models.weights_batch(np.array([[-1.0, 1.0]]), beta, np.array([[0, 1]])),
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


@pytest.mark.parametrize("beta_r", [700.0, 1000.0, 1e308])
def test_sphere_references_reach_zero_temperature_without_overflow(beta_r):
    # math.cosh(beta R) overflows above about 710; the references must not
    sphere = models.TwoLevelSphere(radius=2.0)
    p, beta = [1.0, 0.5], beta_r / 2.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for reference in (sphere.uhlmann_curvature_exact, sphere.uhlmann_connection_exact,
                          sphere.thermal_trace_exact):
            np.testing.assert_array_equal(reference(p, beta), reference(p, models.BETA_INF))


@pytest.mark.parametrize("beta", [0.0, 1e-3, 0.4, 2.5, 20.0, -400.0])  # sech is even
def test_sphere_mixing_is_one_minus_sech(beta):
    sphere = models.TwoLevelSphere(radius=1.5)
    x = 1.5 * beta  # 1 - sech x = 2 sinh^2(x/2) / cosh x, without cancellation at small x
    assert sphere._mixing(beta) == pytest.approx(2.0 * math.sinh(x / 2) ** 2 / math.cosh(x),
                                                 rel=1e-14, abs=1e-300)


@pytest.mark.parametrize("beta, error", [(-1.0, NegativeBeta), (-math.inf, NegativeBeta),
                                         (math.nan, NonFiniteInput)])
def test_sphere_references_check_beta_like_the_numeric_routes(beta, error):
    sphere = models.TwoLevelSphere(radius=1.3)
    p = np.array([1.0, 0.5])
    with pytest.raises(error):
        geometry.thermal_trace_grid(sphere, p[None], beta)
    for reference in (sphere.uhlmann_curvature_exact, sphere.uhlmann_connection_exact,
                      sphere.thermal_trace_exact):
        with pytest.raises(error):
            reference(p, beta)


@pytest.mark.parametrize("resolution", [(8.7, 9.99), (math.nan, 8), (math.inf, 8), (8, -math.inf)])
def test_grid_resolution_must_be_integral(resolution):
    model = haldane_with_mass(0.3)
    with pytest.raises(InvalidArgument, match="not integral"):
        chern.GridSpec(model.manifold, resolution)


@pytest.mark.parametrize("resolution", [(2**32, 2**32), (10**400, 8)])
def test_grids_past_an_index_raise(resolution):
    # 2**64 points wrapped to 0 in int64, and 10**400 overflowed a float.
    model = haldane_with_mass(0.3)
    with pytest.raises(InvalidArgument):
        chern.GridSpec(model.manifold, resolution)
    assert chern.GridSpec(model.manifold, (2**32, 8)).n_points == 2**35
    with pytest.raises(InvalidArgument, match="not integral"):
        chern.default_grid(model, 8.7)


INDEX_MODEL = models.Haldane(t1=1.0, t2=0.5, phi=1.5, M=0.2)


@pytest.mark.parametrize("index", [0.5, 1.5, math.nan, math.inf, "a", "1", None, [0, 0],
                                   [0, 1.9], [[0, 1]]])
def test_band_and_group_indices_are_checked_not_truncated(index):
    sphere, fourband = models.TwoLevelSphere(), models.FourBandGamma(m=1.5)
    p = np.array([1.0, 0.5])
    calls = [lambda: chern.pure_chern_fhs(INDEX_MODEL, index, chern.default_grid(INDEX_MODEL, 8)),
             lambda: geometry.wz_curvature(fourband, np.full(4, 0.3), index),
             lambda: geometry.berry_curvature(sphere, p, index)]
    for call in calls:
        with pytest.raises(InvalidArgument):
            call()


def test_integral_float_indices_are_integers():
    grid = chern.default_grid(INDEX_MODEL, 8)
    assert (chern.pure_chern_fhs(INDEX_MODEL, 1.0, grid)
            == chern.pure_chern_fhs(INDEX_MODEL, 1, grid) == -1)
    assert chern.pure_chern_fhs(INDEX_MODEL, (1, 0), grid) == 0
    sphere, p = models.TwoLevelSphere(), np.array([1.0, 0.5])
    assert np.array_equal(geometry.berry_curvature(sphere, p, 1.0).matrices,
                          geometry.berry_curvature(sphere, p, 1).matrices)
    assert np.array_equal(geometry.wz_curvature(sphere, p, (1.0,)).matrices,
                          geometry.wz_curvature(sphere, p, 1).matrices)


DIRECTION_MODELS = (INDEX_MODEL, models.TwoLevelSphere(), models.FourBandGamma(m=1.5),
                    models.CoherentOscillator(fock_dim=8))


@pytest.mark.parametrize("value", [0.5, 1.9, 8.5, math.nan, math.inf, None, "1", "8"])
def test_directions_and_fock_dims_are_checked_not_truncated(value):
    # int() used to make 0.5 direction 0 and "1" direction 1, and an
    # oscillator with fock_dim 8.5 failed only in its first thermal state.
    for model in DIRECTION_MODELS:
        p = np.full((1, model.dim), 0.3)
        with pytest.raises(InvalidArgument):
            model.gradient_batch(p, value)
        if hasattr(model, "r_gradient_batch"):
            with pytest.raises(InvalidArgument):
                model.r_gradient_batch(p, value)
    with pytest.raises(InvalidArgument):
        models.CoherentOscillator(fock_dim=value)


def test_integral_float_directions_and_fock_dims_are_integers():
    for model in DIRECTION_MODELS:
        p = np.full((1, model.dim), 0.3)
        assert np.array_equal(model.gradient_batch(p, 1.0), model.gradient_batch(p, 1))
    model = models.CoherentOscillator(fock_dim=8.0)
    assert type(model.fock_dim) is int and model == models.CoherentOscillator(fock_dim=8)
    p = np.array([0.1, 0.2])  # beta 8: the weight has decayed by half the ladder
    assert np.array_equal(models.thermal_state(model, p, 8.0).rho,
                          models.thermal_state(models.CoherentOscillator(fock_dim=8), p, 8.0).rho)


HALDANE_PARAMS = {"t1": 1.0, "t2": 0.5, "phi": 0.3, "M": 0.2}
REAL_FIELDS = [(models.TwoLevelSphere, {}, "radius"), (models.FourBandGamma, {}, "m"),
               (models.CoherentOscillator, {"fock_dim": 8}, "hbar_omega")]
REAL_FIELDS += [(models.Haldane, HALDANE_PARAMS, name) for name in HALDANE_PARAMS]


@pytest.mark.parametrize("value", ["1", None, 1j, complex(1.0), np.complex128(1.0), 10**400],
                         ids=["str", "None", "complex", "complex_real", "numpy_complex", "huge_int"])
def test_model_parameters_must_be_real_numbers(value):
    # Strings and None used to raise TypeError or fail only in hamiltonian_batch,
    # "1" for the four-band mass a numpy UFuncTypeError, a complex value a
    # wrong-shape ValueError, and 10**400 an OverflowError.
    for cls, params, name in REAL_FIELDS:
        with pytest.raises(InvalidArgument, match="is not a real number"):
            cls(**{**params, name: value})
        cls(**{**params, name: np.float64(0.7)})  # numpy reals are real numbers


def test_integral_float_resolutions_are_integers():
    model = haldane_with_mass(0.3)
    grid = chern.GridSpec(model.manifold, (8.0, 9.0))
    assert grid.resolution == (8, 9) and all(type(r) is int for r in grid.resolution)


def test_argument_errors_are_typed_value_errors():
    assert issubclass(InvalidArgument, UhlmannChernError) and issubclass(InvalidArgument, ValueError)
    model = haldane_with_mass(0.3)
    grid = chern.default_grid(model, 8)
    p = np.array([0.1, 0.2])
    calls = [
        lambda: chern.GridSpec(model.manifold, (7, 8)),
        lambda: chern.temperature_sweep(model, [], grid),
        lambda: chern.temperature_sweep(model, [0.5, 0.2], grid),
        lambda: geometry.uhlmann_curvature(model, p, 1.0).scalar(0, 1),
        lambda: geometry.uhlmann_curvature(model, p, 1.0, connection_route="other"),
    ]
    for call in calls:
        with pytest.raises(InvalidArgument):
            call()


HUGE = [("t1", 1e308), ("t1", -1e308), ("t2", 1e308), ("t2", -1e308), ("M", 1e308),
        ("M", -1e308)]


@pytest.mark.parametrize("name, value", HUGE)
def test_huge_haldane_parameters_raise_before_any_numpy_warning(name, value):
    model = models.Haldane(**{"t1": 1.0, "t2": 0.5, "phi": math.pi / 2, "M": 0.3, name: value})
    pts = chern.default_grid(model, 8).points_range(0, 64)
    calls = [model.hamiltonian_batch, lambda p: model.gradient_batch(p, 0),
             lambda p: model.gradient_batch(p, 1)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if name == "M":  # r3 = M + O(1) stays finite, and dr does not involve M
            assert all(np.isfinite(call(pts)).all() for call in calls)
        else:
            for call in calls:
                with pytest.raises(NonFiniteInput):
                    call(pts)
        with pytest.raises(NonFiniteInput):
            chern.first_thermal_uc(model, 1.0, chern.default_grid(model, 8))


@pytest.mark.parametrize("run", [{"type": "chern"},
                                 {"type": "sweep", "temperatures": [0.1, 0.5]}])
def test_cli_with_a_huge_hopping_exits_3(tmp_path, capsys, run):
    cfg = {
        "model": {"variant": "haldane",
                  "parameters": {"t1": 1e308, "t2": 0.5, "phi": math.pi / 2, "M": 0.3}},
        "grid": {"resolution": [8, 8]},
        "run": run,
    }
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(cfg))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["--config", str(path), "--out", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert "NonFiniteInput" in err and "Traceback" not in err


def run_cli_with(tmp_path, variant, parameters, run):
    cfg = {"model": {"variant": variant, "parameters": parameters},
           "grid": {"resolution": [8, 8]}, "run": run}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return cli.main(["--config", str(path), "--out", str(tmp_path / "out")])


def test_overflowing_oscillator_levels_raise_before_any_numpy_warning(tmp_path, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteInput):
            models.CoherentOscillator(fock_dim=8, hbar_omega=1e308)
        assert run_cli_with(tmp_path, "coherent_oscillator",
                            {"fock_dim": 8, "hbar_omega": 1e308}, {"type": "chern"}) == 3
    err = capsys.readouterr().err
    assert "NonFiniteInput" in err and "Traceback" not in err


@pytest.mark.parametrize("fock_dim", [8, 40])
def test_oscillator_spacing_bound_sits_where_the_matrices_overflow(fock_dim):
    largest = np.finfo(float).max / fock_dim**2
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteInput):
            models.CoherentOscillator(fock_dim=fock_dim, hbar_omega=1.001 * largest)
        # Just inside the bound, every path stays finite and quiet.
        model = models.CoherentOscillator(fock_dim=fock_dim, hbar_omega=0.999 * largest)
        grid = chern.default_grid(model, 8)
        assert np.isfinite(chern.first_thermal_uc(model, 1.0, grid).value)
        assert np.isfinite(model.gradient_batch(grid.points_range(0, 64), 1)).all()
        if fock_dim == 8:  # beta hbar_omega = 2 leaves 2.9e-4 of the weight past level 4
            with pytest.warns(TruncationWeightWarning) as caught:
                chern.temperature_sweep(model, [0.5, 1.0], grid)
            assert {w.category for w in caught} == {TruncationWeightWarning}
        else:
            chern.temperature_sweep(model, [0.5, 1.0], grid)


@pytest.mark.parametrize("radius", [math.inf, math.nan])
def test_non_finite_sphere_radius_raises_non_finite_input(tmp_path, capsys, radius):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteInput):
            models.TwoLevelSphere(radius=radius)
        assert run_cli_with(tmp_path, "two_level_sphere", {"radius": radius},
                            {"type": "sweep", "temperatures": [0.5]}) == 3
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("w", [[-1e308, -1e308, 0.0, 1e308, 1e308], [-1.0, 0.0, 0.0, 2.0]])
def test_infinite_degeneracy_threshold_groups_like_a_huge_one(w):
    w = np.array([w, [-x for x in reversed(w)]])  # and the mirrored spectrum
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        labels = linalg.cluster_labels(w, math.inf)
        assert np.array_equal(labels, linalg.cluster_labels(w, 1e300))
        assert (labels == 0).all()


def test_overflowing_level_gaps_still_split_clusters():
    w = np.array([[-1e308, -1e308, 1e308, 1e308]])  # the middle gap overflows
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.array_equal(linalg.cluster_labels(w, 1e-9), [[0, 0, 1, 1]])


# The first-order integrals build no Gibbs state, so they check the Fock tail
# themselves: once per finite beta, against criterion 9's 1e-4. On fock_dim 40
# at 16^2 the integral misses its closed form by 8.5e-4 at beta = 0.05, where
# 2.1e-2 of the weight sits past level 20, and by 3.6e-7 at beta = 0.6.
OSCILLATOR = models.CoherentOscillator(fock_dim=40)


def oscillator_closed_form(beta):
    return -(OSCILLATOR.fock_dim / (4 * math.pi)) * math.tanh(beta * OSCILLATOR.hbar_omega / 2) ** 2


def test_oscillator_integral_warns_on_a_heavy_fock_tail():
    grid = chern.default_grid(OSCILLATOR, 16)
    with pytest.warns(TruncationWeightWarning, match="has not decayed below 0.0001") as caught:
        value = chern.first_thermal_uc(OSCILLATOR, 0.05, grid).value
    assert len(caught) == 1 and "beta=0.05" in str(caught[0].message)
    assert abs(value - oscillator_closed_form(0.05)) > 1e-4  # what the warning is for


@pytest.mark.parametrize("beta", [0.6, 1.0, models.BETA_INF])
def test_oscillator_integral_is_silent_on_a_light_fock_tail(beta):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        value = chern.first_thermal_uc(OSCILLATOR, beta, chern.default_grid(OSCILLATOR, 16)).value
    if beta != models.BETA_INF:
        assert abs(value - oscillator_closed_form(beta)) < 1e-6


@pytest.mark.parametrize("workers", [1, 2])
def test_oscillator_sweep_warns_only_at_its_low_betas(workers):
    grid = chern.default_grid(OSCILLATOR, 8)
    with pytest.warns(TruncationWeightWarning) as caught:
        chern.temperature_sweep(OSCILLATOR, [1.0, 5 / 3, 5.0, 20.0], grid, workers=workers)
    messages = sorted(str(w.message) for w in caught)
    assert len(messages) == 2, messages
    assert "beta=0.05;" in messages[0] and "beta=0.2;" in messages[1]


# Each call warns from inside the package, one to three frames deep.
FOCK_8 = models.CoherentOscillator(fock_dim=8)
FOURBAND = models.FourBandGamma(1.5)
SPHERE_POINT = [1.0, 0.3]
WARNING_CALLS = {
    "first_thermal_uc": (TruncationWeightWarning, lambda: chern.first_thermal_uc(
        FOCK_8, 0.05, chern.default_grid(FOCK_8, 8))),
    "temperature_sweep": (TruncationWeightWarning, lambda: chern.temperature_sweep(
        FOCK_8, [20.0], chern.default_grid(FOCK_8, 8))),
    "thermal_state": (TruncationWeightWarning, lambda: models.thermal_state(
        FOCK_8, [0.1, 0.2], 0.05)),
    "uhlmann_connection_sqrt_fd": (VanishingDenominatorWarning, lambda: (
        geometry.uhlmann_connection_sqrt_fd(models.TwoLevelSphere(), SPHERE_POINT,
                                            models.BETA_INF))),
    "uhlmann_curvature_sqrt_fd": (VanishingDenominatorWarning, lambda: geometry.uhlmann_curvature(
        models.TwoLevelSphere(), SPHERE_POINT, models.BETA_INF, connection_route="sqrt_fd")),
    "second_chern_pure": (ResolutionTooLowWarning, lambda: chern.second_chern_pure(
        FOURBAND, chern.default_grid(FOURBAND, 8))),
}


@pytest.mark.parametrize("name", sorted(WARNING_CALLS))
def test_package_warnings_point_at_the_callers_line(name):
    category, call = WARNING_CALLS[name]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        call()
    assert [w.category for w in caught] == [category]
    assert caught[0].filename == __file__, (caught[0].filename, caught[0].lineno)
