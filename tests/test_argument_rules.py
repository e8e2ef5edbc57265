"""Degeneracy tolerances, worker counts and CLI run keys each follow one
rule, and a value outside it raises a typed error.

linalg.cluster_labels reads every degeneracy tolerance: a real number >= 0
that a float holds, +inf included, else InvalidArgument. A NaN tolerance
used to group every level into one cluster, so a first-order integral
returned a silent 0, a negative one split degenerate levels, so a
second-order integral returned a NaN, and 10**400 raised an OverflowError.
chern._map_chunks reads every worker count by models._integer's rule: 2.0
runs as 2, while a count below 1, a string or None raises InvalidArgument
instead of running serially or failing with a TypeError. The CLI reports
every InvalidArgument as a config error (exit 2), and a run key that its
command does not read is a config error too, with no output written.
Every beta and temperature is a real number by models._real's rule, else
InvalidArgument: a complex beta once returned a silent near-zero integral.
A sequence is not one real number: first_thermal_uc rejects it before any
chunk job, and so do the single-beta kernels (thermal_trace_spectral and the
connection and curvature kernels). Only spectral_data_grid and
thermal_trace_grid take a sequence of betas, and it must be flat and
non-empty.
The CLI reads its map temperature and verify's fd_step by that rule too, so
an integer too large for a float is a config error, not an OverflowError.
"""
import json
import math
import warnings

import numpy as np
import pytest

from uhlmann_chern import chern, cli, geometry, linalg, models
from uhlmann_chern.errors import GapClosed, InvalidArgument, ResolutionTooLowWarning

from test_ground_size import LiftedLevels

BAD_TOLERANCES = [math.nan, -1e-9, -math.inf, None, "1e-9", 1j]
BAD_WORKERS = [0, -3, 1.5, math.nan, math.inf, None, "2"]
HALDANE = models.Haldane(t1=1.0, t2=0.5, phi=math.pi / 2, M=0.3)
FOURBAND = models.FourBandGamma(1.5)


@pytest.fixture(autouse=True)
def _quiet_low_resolution():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ResolutionTooLowWarning)
        yield


# -- degeneracy tolerance ----------------------------------------------------------


@pytest.mark.parametrize("tol", BAD_TOLERANCES)
def test_the_cluster_rule_rejects_a_bad_tolerance(tol):
    w = np.array([[-1.0, -1.0, 1.0, 1.0]])
    with pytest.raises(InvalidArgument, match="degeneracy tolerance"):
        linalg.cluster_labels(w, tol)
    with pytest.raises(InvalidArgument, match="degeneracy tolerance"):
        linalg.hermitian_eig(np.diag([-1.0, 1.0]), degeneracy_tol=tol)


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("tol", [math.nan, -1e-9])
def test_integrals_reject_a_bad_tolerance_at_any_worker_count(tol, workers):
    # At workers 2 the error is raised in a pool worker and keeps its type.
    grid2, grid4 = chern.default_grid(HALDANE, 16), chern.default_grid(FOURBAND, 8)
    with pytest.raises(InvalidArgument, match="degeneracy tolerance"):
        chern.first_thermal_uc(HALDANE, 1.0, grid2, workers=workers, degeneracy_tol=tol)
    with pytest.raises(InvalidArgument, match="degeneracy tolerance"):
        chern.second_thermal_uc(FOURBAND, 1.0, grid4, workers=workers, degeneracy_tol=tol)
    with pytest.raises(InvalidArgument, match="degeneracy tolerance"):
        chern.pure_chern_fhs(HALDANE, 0, grid2, workers=workers, degeneracy_tol=tol)


@pytest.mark.parametrize("tol", BAD_TOLERANCES)
def test_per_point_views_reject_a_bad_tolerance(tol):
    p = np.array([0.3, 0.7])
    for call in (lambda: geometry.berry_curvature(HALDANE, p, 0, degeneracy_tol=tol),
                 lambda: geometry.thermal_trace_spectral(HALDANE, p, 1.0, degeneracy_tol=tol),
                 lambda: models.thermal_state(HALDANE, p, 1.0, degeneracy_tol=tol)):
        with pytest.raises(InvalidArgument, match="degeneracy tolerance"):
            call()


def test_zero_and_infinite_tolerances_stay_legal():
    grid = chern.default_grid(HALDANE, 16)
    default = chern.first_thermal_uc(HALDANE, 1.0, grid).value
    for tol in (0.0, np.float64(linalg.DEGENERACY_TOL)):  # nondegenerate: the same sum
        assert chern.first_thermal_uc(HALDANE, 1.0, grid, degeneracy_tol=tol).value == default
    # +inf makes each spectrum one cluster: no tangents at finite beta, no
    # excited level at zero temperature.
    assert chern.first_thermal_uc(HALDANE, 1.0, grid, degeneracy_tol=math.inf).value == 0.0
    with pytest.raises(GapClosed, match="whole space"):
        chern.first_thermal_uc(HALDANE, models.BETA_INF, grid, degeneracy_tol=math.inf)


@pytest.mark.parametrize("tol", [10**400, -10**400], ids=["huge", "huge_negative"])
def test_a_tolerance_too_large_for_a_float_raises(tol):
    # 10**400 passed the Real and >= 0 test, then overflowed in the threshold
    # with an untyped OverflowError.
    w = np.array([[-1.0, -1.0, 1.0, 1.0]])
    grid = chern.default_grid(HALDANE, 72)
    for call in (lambda: linalg.cluster_labels(w, tol),
                 lambda: linalg.hermitian_eig(np.diag([-1.0, 1.0]), degeneracy_tol=tol),
                 lambda: chern.first_thermal_uc(HALDANE, 1.0, grid, degeneracy_tol=tol),
                 lambda: chern.first_thermal_uc(HALDANE, 1.0, grid, workers=2, degeneracy_tol=tol)):
        with pytest.raises(InvalidArgument, match="degeneracy tolerance"):
            call()


# -- worker count ------------------------------------------------------------------


def test_an_integral_float_worker_count_runs_as_an_int():
    grid = chern.default_grid(HALDANE, 16)
    serial = chern.first_thermal_uc(HALDANE, 1.0, grid)
    assert chern.first_thermal_uc(HALDANE, 1.0, grid, workers=2.0) == serial
    assert chern.pure_chern_fhs(HALDANE, 0, grid, workers=2.0, detail=True) == \
        chern.pure_chern_fhs(HALDANE, 0, grid, detail=True)


@pytest.mark.parametrize("workers", BAD_WORKERS)
def test_a_bad_worker_count_raises_before_any_work(workers, monkeypatch):
    monkeypatch.setattr(chern, "ProcessPoolExecutor", lambda **_: pytest.fail("pool started"))
    monkeypatch.setattr(chern, "_chunk_job", lambda args: pytest.fail("chunk job ran"))
    grid = chern.default_grid(HALDANE, 16)
    for call in (lambda: chern.first_thermal_uc(HALDANE, 1.0, grid, workers=workers),
                 lambda: chern.pure_chern_fhs(HALDANE, 0, grid, workers=workers),
                 lambda: chern.second_chern_pure(FOURBAND, chern.default_grid(FOURBAND, 8),
                                                 workers=workers)):
        with pytest.raises(InvalidArgument, match="workers"):
            call()


# -- inverse temperature and temperatures -------------------------------------------

BAD_BETAS = [None, "1.0", 1j, np.complex128(0.5)]


@pytest.mark.parametrize("beta", BAD_BETAS, ids=["None", "str", "complex", "numpy_complex"])
def test_a_beta_that_is_not_a_real_number_raises(beta):
    # 1j used to return a silent near-zero integral with a ComplexWarning, and
    # None or "1.0" raised an untyped TypeError.
    p = np.array([0.3, 0.7])
    for call in (lambda: chern.first_thermal_uc(HALDANE, beta, chern.default_grid(HALDANE, 16)),
                 lambda: chern.first_thermal_uc(HALDANE, beta, chern.default_grid(HALDANE, 72),
                                                workers=2),
                 lambda: chern.second_thermal_uc(FOURBAND, beta, chern.default_grid(FOURBAND, 8)),
                 lambda: geometry.thermal_trace_spectral(HALDANE, p, beta),
                 lambda: geometry.uhlmann_connection_spectral(HALDANE, p, beta),
                 lambda: models.thermal_state(HALDANE, p, beta)):
        with pytest.raises(InvalidArgument, match="beta .* is not a real number"):
            call()


BETA_SEQUENCES = [[0.5, 1.0], (models.BETA_INF,), []]
SEQUENCE_IDS = ["two", "inf_in_a_tuple", "empty"]


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("beta", BETA_SEQUENCES, ids=SEQUENCE_IDS)
def test_first_thermal_uc_rejects_a_beta_sequence_before_any_chunk_job(monkeypatch, beta,
                                                                         workers):
    # [0.5, 1.0] once returned the beta = 0.5 value, (inf,) skipped the
    # zero-temperature ground rule (0.0 on LiftedLevels, where inf raises
    # GapClosed), and [] raised numpy's untyped error.
    model = LiftedLevels()
    with pytest.raises(GapClosed):
        chern.first_thermal_uc(model, models.BETA_INF, chern.default_grid(model, 8), workers=workers)

    def no_chunk_job(*args):
        raise AssertionError("a chunk job ran")

    monkeypatch.setattr(chern, "_chunk_job", no_chunk_job)
    for model in (LiftedLevels(), HALDANE):
        with pytest.raises(InvalidArgument, match="beta .* is not a real number"):
            chern.first_thermal_uc(model, beta, chern.default_grid(model, 8), workers=workers)


@pytest.mark.parametrize("beta", BETA_SEQUENCES, ids=SEQUENCE_IDS)
def test_the_single_beta_kernels_reject_a_beta_sequence(beta):
    # thermal_trace_spectral once returned pair (0, 1) per beta, 1 of 6 pairs
    # on the four-band model; the connection kernels raised a TypeError.
    p = np.array([0.3, 0.7, -0.4, 1.1])
    for call in (lambda: geometry.thermal_trace_spectral(FOURBAND, p, beta),
                 lambda: geometry.connection_grid(FOURBAND, p[None], beta),
                 lambda: geometry.uhlmann_connection_spectral(FOURBAND, p, beta),
                 lambda: geometry.uhlmann_curvature_grid(FOURBAND, p[None], beta),
                 lambda: geometry.uhlmann_curvature(FOURBAND, p, beta),
                 lambda: geometry.uhlmann_curvature(FOURBAND, p, beta, connection_route="sqrt_fd")):
        with pytest.raises(InvalidArgument, match="beta .* is not a real number"):
            call()


@pytest.mark.parametrize("n_points", [3, 0])
@pytest.mark.parametrize("beta", [[], [[0.5, 1.0]], np.empty(0), np.ones((1, 2))],
                         ids=["empty", "nested", "empty_array", "2d_array"])
def test_the_multi_beta_kernels_reject_an_empty_or_nested_sequence(beta, n_points):
    # [] raised numpy's "need at least one array to stack"; [[0.5, 1.0]] was
    # silently flattened.
    pts = np.full((n_points, 2), 0.4)
    for call in (lambda: geometry.spectral_data_grid(HALDANE, pts, beta),
                 lambda: geometry.thermal_trace_grid(HALDANE, pts, beta)):
        with pytest.raises(InvalidArgument, match="flat, non-empty sequence"):
            call()


@pytest.mark.parametrize("temperatures", [["a"], [None], [1j], 3],
                         ids=["str", "None", "complex", "not_a_sequence"])
def test_temperatures_that_are_not_real_numbers_raise(temperatures):
    with pytest.raises(InvalidArgument, match="temperature"):
        chern.temperature_sweep(HALDANE, temperatures, chern.default_grid(HALDANE, 16))
    if temperatures != 3:
        with pytest.raises(InvalidArgument, match="temperature .* is not a real number"):
            chern.beta_from_temperature(temperatures[0], 1.0)


# -- CLI -----------------------------------------------------------------------------


def _run_cli(tmp_path, run, variant="haldane", tolerances=None):
    params = {"haldane": {"t1": 1.0, "t2": 0.5, "phi": math.pi / 2, "M": 0.3},
              "four_band_gamma": {"m": 1.5}}[variant]
    cfg = {"model": {"variant": variant, "parameters": params},
           "grid": {"resolution": [8] * (4 if variant == "four_band_gamma" else 2)},
           "run": run}
    if tolerances is not None:
        cfg["tolerances"] = tolerances
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    code = cli.main(["--config", str(path), "--out", str(out)])
    return code, sorted(p.name for p in out.iterdir()) if out.exists() else []


@pytest.mark.parametrize("variant", ["haldane", "four_band_gamma"])
@pytest.mark.parametrize("run", [{"type": "sweep", "temperatures": [0.5, 1.0]},
                                 {"type": "chern"}, {"type": "verify"}])
def test_cli_nan_degeneracy_tolerance_is_a_config_error(tmp_path, capsys, variant, run):
    code, written = _run_cli(tmp_path, run, variant, {"degeneracy": math.nan})
    err = capsys.readouterr().err
    assert code == 2 and "config error: degeneracy tolerance nan" in err, err
    assert "Traceback" not in err
    assert written == []


@pytest.mark.parametrize("run", [{"type": "sweep", "temperatures": [0.5, 1.0]},
                                 {"type": "map", "temperatures": [0.5]},
                                 {"type": "chern"}, {"type": "verify"}],
                         ids=["sweep", "map", "chern", "verify"])
def test_cli_degeneracy_tolerance_too_large_for_a_float_is_a_config_error(tmp_path, capsys,
                                                                        run):
    code, written = _run_cli(tmp_path, run, tolerances={"degeneracy": 10**400})
    err = capsys.readouterr().err
    assert code == 2 and "config error: degeneracy tolerance 1000" in err, err
    assert "Traceback" not in err
    assert written == []


@pytest.mark.parametrize("run, tolerances, what", [
    ({"type": "map", "temperatures": [10**400]}, None, "temperature"),
    ({"type": "verify"}, {"fd_step": 10**400}, "tolerances.fd_step"),
], ids=["map_temperature", "verify_fd_step"])
def test_cli_value_too_large_for_a_float_is_a_config_error(tmp_path, capsys, run, tolerances,
                                                           what):
    # Each printed an OverflowError traceback and exited 1; sweep already exited 2.
    code, written = _run_cli(tmp_path, run, tolerances=tolerances)
    err = capsys.readouterr().err
    assert code == 2 and f"config error: {what} 1000" in err, err
    assert "Traceback" not in err
    assert written == []


@pytest.mark.parametrize("variant, run, key", [
    ("four_band_gamma", {"type": "chern", "band": 1}, "band"),
    ("haldane", {"type": "map", "temperatures": [0.5], "band": 0}, "band"),
    ("haldane", {"type": "map", "temperatures": [0.5], "order": 1}, "order"),
    ("haldane", {"type": "sweep", "temperatures": [0.5], "band": 1}, "band"),
    ("haldane", {"type": "chern", "temperatures": [0.5]}, "temperatures"),
    ("haldane", {"type": "chern", "order": 1}, "order"),
    ("haldane", {"type": "verify", "temperatures": [0.5]}, "temperatures"),
])
def test_cli_run_key_its_command_does_not_read_is_a_config_error(tmp_path, capsys, variant,
                                                                 run, key):
    code, written = _run_cli(tmp_path, run, variant)
    err = capsys.readouterr().err
    assert code == 2 and f"config error: run.{key}:" in err, err
    assert written == []


@pytest.mark.parametrize("step", [math.nan, 0.2])
def test_cli_bad_fd_step_is_a_config_error(tmp_path, capsys, step):
    """A NaN step, or one above a tenth of the cell, is an argument error
    (StepTooLarge is an InvalidArgument), not a failed verify check."""
    code, written = _run_cli(tmp_path, {"type": "verify"}, tolerances={"fd_step": step})
    err = capsys.readouterr().err
    assert code == 2 and "config error: step" in err, err
    assert "Traceback" not in err and written == []


@pytest.mark.parametrize("h", [math.nan, -1e-3, 0.0, 1.0])
def test_a_bad_fd_step_is_an_invalid_argument(h):
    with pytest.raises(InvalidArgument, match="step"):
        geometry.uhlmann_curvature(HALDANE, np.array([0.3, 0.4]), 1.0, h=h)


def test_cli_run_keys_its_command_reads_still_run(tmp_path, capsys):
    code, written = _run_cli(tmp_path, {"type": "chern", "band": 1})
    assert code == 0 and written == ["chern.json"]
    assert json.loads((tmp_path / "out" / "chern.json").read_text())["value"] == -1
