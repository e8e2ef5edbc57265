"""Degeneracy tolerances, worker counts and CLI run keys each follow one
rule, and a value outside it raises a typed error.

linalg.cluster_labels reads every degeneracy tolerance: a real number >= 0,
+inf included, else InvalidArgument. A NaN tolerance used to group every
level into one cluster, so a first-order integral returned a silent 0, and a
negative one split degenerate levels, so a second-order integral returned a
NaN. chern._map_chunks reads every worker count by models._integer's rule:
2.0 runs as 2, while a count below 1, a string or None raises InvalidArgument
instead of running serially or failing with a TypeError. The CLI reports
every InvalidArgument as a config error (exit 2), and a run key that its
command does not read is a config error too, with no output written.
"""
import json
import math
import warnings

import numpy as np
import pytest

from uhlmann_chern import chern, cli, geometry, linalg, models
from uhlmann_chern.errors import GapClosed, InvalidArgument, ResolutionTooLowWarning

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


def test_cli_run_keys_its_command_reads_still_run(tmp_path, capsys):
    code, written = _run_cli(tmp_path, {"type": "chern", "band": 1})
    assert code == 0 and written == ["chern.json"]
    assert json.loads((tmp_path / "out" / "chern.json").read_text())["value"] == -1
