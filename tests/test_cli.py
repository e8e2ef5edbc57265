"""End-to-end tests of the command line front end.

Every test drives cli.main with a JSON config written to tmp_path and
asserts on exit codes, emitted files, and stderr wording. File-format
assertions (headers, 17-digit floats, byte-identical reruns) pin the
output contract, not just the numbers.
"""
import json
import math
import subprocess
from pathlib import Path

import numpy as np
import pytest

import uhlmann_chern
from uhlmann_chern import chern, cli, models


def write_config(path: Path, *, variant="haldane", parameters=None,
                 resolution=(32, 32), run=None, **top) -> Path:
    if parameters is None:
        parameters = {"t1": 1.0, "t2": 0.5, "phi": math.pi / 2, "M": 0.0}
    cfg = {
        "model": {"variant": variant, "parameters": parameters},
        "grid": {"resolution": list(resolution)},
        "run": run or {"type": "sweep", "temperatures": [0.2, 1.0]},
    }
    cfg.update(top)
    path.write_text(json.dumps(cfg))
    return path


def read_csv(path: Path):
    lines = path.read_text().split("\n")
    header = lines[0]
    rows = [line.split(",") for line in lines[1:] if line]
    return header, rows


# -- config validation ---------------------------------------------------------


def test_missing_config_file(tmp_path, capsys):
    assert cli.main(["--config", str(tmp_path / "nope.json")]) == 2
    assert "config error" in capsys.readouterr().err


def test_invalid_json(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert cli.main(["--config", str(path)]) == 2
    assert "invalid JSON" in capsys.readouterr().err


def test_a_config_that_is_not_utf8_is_a_config_error(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_bytes(b"\xff\xfe{")
    assert cli.main(["--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: cannot read {path}: ") and "Traceback" not in err


def test_unknown_top_level_key(tmp_path, capsys):
    path = write_config(tmp_path / "c.json", junk=1)
    assert cli.main(["--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "junk" in err


def test_each_schema_error_prints_its_own_config_error_line(tmp_path, capsys):
    path = write_config(tmp_path / "c.json", junk=1, workers=0)
    assert cli.main(["--config", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("config error: <root>: Additional properties are not allowed "
                   "('junk' was unexpected)\n"
                   "config error: workers: 0 is less than the minimum of 1\n")


def test_unknown_model_parameter(tmp_path, capsys):
    path = write_config(
        tmp_path / "c.json",
        parameters={"t1": 1.0, "t2": 0.5, "phi": 1.0, "M": 0.0, "bogus": 2.0},
    )
    assert cli.main(["--config", str(path)]) == 2
    assert "bogus" in capsys.readouterr().err


def test_wrong_resolution_length(tmp_path, capsys):
    path = write_config(tmp_path / "c.json", resolution=(8, 8, 8))
    assert cli.main(["--config", str(path)]) == 2
    assert "grid.resolution" in capsys.readouterr().err


def test_empty_temperatures(tmp_path, capsys):
    path = write_config(tmp_path / "c.json", run={"type": "sweep", "temperatures": []})
    assert cli.main(["--config", str(path)]) == 2
    assert "temperatures: empty" in capsys.readouterr().err


def test_order_model_mismatch(tmp_path, capsys):
    path = write_config(
        tmp_path / "c.json",
        variant="four_band_gamma",
        parameters={"m": 1.5},
        resolution=(8, 8, 8, 8),
        run={"type": "sweep", "temperatures": [1.0], "order": 1},
    )
    assert cli.main(["--config", str(path)]) == 2
    assert "run.order" in capsys.readouterr().err


def test_map_needs_2d(tmp_path, capsys):
    path = write_config(
        tmp_path / "c.json",
        variant="four_band_gamma",
        parameters={"m": 1.5},
        resolution=(8, 8, 8, 8),
        run={"type": "map", "temperatures": [1.0]},
    )
    assert cli.main(["--config", str(path)]) == 2
    assert "map" in capsys.readouterr().err


def test_bad_workers(tmp_path, capsys):
    path = write_config(tmp_path / "c.json", workers=0)
    # 0 fails schema validation before command dispatch
    assert cli.main(["--config", str(path)]) == 2


def test_workers_flag_below_one(tmp_path, capsys):
    path = write_config(tmp_path / "c.json", resolution=(8, 8))
    assert cli.main(["--config", str(path), "--out", str(tmp_path / "out"), "--workers", "0"]) == 2
    err = capsys.readouterr().err
    assert "config error: workers: 0 is less than the minimum of 1" in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("workers", ["0", "65"])
def test_workers_flag_obeys_the_schema(tmp_path, capsys, monkeypatch, workers):
    def no_pool(*args, **kwargs):
        raise AssertionError("a process pool was started")

    monkeypatch.setattr(chern, "ProcessPoolExecutor", no_pool)
    path = write_config(tmp_path / "c.json", resolution=(8, 8))
    out = tmp_path / "out"
    assert cli.main(["--config", str(path), "--out", str(out), "--workers", workers]) == 2
    err = capsys.readouterr().err
    assert "config error: workers:" in err and "Traceback" not in err
    assert not out.exists()


def test_map_rejects_negative_temperature(tmp_path, capsys):
    path = write_config(tmp_path / "c.json", resolution=(8, 8),
                        run={"type": "map", "temperatures": [-0.5]})
    assert cli.main(["--config", str(path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "config error: run.temperatures: must be nonnegative" in err and "Traceback" not in err


def _sweep_bytes(out: Path):
    summary = (out / "summary.json").read_text().splitlines()
    return (out / "sweep.csv").read_bytes(), [s for s in summary if "wall_time_s" not in s]


SWEEP = {"type": "sweep", "temperatures": [0.5]}


# JSON Schema counts 8.0 as an integer, so the schema accepts each of these.
@pytest.mark.parametrize("as_float, as_int", [
    ({"variant": "coherent_oscillator", "parameters": {"fock_dim": 8.0}},
     {"variant": "coherent_oscillator", "parameters": {"fock_dim": 8}}),
    ({"workers": 2.0}, {"workers": 2}),
    ({"run": {**SWEEP, "order": 1.0}}, {"run": {**SWEEP, "order": 1}}),
], ids=["fock_dim", "workers", "order"])
def test_integral_floats_run_as_integers(tmp_path, capsys, as_float, as_int):
    outputs = []
    for name, cfg in (("float", as_float), ("int", as_int)):
        path = write_config(tmp_path / f"{name}.json", resolution=(8, 8), **{"run": SWEEP, **cfg})
        assert cli.main(["--config", str(path), "--out", str(tmp_path / name)]) == 0
        outputs.append(_sweep_bytes(tmp_path / name))
    assert outputs[0] == outputs[1]
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("via_flag", [False, True], ids=["output_dir", "--out"])
def test_output_dir_that_cannot_be_created(tmp_path, capsys, via_flag):
    blocker = tmp_path / "file"
    blocker.write_text("")
    target = str(blocker / "out")  # under a regular file
    if via_flag:
        path = write_config(tmp_path / "c.json", resolution=(8, 8))
        argv = ["--config", str(path), "--out", target]
    else:
        argv = ["--config", str(write_config(tmp_path / "c.json", resolution=(8, 8),
                                             output_dir=target))]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: cannot write {target}") and "Traceback" not in err


def test_output_file_that_cannot_be_written(tmp_path, capsys):
    (tmp_path / "out" / "sweep.csv").mkdir(parents=True)
    path = write_config(tmp_path / "c.json", resolution=(8, 8))
    assert cli.main(["--config", str(path), "--out", str(tmp_path / "out")]) == 2
    assert "config error: cannot write" in capsys.readouterr().err


# -- sweep ----------------------------------------------------------------------


def test_sweep_outputs(tmp_path):
    out = tmp_path / "out"
    path = write_config(tmp_path / "c.json", output_dir=str(out))
    assert cli.main(["--config", str(path)]) == 0

    header, rows = read_csv(out / "sweep.csv")
    assert header == "T_over_R0,n_U,imag_residual,route_disagreement"
    assert len(rows) == 2
    assert rows[0][0] == "0.20000000000000001"  # 17 significant digits
    assert float(rows[0][1]) > float(rows[1][1])

    summary = json.loads((out / "summary.json").read_text())
    assert summary["command"] == "sweep"
    assert summary["model_variant"] == "haldane"
    assert summary["grid_resolution"] == [32, 32]
    assert summary["order"] == 1
    assert summary["temperatures"] == [0.2, 1.0]
    assert summary["max_imag_residual"] <= 1e-10
    assert summary["max_route_disagreement"] <= 1e-5
    assert "version" in summary and "wall_time_s" in summary


def test_sweep_reruns_byte_identical(tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    out_c = tmp_path / "c"
    path = write_config(tmp_path / "c.json", resolution=(16, 16))
    assert cli.main(["--config", str(path), "--out", str(out_a)]) == 0
    assert cli.main(["--config", str(path), "--out", str(out_b)]) == 0
    assert cli.main(["--config", str(path), "--out", str(out_c), "--workers", "2"]) == 0
    data = (out_a / "sweep.csv").read_bytes()
    assert data == (out_b / "sweep.csv").read_bytes()
    assert data == (out_c / "sweep.csv").read_bytes()
    assert b"\r" not in data


def test_csv_values_take_seventeen_significant_digits(tmp_path):
    rows = [(0.1, -0.0, 0.0), (math.inf, -math.inf, math.nan), (1e-300, -1.5e308, 2.0 / 3.0),
            (np.float64(1) / 3, 5e-324, 123456789.0)]
    cli._write_csv(tmp_path / "t.csv", "a,b,c", iter(rows))
    expected = "a,b,c\n" + "".join(",".join(f"{v:.17g}" for v in row) + "\n" for row in rows)
    assert (tmp_path / "t.csv").read_bytes() == expected.encode("ascii")
    assert expected.splitlines()[1:3] == ["0.10000000000000001,-0,0", "inf,-inf,nan"]
    cli._write_csv(tmp_path / "empty.csv", "a,b", [])
    assert (tmp_path / "empty.csv").read_bytes() == b"a,b\n"


def test_out_flag_overrides_config(tmp_path):
    configured = tmp_path / "configured"
    actual = tmp_path / "actual"
    path = write_config(tmp_path / "c.json", resolution=(16, 16), output_dir=str(configured))
    assert cli.main(["--config", str(path), "--out", str(actual)]) == 0
    assert (actual / "sweep.csv").exists()
    assert not configured.exists()


# -- map --------------------------------------------------------------------------


def _run_map(tmp_path, name, temperature):
    out = tmp_path / name
    path = write_config(
        tmp_path / f"{name}.json",
        resolution=(24, 24),
        run={"type": "map", "temperatures": [temperature]},
        output_dir=str(out),
    )
    assert cli.main(["--config", str(path)]) == 0
    return out


def test_map_zero_temperature_matches_pure(tmp_path):
    out = _run_map(tmp_path, "cold", 0)
    header_t, trace_rows = read_csv(out / "curvature.csv")
    header_b, berry_rows = read_csv(out / "berry.csv")
    assert header_t == "kx,ky,Im_Tr_rhoFU"
    assert header_b == "kx,ky,Im_F_B"
    assert len(trace_rows) == len(berry_rows) == 24 * 24
    trace = np.array([float(r[2]) for r in trace_rows])
    berry = np.array([float(r[2]) for r in berry_rows])
    assert np.abs(trace - berry).max() <= 1e-6
    # coordinates agree row by row
    assert trace_rows[5][0] == berry_rows[5][0]
    assert trace_rows[5][1] == berry_rows[5][1]


def test_map_thermal_suppression(tmp_path):
    cold = _run_map(tmp_path, "cold", 0)
    warm = _run_map(tmp_path, "warm", 1.2)
    hot = _run_map(tmp_path, "hot", 1e8)
    amp = {}
    for name, out in (("cold", cold), ("warm", warm), ("hot", hot)):
        _, rows = read_csv(out / "curvature.csv")
        amp[name] = max(abs(float(r[2])) for r in rows)
    assert amp["warm"] < amp["cold"]
    assert amp["hot"] <= 1e-12


# -- chern ------------------------------------------------------------------------


def test_chern_first_order(tmp_path):
    out = tmp_path / "out"
    path = write_config(
        tmp_path / "c.json",
        resolution=(48, 48),
        run={"type": "chern"},
        output_dir=str(out),
    )
    assert cli.main(["--config", str(path)]) == 0
    payload = json.loads((out / "chern.json").read_text())
    assert payload["kind"] == "first"
    assert payload["value"] == 1


@pytest.mark.filterwarnings("ignore::uhlmann_chern.errors.ResolutionTooLowWarning")
def test_chern_second_order(tmp_path):
    out = tmp_path / "out"
    path = write_config(
        tmp_path / "c.json",
        variant="four_band_gamma",
        parameters={"m": 3.5},
        resolution=(12, 12, 12, 12),
        run={"type": "chern"},
        output_dir=str(out),
    )
    assert cli.main(["--config", str(path)]) == 0
    payload = json.loads((out / "chern.json").read_text())
    assert payload["kind"] == "second"
    assert payload["value"] == pytest.approx(-1.0, abs=0.3)


# -- verify -----------------------------------------------------------------------


def _verify_config(tmp_path, **top):
    return write_config(
        tmp_path / "v.json",
        resolution=(16, 16),
        run={"type": "verify"},
        **top,
    )


def test_verify_passes(tmp_path, capsys):
    path = _verify_config(tmp_path)
    assert cli.main(["--config", str(path)]) == 0
    out = capsys.readouterr().out
    assert "PASS  models.gamma anticommutation" in out
    assert "PASS  chern.quantization at zero temperature" in out
    assert "FAIL" not in out


def test_verify_accepts_tolerance_overrides(tmp_path):
    path = _verify_config(tmp_path, tolerances={"degeneracy": 1e-12})
    assert cli.main(["--config", str(path)]) == 0


def test_verify_catches_corrupted_table(tmp_path, capsys, monkeypatch):
    bad = models.GAMMA.copy()
    bad[3] = bad[2]
    bad.setflags(write=False)
    monkeypatch.setattr(models, "GAMMA", bad)
    path = _verify_config(tmp_path)
    assert cli.main(["--config", str(path)]) == 1
    captured = capsys.readouterr()
    assert "FAIL  models.gamma anticommutation" in captured.out
    assert "verify failure: models.gamma anticommutation" in captured.err


def test_verify_counts_warnings_per_check(tmp_path, capsys, monkeypatch):
    import warnings

    def noisy(cfg, rng, tol):
        warnings.warn("first", UserWarning)
        warnings.warn("second", UserWarning)
        warnings.warn("third", RuntimeWarning)
        return True, "ok"

    def quiet(cfg, rng, tol):
        return True, "ok"

    monkeypatch.setattr(cli, "_VERIFY_CHECKS", [("demo", "noisy", noisy), ("demo", "quiet", quiet)])
    path = _verify_config(tmp_path)
    assert cli.main(["--config", str(path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines == [
        "PASS  demo.noisy  (ok; 3 warnings (RuntimeWarning x1, UserWarning x2))",
        "PASS  demo.quiet  (ok; 0 warnings)",
        "verify: 2 checks passed, 3 warnings (RuntimeWarning x1, UserWarning x2)",
    ]


def test_verify_reports_warning_counts_on_every_row(tmp_path, capsys):
    path = _verify_config(tmp_path)
    assert cli.main(["--config", str(path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 13
    assert all("warning" in line for line in lines)
    assert lines[-1].startswith("verify: 12 checks passed, ")


# -- grid layout and version -----------------------------------------------------


@pytest.mark.parametrize("offset", [True, False])
def test_grid_offset_is_a_config_error(tmp_path, capsys, offset):
    out = tmp_path / "out"
    path = write_config(tmp_path / "c.json", output_dir=str(out))
    cfg = json.loads(path.read_text())
    cfg["grid"]["offset"] = offset
    path.write_text(json.dumps(cfg))
    assert cli.main(["--config", str(path)]) == 2
    assert "offset" in capsys.readouterr().err
    assert not out.exists()


def test_outputs_carry_the_package_version_without_a_child_process(tmp_path, monkeypatch):
    def no_child(*args, **kwargs):
        raise AssertionError("the CLI started a child process")

    monkeypatch.setattr(subprocess, "run", no_child)
    monkeypatch.setattr(subprocess, "Popen", no_child)
    sweep = write_config(tmp_path / "s.json", resolution=(16, 16))
    chern = write_config(tmp_path / "c.json", resolution=(16, 16), run={"type": "chern"})
    for config, out in ((sweep, "s"), (chern, "c")):
        assert cli.main(["--config", str(config), "--out", str(tmp_path / out)]) == 0
    for path in (tmp_path / "s" / "summary.json", tmp_path / "c" / "chern.json"):
        assert json.loads(path.read_text())["version"] == uhlmann_chern.__version__
    assert "grid_offset" not in json.loads((tmp_path / "s" / "summary.json").read_text())
