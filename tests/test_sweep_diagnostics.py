"""Temperature-sweep diagnostics from the closed-form Uhlmann curvature.

temperature_sweep builds the temperature-independent curvature frame
once, at its 12 sample points, and evaluates the closed-form curvature
F from it at each temperature. max |tr F| is the tracelessness check;
at first order, Tr(rho F) read off F is compared with the spectral
trace from the same frame. Both sides are exact formulas on the same
eigen-data, so they agree to roundoff at every mass. The
finite-difference stencil they replace disagreed by 3e-5 at M = 1.
"""
import json
import math

import numpy as np
import pytest

from uhlmann_chern import chern, cli, geometry, models

# The temperatures of the benchmark's Haldane sweep.
SWEEP_TEMPERATURES = [0.02, 0.05, 0.1, 0.2, 0.5, 1.0]
ROUNDOFF = 1e-12


def haldane_at(mass):
    return models.Haldane(t1=1.0, t2=0.5, phi=math.pi / 2, M=mass)


def assert_roundoff_diagnostics(sweep):
    for diag in sweep.diagnostics:
        assert diag["route_disagreement"] <= ROUNDOFF
        assert diag["max_trace_residual"] <= ROUNDOFF


@pytest.mark.parametrize("mass", [0.3, 1.0, 2.0])
def test_haldane_sweep_diagnostics_are_roundoff(mass):
    model = haldane_at(mass)
    sweep = chern.temperature_sweep(model, SWEEP_TEMPERATURES, chern.default_grid(model, 32))
    assert_roundoff_diagnostics(sweep)


def test_oscillator_sweep_diagnostics_are_roundoff():
    model = models.CoherentOscillator(fock_dim=40)
    sweep = chern.temperature_sweep(model, [0.2, 0.5, 1.0, 2.0], chern.default_grid(model, 16))
    assert_roundoff_diagnostics(sweep)


def test_cli_sweep_route_disagreement_is_roundoff(tmp_path):
    cfg = {
        "model": {"variant": "haldane",
                  "parameters": {"t1": 1.0, "t2": 0.5, "phi": math.pi / 2, "M": 1.0}},
        "grid": {"resolution": [400, 400]},
        "run": {"type": "sweep", "temperatures": SWEEP_TEMPERATURES},
    }
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert cli.main(["--config", str(path), "--out", str(out)]) == 0
    assert json.loads((out / "summary.json").read_text())["max_route_disagreement"] <= ROUNDOFF


@pytest.mark.parametrize("temperatures", [[0.5], SWEEP_TEMPERATURES])
def test_sweep_diagnostics_do_one_eigendecomposition(monkeypatch, temperatures):
    calls, in_chunks = [], []
    original_eigh, original_map = geometry.eigh_batch, chern._map_chunks

    def counted(ms, *args, **kwargs):
        if not in_chunks:
            calls.append(np.shape(ms))
        return original_eigh(ms, *args, **kwargs)

    def mapped(*args, **kwargs):
        in_chunks.append(True)
        try:
            return original_map(*args, **kwargs)
        finally:
            in_chunks.pop()

    for module in (geometry, chern, models):
        monkeypatch.setattr(module, "eigh_batch", counted)
    monkeypatch.setattr(chern, "_map_chunks", mapped)
    model = haldane_at(1.0)
    chern.temperature_sweep(model, temperatures, chern.default_grid(model, 16))
    assert calls == [(12, 2, 2)]
