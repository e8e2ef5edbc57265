"""Self-tests of the benchmark: self-time arithmetic, instrumentation,
seeded parameters, and that every gate trips on a perturbed value.

    PYTHONPATH=src python -m pytest -q perfbench
"""
import math
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import calibration  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from spans import Span  # noqa: E402


# ---------------------------------------------------------------------------
# Self time


def test_self_time_subtracts_nested_children():
    tree = [
        Span("cli.main", 0.0, 10.0, -1),
        Span("chern.engine", 1.0, 4.0, 0),
        Span("linalg.eigh", 2.0, 3.0, 1),
        Span("chern.fhs", 5.0, 9.0, 0),
    ]
    assert spans.self_times(tree) == pytest.approx([3.0, 2.0, 1.0, 4.0])


def test_self_time_counts_overlapping_children_once():
    tree = [Span("a", 0.0, 10.0, -1), Span("b", 1.0, 4.0, 0), Span("c", 3.0, 6.0, 0),
            Span("d", 9.0, 12.0, 0)]
    # Children cover [1, 6] and [9, 10] of the parent's interval.
    assert spans.self_times(tree)[0] == pytest.approx(4.0)


def test_self_times_partition_the_top_level_wall():
    tree = [
        Span("x", 0.0, 8.0, -1),
        Span("y", 0.5, 6.0, 0),
        Span("z", 1.0, 2.0, 1),
        Span("z", 2.5, 5.0, 1),
        Span("x", 8.0, 9.5, -1),
    ]
    assert sum(spans.self_times(tree)) == pytest.approx(9.5)


def test_layer_totals_skip_nested_work_of_the_same_layer():
    tree = [
        Span("models.h", 0.0, 2.0, -1, count=64),   # hamiltonian_batch
        Span("models.h", 0.5, 1.0, 0, count=64),    # its r_vector_batch
        Span("chern.engine", 2.0, 9.0, -1),         # sweep, no points of its own
        Span("chern.engine", 2.0, 5.0, 2, count=100),
        Span("chern.engine", 5.0, 9.0, 2, count=100),
    ]
    rows = spans.layer_totals(tree)
    assert rows["models.h"]["count"] == 64
    assert rows["models.h"]["calls"] == 2
    assert rows["models.h"]["self_s"] == pytest.approx(2.0)
    assert rows["chern.engine"]["count"] == 200
    assert rows["chern.engine"]["self_s"] == pytest.approx(7.0)
    assert rows["chern.engine"]["total_s"] == pytest.approx(14.0)


def test_recorder_nests_and_closes_on_error():
    rec = spans.Recorder()
    inner = rec.wrap("inner", lambda n: np.zeros(n), count=lambda a, k, r: r.size)

    def boom():
        inner(2)
        raise RuntimeError

    outer = rec.wrap("outer", lambda: inner(3))
    failing = rec.wrap("failing", boom)
    outer()
    with pytest.raises(RuntimeError):
        failing()
    outer()
    names = [(s.name, s.parent, s.count) for s in rec.spans]
    assert names == [("outer", -1, 0), ("inner", 0, 3), ("failing", -1, 0),
                     ("inner", 2, 2), ("outer", -1, 0), ("inner", 4, 3)]
    assert all(s.end >= s.start for s in rec.spans)


# ---------------------------------------------------------------------------
# Instrumenting the package


def test_instrument_rebinds_every_import_and_restores():
    from uhlmann_chern import chern, cli, geometry, linalg, models  # noqa: F401

    originals = (geometry.eigh_batch, chern.thermal_trace_grid, models.Haldane.hamiltonian_batch)
    model = models.Haldane(t1=1.0, t2=0.5, phi=math.pi / 2, M=0.2)
    grid = chern.default_grid(model, 8)
    rec = spans.Recorder()
    restore = spans.instrument(rec)
    try:
        assert geometry.eigh_batch is linalg.eigh_batch is models.eigh_batch is chern.eigh_batch
        assert geometry.eigh_batch is not originals[0]
        chern.first_thermal_uc(model, 2.0, grid)
    finally:
        restore()
    assert (geometry.eigh_batch, chern.thermal_trace_grid,
            models.Haldane.hamiltonian_batch) == originals
    rows = spans.layer_totals(rec.spans)
    assert rows["chern.engine"]["count"] == 64
    assert rows["linalg.eigh"]["count"] == 64
    assert rows["models.h"]["count"] == 64
    assert rows["models.dh"]["count"] == 128
    assert {"geometry.trace", "geometry.tangent", "linalg.hermcheck"} <= rows.keys()


def test_instrument_counts_pools():
    from uhlmann_chern import chern, models

    model = models.Haldane(t1=1.0, t2=0.5, phi=math.pi / 2, M=0.2)
    rec = spans.Recorder()
    restore = spans.instrument(rec, kernels=False)
    try:
        chern.first_thermal_uc(model, 2.0, chern.default_grid(model, 8), workers=2)
    finally:
        restore()
    assert [s.name for s in rec.spans] == ["chern.pool"]
    assert rec.spans[0].end > rec.spans[0].start


# ---------------------------------------------------------------------------
# Seeded parameters


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_params_repeat_per_seed_and_vary_across_seeds(name):
    wl = workloads.WORKLOADS[name]
    assert wl.params(7) == wl.params(7)
    assert wl.params(7) != wl.params(8)


def test_params_stay_in_their_ranges():
    for seed in range(200):
        assert 0.0 <= workloads.HaldaneCli().params(seed)["M"] <= 0.5
        four = workloads.FourBand4D().params(seed)
        assert 1.0 <= four["m"] <= 1.5 and 0.8 <= four["beta"] <= 1.25
        assert 0.6 <= workloads.OscillatorFock().params(seed)["beta"] <= 1.0


# ---------------------------------------------------------------------------
# Gates


def _failing(wl, out, params, first=None):
    return {g.name for g in wl.gates(out, params, first if first is not None else out) if not g.ok}


def _sweep_csv(rows):
    lines = ["T_over_R0,n_U,imag_residual,route_disagreement"]
    lines += [",".join(f"{v:.17g}" for v in row) for row in rows]
    return ("\n".join(lines) + "\n").encode("ascii")


def _haldane_out(n_low=0.99999997, route=2e-6, code=0, fhs=1, temps=None):
    temps = temps or workloads.SWEEP_TEMPERATURES
    rows = [(t, n_low if i == 0 else 0.5, 1e-17, route) for i, t in enumerate(temps)]
    return {"exit_codes": [0, code], "fhs": fhs, "sweep_csv": _sweep_csv(rows)}


def test_haldane_gates():
    wl = workloads.HaldaneCli()
    params = wl.params(1)
    good = _haldane_out()
    assert _failing(wl, good, params) == set()
    assert wl.errors(good, params) == pytest.approx((3e-8, 2e-6))
    assert "exit_codes" in _failing(wl, _haldane_out(code=3), params)
    assert "fhs_integer" in _failing(wl, _haldane_out(fhs=0), params)
    assert _failing(wl, _haldane_out(n_low=0.985), params) == {"low_t_nU"}
    assert _failing(wl, _haldane_out(n_low=math.nan), params) == {"low_t_nU"}
    assert _failing(wl, _haldane_out(route=2e-5), params) == {"route_disagreement"}
    assert _failing(wl, _haldane_out(temps=[0.02, 0.05]), params) == {"sweep_rows"}
    changed = _haldane_out(n_low=0.99999996)
    assert _failing(wl, changed, params, first=good) == {"sweep_csv_repeat"}


def _fourband_out(**changes):
    out = {"thermal_inf": 1.4929, "thermal_beta": 0.66, "pure": 2.9858,
           "route_inf": 1e-16, "route_beta": 2e-7}
    out.update(changes)
    return out


def test_fourband_gates():
    wl = workloads.FourBand4D()
    params = wl.params(1)
    good = _fourband_out()
    assert _failing(wl, good, params) == set()
    assert wl.errors(good, params) == pytest.approx((0.0142, 2e-7))
    assert _failing(wl, _fourband_out(thermal_inf=1.56), params) == {"thermal_inf"}
    assert _failing(wl, _fourband_out(pure=2.94), params) == {"pure"}
    assert _failing(wl, _fourband_out(pure=math.nan), params) == {"pure"}
    assert _failing(wl, _fourband_out(route_inf=0.02), params) == {"route_inf"}
    assert _failing(wl, _fourband_out(route_beta=0.011), params) == {"route_beta"}
    assert _failing(wl, _fourband_out(thermal_beta=0.6600001), params, first=good) == {"repeat"}


def test_oscillator_gates():
    wl = workloads.OscillatorFock()
    params = wl.params(1)
    exact = workloads.oscillator_reference(workloads.FOCK_DIM, params["beta"])
    good = {"value": exact + 1e-8}
    assert _failing(wl, good, params) == set()
    assert _failing(wl, {"value": exact + 2e-4}, params) == {"closed_form"}
    assert _failing(wl, {"value": math.nan}, params) == {"closed_form"}
    assert _failing(wl, {"value": exact}, params, first=good) == {"repeat"}



def test_instrument_lists_entry_points_the_package_lacks(monkeypatch):
    from uhlmann_chern import chern, cli, geometry  # noqa: F401

    monkeypatch.delattr(geometry, "connection_grid")
    rec = spans.Recorder()
    spans.instrument(rec)()
    assert rec.missing == ["geometry.connection_grid"]


def test_times_scale_to_reference_speed():
    # A machine running at half the reference speed takes twice as long
    # for both the calibration and the pass.
    ref = calibration.CALIBRATION_REFERENCE_S
    assert calibration.at_reference(20.0, 2 * ref) == pytest.approx(10.0)
    assert calibration.at_reference(10.0, ref) == pytest.approx(10.0)
    assert calibration.calibrate() > 0
