"""The benchmark's workloads: seeded parameters, one pass, and gates.

Each workload draws its model parameters from the seed and nothing
else; the work done by a pass is the same for every seed.  ``build``
constructs what a pass needs (the set-up the benchmark times), ``run``
executes one pass and returns its raw outputs, and ``gates`` checks
those outputs against the workload's references.  Gates are plain
functions of the outputs so they can be tested on perturbed values.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Gate:
    name: str
    ok: bool
    detail: str


def _gate(name: str, value: float, limit: float) -> Gate:
    # A NaN value fails: the comparison is written so that it must hold.
    return Gate(name, bool(value <= limit), f"{value:.3g} <= {limit:g}")


# ---------------------------------------------------------------------------
# haldane_cli: the README's command-line path on the honeycomb model
# ---------------------------------------------------------------------------

SWEEP_TEMPERATURES = [0.02, 0.05, 0.1, 0.2, 0.5, 1.0]
LOW_T_TOL = 0.01
SWEEP_ROUTE_TOL = 1e-5


class HaldaneCli:
    name = "haldane_cli"
    workers = 2
    chern_resolution = 1024
    sweep_resolution = 400

    def params(self, seed: int) -> dict:
        rng = np.random.default_rng(seed)
        # The sweep's route check stays under 1e-5 only for M <= 0.6
        # (3.0e-5 at M = 1): the finite-difference curvature at the
        # diagnostic points loses accuracy as the gap narrows.
        return {"t1": 1.0, "t2": 0.5, "phi": math.pi / 2, "M": float(rng.uniform(0.0, 0.5))}

    def build(self, pkg, params: dict, work) -> dict:
        model = {"variant": "haldane", "parameters": params}
        configs = {}
        for kind, res, run in (
            ("chern", self.chern_resolution, {"type": "chern"}),
            ("sweep", self.sweep_resolution, {"type": "sweep", "temperatures": SWEEP_TEMPERATURES}),
        ):
            cfg = {"model": model, "grid": {"resolution": [res, res]}, "run": run}
            path = work / f"{kind}.json"
            path.write_text(json.dumps(cfg))
            configs[kind] = path
        return {"pkg": pkg, "configs": configs, "work": work}

    def run(self, built: dict, workers: int) -> dict:
        cli = built["pkg"].cli
        out = built["work"] / "out"
        codes = []
        with contextlib.redirect_stdout(io.StringIO()):
            for kind in ("chern", "sweep"):
                argv = ["--config", str(built["configs"][kind]),
                        "--workers", str(workers), "--out", str(out)]
                codes.append(cli.main(argv))
        return {
            "exit_codes": codes,
            "fhs": json.loads((out / "chern.json").read_text())["value"],
            "sweep_csv": (out / "sweep.csv").read_bytes(),
        }

    @staticmethod
    def _rows(out: dict) -> list[list[float]]:
        lines = out["sweep_csv"].decode("ascii").splitlines()[1:]
        return [[float(x) for x in line.split(",")] for line in lines]

    def errors(self, out: dict, params: dict) -> tuple[float, float]:
        rows = self._rows(out)
        ref = abs(out["fhs"] - 1)
        low_t = abs(rows[0][1] - out["fhs"])
        return max(ref, low_t), max(r[3] for r in rows)

    def gates(self, out: dict, params: dict, first: dict) -> list[Gate]:
        rows = self._rows(out)
        ref, route = self.errors(out, params)
        return [
            Gate("exit_codes", out["exit_codes"] == [0, 0], f"{out['exit_codes']}"),
            Gate("fhs_integer", out["fhs"] == 1, f"{out['fhs']} == 1"),
            Gate("sweep_rows", [r[0] for r in rows] == SWEEP_TEMPERATURES, f"{len(rows)} rows"),
            _gate("low_t_nU", abs(rows[0][1] - out["fhs"]), LOW_T_TOL),
            _gate("route_disagreement", route, SWEEP_ROUTE_TOL),
            Gate("sweep_csv_repeat", out["sweep_csv"] == first["sweep_csv"],
                 "byte-identical to the first pass"),
        ]


# ---------------------------------------------------------------------------
# fourband_4d: second-order integrals on the 4D torus
# ---------------------------------------------------------------------------

# Criterion 4 references for 0 < m < 2 and their tolerance.
FOURBAND_THERMAL_REF = 1.5
FOURBAND_PURE_REF = 3.0
FOURBAND_TOL = 0.05
# Relative route tolerance of the package's own route test.
FOURBAND_ROUTE_RTOL = 0.01


def _second_route_limit(value: float) -> float:
    return FOURBAND_ROUTE_RTOL * max(1.0, abs(value))


class FourBand4D:
    name = "fourband_4d"
    workers = 1
    resolution = 16

    def params(self, seed: int) -> dict:
        rng = np.random.default_rng(seed)
        # At 16^4 the pure value misses its reference from m ~ 1.75.
        return {"m": float(rng.uniform(1.0, 1.5)), "beta": float(rng.uniform(0.8, 1.25))}

    def build(self, pkg, params: dict, work) -> dict:
        model = pkg.models.FourBandGamma(m=params["m"])
        return {"pkg": pkg, "model": model, "grid": pkg.chern.default_grid(model, self.resolution),
                "beta": params["beta"]}

    def run(self, built: dict, workers: int) -> dict:
        chern, model, grid = built["pkg"].chern, built["model"], built["grid"]
        cold = chern.second_thermal_uc(model, built["pkg"].models.BETA_INF, grid, workers=workers)
        warm = chern.second_thermal_uc(model, built["beta"], grid, workers=workers)
        pure = chern.second_chern_pure(model, grid, workers=workers)
        return {
            "thermal_inf": cold.value,
            "thermal_beta": warm.value,
            "pure": pure.value,
            "route_inf": cold.extra["route_disagreement"],
            "route_beta": warm.extra["route_disagreement"],
        }

    def errors(self, out: dict, params: dict) -> tuple[float, float]:
        ref = max(abs(out["thermal_inf"] - FOURBAND_THERMAL_REF), abs(out["pure"] - FOURBAND_PURE_REF))
        return ref, max(out["route_inf"], out["route_beta"])

    def gates(self, out: dict, params: dict, first: dict) -> list[Gate]:
        return [
            _gate("thermal_inf", abs(out["thermal_inf"] - FOURBAND_THERMAL_REF), FOURBAND_TOL),
            _gate("pure", abs(out["pure"] - FOURBAND_PURE_REF), FOURBAND_TOL),
            _gate("route_inf", out["route_inf"], _second_route_limit(out["thermal_inf"])),
            _gate("route_beta", out["route_beta"], _second_route_limit(out["thermal_beta"])),
            Gate("repeat", out == first, "bitwise equal to the first pass"),
        ]


# ---------------------------------------------------------------------------
# oscillator_fock: few points, large matrices
# ---------------------------------------------------------------------------

FOCK_DIM = 40
# Criterion 9 tolerance.
OSCILLATOR_TOL = 1e-4


def oscillator_reference(fock_dim: int, beta: float, hbar_omega: float = 1.0) -> float:
    """Closed-form first-order integral over the displacement plane."""
    return -(fock_dim / (4.0 * math.pi)) * math.tanh(beta * hbar_omega / 2.0) ** 2


class OscillatorFock:
    name = "oscillator_fock"
    workers = 1
    resolution = 16

    def params(self, seed: int) -> dict:
        rng = np.random.default_rng(seed)
        return {"beta": float(rng.uniform(0.6, 1.0))}

    def build(self, pkg, params: dict, work) -> dict:
        model = pkg.models.CoherentOscillator(fock_dim=FOCK_DIM)
        return {"pkg": pkg, "model": model, "grid": pkg.chern.default_grid(model, self.resolution),
                "beta": params["beta"]}

    def run(self, built: dict, workers: int) -> dict:
        res = built["pkg"].chern.first_thermal_uc(
            built["model"], built["beta"], built["grid"], workers=workers)
        return {"value": res.value}

    def errors(self, out: dict, params: dict) -> tuple[float, float]:
        # No independent integral route exists for this model.
        return abs(out["value"] - oscillator_reference(FOCK_DIM, params["beta"])), 0.0

    def gates(self, out: dict, params: dict, first: dict) -> list[Gate]:
        return [
            _gate("closed_form", self.errors(out, params)[0], OSCILLATOR_TOL),
            Gate("repeat", out == first, "bitwise equal to the first pass"),
        ]


WORKLOADS = {w.name: w for w in (HaldaneCli(), FourBand4D(), OscillatorFock())}
