"""One ground cluster per grid, however the grid is chunked.

At zero temperature rho = P / D on the ground cluster, so an integral
weighs each point by 1/D. Where D changes across the cell the zero-
temperature state jumps, and the integral is not defined. Each chunk
job reports the ground sizes it weighed by 1/D; the engine raises
GapClosed before summing when the reports differ, as a single chunk does
when D varies inside it. That covers second_chern_pure,
second_thermal_uc at BETA_INF, first_thermal_uc at BETA_INF and the CLI
map (exit 3), at any worker count. A finite beta weighs no point by 1/D,
so there D may vary. The first order applies geometry._ground_size to each
chunk at BETA_INF, as the second order does, so a ground cluster that is the
whole space or is not isolated raises GapClosed there too, instead of
integrating to 0.

The probes lift level 1 by 0.3 sin^2(2 k_x) where sin(2 k_x) > 0, so D =
1 on that half of the cell and D = 2 on the other. On an 8^d grid one
chunk holds both halves; at 16^4 (four-band) and 128^2 (2D) each chunk
holds a uniform D.
"""
import json
import math
import warnings

import numpy as np
import pytest

from uhlmann_chern import chern, cli, models
from uhlmann_chern.errors import GapClosed, ResolutionTooLowWarning


def _lift(pts):
    s = np.sin(2.0 * pts[:, 0])
    return np.where(s > 0, 0.3 * s * s, 0.0), np.where(s > 0, 1.2 * s * np.cos(2.0 * pts[:, 0]), 0.0)


class LiftedFourBand:
    """FourBandGamma(1.5) with level 1 lifted (module docstring). Hookless:
    H goes through eigh. Its gradients and Dirac hooks are the unlifted
    model's, since only the ground sizes matter here."""

    dim = 4

    def __init__(self):
        self._inner = models.FourBandGamma(1.5)
        self.manifold = self._inner.manifold

    def hamiltonian_batch(self, pts):
        _, v, _ = self._inner.eigenframe_batch(pts)
        lift, _ = _lift(np.asarray(pts, dtype=float))
        level = v[:, :, 1:2]
        return (self._inner.hamiltonian_batch(pts)
                + lift[:, None, None] * (level @ level.conj().swapaxes(-1, -2)))

    def gradient_batch(self, pts, mu):
        return self._inner.gradient_batch(pts, mu)

    def r_vector_batch(self, pts):
        return self._inner.r_vector_batch(pts)

    def r_gradient_batch(self, pts, mu):
        return self._inner.r_gradient_batch(pts, mu)

    def r_determinant_batch(self, pts):
        return self._inner.r_determinant_batch(pts)


class LiftedLevels:
    """Three levels diag(-1, -1 + lift, 1) on the 2D torus [0, pi)^2, with
    the lift of the module docstring and its analytic gradient."""

    dim = 2
    r0 = 1.0
    manifold = models.Manifold("torus", 2, (math.pi, math.pi), (0.0, 0.0))

    def hamiltonian_batch(self, pts):
        lift, _ = _lift(np.asarray(pts, dtype=float))
        h = np.zeros((len(lift), 3, 3), dtype=np.complex128)
        h[:, 0, 0], h[:, 1, 1], h[:, 2, 2] = -1.0, lift - 1.0, 1.0
        return h

    def gradient_batch(self, pts, mu):
        _, dlift = _lift(np.asarray(pts, dtype=float))
        g = np.zeros((len(dlift), 3, 3), dtype=np.complex128)
        if mu == 0:
            g[:, 1, 1] = dlift
        return g


class ConstantLevels:
    """H = diag(levels) at every point of the 2D torus [0, pi)^2, with zero
    gradients: a flat band structure whose ground cluster is fixed by hand."""

    dim = 2
    r0 = 1.0
    manifold = models.Manifold("torus", 2, (math.pi, math.pi), (0.0, 0.0))

    def __init__(self, *levels):
        self.h = np.diag(levels).astype(np.complex128)

    def hamiltonian_batch(self, pts):
        return np.repeat(self.h[None], len(pts), axis=0)

    def gradient_batch(self, pts, mu):
        return np.zeros((len(pts),) + self.h.shape, dtype=np.complex128)


@pytest.fixture(autouse=True)
def _quiet_low_resolution():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ResolutionTooLowWarning)
        yield


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("n", [8, 16])
def test_four_band_ground_size_that_varies_raises_at_any_chunking(n, workers):
    model = LiftedFourBand()
    grid = chern.default_grid(model, n)
    with pytest.raises(GapClosed, match="ground degeneracy varies"):
        chern.second_chern_pure(model, grid, workers=workers)
    with pytest.raises(GapClosed, match="ground degeneracy varies"):
        chern.second_thermal_uc(model, models.BETA_INF, grid, workers=workers)


def test_finite_beta_accepts_a_ground_size_that_varies():
    model = LiftedFourBand()
    grid = chern.default_grid(model, 8)
    assert math.isfinite(chern.second_thermal_uc(model, 1.0, grid).value)
    model2 = LiftedLevels()
    assert chern.first_thermal_uc(model2, 1.0, chern.default_grid(model2, 128)).value == 0.0


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("n", [8, 128])
def test_2d_ground_size_that_varies_raises_at_any_chunking(n, workers):
    model = LiftedLevels()
    with pytest.raises(GapClosed, match="ground degeneracy varies"):
        chern.first_thermal_uc(model, models.BETA_INF, chern.default_grid(model, n),
                               workers=workers)


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("temperature", [0.0, 0.5])
def test_cli_map_with_a_ground_size_that_varies_exits_3(tmp_path, capsys, monkeypatch,
                                                        temperature, workers):
    monkeypatch.setattr(cli, "_build_model", lambda cfg: LiftedLevels())
    cfg = {
        "model": {"variant": "haldane",
                  "parameters": {"t1": 1.0, "t2": 0.5, "phi": math.pi / 2, "M": 0.0}},
        "grid": {"resolution": [128, 128]},
        "run": {"type": "map", "temperatures": [temperature]},
    }
    path = tmp_path / "map.json"
    path.write_text(json.dumps(cfg))
    argv = ["--config", str(path), "--out", str(tmp_path / "out"), "--workers", str(workers)]
    assert cli.main(argv) == 3
    assert "ground degeneracy varies" in capsys.readouterr().err


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("n", [16, 128])  # one chunk; four chunks
@pytest.mark.parametrize("levels, message", [((0.0, 0.0), "whole space"),
                                             ((0.0, 5e-9), "touch level 1")])
def test_first_order_zero_temperature_applies_the_ground_rule(levels, message, n, workers):
    model = ConstantLevels(*levels)
    grid = chern.default_grid(model, n)
    with pytest.raises(GapClosed, match=message):
        chern.first_thermal_uc(model, models.BETA_INF, grid, workers=workers)
    assert chern.first_thermal_uc(model, 1.0, grid, workers=workers).value == 0.0
