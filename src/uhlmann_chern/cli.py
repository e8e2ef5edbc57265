"""Command line front end.

A single JSON config file drives every run.  The config is validated
against the bundled JSON schema (unknown keys are rejected), then the
requested command executes:

* ``sweep``  -- temperature sweep of a thermal Chern integral; writes
  ``sweep.csv`` and ``summary.json``.
* ``map``    -- curvature maps over a 2D grid at one temperature; writes
  ``curvature.csv`` and ``berry.csv``.
* ``chern``  -- a single pure-state invariant (lattice field strength in
  2D, wedge integral in 4D); writes ``chern.json``.
* ``verify`` -- self-check table of the package invariants.

Exit codes: 0 success, 1 verification failure, 2 config error,
3 numeric failure.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import sys
import time
import warnings
from collections import Counter
from importlib import resources
from pathlib import Path

import jsonschema
import numpy as np

from . import __version__, chern, geometry, linalg, models
from .errors import ConfigError, InvalidArgument, UhlmannChernError

# Fraction of the smallest coordinate scale used as the finite-difference
# step when the verify command cross-checks the trace routes.  Smaller
# than the library default because the check tolerance is tighter than
# the default step's truncation error near sharp curvature features.
VERIFY_FD_STEP_FRACTION = 2e-5

_SAMPLE_SEED = 20260818


def _load_schema() -> dict:
    text = resources.files(__package__).joinpath("config_schema.json").read_text()
    return json.loads(text)


def _schema_errors(config: object) -> list[str]:
    validator = jsonschema.Draft202012Validator(_load_schema())
    out = []
    for err in sorted(validator.iter_errors(config), key=lambda e: list(map(str, e.absolute_path))):
        path = "/".join(str(part) for part in err.absolute_path) or "<root>"
        out.append(f"{path}: {err.message}")
    return out


def _build_model(cfg: dict):
    block = cfg["model"]
    cls = models.MODEL_VARIANTS[block["variant"]]
    params = block["parameters"]
    try:
        return cls(**params)
    except TypeError as exc:
        raise ConfigError(f"model.parameters: {exc}") from None


def _build_grid(model, cfg: dict) -> chern.GridSpec:
    resolution = cfg["grid"]["resolution"]
    if len(resolution) != model.manifold.dim:
        raise ConfigError(
            f"grid.resolution: expected {model.manifold.dim} entries for "
            f"{cfg['model']['variant']}, got {len(resolution)}"
        )
    return chern.GridSpec(model.manifold, resolution)


def _degeneracy_tol(cfg: dict) -> float:
    return cfg.get("tolerances", {}).get("degeneracy", linalg.DEGENERACY_TOL)


def _fd_step_fraction(cfg: dict) -> float:
    return cfg.get("tolerances", {}).get("fd_step", VERIFY_FD_STEP_FRACTION)


def _format(value: float) -> str:
    return f"{float(value):.17g}"


@contextlib.contextmanager
def _writing(path: Path):
    """An output path that cannot be created or written is a config error (exit 2)."""
    try:
        yield
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from None


def _write_csv(path: Path, header: str, rows) -> None:
    # LF endings and 17 significant digits, so that reruns of the same
    # config are byte-identical.
    with _writing(path):
        np.savetxt(path, list(rows), fmt="%.17g", delimiter=",", header=header, comments="",
                   encoding="ascii")


def _write_json(path: Path, payload: dict) -> None:
    with _writing(path), open(path, "w", encoding="ascii", newline="\n") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# sweep


def cmd_sweep(cfg: dict, out_dir: Path, workers: int) -> int:
    model = _build_model(cfg)
    grid = _build_grid(model, cfg)
    run = cfg["run"]
    if run.get("order", model.dim // 2) != model.dim // 2:  # it only confirms the sweep order
        raise ConfigError(f"run.order: order {run['order']} does not match a {model.dim}D model")

    tol = _degeneracy_tol(cfg)
    start = time.perf_counter()
    result = chern.temperature_sweep(
        model, run.get("temperatures", ()), grid=grid, workers=workers, degeneracy_tol=tol
    )
    wall = time.perf_counter() - start

    rows = [
        (t, v, d["imag_residual"], d["route_disagreement"])
        for t, v, d in zip(result.temperatures, result.values, result.diagnostics)
    ]
    _write_csv(out_dir / "sweep.csv", "T_over_R0,n_U,imag_residual,route_disagreement", rows)
    _write_json(
        out_dir / "summary.json",
        {
            "command": "sweep",
            "model": models.model_id(model),
            "model_variant": cfg["model"]["variant"],
            "grid_resolution": list(grid.resolution),
            "r0": model.r0,
            "order": result.order,
            "workers": workers,
            "temperatures": list(result.temperatures),
            "tolerances": {"degeneracy": tol},
            "max_imag_residual": max(d["imag_residual"] for d in result.diagnostics),
            "max_trace_residual": max(d["max_trace_residual"] for d in result.diagnostics),
            "max_route_disagreement": max(d["route_disagreement"] for d in result.diagnostics),
            "wall_time_s": wall,
            "version": __version__,
        },
    )
    for t, v, *_ in rows:
        print(f"T/R0={_format(t)}  n_U={_format(v)}")
    return 0


# ---------------------------------------------------------------------------
# map


def cmd_map(cfg: dict, out_dir: Path, workers: int) -> int:
    model = _build_model(cfg)
    grid = _build_grid(model, cfg)
    if model.manifold.dim != 2:
        raise ConfigError("run.type: map needs a 2D model")
    temperatures = cfg["run"].get("temperatures")
    if not temperatures or len(temperatures) != 1:
        raise ConfigError("run.temperatures: map takes exactly one value")
    t_over_r0 = models._real(temperatures[0], "temperature")
    if t_over_r0 < 0:
        raise ConfigError("run.temperatures: must be nonnegative")
    beta = chern.beta_from_temperature(t_over_r0, model.r0)
    tol = _degeneracy_tol(cfg)

    columns = chern._map_chunks(chern._map_job, model, grid, (beta,), tol, workers)
    pts = grid.points_range(0, grid.n_points)
    (trace,), berry = (np.concatenate(c, axis=-1).imag for c in columns)
    trace_rows = zip(pts[:, 0], pts[:, 1], trace)
    berry_rows = zip(pts[:, 0], pts[:, 1], berry)

    _write_csv(out_dir / "curvature.csv", "kx,ky,Im_Tr_rhoFU", trace_rows)
    _write_csv(out_dir / "berry.csv", "kx,ky,Im_F_B", berry_rows)
    print(f"map: {grid.n_points} points, T/R0={_format(t_over_r0)}")
    return 0


# ---------------------------------------------------------------------------
# chern


def cmd_chern(cfg: dict, out_dir: Path, workers: int) -> int:
    model = _build_model(cfg)
    grid = _build_grid(model, cfg)
    run = cfg["run"]
    dim = model.manifold.dim
    tol = _degeneracy_tol(cfg)
    if dim == 2:
        if model.manifold.kind == "plane":
            raise ConfigError("run.type: chern needs a closed 2D chart, not a plane")
        report = chern.pure_chern_fhs(model, run.get("band", 0), grid, workers=workers,
                                      degeneracy_tol=tol, detail=True)
        kind = "first"
    else:
        if "band" in run:
            raise ConfigError("run.band: a 4D chern reads no band")
        result = chern.second_chern_pure(model, grid, workers=workers, degeneracy_tol=tol)
        report = {"value": float(result)}
        kind = "second"
    value = report["value"]
    _write_json(
        out_dir / "chern.json",
        {
            "command": "chern",
            "kind": kind,
            "model": models.model_id(model),
            "grid_resolution": list(grid.resolution),
            **report,
            "version": __version__,
        },
    )
    print(f"chern ({kind}): {_format(value)}")
    return 0


# ---------------------------------------------------------------------------
# verify


def _sample_points(model, rng, count):
    man = model.manifold
    if man.kind == "sphere":
        theta = rng.uniform(0.35, math.pi - 0.35, count)
        phi = rng.uniform(0.0, 2.0 * math.pi, count)
        return np.column_stack([theta, phi])
    low = np.asarray(man.origin, dtype=float)
    span = np.asarray(man.cell, dtype=float)
    return low + span * rng.uniform(0.05, 0.95, (count, man.dim))


def _verify_models():
    sphere = models.TwoLevelSphere()
    haldane = models.Haldane(t1=1.0, t2=0.4, phi=1.1, M=0.3)
    fourband = models.FourBandGamma(m=1.5)
    coherent = models.CoherentOscillator(fock_dim=24)
    return sphere, haldane, fourband, coherent


def _check_gamma(cfg, rng):
    residual = models.gamma_anticommutation_residual()
    return residual <= 1e-12, f"residual={residual:.3g}"


def _check_grouping(cfg, rng):
    tol = _degeneracy_tol(cfg)
    model = models.FourBandGamma(m=1.5)
    sizes = set()
    for p in _sample_points(model, rng, 6):
        dec = linalg.hermitian_eig(model.hamiltonian(p), degeneracy_tol=tol)
        sizes.update(len(g) for g in dec.groups)
    return sizes == {2}, f"cluster sizes={sorted(sizes)} at degeneracy_tol={tol:g}"


def _check_coefficient_bounds(cfg, rng):
    worst = 0.0
    ok = True
    for _ in range(40):
        # Spectra and temperatures wide enough that some weights underflow.
        w = np.sort(rng.normal(0.0, 5.0, 6))[None, :]
        beta = rng.uniform(0.1, 200.0)
        lam = models.weights_batch(w, beta)
        c = geometry._mixing_batch(lam, geometry._pair_exponents(w, beta))[0]
        ok &= bool(np.all(c >= -1e-15) and np.all(c <= 1.0 + 1e-15))
        ok &= bool(np.allclose(c, c.T, atol=1e-15))
        ok &= bool(np.allclose(np.diag(c), 0.0, atol=1e-15))
        worst = max(worst, float(np.max(np.abs(c - c.T))))
    return ok, f"max asymmetry={worst:.3g}"


def _check_connection_traceless(cfg, rng):
    tol = _degeneracy_tol(cfg)
    worst = 0.0
    for model in _verify_models():
        for p in _sample_points(model, rng, 3):
            for beta in (0.7, 2.0):
                field = geometry.connection_grid(model, p[None], beta, tol)[:, 0]
                for a in field:
                    worst = max(worst, abs(np.trace(a)))
    return worst <= 1e-10, f"max |tr A|={worst:.3g}"


def _check_curvature_traceless(cfg, rng):
    tol = _degeneracy_tol(cfg)
    worst = 0.0
    for model in _verify_models()[:2]:
        p = _sample_points(model, rng, 1)[0]
        f = geometry.uhlmann_curvature(model, p, 1.2 / model.r0, degeneracy_tol=tol)
        scale = max(np.max(np.abs(f.matrices)), 1e-30)
        worst = max(worst, float(np.max(np.abs(f.trace_components()))) / scale)
    return worst <= 1e-8, f"max |tr F|/max|F|={worst:.3g}"


def _check_connection_routes(cfg, rng):
    tol = _degeneracy_tol(cfg)
    worst = 0.0
    sphere, haldane, _, coherent = _verify_models()
    for model in (sphere, haldane, coherent):
        p = _sample_points(model, rng, 1)[0]
        # Finite differencing of sqrt(rho) cannot resolve thermal weights
        # below its noise floor (~1e-12); keep the truncated oscillator's
        # smallest weight above that by bounding beta * fock_dim.
        beta = 0.8 if model is coherent else 1.5 / model.r0
        spectral = geometry.connection_grid(model, p[None], beta, tol)[:, 0]
        fd = geometry.uhlmann_connection_sqrt_fd(model, p, beta, degeneracy_tol=tol)
        worst = max(worst, float(np.max(np.abs(spectral - fd.components))))
    return worst <= 1e-6, f"max route gap={worst:.3g}"


def _check_trace_routes(cfg, rng):
    tol = _degeneracy_tol(cfg)
    fraction = models._real(_fd_step_fraction(cfg), "tolerances.fd_step")
    worst = 0.0
    sphere, haldane, _, _ = _verify_models()
    for model in (sphere, haldane):
        p = _sample_points(model, rng, 1)[0]
        beta = 1.5 / model.r0
        h = fraction * min(model.manifold.cell)
        state = models.thermal_state(model, p, beta, degeneracy_tol=tol)
        direct = geometry.thermal_trace_grid(model, p[None], beta, tol)[0, 0]
        f = geometry.uhlmann_curvature(model, p, beta, h=h, degeneracy_tol=tol)
        via_field = geometry.weighted_trace(state, f)[0]
        worst = max(worst, abs(direct - via_field))
    return worst <= 1e-5, f"max route gap={worst:.3g}"


def _check_degeneracy_null(cfg, rng):
    tol = _degeneracy_tol(cfg)
    model = models.FourBandGamma(m=1.5)
    worst = 0.0
    for p in _sample_points(model, rng, 4):
        # The in-cluster block P A P is gauge-invariant, so any
        # eigenbasis of the point serves for the rotation.
        state = models.thermal_state(model, p, 2.0, degeneracy_tol=tol)
        field = geometry.connection_grid(model, p[None], 2.0, tol)[:, 0]
        v = state.spectrum.eigenvectors
        for a in field:
            tilde = v.conj().T @ a @ v
            for group in state.spectrum.groups:
                idx = np.asarray(group)
                worst = max(worst, float(np.max(np.abs(tilde[np.ix_(idx, idx)]))))
    return worst <= 1e-13, f"max in-cluster |A|={worst:.3g}"


def _check_zero_t_abelian(cfg, rng):
    tol = _degeneracy_tol(cfg)
    worst = 0.0
    sphere, haldane, _, _ = _verify_models()
    for model in (sphere, haldane):
        for p in _sample_points(model, rng, 4):
            trace = geometry.thermal_trace_grid(model, p[None], models.BETA_INF, tol)[0, 0]
            berry = geometry.berry_curvature(model, p, degeneracy_tol=tol).scalar(0, 1)
            worst = max(worst, abs(trace - berry))
    return worst <= 1e-9, f"max gap={worst:.3g}"


def _check_zero_t_nonabelian(cfg, rng):
    tol = _degeneracy_tol(cfg)
    model = models.FourBandGamma(m=1.5)
    worst = 0.0
    for p in _sample_points(model, rng, 3):
        wz = geometry.wz_curvature(model, p, (0, 1), degeneracy_tol=tol)
        proj = geometry.projector_limit_curvature(model, p, degeneracy_tol=tol)
        worst = max(worst, float(np.max(np.abs(wz.matrices - proj.matrices))))
    return worst <= 1e-10, f"max gap={worst:.3g}"


def _check_high_temperature(cfg, rng):
    tol = _degeneracy_tol(cfg)
    worst = 0.0
    for model in _verify_models():
        p = _sample_points(model, rng, 1)[0]
        field = geometry.connection_grid(model, p[None], 0.0, tol)
        trace = geometry.thermal_trace_grid(model, p[None], 0.0, tol)
        worst = max(worst, float(np.max(np.abs(field))), float(np.max(np.abs(trace))))
    return worst <= 1e-12, f"max magnitude={worst:.3g}"


def _check_quantization(cfg, rng):
    model = models.Haldane(t1=1.0, t2=0.5, phi=math.pi / 2, M=0.0)
    grid = chern.default_grid(model, 100)
    n_u = chern.first_thermal_uc(model, models.BETA_INF, grid=grid)
    lattice = chern.pure_chern_fhs(model, 0, grid)
    ok = abs(float(n_u) - 1.0) <= 5e-3 and lattice == 1
    return ok, f"n_U={float(n_u):.6f}, lattice invariant={lattice}"


_VERIFY_CHECKS = [
    ("models", "gamma anticommutation", _check_gamma),
    ("linalg", "degeneracy grouping", _check_grouping),
    ("geometry", "coefficient bounds", _check_coefficient_bounds),
    ("geometry", "connection tracelessness", _check_connection_traceless),
    ("geometry", "curvature tracelessness", _check_curvature_traceless),
    ("geometry", "connection route equivalence", _check_connection_routes),
    ("geometry", "trace route equivalence", _check_trace_routes),
    ("geometry", "degeneracy null", _check_degeneracy_null),
    ("geometry", "zero-temperature correspondence (abelian)", _check_zero_t_abelian),
    ("geometry", "zero-temperature correspondence (non-abelian)", _check_zero_t_nonabelian),
    ("geometry", "high-temperature vanishing", _check_high_temperature),
    ("chern", "quantization at zero temperature", _check_quantization),
]


def _warning_summary(caught) -> str:
    """Count and categories of recorded warnings, e.g. '3 warnings
    (RuntimeWarning x2, TruncationWeightWarning x1)'."""
    counts = Counter(w.category.__name__ for w in caught)
    kinds = ", ".join(f"{name} x{n}" for name, n in sorted(counts.items()))
    total = sum(counts.values())
    return f"{total} warning{'' if total == 1 else 's'}" + (f" ({kinds})" if kinds else "")


def cmd_verify(cfg: dict, out_dir: Path, workers: int) -> int:
    rng = np.random.default_rng(_SAMPLE_SEED)
    failures = []
    caught_all = []
    for module, name, check in _VERIFY_CHECKS:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                ok, detail = check(cfg, rng)
            except InvalidArgument:  # a bad config tolerance, not a failed check
                raise
            except UhlmannChernError as exc:
                ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        caught_all += caught
        status = "PASS" if ok else "FAIL"
        print(f"{status}  {module}.{name}  ({detail}; {_warning_summary(caught)})")
        if not ok:
            failures.append(f"{module}.{name}")
    summary = _warning_summary(caught_all)
    if failures:
        print("verify failure: " + ", ".join(failures), file=sys.stderr)
        print(f"verify: {len(failures)} of {len(_VERIFY_CHECKS)} checks failed, {summary}")
        return 1
    print(f"verify: {len(_VERIFY_CHECKS)} checks passed, {summary}")
    return 0


# ---------------------------------------------------------------------------
# entry point


# Each command with the run keys it reads besides "type"; a 4D chern reads no band.
_COMMANDS = {
    "sweep": (cmd_sweep, {"order", "temperatures"}),
    "map": (cmd_map, {"temperatures"}),
    "chern": (cmd_chern, {"band"}),
    "verify": (cmd_verify, set()),
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="uhlmann-chern",
        description="Thermal Chern integrals from a JSON run configuration.",
    )
    parser.add_argument("--config", required=True, help="path to the JSON config file")
    parser.add_argument("--workers", type=int, default=None, help="override config workers")
    parser.add_argument("--out", default=None, help="override config output_dir")
    args = parser.parse_args(argv)

    try:
        raw = Path(args.config).read_text()
    except OSError as exc:
        print(f"config error: cannot read {args.config}: {exc}", file=sys.stderr)
        return 2
    try:
        cfg = json.loads(raw)
    except json.JSONDecodeError as exc:
        print(f"config error: invalid JSON: {exc}", file=sys.stderr)
        return 2

    overrides = {"workers": args.workers, "output_dir": args.out}
    if isinstance(cfg, dict):  # the overrides meet the schema's rules, as the config's keys do
        cfg.update({key: value for key, value in overrides.items() if value is not None})
    errors = _schema_errors(cfg)
    if errors:
        for line in errors:
            print(f"config error: {line}", file=sys.stderr)
        return 2

    workers = int(cfg.get("workers", 1))
    out_dir = Path(cfg.get("output_dir", "."))

    run = cfg["run"]
    command, reads = _COMMANDS[run["type"]]
    unread = sorted(set(run) - {"type"} - reads)
    try:
        if unread:
            raise ConfigError(f"run.{unread[0]}: a {run['type']} run does not read it")
        with _writing(out_dir):
            out_dir.mkdir(parents=True, exist_ok=True)
        return command(cfg, out_dir, workers)
    except (ConfigError, InvalidArgument) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except UhlmannChernError as exc:
        print(f"numeric failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
