"""Grid integration of curvature fields into (thermal) Chern numbers.

Engines here turn the pointwise geometry kernels into numbers: the
first-order thermal integral on 2D manifolds, the second-order integral
on the 4D torus (two independent routes; at finite temperature the
first contracts the closed-form Uhlmann curvature in the energy
eigenbasis, one eigendecomposition per point), the lattice-plaquette
oracle for pure-state Chern numbers, and temperature sweeps with
per-point diagnostics, which still use the finite-difference curvature
as a cross-check.

Determinism: a grid is split into fixed-size chunks in row-major index
order; each chunk is summed with numpy's blocked pairwise summation and
the chunk partials are combined by a fixed pairwise tree. The worker
count moves chunks between processes but never changes what is summed
in which order, so results are bitwise reproducible at fixed chunking.
"""
from __future__ import annotations

import math
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DegenerateBand,
    DimensionMismatch,
    GapClosed,
    MissingModelHook,
    NonFiniteInput,
    NonIntegerPlaquetteSum,
    ResolutionTooLowWarning,
)
from .linalg import DEGENERACY_TOL, cluster_labels, eigh_batch
from .geometry import (
    GAP_FLOOR,
    direction_pairs,
    ground_block_curvature_grid,
    thermal_trace_grid,
    uhlmann_curvature_grid,
    uhlmann_curvature_spectral_grid,
)
from .models import BETA_INF, Manifold, model_id

CHUNK_SIZE = 4096

# How far a plaquette-phase sum may sit from an integer multiple of
# 2 pi before the lattice oracle refuses to round.
PLAQUETTE_INTEGER_TOL = 0.05

MIN_RESOLUTION = 8
SECOND_ORDER_ACCEPTED_RESOLUTION = 16


@dataclass(frozen=True)
class GridSpec:
    """Uniform evaluation grid over a model's parameter manifold.

    offset=True places points at cell midpoints (the quadrature
    default); sphere manifolds force the offset so no point sits on a
    coordinate pole. Resolution below 8 per direction is rejected.
    """

    manifold: Manifold
    resolution: tuple[int, ...]
    offset: bool = True

    def __post_init__(self):
        res = tuple(int(r) for r in self.resolution)
        object.__setattr__(self, "resolution", res)
        if len(res) != self.manifold.dim:
            raise DimensionMismatch(
                f"{len(res)} resolutions for a {self.manifold.dim}-dimensional manifold"
            )
        if any(r < MIN_RESOLUTION for r in res):
            raise ValueError(f"resolution below {MIN_RESOLUTION} per dimension")
        if self.manifold.kind == "sphere":
            object.__setattr__(self, "offset", True)

    @property
    def n_points(self) -> int:
        return int(np.prod(self.resolution))

    @property
    def point_measure(self) -> float:
        return self.manifold.volume / self.n_points

    def steps(self) -> np.ndarray:
        return np.array(self.manifold.cell) / np.array(self.resolution)

    def axis(self, d: int) -> np.ndarray:
        h = self.manifold.cell[d] / self.resolution[d]
        shift = 0.5 if self.offset else 0.0
        return self.manifold.origin[d] + (np.arange(self.resolution[d]) + shift) * h

    def points_range(self, start: int, stop: int) -> np.ndarray:
        """Grid points for flat row-major indices [start, stop)."""
        idx = np.unravel_index(np.arange(start, stop), self.resolution)
        shift = 0.5 if self.offset else 0.0
        cols = [
            self.manifold.origin[d]
            + (idx[d] + shift) * (self.manifold.cell[d] / self.resolution[d])
            for d in range(len(self.resolution))
        ]
        return np.column_stack(cols)

    def chunk_ranges(self, chunk_size: int = CHUNK_SIZE):
        n = self.n_points
        return [(s, min(s + chunk_size, n)) for s in range(0, n, chunk_size)]


def default_grid(model, resolution) -> GridSpec:
    if np.isscalar(resolution):
        resolution = (int(resolution),) * model.dim
    return GridSpec(model.manifold, tuple(resolution))


@dataclass(frozen=True)
class IntegralResult:
    """A real integral value with its numerical honesty report."""

    value: float
    imag_residual: float
    extra: dict = field(default_factory=dict)

    def __float__(self) -> float:
        return self.value


@dataclass(frozen=True)
class SweepResult:
    """Temperature scan of a thermal Chern number.

    temperatures are in units of the model's natural energy scale R0;
    diagnostics holds one dict per temperature (imaginary residual,
    max |Tr F| over the sample points, max route disagreement).
    """

    model: str
    order: int
    temperatures: tuple[float, ...]
    values: tuple[float, ...]
    grid: GridSpec
    diagnostics: tuple[dict, ...]


def _pairwise_tree(values):
    vals = list(values)
    if not vals:
        return 0.0 + 0.0j
    while len(vals) > 1:
        merged = [vals[i] + vals[i + 1] for i in range(0, len(vals) - 1, 2)]
        if len(vals) % 2:
            merged.append(vals[-1])
        vals = merged
    return vals[0]


def _chunk_job(args):
    integrand, model, grid, beta, tol, start, stop = args
    return complex(np.sum(integrand(model, grid.points_range(start, stop), beta, tol)))


def _map_chunks(integrand, model, grid, beta, tol, workers):
    """Pairwise-tree sum of integrand(model, pts, beta, tol) over the
    grid's chunks; a module-level integrand, so pools pickle it by name."""
    jobs = [(integrand, model, grid, beta, tol, s, e) for s, e in grid.chunk_ranges()]
    if workers <= 1:
        partials = [_chunk_job(j) for j in jobs]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            partials = list(pool.map(_chunk_job, jobs, chunksize=1))
    return _pairwise_tree(partials)


def _require_grid(model, grid: GridSpec, dim: int):
    if model.dim != dim or grid.manifold.dim != dim:
        raise DimensionMismatch(f"operation needs a {dim}-dimensional model and grid")
    if not np.allclose(grid.manifold.cell, model.manifold.cell) or not np.allclose(
        grid.manifold.origin, model.manifold.origin
    ):
        raise DimensionMismatch("grid cell does not match the model's manifold")


# ---------------------------------------------------------------------------
# First order
# ---------------------------------------------------------------------------


def _trace_integrand(model, pts, beta, tol):
    return thermal_trace_grid(model, pts, beta, tol)[0]


def first_thermal_uc(model, beta: float, grid: GridSpec, workers: int = 1,
                     degeneracy_tol: float = DEGENERACY_TOL) -> IntegralResult:
    """First-order thermal Chern integral (i / 2 pi) int Tr(rho F_U)
    over the model's 2D cell, by midpoint Riemann sum.

    The cover multiplicity and chart orientation of the model's cell
    are folded in, so values are chart-independent.
    """
    _require_grid(model, grid, 2)
    man = model.manifold
    total = _map_chunks(_trace_integrand, model, grid, beta, degeneracy_tol, workers)
    raw = 1j * total * grid.point_measure * man.orientation / (2.0 * math.pi * man.multiplicity)
    return IntegralResult(
        value=float(raw.real),
        imag_residual=abs(raw.imag),
        extra={"beta": beta, "order": 1},
    )


# ---------------------------------------------------------------------------
# Second order
# ---------------------------------------------------------------------------

_P01, _P02, _P03, _P12, _P13, _P23 = range(6)


def _eps_contraction(f) -> np.ndarray:
    """Levi-Civita contraction eps^{mu nu rho sigma} tr(F_mn F_rs) / 2
    for stored-pair curvature stacks f (6, B, D, D), returning (B,).

    The 24 permutations collapse onto the three complementary pair
    partitions with weight 8: 8 [tr(F01 F23) - tr(F02 F13) +
    tr(F03 F12)]. The caller supplies any density-weight factor; this
    helper returns half the contraction (weight 4 per partition) so the
    weighted variant below can share the combinatorics.
    """
    def t2(a, b):
        return np.einsum("bij,bji->b", f[a], f[b], optimize=True)

    return 4.0 * (t2(_P01, _P23) - t2(_P02, _P13) + t2(_P03, _P12))


def _eps_contraction_weighted(f, lam) -> np.ndarray:
    """eps^{mu nu rho sigma} tr(rho F_mn F_rs) for eigenbasis curvature
    stacks f (6, B, N, N) and rho = diag(lam), lam (B, N). Both orders
    of each product survive, as an anticommutator, because rho need not
    commute with F: sum_i lam_i {F_a, F_b}_ii = sum_ik (lam_i + lam_k)
    F_a,ik F_b,ki."""
    pair_weight = lam[:, :, None] + lam[:, None, :]

    def t2(a, b):
        return np.einsum("bik,bik,bki->b", pair_weight, f[a], f[b], optimize=True)

    return 4.0 * (t2(_P01, _P23) - t2(_P02, _P13) + t2(_P03, _P12))


def _ground_integrand(model, pts, beta, tol):
    """Ground-cluster curvature contraction weighted by rho = P / D."""
    f, d = ground_block_curvature_grid(model, pts, tol)
    return _eps_contraction(f) * (2.0 / d)


def _thermal_integrand(model, pts, beta, tol):
    f, lam = uhlmann_curvature_spectral_grid(model, pts, beta, tol)
    return _eps_contraction_weighted(f, lam)


def _pure_integrand(model, pts, beta, tol):
    """Ground-cluster curvature contraction, unweighted."""
    f, _ = ground_block_curvature_grid(model, pts, tol)
    return _eps_contraction(f) * 2.0


# Orientation of the closed-form determinant integrand relative to the
# Levi-Civita route; fixed once by the cross-route calibration run.
_DET_ROUTE_SIGN = -1.0


def _closed_form_second_integrand(model, pts, beta: float, tol) -> np.ndarray:
    """Closed-form second-order integrand for five-component Dirac
    models: det[R, dR/dk_0, ..., dR/dk_3] / |R|^5 weighted by
    tanh^5(beta |R|), up to the route normalization applied by the
    caller. tol is unused: no level grouping enters the closed form."""
    r = model.r_vector_batch(pts)
    cols = [r] + [model.r_gradient_batch(pts, mu) for mu in range(4)]
    mat = np.stack(cols, axis=-1)  # (B, 5, 5): columns R, dR...
    det = np.linalg.det(mat)
    rnorm = np.sqrt((r * r).sum(axis=-1))
    tanh = np.ones_like(rnorm) if math.isinf(beta) else np.tanh(beta * rnorm)
    return _DET_ROUTE_SIGN * det / rnorm**5 * tanh**5


def _check_second_order_grid(grid: GridSpec):
    if any(r < SECOND_ORDER_ACCEPTED_RESOLUTION for r in grid.resolution):
        warnings.warn(
            f"resolution {grid.resolution} below "
            f"{SECOND_ORDER_ACCEPTED_RESOLUTION} per dimension; second-order "
            "integrals may miss the stated tolerance",
            ResolutionTooLowWarning,
            stacklevel=3,
        )


def second_thermal_uc(model, beta: float, grid: GridSpec, workers: int = 1,
                      degeneracy_tol: float = DEGENERACY_TOL) -> IntegralResult:
    """Second-order thermal Chern integral -(1/8 pi^2) int tr(rho
    F_U ^ F_U) on the 4D torus.

    Two routes are computed and both reported: (a) the Levi-Civita
    contraction of the full curvature components (exact projector
    kernels at BETA_INF, the closed-form Uhlmann curvature in the energy
    eigenbasis at finite beta), which is the returned value, and (b) the
    model's closed-form determinant integrand, kept as the independent
    check in extra["closed_form_route"]. Route (b) needs the model's Dirac vector
    hooks r_vector_batch and r_gradient_batch; without them the call
    raises MissingModelHook before any grid work.
    """
    _require_grid(model, grid, 4)
    missing = [hook for hook in ("r_vector_batch", "r_gradient_batch") if not hasattr(model, hook)]
    if missing:
        raise MissingModelHook(
            f"the closed-form route needs a Dirac-form model; {type(model).__name__} "
            f"lacks {', '.join(missing)}"
        )
    _check_second_order_grid(grid)
    man = model.manifold
    norm = grid.point_measure * man.orientation / (32.0 * math.pi**2 * man.multiplicity)
    integrand = _ground_integrand if math.isinf(beta) else _thermal_integrand
    total = _map_chunks(integrand, model, grid, beta, degeneracy_tol, workers)
    raw = -total * norm
    closed = _map_chunks(_closed_form_second_integrand, model, grid, beta, degeneracy_tol, workers)
    closed_val = float(
        (closed * grid.point_measure * man.orientation).real
        * 3.0
        / (16.0 * math.pi**2 * man.multiplicity)
    )
    return IntegralResult(
        value=float(raw.real),
        imag_residual=abs(complex(raw).imag),
        extra={
            "beta": beta,
            "order": 2,
            "epsilon_route": float(raw.real),
            "closed_form_route": closed_val,
            "route_disagreement": abs(float(raw.real) - closed_val),
        },
    )


def second_chern_pure(model, grid: GridSpec, workers: int = 1,
                      degeneracy_tol: float = DEGENERACY_TOL) -> IntegralResult:
    """Second Chern number of the ground cluster from its non-abelian
    curvature; near-integer for gapped four-band models."""
    _require_grid(model, grid, 4)
    _check_second_order_grid(grid)
    man = model.manifold
    total = _map_chunks(_pure_integrand, model, grid, BETA_INF, degeneracy_tol, workers)
    raw = -total * grid.point_measure * man.orientation / (32.0 * math.pi**2 * man.multiplicity)
    return IntegralResult(float(raw.real), abs(raw.imag), extra={"order": 2, "pure": True})


# ---------------------------------------------------------------------------
# Lattice plaquette oracle
# ---------------------------------------------------------------------------


def _normalize_group(group) -> tuple[int, ...]:
    if np.isscalar(group):
        return (int(group),)
    g = tuple(sorted(int(i) for i in group))
    if g != tuple(range(g[0], g[-1] + 1)):
        raise GapClosed(f"band group {g} is not contiguous in energy order")
    return g


def _frame_grid(model, pts, group, degeneracy_tol):
    """Eigenvector frames of a band group over a point batch. A
    neighbouring level touches the group where it shares the group's
    cluster (linalg.cluster_labels, the rule of the geometry kernels) or
    where their gap is at or below GAP_FLOOR."""
    w, v = eigh_batch(model.hamiltonian_batch(pts))
    lo, hi = group[0], group[-1]
    if lo < 0 or hi >= w.shape[1]:
        raise DegenerateBand(f"band group {group} outside the levels 0..{w.shape[1] - 1}")
    # touch[:, k]: level k + 1 touches level k
    touch = (np.diff(cluster_labels(w, degeneracy_tol)) == 0) | (np.diff(w) <= GAP_FLOOR)
    if lo > 0 and bool(touch[:, lo - 1].any()):
        raise GapClosed("band group touches the level below somewhere on the grid")
    if hi + 1 < w.shape[1] and bool(touch[:, hi].any()):
        raise GapClosed("band group touches the level above somewhere on the grid")
    return v[:, :, lo : hi + 1]


def _link_phases(frames_a, frames_b):
    """Unimodular overlap determinants between two frame stacks."""
    ov = np.einsum("...ji,...jk->...ik", frames_a.conj(), frames_b, optimize=True)
    det = np.linalg.det(ov)
    mag = np.abs(det)
    if float(mag.min()) < 1e-12:
        raise NonIntegerPlaquetteSum(
            "vanishing link overlap; refine the grid or check the gap"
        )
    return det / mag


def pure_chern_fhs(model, group, grid: GridSpec, degeneracy_tol: float = DEGENERACY_TOL) -> int:
    """Integer Chern number of a band or ground group from plaquette
    phases of frame-overlap links on the grid.

    Torus charts wrap with the model's boundary twist; sphere charts
    are closed by adding the two exact pole rows, whose intra-row links
    are identities. The plaquette-phase sum must land within 0.05 of an
    integer multiple of 2 pi times the cover multiplicity.
    """
    _require_grid(model, grid, 2)
    group = _normalize_group(group)
    man = model.manifold
    nx, ny = grid.resolution
    if man.kind == "sphere":
        theta = np.concatenate([[0.0], grid.axis(0), [math.pi]])
        phi = grid.axis(1)
        pts = np.column_stack([np.repeat(theta, phi.size), np.tile(phi, theta.size)])
        psi = _frame_grid(model, pts, group, degeneracy_tol).reshape(
            theta.size, phi.size, -1, len(group)
        )
        ux = _link_phases(psi[:-1], psi[1:])  # along theta, rows closed by poles
        uy = _link_phases(psi, np.roll(psi, -1, axis=1))  # along phi, periodic
        plaq = ux * uy[1:] * np.roll(ux, -1, axis=1).conj() * uy[:-1].conj()
    else:
        pts = grid.points_range(0, grid.n_points)
        psi = _frame_grid(model, pts, group, degeneracy_tol).reshape(
            nx, ny, -1, len(group)
        )
        # Seam frames beyond the cell are the twisted copies of the
        # first row/column; with constant commuting twists, rolling the
        # link arrays then reproduces every seam and corner link.
        wx = model.boundary_twist(0)
        wy = model.boundary_twist(1)
        psi_x_next = np.roll(psi, -1, axis=0)
        psi_x_next[-1] = np.einsum("ij,bjk->bik", wx, psi[0], optimize=True)
        psi_y_next = np.roll(psi, -1, axis=1)
        psi_y_next[:, -1] = np.einsum("ij,bjk->bik", wy, psi[:, 0], optimize=True)
        ux = _link_phases(psi, psi_x_next)
        uy = _link_phases(psi, psi_y_next)
        plaq = ux * np.roll(uy, -1, axis=0) * np.roll(ux, -1, axis=1).conj() * uy.conj()
    total = float(np.angle(plaq).sum())
    # The loop product winds opposite to the (i / 2 pi) integral
    # convention used everywhere else (links exponentiate +A while the
    # integral weighs F by +i), hence the leading minus.
    value = -man.orientation * total / (2.0 * math.pi * man.multiplicity)
    if not math.isfinite(value):
        raise NonFiniteInput(f"plaquette sum is {value}")
    nearest = round(value)
    if abs(value - nearest) > PLAQUETTE_INTEGER_TOL:
        raise NonIntegerPlaquetteSum(
            f"plaquette sum {value:.6f} is {abs(value - nearest):.3f} from an integer"
        )
    return int(nearest)


# ---------------------------------------------------------------------------
# Temperature sweeps
# ---------------------------------------------------------------------------


def beta_from_temperature(t_over_r0: float, r0: float) -> float:
    """Inverse temperature 1 / (T R0) for a temperature in units of the
    model's energy scale R0; T = 0 is BETA_INF. Raises NonFiniteInput
    when a positive T R0 underflows to zero."""
    if t_over_r0 == 0.0:
        return BETA_INF
    scale = t_over_r0 * r0
    if scale == 0.0:
        raise NonFiniteInput(f"beta = 1 / (T R0) overflows at T/R0 = {t_over_r0!r}, R0 = {r0!r}")
    return 1.0 / scale


def _diagnostic_points(grid: GridSpec, count: int = 12) -> np.ndarray:
    n = grid.n_points
    idx = np.unique(np.linspace(0, n - 1, min(count, n)).astype(int))
    return np.concatenate([grid.points_range(i, i + 1) for i in idx])


def temperature_sweep(model, temperatures, grid: GridSpec, order: int = 1,
                      workers: int = 1, degeneracy_tol: float = DEGENERACY_TOL) -> SweepResult:
    """Thermal Chern number across a scan of temperatures (in units of
    the model's energy scale R0), with per-temperature diagnostics.

    Each temperature records the integral's imaginary residual, the
    maximum curvature-trace magnitude over a fixed point sample
    (tracelessness check), and a route disagreement: first order
    compares the spectral trace against Tr(rho F) with the
    finite-difference curvature at the sample points; second order
    compares the two integral routes.
    """
    temps = [float(t) for t in temperatures]
    if not temps:
        raise ValueError("temperatures: empty")
    if any(t <= 0 for t in temps) or any(t2 <= t1 for t1, t2 in zip(temps, temps[1:])):
        raise ValueError("temperatures must be positive and strictly ascending")
    if order not in (1, 2):
        raise ValueError("order must be 1 or 2")
    r0 = model.r0
    sample = _diagnostic_points(grid)
    values = []
    diags = []
    for t in temps:
        beta = beta_from_temperature(t, r0)
        if order == 1:
            res = first_thermal_uc(model, beta, grid, workers, degeneracy_tol)
            f, rho = uhlmann_curvature_grid(model, sample, beta, None, degeneracy_tol)
            traces = np.einsum("pbii->pb", f)
            spectral = thermal_trace_grid(model, sample, beta, degeneracy_tol)
            weighted = np.einsum("bij,pbji->pb", rho, f)
            disagreement = float(np.abs(weighted - spectral).max())
            trace_residual = float(np.abs(traces).max())
        else:
            res = second_thermal_uc(model, beta, grid, workers, degeneracy_tol)
            f, _ = uhlmann_curvature_grid(model, sample, beta, None, degeneracy_tol)
            trace_residual = float(np.abs(np.einsum("pbii->pb", f)).max())
            disagreement = res.extra["route_disagreement"]
        values.append(res.value)
        diags.append(
            {
                "T_over_R0": t,
                "beta": beta,
                "imag_residual": res.imag_residual,
                "max_trace_residual": trace_residual,
                "route_disagreement": disagreement,
            }
        )
    return SweepResult(
        model=model_id(model),
        order=order,
        temperatures=tuple(temps),
        values=tuple(values),
        grid=grid,
        diagnostics=tuple(diags),
    )
