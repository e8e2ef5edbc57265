"""Grid integration of curvature fields into (thermal) Chern numbers.

Engines here turn the pointwise geometry kernels into numbers: the
first-order thermal integral on 2D manifolds, the second-order integral
on the 4D torus (two independent routes; the first contracts the
ground block on two-valued spectra and at zero temperature, else the
closed-form Uhlmann curvature in the energy eigenbasis), the lattice-plaquette
oracle for pure-state Chern numbers, and temperature sweeps with
per-point diagnostics from the same closed-form curvature. Every
integral normalises its chunk sums in one place (_integrate).

Determinism: all grid work goes through one chunk engine, which splits
a grid into fixed-size chunks in row-major order and runs a job on each,
in at most one process pool per call. Each job returns its ground sizes
and one value per column (temperature, or route); the engine checks the
sizes across chunks, and each column of chunk partials, themselves
blocked pairwise numpy sums, is added by the same np.sum in range order.
The lattice oracle passes its own ranges: blocks of whole rows of
its closed layout, sized by the grid alone, each ending on the halo row
after it, whose jobs return their plaquette-angle sums. A sweep
is one pass that evaluates every temperature on each chunk's eigen-data.
Workers move chunks between processes but never change what is summed
in which order, so results are bitwise reproducible at fixed chunking,
and a sweep value equals its single-temperature integral bit for bit.
"""
from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DegenerateBand,
    DimensionMismatch,
    GapClosed,
    InvalidArgument,
    ManifoldMismatch,
    MissingModelHook,
    NonFiniteInput,
    NonIntegerPlaquetteSum,
    ResolutionTooLowWarning,
    warn,
)
from .linalg import DEGENERACY_TOL, cluster_labels, eigh_batch
from .geometry import (
    _cluster_curvature,
    _finite,
    _ground_frame,
    _ground_rows,
    _ground_size,
    _ranges,
    _require_isolated,
    _run_rows,
    _sorted_group,
    _spectral_blocks,
    _spectral_data,
    _trace_pairs,
    curvature_frame_grid,
    direction_pairs,
    ground_block_curvature_grid,
    thermal_trace_grid,
    uhlmann_curvature_from_frame,
)
from .models import BETA_INF, Manifold, _integer, _real, _require_beta, model_id, weights_batch

CHUNK_SIZE = 4096
# Points per lattice-oracle chunk, rounded up to whole grid rows; each
# chunk also builds one halo row.
FHS_BLOCK_POINTS = 4 * CHUNK_SIZE

# How far a plaquette-phase sum may sit from an integer multiple of
# 2 pi before the lattice oracle refuses to round.
PLAQUETTE_INTEGER_TOL = 0.05

MIN_RESOLUTION = 8
SECOND_ORDER_ACCEPTED_RESOLUTION = 16


@dataclass(frozen=True)
class GridSpec:
    """Uniform grid of cell midpoints over a model's parameter manifold.

    No point sits on a sphere's pole. A resolution below 8, not integral
    (8.0 is) or past np.intp's point count raises InvalidArgument.
    """

    manifold: Manifold
    resolution: tuple[int, ...]

    def __post_init__(self):
        res = tuple(_integer(r, "resolution") for r in self.resolution)
        object.__setattr__(self, "resolution", res)
        if len(res) != self.manifold.dim:
            raise DimensionMismatch(
                f"{len(res)} resolutions for a {self.manifold.dim}-dimensional manifold"
            )
        if any(r < MIN_RESOLUTION for r in res):
            raise InvalidArgument(f"resolution below {MIN_RESOLUTION} per dimension")
        if math.prod(res) > np.iinfo(np.intp).max:
            raise InvalidArgument(f"resolution {res} has more points than an index can count")

    @property
    def n_points(self) -> int:
        return math.prod(self.resolution)

    @property
    def point_measure(self) -> float:
        return self.manifold.volume / self.n_points

    def axis(self, d: int) -> np.ndarray:
        h = self.manifold.cell[d] / self.resolution[d]
        return self.manifold.origin[d] + (np.arange(self.resolution[d]) + 0.5) * h

    def points_range(self, start: int, stop: int) -> np.ndarray:
        """Grid points for flat row-major indices [start, stop)."""
        idx = np.unravel_index(np.arange(start, stop), self.resolution)
        return np.column_stack([self.axis(d)[i] for d, i in enumerate(idx)])


class _ClosedGrid:
    """The lattice oracle's layout of a 2D grid: points row-major, each
    axis closed by its seam point (first point plus the cell), except that
    a sphere's rows are theta = 0, the grid's theta axis and pi."""

    def __init__(self, grid: GridSpec):
        rows, cols = grid.axis(0), grid.axis(1)
        rows = (np.concatenate([[0.0], rows, [math.pi]]) if grid.manifold.kind == "sphere"
                else np.append(rows, rows[0] + grid.manifold.cell[0]))
        self.axes = (rows, np.append(cols, cols[0] + grid.manifold.cell[1]))
        self.resolution = (rows.size, cols.size + 1)
        self.n_points = self.resolution[0] * self.resolution[1]

    def points_range(self, start: int, stop: int) -> np.ndarray:
        i, j = np.unravel_index(np.arange(start, stop), self.resolution)
        return np.column_stack([self.axes[0][i], self.axes[1][j]])


def default_grid(model, resolution) -> GridSpec:
    if np.isscalar(resolution):
        resolution = (resolution,) * model.dim
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


def _chunk_job(args):
    job, model, points, params, tol, start, stop = args
    return _finite(job)(model, points.points_range(start, stop), params, tol)


def _map_chunks(job, model, points, params, tol, workers, ranges=None) -> list[tuple]:
    """job(model, points.points_range(start, stop), params, tol) on each
    index range [start, stop) of points (a GridSpec or _ClosedGrid), by
    default its fixed CHUNK_SIZE chunks (_ranges), in range order, in at most
    one process pool of at most one worker per range; module-level jobs, so
    pools pickle them by name. workers follows _integer's rule (2.0 is 2);
    below 1 it raises InvalidArgument. Every job returns (ground sizes,
    *columns): the sizes D it weighed by 1/D, () if none. GapClosed unless
    those agree across chunks, however the grid is chunked; NonFiniteInput if a
    job overflowed (geometry._finite's rule, silently); else the columns, each a
    tuple of one value per range in range order."""
    workers = _integer(workers, "workers")
    if workers < 1:
        raise InvalidArgument(f"workers {workers} is below 1")
    ranges = _ranges(points.n_points, CHUNK_SIZE) if ranges is None else ranges
    jobs = [(job, model, points, params, tol, s, e) for s, e in ranges]
    if workers <= 1:
        results = [_chunk_job(j) for j in jobs]
    else:
        with ProcessPoolExecutor(max_workers=min(workers, len(ranges))) as pool:
            results = list(pool.map(_chunk_job, jobs, chunksize=1))
    sizes, *columns = zip(*results)
    if len(set().union(*sizes)) > 1:
        raise GapClosed("ground degeneracy varies across the batch")
    return columns


def _integrate(job, model, grid: GridSpec, params, workers, tol, scale) -> list[complex]:
    """Runs job over the grid's chunks (_map_chunks), adds each column of
    partials by np.sum's pairwise rule and returns the sums times scale *
    point measure * orientation / cover multiplicity."""
    man = model.manifold
    norm = scale * grid.point_measure * man.orientation / man.multiplicity
    return [complex(np.sum(c)) * norm for c in _map_chunks(job, model, grid, params, tol, workers)]


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


def _map_job(model, pts, betas, tol):
    """The ground walk of one chunk: its ground sizes D (_ground_size's rule), Tr(rho F_U)_01
    per beta (K, B) and the ground cluster's Berry column Tr F_01 (B,), one spectral pass
    per _spectral_blocks block. The Berry rows are cut inline: freeing the block's stack
    first hands its heap back to the system, and the next block faults it in again."""
    traces = np.empty((len(betas), len(pts)), dtype=np.complex128)
    berry, sizes = np.empty(len(pts), dtype=np.complex128), set()
    for s, e in _spectral_blocks(model, len(pts)):
        w, _, _, labels, _, t = _spectral_data(model, pts[s:e], tol)
        lam = np.stack([weights_batch(w, b, labels) for b in betas])
        traces[:, s:e] = _trace_pairs(lam, t, ((0, 1),))[:, 0]
        sizes.add(d := _ground_size(w, labels))
        berry[s:e] = np.trace(_cluster_curvature(_run_rows(t, 0, d))[0], axis1=-2, axis2=-1)
    return tuple(sizes), traces, berry


def _first_order_job(model, pts, betas, tol):
    """The ground sizes D of one chunk (the ground walk's if BETA_INF is among
    betas, else none) and its partials of Tr(rho F_U), one per beta."""
    if BETA_INF not in betas:
        return (), *[complex(np.sum(tr[0])) for tr in thermal_trace_grid(model, pts, betas, tol)]
    sizes, traces, _ = _map_job(model, pts, betas, tol)
    return sizes, *[complex(np.sum(tr)) for tr in traces]


def _first_order_results(model, betas, grid: GridSpec, workers: int, degeneracy_tol: float):
    _require_grid(model, grid, 2)
    for beta in betas if hasattr(model, "_check_thermal_truncation") else ():
        model._check_thermal_truncation(beta, 1e-4)  # criterion 9's tolerance
    totals = _integrate(_first_order_job, model, grid, tuple(betas), workers, degeneracy_tol,
                        1j / (2.0 * math.pi))
    return [IntegralResult(float(raw.real), abs(raw.imag), extra={"beta": beta, "order": 1})
            for beta, raw in zip(betas, totals)]


def first_thermal_uc(model, beta: float, grid: GridSpec, workers: int = 1,
                     degeneracy_tol: float = DEGENERACY_TOL) -> IntegralResult:
    """First-order thermal Chern integral (i / 2 pi) int Tr(rho F_U)
    over the model's 2D cell, by midpoint Riemann sum.

    The cover multiplicity and chart orientation of the model's cell
    are folded in, so values are chart-independent.
    """
    _require_beta(beta)  # one real number, not a sequence of them
    return _first_order_results(model, (beta,), grid, workers, degeneracy_tol)[0]


# ---------------------------------------------------------------------------
# Second order
# ---------------------------------------------------------------------------

_P01, _P02, _P03, _P12, _P13, _P23 = range(6)


def _eps_contraction(f, lam) -> np.ndarray:
    """eps^{mu nu rho sigma} tr(rho F_mn F_rs) for stored-pair curvature
    stacks f (6, B, N, N) and rho = diag(lam), lam (B, N). The 24
    permutations collapse onto the three complementary pair partitions
    with weight 8: 8 [tr(F01 F23) - tr(F02 F13) + tr(F03 F12)] with rho
    inside each trace. Both orders of each product survive, as an
    anticommutator, because rho need not commute with F: sum_i lam_i
    {F_a, F_b}_ii = sum_ik (lam_i + lam_k) F_a,ik F_b,ki."""
    pair_weight = lam[:, :, None] + lam[:, None, :]

    def t2(a, b):
        return np.einsum("bik,bki->b", pair_weight * f[a], f[b])

    return 4.0 * (t2(_P01, _P23) - t2(_P02, _P13) + t2(_P03, _P12))


# Weight of the closed-form determinant integrand that puts it under the
# Levi-Civita route's normalisation (the sign was fixed once by the
# cross-route calibration run).
_DET_ROUTE_WEIGHT = 6.0


def _closed_form_partials(model, pts, betas) -> list[complex]:
    """Partial sums over one chunk, one per beta, of the closed-form second-order
    integrand det[R, dR/dk_0, ..., dR/dk_3] / |R|^5 weighted by tanh^5(beta |R|),
    taken as det[R/|R|, dR/dk_0, ...] |R|^-4 from the model's one hook
    r_determinant_batch. Nothing overflows where |R| is finite: the determinant
    on R/|R| is bounded by the gradients, and |R|^-4 underflows to 0."""
    rnorm, det = model.r_determinant_batch(pts)
    base = _DET_ROUTE_WEIGHT * det * rnorm**-4.0
    with np.errstate(over="ignore"):  # beta |R| = inf: the exact tanh = 1
        return [complex(np.sum(base if math.isinf(beta) else base * np.tanh(beta * rnorm) ** 5))
                for beta in betas]


def _second_order_job(model, pts, betas, tol):
    """The ground size D of one chunk ((D,) if BETA_INF is among betas,
    else ()) and its partials of the Levi-Civita route per beta, then of the
    determinant route per beta. The spectral data come first,
    so a non-finite spectrum raises before the determinant route overflows.

    A partial is sum s dens, dens = eps tr(F_0 F_0) of the ground block at
    unit weight, s = (lam_0 - lam_{N-1}) tanh^4(beta Delta / 2), Delta =
    w[:, -1] - w[:, 0]: at BETA_INF (rho = P / D, s = 1/D, _ground_size's
    rule) and at every beta on a two-valued chunk (the last label 1, each
    level bitwise w[:, 0] or w[:, -1], one D; no gap floor). There T lives
    between the two clusters only, where C = 1 - sech(beta Delta / 2), so
    F_U is tanh^2 times the cluster blocks F_c plus d C terms d_mu Delta o
    T_nu that eps contracts away: eps tr(rho F F) = tanh^4 sum_c p_c eps
    tr(F_c F_c), p_c the weight of cluster c, and tr((dP)^4) = 0 makes the
    excited block's density minus the ground block's for any D on either
    side. With D levels on both, s = tanh^5 / D, the determinant route's
    law. One flag per beta (law) says where it holds. The ground block comes from
    _ground_frame (the ground_block_batch hook, no v) or _ground_rows of the frame,
    which the other betas' curvature_frame_grid reuses, with uhlmann_curvature_from_frame."""
    w, labels, frame, f = _ground_frame(model, pts, tol)
    sizes = (labels == 0).sum(axis=1)
    two_valued = ((labels[:, -1] == 1) & (sizes == sizes[0])).all() and (
        (w == w[:, :1]) | (w == w[:, -1:])).all()
    law = [two_valued or beta == BETA_INF for beta in betas]  # -inf is rejected by the weights
    d = _ground_size(w, labels) if BETA_INF in betas else int(sizes[0])
    if any(law):  # a hookless frame's rows are cut before _spectral_data divides its g in place
        f = _cluster_curvature(_ground_rows(w, labels, frame[2], d)) if f is None else f
        dens = _eps_contraction(f, np.ones(f.shape[1:3]))
    del f  # freed before the determinant route's arrays
    if not all(law):
        frame = curvature_frame_grid(model, pts, tol, _spectral_data(model, pts, tol, frame))
    eps = []
    for beta, ground in zip(betas, law):
        if ground:
            lam = weights_batch(w, beta, labels)
            with np.errstate(over="ignore"):  # beta Delta = inf: the exact tanh = 1
                s = (lam[:, 0] - lam[:, -1]) * np.tanh(0.5 * beta * (w[:, -1] - w[:, 0])) ** 4
            values = s * dens
        else:
            values = _eps_contraction(*uhlmann_curvature_from_frame(frame, beta))
        eps.append(complex(np.sum(values)))
    return (d,) if BETA_INF in betas else (), *eps, *_closed_form_partials(model, pts, betas)


def _pure_job(model, pts, _params, tol):
    """The ground size of one chunk and the partial sum over it of the
    ground-cluster curvature contraction with unit weights."""
    f, d = ground_block_curvature_grid(model, pts, tol)
    return (d,), complex(np.sum(_eps_contraction(f, np.ones(f.shape[1:3]))))


def _check_second_order(model, grid: GridSpec):
    """_require_grid in 4D, then a warning below the accepted resolution."""
    _require_grid(model, grid, 4)
    if any(r < SECOND_ORDER_ACCEPTED_RESOLUTION for r in grid.resolution):
        warn(f"resolution {grid.resolution} below {SECOND_ORDER_ACCEPTED_RESOLUTION} per dimension;"
             " second-order integrals may miss the stated tolerance", ResolutionTooLowWarning)


# -(1/8 pi^2) times the 1/4 of tr(rho F ^ F) = (1/4) eps tr(rho F F) d^4k.
_SECOND_ORDER_SCALE = -1.0 / (32.0 * math.pi**2)


def _second_order_results(model, betas, grid: GridSpec, workers: int, degeneracy_tol: float):
    _check_second_order(model, grid)
    if not hasattr(model, "r_determinant_batch"):
        raise MissingModelHook("the closed-form route needs the hook r_determinant_batch, "
                               f"which {type(model).__name__} lacks")
    sums = _integrate(_second_order_job, model, grid, tuple(betas), workers, degeneracy_tol,
                      _SECOND_ORDER_SCALE)
    out = []
    for beta, raw, closed in zip(betas, sums[:len(betas)], sums[len(betas):]):
        value, closed_val = float(raw.real), float(closed.real)
        extra = {"beta": beta, "order": 2, "epsilon_route": value, "closed_form_route": closed_val,
                 "route_disagreement": abs(value - closed_val)}
        out.append(IntegralResult(value, abs(raw.imag), extra))
    return out


def second_thermal_uc(model, beta: float, grid: GridSpec, workers: int = 1,
                      degeneracy_tol: float = DEGENERACY_TOL) -> IntegralResult:
    """Second-order thermal Chern integral -(1/8 pi^2) int tr(rho
    F_U ^ F_U) on the 4D torus.

    Two routes are computed in one chunk pass and both reported: (a) the
    Levi-Civita contraction of the curvature (the ground block's density
    at BETA_INF and on two-valued spectra, else the closed-form Uhlmann
    curvature in the energy eigenbasis), which is the returned value,
    and (b) the model's closed-form determinant integrand, kept as the
    independent check in extra["closed_form_route"]. Route (b) needs the
    model's one hook r_determinant_batch, |R| and det[R/|R|, dR/dk_0, ...,
    dR/dk_3]; without it the call raises MissingModelHook before any grid work.
    """
    return _second_order_results(model, (beta,), grid, workers, degeneracy_tol)[0]


def second_chern_pure(model, grid: GridSpec, workers: int = 1,
                      degeneracy_tol: float = DEGENERACY_TOL) -> IntegralResult:
    """Second Chern number of the ground cluster from its non-abelian
    curvature; near-integer for gapped four-band models."""
    _check_second_order(model, grid)
    (raw,) = _integrate(_pure_job, model, grid, None, workers, degeneracy_tol, _SECOND_ORDER_SCALE)
    return IntegralResult(float(raw.real), abs(raw.imag), extra={"order": 2, "pure": True})


# ---------------------------------------------------------------------------
# Lattice plaquette oracle
# ---------------------------------------------------------------------------


def _normalize_group(group) -> tuple[int, ...]:
    g = _sorted_group(group)
    if not g:
        raise DegenerateBand("empty band group")
    if g != tuple(range(g[0], g[-1] + 1)):
        raise GapClosed(f"band group {g} is not contiguous in energy order")
    return g


def _frame_grid(model, pts, group, degeneracy_tol):
    """Eigenvector frames of a band group over a point batch; GapClosed
    where a neighbouring level touches the group (geometry's gap rule,
    _require_isolated, on the cluster_labels of the geometry kernels)."""
    w, v = eigh_batch(model.hamiltonian_batch(pts))
    lo, hi = group[0], group[-1] + 1
    if lo < 0 or hi > w.shape[1]:
        raise DegenerateBand(f"band group {group} outside the levels 0..{w.shape[1] - 1}")
    _require_isolated(w, cluster_labels(w, degeneracy_tol), lo, hi, GapClosed)
    return v[:, :, lo:hi].copy()  # a view would keep all of v alive


def _link_phases(frames_a, frames_b):
    """Link overlaps det(a^dagger b) between two frame stacks (..., N, G),
    the overlap itself for one band; the links are their phases."""
    if frames_a.shape[-1] == 1:
        return np.einsum("...ij,...ij->...", frames_a.conj(), frames_b)
    return np.linalg.det(frames_a.conj().swapaxes(-1, -2) @ frames_b)


def _fhs_job(model, pts, params, tol):
    """No ground sizes (it weighs none), the plaquette-angle sum and the smallest
    link |det| over one row block of a _ClosedGrid: whole rows, the last of them
    the halo that closes the block's last plaquette row; params = (group, columns)."""
    group, n_cols = params
    psi = _frame_grid(model, pts, group, tol)
    psi = psi.reshape(-1, n_cols, *psi.shape[1:])
    ux = _link_phases(psi[:-1], psi[1:])
    uy = _link_phases(psi[:, :-1], psi[:, 1:])
    plaq = ux[:, :-1] * uy[1:] * ux[:, 1:].conj() * uy[:-1].conj()
    return (), float(np.angle(plaq).sum()), float(np.minimum(np.abs(ux).min(), np.abs(uy).min()))


def pure_chern_fhs(model, group, grid: GridSpec, workers: int = 1,
                   degeneracy_tol: float = DEGENERACY_TOL, detail: bool = False):
    """Integer Chern number of a band or ground group from plaquette
    phases of frame-overlap links on the grid.

    Closed charts are closed with evaluated points (_ClosedGrid): a torus
    at its seam points k + cell, with no twist hook, since each plaquette
    phase is gauge invariant at every corner; a sphere by its pole rows.
    An open (plane) chart raises ManifoldMismatch; a non-integral or
    repeated index, InvalidArgument. The plaquette-phase sum must land
    within 0.05 of an integer multiple of 2 pi times the cover multiplicity.
    Each chunk job forms the frames, links and plaquettes of a fixed block
    of rows and returns two scalars. detail=True returns a dict: the
    integer "value", the sum before rounding "plaquette_sum", their
    distance "integer_distance" and the smallest link |det| "min_link_det".
    """
    _require_grid(model, grid, 2)
    group = _normalize_group(group)
    man = model.manifold
    if man.kind not in ("sphere", "torus"):
        raise ManifoldMismatch(f"the lattice oracle needs a closed chart, not a {man.kind}")
    layout = _ClosedGrid(grid)
    n_rows, n_cols = layout.resolution
    # Blocks of whole plaquette rows, about FHS_BLOCK_POINTS points each, with one halo row.
    blocks = [(s * n_cols, (e + 1) * n_cols)
              for s, e in _ranges(n_rows - 1, -(-FHS_BLOCK_POINTS // n_cols))]
    sums, dets = _map_chunks(_fhs_job, model, layout, (group, n_cols), degeneracy_tol, workers,
                             blocks)
    min_det = float(np.min(dets))
    if min_det < 1e-12:
        raise NonIntegerPlaquetteSum("vanishing link overlap; refine the grid or check the gap")
    # The loop product winds opposite to the (i / 2 pi) integral
    # convention used everywhere else (links exponentiate +A while the
    # integral weighs F by +i), hence the leading minus.
    value = -man.orientation * float(np.sum(sums)) / (2.0 * math.pi * man.multiplicity)
    nearest = round(value)
    if abs(value - nearest) > PLAQUETTE_INTEGER_TOL:
        raise NonIntegerPlaquetteSum(
            f"plaquette sum {value:.6f} is {abs(value - nearest):.3f} from an integer"
        )
    if detail:
        return {"value": int(nearest), "plaquette_sum": value,
                "integer_distance": abs(value - nearest), "min_link_det": min_det}
    return int(nearest)


# ---------------------------------------------------------------------------
# Temperature sweeps
# ---------------------------------------------------------------------------


def beta_from_temperature(t_over_r0: float, r0: float) -> float:
    """Inverse temperature 1 / (T R0) for a temperature in units of the
    model's energy scale R0; T = 0 is BETA_INF and T = +inf is beta = 0,
    the infinite-temperature limit. Raises InvalidArgument unless the
    temperature is a real number (_real's rule), NonFiniteInput for a NaN
    temperature or T R0, and when a positive T R0 underflows to zero."""
    t_over_r0 = _real(t_over_r0, "temperature")
    if t_over_r0 == 0.0:
        return BETA_INF
    scale = t_over_r0 * r0
    if math.isnan(scale):
        raise NonFiniteInput(f"T R0 is NaN at T/R0 = {t_over_r0!r}, R0 = {r0!r}")
    if scale == 0.0:
        raise NonFiniteInput(f"beta = 1 / (T R0) overflows at T/R0 = {t_over_r0!r}, R0 = {r0!r}")
    return 1.0 / scale


def temperature_sweep(model, temperatures, grid: GridSpec, workers: int = 1,
                      degeneracy_tol: float = DEGENERACY_TOL) -> SweepResult:
    """Thermal Chern number across a scan of temperatures (in units of
    the model's energy scale R0), with per-temperature diagnostics.

    The order is the model's dimension over two: first order on a 2D
    model, second order on a 4D one. All temperatures are integrated in
    one pass over the grid (one process pool at most), and each value
    equals the single-temperature integral bit for bit. The diagnostics
    come from the closed-form Uhlmann curvature F at a fixed sample of 12
    grid points, whose temperature-independent frame is built once (one
    eigenframe batch of the sample). Each temperature records the
    integral's imaginary residual, the maximum |tr F| over the sample
    (tracelessness check), and a route disagreement: first order compares
    Tr(rho F) from F against the spectral trace from the same frame;
    second order compares the two integral routes.
    """
    if not np.iterable(temperatures):
        raise InvalidArgument(f"temperatures {temperatures!r} is not a sequence")
    temps = [_real(t, "temperature") for t in temperatures]
    if not temps:
        raise InvalidArgument("temperatures: empty")
    if any(t <= 0 for t in temps) or any(t2 <= t1 for t1, t2 in zip(temps, temps[1:])):
        raise InvalidArgument("temperatures must be positive and strictly ascending")
    order = model.dim // 2
    betas = [beta_from_temperature(t, model.r0) for t in temps]
    if order == 1:
        results = _first_order_results(model, betas, grid, workers, degeneracy_tol)
    else:
        results = _second_order_results(model, betas, grid, workers, degeneracy_tol)
    idx = np.unique(np.linspace(0, grid.n_points - 1, min(12, grid.n_points)).astype(int))
    sample = np.concatenate([grid.points_range(i, i + 1) for i in idx])
    frame = curvature_frame_grid(model, sample, degeneracy_tol)
    pairs = direction_pairs(model.dim)
    diags = []
    for t, beta, res in zip(temps, betas, results):
        f, lam = uhlmann_curvature_from_frame(frame, beta)
        f_diag = np.diagonal(f, axis1=-2, axis2=-1)  # (P, B, N)
        if order == 1:
            weighted = (f_diag * lam).sum(axis=-1)
            spectral = _trace_pairs(lam[None], frame[2], pairs)[0]  # frame[2]: the tangents
            disagreement = float(np.abs(weighted - spectral).max())
        else:
            disagreement = res.extra["route_disagreement"]
        diags.append({"T_over_R0": t, "beta": beta, "imag_residual": res.imag_residual,
                      "max_trace_residual": float(np.abs(f_diag.sum(axis=-1)).max()),
                      "route_disagreement": disagreement})
    return SweepResult(model_id(model), order, tuple(temps), tuple(res.value for res in results),
                       grid, tuple(diags))
