"""Connections and curvatures for pure bands and thermal states.

Pure-state objects (Berry and Wilczek-Zee curvature, the projected
zero-temperature limit) and mixed-state objects (Uhlmann connection by
two independent routes, Uhlmann curvature, thermally weighted curvature
traces) share one computational backbone: eigenbasis tangent matrices
T_jk = <j|dH|k> / (E_k - E_j) built from analytic Hamiltonian
gradients. No eigenvector is ever differentiated across parameter
points, so every quantity is manifestly phase-choice independent.

Grid-scale callers use the *_grid functions, which batch whole chunks of
points through stacked eigendecompositions, or through the model's exact
eigenframe_batch when it has one; the per-point operations run them on a
batch of one point (uhlmann_connection_sqrt_fd, the independent route,
excepted). Each spectral pass holds one (d, B, N, N) stack: the tangents
overwrite the frame's g where it is writeable. One rule, _blocks, caps
every block of a batched pass at BLOCK_ENTRIES entries: the first-order
passes walk a chunk in blocks of d N^2 tangent entries a point
(_spectral_blocks, by the model's n_levels), _commutators at (dN)^2 a
point and _trace_pairs at B N (N - 1) / 2 a beta. One rule, _ranges, cuts
every range list, the chunk engine's too. Levels are grouped by one rule,
linalg.cluster_labels: the ground cluster, the zero-temperature weights
and the degeneracy mask all come from it. The pure-state
curvatures (Berry, Wilczek-Zee, the ground block) are blocks of one
kernel, _cluster_curvature, on a run's rows cut out before its products
(_run_rows); one gap rule, _require_isolated, decides for them and for
the lattice oracle whether a run is isolated.

The thermal (Uhlmann) curvature F = dA + A^A has two implementations.
The closed form differentiates the spectral connection from one point's
eigen-data in two halves, which the sweep diagnostics use, and the
second-order integrals where a chunk's spectra are not two-valued:
the temperature-independent curvature_frame_grid (tangents and their
commutators, the curl of the tangents by the Maurer-Cartan equation) once
per batch, and uhlmann_curvature_from_frame (assembled in place) per beta;
both take their products from _commutators, one block product per _blocks block.
uhlmann_curvature_grid differences connection_grid on a central stencil,
as its independent cross-check; uhlmann_curvature's spectral route is its
batch of one.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateBand,
    GapClosed,
    InvalidArgument,
    NotMaximalCluster,
    StepTooLarge,
    VanishingDenominatorWarning,
    warn,
)
from .linalg import (
    DEGENERACY_TOL,
    _eigenbasis_gradients,
    _group_eigenvalues,
    cluster_labels,
    commutator,
    eigh_batch,
    psd_sqrt,
)
from .models import _integer, _point, _points, _require_beta, thermal_state, weights_batch

# Pairs with combined density-matrix weight at or below this are dropped
# from the finite-difference connection; the commutator numerator
# carries sqrt-weight factors that vanish faster than the denominator.
WEIGHT_PAIR_FLOOR = 1e-300

# Minimum spectral gap for treating a band or cluster as isolated.
GAP_FLOOR = 1e-8

# Default finite-difference step, as a fraction of the smallest cell
# extent; steps above a tenth of the cell are rejected outright.
FD_STEP_FRACTION = 1e-4
FD_STEP_LIMIT_FRACTION = 0.1

BLOCK_ENTRIES = 1 << 16  # complex entries per block of any batched pass (1 MiB), in _blocks


def direction_pairs(dim: int) -> tuple[tuple[int, int], ...]:
    """Ordered coordinate pairs (mu, nu) with mu < nu, lexicographic."""
    return tuple((m, n) for m in range(dim) for n in range(m + 1, dim))


def _anti_hermiticity_defect(a) -> float:
    """max |a + a^dagger| over a stack (n, N, N), relative to max |a|."""
    scale = np.abs(a).max()
    return 0.0 if scale == 0.0 else float(np.abs(a + a.conj().transpose(0, 2, 1)).max() / scale)


@dataclass(frozen=True)
class ConnectionField:
    """Components A_mu of a matrix-valued 1-form at one point.

    components has shape (n_dirs, N, N); each matrix is anti-Hermitian.
    dropped_pairs counts eigenvalue pairs discarded by the
    finite-difference route's vanishing-denominator guard (always 0 for
    the spectral route).
    """

    components: np.ndarray
    dropped_pairs: int = 0

    def __post_init__(self):
        self.components.setflags(write=False)

    @property
    def dim(self) -> int:
        return self.components.shape[-1]

    @property
    def n_dirs(self) -> int:
        return self.components.shape[0]

    def component(self, mu: int) -> np.ndarray:
        return self.components[mu]

    def anti_hermiticity_defect(self) -> float:
        return _anti_hermiticity_defect(self.components)


@dataclass(frozen=True)
class CurvatureComponents:
    """Components F_{mu nu} of a matrix-valued 2-form at one point.

    Only mu < nu is stored (pairs lists them); the reversed component
    is the negative. basis, when set, holds the column eigenvectors
    that define the matrix indices of subspace-restricted curvatures.
    Their gauge is that of the model's frame (_frame_data).
    """

    pairs: tuple[tuple[int, int], ...]
    matrices: np.ndarray
    basis: np.ndarray | None = None

    def __post_init__(self):
        self.matrices.setflags(write=False)

    def component(self, mu: int, nu: int) -> np.ndarray:
        if mu == nu:
            return np.zeros_like(self.matrices[0])
        if (mu, nu) in self.pairs:
            return self.matrices[self.pairs.index((mu, nu))]
        if (nu, mu) in self.pairs:
            return -self.matrices[self.pairs.index((nu, mu))]
        raise KeyError((mu, nu))

    def scalar(self, mu: int, nu: int) -> complex:
        """The (mu, nu) component collapsed to a scalar; only valid for
        one-dimensional (abelian) curvatures."""
        c = self.component(mu, nu)
        if c.shape != (1, 1):
            raise InvalidArgument("scalar() needs a 1x1 curvature block")
        return complex(c[0, 0])

    def trace_components(self) -> np.ndarray:
        return np.trace(self.matrices, axis1=-2, axis2=-1)

    def anti_hermiticity_defect(self) -> float:
        return _anti_hermiticity_defect(self.matrices)


# ---------------------------------------------------------------------------
# Batched kernels
# ---------------------------------------------------------------------------


def _ranges(n: int, step: int):
    """Ranges [s, e) over n items in steps of step, in order; one (0, n) for n = 0."""
    return [(s, min(s + step, n)) for s in range(0, n, step)] or [(0, n)]


def _blocks(n: int, entries_per_item: int):
    """_ranges over n items of at most BLOCK_ENTRIES entries each (one item at least)."""
    return _ranges(n, max(1, BLOCK_ENTRIES // max(1, entries_per_item)))


def _gap_mask(w, labels):
    """Level gaps den_jk = E_k - E_j (B, N, N) and the mask of pairs in
    different degenerate clusters, from the cluster_labels of w."""
    den = w[:, None, :] - w[:, :, None]
    return den, labels[:, :, None] != labels[:, None, :]


def _divide_gaps(num, den, keep, out=None) -> np.ndarray:
    """num_jk / (E_k - E_j) off-cluster, zero within a cluster, by one masked real reciprocal
    for all of num (..., B, N, N), as numpy's complex division does; into out if given."""
    return np.multiply(num, np.divide(1.0, den, out=np.zeros(den.shape), where=keep), out=out)


def _commutators(a, pairs) -> np.ndarray:
    """[a_mu, a_nu] per direction pair (P, B, N, N) of a stack a (d, B, N, N): per
    block of points (_blocks, (dN)^2 entries a point) one product (b, dN, N) @ (b, N, dN),
    whose (mu, nu) block a_mu a_nu holds both orders of every pair, each point on its own."""
    d, n = a.shape[0], a.shape[-1]
    out = np.empty((len(pairs),) + a.shape[1:], dtype=np.complex128)
    for s, e in _blocks(a.shape[1], (d * n) ** 2):
        blk = a[:, s:e].swapaxes(0, 1)  # (b, d, N, N)
        b = len(blk)
        full = blk.reshape(b, d * n, n) @ blk.swapaxes(1, 2).reshape(b, n, d * n)
        full = full.reshape(b, d, n, d, n)  # full[:, mu, :, nu] = a_mu a_nu
        for i, (mu, nu) in enumerate(pairs):
            np.subtract(full[:, mu, :, nu], full[:, nu, :, mu], out=out[i, s:e])
    return out


@np.errstate(over="ignore")  # x = +-inf is the exact large-beta limit
def _pair_exponents(w, beta: float):
    """x_jk = beta (E_j - E_k) for eigenvalue batches (B, N), or None at
    zero temperature."""
    return None if math.isinf(beta) else beta * (w[:, :, None] - w[:, None, :])


def _mixing_batch(lam, x=None) -> np.ndarray:
    """Weight-mixing coefficients C_jk = (sqrt l_j - sqrt l_k)^2 /
    (l_j + l_k) for weight batches lam (B, N). Given the pair exponents
    x of a finite beta, C = 1 - sech(x/2) = expm1(-|x|/2)^2 / (1 +
    exp(-|x|)), exact where the weights underflow; otherwise it is read
    off the weights, 0/0 continuing the large-beta limit C -> 1."""
    if x is not None:
        ax = np.abs(x)
        return np.expm1(-0.5 * ax) ** 2 / (1.0 + np.exp(-ax))
    s = np.sqrt(lam)
    num = (s[:, :, None] - s[:, None, :]) ** 2
    den = lam[:, :, None] + lam[:, None, :]
    ok = den > 0
    return np.where(ok, num / np.where(ok, den, 1.0), 1.0)


def _trace_coefficients(lam) -> np.ndarray:
    """c_ik = -(l_i - l_k)^3 / (l_i + l_k)^2 over the level pairs i < k
    (in numpy.triu_indices order) of weight stacks lam (..., N), shape
    (..., N (N - 1) / 2); zero where both weights vanish."""
    i, k = np.triu_indices(lam.shape[-1], 1)
    diff, total = lam[..., i] - lam[..., k], lam[..., i] + lam[..., k]
    q = diff / np.where(total > 0, total, 1.0)
    return -diff * q * q


def _trace_pairs(lam, t, pairs) -> np.ndarray:
    """Weighted curvature traces (K, P, B) for K stacked weight batches
    lam (K, B, N) on one chunk's tangents t (d, B, N, N): sum_ik l_i (4 l_i
    l_k / (l_i + l_k)^2 - 1) Pi_ik with Pi = T_mu o T_nu^T - T_nu o T_mu^T.
    Pi is exactly antisymmetric, so only i < k enters, weighted by
    _trace_coefficients. Pi is formed once per pair; the coefficients are
    built for a block of betas at a time (_blocks, B N (N - 1) / 2 entries
    a beta: 16 betas at once on a 4,096-point two-level chunk), and a plain
    einsum contracts each block, each row bitwise its K = 1 call."""
    i, k = np.triu_indices(lam.shape[-1], 1)
    prods = [t[mu][:, i, k] * t[nu][:, k, i] - t[nu][:, i, k] * t[mu][:, k, i] for mu, nu in pairs]
    out = np.empty((lam.shape[0], len(pairs), lam.shape[1]), dtype=np.complex128)
    for s, e in _blocks(lam.shape[0], lam.shape[1] * i.size):
        coef = _trace_coefficients(lam[s:e])
        for p, prod in enumerate(prods):
            out[s:e, p] = np.einsum("kbm,bm->kb", coef, prod)
    return out


def _frame_data(model, pts):
    """Eigenvalues (B, N), eigenvectors (B, N, N) and eigenbasis
    gradients G = v^dagger dH v (d, B, N, N) for a point batch: from the
    model's exact eigenframe_batch if any (H is then never built), else
    from one stacked eigendecomposition of H; NonFiniteInput on overflow."""
    frame = getattr(model, "eigenframe_batch", None)
    if frame is not None:
        return frame(pts)
    w, v = eigh_batch(model.hamiltonian_batch(pts))
    grads = np.stack([model.gradient_batch(pts, mu) for mu in range(model.dim)])
    return w, v, _eigenbasis_gradients(v, grads)


def _spectral_data(model, pts, degeneracy_tol):
    """(w, v, de, labels, keep, t) of a point batch: its frame, de = diag(g).real (d, B, N), the
    labels of w, the off-cluster mask and tangents, divided in g itself if writeable (one stack)."""
    w, v, g = _frame_data(model, np.asarray(pts, dtype=np.float64))
    labels = cluster_labels(w, degeneracy_tol)
    den, keep = _gap_mask(w, labels)
    de = np.diagonal(g, axis1=-2, axis2=-1).real.copy()
    own = g.flags.writeable and g.dtype == np.result_type(g, den)  # same bits in place
    return w, v, de, labels, keep, _divide_gaps(g, den, keep, out=g if own else None)


def _spectral_blocks(model, n: int):
    """Ranges [s, e) over n points, one first-order spectral pass each: _blocks of d N^2
    tangent entries a point by the model's n_levels N, else one."""
    levels = getattr(model, "n_levels", None)
    return _blocks(n, model.dim * levels * levels) if levels else [(0, n)]


def spectral_data_grid(model, pts, beta, degeneracy_tol: float = DEGENERACY_TOL):
    """Eigen-data bundle for a point batch from one _spectral_data pass: (w, v, lam, t)
    with shapes (B, N), (B, N, N), (B, N), (d, B, N, N), v in _frame_data's gauge.
    beta may also be a flat, non-empty sequence of K betas: lam then has
    shape (K, B, N), one weight batch per beta on the same eigen-data.
    """
    if np.ndim(beta) > 1 or np.size(beta) == 0:
        raise InvalidArgument(f"beta {beta!r} is neither a number nor a flat, non-empty sequence")
    w, v, _, labels, _, t = _spectral_data(model, pts, degeneracy_tol)
    lam = np.stack([weights_batch(w, b, labels) for b in np.ravel(beta)])
    return w, v, (lam if np.ndim(beta) else lam[0]), t


def thermal_trace_grid(model, pts, beta, degeneracy_tol: float = DEGENERACY_TOL) -> np.ndarray:
    """Tr(rho F_U)_{mu nu} scalars over a point batch, shape (P, B); for a sequence of K betas,
    shape (K, P, B), from one spectral_data_grid pass and one _trace_pairs call per
    _spectral_blocks block, each row bitwise its single-beta call."""
    pts, pairs = _points(pts, model.dim), direction_pairs(model.dim)
    traces = np.empty((np.size(beta), len(pairs), len(pts)), dtype=np.complex128)
    for s, e in _spectral_blocks(model, len(pts)):
        _, _, lam, t = spectral_data_grid(model, pts[s:e], beta, degeneracy_tol)
        traces[:, :, s:e] = _trace_pairs(lam if np.ndim(beta) else lam[None], t, pairs)
    return traces if np.ndim(beta) else traces[0]


def connection_grid(model, pts, beta: float, degeneracy_tol: float = DEGENERACY_TOL) -> np.ndarray:
    """Spectral-route Uhlmann connection components over a point batch,
    shape (d, B, N, N), in the original (not eigen-) basis: A = v (-C o T)
    v^dagger with C the weight-mixing coefficients and T the tangents."""
    _require_beta(beta)  # one real number, not a sequence of them
    w, v, lam, t = spectral_data_grid(model, pts, beta, degeneracy_tol)
    c = _mixing_batch(lam, _pair_exponents(w, beta))
    return np.einsum("bij,dbjk,blk->dbil", v, -c[None] * t, v.conj(), optimize=True)


def curvature_frame_grid(model, pts, degeneracy_tol: float = DEGENERACY_TOL, data=None):
    """The temperature-independent half of the closed-form Uhlmann
    curvature: (w, labels, t, delta, keep, tt) with w (B, N) and its
    cluster labels, the tangents t (d, B, N, N), the energy-derivative
    gaps delta (d, B, N, N), the off-cluster mask keep (B, N, N), and per
    direction pair the commutator tt = [T_mu, T_nu] (P, B, N, N) from
    _commutators. data, the _spectral_data of pts if the caller has it,
    spares a second spectral pass."""
    w, _, de, labels, keep, t = _spectral_data(model, pts, degeneracy_tol) if data is None else data
    delta = de[:, :, :, None] - de[:, :, None, :]
    return w, labels, t, delta, keep, _commutators(t, direction_pairs(model.dim))


def uhlmann_curvature_from_frame(frame, beta: float):
    """Uhlmann curvature in closed form, in the energy eigenbasis, at one
    beta from a curvature_frame_grid result: returns (f, lam) with f
    (P, B, N, N) holding v^dagger F_{mu nu} v and lam (B, N) the thermal
    weights, so that rho = diag(lam) in the same basis.

    Differentiates the spectral connection M = -C o T in the parallel
    gauge, where v^dagger dv equals T off-cluster and vanishes inside
    degenerate clusters. With C = 1 - sech(x/2), x_jk = beta (E_j - E_k),
    K = T + M and keep the off-cluster mask,

        F = [K_mu, K_nu] - (1 - C o keep) o [T_mu, T_nu]
            - (d_mu C o T_nu - d_nu C o T_mu),

    where d_mu C = (beta/2) sech(x/2) tanh(x/2) Delta_mu, Delta_mu,jk =
    d_mu E_j - d_mu E_k and d_mu E_j = Re (v^dagger d_mu H v)_jj. The
    curl of T comes from the Maurer-Cartan equation d(v^dagger dv) +
    (v^dagger dv)^(v^dagger dv) = 0: off-cluster, (d_mu T_nu -
    d_nu T_mu)_jk = -[T_mu, T_nu]_jk, and inside a cluster it vanishes.
    Only the eigen-data of one evaluation of H and dH per point enter: no
    finite differences, no Hessians. The d C terms are assembled in place
    through one (B, N, N) buffer.
    """
    w, labels, t, delta, keep, tt = frame
    lam = weights_batch(w, beta, labels=labels)
    x = _pair_exponents(w, beta)
    pairs = direction_pairs(t.shape[0])
    c = _mixing_batch(lam, x)
    f = _commutators((1.0 - c) * t, pairs)  # [K_mu, K_nu] with K = T + M
    f -= (1.0 - c * keep) * tt  # the curl of T vanishes in a cluster, where C may be 1
    if x is not None:  # C is piecewise constant at zero temperature
        # (beta/2) sech(x/2) with sech(x/2) = 2e / (1 + e^2), e = exp(-|x|/2):
        # no overflow at any finite x.
        e = np.exp(-0.5 * np.abs(x))
        dc = (beta * e / (1.0 + e * e) * np.tanh(0.5 * x)) * delta
        buf = np.empty(f.shape[1:], dtype=np.complex128)
        for i, (mu, nu) in enumerate(pairs):
            f[i] -= np.multiply(dc[mu], t[nu], out=buf)
            f[i] += np.multiply(dc[nu], t[mu], out=buf)
    return f, lam


def _require_isolated(w, labels, lo, hi, error) -> None:
    """The one gap rule: raises error unless, at every point of spectra
    w (B, N) with cluster labels (B, N), the level next to each end of
    the run lo..hi-1 has another label and lies more than GAP_FLOOR away."""
    for k, edge in ((lo - 1, lo), (hi, hi - 1)):  # each neighbour and the run's level next to it
        if 0 <= k < w.shape[1] and ((labels[:, k] == labels[:, edge])
                                    | (np.abs(w[:, k] - w[:, edge]) <= GAP_FLOOR)).any():
            raise error(f"levels {lo}..{hi - 1} touch level {k}: one cluster, "
                        f"or a gap at or below {GAP_FLOOR:.0e}")


def _run_rows(t, lo, hi) -> np.ndarray:
    """The rows lo..hi-1 of tangents t (d, B, N, N) at their outer columns, (d, B, n, N - n)."""
    return np.delete(t[:, :, lo:hi], slice(lo, hi), axis=-1)


def _cluster_curvature(tg) -> np.ndarray:
    """Curvature (P, B, n, n) of a run of levels from its rows tg = _run_rows(t, lo, hi):
    F_ab = -sum_k (T^mu_ak T^nu_kb - (mu <-> nu)) over every k outside the run. As
    T_kb = -conj(T_bk) there, F = M - M^dagger with M = sum_k T^mu_ak conj(T^nu_bk),
    summed over k (faster than matmul on small blocks)."""
    tc = tg.conj()
    pairs = direction_pairs(tg.shape[0])
    f = np.empty((len(pairs), tg.shape[1], tg.shape[2], tg.shape[2]), dtype=np.complex128)
    for i, (mu, nu) in enumerate(pairs):  # zero for a run of all levels, which has no k
        m = sum((tg[mu, :, :, None, k] * tc[nu, :, None, :, k] for k in range(tg.shape[-1])),
                np.zeros(f.shape[1:], dtype=np.complex128))
        f[i] = m - m.conj().swapaxes(-1, -2)
    return f


def _ground_size(w, labels) -> int:
    """Size D of the ground cluster (labels == 0) of a batch of spectra
    w (B, N) with their cluster labels. Raises GapClosed if D varies over
    the batch, if the cluster is the whole space, or if it is not isolated."""
    sizes = (labels == 0).sum(axis=1)
    d = int(sizes[0])
    if not (sizes == d).all():
        raise GapClosed("ground degeneracy varies across the batch")
    if d == w.shape[1]:
        raise GapClosed("no excited level: the ground cluster is the whole space")
    _require_isolated(w, labels, 0, d, GapClosed)
    return d


def ground_block_curvature_grid(model, pts, degeneracy_tol: float = DEGENERACY_TOL):
    """Zero-temperature curvature restricted to the ground cluster, for
    a whole point batch at once, from its rows cut out of the tangents.

    Returns (f, d) with f of shape (P, B, D, D) and D the common ground
    degeneracy. Raises GapClosed if the cluster size varies over the
    batch or the cluster is not isolated anywhere (_ground_size).
    """
    w, _, _, labels, _, t = _spectral_data(model, pts, degeneracy_tol)
    d = _ground_size(w, labels)
    t = _run_rows(t, 0, d)  # the full stack is freed before the block's products
    return _cluster_curvature(t), d


def _fd_shift_stack(p, h, dim) -> np.ndarray:
    """Points p (..., d) and their 2*dim central-difference shifts, (2 dim + 1, ..., d)."""
    p = np.asarray(p, dtype=np.float64)
    stack = np.repeat(p[None], 2 * dim + 1, axis=0)
    for mu in range(dim):
        stack[1 + 2 * mu, ..., mu] += h
        stack[2 + 2 * mu, ..., mu] -= h
    return stack


def _default_step(model, h) -> float:
    scale = min(model.manifold.cell)
    if h is None:
        h = FD_STEP_FRACTION * scale
    if not 0 < h <= FD_STEP_LIMIT_FRACTION * scale:
        raise StepTooLarge(
            f"step {h!r} outside (0, {FD_STEP_LIMIT_FRACTION * scale:.3e}] "
            "(a tenth of the smallest cell extent)"
        )
    return float(h)


def _curvature_from_stack(a_stack, h, dim, pairs):
    """Assemble F = dA + A^A from connection fields evaluated on a
    _fd_shift_stack layout. a_stack has shape (2 dim + 1, d, ..., N, N)
    where ... are optional batch axes; returns (P, ..., N, N)."""
    da = (a_stack[1::2] - a_stack[2::2]) / (2.0 * h)  # da[mu][nu] = d_mu A_nu
    a0 = a_stack[0]
    return np.stack([da[mu][nu] - da[nu][mu] + commutator(a0[mu], a0[nu]) for mu, nu in pairs])


def uhlmann_curvature_grid(
    model, pts, beta: float, h: float | None = None, degeneracy_tol: float = DEGENERACY_TOL
) -> np.ndarray:
    """Uhlmann curvature components F (P, B, N, N) over a point batch, in
    the original basis, by central finite differences of connection_grid:
    all 2 dim + 1 evaluation points of the batch go through one call, so
    one spectral pass. The cross-check of the closed form (curvature_frame_grid
    and uhlmann_curvature_from_frame), which the integrals use.
    """
    h = _default_step(model, h)
    stack = _fd_shift_stack(pts, h, model.dim)  # (2 dim + 1, B, d)
    a = connection_grid(model, stack.reshape(-1, stack.shape[-1]), beta, degeneracy_tol)
    a = a.reshape(a.shape[:1] + stack.shape[:-1] + a.shape[2:]).swapaxes(0, 1)
    return _curvature_from_stack(a, h, model.dim, direction_pairs(model.dim))


# ---------------------------------------------------------------------------
# Per-point operations
# ---------------------------------------------------------------------------


def _sorted_group(group) -> tuple[int, ...]:
    """A level index, or a collection of distinct ones, as a sorted index tuple."""
    indices = (group,) if np.isscalar(group) or not np.iterable(group) else tuple(group)
    g = tuple(sorted(_integer(i, "level index") for i in indices))
    if len(set(g)) < len(g):
        raise InvalidArgument(f"level indices {group!r} repeat a level")
    return g


def berry_curvature(model, p, band: int = 0,
                    degeneracy_tol: float = DEGENERACY_TOL) -> CurvatureComponents:
    """Abelian curvature of one isolated band (else DegenerateBand).

    F_{mu nu} = -sum_{k != band} (T^mu_bk T^nu_kb - T^nu_bk T^mu_kb),
    purely imaginary.
    """
    w, _, _, labels, _, t = _spectral_data(model, [p], degeneracy_tol)
    band = _integer(band, "band index")
    if not 0 <= band < w.shape[1]:
        raise DegenerateBand(f"band index {band} outside 0..{w.shape[1] - 1}")
    _require_isolated(w, labels, band, band + 1, DegenerateBand)
    f = _cluster_curvature(_run_rows(t, band, band + 1))[:, 0]
    return CurvatureComponents(direction_pairs(model.dim), f)


def wz_curvature(model, p, group, degeneracy_tol: float = DEGENERACY_TOL) -> CurvatureComponents:
    """Non-abelian curvature of a maximal degenerate cluster; GapClosed
    unless it is isolated.

    F_{ab, mu nu} = -sum_{k outside} (T^mu_ak T^nu_kb - T^nu_ak T^mu_kb)
    for a, b in the cluster; returned in the cluster eigenbasis (basis
    attribute holds the column vectors).
    """
    w, v, _, labels, _, t = _spectral_data(model, [p], degeneracy_tol)
    group, groups = _sorted_group(group), _group_eigenvalues(labels[0])
    if group not in groups:
        raise NotMaximalCluster(f"index set {group} is not one of the maximal clusters {groups}")
    lo, hi = group[0], group[-1] + 1
    _require_isolated(w, labels, lo, hi, GapClosed)
    f = _cluster_curvature(_run_rows(t, lo, hi))[:, 0]
    return CurvatureComponents(direction_pairs(model.dim), f, basis=v[0, :, lo:hi])


def projector_limit_curvature(model, p, *,
                              degeneracy_tol: float = DEGENERACY_TOL) -> CurvatureComponents:
    """Exact zero-temperature curvature of the ground cluster (label 0),
    computed from projector derivatives: F = dP dP - (swapped),
    restricted to the ground subspace.

    This is the limit object of the thermal curvature, independent of
    any beta; at beta = 0 the thermal curvature itself is zero instead.
    """
    w, v, _, labels, _, t = _spectral_data(model, [p], degeneracy_tol)
    d = _ground_size(w, labels)
    # dP in the eigenbasis: +T on excited-ground entries, -T on
    # ground-excited, zero elsewhere.
    chi = (np.arange(w.shape[1]) < d).astype(np.float64)
    sign = chi[None, :] - chi[:, None]
    pairs = direction_pairs(model.dim)
    mats = _commutators(sign * t, pairs)[:, 0, :d, :d]
    return CurvatureComponents(pairs, mats, basis=v[0, :, :d])


def uhlmann_connection_spectral(model, p, beta: float,
                                degeneracy_tol: float = DEGENERACY_TOL) -> ConnectionField:
    """Uhlmann connection from the spectral formula, A = v (-C o T) v^dagger with C
    the weight-mixing coefficients: connection_grid on a batch of one point."""
    return ConnectionField(connection_grid(model, [p], beta, degeneracy_tol)[:, 0])


def uhlmann_connection_sqrt_fd(model, p, beta: float, h: float | None = None,
                               degeneracy_tol: float = DEGENERACY_TOL) -> ConnectionField:
    """Uhlmann connection from the commutator formula: A_mu has
    eigenbasis entries -<n|[d_mu sqrt(rho), sqrt(rho)]|m> / (l_n + l_m),
    with d_mu sqrt(rho) by central finite differences of psd_sqrt.

    Pairs whose combined weight is at or below 1e-300 are dropped (the
    numerator vanishes faster); their count lands in dropped_pairs and
    triggers a VanishingDenominatorWarning.
    """
    p = np.asarray(p, dtype=np.float64)
    h = _default_step(model, h)
    state = thermal_state(model, p, beta, degeneracy_tol)
    lam = state.weights
    v = state.spectrum.eigenvectors
    sqrho = psd_sqrt(state.rho)
    den = lam[:, None] + lam[None, :]
    keep = den > WEIGHT_PAIR_FLOOR
    dropped = int((~keep).sum())
    if dropped:
        warn(f"dropped {dropped} eigenvalue pairs with combined weight <= {WEIGHT_PAIR_FLOOR:g}",
             VanishingDenominatorWarning)
    comps = np.empty((model.dim, lam.size, lam.size), dtype=np.complex128)
    roots = [psd_sqrt(thermal_state(model, q, beta, degeneracy_tol).rho)
             for q in _fd_shift_stack(p, h, model.dim)[1:]]  # p + h e_0, p - h e_0, p + h e_1, ...
    for mu in range(model.dim):
        dsq = (roots[2 * mu] - roots[2 * mu + 1]) / (2.0 * h)
        num = v.conj().T @ commutator(dsq, sqrho) @ v
        a_tilde = np.where(keep, -num / np.where(keep, den, 1.0), 0.0)
        comps[mu] = v @ a_tilde @ v.conj().T
    return ConnectionField(comps, dropped_pairs=dropped)


def uhlmann_curvature(model, p, beta: float, connection_route: str = "spectral",
                      h: float | None = None,
                      degeneracy_tol: float = DEGENERACY_TOL) -> CurvatureComponents:
    """Uhlmann curvature F = dA + A^A at one point.

    The exterior derivative is a central finite difference of the
    connection field along each coordinate; the field route is either
    "spectral" (default) or "sqrt_fd". The connection is a single-valued
    matrix field (built from the unique sqrt(rho)), so differencing it
    across nearby points is gauge-safe.
    """
    p = _point(p, model.dim)
    h = _default_step(model, h)
    if connection_route == "spectral":
        f = uhlmann_curvature_grid(model, p[None, :], beta, h, degeneracy_tol)
        return CurvatureComponents(direction_pairs(model.dim), f[:, 0])
    if connection_route != "sqrt_fd":
        raise InvalidArgument(f"unknown connection route {connection_route!r}")
    stack_pts = _fd_shift_stack(p, h, model.dim)
    with warnings.catch_warnings():
        warnings.simplefilter("once", VanishingDenominatorWarning)
        fields = [
            uhlmann_connection_sqrt_fd(model, q, beta, degeneracy_tol=degeneracy_tol).components
            for q in stack_pts
        ]
    a_stack = np.stack(fields)
    f = _curvature_from_stack(a_stack, h, model.dim, direction_pairs(model.dim))
    return CurvatureComponents(direction_pairs(model.dim), f)


def thermal_trace_spectral(model, p, beta: float,
                           degeneracy_tol: float = DEGENERACY_TOL) -> np.ndarray:
    """Scalars Tr(rho F_U)_{mu nu} per direction pair, straight from the weighted
    double sum over energy eigenstates: thermal_trace_grid on a batch of one point."""
    _require_beta(beta)  # one real number, not a sequence of them
    return thermal_trace_grid(model, [p], beta, degeneracy_tol)[:, 0]


def weighted_trace(state, curvature: CurvatureComponents) -> np.ndarray:
    """Tr(rho F) per stored pair for a full-space curvature; the
    cross-check partner of thermal_trace_spectral."""
    return np.einsum("ij,pji->p", state.rho, curvature.matrices)
