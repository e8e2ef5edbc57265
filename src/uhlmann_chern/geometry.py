"""Connections and curvatures for pure bands and thermal states.

Pure-state objects (Berry and Wilczek-Zee curvature, the projected
zero-temperature limit) and mixed-state objects (Uhlmann connection by
two independent routes, Uhlmann curvature, thermally weighted curvature
traces) share one computational backbone: eigenbasis tangent matrices
T_jk = <j|dH|k> / (E_k - E_j) built from analytic Hamiltonian
gradients. No eigenvector is ever differentiated across parameter
points, so every quantity is manifestly phase-choice independent.

Grid-scale callers use the *_grid functions, which batch whole chunks
of points through stacked eigendecompositions, or through the model's
exact eigenframe_batch when it has one. The per-point operations run
the same kernels on a batch of one point (uhlmann_connection_sqrt_fd,
the independent route, excepted). Levels are grouped by one rule,
linalg.cluster_labels: the ground cluster, the zero-temperature weights
and the degeneracy mask of the tangent matrices all come from it.

The thermal (Uhlmann) curvature F = dA + A^A has two implementations.
uhlmann_curvature_spectral_grid differentiates the spectral connection
in closed form from the eigen-data of one point, and is what the
integrals use, through its temperature-independent half
(curvature_frame_grid: tangents and their commutators, which give the
curl of the tangents by the Maurer-Cartan equation) and its
per-temperature half (uhlmann_curvature_from_frame), so a temperature
scan builds the first once; the temperature-sweep diagnostics use the
same halves.
uhlmann_curvature_grid and uhlmann_curvature difference the connection
field on a central stencil; they are kept as its independent cross-check.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateBand,
    GapClosed,
    NotMaximalCluster,
    StepTooLarge,
    VanishingDenominatorWarning,
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
from .models import BETA_INF, thermal_state, weights_batch

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

    @property
    def dim(self) -> int:
        return self.matrices.shape[-1]

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
            raise ValueError("scalar() needs a 1x1 curvature block")
        return complex(c[0, 0])

    def trace_components(self) -> np.ndarray:
        return np.trace(self.matrices, axis1=-2, axis2=-1)

    def anti_hermiticity_defect(self) -> float:
        return _anti_hermiticity_defect(self.matrices)


# ---------------------------------------------------------------------------
# Batched kernels
# ---------------------------------------------------------------------------


def _gap_mask(w, labels):
    """Level gaps den_jk = E_k - E_j (B, N, N) and the mask of pairs in
    different degenerate clusters, from the cluster_labels of w."""
    den = w[:, None, :] - w[:, :, None]
    return den, labels[:, :, None] != labels[:, None, :]


def _divide_gaps(num, den, keep) -> np.ndarray:
    """num_jk / (E_k - E_j) off-cluster, zero within a cluster."""
    return np.where(keep, num / np.where(keep, den, 1.0), 0.0)


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
    """coef_ik = l_i (4 l_i l_k / (l_i + l_k)^2 - 1), with the ratio
    read as 0 when both weights vanish."""
    num = 4.0 * lam[:, :, None] * lam[:, None, :]
    den = (lam[:, :, None] + lam[:, None, :]) ** 2
    ok = den > 0
    ratio = np.where(ok, num / np.where(ok, den, 1.0), 0.0)
    return lam[:, :, None] * (ratio - 1.0)


def _trace_pairs(lam, t, pairs) -> np.ndarray:
    """Weighted curvature-trace scalars per direction pair, (P, B)."""
    coef = _trace_coefficients(lam)
    out = np.empty((len(pairs), lam.shape[0]), dtype=np.complex128)
    for i, (mu, nu) in enumerate(pairs):
        fwd = np.einsum("bik,bik,bki->b", coef, t[mu], t[nu], optimize=True)
        rev = np.einsum("bik,bik,bki->b", coef, t[nu], t[mu], optimize=True)
        out[i] = fwd - rev
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


def spectral_data_grid(model, pts, beta, degeneracy_tol: float = DEGENERACY_TOL):
    """Eigen-data bundle for a point batch: (w, v, lam, t) with shapes
    (B, N), (B, N, N), (B, N), (d, B, N, N).

    A model with an eigenframe_batch method supplies its exact
    eigenvalues, eigenvectors and eigenbasis gradients; every other
    model goes through one stacked eigendecomposition of H (_frame_data;
    v is in its gauge). Both paths share the same gap division and
    degeneracy mask, and the cluster labels are computed once per batch.
    beta may also be a sequence of K inverse temperatures: lam then has
    shape (K, B, N), one weight batch per beta on the same eigen-data.
    """
    pts = np.asarray(pts, dtype=np.float64)
    w, v, g = _frame_data(model, pts)
    labels = cluster_labels(w, degeneracy_tol)
    t = _divide_gaps(g, *_gap_mask(w, labels))
    if np.ndim(beta):
        lam = np.stack([weights_batch(w, b, degeneracy_tol, labels) for b in beta])
    else:
        lam = weights_batch(w, beta, degeneracy_tol, labels)
    return w, v, lam, t


def thermal_trace_grid(model, pts, beta, degeneracy_tol: float = DEGENERACY_TOL) -> np.ndarray:
    """Tr(rho F_U)_{mu nu} scalars over a point batch, shape (P, B); for
    a sequence of K betas, shape (K, P, B), from one set of eigen-data."""
    _, _, lam, t = spectral_data_grid(model, pts, beta, degeneracy_tol)
    pairs = direction_pairs(model.dim)
    if np.ndim(beta):
        return np.stack([_trace_pairs(lam_k, t, pairs) for lam_k in lam])
    return _trace_pairs(lam, t, pairs)


def connection_grid(model, pts, beta: float, degeneracy_tol: float = DEGENERACY_TOL) -> np.ndarray:
    """Spectral-route Uhlmann connection components over a point batch,
    shape (d, B, N, N), in the original (not eigen-) basis."""
    w, v, lam, t = spectral_data_grid(model, pts, beta, degeneracy_tol)
    return _connection_from_data(v, _mixing_batch(lam, _pair_exponents(w, beta)), t)


def _connection_from_data(v, c, t) -> np.ndarray:
    """A = v (-C o T) v^dagger, (d, B, N, N), from the eigenvectors, the
    mixing coefficients and the tangent matrices."""
    return np.einsum("bij,dbjk,blk->dbil", v, -c[None] * t, v.conj(), optimize=True)


def curvature_frame_grid(model, pts, degeneracy_tol: float = DEGENERACY_TOL):
    """The temperature-independent half of
    uhlmann_curvature_spectral_grid: (w, labels, t, delta, keep, tt)
    with w (B, N) and its cluster labels, the tangents t (d, B, N, N),
    the energy-derivative gaps delta (d, B, N, N), the off-cluster mask
    keep (B, N, N), and per direction pair the commutator tt =
    [T_mu, T_nu] (P, B, N, N)."""
    pts = np.asarray(pts, dtype=np.float64)
    w, _, g = _frame_data(model, pts)
    labels = cluster_labels(w, degeneracy_tol)
    den, keep = _gap_mask(w, labels)
    t = _divide_gaps(g, den, keep)
    de = np.diagonal(g, axis1=-2, axis2=-1).real
    delta = de[:, :, :, None] - de[:, :, None, :]
    pairs = direction_pairs(model.dim)
    tt = np.empty((len(pairs),) + t.shape[1:], dtype=np.complex128)
    for i, (mu, nu) in enumerate(pairs):
        # Anti-Hermitian T makes the commutator one product: p - p^dagger.
        p = t[mu] @ t[nu]
        tt[i] = p - p.conj().swapaxes(-1, -2)
    return w, labels, t, delta, keep, tt


def uhlmann_curvature_from_frame(frame, beta: float):
    """The temperature-dependent half of uhlmann_curvature_spectral_grid:
    (f, lam) at one beta from a curvature_frame_grid result."""
    w, labels, t, delta, keep, tt = frame
    lam = weights_batch(w, beta, labels=labels)
    x = _pair_exponents(w, beta)
    c = _mixing_batch(lam, x)
    k = (1.0 - c) * t  # T + M
    if x is None:
        dc = np.zeros_like(delta)  # C is piecewise constant at zero temperature
    else:
        # (beta/2) sech(x/2) with sech(x/2) = 2e / (1 + e^2), e = exp(-|x|/2):
        # no overflow at any finite x.
        e = np.exp(-0.5 * np.abs(x))
        dc = (beta * e / (1.0 + e * e) * np.tanh(0.5 * x)) * delta
    ck = 1.0 - c * keep  # the curl of T vanishes in a cluster, where C may be 1
    pairs = direction_pairs(t.shape[0])
    f = np.empty_like(tt)
    for i, (mu, nu) in enumerate(pairs):
        p = k[mu] @ k[nu]  # [K_mu, K_nu] = p - p^dagger
        f[i] = p - p.conj().swapaxes(-1, -2) - ck * tt[i] - (dc[mu] * t[nu] - dc[nu] * t[mu])
    return f, lam


def uhlmann_curvature_spectral_grid(model, pts, beta: float,
                                    degeneracy_tol: float = DEGENERACY_TOL):
    """Uhlmann curvature in closed form, in the energy eigenbasis, over a
    point batch: returns (f, lam) with f (P, B, N, N) holding
    v^dagger F_{mu nu} v and lam (B, N) the thermal weights, so that
    rho = diag(lam) in the same basis.

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
    finite differences, no Hessians. The temperature-independent part is
    curvature_frame_grid, so a scan over temperatures builds it once per
    batch.
    """
    return uhlmann_curvature_from_frame(curvature_frame_grid(model, pts, degeneracy_tol), beta)


def _ground_size(w, lam, gap_floor) -> int:
    """Size D of the ground cluster of a batch of spectra (B, N), read
    off the zero-temperature weights lam (positive exactly on the
    cluster). Raises GapClosed if D varies over the batch, if the
    cluster is the whole space, or if its gap is at or below gap_floor
    anywhere."""
    sizes = (lam > 0).sum(axis=1)
    d = int(sizes[0])
    if not (sizes == d).all():
        raise GapClosed("ground degeneracy varies across the batch")
    if d == w.shape[1]:
        raise GapClosed("no excited level: the ground cluster is the whole space")
    gap = float((w[:, d] - w[:, d - 1]).min())
    if gap <= gap_floor:
        raise GapClosed(f"ground-cluster gap {gap:.3e} at or below {gap_floor:.0e}")
    return d


def ground_block_curvature_grid(
    model, pts, degeneracy_tol: float = DEGENERACY_TOL, gap_floor: float = GAP_FLOOR
):
    """Zero-temperature curvature restricted to the ground cluster, for
    a whole point batch at once.

    Returns (f, d) with f of shape (P, B, D, D) and D the common ground
    degeneracy. Raises GapClosed if the cluster size varies over the
    batch or its gap falls below gap_floor anywhere.
    """
    w, _, lam, t = spectral_data_grid(model, pts, BETA_INF, degeneracy_tol)
    return ground_block_from_data(w, lam, t, gap_floor)


def ground_block_from_data(w, lam, t, gap_floor: float = GAP_FLOOR):
    """ground_block_curvature_grid from spectral_data_grid's w, its
    zero-temperature weights lam and the tangents t."""
    d = _ground_size(w, lam, gap_floor)
    pairs = direction_pairs(t.shape[0])
    tg = t[:, :, :d, d:]  # ground rows, excited columns
    tc = tg.conj()
    f = np.empty((len(pairs), w.shape[0], d, d), dtype=np.complex128)
    for i, (mu, nu) in enumerate(pairs):
        # T_kb = -conj(T_bk) across the gap, so the restricted sum
        # -sum_k (T^mu_ak T^nu_kb - (mu <-> nu)) becomes M - M^dagger
        # with M = tg[mu] tg[nu]^dagger, summed over k (faster than matmul).
        m = sum(tg[mu, :, :, None, k] * tc[nu, :, None, :, k] for k in range(tg.shape[-1]))
        f[i] = m - m.conj().swapaxes(-1, -2)
    return f, d


def _fd_shift_stack(p, h, dim) -> np.ndarray:
    """Center point plus the 2*dim central-difference shifts."""
    p = np.asarray(p, dtype=np.float64)
    stack = np.repeat(p[None, :], 2 * dim + 1, axis=0)
    for mu in range(dim):
        stack[1 + 2 * mu, mu] += h
        stack[2 + 2 * mu, mu] -= h
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
    _fd_shift_stack layout. a_stack has shape (2 dim + 1, ..., d, N, N)
    where ... are optional batch axes; returns (P, ..., N, N)."""
    a0 = a_stack[0]
    out = []
    for mu, nu in pairs:
        d_mu_a_nu = (a_stack[1 + 2 * mu][nu] - a_stack[2 + 2 * mu][nu]) / (2.0 * h)
        d_nu_a_mu = (a_stack[1 + 2 * nu][mu] - a_stack[2 + 2 * nu][mu]) / (2.0 * h)
        out.append(d_mu_a_nu - d_nu_a_mu + commutator(a0[mu], a0[nu]))
    return np.stack(out)


def uhlmann_curvature_grid(
    model, pts, beta: float, h: float | None = None, degeneracy_tol: float = DEGENERACY_TOL
):
    """Uhlmann curvature components and density matrices over a point
    batch, by finite differences: returns (f, rho) with f (P, B, N, N)
    and rho (B, N, N) in the original basis.

    The exterior-derivative part is a central finite difference of the
    spectral-route connection field; all 2 dim + 1 evaluation points of
    the whole batch go through one stacked eigendecomposition, whose
    centre slice also gives rho. This is the cross-check of
    uhlmann_curvature_spectral_grid, which the integrals use.
    """
    pts = np.asarray(pts, dtype=np.float64)
    h = _default_step(model, h)
    dim = model.dim
    n_shift = 2 * dim + 1
    b = pts.shape[0]
    shifts = np.stack([_fd_shift_stack(p, h, dim) for p in pts])  # (B, S, d)
    flat = shifts.transpose(1, 0, 2).reshape(n_shift * b, dim)
    w, v, lam, t = spectral_data_grid(model, flat, beta, degeneracy_tol)
    a_flat = _connection_from_data(v, _mixing_batch(lam, _pair_exponents(w, beta)), t)
    n = a_flat.shape[-1]
    a_stack = a_flat.reshape(dim, n_shift, b, n, n).transpose(1, 0, 2, 3, 4)
    f = _curvature_from_stack(a_stack, h, dim, direction_pairs(dim))
    v, lam = v[:b], lam[:b]  # stack index 0: the centre points
    rho = (v * lam[:, None, :]) @ v.conj().swapaxes(-1, -2)
    return f, rho


# ---------------------------------------------------------------------------
# Per-point operations
# ---------------------------------------------------------------------------


def _point_data(model, p, beta, degeneracy_tol):
    w, v, lam, t = spectral_data_grid(model, np.asarray(p)[None], beta, degeneracy_tol)
    return w[0], v[0], lam[0], t[:, 0]


def berry_curvature(model, p, band: int = 0,
                    degeneracy_tol: float = DEGENERACY_TOL) -> CurvatureComponents:
    """Abelian curvature of one non-degenerate band.

    F_{mu nu} = -sum_{k != band} (T^mu_bk T^nu_kb - T^nu_bk T^mu_kb),
    purely imaginary.
    """
    w, _, _, t = _point_data(model, np.asarray(p, dtype=np.float64), BETA_INF, degeneracy_tol)
    band = int(band)
    if not 0 <= band < w.size:
        raise DegenerateBand(f"band index {band} outside 0..{w.size - 1}")
    gaps = [abs(w[band] - w[k]) for k in (band - 1, band + 1) if 0 <= k < w.size]
    if min(gaps) <= GAP_FLOOR:
        raise DegenerateBand(
            f"band {band} gap {min(gaps):.3e} at or below {GAP_FLOOR:.0e}; "
            "use wz_curvature on the degenerate cluster"
        )
    pairs = direction_pairs(model.dim)
    mats = np.empty((len(pairs), 1, 1), dtype=np.complex128)
    for i, (mu, nu) in enumerate(pairs):
        fwd = np.dot(t[mu][band, :], t[nu][:, band])
        rev = np.dot(t[nu][band, :], t[mu][:, band])
        mats[i, 0, 0] = -(fwd - rev)
    return CurvatureComponents(pairs, mats)


def _point_tangents(sd, grads) -> np.ndarray:
    """Tangent matrices (d, 1, N, N) of a SpectralDecomposition, given
    the dH/dmu matrices at its point."""
    g = np.stack([np.asarray(x, dtype=np.complex128)[None] for x in grads])
    g = _eigenbasis_gradients(sd.eigenvectors[None], g)
    w = sd.eigenvalues[None]
    return _divide_gaps(g, *_gap_mask(w, cluster_labels(w, sd.tolerance)))


def _require_maximal_cluster(group, groups):
    group = tuple(sorted(int(i) for i in group))
    if group not in tuple(map(tuple, groups)):
        raise NotMaximalCluster(
            f"index set {group} is not one of the maximal degenerate clusters {groups}"
        )
    return group


def wz_curvature(model, p, group, degeneracy_tol: float = DEGENERACY_TOL) -> CurvatureComponents:
    """Non-abelian curvature of a maximal degenerate cluster.

    F_{ab, mu nu} = -sum_{k outside} (T^mu_ak T^nu_kb - T^nu_ak T^mu_kb)
    for a, b in the cluster; returned in the cluster eigenbasis (basis
    attribute holds the column vectors).
    """
    w, v, _, t = _point_data(model, p, BETA_INF, degeneracy_tol)
    group = _require_maximal_cluster(group, _group_eigenvalues(w, degeneracy_tol))
    idx = np.array(group)
    rest = np.array([k for k in range(w.size) if k not in group])
    pairs = direction_pairs(model.dim)
    mats = np.empty((len(pairs), idx.size, idx.size), dtype=np.complex128)
    for i, (mu, nu) in enumerate(pairs):
        fwd = t[mu][np.ix_(idx, rest)] @ t[nu][np.ix_(rest, idx)]
        mats[i] = -(fwd - fwd.conj().T)
    return CurvatureComponents(pairs, mats, basis=v[:, idx])


def projector_limit_curvature(model, p, group=None,
                              degeneracy_tol: float = DEGENERACY_TOL) -> CurvatureComponents:
    """Exact zero-temperature curvature of the ground cluster, computed
    from projector derivatives: F = dP dP - (swapped), restricted to
    the ground subspace.

    This is the limit object of the thermal curvature, independent of
    any beta; at beta = 0 the thermal curvature itself is zero instead.
    """
    w, v, lam, t = _point_data(model, p, BETA_INF, degeneracy_tol)
    d = _ground_size(w[None], lam[None], GAP_FLOOR)
    ground = tuple(range(d))
    if group is not None and tuple(sorted(int(i) for i in group)) != ground:
        raise GapClosed(f"requested group {tuple(group)} is not the ground cluster {ground}")
    # dP in the eigenbasis: +T on excited-ground entries, -T on
    # ground-excited, zero elsewhere.
    chi = np.zeros(w.size)
    chi[:d] = 1.0
    sign = chi[None, :] - chi[:, None]
    dp = sign[None, :, :] * t
    pairs = direction_pairs(model.dim)
    mats = np.empty((len(pairs), d, d), dtype=np.complex128)
    for i, (mu, nu) in enumerate(pairs):
        m = dp[mu] @ dp[nu] - dp[nu] @ dp[mu]
        mats[i] = m[:d, :d]
    return CurvatureComponents(pairs, mats, basis=v[:, :d])


def uhlmann_connection_spectral(state, grads) -> ConnectionField:
    """Uhlmann connection from the spectral formula: in the energy
    eigenbasis A_jk = -C_jk T_jk with C the weight-mixing coefficients
    of the thermal occupations; rotated back to the original basis.

    state is a ThermalState; grads is the list of analytic dH/dmu
    matrices at the same point.
    """
    t = _point_tangents(state.spectrum, grads)
    sd = state.spectrum
    c = _mixing_batch(state.weights[None], _pair_exponents(sd.eigenvalues[None], state.beta))
    return ConnectionField(_connection_from_data(sd.eigenvectors[None], c, t)[:, 0])


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
        warnings.warn(
            f"dropped {dropped} eigenvalue pairs with combined weight <= "
            f"{WEIGHT_PAIR_FLOOR:g}",
            VanishingDenominatorWarning,
            stacklevel=2,
        )
    comps = np.empty((model.dim, lam.size, lam.size), dtype=np.complex128)
    for mu in range(model.dim):
        e = np.zeros_like(p)
        e[mu] = h
        plus = psd_sqrt(thermal_state(model, p + e, beta, degeneracy_tol).rho)
        minus = psd_sqrt(thermal_state(model, p - e, beta, degeneracy_tol).rho)
        dsq = (plus - minus) / (2.0 * h)
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
    p = np.asarray(p, dtype=np.float64)
    h = _default_step(model, h)
    if connection_route == "spectral":
        f, _ = uhlmann_curvature_grid(model, p[None, :], beta, h, degeneracy_tol)
        return CurvatureComponents(direction_pairs(model.dim), f[:, 0])
    if connection_route != "sqrt_fd":
        raise ValueError(f"unknown connection route {connection_route!r}")
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


def thermal_trace_spectral(state, grads) -> np.ndarray:
    """Scalars Tr(rho F_U)_{mu nu} per direction pair, straight from the
    weighted double sum over energy eigenstates (no finite differences).
    Purely imaginary up to roundoff.
    """
    t = _point_tangents(state.spectrum, grads)
    return _trace_pairs(state.weights[None], t, direction_pairs(len(t)))[:, 0]


def weighted_trace(state, curvature: CurvatureComponents) -> np.ndarray:
    """Tr(rho F) per stored pair for a full-space curvature; the
    cross-check partner of thermal_trace_spectral."""
    return np.einsum("ij,pji->p", state.rho, curvature.matrices)
