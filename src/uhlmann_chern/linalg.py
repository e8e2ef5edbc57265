"""Dense Hermitian linear algebra for small complex matrices.

Everything downstream (model Hamiltonians, density matrices, connection
fields) funnels through the routines here: eigendecomposition with
deterministic phase fixing and degeneracy grouping, positive
semidefinite square roots, and unitary exponentials of anti-Hermitian
generators. Functions are pure and never mutate their arguments.
Intended for dense matrices of dimension up to a couple hundred; there
is no sparse or out-of-core path.
"""
from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConvergenceFailure,
    IndefiniteInput,
    InvalidArgument,
    NonAntiHermitianInput,
    NonFiniteInput,
    NonHermitianInput,
)

HERMITICITY_RTOL = 1e-12
DEGENERACY_TOL = 1e-9
PSD_EIGENVALUE_FLOOR = -1e-12


def commutator(a, b):
    """Matrix commutator a@b - b@a."""
    return a @ b - b @ a


def hermiticity_defect(m):
    """Max-entry deviation of m from its conjugate transpose, relative
    to the largest entry magnitude (absolute when m is the zero matrix).

    A stack (..., N, N) gets one defect per matrix, so whether a matrix
    passes never depends on the other matrices in its batch; a stack
    with no deviation at all skips the per-matrix reduction. A
    non-finite entry yields a non-finite defect.
    """
    m = np.asarray(m)
    stack = m.shape[:-2]
    with np.errstate(invalid="ignore"):
        dev = np.abs(m - m.conj().swapaxes(-1, -2))
        if not dev.any():
            defects = np.zeros(stack)
        else:
            defect = dev.max(axis=(-2, -1))
            scale = np.abs(m).max(axis=(-2, -1))
            defects = np.where(scale > 0, defect / np.where(scale > 0, scale, 1.0), defect)
    return defects if stack else float(defects)


def _fix_phases(vecs: np.ndarray) -> np.ndarray:
    """Make the largest-modulus component of each eigenvector column
    real and positive. Accepts stacked (..., N, N) arrays of columns.
    """
    mags = np.abs(vecs)
    pivot_rows = np.argmax(mags, axis=-2)
    pivots = np.take_along_axis(vecs, pivot_rows[..., None, :], axis=-2)
    phases = pivots / np.abs(pivots)
    return vecs * phases.conj()


def cluster_labels(w, tol: float) -> np.ndarray:
    """Degenerate-cluster label of each ascending eigenvalue, (..., N)
    integers counting up from 0 at the lowest level.

    A new cluster starts wherever a consecutive gap exceeds
    tol * (1 + max |E|) of that spectrum, so a chain of small gaps is
    one cluster even when its ends lie further apart than the
    threshold. This is the one rule that groups levels everywhere: the
    zero-temperature ground cluster is labels == 0, and the tangent
    matrices are zero between levels with equal labels. It runs on the
    level-major view (N, ...), so each numpy call spans the batch. tol
    must be a real number >= 0, +inf included (one cluster per spectrum),
    else InvalidArgument.
    """
    if not (isinstance(tol, numbers.Real) and tol >= 0):  # NaN fails the comparison
        raise InvalidArgument(f"degeneracy tolerance {tol!r} is not a real number >= 0")
    wt = np.moveaxis(np.asarray(w), -1, 0)
    labels = np.zeros(wt.shape, dtype=np.intp)
    with np.errstate(over="ignore"):  # an overflow to inf compares as the true value
        scale = tol * (1.0 + np.maximum(-wt[:1], wt[-1:]))  # max |E| sits at an end of wt
        np.cumsum(wt[1:] - wt[:-1] > scale, axis=0, out=labels[1:])
    return np.moveaxis(labels, 0, -1)


def _group_eigenvalues(labels) -> tuple[tuple[int, ...], ...]:
    """Degenerate clusters of one ascending spectrum as index tuples: the
    tuple view of its cluster_labels."""
    return tuple(tuple(map(int, np.flatnonzero(labels == k)))
                 for k in range(labels.max(initial=0) + 1))


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigensystem of a Hermitian matrix: ascending eigenvalues, the
    matching eigenvector columns (each column's largest-modulus entry
    real positive) and the cluster_labels of the eigenvalues."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        for m in (self.eigenvalues, self.eigenvectors, self.labels):
            m.setflags(write=False)

    @property
    def groups(self) -> tuple[tuple[int, ...], ...]:
        """The maximal degenerate clusters as ascending index tuples."""
        return _group_eigenvalues(self.labels)

    def reconstruct(self) -> np.ndarray:
        v = self.eigenvectors
        return (v * self.eigenvalues) @ v.conj().T

    def projector(self, indices) -> np.ndarray:
        """Orthogonal projector onto the span of the given eigenvector
        columns."""
        cols = self.eigenvectors[:, list(indices)]
        return cols @ cols.conj().T


def hermitian_eig(m, degeneracy_tol: float = DEGENERACY_TOL) -> SpectralDecomposition:
    """Eigendecomposition of a Hermitian matrix: eigh_batch on a batch
    of one, with the cluster labels of its eigenvalues.

    Parameters
    ----------
    m : array_like
        Hermitian matrix (checked once, by eigh_batch, to relative
        tolerance 1e-12).
    degeneracy_tol : float
        Relative eigenvalue tolerance for clustering, applied as
        degeneracy_tol * (1 + max |eigenvalue|).
    """
    m = np.asarray(m, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise NonHermitianInput(f"expected a square matrix, got shape {m.shape}")
    (w,), (v,) = eigh_batch(m[None])
    return SpectralDecomposition(w, v, cluster_labels(w, degeneracy_tol))


def eigh_batch(ms: np.ndarray, rtol: float = HERMITICITY_RTOL):
    """Eigendecompose a stack of Hermitian matrices (..., N, N).

    The one eigensolver call site: 2x2 stacks take the closed form of
    _eigh_2x2, every other N the dense LAPACK solver and _fix_phases
    (its iteration cap surfaces as ConvergenceFailure). Returns
    (eigenvalues, eigenvectors) with eigenvalues ascending and each
    eigenvector's largest-modulus component real positive, so
    bit-identical input gives bit-identical output. Grouping is left
    to cluster_labels.

    Each matrix is checked against rtol on its own scale. A non-finite
    entry, or a spectral width w_max - w_min that overflows, raises
    NonFiniteInput.
    """
    ms = np.asarray(ms, dtype=np.complex128)
    if ms.shape[-1] != ms.shape[-2]:
        raise NonHermitianInput(f"expected square matrices, got shape {ms.shape}")
    _require_hermitian_batch(ms, rtol)
    two = ms.shape[-1] == 2
    if two:
        w, v = _eigh_2x2(ms)
    else:
        try:
            w, v = np.linalg.eigh(ms)
        except np.linalg.LinAlgError as exc:  # pragma: no cover
            raise ConvergenceFailure(str(exc)) from exc
    require_finite_width(w)
    return w, v if two else _fix_phases(v)


def require_finite_width(w) -> None:
    """NonFiniteInput unless each width w[..., -1] - w[..., 0] is finite."""
    with np.errstate(over="ignore", invalid="ignore"):
        finite = np.isfinite(w[..., -1] - w[..., 0]).all()
    if not finite:
        raise NonFiniteInput("spectral width w_max - w_min is not finite")


def _eigenbasis_gradients(v, dh) -> np.ndarray:
    """Gradients rotated into the eigenbasis, G = v^dagger dH v. v
    (B, N, N), dh (d, B, N, N); returns (d, B, N, N). At N = 2 each entry
    is a level sum of (d, B) slices, so numpy loops over the batch: 0.5-0.6
    ms per 4096-point chunk against 3.2-4.6 ms by the einsum. Larger N
    keep the einsum: N = 4 took 6.1-9.7 ms against 12-16 ms by matmul;
    N = 40, B = 1 (per-point calls only) 0.17-0.26 ms against 0.07 ms."""
    if v.shape[-1] != 2:
        return np.einsum("bji,dbjk,bkl->dbil", v.conj(), dh, v, optimize=True)
    vc, out = v.conj(), np.empty(dh.shape, dtype=np.complex128)
    hv = [[dh[..., j, 0] * v[:, 0, l] + dh[..., j, 1] * v[:, 1, l] for l in (0, 1)] for j in (0, 1)]
    for i, l in np.ndindex(2, 2):
        out[..., i, l] = vc[:, 0, i] * hv[0][l] + vc[:, 1, i] * hv[1][l]
    return out


@np.errstate(over="ignore", invalid="ignore")  # overflow makes r, so the width, infinite
def _eigh_2x2(ms):
    """Eigenpairs c -+ r, r = hypot(a, |b|), of [[c + a, conj(b)],
    [b, c - a]] stacks. In each vector the entry r + |a|, which cannot
    cancel, is the largest and real positive (first row on the tie
    a = 0, as in _fix_phases); scaling by max(|a|, |b|) keeps every
    entry finite, and H = cI gives I."""
    h0, h1, b = ms[..., 0, 0].real, ms[..., 1, 1].real, ms[..., 1, 0]
    a = 0.5 * h0 - 0.5 * h1
    c = 0.5 * h0 + 0.5 * h1
    aabs, babs = np.abs(a), np.abs(b)
    r = np.hypot(a, babs)
    s = np.maximum(aabs, babs)
    live = s > 0
    s = np.where(live, s, 1.0)
    t = np.where(live, r / s + aabs / s, 1.0)
    norm = np.hypot(t, babs / s)
    # Real arithmetic: numpy's complex division overflows on subnormal divisors.
    t, br, bi = t / norm, b.real / s / norm, b.imag / s / norm
    lo, hi, z = a > 0, (a >= 0) & live, np.zeros_like(t)
    # (re, im) of v00, v01, v10, v11; column 0 has eigenvalue c - r
    v = np.stack([np.where(lo, -br, t), np.where(lo, bi, z), np.where(hi, t, br),
                  np.where(hi, z, -bi), np.where(lo, t, -br), np.where(lo, z, -bi),
                  np.where(hi, br, t), np.where(hi, bi, z)], axis=-1)
    return np.stack([c - r, c + r], axis=-1), v.view(np.complex128).reshape(ms.shape)


def _require_hermitian_batch(ms, rtol: float) -> None:
    """Per-matrix Hermiticity and finiteness check of a stack; its
    per-matrix arrays are released before the eigensolver runs."""
    defect = hermiticity_defect(ms)
    if not np.isfinite(defect).all():
        raise NonFiniteInput("batch contains a non-finite matrix entry")
    if np.any(defect > rtol):
        raise NonHermitianInput("batch contains a non-Hermitian matrix")


def psd_sqrt(m) -> np.ndarray:
    """Hermitian square root of a positive semidefinite matrix.

    Eigenvalues in [PSD_EIGENVALUE_FLOOR, 0) are clamped to zero; anything
    below it raises IndefiniteInput. The result S satisfies S @ S == m to
    roundoff and is itself Hermitian PSD.
    """
    sd = hermitian_eig(m)
    w = sd.eigenvalues
    if w.min(initial=0.0) < PSD_EIGENVALUE_FLOOR:
        raise IndefiniteInput(
            f"eigenvalue {w.min():.3e} below the PSD floor {PSD_EIGENVALUE_FLOOR:.1e}"
        )
    s = np.sqrt(np.clip(w, 0.0, None))
    v = sd.eigenvectors
    return (v * s) @ v.conj().T


def unitary_exp(a) -> np.ndarray:
    """exp(A) for anti-Hermitian A, via eigendecomposition of 1j*A.

    The result is exactly unitary up to roundoff because the real
    spectrum of 1j*A maps onto unit-modulus phases.
    """
    a = np.array(a, dtype=np.complex128, order="C")
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise NonAntiHermitianInput(f"expected a square matrix, got shape {a.shape}")
    scale = np.abs(a).max() if a.size else 0.0
    defect = np.abs(a + a.conj().T).max() if a.size else 0.0
    if defect > HERMITICITY_RTOL * max(scale, 1.0):
        raise NonAntiHermitianInput(
            f"anti-hermiticity defect {defect:.3e} exceeds tolerance"
        )
    (w,), (v,) = eigh_batch((1j * a)[None], rtol=1e-10)
    return (v * np.exp(-1j * w)) @ v.conj().T
