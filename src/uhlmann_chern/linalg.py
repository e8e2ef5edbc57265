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

from dataclasses import dataclass

import numpy as np

from .errors import (
    ConvergenceFailure,
    IndefiniteInput,
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


def require_hermitian(m, rtol: float = HERMITICITY_RTOL) -> np.ndarray:
    """Validate and return m as a square complex Hermitian array.

    Parameters
    ----------
    m : array_like
        Square matrix expected to satisfy m == m^dagger.
    rtol : float
        Allowed relative defect, measured against the largest entry.

    Returns
    -------
    numpy.ndarray
        A fresh complex128 copy of m.

    Raises
    ------
    NonHermitianInput
        If m is not square or the defect exceeds rtol.
    NonFiniteInput
        If an entry of m is NaN or infinite.
    """
    m = np.array(m, dtype=np.complex128, order="C")
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise NonHermitianInput(f"expected a square matrix, got shape {m.shape}")
    defect = hermiticity_defect(m)
    if not np.isfinite(defect):
        raise NonFiniteInput("matrix has a non-finite entry")
    if defect > rtol:
        raise NonHermitianInput(f"hermiticity defect {defect:.3e} exceeds rtol {rtol:.1e}")
    return m


def _fix_phases(vecs: np.ndarray) -> np.ndarray:
    """Make the largest-modulus component of each eigenvector column
    real and positive. Accepts stacked (..., N, N) arrays of columns.
    """
    mags = np.abs(vecs)
    pivot_rows = np.argmax(mags, axis=-2)
    pivots = np.take_along_axis(vecs, pivot_rows[..., None, :], axis=-2)
    phases = pivots / np.abs(pivots)
    return vecs * phases.conj()


def _group_eigenvalues(w: np.ndarray, tol: float) -> tuple[tuple[int, ...], ...]:
    """Partition ascending eigenvalues into degenerate clusters using a
    relative gap threshold tol * (1 + max |w|)."""
    scale = tol * (1.0 + float(np.abs(w).max())) if w.size else tol
    groups: list[tuple[int, ...]] = []
    start = 0
    for i in range(1, w.size):
        if w[i] - w[i - 1] > scale:
            groups.append(tuple(range(start, i)))
            start = i
    groups.append(tuple(range(start, w.size)))
    return tuple(groups)


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigensystem of a Hermitian matrix.

    Attributes
    ----------
    eigenvalues : numpy.ndarray
        Real eigenvalues in ascending order.
    eigenvectors : numpy.ndarray
        Unitary matrix whose columns are the matching eigenvectors,
        phase-fixed so each column's largest-modulus entry is real
        positive.
    groups : tuple of tuple of int
        Maximal degenerate clusters of eigenvalue indices, ascending.
    tolerance : float
        Relative degeneracy tolerance used to build the groups.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    groups: tuple[tuple[int, ...], ...]
    tolerance: float

    def __post_init__(self):
        self.eigenvalues.setflags(write=False)
        self.eigenvectors.setflags(write=False)

    @property
    def dim(self) -> int:
        return self.eigenvalues.size

    def reconstruct(self) -> np.ndarray:
        v = self.eigenvectors
        return (v * self.eigenvalues) @ v.conj().T

    def projector(self, indices) -> np.ndarray:
        """Orthogonal projector onto the span of the given eigenvector
        columns."""
        cols = self.eigenvectors[:, list(indices)]
        return cols @ cols.conj().T


def hermitian_eig(m, degeneracy_tol: float = DEGENERACY_TOL) -> SpectralDecomposition:
    """Eigendecomposition of a Hermitian matrix.

    The solver is the dense LAPACK path; its internal QR iteration cap
    surfaces as ConvergenceFailure. Output is deterministic: two calls
    on bit-identical input return bit-identical decompositions, with
    each eigenvector's largest-modulus component made real positive.

    Parameters
    ----------
    m : array_like
        Hermitian matrix (checked to relative tolerance 1e-12).
    degeneracy_tol : float
        Relative eigenvalue tolerance for clustering, applied as
        degeneracy_tol * (1 + max |eigenvalue|).
    """
    m = require_hermitian(m)
    try:
        w, v = np.linalg.eigh(m)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - rare path
        raise ConvergenceFailure(str(exc)) from exc
    _require_finite_width(w)
    v = _fix_phases(v.astype(np.complex128, copy=False))
    groups = _group_eigenvalues(w, degeneracy_tol)
    return SpectralDecomposition(w, np.ascontiguousarray(v), groups, degeneracy_tol)


def eigh_batch(ms: np.ndarray, rtol: float = HERMITICITY_RTOL):
    """Eigendecompose a stack of Hermitian matrices (..., N, N).

    Returns (eigenvalues, eigenvectors) with eigenvalues ascending and
    the same deterministic phase fixing as hermitian_eig. Grouping is
    left to the caller, which usually wants vectorized cluster masks
    rather than per-matrix index tuples.

    Each matrix is checked against rtol on its own scale. A non-finite
    entry, or a spectral width w_max - w_min that overflows, raises
    NonFiniteInput.
    """
    ms = np.asarray(ms, dtype=np.complex128)
    if ms.shape[-1] != ms.shape[-2]:
        raise NonHermitianInput(f"expected square matrices, got shape {ms.shape}")
    _require_hermitian_batch(ms, rtol)
    try:
        w, v = np.linalg.eigh(ms)
    except np.linalg.LinAlgError as exc:  # pragma: no cover
        raise ConvergenceFailure(str(exc)) from exc
    _require_finite_width(w)
    return w, _fix_phases(v)


def _require_finite_width(w) -> None:
    """Raise NonFiniteInput unless every spectrum's width w_max - w_min
    is finite; catches entries whose eigenvalues overflow."""
    with np.errstate(over="ignore", invalid="ignore"):
        finite = np.isfinite(w[..., -1] - w[..., 0]).all()
    if not finite:
        raise NonFiniteInput("spectral width w_max - w_min is not finite")


def _require_hermitian_batch(ms, rtol: float) -> None:
    """Per-matrix Hermiticity and finiteness check of a stack; its
    per-matrix arrays are released before the eigensolver runs."""
    defect = hermiticity_defect(ms)
    if not np.isfinite(defect).all():
        raise NonFiniteInput("batch contains a non-finite matrix entry")
    if np.any(defect > rtol):
        raise NonHermitianInput("batch contains a non-Hermitian matrix")


def psd_sqrt(m, floor: float = PSD_EIGENVALUE_FLOOR) -> np.ndarray:
    """Hermitian square root of a positive semidefinite matrix.

    Eigenvalues in [floor, 0) are clamped to zero; anything below floor
    raises IndefiniteInput. The result S satisfies S @ S == m to
    roundoff and is itself Hermitian PSD.
    """
    sd = hermitian_eig(m)
    w = sd.eigenvalues
    if w.min(initial=0.0) < floor:
        raise IndefiniteInput(
            f"eigenvalue {w.min():.3e} below the PSD floor {floor:.1e}"
        )
    s = np.sqrt(np.clip(w, 0.0, None))
    v = sd.eigenvectors
    return (v * s) @ v.conj().T


def unitary_exp(a, rtol: float = HERMITICITY_RTOL) -> np.ndarray:
    """exp(A) for anti-Hermitian A, via eigendecomposition of 1j*A.

    The result is exactly unitary up to roundoff because the real
    spectrum of 1j*A maps onto unit-modulus phases.
    """
    a = np.array(a, dtype=np.complex128, order="C")
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise NonAntiHermitianInput(f"expected a square matrix, got shape {a.shape}")
    scale = np.abs(a).max() if a.size else 0.0
    defect = np.abs(a + a.conj().T).max() if a.size else 0.0
    if defect > rtol * max(scale, 1.0):
        raise NonAntiHermitianInput(
            f"anti-hermiticity defect {defect:.3e} exceeds tolerance"
        )
    h = require_hermitian(1j * a, rtol=1e-10)
    try:
        w, v = np.linalg.eigh(h)
    except np.linalg.LinAlgError as exc:  # pragma: no cover
        raise ConvergenceFailure(str(exc)) from exc
    return (v * np.exp(-1j * w)) @ v.conj().T
