"""Parameterized Hamiltonian families and their thermal states.

Four built-in models cover the geometric regimes the package targets:

* ``TwoLevelSphere``: a two-level Hamiltonian whose direction vector
  sweeps a sphere of fixed radius. Has closed-form references for every
  geometric quantity, so it anchors the numerics.
* ``Haldane``: the two-band honeycomb lattice model with complex
  next-neighbor hopping, on a momentum torus.
* ``FourBandGamma``: a four-band Dirac model built on five mutually
  anticommuting 4x4 matrices over a four-dimensional momentum torus,
  with doubly degenerate bands.
* ``CoherentOscillator``: a displaced harmonic oscillator truncated to
  a finite Fock space, parameterized by the displacement plane. Its
  displacement generator is covariant under the phase rotation
  exp(i theta n), so one cached eigendecomposition of i (a^dagger - a)
  gives the frame at every point without a per-point eigh.

Every model exposes exact analytic coordinate derivatives of its
Hamiltonian; downstream curvature code never differentiates
eigenvectors across grid points. A model whose spectrum is known in
closed form may also provide ``eigenframe_batch(pts) -> (w, v, g)``:
eigenvalues, eigenvectors and eigenbasis gradients v^dagger dH v. The
geometry kernels then use that exact spectral data instead of
eigendecomposing H; the oscillator and the four-band model do, and the
four-band frame makes no matrix product at all. Each spectral pass
holds one tangent stack, the ground block cut out before its products:
the kernels overwrite a writeable g with the tangents, and leave a
read-only one (a cached array) untouched. A model's read-only n_levels, the
side N of H, lets the first-order passes walk a chunk in blocks of bounded
d b N^2; a model without it runs each chunk as one block. This module
imports only errors and linalg from the package.
"""
from __future__ import annotations

import contextlib
import math
import numbers
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    InvalidArgument,
    ManifoldMismatch,
    NegativeBeta,
    NonFiniteInput,
    TruncationTooSmall,
    TruncationWeightWarning,
    UnsupportedDirection,
    warn,
)
from .linalg import (
    DEGENERACY_TOL,
    SpectralDecomposition,
    cluster_labels,
    eigh_batch,
    hermitian_eig,
    require_finite_width,
    unitary_exp,
)

BETA_INF = math.inf

# Pauli matrices, identity first.
SIGMA = np.array(
    [
        [[1, 0], [0, 1]],
        [[0, 1], [1, 0]],
        [[0, -1j], [1j, 0]],
        [[1, 0], [0, -1]],
    ],
    dtype=np.complex128,
)
PAULI = SIGMA[1:]

# Five mutually anticommuting 4x4 matrices: the first three couple the
# two sublattice blocks through Pauli matrices, the last two are block
# diagonal/off-diagonal scalars.
GAMMA = np.stack([np.kron(SIGMA[1], p) for p in PAULI] + [np.kron(SIGMA[2], SIGMA[0]),
                                                           np.kron(SIGMA[3], SIGMA[0])])
# _gamma_eigenpairs' eigenvector tables -i Gamma_4 Gamma_i (r5 >= 0) and Gamma_5 Gamma_i.
_FRAME = np.stack([np.kron(-SIGMA[3], p) for p in PAULI] + [-1j * np.eye(4), np.kron(SIGMA[1], SIGMA[0])]
                  + [np.kron(1j * SIGMA[2], p) for p in PAULI] + [np.kron(-1j * SIGMA[1], SIGMA[0]), np.eye(4)])
for _m in (SIGMA, PAULI, GAMMA, _FRAME):
    _m.setflags(write=False)


@dataclass(frozen=True)
class Manifold:
    """Coordinate chart of a model's parameter space.

    cell gives the coordinate extent per direction; for tori the box is
    periodic and may cover the primitive period lattice more than once
    (multiplicity), in which case integrals are normalized by that
    cover count. orientation flips the sign of oriented integrals and
    plaquette sums; it is fixed once per model by the calibration tests.
    """

    kind: str  # "sphere", "torus", or "plane"
    dim: int
    cell: tuple[float, ...]
    origin: tuple[float, ...]
    multiplicity: int = 1
    orientation: int = 1

    @property
    def volume(self) -> float:
        return float(np.prod(self.cell))


def _point(p, dim: int) -> np.ndarray:
    p = np.asarray(p, dtype=np.float64).reshape(-1)
    if p.size != dim:
        raise ManifoldMismatch(f"point has {p.size} coordinates, manifold needs {dim}")
    return p


def _points(pts, dim: int) -> np.ndarray:
    pts = np.asarray(pts, dtype=np.float64)
    if pts.ndim == 1:
        pts = pts[None, :]
    if pts.ndim != 2 or pts.shape[1] != dim:
        raise ManifoldMismatch(f"point batch shape {pts.shape} does not match dim {dim}")
    return pts


def _integer(value, what: str) -> int:
    """An integral value (1.0 is one) as an int, else InvalidArgument."""
    with contextlib.suppress(TypeError, ValueError, OverflowError):  # no number, NaN, inf
        if value == int(value):
            return int(value)
    raise InvalidArgument(f"{what} {value!r} is not integral")


def _real(value, what: str) -> float:
    """A real number as a float, NaN and +-inf included (each model checks those
    itself), else InvalidArgument: a string, None, a complex value or an integer
    too large for a float."""
    if isinstance(value, numbers.Real):
        with contextlib.suppress(OverflowError):
            return float(value)
    raise InvalidArgument(f"{what} {value!r} is not a real number")


def _check_direction(mu: int, dim: int) -> int:
    mu = _integer(mu, "direction")
    if not 0 <= mu < dim:
        raise UnsupportedDirection(f"direction {mu} outside 0..{dim - 1}")
    return mu


def _basis_dot(r, basis):
    """Contract (..., n) real vectors with a table of n matrices (n, N, N) by
    one real matmul on its (re, im) pairs. Pauli and Gamma entries are 0, +-1
    or +-i, at most one real and one imaginary term per entry: exact. A
    non-finite r raises NonFiniteInput before the product can warn."""
    if not np.isfinite(r).all():
        raise NonFiniteInput("the Dirac vector r or its gradient is not finite")
    out = r @ basis.view(np.float64).reshape(len(basis), -1)
    return out.view(np.complex128).reshape(np.shape(r)[:-1] + basis.shape[1:])


class _Model:
    """Per-point H and dH: batch-of-one views of the batch methods."""

    def hamiltonian(self, p):
        return self.hamiltonian_batch(_point(p, self.dim)[None, :])[0]

    def gradient(self, p, mu):
        return self.gradient_batch(_point(p, self.dim)[None, :], mu)[0]


class _DiracModel(_Model):
    """H = r(k) . basis for a model's r_vector_batch and r_gradient_batch;
    subclasses set _basis, their table of matrices."""

    _basis = PAULI
    n_levels = property(lambda self: self._basis.shape[-1])

    def hamiltonian_batch(self, pts):
        return _basis_dot(self.r_vector_batch(pts), self._basis)

    def gradient_batch(self, pts, mu):
        return _basis_dot(self.r_gradient_batch(pts, mu), self._basis)


# ---------------------------------------------------------------------------
# Two-level sphere
# ---------------------------------------------------------------------------


def _sphere_frame(p):
    """Unit vector and its two coordinate derivatives at sphere points p (..., 2)."""
    st, ct = np.sin(p[..., 0]), np.cos(p[..., 0])
    sp, cp = np.sin(p[..., 1]), np.cos(p[..., 1])
    rhat = np.stack([st * cp, st * sp, ct], axis=-1)
    d_theta = np.stack([ct * cp, ct * sp, -st], axis=-1)
    d_phi = np.stack([-st * sp, st * cp, np.zeros_like(st)], axis=-1)
    return rhat, d_theta, d_phi


@dataclass(frozen=True)
class TwoLevelSphere(_DiracModel):
    """H = R * rhat(theta, phi) . sigma with fixed radius R > 0.

    Coordinates are (theta, phi). Closed-form Berry and mixed-state
    references are provided as methods; they are the primary oracles
    for the generic geometry code.
    """

    radius: float = 1.0

    def __post_init__(self):
        radius = _real(self.radius, "radius")
        if not math.isfinite(radius):
            raise NonFiniteInput(f"radius must be finite, got {self.radius!r}")
        if not radius > 0:
            raise ManifoldMismatch("radius must be positive")

    dim = 2

    @property
    def manifold(self) -> Manifold:
        return Manifold("sphere", 2, (math.pi, 2 * math.pi), (0.0, 0.0))

    @property
    def r0(self) -> float:
        """Natural energy unit: the sphere radius."""
        return self.radius

    def r_vector_batch(self, pts):
        return self.radius * _sphere_frame(_points(pts, 2))[0]

    def r_gradient_batch(self, pts, mu):
        return self.radius * _sphere_frame(_points(pts, 2))[1 + _check_direction(mu, 2)]

    # -- closed-form references ------------------------------------------

    def _mixing(self, beta) -> float:
        """Weight-mixing coefficient 1 - sech(beta R) in [0, 1] as expm1(-x)^2 /
        (1 + exp(-2x)), x = |beta R|: no overflow, and exactly 1 at BETA_INF."""
        x = abs(beta * self.radius)
        return math.expm1(-x) ** 2 / (1.0 + math.exp(-2.0 * x))

    def berry_curvature_exact(self, p, band: int):
        """(theta, phi) curvature component of one pure band.

        band 0 is the lower level; its integral over the sphere divided
        by 2*pi*i is -1 ... +1 depending on orientation, and equals +1
        with the conventions used throughout this package.
        """
        rhat, dt, dp = _sphere_frame(_point(p, 2))
        sign = -1.0 if band == 0 else 1.0
        return sign * 0.5j * float(np.dot(rhat, np.cross(dt, dp)))

    def uhlmann_connection_exact(self, p, beta):
        """Connection components (A_theta, A_phi) of the thermal state,
        each (C/2) (rhat.sigma)(d_mu rhat.sigma) with C the mixing
        coefficient."""
        _require_beta(beta)
        rhat, dt, dp = _sphere_frame(_point(p, 2))
        c = self._mixing(beta)
        rs = _basis_dot(rhat, PAULI)
        return (0.5 * c) * rs @ _basis_dot(dt, PAULI), (0.5 * c) * rs @ _basis_dot(dp, PAULI)

    def uhlmann_curvature_exact(self, p, beta):
        """(theta, phi) component of the mixed-state curvature matrix on
        the fixed-radius sphere, where the radial terms drop."""
        _require_beta(beta)
        rhat, dt, dp = _sphere_frame(_point(p, 2))
        c = self._mixing(beta)
        cross = np.cross(dt, dp)
        term_two = 1j * c * _basis_dot(cross, PAULI)
        term_three = -0.5j * c * c * float(np.dot(rhat, cross)) * _basis_dot(rhat, PAULI)
        return term_two + term_three

    def thermal_trace_exact(self, p, beta):
        """(theta, phi) component of the thermally weighted curvature
        trace: -(i/2) tanh(beta R)^3 times the solid-angle density."""
        _require_beta(beta)
        rhat, dt, dp = _sphere_frame(_point(p, 2))
        t = math.tanh(beta * self.radius)
        return -0.5j * t**3 * float(np.dot(rhat, np.cross(dt, dp)))


# ---------------------------------------------------------------------------
# Haldane honeycomb model
# ---------------------------------------------------------------------------

_SQ3 = math.sqrt(3.0)
# Nearest-neighbor bond vectors and the next-neighbor (Bravais) vectors
# they generate. The Bravais lattice fixes the momentum periodicity.
_HALDANE_A = np.array([[_SQ3, 0.0], [-_SQ3 / 2, -1.5], [-_SQ3 / 2, 1.5]])
_HALDANE_B = _HALDANE_A[[1, 0, 2]] - _HALDANE_A[[2, 1, 0]]  # a1 - a2, a0 - a1, a2 - a0
_HALDANE_A.setflags(write=False)
_HALDANE_B.setflags(write=False)

# Smallest axis-aligned periodic box of the momentum lattice: x period
# 4*pi/(3*sqrt(3)), y period 4*pi/3. It covers the primitive reciprocal
# cell exactly twice, so oriented integrals carry multiplicity 2.
_HALDANE_CELL = (4 * math.pi / (3 * _SQ3), 4 * math.pi / 3)


@dataclass(frozen=True)
class Haldane(_DiracModel):
    """Two-band honeycomb model with staggered mass and complex
    next-neighbor hopping.

    The direction vector is R1 = t1 * sum cos(k.a_i), R2 = t1 * sum
    sin(k.a_i), R3 = M - 2 t2 sin(phi) * sum sin(k.b_i) over the bond
    sets above. The Hamiltonian is periodic under the momentum lattice
    only up to a constant diagonal unitary along x; the lattice oracle
    reads it off the frames at the seam points k + cell.
    """

    t1: float
    t2: float
    phi: float
    M: float

    def __post_init__(self):
        t1, _, phi, _ = (_real(getattr(self, name), name) for name in ("t1", "t2", "phi", "M"))
        if t1 == 0:
            raise ManifoldMismatch("t1 must be nonzero")
        # Other non-finite parameters surface as a non-finite spectrum;
        # math.sin would raise an untyped ValueError on an infinite phi.
        if math.isinf(phi):
            raise NonFiniteInput(f"phi must be finite, got {self.phi!r}")

    dim = 2

    @property
    def manifold(self) -> Manifold:
        # Chart orientation fixed by calibration so the lower band in
        # the gapped phase |M| < 3 sqrt(3) t2 |sin phi| carries first
        # Chern number +1 (with phi = +pi/2).
        return Manifold("torus", 2, _HALDANE_CELL, (0.0, 0.0), multiplicity=2, orientation=-1)

    @property
    def r0(self) -> float:
        """Energy unit: the gap at zero momentum and zero mass, 6 |t1|."""
        return 6.0 * abs(self.t1)

    @np.errstate(over="ignore", invalid="ignore")  # a huge t1, t2 or M: r is not finite
    def r_vector_batch(self, pts):
        ka, kb = _bond_phases(pts)
        r3 = self.M - 2 * self.t2 * math.sin(self.phi) * _bond_sum(np.sin, kb)
        return np.stack([self.t1 * _bond_sum(np.cos, ka), self.t1 * _bond_sum(np.sin, ka), r3],
                        axis=-1)

    @np.errstate(over="ignore", invalid="ignore")
    def r_gradient_batch(self, pts, mu):
        (ka, kb), mu = _bond_phases(pts), _check_direction(mu, 2)
        da, db = _HALDANE_A[:, mu], _HALDANE_B[:, mu]
        return np.stack([-self.t1 * _bond_sum(np.sin, ka, da), self.t1 * _bond_sum(np.cos, ka, da),
                         -2 * self.t2 * math.sin(self.phi) * _bond_sum(np.cos, kb, db)], axis=-1)


def _bond_phases(pts):
    """The (3, B) phases k.a_i and k.b_i of (B, 2) points, each entry formed on
    its own, so a point's phases do not depend on its batch (a matmul's do)."""
    pts = _points(pts, 2).T
    return tuple(x[:, :1] * pts[0] + x[:, 1:] * pts[1] for x in (_HALDANE_A, _HALDANE_B))


def _bond_sum(f, phases, weights=(1.0, 1.0, 1.0)):
    """sum_i w_i f(k.x_i) over the three bonds of (3, B) phases, one (B,) row
    at a time, so no numpy call runs over the bond axis (1.0 * x is exact)."""
    return weights[0] * f(phases[0]) + weights[1] * f(phases[1]) + weights[2] * f(phases[2])


# ---------------------------------------------------------------------------
# Four-band Dirac model on a 4-torus
# ---------------------------------------------------------------------------


@np.errstate(over="ignore", invalid="ignore")  # overflow makes |R|, so the width, infinite
def _gamma_eigenpairs(r, dr):
    """Eigenpairs (-|R|, -|R|, |R|, |R|), v (B, 4, 4) of H = r . GAMMA, r (B, 5),
    and g = v^dagger (dr . GAMMA) v for dr (d, B, 5), with no matrix product.
    With c = |R| + |r5| (no cancellation), v = M (a . GAMMA) / |a|:
    a = (r1, r2, r3, -r4, c), M = -i Gamma_4 if r5 >= 0, else a = (r1..r4, c),
    M = Gamma_5. M flips all Gamma_i but one and (a.G)(y.G)(a.G) = 2 (a.y)(a.G)
    - |a|^2 (y.G), so g = x . GAMMA for x = e dr - alpha a, the reflection of
    e dr through a, e = (1, 1, 1, -sgn r5, sgn r5), alpha = 2 a.(e dr) / |a|^2
    = 2 (sum_{i<=4} r_i dr_i + sgn(r5) c dr5) / |a|^2. In blocks: G-- = -d|R| I,
    G++ = d|R| I with d|R| = rhat . dr, G+- = G-+^dagger and G-+ = dQ^dagger -
    alpha Q^dagger (r5 >= 0) or dQ - alpha Q, Q = r1 sx + r2 sy + r3 sz - i r4
    the block of H = [[r5 I, Q], [Q^dagger, -r5 I]]. r is scaled by max |r_i|:
    only |R| can overflow, g has degree 0 in it, and r = 0 permutes I."""
    s = np.abs(r).max(axis=-1)
    live = s > 0
    u = r / np.where(live, s, 1.0)[:, None]
    off = (u[:, :4] ** 2).sum(axis=-1)  # |Q|^2 / s^2
    size = np.sqrt(off + u[:, 4] ** 2)
    pos = u[:, 4:] >= 0
    e = np.where(pos, [1.0, 1.0, 1.0, -1.0, 1.0], [1.0, 1.0, 1.0, 1.0, -1.0])
    a = u * e
    a[:, 4] = np.where(live, size + a[:, 4], 1.0)
    n2 = off + a[:, 4] ** 2
    b = a * (1.0 / np.sqrt(n2))[:, None]
    v = _basis_dot(np.concatenate([b * pos, b * ~pos], axis=1), _FRAME)
    w = (s * size)[:, None] * np.array([-1.0, -1.0, 1.0, 1.0])
    require_finite_width(w)
    x = dr * e
    x -= (2.0 * (x * a).sum(axis=-1) / n2)[..., None] * a
    del u, e, a, n2, b  # freed before g's (d, B, 4, 4) product
    return w, v, _basis_dot(x, GAMMA)


@dataclass(frozen=True)
class FourBandGamma(_DiracModel):
    """H = sum_i R_i(k) Gamma_i with R = (cos 2k_x, cos 2k_y, cos 2k_z,
    cos 2k_w, m + sum_i sin 2k_i).

    Both bands +|R| and -|R| are doubly degenerate everywhere. The
    momentum cell is [0, pi)^4 with unit cover multiplicity.
    """

    m: float

    def __post_init__(self):
        _real(self.m, "m")  # a non-finite m surfaces as a non-finite spectrum

    dim = 4
    _basis = GAMMA

    @property
    def manifold(self) -> Manifold:
        # Orientation fixed by calibration so the 0 < m < 2 phase
        # carries ground-doublet second Chern number +3.
        return Manifold("torus", 4, (math.pi,) * 4, (0.0,) * 4, orientation=-1)

    @property
    def r0(self) -> float:
        """Energy unit: |R| at k_i = pi/4 with reference mass -3,
        which evaluates to exactly 1."""
        return 1.0

    def r_vector_batch(self, pts):
        two_k = 2.0 * _points(pts, 4)
        r5 = self.m + np.sin(two_k).sum(axis=1)
        return np.concatenate([np.cos(two_k), r5[:, None]], axis=1)

    def r_gradient_batch(self, pts, mu):
        pts = _points(pts, 4)
        mu = _check_direction(mu, 4)
        out = np.zeros((pts.shape[0], 5))
        out[:, mu] = -2.0 * np.sin(2.0 * pts[:, mu])
        out[:, 4] = 2.0 * np.cos(2.0 * pts[:, mu])
        return out

    def eigenframe_batch(self, pts):
        """(w, v, g) for a point batch from _gamma_eigenpairs: g = v^dagger dH v
        in closed form, with no matrix product (G-- = -d|R| I, G++ = d|R| I,
        G-+ = dQ^dagger - alpha Q^dagger or dQ - alpha Q by the sign of r5)."""
        dr = np.stack([self.r_gradient_batch(pts, mu) for mu in range(4)])
        return _gamma_eigenpairs(self.r_vector_batch(pts), dr)


def gamma_anticommutation_residual() -> float:
    """Largest deviation of {Gamma_i, Gamma_j} from 2 delta_ij times the
    identity, over all 15 distinct pairs plus the 5 squares. Reads the
    module-level constants so a corrupted table is caught at run time.
    """
    prod = GAMMA[:, None] @ GAMMA[None, :]  # (5, 5, 4, 4): Gamma_i Gamma_j
    target = 2.0 * np.eye(5)[:, :, None, None] * np.eye(4)
    return float(np.abs(prod + prod.swapaxes(0, 1) - target).max())


# ---------------------------------------------------------------------------
# Displaced truncated oscillator
# ---------------------------------------------------------------------------


def _directions(p):
    """(P^dagger - P, i (P^dagger + P)) stacked: the x and y derivatives from P = c (A0 * phi)."""
    ph = p.conj().swapaxes(-1, -2)
    return np.stack((ph - p, 1j * (ph + p)))


@dataclass(frozen=True)
class CoherentOscillator(_Model):
    """Harmonic oscillator displaced in phase space, truncated to
    fock_dim levels.

    Parameter points are (x, y) with z = x + i y = r exp(i theta). The
    Hamiltonian is D(z) H0 D(z)^dagger where H0 = hbar_omega * (n + 1/2)
    and D is the exact matrix exponential of the truncated generator, so
    the family is exactly unitary even at the truncation edge.
    Displacements are restricted to |z|^2 <= fock_dim / 8 to keep the
    edge irrelevant.

    Covariant frame: the generator z a^dagger - conj(z) a equals
    U (r (a^dagger - a)) U^dagger with U = diag(exp(i theta n)). One
    eigendecomposition i (a^dagger - a) = V0 diag(w0) V0^dagger, cached
    per instance, therefore gives every point's frame without another
    eigh: generator eigenvalues r w0, eigenvectors U V0, and
    D = U V0 exp(-i r w0) V0^dagger U^dagger. Generator derivatives are
    c^* A0^dagger - c A0 along x and i (c^* A0^dagger + c A0) along y in
    that basis (A0 = V0^dagger a V0, c = e^{i theta}), and X = D^dagger dD
    multiplies them by the Hermitian kernel phi of _derivative_kernel. So one
    sandwich Q = U V0 c (A0 * phi) V0^dagger U^dagger per point gives
    X = Q^dagger - Q along x and i (Q^dagger + Q) along y, anti-Hermitian.

    Exact spectral data: H has eigenvalues diag(H0), eigenvectors the
    columns of D, and eigenbasis gradients D^dagger dH D = [X, H0] with
    X = D^dagger dD. eigenframe_batch hands these to the geometry
    kernels in place of a per-point eigendecomposition of H.
    """

    hbar_omega: float = 1.0
    fock_dim: int = 40

    def __post_init__(self):
        object.__setattr__(self, "fock_dim", _integer(self.fock_dim, "fock_dim"))
        if self.fock_dim < 8:
            raise ManifoldMismatch("fock_dim must be at least 8")
        if self.fock_dim > 128:
            raise ManifoldMismatch("fock_dim above 128 is not supported")
        hbar_omega = _real(self.hbar_omega, "hbar_omega")
        if not 0 < hbar_omega < math.inf:
            raise ManifoldMismatch("hbar_omega must be positive and finite")
        # H and dH sum fock_dim products of levels, each up to hbar_omega fock_dim.
        if not math.isfinite(hbar_omega * self.fock_dim**2):
            raise NonFiniteInput(f"hbar_omega {self.hbar_omega!r} * fock_dim^2 overflows")

    dim = 2
    n_levels = property(lambda self: self.fock_dim)

    @property
    def manifold(self) -> Manifold:
        half = math.sqrt(self.fock_dim / 8.0) / math.sqrt(2.0)
        return Manifold("plane", 2, (2 * half, 2 * half), (-half, -half))

    @property
    def r0(self) -> float:
        """Energy unit: the level spacing."""
        return self.hbar_omega

    @cached_property
    def _lowering(self) -> np.ndarray:
        a = np.zeros((self.fock_dim, self.fock_dim), dtype=np.complex128)
        n = np.arange(1, self.fock_dim)
        a[n - 1, n] = np.sqrt(n)
        a.setflags(write=False)
        return a

    @cached_property
    def _h0_diag(self) -> np.ndarray:
        d = self.hbar_omega * (np.arange(self.fock_dim) + 0.5)
        d.setflags(write=False)
        return d

    @cached_property
    def _frame0(self):
        """(w0, V0, A0, H0~): the eigensystem i (a^dagger - a) =
        V0 diag(w0) V0^dagger, and a and H0 in that basis."""
        a = self._lowering
        w0, v0 = eigh_batch(1j * (a.conj().T - a))
        v0h = v0.conj().T
        a0 = v0h @ a @ v0
        h0 = v0h @ (self._h0_diag[:, None] * v0)
        h0 = 0.5 * (h0 + h0.conj().T)
        for m in (w0, v0, a0, h0):
            m.setflags(write=False)
        return w0, v0, a0, h0

    def _check_displacement(self, z):
        mag = np.abs(np.asarray(z)) ** 2
        if np.any(mag > self.fock_dim / 8.0):
            raise TruncationTooSmall(
                f"|z|^2 = {float(np.max(mag)):.3f} exceeds fock_dim/8 = "
                f"{self.fock_dim / 8.0:.3f}"
            )

    def displacement(self, z) -> np.ndarray:
        """Truncated displacement unitary exp(z a^dagger - conj(z) a)."""
        z = complex(z)
        self._check_displacement(z)
        gen = z * self._lowering.conj().T - np.conj(z) * self._lowering
        return unitary_exp(gen)

    def _displacement_frame(self, pts):
        """Covariant frame of the generator for a point batch: returns
        (w, u, c) with w = |z| w0 (B, N) the eigenvalues of i times the
        generator, u = exp(i theta n) (B, N) the diagonal of U, and
        c = exp(i theta) (B,)."""
        pts = _points(pts, 2)
        z = pts[:, 0] + 1j * pts[:, 1]
        self._check_displacement(z)
        theta = np.angle(z)
        u = np.exp(1j * theta[:, None] * np.arange(self.fock_dim))
        w0, _, _, _ = self._frame0
        return np.abs(z)[:, None] * w0, u, np.exp(1j * theta)

    def _to_fock(self, u, s):
        """U V0 s V0^dagger U^dagger for a stack s (B, N, N) given in
        the generator eigenbasis."""
        _, v0, _, _ = self._frame0
        return u[:, :, None] * (v0 @ s @ v0.conj().T) * u.conj()[:, None, :]

    def _derivative_kernel(self, w, c):
        """P = c (A0 * phi) in the generator eigenbasis, for w (B, N) and
        c (B,). phi_jk = exp(i (w_j - w_k) / 2) sinc((w_j - w_k) / 2 pi) is
        the divided difference of exp(-i x) on w times the row phase
        exp(i w_j): Hermitian, and exact on coincident pairs."""
        _, _, a0, _ = self._frame0
        half = np.exp(0.5j * w)
        diff = w[:, :, None] - w[:, None, :]
        phi = half[:, :, None] * half.conj()[:, None, :] * np.sinc(diff / (2.0 * math.pi))
        return c[:, None, None] * a0 * phi

    def hamiltonian_batch(self, pts):
        w, u, _ = self._displacement_frame(pts)
        _, _, _, h0 = self._frame0
        e = np.exp(-1j * w)
        return self._to_fock(u, e[:, :, None] * h0 * e.conj()[:, None, :])

    def gradient_batch(self, pts, mu):
        mu = _check_direction(mu, 2)
        w, u, c = self._displacement_frame(pts)
        _, _, _, h0 = self._frame0
        e = np.exp(-1j * w)
        # dH = dD H0 D^dagger + h.c., with dD H0 D^dagger = U V0 k V0^dagger U^dagger.
        dd = e[:, :, None] * _directions(self._derivative_kernel(w, c))[mu]
        k = (dd @ h0) * e.conj()[:, None, :]
        return self._to_fock(u, k + k.conj().swapaxes(-1, -2))

    def eigenframe_batch(self, pts):
        """Exact spectral data of H = D H0 D^dagger for a point batch,
        without an eigendecomposition of H.

        Returns (w, v, g): w (B, N) the diagonal of H0 (ascending), v
        (B, N, N) the columns of D, and g (2, B, N, N) the eigenbasis
        gradients D^dagger dH/dmu D = [X, H0] with X = D^dagger dD/dmu.
        The eigenvector phases follow D, not the largest-component
        convention of eigh_batch; every gauge-invariant quantity agrees.
        """
        w, u, c = self._displacement_frame(pts)
        _, v0, _, _ = self._frame0
        e = np.exp(-1j * w)
        d = u[:, :, None] * ((v0 * e[:, None, :]) @ v0.conj().T) * u.conj()[:, None, :]
        levels = self._h0_diag
        # X = D^dagger dD/dmu is Q^dagger - Q along x and i (Q^dagger + Q) along y.
        g = _directions(self._to_fock(u, self._derivative_kernel(w, c)))
        g *= levels[None, :] - levels[:, None]  # [X, H0]_jk = X_jk (E_k - E_j)
        return np.tile(levels, (d.shape[0], 1)), d, g

    def _check_thermal_truncation(self, beta, bound):
        tail = weights_batch(self._h0_diag[None], beta)[0, self.fock_dim // 2 :]
        if float(tail.max()) >= bound:
            warn(f"thermal weight has not decayed below {bound:g} by half the Fock "
                 f"truncation at beta={beta:.6g}; raise fock_dim or beta", TruncationWeightWarning)

    def uhlmann_mixing_exact(self, beta, n, m) -> float:
        """Closed-form weight-mixing coefficient between oscillator
        levels n and m of the undisplaced thermal state."""
        if math.isinf(beta):
            return 0.0 if n == m == 0 else 1.0
        # 1 - sech(x/2) with x = beta hbar_omega (n - m), in a form that
        # holds where exp(-beta hbar_omega n) underflows.
        half = 0.5 * beta * self.hbar_omega * abs(n - m)
        return math.expm1(-half) ** 2 / (1.0 + math.exp(-2.0 * half))


MODEL_VARIANTS = {
    "two_level_sphere": TwoLevelSphere,
    "haldane": Haldane,
    "four_band_gamma": FourBandGamma,
    "coherent_oscillator": CoherentOscillator,
}


def model_id(model) -> str:
    """Stable human-readable identifier for reports and CSV headers."""
    return repr(model)


# ---------------------------------------------------------------------------
# Thermal states
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ThermalState:
    """Gibbs state of a model Hamiltonian at one parameter point.

    weights holds the density-matrix eigenvalues ordered by ascending
    energy (so they are non-increasing for beta > 0). beta may be the
    symbolic value BETA_INF, in which case the ground cluster carries
    exact weight 1/D each and every other level carries exactly 0.
    """

    beta: float
    rho: np.ndarray
    spectrum: SpectralDecomposition
    weights: np.ndarray

    def __post_init__(self):
        self.rho.setflags(write=False)
        self.weights.setflags(write=False)

    @property
    def dim(self) -> int:
        return self.weights.size

    @property
    def ground(self) -> tuple[int, ...]:
        return self.spectrum.groups[0]


def _require_beta(beta) -> None:
    """InvalidArgument unless beta is a real number (_real's rule), NonFiniteInput
    for a NaN beta, NegativeBeta for a negative one (-inf too)."""
    if math.isnan(_real(beta, "beta")):
        raise NonFiniteInput("beta is NaN")
    if beta < 0:
        raise NegativeBeta(f"beta must be nonnegative, got {beta!r}")


def weights_batch(w, beta: float, labels=None) -> np.ndarray:
    """Thermal occupations for batches of ascending eigenvalues (B, N). At
    BETA_INF the ground cluster (label 0 of labels, else of cluster_labels
    at DEGENERACY_TOL) carries 1/D each, every other level exactly 0. Every
    thermal weight comes from here, so beta is checked here."""
    _require_beta(beta)
    if math.isinf(beta):
        if labels is None:
            labels = cluster_labels(w, DEGENERACY_TOL)
        ground = labels == 0
        return ground / ground.sum(axis=1, keepdims=True)
    with np.errstate(over="ignore"):  # -inf: the exact weight 0 of the large-beta limit
        x = np.exp(-beta * (w - w[:, :1]))
    return x / x.sum(axis=1, keepdims=True)


def thermal_state(model, p, beta: float, degeneracy_tol: float = DEGENERACY_TOL) -> ThermalState:
    """Gibbs state exp(-beta H(p)) / Z, built from the spectral
    decomposition of the model Hamiltonian.

    Parameters
    ----------
    model : one of the model classes above
    p : parameter point on the model's manifold
    beta : inverse temperature, 0 <= beta <= BETA_INF
    degeneracy_tol : relative tolerance for eigenvalue clustering
    """
    sd = hermitian_eig(model.hamiltonian(p), degeneracy_tol=degeneracy_tol)
    w = weights_batch(sd.eigenvalues[None], beta, sd.labels[None])[0]
    check = getattr(model, "_check_thermal_truncation", None)
    if check is not None:
        check(beta, 1e-12)
    v = sd.eigenvectors
    rho = (v * w) @ v.conj().T
    return ThermalState(beta, rho, sd, w)
