"""The two-valued law of the thermal integrands.

When every spectrum of a chunk takes two values (every level bitwise the
lowest or the highest, the two in different clusters), the tangents T
live only between the two clusters, where the mixing coefficient is the
single number C = 1 - sech(beta Delta / 2). F_U is then tanh^2(beta
Delta / 2) times the cluster blocks F_c plus d C terms between the
clusters, and the d C terms drop out of every trace with rho. As
tr(dP dP) = 0 and tr((dP)^4) = 0, the excited block's trace and
eps-density are minus the ground block's, so

    Tr(rho F_U) = (lam_0 - lam_{N-1}) tanh^2(beta Delta / 2) tr F_0,
    eps tr(rho F_U F_U) = (lam_0 - lam_{N-1}) tanh^4(beta Delta / 2) dens,

with dens the ground block's eps-density at unit weight, for any number
of levels in either cluster. The second-order job uses the second form on
two-valued chunks: one ground block per chunk and a scalar per point and
beta, with no curvature frame and no block product. Spectra with three or
more values (the oscillator, the level chain, LAPACK doublets split in
the last bit) take the generic kernel, curvature_frame_grid and
uhlmann_curvature_from_frame, which is written out below as the reference.

An overflowing beta Delta is the exact zero-temperature limit (weight 0,
C = 1, tanh = 1), so it must give the BETA_INF values without a numpy
warning.
"""
import math
import warnings

import numpy as np
import pytest

from uhlmann_chern import chern, geometry, models
from uhlmann_chern.errors import ResolutionTooLowWarning

from conftest import EighFourBand, random_points
from test_cluster_rule import ORIGIN, ChainModel

BETAS = (0.0, 0.3, 1.0, 7.0, 1e300, models.BETA_INF)


def generic_from_frame(frame, beta):
    """The generic kernel: [K_mu, K_nu] - (1 - C o keep) o tt less the
    d C terms, assembled in place, for any spectrum."""
    w, labels, t, delta, keep, tt = frame
    lam = models.weights_batch(w, beta, labels=labels)
    x = geometry._pair_exponents(w, beta)
    c = geometry._mixing_batch(lam, x)
    pairs = geometry.direction_pairs(t.shape[0])
    f = geometry._commutators((1.0 - c) * t, pairs)
    ck = 1.0 - c * keep
    if x is not None:
        e = np.exp(-0.5 * np.abs(x))
        dc = (beta * e / (1.0 + e * e) * np.tanh(0.5 * x)) * delta
    buf = np.empty(f.shape[1:], dtype=np.complex128)
    for i, (mu, nu) in enumerate(pairs):
        f[i] -= np.multiply(ck, tt[i], out=buf)
        if x is not None:
            f[i] -= np.multiply(dc[mu], t[nu], out=buf)
            f[i] += np.multiply(dc[nu], t[mu], out=buf)
    return f, lam


def is_two_valued(w):
    return bool(((w == w[:, :1]) | (w == w[:, -1:])).all())


def assert_close(got, ref, rtol=1e-13):
    assert got.shape == ref.shape
    assert np.abs(got - ref).max() <= rtol * max(1.0, np.abs(ref).max())


def unit_density(t, lo, hi):
    """eps-density with unit weight of the cluster block of levels lo..hi-1."""
    f = geometry._cluster_curvature(geometry._run_rows(t, lo, hi))
    return chern._eps_contraction(f, np.ones(f.shape[1:3]))


def two_valued_law(frame, beta):
    """The two-valued law per point from the ground block alone: the first-
    order trace (2D) or the second-order eps-density (4D)."""
    w, labels, t = frame[:3]
    lam = models.weights_batch(w, beta, labels)
    with np.errstate(over="ignore"):  # beta Delta = inf: tanh = 1
        th = np.tanh(0.5 * beta * (w[:, -1] - w[:, 0]))
    d = int((labels[0] == 0).sum())
    if t.shape[0] == 2:
        f0 = geometry._cluster_curvature(geometry._run_rows(t, 0, d))
        return (lam[:, 0] - lam[:, -1]) * th**2 * np.trace(f0[0], axis1=-2, axis2=-1)
    return (lam[:, 0] - lam[:, -1]) * th**4 * unit_density(t, 0, d)


def kernel_integrand(frame, beta):
    """The same integrand from the generic kernel's full curvature."""
    f, lam = geometry.uhlmann_curvature_from_frame(frame, beta)
    if f.shape[0] == 1:
        return (np.diagonal(f[0], axis1=-2, axis2=-1) * lam).sum(axis=-1)
    return chern._eps_contraction(f, lam)


@pytest.fixture
def commutator_calls(monkeypatch):
    """Point counts of every geometry._commutators call."""
    calls = []
    original = geometry._commutators

    def counted(a, pairs):
        calls.append(a.shape[1])
        return original(a, pairs)

    monkeypatch.setattr(geometry, "_commutators", counted)
    return calls


@pytest.mark.parametrize("beta", BETAS)
@pytest.mark.parametrize("name", ["sphere", "haldane", "fourband"])
def test_two_valued_branch_matches_the_generic_kernel(request, rng, name, beta):
    model = request.getfixturevalue(name)
    frame = geometry.curvature_frame_grid(model, random_points(model, rng, 300))
    assert is_two_valued(frame[0]) and (frame[1][:, -1] == 1).all()
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        f, lam = geometry.uhlmann_curvature_from_frame(frame, beta)
        ref_f, ref_lam = generic_from_frame(frame, beta)
        law = two_valued_law(frame, beta)
    assert_close(f, ref_f)
    assert np.array_equal(lam, ref_lam)
    assert_close(law, kernel_integrand(frame, beta))
    if beta == models.BETA_INF:
        assert np.array_equal(f, -frame[5])  # -[T_mu, T_nu]


@pytest.mark.parametrize("name", ["sphere", "haldane", "fourband"])
def test_two_valued_frames_make_no_second_block_product(request, commutator_calls, name):
    """The thermal integrals of two-valued models make no block product at all."""
    model = request.getfixturevalue(name)
    grid = chern.default_grid(model, 8)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ResolutionTooLowWarning)
        for beta in (0.3, 1.0, models.BETA_INF):
            (chern.first_thermal_uc if model.dim == 2 else chern.second_thermal_uc)(
                model, beta, grid)
    assert commutator_calls == []


def split_doublet_frame(fourband, pts):
    """The four-band frame with level 1 moved up by one ulp: the same
    clusters, but three values per spectrum."""
    w, *rest = geometry.curvature_frame_grid(fourband, pts)
    split = w.copy()
    split[:, 1] = np.nextafter(split[:, 1], np.inf)
    return (w, *rest), (split, *rest)


@pytest.mark.parametrize("case", ["coherent", "chain", "split", "eigh"])
def test_spectra_of_three_or_more_values_keep_the_generic_kernel(
        request, rng, commutator_calls, case):
    if case == "chain":  # at the origin levels 0-2 form one cluster of three values
        frame = geometry.curvature_frame_grid(ChainModel(), np.array([ORIGIN, [0.01, 0.02]]))
    elif case == "split":
        fourband = request.getfixturevalue("fourband")
        _, frame = split_doublet_frame(fourband, random_points(fourband, rng, 20))
    elif case == "eigh":  # LAPACK doublets, split in the last bits
        fourband = request.getfixturevalue("fourband")
        frame = geometry.curvature_frame_grid(EighFourBand(fourband.m), random_points(fourband, rng, 20))
    else:
        model = request.getfixturevalue(case)
        frame = geometry.curvature_frame_grid(model, random_points(model, rng, 3))
    assert not is_two_valued(frame[0])
    commutator_calls.clear()
    f, lam = geometry.uhlmann_curvature_from_frame(frame, 1.0)
    assert len(commutator_calls) == 1
    ref_f, ref_lam = generic_from_frame(frame, 1.0)
    assert np.array_equal(f, ref_f)  # the generic kernel itself, bit for bit
    assert np.array_equal(lam, ref_lam)


@pytest.mark.parametrize("beta", [0.3, 1.0, 7.0])
def test_split_doublet_is_continuous_with_the_two_valued_branch(fourband, rng, beta):
    pts = random_points(fourband, rng, 200)
    exact, split = split_doublet_frame(fourband, pts)
    assert_close(two_valued_law(exact, beta), kernel_integrand(split, beta))


class PureStateBundle:
    """H = 1 - 2 |psi><psi| on the 4D torus, psi = u / |u| with u = (sin k0 +
    i sin k1, sin k2 + i sin k3, m + sum_mu cos k_mu): one ground level -1
    and an excited doublet +1, so D- = 1 and D+ = 2. Hookless, with an
    analytic gradient."""

    dim = 4
    manifold = models.Manifold("torus", 4, (2.0 * math.pi,) * 4, (0.0,) * 4)

    def __init__(self, m=1.0):
        self.m = m

    def _psi(self, pts):
        s, c = np.sin(pts), np.cos(pts)
        u = np.stack([s[:, 0] + 1j * s[:, 1], s[:, 2] + 1j * s[:, 3],
                      self.m + c.sum(axis=1) + 0j], axis=1)
        du = np.zeros((4,) + u.shape, dtype=np.complex128)
        du[0, :, 0], du[1, :, 0] = c[:, 0], 1j * c[:, 1]
        du[2, :, 1], du[3, :, 1] = c[:, 2], 1j * c[:, 3]
        du[:, :, 2] = -s.T
        n = np.linalg.norm(u, axis=1)[:, None]
        dn = np.einsum("bi,dbi->db", u.conj(), du).real[:, :, None] / n
        return u / n, du / n - u * dn / n**2

    def hamiltonian_batch(self, pts):
        psi, _ = self._psi(np.asarray(pts, dtype=float))
        return np.eye(3) - 2.0 * psi[:, :, None] * psi[:, None, :].conj()

    def gradient_batch(self, pts, mu):
        psi, dpsi = self._psi(np.asarray(pts, dtype=float))
        outer = dpsi[mu][:, :, None] * psi[:, None, :].conj()
        return -2.0 * (outer + outer.conj().swapaxes(-1, -2))


@pytest.mark.parametrize("beta", [0.0, 0.3, 1.0, 7.0, 1e300])
def test_one_ground_block_gives_the_density_for_unequal_clusters(rng, beta):
    model = PureStateBundle()
    w, *rest = geometry.curvature_frame_grid(model, random_points(model, rng, 300))
    two = w.copy()
    two[:, 1] = two[:, 2]  # the excited doublet bitwise equal: a two-valued frame
    frame = (two, *rest)
    assert is_two_valued(two) and (frame[1] == [0, 1, 1]).all()
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        law = two_valued_law(frame, beta)
        ref = kernel_integrand(frame, beta)
    assert_close(law, ref)
    ground, excited = unit_density(frame[2], 0, 1), unit_density(frame[2], 1, 3)
    assert np.abs(ground).max() > 1.0  # the law is not 0 = 0
    assert np.abs(ground + excited).max() <= 1e-13 * np.abs(ground).max()


def test_two_valued_and_generic_integrals_agree(fourband, commutator_calls, monkeypatch):
    frames, blocks = [], []
    monkeypatch.setattr(chern, "curvature_frame_grid",
                        lambda *a, **k: frames.append(1) or geometry.curvature_frame_grid(*a, **k))
    monkeypatch.setattr(chern, "_cluster_curvature",
                        lambda *a: blocks.append(1) or geometry._cluster_curvature(*a))
    grid = chern.default_grid(fourband, 8)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ResolutionTooLowWarning)
        two = chern.second_thermal_uc(fourband, 1.0, grid)
        assert (commutator_calls, len(frames), len(blocks)) == ([], 0, 1)  # one chunk
        generic = chern.second_thermal_uc(EighFourBand(fourband.m), 1.0, grid)
    assert commutator_calls == [grid.n_points] * 2  # the frame's and the kernel's
    assert len(frames) == 1
    assert abs(two.value - generic.value) <= 1e-12
    assert abs(two.extra["closed_form_route"] - generic.extra["closed_form_route"]) <= 1e-12
    assert two.extra["route_disagreement"] <= 1e-12


# ---------------------------------------------------------------------------
# Overflowing beta times a gap


def test_overflowing_first_order_sweep_is_the_zero_temperature_value():
    model = models.Haldane(1.0, 0.5, math.pi / 2, M=1e10)
    grid = chern.default_grid(model, 8)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sweep = chern.temperature_sweep(model, [1e-300], grid)
        cold = chern.first_thermal_uc(model, models.BETA_INF, grid)
    assert sweep.values == (cold.value,)


@pytest.mark.parametrize("beta", [1e300, 1e308])
def test_overflowing_second_order_integral_is_the_zero_temperature_value(beta):
    model = models.FourBandGamma(1.25)
    grid = chern.default_grid(model, 8)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        warnings.simplefilter("ignore", ResolutionTooLowWarning)
        hot = chern.second_thermal_uc(model, beta, grid)
        cold = chern.second_thermal_uc(model, models.BETA_INF, grid)
    assert hot.value == cold.value
    assert hot.extra["closed_form_route"] == cold.extra["closed_form_route"]


def test_overflowing_weights_and_exponents_are_their_limits():
    w = np.array([[-1e300, 0.0, 1e300]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        lam = models.weights_batch(w, 1e10)
        x = geometry._pair_exponents(w, 1e10)
    assert np.array_equal(lam, [[1.0, 0.0, 0.0]])
    assert np.array_equal(np.sign(x), np.sign(w[:, :, None] - w[:, None, :]))
    assert np.isinf(x[0, 0, 1]) and np.isinf(x[0, 2, 1])
