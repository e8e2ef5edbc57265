"""The two-valued branch of the finite-beta Uhlmann curvature.

When every spectrum of a batch takes two values (every level bitwise the
lowest or the highest, the two in different clusters), the tangents T
live only between the two clusters, where the mixing coefficient is the
single number C = 1 - sech(beta Delta / 2), and [T_mu, T_nu] is
block-diagonal. So [K_mu, K_nu] - (1 - C o keep) o [T_mu, T_nu] collapses
to -tanh^2(beta Delta / 2) [T_mu, T_nu]: the two-level tanh law, with no
mixing matrix and no second block product. The sphere, Haldane and the
four-band model take this branch. Spectra with three or more values (the
oscillator, the level chain, LAPACK doublets split in the last bit) keep
the generic kernel, which is written out below as the reference.

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
    assert_close(f, ref_f)
    assert np.array_equal(lam, ref_lam)
    if beta == models.BETA_INF:
        assert np.array_equal(f, -frame[5])  # -[T_mu, T_nu]


@pytest.mark.parametrize("name", ["sphere", "haldane", "fourband"])
def test_two_valued_frames_make_no_second_block_product(request, rng, commutator_calls, name):
    model = request.getfixturevalue(name)
    frame = geometry.curvature_frame_grid(model, random_points(model, rng, 40))
    assert commutator_calls == [40]
    for beta in (0.3, 1.0, models.BETA_INF):
        geometry.uhlmann_curvature_from_frame(frame, beta)
    assert commutator_calls == [40]


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
    f_two, _ = geometry.uhlmann_curvature_from_frame(exact, beta)
    f_generic, _ = geometry.uhlmann_curvature_from_frame(split, beta)
    assert_close(f_two, f_generic)


def test_two_valued_and_generic_integrals_agree(fourband, commutator_calls):
    grid = chern.default_grid(fourband, 8)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ResolutionTooLowWarning)
        two = chern.second_thermal_uc(fourband, 1.0, grid)
        assert commutator_calls == [grid.n_points]  # the frame's, and no other
        generic = chern.second_thermal_uc(EighFourBand(fourband.m), 1.0, grid)
    assert commutator_calls == [grid.n_points] * 3
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
