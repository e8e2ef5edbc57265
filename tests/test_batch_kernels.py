"""Batch-major small-N kernels against the formulas they replaced.

The Haldane passes work on stacks of 2x2 matrices, where a numpy call
that runs over a level or bond axis of two or three entries costs more
in per-call overhead than in arithmetic. The kernels were rewritten so
that every numpy call runs over the batch. Each is checked here against
its earlier formula, written out below, at N = 2, 4 and 40 (where the
kernel takes any N) to 1e-13 relative to the largest reference entry.
The stacked-temperature trace must equal its single-temperature calls
bit for bit, which keeps a sweep value equal to its single-temperature
integral, and must build its weight coefficients once per chunk for two
levels, in blocks of at most geometry.BLOCK_ENTRIES entries for many
levels (geometry._blocks, the one block rule).

The four-band finite-temperature kernels were rewritten the same way.
_commutators takes both orders of every direction pair from one block
product per _blocks block of (dN)^2 entries a point (256 points at
dN = 16), and a point's result must not depend on its block.
_divide_gaps multiplies by one masked reciprocal; numpy divides a
complex number by a real one as a product with the reciprocal, so its
values must equal the division bit for bit, with
exact zeros inside a cluster. uhlmann_curvature_from_frame assembles F
in place and is checked against its earlier assembly, written out
below, on all four models.
"""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uhlmann_chern import chern, geometry, linalg, models

from conftest import random_points

RTOL = 1e-13
SIZES = (2, 4, 40)


def assert_close(new, ref):
    assert new.shape == ref.shape
    assert np.abs(new - ref).max(initial=0.0) <= RTOL * np.abs(ref).max(initial=0.0)


def hermitian(rng, shape, n):
    a = rng.normal(size=shape + (n, n)) + 1j * rng.normal(size=shape + (n, n))
    return a + a.conj().swapaxes(-1, -2)


def anti_hermitian(rng, shape, n):
    return 1j * hermitian(rng, shape, n)


def gibbs(rng, batch, n, beta=1.3):
    w = np.sort(rng.normal(size=(batch, n)), axis=-1)
    return models.weights_batch(w, beta)


# ---------------------------------------------------------------------------
# The earlier formulas


def r_vector_ref(model, pts):
    ka, kb = pts @ models._HALDANE_A.T, pts @ models._HALDANE_B.T
    r1 = model.t1 * np.cos(ka).sum(axis=1)
    r2 = model.t1 * np.sin(ka).sum(axis=1)
    r3 = model.M - 2 * model.t2 * math.sin(model.phi) * np.sin(kb).sum(axis=1)
    return np.stack([r1, r2, r3], axis=-1)


def r_gradient_ref(model, pts, mu):
    ka, kb = pts @ models._HALDANE_A.T, pts @ models._HALDANE_B.T
    da, db = models._HALDANE_A[:, mu], models._HALDANE_B[:, mu]
    d1 = -model.t1 * (np.sin(ka) * da).sum(axis=1)
    d2 = model.t1 * (np.cos(ka) * da).sum(axis=1)
    d3 = -2 * model.t2 * math.sin(model.phi) * (np.cos(kb) * db).sum(axis=1)
    return np.stack([d1, d2, d3], axis=-1)


def eigenbasis_gradients_ref(v, grads):
    return np.einsum("bji,dbjk,bkl->dbil", v.conj(), grads, v, optimize=True)


def cluster_labels_ref(w, tol):
    w = np.asarray(w)
    scale = tol * (1.0 + np.maximum(-w[..., :1], w[..., -1:]))
    return np.cumsum(np.diff(w, axis=-1, prepend=w[..., :1]) > scale, axis=-1)


def trace_pairs_ref(lam, t, pairs):
    num = 4.0 * lam[:, :, None] * lam[:, None, :]
    den = (lam[:, :, None] + lam[:, None, :]) ** 2
    ok = den > 0
    coef = lam[:, :, None] * (np.where(ok, num / np.where(ok, den, 1.0), 0.0) - 1.0)
    out = np.empty((len(pairs), lam.shape[0]), dtype=np.complex128)
    for i, (mu, nu) in enumerate(pairs):
        fwd = np.einsum("bik,bik,bki->b", coef, t[mu], t[nu], optimize=True)
        rev = np.einsum("bik,bik,bki->b", coef, t[nu], t[mu], optimize=True)
        out[i] = fwd - rev
    return out


def eps_contraction_ref(f, lam):
    pair_weight = lam[:, :, None] + lam[:, None, :]

    def t2(a, b):
        return np.einsum("bik,bik,bki->b", pair_weight, f[a], f[b], optimize=True)

    return 4.0 * (t2(0, 5) - t2(1, 4) + t2(2, 3))


def link_phases_ref(frames_a, frames_b):
    return (frames_a.conj() * frames_b).sum(axis=(-2, -1))


def divide_gaps_ref(num, den, keep):
    return np.where(keep, num / np.where(keep, den, 1.0), 0.0)


def uhlmann_curvature_from_frame_ref(frame, beta):
    w, labels, t, delta, keep, _ = frame
    lam = models.weights_batch(w, beta, labels=labels)
    x = geometry._pair_exponents(w, beta)
    c = geometry._mixing_batch(lam, x)
    k = (1.0 - c) * t
    if x is None:
        dc = np.zeros_like(delta)
    else:
        e = np.exp(-0.5 * np.abs(x))
        dc = (beta * e / (1.0 + e * e) * np.tanh(0.5 * x)) * delta
    ck = 1.0 - c * keep
    pairs = geometry.direction_pairs(t.shape[0])
    f = np.empty((len(pairs),) + t.shape[1:], dtype=np.complex128)
    for i, (mu, nu) in enumerate(pairs):
        p = t[mu] @ t[nu]
        tt = p - p.conj().swapaxes(-1, -2)
        p = k[mu] @ k[nu]
        f[i] = p - p.conj().swapaxes(-1, -2) - ck * tt - (dc[mu] * t[nu] - dc[nu] * t[mu])
    return f, lam


# ---------------------------------------------------------------------------
# Equivalence


@pytest.mark.parametrize("mass", [0.0, 0.3, -2.5])
def test_haldane_r_methods_match_the_bond_sums(rng, mass):
    model = models.Haldane(t1=1.0, t2=0.4, phi=1.1, M=mass)
    lo, span = np.array(model.manifold.origin), np.array(model.manifold.cell)
    pts = lo + span * rng.uniform(-1.0, 2.0, (257, 2))
    assert_close(model.r_vector_batch(pts), r_vector_ref(model, pts))
    for mu in range(2):
        assert_close(model.r_gradient_batch(pts, mu), r_gradient_ref(model, pts, mu))
    assert model.r_vector_batch(pts[0]).shape == (1, 3)


@pytest.mark.parametrize("n", SIZES)
def test_eigenbasis_gradients_match_the_einsum(rng, n):
    batch = 1 if n == 40 else 64
    _, v = linalg.eigh_batch(hermitian(rng, (batch,), n))
    grads = hermitian(rng, (3, batch), n)
    assert_close(linalg._eigenbasis_gradients(v, grads), eigenbasis_gradients_ref(v, grads))


@pytest.mark.parametrize("n", SIZES)
def test_cluster_labels_match_the_diff_rule(rng, n):
    w = np.sort(rng.normal(size=(5, 7, n)), axis=-1)
    w[..., 1::2] = w[..., :-1:2] + 0.5 * linalg.DEGENERACY_TOL  # near-degenerate pairs
    labels = linalg.cluster_labels(w, linalg.DEGENERACY_TOL)
    assert np.array_equal(labels, cluster_labels_ref(w, linalg.DEGENERACY_TOL))
    assert labels.shape == w.shape


@st.composite
def spectra(draw):
    """Ascending spectra (..., N) on zero to two leading batch axes,
    whose gaps sit below, near and above the grouping threshold, so
    that chains of small gaps occur."""
    shape = tuple(draw(st.lists(st.integers(1, 3), max_size=2))) + (draw(st.integers(0, 6)),)
    size = int(np.prod(shape))
    steps = draw(st.lists(st.sampled_from([0.0, 0.3, 0.6, 0.99, 1.01, 3.0, 1e6]),
                          min_size=size, max_size=size))
    offset = draw(st.floats(-50.0, 50.0))
    unit = linalg.DEGENERACY_TOL * (1.0 + abs(offset))  # the threshold, to first order
    return offset + unit * np.cumsum(np.reshape(steps, shape), axis=-1)


@settings(max_examples=200, deadline=None)
@given(spectra())
def test_cluster_labels_property(w):
    labels = linalg.cluster_labels(w, linalg.DEGENERACY_TOL)
    ref = cluster_labels_ref(w, linalg.DEGENERACY_TOL)
    assert labels.shape == ref.shape == w.shape
    assert np.array_equal(labels, ref)


def test_cluster_labels_of_an_empty_spectrum():
    for shape in [(4, 0), (0,), (2, 3, 0)]:
        labels = linalg.cluster_labels(np.zeros(shape), linalg.DEGENERACY_TOL)
        assert labels.shape == shape


@pytest.mark.parametrize("n", SIZES)
def test_trace_pairs_match_the_three_operand_einsums(rng, n):
    batch = 16 if n == 40 else 128
    t = anti_hermitian(rng, (4, batch), n)
    pairs = geometry.direction_pairs(4)
    lam = np.stack([gibbs(rng, batch, n), gibbs(rng, batch, n, beta=0.0),
                    models.weights_batch(np.sort(rng.normal(size=(batch, n))), math.inf)])
    traces = geometry._trace_pairs(lam, t, pairs)
    assert traces.shape == (3, len(pairs), batch)
    for k in range(3):
        assert_close(traces[k], trace_pairs_ref(lam[k], t, pairs))


@pytest.mark.parametrize("n", SIZES)
def test_eps_contraction_matches_the_three_operand_einsums(rng, n):
    batch = 8 if n == 40 else 64
    f, lam = anti_hermitian(rng, (6, batch), n), gibbs(rng, batch, n)
    assert_close(chern._eps_contraction(f, lam), eps_contraction_ref(f, lam))


@pytest.mark.parametrize("n", SIZES)
def test_one_band_links_match_the_overlap_sum(rng, n):
    a, b = (rng.normal(size=(3, 9, n, 1)) + 1j * rng.normal(size=(3, 9, n, 1)) for _ in range(2))
    assert_close(chern._link_phases(a, b), link_phases_ref(a, b))


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("batch", [1, geometry.BLOCK_ENTRIES // 16**2 + 1, 1000])
def test_commutators_match_the_pair_products(monkeypatch, rng, n, batch):
    d = 4 if n < 40 else 2  # the four-band shape; two directions keep N = 40 small
    a = rng.normal(size=(d, batch, n, n)) + 1j * rng.normal(size=(d, batch, n, n))
    pairs = geometry.direction_pairs(d)
    whole = geometry._commutators(a, pairs)
    assert_close(whole, np.stack([a[mu] @ a[nu] - a[nu] @ a[mu] for mu, nu in pairs]))
    # Other block boundaries and other slices of the batch change no bit.
    cuts = sorted({0, batch // 3, batch // 2 + 1, batch})
    pieces = [geometry._commutators(a[:, s:e], pairs) for s, e in zip(cuts, cuts[1:]) if e > s]
    assert np.array_equal(np.concatenate(pieces, axis=1), whole)
    monkeypatch.setattr(geometry, "BLOCK_ENTRIES", 7 * 256)
    assert np.array_equal(geometry._commutators(a, pairs), whole)


@pytest.mark.parametrize("name", ["sphere", "haldane", "fourband", "coherent"])
def test_divide_gaps_equals_the_division(request, rng, name):
    model = request.getfixturevalue(name)
    w, _, g = geometry._frame_data(model, random_points(model, rng, 64))
    den, keep = geometry._gap_mask(w, linalg.cluster_labels(w, linalg.DEGENERACY_TOL))
    t = geometry._divide_gaps(g, den, keep)
    assert np.array_equal(t, divide_gaps_ref(g, den, keep))
    assert (t[:, ~keep] == 0).all()


@pytest.mark.parametrize("name", ["sphere", "haldane", "fourband", "coherent"])
def test_curvature_from_frame_matches_the_earlier_assembly(request, rng, name):
    model = request.getfixturevalue(name)
    frame = geometry.curvature_frame_grid(model, random_points(model, rng, 300))
    for beta in (0.3, 1.0, 7.0, models.BETA_INF):
        f, lam = geometry.uhlmann_curvature_from_frame(frame, beta)
        ref_f, ref_lam = uhlmann_curvature_from_frame_ref(frame, beta)
        assert_close(f, ref_f)
        assert np.array_equal(lam, ref_lam)


# ---------------------------------------------------------------------------
# Determinism and work per chunk

BETAS = (0.0, 0.4, 1.7, 12.0, models.BETA_INF)


@pytest.mark.parametrize("name", ["sphere", "haldane", "fourband", "coherent"])
def test_stacked_betas_equal_single_beta_calls_bit_for_bit(request, name):
    model = request.getfixturevalue(name)
    pts = chern.default_grid(model, 8).points_range(0, 40)
    stacked = geometry.thermal_trace_grid(model, pts, BETAS)
    assert stacked.shape[0] == len(BETAS)
    for beta, row in zip(BETAS, stacked):
        assert np.array_equal(row, geometry.thermal_trace_grid(model, pts, beta))


def test_trace_coefficients_run_once_per_chunk(monkeypatch, haldane):
    calls = []
    original = geometry._trace_coefficients

    def counted(lam):
        calls.append(lam.shape[0])
        return original(lam)

    monkeypatch.setattr(geometry, "_trace_coefficients", counted)
    grid = chern.default_grid(haldane, 96)  # 9216 points: three chunks
    chunks = len(geometry._ranges(grid.n_points, chern.CHUNK_SIZE))
    assert chunks == 3
    for betas in [(1.0,), BETAS]:
        calls.clear()
        chern._first_order_results(haldane, betas, grid, 1, linalg.DEGENERACY_TOL)
        assert calls == [len(betas)] * chunks


def test_trace_blocks_bound_the_coefficients_and_keep_every_row(monkeypatch, rng):
    n, batch = 40, 16
    entries = batch * n * (n - 1) // 2  # coefficient entries per beta
    t = anti_hermitian(rng, (2, batch), n)
    lam = np.stack([gibbs(rng, batch, n, beta) for beta in (0.2, 0.9, 3.0)])
    pairs = geometry.direction_pairs(2)
    whole = geometry._trace_pairs(lam, t, pairs)
    sizes = []
    original = geometry._trace_coefficients

    def counted(lam):
        sizes.append(lam.shape[0])
        return original(lam)

    monkeypatch.setattr(geometry, "_trace_coefficients", counted)
    monkeypatch.setattr(geometry, "BLOCK_ENTRIES", 2 * entries)
    assert np.array_equal(geometry._trace_pairs(lam, t, pairs), whole)
    monkeypatch.setattr(geometry, "BLOCK_ENTRIES", entries - 1)  # below one beta: one at a time
    assert np.array_equal(geometry._trace_pairs(lam, t, pairs), whole)
    assert sizes == [2, 1, 1, 1, 1]
