"""The closed-form 2x2 path of linalg.eigh_batch against LAPACK.

Every two-band model goes through it, so it must keep the contract of
the LAPACK path: the Hermiticity and finiteness check first, ascending
eigenvalues, unitary columns whose largest-modulus entry is real
positive (first row on ties, as _fix_phases), the spectral-width
overflow check, and an orthonormal basis for H = cI.
"""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uhlmann_chern import linalg
from uhlmann_chern.errors import NonFiniteInput, NonHermitianInput


def hermitian_stack(rng, count, exponents):
    """count random Hermitian 2x2 matrices, matrix i scaled by 10**exponents[i]."""
    m = rng.normal(size=(count, 2, 2)) + 1j * rng.normal(size=(count, 2, 2))
    m = 0.5 * (m + m.conj().swapaxes(-1, -2))
    return m * (10.0 ** np.asarray(exponents, dtype=float))[:, None, None]


def assert_contract(ms, w, v):
    scale = np.abs(ms).max(axis=(-2, -1))
    assert np.all(np.diff(w, axis=-1) >= 0)
    rebuilt = (v * w[..., None, :]) @ v.conj().swapaxes(-1, -2)
    assert np.all(np.abs(rebuilt - ms).max(axis=(-2, -1)) <= 1e-14 * scale)
    gram = v.conj().swapaxes(-1, -2) @ v
    assert np.abs(gram - np.eye(2)).max() <= 1e-14
    # The largest-modulus entry of each column is real positive, the
    # first row on ties; within roundoff of a tie either may be it.
    mags = np.abs(v)
    real_pos = (v.imag == 0) & (v.real > 0)
    first = mags[..., 0, :] >= mags[..., 1, :]
    pivot_ok = np.where(first, real_pos[..., 0, :], real_pos[..., 1, :])
    near_tie = np.abs(mags[..., 0, :] - mags[..., 1, :]) <= 1e-15
    assert np.all(pivot_ok | near_tie & real_pos.any(axis=-2))


@given(seed=st.integers(0, 2**32 - 1), low=st.integers(-300, 300), span=st.integers(0, 600))
@settings(max_examples=60, deadline=None)
def test_closed_form_matches_lapack(seed, low, span):
    rng = np.random.default_rng(seed)
    exponents = rng.integers(low, min(low + span, 300) + 1, size=64)
    ms = hermitian_stack(rng, 64, exponents)
    w, v = linalg.eigh_batch(ms)
    w_ref, v_ref = np.linalg.eigh(ms)
    width = np.abs(w_ref).max(axis=-1, keepdims=True)
    assert np.all(np.abs(w - w_ref) <= 1e-13 * width)
    assert_contract(ms, w, v)
    # Same eigenvectors up to the columns' phases wherever the gap is resolved.
    overlap = np.abs((v_ref.conj() * v).sum(axis=-2))
    resolved = (w_ref[:, 1] - w_ref[:, 0]) > 1e-6 * width[:, 0]
    assert np.all(np.abs(overlap[resolved] - 1.0) <= 1e-12)


@given(seed=st.integers(0, 2**32 - 1), exponent=st.integers(-300, 300))
@settings(max_examples=40, deadline=None)
def test_each_matrix_is_solved_on_its_own(seed, exponent):
    rng = np.random.default_rng(seed)
    ms = hermitian_stack(rng, 5, rng.integers(-300, 301, size=5))
    ms[2] = hermitian_stack(rng, 1, [exponent])[0]
    w, v = linalg.eigh_batch(ms)
    w2, v2 = linalg.eigh_batch(ms[2:3])
    assert np.array_equal(w[2:3], w2) and np.array_equal(v[2:3], v2)


@pytest.mark.parametrize("exponent", [-300, -8, 0, 8, 300])
def test_diagonal_inputs_give_coordinate_vectors(exponent):
    s = 10.0 ** exponent
    for d0, d1 in ((1.0, 2.0), (2.0, 1.0), (-3.0, 5.0), (0.0, -1.0)):
        m = np.diag([d0 * s, d1 * s]).astype(np.complex128)
        w, v = linalg.eigh_batch(m[None])
        np.testing.assert_allclose(w[0], np.sort([d0 * s, d1 * s]), rtol=1e-15, atol=0)
        expected = np.eye(2) if d0 < d1 else np.eye(2)[:, ::-1]
        assert np.array_equal(v[0], expected)


@pytest.mark.parametrize("c", [0.0, 1.0, -2.5e-300, 7e300])
def test_scalar_matrix_gives_an_orthonormal_basis(c):
    m = c * np.eye(2, dtype=np.complex128)
    w, v = linalg.eigh_batch(m[None])
    assert np.array_equal(w[0], [c, c])
    assert np.array_equal(v[0], np.eye(2))


@given(seed=st.integers(0, 2**32 - 1), exponent=st.integers(-300, 300))
@settings(max_examples=40, deadline=None)
def test_equal_diagonal_ties(seed, exponent):
    # a = 0: both entries of each column have the same modulus, and the
    # first row takes the real positive phase, as in _fix_phases.
    rng = np.random.default_rng(seed)
    s = 10.0 ** exponent
    c = rng.normal(size=16) * s
    b = (rng.normal(size=16) + 1j * rng.normal(size=16)) * s
    ms = np.zeros((16, 2, 2), dtype=np.complex128)
    ms[:, 0, 0] = ms[:, 1, 1] = c
    ms[:, 1, 0], ms[:, 0, 1] = b, b.conj()
    w, v = linalg.eigh_batch(ms)
    np.testing.assert_allclose(w, np.stack([c - np.abs(b), c + np.abs(b)], axis=-1),
                               rtol=1e-15, atol=1e-15 * s)
    assert_contract(ms, w, v)
    assert np.all(v[:, 0, :].imag == 0) and np.all(v[:, 0, :].real > 0)


def test_subnormal_entries_stay_finite():
    for m in ([[0.0, 1e-320], [1e-320, 0.0]], [[1.0, 1e-320], [1e-320, 1.0]],
              [[1e-310, 3e-310j], [-3e-310j, -2e-310]]):
        w, v = linalg.eigh_batch(np.array(m, dtype=np.complex128)[None])
        assert np.isfinite(w).all() and np.isfinite(v).all()
        assert np.abs(v[0].conj().T @ v[0] - np.eye(2)).max() <= 1e-15


@pytest.mark.parametrize("entry", [math.nan, math.inf, complex(0.0, math.inf)])
def test_non_finite_entries_raise(entry):
    ms = np.stack([np.eye(2), np.eye(2)]).astype(np.complex128)
    ms[1, 1, 0] = entry
    ms[1, 0, 1] = np.conj(entry)
    with pytest.raises(NonFiniteInput):
        linalg.eigh_batch(ms)
    with pytest.raises(NonFiniteInput):
        linalg.eigh_batch(np.diag([entry, 1.0]).astype(np.complex128)[None])


@pytest.mark.filterwarnings("error")
def test_overflowing_width_and_non_hermitian_input_raise():
    # Overflow raises the typed error alone, as on the LAPACK path.
    for m in ([[1e308, 0.0], [0.0, -1e308]], [[7e307, 6e307], [6e307, -7e307]],
              [[0.0, 1.5e308 - 1.5e308j], [1.5e308 + 1.5e308j, 0.0]]):
        with pytest.raises(NonFiniteInput):
            linalg.eigh_batch(np.array([m], dtype=np.complex128))
    with pytest.raises(NonHermitianInput):
        linalg.eigh_batch(np.array([[[0.0, 1.0], [0.0, 0.0]]], dtype=np.complex128))
