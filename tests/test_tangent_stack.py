"""Each spectral pass holds one (d, B, N, N) tangent stack.

geometry._spectral_data divides the tangents in the frame's own g when g
is writeable, and returns the energy derivatives diag(g).real in g's
place. The ground-block jobs divide only the ground-excited block of g
(geometry._ground_rows), which the four-band model hands out with no
frame at all (ground_block_batch). A four-band chunk then peaks well below
the three stacks it held before. A g that is read-only, such as a cached
array, or of a narrower dtype gets the out-of-place division and the same
bits.
"""
import tracemalloc
import warnings

import numpy as np
import pytest

from uhlmann_chern import chern, geometry, linalg, models
from uhlmann_chern.errors import ResolutionTooLowWarning

from conftest import random_points

TOL = linalg.DEGENERACY_TOL

# One 4,096-point four-band chunk peaked at 10.44 MiB with a second
# tangent stack; it holds one now (6.94 MiB).
CHUNK_PEAK_BOUND = 7.5 * 2**20


@pytest.mark.parametrize("name", ["sphere", "haldane", "fourband", "coherent"])
def test_spectral_data_divides_a_fresh_frame_bit_for_bit(request, rng, name):
    model = request.getfixturevalue(name)
    pts = random_points(model, rng, 64)
    w, _, de, labels, keep, t = geometry._spectral_data(model, pts, TOL)
    w0, _, g = geometry._frame_data(model, pts)
    den, keep0 = geometry._gap_mask(w0, linalg.cluster_labels(w0, TOL))
    assert np.array_equal(de, np.diagonal(g, axis1=-2, axis2=-1).real)
    assert np.array_equal(t, geometry._divide_gaps(g, den, keep0))
    assert np.array_equal(keep, keep0) and de.shape == t.shape[:3]


def test_divide_gaps_returns_a_new_array_by_default(fourband, rng):
    w, _, g = geometry._frame_data(fourband, random_points(fourband, rng, 16))
    den, keep = geometry._gap_mask(w, linalg.cluster_labels(w, TOL))
    before = g.copy()
    t = geometry._divide_gaps(g, den, keep)
    assert np.array_equal(g, before) and not np.shares_memory(t, g)
    assert geometry._divide_gaps(g, den, keep, out=g) is g
    assert np.array_equal(g, t)


def test_a_narrower_g_is_divided_out_of_place(fourband, rng, monkeypatch):
    pts = random_points(fourband, rng, 16)
    w, v, g = fourband.eigenframe_batch(pts)
    narrow = g.astype(np.complex64)
    monkeypatch.setattr(geometry, "_frame_data", lambda model, pts: (w, v, narrow))
    t = geometry._spectral_data(fourband, pts, TOL)[5]
    den, keep = geometry._gap_mask(w, linalg.cluster_labels(w, TOL))
    assert t.dtype == np.complex128 and np.array_equal(t, geometry._divide_gaps(narrow, den, keep))
    assert np.array_equal(narrow, g.astype(np.complex64))


@pytest.mark.parametrize("job, params", [(chern._second_order_job, (models.BETA_INF,)),
                                         (chern._second_order_job, (1.0,)),
                                         (chern._pure_job, None)])
def test_a_four_band_chunk_holds_one_tangent_stack(fourband, job, params):
    pts = chern.default_grid(fourband, 16).points_range(0, chern.CHUNK_SIZE)
    job(fourband, pts, params, TOL)  # first-call allocations stay out of the count
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        job(fourband, pts, params, TOL)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= CHUNK_PEAK_BOUND, peak / 2**20


class ReadOnlyFrame:
    """FourBandGamma whose eigenframe_batch hands out read-only arrays, as
    a cache would; it keeps each frame with a copy to check it is untouched.
    It hides the ground-block hook, so every job reads the frame."""

    def __init__(self, inner):
        self._inner = inner
        self.frames = []

    def __getattr__(self, name):
        if name == "ground_block_batch":
            raise AttributeError(name)
        return getattr(self._inner, name)

    def eigenframe_batch(self, pts):
        frame = self._inner.eigenframe_batch(pts)
        for a in frame:
            a.setflags(write=False)
        self.frames.append((frame, tuple(a.copy() for a in frame)))
        return frame


def test_a_read_only_frame_gives_the_same_bits_and_stays_untouched(fourband, rng):
    cached = ReadOnlyFrame(fourband)
    grid = chern.default_grid(fourband, 8)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ResolutionTooLowWarning)
        for beta in (models.BETA_INF, 1.0):
            got, want = (chern.second_thermal_uc(m, beta, grid) for m in (cached, fourband))
            assert (got.value, got.imag_residual, got.extra) == (want.value, want.imag_residual,
                                                                 want.extra)
        assert chern.second_chern_pure(cached, grid).value == chern.second_chern_pure(
            fourband, grid).value
    pts = random_points(fourband, rng, 32)
    for got, want in zip(geometry.curvature_frame_grid(cached, pts),
                         geometry.curvature_frame_grid(fourband, pts)):
        assert np.array_equal(got, want)
    assert len(cached.frames) == 4
    for frame, copies in cached.frames:
        assert all(not a.flags.writeable and np.array_equal(a, c) for a, c in zip(frame, copies))
