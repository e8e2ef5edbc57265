"""The four-band model's closed-form eigenframe against eigh_batch.

FourBandGamma.eigenframe_batch reads the eigenpairs of H = r . Gamma
off its block form instead of eigendecomposing H. Its references are H
itself (H v = v diag(w), v unitary), the eigh_batch projector, and the
same model without the hook (conftest.EighFourBand), whose integrals
take the generic eigh path. Overflow and gap closings must fail or
succeed exactly as on that path. FourBandGamma.ground_block_batch takes
the ground-excited block of g from the same Clifford reflection with no
v, points last in memory; the ground-block jobs read it. Its rows over the
gaps equal the frame's ground rows entry for entry (a zero may differ in
sign), and the ground curvature built from them is the frame's byte for byte.
"""
import math

import numpy as np
import pytest

from uhlmann_chern import chern, geometry, linalg, models
from uhlmann_chern.errors import GapClosed, NonFiniteInput

from conftest import EighFourBand, cell_points
from test_ground_size import LiftedFourBand

pytestmark = pytest.mark.filterwarnings("ignore::uhlmann_chern.errors.ResolutionTooLowWarning")

MASSES = [1.5, 0.3, -1.0, -3.0]  # r5 of both signs on every grid


def near_gap_points():
    """Points where |R| is roundoff (~1e-16) for m = -4 and m = 2."""
    a, b = math.pi / 4, 3 * math.pi / 4
    return np.array([[a, a, a, a], [a, b, b, b], [b, a, b, b]])


# |m| = 1e8 makes |R| + r5 cancel entirely on one branch of r5's sign.
@pytest.mark.parametrize("m", MASSES + [-4.0, 2.0, 1e8, -1e8])
def test_frame_diagonalises_h(rng, m):
    model = models.FourBandGamma(m=m)
    pts = np.concatenate([cell_points(model, rng, 200), near_gap_points()])
    w, v, g = model.eigenframe_batch(pts)
    h = model.hamiltonian_batch(pts)
    size = np.abs(w[:, 3])
    np.testing.assert_array_equal(w, np.stack([-size, -size, size, size], axis=1))
    residual = np.abs(h @ v - v * w[:, None, :]).max(axis=(1, 2))
    assert (residual <= 1e-14 * size).all()
    eye = np.abs(v.conj().swapaxes(-1, -2) @ v - np.eye(4)).max()
    assert eye <= 1e-14
    grads = np.stack([model.gradient_batch(pts, mu) for mu in range(4)])
    err = np.abs(g - linalg._eigenbasis_gradients(v, grads)).max(axis=(0, 2, 3))
    assert (err <= 1e-14 * np.maximum(1.0, np.abs(g).max(axis=(0, 2, 3)))).all()


def assert_clifford_blocks(r, dr):
    """g from _gamma_eigenpairs has the closed form's block shape exactly:
    G-- = -d|R| I, G++ = d|R| I, G+- = G-+^dagger; it equals the rotation
    v^dagger (dr . Gamma) v to 1e-14 max(1, max|g|) per point."""
    _, v, g = models._gamma_eigenpairs(r, dr)
    assert g.shape == dr.shape[:2] + (4, 4) and np.isfinite(g).all()
    d = -g[:, :, 0, 0]
    np.testing.assert_array_equal(d.imag, 0.0)
    for i, sign in enumerate([-1.0, -1.0, 1.0, 1.0]):
        np.testing.assert_array_equal(g[:, :, i, i], sign * d)
    np.testing.assert_array_equal(g[:, :, 0, 1], 0.0)
    np.testing.assert_array_equal(g[:, :, 1, 0], 0.0)
    np.testing.assert_array_equal(g[:, :, 2, 3], 0.0)
    np.testing.assert_array_equal(g[:, :, 3, 2], 0.0)
    np.testing.assert_array_equal(g[:, :, 2:, :2], g[:, :, :2, 2:].conj().swapaxes(-1, -2))
    ref = linalg._eigenbasis_gradients(v, models._basis_dot(dr, models.GAMMA))
    scale = np.maximum(1.0, np.abs(g).max(axis=(0, 2, 3)))
    assert (np.abs(g - ref).max(axis=(0, 2, 3)) <= 1e-14 * scale).all()
    return d


@pytest.mark.parametrize("m", MASSES + [-4.0, 2.0, 1e8, -1e8, 1e200])
def test_gradient_blocks_are_the_closed_form(rng, m):
    model = models.FourBandGamma(m=m)
    pts = np.concatenate([cell_points(model, rng, 200), near_gap_points()])
    r = model.r_vector_batch(pts)
    dr = np.stack([model.r_gradient_batch(pts, mu) for mu in range(4)])
    d = assert_clifford_blocks(r, dr)
    # d|R| = rhat . dr, on the scaled vector; the diagonal blocks carry it
    u = r / np.abs(r).max(axis=1, keepdims=True)
    rhat = u / np.linalg.norm(u, axis=1, keepdims=True)
    ref = (rhat * dr).sum(axis=-1)
    assert np.abs(d - ref).max() <= 1e-14 * max(1.0, np.abs(ref).max())
    np.testing.assert_array_equal(model.eigenframe_batch(pts)[2], models._gamma_eigenpairs(r, dr)[2])


def test_gradients_on_the_branch_tie_and_at_zero(rng):
    r = rng.normal(size=(300, 5))
    r[:, 4] = 0.0  # r5 = 0 exactly: the r5 >= 0 columns
    assert_clifford_blocks(r, rng.normal(size=(4, 300, 5)))
    # r = 0: the permuted identity frame, where g is the gradient itself
    dr = rng.normal(size=(4, 1, 5))
    d = assert_clifford_blocks(np.zeros((1, 5)), dr)
    np.testing.assert_array_equal(d, dr[:, :, 4])


def test_zero_vector_gives_a_unitary_frame():
    w, v, _ = models._gamma_eigenpairs(np.zeros((1, 5)), np.zeros((4, 1, 5)))
    np.testing.assert_array_equal(w, 0.0)
    np.testing.assert_array_equal(v[0] @ v[0].conj().T, np.eye(4))


@pytest.mark.parametrize("m", MASSES)
def test_ground_projector_matches_eigh(rng, m):
    model = models.FourBandGamma(m=m)
    pts = cell_points(model, rng, 300)
    _, v, _ = model.eigenframe_batch(pts)
    _, ve = linalg.eigh_batch(model.hamiltonian_batch(pts))
    p = v[:, :, :2] @ v[:, :, :2].conj().swapaxes(-1, -2)
    pe = ve[:, :, :2] @ ve[:, :, :2].conj().swapaxes(-1, -2)
    assert np.abs(p - pe).max() <= 1e-14


def test_each_point_frame_does_not_depend_on_its_chunk(rng):
    model = models.FourBandGamma(m=-1.0)
    pts = cell_points(model, rng, chern.CHUNK_SIZE)
    w, v, g = model.eigenframe_batch(pts)
    for b, p in enumerate(pts):
        wb, vb, gb = model.eigenframe_batch(p[None])
        np.testing.assert_array_equal(wb[0], w[b])
        np.testing.assert_array_equal(vb[0], v[b])
        np.testing.assert_array_equal(gb[:, 0], g[:, b])


def second_order_values(model, grid, workers=1):
    return [
        chern.second_thermal_uc(model, models.BETA_INF, grid, workers=workers).value,
        chern.second_thermal_uc(model, 1.1, grid, workers=workers).value,
        chern.second_chern_pure(model, grid, workers=workers).value,
    ]


@pytest.mark.parametrize("m", [1.5, -1.0])
def test_integrals_match_the_eigh_path(m):
    model = models.FourBandGamma(m=m)
    grid = chern.default_grid(model, 8)
    got = second_order_values(model, grid)
    ref = second_order_values(EighFourBand(m), grid)
    assert np.abs(np.subtract(got, ref)).max() <= 1e-12
    assert second_order_values(model, grid, workers=2) == got


def test_integrals_make_no_rotation_products(monkeypatch):
    """The four-band integrals take g from the closed form: neither dH nor
    the rotation v^dagger dH v is built. The hookless wrapper still takes
    the rotation, so the patch is seen to bite."""
    def boom(*args):
        raise AssertionError("rotation path called")

    monkeypatch.setattr(models.FourBandGamma, "gradient_batch", boom)
    for module in (linalg, geometry):
        monkeypatch.setattr(module, "_eigenbasis_gradients", boom)
    model = models.FourBandGamma(m=1.25)
    grid = chern.default_grid(model, 8)
    assert all(np.isfinite(second_order_values(model, grid)))
    with pytest.raises(AssertionError, match="rotation path"):
        chern.second_thermal_uc(EighFourBand(1.25), 1.1, grid)


@pytest.mark.filterwarnings("error")  # the determinant route squares no entry of R
def test_huge_mass_gives_zero_without_overflow():
    model = models.FourBandGamma(m=1e200)
    grid = chern.default_grid(model, 8)
    assert chern.second_thermal_uc(model, models.BETA_INF, grid).value == 0.0
    assert chern.second_thermal_uc(model, 1.0, grid).value == 0.0
    assert chern.second_chern_pure(model, grid).value == 0.0


@pytest.mark.parametrize("m", [1e308, math.inf, -math.inf, math.nan])
@pytest.mark.filterwarnings("error")  # the typed error comes before any numpy warning
def test_non_finite_spectrum_raises(m):
    model = models.FourBandGamma(m=m)
    grid = chern.default_grid(model, 8)
    with pytest.raises(NonFiniteInput):
        model.eigenframe_batch(np.full((1, 4), 0.3))
    for beta in (models.BETA_INF, 1.0):
        with pytest.raises(NonFiniteInput):
            chern.second_thermal_uc(model, beta, grid)
    with pytest.raises(NonFiniteInput):
        chern.second_chern_pure(model, grid)


@pytest.mark.parametrize("m", [2.0, -4.0])
def test_gap_closing_matches_the_eigh_path(m):
    model = models.FourBandGamma(m=m)
    grid = chern.default_grid(model, 10)  # holds points where |R| ~ 1e-16
    with pytest.raises(GapClosed):
        chern.second_thermal_uc(model, models.BETA_INF, grid)
    with pytest.raises(GapClosed):
        chern.second_chern_pure(model, grid)
    got = chern.second_thermal_uc(model, 1.0, grid).value
    ref = chern.second_thermal_uc(EighFourBand(m), 1.0, grid).value
    assert abs(got - ref) <= 1e-12


def test_basis_dot_is_the_term_by_term_sum(rng):
    for table in (models.PAULI, models.GAMMA):
        r = rng.normal(size=(50, table.shape[0]))
        ref = np.einsum("...i,ijk->...jk", r, table)
        np.testing.assert_array_equal(models._basis_dot(r, table), ref)
        np.testing.assert_array_equal(models._basis_dot(r[0], table), ref[0])


class ScaledFourBand(models.FourBandGamma):
    """FourBandGamma with r and its gradients scaled by 1e306: |R| near the float limit."""

    def r_jet_batch(self, pts):
        r, dr = super().r_jet_batch(pts)
        return 1e306 * r, 1e306 * dr


@pytest.mark.parametrize("model", [models.FourBandGamma(m=m) for m in MASSES + [1e8, -1e8]]
                         + [ScaledFourBand(m=1.5), ScaledFourBand(m=-1.0)], ids=repr)
def test_the_hook_rows_are_the_frame_rows_bit_for_bit(rng, model):
    pts = np.concatenate([cell_points(model, rng, 300), near_gap_points()])
    tol = linalg.DEGENERACY_TOL
    w, _, _, labels, _, t = geometry._spectral_data(model, pts, tol)
    ref = geometry._run_rows(t, 0, 2)
    wh, block = model.ground_block_batch(pts)
    np.testing.assert_array_equal(wh, w)
    np.testing.assert_array_equal(block, model.eigenframe_batch(pts)[2][:, :, :2, 2:])
    assert block.strides[1] == block.itemsize  # points last in memory, where its products run
    assert np.isfinite(ref).all() and np.abs(ref).max() > 0
    np.testing.assert_array_equal(geometry._ground_rows(w, labels, block, 2), ref)
    # a whole g is cut to the same block before its division
    np.testing.assert_array_equal(
        geometry._ground_rows(w, labels, model.eigenframe_batch(pts)[2], 2), ref)
    wf, lf, frame, f = geometry._ground_frame(model, pts, tol)
    assert frame is None
    np.testing.assert_array_equal(wf, w)
    np.testing.assert_array_equal(lf, labels)
    assert f.tobytes() == geometry._cluster_curvature(ref).tobytes()  # zero signs too


@pytest.mark.parametrize("m", [1e308, math.inf, -math.inf, math.nan])
@pytest.mark.filterwarnings("error")  # the typed error comes before any numpy warning
def test_the_hook_raises_on_a_non_finite_spectrum(m):
    with pytest.raises(NonFiniteInput):
        models.FourBandGamma(m=m).ground_block_batch(np.full((3, 4), 0.3))


def test_the_ground_jobs_never_form_v(monkeypatch):
    """The three four-band integrals of the benchmark run on the hook alone: no v, and no
    frame for the tangents, since every chunk is two-valued. The hookless wrapper still
    decomposes H, and a call that needs v is seen to hit the patch."""
    def boom(*args):
        raise AssertionError("v formed")

    monkeypatch.setattr(models.FourBandGamma, "eigenframe_batch", boom)
    monkeypatch.setattr(models, "_gamma_eigenpairs", boom)
    monkeypatch.setattr(chern, "curvature_frame_grid", boom)
    model = models.FourBandGamma(m=1.25)
    grid = chern.default_grid(model, 16)
    got = [chern.second_thermal_uc(model, models.BETA_INF, grid),
           chern.second_thermal_uc(model, 1.0, grid), chern.second_chern_pure(model, grid)]
    assert abs(got[0].value - 1.5) <= 0.05 and abs(got[2].value - 3.0) <= 0.05
    assert np.isfinite(got[1].value) and abs(got[1].value) < 1.5
    with pytest.raises(AssertionError, match="v formed"):
        geometry.curvature_frame_grid(model, grid.points_range(0, 8))
    eighs = []
    monkeypatch.setattr(geometry, "eigh_batch", lambda h: eighs.append(len(h)) or linalg.eigh_batch(h))
    small = chern.default_grid(model, 8)
    ref = chern.second_chern_pure(EighFourBand(1.25), small).value
    assert eighs == [small.n_points]  # the generic path, one decomposition a point
    monkeypatch.undo()
    assert abs(chern.second_chern_pure(model, small).value - ref) <= 1e-12


def test_a_hookless_chunk_builds_its_frame_once_for_both_laws(monkeypatch):
    """At BETA_INF and at a beta whose chunk is not two-valued, the ground rows are cut from
    the one frame that the closed-form curvature then divides in place."""
    model = LiftedFourBand()
    pts = chern.default_grid(model, 16).points_range(0, chern.CHUNK_SIZE)  # one ground size
    betas, tol = (models.BETA_INF, 1.0), linalg.DEGENERACY_TOL
    eighs = []
    monkeypatch.setattr(geometry, "eigh_batch", lambda h: eighs.append(len(h)) or linalg.eigh_batch(h))
    both = chern._second_order_job(model, pts, betas, tol)
    assert eighs == [len(pts)]
    cold, warm = (chern._second_order_job(model, pts, (beta,), tol) for beta in betas)
    assert both == (cold[0], cold[1], warm[1], cold[2], warm[2])
