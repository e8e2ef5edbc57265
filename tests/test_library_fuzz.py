"""Library entry points either raise a UhlmannChernError or return finite values.

The CLI schema keeps bad arguments away from its users, so the config
fuzz cannot reach the library's own argument checks. This fuzz calls
them directly: GridSpec resolutions (integers, integral floats,
non-integral values, +-inf, NaN and sizes past an index); weights_batch
and the sphere's three closed-form references at special betas; and
temperature_sweep on an 8^2 sphere grid with empty, zero, negative, NaN
and non-ascending temperatures. A second fuzz runs the lattice oracle,
berry_curvature and wz_curvature on Haldane and sphere models with
special parameters (among them "1", None, 1j and 10**400, no real
number, which every constructor rejects) and with band groups of every kind:
integers, integral and non-integral floats, NaN, repeats, empty, out of
range, None and strings. A third fuzz builds FourBandGamma and
CoherentOscillator models with special parameters (fock_dim 8.0, 8.5,
NaN, None and "8" among them) and calls thermal_state, the per-point
views uhlmann_connection_spectral and thermal_trace_spectral,
gradient_batch with drawn directions, first_thermal_uc on 8^2 grids and
second_thermal_uc and second_chern_pure on 8^4 grids. A fourth fuzz
compares second_thermal_uc on FourBandGamma (two-valued chunks, one ground
block each) and on its hookless conftest.EighFourBand (the generic kernel)
at 8^4, across gapped masses and betas from 0 to BETA_INF, and checks that
a two-temperature sweep equals its single-beta integrals bit for bit. A
fifth fuzz draws worker counts and degeneracy tolerances, legal and not, for
the integrals, the oracle, a sweep, berry_curvature and thermal_state: a
value outside its rule raises InvalidArgument, and a legal one runs. numpy
RuntimeWarnings are raised as errors, so an overflow or an invalid
operation on the way counts as a failure too; a grid that is built must
have the resolution asked for, an oscillator the fock_dim asked for as
an int, a direction that is accepted must be one of the model's, and
the oracle's value must be an int.
"""
import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from uhlmann_chern import chern, geometry, linalg, models
from uhlmann_chern.errors import InvalidArgument, UhlmannChernError

from conftest import EighFourBand

BETAS = [0.0, 5e-324, 1.0, 1e308, math.inf, -1.0, -math.inf, math.nan]
SPHERE = models.TwoLevelSphere(radius=1.3)
SPHERE_GRID = chern.default_grid(SPHERE, 8)

resolutions = st.one_of(
    st.integers(-2, 12),
    st.integers(-2, 12).map(float),
    st.tuples(st.integers(-3, 12), st.floats(0.01, 0.99)).map(sum),  # non-integral
    st.sampled_from([math.inf, -math.inf, math.nan, 2**32, 10**400]),
)
spectra = st.lists(st.floats(-5.0, 5.0), min_size=1, max_size=5).map(lambda w: np.sort(w)[None])
temperatures = st.lists(st.sampled_from([0.0, -1.0, math.nan, 5e-324, 0.1, 0.5, 2.0, math.inf]),
                        max_size=3)
sphere_points = st.tuples(st.floats(0.0, math.pi), st.floats(0.0, 2.0 * math.pi))

calls = st.one_of(
    st.tuples(st.just("grid"), st.tuples(resolutions, resolutions)),
    st.tuples(st.just("weights"), spectra, st.sampled_from(BETAS)),
    st.tuples(st.sampled_from(["thermal_trace_exact", "uhlmann_curvature_exact",
                               "uhlmann_connection_exact"]), sphere_points, st.sampled_from(BETAS)),
    st.tuples(st.just("sweep"), temperatures),
)


# Model parameters, band groups and curvature points for the oracle fuzz;
# the parameters include values that are no real number.
PARAMS = st.sampled_from([0.0, 1.0, -1.0, 0.5, 1e308, -1e308, math.inf, -math.inf, math.nan,
                          5e-324, "1", None, 1j, 10**400])
indices = st.one_of(st.integers(-1, 3), st.integers(-1, 3).map(float),
                    st.sampled_from([0.5, 1.9, math.nan, math.inf, None, "a", "1"]))
groups = st.one_of(indices, st.lists(indices, max_size=3), st.just([0, 0]))
oracle_calls = st.tuples(
    st.sampled_from(["pure_chern_fhs", "berry_curvature", "wz_curvature"]),
    st.one_of(st.tuples(st.just(models.Haldane), st.tuples(PARAMS, PARAMS, PARAMS, PARAMS)),
              st.tuples(st.just(models.TwoLevelSphere), st.tuples(PARAMS)),
              st.sampled_from([(models.Haldane, (1.0, 0.5, 1.5, 0.2)),  # gapped, so the
                               (models.TwoLevelSphere, (1.3,))])),  # groups are reached
    groups,
)
POINTS = {models.Haldane: (0.3, 0.7), models.TwoLevelSphere: (1.0, 0.5),
          models.FourBandGamma: (0.3, 0.7, 1.1, 0.2), models.CoherentOscillator: (0.3, -0.2)}

# Four-band and oscillator parameters, directions and betas for the model fuzz.
FOCK_DIMS = st.sampled_from([8, 8.0, 8.5, 7, 129, math.nan, math.inf, None, "8"])
directions = st.one_of(st.integers(-1, 4), st.integers(-1, 4).map(float),
                       st.sampled_from([0.5, 1.9, math.nan, math.inf, None, "1"]))
MODEL_KINDS = ["thermal_state", "uhlmann_connection_spectral", "thermal_trace_spectral",
               "gradient_batch", "first_thermal_uc", "second_thermal_uc", "second_chern_pure"]
model_calls = st.tuples(
    st.sampled_from(MODEL_KINDS),
    st.one_of(st.tuples(st.just(models.FourBandGamma), st.tuples(PARAMS)),
              st.tuples(st.just(models.CoherentOscillator), st.tuples(PARAMS, FOCK_DIMS)),
              st.sampled_from([(models.FourBandGamma, (1.5,)),  # gapped and in range, so
                               (models.CoherentOscillator, (1.0, 8))])),  # the calls run
    st.sampled_from(BETAS),
    directions,
)


def run_model_call(call):
    kind, (cls, params), beta, mu = call
    model = cls(*params)
    if cls is models.CoherentOscillator:  # the Fock dimension asked for, as an int
        assert type(model.fock_dim) is int and model.fock_dim == params[1]
    p = np.array(POINTS[cls])
    if kind == "gradient_batch":  # a direction that is accepted is one of the model's
        out = model.gradient_batch(p, mu)
        assert mu in range(model.dim)
        return out
    if kind == "thermal_state":
        state = models.thermal_state(model, p, beta)
        return np.concatenate([state.rho.ravel(), state.weights])
    if kind in ("uhlmann_connection_spectral", "thermal_trace_spectral"):
        out = getattr(geometry, kind)(model, p, beta)
        return getattr(out, "components", out)
    grid = chern.default_grid(model, 8)
    result = (chern.second_chern_pure(model, grid) if kind == "second_chern_pure"
              else getattr(chern, kind)(model, beta, grid))
    return [result.value, result.imag_residual] + [v for k, v in result.extra.items() if k != "beta"]


def run(call):
    kind, *args = call
    if kind == "grid":  # the grid asked for, never a truncation of it
        resolution = chern.GridSpec(SPHERE.manifold, args[0]).resolution
        assert resolution == args[0] and all(type(r) is int for r in resolution)
        return resolution
    if kind == "weights":
        return models.weights_batch(*args)
    if kind == "sweep":  # T = inf and beta = inf are inputs, not results
        result = chern.temperature_sweep(SPHERE, args[0], SPHERE_GRID)
        return [result.values] + [[d[key] for d in result.diagnostics] for key in
                                  ("imag_residual", "max_trace_residual", "route_disagreement")]
    if kind == "pure_chern_fhs":
        (cls, params), group = args
        model = cls(*params)
        report = chern.pure_chern_fhs(model, group, chern.default_grid(model, 8), detail=True)
        assert type(report["value"]) is int
        return list(report.values())
    if kind in MODEL_KINDS:
        return run_model_call(call)
    if kind == "argument call":
        return run_argument_call(*args)
    if kind in ("berry_curvature", "wz_curvature"):
        (cls, params), group = args
        return getattr(geometry, kind)(cls(*params), POINTS[cls], group).matrices
    return getattr(SPHERE, kind)(*args)


def check(call):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        try:
            out = run(call)
        except UhlmannChernError:
            return
    assert np.isfinite(np.asarray(out, dtype=complex)).all(), (call, out)


@settings(max_examples=300, deadline=None)
@given(calls)
def test_library_calls_raise_typed_errors_or_return_finite_values(call):
    check(call)


@settings(max_examples=300, deadline=None)
@given(oracle_calls)
def test_oracle_and_curvatures_raise_typed_errors_or_return_finite_values(call):
    check(call)


@settings(max_examples=300, deadline=None)
@given(model_calls)
@pytest.mark.filterwarnings("ignore::uhlmann_chern.errors.ResolutionTooLowWarning",
                            "ignore::uhlmann_chern.errors.TruncationWeightWarning")
def test_model_calls_raise_typed_errors_or_return_finite_values(call):
    check(call)


# Worker counts and degeneracy tolerances for the argument fuzz, each with
# whether its rule rejects it: a worker count is an integer >= 1 (1.0 is 1), a
# tolerance a real number >= 0, +inf included.
WORKERS = st.sampled_from([(1, False), (1.0, False), (True, False), (0, True), (-3, True),
                           (1.5, True), (math.nan, True), (math.inf, True), (None, True),
                           ("1", True), (1j, True)])
TOLERANCES = st.sampled_from([(linalg.DEGENERACY_TOL, False), (0.0, False), (1e-6, False),
                              (math.inf, False), (math.nan, True), (-1e-9, True),
                              (-math.inf, True), (None, True), ("1e-9", True), (1j, True)])
ARGUMENT_KINDS = ["first_thermal_uc", "second_thermal_uc", "second_chern_pure", "pure_chern_fhs",
                  "temperature_sweep", "berry_curvature", "thermal_state"]
HALDANE = models.Haldane(1.0, 0.5, 1.5, 0.2)


def run_argument_call(kind, beta, workers, tol):
    p = np.array(POINTS[models.Haldane])
    if kind == "berry_curvature":
        return geometry.berry_curvature(HALDANE, p, 0, degeneracy_tol=tol).matrices
    if kind == "thermal_state":
        return models.thermal_state(HALDANE, p, beta, degeneracy_tol=tol).rho
    args = {"workers": workers, "degeneracy_tol": tol}
    if kind == "pure_chern_fhs":
        return chern.pure_chern_fhs(HALDANE, 0, chern.default_grid(HALDANE, 8), **args)
    if kind == "temperature_sweep":
        return chern.temperature_sweep(SPHERE, [0.5, 2.0], SPHERE_GRID, **args).values
    if kind == "second_chern_pure":
        model = models.FourBandGamma(1.5)
        return chern.second_chern_pure(model, chern.default_grid(model, 8), **args).value
    model = models.FourBandGamma(1.5) if kind == "second_thermal_uc" else HALDANE
    return getattr(chern, kind)(model, beta, chern.default_grid(model, 8), **args).value


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(ARGUMENT_KINDS), st.sampled_from([0.7, models.BETA_INF]), WORKERS,
       TOLERANCES)
@pytest.mark.filterwarnings("ignore::uhlmann_chern.errors.ResolutionTooLowWarning")
def test_worker_counts_and_tolerances_raise_by_their_rules(kind, beta, workers, tol):
    (workers, bad_workers), (tol, bad_tol) = workers, tol
    bad_workers &= kind not in ("berry_curvature", "thermal_state")  # these take no workers
    if bad_workers or bad_tol:
        with warnings.catch_warnings(), pytest.raises(InvalidArgument):
            warnings.simplefilter("error", RuntimeWarning)
            run_argument_call(kind, beta, workers, tol)
    else:
        check(("argument call", kind, beta, workers, tol))


# Gapped four-band masses, and betas from 0 to BETA_INF for the cross-route fuzz.
MASSES = st.one_of(st.floats(1.0, 1.5), st.floats(2.5, 3.0))
FINITE_BETAS = st.one_of(st.sampled_from([0.0, 1e-3, 1e300]), st.floats(0.05, 20.0))


@settings(max_examples=20, deadline=None)
@given(MASSES, st.one_of(FINITE_BETAS, st.just(models.BETA_INF)),
       st.lists(FINITE_BETAS, min_size=2, max_size=2, unique=True))
@pytest.mark.filterwarnings("ignore::uhlmann_chern.errors.ResolutionTooLowWarning")
def test_two_valued_integrals_match_the_generic_kernel_and_their_sweeps(m, beta, pair):
    model = models.FourBandGamma(m)
    grid = chern.default_grid(model, 8)
    two = chern.second_thermal_uc(model, beta, grid)
    generic = chern.second_thermal_uc(EighFourBand(m), beta, grid)
    assert abs(two.value - generic.value) <= 1e-12 * max(1.0, abs(generic.value))
    temps = sorted({math.inf if b == 0.0 else 1.0 / (b * model.r0) for b in pair})
    assume(len(temps) == 2)  # two betas one ulp apart may share a temperature
    sweep = chern.temperature_sweep(model, temps, grid)
    for value, diag in zip(sweep.values, sweep.diagnostics):
        assert value == chern.second_thermal_uc(model, diag["beta"], grid).value
