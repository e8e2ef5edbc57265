"""Library entry points either raise a UhlmannChernError or return finite values.

The CLI schema keeps bad arguments away from its users, so the config
fuzz cannot reach the library's own argument checks. This fuzz calls
them directly: GridSpec resolutions (integers, integral floats,
non-integral values, +-inf, NaN and sizes past an index); weights_batch
and the sphere's three closed-form references at special betas; and
temperature_sweep on an 8^2 sphere grid with empty, zero, negative, NaN
and non-ascending temperatures and orders 0 to 3. A second fuzz runs the
lattice oracle, berry_curvature and wz_curvature on Haldane and sphere
models with special parameters and with band groups of every kind:
integers, integral and non-integral floats, NaN, repeats, empty, out of
range, None and strings. numpy RuntimeWarnings are raised as errors, so
an overflow or an invalid operation on the way counts as a failure too,
a grid that is built must have the resolution asked for, and the
oracle's value must be an int.
"""
import math
import warnings

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from uhlmann_chern import chern, geometry, models
from uhlmann_chern.errors import UhlmannChernError

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
    st.tuples(st.just("sweep"), temperatures, st.integers(0, 3)),
)


# Model parameters, band groups and curvature points for the oracle fuzz.
PARAMS = st.sampled_from([0.0, 1.0, -1.0, 0.5, 1e308, -1e308, math.inf, -math.inf, math.nan,
                          5e-324])
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
POINTS = {models.Haldane: (0.3, 0.7), models.TwoLevelSphere: (1.0, 0.5)}


def run(call):
    kind, *args = call
    if kind == "grid":  # the grid asked for, never a truncation of it
        resolution = chern.GridSpec(SPHERE.manifold, args[0]).resolution
        assert resolution == args[0] and all(type(r) is int for r in resolution)
        return resolution
    if kind == "weights":
        return models.weights_batch(*args)
    if kind == "sweep":  # T = inf and beta = inf are inputs, not results
        result = chern.temperature_sweep(SPHERE, args[0], SPHERE_GRID, order=args[1])
        return [result.values] + [[d[key] for d in result.diagnostics] for key in
                                  ("imag_residual", "max_trace_residual", "route_disagreement")]
    if kind == "pure_chern_fhs":
        (cls, params), group = args
        model = cls(*params)
        report = chern.pure_chern_fhs(model, group, chern.default_grid(model, 8), detail=True)
        assert type(report["value"]) is int
        return list(report.values())
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
