"""Any configuration the schema accepts ends with a defined exit code.

The CLI promises 0 (success), 1 (verification failure), 2 (config
error) or 3 (numeric failure). Configurations are drawn per model
variant, including non-finite and overflowing parameters, and every one
that passes config_schema.json must end in one of those codes, never in
an uncaught exception, and without a numpy RuntimeWarning on the way (the
package's own UserWarnings are allowed). Integer fields are also drawn
as integral floats such as 8.0, which JSON Schema counts as integers.
Grids stay at 8-10 points per direction. Each run draws mostly the run keys
its command reads, so that it reaches the numerics; one draw in ten adds a
key the command does not read, and that run must exit 2. A NaN degeneracy
tolerance, which the schema lets through, must end in exit 2 or 3.
"""
import contextlib
import io
import json
import math
import tempfile
import warnings
from pathlib import Path

from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from uhlmann_chern import cli

SPECIAL = [0.0, -0.0, 1e-300, 1e308, -1e308, math.inf, -math.inf, math.nan]
numbers = st.one_of(st.floats(-6.0, 6.0), st.sampled_from(SPECIAL))
positive = st.one_of(st.floats(1e-3, 10.0), st.sampled_from([1e-300, 1e308, math.inf]))
# The schema's exclusiveMinimum lets a NaN tolerance through.
tolerance = st.one_of(st.floats(1e-3, 10.0), st.sampled_from([1e-300, 1e308, math.inf, math.nan]))


def optional(strategy):
    return st.one_of(st.none(), strategy)


def integral(strategy):
    """An integer field's values, as ints or as the integral floats (8.0)
    that JSON Schema also counts as integers."""
    return st.one_of(strategy, strategy.map(float))


PARAMETERS = {
    "two_level_sphere": st.fixed_dictionaries({}, optional={"radius": positive}),
    "haldane": st.fixed_dictionaries({"t1": numbers, "t2": numbers, "phi": numbers, "M": numbers}),
    "four_band_gamma": st.fixed_dictionaries({"m": numbers}),
    "coherent_oscillator": st.fixed_dictionaries(
        {}, optional={"hbar_omega": positive, "fock_dim": integral(st.integers(8, 40))}
    ),
}


# The run keys each command reads besides "type"; a 4D chern reads no band.
READS = {"sweep": ["order", "temperatures"], "map": ["temperatures"], "chern": ["band"],
         "verify": []}
temperature = st.one_of(st.floats(-0.5, 3.0), st.sampled_from([0.0, 1e-300, 1e308, math.inf]))


@st.composite
def configs(draw):
    # Most draws match the grid to the model and give temperatures, so
    # that they reach the numerics rather than a config error.
    variant = draw(st.sampled_from(sorted(PARAMETERS)))
    dim = 4 if variant == "four_band_gamma" else 2
    run = {"type": draw(st.sampled_from(["sweep", "map", "chern", "verify"]))}
    longest = 1 if run["type"] == "map" else 3
    temperatures = draw(st.one_of(
        st.lists(temperature, min_size=1, max_size=longest).map(sorted),
        st.lists(temperature, max_size=3),
    ))
    keys = {"temperatures": st.just(temperatures), "order": integral(st.sampled_from([1, 2])),
            "band": integral(st.integers(0, 3))}
    reads = READS[run["type"]]
    if "temperatures" in reads and draw(st.integers(0, 9)):
        run["temperatures"] = temperatures
    run.update(draw(st.fixed_dictionaries(
        {}, optional={key: keys[key] for key in reads if key != "temperatures"})))
    unread = sorted(set(keys) - set(reads))
    if unread and not draw(st.integers(0, 9)):  # one draw in ten adds a key the run ignores
        key = draw(st.sampled_from(unread))
        run[key] = draw(keys[key])
    size = draw(st.one_of(st.just(dim), st.integers(2, 4)))
    cfg = {
        "model": {"variant": variant, "parameters": draw(PARAMETERS[variant])},
        "grid": {"resolution": draw(st.lists(integral(st.integers(8, 10)), min_size=size,
                                             max_size=size))},
        "run": run,
    }
    workers = draw(optional(integral(st.sampled_from([1, 2]))))
    if workers is not None:
        cfg["workers"] = workers
    tolerances = draw(optional(st.fixed_dictionaries(
        {}, optional={"degeneracy": tolerance, "fd_step": positive}
    )))
    if tolerances is not None:
        cfg["tolerances"] = tolerances
    return cfg


HALDANE_SWEEP = {
    "model": {"variant": "haldane", "parameters": {"t1": 1.0, "t2": 0.5, "phi": 1.5, "M": 0.3}},
    "grid": {"resolution": [8, 8]},
    "run": {"type": "sweep", "temperatures": [0.5, 1.0]},
}


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(configs())
@example({**HALDANE_SWEEP, "tolerances": {"degeneracy": math.nan}})
@example({"model": {"variant": "four_band_gamma", "parameters": {"m": 1.5}},
          "grid": {"resolution": [8, 8, 8, 8]}, "run": {"type": "chern", "band": 1}})
def test_schema_valid_config_exits_with_a_defined_code(cfg):
    assume(not cli._schema_errors(cfg))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(cfg))
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()), \
                warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = cli.main(["--config", str(path), "--out", str(Path(tmp) / "out")])
    assert code in (0, 1, 2, 3)
    run = cfg["run"]
    unread = set(run) - {"type", *READS[run["type"]]}
    if unread or (run["type"] == "chern" and "band" in run
                  and cfg["model"]["variant"] == "four_band_gamma"):
        assert code == 2  # a run key its command does not read
    if math.isnan(cfg.get("tolerances", {}).get("degeneracy", 0.0)):
        assert code in (2, 3)  # no run succeeds or verifies with a NaN tolerance
    numpy_warnings = [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)]
    assert not numpy_warnings, numpy_warnings
