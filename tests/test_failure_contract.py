"""The failure contract, property-tested on small adversarial data sets.

Each data set is a scenario I sample of 50 to 200 units with one feature
that strains the fits: an exact or near duplicate covariate, a constant
covariate, a covariate scaled by 10^6 or 10^-6, an arm of 2 to 5 units,
quasi-separated arms, a Cauchy outcome, or an outcome that is an exact
linear function of the outcome covariates.  Through ``run_estimators``,
every estimator either refuses with an ``EstimatorError`` or returns a
finite result; a ``RuntimeWarning`` on the way fails the test, since the
test configuration turns it into an error.
"""

import math

import numpy as np
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from drbayes.estimators import (
    ESTIMATOR_ORDER,
    IDENTITY,
    CovariateSpec,
    Dataset,
    EstimateResult,
    EstimatorError,
    ResamplingConfig,
)
from drbayes.numerics import RngStream
from drbayes.simulation import SCENARIOS, generate_data, run_estimators

PROPERTY = settings(
    max_examples=40,
    deadline=None,
    database=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
CFG = ResamplingConfig(n_draws=20, n_boot=20)
FEATURES = ("duplicate", "constant", "scaled", "small_arm", "separation", "cauchy", "linear")
# Estimators that fit no outcome model.
NO_OUTCOME_MODEL = {"naive", "iptw"}


def _with_column(data, spec, column, name, where, transform=IDENTITY):
    """``data`` with ``column`` appended as ``name``, added to the outcome
    (``where == "s"``) or the treatment covariates."""
    x = np.column_stack([data.x, column])
    data = Dataset(data.y, data.z, x, (*data.column_names, name))
    entry = ((x.shape[1] - 1, transform),)
    if where == "s":
        return data, CovariateSpec(spec.s_columns + entry, spec.b_columns)
    return data, CovariateSpec(spec.s_columns, spec.b_columns + entry)


@st.composite
def adversarial_data(draw):
    """``(data, spec, named)``: a scenario I data set with one feature, and
    the label every refusal must name (for an exact duplicate or a constant
    column), or None."""
    n = draw(st.integers(50, 200))
    seed = draw(st.integers(0, 2**16))
    feature = draw(st.sampled_from(FEATURES))
    data, spec = generate_data(n, RngStream(seed, 0)), SCENARIOS["I"]
    gen = RngStream(seed, 1).generator()
    y, z, x = data.y.copy(), data.z.copy(), data.x.copy()
    named = None
    if feature == "duplicate":
        where = draw(st.sampled_from("sb"))
        cols = spec.s_columns if where == "s" else spec.b_columns
        idx, transform = draw(st.sampled_from(cols))
        exact = draw(st.booleans())
        noise = 0.0 if exact else 10.0 ** draw(st.floats(-12.0, -4.0))
        column = x[:, idx] + noise * gen.standard_normal(n)
        data, spec = _with_column(data, spec, column, "dup", where, transform)
        if exact:
            named = "dup" if transform == IDENTITY else "abs(dup)"
        return data, spec, named
    if feature == "constant":
        value = draw(st.floats(-10.0, 10.0))
        data, spec = _with_column(data, spec, np.full(n, value), "const", draw(st.sampled_from("sb")))
        return data, spec, "const"
    if feature == "scaled":
        x[:, draw(st.integers(0, 3))] *= 10.0 ** draw(st.sampled_from([-6, 6]))
    elif feature == "small_arm":
        arm = draw(st.sampled_from([0.0, 1.0]))
        z[:] = 1.0 - arm
        z[gen.choice(n, draw(st.integers(2, 5)), replace=False)] = arm
    elif feature == "separation":
        z = (x[:, 1] > np.quantile(x[:, 1], draw(st.floats(0.2, 0.8)))).astype(float)
        flips = gen.choice(n, draw(st.integers(0, 3)), replace=False)
        z[flips] = 1.0 - z[flips]
    elif feature == "cauchy":
        y = gen.standard_cauchy(n)
    else:
        s = spec.s_matrix(data)
        y = 0.5 + s @ gen.standard_normal(s.shape[1])
    return Dataset(y, z, x, data.column_names), spec, named


def _outcome_key(outcome):
    """What a rerun must reproduce exactly."""
    if isinstance(outcome, EstimatorError):
        return type(outcome).__name__, str(outcome)
    draws = None if outcome.draws is None else outcome.draws.tobytes()
    return outcome.point, outcome.se, outcome.ci, repr(outcome.diagnostics), draws


def _run(data, spec):
    """All 13 estimators on a fresh copy of ``data``, nothing memoized."""
    fresh = Dataset(data.y, data.z, data.x, data.column_names)
    return run_estimators(fresh, spec, CFG, RngStream(7, 0), ESTIMATOR_ORDER)


def _repeated_treatment_column():
    # The treatment design (1, x2, x2): every estimator that needs its fit
    # refuses and names the later copy.
    data = generate_data(500, RngStream(31, 0))
    x2 = ((1, IDENTITY),)
    return data, CovariateSpec(((0, IDENTITY), *x2), x2 + x2), "x2"


@PROPERTY
@given(case=adversarial_data())
@example(case=_repeated_treatment_column())
def test_failure_contract(case):
    data, spec, named = case
    outcomes = _run(data, spec)
    for tag, outcome in outcomes.items():
        if isinstance(outcome, EstimatorError):
            if named is not None:
                assert str(outcome).endswith(f"collinear columns: [{named!r}]"), (tag, outcome)
            continue
        assert isinstance(outcome, EstimateResult), tag
        point, se = outcome.point, outcome.se
        assert math.isfinite(point) and math.isfinite(se) and se >= 0.0, (tag, point, se)
        assert outcome.ci == (point - 1.96 * se, point + 1.96 * se), tag
    if isinstance(outcomes["adjusted"], EstimatorError):
        for tag in set(ESTIMATOR_ORDER) - NO_OUTCOME_MODEL:
            assert isinstance(outcomes[tag], EstimatorError), tag
    rerun = _run(data, spec)
    assert {t: _outcome_key(o) for t, o in rerun.items()} == {
        t: _outcome_key(o) for t, o in outcomes.items()
    }


def test_non_finite_estimates_are_refused():
    # An outcome scaled by 1e200 overflows the outcome fits' sums of squares:
    # before the guard in `_result`, ten estimators returned SE = inf and
    # `two_step_forward` a NaN point.  The overflow warnings are expected at
    # this magnitude, which the fits do not reject yet (ROADMAP item 4's
    # input range).  `or_ps_sandwich` is left out: it still raises numpy's
    # bare `LinAlgError` from the sandwich's solve on this data, which item
    # 4 leaves open.
    data = generate_data(300, RngStream(41, 0))
    data = Dataset(data.y * 1e200, data.z, data.x, data.column_names)
    tags = [tag for tag in ESTIMATOR_ORDER if tag != "or_ps_sandwich"]
    with np.errstate(all="ignore"):
        outcomes = run_estimators(data, SCENARIOS["I"], CFG, RngStream(7, 0), tags)
    assert len(outcomes) == 12
    for tag, outcome in outcomes.items():
        if isinstance(outcome, EstimatorError):
            # Each two-step variant carries its own refusal.
            if "estimate is not finite" in str(outcome):
                assert str(outcome).startswith(f"{tag}: "), (tag, outcome)
            continue
        assert math.isfinite(outcome.point) and math.isfinite(outcome.se), (tag, outcome)
