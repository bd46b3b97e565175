"""Metamorphic relations over all 13 estimators.

Each relation transforms a data set in a way whose effect on the contrast
is known, and checks every estimator's point and standard error against
that effect, through ``run_estimators`` on a few scenario I data sets:

* ``y -> 2 y`` doubles every point and SE;
* ``y -> 3 + 2 y`` does too, for every estimator but ``iptw``, whose
  unnormalised Horvitz-Thompson form is not location-equivariant;
* every covariate times 100 leaves every point and SE unchanged;
* an estimator refuses on the transformed data exactly when it refuses on
  the original.

Each tolerance is about 100 times the worst relative error measured for
its relation.
"""

import pytest

from drbayes.estimators import ESTIMATOR_ORDER, Dataset, EstimatorError, ResamplingConfig
from drbayes.numerics import RngStream
from drbayes.simulation import SCENARIOS, generate_data, run_estimators

CFG = ResamplingConfig(n_draws=20, n_boot=20)
REPS = range(6)
SPEC = SCENARIOS["I"]

# (name, transform of (y, x), expected (point, se) from the original's,
# estimators the relation does not cover, tolerance on the relative error).
# Worst relative errors measured over the six data sets: 2.1e-15 for
# y -> 2y (joint; exact for the other 12), 1.0e-14 for y -> 3 + 2y (is) and
# 1.0e-10 for the covariates times 100 (is_dr).
def _doubled(point, se):
    return 2.0 * point, 2.0 * se


RELATIONS = [
    ("y_times_2", lambda y, x: (2.0 * y, x), _doubled, (), 2e-13),
    ("y_affine", lambda y, x: (3.0 + 2.0 * y, x), _doubled, ("iptw",), 1e-12),
    ("x_times_100", lambda y, x: (y, 100.0 * x), lambda point, se: (point, se), (), 1e-8),
]


def _run(data, r):
    return run_estimators(data, SPEC, CFG, RngStream(42, r), ESTIMATOR_ORDER)


@pytest.fixture(scope="module")
def originals():
    """``[(data, outcomes)]`` for the six data sets."""
    out = []
    for r in REPS:
        data = generate_data(300, RngStream(41, r))
        out.append((data, _run(data, r)))
    return out


def _relative(value, expected):
    return abs(value - expected) / abs(expected)


def relation_errors(originals, transform, expected, skip=()):
    """Worst relative error of point and SE per estimator over the data
    sets, and the ``(rep, tag)`` pairs whose refusal differs between the
    original and the transformed data."""
    worst, mismatched = {}, []
    for r, (data, before) in zip(REPS, originals):
        y, x = transform(data.y, data.x)
        after = _run(Dataset(y, data.z, x, data.column_names), r)
        for tag in ESTIMATOR_ORDER:
            refused = isinstance(before[tag], EstimatorError)
            if refused != isinstance(after[tag], EstimatorError):
                mismatched.append((r, tag))
            elif not refused and tag not in skip:
                point, se = expected(before[tag].point, before[tag].se)
                err = max(_relative(after[tag].point, point), _relative(after[tag].se, se))
                worst[tag] = max(worst.get(tag, 0.0), err)
    return worst, mismatched


@pytest.mark.parametrize(
    "transform, expected, skip, tol",
    [relation[1:] for relation in RELATIONS],
    ids=[relation[0] for relation in RELATIONS],
)
def test_relation_holds_for_every_estimator(originals, transform, expected, skip, tol):
    worst, mismatched = relation_errors(originals, transform, expected, skip)
    assert mismatched == []
    assert set(worst) == set(ESTIMATOR_ORDER) - set(skip)
    assert max(worst.values()) <= tol, worst


def test_iptw_is_not_location_equivariant(originals):
    # The relation y -> 3 + 2y leaves out iptw because it fails there.
    _, transform, expected, _, _ = RELATIONS[1]
    worst, _ = relation_errors(originals, transform, expected)
    assert worst["iptw"] > 1e-3
