"""Simulation study: data-generating process, scenarios, replication loop.

The synthetic population has four independent standard normal covariates.
Treatment is assigned by a logistic model in the unit-variance absolute
value of the first covariate plus two raw covariates; the outcome is
Gaussian with an additive unit treatment effect, so the true marginal
contrast is exactly 1.  Two covariate-selection scenarios are studied:

* scenario I feeds the outcome model the raw first covariate (wrong
  functional form) while the treatment model gets the correct transform;
* scenario II is the mirror image: correct outcome set, raw first
  covariate in the treatment model.

Replication ``r`` draws its data from stream id ``r`` of the configured
seed, and each estimator the sub-stream of its key in ``STREAM_KEYS``
(estimators with a common key share one resampling plan per data set), so
the replication loop can be distributed over any number of worker processes
without changing a single byte of the output.
"""

from __future__ import annotations

import ctypes
import functools
import math
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .estimators import (
    ABS_STANDARDIZED,
    ABS_STD_SCALE,
    ESTIMATOR_ORDER,
    ESTIMATORS,
    IDENTITY,
    STREAM_KEYS,
    CovariateSpec,
    Dataset,
    EstimatorError,
    ResamplingConfig,
    two_step_pair,
)
from .numerics import RngStream, batch_means_error, expit

__all__ = [
    "TRUE_CONTRAST",
    "SCENARIOS",
    "SimConfig",
    "SimulationRow",
    "ReplicationRecord",
    "SimulationResult",
    "generate_data",
    "apply_scenario",
    "check_tags",
    "run_estimators",
    "error_text",
    "run_replication",
    "summarize",
    "run_simulation",
]

TRUE_CONTRAST = 1.0

# Covariate sets per scenario, as (column index, transform) pairs.
SCENARIOS = {
    "I": CovariateSpec(
        s_columns=((0, IDENTITY), (1, IDENTITY), (2, IDENTITY)),
        b_columns=((0, ABS_STANDARDIZED), (1, IDENTITY), (3, IDENTITY)),
    ),
    "II": CovariateSpec(
        s_columns=((0, ABS_STANDARDIZED), (1, IDENTITY), (2, IDENTITY)),
        b_columns=((0, IDENTITY), (1, IDENTITY), (3, IDENTITY)),
    ),
}

# Sub-stream index reserved for data generation within a replication; the
# estimators occupy the keys in STREAM_KEYS (all >= 1).
_DATA_KEY = 0


def check_tags(tags):
    """Require estimator ``tags`` to be known, at least one and none
    repeated; raises ``ValueError`` otherwise."""
    tags = list(tags)
    if not tags:
        raise ValueError("no estimators given")
    unknown = [t for t in tags if t not in ESTIMATORS]
    if unknown:
        raise ValueError(f"unknown estimators {unknown}; available: {ESTIMATOR_ORDER}")
    repeated = sorted({t for t in tags if tags.count(t) > 1})
    if repeated:
        raise ValueError(f"repeated estimators {repeated}")


@dataclass(frozen=True)
class SimConfig:
    """Configuration of one simulation run."""

    n: int = 500
    reps: int = 1000
    seed: int = 2024
    scenario: str = "I"
    estimators: tuple[str, ...] = tuple(ESTIMATOR_ORDER)
    n_draws: int = 200
    n_boot: int = 200
    stabilize: bool = True
    threads: int = 1

    def __post_init__(self):
        if self.n < 50:
            raise ValueError(f"need n >= 50, got {self.n}")
        if self.reps < 2:
            raise ValueError(f"need reps >= 2, got {self.reps}")
        if self.scenario not in SCENARIOS:
            raise ValueError(f"unknown scenario {self.scenario!r}")
        check_tags(self.estimators)
        if self.threads < 1:
            raise ValueError("threads must be >= 1")
        # The library's own rules for the resampling counts and the seed.
        self.resampling()
        RngStream(self.seed)

    def resampling(self) -> ResamplingConfig:
        return ResamplingConfig(
            n_draws=self.n_draws, n_boot=self.n_boot, stabilize=self.stabilize
        )


@dataclass(frozen=True)
class ReplicationRecord:
    """One estimator's outcome on one replication."""

    rep: int
    estimator: str
    point: float
    se: float
    covered: bool
    error: str | None = None


@dataclass
class SimulationRow:
    """Summary of one estimator over all replications."""

    estimator: str
    mean_point: float
    rel_bias_pct: float
    mc_sd: float
    mean_se: float
    mc_error: float
    coverage_pct: float
    n_failed: int = 0
    incomplete: bool = False


@dataclass
class SimulationResult:
    config: SimConfig
    records: list
    rows: list
    elapsed_seconds: float


def generate_data(n, rng: RngStream) -> Dataset:
    """One synthetic sample of size ``n``, drawn from ``rng``.

    Four independent N(0,1) covariates; treatment probability
    ``expit(0.4 * c1 + 0.4 * x2 + 0.8 * x4)`` where ``c1`` is the
    unit-variance absolute value of ``x1``; outcome
    ``N(z - c1 - x2 - x3, 1)``.  The additive treatment effect makes the
    true marginal contrast exactly 1.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    gen = rng.generator()
    x = gen.standard_normal((n, 4))
    c1 = np.abs(x[:, 0]) * ABS_STD_SCALE
    prob = expit(0.4 * c1 + 0.4 * x[:, 1] + 0.8 * x[:, 3])
    z = (gen.random(n) < prob).astype(float)
    y = z - c1 - x[:, 1] - x[:, 2] + gen.standard_normal(n)
    return Dataset(y=y, z=z, x=x, column_names=("x1", "x2", "x3", "x4"))


def apply_scenario(data: Dataset, scenario: str) -> CovariateSpec:
    """Covariate spec for a named scenario, validated against ``data``."""
    spec = SCENARIOS[scenario]
    for idx, _ in (*spec.s_columns, *spec.b_columns):
        if idx >= data.x.shape[1]:
            raise ValueError(f"scenario column {idx} out of range")
    return spec


_TWO_STEP = ("two_step_forward", "two_step_vardecomp")


def run_estimators(data, spec, cfg, rng, tags) -> dict:
    """Run the estimators ``tags`` on one data set, each on the sub-stream
    of ``rng`` named by its key in ``STREAM_KEYS``.

    Returns ``{tag: EstimateResult or the EstimatorError it raised}`` in
    the order of ``tags``: a refusal becomes data, not a crash.  Tags that
    :func:`check_tags` rejects raise ``ValueError`` before any estimator
    runs; any other exception is a defect and propagates.  When both
    two-step variants are requested they are computed together by
    ``two_step_pair``, from one set of draws (identical to two separate
    calls).
    """
    check_tags(tags)
    paired = all(tag in tags for tag in _TWO_STEP)
    # The pair runs first, before any bootstrap plan is held, which keeps
    # the peak memory of a replication lower.
    groups = [_TWO_STEP] if paired else []
    groups += [(tag,) for tag in tags if not (paired and tag in _TWO_STEP)]
    outcomes: dict = {}
    for group in groups:
        stream = rng.child(STREAM_KEYS[group[0]])
        try:
            if group is _TWO_STEP:
                results = two_step_pair(data, spec, cfg, stream)
            else:
                results = (ESTIMATORS[group[0]](data, spec, cfg, stream),)
        except EstimatorError as err:
            results = (err,) * len(group)
        outcomes.update(zip(group, results))
    return {tag: outcomes[tag] for tag in tags}


def error_text(err: Exception) -> str:
    """How a failed estimator is reported: ``"{type}: {message}"``."""
    return f"{type(err).__name__}: {err}"


def run_replication(config: SimConfig, rep_index: int) -> list:
    """Run all configured estimators on replication ``rep_index``'s data
    set: one record per estimator, a failure recorded with NaN point and
    SE and its :func:`error_text`."""
    rep_rng = RngStream(config.seed, stream_id=rep_index)
    data = generate_data(config.n, rep_rng.child(_DATA_KEY))
    spec = apply_scenario(data, config.scenario)
    outcomes = run_estimators(data, spec, config.resampling(), rep_rng, config.estimators)
    records = []
    for tag in config.estimators:
        res = outcomes[tag]
        if isinstance(res, Exception):
            nan = float("nan")
            records.append(ReplicationRecord(rep_index, tag, nan, nan, False, error_text(res)))
        else:
            covered = res.ci[0] <= TRUE_CONTRAST <= res.ci[1]
            records.append(ReplicationRecord(rep_index, tag, res.point, res.se, covered))
    return records


def summarize(records, estimators=None, truth=TRUE_CONTRAST) -> list:
    """Aggregate replication records into one row per estimator.

    Reported per estimator: mean point estimate, relative bias against the
    truth, Monte Carlo standard deviation of the points, mean standard
    error, batch-means Monte Carlo error of the mean point (over the
    estimator's successful replications, in ``floor(sqrt(count))`` batches;
    NaN below 2 batches), and coverage of the nominal 95% intervals.
    Estimators with more than 10% failed replications are flagged
    incomplete.
    """
    by_tag: dict[str, list] = {}
    order = []
    for rec in records:
        if rec.estimator not in by_tag:
            by_tag[rec.estimator] = []
            order.append(rec.estimator)
        by_tag[rec.estimator].append(rec)
    if estimators is None:
        estimators = order
    rows = []
    for tag in estimators:
        recs = by_tag.get(tag, [])
        good = [r for r in recs if r.error is None and math.isfinite(r.point)]
        n_failed = len(recs) - len(good)
        if not good:
            rows.append(
                SimulationRow(tag, *(float("nan"),) * 6, n_failed=n_failed, incomplete=True)
            )
            continue
        points = np.array([r.point for r in good])
        ses = np.array([r.se for r in good])
        covered = np.array([r.covered for r in good])
        n_batches = math.isqrt(points.shape[0])
        mc_err = batch_means_error(points, n_batches) if n_batches >= 2 else float("nan")
        rows.append(
            SimulationRow(
                estimator=tag,
                mean_point=float(points.mean()),
                rel_bias_pct=100.0 * (float(points.mean()) - truth) / truth,
                mc_sd=float(points.std(ddof=1)) if points.shape[0] > 1 else 0.0,
                mean_se=float(ses.mean()),
                mc_error=mc_err,
                coverage_pct=100.0 * float(covered.mean()),
                n_failed=n_failed,
                incomplete=n_failed > 0.1 * max(len(recs), 1),
            )
        )
    return rows


# glibc mallopt parameters: blocks at least this large are mmap-ed (32 MiB is
# glibc's 64-bit ceiling), and free heap above this much is trimmed.
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_MMAP_THRESHOLD_BYTES = 32 << 20
_TRIM_THRESHOLD_BYTES = 1 << 30


@functools.cache
def _keep_freed_heap() -> bool:
    """Keep freed memory in this process for reuse, once per process.

    Every replication allocates and drops a dozen or more (draws x n) weight
    arrays; by default glibc returns each one to the kernel, and the next is
    page-faulted in afresh.  Raising both the mmap and the trim threshold
    (setting either alone turns off glibc's adaptive threshold and faults
    more) serves them from the retained heap instead.  Returns whether the
    setting took; where ``mallopt`` is missing or refuses, nothing changes.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    return bool(
        mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD_BYTES)
        and mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD_BYTES)
    )


def _replication_worker(args):
    config, rep_index = args
    return run_replication(config, rep_index)


def run_simulation(config: SimConfig) -> SimulationResult:
    """Run the full replication loop, in parallel when configured.

    Replications are mutually independent and keyed by their index, so the
    ordered concatenation of results is identical for any worker count.
    The pool starts no more workers than there are replications.

    On glibc, every pool worker keeps freed memory for reuse instead of
    returning it to the kernel (``_keep_freed_heap``), since the workers are
    this function's own processes.  The calling process is left as it is:
    the setting is process-wide and lasting, so it belongs to the program
    that owns the process, as ``drbayes simulate`` sets it for its own.
    Outputs are unchanged either way.
    """
    start = time.perf_counter()
    if config.threads > 1:
        jobs = [(config, r) for r in range(config.reps)]
        workers = min(config.threads, config.reps)
        chunk = max(1, config.reps // (8 * workers))
        with ProcessPoolExecutor(max_workers=workers, initializer=_keep_freed_heap) as pool:
            per_rep = list(pool.map(_replication_worker, jobs, chunksize=chunk))
    else:
        per_rep = [run_replication(config, r) for r in range(config.reps)]
    records = [rec for rep in per_rep for rec in rep]
    rows = summarize(records, estimators=list(config.estimators))
    elapsed = time.perf_counter() - start
    return SimulationResult(config=config, records=records, rows=rows, elapsed_seconds=elapsed)
