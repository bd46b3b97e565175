"""Deterministic random streams, the logistic function, and batch-means errors.

Everything in this module is a pure function of its arguments.  Randomness is
threaded through :class:`RngStream` values rather than shared generator state,
so the replication loop of the simulation harness can be fanned out over any
number of workers and still produce bit-identical output for a fixed seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "PROB_CLIP",
    "RngStream",
    "InvalidArgumentError",
    "expit",
    "logistic_",
    "batch_means_error",
]

# Fitted probabilities are kept strictly inside (0, 1) so that logs and
# inverse-probability weights stay finite even when a linear predictor
# overflows the logistic function.
PROB_CLIP = 1e-12


class InvalidArgumentError(ValueError):
    """An argument violates a documented precondition."""


@dataclass(frozen=True)
class RngStream:
    """Value-semantics handle for a reproducible random stream.

    A stream is identified by ``(seed, stream_id, path)``.  Identical keys
    yield identical draw sequences; distinct keys yield streams that are
    statistically independent by construction (``SeedSequence`` spawn keys
    feeding the counter-based Philox generator).  ``stream_id`` is
    conventionally the replication index; ``path`` holds sub-stream indices
    derived with :meth:`child`.
    """

    seed: int
    stream_id: int = 0
    path: tuple[int, ...] = ()

    def child(self, *indices: int) -> "RngStream":
        """Derive an independent sub-stream keyed by ``indices``."""
        return RngStream(self.seed, self.stream_id, self.path + tuple(indices))

    def generator(self) -> np.random.Generator:
        """Fresh generator positioned at the start of this stream."""
        ss = np.random.SeedSequence(self.seed, spawn_key=(self.stream_id, *self.path))
        return np.random.Generator(np.random.Philox(ss))


def logistic_(x):
    """Overwrite the float array ``x`` with ``1 / (1 + exp(-x))`` and return it.

    Four in-place passes (negate, exponentiate, add one, reciprocal) and no
    temporaries.  ``exp`` overflows to ``inf`` for ``x < -709``, which gives
    the correct limit 0, so the overflow warning is suppressed.  NaN stays
    NaN.
    """
    with np.errstate(over="ignore"):
        np.negative(x, out=x)
        np.exp(x, out=x)
    x += 1.0
    np.reciprocal(x, out=x)
    return x


def expit(x):
    """Logistic function ``1 / (1 + exp(-x))`` clipped to ``[PROB_CLIP, 1 - PROB_CLIP]``.

    Accepts scalars or arrays (a scalar in, a scalar out) and never writes to
    its argument.  Clipping absorbs overflow for extreme arguments, so no
    domain errors are raised.
    """
    out = logistic_(np.array(x, dtype=float))
    np.clip(out, PROB_CLIP, 1.0 - PROB_CLIP, out=out)
    return out[()]


def batch_means_error(values, num_batches):
    """Batch-means standard error of the grand mean of ``values``.

    The series is split into ``num_batches`` contiguous, equal-sized batches
    (any trailing remainder is dropped) and the standard error is
    ``sd(batch means) / sqrt(num_batches)``.  The result depends on the batch
    partition, i.e. on the ordering of ``values``.
    """
    values = np.asarray(values, dtype=float)
    if num_batches < 2:
        raise InvalidArgumentError(f"need at least 2 batches, got {num_batches}")
    if values.shape[0] < 2 * num_batches:
        raise InvalidArgumentError(
            f"need at least {2 * num_batches} values for {num_batches} batches, "
            f"got {values.shape[0]}"
        )
    size = values.shape[0] // num_batches
    means = values[: size * num_batches].reshape(num_batches, size).mean(axis=1)
    return float(np.std(means, ddof=1) / np.sqrt(num_batches))
