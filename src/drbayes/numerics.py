"""Deterministic random streams, elementary samplers, and small dense solves.

Everything in this module is a pure function of its arguments.  Randomness is
threaded through :class:`RngStream` values rather than shared generator state,
so the replication loop of the simulation harness can be fanned out over any
number of workers and still produce bit-identical output for a fixed seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_triangular

__all__ = [
    "PROB_CLIP",
    "RngStream",
    "InvalidArgumentError",
    "DecompositionError",
    "SingularMatrixError",
    "as_generator",
    "expit",
    "logistic_",
    "sample_dirichlet",
    "sample_mvn",
    "cholesky_solve",
    "batch_means_error",
]

# Fitted probabilities are kept strictly inside (0, 1) so that logs and
# inverse-probability weights stay finite even when a linear predictor
# overflows the logistic function.
PROB_CLIP = 1e-12


class InvalidArgumentError(ValueError):
    """An argument violates a documented precondition."""


class DecompositionError(ArithmeticError):
    """A covariance matrix is indefinite beyond the jitter tolerance."""


class SingularMatrixError(ArithmeticError):
    """A matrix required to be positive definite has a failing pivot."""


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


def as_generator(rng: "RngStream | np.random.Generator") -> np.random.Generator:
    """Accept either a stream value or an already-running generator."""
    if isinstance(rng, RngStream):
        return rng.generator()
    return rng


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


def sample_dirichlet(n, rng):
    """One draw from the flat Dirichlet distribution on the ``n``-simplex.

    Implemented as ``n`` unit-exponential variates normalized by their sum,
    which is exact and branch-free.  Entries are strictly positive and sum
    to one up to rounding.
    """
    if n < 1:
        raise InvalidArgumentError(f"need n >= 1, got {n}")
    gen = as_generator(rng)
    g = gen.standard_exponential(n)
    # standard_exponential can in principle return an exact zero; nudge so the
    # positivity invariant holds.
    g = np.maximum(g, 1e-300)
    return g / g.sum()


def _psd_factor(cov, jitter=1e-10):
    """Return L with L @ L.T == cov for a symmetric PSD matrix.

    Tries the Cholesky factor first, then falls back to an eigendecomposition
    that tolerates eigenvalues down to ``-jitter`` (relative), flooring them
    at zero.  Raises :class:`DecompositionError` for anything more indefinite.
    """
    cov = np.asarray(cov, dtype=float)
    try:
        return np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        pass
    sym = 0.5 * (cov + cov.T)
    eigval, eigvec = np.linalg.eigh(sym)
    scale = max(1.0, float(eigval.max(initial=0.0)))
    if eigval.min(initial=0.0) < -jitter * scale:
        raise DecompositionError(
            f"covariance is not PSD within tolerance (min eigenvalue {eigval.min():.3e})"
        )
    return eigvec * np.sqrt(np.clip(eigval, 0.0, None))


def sample_mvn(mean, cov, rng):
    """One multivariate normal draw ``mean + L @ z`` with ``L L' = cov``.

    ``cov`` must be symmetric positive semi-definite up to a relative jitter
    of 1e-10; singular covariances (including the zero matrix) are handled
    exactly.
    """
    mean = np.asarray(mean, dtype=float)
    factor = _psd_factor(cov)
    gen = as_generator(rng)
    return mean + factor @ gen.standard_normal(mean.shape[0])


def _failing_pivot(a):
    """Index of the first nonpositive pivot of a scalar Cholesky sweep."""
    a = np.array(a, dtype=float)
    n = a.shape[0]
    low = np.zeros_like(a)
    for j in range(n):
        d = a[j, j] - low[j, :j] @ low[j, :j]
        if d <= 0.0 or not np.isfinite(d):
            return j
        low[j, j] = np.sqrt(d)
        if j + 1 < n:
            low[j + 1 :, j] = (a[j + 1 :, j] - low[j + 1 :, :j] @ low[j, :j]) / low[j, j]
    return n - 1


def cholesky_solve(a, b):
    """Solve ``a @ x = b`` for symmetric positive definite ``a``.

    Raises :class:`SingularMatrixError` naming the failing pivot when ``a``
    is not positive definite.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise InvalidArgumentError(f"expected a square matrix, got shape {a.shape}")
    if b.shape[0] != a.shape[0]:
        raise InvalidArgumentError(f"dimension mismatch: {a.shape} vs {b.shape}")
    try:
        low = np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        raise SingularMatrixError(
            f"matrix is not positive definite (pivot {_failing_pivot(a)})"
        ) from None
    y = solve_triangular(low, b, lower=True)
    return solve_triangular(low.T, y, lower=False)


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
