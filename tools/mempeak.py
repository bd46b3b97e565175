"""Traced memory peak of one simulation replication, whole and per estimator.

Runs replication ``--rep`` of ``drbayes simulate --seed`` on scenario I
(``generate_data`` on the replication's data stream, then
``run_estimators``, as ``run_replication`` does) under ``tracemalloc``,
and prints the peak of traced memory over the whole replication and the
peak reached inside each estimator.  An estimator's peak counts what was
already held when it started: the data set and the plans earlier
estimators left memoized on it.  In a fresh process the replication also
counts numpy's one-time allocations (about 0.8 MB), as the first
replication of ``drbayes simulate`` does.  MB are 2^20 bytes, as the
benchmark's ``peak_rss_mb`` reads.  Standard library plus drbayes.  Usage,
from the repository root::

    PYTHONPATH=src python3 tools/mempeak.py --n 5000 --draws 50 --boot 2 \\
        --estimators naive,adjusted,iptw,or_ps_info,dr,or_iptw,joint,is,is_dr
"""

from __future__ import annotations

import argparse
import tracemalloc

from drbayes import simulation
from drbayes.estimators import ESTIMATOR_ORDER, ResamplingConfig
from drbayes.numerics import RngStream

MB = 2**20


def _traced(name, function, peaks):
    """``function`` wrapped to record its traced peak under ``name``."""

    def run(*args):
        peaks["replication"] = max(peaks["replication"], tracemalloc.get_traced_memory()[1])
        tracemalloc.reset_peak()
        try:
            return function(*args)
        finally:
            peaks[name] = tracemalloc.get_traced_memory()[1]
            peaks["replication"] = max(peaks["replication"], peaks[name])

    return run


def measure(n, draws, boot, estimators, seed=1701, rep=1):
    """``{"replication": peak, name: peak, ...}`` in bytes for one
    replication; the two two-step estimators run together as
    ``two_step_pair`` when both are asked for, as in ``run_estimators``."""
    peaks = {"replication": 0}
    patched = {tag: _traced(tag, simulation.ESTIMATORS[tag], peaks) for tag in estimators}
    saved = (simulation.ESTIMATORS, simulation.two_step_pair)
    simulation.ESTIMATORS = {**simulation.ESTIMATORS, **patched}
    simulation.two_step_pair = _traced("two_step_pair", saved[1], peaks)
    cfg = ResamplingConfig(n_draws=draws, n_boot=boot)
    tracemalloc.start()
    try:
        rep_rng = RngStream(seed, stream_id=rep)
        data = simulation.generate_data(n, rep_rng.child(0))
        spec = simulation.apply_scenario(data, "I")
        simulation.run_estimators(data, spec, cfg, rep_rng, list(estimators))
        peaks["replication"] = max(peaks["replication"], tracemalloc.get_traced_memory()[1])
    finally:
        tracemalloc.stop()
        simulation.ESTIMATORS, simulation.two_step_pair = saved
    return peaks


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, default=5000)
    parser.add_argument("--draws", type=int, default=200)
    parser.add_argument("--boot", type=int, default=200)
    parser.add_argument("--estimators", default=",".join(ESTIMATOR_ORDER))
    parser.add_argument("--seed", type=int, default=1701)
    parser.add_argument("--rep", type=int, default=1)
    args = parser.parse_args(argv)
    tags = args.estimators.split(",")
    peaks = measure(args.n, args.draws, args.boot, tags, args.seed, args.rep)
    print(f"{'replication':<20} {peaks.pop('replication') / MB:8.2f} MB")
    for name, peak in peaks.items():
        print(f"{name:<20} {peak / MB:8.2f} MB")


if __name__ == "__main__":
    main()
