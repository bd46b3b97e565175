"""Timed set-up of one benchmark process.

Set-up is what a user of ``drbayes simulate`` pays before the first
replication: importing drbayes, numpy and scipy, plus one warm-up
replication.  BLAS threads are pinned to one before numpy is imported.

Run as a script it performs the set-up in a fresh interpreter and prints
the seconds it took, so the benchmark can take the median of several::

    python3 bench/setup_probe.py '{"n": 500, "reps": 2, ...}'

The argument holds the keyword arguments of ``drbayes.simulation.SimConfig``.
"""

import os

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import json  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


class SetupError(Exception):
    """The drbayes sources are missing from the checkout."""


def timed_setup(sim_kwargs):
    """Import the program from ``src/`` and run one warm-up replication.

    Returns the elapsed seconds.  Raises :class:`SetupError` when
    ``src/drbayes`` is absent, rather than importing an installed copy.
    """
    start = time.perf_counter()
    if not (SRC / "drbayes" / "__init__.py").is_file():
        raise SetupError(f"no drbayes sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import numpy  # noqa: F401
    import scipy.optimize  # noqa: F401

    import drbayes.cli  # noqa: F401
    from drbayes.simulation import SimConfig, run_replication

    if SRC not in Path(drbayes.cli.__file__).resolve().parents:
        raise SetupError(f"drbayes was imported from {drbayes.cli.__file__}, not {SRC}")
    config = dict(sim_kwargs)
    config["estimators"] = tuple(config["estimators"])
    run_replication(SimConfig(**config), 0)
    return time.perf_counter() - start


if __name__ == "__main__":
    try:
        print(repr(timed_setup(json.loads(sys.argv[1]))))
    except SetupError as err:
        print(f"error: {err}", file=sys.stderr)
        sys.exit(2)
