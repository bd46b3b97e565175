"""Run the seed-777 output sweep and report its digests, or how its rows moved.

The sweep is ``drbayes simulate --n 500 --reps 40 --seed 777 --threads 1``
with ``OPENBLAS_NUM_THREADS=1``, run in a subprocess on a checkout's
``src``.  It prints the SHA-256 of ``replications.csv`` and
``summary.csv``.  With ``--against DIR`` it runs the same sweep on that
checkout too, and prints, per estimator, how many ``replications.csv`` rows
differ and the largest relative change in ``point`` and ``se``.  Standard
library only.  Usage, from the repository root::

    python3 tools/sweep.py
    python3 tools/sweep.py --against path/to/other/checkout
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SWEEP_ARGS = ["simulate", "--n", "500", "--reps", "40", "--seed", "777", "--threads", "1"]
OUTPUTS = ("replications.csv", "summary.csv")


def run_sweep(checkout, out_dir):
    """Run the sweep on ``checkout``'s ``src`` into ``out_dir``."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=str(Path(checkout) / "src"))
    subprocess.run(
        [sys.executable, "-m", "drbayes.cli", *SWEEP_ARGS, "--out", str(out_dir)],
        env=env,
        cwd=out_dir,
        check=True,
        stdout=subprocess.DEVNULL,
    )


def digests(out_dir):
    """SHA-256 of each output file, by name."""
    return {name: hashlib.sha256(Path(out_dir, name).read_bytes()).hexdigest() for name in OUTPUTS}


def _read_rows(path):
    with open(path, newline="") as f:
        return {(row["rep"], row["estimator"]): row for row in csv.DictReader(f)}


def _relative_change(old, new):
    """``|new - old| / |old|`` (the absolute change when ``old`` is 0); 0 for
    equal text, inf where either cell is not a finite number."""
    if old == new:
        return 0.0
    try:
        a, b = float(old), float(new)
    except ValueError:
        return math.inf
    if not (math.isfinite(a) and math.isfinite(b)):
        return math.inf
    return abs(b - a) / abs(a) if a != 0.0 else abs(b - a)


def compare_rows(old_csv, new_csv):
    """Per estimator of either ``replications.csv``: ``(moved, point, se)``,
    the number of rows whose text differs (a row present on one side only
    counts, with an infinite change) and the largest relative change of
    ``point`` and of ``se``."""
    old, new = _read_rows(old_csv), _read_rows(new_csv)
    report = {}
    for key in sorted(old.keys() | new.keys(), key=lambda k: (k[1], int(k[0]))):
        moved, point, se = report.get(key[1], (0, 0.0, 0.0))
        a, b = old.get(key), new.get(key)
        if a is None or b is None:
            report[key[1]] = (moved + 1, math.inf, math.inf)
            continue
        report[key[1]] = (
            moved + (a != b),
            max(point, _relative_change(a["point"], b["point"])),
            max(se, _relative_change(a["se"], b["se"])),
        )
    return report


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--against", help="another checkout to run the same sweep on")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        sides = [("this checkout", ROOT, Path(tmp) / "this")]
        if args.against:
            sides.append((f"against {args.against}", Path(args.against), Path(tmp) / "against"))
        for label, checkout, out_dir in sides:
            out_dir.mkdir()
            run_sweep(checkout, out_dir)
            print(f"{label}:")
            for name, digest in digests(out_dir).items():
                print(f"  {name:<18} {digest}")
        if args.against:
            (_, _, this), (_, _, other) = sides
            report = compare_rows(other / "replications.csv", this / "replications.csv")
            print(f"{'estimator':<20} {'moved':>6} {'max rel point':>14} {'max rel se':>12}")
            for tag, (moved, point, se) in report.items():
                print(f"{tag:<20} {moved:>6} {point:>14.3g} {se:>12.3g}")


if __name__ == "__main__":
    main()
