"""``tools/mempeak.py``, the traced memory peak of one replication."""

import importlib
import sys
from pathlib import Path

import pytest

from drbayes import simulation

TOOLS = Path(__file__).resolve().parent.parent / "tools"


@pytest.fixture(scope="module")
def mempeak():
    sys.path.insert(0, str(TOOLS))
    try:
        yield importlib.import_module("mempeak")
    finally:
        sys.path.remove(str(TOOLS))


def test_peaks_per_estimator_and_replication(mempeak):
    tags = ["naive", "iptw", "two_step_forward", "two_step_vardecomp", "is"]
    registry, pair = simulation.ESTIMATORS, simulation.two_step_pair
    peaks = mempeak.measure(100, 8, 8, tags, seed=3, rep=1)
    # The two-step variants run together, as in run_estimators.
    assert list(peaks) == ["replication", "two_step_pair", "naive", "iptw", "is"]
    assert all(peak > 0 for peak in peaks.values())
    assert peaks["replication"] == max(peaks.values())
    # The registry is restored.
    assert (simulation.ESTIMATORS, simulation.two_step_pair) == (registry, pair)


def test_prints_one_line_per_peak(mempeak, capsys):
    mempeak.main(["--n", "100", "--draws", "4", "--boot", "4", "--estimators", "naive,dr"])
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines] == ["replication", "naive", "dr"]
    assert all(line.endswith(" MB") for line in lines)
