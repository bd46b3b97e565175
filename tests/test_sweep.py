"""``tools/sweep.py``'s row comparison, the per-estimator report of how the
seed-777 sweep's ``replications.csv`` rows moved between two checkouts."""

import importlib
import math
import sys
import textwrap
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parent.parent / "tools"

OLD = textwrap.dedent(
    """\
    rep,estimator,point,se,covered
    0,naive,1.0,0.5,1
    0,or_ps_sandwich,2.0,0.25,1
    1,naive,1.5,0.5,0
    1,or_ps_sandwich,2.0,0.125,1
    1,joint,nan,nan,0
    """
)

# naive unchanged; or_ps_sandwich moves the se of both rows and the point of
# one; joint's NaN row stays as it was, and a row only on this side is added.
NEW = textwrap.dedent(
    """\
    rep,estimator,point,se,covered
    0,naive,1.0,0.5,1
    0,or_ps_sandwich,2.0,0.250000001,1
    1,naive,1.5,0.5,0
    1,or_ps_sandwich,2.2,0.1,1
    1,joint,nan,nan,0
    2,joint,1.0,0.5,1
    """
)


@pytest.fixture(scope="module")
def sweep():
    sys.path.insert(0, str(TOOLS))
    try:
        yield importlib.import_module("sweep")
    finally:
        sys.path.remove(str(TOOLS))


def test_compare_rows_counts_moved_rows_and_relative_changes(sweep, tmp_path):
    old, new = tmp_path / "old.csv", tmp_path / "new.csv"
    old.write_text(OLD)
    new.write_text(NEW)
    report = sweep.compare_rows(old, new)
    assert set(report) == {"naive", "or_ps_sandwich", "joint"}
    assert report["naive"] == (0, 0.0, 0.0)
    moved, point, se = report["or_ps_sandwich"]
    assert moved == 2
    assert point == pytest.approx(0.1)
    assert se == pytest.approx(0.2)
    moved, point, se = report["joint"]
    assert moved == 1
    assert math.isinf(point) and math.isinf(se)


def test_relative_change_of_cells(sweep):
    assert sweep._relative_change("nan", "nan") == 0.0
    assert math.isinf(sweep._relative_change("nan", "1.0"))
    assert sweep._relative_change("0", "0.5") == 0.5
    assert sweep._relative_change("4", "3") == pytest.approx(0.25)
