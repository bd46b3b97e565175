"""Every name the traced benchmark patches still resolves.

``bench/run.py --trace 1`` wraps library functions and registry entries by
name (``bench/layers.py``); a name removed from the library would only fail
there.  The lookups here are the ones ``bench/spans.patched`` makes, and
nothing is patched.
"""

import importlib
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture(scope="module")
def bench_modules():
    sys.path.insert(0, str(BENCH))
    try:
        yield importlib.import_module("layers"), importlib.import_module("spans")
    finally:
        sys.path.remove(str(BENCH))


def _lookup(container, key):
    """The value ``spans.patched`` would replace."""
    return container[key] if isinstance(container, dict) else getattr(container, key)


def test_every_patched_name_resolves(bench_modules):
    layers, spans = bench_modules
    tracer = spans.Tracer()
    replacements = layers.layer_replacements(tracer) + layers.rep_timing_replacements(
        tracer, capture=None
    )
    missing = []
    for container, key, make in replacements:
        try:
            assert callable(_lookup(container, key))
            assert callable(make(_lookup(container, key)))
        except (AttributeError, KeyError, AssertionError):
            missing.append(f"{getattr(container, '__name__', 'registry')}.{key}")
    assert not missing, missing

