"""The committed bench records describe today's benches.

``benchmarks/run.py`` writes every ``benchmarks/BENCH_<name>.json`` from
a full run and stamps it with the run's ``mode`` and ``inputs``.  A
record whose inputs differ from what its bench would run with now (a
changed grid, a drifted scenario generator) is stale: regenerate it
with ``python benchmarks/run.py <name>``.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent / "benchmarks"


def _load_runner():
    """Import ``benchmarks/run.py``, which imports its sibling benches."""
    sys.path.insert(0, str(BENCH_DIR))
    try:
        spec = importlib.util.spec_from_file_location(
            "bench_run", BENCH_DIR / "run.py")
        runner = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(runner)
    finally:
        sys.path.remove(str(BENCH_DIR))
    return runner


RUNNER = _load_runner()


def _committed(name: str) -> dict:
    return json.loads(RUNNER.record_path(name, quick=False).read_text())


@pytest.mark.parametrize("name", sorted(RUNNER.BENCHES))
def test_committed_record_is_a_full_run_of_todays_inputs(name):
    record = _committed(name)
    assert record["mode"] == "full"
    assert record["inputs"] == RUNNER.BENCHES[name].inputs(quick=False), (
        f"benchmarks/BENCH_{name}.json is stale; regenerate it with "
        f"`python benchmarks/run.py {name}`"
    )


def test_backends_record_equals_a_fresh_pricing():
    """The cross-ISA pricing rows are deterministic: a fresh run must
    reproduce the committed record exactly."""
    assert _committed("backends") == RUNNER.stamped("backends", quick=False)
