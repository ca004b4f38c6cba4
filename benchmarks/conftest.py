"""Shared benchmark infrastructure.

Every benchmark regenerates one exhibit from the paper (or one §3 use
case / design ablation).  Conventions:

* thread sweeps use the paper's 8-socket, 80-core machine;
* each bench saves its human-readable table under
  ``benchmarks/results/<name>.txt`` (pytest captures stdout, so files
  are the reliable artifact) and also prints it (visible with ``-s``);
* the wall-clock number pytest-benchmark reports is the cost of
  *simulating* the exhibit once — useful for tracking simulator
  performance, not a claim about lock performance.  The lock results
  live in the tables and in ``benchmark.extra_info``.
"""

from __future__ import annotations

import os

import pytest

from repro.sim import paper_machine

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")
#: Tables print saved paths relative to this, so a committed table reads
#: the same in every checkout.
REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: The paper's x-axis (Figure 2 sweeps 0..80; we sample it).
PAPER_THREADS = [1, 10, 20, 40, 80]
#: Simulated measurement window per point.
DURATION_NS = 2_000_000


@pytest.fixture(scope="session")
def topo():
    return paper_machine()


@pytest.fixture(scope="session")
def results_dir():
    os.makedirs(RESULTS_DIR, exist_ok=True)
    return RESULTS_DIR


@pytest.fixture
def save_table(results_dir):
    def _save(name: str, text: str) -> None:
        path = os.path.join(results_dir, f"{name}.txt")
        with open(path, "w") as fh:
            fh.write(text + "\n")
        print(f"\n{text}\n[saved to {path}]")

    return _save


def run_once(fn):
    """Adapter: run an expensive simulation exactly once under
    pytest-benchmark (rounds=1 — a deterministic simulation has no
    run-to-run variance worth paying for)."""

    def runner(benchmark):
        return benchmark.pedantic(fn, rounds=1, iterations=1)

    return runner
