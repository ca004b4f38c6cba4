"""Benchmark workloads reproducing the paper's evaluation.

* :mod:`.page_fault` — will-it-scale ``page_fault2`` (Figure 2a);
* :mod:`.lock2` — will-it-scale ``lock2`` (Figure 2b);
* :mod:`.hashtable` — global-lock hash table (Figure 2c);
* :mod:`.rename_bench` — multi-lock VFS chains (lock inheritance);
* :mod:`.mixed_cs` — long/short critical sections (scheduler subversion);
* :mod:`.malthus` — collapse past a concurrency knee (Malthusian Locks);
* :mod:`.runner` / :mod:`.report` — the measurement harness.
"""

from .hashtable import HashTableBench, SimHashTable
from .lock2 import Lock2
from .malthus import MalthusianBench, knee_threads
from .mixed_cs import MixedCSBench
from .page_fault import PageFault2
from .rename_bench import RenameBench
from .report import ascii_chart, format_normalized, format_sweep_table, normalized_series
from .runner import RunResult, SweepResult, Workload, run_throughput, sweep

__all__ = [
    "HashTableBench",
    "SimHashTable",
    "Lock2",
    "MalthusianBench",
    "knee_threads",
    "MixedCSBench",
    "PageFault2",
    "RenameBench",
    "ascii_chart",
    "format_normalized",
    "format_sweep_table",
    "normalized_series",
    "RunResult",
    "SweepResult",
    "Workload",
    "run_throughput",
    "sweep",
]
