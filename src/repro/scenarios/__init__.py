"""Scripted control-plane scenarios: the acceptance runs behind
``python -m repro.tools.concordd <scenario>``.

Each module is one scenario with a ``run(args) -> int`` entry point
(exit status 0 when every check held); :mod:`.harness` holds what they
share.  ``args`` carries ``seed`` and ``duration_ns`` plus whichever of
``kernels``, ``audit``, ``journal`` and ``journal_dir`` the scenario
takes (see the table in :mod:`repro.tools.concordd`).
"""

from .harness import bad_numa_submission, tail_spike_submission

__all__ = ["bad_numa_submission", "tail_spike_submission"]
