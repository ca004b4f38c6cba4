"""Compare the regenerated BENCH files with the committed ones, host time aside.

``benchmarks/test_traffic_replay.py`` and
``benchmarks/test_adaptive_recovery.py`` rewrite
``benchmarks/results/BENCH_traffic.json`` and ``BENCH_adaptive.json`` on
every run.  Every field in them except the four host-time fields below is
simulated, so a change that keeps simulated behaviour leaves those fields
equal to the committed file.  Run after both benchmarks, from the
repository root::

    python benchmarks/check_bench_sim_fields.py

Exits 1 and names every differing field otherwise.
"""

import json
import subprocess
import sys

FILES = (
    "benchmarks/results/BENCH_traffic.json",
    "benchmarks/results/BENCH_adaptive.json",
)

#: Host wall-clock measurements: they move with the machine, not the model.
HOST_TIME_FIELDS = frozenset(
    ("wall_s", "replay_wall_s", "sim_events_per_sec", "trace_events_per_sec")
)


def sim_fields(value, path=""):
    """``{dotted path: leaf}`` of ``value`` without the host-time fields."""
    if isinstance(value, dict):
        items = (
            (f"{path}.{key}", item)
            for key, item in value.items()
            if key not in HOST_TIME_FIELDS
        )
    elif isinstance(value, list):
        items = ((f"{path}[{index}]", item) for index, item in enumerate(value))
    else:
        return {path: value}
    fields = {}
    for sub_path, item in items:
        fields.update(sim_fields(item, sub_path))
    return fields


def main() -> int:
    failed = False
    for path in FILES:
        committed_text = subprocess.check_output(["git", "show", f"HEAD:{path}"])
        committed = sim_fields(json.loads(committed_text))
        with open(path) as fh:
            fresh = sim_fields(json.load(fh))
        for field in sorted(committed.keys() | fresh.keys()):
            before = committed.get(field, "<absent>")
            after = fresh.get(field, "<absent>")
            if before != after:
                failed = True
                print(f"{path}: {field}: committed {before!r}, regenerated {after!r}")
    if not failed:
        print(f"simulated fields of {len(FILES)} BENCH files match the committed files")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
