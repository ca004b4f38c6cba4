"""Every ``concordd`` scenario's stdout, byte for byte.

``tests/golden/concordd/<scenario>.txt`` holds each scenario's stdout
at the flags CI and the README run it with; journals go under the
test's temp directory, printed as ``<tmp>``.  A change to the scenario
layer that is meant to keep behaviour must leave every file matching;
a deliberate output change rewrites the file in the same commit.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

GOLDEN = Path(__file__).parent / "golden" / "concordd"

#: scenario -> its flags; ``{tmp}`` is the test's temp directory.
SCENARIOS = {
    "rollout": ["--audit"],
    "drill": ["--seed", "7", "--audit", "--journal", "{tmp}/journal.jsonl"],
    "fleet": ["--journal-dir", "{tmp}"],
    "fleet-degraded": ["--journal-dir", "{tmp}"],
    "guards": ["--journal-dir", "{tmp}"],
    "replicated": ["--audit"],
    "scrub": ["--audit", "--journal-dir", "{tmp}"],
    "traffic": ["--journal-dir", "{tmp}"],
    "partition": ["--audit"],
    "adapt": ["--audit", "--journal-dir", "{tmp}"],
}


@pytest.mark.parametrize("name", list(SCENARIOS))
def test_scenario_stdout_matches_golden(name, tmp_path):
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(
        os.environ,
        PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
        PYTHONIOENCODING="utf-8",
    )
    args = [arg.format(tmp=tmp_path) for arg in SCENARIOS[name]]
    proc = subprocess.run(
        [sys.executable, "-m", "repro.tools.concordd", name, *args],
        env=env,
        capture_output=True,
    )
    assert proc.returncode == 0, proc.stderr.decode("utf-8", "replace")
    out = proc.stdout.replace(str(tmp_path).encode("utf-8"), b"<tmp>")
    assert out == (GOLDEN / f"{name}.txt").read_bytes()
