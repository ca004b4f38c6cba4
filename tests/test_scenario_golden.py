"""Every ``concordd`` scenario's stdout, byte for byte.

``tests/golden/concordd/<scenario>.txt`` holds each scenario's stdout
at the flags CI and the README run it with; journals go under the
scenario's temp directory, printed as ``<tmp>``.  A change to the
scenario layer that is meant to keep behaviour must leave every file
matching; a deliberate output change rewrites the file in the same
commit.

The scenarios run as subprocesses, all started together before the
first test; each test then waits for its own.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

GOLDEN = Path(__file__).parent / "golden" / "concordd"

#: scenario -> its flags; ``{tmp}`` is the scenario's temp directory.
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

#: Seconds one test waits for its scenario, which shares the host with
#: the others still running.
TIMEOUT_S = 900


@pytest.fixture(scope="module")
def scenario_runs(request, tmp_path_factory):
    """Start every selected scenario; ``name -> (process, tmp, out)``.

    Each scenario gets its own temp directory ``tmp`` and writes stdout
    and stderr to files in ``out``, so none blocks on a full pipe while
    it waits for its test."""
    selected = [
        item.callspec.params["name"]
        for item in request.session.items
        if item.module is request.module and hasattr(item, "callspec")
    ]
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(
        os.environ,
        PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
        PYTHONIOENCODING="utf-8",
    )
    runs = {}
    try:
        for name in selected:
            tmp = tmp_path_factory.mktemp(name)
            out = tmp_path_factory.mktemp(f"{name}.out")
            args = [arg.format(tmp=tmp) for arg in SCENARIOS[name]]
            with (out / "stdout").open("wb") as stdout, (out / "stderr").open("wb") as stderr:
                runs[name] = (
                    subprocess.Popen(
                        [sys.executable, "-m", "repro.tools.concordd", name, *args],
                        env=env,
                        stdout=stdout,
                        stderr=stderr,
                    ),
                    tmp,
                    out,
                )
        yield runs
    finally:
        for proc, _tmp, _out in runs.values():
            if proc.poll() is None:
                proc.kill()
                proc.wait()


@pytest.mark.parametrize("name", list(SCENARIOS))
def test_scenario_stdout_matches_golden(name, scenario_runs):
    proc, tmp, out = scenario_runs[name]
    returncode = proc.wait(timeout=TIMEOUT_S)
    assert returncode == 0, (out / "stderr").read_bytes().decode("utf-8", "replace")
    stdout = (out / "stdout").read_bytes().replace(str(tmp).encode("utf-8"), b"<tmp>")
    assert stdout == (GOLDEN / f"{name}.txt").read_bytes()
