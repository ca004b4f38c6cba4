"""The ``concordd`` CLI: exit codes, on-disk journals, module loading.

Each scenario's stdout is pinned byte for byte by
``tests/test_scenario_golden.py``; these tests cover what stdout does
not show.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.controlplane import PolicyJournal
from repro.scenarios import bad_numa_submission
from repro.tools import concordd


def test_rollout_scenario_passes(capsys):
    # Smaller than the CLI default, same calibrated shape: exit 0 means
    # bad-numa ROLLED_BACK, numa-good ACTIVE, no stalls.
    code = concordd.main(["rollout", "--duration-ms", "2", "--audit"])
    assert code == 0, capsys.readouterr().out


def test_drill_scenario_passes(capsys, tmp_path):
    # The crash-recovery drill: kill mid-canary under an adversarial
    # fault plan, restart over the journal, recover, then trip the
    # circuit breaker.  Exit 0 means every drill check held.
    journal = str(tmp_path / "journal.jsonl")
    code = concordd.main(
        [
            "drill",
            "--duration-ms",
            "2",
            "--journal",
            journal,
            "--audit",
        ]
    )
    assert code == 0, capsys.readouterr().out
    # The journal the drill recovered from is on disk and readable.
    states = [
        e["to"]
        for e in PolicyJournal(journal).entries()
        if e.get("kind") == "transition" and e["policy"] == "steady"
    ]
    assert states[-1] == "ROLLED_BACK"  # the fail-open ending
    assert "ACTIVE" in states


def test_adapt_scenario_passes(capsys, tmp_path):
    # The adaptive overload defense acceptance run, all three phases:
    # fleet-wide detect on pooled evidence -> kept cull, crash at the
    # propose checkpoint -> recovery resolves and re-proposes, and an
    # over-aggressive cap tripping the fairness guard -> rolled back.
    code = concordd.main(
        ["adapt", "--journal-dir", str(tmp_path), "--audit"]
    )
    assert code == 0, capsys.readouterr().out
    # The fleet journal on disk carries the judged adaptation history.
    events = [
        e["event"]
        for e in PolicyJournal(str(tmp_path / "adapt.fleet.jsonl")).entries()
        if e.get("kind") == "adaptation"
    ]
    assert events == ["collapse-detected", "cull-proposed", "cull-kept"]


def test_rejects_nonpositive_duration(capsys):
    assert concordd.main(["rollout", "--duration-ms", "0"]) == 2
    assert "must be positive" in capsys.readouterr().err


def test_requires_a_scenario():
    with pytest.raises(SystemExit):
        concordd.main([])


def test_bad_numa_submission_is_a_two_spec_bundle():
    sub = bad_numa_submission("svc.*.lock")
    assert [s.hook for s in sub.specs] == ["cmp_node", "lock_acquired"]
    assert sub.name == "bad-numa"
    assert {s.lock_selector for s in sub.specs} == {"svc.*.lock"}


def test_running_the_module_executes_it_once():
    # ``python -m repro.tools.concordd`` must not find the module
    # already imported by its package: runpy would warn and the module
    # would run twice.
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(
        os.environ,
        PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
    )
    proc = subprocess.run(
        [
            sys.executable,
            "-W",
            "error::RuntimeWarning",
            "-m",
            "repro.tools.concordd",
            "rollout",
            "--duration-ms",
            "0",
        ],
        env=env,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2, proc.stderr
    assert "RuntimeWarning" not in proc.stderr
    assert "must be positive" in proc.stderr
