"""The ``concordd fleet`` scenario and the ``--kernels`` flag.

Two contracts live here: the fleet acceptance runs (halt-and-revert,
mid-wave crash recovery, member death) exit 0 with their journals on
disk and refuse fleets too small to mean anything, and ``--kernels``
on the ``rollout``/``drill`` scenarios leaves the single-kernel output
byte-identical — N=1 stays the default and prints no per-kernel
headers.  Each scenario's stdout is pinned by
``tests/test_scenario_golden.py``.
"""

from repro.tools import concordd

ROLLOUT_ARGS = ["rollout", "--duration-ms", "2"]


def test_fleet_scenario_passes(capsys, tmp_path):
    code = concordd.main(
        [
            "fleet",
            "--duration-ms",
            "4",
            "--journal-dir",
            str(tmp_path),
        ]
    )
    assert code == 0, capsys.readouterr().out
    # The journals the recovery read are real files on disk.
    assert (tmp_path / "fleet.jsonl").exists()
    assert (tmp_path / "journal.k0.jsonl").exists()


def test_fleet_requires_three_kernels(capsys):
    assert concordd.main(["fleet", "--kernels", "2"]) == 2
    assert "needs --kernels >= 3" in capsys.readouterr().err


def test_fleet_degraded_scenario_passes(capsys, tmp_path):
    code = concordd.main(
        [
            "fleet-degraded",
            "--duration-ms",
            "4",
            "--journal-dir",
            str(tmp_path),
        ]
    )
    assert code == 0, capsys.readouterr().out
    assert (tmp_path / "fleet.jsonl").exists()


def test_fleet_degraded_requires_four_kernels(capsys):
    assert concordd.main(["fleet-degraded", "--kernels", "3"]) == 2
    assert "needs --kernels >= 4" in capsys.readouterr().err


def test_rollout_single_kernel_output_is_unchanged(capsys):
    # ``--kernels 1`` (and the flag's default) must be byte-identical
    # to the pre-flag scenario: no per-kernel headers, same verdicts.
    code = concordd.main(ROLLOUT_ARGS)
    baseline = capsys.readouterr().out
    assert code == 0, baseline

    code = concordd.main(ROLLOUT_ARGS + ["--kernels", "1"])
    flagged = capsys.readouterr().out
    assert code == 0, flagged
    assert flagged == baseline
    assert "=== kernel" not in baseline


def test_rollout_many_kernels_runs_each_seed(capsys):
    code = concordd.main(ROLLOUT_ARGS + ["--kernels", "2", "--seed", "7"])
    out = capsys.readouterr().out
    assert code == 0, out
    assert "=== kernel k0 (seed 7) ===" in out
    assert "=== kernel k1 (seed 8) ===" in out
    assert out.count("bad policy  : ROLLED_BACK") == 2
    assert out.count("good policy : ACTIVE") == 2


def test_drill_many_kernels_gets_separate_journals(capsys, tmp_path):
    journal = str(tmp_path / "journal.jsonl")
    code = concordd.main(
        [
            "drill",
            "--duration-ms",
            "2",
            "--journal",
            journal,
            "--kernels",
            "2",
        ]
    )
    out = capsys.readouterr().out
    assert code == 0, out
    assert "=== kernel k0" in out and "=== kernel k1" in out
    assert out.count("drill passed") == 2
    # Each kernel drills against its own journal file.
    assert (tmp_path / "journal.jsonl.k0").exists()
    assert (tmp_path / "journal.jsonl.k1").exists()
