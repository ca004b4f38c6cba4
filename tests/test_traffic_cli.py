"""The ``concordd traffic`` acceptance scenario.

The contract: the same benign policy, seed, tenants, and budgets reach
*opposite* pooled-guard verdicts depending only on the load schedule —
COMPLETE under the steady trace, HALTED with a journaled, attributed
pooled breach under the burst trace — and the Malthusian sweep shows a
real knee.  The scenario's checks pin that (its stdout is compared byte
for byte by ``tests/test_scenario_golden.py``); here, its exit code and
journal files.
"""

from repro.tools import concordd


def test_traffic_scenario_passes(capsys, tmp_path):
    code = concordd.main(["traffic", "--journal-dir", str(tmp_path)])
    assert code == 0, capsys.readouterr().out
    # Both fleets journaled to real files.
    assert (tmp_path / "fleet.steady.jsonl").exists()
    assert (tmp_path / "fleet.burst.jsonl").exists()


def test_traffic_rejects_bad_duration(capsys):
    assert concordd.main(["traffic", "--duration-ms", "0"]) == 2
    assert "--duration-ms must be positive" in capsys.readouterr().err
