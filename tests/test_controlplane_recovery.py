"""Crash-safe persistence: the policy journal and ``Concordd.recover``.

The crash model is ``kill -9`` mid-operation (an :class:`InjectedCrash`
from the fault plan): the daemon process dies with no teardown, the
simulated kernel — locks, loaded programs, half-finished drains — lives
on.  A new daemon over the same journal must replay to the journal's
final word and then *reconcile* the kernel: ACTIVE policies end up
re-verified and re-attached (same hook programs, same lock impls),
mid-canary policies end up ROLLED_BACK with their installation gone,
and crash debris (the dead rollout's profiler programs) is swept.
"""

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.bpf.maps import HashMap
from repro.concord import Concord
from repro.concord.policy import PolicySpec
from repro.controlplane import (
    Concordd,
    ControlPlaneError,
    JournalError,
    PolicyJournal,
    PolicyState,
    PolicySubmission,
    SLOGuard,
)
from repro.controlplane.daemon import RECOVERY_BACKOFF_NS
from repro.faults import FaultPlan, InjectedCrash, injected
from repro.kernel import Kernel
from repro.locks import ShflLock, SpinParkMutex
from repro.locks.base import HOOK_LOCK_ACQUIRED
from repro.sim import Topology, ops
from repro.userspace import PolicyClient

SELECTOR = "svc.*.lock"

METER_SOURCE = """
def meter(ctx):
    hits.add(ctx.tid, 1)
    return 0
"""


def meter_submission(name="steady", impl_factory=None, impl_name=""):
    return PolicySubmission(
        spec=PolicySpec(
            name=name,
            hook=HOOK_LOCK_ACQUIRED,
            source=METER_SOURCE,
            maps={"hits": HashMap(f"{name}.hits", max_entries=4096)},
            lock_selector=SELECTOR,
        ),
        impl_factory=impl_factory,
        impl_name=impl_name,
    )


def spin_park(old):
    return SpinParkMutex(old.engine, name=f"sp.{old.name}")


def make_kernel(seed=11):
    kernel = Kernel(Topology(sockets=2, cores_per_socket=4), seed=seed)
    for index in range(4):
        kernel.add_lock(
            f"svc.shard{index}.lock", ShflLock(kernel.engine, name=f"shard{index}")
        )
    return kernel


def make_daemon(concord, journal, **kwargs):
    return Concordd(
        concord,
        guard=SLOGuard(max_avg_wait_regression=0.20),
        journal=journal,
        impl_registry={"spin_park": spin_park},
        **kwargs,
    )


def hammer(kernel, stop_at, tasks_per_lock=2, cs_ns=300):
    tasks = []
    cpu = 0
    for name in kernel.locks.select_names(SELECTOR):
        site = kernel.locks.get(name)
        for _ in range(tasks_per_lock):

            def worker(task, site=site):
                task.stats["ops"] = 0
                while task.engine.now < stop_at:
                    yield from site.acquire(task)
                    yield ops.Delay(cs_ns)
                    yield from site.release(task)
                    task.stats["ops"] += 1
                    yield ops.Delay(120)

            tasks.append(kernel.spawn(worker, cpu=cpu % kernel.topology.nr_cpus))
            cpu += 1
    return tasks


class TestPolicyJournal:
    def test_memory_roundtrip(self):
        journal = PolicyJournal()
        journal.append({"kind": "client", "client": "a"})
        journal.append({"kind": "transition", "policy": "p", "to": "VERIFIED"})
        assert len(journal) == 2
        assert journal.last_transition("p")["to"] == "VERIFIED"
        assert journal.last_transition("ghost") is None

    def test_file_roundtrip_and_reopen(self, tmp_path):
        path = str(tmp_path / "bpf" / "concord" / "journal.jsonl")
        journal = PolicyJournal(path)
        journal.append({"kind": "client", "client": "a"})
        journal.close()
        # A restarted daemon reopens the same path and continues it.
        journal2 = PolicyJournal(path)
        journal2.append({"kind": "client", "client": "b"})
        entries = journal2.entries()
        assert [e["client"] for e in entries] == ["a", "b"]

    def test_entries_need_a_kind(self):
        with pytest.raises(JournalError):
            PolicyJournal().append({"client": "a"})

    def test_torn_final_line_is_dropped(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        journal = PolicyJournal(path)
        journal.append({"kind": "client", "client": "a"})
        journal.close()
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"kind": "transition", "pol')  # the torn write
        survivors = PolicyJournal(path).entries()
        assert [e["kind"] for e in survivors] == ["client"]

    def test_mid_file_corruption_raises(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write('not json at all\n')
            fh.write(json.dumps({"kind": "client", "client": "a"}) + "\n")
        with pytest.raises(JournalError, match="not a torn write"):
            PolicyJournal(path).entries()

    def test_append_after_torn_tail_truncates_the_fragment(self, tmp_path):
        """The restart-glue regression: a restarted daemon opens the
        journal in append mode, and without open-time truncation its
        first entry would glue onto the torn fragment — forging a
        corrupt *mid-file* line that replay rightly refuses."""
        path = str(tmp_path / "journal.jsonl")
        journal = PolicyJournal(path)
        journal.append({"kind": "client", "client": "a"})
        journal.close()
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"kind": "transition", "pol')  # crash mid-write
        restarted = PolicyJournal(path)
        restarted.append({"kind": "client", "client": "b"})
        assert [e["client"] for e in restarted.entries()] == ["a", "b"]

    def test_lazy_reopen_after_close_trims_the_tail_too(self, tmp_path):
        # append() reopens a closed handle lazily; that path must trim
        # a tail torn while the handle was closed.
        path = str(tmp_path / "journal.jsonl")
        journal = PolicyJournal(path)
        journal.append({"kind": "client", "client": "a"})
        journal.close()
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"kind": "cl')
        journal.append({"kind": "client", "client": "b"})
        assert [e["client"] for e in journal.entries()] == ["a", "b"]

    @settings(max_examples=40, deadline=None)
    @given(
        nr_entries=st.integers(min_value=1, max_value=6),
        cut_seed=st.integers(min_value=0, max_value=10**9),
    )
    def test_torn_tail_recovery_at_any_byte_offset(
        self, nr_entries, cut_seed, tmp_path_factory
    ):
        """Property: truncate the journal at *any* byte offset (the
        crash model's worst case) and a restarted daemon keeps exactly
        the complete lines before the cut, drops the fragment, and
        appends cleanly on top."""
        path = str(tmp_path_factory.mktemp("torn") / "journal.jsonl")
        journal = PolicyJournal(path)
        for index in range(nr_entries):
            journal.append({"kind": "client", "client": f"c{index}"})
        journal.close()
        with open(path, "rb") as fh:
            data = fh.read()
        cut = cut_seed % (len(data) + 1)
        with open(path, "r+b") as fh:
            fh.truncate(cut)
        survivors = data[:cut].count(b"\n")
        restarted = PolicyJournal(path)
        restarted.append({"kind": "client", "client": "post-crash"})
        clients = [e["client"] for e in restarted.entries()]
        restarted.close()
        assert clients == [f"c{i}" for i in range(survivors)] + ["post-crash"]


class TestDaemonJournaling:
    def test_lifecycle_is_journaled(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        kernel = make_kernel()
        daemon = make_daemon(Concord(kernel), PolicyJournal(path))
        client = PolicyClient.connect(daemon, "ops")
        client.submit(meter_submission())
        client.rollout("steady", baseline_ns=40_000, canary_ns=40_000)

        entries = PolicyJournal(path).entries()
        kinds = [e["kind"] for e in entries]
        assert kinds[0] == "client"
        assert kinds[1] == "submission"
        assert kinds[2:] == ["transition"] * (len(kinds) - 2)
        states = [e["to"] for e in entries if e["kind"] == "transition"]
        assert states == ["SUBMITTED", "VERIFIED", "CANARY", "ACTIVE"]
        # Transitions carry the rollout artifacts recovery needs.
        final = entries[-1]
        assert final["target_locks"] == kernel.locks.select_names(SELECTOR)
        assert final["canary_locks"] == ["svc.shard0.lock", "svc.shard1.lock"]

    def test_submission_entry_round_trips_specs(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        kernel = make_kernel()
        daemon = make_daemon(Concord(kernel), PolicyJournal(path))
        client = PolicyClient.connect(daemon, "ops")
        client.submit(
            meter_submission(impl_factory=spin_park, impl_name="spin_park")
        )
        entry = [e for e in PolicyJournal(path).entries() if e["kind"] == "submission"][0]
        assert entry["impl_name"] == "spin_park"
        assert entry["has_impl"] is True
        (spec_entry,) = entry["specs"]
        assert spec_entry["name"] == "steady"
        assert spec_entry["hook"] == HOOK_LOCK_ACQUIRED
        assert spec_entry["maps"] == ["hits"]


class TestRecover:
    def test_recover_requires_journal_and_fresh_daemon(self):
        kernel = make_kernel()
        daemon = Concordd(Concord(kernel))
        with pytest.raises(ControlPlaneError, match="needs a journal"):
            daemon.recover()

    def test_active_policy_survives_daemon_restart(self, tmp_path):
        """The headline guarantee: kill the daemon with a policy ACTIVE,
        recover, and the same hook programs + lock impls are attached."""
        path = str(tmp_path / "journal.jsonl")
        kernel = make_kernel()
        concord = Concord(kernel)
        daemon_a = make_daemon(concord, PolicyJournal(path))
        client = PolicyClient.connect(daemon_a, "ops")
        client.submit(
            meter_submission(impl_factory=spin_park, impl_name="spin_park")
        )
        record_a = client.rollout("steady", baseline_ns=40_000, canary_ns=40_000)
        assert record_a.state is PolicyState.ACTIVE
        impls_before = {
            name: kernel.locks.get(name).core.impl
            for name in kernel.locks.select_names(SELECTOR)
        }
        daemon_a.detach()  # the crash: nothing is torn down

        daemon_b = make_daemon(concord, PolicyJournal(path))
        summary = daemon_b.recover()
        record_b = daemon_b.status("steady")
        assert record_b is not record_a  # genuinely rebuilt, not shared
        assert record_b.state is PolicyState.ACTIVE
        assert summary["reattached"] == ["steady"]
        assert summary["rolled_back"] == []
        # Same program attached to every target, same impl on every lock.
        loaded = concord.policies["steady"]
        assert sorted(loaded.attached_locks) == kernel.locks.select_names(SELECTOR)
        for name, impl in impls_before.items():
            assert kernel.locks.get(name).core.impl is impl, name
        # Journal and record agree on the final state.
        assert PolicyJournal(path).last_transition("steady")["to"] == record_b.state.name

    def test_cold_kernel_recovery_reinstalls_everything(self, tmp_path):
        """Recovery with a *rebooted* kernel (nothing loaded): the
        journal alone is enough to re-verify, re-pin, re-attach, and
        re-apply the implementation switch."""
        path = str(tmp_path / "journal.jsonl")
        kernel_a = make_kernel()
        daemon_a = make_daemon(Concord(kernel_a), PolicyJournal(path))
        client = PolicyClient.connect(daemon_a, "ops")
        client.submit(
            meter_submission(impl_factory=spin_park, impl_name="spin_park")
        )
        assert client.rollout(
            "steady", baseline_ns=40_000, canary_ns=40_000
        ).state is PolicyState.ACTIVE

        kernel_b = make_kernel()  # fresh boot, stock locks
        concord_b = Concord(kernel_b)
        daemon_b = make_daemon(concord_b, PolicyJournal(path))
        summary = daemon_b.recover()
        assert summary["reattached"] == ["steady"]
        loaded = concord_b.policies["steady"]
        assert sorted(loaded.attached_locks) == kernel_b.locks.select_names(SELECTOR)
        for name in kernel_b.locks.select_names(SELECTOR):
            assert isinstance(kernel_b.locks.get(name).core.impl, SpinParkMutex), name

    def test_crash_mid_canary_rolls_back_on_recovery(self, tmp_path):
        """The drill scenario at library level: InjectedCrash mid-watch-
        window, restart, recover — the canary's whole installation is
        gone and the record lands ROLLED_BACK."""
        path = str(tmp_path / "journal.jsonl")
        kernel = make_kernel()
        concord = Concord(kernel)
        daemon_a = make_daemon(concord, PolicyJournal(path))
        client = PolicyClient.connect(daemon_a, "ops")
        originals = {
            name: kernel.locks.get(name).core.impl
            for name in kernel.locks.select_names(SELECTOR)
        }
        hammer(kernel, stop_at=kernel.now + 400_000)
        client.submit(
            meter_submission(name="doomed", impl_factory=spin_park, impl_name="spin_park")
        )
        plan = FaultPlan(name="kill9")
        plan.crash("controlplane.canary.checkpoint", after=1)
        with injected(plan):
            with pytest.raises(InjectedCrash):
                client.rollout(
                    "doomed",
                    baseline_ns=40_000,
                    canary_ns=120_000,
                    check_every_ns=20_000,
                )
        daemon_a.detach()
        # The kernel is left dirty: canary installation still live.
        assert "doomed" in concord.policies
        assert kernel.patcher.active

        daemon_b = make_daemon(concord, PolicyJournal(path))
        summary = daemon_b.recover()
        record = daemon_b.status("doomed")
        assert record.state is PolicyState.ROLLED_BACK
        assert summary["rolled_back"] == ["doomed"]
        assert "doomed" in summary["swept"] or "doomed" not in concord.policies
        assert not kernel.patcher.active  # impl switches reverted
        cause = daemon_b.audit.for_policy("doomed")[-1].cause
        assert "crashed mid-canary" in cause
        kernel.run()  # drain the workload + revert drains
        for name, impl in originals.items():
            assert kernel.locks.get(name).core.impl is impl, name
        # The dead rollout's profiler programs were swept too.
        assert not any(n.startswith("profile") for n in concord.policies)
        # Journal and audit agree on the final state.
        assert PolicyJournal(path).last_transition("doomed")["to"] == "ROLLED_BACK"

    def test_recovery_retries_through_verifier_flakes(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        kernel = make_kernel()
        concord = Concord(kernel)
        daemon_a = make_daemon(concord, PolicyJournal(path))
        client = PolicyClient.connect(daemon_a, "ops")
        client.submit(meter_submission())
        assert client.rollout(
            "steady", baseline_ns=40_000, canary_ns=40_000
        ).state is PolicyState.ACTIVE
        daemon_a.detach()

        daemon_b = make_daemon(concord, PolicyJournal(path))
        plan = FaultPlan(name="flaky-recovery")
        plan.fail("concord.verifier", times=2)  # two flakes, three tries
        before = kernel.now
        with injected(plan):
            summary = daemon_b.recover()
        assert summary["reattached"] == ["steady"]
        assert daemon_b.status("steady").state is PolicyState.ACTIVE
        assert plan.fired["concord.verifier"] == 2
        # The two pauses: 10 µs after the first flake, 20 µs after the second.
        assert kernel.now - before == 3 * RECOVERY_BACKOFF_NS

    def test_lost_impl_factory_rolls_back_fail_open(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        kernel = make_kernel()
        concord = Concord(kernel)
        daemon_a = make_daemon(concord, PolicyJournal(path))
        client = PolicyClient.connect(daemon_a, "ops")
        originals = {
            name: kernel.locks.get(name).core.impl
            for name in kernel.locks.select_names(SELECTOR)
        }
        client.submit(
            meter_submission(impl_factory=spin_park, impl_name="spin_park")
        )
        assert client.rollout(
            "steady", baseline_ns=40_000, canary_ns=40_000
        ).state is PolicyState.ACTIVE
        daemon_a.detach()

        # The new daemon has no impl_registry: the factory is gone.
        daemon_b = Concordd(concord, journal=PolicyJournal(path))
        summary = daemon_b.recover()
        record = daemon_b.status("steady")
        assert record.state is PolicyState.ROLLED_BACK
        assert summary["rolled_back"] == ["steady"]
        assert "impl_registry" in record.error or "impl_registry" in (
            daemon_b.audit.for_policy("steady")[-1].cause
        )
        kernel.run()
        for name, impl in originals.items():
            assert kernel.locks.get(name).core.impl is impl, name

    def test_crash_mid_verification_rejects_on_recovery(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        kernel = make_kernel()
        concord = Concord(kernel)
        daemon_a = make_daemon(concord, PolicyJournal(path))
        client = PolicyClient.connect(daemon_a, "ops")
        plan = FaultPlan(name="kill9-verify")
        plan.crash("concord.verifier")
        with injected(plan):
            with pytest.raises(InjectedCrash):
                client.submit(meter_submission(name="halfway"))
        daemon_a.detach()

        daemon_b = make_daemon(concord, PolicyJournal(path))
        summary = daemon_b.recover()
        assert summary["rejected"] == ["halfway"]
        assert daemon_b.status("halfway").state is PolicyState.REJECTED
        assert "resubmit" in daemon_b.audit.for_policy("halfway")[-1].cause

    def test_quota_accounts_recovered_policies(self, tmp_path):
        """A re-attached ACTIVE policy still occupies its quota slot; a
        recovery-rolled-back one does not."""
        path = str(tmp_path / "journal.jsonl")
        kernel = make_kernel()
        concord = Concord(kernel)
        daemon_a = make_daemon(concord, PolicyJournal(path))
        client_a = PolicyClient.connect(daemon_a, "ops", max_live_policies=1)
        client_a.submit(meter_submission())
        assert client_a.rollout(
            "steady", baseline_ns=40_000, canary_ns=40_000
        ).state is PolicyState.ACTIVE
        daemon_a.detach()

        daemon_b = make_daemon(concord, PolicyJournal(path))
        daemon_b.recover()
        client_b = PolicyClient(daemon_b, "ops")  # identity was replayed
        from repro.controlplane import AdmissionError

        with pytest.raises(AdmissionError):
            client_b.submit(meter_submission(name="overquota"))
