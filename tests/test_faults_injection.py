"""The fault-injection harness: plan semantics and wired-in sites.

Two layers under test.  First the :class:`FaultPlan` machinery itself —
rule eligibility (``times``/``after``/``probability``/``match``),
first-match-wins ordering, seeded determinism, and registry hygiene.
Second the **sites**: every ``fault_point`` wired into the pipeline must
raise the site's *natural* error type (a verifier flake really is a
``VerificationError``), so callers exercise the exact handling paths
production errors would take.
"""

import pytest

from repro.bpf.errors import RuntimeFault, VerificationError
from repro.concord import Concord
from repro.concord.bpffs import BpfIOError
from repro.concord.policy import PolicySpec
from repro.concord.profiler import ProfileSession, ProfilerStall
from repro.faults import (
    FaultError,
    FaultPlan,
    InjectedCrash,
    SITE_VERIFIER,
    active,
    fault_point,
    injected,
    install,
)
from repro.kernel import Kernel
from repro.livepatch import PatchError
from repro.locks import ShflLock
from repro.locks.base import HOOK_LOCK_ACQUIRED
from repro.sim import Topology, ops

RETURN_ZERO = "def f(ctx):\n    return 0\n"


@pytest.fixture
def kernel():
    k = Kernel(Topology(sockets=2, cores_per_socket=4), seed=3)
    k.add_lock("a.lock", ShflLock(k.engine, name="a"))
    k.add_lock("b.lock", ShflLock(k.engine, name="b"))
    return k


class TestFaultPlan:
    def test_no_plan_is_a_noop(self):
        assert active() is None
        assert fault_point("anything.at.all") == 0

    def test_fail_rule_fires_once_by_default(self):
        plan = FaultPlan()
        plan.fail("x.y")
        with injected(plan):
            with pytest.raises(FaultError):
                fault_point("x.y")
            assert fault_point("x.y") == 0  # times=1 exhausted
        assert plan.hits["x.y"] == 2
        assert plan.fired["x.y"] == 1

    def test_default_exc_gives_site_natural_type(self):
        plan = FaultPlan()
        plan.fail("x.y")
        with injected(plan):
            with pytest.raises(VerificationError):
                fault_point("x.y", default_exc=VerificationError)

    def test_explicit_error_beats_default(self):
        plan = FaultPlan()
        plan.fail("x.y", error=KeyError)
        with injected(plan):
            with pytest.raises(KeyError):
                fault_point("x.y", default_exc=VerificationError)

    def test_after_skips_early_hits(self):
        plan = FaultPlan()
        plan.fail("x.y", after=2)
        with injected(plan):
            assert fault_point("x.y") == 0
            assert fault_point("x.y") == 0
            with pytest.raises(FaultError):
                fault_point("x.y")

    def test_times_none_is_unlimited(self):
        plan = FaultPlan()
        plan.stall("x.y", delay_ns=5, times=None)
        with injected(plan):
            for _ in range(10):
                assert fault_point("x.y") == 5
        assert plan.fired["x.y"] == 10

    def test_site_glob_and_ctx_match(self):
        plan = FaultPlan()
        plan.fail("bpf.*", match={"program": "steady*"}, times=None)
        with injected(plan):
            with pytest.raises(FaultError):
                fault_point("bpf.helper", program="steady.audit")
            assert fault_point("bpf.helper", program="doomed") == 0
            assert fault_point("concord.verifier", program="steady.audit") == 0

    def test_first_matching_rule_wins(self):
        plan = FaultPlan()
        plan.stall("x.y", delay_ns=7)
        plan.fail("x.y")
        with injected(plan):
            assert fault_point("x.y") == 7  # stall rule shadows the fail
            with pytest.raises(FaultError):
                fault_point("x.y")  # stall exhausted; fail rule next

    def test_probability_is_seed_deterministic(self):
        def firing_pattern(seed):
            plan = FaultPlan(seed=seed)
            plan.stall("x.y", delay_ns=1, times=None, probability=0.5)
            with injected(plan):
                return [fault_point("x.y") for _ in range(40)]

        a, b = firing_pattern(5), firing_pattern(5)
        assert a == b
        assert firing_pattern(6) != a  # different seed, different draws
        assert 0 < sum(a) < 40

    def test_stall_and_error_are_mutually_exclusive(self):
        with pytest.raises(ValueError):
            FaultPlan().fail("x", error=KeyError, delay_ns=5)

    def test_injected_restores_previous_plan_even_on_crash(self):
        outer = install(FaultPlan(name="outer"))
        inner = FaultPlan(name="inner")
        inner.crash("x.y")
        with pytest.raises(InjectedCrash):
            with injected(inner):
                fault_point("x.y")
        assert active() is outer

    def test_injected_crash_is_not_an_exception(self):
        # `except Exception` must never swallow a simulated kill -9.
        assert not issubclass(InjectedCrash, Exception)
        plan = FaultPlan()
        plan.crash("x.y")
        with injected(plan):
            with pytest.raises(InjectedCrash):
                try:
                    fault_point("x.y")
                except Exception:  # noqa: BLE001 - the point of the test
                    pytest.fail("InjectedCrash was swallowed by except Exception")

    def test_describe_reports_coverage(self):
        plan = FaultPlan(name="p")
        plan.fail("x.y")
        with injected(plan):
            with pytest.raises(FaultError):
                fault_point("x.y")
        text = plan.describe()
        assert "fired 1x at x.y" in text


class TestWiredSites:
    def test_verifier_flake_is_verification_error(self, kernel):
        concord = Concord(kernel)
        spec = PolicySpec("p", HOOK_LOCK_ACQUIRED, RETURN_ZERO)
        plan = FaultPlan()
        plan.fail(SITE_VERIFIER, times=1)
        with injected(plan):
            with pytest.raises(VerificationError, match="injected fault"):
                concord.verify_policy(spec)
            concord.verify_policy(spec)  # flake cleared; retry succeeds
        assert any(e.kind == "verify-failed" for e in concord.events)

    def test_pin_io_error_fails_load_cleanly(self, kernel):
        concord = Concord(kernel)
        spec = PolicySpec("p", HOOK_LOCK_ACQUIRED, RETURN_ZERO, lock_selector="a.lock")
        plan = FaultPlan()
        plan.fail("concord.bpffs.pin")
        with injected(plan):
            with pytest.raises(BpfIOError):
                concord.load_policy(spec)
        assert "p" not in concord.policies
        # The transient error cleared: the same spec loads fine after.
        concord.load_policy(spec)
        assert "p" in concord.policies

    def test_helper_fault_surfaces_as_runtime_fault(self, kernel):
        concord = Concord(kernel, fault_threshold=1000)
        source = "def f(ctx):\n    m.update(0, 1)\n    return 0\n"
        from repro.bpf.maps import HashMap

        spec = PolicySpec(
            "p", HOOK_LOCK_ACQUIRED, source,
            maps={"m": HashMap("m")}, lock_selector="a.lock",
        )
        concord.load_policy(spec)
        plan = FaultPlan()
        plan.fail("bpf.helper", times=None, match={"program": "p"})
        site = kernel.locks.get("a.lock")

        def worker(task):
            for _ in range(3):
                yield from site.acquire(task)
                yield ops.Delay(50)
                yield from site.release(task)

        kernel.spawn(worker, cpu=0)
        with injected(plan):
            kernel.run()
        assert plan.fired["bpf.helper"] > 0
        # The breaker absorbed the faults; the framework noticed them.
        assert any(e.kind == "policy-fault" for e in concord.events)

    def test_profiler_snapshot_stall(self, kernel):
        concord = Concord(kernel)
        session = ProfileSession(concord, ["a.lock"])
        plan = FaultPlan()
        plan.stall("concord.profiler.snapshot", delay_ns=9_000)
        with injected(plan):
            with pytest.raises(ProfilerStall, match="9000ns"):
                session.snapshot()
            session.snapshot()  # stall rule exhausted
        session.stop()

    def test_patch_enable_fault(self, kernel):
        plan = FaultPlan()
        plan.fail("livepatch.enable")
        from repro.locks import MCSLock

        with injected(plan):
            with pytest.raises(PatchError, match="injected fault"):
                kernel.patcher.switch_lock(
                    "a.lock", lambda old: MCSLock(kernel.engine)
                )
        assert not kernel.patcher.active


class TestControlPlaneSites:
    """The admission-decision and journal fault sites (wired for the
    chaos sampler: every deny/append/fsync/replay path is injectable)."""

    def _daemon(self, kernel, journal=None):
        from repro.controlplane import Concordd

        daemon = Concordd(Concord(kernel), journal=journal)
        daemon.register_client("ops", allowed_selectors=("*",))
        return daemon

    def _submission(self, name="p"):
        from repro.bpf.maps import HashMap
        from repro.controlplane import PolicySubmission

        return PolicySubmission(
            spec=PolicySpec(
                name,
                HOOK_LOCK_ACQUIRED,
                RETURN_ZERO,
                maps={},
                lock_selector="a.lock",
            )
        )

    def test_admission_decision_fault_rejects_submission(self, kernel):
        from repro.controlplane import AdmissionError, PolicyState

        daemon = self._daemon(kernel)
        plan = FaultPlan()
        plan.fail("controlplane.admission.decision", times=1)
        with injected(plan):
            with pytest.raises(AdmissionError, match="injected fault"):
                daemon.submit("ops", self._submission())
            # The denial is audited like any other: REJECTED, terminal,
            # name immediately reusable.
            assert daemon.records["p"].state is PolicyState.REJECTED
            record = daemon.submit("ops", self._submission())
        assert record.state is PolicyState.VERIFIED

    def test_admission_fault_can_target_one_client(self, kernel):
        from repro.controlplane import AdmissionError

        daemon = self._daemon(kernel)
        daemon.register_client("other", allowed_selectors=("*",))
        plan = FaultPlan()
        plan.fail("controlplane.admission.decision", match={"client": "ops"})
        with injected(plan):
            with pytest.raises(AdmissionError):
                daemon.submit("ops", self._submission("mine"))
            record = daemon.submit("other", self._submission("theirs"))
        assert record is not None

    def test_journal_append_fault_leaves_no_half_record(self, kernel):
        from repro.controlplane import JournalError, PolicyJournal

        daemon = self._daemon(kernel, journal=PolicyJournal())
        plan = FaultPlan()
        plan.fail("controlplane.journal.append", times=1)
        with injected(plan):
            with pytest.raises(JournalError, match="injected fault"):
                daemon.submit("ops", self._submission())
            # Nothing journaled, nothing recorded: the name is free and
            # a retry succeeds outright.
            assert "p" not in daemon.records
            record = daemon.submit("ops", self._submission())
        assert record.state.name == "VERIFIED"

    def test_journal_fsync_fault_surfaces_after_write(self, tmp_path, kernel):
        from repro.controlplane import JournalError, PolicyJournal

        journal = PolicyJournal(str(tmp_path / "j.jsonl"))
        plan = FaultPlan()
        plan.fail("controlplane.journal.fsync", times=1)
        with injected(plan):
            with pytest.raises(JournalError, match="injected fault"):
                journal.append({"kind": "client", "client": "x"})
        # The fsync gap: the line was written before the sync failed,
        # so a reader sees the entry the writer thinks was lost.
        assert len(journal.entries()) == 1

    def test_journal_repr_names_the_store_without_replaying_it(self, tmp_path):
        from repro.controlplane import JournalError, PolicyJournal

        path = str(tmp_path / "j.jsonl")
        for journal, where in ((PolicyJournal(), "<memory>"), (PolicyJournal(path), path)):
            journal.append({"kind": "client", "client": "x"})
            plan = FaultPlan()
            plan.fail("controlplane.journal.replay", times=1)
            with injected(plan):
                assert repr(journal) == f"PolicyJournal({where!r})"
                assert plan.hits["controlplane.journal.replay"] == 0
                # The rule was not consumed: the next replay still fails.
                with pytest.raises(JournalError, match="injected fault"):
                    journal.entries()

    def test_journal_replay_fault_fails_recovery_loudly(self, kernel):
        from repro.controlplane import JournalError, PolicyJournal

        journal = PolicyJournal()
        daemon = self._daemon(kernel, journal=journal)
        daemon.submit("ops", self._submission())

        from repro.controlplane import Concordd

        fresh = Concordd(Concord(kernel), journal=journal)
        plan = FaultPlan()
        plan.fail("controlplane.journal.replay", times=1)
        with injected(plan):
            with pytest.raises(JournalError, match="injected fault"):
                fresh.recover()
            # The flake cleared; the same daemon can retry.
            assert not fresh.records
