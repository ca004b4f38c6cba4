"""concordd admission: capabilities, quotas, conflicting submissions,
and one composition rule across every path that applies it."""

import pytest

from repro.concord import Concord
from repro.concord.policy import PolicyConflictError, PolicySpec
from repro.controlplane import (
    AdmissionError,
    CapabilityError,
    Concordd,
    PolicyState,
    PolicySubmission,
    QuotaError,
    SubmissionConflictError,
)
from repro.kernel import Kernel
from repro.locks import ShflLock
from repro.locks.base import HOOK_CMP_NODE, HOOK_LOCK_ACQUIRE
from repro.sim import Topology
from repro.userspace import PolicyClient

RETURN_ZERO = "def f(ctx):\n    return 0\n"


def make_daemon():
    kernel = Kernel(Topology(sockets=2, cores_per_socket=2), seed=1)
    for prefix in ("svc.a", "svc.b", "db.main"):
        kernel.add_lock(f"{prefix}.lock", ShflLock(kernel.engine, name=prefix))
    return Concordd(Concord(kernel))


@pytest.fixture
def daemon():
    return make_daemon()


def sub(name, selector="svc.*.lock", hook=HOOK_CMP_NODE, **spec_kw):
    return PolicySubmission(
        spec=PolicySpec(
            name=name, hook=hook, source=RETURN_ZERO, lock_selector=selector, **spec_kw
        )
    )


class TestCapabilities:
    def test_denied_selector(self, daemon):
        client = PolicyClient.connect(daemon, "tenant", allowed_selectors=("svc.*",))
        with pytest.raises(CapabilityError, match="may not touch"):
            client.submit(sub("sneaky", selector="db.*.lock"))
        record = daemon.status("sneaky")
        assert record.state is PolicyState.REJECTED
        assert "db.main.lock" in record.error

    def test_partial_coverage_is_still_denied(self, daemon):
        # A wildcard selector reaching even one uncovered lock is denied.
        client = PolicyClient.connect(daemon, "tenant", allowed_selectors=("svc.*",))
        with pytest.raises(CapabilityError):
            client.submit(sub("broad", selector="*.lock"))

    def test_covered_selector_admitted(self, daemon):
        client = PolicyClient.connect(daemon, "tenant", allowed_selectors=("svc.*",))
        record = client.submit(sub("fine"))
        assert record.state is PolicyState.VERIFIED
        assert sorted(record.target_locks) == ["svc.a.lock", "svc.b.lock"]

    def test_impl_switch_needs_capability(self, daemon):
        client = PolicyClient.connect(daemon, "tenant", may_switch_impl=False)
        with pytest.raises(CapabilityError, match="may not switch"):
            client.submit(
                PolicySubmission(
                    impl_factory=lambda old: old, name="swap", lock_selector="svc.*.lock"
                )
            )

    def test_unregistered_client_rejected(self, daemon):
        with pytest.raises(CapabilityError, match="not registered"):
            PolicyClient(daemon, "ghost")

    def test_empty_selector_rejected(self, daemon):
        client = PolicyClient.connect(daemon, "tenant")
        with pytest.raises(AdmissionError, match="matches no registered locks"):
            client.submit(sub("void", selector="nothing.*"))


class TestQuota:
    def test_quota_exhaustion(self, daemon):
        client = PolicyClient.connect(daemon, "tenant", max_live_policies=2)
        client.submit(sub("p0"))
        client.submit(sub("p1"))
        with pytest.raises(QuotaError, match="quota 2"):
            client.submit(sub("p2"))
        assert daemon.status("p2").state is PolicyState.REJECTED

    def test_terminal_policies_free_quota(self, daemon):
        client = PolicyClient.connect(daemon, "tenant", max_live_policies=2)
        client.submit(sub("p0"))
        client.submit(sub("p1"))
        client.withdraw("p0")
        assert client.submit(sub("p2")).state is PolicyState.VERIFIED

    def test_quota_is_per_client(self, daemon):
        alice = PolicyClient.connect(daemon, "alice", max_live_policies=1)
        bob = PolicyClient.connect(daemon, "bob", max_live_policies=1)
        alice.submit(sub("a0"))
        # Bob's quota is untouched by Alice's policy; selector overlap is
        # fine because neither spec is exclusive and combiners agree.
        assert bob.submit(sub("b0")).state is PolicyState.VERIFIED


class TestConflicts:
    def test_two_sessions_exclusive_collision(self, daemon):
        alice = PolicyClient.connect(daemon, "alice")
        bob = PolicyClient.connect(daemon, "bob")
        alice.submit(sub("a-only", exclusive=True))
        with pytest.raises(SubmissionConflictError, match="in-flight"):
            bob.submit(sub("b-too"))
        assert daemon.status("b-too").state is PolicyState.REJECTED
        # Alice's record is untouched by Bob's denial.
        assert daemon.status("a-only").state is PolicyState.VERIFIED

    def test_combiner_disagreement_between_sessions(self, daemon):
        alice = PolicyClient.connect(daemon, "alice")
        bob = PolicyClient.connect(daemon, "bob")
        alice.submit(sub("a-or", combiner="or"))
        with pytest.raises(SubmissionConflictError, match="combiner"):
            bob.submit(sub("b-and", combiner="and"))

    def test_disjoint_selectors_do_not_conflict(self, daemon):
        alice = PolicyClient.connect(daemon, "alice")
        bob = PolicyClient.connect(daemon, "bob")
        alice.submit(sub("a-x", selector="svc.a.lock", exclusive=True))
        assert (
            bob.submit(sub("b-x", selector="svc.b.lock", exclusive=True)).state
            is PolicyState.VERIFIED
        )

    def test_conflict_with_kernel_chain(self, daemon):
        # A policy already loaded straight through Concord (bypassing the
        # daemon) still blocks conflicting submissions.
        daemon.concord.load_policy(
            PolicySpec(
                name="preexisting",
                hook=HOOK_LOCK_ACQUIRE,
                source=RETURN_ZERO,
                lock_selector="svc.*.lock",
                exclusive=True,
            )
        )
        client = PolicyClient.connect(daemon, "tenant")
        with pytest.raises(SubmissionConflictError):
            client.submit(sub("late", hook=HOOK_LOCK_ACQUIRE))

    def test_intra_bundle_conflict(self, daemon):
        client = PolicyClient.connect(daemon, "tenant")
        bundle = PolicySubmission(
            specs=(
                PolicySpec(
                    name="b",
                    hook=HOOK_CMP_NODE,
                    source=RETURN_ZERO,
                    lock_selector="svc.*.lock",
                    exclusive=True,
                ),
                PolicySpec(
                    name="b.extra",
                    hook=HOOK_CMP_NODE,
                    source=RETURN_ZERO,
                    lock_selector="svc.*.lock",
                ),
            )
        )
        with pytest.raises(SubmissionConflictError, match="exclusive"):
            client.submit(bundle)

    def test_name_collision_with_inflight(self, daemon):
        alice = PolicyClient.connect(daemon, "alice")
        bob = PolicyClient.connect(daemon, "bob")
        alice.submit(sub("shared-name"))
        with pytest.raises(AdmissionError, match="already in flight"):
            bob.submit(sub("shared-name"))


def rule_specs(existing_exclusive, new_exclusive, same_combiner):
    """An existing and a new spec on the same (hook, locks) slot."""
    existing = PolicySpec(
        name="old",
        hook=HOOK_CMP_NODE,
        source=RETURN_ZERO,
        lock_selector="svc.*.lock",
        exclusive=existing_exclusive,
    )
    new = PolicySpec(
        name="new",
        hook=HOOK_CMP_NODE,
        source=RETURN_ZERO,
        lock_selector="svc.*.lock",
        combiner="or" if same_combiner else "and",
        exclusive=new_exclusive,
    )
    return existing, new


def load_against_live_chain(existing, new):
    concord = make_daemon().concord
    concord.load_policy(existing)
    concord.load_policy(new)


def submit_against_live_chain(existing, new):
    daemon = make_daemon()
    daemon.concord.load_policy(existing)
    PolicyClient.connect(daemon, "tenant").submit(PolicySubmission(spec=new))


def submit_against_inflight(existing, new):
    daemon = make_daemon()
    PolicyClient.connect(daemon, "alice").submit(PolicySubmission(spec=existing))
    PolicyClient.connect(daemon, "bob").submit(PolicySubmission(spec=new))


def submit_bundle(existing, new):
    daemon = make_daemon()
    PolicyClient.connect(daemon, "tenant").submit(PolicySubmission(specs=(existing, new)))


class TestOneCompositionRule:
    """A differential oracle: Concord's load and the daemon's admission
    (against a live chain, an in-flight submission and a bundle's own
    earlier spec) must accept or refuse alike, for every combination of
    exclusivity and combiner agreement."""

    PATHS = {
        load_against_live_chain: PolicyConflictError,
        submit_against_live_chain: SubmissionConflictError,
        submit_against_inflight: SubmissionConflictError,
        submit_bundle: SubmissionConflictError,
    }

    @pytest.mark.parametrize("same_combiner", [True, False])
    @pytest.mark.parametrize("new_exclusive", [False, True])
    @pytest.mark.parametrize("existing_exclusive", [False, True])
    def test_every_path_agrees(self, existing_exclusive, new_exclusive, same_combiner):
        composes = same_combiner and not (existing_exclusive or new_exclusive)
        for path, refusal in self.PATHS.items():
            specs = rule_specs(existing_exclusive, new_exclusive, same_combiner)
            if composes:
                path(*specs)
                continue
            with pytest.raises(refusal) as refused:
                path(*specs)
            # The refusal names both policies, the slot and the reason.
            text = str(refused.value)
            assert "'old'" in text and "'new'" in text, (path.__name__, text)
            assert f"{HOOK_CMP_NODE}@svc." in text, (path.__name__, text)
            reason = "exclusive" if existing_exclusive or new_exclusive else "combiner"
            assert reason in text, (path.__name__, text)


class TestAudit:
    def test_denial_is_audited(self, daemon):
        client = PolicyClient.connect(daemon, "tenant", allowed_selectors=("svc.*",))
        with pytest.raises(CapabilityError):
            client.submit(sub("nope", selector="db.*.lock"))
        history = daemon.audit.history("nope")
        assert history == [PolicyState.SUBMITTED, PolicyState.REJECTED]
        last = daemon.audit.for_policy("nope")[-1]
        assert "admission denied" in last.cause

    def test_watch_shows_only_own_policies(self, daemon):
        alice = PolicyClient.connect(daemon, "alice")
        bob = PolicyClient.connect(daemon, "bob")
        alice.submit(sub("a-p", selector="svc.a.lock"))
        bob.submit(sub("b-p", selector="svc.b.lock"))
        assert {r.policy for r in alice.watch()} == {"a-p"}
        assert {r.policy for r in bob.watch()} == {"b-p"}

    def test_verifier_rejection_is_audited(self, daemon):
        client = PolicyClient.connect(daemon, "tenant")
        too_big = "def f(ctx):\n    acc = 0\n" + "".join(
            f"    acc = acc + {i}\n" for i in range(200)
        ) + "    return 0\n"
        from repro.bpf.errors import BPFError

        with pytest.raises(BPFError):
            client.submit(sub_source("fat", too_big))
        assert daemon.audit.history("fat") == [
            PolicyState.SUBMITTED,
            PolicyState.REJECTED,
        ]
        assert "verifier rejected" in daemon.audit.for_policy("fat")[-1].cause
        # A record rejected after verification began is terminal, so the
        # name is free again.
        assert client.submit(sub_source("fat", RETURN_ZERO)).state is PolicyState.VERIFIED


def sub_source(name, source):
    return PolicySubmission(
        spec=PolicySpec(
            name=name, hook=HOOK_CMP_NODE, source=source, lock_selector="svc.*.lock"
        )
    )
