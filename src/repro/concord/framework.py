"""The Concord framework: Figure 1's workflow, end to end.

    1. userspace specifies a lock policy        -> PolicySpec
    2. compile + eBPF verification              -> frontend + Verifier
    3. lock-safety validation                   -> ConcordVerifier
    4. notify the user of the outcome           -> events + return value
    5. store the program in the BPF filesystem  -> BpfFS pin
    6. livepatch the annotated lock functions   -> HookSet on the call site

One :class:`Concord` instance manages one simulated kernel.  Policies
chain per (hook, lock); lock implementations can be switched on the fly;
the dynamic profiler (§3.2) is built on the four profiling hooks.
"""

from __future__ import annotations

from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from ..bpf.errors import BPFError, RuntimeFault, VerificationError
from ..bpf.frontend import compile_policy
from ..bpf.vm import VM
from ..kernel.core import Kernel
from ..locks.base import HookSet, Lock
from ..locks.switchable import SwitchableLock
from .api import LAYOUT_FOR_HOOK, make_hook_fn
from .bpffs import BpfFS, BpfIOError
from .policy import (
    LoadedPolicy,
    PolicySpec,
    check_conflicts,
    combine_results,
)
from .verifier import ConcordVerifier

__all__ = ["Concord", "ConcordEvent"]


class ConcordEvent(NamedTuple):
    """One entry in the user-visible event log (the "notify" channel)."""

    time_ns: int
    kind: str
    message: str


class Concord:
    """A privileged userspace process's handle for tuning kernel locks.

    Args:
        kernel: the kernel whose locks we modify.
        dispatch_ns: per-hook-invocation trampoline + dispatch cost.
        vm: optionally share/tune the BPF interpreter (cost knobs).
        fault_threshold: runtime circuit breaker — a policy whose hook
            programs raise this many :class:`RuntimeFault`\\ s is
            auto-detached (fail-open: the lock falls back to stock
            behaviour instead of the fault poisoning the lock path).
    """

    def __init__(
        self,
        kernel: Kernel,
        dispatch_ns: int = 35,
        vm: Optional[VM] = None,
        fault_threshold: int = 5,
    ) -> None:
        self.kernel = kernel
        self.dispatch_ns = dispatch_ns
        self.vm = vm or VM()
        self.fault_threshold = fault_threshold
        self.verifier = ConcordVerifier()
        self.bpffs = BpfFS()
        self.events: List[ConcordEvent] = []
        self.policies: Dict[str, LoadedPolicy] = {}
        #: lock name -> hook -> ordered policy chain
        self._chains: Dict[str, Dict[str, List[LoadedPolicy]]] = {}
        self._subscribers: List[Callable[[ConcordEvent], None]] = []

    # ------------------------------------------------------------------
    # Notification channel (Figure 1, step 4)
    # ------------------------------------------------------------------
    def _notify(self, kind: str, message: str) -> None:
        event = ConcordEvent(self.kernel.now, kind, message)
        self.events.append(event)
        for subscriber in list(self._subscribers):
            subscriber(event)

    def subscribe(self, fn: Callable[[ConcordEvent], None]) -> None:
        """Receive every future event as it is emitted (the concordd
        audit bridge).  Subscribers must not raise."""
        self._subscribers.append(fn)

    def unsubscribe(self, fn: Callable[[ConcordEvent], None]) -> None:
        """Stop delivering events to ``fn``; unknown fns are a no-op (a
        dead daemon must be able to detach unconditionally)."""
        try:
            self._subscribers.remove(fn)
        except ValueError:
            pass

    # ------------------------------------------------------------------
    # Policy lifecycle
    # ------------------------------------------------------------------
    def verify_policy(self, spec: PolicySpec) -> Tuple[object, object]:
        """Compile and verify a policy without loading it.

        The control plane uses this to gate a submission (Figure 1,
        steps 2–4) before any lock is touched.  Returns
        ``(program, verdict)``; raises :class:`BPFError` on rejection,
        recording the rejection in :attr:`events`.
        """
        layout = LAYOUT_FOR_HOOK[spec.hook]
        try:
            program = compile_policy(spec.source, layout, maps=spec.maps, name=spec.name)
            verdict = self.verifier.verify(spec.hook, program)
        except BPFError as exc:
            self._notify("verify-failed", f"{spec.name}: {exc}")
            raise
        return program, verdict

    def _resolve_targets(self, spec: PolicySpec, targets: Optional[Sequence[str]]) -> List[str]:
        if targets is None:
            found = self.kernel.locks.select_names(spec.lock_selector)
            if not found:
                self._notify(
                    "load-failed",
                    f"{spec.name}: selector {spec.lock_selector!r} matches no locks",
                )
                raise BPFError(
                    f"lock selector {spec.lock_selector!r} matches no registered locks"
                )
            return found
        explicit = list(dict.fromkeys(targets))
        for name in explicit:
            if name not in self.kernel.locks:
                raise BPFError(f"{spec.name}: target lock {name!r} is not registered")
        if not explicit:
            raise BPFError(f"{spec.name}: empty target list")
        return explicit

    def _site(self, lock_name: str) -> SwitchableLock:
        """The call site registered as ``lock_name``.  Concord reaches a
        lock only through one; a lock registered without a site is
        refused, as the patcher refuses it."""
        site = self.kernel.locks.get(lock_name)
        if not isinstance(site, SwitchableLock):
            raise BPFError(
                f"lock {lock_name!r} is not a patchable call site "
                f"(wrap it in SwitchableLock to annotate it)"
            )
        return site

    def load_policy(
        self, spec: PolicySpec, targets: Optional[Sequence[str]] = None
    ) -> LoadedPolicy:
        """Compile, verify, store, and attach one policy.

        Args:
            spec: the policy to load.
            targets: explicit lock names to attach to, overriding the
                selector match (the canary rollout installs on a subset
                this way).  Every name must be registered.

        Raises :class:`~repro.bpf.errors.BPFError` (with the verifier
        log) on rejection; the rejection is also recorded in
        :attr:`events`, mirroring the paper's notify step.
        """
        if spec.name in self.policies:
            raise BPFError(f"policy {spec.name!r} is already loaded")
        program, verdict = self.verify_policy(spec)

        attach_to = self._resolve_targets(spec, targets)
        for name in attach_to:
            self._site(name)
            chain = self._chains.get(name, {}).get(spec.hook, [])
            check_conflicts(chain, spec, name)

        try:
            path = self.bpffs.pin(f"concord/{spec.name}/{spec.hook}", program)
        except BPFError as exc:
            self._notify("pin-failed", f"{spec.name}: {exc}")
            raise
        loaded = LoadedPolicy(spec, program, verdict, path)
        self.policies[spec.name] = loaded
        self._notify("verified", f"{spec.name}: {spec.hook} program accepted ({len(program)} insns)")

        for name in attach_to:
            self._attach(name, loaded)
        self._notify(
            "attached",
            f"{spec.name}: live on {len(attach_to)} lock(s) matching {spec.lock_selector!r}",
        )
        return loaded

    def unload_policy(self, name: str) -> Optional[LoadedPolicy]:
        """Detach and unpin a policy.  Idempotent: unloading a policy
        that is not loaded (or already unloaded) is a no-op returning
        ``None``; callers that must distinguish check the return value.
        """
        loaded = self.policies.pop(name, None)
        if loaded is None:
            self._notify("detach-noop", f"{name}: not loaded, nothing to do")
            return None
        for lock_name in list(loaded.attached_locks):
            chain = self._chains.get(lock_name, {}).get(loaded.spec.hook, [])
            if loaded in chain:
                chain.remove(loaded)
            self._rebuild_hookset(lock_name)
        loaded.attached_locks.clear()
        try:
            self.bpffs.unpin(loaded.pinned_path)
        except BpfIOError as exc:
            # Transient unpin I/O failure must not wedge an unload: the
            # policy is already off every lock; the stale pin is debris
            # that recovery's orphan sweep (or a retry) clears later.
            self._notify("unpin-failed", f"{name}: {exc}; pin left behind")
        self._notify("detached", f"{name}: unloaded")
        return loaded

    def attach_policy(self, name: str, lock_names: Sequence[str]) -> List[str]:
        """Attach an already-loaded policy to more locks (canary promote).

        Returns the lock names newly attached; locks the policy already
        covers are skipped.
        """
        loaded = self.policies.get(name)
        if loaded is None:
            raise BPFError(f"policy {name!r} is not loaded")
        fresh = []
        for lock_name in lock_names:
            if lock_name in loaded.attached_locks:
                continue
            if lock_name not in self.kernel.locks:
                raise BPFError(f"{name}: target lock {lock_name!r} is not registered")
            self._site(lock_name)
            chain = self._chains.get(lock_name, {}).get(loaded.spec.hook, [])
            check_conflicts(chain, loaded.spec, lock_name)
            fresh.append(lock_name)
        for lock_name in fresh:
            self._attach(lock_name, loaded)
        if fresh:
            self._notify("attached", f"{name}: extended to {len(fresh)} more lock(s)")
        return fresh

    def chain(self, lock_name: str, hook: str) -> Tuple[LoadedPolicy, ...]:
        """The live policy chain on ``(lock, hook)`` (admission checks)."""
        return tuple(self._chains.get(lock_name, {}).get(hook, ()))

    # ------------------------------------------------------------------
    # Attachment plumbing
    # ------------------------------------------------------------------
    def _attach(self, lock_name: str, loaded: LoadedPolicy) -> None:
        chains = self._chains.setdefault(lock_name, {})
        chain = chains.setdefault(loaded.spec.hook, [])
        chain.append(loaded)
        chain.sort(key=lambda p: -p.spec.priority)
        loaded.attached_locks.append(lock_name)
        self._rebuild_hookset(lock_name)
        self._analyze_composition(lock_name, loaded.spec.hook, chain)

    def _analyze_composition(self, lock_name: str, hook: str, chain) -> None:
        """§6 'composing policies': static hazard analysis, advisory only."""
        if len(chain) < 1:
            return
        from ..locks.base import DECISION_HOOKS
        from .conflicts import analyze_chain, footprint_of

        findings = analyze_chain(
            [footprint_of(policy.program) for policy in chain],
            combiner=chain[0].spec.combiner,
            decision_hook=hook in DECISION_HOOKS,
        )
        for finding in findings:
            self._notify("compose-" + finding.severity, f"{hook}@{lock_name}: {finding}")

    def _rebuild_hookset(self, lock_name: str) -> None:
        site = self.kernel.locks.get(lock_name)
        chains = self._chains.get(lock_name, {})
        live = {hook: chain for hook, chain in chains.items() if chain}
        if not live:
            site.attach_hooks(None)
            return
        kernel = self.kernel

        def lock_id_of(_lock):
            # Whichever implementation fires, programs see the site's id.
            return kernel.lock_id(site)

        hookset = HookSet(dispatch_ns=self.dispatch_ns)
        for hook, chain in live.items():
            fns = [
                self._breaker_fn(
                    policy, make_hook_fn(hook, policy.program, self.vm, lock_id_of)
                )
                for policy in chain
            ]
            combiner = chain[0].spec.combiner
            if len(fns) == 1:
                hookset.attach(hook, fns[0])
            else:
                hookset.attach(hook, _chain_fn(fns, combiner))
        site.attach_hooks(hookset)

    # ------------------------------------------------------------------
    # Fail-open degradation: the per-policy runtime circuit breaker
    # ------------------------------------------------------------------
    def _breaker_fn(self, loaded: LoadedPolicy, fn):
        """Wrap one policy's hook fn with the circuit breaker.

        A :class:`RuntimeFault` (verifier-escaped bug, injected helper
        fault, budget exhaustion) is absorbed: the hook contributes a
        neutral decision (0) and only the entry cost, the fault is
        counted against the policy, and at :attr:`fault_threshold` the
        policy is auto-detached — the lock falls back to stock
        behaviour instead of every acquisition re-raising.
        """

        def guarded(env):
            if loaded.tripped:
                return 0, 0
            try:
                return fn(env)
            except RuntimeFault as exc:
                self._on_policy_fault(loaded, exc)
                return 0, self.vm.entry_cost_ns

        return guarded

    def _on_policy_fault(self, loaded: LoadedPolicy, exc: RuntimeFault) -> None:
        loaded.fault_count += 1
        self._notify(
            "policy-fault",
            f"{loaded.spec.name}: {exc} "
            f"(fault {loaded.fault_count}/{self.fault_threshold})",
        )
        if loaded.fault_count >= self.fault_threshold and not loaded.tripped:
            loaded.tripped = True
            # unload_policy clears attached_locks; capture them first so
            # the trip event names exactly which locks fell back.
            released = ", ".join(loaded.attached_locks) or "none"
            # Safe mid-acquisition: unload is pure bookkeeping (chain
            # removal + hookset rebuild); the in-flight chain invocation
            # holds its own fn references and the tripped flag silences
            # this policy's contribution from here on.
            self.unload_policy(loaded.spec.name)
            self._notify(
                "breaker-tripped",
                f"{loaded.spec.name}: circuit breaker tripped after "
                f"{loaded.fault_count} runtime fault(s); policy detached, "
                f"locks fall back to stock behaviour ({released})",
            )

    # ------------------------------------------------------------------
    # Lock switching and parameters (the other half of C3)
    # ------------------------------------------------------------------
    def switch_lock(self, lock_name: str, new_impl_factory: Callable[[Lock], Lock]):
        """Replace a lock's implementation on the fly (drain semantics,
        unbounded: the switch installs whenever the lock next quiesces)."""
        patch = self.kernel.patcher.switch_lock(lock_name, new_impl_factory)
        self._notify("switched", f"{lock_name}: implementation switch requested")
        return patch

    def switch_latency(self, lock_name: str) -> Optional[int]:
        return self.kernel.patcher.switch_latency(lock_name)

    def set_lock_param(self, lock_name: str, param: str, value) -> None:
        """Tune a lock parameter (e.g. ``spin_budget_ns``) from userspace."""
        impl = self._site(lock_name).impl
        if not hasattr(impl, param):
            raise BPFError(f"{lock_name}: lock has no parameter {param!r}")
        setattr(impl, param, value)
        self._notify("param", f"{lock_name}: {param} = {value}")

    # ------------------------------------------------------------------
    def describe(self) -> Dict[str, object]:
        return {
            "policies": sorted(self.policies),
            "pinned": self.bpffs.listdir(),
            "patched_locks": sorted(
                name for name, chains in self._chains.items() if any(chains.values())
            ),
            "events": len(self.events),
        }


def _chain_fn(fns, combiner):
    """Run a chain of hook programs, combining results and summing costs."""

    def chained(env):
        results = []
        total_cost = 0
        for fn in fns:
            value, cost = fn(env)
            results.append(value)
            total_cost += cost
        return combine_results(combiner, results), total_cost

    return chained
