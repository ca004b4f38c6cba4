"""ShflLock (Kashyap et al., SOSP '19) with Concord hook points.

ShflLock decouples lock *policy* from lock *implementation*: waiters
form a queue, and while the queue head spins on the top-level lock word
it acts as the **shuffler**, reordering the waiters behind it according
to a policy — all off the critical path.  The stock kernel policy groups
waiters by NUMA socket so consecutive lock handoffs stay on one socket.

This implementation exposes the paper's Table 1 hook points:

* ``cmp_node(lock, shuffler_node, curr_node)`` — should ``curr_node``
  move forward (be grouped behind the shuffler)?
* ``skip_shuffle(lock, shuffler_node)`` — skip this shuffling pass.
* ``schedule_waiter(lock, curr_node)`` — park/spin decision for waiters
  (only consulted in blocking mode).

Each hook resolves in priority order: Concord-attached BPF program →
compiled-in Python policy → built-in default.  The three call sites are
exactly where a livepatched kernel would redirect to eBPF.

Safety properties enforced here (the "runtime checks" of §4.2):

* shuffling never moves the queue's last node (append-race freedom);
* a shuffling pass is bounded by ``max_shuffle_window`` nodes and a head
  tenure is bounded by ``max_shuffle_rounds`` passes (starvation bound);
* queue membership is re-verified after every pass in debug mode.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional

from ..sim.cache import Cell
from ..sim.ops import CAS, Delay, Load, Park, Store, Unpark, WaitValue, Xchg
from ..sim.task import Task
from .base import (
    HOOK_CMP_NODE,
    HOOK_SCHEDULE_WAITER,
    HOOK_SKIP_SHUFFLE,
    Lock,
    LockError,
)

__all__ = ["ShflNode", "ShufflePolicy", "NumaPolicy", "ShflLock"]

_FREE = 0
_LOCKED = 1


def _is_free(value) -> bool:
    return value == _FREE


# node.status values.  A waiter sleeps on its own status line; the
# promoter writes S_HEAD, and the shuffler role travels down the queue
# through S_SHUFFLER (one active shuffler at a time).
S_WAITING = 0
S_SHUFFLER = 1
S_HEAD = 2

#: Cost (ns) of a compiled-in policy callback (a direct C call).
_COMPILED_POLICY_NS = 3
#: Poll interval for blocking-mode waiters before they park.
_BLOCKING_POLL_NS = 400


class ShflNode:
    """Queue node, one per in-flight acquisition.

    ``next`` and ``status`` are shared cache lines; the metadata fields
    (cpu, socket, priority, enqueue time) live on the same line as
    ``next`` from the coherence model's point of view — the shuffler's
    load of ``next`` pays for reading them.
    """

    __slots__ = (
        "task",
        "cpu",
        "socket",
        "priority",
        "enqueue_time",
        "next",
        "status",
        "parked",
        "meta",
    )

    def __init__(self, engine, task: Task) -> None:
        self.task = task
        self.cpu = task.cpu_id
        self.socket = task.numa_node
        self.priority = task.priority
        self.enqueue_time = engine.now
        self.next: Cell = engine.cell(None, name=f"shfl.next.{task.tid}")
        self.status: Cell = engine.cell(S_WAITING, name=f"shfl.status.{task.tid}")
        self.parked: Cell = engine.cell(0, name=f"shfl.parked.{task.tid}")
        #: Scratch visible to policies (e.g. critical-section estimates).
        self.meta: Dict[str, int] = {}

    def __repr__(self) -> str:
        return f"ShflNode({self.task.name}, socket={self.socket})"


class ShufflePolicy:
    """A compiled-in (kernel-built) shuffling policy.

    Subclass and override the three decisions.  Concord-injected BPF
    programs replace these at run time without recompilation; this class
    is the "kernel developers decided at build time" path.
    """

    #: Simulated cost of one policy callback.
    cost_ns = _COMPILED_POLICY_NS

    def cmp_node(self, lock: "ShflLock", shuffler: ShflNode, curr: ShflNode) -> bool:
        return False

    def skip_shuffle(self, lock: "ShflLock", shuffler: ShflNode) -> bool:
        return False

    def schedule_waiter(self, lock: "ShflLock", curr: ShflNode) -> bool:
        """Return True if the waiter may park (blocking mode only)."""
        return True


class NumaPolicy(ShufflePolicy):
    """The stock NUMA-awareness policy: group waiters from the shuffler's socket."""

    def cmp_node(self, lock: "ShflLock", shuffler: ShflNode, curr: ShflNode) -> bool:
        return curr.socket == shuffler.socket


class ShflLock(Lock):
    """Queue spinlock with policy-driven shuffling.

    Args:
        policy: compiled-in :class:`ShufflePolicy` (None = plain FIFO,
            which makes ShflLock behave like an MCS/qspinlock hybrid).
        blocking: if True, non-head waiters park after a spin budget
            (mutex/rwsem-style); if False everyone spins (spinlock).
        max_shuffle_window: nodes examined per shuffling pass.
        max_shuffle_rounds: shuffling passes per head tenure — the
            static starvation bound from §4.2.
        spin_budget_ns: blocking mode only — how long a waiter spins
            before parking (the "ad-hoc spin time" C3 lets users tune).
    """

    def __init__(
        self,
        engine,
        name: str = "",
        policy: Optional[ShufflePolicy] = None,
        blocking: bool = False,
        max_shuffle_window: int = 16,
        max_shuffle_rounds: int = 32,
        spin_budget_ns: int = 4000,
        debug_checks: bool = False,
    ) -> None:
        super().__init__(engine, name)
        self.policy = policy
        self.blocking = blocking
        self.max_shuffle_window = max_shuffle_window
        self.max_shuffle_rounds = max_shuffle_rounds
        self.spin_budget_ns = spin_budget_ns
        self.debug_checks = debug_checks
        self.glock = engine.cell(_FREE, name=f"{self.name}.glock")
        self.tail = engine.cell(None, name=f"{self.name}.tail")
        # Requests are immutable: the ones on the lock's own words are
        # built once, not on every yield.
        self._load_tail = Load(self.tail)
        self._load_glock = Load(self.glock)
        self._cas_glock = CAS(self.glock, _FREE, _LOCKED)
        self._wait_glock_free = WaitValue(self.glock, _is_free)
        self._store_glock_free = Store(self.glock, _FREE)
        self._nodes: Dict[int, ShflNode] = {}
        self.shuffle_moves = 0
        self.shuffle_passes = 0
        # True while some waiter holds the shuffler role.  Guarding the
        # (cheap) head-side re-seed with a host-level flag is safe: the
        # check and the claim happen in one event step, so two grants
        # can never race.
        self._shuffler_active = False

    # ------------------------------------------------------------------
    # Policy decisions (hook -> compiled policy -> default)
    # ------------------------------------------------------------------
    def _decide_cmp(self, task: Task, shuffler: ShflNode, curr: ShflNode) -> Iterator:
        hooks = self.hooks
        if hooks is not None and HOOK_CMP_NODE in hooks.programs:
            value, cost_ns = self._fire(
                task, HOOK_CMP_NODE, {"shuffler_node": shuffler, "curr_node": curr}
            )
            yield Delay(cost_ns)
            return bool(value)
        if self.policy is not None:
            yield Delay(self.policy.cost_ns)
            return self.policy.cmp_node(self, shuffler, curr)
        return False

    def _decide_skip(self, task: Task, shuffler: ShflNode) -> Iterator:
        hooks = self.hooks
        if hooks is not None and HOOK_SKIP_SHUFFLE in hooks.programs:
            value, cost_ns = self._fire(task, HOOK_SKIP_SHUFFLE, {"shuffler_node": shuffler})
            yield Delay(cost_ns)
            return bool(value)
        if self.policy is not None:
            yield Delay(self.policy.cost_ns)
            return self.policy.skip_shuffle(self, shuffler)
        # No policy at all: nothing to shuffle by, skip entirely.
        return hooks is None or HOOK_CMP_NODE not in hooks.programs

    def _decide_park(self, task: Task, curr: ShflNode) -> Iterator:
        hooks = self.hooks
        if hooks is not None and HOOK_SCHEDULE_WAITER in hooks.programs:
            value, cost_ns = self._fire(task, HOOK_SCHEDULE_WAITER, {"curr_node": curr})
            yield Delay(cost_ns)
            return bool(value)
        if self.policy is not None:
            yield Delay(self.policy.cost_ns)
            return self.policy.schedule_waiter(self, curr)
        return True

    # ------------------------------------------------------------------
    # Acquire / release
    # ------------------------------------------------------------------
    def acquire(self, task: Task) -> Iterator:
        # Fast path only when nobody is queued (qspinlock discipline):
        # with waiters present, arrivals must not steal the word — the
        # event-driven head spin would otherwise starve behind releasers
        # whose re-acquire probe hits their own L1.
        queued = yield self._load_tail
        if queued is None:
            value = yield self._load_glock
            if value == _FREE:
                ok, _old = yield self._cas_glock
                if ok:
                    self._nodes[task.tid] = None  # uncontended: no node
                    self._mark_acquired(task, contended=False)
                    return

        node = ShflNode(self.engine, task)
        prev: Optional[ShflNode] = yield Xchg(self.tail, node)
        if prev is not None:
            yield Store(prev.next, node)
            yield from self._wait_for_head(task, node)
        # else: queue was empty, we are head immediately.

        # Head phase.  Shuffling happens among the *waiters* (the
        # shuffler role travels down the queue), so the head only seeds
        # the role once and then spins event-driven on the lock word —
        # handoff latency stays as tight as a plain queue lock.
        yield from self._grant_shuffler_role(task, node)
        while True:
            value = yield self._load_glock
            if value == _FREE:
                ok, _old = yield self._cas_glock
                if ok:
                    break
                continue
            yield self._wait_glock_free

        # Promote the successor to head before entering the CS.
        yield from self._promote_successor(node)
        self._nodes[task.tid] = node
        self._mark_acquired(task, contended=True)

    def _shuffling_enabled(self) -> bool:
        if self.policy is not None:
            return True
        return self.hooks is not None and HOOK_CMP_NODE in self.hooks

    def _grant_shuffler_role(self, task: Task, node: ShflNode) -> Iterator:
        """Re-seed the shuffler role on our successor if it died.

        Runs off the critical path (the head is waiting anyway) and only
        when no shuffler is live, so its cost amortizes to nearly zero.
        """
        if self.blocking or not self._shuffling_enabled() or self._shuffler_active:
            return
        self._shuffler_active = True
        succ = yield Load(node.next)
        if succ is None:
            self._shuffler_active = False
            return
        ok, _old = yield CAS(succ.status, S_WAITING, S_SHUFFLER)
        if not ok:
            self._shuffler_active = False

    def _wait_for_head(self, task: Task, node: ShflNode) -> Iterator:
        """Non-head waiter: spin (and optionally park) until promoted.

        In spinning mode the waiter may receive the *shuffler role*
        (status S_SHUFFLER): it then reorders the queue segment behind
        itself — entirely off the critical path, this is the paper's
        "phase for reordering the waiting queue" — before going back to
        waiting for its own promotion.
        """
        if not self.blocking:
            status = yield WaitValue(node.status, lambda v: v != S_WAITING)
            while status != S_HEAD:
                status = yield from self._run_shuffler(task, node)
            return
        spun = 0
        while True:
            status = yield Load(node.status)
            if status == S_HEAD:
                return
            if spun >= self.spin_budget_ns:
                may_park = yield from self._decide_park(task, node)
                if may_park:
                    # Publish the parked flag, then re-check to dodge the
                    # lost-wakeup window (promoter checks parked after
                    # setting status).
                    yield Store(node.parked, 1)
                    status = yield Load(node.status)
                    if status == S_HEAD:
                        yield Store(node.parked, 0)
                        return
                    yield Park()
                    yield Store(node.parked, 0)
                    spun = 0
                    continue
                spun = 0  # policy said keep spinning: reset the budget
            yield Delay(_BLOCKING_POLL_NS)
            spun += _BLOCKING_POLL_NS

    def _run_shuffler(self, task: Task, node: ShflNode) -> Iterator:
        """Act as the queue's shuffler until done, then wait for S_HEAD.

        On exit the role either travels to a deeper node — the last node
        of the grouped batch when one formed, otherwise the deepest node
        visited (so the role sinks toward queue positions that have time
        to work before being promoted) — or dies, in which case the next
        queue head re-seeds it.  Returns the last observed status.
        """
        rounds = 0
        stable = 0
        anchor = node
        deepest = node
        while True:
            status = yield Load(node.status)
            if status == S_HEAD:
                # Promoted mid-role: hand the role onward before entering
                # the head phase so it survives and keeps sinking to queue
                # positions with enough slack to complete full passes.
                yield from self._pass_role(node, anchor, deepest)
                return status
            skip = yield from self._decide_skip(task, node)
            if skip or rounds >= self.max_shuffle_rounds or stable >= 2:
                break
            moves, anchor, deepest = yield from self._shuffle_pass(task, node)
            rounds += 1
            stable = stable + 1 if moves == 0 else 0
        # Drop our own shuffler mark *before* passing the role: otherwise
        # a promoter that finds S_SHUFFLER on us would conclude it
        # squashed a live role and clear the active flag while the role
        # lives on in our successor — seeding a second concurrent
        # shuffler (queue corruption).
        yield CAS(node.status, S_SHUFFLER, S_WAITING)
        yield from self._pass_role(node, anchor, deepest)
        status = yield WaitValue(node.status, lambda v: v != S_WAITING)
        return status

    def _pass_role(self, node: ShflNode, anchor: ShflNode, deepest: ShflNode) -> Iterator:
        """Hand the shuffler role to the deepest node this pass examined
        (it has the most queue time left to work); kill the role if
        nobody can take it.

        A shuffler that got promoted before doing any work still pushes
        the role one step down (its successor) — without this the role
        oscillates at the front of the queue, forever one promotion away
        from extinction, and no reordering ever accumulates.
        """
        if anchor is not node:
            # A batch formed: its last node continues growing it (the
            # original algorithm's hand-over rule).
            target = anchor
        else:
            # No grouping progress: push the role several links beyond
            # the deepest node examined.  Anything shallower leaves the
            # role chasing the promotion wave one step ahead, perpetually
            # promoted before it can complete a single pass.
            cursor = deepest
            for _ in range(4):
                nxt = yield Load(cursor.next)
                if nxt is None:
                    break
                cursor = nxt
            target = cursor
        if target is not node:
            ok, _old = yield CAS(target.status, S_WAITING, S_SHUFFLER)
            self._shuffler_active = bool(ok)
        else:
            self._shuffler_active = False

    def _promote_successor(self, node: ShflNode) -> Iterator:
        succ = yield Load(node.next)
        if succ is None:
            ok, _old = yield CAS(self.tail, node, None)
            if ok:
                return
            succ = yield WaitValue(node.next, lambda v: v is not None)
        old = yield Xchg(succ.status, S_HEAD)
        if old == S_SHUFFLER:
            # We squashed a granted-but-unconsumed shuffler role; mark it
            # dead so the next head re-seeds it.  The successor always
            # exits its shuffling loop before entering its head phase, so
            # two shufflers never mutate the queue concurrently.
            self._shuffler_active = False
        if self.blocking:
            parked = yield Load(succ.parked)
            if parked:
                yield Unpark(succ.task)

    def release(self, task: Task) -> Iterator:
        self._nodes.pop(task.tid, None)
        self._mark_released(task)
        yield self._store_glock_free

    def try_acquire(self, task: Task) -> Iterator:
        ok, _old = yield self._cas_glock
        if ok:
            self._nodes[task.tid] = None
            self._mark_acquired(task)
        return ok

    # ------------------------------------------------------------------
    # Shuffling
    # ------------------------------------------------------------------
    def _shuffle_pass(self, task: Task, head: ShflNode) -> Iterator:
        """One bounded shuffling pass: group cmp_node-approved waiters
        directly behind the shuffler.  Returns (moved, anchor, deepest).

        Never touches the queue's last node (its ``next`` may be written
        concurrently by an appender), and re-verifies linkage before
        every splice, which makes the pass safe against concurrent
        appends — the only other queue mutator (the shuffler role is
        exclusive, so no two passes run concurrently).  The pass aborts
        at the next step boundary once we are promoted to head; splices
        are never left half-done.
        """
        self.shuffle_passes += 1
        moves_before = self.shuffle_moves
        anchor = head
        prev = head
        deepest = head
        curr = yield Load(prev.next)
        visited = 0
        while curr is not None and visited < self.max_shuffle_window:
            if head.status.peek() == S_HEAD:
                break  # we got promoted: back to the acquisition path
            visited += 1
            nxt = yield Load(curr.next)
            if nxt is None:
                break  # curr is (or was just) the tail: hands off
            deepest = curr
            decision = yield from self._decide_cmp(task, head, curr)
            if decision:
                if prev is anchor:
                    # Already in the grouped prefix: just extend it.
                    anchor = curr
                    prev = curr
                    curr = nxt
                else:
                    # Splice curr out of its position...
                    check = yield Load(prev.next)
                    if check is not curr:
                        break  # linkage changed under us: abort the pass
                    yield Store(prev.next, nxt)
                    # ...and insert it right after the anchor.
                    after = yield Load(anchor.next)
                    yield Store(curr.next, after)
                    yield Store(anchor.next, curr)
                    anchor = curr
                    curr = nxt
                    self.shuffle_moves += 1
            else:
                prev = curr
                curr = nxt
        if self.debug_checks:
            self._verify_queue(head)
        return self.shuffle_moves - moves_before, anchor, deepest

    def _verify_queue(self, head: ShflNode) -> None:
        """Debug-mode walk: the queue behind ``head`` must be acyclic.

        Note: the tail is deliberately *not* required to be reachable —
        an in-flight append (tail exchanged, predecessor link not yet
        stored) legally leaves the new tail unlinked for a moment.
        """
        seen = set()
        node = head
        while node is not None:
            if id(node) in seen:
                raise LockError(f"{self.name}: shuffle created a cycle at {node}")
            seen.add(id(node))
            node = node.next.peek()

    # ------------------------------------------------------------------
    @staticmethod
    def walk_queue_from(node: ShflNode) -> List[ShflNode]:
        """Zero-cost debug walk of the queue starting at ``node``."""
        out: List[ShflNode] = []
        seen = set()
        cursor: Optional[ShflNode] = node
        while cursor is not None and id(cursor) not in seen:
            seen.add(id(cursor))
            out.append(cursor)
            cursor = cursor.next.peek()
        return out
