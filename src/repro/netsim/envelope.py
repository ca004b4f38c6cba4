"""The deadline-aware RPC envelope.

The coordinator's original retry loop backed off in lockstep
(``base * 2**(attempt-1)``) and gave up on attempts alone.  Both are
wrong under real partitions: lockstep retries from many members
synchronize into thundering herds, and an attempts-only budget lets a
member that stalls just under the per-call timeout stretch a wave
unboundedly.  :class:`RpcEnvelope` owns the whole retry policy:

* **seeded jitter** — each backoff adds a uniform draw from the
  envelope's own RNG, deterministic given the seed (chaos runs stay
  replayable) but desynchronized across envelopes/attempts;
* **per-call timeout** — ``timeout_ns`` bounds one attempt's observed
  delay (fabric latency + injected stalls); the caller enforces it at
  the delivery site and converts an overrun into its transport error;
* **total deadline** — ``deadline_ns`` caps the *whole* envelope in
  simulated time, backoffs included; a call that would sleep past the
  deadline is clipped, and exhaustion by time is classified
  ``deadline-exceeded``, distinct from ``unreachable``;
* **classification** — every give-up raises
  :class:`~repro.netsim.errors.RpcExhausted` with the reason
  classified (``unreachable`` / ``fenced`` / ``corrupt`` /
  ``deadline-exceeded``) so the journal records *why* a member was
  lost, not just that it was.
"""

from __future__ import annotations

from random import Random
from typing import Callable, Optional, Tuple, Type, TypeVar

from .errors import RpcExhausted

__all__ = ["RpcEnvelope", "retry"]

T = TypeVar("T")


def retry(
    fn: Callable[[], T],
    attempts: int,
    errors: Tuple[Type[BaseException], ...],
    pause: Callable[[int], None],
) -> T:
    """Call ``fn`` up to ``attempts`` times; the last error re-raises.

    After failed attempt ``n`` (not the last) ``pause(n)`` runs: the
    caller's simulated backoff, so waiting out a transient fault costs
    simulated time.  The bounded loop the control plane's
    non-envelope retries share — the plan anchor, the revert-debt
    drain and daemon recovery."""
    for attempt in range(1, attempts):
        try:
            return fn()
        except errors:
            pause(attempt)
    return fn()


class RpcEnvelope:
    """Retry policy for one class of calls (constructed once, reused).

    Args:
        retries: retries on top of the first attempt.
        backoff_ns: exponential backoff base (attempt ``n`` waits
            ``backoff_ns * 2**(n-1)`` plus jitter).
        jitter_ns: upper bound of the uniform jitter added to every
            backoff; ``None`` derives ``backoff_ns // 4``, ``0``
            disables jitter (and then the RNG is never touched).
        timeout_ns: per-attempt delay budget, enforced by the caller at
            its delivery site (see :meth:`timed_out`).
        deadline_ns: total simulated-time budget for the whole envelope;
            ``None`` means attempts-only, the legacy behaviour.
        seed: drives the jitter draws — deterministic per envelope.
    """

    def __init__(
        self,
        retries: int = 1,
        backoff_ns: int = 20_000,
        jitter_ns: Optional[int] = None,
        timeout_ns: Optional[int] = None,
        deadline_ns: Optional[int] = None,
        seed: int = 0,
    ) -> None:
        self.retries = retries
        self.backoff_ns = backoff_ns
        self.jitter_ns = backoff_ns // 4 if jitter_ns is None else jitter_ns
        self.timeout_ns = timeout_ns
        self.deadline_ns = deadline_ns
        self.seed = seed
        self._rng = Random(seed)

    # ------------------------------------------------------------------
    def backoff(self, attempt: int) -> int:
        """The wait before retry ``attempt + 1``: exponential in the
        attempt number, plus one seeded jitter draw."""
        wait = self.backoff_ns * (2 ** (attempt - 1))
        if self.jitter_ns:
            wait += self._rng.randint(0, self.jitter_ns)
        return wait

    def timed_out(self, delay_ns: int) -> bool:
        """Whether one attempt's observed delay blows the per-call
        budget (never, when no timeout is configured)."""
        return self.timeout_ns is not None and delay_ns > self.timeout_ns

    # ------------------------------------------------------------------
    def call(
        self,
        fn: Callable[[int], T],
        *,
        clock: Callable[[], int],
        wait: Callable[[int], None],
        op: str = "rpc",
        retry_on: Tuple[Type[BaseException], ...] = (Exception,),
        fail_fast: Tuple[Type[BaseException], ...] = (),
        corrupt_on: Tuple[Type[BaseException], ...] = (),
        give_up: Optional[Callable[[BaseException], bool]] = None,
    ) -> T:
        """Run ``fn(attempt)`` under the envelope.

        ``clock``/``wait`` are the caller's simulated time: backing off
        costs simulated ns, not host time.  ``fail_fast`` exceptions
        (epoch fences) propagate unwrapped and unretried — retrying
        cannot un-move an epoch.  ``corrupt_on`` exceptions give up
        immediately with classification ``corrupt`` — rot is not
        transient.  ``give_up(exc)`` returning True (e.g. the member was
        deregistered mid-call) stops retrying with classification
        ``unreachable``.  Attempts or deadline exhausted raise
        :class:`RpcExhausted` classified ``unreachable`` or
        ``deadline-exceeded`` respectively.
        """
        start = clock()
        deadline = start + self.deadline_ns if self.deadline_ns is not None else None
        last: Optional[BaseException] = None
        attempts = 0
        for attempt in range(1, self.retries + 2):
            attempts = attempt
            try:
                return fn(attempt)
            except fail_fast:
                raise
            except corrupt_on as exc:
                raise RpcExhausted(
                    "corrupt", op, attempts, clock() - start, exc
                ) from exc
            except retry_on as exc:
                last = exc
                if give_up is not None and give_up(exc):
                    break
                if deadline is not None and clock() >= deadline:
                    raise RpcExhausted(
                        "deadline-exceeded", op, attempts, clock() - start, exc
                    ) from exc
                if attempt > self.retries:
                    break
                pause = self.backoff(attempt)
                if deadline is not None:
                    pause = min(pause, max(1, deadline - clock()))
                if pause > 0:
                    wait(pause)
        assert last is not None
        raise RpcExhausted(
            "unreachable", op, attempts, clock() - start, last
        ) from last

    def __repr__(self) -> str:
        deadline = (
            f", deadline={self.deadline_ns}ns" if self.deadline_ns is not None else ""
        )
        timeout = (
            f", timeout={self.timeout_ns}ns" if self.timeout_ns is not None else ""
        )
        return (
            f"RpcEnvelope({self.retries} retries, backoff {self.backoff_ns}ns "
            f"+ jitter<={self.jitter_ns}ns{timeout}{deadline}, seed {self.seed})"
        )
