"""What a rejected submission gives back.

A record refused at admission is terminal: it holds no quota and no
slot, and its policy name is free again once whatever blocked it is
gone.
"""

import pytest

from repro.bpf.maps import HashMap
from repro.concord import Concord
from repro.concord.policy import PolicySpec
from repro.controlplane import (
    Concordd,
    PolicyState,
    PolicySubmission,
    SubmissionConflictError,
)
from repro.kernel import Kernel
from repro.locks import ShflLock
from repro.locks.base import HOOK_LOCK_ACQUIRED
from repro.sim import Topology

METER_SOURCE = """
def meter(ctx):
    hits.add(ctx.tid, 1)
    return 0
"""


def submission(name, exclusive=False):
    return PolicySubmission(
        spec=PolicySpec(
            name=name,
            hook=HOOK_LOCK_ACQUIRED,
            source=METER_SOURCE.replace("meter", name.replace("-", "_")),
            maps={"hits": HashMap(f"{name}.hits", max_entries=256)},
            lock_selector="svc.*.lock",
            exclusive=exclusive,
        )
    )


def make_daemon(clients=("alice", "bob")):
    kernel = Kernel(Topology(sockets=2, cores_per_socket=2), seed=7)
    kernel.add_lock("svc.a.lock", ShflLock(kernel.engine, name="a"))
    daemon = Concordd(Concord(kernel))
    for client in clients:
        daemon.register_client(client, allowed_selectors=("svc.*",))
    return daemon


def test_rejected_submission_leaves_name_reusable():
    daemon = make_daemon()
    daemon.submit("alice", submission("first", exclusive=True))
    with pytest.raises(SubmissionConflictError, match="exclusive"):
        daemon.submit("bob", submission("second"))
    assert daemon.records["second"].state is PolicyState.REJECTED
    daemon.withdraw("alice", "first")
    # The admission-rejected record is terminal, so the name is free.
    record = daemon.submit("bob", submission("second"))
    assert record.state is PolicyState.VERIFIED
