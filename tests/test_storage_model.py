"""Model-based test of the file-backed policy journal.

A hypothesis state machine drives one :class:`PolicyJournal` over a
temp file through appends, reopens, torn final writes, compaction and
byte rot in the log and the snapshot, and checks it against a plain
list model after every step.  The model folds itself on compaction
(``fold_entries``), so the machine checks what storage keeps, not what
the fold decides to keep.
"""

import os
import shutil
import tempfile

from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro.controlplane.journal import JournalCorruption, PolicyJournal
from repro.storage import Scrubber, decode_record, decode_snapshot, encode_record, fold_entries

MEMBER = "k0"

ENTRIES = st.one_of(
    st.builds(
        lambda client: {"kind": "client", "client": client},
        st.sampled_from(["ops", "ci", "sre"]),
    ),
    st.builds(
        lambda member, ts: {"kind": "heartbeat", "member": member, "ts": ts},
        st.sampled_from(["k0", "k1"]),
        st.integers(min_value=0, max_value=1000),
    ),
    st.builds(
        lambda policy, edge: {
            "kind": "transition",
            "policy": policy,
            "from": edge[0],
            "to": edge[1],
        },
        st.sampled_from(["alpha", "beta"]),
        st.sampled_from([("VERIFIED", "CANARY"), ("CANARY", "ACTIVE"), ("ACTIVE", "REVERTED")]),
    ),
    st.builds(
        lambda text: {"kind": "note", "text": text},
        st.text(alphabet='ab é✓"\\', max_size=8),
    ),
)


def replay(path: str):
    """The entries a freshly opened journal replays from ``path``."""
    journal = PolicyJournal(path, member=MEMBER)
    try:
        return journal.entries()
    finally:
        journal.close()


def flip(path: str, offset: int) -> None:
    """XOR one byte of ``path`` with 0x01: never a newline, never a
    byte outside ASCII, so the rot stays inside one physical line."""
    with open(path, "r+b") as fh:
        fh.seek(offset)
        byte = fh.read(1)[0]
        fh.seek(offset)
        fh.write(bytes([byte ^ 0x01]))


class FileJournalMachine(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.dir = tempfile.mkdtemp(prefix="journal-model-")
        self.path = os.path.join(self.dir, "k0.jsonl")
        self.journal = PolicyJournal(self.path, member=MEMBER)
        #: Every entry the journal must replay, snapshot part first.
        self.model = []
        #: How many of ``model``'s entries live in log lines (the rest
        #: are in the snapshot).
        self.logged = 0

    def teardown(self) -> None:
        self.journal.close()
        shutil.rmtree(self.dir, ignore_errors=True)

    def log_lines(self):
        with open(self.path, "rb") as fh:
            return fh.read().split(b"\n")[:-1]

    def reopen(self) -> None:
        self.journal.close()
        self.journal = PolicyJournal(self.path, member=MEMBER)

    # ------------------------------------------------------------------
    @rule(entry=ENTRIES)
    def append(self, entry):
        self.journal.append(entry)
        self.model.append(entry)
        self.logged += 1

    @rule()
    def reopen_journal(self):
        self.reopen()

    @rule(entry=ENTRIES, cut=st.floats(min_value=0.0, max_value=1.0, exclude_max=True))
    def crash_mid_write(self, entry, cut):
        line = encode_record(len(self.model) + 1, entry)  # no proper prefix decodes
        self.journal.close()
        with open(self.path, "a", encoding="utf-8") as fh:
            fh.write(line[: 1 + int(cut * (len(line) - 1))])  # no newline: torn
        assert self.journal.entries() == self.model  # replay drops the torn tail
        self.reopen()

    @rule()
    def compact(self):
        self.journal.compact()
        self.model = fold_entries(self.model)
        self.logged = 0

    @precondition(lambda self: self.logged >= 2)
    @rule(pick=st.integers(min_value=0), offset=st.integers(min_value=0))
    def rot_log_line(self, pick, offset):
        lines = self.log_lines()
        index = pick % (len(lines) - 1)  # never the final line: that is a torn write
        start = sum(len(line) + 1 for line in lines[:index])
        flip(self.path, start + offset % len(lines[index]))
        try:
            replay(self.path)
        except JournalCorruption as exc:
            assert exc.line == index + 1 and exc.path == self.path
            assert exc.member == MEMBER
        else:
            raise AssertionError(f"rot in log line {index + 1} went unnoticed")
        report = self.journal.salvage()
        kept = len(self.model) - self.logged + index
        assert report["line"] == index + 1 and report["kept"] == kept
        assert report["dropped"] == self.logged - index
        self.model = self.model[:kept]
        self.logged = index

    @precondition(lambda self: os.path.exists(self.journal.snapshot_path))
    @rule(offset=st.integers(min_value=0))
    def rot_snapshot(self, offset):
        flip(self.journal.snapshot_path, offset % os.path.getsize(self.journal.snapshot_path))
        try:
            replay(self.path)
        except JournalCorruption as exc:
            assert exc.path == self.journal.snapshot_path
        else:
            raise AssertionError("snapshot rot went unnoticed")
        report = self.journal.salvage()
        assert report["snapshot_ok"] is False and report["kept"] == self.logged
        self.model = self.model[len(self.model) - self.logged :]

    # ------------------------------------------------------------------
    @invariant()
    def replay_matches_the_model(self):
        assert self.journal.entries() == self.model
        assert replay(self.path) == self.model

    @invariant()
    def seqs_on_disk_strictly_increase(self):
        last = 0
        if os.path.exists(self.journal.snapshot_path):
            with open(self.journal.snapshot_path, encoding="utf-8") as fh:
                _, last = decode_snapshot(fh.read())
        for line in self.log_lines():
            seq, _ = decode_record(line.decode("utf-8"))
            assert seq > last
            last = seq

    @invariant()
    def scrub_is_clean(self):
        report = Scrubber(repair=False).scrub_journal(self.journal)
        assert report.ok, report.describe()


FileJournalMachine.TestCase.settings = settings(
    max_examples=30, stateful_step_count=15, deadline=None
)
TestFileJournal = FileJournalMachine.TestCase
