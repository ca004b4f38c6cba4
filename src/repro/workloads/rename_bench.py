"""Multi-lock VFS workload for the lock-inheritance use case (§3.1.1).

Two thread classes share a directory pair:

* **renamers** move files between the directories — each rename takes
  the rename mutex plus both directory locks (a 3-lock chain, so a
  renamer frequently *holds* locks while waiting for the next one);
* **creators** churn files in one directory — single-lock operations.

Under FIFO ordering a lock-holding renamer can sit at the back of a
directory lock's queue behind lock-free creators, stalling everyone
queued on the locks it already holds.  The inheritance policy moves
holders forward; the benchmark reports per-class throughput and rename
latency with and without it.
"""

from __future__ import annotations

from typing import Any, Dict

from ..concord.framework import Concord
from ..concord.policies.inheritance import make_inheritance_policy
from ..kernel.core import Kernel
from ..kernel.vfs import VFS
from ..sim.ops import Delay
from ..sim.stats import quantile
from .runner import Workload

__all__ = ["RenameBench", "MODES"]

MODES = ("fifo", "inheritance")

_THINK_MAX_NS = 500


class RenameBench(Workload):
    def __init__(self, mode: str = "fifo", renamer_ratio: float = 0.25, files: int = 64) -> None:
        if mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}")
        self.mode = mode
        self.renamer_ratio = renamer_ratio
        self.files = files
        self.name = f"rename[{mode}]"
        self.vfs: VFS = None
        self.dir_a = None
        self.dir_b = None
        self.concord: Concord = None
        self.rename_latencies = []

    def setup(self, kernel: Kernel) -> None:
        self.vfs = VFS(kernel)
        # Build the directory pair synchronously via a setup task.
        done = {}

        def builder(task):
            self.dir_a = yield from self.vfs.mkdir(task, self.vfs.root, "a")
            self.dir_b = yield from self.vfs.mkdir(task, self.vfs.root, "b")
            for index in range(self.files):
                yield from self.vfs.create(task, self.dir_a, f"f{index}")
            done["ok"] = True

        kernel.spawn(builder, cpu=0, name="vfs-setup", at=0)
        kernel.run(until=1)  # drain setup before workers spawn
        while not done:
            kernel.run(until=kernel.now + 100_000)
        if self.mode == "inheritance":
            self.concord = Concord(kernel)
            spec, _declared = make_inheritance_policy(lock_selector="vfs.inode.*.lock")
            self.concord.load_policy(spec)

    def worker(self, task, worker_index: int):
        rng = task.engine.rng
        is_renamer = (worker_index % max(1, int(1 / self.renamer_ratio))) == 0
        task.stats["class"] = "renamer" if is_renamer else "creator"
        seq = 0
        while True:
            if is_renamer:
                name = f"f{rng.randrange(self.files)}"
                src, dst = (
                    (self.dir_a, self.dir_b) if rng.random() < 0.5 else (self.dir_b, self.dir_a)
                )
                start = task.engine.now
                try:
                    yield from self.vfs.rename(task, src, name, dst, name)
                    self.rename_latencies.append(task.engine.now - start)
                    task.stats["ops"] = task.stats.get("ops", 0) + 1
                except Exception:
                    pass  # file moved by a peer: retry another
            else:
                # Creators split across both directories so each
                # directory's queue mixes lock-free creators with
                # lock-holding renamers — the inheritance scenario.
                target = self.dir_a if worker_index % 2 else self.dir_b
                name = f"w{worker_index}.{seq}"
                seq += 1
                yield from self.vfs.create(task, target, name)
                yield from self.vfs.unlink(task, target, name)
                task.stats["ops"] = task.stats.get("ops", 0) + 1
            yield Delay(rng.randint(0, _THINK_MAX_NS))

    def extras(self, kernel: Kernel) -> Dict[str, Any]:
        lat = self.rename_latencies
        out: Dict[str, Any] = {"renames": self.vfs.renames, "creates": self.vfs.creates}
        if lat:
            out["rename_p50_ns"] = quantile(lat, 0.50)
            out["rename_p99_ns"] = quantile(lat, 0.99)
        return out
