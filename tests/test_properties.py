"""Property-based tests (hypothesis) over the core invariants."""

import ast

from hypothesis import given, settings, strategies as st

from repro import locks as L
from repro.bpf import ContextLayout, VM, Verifier, compile_policy
from repro.locks.shfllock import ShflNode
from repro.sim import Engine, Topology, ops

# ----------------------------------------------------------------------
# 1. Mutual exclusion under randomized schedules, for every lock family.
# ----------------------------------------------------------------------
_LOCKS = {
    "ttas": lambda e: L.TTASLock(e),
    "ticket": lambda e: L.TicketLock(e),
    "mcs": lambda e: L.MCSLock(e),
    "cna": lambda e: L.CNALock(e, flush_threshold=4),
    "shfl": lambda e: L.ShflLock(e, policy=L.NumaPolicy(), debug_checks=True),
    "mutex": lambda e: L.SpinParkMutex(e, spin_budget_ns=500),
    "qspinlock": lambda e: L.QSpinLock(e),
    "seqlock": lambda e: L.SeqLock(e),
}


@given(
    name=st.sampled_from(sorted(_LOCKS)),
    seed=st.integers(min_value=0, max_value=10_000),
    n_tasks=st.integers(min_value=2, max_value=8),
    cs_ns=st.integers(min_value=10, max_value=2_000),
)
@settings(max_examples=25, deadline=None)
def test_mutual_exclusion_random_schedules(name, seed, n_tasks, cs_ns):
    topo = Topology(sockets=2, cores_per_socket=4)
    eng = Engine(topo, seed=seed)
    lock = _LOCKS[name](eng)
    shared = eng.cell(0)
    iters = 10

    def worker(task):
        rng = task.engine.rng
        for _ in range(iters):
            yield from lock.acquire(task)
            value = yield ops.Load(shared)
            yield ops.Delay(cs_ns)
            yield ops.Store(shared, value + 1)
            yield from lock.release(task)
            yield ops.Delay(rng.randint(0, 500))

    for index in range(n_tasks):
        eng.spawn(worker, cpu=index % topo.nr_cpus, at=eng.rng.randint(0, 2_000))
    eng.run()
    assert shared.peek() == n_tasks * iters


# ----------------------------------------------------------------------
# 2. RW locks: readers never observe a torn write, writers never lost.
# ----------------------------------------------------------------------
_RW_LOCKS = {
    "neutral": lambda e: L.NeutralRWLock(e),
    "rwsem": lambda e: L.RWSemaphore(e),
    "bravo": lambda e: L.BravoLock(e, L.RWSemaphore(e)),
    "percpu": lambda e: L.PerCPURWLock(e),
    "phase-fair": lambda e: L.PhaseFairRWLock(e),
}


@given(
    name=st.sampled_from(sorted(_RW_LOCKS)),
    seed=st.integers(min_value=0, max_value=10_000),
    readers=st.integers(min_value=1, max_value=6),
    writers=st.integers(min_value=1, max_value=3),
)
@settings(max_examples=20, deadline=None)
def test_rw_consistency_random_schedules(name, seed, readers, writers):
    topo = Topology(sockets=2, cores_per_socket=4)
    eng = Engine(topo, seed=seed)
    lock = _RW_LOCKS[name](eng)
    shared = eng.cell(0)
    iters = 8
    torn = []

    def reader(task):
        for _ in range(iters):
            yield from lock.read_acquire(task)
            before = yield ops.Load(shared)
            yield ops.Delay(task.engine.rng.randint(10, 400))
            after = yield ops.Load(shared)
            if before != after:
                torn.append((before, after))
            yield from lock.read_release(task)
            yield ops.Delay(task.engine.rng.randint(0, 200))

    def writer(task):
        for _ in range(iters):
            yield from lock.write_acquire(task)
            value = yield ops.Load(shared)
            yield ops.Delay(task.engine.rng.randint(10, 300))
            yield ops.Store(shared, value + 1)
            yield from lock.write_release(task)
            yield ops.Delay(task.engine.rng.randint(0, 600))

    cpu = 0
    for _ in range(readers):
        eng.spawn(reader, cpu=cpu % topo.nr_cpus)
        cpu += 1
    for _ in range(writers):
        eng.spawn(writer, cpu=cpu % topo.nr_cpus)
        cpu += 1
    eng.run()
    assert torn == []
    assert shared.peek() == writers * iters


# ----------------------------------------------------------------------
# 3. Shuffle passes preserve queue membership for arbitrary queues.
# ----------------------------------------------------------------------
@given(
    sockets=st.lists(st.integers(min_value=0, max_value=3), min_size=1, max_size=12),
    head_socket=st.integers(min_value=0, max_value=3),
    window=st.integers(min_value=1, max_value=16),
)
@settings(max_examples=40, deadline=None)
def test_shuffle_preserves_membership(sockets, head_socket, window):
    topo = Topology(sockets=4, cores_per_socket=4)
    eng = Engine(topo, seed=1)
    lock = L.ShflLock(
        eng, policy=L.NumaPolicy(), max_shuffle_window=window, debug_checks=True
    )

    def noop(task):
        yield ops.Delay(1)

    def make_node(socket, name):
        task = eng.spawn(noop, cpu=topo.cpus_of_socket(socket)[0], name=name)
        return ShflNode(eng, task)

    head = make_node(head_socket, "head")
    prev = head
    nodes = [head]
    for index, socket in enumerate(sockets):
        node = make_node(socket, f"n{index}")
        prev.next.value = node
        nodes.append(node)
        prev = node
    lock.tail.value = prev

    def driver(task):
        yield from lock._shuffle_pass(task, head)

    eng.spawn(driver, cpu=0)
    eng.run()
    walked = L.ShflLock.walk_queue_from(head)
    assert {id(n) for n in walked} == {id(n) for n in nodes}
    # The tail (last original node) must still terminate the list.
    assert walked[-1].next.peek() is None


# ----------------------------------------------------------------------
# 4. Frontend/VM semantics match Python for random arithmetic programs.
# ----------------------------------------------------------------------
_LAYOUT = ContextLayout("prop", ["a", "b", "c"])
_U64 = (1 << 64) - 1

_terminal = st.sampled_from(["ctx.a", "ctx.b", "ctx.c", "1", "2", "7", "13"])
_binop = st.sampled_from(["+", "-", "*", "&", "|", "^"])
_cmp = st.sampled_from(["==", "!=", "<", ">", "<=", ">="])


@st.composite
def _expr(draw, depth=0):
    if depth >= 3 or draw(st.booleans()):
        return draw(_terminal)
    kind = draw(st.integers(min_value=0, max_value=2))
    left = draw(_expr(depth + 1))
    right = draw(_expr(depth + 1))
    if kind == 0:
        return f"({left} {draw(_binop)} {right})"
    if kind == 1:
        return f"({left} {draw(_cmp)} {right})"
    return f"(({left}) if ({draw(_expr(depth + 1))}) else ({right}))"


@given(
    expr=_expr(),
    a=st.integers(min_value=0, max_value=1 << 20),
    b=st.integers(min_value=0, max_value=1 << 20),
    c=st.integers(min_value=0, max_value=1 << 20),
)
@settings(max_examples=120, deadline=None)
def test_frontend_matches_python(expr, a, b, c):
    source = f"def f(ctx):\n    return {expr}\n"
    program = compile_policy(source, _LAYOUT)
    Verifier().verify(program)
    r0, _cost = VM().run(program, _LAYOUT.pack({"a": a, "b": b, "c": c}))

    class _Ctx:
        pass

    ctx = _Ctx()
    ctx.a, ctx.b, ctx.c = a, b, c
    namespace = {}
    exec(source, namespace)  # noqa: S102 - generated from a closed grammar
    expected = int(namespace["f"](ctx)) & _U64
    assert r0 == expected


# ----------------------------------------------------------------------
# 5. Everything the frontend emits passes the verifier.
# ----------------------------------------------------------------------
@given(expr=_expr())
@settings(max_examples=60, deadline=None)
def test_frontend_output_always_verifies(expr):
    source = f"def f(ctx):\n    return {expr}\n"
    program = compile_policy(source, _LAYOUT)
    Verifier().verify(program)  # must not raise


# ----------------------------------------------------------------------
# 6. Determinism: identical configuration => identical final state.
# ----------------------------------------------------------------------
@given(seed=st.integers(min_value=0, max_value=1 << 30))
@settings(max_examples=10, deadline=None)
def test_engine_determinism(seed):
    def run():
        topo = Topology(sockets=2, cores_per_socket=2)
        eng = Engine(topo, seed=seed)
        lock = L.ShflLock(eng, policy=L.NumaPolicy())
        log = []

        def worker(task):
            for _ in range(15):
                yield from lock.acquire(task)
                log.append((task.tid, task.engine.now))
                yield ops.Delay(task.engine.rng.randint(10, 200))
                yield from lock.release(task)

        for cpu in range(4):
            eng.spawn(worker, cpu=cpu)
        eng.run()
        return log

    assert run() == run()
