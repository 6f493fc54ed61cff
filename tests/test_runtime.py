import logging
import platform

import pytest

from tma import coordination, runtime
from tma.coordination import RunConfig, TrainerSpec, run_training
from tma.graph import build_splits, generate_synthetic
from tma.nn import ModelConfig
from tma.partition import induce_subgraphs, partition_random_node
from tma.runtime import (
    ChannelClosed,
    ChannelTimeout,
    DeadlockError,
    SimRuntime,
    ThreadRuntime,
)


@pytest.fixture
def blas():
    """The real OpenBLAS thread controls, with the count set to 2 for the test."""
    found = runtime._openblas()
    if found is None:
        pytest.skip("numpy's OpenBLAS thread control is not available")
    get_threads, set_threads = found
    old = get_threads()
    set_threads(2)
    try:
        yield get_threads
    finally:
        set_threads(old)


@pytest.fixture
def no_blas(monkeypatch):
    """Make the library lookup find nothing, with a fresh per-process cache."""
    monkeypatch.setattr(runtime, "_find_openblas", lambda: None)
    runtime._openblas.cache_clear()
    yield
    runtime._openblas.cache_clear()


@pytest.fixture
def fake_mallopt(monkeypatch):
    """Installs a stand-in for mallopt (or None), with a fresh per-process cache."""
    runtime._keep_freed_memory.cache_clear()
    yield lambda fn: monkeypatch.setattr(runtime, "_find_mallopt", lambda: fn)
    runtime._keep_freed_memory.cache_clear()


def _train(runtime_type):
    """A small tma training under ``runtime_type``: 1 virtual s under the
    sim, 0.4 real s under threads."""
    g, x, _ = generate_synthetic(120, 6.0, 0.8, seed=21)
    train, splits = build_splits(g, 0.05, 0.05, 10, seed=21)
    subs = induce_subgraphs(train, x, partition_random_node(train, 2, seed=0))
    sim = runtime_type is SimRuntime
    specs = [
        TrainerSpec(trainer_id=i, subgraph=subs[i], seed=i, step_time=0.1 if sim else 0.0)
        for i in range(2)
    ]
    cfg = RunConfig(
        model=ModelConfig(in_dim=x.shape[1], hidden_dim=8), train_budget=1.0 if sim else 0.4,
        agg_interval=0.5 if sim else 0.2, batch_size=8, fanouts=(2, 2),
    )
    return run_training(cfg, specs, train, x, splits, runtime="sim" if sim else "threads")


def _blas_seen_by_actors(monkeypatch, get_threads) -> list:
    """The BLAS count each server and trainer actor sees as it starts."""
    seen = []

    def recorded(loop):
        def run(*args):
            seen.append(get_threads())
            return loop(*args)

        return run

    for name in ("run_server", "run_trainer"):
        monkeypatch.setattr(coordination, name, recorded(getattr(coordination, name)))
    return seen


def _failing_aggregation(monkeypatch):
    def aggregate_average(weight_sets):
        raise ValueError("boom")

    monkeypatch.setattr(coordination, "aggregate_average", aggregate_average)


def test_thread_actors_run_with_one_blas_thread(blas, monkeypatch):
    seen = _blas_seen_by_actors(monkeypatch, blas)
    before = blas()
    _train(ThreadRuntime)
    assert before == 2
    assert seen == [1, 1, 1]
    assert blas() == 2


def test_blas_count_restored_when_an_actor_raises(blas, monkeypatch):
    _failing_aggregation(monkeypatch)
    with pytest.raises(ValueError, match="boom"):
        _train(ThreadRuntime)
    assert blas() == 2


def test_sim_actors_run_with_one_blas_thread(blas, monkeypatch):
    seen = _blas_seen_by_actors(monkeypatch, blas)
    _train(SimRuntime)
    assert seen == [1, 1, 1]
    assert blas() == 2
    _failing_aggregation(monkeypatch)
    with pytest.raises(ValueError, match="boom"):
        _train(SimRuntime)
    assert seen == [1] * 6
    assert blas() == 2


@pytest.mark.parametrize("runtime_type", [SimRuntime, ThreadRuntime])
def test_a_count_of_one_is_never_set(monkeypatch, runtime_type):
    # after a fork, any set restarts OpenBLAS's thread pool
    sets = []
    monkeypatch.setattr(runtime, "_openblas", lambda: (lambda: 1, sets.append))
    _train(runtime_type)
    assert sets == []


def test_missing_blas_warns_once_and_runs_unpinned(no_blas, caplog):
    done = []
    with caplog.at_level(logging.WARNING, logger="tma"):
        for _ in range(2):
            with runtime._one_blas_thread():
                done.append(True)
    assert done == [True, True]
    warnings = [r for r in caplog.records if r.name == "tma" and r.levelno == logging.WARNING]
    assert len(warnings) == 1
    assert "OpenBLAS" in warnings[0].getMessage()


@pytest.mark.parametrize("runtime_type", [SimRuntime, ThreadRuntime])
def test_allocator_thresholds_set_once_per_process(fake_mallopt, runtime_type):
    calls = []
    fake_mallopt(lambda param, value: calls.append((param, value)) or 1)
    for _ in range(2):
        _train(runtime_type)
    assert calls == [
        (runtime.M_MMAP_THRESHOLD, 4 << 20),
        (runtime.M_TRIM_THRESHOLD, 16 << 20),
    ]


@pytest.mark.parametrize("refused", [False, True], ids=["missing", "refused"])
def test_no_mallopt_warns_once_and_runs(fake_mallopt, caplog, refused):
    fake_mallopt((lambda param, value: 0) if refused else None)
    with caplog.at_level(logging.WARNING, logger="tma"):
        results = [_train(runtime_type) for runtime_type in (SimRuntime, ThreadRuntime)]
    assert all(res.rounds >= 1 for res in results)
    warnings = [r for r in caplog.records if r.name == "tma" and r.levelno == logging.WARNING]
    assert len(warnings) == 1
    assert "mallopt" in warnings[0].getMessage()


def test_glibc_mallopt_accepts_the_thresholds():
    if platform.libc_ver()[0] != "glibc":
        pytest.skip("mallopt is glibc's")
    mallopt = runtime._find_mallopt()
    assert mallopt(runtime.M_MMAP_THRESHOLD, runtime.MMAP_THRESHOLD) == 1
    assert mallopt(runtime.M_TRIM_THRESHOLD, runtime.TRIM_THRESHOLD) == 1


# ---------------------------------------------------------------------------
# sim runtime


class TestSimKernel:
    def test_virtual_time_advances_on_sleep(self):
        rt = SimRuntime()
        seen = []

        def actor():
            rt.clock.sleep(5.0)
            seen.append(rt.clock.now())
            rt.clock.sleep(2.5)
            seen.append(rt.clock.now())

        rt.spawn("a", actor)
        rt.run_all()
        assert seen == [5.0, 7.5]

    def test_interleaving_is_time_ordered(self):
        rt = SimRuntime()
        order = []

        def actor(name, delay):
            rt.clock.sleep(delay)
            order.append((name, rt.clock.now()))

        rt.spawn("slow", actor, "slow", 3.0)
        rt.spawn("fast", actor, "fast", 1.0)
        rt.run_all()
        assert order == [("fast", 1.0), ("slow", 3.0)]

    def test_channel_passes_messages_between_actors(self):
        rt = SimRuntime()
        ch = rt.channel()
        got = []

        def producer():
            for i in range(3):
                rt.clock.sleep(1.0)
                ch.put(i)

        def consumer():
            for _ in range(3):
                got.append((ch.get(), rt.clock.now()))

        rt.spawn("p", producer)
        rt.spawn("c", consumer)
        rt.run_all()
        assert got == [(0, 1.0), (1, 2.0), (2, 3.0)]

    def test_recv_timeout_fires_at_virtual_deadline(self):
        rt = SimRuntime()
        ch = rt.channel()
        seen = {}

        def actor():
            try:
                ch.get(timeout=4.0)
            except ChannelTimeout:
                seen["t"] = rt.clock.now()

        rt.spawn("a", actor)
        rt.run_all()
        assert seen["t"] == 4.0

        # a put wakes the waiter but the putter takes the item back first:
        # the deadline stays the one set when the get began, as on threads
        rt = SimRuntime()
        ch = rt.channel()
        seen = {}

        def waiter():
            try:
                ch.get(timeout=0.2)
            except ChannelTimeout:
                seen["t"] = rt.clock.now()

        def taker():
            rt.clock.sleep(0.1)
            ch.put("x")
            seen["taken"] = ch.get()

        rt.spawn("waiter", waiter)
        rt.spawn("taker", taker)
        rt.run_all()
        assert seen == {"taken": "x", "t": 0.2}

    def test_timed_out_waiter_closes_a_channel_an_untimed_one_waits_on(self):
        rt = SimRuntime()
        a, b = rt.channel(), rt.channel()
        seen = {}

        def untimed():
            try:
                a.get()
            except ChannelClosed:
                seen["closed"] = rt.clock.now()

        def timed():
            try:
                b.get(timeout=1.0)
            except ChannelTimeout:
                seen["timed_out"] = rt.clock.now()
                a.close()

        rt.spawn("untimed", untimed)
        rt.spawn("timed", timed)
        rt.run_all()  # no DeadlockError: the timed waiter had a deadline
        assert seen == {"timed_out": 1.0, "closed": 1.0}

    def test_put_wakes_the_first_waiter_and_close_the_rest(self):
        rt = SimRuntime()
        ch = rt.channel()
        got = []

        def waiter(name):
            try:
                got.append((name, ch.get(), rt.clock.now()))
            except ChannelClosed:
                got.append((name, "closed", rt.clock.now()))

        def driver():
            rt.clock.sleep(1.0)
            ch.put("x")
            assert [a.name for a in ch._waiters] == ["second"]
            rt.clock.sleep(1.0)
            ch.close()

        rt.spawn("first", waiter, "first")
        rt.spawn("second", waiter, "second")
        rt.spawn("driver", driver)
        rt.run_all()
        assert got == [("first", "x", 1.0), ("second", "closed", 2.0)]

    def test_deadlock_detected(self):
        rt = SimRuntime()
        ch = rt.channel()
        rt.spawn("a", lambda: ch.get())
        with pytest.raises(DeadlockError):
            rt.run_all()

    @pytest.mark.parametrize("runtime", [SimRuntime, ThreadRuntime], ids=lambda r: r.__name__)
    def test_closed_channel_unblocks(self, runtime):
        rt = runtime()
        ch = rt.channel()
        outcome = {}

        def waiter():
            try:
                ch.get()
            except ChannelClosed:
                outcome["closed"] = True

        def closer():
            rt.clock.sleep(0.05)
            ch.close()

        rt.spawn("w", waiter)
        rt.spawn("c", closer)
        rt.run_all()
        assert outcome["closed"]

    def test_actor_error_propagates(self):
        rt = SimRuntime()

        def bad():
            raise ValueError("boom")

        rt.spawn("bad", bad)
        with pytest.raises(ValueError, match="boom"):
            rt.run_all()

    def test_deterministic_schedule(self):
        def trace():
            rt = SimRuntime()
            log = []

            def actor(name, period):
                for _ in range(5):
                    rt.clock.sleep(period)
                    log.append((name, rt.clock.now()))

            rt.spawn("x", actor, "x", 0.3)
            rt.spawn("y", actor, "y", 0.5)
            rt.spawn("z", actor, "z", 0.3)
            rt.run_all()
            return log

        assert trace() == trace()
