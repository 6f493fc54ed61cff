import logging
import platform

import pytest

from tma import runtime
from tma.runtime import SimRuntime, ThreadRuntime


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


def _run(rt, *actors):
    for i, fn in enumerate(actors):
        rt.spawn(f"a{i}", fn)
    rt.run_all()


def test_thread_actors_run_with_one_blas_thread(blas):
    seen = []
    before = blas()
    _run(ThreadRuntime(), lambda: seen.append(blas()), lambda: seen.append(blas()))
    assert before == 2
    assert seen == [1, 1]
    assert blas() == 2


def test_blas_count_restored_when_an_actor_raises(blas):
    def boom():
        raise ValueError("boom")

    with pytest.raises(ValueError, match="boom"):
        _run(ThreadRuntime(), boom)
    assert blas() == 2


def test_sim_actors_run_with_one_blas_thread(blas):
    seen = []

    def boom():
        seen.append(blas())
        raise ValueError("boom")

    _run(SimRuntime(), lambda: seen.append(blas()))
    assert seen == [1]
    assert blas() == 2
    with pytest.raises(ValueError, match="boom"):
        _run(SimRuntime(), boom)
    assert seen == [1, 1]
    assert blas() == 2


@pytest.mark.parametrize("runtime_type", [SimRuntime, ThreadRuntime])
def test_a_count_of_one_is_never_set(monkeypatch, runtime_type):
    # after a fork, any set restarts OpenBLAS's thread pool
    sets = []
    monkeypatch.setattr(runtime, "_openblas", lambda: (lambda: 1, sets.append))
    _run(runtime_type(), lambda: None)
    assert sets == []


def test_missing_blas_warns_once_and_runs_unpinned(no_blas, caplog):
    done = []
    with caplog.at_level(logging.WARNING, logger="tma"):
        for _ in range(2):
            _run(ThreadRuntime(), lambda: done.append(True))
    assert done == [True, True]
    warnings = [r for r in caplog.records if r.name == "tma" and r.levelno == logging.WARNING]
    assert len(warnings) == 1
    assert "OpenBLAS" in warnings[0].getMessage()


@pytest.mark.parametrize("runtime_type", [SimRuntime, ThreadRuntime])
def test_allocator_thresholds_set_once_per_process(fake_mallopt, runtime_type):
    calls, done = [], []
    fake_mallopt(lambda param, value: calls.append((param, value)) or 1)
    for _ in range(2):
        _run(runtime_type(), lambda: done.append(True))
    assert done == [True, True]
    assert calls == [
        (runtime.M_MMAP_THRESHOLD, 4 << 20),
        (runtime.M_TRIM_THRESHOLD, 16 << 20),
    ]


@pytest.mark.parametrize("refused", [False, True], ids=["missing", "refused"])
def test_no_mallopt_warns_once_and_runs(fake_mallopt, caplog, refused):
    fake_mallopt((lambda param, value: 0) if refused else None)
    done = []
    with caplog.at_level(logging.WARNING, logger="tma"):
        for rt in (SimRuntime(), ThreadRuntime()):
            _run(rt, lambda: done.append(True))
    assert done == [True, True]
    warnings = [r for r in caplog.records if r.name == "tma" and r.levelno == logging.WARNING]
    assert len(warnings) == 1
    assert "mallopt" in warnings[0].getMessage()


def test_glibc_mallopt_accepts_the_thresholds():
    if platform.libc_ver()[0] != "glibc":
        pytest.skip("mallopt is glibc's")
    mallopt = runtime._find_mallopt()
    assert mallopt(runtime.M_MMAP_THRESHOLD, runtime.MMAP_THRESHOLD) == 1
    assert mallopt(runtime.M_TRIM_THRESHOLD, runtime.TRIM_THRESHOLD) == 1
