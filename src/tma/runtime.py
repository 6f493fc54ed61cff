"""Execution runtimes for the coordination protocol.

The protocol code is written against three tiny abstractions: a clock, a
duplex channel, and a key-value store. Two runtimes provide them:

* ``ThreadRuntime`` - real threads, monotonic wall clock, queue-backed
  channels. What production runs use. While its actors run, numpy's
  OpenBLAS is pinned to one thread, so parallel actors do not each start a
  BLAS thread per core and oversubscribe the cores; the old count is put
  back when ``run_all`` returns.
* ``SimRuntime`` - the same actor code driven by a deterministic
  cooperative scheduler over a virtual clock. Exactly one actor runs at a
  time; actors hand off only inside runtime primitives (sleep, blocking
  receive), so a whole multi-worker run is a pure function of its seeds
  and virtual durations. Acceptance and stress tests run here.
"""

from __future__ import annotations

import ctypes
import functools
import glob
import logging
import os
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

log = logging.getLogger("tma")


class ChannelClosed(Exception):
    pass


class ChannelTimeout(Exception):
    pass


class DeadlockError(RuntimeError):
    pass


class SimAborted(RuntimeError):
    """Raised inside actors when the simulation is torn down by an error."""


class KvStore:
    """Boolean flag store: ``ready/<i>``, ``agg`` and ``stop``. The in-process
    endpoints share one; over TCP the server and each trainer hold their own,
    and the server pushes the flags it sets to the trainers' copies."""

    def __init__(self):
        self._data: dict[str, object] = {}
        self._lock = threading.Lock()

    def get(self, key: str, default=None):
        with self._lock:
            return self._data.get(key, default)

    def set(self, key: str, value) -> None:
        with self._lock:
            self._data[key] = value


# ---------------------------------------------------------------------------
# real-thread runtime


class RealClock:
    def now(self) -> float:
        return time.monotonic()

    def sleep(self, seconds: float) -> None:
        if seconds > 0:
            time.sleep(seconds)


class ThreadChannel:
    def __init__(self):
        self._items: list = []
        self._closed = False
        self._cond = threading.Condition()

    def put(self, item) -> None:
        with self._cond:
            if self._closed:
                raise ChannelClosed
            self._items.append(item)
            self._cond.notify_all()

    def get(self, timeout: float | None = None):
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._cond:
            while not self._items:
                if self._closed:
                    raise ChannelClosed
                remaining = None if deadline is None else deadline - time.monotonic()
                if remaining is not None and remaining <= 0:
                    raise ChannelTimeout
                self._cond.wait(remaining)
            return self._items.pop(0)

    def close(self) -> None:
        with self._cond:
            self._closed = True
            self._cond.notify_all()


def _find_openblas():
    """(get, set) thread-count functions of the OpenBLAS that numpy ships, or None."""
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "libscipy_openblas64_*.so"))):
        try:
            lib = ctypes.CDLL(path)  # the copy numpy loaded: dlopen shares it
            get_threads = lib.scipy_openblas_get_num_threads64_
            set_threads = lib.scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue
        get_threads.argtypes, get_threads.restype = [], ctypes.c_int
        set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
        return get_threads, set_threads
    return None


@functools.cache
def _openblas():
    found = _find_openblas()
    if found is None:
        log.warning("numpy's OpenBLAS thread control not found; thread runs leave BLAS threads unpinned")
    return found


@contextmanager
def _one_blas_thread():
    """Pin OpenBLAS to one thread for the block, then put the old count back."""
    blas = _openblas()
    if blas is None:
        yield
        return
    get_threads, set_threads = blas
    old = get_threads()
    set_threads(1)
    try:
        yield
    finally:
        set_threads(old)


class ThreadRuntime:
    def __init__(self):
        self.clock = RealClock()
        self._threads: list[threading.Thread] = []
        self._errors: list[BaseException] = []
        self._lock = threading.Lock()

    def channel(self) -> ThreadChannel:
        return ThreadChannel()

    def spawn(self, name: str, fn, *args) -> None:
        def wrapper():
            try:
                fn(*args)
            except (ChannelClosed, SimAborted):
                pass
            except BaseException as exc:  # surfaced after join
                with self._lock:
                    self._errors.append(exc)

        self._threads.append(threading.Thread(target=wrapper, name=name, daemon=True))

    def run_all(self) -> None:
        with _one_blas_thread():
            for t in self._threads:
                t.start()
            for t in self._threads:
                t.join()
        if self._errors:
            raise self._errors[0]


# ---------------------------------------------------------------------------
# deterministic simulation runtime

_READY = "ready"
_SLEEPING = "sleeping"
_BLOCKED = "blocked"
_RUNNING = "running"
_DONE = "done"


@dataclass
class _Actor:
    name: str
    fn: object
    args: tuple
    state: str = _READY
    wake_at_us: int = 0
    seq: int = 0
    event: threading.Event = field(default_factory=threading.Event)
    channel: "SimChannel | None" = None
    timed_out: bool = False
    thread: threading.Thread | None = None


class SimKernel:
    """Cooperative scheduler: one virtual-time token shared by all actors.

    Virtual time is integer microseconds internally, so two runs whose
    events differ only by a constant offset make identical scheduling
    decisions (float accumulation can never flip a deadline comparison).
    """

    def __init__(self):
        self._now_us = 0
        self._lock = threading.Lock()
        self._actors: list[_Actor] = []
        self._by_thread: dict[int, _Actor] = {}
        self._seq = 0
        self._error: BaseException | None = None
        self._started = False

    @property
    def time(self) -> float:
        return self._now_us / 1e6

    @staticmethod
    def _to_us(seconds: float) -> int:
        return max(0, round(seconds * 1e6))

    # -- control plane

    def spawn(self, name: str, fn, *args) -> None:
        if self._started:
            raise RuntimeError("spawn before run()")
        actor = _Actor(name=name, fn=fn, args=args, seq=self._next_seq())
        self._actors.append(actor)

    def run(self) -> None:
        self._started = True
        for actor in self._actors:
            thread = threading.Thread(
                target=self._actor_main, args=(actor,), name=actor.name, daemon=True
            )
            actor.thread = thread
            self._by_thread[id(thread)] = actor
            thread.start()
        with self._lock:
            self._grant_next_locked()
        for actor in self._actors:
            actor.thread.join()
        if self._error is not None:
            raise self._error

    def _actor_main(self, actor: _Actor) -> None:
        actor.event.wait()
        actor.event.clear()
        try:
            if self._error is None:
                actor.fn(*actor.args)
        except (SimAborted, ChannelClosed):
            pass
        except BaseException as exc:
            with self._lock:
                if self._error is None:
                    self._error = exc
        finally:
            with self._lock:
                actor.state = _DONE
                self._grant_next_locked()

    def _next_seq(self) -> int:
        self._seq += 1
        return self._seq

    def _current(self) -> _Actor:
        try:
            return self._by_thread[id(threading.current_thread())]
        except KeyError:
            raise RuntimeError("runtime primitive used outside a sim actor") from None

    def _grant_next_locked(self) -> None:
        """Pick the next actor (FIFO among ready, else earliest wake time)."""
        if self._error is not None:
            for actor in self._actors:
                if actor.state not in (_DONE, _RUNNING):
                    actor.state = _READY
                    actor.event.set()
            return
        ready = [a for a in self._actors if a.state == _READY]
        if ready:
            nxt = min(ready, key=lambda a: a.seq)
        else:
            waiting = [a for a in self._actors if a.state == _SLEEPING]
            if not waiting:
                if any(a.state == _BLOCKED for a in self._actors):
                    self._error = DeadlockError(
                        "all live actors blocked on receives with no pending wakeups"
                    )
                    self._grant_next_locked()
                return
            nxt = min(waiting, key=lambda a: (a.wake_at_us, a.seq))
            self._now_us = max(self._now_us, nxt.wake_at_us)
            if nxt.channel is not None:
                nxt.timed_out = True
                nxt.channel = None
        nxt.state = _RUNNING
        nxt.event.set()

    def _yield_control(self, actor: _Actor) -> None:
        """Hand the token to the scheduler and wait to be granted again."""
        self._grant_next_locked()
        self._lock.release()
        try:
            actor.event.wait()
            actor.event.clear()
        finally:
            self._lock.acquire()
        if self._error is not None:
            raise SimAborted

    # -- primitives (called from actor threads)

    def now(self) -> float:
        with self._lock:
            return self.time

    def sleep(self, seconds: float) -> None:
        actor = self._current()
        with self._lock:
            actor.state = _SLEEPING
            actor.wake_at_us = self._now_us + self._to_us(seconds)
            actor.seq = self._next_seq()
            self._yield_control(actor)
            actor.state = _RUNNING

    def block_on(self, channel: "SimChannel", timeout: float | None):
        """Wait until the channel has an item, it closes, or the timeout fires."""
        actor = self._current()
        with self._lock:
            while True:
                if channel._items:
                    return channel._items.pop(0)
                if channel._closed:
                    raise ChannelClosed
                if timeout is None:
                    actor.state = _BLOCKED
                else:
                    actor.state = _SLEEPING
                    actor.wake_at_us = self._now_us + self._to_us(timeout)
                actor.channel = channel
                actor.timed_out = False
                actor.seq = self._next_seq()
                channel._waiters.append(actor)
                self._yield_control(actor)
                actor.state = _RUNNING
                if actor in channel._waiters:
                    channel._waiters.remove(actor)
                if actor.timed_out:
                    actor.timed_out = False
                    if channel._items:
                        return channel._items.pop(0)
                    raise ChannelTimeout

    def notify_waiter(self, channel: "SimChannel") -> None:
        """Mark the first waiter of the channel runnable (caller holds no lock)."""
        with self._lock:
            self._wake_waiters_locked(channel, only_first=True)

    def wake_all_waiters(self, channel: "SimChannel") -> None:
        with self._lock:
            self._wake_waiters_locked(channel, only_first=False)

    def _wake_waiters_locked(self, channel: "SimChannel", only_first: bool) -> None:
        waiters = list(channel._waiters)
        for actor in waiters:
            channel._waiters.remove(actor)
            actor.channel = None
            actor.timed_out = False
            actor.state = _READY
            actor.seq = self._next_seq()
            if only_first:
                break


class SimChannel:
    def __init__(self, kernel: SimKernel):
        self._kernel = kernel
        self._items: list = []
        self._waiters: list[_Actor] = []
        self._closed = False

    def put(self, item) -> None:
        if self._closed:
            raise ChannelClosed
        self._items.append(item)
        self._kernel.notify_waiter(self)

    def get(self, timeout: float | None = None):
        return self._kernel.block_on(self, timeout)

    def close(self) -> None:
        self._closed = True
        self._kernel.wake_all_waiters(self)


class SimClock:
    def __init__(self, kernel: SimKernel):
        self._kernel = kernel

    def now(self) -> float:
        return self._kernel.now()

    def sleep(self, seconds: float) -> None:
        self._kernel.sleep(seconds)


class SimRuntime:
    def __init__(self):
        self.kernel = SimKernel()
        self.clock = SimClock(self.kernel)

    def channel(self) -> SimChannel:
        return SimChannel(self.kernel)

    def spawn(self, name: str, fn, *args) -> None:
        self.kernel.spawn(name, fn, *args)

    def run_all(self) -> None:
        self.kernel.run()
