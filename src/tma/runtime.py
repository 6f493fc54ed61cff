"""Execution runtimes for the coordination protocol.

The protocol code is written against two tiny abstractions: a clock and a
one-way channel (``put``, ``get`` with an optional timeout, ``close``).
The flag store the server and trainers share belongs to the transports
(``transport.KvStore``). Two runtimes provide the clock and the channels:

* ``ThreadRuntime`` - real threads, monotonic wall clock, queue-backed
  channels. What production runs use: the server, the evaluator and
  in-process trainers are its threads, while TCP trainers are forked
  processes of their own (``coordination.run_training``) that pin BLAS and
  set malloc as below themselves. While its actors run, numpy's
  OpenBLAS is pinned to one thread, so parallel actors do not each start a
  BLAS thread per core and oversubscribe the cores; the old count is put
  back when ``run_all`` returns.
* ``SimRuntime`` - the same actor code driven by a deterministic
  cooperative scheduler over a virtual clock; the runtime is the scheduler.
  Exactly one actor runs at a time; actors hand off only inside runtime
  primitives (sleep, blocking receive), so a whole multi-worker run is a
  pure function of its seeds and virtual durations. A handed-off actor has
  one waiting state: a sleep waits for an absolute virtual deadline, a
  receive for a put or close on its channel and, given a timeout, also for
  the deadline fixed when the receive began. Acceptance and stress tests
  run here.

Both runtimes' ``run_all`` also set, once per process, how glibc's malloc
returns freed memory: blocks under 4 MiB come from the heap rather than
their own ``mmap``, and the heap is trimmed only past 16 MiB free. A
training step's temporaries (about 0.2 MB) and an eval chunk's (about
1.6 MB) are over glibc's default 128 KiB mmap threshold, so without this
every step unmaps what it frees and faults it in again on the next call.
The setting is process-wide and glibc-only: where ``mallopt`` is missing
or refuses the values, one warning is logged and runs go on as before.
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


M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3  # glibc's malloc.h
MMAP_THRESHOLD = 4 << 20
TRIM_THRESHOLD = 16 << 20  # larger values removed no more faults but raised the peak RSS


def _find_mallopt():
    """glibc's ``mallopt(param, value)``, or None."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return None
    mallopt.argtypes, mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
    return mallopt


@functools.cache
def _keep_freed_memory() -> None:
    """Let malloc reuse freed blocks instead of unmapping them (module docstring)."""
    mallopt = _find_mallopt()
    applied = mallopt is not None and all(
        mallopt(param, value) == 1
        for param, value in ((M_MMAP_THRESHOLD, MMAP_THRESHOLD), (M_TRIM_THRESHOLD, TRIM_THRESHOLD))
    )
    if not applied:
        log.warning("glibc mallopt missing or refused; freed memory is unmapped and faulted in again")


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
        _keep_freed_memory()
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
_WAITING = "waiting"
_RUNNING = "running"
_DONE = "done"


@dataclass
class _Actor:
    name: str
    fn: object
    args: tuple
    state: str = _READY
    wake_at_us: int | None = None  # a waiting actor's deadline; None waits for a channel
    seq: int = 0
    event: threading.Event = field(default_factory=threading.Event)
    thread: threading.Thread | None = None


class SimChannel:
    def __init__(self, runtime: "SimRuntime"):
        self._runtime = runtime
        self._items: list = []
        self._waiters: list[_Actor] = []
        self._closed = False

    def put(self, item) -> None:
        if self._closed:
            raise ChannelClosed
        self._items.append(item)
        self._runtime.wake(self, everyone=False)

    def get(self, timeout: float | None = None):
        return self._runtime.get(self, timeout)

    def close(self) -> None:
        self._closed = True
        self._runtime.wake(self, everyone=True)


class SimClock:
    def __init__(self, runtime: "SimRuntime"):
        self._runtime = runtime

    def now(self) -> float:
        return self._runtime.now()

    def sleep(self, seconds: float) -> None:
        self._runtime.sleep(seconds)


class SimRuntime:
    """Cooperative scheduler: one virtual-time token shared by all actors.

    The token goes to the ready actor with the lowest ``seq``; if none is
    ready, to the waiting actor with the earliest ``(wake_at_us, seq)``, and
    the clock jumps to its deadline. Virtual time is integer microseconds,
    so two runs whose events differ only by a constant offset make identical
    scheduling decisions (float accumulation can never flip a deadline
    comparison).
    """

    def __init__(self):
        self.clock = SimClock(self)
        self._now_us = 0
        self._lock = threading.Lock()
        self._actors: list[_Actor] = []
        self._by_thread: dict[int, _Actor] = {}
        self._seq = 0
        self._error: BaseException | None = None
        self._started = False

    def channel(self) -> SimChannel:
        return SimChannel(self)

    @staticmethod
    def _to_us(seconds: float) -> int:
        return max(0, round(seconds * 1e6))

    # -- control plane

    def spawn(self, name: str, fn, *args) -> None:
        if self._started:
            raise RuntimeError("spawn before run_all()")
        self._actors.append(_Actor(name=name, fn=fn, args=args, seq=self._next_seq()))

    def run_all(self) -> None:
        _keep_freed_memory()
        self._started = True
        for actor in self._actors:
            actor.thread = threading.Thread(
                target=self._actor_main, args=(actor,), name=actor.name, daemon=True
            )
            self._by_thread[id(actor.thread)] = actor
            actor.thread.start()
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
        """Hand the token to the next actor; on an error, wake every live actor."""
        if self._error is None:
            ready = [a for a in self._actors if a.state == _READY]
            timed = [a for a in self._actors if a.state == _WAITING and a.wake_at_us is not None]
            if ready:
                nxt = min(ready, key=lambda a: a.seq)
            elif timed:
                nxt = min(timed, key=lambda a: (a.wake_at_us, a.seq))
                self._now_us = max(self._now_us, nxt.wake_at_us)
            elif any(a.state == _WAITING for a in self._actors):
                self._error = DeadlockError(
                    "all live actors blocked on receives with no pending wakeups"
                )
            else:
                return
            if self._error is None:
                nxt.state = _RUNNING
                nxt.event.set()
                return
        for actor in self._actors:
            if actor.state not in (_DONE, _RUNNING):
                actor.state = _READY
                actor.event.set()

    def _wait(self, actor: _Actor, wake_at_us: int | None) -> None:
        """Give up the token until woken or until the clock reaches ``wake_at_us``."""
        actor.state = _WAITING
        actor.wake_at_us = wake_at_us
        actor.seq = self._next_seq()
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
            return self._now_us / 1e6

    def sleep(self, seconds: float) -> None:
        actor = self._current()
        with self._lock:
            self._wait(actor, self._now_us + self._to_us(seconds))

    def get(self, channel: SimChannel, timeout: float | None):
        """Wait until the channel has an item, it closes, or the deadline passes."""
        actor = self._current()
        with self._lock:
            deadline = None if timeout is None else self._now_us + self._to_us(timeout)
            while not channel._items:
                if channel._closed:
                    raise ChannelClosed
                channel._waiters.append(actor)
                self._wait(actor, deadline)
                if actor in channel._waiters:  # neither put nor close woke it
                    channel._waiters.remove(actor)
                    raise ChannelTimeout
            return channel._items.pop(0)

    def wake(self, channel: SimChannel, everyone: bool) -> None:
        """Make the channel's first waiter, or all of them, ready."""
        with self._lock:
            for actor in channel._waiters[: None if everyone else 1]:
                channel._waiters.remove(actor)
                actor.state = _READY
                actor.seq = self._next_seq()
