"""Time-based aggregation protocol: server, trainers, evaluator, and a
synchronous-gradient baseline mode.

The server owns the round clock and never polls: it sleeps to the next
round's deadline, ``agg_interval`` after the last round closed, then
raises the ``agg`` flag, collects exactly one report per live trainer,
averages the weights, broadcasts the new global weights, and queues a
validation evaluation. A report is one message: the round tag, the
weights, and the trainer's step count and loss EMA for the metrics row.
Trainers run local steps continuously and only synchronize when they
observe the flag between steps, so heterogeneous trainer speeds never
block each other outside the collection window. A trainer starts each
step before its ``step_time`` charge and reads the step's loss after it.
At the budget's deadline the server raises the monotone ``stop`` flag; a
trainer finishes its current step and exits cleanly.

A failed trainer is one that was never started: the caller leaves its spec
out, and the rounds average the trainers that run. The server reads joins
from its endpoint's ``joined`` channel within ``readiness_timeout`` and
goes on without a registered trainer that never joins. Flags flow one
way: the server sets them, the trainers read them.

Both modes keep one round book (``_Rounds``): the global weights, metrics
row and close time of every round, and the evaluations still in flight.
The book also has the one result path: it picks the best validation round,
scores it on the test split and builds the ``RunResult``. The tma server
and the ggs loop differ only in how they reach the end of a round. In both
modes ``run_training`` owns every trainer's ``TrainerLog``: the actors
record into them, and it attaches them to the result.

Everything runs against injected clock/channel primitives, so the same
protocol code executes on real threads, over TCP, or inside the
deterministic simulation used by the acceptance tests. The server is
always an actor of the runtime, and so are in-process trainers.

``run_training``'s other workers are forked children (``_Child``), each
answering over a pipe with a value or its error: every TCP trainer, whose
steps then do not share the server's interpreter lock, replies once with
its ``TrainerLog``; one evaluator per training, the round book's job and
result channel, replies to each job with its score. At most one job is in
the evaluator's pipe; the rest wait in the parent, so queueing a job never
blocks the round loop. Under the sim an evaluation takes no virtual time: a
drain waits for every score owed, so the schedule and every score are those
of an in-process evaluator, while the evaluations run beside the actors
instead of on their single token. Under the real clock a drain takes only
the scores that have arrived, so a slow evaluation never holds up a round.
The loops drain once a round, before its close, so a round's score has had
the whole next round to arrive. ``run_training`` pins BLAS to one thread
and sets malloc once, before it forks; its children inherit both.

A sim step takes no virtual time either. So when the process may run on
more than one CPU, each sim tma trainer's model (``_LocalModel``) lives in
a forked step child, and the trainer actor keeps only the protocol: it
starts a step before its ``step_time`` charge and reads the loss after it,
so the trainers' steps run side by side, with every stamp, tally and
weight of an in-process run. On one CPU the forks would only add cost, and
thread trainers step in-process, where a step's compute is part of what the
real clock charges.
"""

from __future__ import annotations

import collections
import contextlib
import math
import multiprocessing
import os
import time
from dataclasses import dataclass, field

import numpy as np

from . import nn
from .evaluate import evaluate
from .graph import EdgeSplits, Graph
from .nn import AdamState, ModelConfig, ModelWeights, aggregate_average, init_weights
from .partition import Subgraph
from .runtime import (
    ChannelClosed,
    ChannelTimeout,
    RealClock,
    SimRuntime,
    ThreadRuntime,
    _keep_freed_memory,
    _one_blas_thread,
)
from .sampling import sample_minibatch
from .transport import InProcTransports, TcpCoordinator, TcpTrainerEndpoint

LOSS_EMA_ALPHA = 0.1
# seconds a trainer with no local edges waits between flag checks
IDLE_POLL = 0.05
# validation evaluations in flight at once; a round closed beyond it is not scored
EVAL_QUEUE_LIMIT = 16
# seconds run_training waits, once its run is done, for its forked trainer or
# evaluator processes to report and exit before it kills them
CHILD_EXIT_TIMEOUT = 10.0


class ProtocolError(RuntimeError):
    pass


@dataclass(frozen=True)
class TrainerSpec:
    """One trainer's identity, data, seed, and per-step cost.

    ``step_time`` is charged for every local step: virtual seconds under
    the sim clock, a real sleep under the wall clock (the heterogeneity
    knob either way). A step starts before the charge and its loss is read
    after it.
    """

    trainer_id: int
    subgraph: Subgraph
    seed: int
    step_time: float = 0.01


@dataclass(frozen=True)
class RunConfig:
    model: ModelConfig
    train_budget: float
    agg_interval: float
    mode: str = "tma"
    batch_size: int = 256
    fanouts: tuple = (10, 5)
    readiness_timeout: float = 30.0

    def __post_init__(self):
        if self.mode not in ("tma", "ggs"):
            raise ProtocolError(f"unknown mode {self.mode!r}")
        if not 0 < self.agg_interval < self.train_budget:
            raise ProtocolError("need 0 < agg_interval < train_budget")
        if self.batch_size < 1:
            raise ProtocolError("batch_size must be positive")
        if not self.readiness_timeout > 0:
            raise ProtocolError("readiness_timeout must be positive")


@dataclass
class TrainerLog:
    trainer_id: int
    steps: int = 0
    loss_ema: float = math.nan
    step_times: list = field(default_factory=list)
    send_rounds: list = field(default_factory=list)  # (round, wall time)

    def record_step(self, loss: float) -> None:
        """Count one step and fold its loss into ``loss_ema``."""
        self.steps += 1
        self.loss_ema = (
            loss
            if math.isnan(self.loss_ema)
            else (1 - LOSS_EMA_ALPHA) * self.loss_ema + LOSS_EMA_ALPHA * loss
        )


@dataclass
class MetricsRecord:
    wall_s: float
    round: int
    split: str
    mrr: float
    steps: dict
    loss: dict


@dataclass
class RunResult:
    best_weights: ModelWeights
    best_round: int
    best_val_mrr: float
    test_mrr: float
    rounds: int
    metrics: list[MetricsRecord]
    round_times: list[float]
    live_ids: list[int]
    # attached by run_training, which owns the logs in both modes
    trainer_logs: dict[int, TrainerLog] = field(default_factory=dict)


# ---------------------------------------------------------------------------
# round book and result path (shared by both modes)


class _Rounds:
    """What a run records per round, from the start of its round clock.

    Round 0 holds the initial weights and is never scored. ``close`` ends
    the next round and queues its validation evaluation on ``eval_jobs``;
    ``drain`` collects finished scores from ``eval_results``; ``finish``
    turns the book into the run's result.
    """

    def __init__(self, clock, weights: ModelWeights, eval_jobs, eval_results):
        self._clock = clock
        self._eval_jobs = eval_jobs
        self._eval_results = eval_results
        self.t_start = clock.now()
        self._weights = {0: weights.copy()}
        self._rows: dict[int, MetricsRecord] = {}
        self._times: list[float] = []
        self._pending: set[tuple[str, int]] = set()
        self._mrr: dict[tuple[str, int], float] = {}

    @property
    def t(self) -> int:
        """Rounds closed so far: the index of the round now running."""
        return len(self._times)

    def _wall(self) -> float:
        return round(self._clock.now() - self.t_start, 6)

    def _queue(self, split: str, round_t: int, weights: ModelWeights) -> None:
        self._eval_jobs.put((split, round_t, weights.copy()))
        self._pending.add((split, round_t))

    def close(self, weights: ModelWeights, steps: dict, losses: dict) -> None:
        """End the next round with these global weights and per-trainer tallies."""
        t = self.t + 1
        self._weights[t] = weights.copy()
        wall = self._wall()
        self._times.append(wall)
        self._rows[t] = MetricsRecord(
            wall_s=wall, round=t, split="val", mrr=math.nan, steps=steps, loss=losses
        )
        if len(self._pending) < EVAL_QUEUE_LIMIT:
            self._queue("val", t, weights)

    def drain(self, block_for: set | None = None) -> None:
        """Collect finished evaluations: those ready now, or, given
        ``block_for``, every result until none of those keys is pending."""
        while self._pending and (block_for is None or block_for & self._pending):
            try:
                split, round_t, mrr = self._eval_results.get(
                    timeout=None if block_for else 0.0
                )
            except ChannelTimeout:
                return
            self._pending.discard((split, round_t))
            self._mrr[(split, round_t)] = mrr
            if split == "val" and round_t in self._rows:
                self._rows[round_t].mrr = mrr

    def finish(self, live_ids, steps: dict, losses: dict) -> RunResult:
        """Wait for the validation scores, score the best round on the test
        split (the earliest round wins a tie) and build the result."""
        self.drain({p for p in self._pending if p[0] == "val"})
        scored = [(r.mrr, -r.round) for r in self._rows.values() if not math.isnan(r.mrr)]
        if not scored:
            raise ProtocolError("no validation evaluation completed")
        best_mrr, neg_round = max(scored)
        best_round = -neg_round
        best_weights = self._weights[best_round]

        self._queue("test", best_round, best_weights)
        self.drain({("test", best_round)})
        test_mrr = self._mrr[("test", best_round)]

        metrics = [self._rows[k] for k in sorted(self._rows)]
        metrics.append(
            MetricsRecord(
                wall_s=self._wall(), round=best_round, split="test", mrr=test_mrr,
                steps=steps, loss=losses,
            )
        )
        return RunResult(
            best_weights=best_weights,
            best_round=best_round,
            best_val_mrr=float(best_mrr),
            test_mrr=float(test_mrr),
            rounds=self.t,
            metrics=metrics,
            round_times=self._times,
            live_ids=live_ids,
        )


# ---------------------------------------------------------------------------
# server (time-based aggregation rounds)


def run_server(cfg: RunConfig, endpoint, initial: ModelWeights, clock, eval_jobs, eval_results):
    t0, live = clock.now(), []
    with contextlib.suppress(ChannelTimeout):
        while len(live) < len(endpoint.trainer_ids):
            live.append(endpoint.joined.get(timeout=t0 + cfg.readiness_timeout - clock.now()))
    if not live:
        raise ProtocolError("no trainer became ready before the readiness timeout")
    live.sort()

    w_global = initial.copy()
    for i in live:
        endpoint.send_global(i, 0, w_global)

    steps, losses = dict.fromkeys(live, 0), dict.fromkeys(live, math.nan)

    def tally():
        return {i: steps[i] for i in live}, {i: losses[i] for i in live}

    book = _Rounds(clock, w_global, eval_jobs, eval_results)
    due, end = book.t_start + cfg.agg_interval, book.t_start + cfg.train_budget
    while True:
        wait = min(due, end) - clock.now()
        if wait >= 0:  # a deadline already past (a round overran the budget) gets no yield
            clock.sleep(wait)
            # under the sim clock, let every actor due at this same instant
            # run first: a trainer whose step ends on the deadline starts another
            clock.sleep(0)
        if due > end:
            break
        book.drain()
        endpoint.kv_set("agg", True)
        collected = []
        for i in list(live):
            try:
                tag, w_i, steps[i], losses[i] = endpoint.recv_weights(i)
            except ChannelClosed:
                live.remove(i)
                continue
            if tag != book.t:
                raise ProtocolError(
                    f"trainer {i} submitted weights for round {tag} during round {book.t}"
                )
            collected.append(w_i)
        if not live:
            raise ProtocolError("all trainers dead; aborting the run")
        endpoint.kv_set("agg", False)
        w_global = aggregate_average(collected)
        for i in live:
            endpoint.send_global(i, book.t + 1, w_global)
        book.close(w_global, *tally())
        due = clock.now() + cfg.agg_interval
    endpoint.kv_set("stop", True)
    return book.finish(live, *tally())


# ---------------------------------------------------------------------------
# trainer (local steps, flag-driven synchronization)


class _LocalModel:
    """One trainer's model: its weights, Adam state, seeded sampling rng and
    local edges. A request ``(method, *args)`` calls ``load(w)``,
    ``weights()`` or ``step()``, which trains on one sampled minibatch and
    returns its loss."""

    def __init__(self, spec: TrainerSpec, cfg: RunConfig):
        self._spec = spec
        self._cfg = cfg
        self._rng = np.random.default_rng(spec.seed)
        self._edges = spec.subgraph.local_graph.edge_array()
        self._opt = AdamState()
        self._w = None

    def __call__(self, method: str, *args):
        return getattr(self, method)(*args)

    def load(self, w: ModelWeights) -> None:
        self._w = w

    def weights(self) -> ModelWeights:
        return self._w

    def step(self) -> float:
        cfg, sub = self._cfg, self._spec.subgraph
        batch = sample_minibatch(sub.local_graph, self._edges, cfg.batch_size, cfg.fanouts, self._rng)
        u, v, labels = batch.pair_indices()
        return nn.link_step(
            cfg.model, self._w, self._opt, batch.mfg.blocks,
            sub.features[batch.mfg.input_nodes], u, v, labels,
        )


class _InProcess:
    """A serving ``_Child``'s ``put``/``get``, answered in this process:
    ``put`` computes ``fn(*request)`` at once and ``get`` returns it."""

    def __init__(self, fn):
        self._fn = fn
        self._replies: collections.deque = collections.deque()

    def put(self, request) -> None:
        self._replies.append(self._fn(*request))

    def get(self):
        return self._replies.popleft()


def run_trainer(spec: TrainerSpec, cfg: RunConfig, endpoint, clock, log: TrainerLog, model=None):
    """Train until the server's ``stop`` flag, reporting at each ``agg`` flag.

    ``model`` serves the trainer's ``_LocalModel`` through ``put`` and
    ``get``: a forked ``_Child``, or by default one in this process. A step
    starts before the ``step_time`` charge and its loss is read after it, so
    a forked model steps while the clock charges for it.
    """
    if model is None:
        model = _InProcess(_LocalModel(spec, cfg))
    sub = spec.subgraph
    degenerate = sub.num_edges == 0 or sub.num_nodes < 2

    def call(*request):
        model.put(request)
        return model.get()

    try:
        tag, w = endpoint.recv_global()
    except ChannelClosed:
        return
    if tag != 0:
        raise ProtocolError(f"trainer {spec.trainer_id} expected round 0, got {tag}")
    call("load", w)
    t = 0
    try:
        while not endpoint.kv_get("stop"):
            if degenerate:
                clock.sleep(IDLE_POLL)
            else:
                model.put(("step",))
                log.step_times.append(clock.now())
                clock.sleep(spec.step_time)
                log.record_step(model.get())
            if endpoint.kv_get("agg"):
                endpoint.send_weights(t, call("weights"), log.steps, float(log.loss_ema))
                log.send_rounds.append((t, clock.now()))
                tag, w = endpoint.recv_global()
                if tag != t + 1:
                    raise ProtocolError(
                        f"trainer {spec.trainer_id} expected round {t + 1}, got {tag}"
                    )
                call("load", w)
                t = tag
    finally:
        endpoint.close()


# ---------------------------------------------------------------------------
# synchronous-gradient baseline: full graph access, per-step gradient averaging


def run_ggs(
    cfg: RunConfig,
    specs: list[TrainerSpec],
    train_graph: Graph,
    features: np.ndarray,
    initial: ModelWeights,
    clock,
    eval_jobs,
    eval_results,
    logs: dict[int, TrainerLog],
):
    """All trainers see the whole training graph; every step averages their
    gradient shards and applies one shared optimizer update, so the slowest
    trainer paces the system. Each trainer's steps are recorded in ``logs``."""
    w = initial.copy()
    opt = AdamState()
    edges = train_graph.edge_array()
    rngs = {s.trainer_id: np.random.default_rng(s.seed) for s in specs}
    step_cost = max(s.step_time for s in specs)

    def tally():
        return (
            {i: log.steps for i, log in logs.items()},
            {i: log.loss_ema for i, log in logs.items()},
        )

    book = _Rounds(clock, w, eval_jobs, eval_results)
    t_agg = book.t_start
    while clock.now() - book.t_start <= cfg.train_budget:
        shard_grads = []
        shard_losses = []
        for spec in specs:
            batch = sample_minibatch(
                train_graph, edges, cfg.batch_size, cfg.fanouts, rngs[spec.trainer_id]
            )
            u, v, labels = batch.pair_indices()
            loss, grads = nn.link_loss_and_grads(
                cfg.model, w, batch.mfg.blocks, features[batch.mfg.input_nodes], u, v, labels
            )
            shard_grads.append(grads)
            shard_losses.append(loss)
        avg = {
            name: sum(g[name] for g in shard_grads) / len(shard_grads)
            for name in shard_grads[0]
        }
        nn.adam_step(opt, w, avg, cfg.model.lr)
        for spec, loss in zip(specs, shard_losses):
            logs[spec.trainer_id].record_step(loss)
        clock.sleep(step_cost)
        if clock.now() - t_agg >= cfg.agg_interval:
            # drain once a round, before the close, as the server does: under
            # the sim a drain waits for every score owed, and the round just
            # closed would have had no time to be scored
            book.drain()
            book.close(w, *tally())
            t_agg = clock.now()

    return book.finish([s.trainer_id for s in specs], *tally())


# ---------------------------------------------------------------------------
# harness: wire runtime + transport + actors and run to completion


def _answer(fn, *args) -> tuple:
    """``("ok", fn(*args))``, or ``("error", exception)`` if it raised."""
    try:
        return ("ok", fn(*args))
    except BaseException as exc:  # the parent raises it where it reads the reply
        return ("error", exc)


# the parent's ends of the pipes to its forked children, until it closes them
_parent_ends: set = set()


class _Child:
    """A forked process named ``name`` running ``body(*args, pipe)``, which
    answers on ``pipe`` with ``_answer``'s replies. Each side holds the only
    copy of its end of ``pipe``, so either side's exit or close is the other's
    EOF: a child closes, at start, the parent's ends of its own pipe and of
    every older sibling's.

    ``put`` keeps at most one request in the pipe; the rest wait here and go
    out as replies are read, so a ``put`` never waits for the child to finish
    a request, whatever the request's size. An evaluation takes no virtual
    time, so with ``sim`` ``get`` waits for the owed reply whatever its
    timeout; otherwise it waits at most ``timeout``, so a drain never holds
    up a real-clock round.
    """

    def __init__(self, name: str, body, *args, sim: bool = False):
        ctx = multiprocessing.get_context("fork")
        self._pipe, child_end = ctx.Pipe()
        _parent_ends.add(self._pipe)
        self._sim = sim
        self._queued: collections.deque = collections.deque()
        self._owed = False

        def main():
            for end in _parent_ends:
                end.close()
            body(*args, child_end)

        self.process = ctx.Process(target=main, name=name, daemon=True)
        self.process.start()
        child_end.close()

    def put(self, request) -> None:
        self._queued.append(request)
        self._send_next()

    def _send_next(self) -> None:
        if self._queued and not self._owed:
            try:
                self._pipe.send(self._queued.popleft())
            except OSError:
                raise self._exited() from None
            self._owed = True

    def get(self, timeout: float | None = None):
        """The next reply's value; raises ChannelTimeout, the child's error,
        or a ProtocolError naming a child that exited."""
        try:
            if not (self._sim or timeout is None or self._pipe.poll(timeout)):
                raise ChannelTimeout
            kind, value = self._pipe.recv()
        except (EOFError, OSError):
            raise self._exited() from None
        self._owed = False
        self._send_next()
        if kind == "error":
            raise value
        return value

    def close(self) -> None:
        """Hang up: a child waiting for a request exits."""
        _parent_ends.discard(self._pipe)
        self._pipe.close()

    def kill(self) -> None:
        """Hang up, and kill the process if it is still running."""
        self.close()
        if self.process.exitcode is None:
            self.process.kill()
        self.process.join()

    def _exited(self) -> ProtocolError:
        self.process.join(CHILD_EXIT_TIMEOUT)
        return ProtocolError(
            f"{self.process.name} exited with code {self.process.exitcode} without reporting"
        )


def _reap(reporting: list[_Child], serving: list[_Child]) -> list:
    """End the forked children: hang up on each serving child (the evaluator
    and any step children), read each reporting child's (TCP trainer's) one
    reply, and wait for every child to exit; a child still running at
    ``CHILD_EXIT_TIMEOUT`` is killed. Then returns the reporting children's
    values, or raises the first one's error."""
    deadline = time.monotonic() + CHILD_EXIT_TIMEOUT
    children = [*reporting, *serving]
    replies = []
    try:
        for child in serving:
            child.close()  # no more requests: the child exits
        for child in reporting:
            # read before joining: a long run's log overfills the pipe buffer,
            # and its child blocks in send until it is read
            try:
                replies.append(child.get(max(0.0, deadline - time.monotonic())))
            except Exception as exc:
                replies.append(exc)
        for child in children:
            child.process.join(max(0.0, deadline - time.monotonic()))
    finally:
        for child in children:
            child.kill()
    for child, reply in zip(reporting, replies):
        if isinstance(reply, ChannelTimeout):
            raise child._exited()  # killed above
        if isinstance(reply, Exception):
            raise reply
    return replies


def _trainer_process(spec: TrainerSpec, cfg: RunConfig, address, pipe) -> None:
    """Body of a forked TCP trainer: train, then reply with its TrainerLog."""

    def train():
        log = TrainerLog(trainer_id=spec.trainer_id)
        with contextlib.suppress(ChannelClosed):  # the server hung up: a normal end
            endpoint = TcpTrainerEndpoint(address, spec.trainer_id, cfg.model)
            run_trainer(spec, cfg, endpoint, RealClock(), log)
        return log

    pipe.send(_answer(train))


def _serve(fn, pipe) -> None:
    """Body of a serving child (the evaluator, a trainer's step child): answer
    each request ``args`` with ``fn(*args)``, until the parent hangs up."""
    with contextlib.suppress(EOFError, OSError):
        while True:
            pipe.send(_answer(fn, *pipe.recv()))


def run_training(
    cfg: RunConfig,
    specs: list[TrainerSpec],
    train_graph: Graph,
    features: np.ndarray,
    splits: EdgeSplits,
    runtime: str = "sim",
    transport: str = "inproc",
    tcp_host: str = "127.0.0.1",
) -> RunResult:
    """Run one full training (tma or ggs mode) and return the server result.
    The evaluator, any TCP trainers and, under the sim with more than one
    CPU, the tma trainers' steps run as forked processes (module docstring);
    none outlives this call."""
    if not specs:
        raise ProtocolError("need at least one trainer spec")
    ids = [s.trainer_id for s in specs]
    if len(set(ids)) != len(ids):
        raise ProtocolError("duplicate trainer ids")

    rt = SimRuntime() if runtime == "sim" else ThreadRuntime()
    if runtime == "sim" and transport == "tcp":
        raise ProtocolError("tcp transport requires the thread runtime")

    initial = init_weights(cfg.model)

    def score(split, round_t, weights):
        mrr = evaluate(weights, cfg.model, train_graph, features, splits, split, round_t).mrr
        return split, round_t, mrr

    result_box: dict[str, RunResult] = {}
    server_ep = None
    # the trainers' logs: the actors record into them, and TCP trainers send theirs
    logs = {s.trainer_id: TrainerLog(trainer_id=s.trainer_id) for s in specs}
    # forked processes, started before this training starts a thread: TCP
    # trainers, which report once, and the step children and evaluator, which serve
    trainers: list[_Child] = []
    steppers: dict[int, _Child] = {}
    evaluator = None

    def loop_actor(loop, *args):
        try:
            result_box["result"] = loop(*args)
        finally:
            if server_ep is not None:
                server_ep.close()

    # set once, before any fork: the children inherit both, and none sets the
    # BLAS count after its fork (runtime._one_blas_thread)
    _keep_freed_memory()
    with _one_blas_thread():
        try:
            if cfg.mode == "tma":
                server_ep = (
                    InProcTransports(rt, ids) if transport == "inproc"
                    else TcpCoordinator(ids, cfg.model, host=tcp_host)
                )
                if transport == "tcp":
                    # the trainers' connections wait in the listen backlog
                    # until accepting starts
                    for spec in specs:
                        trainers.append(_Child(
                            f"trainer {spec.trainer_id}", _trainer_process, spec, cfg,
                            server_ep.address,
                        ))
                elif runtime == "sim" and len(os.sched_getaffinity(0)) > 1:
                    # a step takes no virtual time, so the sim's trainers can
                    # step side by side; on one CPU the forks would only cost
                    for spec in specs:
                        steppers[spec.trainer_id] = _Child(
                            f"trainer {spec.trainer_id}", _serve, _LocalModel(spec, cfg)
                        )
            evaluator = _Child("evaluator", _serve, score, sim=runtime == "sim")
            if cfg.mode == "ggs":
                rt.spawn(
                    "ggs", loop_actor, run_ggs, cfg, specs, train_graph, features,
                    initial, rt.clock, evaluator, evaluator, logs,
                )
            else:
                rt.spawn(
                    "server", loop_actor, run_server, cfg, server_ep, initial, rt.clock,
                    evaluator, evaluator,
                )
                if transport == "inproc":

                    def trainer_actor(spec):
                        endpoint = server_ep.trainer_endpoint(spec.trainer_id)
                        run_trainer(
                            spec, cfg, endpoint, rt.clock, logs[spec.trainer_id],
                            steppers.get(spec.trainer_id),
                        )

                    for spec in specs:
                        rt.spawn(f"trainer-{spec.trainer_id}", trainer_actor, spec)
                else:
                    server_ep.start()
            rt.run_all()
        finally:
            if server_ep is not None:
                server_ep.close()  # a trainer whose server is gone stops after its step
            serving = [*steppers.values(), *([evaluator] if evaluator else [])]
            logs.update((log.trainer_id, log) for log in _reap(trainers, serving))

    result = result_box.get("result")
    if result is None:
        raise ProtocolError("server did not produce a result")
    result.trainer_logs = logs
    return result
