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
block each other outside the collection window. At the budget's deadline
the server raises the monotone ``stop`` flag; a trainer finishes its
current step and exits cleanly.

A failed trainer is one that was never started: the caller leaves its spec
out, and the rounds average the trainers that run. The server reads joins
from its endpoint's ``joined`` channel within ``readiness_timeout`` and
goes on without a registered trainer that never joins. Flags flow one
way: the server sets them, the trainers read them.

Both modes keep one round book (``_Rounds``): the global weights, metrics
row and close time of every round, and the evaluations still in flight.
The book also has the one result path: it picks the best validation round,
scores it on the test split and builds the ``RunResult``. The tma server
and the ggs loop differ only in how they reach the end of a round.

Everything runs against injected clock/channel primitives, so the same
protocol code executes on real threads, over TCP, or inside the
deterministic simulation used by the acceptance tests. The server and the
evaluator are always actors of the runtime, and so are in-process trainers.
TCP trainers are forked processes (``run_training``): their steps do not
share the server's interpreter lock, and each sends its ``TrainerLog``, or
its error, back over a pipe.
"""

from __future__ import annotations

import contextlib
import math
import multiprocessing
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
EVAL_QUEUE_LIMIT = 64
# seconds run_training waits, once its server is done, for the TCP trainer
# processes to report and exit before it kills them
TRAINER_EXIT_TIMEOUT = 10.0


class ProtocolError(RuntimeError):
    pass


@dataclass(frozen=True)
class TrainerSpec:
    """One trainer's identity, data, seed, and per-step cost.

    ``step_time`` is charged after every local step: virtual seconds under
    the sim clock, a real sleep under the wall clock (the heterogeneity
    knob either way).
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
    stop_seen_at: float = math.nan

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
    trainer_logs: dict[int, TrainerLog]
    weights_by_round: dict[int, ModelWeights]
    round_times: list[float]
    live_ids: list[int]


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

    def finish(self, live_ids, steps: dict, losses: dict, trainer_logs: dict) -> RunResult:
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
            trainer_logs=trainer_logs,
            weights_by_round=self._weights,
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
    return book.finish(live, *tally(), {})


# ---------------------------------------------------------------------------
# trainer (local steps, flag-driven synchronization)


def run_trainer(spec: TrainerSpec, cfg: RunConfig, endpoint, clock, log: TrainerLog):
    sub = spec.subgraph
    rng = np.random.default_rng(spec.seed)
    degenerate = sub.num_edges == 0 or sub.num_nodes < 2
    features, edges = sub.features, sub.local_graph.edge_array()

    try:
        tag, w = endpoint.recv_global()
    except ChannelClosed:
        return
    if tag != 0:
        raise ProtocolError(f"trainer {spec.trainer_id} expected round 0, got {tag}")
    opt = AdamState()
    t = 0
    try:
        while not endpoint.kv_get("stop"):
            if degenerate:
                clock.sleep(IDLE_POLL)
            else:
                batch = sample_minibatch(sub.local_graph, edges, cfg.batch_size, cfg.fanouts, rng)
                u, v, labels = batch.pair_indices()
                loss = nn.link_step(
                    cfg.model, w, opt, batch.mfg.blocks,
                    features[batch.mfg.input_nodes], u, v, labels,
                )
                log.record_step(loss)
                log.step_times.append(clock.now())
                clock.sleep(spec.step_time)
            if endpoint.kv_get("agg"):
                endpoint.send_weights(t, w, log.steps, float(log.loss_ema))
                log.send_rounds.append((t, clock.now()))
                tag, w = endpoint.recv_global()
                if tag != t + 1:
                    raise ProtocolError(
                        f"trainer {spec.trainer_id} expected round {t + 1}, got {tag}"
                    )
                t = tag
        log.stop_seen_at = clock.now()
    finally:
        endpoint.close()


# ---------------------------------------------------------------------------
# evaluator worker


def run_evaluator(eval_jobs, eval_results, eval_fn):
    while True:
        try:
            split, round_t, weights = eval_jobs.get()
        except ChannelClosed:
            return
        eval_results.put((split, round_t, eval_fn(weights, split, round_t)))


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
):
    """All trainers see the whole training graph; every step averages their
    gradient shards and applies one shared optimizer update, so the slowest
    trainer paces the system."""
    w = initial.copy()
    opt = AdamState()
    edges = train_graph.edge_array()
    rngs = {s.trainer_id: np.random.default_rng(s.seed) for s in specs}
    logs = {s.trainer_id: TrainerLog(trainer_id=s.trainer_id) for s in specs}
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
            book.close(w, *tally())
            t_agg = clock.now()
        book.drain()

    return book.finish([s.trainer_id for s in specs], *tally(), logs)


# ---------------------------------------------------------------------------
# harness: wire runtime + transport + actors and run to completion


def _trainer_process(spec: TrainerSpec, cfg: RunConfig, address, report) -> None:
    """Body of a forked TCP trainer: train, then send ``("log", TrainerLog)``
    or ``("error", exception)`` up the ``report`` pipe."""
    _keep_freed_memory()
    log = TrainerLog(trainer_id=spec.trainer_id)
    try:
        with _one_blas_thread():
            endpoint = TcpTrainerEndpoint(address, spec.trainer_id, cfg.model)
            run_trainer(spec, cfg, endpoint, RealClock(), log)
    except ChannelClosed:
        pass  # the server hung up mid-round: a normal end, as for a thread trainer
    except BaseException as exc:
        report.send(("error", exc))
        return
    report.send(("log", log))


def _fork_trainer(spec: TrainerSpec, cfg: RunConfig, address):
    """Start one TCP trainer as a forked process; returns (id, process, pipe)."""
    ctx = multiprocessing.get_context("fork")
    pipe, report = ctx.Pipe(duplex=False)
    proc = ctx.Process(
        target=_trainer_process, args=(spec, cfg, address, report),
        name=f"trainer-{spec.trainer_id}", daemon=True,
    )
    proc.start()
    report.close()  # the child holds the only write end: its exit is the pipe's EOF
    return spec.trainer_id, proc, pipe


def _reap_trainers(trainers) -> dict[int, TrainerLog]:
    """Read each trainer process's report, then join it; one still running at
    ``TRAINER_EXIT_TIMEOUT`` is killed. Returns the logs once every process
    has exited; raises the first trainer's error, or a ProtocolError for a
    trainer that exited without reporting."""
    deadline = time.monotonic() + TRAINER_EXIT_TIMEOUT
    reports = {}
    try:
        for trainer_id, proc, pipe in trainers:
            # read before joining: a long run's log overfills the pipe buffer,
            # and its child blocks in send until it is read
            with contextlib.suppress(EOFError):
                if pipe.poll(max(0.0, deadline - time.monotonic())):
                    reports[trainer_id] = pipe.recv()
            proc.join(max(0.0, deadline - time.monotonic()))
    finally:
        for _, proc, pipe in trainers:
            pipe.close()
            if proc.exitcode is None:
                proc.kill()
            proc.join()
    logs = {}
    for trainer_id, proc, _ in trainers:
        kind, value = reports.get(trainer_id, (None, None))
        if kind == "error":
            raise value
        if kind is None:
            raise ProtocolError(
                f"trainer {trainer_id} exited with code {proc.exitcode} without reporting"
            )
        logs[trainer_id] = value
    return logs


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
    TCP trainers run as forked processes (module docstring)."""
    if not specs:
        raise ProtocolError("need at least one trainer spec")
    ids = [s.trainer_id for s in specs]
    if len(set(ids)) != len(ids):
        raise ProtocolError("duplicate trainer ids")

    rt = SimRuntime() if runtime == "sim" else ThreadRuntime()
    if runtime == "sim" and transport == "tcp":
        raise ProtocolError("tcp transport requires the thread runtime")

    initial = init_weights(cfg.model)
    eval_jobs = rt.channel()
    eval_results = rt.channel()

    def eval_fn(weights, split, round_t):
        return evaluate(
            weights, cfg.model, train_graph, features, splits, split, round_t
        ).mrr

    result_box: dict[str, RunResult] = {}
    server_ep = None
    trainers = []  # forked TCP trainers: (id, process, report pipe)

    def loop_actor(loop, *args):
        try:
            result_box["result"] = loop(*args)
        finally:
            eval_jobs.close()
            if server_ep is not None:
                server_ep.close()

    try:
        if cfg.mode == "ggs":
            rt.spawn(
                "ggs", loop_actor, run_ggs, cfg, specs, train_graph, features,
                initial, rt.clock, eval_jobs, eval_results,
            )
        else:
            server_ep = (
                InProcTransports(rt, ids) if transport == "inproc"
                else TcpCoordinator(ids, cfg.model, host=tcp_host)
            )
            rt.spawn(
                "server", loop_actor, run_server, cfg, server_ep, initial, rt.clock,
                eval_jobs, eval_results,
            )
            if transport == "inproc":
                logs = {s.trainer_id: TrainerLog(trainer_id=s.trainer_id) for s in specs}

                def trainer_actor(spec):
                    endpoint = server_ep.trainer_endpoint(spec.trainer_id)
                    run_trainer(spec, cfg, endpoint, rt.clock, logs[spec.trainer_id])

                for spec in specs:
                    rt.spawn(f"trainer-{spec.trainer_id}", trainer_actor, spec)
            else:
                # fork before this training starts a thread: the trainers'
                # connections wait in the listen backlog until accepting starts
                for spec in specs:
                    trainers.append(_fork_trainer(spec, cfg, server_ep.address))
                server_ep.start()
        rt.spawn("evaluator", run_evaluator, eval_jobs, eval_results, eval_fn)
        rt.run_all()
    finally:
        if trainers:
            server_ep.close()  # a trainer whose server is gone stops after its step
            logs = _reap_trainers(trainers)

    result = result_box.get("result")
    if result is None:
        raise ProtocolError("server did not produce a result")
    if cfg.mode == "tma":
        # trainer logs live with the trainers, not the server
        result.trainer_logs = logs
    return result
