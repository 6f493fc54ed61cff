import contextlib
import dataclasses
import math
import multiprocessing
import os
import pickle
import signal
import socket
import struct
import sys
import threading
import time

import numpy as np
import pytest

from tma import coordination
from tma.coordination import (
    ProtocolError,
    RunConfig,
    TrainerLog,
    TrainerSpec,
    run_server,
    run_trainer,
    run_training,
)
from tma.evaluate import evaluate
from tma.graph import build_splits, generate_synthetic
from tma.fileio import weights_to_bytes
from tma.nn import ModelConfig, ModelWeights, init_weights
from tma.partition import induce_subgraphs, partition_random_node
from tma.runtime import (
    ChannelClosed,
    ChannelTimeout,
    RealClock,
    SimClock,
    SimRuntime,
    ThreadChannel,
    ThreadRuntime,
)
from tma import runtime, transport
from tma.transport import (
    MAX_FRAME_LEN,
    MSG_HELLO,
    MSG_KV_SET,
    MSG_WEIGHTS,
    InProcTransports,
    TcpCoordinator,
    TcpTrainerEndpoint,
    TransportError,
    recv_frame,
)


# ---------------------------------------------------------------------------
# protocol runs (sim clock)


def make_dataset(n=240, h=0.8, seed=0, k_neg=10, mean_degree=6.0):
    g, x, y = generate_synthetic(n, mean_degree, h, seed=seed)
    train, splits = build_splits(g, 0.05, 0.05, k_neg, seed=seed)
    return train, x, y, splits


def make_specs(train, x, m, seed=0, step_time=0.05, partition_seed=0):
    p = partition_random_node(train, m, seed=partition_seed)
    subs = induce_subgraphs(train, x, p)
    return [
        TrainerSpec(trainer_id=i, subgraph=subs[i], seed=seed * 1000 + i, step_time=step_time)
        for i in range(m)
    ]


def small_model(x, seed=0):
    return ModelConfig(in_dim=x.shape[1], encoder="gcn", layers=2, hidden_dim=8, seed=seed)


@pytest.fixture
def two_cpus(monkeypatch):
    """Let run_training fork the sim's step children on any machine."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})


class _TickClock:
    def __init__(self):
        self.t = 0.0

    def now(self):
        self.t += 1.0
        return self.t


class _InlineEvaluator:
    """Stands in for the forked evaluator in this process: ``put``
    scores a job at once, ``get`` returns the oldest score not yet read."""

    def __init__(self, eval_fn):
        self._eval_fn = eval_fn
        self._scores = []

    def put(self, job):
        split, round_t, weights = job
        self._scores.append((split, round_t, self._eval_fn(weights, split, round_t)))

    def get(self, timeout=None):
        if not self._scores:
            raise ChannelTimeout
        return self._scores.pop(0)


class TestRounds:
    def test_round_closed_at_the_eval_queue_limit_stays_unscored(self, monkeypatch):
        monkeypatch.setattr(coordination, "EVAL_QUEUE_LIMIT", 2)
        # round 3 would score best, had it been evaluated
        scores = {("val", 1): 0.3, ("val", 2): 0.5, ("val", 3): 0.9, ("val", 4): 0.4,
                  ("test", 2): 0.45}
        evaluated = []

        def eval_fn(weights, split, round_t):
            evaluated.append((split, round_t))
            return scores.get((split, round_t), 0.0)

        evaluator = _InlineEvaluator(eval_fn)
        book = coordination._Rounds(_TickClock(), _TINY_W, evaluator, evaluator)
        for _ in range(3):  # the third close finds two evaluations in flight
            book.close(_TINY_W, {0: 1}, {0: 0.5})
        book.drain({("val", 1), ("val", 2)})
        book.close(_TINY_W, {0: 2}, {0: 0.5})  # room again after the drain
        res = book.finish([0], {0: 2}, {0: 0.5})
        assert evaluated == [("val", 1), ("val", 2), ("val", 4), ("test", 2)]
        val = {r.round: r.mrr for r in res.metrics if r.split == "val"}
        assert math.isnan(val.pop(3))
        assert val == {1: 0.3, 2: 0.5, 4: 0.4}
        assert (res.rounds, res.best_round, res.best_val_mrr, res.test_mrr) == (4, 2, 0.5, 0.45)


class TestTmaProtocol:
    def test_round_count_matches_schedule(self):
        train, x, y, splits = make_dataset()
        specs = make_specs(train, x, 2, step_time=0.1)
        cfg = RunConfig(
            model=small_model(x), train_budget=30.0, agg_interval=5.0,
            batch_size=16, fanouts=(3, 3),
        )
        res = run_training(cfg, specs, train, x, splits)
        assert abs(res.rounds - 6) <= 1
        assert res.rounds == len(res.round_times)

    @staticmethod
    def _run_with_deadlines_on_step_ends():
        """Step 0.5, interval 2 and budget 6: every deadline is a step end."""
        train, x, y, splits = make_dataset(seed=9)
        specs = make_specs(train, x, 2, step_time=0.5)
        cfg = RunConfig(
            model=small_model(x), train_budget=6.0, agg_interval=2.0,
            batch_size=16, fanouts=(3, 3),
        )
        return run_training(cfg, specs, train, x, splits)

    def test_counts_are_exact_when_deadlines_land_on_step_ends(self):
        res = self._run_with_deadlines_on_step_ends()
        # a trainer whose step ends on the budget's deadline starts one more:
        # floor(budget / step) + 1 steps
        assert [log.steps for log in res.trainer_logs.values()] == [13, 13]
        # a round is due interval after the last one closed, and closes when
        # the step under way ends: floor(budget / (interval + step)) rounds
        assert res.round_times == [2.5, 5.0]

    def test_a_round_that_overruns_the_budget_ends_the_run(self):
        train, x, y, splits = make_dataset(seed=9)
        specs = make_specs(train, x, 2, step_time=0.5)
        cfg = RunConfig(
            model=small_model(x), train_budget=4.7, agg_interval=2.0,
            batch_size=16, fanouts=(3, 3),
        )
        res = run_training(cfg, specs, train, x, splits)
        # round 2 is due at 4.5, inside the budget, and closes at 5.0, past
        # it: stop is raised before a trainer can start another step
        assert res.round_times == [2.5, 5.0]
        assert [log.steps for log in res.trainer_logs.values()] == [10, 10]

    def test_server_sleeps_only_to_deadlines(self, monkeypatch):
        server_sleeps = []
        real_sleep = SimClock.sleep

        def counting_sleep(clock, seconds):
            if threading.current_thread().name == "server":
                server_sleeps.append(seconds)
            real_sleep(clock, seconds)

        monkeypatch.setattr(SimClock, "sleep", counting_sleep)
        res = self._run_with_deadlines_on_step_ends()
        # one sleep to each round's deadline and the budget's, each followed
        # by one same-instant yield
        assert res.rounds == 2
        assert len(server_sleeps) <= 2 * res.rounds + 2

    def test_single_trainer_global_equals_local(self):
        train, x, y, splits = make_dataset(seed=1)
        specs = make_specs(train, x, 1, step_time=0.1)
        cfg = RunConfig(
            model=small_model(x), train_budget=4.0, agg_interval=1.0,
            batch_size=16, fanouts=(3, 3),
        )
        res = run_training(cfg, specs, train, x, splits)
        # with one trainer the average is the identity: every global round
        # must equal the weights that the single trainer submitted
        assert res.rounds >= 2
        log = res.trainer_logs[0]
        assert log.steps > 0
        assert len(log.send_rounds) == res.rounds

    def test_identical_trainers_average_is_either(self):
        train, x, y, splits = make_dataset(seed=2)
        p = partition_random_node(train, 1, seed=0)
        sub = induce_subgraphs(train, x, p)[0]
        specs = [
            TrainerSpec(trainer_id=i, subgraph=sub, seed=7, step_time=0.1)
            for i in range(2)
        ]
        cfg = RunConfig(
            model=small_model(x), train_budget=3.0, agg_interval=1.0,
            batch_size=16, fanouts=(3, 3),
        )
        res = run_training(cfg, specs, train, x, splits)
        # identical seeds + identical subgraphs + lockstep clock => identical
        # trajectories; the average equals either trainer's submission
        assert res.rounds >= 2
        assert res.trainer_logs[0].steps == res.trainer_logs[1].steps

    @pytest.mark.parametrize("mode", ["tma", "ggs"])
    def test_metrics_rows_complete(self, mode):
        train, x, y, splits = make_dataset(seed=3)
        specs = make_specs(train, x, 3, step_time=0.07)
        cfg = RunConfig(
            model=small_model(x), mode=mode, train_budget=6.0, agg_interval=2.0,
            batch_size=16, fanouts=(3, 3),
        )
        res = run_training(cfg, specs, train, x, splits)
        val_rows = [r for r in res.metrics if r.split == "val"]
        test_rows = [r for r in res.metrics if r.split == "test"]
        assert len(val_rows) == res.rounds
        assert len(test_rows) == 1
        assert all(not math.isnan(r.mrr) for r in val_rows)
        assert 0 < res.best_val_mrr <= 1
        assert 0 < res.test_mrr <= 1
        assert res.best_round in [r.round for r in val_rows]
        assert res.round_times == [r.wall_s for r in val_rows]
        for row in res.metrics:
            assert set(row.steps) == {0, 1, 2}

    def test_stop_is_monotone_no_late_steps(self, monkeypatch):
        stop_seen_at = {}
        real_run_trainer = coordination.run_trainer

        def run_trainer(spec, cfg, endpoint, clock, log, model=None):
            real_kv_get = endpoint.kv_get

            def kv_get(key):
                value = real_kv_get(key)
                if key == "stop" and value:
                    stop_seen_at.setdefault(spec.trainer_id, clock.now())
                return value

            endpoint.kv_get = kv_get
            real_run_trainer(spec, cfg, endpoint, clock, log, model)

        monkeypatch.setattr(coordination, "run_trainer", run_trainer)
        train, x, y, splits = make_dataset(seed=4)
        specs = make_specs(train, x, 2, step_time=0.05)
        cfg = RunConfig(
            model=small_model(x), train_budget=3.0, agg_interval=1.0,
            batch_size=16, fanouts=(3, 3),
        )
        res = run_training(cfg, specs, train, x, splits)
        assert sorted(stop_seen_at) == sorted(res.trainer_logs)
        for i, log in res.trainer_logs.items():
            late = [t for t in log.step_times if t > stop_seen_at[i]]
            assert late == []

    def test_submission_tags_unique_per_round(self):
        train, x, y, splits = make_dataset(seed=5)
        specs = make_specs(train, x, 3, step_time=0.03)
        cfg = RunConfig(
            model=small_model(x), train_budget=4.0, agg_interval=0.8,
            batch_size=16, fanouts=(3, 3),
        )
        res = run_training(cfg, specs, train, x, splits)
        for log in res.trainer_logs.values():
            rounds = [r for r, _ in log.send_rounds]
            assert rounds == sorted(set(rounds))
            assert rounds == list(range(len(rounds)))

    def test_heterogeneous_speed_fast_trainer_does_more(self):
        train, x, y, splits = make_dataset(seed=6)
        p = partition_random_node(train, 2, seed=1)
        subs = induce_subgraphs(train, x, p)
        specs = [
            TrainerSpec(trainer_id=0, subgraph=subs[0], seed=1, step_time=0.05),
            TrainerSpec(trainer_id=1, subgraph=subs[1], seed=2, step_time=0.10),
        ]
        cfg = RunConfig(
            model=small_model(x), train_budget=10.0, agg_interval=2.5,
            batch_size=16, fanouts=(3, 3),
        )
        res = run_training(cfg, specs, train, x, splits)
        assert res.trainer_logs[0].steps > 1.5 * res.trainer_logs[1].steps
        # rounds still fire roughly on schedule
        assert abs(res.rounds - 4) <= 1

    def test_degenerate_trainer_keeps_protocol_alive(self):
        train, x, y, splits = make_dataset(seed=7)
        p = partition_random_node(train, 2, seed=0)
        subs = induce_subgraphs(train, x, p)
        from tma.graph import Graph
        from tma.partition import Subgraph

        empty = Subgraph(
            local_graph=Graph.from_edges(3, np.empty((0, 2))),
            features=x[:3],
            global_ids=np.arange(3),
        )
        specs = [
            TrainerSpec(trainer_id=0, subgraph=subs[0], seed=1, step_time=0.05),
            TrainerSpec(trainer_id=1, subgraph=empty, seed=2, step_time=0.05),
        ]
        cfg = RunConfig(
            model=small_model(x), train_budget=3.0, agg_interval=1.0,
            batch_size=16, fanouts=(3, 3),
        )
        res = run_training(cfg, specs, train, x, splits)
        assert res.rounds >= 2
        assert res.trainer_logs[1].steps == 0
        assert len(res.trainer_logs[1].send_rounds) == res.rounds


def _available(channel) -> list:
    """Every item that ``channel`` holds now, in order."""
    items = []
    with contextlib.suppress(ChannelTimeout):
        while True:
            items.append(channel.get(timeout=0.0))
    return items


def run_on_hub(cfg, registered, specs, train, x, splits):
    """``run_server`` under the sim on an in-process hub registered for the
    ids ``registered``, with only ``specs``' trainers started; the actors are
    wired and spawned as ``run_training`` does it, but every trainer steps in
    this process."""
    rt = SimRuntime()
    hub = InProcTransports(rt, registered)
    box = {}
    logs = {s.trainer_id: TrainerLog(trainer_id=s.trainer_id) for s in specs}

    def score(split, round_t, weights):
        return split, round_t, evaluate(weights, cfg.model, train, x, splits, split, round_t).mrr

    def server():
        try:
            box["result"] = run_server(
                cfg, hub, init_weights(cfg.model), rt.clock, evaluator, evaluator
            )
        finally:
            hub.close()

    def trainer(spec):
        endpoint = hub.trainer_endpoint(spec.trainer_id)
        run_trainer(spec, cfg, endpoint, rt.clock, logs[spec.trainer_id])

    with runtime._one_blas_thread():
        evaluator = coordination._Child("evaluator", coordination._serve, score, sim=True)
        try:
            rt.spawn("server", server)
            for spec in specs:
                rt.spawn(f"trainer-{spec.trainer_id}", trainer, spec)
            rt.run_all()
        finally:
            coordination._reap([], [evaluator])
    box["result"].trainer_logs = logs
    return box["result"]


def assert_same_logs(a, b) -> None:
    """Every trainer's log in results ``a`` and ``b`` is the same, field by field."""
    assert sorted(a.trainer_logs) == sorted(b.trainer_logs)
    for i, log_a in a.trainer_logs.items():
        log_b = b.trainer_logs[i]
        assert log_a.steps == log_b.steps, i
        assert repr(log_a.loss_ema) == repr(log_b.loss_ema), i
        assert log_a.step_times == log_b.step_times, i
        assert log_a.send_rounds == log_b.send_rounds, i


def record_global_weights(monkeypatch) -> list:
    """Make the tma server's ``aggregate_average`` also append each round's
    global weights to the list returned, in round order."""
    rounds = []
    real_aggregate_average = coordination.aggregate_average

    def aggregate_average(weight_sets):
        w = real_aggregate_average(weight_sets)
        rounds.append(w.copy())
        return w

    monkeypatch.setattr(coordination, "aggregate_average", aggregate_average)
    return rounds


class TestFailureInjection:
    """A failed trainer is one that never starts. The server waits
    ``readiness_timeout`` for a registered trainer whose endpoint never
    connects, then runs the rounds with the others."""

    def test_joined_receives_each_endpoint_handed_out(self):
        hub = InProcTransports(ThreadRuntime(), [0, 1, 2])
        hub.trainer_endpoint(2)
        hub.trainer_endpoint(0)
        assert _available(hub.joined) == [2, 0]

    def test_trainer_endpoint_refuses_a_taken_or_unknown_id(self):
        hub = InProcTransports(ThreadRuntime(), [0, 1])
        hub.trainer_endpoint(0)
        with pytest.raises(TransportError, match="unknown or taken"):
            hub.trainer_endpoint(0)
        with pytest.raises(TransportError, match="unknown or taken"):
            hub.trainer_endpoint(5)
        assert _available(hub.joined) == [0]

    def test_closing_the_hub_stops_its_trainers(self):
        # as a TCP trainer's stop reads True once its server hangs up
        hub = InProcTransports(ThreadRuntime(), [0])
        ep = hub.trainer_endpoint(0)
        assert ep.kv_get("stop") is None
        hub.close()
        assert ep.kv_get("stop") is True
        with pytest.raises(ChannelClosed):
            ep.recv_global(timeout=1.0)

    def test_racing_claims_hand_out_each_id_once(self):
        hub = InProcTransports(ThreadRuntime(), [0, 1, 2, 3])
        won = []

        def claim(trainer_id):
            with contextlib.suppress(TransportError):
                hub.trainer_endpoint(trainer_id)
                won.append(trainer_id)

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=claim, args=(k % 4,)) for k in range(32)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(5.0)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(old)
        assert sorted(won) == [0, 1, 2, 3]
        assert sorted(_available(hub.joined)) == [0, 1, 2, 3]

    def test_no_failures_identical_to_plain_run(self, monkeypatch, two_cpus):
        # run_training's trainers step in forked children, run_on_hub's here
        train, x, y, splits = make_dataset(seed=8)
        fast, slow = make_specs(train, x, 2, step_time=0.05)
        specs = [fast, dataclasses.replace(slow, step_time=0.15)]
        cfg = RunConfig(
            model=small_model(x), train_budget=3.0, agg_interval=1.0,
            batch_size=16, fanouts=(3, 3),
        )
        rounds = record_global_weights(monkeypatch)
        a = run_training(cfg, specs, train, x, splits)
        a_rounds = rounds[:]
        rounds.clear()
        b = run_on_hub(cfg, [0, 1], specs, train, x, splits)
        assert a.best_val_mrr == b.best_val_mrr
        assert a.test_mrr == b.test_mrr
        assert len(a_rounds) == len(rounds) == a.rounds
        for wa, wb in zip(a_rounds, rounds):
            assert wa.equal_bits(wb)
        assert_same_logs(a, b)
        assert a.trainer_logs[0].steps > a.trainer_logs[1].steps

    def test_failed_trainer_excluded_from_rounds(self):
        train, x, y, splits = make_dataset(seed=9)
        specs = make_specs(train, x, 3, step_time=0.05)
        cfg = RunConfig(
            model=small_model(x), train_budget=3.0, agg_interval=1.0,
            batch_size=16, fanouts=(3, 3), readiness_timeout=0.5,
        )
        survivors = [s for s in specs if s.trainer_id != 1]
        res = run_on_hub(cfg, [0, 1, 2], survivors, train, x, splits)
        assert res.live_ids == [0, 2]
        assert res.rounds >= 2
        for row in res.metrics:
            assert set(row.steps) == {0, 2}
        unregistered = run_on_hub(cfg, [0, 2], survivors, train, x, splits)
        assert res.round_times == unregistered.round_times

    def test_failure_subset_bitwise_equivalence(self, monkeypatch):
        train, x, y, splits = make_dataset(seed=10)
        specs = make_specs(train, x, 3, step_time=0.05)
        cfg = RunConfig(
            model=small_model(x), train_budget=3.0, agg_interval=1.0,
            batch_size=16, fanouts=(3, 3), readiness_timeout=0.5,
        )
        survivors = [s for s in specs if s.trainer_id != 1]
        rounds = record_global_weights(monkeypatch)
        failed = run_on_hub(cfg, [0, 1, 2], survivors, train, x, splits)
        failed_rounds = rounds[:]
        rounds.clear()
        direct = run_training(cfg, survivors, train, x, splits)
        assert failed.rounds == direct.rounds
        assert len(failed_rounds) == len(rounds) == failed.rounds
        for wf, wd in zip(failed_rounds, rounds):
            assert wf.equal_bits(wd)
        assert failed.best_round == direct.best_round
        assert failed.test_mrr == direct.test_mrr
        wall_a = [r.wall_s for r in failed.metrics]
        wall_b = [r.wall_s for r in direct.metrics]
        assert wall_a == wall_b

    def test_all_failed_rejected(self):
        train, x, y, splits = make_dataset(seed=11)
        cfg = RunConfig(
            model=small_model(x), train_budget=2.0, agg_interval=1.0,
            batch_size=16, fanouts=(3, 3), readiness_timeout=0.5,
        )
        with pytest.raises(ProtocolError, match="at least one trainer"):
            run_training(cfg, [], train, x, splits)
        with pytest.raises(ProtocolError, match="no trainer became ready"):
            run_on_hub(cfg, [0, 1], [], train, x, splits)


class TestGgs:
    def test_m1_matches_centralized_semantics(self):
        train, x, y, splits = make_dataset(seed=12)
        specs = make_specs(train, x, 1, step_time=0.05)
        cfg = RunConfig(
            model=small_model(x), mode="ggs", train_budget=3.0, agg_interval=1.0,
            batch_size=16, fanouts=(3, 3),
        )
        res = run_training(cfg, specs, train, x, splits)
        assert res.rounds >= 2
        assert res.trainer_logs[0].steps > 0

    def test_shard_gradient_linearity(self):
        # average of shard gradients equals gradient of the concatenated batch
        # when shards share weights (linearity of the mean loss)
        from tma import nn as tnn

        train, x, _, _ = make_dataset(seed=13)
        cfg_model = small_model(x)
        w = tnn.init_weights(cfg_model)
        blocks = tnn.full_graph_blocks(train, cfg_model.layers)
        rng = np.random.default_rng(0)
        u = rng.integers(0, train.num_nodes, 8)
        v = rng.integers(0, train.num_nodes, 8)
        labels = rng.integers(0, 2, 8).astype(float)
        _, g_full = tnn.link_loss_and_grads(cfg_model, w, blocks, x, u, v, labels)
        halves = [slice(0, 4), slice(4, 8)]
        parts = [
            tnn.link_loss_and_grads(cfg_model, w, blocks, x, u[s], v[s], labels[s])[1]
            for s in halves
        ]
        for name in g_full:
            avg = (parts[0][name] + parts[1][name]) / 2
            assert np.allclose(avg, g_full[name], atol=1e-12)

    def test_ggs_paced_by_slowest(self):
        train, x, y, splits = make_dataset(seed=14)
        p = partition_random_node(train, 2, seed=0)
        subs = induce_subgraphs(train, x, p)
        base = dict(train_budget=10.0, agg_interval=2.5, batch_size=16, fanouts=(3, 3))
        specs = [
            TrainerSpec(trainer_id=0, subgraph=subs[0], seed=1, step_time=0.05),
            TrainerSpec(trainer_id=1, subgraph=subs[1], seed=2, step_time=0.10),
        ]
        tma = run_training(
            RunConfig(model=small_model(x), **base), specs, train, x, splits
        )
        ggs = run_training(
            RunConfig(model=small_model(x), mode="ggs", **base), specs, train, x, splits
        )
        # synchronous mode steps at the slow trainer's pace for everyone
        assert ggs.trainer_logs[0].steps == ggs.trainer_logs[1].steps
        median_tma = np.median([log.steps for log in tma.trainer_logs.values()])
        assert ggs.trainer_logs[0].steps < median_tma


def _frame(msg_type, trainer, payload=b""):
    return struct.pack("<IBIH", len(payload) + 7, msg_type, 0, trainer) + payload


TINY = ModelConfig(in_dim=2, hidden_dim=4, layers=1, decoder_layers=1)
_TINY_W = init_weights(TINY)


_HELLO_0 = _frame(MSG_HELLO, 0)


def _report_frame(tensors=_TINY_W.tensors, trainer=0, trailing=b""):
    """A WEIGHTS frame from ``trainer`` whose checkpoint has TINY's
    fingerprint and these tensors, followed by ``trailing``."""
    report = struct.pack("<qd", 1, 0.5)
    checkpoint = weights_to_bytes(ModelWeights(TINY.fingerprint(), tensors))
    return _frame(MSG_WEIGHTS, trainer, report + checkpoint + trailing)


def _wait_for(condition, timeout=2.0):
    deadline = time.monotonic() + timeout
    while not condition():
        assert time.monotonic() < deadline, "condition not met in time"
        time.sleep(0.005)


class TestThreadRuntimeAndTcp:
    def test_threads_real_clock_smoke(self):
        train, x, y, splits = make_dataset(seed=15, n=120)
        specs = make_specs(train, x, 2, step_time=0.0)
        cfg = RunConfig(
            model=small_model(x), train_budget=1.2, agg_interval=0.3,
            batch_size=8, fanouts=(2, 2),
        )
        res = run_training(cfg, specs, train, x, splits, runtime="threads")
        assert res.rounds >= 1
        assert 0 < res.test_mrr <= 1

    def test_tcp_transport_end_to_end(self, monkeypatch):
        # the trainers are processes: what they send is counted where the
        # server receives it, what the server pushes where it sends it
        sent, received = [], []
        real_send_frame, real_recv_frame = transport.send_frame, transport.recv_frame

        def counting_send_frame(sock, msg_type, round_t, trainer, payload=b""):
            sent.append((threading.current_thread().name, msg_type, trainer, payload))
            real_send_frame(sock, msg_type, round_t, trainer, payload)

        def counting_recv_frame(sock):
            frame = real_recv_frame(sock)
            received.append(frame)
            return frame

        monkeypatch.setattr(transport, "send_frame", counting_send_frame)
        monkeypatch.setattr(transport, "recv_frame", counting_recv_frame)
        train, x, y, splits = make_dataset(seed=16, n=120)
        specs = make_specs(train, x, 2, step_time=0.0)
        cfg = RunConfig(
            model=small_model(x), train_budget=1.2, agg_interval=0.3,
            batch_size=8, fanouts=(2, 2),
        )
        res = run_training(
            cfg, specs, train, x, splits, runtime="threads", transport="tcp"
        )
        assert res.rounds >= 1
        assert 0 < res.test_mrr <= 1
        for log in res.trainer_logs.values():
            assert log.steps > 0
        for row in res.metrics:
            assert set(row.steps) == {0, 1}
            assert all(n > 0 for n in row.steps.values())
            assert all(math.isfinite(v) for v in row.loss.values())
        # flags are pushed per round, not polled per step
        frames = len(sent) + len(received)
        assert frames <= 8 * len(specs) * (res.rounds + 2)
        assert frames < sum(log.steps for log in res.trainer_logs.values())
        # a trainer sends one HELLO, then one WEIGHTS frame per round and no flags
        hellos = sorted(trainer for msg_type, _, trainer, _ in received if msg_type == MSG_HELLO)
        assert hellos == [0, 1]
        assert {msg_type for msg_type, _, _, _ in received} == {MSG_HELLO, MSG_WEIGHTS}
        sends = sum(len(log.send_rounds) for log in res.trainer_logs.values())
        assert [msg_type for msg_type, _, _, _ in received].count(MSG_WEIGHTS) == sends
        # the trainers run in processes of their own: this one sends only the server's frames
        assert {name for name, _, _, _ in sent} == {"server"}
        # the server pushes agg up and down once per round, then stop, to both
        # trainers; it never pushes a flag's initial False
        pushes = [(name, p) for name, t, _, p in sent if t == MSG_KV_SET]
        per_round = [b"agg\x00\x01"] * 2 + [b"agg\x00\x00"] * 2
        assert pushes == [("server", p) for p in per_round * res.rounds + [b"stop\x00\x01"] * 2]

    def test_thread_channel_get_times_out(self):
        ch = ThreadChannel()
        t0 = time.monotonic()
        with pytest.raises(ChannelTimeout):
            ch.get(timeout=0.05)
        assert time.monotonic() - t0 >= 0.05
        ch.put("x")
        assert ch.get(timeout=0.05) == "x"

    @pytest.mark.parametrize("frame_len", [3, MAX_FRAME_LEN + 1, 2**32 - 1])
    def test_recv_frame_rejects_bad_length(self, frame_len):
        a, b = socket.socketpair()
        with a, b:
            b.settimeout(5.0)
            a.sendall(struct.pack("<IBIH", frame_len, 2, 0, 0) + b"\x00" * 64)
            with pytest.raises(TransportError, match="frame length"):
                recv_frame(b)

    @pytest.mark.parametrize(
        "frames",
        [
            pytest.param([_frame(MSG_KV_SET, 0, b"stop\x00\x01")], id="sets-server-stop"),
            pytest.param([_HELLO_0, _frame(MSG_KV_SET, 0, b"agg\x00\x01")], id="hello-then-sets-agg"),
            # KV_SET is server-to-trainer only: a claimed trainer's KV_SET is
            # refused by frame type, whatever its payload
            pytest.param([_HELLO_0, _frame(MSG_KV_SET, 0, b"ready/0\x00I\x01")], id="short-kv-value"),
            pytest.param([_HELLO_0, _frame(MSG_KV_SET, 0, b"\xff\x00\x01")], id="non-utf8-kv-key"),
            pytest.param(
                [_HELLO_0, _frame(MSG_KV_SET, 0, b"ready/1\x00\x01")], id="sets-another-trainers-key"
            ),
            pytest.param([_HELLO_0, _frame(MSG_KV_SET, 0, b"steps/0\x00\x01")], id="sets-its-own-steps-key"),
            pytest.param([_report_frame()], id="weights-before-hello"),
            pytest.param([_HELLO_0, _HELLO_0], id="second-hello"),
            pytest.param([_frame(MSG_HELLO, 0, b"\x00")], id="hello-with-payload"),
            pytest.param([_frame(MSG_HELLO, 7)], id="unknown-trainer"),
            pytest.param([_HELLO_0, _report_frame(trainer=1)], id="switches-trainer"),
            pytest.param([_HELLO_0, _frame(MSG_WEIGHTS, 0, b"junk")], id="bad-weights"),
            pytest.param([_HELLO_0, _frame(99, 0)], id="unknown-frame-type"),
            pytest.param(
                [_HELLO_0, _report_frame({n: t for n, t in _TINY_W.items() if n != "enc0.ln.gain"})],
                id="wrong-tensors",
            ),
            pytest.param(
                [_HELLO_0, _report_frame(tensors={**_TINY_W.tensors, "enc0.ln.gain": np.ones((2, 2))})],
                id="reshaped-tensor",
            ),
            pytest.param([_HELLO_0, _report_frame(trailing=b"junk" * 1000)], id="trailing-bytes"),
        ],
    )
    def test_bad_trainer_peer_is_hung_up_on(self, monkeypatch, frames):
        errors = []
        monkeypatch.setattr(threading, "excepthook", errors.append)
        before = set(threading.enumerate())
        coord = TcpCoordinator([0, 1], TINY).start()
        try:
            with socket.create_connection(coord.address, timeout=1.0) as peer:
                peer.sendall(b"".join(frames))
                assert peer.recv(1) == b""  # EOF within the 1 s timeout
            # only a HELLO claims an id, and only the claimed trainer is dropped
            claimed = [0] if frames[0] == _HELLO_0 else []
            assert _available(coord.joined) == claimed
            for i in claimed:
                with pytest.raises(ChannelClosed):
                    coord.recv_weights(i, timeout=1.0)
            with pytest.raises(ChannelTimeout):
                coord.recv_weights(1, timeout=0.01)
        finally:
            coord.close()
            for thread in set(threading.enumerate()) - before:
                thread.join(1.0)
                assert not thread.is_alive()
        assert errors == []

    def test_close_hangs_up_a_connection_before_its_hello(self):
        coord = TcpCoordinator([0], TINY).start()
        try:
            with socket.create_connection(coord.address, timeout=1.0) as peer:
                _wait_for(lambda: coord._accepted)
                coord.close()
                assert peer.recv(1) == b""  # EOF within the 1 s timeout
        finally:
            coord.close()

    def test_second_claim_of_a_trainer_id_is_refused(self):
        coord = TcpCoordinator([0], TINY).start()
        first = TcpTrainerEndpoint(coord.address, 0, TINY)
        try:
            assert coord.joined.get(timeout=2.0) == 0
            with socket.create_connection(coord.address, timeout=1.0) as intruder:
                intruder.sendall(_HELLO_0)
                assert intruder.recv(1) == b""
            assert _available(coord.joined) == []
            coord.kv_set("agg", True)
            _wait_for(lambda: first.kv_get("agg") is True)
            first.send_weights(0, _TINY_W, 1, 0.5)
            assert coord.recv_weights(0, timeout=2.0)[0] == 0
        finally:
            first.close()
            coord.close()

    def test_kv_set_skips_a_closed_trainer(self):
        coord = TcpCoordinator([0, 1], TINY).start()
        eps = [TcpTrainerEndpoint(coord.address, i, TINY) for i in (0, 1)]
        try:
            assert sorted(coord.joined.get(timeout=2.0) for _ in eps) == [0, 1]
            eps[0].close()
            with pytest.raises(ChannelClosed):
                coord.recv_weights(0, timeout=1.0)
            coord.kv_set("agg", True)
            coord.kv_set("stop", False)
            _wait_for(lambda: eps[1].kv_get("agg") is True and eps[1].kv_get("stop") is False)
        finally:
            for ep in eps:
                ep.close()
            coord.close()

    def test_trainer_that_dies_after_sending_is_dropped(self):
        train, x, y, splits = make_dataset(seed=18, n=120)
        specs = make_specs(train, x, 2, step_time=0.0)
        cfg = RunConfig(
            model=small_model(x), train_budget=1.0, agg_interval=0.2,
            batch_size=8, fanouts=(2, 2),
        )
        w = init_weights(cfg.model)
        coord = TcpCoordinator([0, 1], cfg.model).start()
        evaluator = _InlineEvaluator(lambda *_: 0.5)
        box = {}
        server = threading.Thread(
            target=lambda: box.update(
                result=run_server(cfg, coord, w, RealClock(), evaluator, evaluator)
            ),
            daemon=True,
        )
        other = threading.Thread(
            target=run_trainer,
            args=(specs[1], cfg, TcpTrainerEndpoint(coord.address, 1, cfg.model), RealClock(),
                  TrainerLog(trainer_id=1)),
            daemon=True,
        )
        dying = TcpTrainerEndpoint(coord.address, 0, cfg.model)
        try:
            for thread in [server, other]:
                thread.start()
            assert dying.recv_global(timeout=2.0)[0] == 0
            _wait_for(lambda: dying.kv_get("agg") is True)
            dying.send_weights(0, w, 0, math.nan)
            dying.close()  # gone before this round's global weights reach it
            server.join(5.0)
            assert not server.is_alive()
        finally:
            coord.close()
        assert box["result"].live_ids == [1]
        assert box["result"].rounds >= 2

    def test_weights_frame_carries_the_report(self):
        coord = TcpCoordinator([0], TINY).start()
        ep = TcpTrainerEndpoint(coord.address, 0, TINY)
        try:
            ep.send_weights(3, _TINY_W, 7, 0.25)
            tag, got, steps, loss = coord.recv_weights(0, timeout=2.0)
            assert (tag, steps, loss) == (3, 7, 0.25)
            assert list(got.tensors) == list(_TINY_W.tensors)
            for name, tensor in _TINY_W.items():
                assert np.array_equal(got[name], tensor.astype(np.float32))
            # flags are booleans; anything else is refused before it is sent
            with pytest.raises(TransportError, match="bool"):
                coord.kv_set("agg", None)
        finally:
            ep.close()
            coord.close()

    def test_trainer_stops_when_the_server_goes(self):
        coord = TcpCoordinator([0], TINY).start()
        ep = TcpTrainerEndpoint(coord.address, 0, TINY)
        try:
            assert coord.joined.get(timeout=2.0) == 0
            coord.kv_set("stop", False)
            _wait_for(lambda: ep.kv_get("stop") is False)
            coord.close()
            _wait_for(lambda: ep.kv_get("stop") is True)
            with pytest.raises(ChannelClosed):
                ep.recv_global(timeout=1.0)
        finally:
            ep.close()
            coord.close()

    @pytest.mark.parametrize(
        "frame",
        [
            pytest.param(_frame(MSG_KV_SET, 0, b"agg\x00F\x00"), id="short-kv-value"),
            pytest.param(_frame(transport.MSG_GLOBAL_WEIGHTS, 0, b"junk"), id="bad-weights"),
            pytest.param(
                _frame(transport.MSG_GLOBAL_WEIGHTS, 0, weights_to_bytes(_TINY_W) + b"junk"),
                id="trailing-bytes",
            ),
            pytest.param(_frame(MSG_WEIGHTS, 0), id="unexpected-frame-type"),
        ],
    )
    def test_bad_server_frame_stops_the_trainer(self, monkeypatch, frame):
        errors = []
        monkeypatch.setattr(threading, "excepthook", errors.append)
        with socket.create_server(("127.0.0.1", 0)) as listener:
            ep = TcpTrainerEndpoint(listener.getsockname(), 0, TINY)
            server, _ = listener.accept()
            with server:
                server.settimeout(1.0)
                assert recv_frame(server) == (MSG_HELLO, 0, 0, b"")
                server.sendall(frame)
                assert server.recv(1) == b""
            assert ep.kv_get("stop") is True
            with pytest.raises(ChannelClosed):
                ep.recv_global(timeout=1.0)
            ep.close()
        assert errors == []

    def test_tcp_rejected_under_sim(self):
        train, x, y, splits = make_dataset(seed=17, n=120)
        specs = make_specs(train, x, 2)
        cfg = RunConfig(
            model=small_model(x), train_budget=1.0, agg_interval=0.3,
            batch_size=8, fanouts=(2, 2),
        )
        with pytest.raises(ProtocolError):
            run_training(cfg, specs, train, x, splits, runtime="sim", transport="tcp")


def _tcp_training(seed=19):
    train, x, y, splits = make_dataset(seed=seed, n=120)
    specs = make_specs(train, x, 2, step_time=0.0)
    cfg = RunConfig(
        model=small_model(x), train_budget=1.2, agg_interval=0.3,
        batch_size=8, fanouts=(2, 2),
    )
    return lambda: run_training(cfg, specs, train, x, splits, runtime="threads", transport="tcp")


def _trainer_that(monkeypatch, trainer_id, act, after_steps=5):
    """Make one trainer's step run ``act()`` after some steps, in the process
    that steps its model: a TCP trainer's own, or the sim's step child."""
    real_step = coordination._LocalModel.step
    taken = [0]  # a forked process counts in its own copy

    def step(model):
        if model._spec.trainer_id == trainer_id:
            taken[0] += 1
            if taken[0] == after_steps:
                act()
        return real_step(model)

    monkeypatch.setattr(coordination._LocalModel, "step", step)


def _stepping_run(kind):
    """A training whose trainers step in forked processes: TCP trainers, or
    the sim's step children (given two CPUs)."""
    return _tcp_training() if kind == "tcp" else lambda: run_training(*_training())


STEPPING_RUNS = ["tcp", "sim"]


class TestTcpTrainerProcesses:
    """TCP trainers are forked processes; none outlives run_training."""

    def test_logs_come_back_from_the_processes(self):
        t0 = time.monotonic()
        res = _tcp_training()()
        t1 = time.monotonic()
        assert sorted(res.trainer_logs) == [0, 1]
        for log in res.trainer_logs.values():
            assert log.steps > 0
            assert len(log.step_times) == log.steps
            assert log.step_times == sorted(log.step_times)
            # CLOCK_MONOTONIC is system-wide: a child's stamps fall inside this call
            assert t0 <= log.step_times[0] and log.step_times[-1] <= t1
            assert [r for r, _ in log.send_rounds] == list(range(res.rounds))
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("kind", STEPPING_RUNS)
    def test_a_trainer_error_is_raised(self, monkeypatch, two_cpus, kind):
        def fail():
            raise ValueError("trainer 1 broke")

        _trainer_that(monkeypatch, 1, fail)
        with pytest.raises(ValueError, match="^trainer 1 broke$"):
            _stepping_run(kind)()
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("kind", STEPPING_RUNS)
    def test_a_killed_trainer_is_named(self, monkeypatch, two_cpus, kind):
        _trainer_that(monkeypatch, 0, lambda: os.kill(os.getpid(), signal.SIGKILL))
        with pytest.raises(ProtocolError, match=r"trainer 0 exited with code -9 without reporting"):
            _stepping_run(kind)()
        assert multiprocessing.active_children() == []

    def test_a_trainer_that_does_not_exit_is_killed(self, monkeypatch):
        real_run_trainer = coordination.run_trainer

        def run_trainer(spec, cfg, endpoint, clock, log, model=None):
            real_run_trainer(spec, cfg, endpoint, clock, log, model)
            if spec.trainer_id == 1:
                time.sleep(30)  # stopped, but never reports

        monkeypatch.setattr(coordination, "run_trainer", run_trainer)
        monkeypatch.setattr(coordination, "CHILD_EXIT_TIMEOUT", 0.5)
        with pytest.raises(ProtocolError, match=r"trainer 1 exited with code -9 without reporting"):
            _tcp_training()()
        assert multiprocessing.active_children() == []

    def test_a_server_error_is_raised_and_the_trainers_stop(self, monkeypatch):
        def aggregate_average(weight_sets):
            raise ProtocolError("aggregation broke")

        monkeypatch.setattr(coordination, "aggregate_average", aggregate_average)
        t0 = time.monotonic()
        with pytest.raises(ProtocolError, match="aggregation broke"):
            _tcp_training()()
        # the trainers saw the server hang up; none waited out the exit timeout
        assert time.monotonic() - t0 < coordination.CHILD_EXIT_TIMEOUT
        assert multiprocessing.active_children() == []


def _training(runtime="sim", transport="inproc", mode="tma", seed=21):
    """A small training's arguments: 2 virtual s under the sim, 1.2 real s
    under the thread runtime."""
    train, x, y, splits = make_dataset(seed=seed, n=120)
    sim = runtime == "sim"
    specs = make_specs(train, x, 2, step_time=0.1 if sim else 0.0)
    cfg = RunConfig(
        model=small_model(x), mode=mode, train_budget=2.0 if sim else 1.2,
        agg_interval=0.5 if sim else 0.3, batch_size=8, fanouts=(2, 2),
    )
    return (cfg, specs, train, x, splits, runtime, transport)


RUNTIMES = [
    pytest.param("sim", "inproc", id="sim"),
    pytest.param("threads", "inproc", id="threads"),
    pytest.param("threads", "tcp", id="tcp"),
]


class TestEvaluatorProcess:
    """Every training scores its rounds in a forked evaluator process; none
    outlives run_training."""

    @pytest.mark.parametrize(
        "runtime, transport, mode",
        [
            pytest.param("sim", "inproc", "tma", id="sim-tma"),
            pytest.param("sim", "inproc", "ggs", id="sim-ggs"),
            pytest.param("threads", "inproc", "tma", id="threads-tma"),
            pytest.param("threads", "inproc", "ggs", id="threads-ggs"),
            pytest.param("threads", "tcp", "tma", id="tcp-tma"),
        ],
    )
    def test_scores_match_an_eval_in_this_process(self, runtime, transport, mode):
        cfg, specs, train, x, splits, *_ = args = _training(runtime, transport, mode)
        res = run_training(*args)
        val = evaluate(res.best_weights, cfg.model, train, x, splits, "val").mrr
        test = evaluate(res.best_weights, cfg.model, train, x, splits, "test").mrr
        assert (res.best_val_mrr, res.test_mrr) == (val, test)
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("mode", ["tma", "ggs"])
    def test_same_seed_runs_are_identical(self, mode):
        a, b = (run_training(*_training(mode=mode)) for _ in range(2))
        assert a.metrics == b.metrics
        assert a.round_times == b.round_times
        assert {i: log.steps for i, log in a.trainer_logs.items()} == {
            i: log.steps for i, log in b.trainer_logs.items()
        }
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("runtime, transport", RUNTIMES)
    def test_an_eval_error_is_raised(self, monkeypatch, runtime, transport):
        def evaluate(*args):
            raise ValueError("eval broke")

        monkeypatch.setattr(coordination, "evaluate", evaluate)
        with pytest.raises(ValueError, match="^eval broke$"):
            run_training(*_training(runtime, transport))
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("runtime, transport", RUNTIMES)
    def test_a_killed_evaluator_is_named(self, monkeypatch, runtime, transport):
        monkeypatch.setattr(coordination, "evaluate", lambda *args: os.kill(os.getpid(), signal.SIGKILL))
        t0 = time.monotonic()
        with pytest.raises(ProtocolError, match=r"evaluator exited with code -9 without reporting"):
            run_training(*_training(runtime, transport))
        assert time.monotonic() - t0 < coordination.CHILD_EXIT_TIMEOUT
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("runtime, transport", RUNTIMES)
    def test_a_server_error_stops_the_evaluator(self, monkeypatch, runtime, transport):
        def aggregate_average(weight_sets):
            raise ProtocolError("aggregation broke")

        monkeypatch.setattr(coordination, "aggregate_average", aggregate_average)
        t0 = time.monotonic()
        with pytest.raises(ProtocolError, match="aggregation broke"):
            run_training(*_training(runtime, transport))
        assert time.monotonic() - t0 < coordination.CHILD_EXIT_TIMEOUT
        assert multiprocessing.active_children() == []

    def test_a_slow_eval_holds_up_no_real_clock_round(self, monkeypatch):
        eval_s = 0.5
        real_evaluate = coordination.evaluate

        def evaluate(*args):
            time.sleep(eval_s)
            return real_evaluate(*args)

        monkeypatch.setattr(coordination, "evaluate", evaluate)
        monkeypatch.setattr(coordination, "EVAL_QUEUE_LIMIT", 2)
        cfg, *rest = _training("threads")
        res = run_training(dataclasses.replace(cfg, train_budget=1.5, agg_interval=0.1), *rest)
        # rounds close every agg_interval, not every eval
        assert res.rounds >= 8
        gaps = np.diff([0.0, *res.round_times])
        assert gaps.max() < eval_s
        # a round closed with two evaluations in flight stays unscored
        val = [r.mrr for r in res.metrics if r.split == "val"]
        scored = [mrr for mrr in val if not math.isnan(mrr)]
        assert 2 <= len(scored) <= 2 + res.round_times[-1] / eval_s + 1
        assert math.isnan(val[2])
        assert res.best_val_mrr == max(scored)
        assert multiprocessing.active_children() == []

    # a job is ~9.8 kB at hidden 32, ~35 kB at 64 and ~135 kB at 128: a pipe
    # buffer holds about 21, 6 and 0 of them
    @pytest.mark.parametrize("hidden", [32, 64, 128])
    def test_queued_jobs_do_not_block_the_round_loop(self, hidden):
        # desk10k's model at hidden 32: two encoder and two decoder layers
        model = ModelConfig(
            in_dim=2, encoder="gcn", layers=2, hidden_dim=hidden, decoder_layers=2
        )
        weights = init_weights(model)
        assert len(pickle.dumps(("val", 1, weights))) > 9000
        evaluator = coordination._Child("evaluator", coordination._serve, lambda *_: time.sleep(2.0))
        try:
            t0 = time.monotonic()
            for t in range(coordination.EVAL_QUEUE_LIMIT):
                evaluator.put(("val", t, weights))
            assert time.monotonic() - t0 < 0.5
        finally:
            evaluator.kill()
        assert multiprocessing.active_children() == []


def record_forks(monkeypatch) -> list:
    """Append ``(name, live threads)`` to the list returned at each ``_Child`` fork."""
    forks = []
    real_init = coordination._Child.__init__

    def init(child, name, *args, **kwargs):
        forks.append((name, set(threading.enumerate())))
        real_init(child, name, *args, **kwargs)

    monkeypatch.setattr(coordination._Child, "__init__", init)
    return forks


class TestForkedProcesses:
    """What run_training sets up before it forks its children."""

    @pytest.mark.parametrize("runtime, transport", RUNTIMES)
    def test_no_thread_starts_before_a_fork(self, monkeypatch, two_cpus, runtime, transport):
        threads_at_fork = record_forks(monkeypatch)
        entered = set(threading.enumerate())
        run_training(*_training(runtime, transport))
        names = [name for name, _ in threads_at_fork]
        # TCP trainers and the sim's step children are forked; thread trainers are not
        trainers = ["trainer 0", "trainer 1"] if runtime == "sim" or transport == "tcp" else []
        assert names == [*trainers, "evaluator"]
        for name, threads in threads_at_fork:
            assert threads <= entered, name
        assert multiprocessing.active_children() == []

    def test_one_cpu_steps_in_process_and_matches_two(self, monkeypatch):
        forks = record_forks(monkeypatch)
        cfg, (fast, slow), *rest = _training()
        args = (cfg, [fast, dataclasses.replace(slow, step_time=0.3)], *rest)
        runs = {}
        for cpus in ({0}, {0, 1}):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cpus=cpus: cpus)
            forks.clear()
            runs[len(cpus)] = run_training(*args), [name for name, _ in forks]
        (one, one_forked), (two, two_forked) = runs[1], runs[2]
        assert one_forked == ["evaluator"]
        assert two_forked == ["trainer 0", "trainer 1", "evaluator"]
        assert [repr(r.mrr) for r in one.metrics] == [repr(r.mrr) for r in two.metrics]
        assert one.metrics == two.metrics
        assert one.round_times == two.round_times
        assert weights_to_bytes(one.best_weights) == weights_to_bytes(two.best_weights)
        assert_same_logs(one, two)

    def test_a_closed_child_exits_while_a_younger_one_runs(self):
        # the younger child must not hold the parent's end of the older one's pipe
        older = coordination._Child("older", coordination._serve, lambda: None)
        younger = coordination._Child("younger", coordination._serve, lambda: None)
        try:
            older.close()
            older.process.join(1.0)
            assert older.process.exitcode == 0
            assert younger.process.is_alive()
        finally:
            older.kill()
            younger.kill()
        assert multiprocessing.active_children() == []

    def test_blas_is_pinned_once_before_the_forks(self, monkeypatch):
        count, sets = [2], []

        def set_threads(n):
            sets.append(n)
            count[0] = n

        monkeypatch.setattr(runtime, "_openblas", lambda: (lambda: count[0], set_threads))

        def pinned(fn):
            def check(*args):
                if count[0] != 1:
                    raise AssertionError(f"BLAS count {count[0]} in a child")
                return fn(*args)

            return check

        monkeypatch.setattr(coordination, "run_trainer", pinned(coordination.run_trainer))
        monkeypatch.setattr(coordination, "evaluate", pinned(coordination.evaluate))
        res = _tcp_training()()
        assert sets == [1, 2]
        assert sorted(res.trainer_logs) == [0, 1]
        assert multiprocessing.active_children() == []


@pytest.mark.parametrize("timeout", [0.0, -1.0, math.nan])
def test_readiness_timeout_must_be_positive(timeout):
    with pytest.raises(ProtocolError, match="readiness_timeout"):
        RunConfig(model=TINY, train_budget=2.0, agg_interval=1.0, readiness_timeout=timeout)


def test_config_validation():
    cfg_model = ModelConfig(in_dim=2, hidden_dim=4)
    with pytest.raises(ProtocolError):
        RunConfig(model=cfg_model, train_budget=1.0, agg_interval=2.0)
    with pytest.raises(ProtocolError):
        RunConfig(model=cfg_model, train_budget=1.0, agg_interval=0.5, mode="other")
