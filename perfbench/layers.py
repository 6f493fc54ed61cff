"""Per-layer metrics of the traced run.

``instrument`` installs the spans and counters of ``tracer.Tracer`` on
the ``tma`` modules; ``per_layer_metrics`` turns the recorded spans, plus
the ``RunResult`` of each training, into the metrics that BENCHMARK.json
lists under ``per_layer``. Layer names are the ``tma`` module names.

Percentiles pool every call of every training in the run. Counts and
busy times are per training (``run_training`` call). A layer that does
not run on a workload reports 0: ``sim-ggs`` has no trainer actors,
aggregation, server polling or transport, and only ``real-tcp``
serialises weights.
"""

from __future__ import annotations

import statistics

import numpy as np

from tracer import Tracer

SETUP_SPANS = {
    "tma.graph:generate_synthetic": "graph.generate",
    "tma.graph:build_splits": "graph.split",
    "tma.cli:partition_random_node": "partition.partition",
    "tma.cli:partition_super_node": "partition.partition",
    "tma.cli:partition_min_cut": "partition.partition",
    "tma.partition:induce_subgraphs": "partition.induce",
    **{
        f"tma.fileio:{verb}_{kind}": f"fileio.{verb}"
        for verb in ("save", "load")
        for kind in ("graph", "features", "labels", "splits", "partition")
    },
}


def _sample_attrs(args, kwargs, batch):
    return {"input_nodes": len(batch.mfg.input_nodes), "graph_nodes": args[0].num_nodes}


def _eval_attrs(args, kwargs, result):
    return {"split": result.split, "round": result.round}


def _pairs(args, kwargs, scores):
    return {"pairs": len(scores)}


def _size(args, kwargs, data):
    return {"bytes": len(data)}


def _frame_bytes(args, kwargs, result):
    payload = args[4] if len(args) > 4 else kwargs.get("payload", b"")
    return {"bytes": 11 + len(payload)}  # u32 length prefix + 7-byte header


TRAIN_SPANS = {
    "tma.coordination:sample_minibatch": ("sampling.sample", _sample_attrs),
    "tma.nn:link_step": ("nn.link_step", None),
    "tma.nn:link_loss_and_grads": ("nn.link_loss_and_grads", None),
    "tma.nn:encode_with_tape": ("nn.encode_fwd", None),
    "tma.nn:encode_backward": ("nn.encode_bwd", None),
    "tma.nn:decode_with_tape": ("nn.decode_fwd", None),
    "tma.nn:decode_backward": ("nn.decode_bwd", None),
    "tma.nn:adam_step": ("nn.adam", None),
    "tma.coordination:aggregate_average": ("nn.aggregate_average", None),
    "tma.transport:weights_to_bytes": ("nn.weights_to_bytes", _size),
    "tma.transport:weights_from_bytes": ("nn.weights_from_bytes", None),
    "tma.coordination:evaluate": ("evaluate.eval", _eval_attrs),
    "tma.evaluate:encode": ("evaluate.encode", None),
    "tma.evaluate:decode": ("evaluate.decode", _pairs),
    "tma.transport:InProcTrainerEndpoint.kv_get": ("transport.kv_get", None),
    "tma.transport:TcpTrainerEndpoint.kv_get": ("transport.kv_get", None),
    "tma.transport:InProcTrainerEndpoint.send_weights": ("transport.send_weights", None),
    "tma.transport:TcpTrainerEndpoint.send_weights": ("transport.send_weights", None),
    "tma.transport:send_frame": ("transport.send_frame", _frame_bytes),
}

COUNTED = {
    "tma.runtime:SimClock.sleep": "runtime.sleep",
    "tma.runtime:RealClock.sleep": "runtime.sleep",
}

# positional index of the eval_jobs channel in the server loops' signatures
EVAL_JOBS_ARG = {"tma.coordination:run_server": 4, "tma.coordination:run_ggs": 6}


class _EnqueueRecorder:
    """Stands in for the eval job channel and marks when each job is queued."""

    def __init__(self, channel, tracer: Tracer):
        self._channel = channel
        self._tracer = tracer

    def put(self, item) -> None:
        split, round_t, _ = item
        self._tracer.event("coordination.eval_enqueue", split=split, round=round_t)
        self._channel.put(item)


def instrument(tracer: Tracer) -> None:
    for target, name in SETUP_SPANS.items():
        tracer.patch(target, lambda fn, name=name: tracer.wrap(fn, name))
    for target, (name, annotate) in TRAIN_SPANS.items():
        tracer.patch(target, lambda fn, n=name, a=annotate: tracer.wrap(fn, n, a))
    for target, name in COUNTED.items():
        tracer.patch(target, lambda fn, name=name: tracer.counted(fn, name))
    for target, index in EVAL_JOBS_ARG.items():

        def recording(fn, index=index):
            def run(*args):
                args = list(args)
                args[index] = _EnqueueRecorder(args[index], tracer)
                return fn(*args)

            return run

        tracer.patch(target, recording)


# ---------------------------------------------------------------------------
# metrics


def _ms(spans) -> list[float]:
    return [(s.end - s.start) * 1e3 for s in spans]


def _pct(values, q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


def _median(values) -> float:
    return float(statistics.median(values)) if len(values) else 0.0


def _timing(out: dict, name: str, values) -> None:
    out[f"{name}.p50"] = _pct(values, 50)
    out[f"{name}.p90"] = _pct(values, 90)


def barrier_waits_s(log, step_time: float) -> list[float]:
    """Seconds each send of the trainer waited for the next global weights.

    ``TrainerLog.step_times`` stamps the end of every local step and
    ``send_rounds`` the moment weights went out. The gap from a send to
    the next step end is the wait plus one step's compute; the compute is
    the median gap between plain steps less the ``step_time`` sleep, which
    falls before the send.
    """
    steps = np.asarray(log.step_times, dtype=np.float64)
    sends = np.asarray([wall for _, wall in log.send_rounds], dtype=np.float64)
    if len(steps) < 2 or len(sends) == 0:
        return []
    after = np.searchsorted(steps, sends, side="left")
    gaps = np.diff(steps)
    sync_gaps = set((after - 1).tolist())
    plain = [g for j, g in enumerate(gaps) if j not in sync_gaps]
    compute = max(0.0, (statistics.median(plain) if plain else 0.0) - step_time)
    return [
        max(0.0, steps[i] - send - compute)
        for i, send in zip(after, sends)
        if i < len(steps)
    ]


def per_layer_metrics(tracer: Tracer, trainings, interval: float, step_time: float) -> dict:
    """``trainings``: list of (start, end, RunResult) per ``run_training`` call."""
    spans = tracer.spans
    n_runs = max(1, len(trainings))
    out: dict[str, float] = {}

    # set-up layers: per set-up repetition, then the median over repetitions
    per_rep = {i: {} for i, s in enumerate(spans) if s.name == "bench.setup"}
    for i, s in enumerate(spans):
        root = tracer.root(i)
        if s.name in SETUP_SPANS.values() and root in per_rep:
            rep = per_rep[root]
            rep[s.name] = rep.get(s.name, 0.0) + (s.end - s.start)
    for name in ("graph.generate", "graph.split", "partition.partition",
                 "partition.induce", "fileio.save", "fileio.load"):
        out[f"{name}_s"] = _median([rep.get(name, 0.0) for rep in per_rep.values()])

    def named(name):
        return [s for s in spans if s.name == name]

    def under(index, names):
        return any(a.name in names for a in tracer.ancestors(index))

    # sampling
    sample = named("sampling.sample")
    _timing(out, "sampling.sample_ms", _ms(sample))
    out["sampling.calls"] = len(sample) / n_runs
    out["sampling.busy_s"] = sum(s.end - s.start for s in sample) / n_runs
    out["sampling.input_nodes.p50"] = _pct([s.attrs["input_nodes"] for s in sample], 50)
    out["sampling.frontier_frac.p50"] = _pct(
        [s.attrs["input_nodes"] / s.attrs["graph_nodes"] for s in sample], 50
    )

    # nn, training path: everything outside evaluate
    train_nn = {
        name: [s for i, s in enumerate(spans) if s.name == name and not under(i, {"evaluate.eval"})]
        for name in ("nn.link_step", "nn.link_loss_and_grads", "nn.encode_fwd",
                     "nn.encode_bwd", "nn.decode_fwd", "nn.decode_bwd", "nn.adam")
    }
    for name, group in train_nn.items():
        _timing(out, f"{name}_ms", _ms(group))
    outermost = [
        s for i, s in enumerate(spans)
        if s.name in train_nn and not any(a.name.startswith(("nn.", "evaluate.")) for a in tracer.ancestors(i))
    ]
    out["nn.busy_s"] = sum(s.end - s.start for s in outermost) / n_runs

    # nn, round path
    out["nn.aggregate_average_ms"] = _median(_ms(named("nn.aggregate_average")))
    to_bytes = named("nn.weights_to_bytes")
    out["nn.weights_to_bytes_ms"] = _median(_ms(to_bytes))
    out["nn.weights_from_bytes_ms"] = _median(_ms(named("nn.weights_from_bytes")))
    out["nn.weights_bytes"] = _median([s.attrs["bytes"] for s in to_bytes])

    # evaluate
    evals = [(i, s) for i, s in enumerate(spans) if s.name == "evaluate.eval"]
    kids = tracer.children()
    out["evaluate.eval_ms.p50"] = _pct(_ms(s for _, s in evals), 50)
    out["evaluate.calls"] = len(evals) / n_runs
    out["evaluate.encode_ms"] = _median(_ms(named("evaluate.encode")))
    decode_per_eval = [
        sum((spans[k].end - spans[k].start) * 1e3 for k in kids[i] if spans[k].name == "evaluate.decode")
        for i, _ in evals
    ]
    out["evaluate.decode_ms"] = _median(decode_per_eval)
    out["evaluate.pairs_scored"] = sum(s.attrs["pairs"] for s in named("evaluate.decode")) / n_runs
    out["evaluate.busy_s"] = sum(s.end - s.start for _, s in evals) / n_runs

    # coordination: rounds, overrun and barrier waits from each RunResult;
    # eval lag from the enqueue marks to the end of the matching evaluation
    overruns, waits = [], []
    steps = 0
    for _, _, result in trainings:
        bounds = [0.0] + list(result.round_times)
        overruns += [(b - a - interval) * 1e3 for a, b in zip(bounds, bounds[1:])]
        for log in result.trainer_logs.values():
            steps += log.steps
            waits += [w * 1e3 for w in barrier_waits_s(log, step_time)]
    out["coordination.rounds"] = sum(r.rounds for _, _, r in trainings) / n_runs
    out["coordination.round_overrun_ms"] = _median(overruns)
    out["coordination.barrier_wait_ms"] = _median(waits)
    lags = []
    for start, end, _ in trainings:
        queued = {}
        for s in spans:
            if not start <= s.start <= end:
                continue
            if s.name == "coordination.eval_enqueue":
                queued[(s.attrs["split"], s.attrs["round"])] = s.start
            elif s.name == "evaluate.eval" and s.attrs.get("split") == "val":
                key = ("val", s.attrs["round"])
                if key in queued:
                    lags.append((s.end - queued.pop(key)) * 1e3)
    out["coordination.eval_lag_ms"] = _median(lags)

    # runtime: sleeps per actor role
    counts = tracer.counts
    server_sleeps = counts[("runtime.sleep", "server")]
    out["runtime.server_sleeps"] = server_sleeps / n_runs
    out["runtime.trainer_sleeps"] = (
        counts[("runtime.sleep", "trainer")] + counts[("runtime.sleep", "ggs")]
    ) / n_runs
    tma_steps = steps if named("nn.link_step") else 0
    out["runtime.server_sleeps_per_step"] = server_sleeps / tma_steps if tma_steps else 0.0

    # transport: trainer-side endpoint calls and bytes on the wire
    kv = named("transport.kv_get")
    out["transport.kv_get_calls"] = len(kv) / n_runs
    out["transport.kv_get_per_step"] = len(kv) / tma_steps if tma_steps else 0.0
    _timing(out, "transport.kv_get_ms", _ms(kv))
    out["transport.bytes_sent"] = sum(s.attrs["bytes"] for s in named("transport.send_frame")) / n_runs
    out["transport.send_weights_ms"] = _median(_ms(named("transport.send_weights")))

    return out
