"""Benchmark of the ``tma`` training system.

    python3 perfbench/run.py --workload sim-tma --seed 7 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 7 --seconds 40

Run from the root of a checkout. One process measures one workload
(``--workload all`` runs each workload untraced and traced, each in a
fresh process, and prints the tracing overhead):

1. set-up (generate, split, partition, induce, with every artifact saved
   and loaded through ``tma.fileio``) runs ``SETUP_REPS`` times;
2. ``run_training`` is called on the same inputs until ``--seconds`` is
   used up, at least ``min_runs`` times, with one more set-up after each;
3. every training's output is checked, and a failed check makes the
   command exit 1.

The last line of standard output is one JSON object: ``correct``,
``attempted`` and ``failed`` count trainings, and ``metrics`` holds the
end-to-end metrics (``--trace 0``) or the per-layer metrics of the
traced run (``--trace 1``), named as in BENCHMARK.json. Traced runs also
save their spans under ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
sys.path.insert(0, os.path.join(ROOT, "src"))

SETUP_REPS = 3

try:
    from tma.coordination import run_training
except ImportError as exc:  # not a checkout of the program
    print(f"error: cannot import tma from {ROOT}/src: {exc}", file=sys.stderr)
    sys.exit(2)

import layers  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402


def benchmark_units(section: str) -> dict:
    """Metric name -> unit for one section of BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return {m["name"]: m["unit"] for m in json.load(f)[section]}


@dataclass
class Training:
    start: float
    end: float
    result: object  # RunResult, or None when run_training raised
    problems: list

    @property
    def wall(self) -> float:
        return self.end - self.start

    @property
    def steps(self) -> int:
        return sum(log.steps for log in self.result.trainer_logs.values())


def check(cfg, workload, specs, result, first) -> list[str]:
    """Problems with one training's output; empty when it is correct."""
    problems = []
    ids = sorted(s.trainer_id for s in specs)
    if sorted(result.live_ids) != ids:
        problems.append(f"trainers {sorted(set(ids) - set(result.live_ids))} dropped")
    idle = [i for i, log in result.trainer_logs.items() if log.steps == 0]
    if idle:
        problems.append(f"trainers {idle} made no step")
    steps = sum(log.steps for log in result.trainer_logs.values())
    if workload.simulated:
        want_steps, want_rounds = workloads.predicted_counts(cfg)
        if (steps, result.rounds) != (want_steps, want_rounds):
            problems.append(
                f"steps/rounds {steps}/{result.rounds}, sim clock predicts "
                f"{want_steps}/{want_rounds}"
            )
        if first is not None and (result.best_val_mrr, result.test_mrr) != (
            first.best_val_mrr, first.test_mrr
        ):
            problems.append(
                f"same seed, different MRR: {result.best_val_mrr!r}/{result.test_mrr!r} "
                f"vs {first.best_val_mrr!r}/{first.test_mrr!r}"
            )
    elif not 1 <= result.rounds <= cfg.budget // cfg.interval:
        problems.append(f"{result.rounds} rounds in a {cfg.budget} s budget")
    floor = workloads.random_mrr(cfg.negatives)
    for name in ("best_val_mrr", "test_mrr"):
        value = getattr(result, name)
        if not (math.isfinite(value) and value > floor):
            problems.append(f"{name}={value!r} not above the random floor {floor:.4f}")
    return problems


def measure(workload, cfg, seconds: float, tracer: Tracer | None):
    """Set up SETUP_REPS times, then train until ``seconds`` are used.

    One more set-up follows every training, so that the set-up samples
    spread over the whole window, like the trainings, instead of sharing
    the machine's state of its first second.
    """
    traced = tracer.span if tracer else lambda name: contextlib.nullcontext()
    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=OUT_DIR)
    setup_s = []

    def set_up():
        rep_dir = os.path.join(workdir, str(len(setup_s)))
        os.mkdir(rep_dir)
        t0 = time.perf_counter()
        with traced("bench.setup"):
            inputs = workloads.setup(cfg, rep_dir)
        setup_s.append(time.perf_counter() - t0)
        shutil.rmtree(rep_dir)
        return inputs

    try:
        for _ in range(SETUP_REPS):
            train_graph, features, splits, specs = set_up()
        run_cfg = workloads.run_config(cfg, features.shape[1])
        runtime = "sim" if workload.simulated else "threads"
        trainings: list[Training] = []
        first = None
        window = time.perf_counter()
        while True:
            start = time.perf_counter()
            try:
                result = run_training(
                    run_cfg, specs, train_graph, features, splits,
                    runtime=runtime, transport=cfg.transport,
                )
                problems = check(cfg, workload, specs, result, first)
                first = first or result
            except Exception as exc:  # a raising run is a failed run, not a crash
                result, problems = None, [f"run_training raised {exc!r}"]
            trainings.append(Training(start, time.perf_counter(), result, problems))
            set_up()
            now = time.perf_counter()
            if len(trainings) >= workload.min_runs and now - window + (now - start) > seconds:
                return setup_s, trainings
    finally:
        shutil.rmtree(workdir)


def end_to_end(setup_s, trainings) -> dict:
    done = [t for t in trainings if t.result is not None]
    return {
        "setup_s": statistics.median(setup_s),
        "train_s": statistics.median(t.wall for t in done),
        "steps_per_s": statistics.median(t.steps / t.wall for t in done),
        "best_val_mrr": statistics.median(t.result.best_val_mrr for t in done),
        "test_mrr": statistics.median(t.result.test_mrr for t in done),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def as_metrics(values: dict, section: str) -> dict:
    """Values under exactly the names and units of a BENCHMARK.json section."""
    units = benchmark_units(section)
    if set(values) != set(units):
        raise KeyError(f"{section} metrics differ from BENCHMARK.json: {set(values) ^ set(units)}")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    return metrics


def run_one(args) -> int:
    workload = workloads.WORKLOADS[args.workload]
    cfg = workloads.build_config(workload, args.seed, args.smoke)
    tracer = Tracer() if args.trace else None
    if tracer:
        layers.instrument(tracer)
    try:
        setup_s, trainings = measure(workload, cfg, args.seconds, tracer)
    finally:
        if tracer:
            tracer.unpatch()

    failed = sum(1 for t in trainings if t.problems)
    print(f"workload={workload.name} seed={args.seed} trace={args.trace} smoke={args.smoke}")
    for n, t in enumerate(trainings, start=1):
        line = f"  training {n}: wall={t.wall:.3f}s"
        if t.result is not None:
            line += (
                f" steps={t.steps} rounds={t.result.rounds} "
                f"best_val_mrr={t.result.best_val_mrr:.6f} test_mrr={t.result.test_mrr:.6f}"
            )
        print(line + "".join(f"\n    FAILED: {p}" for p in t.problems))
    print(f"  failed_frac = {failed / len(trainings):g} ratio ({failed}/{len(trainings)} trainings)")

    metrics = {}
    if any(t.result is not None for t in trainings):
        e2e = end_to_end(setup_s, trainings)
        print("e2e " + json.dumps(e2e))
        metrics = as_metrics(e2e, "end_to_end")
        if tracer:
            done = [(t.start, t.end, t.result) for t in trainings if t.result is not None]
            metrics = as_metrics(
                layers.per_layer_metrics(tracer, done, cfg.interval, cfg.step_time_for(0)),
                "per_layer",
            )
            path = os.path.join(OUT_DIR, f"spans-{workload.name}-seed{args.seed}.json")
            tracer.write(path)
            print(f"  spans: {len(tracer.spans)} -> {os.path.relpath(path, ROOT)}")
    print(json.dumps(
        {"correct": failed == 0, "attempted": len(trainings), "failed": failed, "metrics": metrics},
        allow_nan=False,
    ))
    return 0 if failed == 0 else 1


def run_all(args) -> int:
    """Every workload untraced then traced, each in a fresh process."""
    status = 0
    rows = []
    for name in workloads.WORKLOADS:
        e2e = {}
        for trace in (0, 1):
            cmd = [
                sys.executable, os.path.abspath(__file__), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace),
            ] + (["--smoke"] if args.smoke else [])
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
            sys.stdout.write("".join(proc.stdout.splitlines(keepends=True)[:-1]))
            status = status or proc.returncode
            e2e[trace] = next(
                (json.loads(line[4:]) for line in proc.stdout.splitlines() if line.startswith("e2e ")),
                None,
            )
        rows.append((name, e2e))
    units = benchmark_units("end_to_end")
    print(f"\nend-to-end, untraced (seed {args.seed}):")
    for name, e2e in rows:
        if e2e[0]:
            print(f"  {name:9s} " + "  ".join(f"{k}={v:.6g} {units[k]}" for k, v in e2e[0].items()))
    print("tracing overhead (traced - untraced):")
    for name, e2e in rows:
        if e2e[0] and e2e[1]:
            d_train = e2e[1]["train_s"] - e2e[0]["train_s"]
            d_rate = e2e[1]["steps_per_s"] - e2e[0]["steps_per_s"]
            print(
                f"  {name:9s} train_s {d_train:+.3f} s ({d_train / e2e[0]['train_s']:+.1%})"
                f"  steps_per_s {d_rate:+.2f} 1/s ({d_rate / e2e[0]['steps_per_s']:+.1%})"
            )
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke", action="store_true",
        help="1,000-node graph and tiny budgets, for the benchmark's own test",
    )
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
