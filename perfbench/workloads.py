"""Workload definitions, set-up as the ``tma`` CLI does it, and the counts
the sim clock predicts.

Every workload starts from ``configs/desk10k.cfg`` and overrides a few
keys. The budgets are shorter than desk10k's 240 virtual seconds (4-6 s
of wall time per training), so that one measured window holds several
trainings: a median of several damps the machine's noise, and the sim
workloads need two for the same-seed determinism check. ``real-tcp``
uses a random partition because the min-cut partition's local edge count
moves with the seed (14.5k-19.5k edges per trainer), which moved
steps/s by 18% between seeds. The benchmark's ``--seed`` replaces the
data, partition and model seeds.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

from tma import cli, fileio, graph, partition
from tma.config import ExperimentConfig
from tma.coordination import RunConfig, TrainerSpec

BASE_CONFIG = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "configs", "desk10k.cfg"
)


@dataclass(frozen=True)
class Workload:
    name: str
    overrides: dict
    smoke_overrides: dict

    @property
    def simulated(self) -> bool:
        return self.overrides.get("clock", "sim") == "sim"

    @property
    def min_runs(self) -> int:
        """Sim workloads need two trainings for the determinism check."""
        return 2 if self.simulated else 1


# Why each workload was chosen is recorded in BENCHMARK.json.
WORKLOADS = {
    w.name: w
    for w in [
        Workload(
            name="sim-tma",
            overrides={"budget": 40.0, "interval": 15.0},
            smoke_overrides={"nodes": 1000, "budget": 8.0, "interval": 2.0},
        ),
        Workload(
            name="sim-ggs",
            overrides={
                "mode": "ggs", "scheme": "super", "step_times": "2.0",
                "interval": 8.0, "budget": 32.0,
            },
            smoke_overrides={"nodes": 1000, "budget": 8.0, "interval": 4.0},
        ),
        Workload(
            name="real-tcp",
            overrides={
                "clock": "real", "transport": "tcp", "scheme": "random",
                "trainers": 2, "step_times": "0", "interval": 5.0, "budget": 12.0,
            },
            smoke_overrides={"nodes": 1000, "budget": 2.5, "interval": 1.0},
        ),
    ]
}


def build_config(workload: Workload, seed: int, smoke: bool) -> ExperimentConfig:
    overrides = dict(workload.overrides)
    if smoke:
        overrides.update(workload.smoke_overrides)
    overrides.update(seed=seed, partition_seed=seed, model_seed=seed)
    return ExperimentConfig.from_sources(BASE_CONFIG, overrides)


def run_config(cfg: ExperimentConfig, in_dim: int) -> RunConfig:
    return RunConfig(
        model=cli.build_model_config(cfg, in_dim),
        train_budget=cfg.budget,
        agg_interval=cfg.interval,
        mode=cfg.mode,
        batch_size=cfg.batch_size,
        fanouts=cfg.fanouts,
        readiness_timeout=cfg.readiness_timeout,
    )


def setup(cfg: ExperimentConfig, workdir: str):
    """generate -> split -> partition -> load + induce, with every artifact
    written and read back through ``tma.fileio`` as the CLI commands do.

    Returns (train_graph, features, splits, trainer specs).
    """
    data = os.path.join(workdir, "data")
    g, x, y = graph.generate_synthetic(
        cfg.nodes, cfg.mean_degree, cfg.homophily, k=cfg.classes, seed=cfg.seed
    )
    x = cli.add_feature_noise(x, cfg.feature_noise, seed=cfg.seed + 1)
    fileio.save_graph(g, data + ".graph")
    fileio.save_features(x, data + ".feat")
    fileio.save_labels(y, data + ".labels")

    g = fileio.load_graph(data + ".graph")
    train, splits = graph.build_splits(
        g, cfg.val_frac, cfg.test_frac, cfg.negatives, seed=cfg.seed
    )
    fileio.save_graph(train, data + ".train.graph")
    fileio.save_splits(splits, data + ".splits")

    part = cli.build_partition(cfg, fileio.load_graph(data + ".train.graph"))
    fileio.save_partition(part, data + ".part")

    train = fileio.load_graph(data + ".train.graph")
    features = fileio.load_features(data + ".feat")
    splits = fileio.load_splits(data + ".splits")
    part = fileio.load_partition(data + ".part")
    subs = partition.induce_subgraphs(train, features, part, splits=splits)
    specs = [
        TrainerSpec(
            trainer_id=i,
            subgraph=subs[i],
            seed=cfg.seed * 10_000 + i,
            step_time=cfg.step_time_for(i),
        )
        for i in range(cfg.trainers)
    ]
    return train, features, splits, specs


def predicted_counts(cfg: ExperimentConfig) -> tuple[int, int]:
    """(local steps or gradient shards, rounds) that the sim clock implies.

    tma: trainers start in lockstep and step every ``step_time`` until the
    budget ends, so each makes ``floor(budget / step_time) + 1`` steps. A
    round starts ``interval`` after the previous one ended and ends when
    the trainers finish their current step, so rounds come every
    ``interval + step_time``. ggs: one step per ``step_time`` while the
    clock is within the budget, and a round each time ``interval`` has
    passed at the end of a step.
    """
    step = cfg.step_time_for(0)
    if cfg.mode == "ggs":
        steps = math.floor(cfg.budget / step) + 1
        return steps * cfg.trainers, math.floor(steps * step / cfg.interval)
    steps = math.floor(cfg.budget / step) + 1
    return steps * cfg.trainers, math.floor(cfg.budget / (cfg.interval + step))


def random_mrr(negatives: int) -> float:
    """Expected MRR of a ranking drawn uniformly among ``negatives + 1`` slots."""
    return sum(1.0 / r for r in range(1, negatives + 2)) / (negatives + 1)
