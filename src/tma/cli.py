"""Command-line entry point: generate, split, partition, train, eval,
theory-check, failure-sweep.

Every command takes ``--config FILE`` (flat key=value) plus a flag for
each config key it reads and for no other (``PARTITION_KEYS``,
``MODEL_KEYS``, ``RUN_KEYS``); any key can still be set in the file.
Artifact paths are always explicit flags. Given ``--labels``, ``partition``
also prints the partition's uniformity: its edge ratio, the largest
distance between two trainers' label histograms, and the spread of the
trainers' initial gradients. Commands exit 0 on success and
1 with a single-line ``error: ...`` on failure (argparse itself exits 2
on usage errors, an unknown flag among them). The effective config is
echoed as ``# key=value`` comment lines at the top of every metrics CSV.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import logging
import math
import os
import sys

import numpy as np

from . import fileio, theory
from .config import ConfigError, ExperimentConfig
from .coordination import ProtocolError, RunConfig, TrainerSpec, run_training
from .evaluate import evaluate
from .graph import GraphError, build_splits, generate_synthetic
from .nn import ModelConfig
from .partition import (
    PartitionError,
    induce_subgraphs,
    partition_min_cut,
    partition_random_node,
    partition_stats,
    partition_super_node,
)


def _setup_logging():
    level = os.environ.get("TMA_LOG", "warning").lower()
    mapping = {"debug": logging.DEBUG, "info": logging.INFO, "warning": logging.WARNING,
               "quiet": logging.ERROR}
    logging.basicConfig(level=mapping.get(level, logging.WARNING), format="%(message)s")


def add_feature_noise(x: np.ndarray, scale: float, seed: int) -> np.ndarray:
    """One-hot features plus seeded gaussian noise (float32)."""
    if scale <= 0:
        return x
    rng = np.random.default_rng(seed)
    return (x + scale * rng.standard_normal(x.shape)).astype(np.float32)


# the config keys each command reads, and so takes as flags; MODEL_KEYS
# leaves out lr, which eval never uses and the model fingerprint omits
PARTITION_KEYS = ("scheme", "trainers", "supernodes", "partition_seed")
MODEL_KEYS = ("encoder", "layers", "hidden", "decoder_layers", "model_seed")
RUN_KEYS = PARTITION_KEYS + MODEL_KEYS + (
    "lr", "seed", "mode", "budget", "interval", "batch_size", "fanouts", "step_times",
    "readiness_timeout", "clock", "transport",
)


def _config_from_args(args) -> ExperimentConfig:
    overrides = {
        key: getattr(args, key)
        for key in ExperimentConfig.field_names()
        if hasattr(args, key) and getattr(args, key) is not None
    }
    return ExperimentConfig.from_sources(getattr(args, "config", None), overrides)


def _add_config_flags(parser: argparse.ArgumentParser, keys):
    parser.add_argument("--config", help="flat key=value config file")
    defaults = ExperimentConfig()
    for key in keys:
        current = getattr(defaults, key)
        kind = str if isinstance(current, tuple) else type(current)  # tuples parse in config
        parser.add_argument("--" + key.replace("_", "-"), type=kind, default=None,
                            help=f"default {current}")


def build_model_config(cfg: ExperimentConfig, in_dim: int) -> ModelConfig:
    return ModelConfig(
        in_dim=in_dim,
        encoder=cfg.encoder,
        layers=cfg.layers,
        hidden_dim=cfg.hidden,
        decoder_layers=cfg.decoder_layers,
        lr=cfg.lr,
        seed=cfg.model_seed,
    )


def build_partition(cfg: ExperimentConfig, train_graph):
    if cfg.scheme == "random":
        return partition_random_node(train_graph, cfg.trainers, seed=cfg.partition_seed)
    if cfg.scheme == "super":
        return partition_super_node(
            train_graph, cfg.trainers, cfg.supernodes, seed=cfg.partition_seed
        )
    return partition_min_cut(train_graph, cfg.trainers, seed=cfg.partition_seed)


def convergence_time(metrics) -> float:
    """First wall-clock second at which val MRR enters the 1%-relative band
    of the run maximum."""
    vals = [(r.wall_s, r.mrr) for r in metrics if r.split == "val" and not math.isnan(r.mrr)]
    if not vals:
        return math.nan
    peak = max(m for _, m in vals)
    for wall, m in vals:
        if m >= 0.99 * peak:
            return wall
    return math.nan


def write_csv(path, cfg: ExperimentConfig, header, rows) -> None:
    """A CSV whose first lines echo the effective config as ``# key=value``."""
    with open(path, "w", newline="") as f:
        for key, value in cfg.as_items():
            f.write(f"# {key}={value}\n")
        writer = csv.writer(f)
        writer.writerow(header)
        writer.writerows(rows)


def write_metrics_csv(path, cfg: ExperimentConfig, result) -> None:
    ids = sorted(result.live_ids)
    header = ["wall_s", "round", "split", "mrr"]
    header += [f"steps_{i}" for i in ids] + [f"loss_{i}" for i in ids]
    rows = []
    for row in result.metrics:
        record = [f"{row.wall_s:.6f}", row.round, row.split, f"{row.mrr:.6f}"]
        record += [row.steps.get(i, "") for i in ids]
        record += [
            f"{row.loss.get(i, math.nan):.6f}" if row.loss.get(i) is not None else ""
            for i in ids
        ]
        rows.append(record)
    write_csv(path, cfg, header, rows)


# ---------------------------------------------------------------------------
# commands


def cmd_generate(args) -> int:
    cfg = _config_from_args(args)
    g, x, y = generate_synthetic(
        cfg.nodes, cfg.mean_degree, cfg.homophily, k=cfg.classes, seed=cfg.seed
    )
    x = add_feature_noise(x, cfg.feature_noise, seed=cfg.seed + 1)
    fileio.save_graph(g, args.out + ".graph")
    fileio.save_features(x, args.out + ".feat")
    fileio.save_labels(y, args.out + ".labels")
    print(f"generated |V|={g.num_nodes} |E|={g.num_edges} -> {args.out}.{{graph,feat,labels}}")
    return 0


def cmd_split(args) -> int:
    cfg = _config_from_args(args)
    g = fileio.load_graph(args.graph)
    train, splits = build_splits(
        g, cfg.val_frac, cfg.test_frac, cfg.negatives, seed=cfg.seed
    )
    fileio.save_graph(train, args.out + ".train.graph")
    fileio.save_splits(splits, args.out + ".splits")
    print(
        f"split |E|={g.num_edges} -> train {train.num_edges}, "
        f"val {len(splits.val_edges)}, test {len(splits.test_edges)} -> {args.out}.*"
    )
    return 0


def cmd_partition(args) -> int:
    cfg = _config_from_args(args)
    g = fileio.load_graph(args.graph)
    y = fileio.load_labels(args.labels) if args.labels else None
    if y is not None and len(y.labels) != g.num_nodes:
        raise GraphError(f"labels cover {len(y.labels)} nodes but the graph has {g.num_nodes}")
    part = build_partition(cfg, g)
    fileio.save_partition(part, args.out)
    sizes = part.sizes().tolist()
    print(f"partitioned scheme={cfg.scheme} trainers={cfg.trainers} sizes={sizes} -> {args.out}")
    if y is not None:
        stats = partition_stats(g, y, part)
        print(
            f"uniformity edge_ratio={stats.edge_ratio:.4f} "
            f"max_histogram_distance={stats.max_histogram_distance:.4f} "
            f"gradient_spread={theory.trainer_gradient_spread(g, y, part):.5f}"
        )
    return 0


def _check_same_graph(graph, features, splits) -> None:
    """Features and splits must belong to ``graph``: one feature row per node,
    and every split edge and negative a node id of it."""
    n = graph.num_nodes
    if len(features) != n:
        raise GraphError(f"features have {len(features)} rows but the graph has {n} nodes")
    for name in ("val_edges", "test_edges", "neg_tails"):
        ids = getattr(splits, name)
        if ids.size and (ids.min() < 0 or ids.max() >= n):
            raise GraphError(f"splits {name} name node ids outside the graph's {n} nodes")


def _load_training_inputs(args, cfg: ExperimentConfig):
    train_graph = fileio.load_graph(args.graph)
    features = fileio.load_features(args.features)
    splits = fileio.load_splits(args.splits)
    _check_same_graph(train_graph, features, splits)
    if args.partition:
        part = fileio.load_partition(args.partition)
        if part.num_trainers != cfg.trainers:
            raise PartitionError(
                f"partition file has {part.num_trainers} trainers but the config has "
                f"trainers = {cfg.trainers}"
            )
    else:
        part = build_partition(cfg, train_graph)
    subs = induce_subgraphs(train_graph, features, part, splits=splits)
    specs = [
        TrainerSpec(
            trainer_id=i,
            subgraph=subs[i],
            seed=cfg.seed * 10_000 + i,
            step_time=cfg.step_time_for(i),
        )
        for i in range(cfg.trainers)
    ]
    return train_graph, features, splits, specs


def _train(cfg: ExperimentConfig, inputs, fail_ids):
    """One training of ``cfg`` on the loaded inputs; a failed trainer never starts."""
    train_graph, features, splits, specs = inputs
    run_cfg = RunConfig(
        model=build_model_config(cfg, features.shape[1]),
        train_budget=cfg.budget,
        agg_interval=cfg.interval,
        mode=cfg.mode,
        batch_size=cfg.batch_size,
        fanouts=cfg.fanouts,
        readiness_timeout=cfg.readiness_timeout,
    )
    return run_training(
        run_cfg,
        [s for s in specs if s.trainer_id not in fail_ids],
        train_graph,
        features,
        splits,
        runtime="sim" if cfg.clock == "sim" else "threads",
        transport=cfg.transport,
    )


def cmd_train(args) -> int:
    cfg = _config_from_args(args)
    result = _train(cfg, _load_training_inputs(args, cfg), cfg.fail_ids)
    if args.metrics:
        write_metrics_csv(args.metrics, cfg, result)
    if args.save_weights:
        fileio.save_weights(result.best_weights, args.save_weights)
    print(
        f"mode={cfg.mode} scheme={cfg.scheme} rounds={result.rounds} "
        f"best_round={result.best_round} val_mrr={result.best_val_mrr:.4f} "
        f"test_mrr={result.test_mrr:.4f} convergence_s={convergence_time(result.metrics):.1f}"
    )
    return 0


def cmd_eval(args) -> int:
    cfg = _config_from_args(args)
    graph = fileio.load_graph(args.graph)
    features = fileio.load_features(args.features)
    splits = fileio.load_splits(args.splits)
    _check_same_graph(graph, features, splits)
    model = build_model_config(cfg, features.shape[1])
    weights = fileio.load_weights(args.weights, model)
    res = evaluate(weights, model, graph, features, splits, args.split)
    print(f"split={args.split} mrr={res.mrr:.6f} positives={len(res.reciprocal_ranks)}")
    return 0


def _parse_grid(text: str) -> np.ndarray:
    try:
        lo, hi, step = (float(p) for p in text.split(":"))
    except ValueError as exc:
        raise ConfigError(f"bad grid {text!r}, expected lo:hi:step") from exc
    if step <= 0 or hi < lo:
        raise ConfigError(f"bad grid {text!r}, need lo <= hi and step > 0")
    count = int(round((hi - lo) / step)) + 1
    return np.linspace(lo, hi, count)


def cmd_theory_check(args) -> int:
    betas = _parse_grid(args.grid_beta)
    hs = _parse_grid(args.grid_h)
    eta = args.eta
    rows = []
    for h in hs:
        graphs = []
        for seed in range(args.seeds):  # a graph depends on (h, seed), not beta
            g, _, y = generate_synthetic(2 * eta, args.mean_degree, float(h), seed=seed)
            graphs.append((g, y))
        for beta in betas:
            s = theory.TwoClassSetup(beta=float(beta), h=float(h), eta=eta)
            lam = theory.expected_edge_cut(s)
            try:
                d_g1, d_g2, d_12 = theory.gradient_discrepancies(s)
            except theory.TheoryError:
                d_g1 = d_g2 = d_12 = math.nan
            row = {
                "h": round(float(h), 6),
                "beta": round(float(beta), 6),
                "lambda": lam,
                "grad_gap_global_1": d_g1,
                "grad_gap_global_2": d_g2,
                "grad_gap_1_2": d_12,
            }
            if args.seeds > 0:
                predicted = theory.predicted_generator_cut(s, args.mean_degree)
                try:
                    want = theory.expected_initial_gradients(s)
                except theory.TheoryError:
                    want = None
                cuts, gaps = [], []
                for g, y in graphs:
                    part = theory.label_aligned_partition(y, float(beta))
                    cuts.append(partition_stats(g, y, part).cut_edges)
                    if want is None:
                        continue
                    try:
                        got = theory.empirical_initial_gradients(g, y, part)
                    except theory.TheoryError:
                        continue
                    gaps.append(max(
                        np.linalg.norm(a - b) / max(np.linalg.norm(b), 1e-12) for a, b in zip(got, want)
                    ))
                row["cut_predicted"] = predicted
                row["cut_measured"] = float(np.mean(cuts))
                row["grad_rel_err"] = float(np.mean(gaps)) if gaps else math.nan
            rows.append(row)
    fieldnames = list(rows[0].keys())
    out = open(args.report, "w", newline="") if args.report else sys.stdout
    try:
        writer = csv.DictWriter(out, fieldnames=fieldnames)
        writer.writeheader()
        writer.writerows(rows)
    finally:
        if args.report:
            out.close()
    argmin_ok = all(
        theory.argmin_edge_cut_beta(h) == 1.0 for h in (0.6, 0.7, 0.8, 0.9, 1.0)
    )
    print(f"theory-check rows={len(rows)} argmin_beta_pure={argmin_ok}"
          + (f" report={args.report}" if args.report else ""))
    return 0


def cmd_failure_sweep(args) -> int:
    cfg = _config_from_args(args)
    if cfg.fail_ids:
        raise ConfigError("failure-sweep picks the failed trainers itself; fail_ids must be empty")
    if not 1 <= args.fail_count < cfg.trainers:
        raise ConfigError(f"fail_count must be in [1, trainers - 1 = {cfg.trainers - 1}]")
    inputs = _load_training_inputs(args, cfg)
    choices = [()] + [c for c in itertools.combinations(range(cfg.trainers), args.fail_count)]
    rows = []
    for fail_ids in choices:
        result = _train(cfg, inputs, fail_ids)
        rows.append([
            "none" if not fail_ids else "+".join(map(str, fail_ids)),
            result.rounds,
            result.best_val_mrr,
            result.test_mrr,
            convergence_time(result.metrics),
        ])
    failed = [row[1:] for row in rows[1:]]
    rows.append(["avg_failed"] + [float(np.mean(column)) for column in zip(*failed)])
    header = ["fail_ids", "rounds", "best_val_mrr", "test_mrr", "convergence_s"]
    write_csv(args.out, cfg, header, rows)
    print(f"failure-sweep runs={len(rows) - 1} -> {args.out}")
    return 0


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tma",
        description="Distributed GNN link prediction with time-based model aggregation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="sample a synthetic homophilic graph")
    _add_config_flags(p, ["nodes", "mean_degree", "homophily", "classes", "feature_noise", "seed"])
    p.add_argument("--out", required=True, help="output path prefix")
    p.set_defaults(fn=cmd_generate)

    p = sub.add_parser("split", help="carve val/test positives and fix negatives")
    _add_config_flags(p, ["val_frac", "test_frac", "negatives", "seed"])
    p.add_argument("--graph", required=True)
    p.add_argument("--out", required=True, help="output path prefix")
    p.set_defaults(fn=cmd_split)

    p = sub.add_parser("partition", help="map nodes to trainers")
    _add_config_flags(p, PARTITION_KEYS)
    p.add_argument("--graph", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--labels", help="node labels; prints the partition's uniformity")
    p.set_defaults(fn=cmd_partition)

    p = sub.add_parser("train", help="run one distributed training")
    _add_config_flags(p, RUN_KEYS + ("fail_ids",))
    p.add_argument("--graph", required=True, help="training graph (post-split)")
    p.add_argument("--features", required=True)
    p.add_argument("--splits", required=True)
    p.add_argument("--partition", help="partition file (otherwise computed from --scheme)")
    p.add_argument("--metrics", help="metrics CSV output path")
    p.add_argument("--save-weights", dest="save_weights", help="best checkpoint output path")
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("eval", help="MRR of a checkpoint on val or test")
    _add_config_flags(p, MODEL_KEYS)
    p.add_argument("--weights", required=True)
    p.add_argument("--graph", required=True)
    p.add_argument("--features", required=True)
    p.add_argument("--splits", required=True)
    p.add_argument("--split", choices=["val", "test"], default="val")
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("theory-check", help="closed forms vs Monte Carlo on a grid")
    p.add_argument("--grid-beta", default="0.5:1.0:0.05")
    p.add_argument("--grid-h", default="0.5:1.0:0.1")
    p.add_argument("--seeds", type=int, default=0)
    p.add_argument("--eta", type=int, default=1000)
    p.add_argument("--mean-degree", dest="mean_degree", type=float, default=10.0)
    p.add_argument("--report", help="CSV output path (stdout when omitted)")
    p.set_defaults(fn=cmd_theory_check)

    p = sub.add_parser("failure-sweep", help="drop each trainer in turn and average")
    _add_config_flags(p, RUN_KEYS)
    p.add_argument("--graph", required=True)
    p.add_argument("--features", required=True)
    p.add_argument("--splits", required=True)
    p.add_argument("--partition", help="partition file (otherwise computed from --scheme)")
    p.add_argument("--fail-count", dest="fail_count", type=int, default=1)
    p.add_argument("--out", required=True, help="sweep CSV output path")
    p.set_defaults(fn=cmd_failure_sweep)

    return parser


def main(argv=None) -> int:
    _setup_logging()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ProtocolError, ValueError, OSError) as exc:  # every input and model error is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
