"""Experiment configuration: one flat key=value document for a whole run.

Flags override file values; the effective config is echoed into the
metrics CSV header for provenance. Validation collects every violated
constraint before reporting, so a bad config fails once with the full
list.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

from .nn import ENCODERS


class ConfigError(ValueError):
    pass


def _parse_int_list(text: str) -> tuple[int, ...]:
    text = str(text).strip()
    if not text:
        return ()
    return tuple(int(p) for p in text.split(","))


def _parse_float_list(text: str) -> tuple[float, ...]:
    text = str(text).strip()
    if not text:
        return ()
    return tuple(float(p) for p in text.split(","))


@dataclass
class ExperimentConfig:
    # synthetic data
    nodes: int = 10_000
    mean_degree: float = 10.0
    homophily: float = 0.9
    classes: int = 2
    feature_noise: float = 0.0
    seed: int = 0
    # splits
    val_frac: float = 0.05
    test_frac: float = 0.05
    negatives: int = 100
    # partition
    scheme: str = "random"
    trainers: int = 3
    supernodes: int = 64
    partition_seed: int = 0
    # model
    encoder: str = "gcn"
    layers: int = 2
    hidden: int = 64
    decoder_layers: int = 2
    lr: float = 0.001
    model_seed: int = 0
    # run
    mode: str = "tma"
    budget: float = 600.0
    interval: float = 60.0
    batch_size: int = 256
    fanouts: tuple = (10, 5)
    step_times: tuple = (0.05,)
    fail_ids: tuple = ()
    readiness_timeout: float = 30.0
    clock: str = "sim"
    transport: str = "inproc"

    _list_fields = {
        "fanouts": _parse_int_list,
        "fail_ids": _parse_int_list,
        "step_times": _parse_float_list,
    }

    @classmethod
    def field_names(cls):
        return [f.name for f in fields(cls) if not f.name.startswith("_")]

    @classmethod
    def from_sources(cls, file_path=None, overrides: dict | None = None) -> "ExperimentConfig":
        values: dict = {}
        if file_path is not None:
            values.update(read_kv_file(file_path))
        for key, value in (overrides or {}).items():
            if value is not None:
                values[key] = value
        cfg = cls()
        names = set(cls.field_names())
        problems = []
        for key, raw in values.items():
            if key not in names:
                problems.append(f"unknown config key '{key}'")
                continue
            try:
                setattr(cfg, key, cfg._coerce(key, raw))
            except (TypeError, ValueError):
                problems.append(f"bad value for '{key}': {raw!r}")
        if problems:
            raise ConfigError("; ".join(problems))
        cfg.validate()
        return cfg

    def _coerce(self, key: str, raw):
        if key in self._list_fields:
            if isinstance(raw, (tuple, list)):
                return tuple(raw)
            return self._list_fields[key](raw)
        current = getattr(type(self)(), key)
        if isinstance(current, int):
            return int(raw)
        if isinstance(current, float):
            return float(raw)
        return str(raw)

    def validate(self) -> None:
        """Check cross-field consistency; raise with every violation at once."""
        problems = []
        if self.nodes < 4 or self.nodes % 2 or self.nodes % max(self.classes, 1):
            problems.append("nodes must be even, positive, and divisible by classes")
        if not 0.0 <= self.homophily <= 1.0:
            problems.append("homophily must be in [0, 1]")
        if self.classes < 2:
            problems.append("classes must be >= 2")
        if self.mean_degree <= 0:
            problems.append("mean_degree must be positive")
        if self.val_frac < 0 or self.test_frac < 0 or self.val_frac + self.test_frac >= 0.5:
            problems.append("val_frac + test_frac must be < 0.5")
        if self.negatives < 1:
            problems.append("negatives must be >= 1")
        if self.scheme not in ("random", "super", "mincut"):
            problems.append("scheme must be one of random|super|mincut")
        if self.trainers < 1:
            problems.append("trainers must be >= 1")
        if self.scheme == "super" and self.supernodes < self.trainers:
            problems.append("supernodes must be >= trainers")
        if self.encoder not in ENCODERS:
            problems.append(f"encoder must be one of {'|'.join(ENCODERS)}")
        if self.layers < 1 or self.decoder_layers < 1:
            problems.append("layers and decoder_layers must be >= 1")
        if len(self.fanouts) != self.layers:
            problems.append("fanouts length must equal encoder layers")
        if self.mode not in ("tma", "ggs"):
            problems.append("mode must be tma|ggs")
        if not 0 < self.interval < self.budget:
            problems.append("interval must be positive and below budget")
        if self.batch_size < 1:
            problems.append("batch_size must be >= 1")
        if not self.readiness_timeout > 0:
            problems.append("readiness_timeout must be positive")
        if len(self.step_times) not in (1, self.trainers):
            problems.append("step_times must have 1 entry or one per trainer")
        if any(t < 0 for t in self.step_times):
            problems.append("step_times must be nonnegative")
        if self.clock == "sim" and any(t <= 0 for t in self.step_times):
            problems.append("sim clock needs strictly positive step_times")
        if any(i < 0 or i >= self.trainers for i in self.fail_ids):
            problems.append("fail_ids must name trainers in range")
        if len(set(self.fail_ids)) >= self.trainers and self.trainers > 0:
            problems.append("cannot fail every trainer")
        if self.clock not in ("sim", "real"):
            problems.append("clock must be sim|real")
        if self.transport not in ("inproc", "tcp"):
            problems.append("transport must be inproc|tcp")
        if self.clock == "sim" and self.transport == "tcp":
            problems.append("tcp transport requires the real clock")
        if problems:
            raise ConfigError("; ".join(problems))

    def step_time_for(self, trainer_id: int) -> float:
        if len(self.step_times) == 1:
            return self.step_times[0]
        return self.step_times[trainer_id]

    def as_items(self):
        for name in self.field_names():
            value = getattr(self, name)
            if isinstance(value, tuple):
                value = ",".join(str(v) for v in value)
            yield name, value


def read_kv_file(path) -> dict:
    """Parse a flat ``key = value`` text document (``#`` comments allowed)."""
    values = {}
    with open(path) as f:
        for lineno, line in enumerate(f, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
            key, _, value = line.partition("=")
            values[key.strip()] = value.strip()
    return values
