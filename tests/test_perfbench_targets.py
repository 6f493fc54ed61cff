"""The traced benchmark patches ``tma`` functions by name (``perfbench/layers.py``);
every name it patches must exist, and every patch must come off again.

The benchmark's own smoke test runs whole workloads; this one only installs
and removes the patches, so a renamed or moved function fails here, fast.
"""

from __future__ import annotations

import importlib
import inspect
import sys
from pathlib import Path

import pytest

from tma import coordination

PERFBENCH = str(Path(__file__).resolve().parents[1] / "perfbench")


@pytest.fixture(scope="module")
def perfbench():
    sys.path.insert(0, PERFBENCH)
    try:
        import layers
        import tracer
    finally:
        sys.path.remove(PERFBENCH)
    return layers, tracer


def resolve(target: str):
    """The object ``module:attr.path`` names, read as ``Tracer.patch`` reads it."""
    module_name, _, path = target.partition(":")
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)


def test_instrument_patches_existing_names_and_unpatches(perfbench):
    layers, tracer = perfbench
    targets = [
        *layers.SETUP_SPANS, *layers.TRAIN_SPANS, *layers.COUNTED, *layers.EVAL_JOBS_ARG,
    ]
    originals = {target: resolve(target) for target in targets}
    t = tracer.Tracer()
    try:
        layers.instrument(t)
        assert all(resolve(target) is not originals[target] for target in targets)
    finally:
        t.unpatch()
    assert all(resolve(target) is originals[target] for target in targets)


def test_eval_jobs_positions_match_the_server_loops(perfbench):
    layers, _ = perfbench
    assert layers.EVAL_JOBS_ARG == {
        "tma.coordination:run_server": 4,
        "tma.coordination:run_ggs": 6,
    }
    assert list(inspect.signature(coordination.run_server).parameters)[4] == "eval_jobs"
    assert list(inspect.signature(coordination.run_ggs).parameters)[6] == "eval_jobs"
