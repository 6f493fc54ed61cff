"""Every public function, class and method in ``src/tma`` has a caller in the
program or the benchmark, not only in the tests.

A name counts as used when code under ``src/`` or ``perfbench/`` mentions it
as a name, as an attribute, or inside a ``tma.module:attr.path`` patch
target string. Matching is by bare name, so a method shares its uses with
every attribute of the same name. The allowlist names each public
definition that stays without such a caller, and why.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "tma"
PATCH_TARGET = re.compile(r"^tma\.\w+:([\w.]+)$")

ALLOWED = {
    "ModelWeights.equal_bits": "the determinism tests compare weights bit for bit with it",
    "theory.expected_local_loss": "the planned theory-check loss-gap column calls it",
}


def _public(name: str) -> bool:
    return not name.startswith("_")


def definitions() -> dict[str, str]:
    """Qualified name -> bare name of every public top-level function and
    class, and of every public method of those classes."""
    out = {}
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or not _public(node.name):
                continue
            out[f"{path.stem}.{node.name}"] = node.name
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and _public(item.name):
                        out[f"{node.name}.{item.name}"] = item.name
    return out


def names_in(source: str) -> set[str]:
    """Names, attributes and patch-target parts that one module mentions."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            match = PATCH_TARGET.match(node.value)
            if match:
                names.update(match.group(1).split("."))
    return names


def referenced_names() -> set[str]:
    paths = [*ROOT.glob("src/**/*.py"), *ROOT.glob("perfbench/*.py")]
    return set().union(*(names_in(path.read_text()) for path in paths))


def test_no_public_code_only_tests_reach():
    used = referenced_names()
    unused = {q for q, name in definitions().items() if name not in used}
    assert sorted(unused - set(ALLOWED)) == [], "wire these into the program, or delete them"
    assert sorted(set(ALLOWED) - unused) == [], "these have a caller now, or are gone: drop them here"


def test_names_in_reads_calls_attributes_and_patch_targets():
    source = (
        'run(x.step)\n'
        'TARGETS = {"tma.runtime:SimClock.sleep": 1, "tma.fileio:{verb}_graph": 2}\n'
        '"""docstring naming tma.nn:link_step"""\n'
    )
    assert names_in(source) == {"run", "x", "step", "TARGETS", "SimClock", "sleep"}
