"""The benchmark tracer wraps package functions by name; a rename must not
silently turn a traced span into an absent one."""

import ast
import importlib
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"

# hooks whose functions the package no longer has
ABSENT = {"perms.coset_representatives", "linear.nonzero_weight_set"}


def _targets() -> dict[str, str]:
    for node in ast.parse(TRACER.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("no TARGETS dict in the tracer")


def _resolves(name: str, attr: str) -> bool:
    obj = importlib.import_module("permcodes." + name.partition(".")[0])
    for part in attr.split("."):
        obj = getattr(obj, part, None)
    return callable(obj)


def test_tracer_targets_resolve_in_the_package():
    targets = _targets()
    assert ABSENT <= targets.keys()
    missing = {name for name, attr in targets.items() if not _resolves(name, attr)}
    assert missing == ABSENT
