"""Every function the benchmark tracer wraps resolves on ``vermasig``.

``perfbench/tracer.py`` is parsed as text, not imported, so this test writes
nothing under ``perfbench/``.  Removing or renaming a traced function fails
here, not only in the traced benchmark runs.
"""

import ast
import importlib
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def traced_names() -> tuple[str, ...]:
    for node in ast.parse(TRACER.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "TRACED" for target in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{TRACER} assigns no TRACED tuple")


def test_every_traced_name_resolves():
    names = traced_names()
    assert "bethe.hamiltonian_matrices" in names and "shapovalov.express_in_basis" in names
    for name in names:
        module, attr = name.split(".")
        assert callable(getattr(importlib.import_module(f"vermasig.{module}"), attr, None)), name
