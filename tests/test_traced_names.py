"""Every function the benchmark tracer wraps resolves on ``vermasig``.

``perfbench/tracer.py`` is parsed as text here; the one test that runs it does
so in a fresh interpreter that writes no bytecode, so these tests write nothing
under ``perfbench/``.  Removing or renaming a traced function fails here, not
only in the traced benchmark runs.
"""

import ast
import importlib
from pathlib import Path

from test_import_boundary import fresh

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"

# the benchmark workloads import these before any tracer is installed; bethe is
# not among them, so the tracer is the first to load it
WORKLOAD_IMPORTS = (
    "import vermasig\nfrom vermasig import classify, cli, quantum, shapovalov, sigchar"
)


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


def test_traced_names_resolve_through_the_package():
    # Tracer.install reads getattr(getattr(vermasig, module), attr); bethe is
    # then loaded by the package's lazy export, which must cache nothing
    script = f"""
import json, sys
{WORKLOAD_IMPORTS}
lazy = [name for name in vermasig.__all__ if name not in vars(vermasig)]
missing = [
    name for name in {list(traced_names())!r}
    if not callable(getattr(getattr(vermasig, name.split('.')[0]), name.split('.')[1], None))
]
for name in vermasig.__all__:
    getattr(vermasig, name)
cached = [name for name in lazy if name in vars(vermasig) and name != 'bethe']
print(json.dumps([len(lazy), missing, cached]))
"""
    # the 13 Bethe names and the bethe submodule itself, which the import
    # system binds on the package once it is loaded
    assert fresh(script) == [14, [], []]


def test_tracer_restores_every_binding_it_wrapped():
    # a module first imported while the tracer is installed must not keep a wrapper
    script = f"""
import json, sys
sys.path.insert(0, {str(TRACER.parent)!r})
{WORKLOAD_IMPORTS}
import tracer
t = tracer.Tracer()
t.install()
t.uninstall()
originals = [getattr(getattr(vermasig, n.split('.')[0]), n.split('.')[1]) for n in tracer.TRACED]
stale = [
    f"{{mod.__name__}}.{{attr}}"
    for mod in tracer.library_modules()
    for attr, value in vars(mod).items()
    if any(getattr(value, '__wrapped__', None) is fn for fn in originals)
]
print(json.dumps(['vermasig.bethe' in sys.modules, stale]))
"""
    assert fresh(script) == [True, []]
