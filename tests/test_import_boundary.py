"""Only the float layer ``bethe`` loads numpy; the exact layers and their commands do not.

``vermasig`` exports the Bethe names lazily, ``cli`` imports ``bethe`` inside the
``bethe`` command, and ``quantum``'s numeric norm checks use math and cmath alone.
Each check runs in a fresh interpreter, since this process has numpy loaded.
"""

import json
import os
import subprocess
import sys

import pytest

import vermasig

SRC = os.path.dirname(os.path.dirname(vermasig.__file__))

# the exact README commands, and the two that need the float layer
EXACT_COMMANDS = [
    ["decompose", "--weights", "-1/2,-1/2", "--max-level", "6"],
    ["classify", "--type", "4,1,1,1,1", "--verify"],
    ["quantum", "--a", "2,2", "--t", "1/23", "--all-levels"],
    ["quantum", "--q1", "--weights", "23/10,17/10,-2/5", "--max-level", "8"],
]
BETHE_COMMANDS = [
    ["bethe", "--weights", "23/10,17/10,-2/5", "--z", "0,1,3", "-m", "2", "--json"],
    ["bethe", "--weights", "-1/2,-3/4,-7/5", "--z", "0,1,3", "--sweep", "m=1..3", "--csv"],
]

# the public names, submodules included: those before the Bethe names became lazy, with
# multiplicity_signatures in place of the deleted two_factor_sign and without the deleted
# QTensorState
PUBLIC = {
    "BoundReport", "CriticalPoint", "Decomposition", "DecompositionEntry", "DefiniteReport",
    "DomainError", "ExplicitType", "FalsificationError", "GaudinSystem", "GenericityError",
    "GramMatrix", "InvariantError", "MasterConfig", "QParam",
    "RootOfUnityError", "SCoeff", "SignatureSeries", "SingularBasis", "asymptotic_signature",
    "bethe", "bethe_residual", "bethe_vector", "bound_check", "classify", "classify_definite",
    "closed_form_norm", "coboundary_norm", "compositions", "count_real_by_spectrum",
    "crystal_multiplicity", "e_decomposition_check", "exact", "exact_signature",
    "explicit_type_of", "find_critical_points", "gaudin_system", "gram_on_multiplicity",
    "master_value", "multiplicity_signature", "multiplicity_signatures", "multiply",
    "peel_decompose", "q_binomial_sign", "q_int_sign", "q_vandermonde_check", "quantum",
    "shapovalov", "shapovalov_norm", "sigchar", "singular_basis", "unit_normalized_hwv",
    "verify_type", "verma_character", "zy_commutator_check",
}


def fresh(script: str):
    """Run ``script`` in a new interpreter, writing no bytecode; its last stdout line is JSON."""
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-B", "-c", script],
        env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


LOADED = "['numpy' in sys.modules, 'vermasig.bethe' in sys.modules]"


def test_import_loads_no_numpy():
    assert fresh(f"import json, sys, vermasig; print(json.dumps({LOADED}))") == [False, False]


@pytest.mark.parametrize(
    "argv",
    EXACT_COMMANDS + BETHE_COMMANDS,
    ids=["decompose", "classify", "quantum-a", "quantum-q1", "bethe-m", "bethe-sweep"],
)
def test_only_the_bethe_commands_load_numpy(argv):
    script = (
        "import json, sys; from vermasig.cli import main; "
        f"code = main({argv!r}); print(json.dumps([code, *{LOADED}]))"
    )
    loads = argv[0] == "bethe"
    assert fresh(script) == [0, loads, loads]


def test_public_names_resolve_as_before():
    assert len(PUBLIC) == 54 and set(vermasig.__all__) == PUBLIC
    script = """
import json, sys, vermasig
names = {}
exec("from vermasig import *", names)
try:
    vermasig.no_such_name
    unknown = "resolved"
except AttributeError as exc:
    unknown = str(exc)
print(json.dumps({
    "all": sorted(vermasig.__all__),
    "star_missing": sorted(set(vermasig.__all__) - set(names)),
    "same_class": vermasig.MasterConfig is vermasig.bethe.MasterConfig is names["MasterConfig"],
    "dir_has_all": set(vermasig.__all__) <= set(dir(vermasig)),
    "unknown": unknown,
}))
"""
    got = fresh(script)
    assert set(got["all"]) == PUBLIC and got["star_missing"] == []
    assert got["same_class"] and got["dir_has_all"]
    assert got["unknown"] == "module 'vermasig' has no attribute 'no_such_name'"


def test_bethe_names_are_not_cached_on_the_package():
    # a cached name would outlive a rebinding in vermasig.bethe (the benchmark
    # tracer rebinds there and restores on uninstall)
    script = """
import json, vermasig
from vermasig import bethe
original = bethe.bound_check
bethe.bound_check = stand_in = lambda *a, **k: None
rebound = vermasig.bound_check is stand_in
bethe.bound_check = original
print(json.dumps([rebound, vermasig.bound_check is original]))
"""
    assert fresh(script) == [True, True]


def test_two_factor_norm_checks_load_no_numpy():
    script = """
import json, sys
from vermasig import QParam, closed_form_norm, coboundary_norm, q_vandermonde_check
from vermasig import unit_normalized_hwv
qp = QParam(2, 31)
u = unit_normalized_hwv(3, 2, 2, qp)
checks = [coboundary_norm(3, 2, 2, qp).real, closed_form_norm(3, 2, 2, qp)]
print(json.dumps([len(u), *checks, q_vandermonde_check(3, 2, 2, qp), 'numpy' in sys.modules]))
"""
    length, direct, closed, identity, loaded = fresh(script)
    assert (length, identity, loaded) == (3, True, False)
    assert abs(direct - closed) <= 1e-10 * abs(closed)
