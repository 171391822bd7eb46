"""Internal invariants raise InvariantError, also under ``python -O``."""

import os
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

from vermasig import GramMatrix, InvariantError
from vermasig.bethe import _check_commute, _check_self_adjoint
from vermasig.classify import _merge

SRC = Path(__file__).resolve().parent.parent / "src"

NON_COMMUTING = ([[F(1), F(1)], [F(0), F(1)]], [[F(1), F(0)], [F(1), F(1)]])


def test_invariant_violations_raise():
    with pytest.raises(InvariantError):
        _merge({1: 1}, [(1, -1)])
    with pytest.raises(InvariantError):
        _check_commute(*NON_COMMUTING)
    with pytest.raises(InvariantError):
        _check_self_adjoint([[F(0), F(1)], [F(0), F(0)]], GramMatrix(((F(1), F(0)), (F(0), F(1)))))


def test_invariant_violations_raise_under_optimize():
    program = "\n".join([
        "from fractions import Fraction",
        "from vermasig import InvariantError",
        "from vermasig.bethe import _check_commute",
        "from vermasig.classify import _merge",
        "assert False, 'asserts must be stripped under -O'",
        "levels = {1: 1}",
        "try:",
        "    _merge(levels, [(1, -1)])",
        "except InvariantError:",
        "    print('merge raised')",
        "else:",
        "    print('merge returned', levels)",
        "try:",
        f"    _check_commute(*{NON_COMMUTING!r})",
        "except InvariantError:",
        "    print('commute raised')",
    ])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", program], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n")[:2] == ["merge raised", "commute raised"]
