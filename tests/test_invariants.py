"""Internal invariants raise InvariantError, also under ``python -O``."""

import os
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

from vermasig import GramMatrix, InvariantError, SCoeff, peel_decompose, sigchar
from vermasig.bethe import _check_commute, _check_self_adjoint
from vermasig.classify import _merge

SRC = Path(__file__).resolve().parent.parent / "src"

NON_COMMUTING = ([[F(1), F(1)], [F(0), F(1)]], [[F(1), F(0)], [F(1), F(1)]])

PEEL_ARGS = ([F(7, 2), F(-1, 3)], 6)
NUMERATOR_PRODUCT = sigchar._numerator_product


def corrupted_numerator_product(lams):
    """peel_decompose's numerator with one coefficient off by one."""
    out = NUMERATOR_PRODUCT(lams)
    out[1] = SCoeff(out[1].plain + 1, out[1].twisted)
    return out


def test_invariant_violations_raise(monkeypatch):
    with pytest.raises(InvariantError):
        _merge({1: 1}, [(1, -1)])
    with pytest.raises(InvariantError):
        _check_commute(*NON_COMMUTING)
    with pytest.raises(InvariantError):
        _check_self_adjoint([[F(0), F(1)], [F(0), F(0)]], GramMatrix(((F(1), F(0)), (F(0), F(1)))))
    peel_decompose(*PEEL_ARGS)
    monkeypatch.setattr(sigchar, "_numerator_product", corrupted_numerator_product)
    with pytest.raises(InvariantError):
        peel_decompose(*PEEL_ARGS)


def test_invariant_violations_raise_under_optimize():
    program = "\n".join([
        "from fractions import Fraction",
        "from vermasig import InvariantError, SCoeff, peel_decompose, sigchar",
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
        "numerator_product = sigchar._numerator_product",
        "def corrupted(lams):",
        "    out = numerator_product(lams)",
        "    out[1] = SCoeff(out[1].plain + 1, out[1].twisted)",
        "    return out",
        "sigchar._numerator_product = corrupted",
        "try:",
        f"    peel_decompose(*{PEEL_ARGS!r})",
        "except InvariantError:",
        "    print('peel raised')",
    ])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", program], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n")[:3] == ["merge raised", "commute raised", "peel raised"]
