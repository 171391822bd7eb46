"""Internal invariants raise InvariantError, also under ``python -O``."""

import os
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

from vermasig import (
    InvariantError, MasterConfig, bethe, gaudin_system, peel_decompose, shapovalov, sigchar,
    singular_basis,
)
from vermasig.bethe import _check_commute, _check_self_adjoint
from vermasig.classify import _merge

SRC = Path(__file__).resolve().parent.parent / "src"

# integer W_a, W_b and Sigma: W_a W_b = W_b W_a, but W_a Sigma W_b != W_b Sigma W_a
NON_COMMUTING = ([[0, 1], [0, 0]], [[1, 0], [0, 1]], [1, 2])
# a pairing (u_f, H u_g) that is not symmetric
NOT_SELF_ADJOINT = [[0, 1], [0, 0]]
GAUDIN_CFG = MasterConfig((F(0), F(1), F(-3, 2)), (F(23, 10), F(17, 10), F(-2, 5)), 2)
IMAGES = bethe._images


def corrupted_images(*args):
    """gaudin_system's integer images with one entry moved off the kernel."""
    out = IMAGES(*args)
    out[1][0][0] += 1
    return out



def doubled_images(*args):
    """One image of H_1 doubled: still killed by the raising operator, and sum_i H_i != 0."""
    out = IMAGES(*args)
    out[0][0] = [2 * x for x in out[0][0]]
    return out


def shifted_images(*args):
    """A kernel vector added to an image of H_1 and taken from the same image of H_2:
    still killed, and sum_i H_i = 0 holds, but sum_i z_i H_i is off."""
    out, u = IMAGES(*args), args[1][0]
    out[0][0] = [x + y for x, y in zip(out[0][0], u)]
    out[1][0] = [x - y for x, y in zip(out[1][0], u)]
    return out

KERNEL = shapovalov._kernel
BASIS_ARGS = ((F(23, 10), F(17, 10), F(-2, 5)), 2)


def corrupted_kernel(*args):
    """singular_basis's kernel with one entry of the first vector pushed off the kernel."""
    kernel = KERNEL(*args)
    s, u = kernel[0]
    kernel[0] = (s, (u[0] + 1,) + u[1:])
    return kernel

PEEL_ARGS = ([F(7, 2), F(-1, 3)], 6)
NUMERATOR_PRODUCT = sigchar._numerator_product


def corrupted_numerator_product(lams, depth=None):
    """peel_decompose's numerator with one coefficient off by one."""
    plain, twisted = NUMERATOR_PRODUCT(lams, depth)
    plain[1] += 1
    return plain, twisted


def test_invariant_violations_raise(monkeypatch):
    with pytest.raises(InvariantError):
        _merge({1: 1}, [(1, -1)])
    with pytest.raises(InvariantError):
        _check_commute(*NON_COMMUTING)
    with pytest.raises(InvariantError):
        _check_self_adjoint(NOT_SELF_ADJOINT)
    singular_basis(*BASIS_ARGS)
    with monkeypatch.context() as patch:
        patch.setattr(shapovalov, "_kernel", corrupted_kernel)
        with pytest.raises(InvariantError, match="singular vector is not killed"):
            singular_basis(*BASIS_ARGS)
    gaudin_system(GAUDIN_CFG)
    for corrupted, message in (
        (doubled_images, "fail sum_i H_i = 0"),
        (shifted_images, "fail sum_i z_i H_i = the Casimir scalar"),
        (corrupted_images, "leaves the multiplicity space"),
    ):
        monkeypatch.setattr(bethe, "_images", corrupted)
        with pytest.raises(InvariantError, match=message):
            gaudin_system(GAUDIN_CFG)
    peel_decompose(*PEEL_ARGS)
    monkeypatch.setattr(sigchar, "_numerator_product", corrupted_numerator_product)
    with pytest.raises(InvariantError):
        peel_decompose(*PEEL_ARGS)


def test_invariant_violations_raise_under_optimize():
    program = "\n".join([
        "from fractions import Fraction",
        "from vermasig import InvariantError, MasterConfig, bethe, gaudin_system, peel_decompose, shapovalov, sigchar",
        "from vermasig.bethe import _check_commute, _check_self_adjoint",
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
        "try:",
        f"    _check_self_adjoint({NOT_SELF_ADJOINT!r})",
        "except InvariantError:",
        "    print('self-adjoint raised')",
        "kernel = shapovalov._kernel",
        "def corrupted_kernel(*args):",
        "    vectors = kernel(*args)",
        "    s, u = vectors[0]",
        "    vectors[0] = (s, (u[0] + 1,) + u[1:])",
        "    return vectors",
        "shapovalov._kernel = corrupted_kernel",
        "try:",
        f"    shapovalov.singular_basis(*{BASIS_ARGS!r})",
        "except InvariantError as error:",
        "    print('kernel raised' if 'singular vector is not killed' in str(error) else error)",
        "shapovalov._kernel = kernel",
        "images = bethe._images",
        "def doubled_images(*args):",
        "    out = images(*args)",
        "    out[0][0] = [2 * x for x in out[0][0]]",
        "    return out",
        "def shifted_images(*args):",
        "    out, u = images(*args), args[1][0]",
        "    out[0][0] = [x + y for x, y in zip(out[0][0], u)]",
        "    out[1][0] = [x - y for x, y in zip(out[1][0], u)]",
        "    return out",
        "def corrupted_images(*args):",
        "    out = images(*args)",
        "    out[1][0][0] += 1",
        "    return out",
        "for corrupted, message, name in (",
        "    (doubled_images, 'fail sum_i H_i = 0', 'sum'),",
        "    (shifted_images, 'Casimir scalar', 'casimir'),",
        "    (corrupted_images, 'multiplicity space', 'invariance'),",
        "):",
        "    bethe._images = corrupted",
        "    try:",
        f"        gaudin_system({GAUDIN_CFG!r})",
        "    except InvariantError as error:",
        "        print(name + ' raised' if message in str(error) else error)",
        "numerator_product = sigchar._numerator_product",
        "def corrupted(lams, depth=None):",
        "    plain, twisted = numerator_product(lams, depth)",
        "    plain[1] += 1",
        "    return plain, twisted",
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
    assert proc.stdout.split("\n")[:8] == [
        "merge raised", "commute raised", "self-adjoint raised", "kernel raised", "sum raised",
        "casimir raised", "invariance raised", "peel raised",
    ]
