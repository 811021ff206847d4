"""The tolerance policy: one singularity predicate, and every threshold of the
package defined in the tolerance block of mat2.py."""
import ast
import math
import pathlib

import numpy as np

from _oracles import random_mat2, scaled
from qprep3.mat2 import EPS_ZERO, FID_MIN, IDENTITY, STEP_TOL, Mat2, is_singular, l1

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "qprep3"
SMALL = 1e-5


def _tolerance_block_lines(tree: ast.Module) -> set[int]:
    """Lines of mat2.py's module-level assignments before its first def or class."""
    lines = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            break
        if isinstance(node, ast.Assign):
            lines.update(range(node.lineno, node.end_lineno + 1))
    return lines


def _small_literals(path: pathlib.Path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    allowed = _tolerance_block_lines(tree) if path.name == "mat2.py" else set()
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Constant)
            and type(node.value) in (int, float)
            and 0 < node.value < SMALL
            and node.lineno not in allowed
        ):
            yield f"{path.name}:{node.lineno}: {node.value!r}"


def test_no_threshold_outside_the_tolerance_block():
    files = sorted(PACKAGE.glob("*.py"))
    assert any(p.name == "mat2.py" for p in files)
    found = [hit for path in files for hit in _small_literals(path)]
    assert found == []


def test_step_checks_sit_above_branch_decisions():
    # a block one decision calls singular must pass every later check
    assert EPS_ZERO < STEP_TOL


def test_branch_decisions_sit_inside_the_fidelity_floor():
    # a decision that skips a residual r <= EPS_ZERO costs an infidelity of
    # about r^2, which must stay well inside the floor `finish` enforces
    assert EPS_ZERO**2 <= 1e-2 * (1.0 - FID_MIN)


class TestIsSingular:
    def test_examples(self):
        assert is_singular(Mat2(0, 0, 0, 0), EPS_ZERO)
        assert is_singular(Mat2(1, 2, 2, 4), EPS_ZERO)
        assert not is_singular(IDENTITY, STEP_TOL)

    def test_small_but_well_conditioned_block_is_not_singular(self):
        # |det| ~ 1e-8 is far below EPS_ZERO, but the smallest singular value
        # (~1e-4) is not
        m = scaled(Mat2(1, 0.5j, -0.25, 1), 1e-4)
        assert abs(m.det()) < EPS_ZERO
        assert not is_singular(m, EPS_ZERO) and not is_singular(m, STEP_TOL)

    def test_bounds_the_smallest_singular_value(self):
        rng = np.random.default_rng(81)
        for _ in range(1000):
            m = scaled(random_mat2(rng), 10.0 ** rng.uniform(-12, 0))
            smin = np.linalg.svd(np.array([[m.a, m.b], [m.c, m.d]]), compute_uv=False)[-1]
            assert is_singular(m, 1.01 * smin)
            assert not is_singular(m, smin / (1.01 * math.sqrt(2.0)))

    def test_l1_accepts_what_the_step_check_accepts(self):
        # a block nonzero at EPS_ZERO and singular at STEP_TOL must be taken
        # by l1. Synthesis reaches l1 only past its `A1=0` decision (largest
        # entry above EPS_ZERO), and the Frobenius norm is at least that entry
        m = scaled(Mat2(1, 0.5j, -0.25, 1), 5e-6)
        assert max(map(abs, m)) > EPS_ZERO
        assert is_singular(m, STEP_TOL)
        w = l1(m) @ m
        assert max(abs(w.c), abs(w.d)) <= STEP_TOL
