"""Symbolic identities behind the CZ bounds, checked exactly with sympy.

- README's Δ is the pencil discriminant q1^2 - 4 q2 q0 of det(xA + yB) for
  the split on each of the three qubits (Cayley's hyperdeterminant), with
  the form taken from mat2._pencil_form itself.
- A real 2-CZ circuit leaves |u>P + |u_perp>Q on its middle qubit, u real
  and P, Q products, so xA + yB on that split is lambda P + mu Q, with
  lambda and mu real linear forms in x, y. For rank-1 P = (a, b)^T (c, d)
  and Q = (e, f)^T (g, h), det(lambda P + mu Q) = lambda mu (af - be)(ch -
  dg): the pencil's null directions are real, so Δ >= 0. This is the
  algebra of the real lower bound (ROADMAP item 3).
"""
import sympy

from qprep3.mat2 import _pencil_form
from qprep3.state import _SPLIT_INDICES


def test_delta_is_the_pencil_discriminant_of_every_split():
    w = sympy.symbols("w0:8")
    readme_delta = (w[0] * w[7] - w[1] * w[6] - w[2] * w[5] + w[3] * w[4]) ** 2 - 4 * (
        w[1] * w[2] - w[0] * w[3]
    ) * (w[5] * w[6] - w[4] * w[7])
    assert len(_SPLIT_INDICES) == 3
    for ia, ib in _SPLIT_INDICES:
        q2, q1, q0 = _pencil_form(*(w[i] for i in ia + ib))
        assert sympy.expand(readme_delta - (q1 * q1 - 4 * q2 * q0)) == 0


def test_rank_one_pencil_determinant_factors():
    lam, mu, a, b, c, d, e, f, g, h = sympy.symbols("lambda mu a b c d e f g h")
    p = sympy.Matrix([a, b]) * sympy.Matrix([[c, d]])
    q = sympy.Matrix([e, f]) * sympy.Matrix([[g, h]])
    det = (lam * p + mu * q).det()
    assert sympy.expand(det - lam * mu * (a * f - b * e) * (c * h - d * g)) == 0
