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
- The chain prefix on a real state (synth module docstring): U(1, z) on
  qubit 1, then cz01, leaves qubit 1's split with q0 + q2 = -v^T K v, v =
  (1, z) and K from synth._chain_form, so K's root makes the form
  traceless (q2 = -q0). K is traceless and the discriminant of v^T K v is a
  sum of squares, so a real root always exists. And q2 = -q0 gives
  det(B - zA) = -det(A + zB): the finisher's root gate on the chain middle
  makes both blocks singular.
"""
import sympy

from qprep3 import kernels
from qprep3.mat2 import _pencil_form
from qprep3.state import _SPLIT_ENTRIES, _SPLIT_INDICES
from qprep3.synth import _chain_form

# real amplitudes, and z the real parameter of U(1, z)
W = sympy.symbols("w0:8", real=True)
Z = sympy.Symbol("z", real=True)


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


def test_chain_prefix_root_makes_the_form_traceless():
    # U(1, z) unnormalized on qubit 1, then cz01, by the package's kernels
    after = kernels.apply_cz(kernels.apply_local(list(W), 1, 1, Z, -Z, 1), 0, 1)
    q2, _, q0 = _pencil_form(*_SPLIT_ENTRIES[1](after))
    k11, k01_2, k00 = _chain_form(list(W))
    assert sympy.expand(q0 + q2 + (k00 + k01_2 * Z + k11 * Z**2)) == 0


def test_chain_form_is_traceless_with_a_sum_of_squares_discriminant():
    w0, w1, w2, w3, w4, w5, w6, w7 = W
    d_aa, d_bb = w0 * w5 - w4 * w1, w2 * w7 - w6 * w3
    s = (w0 * w7 - w4 * w3) + (w2 * w5 - w6 * w1)
    k11, k01_2, k00 = _chain_form(list(W))
    assert sympy.expand(k11 + k00) == 0
    assert sympy.expand(k01_2**2 - 4 * k11 * k00 - (4 * s**2 + 4 * (d_aa - d_bb) ** 2)) == 0


def test_traceless_form_gives_opposite_pencil_determinants():
    a = sympy.Matrix(2, 2, sympy.symbols("a0:4"))
    b = sympy.Matrix(2, 2, sympy.symbols("b0:4"))
    z = sympy.Symbol("z")
    identity = (b - z * a).det() + (a + z * b).det() - (z**2 + 1) * (a.det() + b.det())
    assert sympy.expand(identity) == 0
    # det A and det B are the form's q0 and q2, so q2 = -q0 makes the sum 0
    q2, _, q0 = _pencil_form(*a, *b)
    assert sympy.expand(q0 - a.det()) == 0 and sympy.expand(q2 - b.det()) == 0
