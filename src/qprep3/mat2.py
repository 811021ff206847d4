"""2x2 matrices and the special unitary constructions of the synthesis core.

Every construction returns a matrix of the form

    U(x, y) = [[x, y], [-conj(y), conj(x)]] / sqrt(|x|^2 + |y|^2)

which is unitary with determinant exactly 1, and maps real inputs to real
outputs. All functions are pure. Mat2 is an immutable named tuple of its four
entries (a, b, c, d), so it compares and hashes by value.

Entries are Python complex in general mode and Python float in real mode,
which computes on its input's real parts (synth._amps): the constructions
keep their inputs' type, so floats in give floats out (u_from_pair casts
only a float paired with a complex). No construction picks a gauge: a
complex block gets complex arithmetic, however close to real it is.

Mat2 checks nothing about its fields, so the values built on the hot paths
(u_from_pair, transpose, dagger, @, state._split, which makes every block
read, state.factor_right and circuit.parse_circuit) are made as
tuple.__new__(Mat2, (a, b, c, d)): the same value as Mat2(a, b, c, d),
without the Python frame of the named tuple's __new__.
The predicate on that path, is_singular, unpacks the four entries once and
computes the det()/frobenius() expression inline, with the same
arithmetic, so every result has the same bits.
"""
from __future__ import annotations

import cmath
import math
from collections import namedtuple

from .errors import (
    BadShapeError,
    NonSingularInputError,
    SingularInputError,
    SingularPencilCoefficientError,
    ZeroMatrixError,
    ZeroPairError,
)

# --- tolerances -----------------------------------------------------------
# The only place the package defines a threshold. Amplitudes of a unit-norm
# state set the scale: a vector or block is zero when its norm is at most
# the tolerance, and a 2x2 block is singular when is_singular says so.

# Branch decisions: which synthesis path a zero/singular block takes, and
# whether the chain finisher's last step maps a wire (one within EPS_ZERO of
# |0> gets no gate). Skipping a residual r <= EPS_ZERO costs an infidelity
# of about r^2 <= 1e-12, but the step checks at STEP_TOL accept residuals
# that cost up to the floor: on 23,715 screened near-degenerate runs the
# worst 1 - F was 9.8e-11 against FID_MIN's 1e-10, and 1,125 of the 1,150
# runs at 1e-12 or more were won by a chain finisher. `finish` rejects any
# result below FID_MIN.
EPS_ZERO = 1e-6
# Step checks, l1's precondition among them (synthesis's step-1 check); 10x
# above EPS_ZERO, so a block one decision accepts passes every later check.
# Also the route's screen (synth._screen): a split form with a singular
# value, or a gap between its two, this small runs the flow beside the chain
# prefix, and each qubit whose form has such a gap gets a finisher attempt.
STEP_TOL = 1e-5
# Local gates this close to +-I (a global phase) are not emitted.
PRUNE_TOL = 1e-14
# Largest imaginary part of an input that counts as a real state. Real mode
# drops it and computes on the real parts alone (synth._amps), which moves
# the input's fidelity by at most 4e-24.
REAL_STATE_TOL = 1e-12
# Largest imaginary part of a gate that counts as real (real-mode output),
# and how closely Ry(theta) must reproduce a gate for `--ry` to report theta.
REAL_GATE_TOL = 1e-10
# A pencil root counts as real below this imaginary part (real mode's root
# gate, in step 1 and in the chain finisher).
REAL_ROOT_TOL = 1e-8
# Relative to the size of its terms, a pencil discriminant this small is
# rounding noise: the root is double, and its two computed copies would sit
# ~sqrt(eps) apart, each farther from it than their mean -q1 / (2 q2).
# _pencil_root snaps it, so the snap governs every root the synthesis takes
# (step 1 and the chain finisher) and both of solve_det_pencil's. Synthesis
# would pass without it (its step checks sit at STEP_TOL), but
# solve_det_pencil promises a double root to 1e-12, and unsnapped copies
# split by ~1e-8; and an exact double root at 0 (q1 = q0 = 0) would divide
# 0 by 0 in the cancellation-free form.
DOUBLE_ROOT_TOL = 1e-12
# `qprep3 delta` prints delta~0 within this of zero (rounding of exact zeros).
# Synthesis does not read it.
DELTA_ZERO_BAND = 1e-12
# Inputs farther than NORM_REJECT from unit norm are rejected; those farther
# than NORM_EXACT are renormalized (closer ones pass through bit-identically).
NORM_REJECT = 1e-6
NORM_EXACT = 1e-12
# Smallest simulated fidelity a synthesis, 2- or 3-qubit, may report.
FID_MIN = 1.0 - 1e-10


class Mat2(namedtuple("Mat2", "a b c d")):
    """2x2 matrix [[a, b], [c, d]] of Python complex or float entries."""

    __slots__ = ()

    def det(self) -> complex:
        a, b, c, d = self
        return a * d - b * c

    def frobenius(self) -> float:
        a, b, c, d = self
        return math.hypot(abs(a), abs(b), abs(c), abs(d))

    def transpose(self) -> "Mat2":
        a, b, c, d = self
        return tuple.__new__(Mat2, (a, c, b, d))

    def dagger(self) -> "Mat2":
        a, b, c, d = self
        return tuple.__new__(Mat2, (a.conjugate(), c.conjugate(), b.conjugate(), d.conjugate()))

    def __matmul__(self, other: "Mat2") -> "Mat2":
        a, b, c, d = self
        e, f, g, h = other
        return tuple.__new__(Mat2, (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h))

    def max_imag(self) -> float:
        return _max_abs(self.a.imag, self.b.imag, self.c.imag, self.d.imag)

    def distance_to(self, other: "Mat2") -> float:
        return _max_abs(self.a - other.a, self.b - other.b, self.c - other.c, self.d - other.d)


def _max_abs(*xs) -> float:
    """The largest |x|, NaN when any x is NaN (max() keeps a NaN only in its
    first position), so a NaN anywhere fails every `<= tol` test."""
    mags = [abs(x) for x in xs]
    return math.nan if math.isnan(sum(mags)) else max(mags)


IDENTITY = Mat2(1, 0, 0, 1)
Z = Mat2(1, 0, 0, -1)
# det +1 block swap, used instead of X so every emitted gate stays in SU(2)
SWAP_BLOCKS = Mat2(0, 1, -1, 0)


def u_from_pair(x: complex, y: complex) -> Mat2:
    """U(x, y): unit-determinant unitary with first row (x, y) normalized.

    Its entries are floats when x and y both are, else complex: a float
    next to a complex (general mode's step 1, U(1, z)) is cast, so no
    entry of a complex gate is a float."""
    n2 = abs(x) ** 2 + abs(y) ** 2
    if n2 <= EPS_ZERO * EPS_ZERO:
        raise ZeroPairError("u_from_pair requires (x, y) != (0, 0)")
    inv = 1.0 / math.sqrt(n2)
    if type(x) is not type(y):
        x = complex(x)
        y = complex(y)
    return tuple.__new__(Mat2, (x * inv, y * inv, -y.conjugate() * inv, x.conjugate() * inv))


def is_singular(m: Mat2, tol: float) -> bool:
    """|det m| <= tol * ||m||_F: the smallest singular value of m is at most
    sqrt(2) * tol in amplitude units (true for every m with ||m||_F <= tol).
    Every singular decision and every singular check goes through it."""
    a, b, c, d = m
    return abs(a * d - b * c) <= tol * math.hypot(abs(a), abs(b), abs(c), abs(d))


def row2_norm(m: Mat2) -> float:
    """Size of the second row, max(|c|, |d|) (NaN when either is)."""
    return _max_abs(m.c, m.d)


def dominant_direction(vectors) -> tuple[complex, complex]:
    """The largest of the pairs in `vectors` (the first on ties), normalized,
    with its first nonzero component made real-positive."""
    norms = [abs(x) ** 2 + abs(y) ** 2 for x, y in vectors]
    dom = max(range(len(norms)), key=norms.__getitem__)
    v1, v2 = vectors[dom]
    vnorm = math.sqrt(norms[dom])
    v1, v2 = v1 / vnorm, v2 / vnorm
    lead = v1 if abs(v1) > EPS_ZERO else v2
    phase = lead / abs(lead)
    return v1 / phase, v2 / phase


def r1(m: Mat2) -> Mat2:
    """Unitary R1(m) for nonsingular m: m @ r1(m) has proportional rows after a
    sign flip of its (2,2) entry, with ratio k (w21 = k*w11, w22 = -k*w12)."""
    if is_singular(m, EPS_ZERO):
        raise SingularInputError("r1 requires det != 0")
    k = r1_ratio(m)
    a, b, c, d = m
    x = d - b * k
    y = c.conjugate() - a.conjugate() * k.conjugate()
    return u_from_pair(x, y)


def r1_ratio(m: Mat2) -> complex:
    """The proportionality constant k of r1, for nonsingular m."""
    a, b, c, d = m
    top = abs(a) ** 2 + abs(b) ** 2
    bot = abs(c) ** 2 + abs(d) ** 2
    beta = a * c.conjugate() + b * d.conjugate()
    if abs(beta) <= EPS_ZERO * m.frobenius() ** 2:
        return math.sqrt(bot / top)
    return -math.sqrt(bot / (abs(beta) ** 2 * top)) * beta.conjugate()


def _require_singular_nonzero(m: Mat2, who: str) -> None:
    # for l1, the singular test is synthesis's step-1 check
    if m.frobenius() <= EPS_ZERO:
        raise ZeroMatrixError(f"{who} requires a nonzero matrix")
    if not is_singular(m, STEP_TOL):
        raise NonSingularInputError(f"{who} requires det = 0")


def r2(m: Mat2) -> Mat2:
    """Unitary R2(m) for nonzero singular m, a row-aligning gate.

    For any D = [[alpha,0],[0,0]], all rows of D @ r2(m) and m @ r2(m) @ Z are
    multiples of one single row vector. The row (p, q) it aligns is the larger
    of m's two rows (the first on ties), so a row that is rounding noise next
    to the other is never the one aligned.
    """
    _require_singular_nonzero(m, "r2")
    a, b, c, d = m
    p, q = (a, b) if abs(a) ** 2 + abs(b) ** 2 >= abs(c) ** 2 + abs(d) ** 2 else (c, d)
    if abs(p) <= EPS_ZERO:
        k = math.sqrt(abs(p) ** 2 + abs(q) ** 2)
    else:
        k = -math.sqrt((abs(p) ** 2 + abs(q) ** 2) / abs(p) ** 2) * p
    return u_from_pair(q, p.conjugate() - k.conjugate())


def l1(m: Mat2) -> Mat2:
    """Unitary L1(m) for nonzero singular m: the second row of l1(m) @ m vanishes.

    The common column direction (v1, v2) is taken from the larger column,
    normalized, with its first nonzero component made real-positive.
    """
    _require_singular_nonzero(m, "l1")
    a, b, c, d = m
    v1, v2 = dominant_direction(((a, c), (b, d)))
    return u_from_pair(v1.conjugate(), v2.conjugate())


def r3(m: Mat2) -> Mat2:
    """Unitary R3 for m = [[a, b], [0, 0]]: m @ r3(m) = [[|row1|, 0], [0, 0]].

    The second row counts as zero up to STEP_TOL. This is the paper's step
    3, which synthesis skips: its chain finisher needs the top block only as
    a product, which a vanishing second row already makes it.
    """
    if row2_norm(m) > STEP_TOL:
        raise BadShapeError("r3 requires a vanishing second row")
    a, b, _, _ = m
    if math.sqrt(abs(a) ** 2 + abs(b) ** 2) <= EPS_ZERO:
        raise BadShapeError("r3 requires a nonzero first row")
    return u_from_pair(a.conjugate(), -b)


def solve_det_pencil(m_a: Mat2, m_b: Mat2) -> list[complex]:
    """Roots z of det(A + z*B) = 0, for det(B) != 0.

    The smaller root is _pencil_root's, of the quadratic det(B) z^2 +
    (aA*dB + aB*dA - bA*cB - bB*cA) z + det(A); the other, the larger, comes
    from the sum of the roots, so the subtraction cannot cancel. A double
    root is returned twice. Returned in ascending |z|, ties broken by
    ascending phase in [0, 2*pi).
    """
    if is_singular(m_b, EPS_ZERO):
        raise SingularPencilCoefficientError("solve_det_pencil requires det(B) != 0")
    q2, q1, q0 = _pencil_form(*m_a, *m_b)
    z = _pencil_root(q2, q1, q0)
    return sorted((z, -q1 / q2 - z), key=_root_order_key)


def _pencil_form(a, b, c, d, e, f, g, h) -> tuple[complex, complex, complex]:
    """(q2, q1, q0) with det(A + zB) = q2 z^2 + q1 z + q0, that is
    det(xA + yB) = q0 x^2 + q1 xy + q2 y^2, for A = [[a, b], [c, d]] and
    B = [[e, f], [g, h]]. It takes their eight entries, so a caller holding
    the blocks passes (*A, *B) and one reading amplitudes builds no block
    (state._SPLIT_ENTRIES). The one pencil-form formula."""
    return e * h - f * g, a * h + e * d - b * g - f * c, a * d - b * c


def _pencil_root(q2: complex, q1: complex, q0: complex) -> complex:
    """The finite root of q2 z^2 + q1 z + q0, the smaller one: q0 / big, with
    big = -(q1 + sqrt(disc)) / 2 signed to avoid cancellation, so it stays
    finite as q2 goes to 0 (-q0/q1 at q2 = 0). A discriminant within
    DOUBLE_ROOT_TOL of its terms gives the double root -q1 / (2 q2); with
    q1 = q2 = 0 there is no finite root, and the result is 0."""
    disc = q1 * q1 - 4.0 * q2 * q0
    if abs(disc) <= DOUBLE_ROOT_TOL * (abs(q1) ** 2 + abs(4.0 * q2 * q0)):
        # q2 = 0 passes only with q1 = 0
        return -q1 / (2.0 * q2) if q2 else 0.0
    sq = cmath.sqrt(disc)
    if (q1.conjugate() * sq).real < 0.0:
        sq = -sq
    # big != 0, as disc != 0
    return q0 / (-0.5 * (q1 + sq))


def _root_order_key(z: complex) -> tuple[float, float]:
    phase = cmath.phase(z) % (2.0 * math.pi)
    return (abs(z), phase)
