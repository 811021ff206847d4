"""2x2 complex matrices and the special unitary constructions of the synthesis core.

Every construction returns a matrix of the form

    U(x, y) = [[x, y], [-conj(y), conj(x)]] / sqrt(|x|^2 + |y|^2)

which is unitary with determinant exactly 1, and maps real inputs to real
outputs. All functions are pure. Mat2 is an immutable named tuple of its four
entries (a, b, c, d), so it compares and hashes by value.
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

# Relative threshold for "zero"/"singular" decisions (operands are O(1) for
# unit-norm states); unitarity defect allowance for constructed gates.
EPS_ZERO = 1e-10
EPS_UNITARY = 1e-12
# Constructions have a gauge freedom; inputs this close to real take the real
# representative so rounding-level imaginary parts cannot amplify.
REAL_SNAP = 1e-13


class Mat2(namedtuple("Mat2", "a b c d")):
    """Complex 2x2 matrix [[a, b], [c, d]]."""

    __slots__ = ()

    def det(self) -> complex:
        return self.a * self.d - self.b * self.c

    def frobenius(self) -> float:
        return math.sqrt(
            abs(self.a) ** 2 + abs(self.b) ** 2 + abs(self.c) ** 2 + abs(self.d) ** 2
        )

    def transpose(self) -> "Mat2":
        return Mat2(self.a, self.c, self.b, self.d)

    def conjugate(self) -> "Mat2":
        return Mat2(
            self.a.conjugate(), self.b.conjugate(), self.c.conjugate(), self.d.conjugate()
        )

    def dagger(self) -> "Mat2":
        return Mat2(
            self.a.conjugate(), self.c.conjugate(), self.b.conjugate(), self.d.conjugate()
        )

    def __matmul__(self, other: "Mat2") -> "Mat2":
        return Mat2(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def cols(self) -> tuple[tuple[complex, complex], tuple[complex, complex]]:
        return ((self.a, self.c), (self.b, self.d))

    def entries(self) -> tuple[complex, complex, complex, complex]:
        return tuple(self)

    def max_imag(self) -> float:
        return max(abs(self.a.imag), abs(self.b.imag), abs(self.c.imag), abs(self.d.imag))

    def distance_to(self, other: "Mat2") -> float:
        return max(
            abs(self.a - other.a),
            abs(self.b - other.b),
            abs(self.c - other.c),
            abs(self.d - other.d),
        )


IDENTITY = Mat2(1, 0, 0, 1)
Z = Mat2(1, 0, 0, -1)
# det +1 block swap, used instead of X so every emitted gate stays in SU(2)
SWAP_BLOCKS = Mat2(0, 1, -1, 0)


def u_from_pair(x: complex, y: complex) -> Mat2:
    """U(x, y): unit-determinant unitary with first row (x, y) normalized."""
    n2 = abs(x) ** 2 + abs(y) ** 2
    if n2 <= EPS_ZERO * EPS_ZERO:
        raise ZeroPairError("u_from_pair requires (x, y) != (0, 0)")
    inv = 1.0 / math.sqrt(n2)
    x = complex(x)
    y = complex(y)
    return Mat2(x * inv, y * inv, -y.conjugate() * inv, x.conjugate() * inv)


def _row_gauge(a: complex, b: complex, c: complex, d: complex) -> float:
    # squared Frobenius norm, the natural scale for determinant comparisons
    return abs(a) ** 2 + abs(b) ** 2 + abs(c) ** 2 + abs(d) ** 2


def _snap_real(m: Mat2) -> Mat2:
    if 0.0 < m.max_imag() <= REAL_SNAP * max(m.frobenius(), 1e-300):
        return real_parts(m)
    return m


def r1(m: Mat2) -> Mat2:
    """Unitary R1(m) for nonsingular m: m @ r1(m) has proportional rows after a
    sign flip of its (2,2) entry, with ratio k (w21 = k*w11, w22 = -k*w12)."""
    m = _snap_real(m)
    a, b, c, d = m.entries()
    scale = _row_gauge(a, b, c, d)
    if abs(m.det()) <= EPS_ZERO * max(scale, 1e-300):
        raise SingularInputError("r1 requires det != 0")
    k = r1_ratio(m)
    x = d - b * k
    y = c.conjugate() - a.conjugate() * k.conjugate()
    return u_from_pair(x, y)


def r1_ratio(m: Mat2) -> complex:
    """The proportionality constant k of r1, for nonsingular m."""
    m = _snap_real(m)
    a, b, c, d = m.entries()
    scale = _row_gauge(a, b, c, d)
    top = abs(a) ** 2 + abs(b) ** 2
    bot = abs(c) ** 2 + abs(d) ** 2
    beta = a * c.conjugate() + b * d.conjugate()
    if abs(beta) <= EPS_ZERO * scale:
        return complex(math.sqrt(bot / top))
    return -math.sqrt(bot / (abs(beta) ** 2 * top)) * beta.conjugate()


def _require_singular_nonzero(m: Mat2, who: str) -> float:
    norm = m.frobenius()
    if norm <= EPS_ZERO:
        raise ZeroMatrixError(f"{who} requires a nonzero matrix")
    if abs(m.det()) > EPS_ZERO * norm * norm:
        raise NonSingularInputError(f"{who} requires det = 0")
    return norm


def r2(m: Mat2) -> Mat2:
    """Unitary R2(m) for nonzero singular m, a row-aligning gate.

    For any D = [[alpha,0],[0,0]], all rows of D @ r2(m) and m @ r2(m) @ Z are
    multiples of one single row vector.
    """
    m = _snap_real(m)
    norm = _require_singular_nonzero(m, "r2")
    a, b, c, d = m.entries()
    if math.sqrt(abs(a) ** 2 + abs(b) ** 2) > EPS_ZERO * norm:
        if abs(a) <= EPS_ZERO * norm:
            k: complex = math.sqrt(abs(a) ** 2 + abs(b) ** 2)
        else:
            k = -math.sqrt((abs(a) ** 2 + abs(b) ** 2) / abs(a) ** 2) * a
        x = b
        y = a.conjugate() - complex(k).conjugate()
    else:
        # first row zero; the scale factor multiplies c, mirroring the
        # first-row case (validated by the row-proportionality suite)
        if abs(c) <= EPS_ZERO * norm:
            k = math.sqrt(abs(c) ** 2 + abs(d) ** 2)
        else:
            k = -math.sqrt((abs(c) ** 2 + abs(d) ** 2) / abs(c) ** 2) * c
        x = d
        y = c.conjugate() - complex(k).conjugate()
    return u_from_pair(x, y)


def l1(m: Mat2) -> Mat2:
    """Unitary L1(m) for nonzero singular m: the second row of l1(m) @ m vanishes.

    The common column direction (v1, v2) is taken from the larger column,
    normalized, with its first nonzero component made real-positive.
    """
    m = _snap_real(m)
    norm = _require_singular_nonzero(m, "l1")
    (c1a, c1b), (c2a, c2b) = m.cols()
    n1 = abs(c1a) ** 2 + abs(c1b) ** 2
    n2 = abs(c2a) ** 2 + abs(c2b) ** 2
    v1, v2 = (c1a, c1b) if n1 >= n2 else (c2a, c2b)
    vnorm = math.sqrt(abs(v1) ** 2 + abs(v2) ** 2)
    v1 = v1 / vnorm
    v2 = v2 / vnorm
    lead = v1 if abs(v1) > EPS_ZERO else v2
    phase = lead / abs(lead)
    v1 /= phase
    v2 /= phase
    return u_from_pair(v1.conjugate(), v2.conjugate())


def r3(m: Mat2) -> Mat2:
    """Unitary R3 for m = [[a, b], [0, 0]]: m @ r3(m) = [[|row1|, 0], [0, 0]]."""
    m = _snap_real(m)
    norm = m.frobenius()
    a, b, c, d = m.entries()
    if math.sqrt(abs(c) ** 2 + abs(d) ** 2) > EPS_ZERO * max(norm, 1e-300):
        raise BadShapeError("r3 requires a vanishing second row")
    if math.sqrt(abs(a) ** 2 + abs(b) ** 2) <= EPS_ZERO:
        raise BadShapeError("r3 requires a nonzero first row")
    return u_from_pair(a.conjugate(), -b)


def solve_det_pencil(m_a: Mat2, m_b: Mat2) -> list[complex]:
    """Roots z of det(A + z*B) = 0, for det(B) != 0.

    The quadratic det(B) z^2 + (aA*dB + aB*dA - bA*cB - bB*cA) z + det(A) is
    solved in the cancellation-free form (larger-magnitude root first, the
    other from the product of roots). Returned in ascending |z|, ties broken
    by ascending phase in [0, 2*pi).
    """
    q2 = m_b.det()
    scale_b = m_b.frobenius()
    if abs(q2) <= EPS_ZERO * max(scale_b * scale_b, 1e-300):
        raise SingularPencilCoefficientError("solve_det_pencil requires det(B) != 0")
    q1 = m_a.a * m_b.d + m_b.a * m_a.d - m_a.b * m_b.c - m_b.b * m_a.c
    q0 = m_a.det()
    roots = _solve_quadratic(q2, q1, q0)
    return sorted(roots, key=_root_order_key)


def _solve_quadratic(q2: complex, q1: complex, q0: complex) -> list[complex]:
    disc = q1 * q1 - 4.0 * q2 * q0
    sq = cmath.sqrt(disc)
    # pick the sign that avoids cancellation in q1 + sq
    if (q1.conjugate() * sq).real < 0.0:
        sq = -sq
    big = -0.5 * (q1 + sq)
    if abs(big) == 0.0:
        # only reachable when q1 = 0 and q0 = 0: double root at the origin
        return [0j, 0j]
    return [big / q2, q0 / big]


def _root_order_key(z: complex) -> tuple[float, float]:
    phase = cmath.phase(z) % (2.0 * math.pi)
    return (abs(z), phase)


def real_parts(m: Mat2) -> Mat2:
    return Mat2(m.a.real, m.b.real, m.c.real, m.d.real)
