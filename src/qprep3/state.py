"""Pure-state containers, block-matrix views, the real discriminant, and
tensor-factorization tests.

A state keeps its validated amplitudes as a tuple of Python complex numbers
(`w`), and everything in the package computes on that tuple. The public
`amps` array is built from it on first access; numpy is imported only then,
and by the seeded samplers `random_state`/`random_state2`.

Amplitude ordering is |000>, |001>, ..., |111> with qubit 0 the rightmost
(least significant) position of the ket label: basis index i has qubit q in
state (i >> q) & 1. A 3-qubit state splits into two 2x2 blocks,
|phi> = |0>T0 + |1>T1, with T0 = [[w0, w1], [w2, w3]], T1 = [[w4, w5], [w6, w7]].
That is the split on qubit 2, which _split reads; a reader of another
qubit's split takes its eight entries at once (_SPLIT_ENTRIES).
"""
from __future__ import annotations

import cmath
import math
from collections import namedtuple
from functools import cached_property
from operator import itemgetter

from .errors import NotNormalizedError, NotRealError
from .mat2 import NORM_EXACT, NORM_REJECT, REAL_STATE_TOL, STEP_TOL, Mat2, dominant_direction, is_singular


def _prepare_amps(raw, length: int) -> tuple[complex, ...]:
    """Validated amplitudes of any flat sequence (numpy arrays included)."""
    # a numpy array is read through tolist(): Python scalars convert faster
    w = tuple(map(complex, raw.tolist() if hasattr(raw, "tolist") else raw))
    if len(w) != length:
        raise ValueError(f"expected {length} amplitudes, got {len(w)}")
    if not all(map(cmath.isfinite, w)):
        raise NotNormalizedError("amplitudes must be finite")
    norm = math.sqrt(math.fsum([x * x for z in w for x in (z.real, z.imag)]))
    if abs(norm - 1.0) > NORM_REJECT:
        raise NotNormalizedError(f"state norm {norm!r} is not within {NORM_REJECT} of 1")
    if abs(norm - 1.0) > NORM_EXACT:
        # times the reciprocal, as numpy divides a complex array by a real norm
        scale = 1.0 / norm
        w = tuple(complex(z.real * scale, z.imag * scale) for z in w)
    return w


def _read_only_array(w: tuple[complex, ...]):
    import numpy as np

    amps = np.array(w, dtype=np.complex128)
    amps.flags.writeable = False
    return amps


class _PureState:
    """Normalized state of `num_qubits` qubits, immutable, equal only to itself.

    Built from any flat sequence of 2**num_qubits amplitudes; `w` holds them
    validated, as a tuple of Python complex. `amps` is the same amplitudes as
    a read-only complex128 numpy array, made on first access.
    """

    num_qubits: int

    def __init__(self, w):
        object.__setattr__(self, "w", w)
        self.__post_init__()

    # Each subclass binds this in its own namespace, where the benchmark's
    # tracer (perfbench/spans.py) wraps it to time and count validation.
    def __post_init__(self):
        object.__setattr__(self, "w", _prepare_amps(self.w, 1 << self.num_qubits))

    def __setattr__(self, *_):
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__

    def __repr__(self) -> str:
        return f"{type(self).__name__}(w={self.w!r})"

    @cached_property
    def amps(self):
        return _read_only_array(self.w)

    def max_imag(self) -> float:
        return max(abs(z.imag) for z in self.w)

    def is_real(self) -> bool:
        return self.max_imag() <= REAL_STATE_TOL


class PureState3(_PureState):
    """Normalized 3-qubit state, order |000>, |001>, ..., |111>."""

    num_qubits = 3
    __post_init__ = _PureState.__post_init__


class PureState2(_PureState):
    """Normalized 2-qubit state, order |00>, |01>, |10>, |11>."""

    num_qubits = 2
    __post_init__ = _PureState.__post_init__


State = PureState2 | PureState3


class BlockPair(namedtuple("BlockPair", "t0 t1")):
    """The two 2x2 amplitude blocks of a 3-qubit state."""

    __slots__ = ()


class Factorization(namedtuple("Factorization", "pair single")):
    """A (2-qubit) x (1-qubit) split of a 3-qubit state.

    `pair` is a PureState2 on qubits (2, 1); `single` is qubit 0 as (v1, v2),
    unit norm, leading entry real-positive.
    """

    __slots__ = ()


def _check_num_qubits(n: int) -> None:
    if n not in (2, 3):
        raise ValueError(f"qubit count must be 2 or 3, got {n}")


def basis_state(num_qubits: int, index: int = 0) -> State:
    """The computational basis state |index> of 2 or 3 qubits."""
    _check_num_qubits(num_qubits)
    if not 0 <= index < 1 << num_qubits:
        raise ValueError(f"basis index must be in 0..{(1 << num_qubits) - 1}, got {index}")
    amps = [0j] * 2**num_qubits
    amps[index] = 1 + 0j
    return PureState3(amps) if num_qubits == 3 else PureState2(amps)


# by qubit q, the amplitudes of the blocks A (q is 0) and B (q is 1) of the
# split on q, each read row-major as a 2x2 matrix over the other two qubits;
# q = 2 gives T0 and T1, w[:4] and w[4:] (_split)
_SPLIT_INDICES = (((0, 2, 4, 6), (1, 3, 5, 7)), ((0, 1, 4, 5), (2, 3, 6, 7)), ((0, 1, 2, 3), (4, 5, 6, 7)))
# the eight entries in one read, A's then B's, as mat2._pencil_form takes
# them: a reader that needs only the form builds no block
_SPLIT_ENTRIES = [itemgetter(*ia, *ib) for ia, ib in _SPLIT_INDICES]


def _split(w) -> tuple[Mat2, Mat2]:
    """The blocks (T0, T1), w[:4] and w[4:], of the 8 amplitudes w, the one
    block reader. The entries are taken as they are: callers pass Python
    complex (a state's `w`, or the synthesis's tracked list) or, in real
    mode, floats, and nothing is validated."""
    return tuple.__new__(Mat2, w[:4]), tuple.__new__(Mat2, w[4:])


def blocks(s: PureState3) -> BlockPair:
    """Split s into |0>T0 + |1>T1."""
    return BlockPair(*_split(s.w))


def delta(s: PureState3) -> float:
    """Real discriminant of a real 3-qubit state.

    delta >= 0 means the step-1 pencil has a real root. delta < 0 means it
    has none. Synthesis does not read delta: real mode starts a generic
    state with the chain prefix, whose gate is real for either sign, and
    the bound is 3 CZ for either sign. Near a degenerate split form, delta =
    0 among them, other attempts run beside the prefix (see synth._route3).
    Raises NotRealError when the state has imaginary content above REAL_STATE_TOL.
    """
    if not s.is_real():
        raise NotRealError("delta is defined only for real-amplitude states")
    # q1^2 - 4 q2 q0 of mat2._pencil_form(*T0, *T1), kept in its own sum
    # order, which sets the `delta` command's output and `sweep`'s delta<0
    # count: in the pencil's order its bits change on 18,508 of 67,483 real
    # states measured (50,000 Haar-random, 17,483 near-degenerate), which
    # can flip the sign of a delta near 0
    w = [z.real for z in s.w]
    s1 = w[0] * w[7] - w[1] * w[6] - w[2] * w[5] + w[3] * w[4]
    return float(s1 * s1 - 4.0 * (w[1] * w[2] - w[0] * w[3]) * (w[5] * w[6] - w[4] * w[7]))


def factor_right(s: PureState3) -> Factorization | None:
    """Split s into (2-qubit state on qubits 2,1) x (single qubit 0) if possible.

    It splits iff every pair of the four block rows, as a 2x2 matrix, is
    singular to within STEP_TOL (mat2.is_singular). `single` is then the
    dominant row normalized, its first nonzero component made real-positive,
    and `pair` the coefficients of the block rows along it.
    """
    rows = list(zip(s.w[0::2], s.w[1::2]))
    for i in range(4):
        for j in range(i + 1, 4):
            if not is_singular(tuple.__new__(Mat2, rows[i] + rows[j]), STEP_TOL):
                return None
    v1, v2 = single = dominant_direction(rows)
    coeffs = [v1.conjugate() * r[0] + v2.conjugate() * r[1] for r in rows]
    return Factorization(PureState2(coeffs), single)


def overlap(s1, s2) -> float:
    """|<s1|s2>|, the phase-blind fidelity between same-size states.

    Each part of the inner product is summed with math.fsum, so the result
    does not depend on summation order. States of different sizes raise
    ValueError.
    """
    if len(s1.w) != len(s2.w):
        raise ValueError(f"overlap needs states of one size, got {s1.num_qubits} and {s2.num_qubits} qubits")
    return _overlap(s1.w, s2.w)


def _overlap(w1, w2) -> float:
    """|<w1|w2>| of two amplitude sequences of one length, complex or float,
    each part of the inner product summed with math.fsum; nothing is
    checked. overlap and synth.prepare's round trip both call it."""
    terms = [a.conjugate() * b for a, b in zip(w1, w2)]
    return abs(complex(math.fsum([t.real for t in terms]), math.fsum([t.imag for t in terms])))


def random_state(seed, real_only: bool = False) -> PureState3:
    """Haar-like random 3-qubit state: normalized iid Gaussian amplitudes."""
    return PureState3(_gaussian_amps(seed, 8, real_only))


def random_state2(seed, real_only: bool = False) -> PureState2:
    """Haar-like random 2-qubit state."""
    return PureState2(_gaussian_amps(seed, 4, real_only))


def _gaussian_amps(seed, length: int, real_only: bool):
    import numpy as np

    rng = np.random.default_rng(seed)
    amps = rng.standard_normal(length).astype(np.complex128)
    if not real_only:
        amps += 1j * rng.standard_normal(length)
    return amps / np.linalg.norm(amps)
