"""Statevector kernels: the block-update rules on a plain amplitude sequence.

Basis index i has qubit q in state (i >> q) & 1, as in state.py. Each kernel
takes any sequence of 2**n amplitudes (n = 2 or 3), complex or float, and
returns a fresh list; the input is never mutated and nothing is validated.
Float amplitudes and gate entries stay float, which CPython computes faster.

A local gate on qubit q mixes each index pair (i, i | 1 << q) with the qubit 0
in i, as lo, hi -> u00*lo + u01*hi, u10*lo + u11*hi. There is one
straight-line function per (length, qubit), so no index is computed at run
time; a CZ negates a precomputed tuple of indices.
"""


def _local4_q0(w, u00, u01, u10, u11):
    a0, a1, a2, a3 = w
    return [u00 * a0 + u01 * a1, u10 * a0 + u11 * a1, u00 * a2 + u01 * a3, u10 * a2 + u11 * a3]


def _local4_q1(w, u00, u01, u10, u11):
    a0, a1, a2, a3 = w
    return [u00 * a0 + u01 * a2, u00 * a1 + u01 * a3, u10 * a0 + u11 * a2, u10 * a1 + u11 * a3]


def _local8_q0(w, u00, u01, u10, u11):
    a0, a1, a2, a3, a4, a5, a6, a7 = w
    return [
        u00 * a0 + u01 * a1, u10 * a0 + u11 * a1, u00 * a2 + u01 * a3, u10 * a2 + u11 * a3,
        u00 * a4 + u01 * a5, u10 * a4 + u11 * a5, u00 * a6 + u01 * a7, u10 * a6 + u11 * a7,
    ]


def _local8_q1(w, u00, u01, u10, u11):
    a0, a1, a2, a3, a4, a5, a6, a7 = w
    return [
        u00 * a0 + u01 * a2, u00 * a1 + u01 * a3, u10 * a0 + u11 * a2, u10 * a1 + u11 * a3,
        u00 * a4 + u01 * a6, u00 * a5 + u01 * a7, u10 * a4 + u11 * a6, u10 * a5 + u11 * a7,
    ]


def _local8_q2(w, u00, u01, u10, u11):
    a0, a1, a2, a3, a4, a5, a6, a7 = w
    return [
        u00 * a0 + u01 * a4, u00 * a1 + u01 * a5, u00 * a2 + u01 * a6, u00 * a3 + u01 * a7,
        u10 * a0 + u11 * a4, u10 * a1 + u11 * a5, u10 * a2 + u11 * a6, u10 * a3 + u11 * a7,
    ]


# keyed by length + qubit, one int: a pair outside the five finds no key, or
# a kernel of the other length, whose unpacking raises ValueError
_LOCAL = {4: _local4_q0, 5: _local4_q1, 8: _local8_q0, 9: _local8_q1, 10: _local8_q2}

# (length, qi, qj) -> the indices whose qubits qi and qj are both 1
_CZ_FLIPS = {
    (1 << n, qi, qj): tuple(i for i in range(1 << n) if (i >> qi) & (i >> qj) & 1)
    for n in (2, 3)
    for qj in range(n)
    for qi in range(qj)
}


def apply_local(amps, qubit, u00, u01, u10, u11):
    """Apply the 2x2 unitary [[u00, u01], [u10, u11]] to one qubit."""
    return _LOCAL[len(amps) + qubit](amps, u00, u01, u10, u11)


def apply_cz(amps, qi, qj):
    """Flip the sign of every amplitude whose qubits qi and qj are both 1."""
    out = list(amps)
    for i in _CZ_FLIPS[len(out), qi, qj]:
        out[i] = -out[i]
    return out
