"""Statevector kernels: the block-update rules on a plain amplitude sequence.

Basis index i has qubit q in state (i >> q) & 1, as in state.py. Each kernel
takes any sequence of 2**n complex amplitudes and returns a fresh list; the
input is never mutated and nothing is validated.
"""


def apply_local(amps, qubit, u00, u01, u10, u11):
    """Apply the 2x2 unitary [[u00, u01], [u10, u11]] to one qubit."""
    out = list(amps)
    step = 1 << qubit
    for base in range(len(out)):
        if base & step:
            continue
        lo = out[base]
        hi = out[base | step]
        out[base] = u00 * lo + u01 * hi
        out[base | step] = u10 * lo + u11 * hi
    return out


def apply_cz(amps, qi, qj):
    """Flip the sign of every amplitude whose qubits qi and qj are both 1."""
    mask = (1 << qi) | (1 << qj)
    return [-a if (base & mask) == mask else a for base, a in enumerate(amps)]
