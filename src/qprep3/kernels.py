"""Statevector kernels: the block-update rules on a plain amplitude sequence.

Basis index i has qubit q in state (i >> q) & 1, as in state.py. Each kernel
takes any sequence of 2**n complex amplitudes (n <= 3) and returns a fresh
list; the input is never mutated and nothing is validated.
"""

# (length, qubit) -> the index pairs (i, i | 1 << qubit) that qubit mixes,
# for every i with the qubit 0, in ascending order
_PAIRS = {
    (1 << n, q): tuple((i, i | 1 << q) for i in range(1 << n) if not i & (1 << q))
    for n in (1, 2, 3)
    for q in range(n)
}


def apply_local(amps, qubit, u00, u01, u10, u11):
    """Apply the 2x2 unitary [[u00, u01], [u10, u11]] to one qubit."""
    out = list(amps)
    for i, j in _PAIRS[len(out), qubit]:
        lo = out[i]
        hi = out[j]
        out[i] = u00 * lo + u01 * hi
        out[j] = u10 * lo + u11 * hi
    return out


def apply_cz(amps, qi, qj):
    """Flip the sign of every amplitude whose qubits qi and qj are both 1."""
    mask = (1 << qi) | (1 << qj)
    return [-a if (base & mask) == mask else a for base, a in enumerate(amps)]
