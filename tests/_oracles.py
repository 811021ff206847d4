"""Test-side oracles, independent of the package's block-rule simulator.

Gates are expanded to full 2^n x 2^n matrices with numpy kron products and
applied by dense matrix-vector multiplication.
"""
import argparse
import math

import numpy as np

from qprep3.circuit import LocalGate, ry_matrix
from qprep3.mat2 import EPS_ZERO, REAL_GATE_TOL, Mat2


def mat2_to_array(m: Mat2) -> np.ndarray:
    return np.array([[m.a, m.b], [m.c, m.d]], dtype=np.complex128)


def local_unitary(n: int, qubit: int, m: Mat2) -> np.ndarray:
    u = mat2_to_array(m)
    full = np.eye(1, dtype=np.complex128)
    for q in range(n - 1, -1, -1):
        full = np.kron(full, u if q == qubit else np.eye(2, dtype=np.complex128))
    return full


def cz_unitary(n: int, i: int, j: int) -> np.ndarray:
    dim = 1 << n
    diag = np.ones(dim, dtype=np.complex128)
    mask = (1 << i) | (1 << j)
    for b in range(dim):
        if b & mask == mask:
            diag[b] = -1.0
    return np.diag(diag)


def gate_unitary(n: int, gate) -> np.ndarray:
    if isinstance(gate, LocalGate):
        return local_unitary(n, gate.qubit, gate.matrix)
    return cz_unitary(n, gate.i, gate.j)


def dense_apply(circuit, amps: np.ndarray) -> np.ndarray:
    v = np.array(amps, dtype=np.complex128)
    for g in circuit.gates:
        v = gate_unitary(circuit.num_qubits, g) @ v
    return v


def reference_apply_local(amps, qubit, u00, u01, u10, u11):
    """kernels.apply_local written as a bit test on every basis index.

    The arithmetic and its order are the kernel's, so the two must agree
    exactly, not just to a tolerance.
    """
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


def reference_apply_cz(amps, qi, qj):
    """kernels.apply_cz written as a bit test on every basis index; negation
    is exact, so the two must agree exactly, -0.0 included."""
    out = list(amps)
    for base in range(len(out)):
        if (base >> qi) & 1 and (base >> qj) & 1:
            out[base] = -out[base]
    return out


def scaled(m: Mat2, s: complex) -> Mat2:
    """s * m, entrywise."""
    return Mat2(s * m.a, s * m.b, s * m.c, s * m.d)


def rows(m: Mat2) -> tuple[tuple[complex, complex], tuple[complex, complex]]:
    """The two rows of m."""
    return ((m.a, m.b), (m.c, m.d))


def unitarity_defect(m: Mat2) -> float:
    """Max-entry deviation of m†m from the identity."""
    p = m.dagger() @ m
    return max(abs(p.a - 1), abs(p.b), abs(p.c), abs(p.d - 1))


def random_mat2(rng, real: bool = False) -> Mat2:
    vals = rng.standard_normal(4)
    if not real:
        vals = vals + 1j * rng.standard_normal(4)
    return Mat2(*[complex(v) for v in vals])


def random_nonsingular(rng, real: bool = False) -> Mat2:
    while True:
        m = random_mat2(rng, real)
        if abs(m.det()) > 1e-3 * m.frobenius() ** 2:
            return m


def random_rank1(rng, real: bool = False, zero_first_row: bool = False) -> Mat2:
    u = rng.standard_normal(2) + (0 if real else 1j * rng.standard_normal(2))
    v = rng.standard_normal(2) + (0 if real else 1j * rng.standard_normal(2))
    if zero_first_row:
        u[0] = 0.0
    if abs(u[0]) + abs(u[1]) < 0.1 or abs(v[0]) + abs(v[1]) < 0.1:
        return random_rank1(rng, real, zero_first_row)
    return Mat2(
        complex(u[0] * v[0]), complex(u[0] * v[1]), complex(u[1] * v[0]), complex(u[1] * v[1])
    )


def random_unitary2(rng, real: bool = False) -> Mat2:
    """Haar-ish 2x2 unitary, not restricted to determinant 1."""
    from qprep3.mat2 import u_from_pair

    x = complex(rng.standard_normal()) + (0 if real else 1j * rng.standard_normal())
    y = complex(rng.standard_normal()) + (0 if real else 1j * rng.standard_normal())
    u = u_from_pair(x, y)
    if real:
        return u if rng.integers(2) else scaled(u, -1.0)
    phase = complex(np.exp(1j * rng.uniform(0, 2 * np.pi)))
    return scaled(u, phase)


def w_under_locals(seed, real: bool = False) -> np.ndarray:
    """W = (|001> + |010> + |100>) / sqrt(3) under a random local gate on
    each qubit, applied as dense matrices. The discriminant is a local
    invariant, so delta and the qubit-2 pencil discriminant are 0 up to
    rounding, and no qubit is a chain middle: the qubit-2 form's smaller
    singular value is ~0, so synthesis runs the flow and then the chain
    prefix, in both modes, and keeps the one with fewer gates."""
    rng = np.random.default_rng(seed)
    v = np.array([0, 1, 1, 0, 1, 0, 0, 0], dtype=np.complex128) / math.sqrt(3.0)
    for q in range(3):
        v = local_unitary(3, q, random_unitary2(rng, real)) @ v
    return v


def max_row_minor(rows) -> float:
    worst = 0.0
    for i in range(len(rows)):
        for j in range(i + 1, len(rows)):
            worst = max(worst, abs(rows[i][0] * rows[j][1] - rows[i][1] * rows[j][0]))
    return worst


# --- the helpers as they were written on Mat2's methods -------------------
# The package computes these inline on unpacked entries; each must return
# exactly what its method-based form returns, not just agree to a tolerance.


def reference_is_singular(m: Mat2, tol: float) -> bool:
    return abs(m.det()) <= tol * m.frobenius()


def reference_ry_angle(u: Mat2):
    # `not <=`, so that a NaN, which both helpers pass on, fails
    if not u.max_imag() <= REAL_GATE_TOL:
        return None
    theta = 2.0 * math.atan2(u.c.real, u.a.real)
    if not ry_matrix(theta).distance_to(u) <= REAL_GATE_TOL:
        return None
    return theta


def reference_l_line(qubit, m: Mat2) -> str:
    """An `L` line by the written rule: the qubit, then each entry's real and
    imaginary part at 17 significant digits."""
    return "L %d" % qubit + "".join(" %.17g %.17g" % (x.real, x.imag) for x in m)


def reference_max_local_imag(c) -> float:
    """The largest |imaginary part| over the local gates' entries, 0.0 with
    none; numpy's max is NaN when any entry is NaN, wherever it sits."""
    imags = [abs(e.imag) for g in c.gates if isinstance(g, LocalGate) for e in g.matrix]
    return float(np.max(imags)) if imags else 0.0


def cz_min(amps, tol: float = 1e-9, chain_gap: float = 1e-6, gap_abs: float = 0.0) -> int:
    """Fewest CZ that prepare a 3-qubit state from |000> with local gates.

    0 for a product, 1 when one qubit factors out (some bipartition of one
    qubit against the other two has Schmidt rank 1), 2 when some qubit q is
    the middle of a chain (the state is |u>P + |u_perp>Q on q, with P and Q
    products), 3 otherwise. Qubit q is a chain middle when the symmetric form
    S = [[det A, c/2], [c/2, det B]] of det(xA + yB) = det(A)x^2 + c xy +
    det(B)y^2, with A and B the blocks of q = 0 and q = 1, has two equal
    singular values: only then are the two null directions of the form
    orthogonal. Equal means a gap of at most chain_gap times the larger, or
    of at most gap_abs. The default, 1e-6 relative and no absolute gap, is
    strict. The package runs the chain finisher on each qubit whose form's
    gap is at most STEP_TOL = 1e-5, absolute, and keeps a run that passes
    the fidelity floor (amplitude scale 1e-5): a state that close to a chain
    may get 2 CZ, in relative terms far from one when its form is small. So
    chain_gap=1e-4 with gap_abs=1e-5 gives a loose count, a lower bound on
    a run's CZ near a chain.
    """
    split = [_split(amps, q) for q in range(3)]
    ranks = [int(np.sum(np.linalg.svd(m.reshape(2, 4), compute_uv=False) > tol)) for m in split]
    if ranks.count(1) == 3:
        return 0
    if 1 in ranks:
        return 1
    for q in range(3):
        s = pencil_singular_values(amps, q)
        if s[0] - s[1] <= max(chain_gap * s[0], gap_abs):
            return 2
    return 3


def gate_floor(cz: int, amps) -> int:
    """Fewest local gates a circuit with `cz` CZ needs for a generic state
    it can prepare (the generic Jacobian rank of the circuit templates): 4,
    6 or 7 for 1, 2 or 3 CZ. With 0 CZ, one per wire whose |1> weight, the
    squared norm of the amplitudes with that wire at 1, is above
    EPS_ZERO^2: a wire within EPS_ZERO of |0> needs no gate."""
    if cz:
        return {1: 4, 2: 6, 3: 7}[cz]
    v = np.asarray(amps)
    n = v.size.bit_length() - 1
    weights = [np.sum(np.abs(v[[k for k in range(v.size) if k >> q & 1]]) ** 2) for q in range(n)]
    return sum(wt > EPS_ZERO**2 for wt in weights)


def _split(amps, q: int) -> np.ndarray:
    """The blocks (A, B) of qubit q's split as one 2x2x2 array: [b] is the
    block of q = b, rows the higher and columns the lower other qubit."""
    v = np.asarray(amps, dtype=np.complex128).reshape(2, 2, 2)  # axes (q2, q1, q0)
    return np.moveaxis(v, 2 - q, 0)


def pencil_singular_values(amps, q: int) -> np.ndarray:
    """Singular values s0 >= s1 of the pencil form S = [[det A, c/2], [c/2,
    det B]] of qubit q's split, det(xA + yB) = det(A)x^2 + c xy + det(B)y^2,
    by numpy determinants and SVD. Qubit q is a chain middle when they are
    equal (cz_min)."""
    a, b = _split(amps, q)
    da, db = np.linalg.det(a), np.linalg.det(b)
    c = np.linalg.det(a + b) - da - db
    return np.linalg.svd(np.array([[da, c / 2], [c / 2, db]]), compute_uv=False)


def argparse_cli_parser() -> argparse.ArgumentParser:
    """The qprep3 command line as an argparse parser, the reference for the
    CLI's own argv parser: same commands, flags, types and help strings."""
    parser = argparse.ArgumentParser(
        prog="qprep3",
        description="Compile 2- and 3-qubit pure states into local + controlled-Z circuits.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_synth = sub.add_parser("synth", help="synthesize a circuit for a state file")
    p_synth.add_argument("file", help="state file (4 or 8 '<re> <im>' lines)")
    p_synth.add_argument("--real", action="store_true", help="all-real gates (real input only)")
    p_synth.add_argument("--prepare", action="store_true", help="emit the |0..0> -> state circuit")
    p_synth.add_argument("--verify", action="store_true", help="print cz count and simulated fidelity")
    p_synth.add_argument("--ry", action="store_true", help="append RY angle lines for real gates")
    p_synth.add_argument("--out", help="write the circuit here instead of stdout")

    p_sweep = sub.add_parser("sweep", help="randomized synthesis sweep with CZ/fidelity bounds")
    p_sweep.add_argument("--n", type=int, required=True, help="number of sampled states")
    p_sweep.add_argument("--seed", type=int, required=True, help="base RNG seed")
    p_sweep.add_argument("--real", action="store_true", help="sample real states, real-mode synthesis")
    p_sweep.add_argument("--machine", action="store_true", help="append a machine-readable summary line")

    p_delta = sub.add_parser("delta", help="print the real-state discriminant")
    p_delta.add_argument("file", help="state file (8 '<re> <im>' lines, real)")
    return parser
