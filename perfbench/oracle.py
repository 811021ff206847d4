"""Independent correctness oracle for the benchmark.

Nothing here calls into qprep3. Circuits are read either from the package's
gate objects (plain attribute access) or from the circuit text format by this
module's own reader, expanded gate by gate into dense 2^n x 2^n matrices with
numpy kron products, and applied by matrix-vector multiplication. The CZ bound
comes from the guarantee table, with the discriminant computed here.
"""
import math

import numpy as np

FIDELITY_MIN = 1.0 - 1e-9
REAL_GATE_MAX_IMAG = 1e-10
RY_MATCH = 1e-9

_EYE2 = np.eye(2, dtype=np.complex128)


def delta(amps) -> float:
    """Discriminant of a real 3-qubit state, written as in the guarantee table."""
    w = [float(x.real) for x in amps]
    s1 = w[0] * w[7] - w[1] * w[6] - w[2] * w[5] + w[3] * w[4]
    return s1 * s1 - 4.0 * (w[1] * w[2] - w[0] * w[3]) * (w[5] * w[6] - w[4] * w[7])


def cz_bound(n: int, mode: str, amps) -> int:
    if n == 2:
        return 1
    if mode == "general":
        return 3
    return 3 if delta(amps) >= 0.0 else 4


def gates_from_circuit(circuit) -> list:
    """[("L", q, 2x2 array) | ("CZ", i, j)] from a qprep3 Circuit object."""
    gates = []
    for g in circuit.gates:
        if hasattr(g, "matrix"):
            m = g.matrix
            gates.append(("L", g.qubit, np.array([[m.a, m.b], [m.c, m.d]], dtype=np.complex128)))
        else:
            gates.append(("CZ", g.i, g.j))
    return gates


def render(gates) -> str:
    """Exact, canonical text of a gate list (repr round-trips every float)."""
    lines = []
    for g in gates:
        if g[0] == "L":
            vals = " ".join(f"{float(z.real)!r} {float(z.imag)!r}" for z in g[2].reshape(-1))
            lines.append(f"L {g[1]} {vals}")
        else:
            lines.append(f"CZ {g[1]} {g[2]}")
    return "\n".join(lines)


class CircuitText:
    """A circuit text read back: qubit count, gates, RY angles, status line."""

    def __init__(self, text: str):
        self.num_qubits = None
        self.gates = []
        self.ry = []
        self.status = None
        for raw in text.splitlines():
            line = raw.strip()
            if not line:
                continue
            parts = line.split()
            if line.startswith("#"):
                for tok in parts:
                    if tok.startswith("qubits="):
                        self.num_qubits = int(tok[len("qubits="):])
            elif parts[0] == "L" and len(parts) == 10:
                v = [float(p) for p in parts[2:]]
                m = np.array([[complex(v[0], v[1]), complex(v[2], v[3])],
                              [complex(v[4], v[5]), complex(v[6], v[7])]])
                self.gates.append(("L", int(parts[1]), m))
            elif parts[0] == "CZ" and len(parts) == 3:
                self.gates.append(("CZ", int(parts[1]), int(parts[2])))
            elif parts[0] == "RY" and len(parts) == 3:
                self.ry.append((int(parts[1]), float(parts[2])))
            elif parts[0].startswith("cz="):
                self.status = dict(p.split("=", 1) for p in parts)
            else:
                raise ValueError(f"unreadable circuit line {line!r}")
        if self.num_qubits is None:
            raise ValueError("circuit text has no qubits= header")


def _gate_matrix(n: int, g) -> np.ndarray:
    if g[0] == "L":
        full = np.eye(1, dtype=np.complex128)
        for q in range(n - 1, -1, -1):
            full = np.kron(full, g[2] if q == g[1] else _EYE2)
        return full
    mask = (1 << g[1]) | (1 << g[2])
    return np.diag([-1.0 if b & mask == mask else 1.0 for b in range(1 << n)]).astype(np.complex128)


def simulate(n: int, gates, amps) -> np.ndarray:
    v = np.array(amps, dtype=np.complex128)
    for g in gates:
        v = _gate_matrix(n, g) @ v
    return v


def check(n: int, gates, amps, mode: str, prepared: bool):
    """Reason the circuit breaks the guarantee table for `amps`, or None.

    A disentangler must map amps to |0..0>; a prepared circuit must map
    |0..0> to amps (both up to global phase).
    """
    if any(g[0] == "L" and not 0 <= g[1] < n or g[0] == "CZ" and not 0 <= g[1] < g[2] < n for g in gates):
        return "gate-out-of-range"
    amps = np.asarray(amps, dtype=np.complex128)
    if prepared:
        start = np.zeros(1 << n, dtype=np.complex128)
        start[0] = 1.0
        fid = abs(np.vdot(amps, simulate(n, gates, start)))
    else:
        fid = abs(simulate(n, gates, amps)[0])
    if not fid >= FIDELITY_MIN:
        return "fidelity"
    if sum(g[0] == "CZ" for g in gates) > cz_bound(n, mode, amps):
        return "cz-bound"
    if mode == "real":
        imag = max((float(np.max(np.abs(g[2].imag))) for g in gates if g[0] == "L"), default=0.0)
        if imag > REAL_GATE_MAX_IMAG:
            return "not-real"
    return None


def check_ry(parsed: CircuitText):
    """Reason the RY lines disagree with the local gates, or None."""
    locals_ = [g for g in parsed.gates if g[0] == "L"]
    if len(parsed.ry) != len(locals_):
        return "ry-count"
    for (q, theta), g in zip(parsed.ry, locals_):
        c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
        if q != g[1] or np.max(np.abs(g[2] - np.array([[c, -s], [s, c]]))) > RY_MATCH:
            return "ry-mismatch"
    return None
