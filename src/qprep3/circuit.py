"""Circuit IR, exact statevector simulation, inversion, and text serialization.

A circuit is an ordered gate list applied left-to-right to the ket (the first
list element acts first). Gates are either a single-qubit unitary placed on
one wire or a controlled-Z on a wire pair; controlled-Z is symmetric and
self-inverse. Simulation uses the block-update rules of kernels.py (one 2x2
mix per local gate, sign flips per CZ) on a plain amplitude list, of floats
when the start state is exactly real; the result is validated into a state
once, after the last gate.

Text format (UTF-8, LF, one gate per line, applied top to bottom):

    # qprep3 v1 qubits=3 order=left-first
    L <q> <a.re> <a.im> <b.re> <b.im> <c.re> <c.im> <d.re> <d.im>
    CZ <i> <j>
    RY <q> <theta>

L carries the row-major 2x2 matrix at 17 significant digits. A gate whose
four entries are floats, as real mode makes them, is written with literal
`0` imaginary fields (a float's imaginary part is +0.0); any other gate is
written with all eight numbers. The parser converts only the four real
fields of a line whose imaginary fields are all `0`, and reads that line
back with float entries; any other line (a `-0` field included) reads back
complex. Within a float line, emit formats x00 and x01 (row-major) once each:
x11 reuses x00's text when x11 == x00 != 0, and x10 reuses x01's with the
sign flipped when x10 == -x01 != 0. A nonzero float equal to another has its
bits, so the bytes are those that formatting all four numbers gives (±0.0 and
NaN are formatted). The parser mirrors the rule: x11 is x00 when their tokens
are equal, and x10 is -x01 when its token is x01's with the sign flipped,
only where float() would accept that token (x01's has no `+`, so a line with
`+0.5` and `-+0.5` still fails on `-+0.5`). RY lines are an optional,
purely informational restatement of real L gates (emitted on request,
skipped by the parser).
"""
from __future__ import annotations

import math
from collections import namedtuple

from . import kernels
from .mat2 import REAL_GATE_TOL, Mat2, _max_abs
from .state import State, _check_num_qubits

FORMAT_HEADER = "# qprep3 v1 qubits={n} order=left-first"
_HEADERS = {n: FORMAT_HEADER.format(n=n) for n in (2, 3)}
# 17 significant digits: every float round-trips exactly, but for a NaN's
# sign (a negative NaN prints `nan` and reads back positive)
_NUMBER = "%.17g"
# an L line: the qubit, then each matrix entry's real and imaginary part
_L_LINE = "L %d" + (" " + _NUMBER) * 8
# the start of a float L line, by qubit: keyed by value, so a bool or any other
# number equal to 0, 1 or 2 reads the text %d prints (`L 1 `, not `L True `)
_L_PREFIXES = {q: "L %d " % q for q in (0, 1, 2)}
_RY_LINE = "RY %d " + _NUMBER


def _checked_make(cls, iterable):
    # _make (and so _replace) goes through __new__ and its checks
    return cls(*iterable)


class LocalGate(namedtuple("LocalGate", "qubit matrix")):
    """Single-qubit unitary on one wire."""

    __slots__ = ()
    _make = classmethod(_checked_make)

    def __new__(cls, qubit: int, matrix: Mat2):
        if qubit not in (0, 1, 2):
            raise ValueError(f"qubit must be 0, 1 or 2, got {qubit}")
        return tuple.__new__(cls, (qubit, matrix))


class CZGate(namedtuple("CZGate", "i j")):
    """Controlled-Z on the wire pair (i, j), i < j."""

    __slots__ = ()
    _make = classmethod(_checked_make)

    def __new__(cls, i: int, j: int):
        if not (0 <= i < j <= 2):
            raise ValueError(f"CZ pair must satisfy 0 <= i < j <= 2, got {(i, j)}")
        return tuple.__new__(cls, (i, j))


Gate = LocalGate | CZGate


def _first_misfit(gates, n: int) -> int | None:
    """Index of the first gate with a wire outside n qubits, or None; raises
    TypeError at the first entry that is neither a LocalGate nor a CZGate."""
    for k, g in enumerate(gates):
        if type(g) is LocalGate:
            wire = g[0]
        elif type(g) is CZGate:
            wire = g[1]
        else:
            raise TypeError(f"gate {k} is neither a LocalGate nor a CZGate: {g!r}")
        if wire >= n:
            return k
    return None


class Circuit(namedtuple("Circuit", "gates num_qubits")):
    __slots__ = ()
    _make = classmethod(_checked_make)

    def __new__(cls, gates: tuple[Gate, ...], num_qubits: int = 3):
        _check_num_qubits(num_qubits)
        # stored as a tuple, so a circuit made from a list hashes by value
        # and cannot change after its checks
        gates = tuple(gates)
        k = _first_misfit(gates, num_qubits)
        if k is not None:
            raise ValueError(f"gate {gates[k]} does not fit in {num_qubits} qubits")
        return tuple.__new__(cls, (gates, num_qubits))

    @property
    def cz_count(self) -> int:
        return sum(1 for g in self.gates if isinstance(g, CZGate))

    def max_local_imag(self) -> float:
        """Largest imaginary part over all local-gate entries (0.0 if no
        locals), NaN when any of them is NaN."""
        # over every entry: synthesis tests realness with is_real, and this
        # only reports how far a circuit is from real
        imags = [e.imag for g in self.gates if type(g) is LocalGate for e in g[1]]
        return _max_abs(*imags) if imags else 0.0

    def is_real(self) -> bool:
        """No local-gate entry has an imaginary part past REAL_GATE_TOL (a NaN
        one counts as past it); stops at the first entry that has."""
        t = REAL_GATE_TOL
        for g in self.gates:
            if type(g) is LocalGate:
                a, b, c, d = g[1]
                if not (abs(a.imag) <= t and abs(b.imag) <= t and abs(c.imag) <= t and abs(d.imag) <= t):
                    return False
        return True


def apply_gate(g: Gate, s: State) -> State:
    """Apply one gate; returns a new state of the same type."""
    return apply_circuit(Circuit((g,)), s)


def apply_circuit(c: Circuit, s: State) -> State:
    """Simulate c on s; the result is validated once, after the last gate.

    Every gate's wire is checked against s before the first gate runs; the
    first misfit raises.
    """
    n = s.num_qubits
    gates = c.gates
    k = _first_misfit(gates, n)
    if k is not None:
        g = gates[k]
        where = f"gate on qubit {g.qubit}" if isinstance(g, LocalGate) else f"CZ on ({g.i}, {g.j})"
        raise ValueError(f"{where} applied to {n}-qubit state")
    amps = s.w
    # an exactly real state runs in floats: real gates keep them float, and
    # a complex entry promotes them to the nonzero bits complex ones give
    if not any([z.imag for z in amps]):
        amps = [z.real for z in amps]
    return type(s)(_simulate(gates, amps))


def _simulate(gates, amps):
    """The amplitude list amps after gates, by the kernels' block rules;
    nothing is checked or validated. The package's one gate loop:
    apply_circuit and synthesis's final check both run it."""
    for g in gates:
        if isinstance(g, LocalGate):
            qubit, (u00, u01, u10, u11) = g
            amps = kernels.apply_local(amps, qubit, u00, u01, u10, u11)
        else:
            i, j = g
            amps = kernels.apply_cz(amps, i, j)
    return amps


def invert(c: Circuit) -> Circuit:
    """Reverse the gate order and dagger each local gate; CZ is self-inverse."""
    # every gate keeps its wire, so c's checks hold for the inverse
    inv: list[Gate] = []
    for g in reversed(c.gates):
        if type(g) is LocalGate:
            # Mat2.dagger on the unpacked entries; conjugate() keeps a float a float
            qubit, (a, b, cc, d) = g
            m = tuple.__new__(Mat2, (a.conjugate(), cc.conjugate(), b.conjugate(), d.conjugate()))
            g = tuple.__new__(LocalGate, (qubit, m))
        inv.append(g)
    return tuple.__new__(Circuit, (tuple(inv), c.num_qubits))


def ry_matrix(theta: float) -> Mat2:
    c, sn = math.cos(theta / 2.0), math.sin(theta / 2.0)
    return Mat2(c, -sn, sn, c)


def ry_angle(u: Mat2) -> float | None:
    """Angle theta with Ry(theta) equal to u entrywise within REAL_GATE_TOL.

    None when u is not (numerically) a real rotation — complex entries or
    determinant -1 gates have no Ry form.
    """
    # u.max_imag(), then ry_matrix(theta).distance_to(u), on the unpacked
    # entries; each bound is tested on its own and written `not <=`, so that
    # a NaN anywhere fails (max() keeps a NaN only in its first position)
    a, b, c, d = u
    t = REAL_GATE_TOL
    if not (abs(a.imag) <= t and abs(b.imag) <= t and abs(c.imag) <= t and abs(d.imag) <= t):
        return None
    theta = 2.0 * math.atan2(c.real, a.real)
    cs, sn = math.cos(theta / 2.0), math.sin(theta / 2.0)
    if not (abs(cs - a) <= t and abs(-sn - b) <= t and abs(sn - c) <= t and abs(cs - d) <= t):
        return None
    return theta


# --- text serialization ---------------------------------------------------


def format_number(x: float) -> str:
    """17 significant digits: every float round-trips exactly, but for a
    NaN's sign: a negative NaN prints as `nan` and reads back positive."""
    return _NUMBER % x


def emit_circuit(c: Circuit, include_ry: bool = False) -> str:
    """Render a circuit in the one-gate-per-line text format.

    With include_ry, an `RY <q> <theta>` line is appended for every local
    gate (in gate order); raises ValueError if some local gate has no Ry form.
    """
    lines = [_HEADERS[c.num_qubits]]
    ry_lines = []
    for g in c.gates:
        if type(g) is LocalGate:
            qubit, m = g
            e00, e01, e10, e11 = m
            if type(e00) is type(e01) is type(e10) is type(e11) is float:
                # a float's imaginary part is +0.0, printed `0`; x11 and x10
                # reuse the text of the equal nonzero x00 and -x01 (same bits)
                s00 = _NUMBER % e00
                s01 = _NUMBER % e01
                s10 = (s01[1:] if e01 < 0.0 else "-" + s01) if e01 and e10 == -e01 else _NUMBER % e10
                s11 = s00 if e00 and e11 == e00 else _NUMBER % e11
                lines.append(f"{_L_PREFIXES[qubit]}{s00} 0 {s01} 0 {s10} 0 {s11} 0")
            else:
                lines.append(
                    _L_LINE % (qubit, e00.real, e00.imag, e01.real, e01.imag, e10.real, e10.imag, e11.real, e11.imag)
                )
            if include_ry:
                theta = ry_angle(m)
                if theta is None:
                    raise ValueError("cannot emit RY lines: a local gate is not a real rotation")
                ry_lines.append(_RY_LINE % (qubit, theta))
        else:
            lines.append("CZ %d %d" % g)
    lines += ry_lines
    return "\n".join(lines) + "\n"


def parse_circuit(text: str) -> Circuit:
    """Parse the text format back into a Circuit.

    Comment lines (`#`, including the header) set the qubit count when they
    carry a `qubits=N` field (N is 2 or 3); RY lines are informational and
    skipped.
    """
    num_qubits = 3
    gates: list[Gate] = []
    linenos: list[int] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        # split() drops the same surrounding whitespace strip() would
        parts = raw.split()
        if not parts:
            continue
        kind = parts[0]
        try:
            if kind == "L":
                if len(parts) != 10:
                    raise ValueError("L line needs a qubit and 8 matrix numbers")
                q = int(parts[1])
                _, _, t00, i00, t01, i01, t10, i10, t11, i11 = parts
                if i00 == i01 == i10 == i11 == "0":
                    # float entries print their imaginary parts as `0`; `-0` keeps a line complex.
                    # The `0` tokens are valid, so the first bad token is among the four read here,
                    # in order. x01's token flipped parses when x01's does and has no `+`
                    x00 = float(t00)
                    x01 = float(t01)
                    flipped = t01[1:] if t01[0] == "-" else "-" + t01
                    x10 = -x01 if t10 == flipped and t01[0] != "+" else float(t10)
                    x11 = x00 if t11 == t00 else float(t11)
                    m = tuple.__new__(Mat2, (x00, x01, x10, x11))
                else:
                    ar, ai, br, bi, cr, ci, dr, di = map(float, parts[2:])
                    m = tuple.__new__(Mat2, (complex(ar, ai), complex(br, bi), complex(cr, ci), complex(dr, di)))
                # the records' own wire tests; a wire that fails one gets the constructor's error
                gates.append(tuple.__new__(LocalGate, (q, m)) if q in (0, 1, 2) else LocalGate(q, m))
                linenos.append(lineno)
            elif kind == "CZ":
                if len(parts) != 3:
                    raise ValueError("CZ line needs two qubit indices")
                i, j = int(parts[1]), int(parts[2])
                gates.append(tuple.__new__(CZGate, (i, j)) if 0 <= i < j <= 2 else CZGate(i, j))
                linenos.append(lineno)
            elif kind == "RY":
                continue
            elif kind.startswith("#"):
                for tok in raw.strip()[1:].split():
                    if tok.startswith("qubits="):
                        num_qubits = int(tok.partition("=")[2])
                        _check_num_qubits(num_qubits)
            else:
                raise ValueError(f"unknown gate kind {kind!r}")
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
    # the qubit count is known only once every header line has been read
    k = _first_misfit(gates, num_qubits)
    if k is not None:
        raise ValueError(f"line {linenos[k]}: gate {gates[k]} does not fit in {num_qubits} qubits")
    return tuple.__new__(Circuit, (tuple(gates), num_qubits))
