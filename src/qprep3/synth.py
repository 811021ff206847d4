"""Synthesis of disentangling circuits for 2- and 3-qubit pure states.

Every synthesizer returns a verified circuit mapping the input state to the
all-zeros basis state (invert it to prepare). Guarantees:

  disentangle2       any 2-qubit state,   <= 1 controlled-Z
  disentangle3       any 3-qubit state,   <= 3 controlled-Z
  disentangle3_real  real 3-qubit states, <= 3 controlled-Z, all gates real

The 3-qubit flow works on the block view |phi> = |0>A + |1>B: one local gate
makes A singular (a root of det(A + zB) = 0, or a block swap when det(B) = 0),
two more squeeze A to its top-left entry, a conjugated cz01 sandwich makes B
singular, cz02 aligns all block rows, and the residual (2-qubit) x (1-qubit)
product is finished off by the 2-qubit stage on qubits (2, 1). Skipped
stages lower the CZ count.

Real mode needs a real step-1 root, which a state with delta < 0 lacks. Such
a state first gets the chain prefix: a rotation on qubit 1, then cz01.
Split on qubit 1 as |0>A + |1>B (A on indices 0, 1, 4, 5 and B on 2, 3, 6,
7, rows qubit 2, columns qubit 0), with det(xA + yB) = det(A)x^2 + q1 xy +
det(B)y^2. Rotating qubit 1 by the angle phi/2 and applying cz01 (which
negates B's second column) leaves the form with trace

    det(A') + det(B') = cos(phi) (det(A) - det(B)) - sin(phi) q1,

which vanishes for (cos phi, sin phi) along (q1, det(A) - det(B)). A real,
symmetric, traceless 2x2 form has two orthogonal real null directions, so
the state is then |u>P + |u_perp>Q on qubit 1 with P and Q products: a
chain with qubit 1 in the middle, which the flow finishes with 2 more CZ.
When the prefix leaves the bottom block singular (near W, where delta = 0),
the flow's step 1 would swap the blocks, the pencil root at infinity, and
break the chain; the prefix instead applies the small root itself, which
the cancellation-free form keeps finite (mat2._big_root_term). Within
DELTA_ZERO_BAND below zero, or when the top block is already singular (its
step-1 root is then ~0, and real), the flow runs with no prefix. The bound
of 3 CZ is checked on every run, not proven: a run that misses it raises.

Step 1 takes the first pencil root (the first real one in real mode). The
branch decisions are made at EPS_ZERO, the scale the fidelity floor sets: a
residual they skip costs an infidelity of about its square, far inside
FID_MIN. So a state within ~EPS_ZERO of one that needs fewer CZ gets the
fewer, and a CZ count is minimal to within the floor, not exactly.

Chains. Two CZ suffice exactly for the states |u>P + |u_perp>Q on one
qubit m, the chain middle, with P and Q products on the other two. Qubit m is
one when the pencil form of its split, S = [[q0, q1/2], [q1/2, q2]] with
det(xA + yB) = q0 x^2 + q1 xy + q2 y^2, has two equal singular values (its
two null directions are then orthogonal); _is_chain_middle tests that to
CHAIN_GAP_TOL. The flow skips a CZ stage, and gives 2 CZ, when the middle is
qubit 2 (`skip-step4`) or qubit 1 (`skip-step5`), but not when it is qubit
0. So when qubit 0 is a chain middle and qubits 1 and 2 are not, both
synthesizers first try the _relabel01 prefix with a bound of 2 CZ: it swaps
qubits 0 and 1 of the input, the flow runs on that, and the finished circuit
gets its wires swapped back (a CZ pair is re-sorted). Qubits 1 and 2 are
tested only after qubit 0 passes, so a Haar-random state pays for one form.
delta is the same for the swapped input (the swap maps the blocks (A, B) to
their transposes), so real mode keeps its sign as the first trace label.

Every synthesis goes through one attempt runner, _first_passing. It runs
each attempt on a fresh builder of the input, in order, and returns the
first that passes every check. A 3-qubit attempt is _attempt3: a trace
label, a prefix, a CZ bound and the mode. disentangle3 and
disentangle3_real each make one attempt with a bound of 3 CZ (the flow,
with real mode's prefix if any), after the _relabel01 attempt when it
applies; disentangle2 has one attempt. A Qprep3Error raised in an attempt
gets the branch trace that attempt took, and when no attempt passes, the
first attempt's error is raised.

Each synthesis is one builder pass. The builder tracks the amplitudes as a
plain list and reads the blocks from it to choose the next gate; the embedded
2-qubit stage reads its pair from the same list and emits into the same
circuit. `local(qubit, m)` and `cz(i, j)` are the only writers of that list
and of the gate list: each applies its gate by the block rules of kernels.py
as it appends it. `local` fuses a local gate into the last gate on its wire
when that is a local gate with no CZ on the wire after it: the earlier gate
commutes with every gate since, so it is removed and the product appended.
It drops local gates that are a global phase (+-I). So no circuit holds two
local gates on one wire without a CZ on that wire between them, and the
list is always the input state run through the circuit so far. Every stage
asserts its postcondition on it, and its final value gives the reported
fidelity.

Real mode tracks an exactly real input (every imaginary part 0.0) as floats
(_real_amps): the mat2 cores keep their inputs' type and real mode's root
choices take the root's real part, so no gate has a complex entry and
every kernel runs in float arithmetic, which CPython computes faster than
complex. A float meeting a complex promotes to the nonzero bits complex()
gives, so floats change only signs of zero. An input with a nonzero
imaginary part within REAL_STATE_TOL stays complex, so `finish` measures
the fidelity on the input itself.

Each thing is checked once on this path. A gate comes from the private core
of its mat2 construction (_l1, _r1, _r2, _r3, _solve_det_pencil) wherever
the branch decision or step check just before it has established the
construction's precondition; step 5 tests the tracked list for a qubit-0
factor directly (state.qubit0_factor), so no state is validated before
`finish`; real mode tests realness once and then takes delta's core
(state._delta). `local` and `cz` take a wire rather than a gate, call the
kernels directly and build each gate with tuple.__new__, past the wire
checks of the record's __new__; `finish` builds its Circuit the same way,
as synthesis only passes its own literal wires. `finish` is the one place a
result is checked: its fidelity against FID_MIN, at both sizes, and its CZ
count against the attempt's bound. The embedded 2-qubit stage has no check
of its own: it leaves the same |amps[0]| that `finish` reads, and it emits
at most one CZ.
"""
from __future__ import annotations

import math
from collections import namedtuple
from functools import partial
from operator import itemgetter

from . import kernels
from .circuit import Circuit, CZGate, Gate, LocalGate, apply_circuit, fidelity_to_basis, invert
from .errors import NotRealError, Qprep3Error, SynthesisInvariantError
from .mat2 import CHAIN_GAP_TOL, DELTA_ZERO_BAND, EPS_ZERO, FID_MIN, PRUNE_TOL, REAL_ROOT_TOL, STEP_TOL
from .mat2 import REAL_STATE_TOL, SWAP_BLOCKS, Mat2
from .mat2 import _big_root_term, _l1, _pencil_form, _r1, _r2, _r3, _solve_det_pencil, is_singular, row2_norm, u_from_pair
from .state import PureState2, PureState3, State, _delta, amp_matrix, basis_state, overlap, qubit0_factor

class SynthesisReport(namedtuple("SynthesisReport", "circuit cz_count all_real branch_trace fidelity")):
    """Result of a synthesis run (disentangling direction unless produced by prepare).

    circuit: Circuit, cz_count: int, all_real: bool, branch_trace: tuple of
    branch labels, fidelity: float.
    """

    __slots__ = ()


class _Builder:
    """Accumulates gates and tracks their action on a plain amplitude list.

    Invariant: `amps` is the input state (with qubits 0 and 1 swapped after
    the _relabel01 prefix) after `gates`, because `local` and `cz` are the
    only writers of both. So `finish` verifies the circuit on the tracked
    amplitudes, with no second simulation. Both keep the amplitudes from
    before each gate (`before`), so when a local gate is fused into an
    earlier one, the gates after that one are re-applied to exactly what it
    saw, and the product last: `amps` stays bit-equal to a fresh simulation
    of `gates`.
    """

    def __init__(self, state, amps):
        self.state_type = type(state)
        self.num_qubits = state.num_qubits
        self.amps = list(amps)
        self.gates: list[Gate] = []
        self.before: list[list] = []
        self.trace: list[str] = []
        # by wire, the index in `gates` of its last gate if that is a local
        # gate, else -1: a wire holds at most one local gate after its last CZ
        self.open = [-1, -1, -1]
        # set by the _relabel01 prefix: the gates act on the input with
        # qubits 0 and 1 swapped, and `finish` swaps their wires back
        self.relabeled = False

    def say(self, label: str) -> None:
        self.trace.append(label)

    # Gates are built with tuple.__new__, past the wire checks of their
    # __new__: synthesis passes only its own literal wires, which fit.

    def local(self, qubit: int, m: Mat2) -> None:
        """Append the local gate m on `qubit` and apply it to `amps`.

        When the last gate on `qubit` is a local gate (no CZ on the wire since
        it; `open` holds its index, so nothing is searched for), that gate
        commutes with every gate after it: it is removed, the
        gates after it are re-applied from its `before`, and m is replaced by
        their product. A gate (or product) within PRUNE_TOL of +-I, a global
        phase, is not emitted.
        """
        gates = self.gates
        k = self.open[qubit]
        if k >= 0:
            m = m @ gates.pop(k).matrix
            self._replay(k)
        if _is_global_phase(m):
            # the gate before it on this wire, if any, is a CZ
            self.open[qubit] = -1
            return
        self.open[qubit] = len(gates)
        self.before.append(self.amps)
        a, b, c, d = m
        self.amps = kernels.apply_local(self.amps, qubit, a, b, c, d)
        gates.append(tuple.__new__(LocalGate, (qubit, m)))

    def _replay(self, k: int) -> None:
        # the gate at k is gone: re-apply the gates now from k on, starting
        # from the amplitudes it saw, and move each open index down by one
        before, opened = self.before, self.open
        amps = before[k]
        del before[k:]
        for i, g in enumerate(self.gates[k:], k):
            before.append(amps)
            if type(g) is LocalGate:
                q = g.qubit
                if opened[q] == i + 1:
                    opened[q] = i
                a, b, c, d = g.matrix
                amps = kernels.apply_local(amps, q, a, b, c, d)
            else:
                amps = kernels.apply_cz(amps, g.i, g.j)
        self.amps = amps

    def cz(self, i: int, j: int) -> None:
        """Append CZ on (i, j), i < j, and apply it to `amps`."""
        self.open[i] = self.open[j] = -1
        self.before.append(self.amps)
        self.amps = kernels.apply_cz(self.amps, i, j)
        self.gates.append(tuple.__new__(CZGate, (i, j)))

    def require(self, cond: bool, msg: str) -> None:
        # msg is a plain literal; a message that needs formatting is built in
        # an explicit `if not ...: raise`, so no passing check formats one
        if not cond:
            raise SynthesisInvariantError(msg)

    def finish(self, max_cz: int) -> SynthesisReport:
        """The finished report; raises when its fidelity is below FID_MIN or
        its CZ count above max_cz."""
        gates = tuple(map(_swap01_gate, self.gates)) if self.relabeled else tuple(self.gates)
        # every gate was emitted on a wire of the input state
        circ = tuple.__new__(Circuit, (gates, self.num_qubits))
        fid = fidelity_to_basis(self.state_type(self.amps), 0)
        # written `not >=` so that a NaN fidelity fails
        if not fid >= FID_MIN:
            raise SynthesisInvariantError(f"final fidelity {fid!r} below {FID_MIN!r}")
        cz = circ.cz_count
        if cz > max_cz:
            raise SynthesisInvariantError(f"cz count {cz} exceeds {max_cz}")
        return SynthesisReport(circ, cz, circ.is_real(), tuple(self.trace), fid)


def _first_passing(s: State, w, attempts) -> SynthesisReport:
    """Run each attempt (a function of a builder, returning its finished
    report) on a fresh builder of s, tracking the amplitudes w (s.w, or
    their real parts as floats), in order, and return the first report.

    An attempt fails by raising a Qprep3Error, which gets the branch trace
    that attempt took. When every attempt fails, the first one's is raised.
    """
    first = None
    for attempt in attempts:
        b = _Builder(s, w)
        try:
            return attempt(b)
        except Qprep3Error as exc:
            exc.branch_trace = list(b.trace)
            if first is None:
                first = exc
    raise first


def _is_global_phase(m: Mat2) -> bool:
    """m is within PRUNE_TOL of I or -I (entrywise)."""
    # off-diagonal first: a typical gate is rejected by one abs
    if abs(m.b) > PRUNE_TOL or abs(m.c) > PRUNE_TOL:
        return False
    sign = 1.0 if m.a.real > 0.0 else -1.0
    return abs(m.a - sign) <= PRUNE_TOL and abs(m.d - sign) <= PRUNE_TOL


def disentangle2(s: PureState2) -> SynthesisReport:
    """Circuit (gates on qubits 0 and 1) mapping s to |00>.

    Zero CZ when the amplitude matrix is singular (product state), one CZ
    otherwise.
    """
    return _first_passing(s, s.w, (_attempt2,))


def _attempt2(b: _Builder) -> SynthesisReport:
    _run2(b)
    return b.finish(1)


def _run2(b: _Builder, low_qubit: int = 0, product_label: str | None = None, entangled_label: str | None = None) -> None:
    """2-qubit stage on wires (low_qubit+1, low_qubit) of b; the other wire, if
    any, must already be |0>. product_label / entangled_label, when given, are
    said before the detT label of the branch they name."""
    lo, hi, step = low_qubit, low_qubit + 1, 1 << low_qubit
    t = amp_matrix(b.amps, 0, step)
    if is_singular(t, EPS_ZERO):
        if product_label is not None:
            b.say(product_label)
        b.say("detT=0")
    else:
        if entangled_label is not None:
            b.say(entangled_label)
        b.say("detT!=0")
        # gate transposed so the amplitude matrix is right-multiplied by r1
        # itself; cz then flips (2,2) and leaves proportional rows
        b.local(lo, _r1(t).transpose())
        b.cz(lo, hi)
        t = amp_matrix(b.amps, 0, step)
        b.require(is_singular(t, STEP_TOL), "2q: cz sandwich left det nonzero")
    # t is singular (decision or check above) and, as the pair holds the
    # state's whole norm, nonzero
    b.local(hi, _l1(t))
    b.require(row2_norm(amp_matrix(b.amps, 0, step)) <= STEP_TOL, "2q: second row not annihilated")
    eta0, eta1 = b.amps[0], b.amps[step]
    b.local(lo, u_from_pair(eta0.conjugate(), -eta1).transpose())


def disentangle3(s: PureState3) -> SynthesisReport:
    """Circuit mapping an arbitrary 3-qubit state to |000> with at most 3 CZ.

    A chain with qubit 0 in the middle is first tried with qubits 0 and 1
    swapped (trace `relabel01`), for 2 CZ; see the module docstring.
    """
    return _run_attempts3(s, s.w, None, None, False)


def _run_attempts3(s: PureState3, w, label, prefix, real: bool) -> SynthesisReport:
    """_attempt3 with prefix and a bound of 3 CZ, tracking the amplitudes w
    of s; a qubit-0 chain (module docstring) first tries the _relabel01
    prefix with a bound of 2 CZ."""
    attempts = ((prefix, 3),)
    if _is_chain_middle(w, 0) and not _is_chain_middle(w, 1) and not _is_chain_middle(w, 2):
        attempts = ((_relabel01, 2),) + attempts
    return _first_passing(s, w, (partial(_attempt3, label, p, n, real) for p, n in attempts))


def _attempt3(label, prefix, max_cz: int, real: bool, b: _Builder) -> SynthesisReport:
    """One 3-qubit attempt on b: say label, apply prefix (each when not None),
    run the flow, and check the result against max_cz (and, when real, every
    gate's realness)."""
    if label is not None:
        b.say(label)
    if prefix is not None:
        prefix(b)
    _run3(b, real)
    rep = b.finish(max_cz)
    if real and not rep.all_real:
        raise SynthesisInvariantError(f"real mode emitted a non-real gate (max imag {rep.circuit.max_local_imag()!r})")
    return rep


def _real_amps(s: State, who: str):
    """The amplitudes real mode tracks: an exactly real input (every
    imaginary part 0.0) as floats, so every gate is built in float
    arithmetic; any other as s.w, complex, so `finish` measures the fidelity
    on the input itself. Raises NotRealError past REAL_STATE_TOL."""
    imag = s.max_imag()
    if imag > REAL_STATE_TOL:
        raise NotRealError(f"{who} requires real amplitudes")
    return [z.real for z in s.w] if imag == 0.0 else s.w


def disentangle3_real(s: PureState3) -> SynthesisReport:
    """All-real circuit mapping a real 3-qubit state to |000>.

    At most 3 CZ for either sign of delta(s). For delta < 0 the flow runs
    after the chain prefix (a rotation on qubit 1, then cz01; see the module
    docstring), which leaves a chain that the flow finishes with 2 more CZ;
    within DELTA_ZERO_BAND of zero, or when the top block is already
    singular, it runs with no prefix. A run that misses a check, the bound
    included, raises. Every branch choice after a prefix is real. As in
    disentangle3, a chain with qubit 0 in the middle first tries qubits 0
    and 1 swapped, for 2 CZ.
    The first label of the branch trace is the sign of delta (`delta>=0` or
    `delta<0`); the chain prefix says `chain01`, the swap `relabel01`.
    """
    w = _real_amps(s, "disentangle3_real")
    d = _delta(w)
    # a singular top block gives a step-1 root ~0, which is real; inside the
    # band, delta can be the rounding of a delta = 0 state, such as one built
    # with one CZ (delta ~ -1e-17), which the chain prefix would give a
    # second CZ: both take the flow alone, with a real or clamped root
    plain = d >= 0.0 or is_singular(amp_matrix(w, 0), EPS_ZERO) or d >= -DELTA_ZERO_BAND
    return _run_attempts3(s, w, "delta>=0" if d >= 0.0 else "delta<0", None if plain else _chain01, True)


# by qubit q, the amplitudes of the blocks A (q is 0) and B (q is 1) of the
# split on q, each read row-major as a 2x2 matrix over the other two qubits
_SPLITS = [
    (itemgetter(*ia), itemgetter(*ib))
    for ia, ib in (((0, 2, 4, 6), (1, 3, 5, 7)), ((0, 1, 4, 5), (2, 3, 6, 7)), ((0, 1, 2, 3), (4, 5, 6, 7)))
]


def _split(w, q: int) -> tuple[Mat2, Mat2]:
    get_a, get_b = _SPLITS[q]
    return tuple.__new__(Mat2, get_a(w)), tuple.__new__(Mat2, get_b(w))


def _is_chain_middle(w, q: int) -> bool:
    """Qubit q of the 8 amplitudes w is the middle of a chain: the pencil form
    S = [[q0, q1/2], [q1/2, q2]] of its split, det(xA + yB) = q0 x^2 + q1 xy +
    q2 y^2, has two equal singular values. (|S|_F^2)^2 - 4|det S|^2, the
    squared difference of their squares, must be at most CHAIN_GAP_TOL
    |S|_F^4. A form of norm at most EPS_ZERO is no chain: every xA + yB is
    then (nearly) singular."""
    q2, q1, q0 = _pencil_form(*_split(w, q))
    h = 0.5 * q1
    a, b, c = abs(q0), abs(h), abs(q2)
    n2 = a * a + 2.0 * b * b + c * c
    if n2 <= EPS_ZERO * EPS_ZERO:
        return False
    d = abs(q0 * q2 - h * h)
    return n2 * n2 - 4.0 * d * d <= CHAIN_GAP_TOL * n2 * n2


# basis index i with qubits 0 and 1 swapped, and each wire's new wire
_SWAP01_INDEX = (0, 2, 1, 3, 4, 6, 5, 7)
_SWAP01_WIRE = (1, 0, 2)


def _relabel01(b: _Builder) -> None:
    """Prefix: swap qubits 0 and 1 of b's input (which has no gate yet), so a
    chain with qubit 0 in the middle has it on qubit 1; `finish` swaps the
    wires of the circuit back."""
    b.say("relabel01")
    b.amps = [b.amps[i] for i in _SWAP01_INDEX]
    b.relabeled = True


def _swap01_gate(g: Gate) -> Gate:
    if type(g) is LocalGate:
        return tuple.__new__(LocalGate, (_SWAP01_WIRE[g.qubit], g.matrix))
    i, j = _SWAP01_WIRE[g.i], _SWAP01_WIRE[g.j]
    return tuple.__new__(CZGate, (i, j) if i < j else (j, i))


def _chain01(b: _Builder) -> None:
    b.say("chain01")
    b.local(1, _chain_rotation(b.amps))
    b.cz(0, 1)
    b0 = amp_matrix(b.amps, 4)
    if is_singular(b0, EPS_ZERO):
        # the flow would swap the blocks (the pencil root at infinity), which
        # breaks the chain; the small root stays finite, and is taken here
        # (big is 0 only when q1 and q2 q0 are; U(1, 0) = I is not emitted);
        # as for step 1's root, real mode takes its real part, a float
        q2, q1, q0 = _pencil_form(amp_matrix(b.amps, 0), b0)
        big = _big_root_term(q1, q1 * q1 - 4.0 * q2 * q0)
        b.local(2, u_from_pair(1.0, (q0 / big).real if big else 0.0))


def _chain_rotation(w) -> Mat2:
    """Real rotation on qubit 1 after which cz01 leaves the form of the
    qubit-1 split traceless (module docstring), built by half angles from
    the unit vector (cos phi, sin phi) along (q1, det(A) - det(B)).

    Of the two opposite unit vectors, the one with cos phi >= 0 is taken, so
    cos(phi/2) >= 1/sqrt(2) and sin(phi/2) = sin(phi) / (2 cos(phi/2)) does
    not cancel.
    """
    det_b, q1, det_a = _pencil_form(*_split([z.real for z in w], 1))
    gap = det_a - det_b
    r = math.sqrt(q1 * q1 + gap * gap)
    if r == 0.0:
        # the form is traceless already
        return u_from_pair(1.0, 0.0)
    cos_phi = abs(q1) / r
    sin_phi = (gap if q1 >= 0.0 else -gap) / r
    c = math.sqrt(0.5 * (1.0 + cos_phi))
    # the gate [[c, -s], [s, c]] maps (A, B) to (cA - sB, sA + cB)
    return u_from_pair(c, -0.5 * sin_phi / c)


def _step1_root(b: _Builder, roots: list[complex], require_real: bool) -> complex:
    """The first pencil root; in real mode, the real part, as a float, of
    the first root within REAL_ROOT_TOL of real, so step 1's gate is real
    (of floats when the tracked amplitudes are)."""
    if not require_real:
        return roots[0]
    for z in roots:
        if abs(z.imag) <= REAL_ROOT_TOL:
            return z.real
    # conjugate pair from a slightly negative discriminant: its shared real
    # part is the best real root; the step-1 invariant verifies the residual
    b.say("pencil-root-clamped")
    return roots[0].real


def _run3(b: _Builder, require_real: bool) -> None:
    # each construction is a mat2 core (_l1, ...): the decision or step check
    # just before it has established its precondition
    b0 = amp_matrix(b.amps, 4)
    if is_singular(b0, EPS_ZERO):
        b.say("detB0=0")
        w1 = SWAP_BLOCKS
    else:
        b.say("pencil")
        z0 = _step1_root(b, _solve_det_pencil(amp_matrix(b.amps, 0), b0), require_real)
        w1 = u_from_pair(1.0, z0)
    b.local(2, w1)

    a1 = amp_matrix(b.amps, 0)
    b.require(is_singular(a1, STEP_TOL), "step1: det of top block not killed")
    if max(map(abs, a1)) <= EPS_ZERO:
        # whole state lives in the bottom block: swap blocks (det +1 variant
        # of X) and finish with the 2-qubit stage on qubits (1, 0). Tested
        # entrywise, so otherwise a1 is nonzero for _l1, and the first row
        # _l1 leaves (no smaller than any entry) is nonzero for _r3
        b.say("A1=0")
        b.local(2, SWAP_BLOCKS)
        _run2(b, 0)
        return

    b.local(1, _l1(a1))
    a2 = amp_matrix(b.amps, 0)
    b.require(row2_norm(a2) <= STEP_TOL, "step2: second row of top block survives")

    b.local(0, _r3(a2).transpose())
    a3 = amp_matrix(b.amps, 0)
    b3 = amp_matrix(b.amps, 4)
    b.require(
        max(abs(a3.b), abs(a3.c), abs(a3.d)) <= STEP_TOL,
        "step3: top block not reduced to its corner",
    )

    if is_singular(b3, EPS_ZERO):
        b.say("skip-step4")
        b4 = b3
    else:
        b.say("step4")
        u4 = _r1(b3).transpose()
        b.local(0, u4)
        b.cz(0, 1)
        b.local(0, u4.dagger())
        b4 = amp_matrix(b.amps, 4)
        b.require(is_singular(b4, STEP_TOL), "step4: det of bottom block not killed")
        b.require(amp_matrix(b.amps, 0).distance_to(a3) <= STEP_TOL, "step4: top block disturbed")

    # b4 is singular (skip decision or step-4 check), and nonzero when its
    # second column is
    if max(abs(b4.b), abs(b4.d)) <= EPS_ZERO:
        b.say("skip-step5")
    else:
        b.say("step5")
        b.local(0, _r2(b4).transpose())
        b.cz(0, 2)

    single = qubit0_factor(b.amps)
    b.require(single is not None, "step5: block rows not proportional, state did not factor")
    v1, v2 = single
    # maps qubit 0 to |0>, leaving the pair's amplitudes on the even indices
    b.local(0, u_from_pair(v1.conjugate(), -v2).transpose())
    _run2(b, 1, "b3=0", "cz12")


def disentangle(s: State, mode: str = "general") -> SynthesisReport:
    """Disentangler for s: the 2-qubit routine, or the 3-qubit one for `mode`.

    mode is "general" or "real"; real mode requires real amplitudes (a real
    2-qubit input gets real gates from disentangle2's flow, which real mode
    runs on the amplitudes _real_amps gives).
    """
    if mode not in ("general", "real"):
        raise ValueError(f"mode must be 'general' or 'real', got {mode!r}")
    if isinstance(s, PureState2):
        if mode == "real":
            return _first_passing(s, _real_amps(s, "real mode"), (_attempt2,))
        return disentangle2(s)
    if mode == "real":
        return disentangle3_real(s)
    return disentangle3(s)


# |0..0> by qubit count, the start of every preparation round trip (states
# are immutable, so one of each serves every call)
_ZERO_STATES = {2: basis_state(2, 0), 3: basis_state(3, 0)}


def prepare(s: State, mode: str = "general") -> SynthesisReport:
    """Preparation circuit: apply report.circuit to |0..0> to reproduce s.

    The circuit is the inverted disentangler; cz count and branch trace are
    the disentangler's, fidelity is the overlap |<s|prepared>|, which must
    reach the disentangler's own bound, FID_MIN.
    """
    rep = disentangle(s, mode)
    prep = invert(rep.circuit)
    produced = apply_circuit(prep, _ZERO_STATES[s.num_qubits])
    fid = overlap(s, produced)
    if not fid >= FID_MIN:
        raise SynthesisInvariantError(f"preparation round-trip fidelity {fid!r} below {FID_MIN!r}", rep.branch_trace)
    # inversion keeps the cz count and the realness of every gate
    return rep._replace(circuit=prep, fidelity=fid)
