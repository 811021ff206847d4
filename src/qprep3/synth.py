"""Synthesis of disentangling circuits for 2- and 3-qubit pure states.

Every synthesizer returns a verified circuit mapping the input state to the
all-zeros basis state (invert it to prepare). Guarantees:

  disentangle2       any 2-qubit state,   <= 1 controlled-Z
  disentangle3       any 3-qubit state,   <= 3 controlled-Z
  disentangle3_real  real 3-qubit states, <= 3 controlled-Z, all gates real

A state of the other size raises ValueError.

Every synthesis ends in one chain finisher, _finish_chain(b, m, outer). Its
input is |0>P + |1>Q on qubit m, the middle, with P and Q products on the
outer wires; every other wire is |0>. In order:

  1. With two outer wires, when the blocks A (m = 0) and B (m = 1) of m's
     split are not both singular, the local gate U(1, z) on m, with z the
     finite root of det(A + zB) (_root_gate, as in step 1 of the flow),
     makes them both singular: products. The trace says `chain<m>`.
  2. For each outer wire x, with factors p in P and q in Q and n0, n1 the
     norms of P and Q: when [n0 p; n1 q] is singular, x factors out already
     (`skip-cz<ij>`). Otherwise a local gate on x, with first row
     conj(p + e q) for unit p, q and the phase e that makes <p|e q> >= 0,
     turns p and q into images of each other under Z (a pi rotation about
     their bisector), and CZ(m, x) (`cz<ij>`) makes them equal.
  3. One local gate per wire, m's first, each built from the pair of
     amplitudes that holds the largest one, maps the product left to |0..0>.
     A wire whose |1> amplitude in that pair is at most EPS_ZERO is at |0>
     already, as a branch decision sees it, and gets no gate.

Its per-run constants, the labels, each step's CZ wires and index pairs and
the final wire order, come from one cached plan per (amplitude count, m,
outer), _chain_plan: five keys in all, so a run formats no string. Each
decision reads the tracked list once. Step 1 takes m's eight split entries,
A's then B's, in one read (state._SPLIT_ENTRIES): both singular tests and
the root's pencil form come from it, and no block is built. Step 2 takes
x's factors in both halves as one 4-tuple [p; q] (_factors), which the skip
test, the bisector and the check after the CZ all read.

disentangle2 is the finisher with m = 1: at most 1 CZ, and none exactly
when the amplitude matrix is singular.

The 3-qubit flow works on the block view |phi> = |0>A + |1>B of the split on
qubit 2: one local gate makes A singular (a root of det(A + zB) = 0, or a
block swap when det(B) = 0), a second, on qubit 1, zeroes A's second row,
and a conjugated cz01 sandwich makes B singular, leaving A as it is. Both
blocks are then products, and the finisher ends the run on m = 2 with at
most 2 more CZ. The paper's step 3, R3 on qubit 0 squeezing A to its
top-left entry, is skipped: the finisher needs A only as a product. When
step 1 leaves A zero, a block swap leaves qubit 2 at |0>, and the finisher
ends the run on m = 1. Skipped stages lower the CZ count.

A generic 3-qubit state, in either mode, starts with the chain prefix: one
gate on qubit 1, then cz01, after which qubit 1 is a chain middle (Chains,
below) that the finisher ends with m = 1: 3 CZ and 10 gates, against the
flow's 11, and no real pencil root is needed, which a real state with
delta < 0 lacks. On the qubit-1 split |0>A + |1>B (A on indices 0, 1, 4, 5,
B on 2, 3, 6, 7), take

    d_aa = w0 w5 - w4 w1,   d_bb = w2 w7 - w6 w3,   s = d_ab + d_ba,
    d_ab = w0 w7 - w4 w3,   d_ba = w2 w5 - w6 w1,   h = (d_ba - d_ab) / 2.

After U(alpha, beta) on qubit 1 and cz01 (which negates B's second column),
the split's pencil form is q0 = f(v), q1 = 2h and q2 = -f(v_perp), with
f(v) = d_aa alpha^2 + s alpha beta + d_bb beta^2, v = (alpha, beta) and
v_perp = (-conj(beta), conj(alpha)). Its singular values are equal when
e q2 + conj(q0) = 0, e = conj(h) / h (1 when h = 0), that is when

    v^T K v = 0,   K00 = conj(d_bb) - e d_aa,   K11 = conj(d_aa) - e d_bb,
                   K01 = -(conj(s) + e s) / 2,

so the gate is U(1, z), z = mat2._pencil_root(K11, 2 K01, K00)
(_chain_form). For a real state e = 1 and K is real and traceless, so z is
real.

The prefix spends cz01 on every state, so near a state that needs fewer
CZ the flow, whose skips find them, runs too, and so does the finisher on
each qubit that may be a chain middle (Chains, below). Both modes take one
route (_route3), and one pass over the three split forms (_screen) screens
for it: when some form's smaller singular value, or the gap between its two,
is at most STEP_TOL (a zero qubit-2 discriminant, a near product and a near
chain each make one), or when the top block is singular (its step-1 root is
then ~0, and real), the flow runs, then the finisher on each qubit whose
form has such a gap, then the prefix, and the runner keeps the best. Every
other input, every Haar state but a few real ones among them, runs the
prefix alone. The bound of 3 CZ is checked on every run, not proven: a run
that misses it raises.

Step 1, the finisher's step 1 and the prefix take one root through one
gate, _root_gate(b, q, form): U(1, z) on qubit q, z the finite root of
det(A + zB) for q's split, or of the prefix's K (mat2._pencil_root: the
smaller one, -q1 / (2 q2) when the discriminant is rounding noise, 0 when
no root is finite). Real mode takes z's real part, and says
`pencil-root-clamped` when that drops an imaginary part above
REAL_ROOT_TOL (a conjugate pair shares its real part). The branch
decisions are made at EPS_ZERO: a residual r they skip costs an infidelity
of about r^2 <= 1e-12. The finisher's checks at STEP_TOL accept residuals
that cost up to the floor itself: on 23,715 screened near-degenerate runs
the worst 1 - F was 9.8e-11, and 1,125 of the 1,150 runs at 1e-12 or more
were won by a chain finisher. `finish` holds every run to FID_MIN. So a
state within ~EPS_ZERO of one that needs fewer CZ gets the fewer, and a CZ
count is minimal to within the floor, not exactly.

Chains. Two CZ suffice exactly for the states |u>P + |u_perp>Q on one qubit
m, the chain middle, with P and Q products on the other two. Qubit m is one
when the pencil form of its split, S = [[q0, q1/2], [q1/2, q2]] with
det(xA + yB) = q0 x^2 + q1 xy + q2 y^2, has two equal singular values (its
two null directions are then orthogonal). No chain test decides the route:
the screen reads the three forms, each split's eight entries read at once
into the one pencil-form formula, with no block built, and each qubit q
whose form's gap is at most STEP_TOL gets an attempt of the finisher on the
input itself, with m = q (trace `chain<q>`), in the order 0, 1, 2. The
attempt passes or fails on `finish`'s checks like any other, under the
route's bound: it emits at most one CZ per outer wire, 2 in all. GHZ, a
chain on every qubit, keeps `chain0`, the first of three that tie.

Every synthesis goes through one attempt runner, _synthesize(w, real,
runs, max_cz). Its loop makes an attempt of each of `runs` (the flow, the
chain prefix, the 2-qubit finisher or a chain finisher): a fresh builder of
the input's amplitudes w, the run, and `finish` against a bound of 1 CZ for
2 qubits and 3 for 3. It returns the passing attempt with the fewest (CZ,
gates), the earlier on ties, so a tie goes to the flow. A Qprep3Error
raised in an attempt gets the branch trace that attempt took, and when no
attempt passes, the first attempt's error is raised.

Each synthesis is one builder pass. The builder tracks the amplitudes as a
plain list and reads the blocks from it to choose the next gate; the
finisher reads its pairs from the same list and emits into the same circuit.
`local(qubit, m)` and `cz(i, j)` are the only writers of that list and of the
gate list: each applies its gate as synthesis asks for it, by the block
rules of kernels.py, and emits it. `local` fuses a local gate into the last
gate on its wire when that is a local gate with no CZ on the wire after it:
the earlier gate commutes with every gate since, so it is removed and the
product emitted last. Fusion edits only the gate list, and marks the run.
`local` drops a gate (or product) that is a global phase (+-I); one that
fuses into nothing is not applied either. So no circuit holds two local
gates on one wire without a CZ on that wire between them, and every stage
asserts its postcondition on the state made by the gates it asked for. On
an unmarked run, every Haar run among them, that list is also the input
after the emitted circuit, and its final value gives the reported fidelity;
a marked run is checked on a fresh simulation of its emitted circuit from
the input (circuit._simulate, the gate loop apply_circuit and prepare's
round trip run).

Real mode tracks its input's real parts as floats (_amps), the one
representation it computes on: the mat2 constructions keep their inputs'
type and real mode's root choices take the root's real part, so no gate has
a complex entry and every kernel runs in float arithmetic, which CPython
computes faster than complex. An imaginary part within REAL_STATE_TOL is
dropped, so no phase is ever picked from rounding noise. Real gates act on
the real and imaginary parts apart, so the input's fidelity is at least the
one `finish` measures on the real parts, and at most |Im|^2 / 2 <= 4e-24
above it; `prepare`'s round trip checks the overlap with the input itself.

Each gate comes from its public mat2 construction (l1, r1, u_from_pair),
which checks its own precondition, and no precondition is tested twice: l1's
(singular at STEP_TOL) is step 1's check, so a step 1 that leaves A
nonsingular raises NonSingularInputError, and r1's (nonsingular at EPS_ZERO)
is step 4's decision, its SingularInputError taken as `skip-step4`. The
pencil root (mat2._pencil_root) has no precondition: with no finite root it
gives 0, and U(1, 0) = I is not emitted. Synthesis validates no state:
each entry point tests only its input's size and, in real mode, realness,
once (_amps).
`local` and `cz` take a wire rather than a gate, call the kernels directly
and build each gate with tuple.__new__, past the wire checks of the record's
__new__; `finish` builds its Circuit and its report the same way, as
synthesis only passes its own literal wires. The finisher checks its step-1
blocks, and each wire it spends a CZ on, at STEP_TOL. `finish` is the one
place a result is checked, for every attempt at both sizes, on the tracked
list or, on a marked run, on the fresh simulation: its squared norm against
1 within NORM_REJECT (the gates are unitary, so only a fault fails this),
its fidelity, |amps[0]|, against FID_MIN, its CZ count, which `cz` keeps as
it appends, against the attempt's bound and, in real mode, every gate's
realness against REAL_GATE_TOL (Circuit.is_real, which stops at the first
entry past it). `prepare` then simulates its inverted circuit from |0..0>
by the same gate loop and checks the amplitude list that makes, with no
state built: its squared norm by `finish`'s own helper (_check_norm) and its
overlap with the input (state._overlap, the core of state.overlap) against
FID_MIN.
"""
from __future__ import annotations

import math
from collections import namedtuple
from functools import cache, partial

from . import kernels
from .circuit import Circuit, CZGate, Gate, LocalGate, _simulate, invert
from .errors import NotRealError, Qprep3Error, SingularInputError, SynthesisInvariantError
from .mat2 import EPS_ZERO, FID_MIN, PRUNE_TOL, REAL_ROOT_TOL, STEP_TOL
from .mat2 import NORM_REJECT, SWAP_BLOCKS, Mat2
from .mat2 import _pencil_form, _pencil_root, is_singular, l1, r1, row2_norm, u_from_pair
from .state import _SPLIT_ENTRIES, PureState2, PureState3, State, _overlap, _split

class SynthesisReport(namedtuple("SynthesisReport", "circuit cz_count all_real branch_trace fidelity")):
    """Result of a synthesis run (disentangling direction unless produced by prepare).

    circuit: Circuit, cz_count: int, all_real: bool, branch_trace: tuple of
    branch labels, fidelity: float.
    """

    __slots__ = ()


class _Builder:
    """Accumulates gates and tracks the state they make on a plain amplitude
    list.

    `amps` is the input state after the gates synthesis asked for, each
    applied by `local` or `cz` as it is asked for (a lone global phase is
    neither applied nor emitted), and synthesis reads its next decision
    from it. `gates` is what is emitted: when `local` fuses a gate into the
    open local gate on its wire, only `gates` changes, and the run is marked
    (`fused`). On an unmarked run `amps` is the input after `gates`, and
    `finish` checks it with no second simulation; a marked run is checked on
    a fresh simulation of `gates` from the input (`w`). `real` is the
    attempt's mode: real mode takes the real part of every root it chooses.
    """

    def __init__(self, amps, real: bool):
        self.num_qubits = len(amps).bit_length() - 1
        self.w = amps
        self.amps = list(amps)
        self.real = real
        self.gates: list[Gate] = []
        # fusion never removes a CZ, so this stays exact
        self.cz_count = 0
        self.fused = False
        self.trace: list[str] = []
        # by wire, the index in `gates` of its last gate if that is a local
        # gate, else -1: a wire holds at most one local gate after its last CZ
        self.open = [-1, -1, -1]

    # Gates are built with tuple.__new__, past the wire checks of their
    # __new__: synthesis passes only its own literal wires, which fit.

    def local(self, qubit: int, m: Mat2) -> None:
        """Apply the local gate m on `qubit` to `amps` and emit it.

        When the last gate on `qubit` is a local gate (no CZ on the wire since
        it; `open` holds its index, so nothing is searched for), that gate
        commutes with every gate after it: it is removed, the open indices
        above it move down by one, the product of m and it is emitted last,
        and the run is marked. A gate (or product) within PRUNE_TOL of +-I,
        a global phase, is not emitted; a gate that fuses into nothing is
        then not applied either, so `amps` and `gates` still agree.
        """
        gates, opened = self.gates, self.open
        k = opened[qubit]
        if k >= 0:
            self.fused = True
            self.amps = kernels.apply_local(self.amps, qubit, *m)
            m = m @ gates.pop(k).matrix
            self.open = opened = [i - (i > k) for i in opened]
        a, b, c, d = m
        # off-diagonal first: a typical gate is rejected by one abs
        if abs(b) <= PRUNE_TOL and abs(c) <= PRUNE_TOL and _is_global_phase(a, d):
            # the gate before it on this wire, if any, is a CZ
            opened[qubit] = -1
            return
        opened[qubit] = len(gates)
        if k < 0:
            self.amps = kernels.apply_local(self.amps, qubit, a, b, c, d)
        gates.append(tuple.__new__(LocalGate, (qubit, m)))

    def cz(self, i: int, j: int) -> None:
        """Apply CZ on (i, j), i < j, to `amps` and emit it."""
        self.open[i] = self.open[j] = -1
        self.cz_count += 1
        self.amps = kernels.apply_cz(self.amps, i, j)
        self.gates.append(tuple.__new__(CZGate, (i, j)))

    def finish(self, max_cz: int) -> SynthesisReport:
        """The finished report, read off the tracked list or, on a marked run,
        off a fresh simulation of `gates` from the input; raises when its
        squared norm is off 1 by more than NORM_REJECT, its fidelity is below
        FID_MIN, its CZ count above max_cz or, in real mode, a gate is not
        real."""
        amps = _simulate(self.gates, self.w) if self.fused else self.amps
        # each check is written `not <=` or `not >=`, so that a NaN fails
        _check_norm(amps, "tracked")
        fid = abs(amps[0])
        if not fid >= FID_MIN:
            raise SynthesisInvariantError(f"final fidelity {fid!r} below {FID_MIN!r}")
        cz = self.cz_count
        if cz > max_cz:
            raise SynthesisInvariantError(f"cz count {cz} exceeds {max_cz}")
        # every gate was emitted on a wire of the input state
        circ = tuple.__new__(Circuit, (tuple(self.gates), self.num_qubits))
        all_real = circ.is_real()
        if self.real and not all_real:
            raise SynthesisInvariantError(f"real mode emitted a non-real gate (max imag {circ.max_local_imag()!r})")
        return tuple.__new__(SynthesisReport, (circ, cz, all_real, tuple(self.trace), fid))


# the outer wires of a 3-qubit chain, by its middle
_OUTER = ((1, 2), (0, 2), (0, 1))


def _synthesize(w, real: bool, runs, max_cz: int) -> SynthesisReport:
    """The one attempt runner (module docstring): an attempt of each of
    `runs` with a bound of max_cz, the passing one with the fewest (CZ,
    gates) returned, the earlier on ties. When every attempt fails, the
    first one's error is raised."""
    best = key = error = None
    for run in runs:
        b = _Builder(w, real)
        try:
            run(b)
            r = b.finish(max_cz)
        except Qprep3Error as exc:
            exc.branch_trace = list(b.trace)
            if error is None:
                error = exc
            continue
        k = (r.cz_count, len(r.circuit.gates))
        # strict: a tie keeps the earlier attempt
        if best is None or k < key:
            best, key = r, k
    if best is None:
        raise error
    return best


def _check_norm(amps, name: str, trace=()) -> None:
    """Raise SynthesisInvariantError, naming the list `name` and carrying
    `trace`, when the squared norm of amps is off 1 by more than NORM_REJECT
    (a NaN or an inf is)."""
    n2 = sum([x * x for x in map(abs, amps)])
    if not abs(n2 - 1.0) <= NORM_REJECT:
        raise SynthesisInvariantError(f"{name} squared norm {n2!r} not within {NORM_REJECT!r} of 1", trace)


def _is_global_phase(a, d) -> bool:
    """A gate with diagonal a, d and off-diagonal within PRUNE_TOL of 0 is
    within PRUNE_TOL of I or -I (entrywise)."""
    sign = 1.0 if a.real > 0.0 else -1.0
    return abs(a - sign) <= PRUNE_TOL and abs(d - sign) <= PRUNE_TOL


def disentangle2(s: PureState2) -> SynthesisReport:
    """Circuit (gates on qubits 0 and 1) mapping s to |00>.

    Zero CZ when the amplitude matrix is singular (product state), one CZ
    otherwise.
    """
    return _synthesize(_amps(s, 4, False, "disentangle2"), False, (_run2,), 1)


def _run2(b: _Builder) -> None:
    # a 2-qubit state is a chain with qubit 1 in the middle
    _finish_chain(b, 1, (0,))


def disentangle3(s: PureState3) -> SynthesisReport:
    """Circuit mapping an arbitrary 3-qubit state to |000> with at most 3 CZ.

    A generic state takes the chain prefix, for 3 CZ and 10 gates; near a
    degenerate split form the flow and the chain finisher on each near-gap
    qubit q (trace `chain<q>`) run beside it, and the best is kept (_route3;
    see the module docstring).
    """
    return _route3(_amps(s, 8, False, "disentangle3"), False)


def _amps(s: State, size: int, real: bool, who: str):
    """The amplitudes a synthesis of s tracks, the one check of its input:
    ValueError unless s holds `size` amplitudes. In general mode, s.w; in
    real mode, the real parts of s.w as floats, so every gate is built in
    float arithmetic (module docstring); real mode raises NotRealError past
    REAL_STATE_TOL."""
    if len(s.w) != size:
        raise ValueError(f"{who} needs a state of {size} amplitudes, got {len(s.w)}")
    if not real:
        return s.w
    if not s.is_real():
        raise NotRealError(f"{who} requires real amplitudes")
    return [z.real for z in s.w]


def disentangle3_real(s: PureState3) -> SynthesisReport:
    """All-real circuit mapping a real 3-qubit state to |000>.

    At most 3 CZ for either sign of delta(s). It takes disentangle3's route
    (_route3): a generic state takes the chain prefix (trace `chain01`),
    whose gate is real here. A run that misses a check, the bound included,
    raises. Every root it chooses is real.
    """
    return _route3(_amps(s, 8, True, "disentangle3_real"), True)


def _route3(w, real: bool) -> SynthesisReport:
    """The one route of a 3-qubit input, in either mode: on an input the
    screen (_screen) flags, or whose top block is singular, the flow (_run3),
    the finisher on each near-gap qubit and the chain prefix (_chain01); on
    any other, the prefix alone. The runner keeps the best (module
    docstring)."""
    gaps, flagged = _screen(w)
    # the top block T0 of qubit 2's split is w[0:4], read row-major
    if flagged or is_singular(w[:4], EPS_ZERO):
        runs = (_run3, *[partial(_finish_chain, m=q, outer=_OUTER[q]) for q in gaps], _chain01)
    else:
        runs = (_chain01,)
    return _synthesize(w, real, runs, 3)


def _screen(w) -> tuple[list[int], bool]:
    """The route's screen of the 8 amplitudes w, from one pass over the
    pencil forms of the three splits, each split's eight entries read at
    once, with no block built: the qubits among 0, 1, 2, in that order,
    whose form's two singular values are at most STEP_TOL apart, and whether
    some form has such a gap or a smaller singular value at most STEP_TOL.

    Qubit q's form S = [[q0, q1/2], [q1/2, q2]], det(xA + yB) = q0 x^2 +
    q1 xy + q2 y^2, has singular values s1 >= s2 with s1^2 + s2^2 = |S|_F^2
    and s1 s2 = |det S|; both tests are made with no square root."""
    gaps, small, t2 = [], False, STEP_TOL * STEP_TOL
    for q, entries in enumerate(_SPLIT_ENTRIES):
        q2, q1, q0 = _pencil_form(*entries(w))
        h = 0.5 * q1
        a, b, c = abs(q0), abs(h), abs(q2)
        n2 = a * a + 2.0 * b * b + c * c
        d = abs(q0 * q2 - h * h)
        # with t = STEP_TOL: (s1 - s2)^2 = n2 - 2 d, and d^2 - t^2 (n2 - t^2)
        # = (s1^2 - t^2)(s2^2 - t^2) is at most 0 when s2 <= t <= s1; an s1
        # below t passes the gap test
        if n2 - 2.0 * d <= t2:
            gaps.append(q)
        small = small or d * d <= t2 * (n2 - t2)
    return gaps, small or bool(gaps)


def _chain01(b: _Builder) -> None:
    """The chain prefix (module docstring), ended by the finisher."""
    b.trace.append("chain01")
    _root_gate(b, 1, _chain_form(b.amps))
    b.cz(0, 1)
    _finish_chain(b, 1, (0, 2))


def _chain_form(w) -> tuple:
    """(K11, 2 K01, K00) of the 8 amplitudes w (module docstring); float
    entries give a float, traceless K."""
    w0, w1, w2, w3, w4, w5, w6, w7 = w
    d_aa, d_bb = w0 * w5 - w4 * w1, w2 * w7 - w6 * w3
    d_ab, d_ba = w0 * w7 - w4 * w3, w2 * w5 - w6 * w1
    s, h = d_ab + d_ba, 0.5 * (d_ba - d_ab)
    e = h.conjugate() / h if h else 1.0
    return d_aa.conjugate() - e * d_bb, -(s.conjugate() + e * s), d_bb.conjugate() - e * d_aa


def _root_gate(b: _Builder, q: int, form: tuple) -> None:
    """U(1, z) on qubit q, z = mat2._pencil_root(*form) for form = (q2, q1,
    q0): the pencil form of q's split makes its A singular, _chain_form's
    makes qubit 1 a chain middle after cz01. Real mode takes z's real part,
    as a float, so the gate, like the amplitudes it reads, is of floats; a
    conjugate pair from a slightly negative discriminant shares that
    real part, the best real root, and says `pencil-root-clamped`: the check
    after the gate verifies it, l1's precondition in step 1 and the
    finisher's checks otherwise."""
    z = _pencil_root(*form)
    if b.real:
        if abs(z.imag) > REAL_ROOT_TOL:
            b.trace.append("pencil-root-clamped")
        z = z.real
    b.local(q, u_from_pair(1.0, z))


def _run3(b: _Builder) -> None:
    # each precondition is tested once: l1's check is step 1's check, and
    # r1's is step 4's decision
    if is_singular(b.amps[4:], EPS_ZERO):
        b.trace.append("detB0=0")
        b.local(2, SWAP_BLOCKS)
    else:
        b.trace.append("pencil")
        _root_gate(b, 2, _pencil_form(*_SPLIT_ENTRIES[2](b.amps)))

    a1 = _split(b.amps)[0]
    if max(map(abs, a1)) <= EPS_ZERO:
        # whole state lives in the bottom block: swap blocks (det +1 variant
        # of X), which leaves qubit 2 at |0>, and finish on qubits (1, 0).
        # Entries this small make a1 singular at STEP_TOL, so no check is
        # skipped; otherwise a1 is nonzero for l1
        b.trace.append("A1=0")
        b.local(2, SWAP_BLOCKS)
        _finish_chain(b, 1, (0,))
        return

    b.local(1, l1(a1))
    a2, b2 = _split(b.amps)
    if not row2_norm(a2) <= STEP_TOL:
        raise SynthesisInvariantError("step2: second row of top block survives")

    # the paper's step 3 (R3 on qubit 0, squeezing the top block to its
    # corner) is skipped: the finisher needs only products
    try:
        u4 = r1(b2).transpose()
    except SingularInputError:
        b.trace.append("skip-step4")
    else:
        b.trace.append("step4")
        # the checks read the state after the sandwich as asked; the top
        # block, whose second row step 2 zeroed, sees it as the identity
        b.local(0, u4)
        b.cz(0, 1)
        b.local(0, u4.dagger())
        a4, b4 = _split(b.amps)
        if not is_singular(b4, STEP_TOL):
            raise SynthesisInvariantError("step4: det of bottom block not killed")
        if not a4.distance_to(a2) <= STEP_TOL:
            raise SynthesisInvariantError("step4: top block disturbed")

    # the top block has one nonzero row and the bottom block is singular
    # (r1's precondition or step 4's check): both are products
    _finish_chain(b, 2, (0, 1))


@cache
def _chain_plan(n: int, m: int, outer: tuple[int, ...]) -> tuple:
    """The finisher's per-run constants for (amplitude count, m, outer): its
    label `chain<m>`; per outer wire x, the step (x, i, j, `cz<ij>`,
    `skip-cz<ij>`, half0, half1), with (i, j) the wires of CZ(m, x) and
    half0, half1 x's index pairs (k, k | 1 << x) in m's half 0 and in its
    half 1, one per value of the other outer wire, every wire outside m and
    outer 0; and the final wire order (m, *outer). Built once per key (five
    in all), as kernels.py builds its CZ flips, and shared by every caller,
    so it is made of tuples."""
    used = 1 << m | sum(1 << x for x in outer)
    steps = []
    for x in outer:
        i, j = sorted((m, x))
        pairs = [(k, k | 1 << x) for k in range(n) if not k & ~used and not k >> x & 1]
        halves = (tuple(p for p in pairs if p[0] >> m & 1 == h) for h in (0, 1))
        steps.append((x, i, j, f"cz{i}{j}", f"skip-cz{i}{j}", *halves))
    return f"chain{m}", tuple(steps), (m, *outer)


def _factors(w, half0, half1) -> tuple:
    """A wire's factors p and q in m's half 0 and half 1 of a product, as the
    4-tuple [p; q] that is_singular and _bisector take: in each half, its
    larger pair there, times the half's norm over the pair's (the pair itself
    when it is the only one)."""
    if len(half0) == 1:
        ((i, j),), ((k, l),) = half0, half1
        return w[i], w[j], w[k], w[l]
    # both halves written out: a loop, or a call per half, costs more
    (i, j), (k, l) = half0
    a, b, c, d = w[i], w[j], w[k], w[l]
    s, t = abs(a) ** 2 + abs(b) ** 2, abs(c) ** 2 + abs(d) ** 2
    if s < t:
        a, b, s, t = c, d, t, s
    (i, j), (k, l) = half1
    e, f, g, h = w[i], w[j], w[k], w[l]
    u, v = abs(e) ** 2 + abs(f) ** 2, abs(g) ** 2 + abs(h) ** 2
    if u < v:
        e, f, u, v = g, h, v, u
    r, q = math.sqrt((s + t) / s) if s else 1.0, math.sqrt((u + v) / u) if u else 1.0
    return a * r, b * r, e * q, f * q


def _bisector(f) -> Mat2:
    """The local gate with first row conj(p/|p| + e q/|q|), f = [p; q] and e
    the phase that makes <p|e q> real and nonnegative: up to phase, it maps p
    and q to images of each other under Z. p and q are nonzero."""
    p0, p1, q0, q1 = f
    n0, n1 = math.hypot(abs(p0), abs(p1)), math.hypot(abs(q0), abs(q1))
    overlap_qp = q0.conjugate() * p0 + q1.conjugate() * p1
    e = overlap_qp / abs(overlap_qp) if overlap_qp else 1.0
    # the row times n0 n1, which u_from_pair normalizes away
    return u_from_pair((n1 * p0 + e * n0 * q0).conjugate(), (n1 * p1 + e * n0 * q1).conjugate())


def _finish_chain(b: _Builder, m: int, outer: tuple[int, ...]) -> None:
    """Map the chain |0>P + |1>Q on qubit m, P and Q products on the outer
    wires and every other wire |0>, to |0..0> (module docstring): at most one
    CZ per outer wire x, on (m, x)."""
    label, steps, wires = _chain_plan(len(b.amps), m, outer)
    b.trace.append(label)
    if len(outer) == 2:
        # m's split read once per decision: A's four entries, then B's
        entries = _SPLIT_ENTRIES[m](b.amps)
        if not (is_singular(entries[:4], EPS_ZERO) and is_singular(entries[4:], EPS_ZERO)):
            # with no finite root the gate is U(1, 0) = I, which is not emitted
            _root_gate(b, m, _pencil_form(*entries))
            entries = _SPLIT_ENTRIES[m](b.amps)
            if not (is_singular(entries[:4], STEP_TOL) and is_singular(entries[4:], STEP_TOL)):
                raise SynthesisInvariantError(f"{label}: blocks not products")
    for x, i, j, cz, skip, half0, half1 in steps:
        f = _factors(b.amps, half0, half1)
        if is_singular(f, EPS_ZERO):
            b.trace.append(skip)
            continue
        b.trace.append(cz)
        b.local(x, _bisector(f))
        b.cz(i, j)
        if not is_singular(_factors(b.amps, half0, half1), STEP_TOL):
            raise SynthesisInvariantError(f"{cz}: qubit {x} did not factor out")
    mags = list(map(abs, b.amps))
    k = mags.index(max(mags))
    for y in wires:
        # y's pair through the largest amplitude, which the gate moves to
        # y = 0; a wire within EPS_ZERO of |0> is there already: no gate
        k &= ~(1 << y)
        if abs(one := b.amps[k | 1 << y]) > EPS_ZERO:
            b.local(y, u_from_pair(b.amps[k].conjugate(), one.conjugate()))


def disentangle(s: State, mode: str = "general") -> SynthesisReport:
    """Disentangler for s: the 2-qubit routine, or the 3-qubit one for `mode`.

    mode is "general" or "real"; real mode requires real amplitudes (a real
    2-qubit input gets real gates from disentangle2's run, which real mode
    runs on the amplitudes _amps gives, and `finish` checks them).
    """
    if mode not in ("general", "real"):
        raise ValueError(f"mode must be 'general' or 'real', got {mode!r}")
    if isinstance(s, PureState2):
        if mode == "real":
            return _synthesize(_amps(s, 4, True, "real mode"), True, (_run2,), 1)
        return disentangle2(s)
    if mode == "real":
        return disentangle3_real(s)
    return disentangle3(s)


# |0..0> by qubit count as floats, the start of every preparation round trip
# (tuples, so no run, not even one of zero gates, can change them)
_ZERO_AMPS = {2: (1.0, 0.0, 0.0, 0.0), 3: (1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)}


def prepare(s: State, mode: str = "general") -> SynthesisReport:
    """Preparation circuit: apply report.circuit to |0..0> to reproduce s.

    The circuit is the inverted disentangler; cz count and branch trace are
    the disentangler's, fidelity is the overlap |<s|prepared>|, which must
    reach the disentangler's own bound, FID_MIN.

    The round trip simulates the inverted circuit from |0..0> by the one
    gate loop (circuit._simulate) and checks the amplitude list it makes, as
    `finish` checks its own: the squared norm within NORM_REJECT of 1 and
    the overlap with s (state._overlap) at least FID_MIN. Each failure
    raises SynthesisInvariantError with the branch trace. The inverse keeps
    the wires of the circuit `finish` built on s, so no wire is checked and
    no state is built.
    """
    circ, cz, all_real, trace, _ = disentangle(s, mode)
    prep = invert(circ)
    produced = _simulate(prep.gates, _ZERO_AMPS[s.num_qubits])
    _check_norm(produced, "preparation round-trip", trace)
    fid = _overlap(s.w, produced)
    # written `not >=`, so that a NaN fails
    if not fid >= FID_MIN:
        raise SynthesisInvariantError(f"preparation round-trip fidelity {fid!r} below {FID_MIN!r}", trace)
    # inversion keeps the cz count and the realness of every gate
    return tuple.__new__(SynthesisReport, (prep, cz, all_real, trace, fid))
