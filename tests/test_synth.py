"""Synthesis correctness: CZ bounds, fidelity, branch behavior, real closure."""
import math
import re
from functools import partial

import numpy as np
import pytest

from _oracles import (
    cz_min,
    cz_unitary,
    dense_apply,
    local_unitary,
    pencil_singular_values,
    random_nonsingular,
    random_rank1,
    random_unitary2,
    scaled,
    w_under_locals,
)
from qprep3.circuit import Circuit, CZGate, LocalGate, apply_circuit, invert, ry_matrix
from qprep3.errors import NonSingularInputError, NotRealError, SynthesisInvariantError
from qprep3.mat2 import EPS_ZERO, FID_MIN, IDENTITY, STEP_TOL, Mat2, _pencil_root, u_from_pair
from qprep3.state import (
    PureState2,
    PureState3,
    basis_state,
    blocks,
    delta,
    overlap,
    random_state,
    random_state2,
)
from qprep3.synth import SynthesisReport, disentangle, disentangle2, disentangle3, disentangle3_real, prepare

FID = 1.0 - 1e-9
ISQ2 = 0.7071067811865476


def ghz() -> PureState3:
    return PureState3(np.array([1, 0, 0, 0, 0, 0, 0, 1]) / math.sqrt(2))


def near_000() -> PureState3:
    """|000> + 1e-8 * complex Gaussian noise, renormalized."""
    rng = np.random.default_rng(0)
    v = np.zeros(8, dtype=np.complex128)
    v[0] = 1.0
    v = v + 1e-8 * (rng.standard_normal(8) + 1j * rng.standard_normal(8))
    return PureState3(v / np.linalg.norm(v))


def delta_negative_vector() -> PureState3:
    return PureState3(np.array([1, 0, 0, -1, 0, 1, 1, 0]) / 2.0)


def _flow_only(s: PureState3, real: bool = False, m=None):
    """s through the flow as the only attempt, or through the finisher on
    qubit m when m is given. The route runs the chain prefix and the
    near-gap finishers beside the flow wherever it runs the flow, and they
    pass where a fault injected into the flow alone fails it."""
    from qprep3.synth import _OUTER, _finish_chain, _run3, _synthesize

    run = _run3 if m is None else lambda b: _finish_chain(b, m, _OUTER[m])
    return _synthesize([z.real for z in s.w] if real else s.w, real, (run,), 3)


def product2(seed) -> PureState2:
    rng = np.random.default_rng(seed)
    a = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    b = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    return PureState2(np.kron(a / np.linalg.norm(a), b / np.linalg.norm(b)))


class TestDisentangle2:
    def test_basis_state(self):
        rep = disentangle2(basis_state(2, 0))
        assert rep.cz_count == 0
        assert rep.fidelity >= 1 - 1e-12
        assert rep.circuit.gates == ()

    def test_bell(self):
        bell = PureState2(np.array([1, 0, 0, 1]) / math.sqrt(2))
        rep = disentangle2(bell)
        assert rep.cz_count == 1
        assert rep.fidelity >= 1 - 1e-12
        assert rep.branch_trace == ("chain1", "cz01")

    def test_plus_times_one(self):
        # (|0>+|1>)/sqrt(2) x |1>: singular amplitude matrix, no CZ needed
        s = PureState2(np.array([0, 1, 0, 1]) / math.sqrt(2))
        rep = disentangle2(s)
        assert rep.cz_count == 0
        assert rep.fidelity >= 1 - 1e-12
        assert rep.branch_trace == ("chain1", "skip-cz01")

    def test_random_entangled_exactly_one_cz(self):
        for i in range(500):
            s = random_state2((701, i))
            rep = disentangle2(s)
            assert rep.cz_count == 1
            assert rep.fidelity >= 1 - 1e-10

    def test_random_products_zero_cz(self):
        for i in range(300):
            rep = disentangle2(product2((702, i)))
            assert rep.cz_count == 0
            assert rep.fidelity >= 1 - 1e-10

    def test_real_input_gives_real_gates(self):
        for i in range(200):
            rep = disentangle2(random_state2((703, i), real_only=True))
            assert rep.all_real
            assert rep.circuit.max_local_imag() <= 1e-12


class TestDisentangle3:
    def test_basis_state(self):
        rep = disentangle3(basis_state(3, 0))
        assert rep.cz_count == 0
        assert rep.fidelity >= 1 - 1e-12

    def test_ghz(self):
        rep = disentangle3(ghz())
        assert rep.cz_count <= 3
        assert rep.fidelity >= 1 - 1e-10
        assert len(rep.branch_trace) > 0

    def test_random_sweep(self):
        worst = 1.0
        for i in range(1500):
            rep = disentangle3(random_state((711, i)))
            assert rep.cz_count <= 3
            worst = min(worst, rep.fidelity)
        assert worst >= FID

    def test_final_state_matches_dense_oracle(self):
        # the reported fidelity comes from the builder's tracked amplitudes: it
        # equals a fresh simulation of the circuit exactly, in every mode
        cases = [(disentangle3, random_state((712, i))) for i in range(150)]
        cases += [(disentangle3_real, random_state((713, i), real_only=True)) for i in range(150)]
        cases += [(disentangle2, random_state2((714, i))) for i in range(150)]
        for synth, s in cases:
            rep = synth(s)
            final = dense_apply(rep.circuit, s.amps)
            block_final = apply_circuit(rep.circuit, s)
            assert np.max(np.abs(final - block_final.amps)) <= 1e-12
            assert abs(abs(final[0]) - rep.fidelity) <= 1e-12
            assert rep.fidelity == abs(block_final.w[0])

    def test_rejects_bad_norm(self):
        from qprep3.errors import NotNormalizedError

        with pytest.raises(NotNormalizedError):
            disentangle3(PureState3(np.ones(8)))


class TestBranchReductions:
    def test_one_tensor_two_qubit_needs_one_cz(self):
        # |1> x (entangled 2-qubit): top block is zero after step 1
        for i in range(100):
            pair = random_state2((721, i))
            amps = np.concatenate([np.zeros(4), pair.amps])
            rep = disentangle3(PureState3(amps))
            assert rep.cz_count <= 1
            assert "A1=0" in rep.branch_trace
            assert rep.fidelity >= FID

    def test_zero_tensor_two_qubit_needs_one_cz(self):
        for i in range(100):
            pair = random_state2((722, i))
            amps = np.concatenate([pair.amps, np.zeros(4)])
            rep = disentangle3(PureState3(amps))
            assert rep.cz_count <= 1
            assert "detB0=0" in rep.branch_trace
            assert rep.fidelity >= FID

    def test_zero_tensor_two_qubit_emits_nothing_on_qubit_2(self):
        # the two block swaps of detB0=0 > A1=0 multiply to -I, a global phase
        for i in range(50):
            pair = random_state2((727, i))
            rep = disentangle3(PureState3(np.concatenate([pair.amps, np.zeros(4)])))
            assert rep.branch_trace[:2] == ("detB0=0", "A1=0")
            assert [g for g in rep.circuit.gates if isinstance(g, LocalGate) and g.qubit == 2] == []
            assert len(rep.circuit.gates) <= 4

    def test_both_blocks_singular_skips_step4(self):
        # rank-1 blocks make a chain with qubit 2 in the middle, which the
        # finisher on qubit 2 ends with 2 CZ in fewer gates than the flow.
        # When they share a row (qubit 1 factors out), the flow skips step 4:
        # step 2 leaves both blocks singular. The forms of qubits 0 and 2 are
        # then zero, and the finisher on qubit 0 ends it with 1 CZ and 5
        # gates, one gate fewer than the flow
        rng = np.random.default_rng(723)
        for i in range(100):
            a = random_rank1(rng)
            rep = disentangle3(_normalized_state(a, random_rank1(rng)))
            assert rep.branch_trace[0] == "chain2"
            assert rep.cz_count == 2
            assert rep.fidelity >= FID
            s = _normalized_state(a, a @ random_nonsingular(rng))
            rep = disentangle3(s)
            assert rep.branch_trace[:2] == ("chain0", "skip-cz01")
            assert (rep.cz_count, len(rep.circuit.gates)) == (1, 5)
            assert rep.fidelity >= FID
            rep = _flow_only(s)
            assert "skip-step4" in rep.branch_trace
            assert (rep.cz_count, len(rep.circuit.gates)) == (1, 6)

    def test_real_opposite_determinants_skip_step4(self):
        # det(A0) = -det(B0) != 0 makes the two pencil roots z and -1/z, so the
        # bottom block turns singular together with the top one: a real
        # traceless pencil form, a chain with qubit 2 in the middle. The flow
        # and the finisher on qubit 2 both give it 2 CZ, and the flow, the
        # earlier attempt, is kept where their gate counts tie. The flow
        # alone skips step 4 on it
        rng = np.random.default_rng(724)
        hits = 0
        for _ in range(100):
            a = random_nonsingular(rng, real=True)
            b0 = random_nonsingular(rng, real=True)
            if b0.det().real * a.det().real > 0:
                b0 = Mat2(b0.a, b0.b, -b0.c, -b0.d)
            scale = math.sqrt(abs(a.det().real) / abs(b0.det().real))
            s = _normalized_state(a, scaled(b0, scale))
            rep = disentangle3(s)
            assert rep.branch_trace[0] == "pencil"
            assert rep.cz_count == 2
            assert rep.fidelity >= FID
            rep = _flow_only(s)
            if "skip-step4" in rep.branch_trace:
                hits += 1
            assert rep.cz_count <= 2
        assert hits >= 95  # rare tie-breaks may pick the other root

    def test_corner_block_with_zero_off_column_skips_step5(self):
        # both blocks of qubit 1 are singular: a chain with qubit 1 in the
        # middle. The flow reaches it after step 4 with one factor of qubit 0
        # in both blocks, so the finisher spends no cz02 on it (step 5 of the
        # paper's flow), and it ties with the finisher on qubit 1 and is
        # kept. So the flow does when qubit 0 factors out of the input, where
        # the finisher on qubit 1 skips cz01 instead, in one gate fewer
        rng = np.random.default_rng(725)
        for i in range(100):
            alpha = complex(rng.standard_normal() + 1j * rng.standard_normal())
            b11, b21, b22 = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            a = Mat2(alpha, 0, 0, 0)
            b = Mat2(complex(b11), 0, complex(b21), complex(b22))
            if abs(b.det()) < 0.05:
                continue
            s = _normalized_state(a, b)
            rep = disentangle3(s)
            assert rep.branch_trace[:3] == ("pencil", "step4", "chain2")
            assert "skip-cz02" in rep.branch_trace
            assert rep.cz_count == 2
            assert rep.fidelity >= FID
            a = random_rank1(rng)
            s = _normalized_state(a, random_nonsingular(rng) @ a)
            assert "skip-cz02" in _flow_only(s).branch_trace
            rep = disentangle3(s)
            assert rep.branch_trace[:2] == ("chain1", "skip-cz01")
            assert rep.cz_count == 1
            assert rep.fidelity >= FID

    @pytest.mark.parametrize(
        "synth, v",
        [
            # a generic state takes the chain prefix alone in both modes;
            # this one's singular top block runs the flow beside it, the
            # flow wins (9 gates), and its step-4 gate is -I in both
            (disentangle3, [0.5, 0, 0.5, 0, 0, 0.5, 0.5, 0]),
            (disentangle3_real, [0.5, 0, 0.5, 0, 0, 0.5, 0.5, 0]),
        ],
        ids=["general", "real"],
    )
    def test_step4_gate_of_minus_identity(self, synth, v):
        # with the paper's step 3 (R3 on qubit 0) before it, step 4's gate was
        # -I here and fused into R3, and dropping its dagger negated the
        # tracked state; the tracked state now follows the gates as asked,
        # and the top-block check is strict
        v = np.array(v)
        rep = synth(PureState3(v))
        assert "step4" in rep.branch_trace
        assert rep.cz_count == cz_min(v) == 3
        assert abs(dense_apply(rep.circuit, v)[0]) >= FID

    def test_synthesis_never_calls_r3(self, monkeypatch):
        # the finisher needs the top block only as a product, which step 2
        # leaves, so the paper's step 3 (R3, squeezing it to its corner) is
        # never taken
        import qprep3.mat2 as mat2_module
        import qprep3.synth as synth_module

        def refuse(*_):
            raise AssertionError("synthesis called r3")

        monkeypatch.setattr(mat2_module, "r3", refuse)
        monkeypatch.setattr(synth_module, "r3", refuse, raising=False)
        # real locals, CZ(0, 1), real locals, on |000>
        rng = np.random.default_rng(727)
        one_cz = np.eye(8)[0]
        for gates in ([], [cz_unitary(3, 0, 1)]):
            for g in gates + [local_unitary(3, q, random_unitary2(rng, True)) for q in range(3)]:
                one_cz = g @ one_cz
        fixed = [
            np.array([-0.5, 0, 0, 0.5, 0.5, -0.5, 0, 0]),
            ghz().amps,
            np.array([0, 1, 1, 0, 1, 0, 0, 0]) / math.sqrt(3),
            basis_state(3, 0).amps,
            one_cz,
        ]
        real = [s.amps for s in (random_state((727, i), real_only=True) for i in range(20)) if delta(s) >= 0.0]
        assert len(real) >= 5
        runs = [(disentangle3, random_state((728, i)).amps) for i in range(10)]
        runs += [(synth, v) for v in fixed + real for synth in (disentangle3, disentangle3_real)]
        for synth, v in runs:
            v = np.asarray(v, dtype=np.complex128)
            rep = synth(PureState3(v))
            assert abs(dense_apply(rep.circuit, v)[0]) >= FID
            if synth is disentangle3:
                assert rep.cz_count <= cz_min(v)

    def test_product_final_stage_label(self):
        # (2-qubit product) x (1 qubit): no CZ at all, the finisher skips both
        for i in range(50):
            rng = np.random.default_rng((726, i))
            singles = []
            for _ in range(3):
                v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
                singles.append(v / np.linalg.norm(v))
            amps = np.kron(np.kron(singles[0], singles[1]), singles[2])
            rep = disentangle3(PureState3(amps))
            assert rep.cz_count == 0
            assert rep.fidelity >= FID


def _normalized_state(a: Mat2, b: Mat2) -> PureState3:
    amps = np.array(tuple(a) + tuple(b), dtype=np.complex128)
    return PureState3(amps / np.linalg.norm(amps))


class TestDisentangle3Real:
    def test_basis_state(self):
        rep = disentangle3_real(basis_state(3, 0))
        assert rep.cz_count == 0
        assert rep.all_real

    def test_delta_negative_vector(self):
        s = delta_negative_vector()
        assert delta(s) == -0.25
        rep = disentangle3_real(s)
        assert rep.cz_count <= 3
        assert rep.all_real
        assert rep.branch_trace[0] == "chain01"
        assert rep.fidelity >= FID

    def test_complex_input_rejected(self):
        amps = np.zeros(8, dtype=complex)
        amps[1] = 1j
        with pytest.raises(NotRealError):
            disentangle3_real(PureState3(amps))

    def test_random_sweep_bounds_and_realness(self):
        for i in range(1500):
            s = random_state((731, i), real_only=True)
            rep = disentangle3_real(s)
            assert rep.cz_count <= 3
            assert rep.fidelity >= FID
            assert rep.circuit.max_local_imag() <= 1e-10

    def test_delta_branch_soundness(self):
        # the chain prefix real mode runs for either sign of delta: after its
        # real gate on qubit 1 and cz01, the pencil form of the qubit-1 split
        # (A on indices 0, 1, 4, 5, B on 2, 3, 6, 7) is traceless, so qubit 1
        # is a chain middle, by the dense oracle
        from qprep3.synth import _chain_form

        signs = {True: 0, False: 0}
        for i in range(2000):
            s = random_state((733, i), real_only=True)
            signs[delta(s) < 0.0] += 1
            gate = u_from_pair(1.0, _pencil_root(*_chain_form([z.real for z in s.w])).real)
            v = cz_unitary(3, 0, 1) @ local_unitary(3, 1, gate) @ s.amps
            a, b = v[[0, 1, 4, 5]].reshape(2, 2), v[[2, 3, 6, 7]].reshape(2, 2)
            assert abs(np.linalg.det(a) + np.linalg.det(b)) <= 1e-14
            assert 1 in _oracle_chain_middles(v)[0]
        assert min(signs.values()) >= 200


@pytest.mark.parametrize(
    "synth, state, msg",
    [
        (disentangle2, random_state(1), "disentangle2 needs a state of 4 amplitudes, got 8"),
        (disentangle3, random_state2(1), "disentangle3 needs a state of 8 amplitudes, got 4"),
        (disentangle3_real, random_state2(1, real_only=True), "disentangle3_real needs a state of 8 amplitudes, got 4"),
    ],
    ids=["2-given-3", "3-given-2", "3-real-given-2"],
)
def test_wrong_size_input_raises_value_error(synth, state, msg):
    # as overlap does for states of two sizes: a synthesizer handed a state
    # of the other size raises ValueError before it builds a gate
    with pytest.raises(ValueError, match="^" + re.escape(msg) + "$"):
        synth(state)


def _complex_entries(circuit) -> list:
    return [e for g in circuit.gates if isinstance(g, LocalGate) for e in g.matrix if isinstance(e, complex)]


class TestRealModeFloats:
    """Real mode computes on its input's real parts, in floats; the dense
    oracle of tests/_oracles.py checks every circuit."""

    @staticmethod
    def _exactly_real_inputs():
        w = PureState3(np.array([0, 1, 1, 0, 1, 0, 0, 0]) / math.sqrt(3))
        named = [ghz(), w, delta_negative_vector(), _real_delta_negative(767), basis_state(3, 5)]
        return named + [random_state((733, i), real_only=True) for i in range(300)]

    @pytest.mark.parametrize("prep", [False, True], ids=["disentangle", "prepare"])
    def test_exactly_real_input_gets_no_complex_entry(self, prep):
        signs = set()
        for s in self._exactly_real_inputs():
            signs.add(delta(s) >= 0.0)
            rep = prepare(s, "real") if prep else disentangle3_real(s)
            assert not _complex_entries(rep.circuit)
            if prep:
                fid = abs(np.vdot(s.amps, dense_apply(rep.circuit, basis_state(3, 0).amps)))
            else:
                fid = abs(dense_apply(rep.circuit, s.amps)[0])
            assert fid >= 1.0 - 1e-12
        assert signs == {True, False}

    def test_exactly_real_two_qubit_input_gets_no_complex_entry(self):
        for i in range(100):
            s = random_state2((735, i), real_only=True)
            rep = prepare(s, "real")
            assert not _complex_entries(rep.circuit)
            assert abs(np.vdot(s.amps, dense_apply(rep.circuit, basis_state(2, 0).amps))) >= 1.0 - 1e-12

    def test_tiny_imaginary_part_is_dropped(self):
        # 1e-13 is within REAL_STATE_TOL, so the input is real: real mode
        # tracks its real parts as floats, its gates are real, and the
        # fidelity it reports is the oracle's on the input itself to within
        # rounding (dropping the imaginary part moves it by at most 4e-24)
        from qprep3.synth import _amps

        for i in range(100):
            v = random_state((734, i), real_only=True).amps.copy()
            v[i % 8] += 1e-13j
            s = PureState3(v)
            w = _amps(s, 8, True, "real mode")
            assert w == [z.real for z in s.w] and {type(x) for x in w} == {float}
            rep = disentangle3_real(s)
            assert rep.all_real and not _complex_entries(rep.circuit)
            assert abs(rep.fidelity - abs(dense_apply(rep.circuit, s.amps)[0])) <= 1e-15

    # Bell and GHZ with 1e-17 imaginary on |01> and on |110>: a phase taken
    # from that noise once made an O(1) imaginary gate entry, and both runs
    # failed
    NEAR_REAL = {
        "bell": ((ISQ2, 1e-17j, 0, ISQ2), 1, ("chain1", "cz01")),
        "ghz": ((ISQ2, 0, 0, 0, 0, 0, 1e-17j, ISQ2), 2, ("chain0", "cz01", "cz02")),
    }

    @pytest.mark.parametrize("prep", [False, True], ids=["disentangle", "prepare"])
    @pytest.mark.parametrize("name", NEAR_REAL)
    def test_near_real_input_gets_its_real_circuit(self, name, prep):
        amps, cz, trace = self.NEAR_REAL[name]
        s = (PureState3 if len(amps) == 8 else PureState2)(amps)
        exact = (PureState3 if len(amps) == 8 else PureState2)([z.real for z in amps])
        rep = (prepare if prep else disentangle)(s, "real")
        assert (rep.cz_count, rep.all_real, rep.branch_trace) == (cz, True, trace)
        assert not _complex_entries(rep.circuit)
        assert rep.circuit == (prepare if prep else disentangle)(exact, "real").circuit
        zero = basis_state(s.num_qubits, 0).amps
        fid = abs(np.vdot(s.amps, dense_apply(rep.circuit, zero))) if prep else abs(dense_apply(rep.circuit, s.amps)[0])
        assert fid >= FID_MIN


class TestRunner:
    """_synthesize's rule on fake runs: of the passing attempts, the fewest
    (CZ, gates), the earlier on ties; when none passes, the first attempt's
    error, with that attempt's trace."""

    # a diagonal gate moves no amplitude off |000>, so a run of them passes
    RZ = Mat2(1j, 0, 0, -1j)
    W = basis_state(3, 0).w

    @staticmethod
    def _run(label, *steps):
        def run(b):
            b.trace.append(label)
            for step in steps:
                if step == "cz":
                    b.cz(0, 1)
                else:
                    b.local(step, TestRunner.RZ)

        return run

    @staticmethod
    def _fail(label):
        def run(b):
            b.trace.append(label)
            raise SynthesisInvariantError(label)

        return run

    def _synthesize(self, *runs, max_cz=3):
        from qprep3.synth import _synthesize

        return _synthesize(self.W, False, runs, max_cz)

    def test_tie_keeps_the_earlier_attempt(self):
        for first, second in (("a", "b"), ("b", "a")):
            rep = self._synthesize(self._run(first, 0, 1), self._run(second, 1, 2))
            assert (rep.cz_count, len(rep.circuit.gates)) == (0, 2)
            assert rep.branch_trace == (first,)

    def test_fewer_cz_beats_fewer_gates(self):
        one_cz = self._run("one-cz", "cz")
        no_cz = self._run("no-cz", 0, 1, 2)
        for runs in ((one_cz, no_cz), (no_cz, one_cz)):
            rep = self._synthesize(*runs)
            assert rep.branch_trace == ("no-cz",)
            assert (rep.cz_count, len(rep.circuit.gates)) == (0, 3)
        # with equal CZ, fewer gates
        rep = self._synthesize(self._run("long", "cz", 0, 1), self._run("short", "cz", 2))
        assert rep.branch_trace == ("short",)

    def test_failing_attempt_is_skipped(self):
        # one raises in its run, one fails finish's CZ bound
        over = self._run("over", "cz", "cz")
        rep = self._synthesize(self._fail("raises"), over, self._run("passes", 0, 1, 2), max_cz=1)
        assert rep.branch_trace == ("passes",)

    def test_all_failing_raises_the_first_error_with_its_trace(self):
        over = self._run("over", "cz", "cz")
        with pytest.raises(SynthesisInvariantError, match="^first$") as info:
            self._synthesize(self._fail("first"), over, max_cz=1)
        assert info.value.branch_trace == ["first"]
        # a first attempt that fails finish's bound
        with pytest.raises(SynthesisInvariantError, match="^cz count 2 exceeds 1$") as info:
            self._synthesize(over, self._fail("second"), max_cz=1)
        assert info.value.branch_trace == ["over"]


class TestAttemptsInOrder:
    def test_chain_prefix_gives_3_cz(self):
        s = _real_delta_negative(767)
        rep = disentangle3_real(s)
        assert rep.branch_trace[0] == "chain01"
        assert rep.cz_count == 3
        assert abs(dense_apply(rep.circuit, s.amps)[0]) >= FID

    def test_failed_chain_attempt_raises_with_its_trace(self, tmp_path, capsys, monkeypatch):
        # a finisher check that fails on the chain attempt only: no other
        # attempt follows it, so the run raises with the chain attempt's
        # trace, and the CLI exits 3 with the replay block
        import qprep3.synth as synth
        from qprep3.cli import main

        real_finish = synth._finish_chain

        def failing_after_chain(b, m, outer):
            if "chain01" in b.trace:
                raise SynthesisInvariantError("step1: chain attempt rejected")
            real_finish(b, m, outer)

        monkeypatch.setattr(synth, "_finish_chain", failing_after_chain)
        s = _real_delta_negative(767)
        with pytest.raises(SynthesisInvariantError, match="chain attempt rejected") as info:
            disentangle3_real(s)
        assert info.value.branch_trace == ["chain01"]

        path = tmp_path / "chain.txt"
        path.write_text("".join("%.17g %.17g\n" % (z.real, z.imag) for z in s.w), encoding="utf-8")
        code = main(["synth", str(path), "--real"])
        out, err = capsys.readouterr()
        assert code == 3 and out == ""
        lines = err.splitlines()
        assert lines[0] == "error: SynthesisInvariantError: step1: chain attempt rejected"
        assert lines[1] == "branch trace: chain01"
        assert lines[2] == "# state as synthesized, after renormalization:"
        assert len(lines) == 11 and "Traceback" not in err

    def test_nearly_singular_blocks_take_the_block_swap(self):
        # A0 and B0 both nearly singular (sigma_min ~1e-9): at EPS_ZERO, B0
        # counts as singular, so step 1 swaps the blocks instead of solving a
        # pencil whose roots leave a top block at the edge of the step check
        s = PureState3([
            -0.14714077719622812, -0.10027606107249772, 0.2346012214412414, 0.15988011888864345,
            0.41368065665392906, 0.2819222890068567, -0.6595723295666372, -0.4494968265581563,
        ])
        for synth in (disentangle3, disentangle3_real):
            rep = synth(s)
            assert "detB0=0" in rep.branch_trace
            assert rep.cz_count <= cz_min(s.amps)
            assert abs(dense_apply(rep.circuit, s.amps)[0]) >= FID

    @staticmethod
    def _clamps_like_the_real_root(monkeypatch, s, *before, synth=disentangle3_real):
        """A pencil root r + 0.5i, r the true root, must give s the unpatched
        circuit of `synth`, with `pencil-root-clamped` after each label in
        `before`."""
        import qprep3.synth as synth_module

        want = synth(s)
        real_root = synth_module._pencil_root

        def conjugate_pair(q2, q1, q0):
            return complex(real_root(q2, q1, q0).real, 0.5)

        monkeypatch.setattr(synth_module, "_pencil_root", conjugate_pair)
        rep = synth(s)
        trace = []
        for label in want.branch_trace:
            trace += [label, "pencil-root-clamped"] if label in before else [label]
        assert rep.branch_trace == tuple(trace)
        assert rep.circuit == want.circuit
        assert rep.fidelity == want.fidelity

    def test_conjugate_pencil_roots_are_clamped_to_their_real_part(self, monkeypatch):
        # real mode with no real pencil root (a slightly negative discriminant)
        # takes the pair's shared real part. |000> plus real noise of size
        # 1e-3 has delta ~ 1e-6: the step 1 of the flow, run as the only
        # attempt, is patched. On a chain with qubit 2 in the middle the flow
        # ties with the finisher on qubit 2 and is kept; that finisher, run
        # as the only attempt, has its step 1 patched
        rng = np.random.default_rng(768)
        v = np.eye(8)[0] + 1e-3 * rng.standard_normal(8)
        s = PureState3(v / np.linalg.norm(v))
        assert 0.0 < delta(s) <= 1e-5
        assert _flow_only(s, real=True).branch_trace[0] == "pencil"
        self._clamps_like_the_real_root(monkeypatch, s, "pencil", synth=lambda t: _flow_only(t, real=True))
        monkeypatch.undo()
        s = _chain(768, True, m=2)
        rep = disentangle3_real(s)
        assert (rep.cz_count, rep.branch_trace[0]) == (2, "pencil")
        self._clamps_like_the_real_root(monkeypatch, s, "pencil")
        monkeypatch.undo()
        chain2 = _flow_only(s, real=True, m=2)
        assert (chain2.cz_count, len(chain2.circuit.gates)) == (2, len(rep.circuit.gates))
        self._clamps_like_the_real_root(monkeypatch, s, "chain2", synth=lambda t: _flow_only(t, real=True, m=2))

    def test_chain_prefix_root_is_clamped_to_its_real_part(self, monkeypatch):
        # a generic delta >= 0 state takes the chain prefix: its own gate and
        # the finisher's step 1 on qubit 1 each take the patched root
        s = next(t for t in (random_state((764, i), real_only=True) for i in range(100)) if delta(t) >= 0.0)
        assert disentangle3_real(s).branch_trace[:2] == ("chain01", "chain1")
        self._clamps_like_the_real_root(monkeypatch, s, "chain01", "chain1")


def _chain(seed, real, m=0) -> PureState3:
    """Locals, a CZ from qubit m to each other qubit, then locals, on |000>:
    a chain with qubit m in the middle, applied as dense matrices."""
    rng = np.random.default_rng(seed)
    v = np.zeros(8, dtype=np.complex128)
    v[0] = 1.0
    for layer in range(2):
        for q in range(3):
            v = local_unitary(3, q, random_unitary2(rng, real)) @ v
        if layer == 0:
            for x in (0, 1, 2):
                if x != m:
                    v = cz_unitary(3, *sorted((m, x))) @ v
    return PureState3(v)


# the oracle's chain test: a relative gap this small is a chain middle.
# Chain middles measure <= 1e-14, Haar-random states >= 5.8e-5
CHAIN_GAP_TOL = 1e-9


def _oracle_chain_middles(v) -> tuple[list[int], list[float]]:
    """The chain middles of 8 amplitudes by numpy alone, and each qubit's
    squared relative gap ((s0^2 - s1^2) / (s0^2 + s1^2))^2 between the
    singular values s0 >= s1 of its pencil form S_q = [[det A, c/2], [c/2,
    det B]], det(xA + yB) = det(A) x^2 + c xy + det(B) y^2 (inf for a form
    of norm at most EPS_ZERO, which is no chain)."""
    middles, gaps = [], []
    for q in range(3):
        s0, s1 = pencil_singular_values(v, q)
        n2 = s0 * s0 + s1 * s1
        gaps.append(((s0 * s0 - s1 * s1) / n2) ** 2 if n2 > EPS_ZERO * EPS_ZERO else math.inf)
        if gaps[-1] <= CHAIN_GAP_TOL:
            middles.append(q)
    return middles, gaps


def _built_chain(rng, m: int, real: bool) -> np.ndarray:
    """|u>P + |u_perp>Q on qubit m, P and Q random products on the other two
    qubits, with random weights, built by kron products alone."""
    u = np.array(random_unitary2(rng, real)).reshape(2, 2)
    v = np.zeros(8, dtype=np.complex128)
    for col in (0, 1):
        wires = [rng.standard_normal(2) + (0 if real else 1j) * rng.standard_normal(2) for _ in range(3)]
        wires = [x / np.linalg.norm(x) for x in wires]
        wires[m] = u[:, col]
        v += rng.uniform(0.2, 1.0) * np.kron(wires[2], np.kron(wires[1], wires[0]))
    return v / np.linalg.norm(v)


class TestChainScreen:
    """synth._screen against singular values from np.linalg.svd."""

    def test_matches_the_svd_oracle(self):
        from qprep3.synth import _screen

        rng = np.random.default_rng(771)
        w_state = np.array([0, 1, 1, 0, 1, 0, 0, 0]) / math.sqrt(3.0)
        inputs = [("ghz", ghz().amps), ("w", w_state), ("000", basis_state(3, 0).amps)]
        inputs += [("haar", random_state((771, i)).amps) for i in range(500)]
        for m in (0, 1, 2):
            inputs += [(f"chain{m}", _built_chain(rng, m, real)) for real in (False, True) for _ in range(50)]
        seen, near = set(), 0
        for name, v in inputs:
            middles, _ = _oracle_chain_middles(v)
            forms = [pencil_singular_values(v, q) for q in range(3)]
            gaps = [s0 - s1 for s0, s1 in forms]
            # near degenerate: the smaller singular value, or the gap between
            # the two, is at most STEP_TOL on some split
            margin = min(min(s1, s0 - s1) for s0, s1 in forms)
            # the flag's decision is at least 10x away from the tolerance, and
            # so is each gap's but one (a built chain's qubit 0 measures
            # 9.7e-6), which is not compared: rounding may take it either way
            assert margin <= STEP_TOL / 10 or margin >= STEP_TOL * 10, (name, margin)
            far = [q for q in range(3) if not STEP_TOL / 10 < gaps[q] < STEP_TOL * 10]
            near += 3 - len(far)
            got, flagged = _screen(PureState3(v).w)
            assert [q for q in got if q in far] == [q for q in far if gaps[q] <= STEP_TOL], (name, gaps)
            assert flagged == (margin <= STEP_TOL), (name, margin)
            # every chain middle gets a finisher attempt
            assert set(middles) <= set(got), (name, middles, got)
            if name.startswith("chain"):
                assert int(name[-1]) in got
            seen.add((name[:5], flagged))
            seen.add((name[:5], tuple(got)))
        assert near <= 1
        assert {("ghz", (0, 1, 2)), ("w", ()), ("000", (0, 1, 2)), ("haar", ())} <= seen
        # every chain is near degenerate, as are GHZ, W (a double root) and
        # |000> (every form 0); a Haar state is not
        assert {("ghz", True), ("w", True), ("000", True), ("haar", False), ("chain", True)} <= seen
        assert ("haar", True) not in seen and ("chain", False) not in seen


def _plan_halves(n: int, m: int, outer: tuple, x: int) -> list[list[tuple[int, int]]]:
    """Outer wire x's index pairs in m's half 0 and half 1, by brute force
    over every pair of indices: they differ in bit x alone, the first has
    bit x clear and bit m equal to the half, and every bit off m and outer
    is clear."""
    off = [y for y in range(n.bit_length() - 1) if y != m and y not in outer]
    return [
        [
            (k, l)
            for k in range(n)
            for l in range(n)
            if k ^ l == 1 << x and not k >> x & 1 and k >> m & 1 == h and not any(k >> y & 1 for y in off)
        ]
        for h in (0, 1)
    ]


class TestChainPlan:
    """synth._chain_plan, the finisher's cached constants, for the five keys
    synthesis uses: each named with an input whose run ends on that key."""

    RUNS = {
        (4, 1, (0,)): (disentangle2, lambda: random_state2((764, 1))),
        (8, 0, (1, 2)): (disentangle3, ghz),
        (8, 1, (0, 2)): (disentangle3, lambda: random_state((764, 0))),
        # a singular top block: the flow beats the chain prefix, 3 CZ and 9 gates
        (8, 2, (0, 1)): (disentangle3, lambda: PureState3([0.5, 0, 0.5, 0, 0, 0.5, 0.5, 0])),
        (8, 1, (0,)): (disentangle3, lambda: PureState3(np.concatenate([np.zeros(4), random_state2((764, 2)).amps]))),
    }

    @pytest.mark.parametrize("key", list(RUNS), ids=lambda k: f"{k[0]}-{k[1]}-{''.join(map(str, k[2]))}")
    def test_plan_matches_bit_masks_and_trace(self, key):
        from qprep3.synth import _chain_plan

        n, m, outer = key
        label, steps, wires = _chain_plan(*key)
        assert label == f"chain{m}" and wires == (m, *outer)
        assert [step[0] for step in steps] == list(outer)
        for x, i, j, cz, skip, half0, half1 in steps:
            assert (i, j) == (min(m, x), max(m, x))
            assert (cz, skip) == (f"cz{i}{j}", f"skip-cz{i}{j}")
            assert [list(half0), list(half1)] == _plan_halves(n, m, outer, x)
            assert len(half0) == len(half1) == 2 ** (len(outer) - 1)
        # the run's trace from the plan's label on: one cz or skip label per
        # step, in the plan's order
        synth, state = self.RUNS[key]
        trace = synth(state()).branch_trace
        tail = trace[trace.index(label) + 1:]
        assert len(tail) == len(steps)
        assert all(t in (step[3], step[4]) for t, step in zip(tail, steps))

    def test_synthesis_uses_five_keys(self):
        from qprep3.synth import _chain_plan

        for synth, state in self.RUNS.values():
            synth(state())
        for i in range(50):
            disentangle3_real(random_state((764, i), real_only=True))
            disentangle3(random_state((765, i)))
        assert _chain_plan.cache_info().currsize == 5


class TestRoute:
    """synth._route3, the one route of a 3-qubit input in both modes: the
    flow and the finisher on each near-gap qubit run beside the chain prefix
    only near a degenerate split form or on a singular top block, and the
    best is kept."""

    @staticmethod
    def _count_attempts(monkeypatch) -> list:
        """Patch synth._Builder to count its constructions, one per attempt."""
        import qprep3.synth as synth

        count = [0]

        class Counting(synth._Builder):
            def __init__(self, *args):
                count[0] += 1
                super().__init__(*args)

        monkeypatch.setattr(synth, "_Builder", Counting)
        return count

    @pytest.mark.parametrize("real", [False, True], ids=["general", "real"])
    def test_w_under_local_gates_gets_3_cz_and_10_gates(self, real):
        # delta = 0 puts W in the screen. The flow gives these 11 gates (all
        # 200 complex draws, 133 real ones) and the chain prefix 10, so the
        # prefix is kept where the flow does not give 10 too
        synth = disentangle3_real if real else disentangle3
        bad = []
        for seed in range(200):
            rep = synth(PureState3(w_under_locals(seed, real)))
            if (rep.cz_count, len(rep.circuit.gates)) != (3, 10):
                bad.append((seed, rep.cz_count, len(rep.circuit.gates), rep.branch_trace))
        assert bad == []

    @pytest.mark.parametrize("real", [False, True], ids=["general", "real"])
    def test_ties_go_to_the_flow(self, real):
        # W itself: the flow (a block swap first) and the prefix both give 3
        # CZ and 10 gates, and the flow, the earlier run, is kept
        s = PureState3(np.array([0, 1, 1, 0, 1, 0, 0, 0]) / math.sqrt(3.0))
        rep = disentangle3_real(s) if real else disentangle3(s)
        assert (rep.cz_count, len(rep.circuit.gates)) == (3, 10)
        assert rep.branch_trace == ("detB0=0", "step4", "chain2", "cz02", "cz12")
        from qprep3.synth import _chain01, _synthesize

        w = [z.real for z in s.w] if real else s.w
        alone = _synthesize(w, real, (_chain01,), 3)
        assert (alone.cz_count, len(alone.circuit.gates)) == (3, 10)
        assert "chain01" in alone.branch_trace

    @pytest.mark.parametrize("real", [False, True], ids=["general", "real"])
    def test_ghz_makes_five_attempts_and_keeps_chain0(self, monkeypatch, real):
        # every form of GHZ has a zero gap: the flow, the finisher on each
        # qubit and the prefix; the finisher on qubit 0, the first with 2 CZ
        # and the fewest gates, is kept
        count = self._count_attempts(monkeypatch)
        rep = disentangle3_real(ghz()) if real else disentangle3(ghz())
        assert rep.branch_trace[0] == "chain0" and count[0] == 5
        assert (rep.cz_count, len(rep.circuit.gates)) == (2, 7)

    def test_haar_states_make_one_attempt(self, monkeypatch):
        # the benchmark's inputs: the screen admits no complex Haar state and
        # almost no real one, so each runs the chain prefix alone
        count = self._count_attempts(monkeypatch)
        admitted = {False: 0, True: 0}
        for real, n, seed in ((False, 5000, 790), (True, 10000, 791)):
            synth = disentangle3_real if real else disentangle3
            for i in range(n):
                count[0] = 0
                synth(random_state((seed, i), real_only=real))
                admitted[real] += count[0] > 1
        assert admitted[False] == 0 and admitted[True] <= 10


def _qubit1_blocks(v) -> tuple[np.ndarray, np.ndarray]:
    """A and B of the qubit-1 split of 8 amplitudes: A on indices 0, 1, 4, 5,
    B on 2, 3, 6, 7, rows qubit 2 and columns qubit 0."""
    v = np.asarray(v)
    return v[[0, 1, 4, 5]].reshape(2, 2), v[[2, 3, 6, 7]].reshape(2, 2)


class TestChainPrefix:
    """The chain prefix: U(1, z) on qubit 1, z a root of the form K, then cz01."""

    @pytest.mark.parametrize("real", [False, True], ids=["general", "real"])
    def test_form_identities(self, real):
        # by numpy, after U(alpha, beta) on qubit 1 and cz01: q1 = d_ba - d_ab
        # whatever the gate, q0 = f(v) and q2 = -f(v_perp), and the chain
        # condition e q2 + conj(q0) = 0 is -e conj(v^T K v) = 0. The
        # package's form is (K11, 2 K01, K00); a real K is traceless
        from qprep3.synth import _chain_form

        rng = np.random.default_rng(781)
        for i in range(200):
            state = random_state((781, i), real_only=real)
            w = state.amps
            a, b = _qubit1_blocks(w)

            def det(x, y):
                return np.linalg.det(np.column_stack((x[:, 0], y[:, 1])))

            d_aa, d_bb, d_ab, d_ba = det(a, a), det(b, b), det(a, b), det(b, a)
            s, h = d_ab + d_ba, (d_ba - d_ab) / 2
            e = np.conj(h) / h
            k01 = -(np.conj(s) + e * s) / 2
            k = np.array([[np.conj(d_bb) - e * d_aa, k01], [k01, np.conj(d_aa) - e * d_bb]])
            assert np.allclose(_chain_form(list(state.w)), (k[1, 1], 2 * k[0, 1], k[0, 0]), rtol=0, atol=1e-14)
            if real:
                # real mode's float path keeps the form in floats
                assert abs(np.trace(k)) <= 1e-15
                assert all(type(q) is float for q in _chain_form([z.real for z in state.w]))

            def f(x, y):
                return d_aa * x * x + s * x * y + d_bb * y * y

            gate = random_unitary2(rng, real)
            alpha, beta = u_from_pair(gate.a, gate.b)[:2]
            v = cz_unitary(3, 0, 1) @ local_unitary(3, 1, u_from_pair(alpha, beta)) @ w
            a2, b2 = _qubit1_blocks(v)
            q0, q2 = np.linalg.det(a2), np.linalg.det(b2)
            q1 = np.linalg.det(a2 + b2) - q0 - q2
            vkv = np.array([alpha, beta]) @ k @ np.array([alpha, beta])
            assert abs(q1 - (d_ba - d_ab)) <= 1e-14
            assert abs(q0 - f(alpha, beta)) <= 1e-14
            assert abs(q2 + f(-np.conj(beta), np.conj(alpha))) <= 1e-14
            assert abs(e * q2 + np.conj(q0) + e * np.conj(vkv)) <= 1e-14

    @pytest.mark.parametrize("real", [False, True], ids=["general", "real"])
    def test_prefix_leaves_qubit_1_a_chain_middle(self, real):
        # the circuit's first two gates, the prefix, applied as dense
        # matrices: the two singular values of qubit 1's pencil form are then
        # equal, and the gate is a root of v^T K v = 0
        synth = disentangle3_real if real else disentangle3
        for i in range(300):
            s = random_state((782, i), real_only=real)
            rep = synth(s)
            assert rep.branch_trace[0] == "chain01"
            gate, cz = rep.circuit.gates[:2]
            assert (gate.qubit, cz) == (1, CZGate(0, 1))
            v = cz_unitary(3, 0, 1) @ local_unitary(3, 1, gate.matrix) @ s.amps
            s0, s1 = pencil_singular_values(v, 1)
            assert s0 >= 1e-3 and s0 - s1 <= 1e-13 * s0
            assert rep.all_real or not real

    @pytest.mark.parametrize("real", [False, True], ids=["general", "real"])
    def test_equal_mixed_determinants(self, real):
        # d_ab = d_ba makes h = 0, where e is 1: exactly, from the pattern
        # (a, 0, c, d, 0, a, f, c), whose d_ab = a c and d_ba = c a have the
        # same bits, and up to rounding, with w7 solved from the others.
        # Draws whose qubit-2 discriminant is near 0 take the flow, by design,
        # and are drawn again
        from qprep3.synth import _chain_form

        rng = np.random.default_rng(783)
        synth = disentangle3_real if real else disentangle3
        for n in range(40):
            disc = 0.0
            while abs(disc) < 1e-3:
                x = rng.standard_normal(8) + (0 if real else 1j) * rng.standard_normal(8)
                if n % 2 == 0:
                    x[[1, 4]] = 0.0
                    x[5], x[7] = x[0], x[2]
                else:
                    x[7] = (x[2] * x[5] - x[6] * x[1] + x[4] * x[3]) / x[0]
                x /= np.linalg.norm(x)
                q0, q2 = np.linalg.det(x[:4].reshape(2, 2)), np.linalg.det(x[4:].reshape(2, 2))
                q1 = np.linalg.det((x[:4] + x[4:]).reshape(2, 2)) - q0 - q2
                disc = q1 * q1 - 4.0 * q2 * q0
            s = PureState3(x)
            w = list(s.w)
            h = (w[2] * w[5] - w[6] * w[1]) - (w[0] * w[7] - w[4] * w[3])
            assert (h == 0) if n % 2 == 0 else abs(h) <= 1e-15
            form = _chain_form(w)
            assert all(np.isfinite(complex(q)) for q in form)
            rep = synth(s)
            assert rep.branch_trace[0] == "chain01"
            assert (rep.cz_count, len(rep.circuit.gates)) == (3, 10)
            v = cz_unitary(3, 0, 1) @ local_unitary(3, 1, rep.circuit.gates[0].matrix) @ s.amps
            s0, s1 = pencil_singular_values(v, 1)
            assert s0 - s1 <= 1e-12 * s0
            assert abs(dense_apply(rep.circuit, s.amps)[0]) >= FID


class TestMinimalCircuits:
    @pytest.mark.parametrize("real", [False, True], ids=["general", "real"])
    def test_qubit0_chain_gets_2_cz(self, real):
        # the flow alone gives these 3 CZ: it skips a stage only for a middle
        # on qubit 1 or 2, so the finisher ends them on qubit 0 by itself
        for seed in range(20):
            s = _chain((780, seed), real)
            assert cz_min(s.amps) == 2
            rep = disentangle3_real(s) if real else disentangle3(s)
            assert rep.cz_count == 2
            assert rep.branch_trace == ("chain0", "cz01", "cz02")
            assert rep.all_real or not real
            assert abs(dense_apply(rep.circuit, s.amps)[0]) >= FID

    def test_ghz_takes_the_qubit0_finisher(self):
        # GHZ is a chain with its middle on every qubit; the finisher on
        # qubit 0 gives it two bisectors, two CZ and one local per wire
        for synth in (disentangle3, disentangle3_real):
            rep = synth(ghz())
            assert rep.branch_trace[-3:] == ("chain0", "cz01", "cz02")
            assert (rep.cz_count, len(rep.circuit.gates)) == (2, 7)

    def test_shared_row_blocks_get_1_cz_in_5_gates(self):
        # the first shared-row state of acceptance criterion 6 (rng 1009):
        # qubit 1 factors out, and the forms of qubits 0 and 2 are zero. The
        # flow skips step 4 for 1 CZ in 6 gates; the finisher on qubit 0
        # skips cz01 and spends cz02, one bisector and one local per wire, 5
        # gates
        s = PureState3(np.array([
            complex(-0.0058303477130126893, 0.10353606254559945),
            complex(-0.083615638683584362, 0.25055903710674748),
            complex(0.085689446760305765, 0.086684923882527659),
            complex(0.1525894638048329, 0.27038906598683771),
            complex(0.21292588121115796, 0.16356287564942029),
            complex(0.23046959907260528, -0.46277447709744324),
            complex(0.31044377082839825, -0.056763416736437942),
            complex(-0.22190231400643293, -0.56570255496044253),
        ]))
        assert cz_min(s.amps) == 1
        flow = _flow_only(s)
        assert (flow.cz_count, len(flow.circuit.gates)) == (1, 6)
        rep = disentangle3(s)
        assert rep.branch_trace == ("chain0", "skip-cz01", "cz02")
        assert (rep.cz_count, len(rep.circuit.gates)) == (1, 5)
        assert abs(dense_apply(rep.circuit, s.amps)[0]) >= FID

    def test_rotated_product_has_one_gate_per_wire(self):
        rng = np.random.default_rng(781)
        v = np.zeros(8, dtype=np.complex128)
        v[0] = 1.0
        for q in range(3):
            v = local_unitary(3, q, random_unitary2(rng)) @ v
        rep = disentangle3(PureState3(v))
        assert rep.cz_count == 0
        assert sorted(g.qubit for g in rep.circuit.gates) == [0, 1, 2]
        assert abs(dense_apply(rep.circuit, v)[0]) >= FID

    @pytest.mark.parametrize("real", [False, True], ids=["general", "real"])
    def test_wire_within_eps_zero_of_zero_gets_no_gate(self, real):
        # the finisher's last step leaves a wire whose |1> amplitude is at
        # most EPS_ZERO as it is: here qubit 0's 1e-7, an infidelity of 1e-14
        near_000 = np.array([1.0, 1e-7, 0, 0, 0, 0, 0, 0])
        product = np.kron(np.kron([0.6, 0.8], np.array([1.0, 1.0]) / math.sqrt(2.0)), [1.0, 1e-7])
        for v, locals_on in ((near_000, []), (product, [1, 2])):
            v = v / np.linalg.norm(v)
            rep = (disentangle3_real if real else disentangle3)(PureState3(v))
            assert rep.cz_count == 0
            assert sorted(g.qubit for g in rep.circuit.gates) == locals_on
            assert rep.fidelity >= FID_MIN
            assert abs(dense_apply(rep.circuit, v)[0]) >= FID_MIN

    @pytest.mark.parametrize(
        "between, fused",
        [((), True), (("local", 1), True), (("cz", 1, 2), True), (("cz", 0, 1), False), (("cz", 0, 2), False)],
        ids=["adjacent", "local-on-1", "cz12", "cz01", "cz02"],
    )
    def test_builder_fuses_across_gates_on_other_wires(self, between, fused):
        from qprep3.synth import _Builder

        rng = np.random.default_rng(782)
        a, c = random_unitary2(rng), random_unitary2(rng)
        asked = [LocalGate(2, random_unitary2(rng)), LocalGate(0, a)]
        if between and between[0] == "local":
            asked.append(LocalGate(between[1], random_unitary2(rng)))
        elif between:
            asked.append(CZGate(between[1], between[2]))
        asked.append(LocalGate(0, c))
        # the state the asked gates map to |000>, so that `finish` passes
        s = apply_circuit(invert(Circuit(tuple(asked))), basis_state(3, 0))
        b = _Builder(s.w, False)
        for g in asked:
            b.local(*g) if isinstance(g, LocalGate) else b.cz(*g)
        on_0 = [g.matrix for g in b.gates if isinstance(g, LocalGate) and g.qubit == 0]
        assert on_0 == ([c @ a] if fused else [a, c])
        # the last gate is the new one (or the product), and each open index
        # still points at the last gate on its wire
        assert b.gates[-1].matrix == on_0[-1]
        assert b.fused == fused
        for q, k in enumerate(b.open):
            on_q = [i for i, g in enumerate(b.gates) if q in ((g.qubit,) if isinstance(g, LocalGate) else g)]
            assert k == (on_q[-1] if on_q and isinstance(b.gates[on_q[-1]], LocalGate) else -1)
        # the tracked amplitudes are the input after the gates as asked, bit
        # for bit; the report's fidelity is that of a fresh simulation of
        # the emitted circuit
        assert b.amps == list(apply_circuit(Circuit(tuple(asked)), s).w)
        rep = b.finish(3)
        assert rep.circuit.gates == tuple(b.gates)
        assert rep.fidelity == abs(apply_circuit(rep.circuit, s).w[0])


def _real_delta_negative(seed) -> PureState3:
    """The first seeded real state with delta well below zero."""
    return next(s for s in (random_state((seed, i), real_only=True) for i in range(100)) if delta(s) < -1e-3)


class TestPrepare:
    def test_basis_state_identity(self):
        rep = prepare(basis_state(3, 0))
        assert rep.cz_count == 0
        assert rep.fidelity >= 1 - 1e-12

    def test_ghz_round_trip(self):
        rep = prepare(ghz())
        out = apply_circuit(rep.circuit, basis_state(3, 0))
        assert abs(np.vdot(ghz().amps, out.amps)) >= 1 - 1e-10

    def test_real_mode_round_trip(self):
        rep = prepare(delta_negative_vector(), mode="real")
        assert rep.cz_count <= 3
        assert rep.all_real
        assert rep.fidelity >= FID

    def test_random_round_trips(self):
        for i in range(300):
            s = random_state((741, i))
            rep = prepare(s)
            out = apply_circuit(rep.circuit, basis_state(3, 0))
            assert abs(np.vdot(s.amps, out.amps)) >= FID
        for i in range(300):
            s = random_state((742, i), real_only=True)
            rep = prepare(s, mode="real")
            assert rep.all_real
            out = apply_circuit(rep.circuit, basis_state(3, 0))
            assert abs(np.vdot(s.amps, out.amps)) >= FID

    def test_cz_count_matches_disentangler(self):
        for i in range(100):
            s = random_state((743, i))
            assert prepare(s).cz_count == disentangle3(s).cz_count

    @pytest.mark.parametrize("mode", ["general", "real"])
    @pytest.mark.parametrize("make", [random_state, random_state2], ids=["3-qubit", "2-qubit"])
    def test_report_is_the_inverted_disentangler(self, make, mode):
        # every field of the report, by name, so a field written in the wrong
        # position fails
        for i in range(20):
            s = make((744, i), real_only=(mode == "real"))
            rep, dis = prepare(s, mode), disentangle(s, mode)
            assert type(rep) is SynthesisReport
            assert rep.cz_count == dis.cz_count and type(rep.cz_count) is int
            assert rep.all_real is dis.all_real
            assert rep.branch_trace == dis.branch_trace
            assert rep.circuit == invert(dis.circuit)
            assert rep.fidelity == overlap(s, apply_circuit(rep.circuit, basis_state(s.num_qubits, 0)))

    def test_two_qubit_input(self):
        s = random_state2(99)
        rep = prepare(s)
        out = apply_circuit(rep.circuit, basis_state(2, 0))
        assert abs(np.vdot(s.amps, out.amps)) >= FID

    def test_bad_mode(self):
        with pytest.raises(ValueError):
            prepare(ghz(), mode="fast")

    def test_real_mode_complex_input(self):
        amps = np.zeros(8, dtype=complex)
        amps[1] = 1j
        with pytest.raises(NotRealError):
            prepare(PureState3(amps), mode="real")


class TestStepInvariants:
    def test_intermediate_postconditions_along_the_run(self):
        # replay each synthesized prefix and re-check the stage postconditions
        for i in range(100):
            s = random_state((751, i))
            rep = disentangle3(s)
            trace = rep.branch_trace
            state = s
            seen_cz = 0
            for g in rep.circuit.gates:
                state = apply_circuit_one(g, state)
                if isinstance(g, CZGate):
                    seen_cz += 1
                if isinstance(g, LocalGate) and g.qubit == 2 and seen_cz == 0:
                    bp = blocks(state)
                    if "A1=0" not in trace:
                        assert abs(bp.t0.det()) <= 1e-9
            assert abs(abs(state.amps[0]) - rep.fidelity) <= 1e-12

    @pytest.mark.parametrize(
        "synth, state",
        [
            (disentangle3, random_state((761, 0))),
            (disentangle3_real, random_state((761, 1), real_only=True)),
            (disentangle2, random_state2((761, 2))),
        ],
        ids=["disentangle3", "disentangle3_real", "disentangle2"],
    )
    def test_final_fidelity_check_fires(self, monkeypatch, synth, state):
        monkeypatch.setattr("qprep3.synth.FID_MIN", 1.5)
        with pytest.raises(SynthesisInvariantError, match=r"^final fidelity .* below 1\.5$") as info:
            synth(state)
        assert info.value.branch_trace

    @staticmethod
    def _pad_stage(monkeypatch, *extra):
        """Make the chain finisher append `extra` gates, given on its wires
        (0 the middle, then the outer wires in order), right after its own
        checks."""
        import qprep3.synth as synth

        real_finish = synth._finish_chain

        def padded(b, m, outer):
            real_finish(b, m, outer)
            wires = (m, *outer)
            for g in extra:
                if isinstance(g, LocalGate):
                    b.local(wires[g.qubit], g.matrix)
                else:
                    b.cz(*sorted((wires[g.i], wires[g.j])))

        monkeypatch.setattr(synth, "_finish_chain", padded)

    def test_cz_bound_check_fires(self, monkeypatch):
        # two cz01 cancel on the pair, so only the count goes wrong: a
        # 2-qubit result is held to 1 CZ
        self._pad_stage(monkeypatch, CZGate(0, 1), CZGate(0, 1))
        with pytest.raises(SynthesisInvariantError, match=r"^cz count 3 exceeds 1$") as info:
            disentangle2(random_state2((762, 2)))
        assert info.value.branch_trace

    def test_embedded_stage_cz_check_fires(self, monkeypatch):
        # the finisher checks only the wires it spends a CZ on, so `finish`
        # catches its extra CZ against the 3-qubit bound
        self._pad_stage(monkeypatch, CZGate(0, 1), CZGate(0, 1))
        with pytest.raises(SynthesisInvariantError, match=r"^cz count 5 exceeds 3$") as info:
            disentangle3(PureState3(w_under_locals(762)))
        assert info.value.branch_trace[-3:] == ["chain2", "cz02", "cz12"]

    def test_embedded_stage_fidelity_check_fires(self, monkeypatch):
        # 1 - 5e-10 is below FID_MIN, so `finish` rejects the 3-qubit result
        tilt = LocalGate(0, ry_matrix(2.0 * math.acos(1.0 - 5e-10)))
        self._pad_stage(monkeypatch, tilt)
        with pytest.raises(SynthesisInvariantError, match=r"^final fidelity 0\.99999\d* below 0\.9999999999$") as info:
            disentangle3(PureState3(w_under_locals(762)))
        assert info.value.branch_trace[-3:] == ["chain2", "cz02", "cz12"]

    def test_real_mode_gate_realness_check_fires(self, monkeypatch):
        # diag(i, -i) only changes the phase of |000>, so fidelity and count
        # hold. It fuses into the last gate on its wire, a real rotation R
        # with no CZ after it; diag(i, -i) R has the imaginary parts R's
        # entries, up to sign, and every other gate stays real. The state
        # has delta < 0, so the finisher runs on wires (1, 0, 2)
        state = random_state((762, 1), real_only=True)
        last = [g for g in disentangle3_real(state).circuit.gates if isinstance(g, LocalGate) and g.qubit == 2][-1]
        worst = max(abs(e) for e in last.matrix)
        assert 0.0 < worst < 1.0
        self._pad_stage(monkeypatch, LocalGate(2, Mat2(1j, 0, 0, -1j)))
        with pytest.raises(
            SynthesisInvariantError, match=rf"^real mode emitted a non-real gate \(max imag {re.escape(repr(worst))}\)$"
        ) as info:
            disentangle3_real(state)
        assert info.value.branch_trace

    def test_two_qubit_real_mode_gate_realness_check_fires(self, monkeypatch):
        # U(i, 1) also maps p = (1, 0) and q = (0, 1) to images of each other
        # under Z, so the CZ check, fidelity and count hold; real mode's
        # 2-qubit run must still reject its imaginary entries, i/sqrt(2)
        import qprep3.synth as synth

        h = math.sqrt(0.5)
        monkeypatch.setattr(synth, "_bisector", lambda *_: Mat2(1j * h, h, -h, -1j * h))
        with pytest.raises(
            SynthesisInvariantError, match=rf"^real mode emitted a non-real gate \(max imag {re.escape(repr(h))}\)$"
        ) as info:
            disentangle(PureState2([0.6, 0, 0, 0.8]), "real")
        assert info.value.branch_trace == ["chain1", "cz01"]

    @staticmethod
    def _prepend_to_prepare(monkeypatch, gate):
        """Make prepare's circuit start with `gate`, a LocalGate on qubit 0."""
        import qprep3.synth as synth

        real_invert = synth.invert

        def prepended(c):
            inv = real_invert(c)
            return Circuit((gate,) + inv.gates, inv.num_qubits)

        monkeypatch.setattr(synth, "invert", prepended)

    def _tilt_prepare(self, monkeypatch, fidelity):
        """Make prepare's circuit start with an Ry that leaves `fidelity` of the input."""
        self._prepend_to_prepare(monkeypatch, LocalGate(0, ry_matrix(2.0 * math.acos(fidelity))))

    @pytest.mark.parametrize("state", [random_state((763, 0)), random_state2((763, 1))], ids=["3-qubit", "2-qubit"])
    def test_prepare_round_trip_check_fires(self, monkeypatch, state):
        # 1 - 5e-10 is below FID_MIN, the bound at both sizes
        self._tilt_prepare(monkeypatch, 1.0 - 5e-10)
        with pytest.raises(
            SynthesisInvariantError, match=r"^preparation round-trip fidelity 0\.99999\d* below 0\.9999999999$"
        ) as info:
            prepare(state)
        assert info.value.branch_trace

    @pytest.mark.parametrize("state", [random_state((763, 2)), random_state2((763, 3))], ids=["3-qubit", "2-qubit"])
    def test_prepare_round_trip_norm_check_fires(self, monkeypatch, state):
        # a det-1 gate that is not unitary scales |0..0> by 2 before the
        # preparation: the overlap with the input reads about 2, which passes
        # FID_MIN, so only the norm check rejects it
        gate = LocalGate(0, Mat2(2, 0, 0, 0.5))
        dis = disentangle(state)
        start = basis_state(state.num_qubits, 0).amps
        produced = dense_apply(Circuit((gate,) + invert(dis.circuit).gates, state.num_qubits), start)
        assert abs(abs(np.vdot(state.amps, produced)) - 2.0) <= 1e-12
        self._prepend_to_prepare(monkeypatch, gate)
        with pytest.raises(SynthesisInvariantError) as info:
            prepare(state)
        found = re.fullmatch(r"preparation round-trip squared norm (\S+) not within 1e-06 of 1", str(info.value))
        assert found and abs(float(found.group(1)) - 4.0) <= 1e-12
        assert info.value.branch_trace == list(dis.branch_trace)

    @pytest.mark.parametrize(
        "entry, norm_check, msg",
        [
            (math.nan, True, "preparation round-trip squared norm nan not within 1e-06 of 1"),
            # with no norm check, the NaN reaches the fidelity, whose test
            # is written so that a NaN fails it
            (math.nan, False, "preparation round-trip fidelity nan below 0.9999999999"),
            (math.inf, True, None),
        ],
        ids=["nan", "nan-fidelity", "inf"],
    )
    def test_prepare_round_trip_rejects_non_finite_amplitudes(self, monkeypatch, entry, norm_check, msg):
        import qprep3.synth as synth

        state = random_state((763, 4))
        self._prepend_to_prepare(monkeypatch, LocalGate(0, Mat2(entry, 0, 0, 1)))
        if not norm_check:
            monkeypatch.setattr(synth, "_check_norm", lambda *_: None)
        with pytest.raises(SynthesisInvariantError) as info:
            prepare(state)
        if msg is None:
            # an inf, or the NaN that inf - inf makes, fails the norm check
            assert re.fullmatch(r"preparation round-trip squared norm (inf|nan) not within 1e-06 of 1", str(info.value))
        else:
            assert str(info.value) == msg
        assert info.value.branch_trace == list(disentangle(state).branch_trace)

    @pytest.mark.parametrize(
        "construction, wrong, synth, state, error, msg, trace",
        [
            # the step-1 gate is u_from_pair(1, root), the first one built;
            # step 1's check is l1's precondition
            (
                "u_from_pair", IDENTITY, disentangle3, "3",
                NonSingularInputError, "l1 requires det = 0", ["pencil"],
            ),
            (
                "l1", IDENTITY, _flow_only, "3",
                SynthesisInvariantError, "step2: second row of top block survives", ["pencil"],
            ),
            (
                "r1", IDENTITY, _flow_only, "3",
                SynthesisInvariantError, "step4: det of bottom block not killed", ["pencil", "step4"],
            ),
            # a projector on qubit 0's |1> zeroes the first column of both
            # blocks: the bottom det vanishes, and the top block changes
            (
                "r1", Mat2(0, 0, 0, 1), _flow_only, "3",
                SynthesisInvariantError, "step4: top block disturbed", ["pencil", "step4"],
            ),
            # the finisher's checks, by the stage of the old flow each took
            # over: its CZ on qubit 0 after step 4 (step 5), disentangle2's
            # CZ (2q-sandwich) and its CZ after A1=0 (2q-row); a wrong
            # step-1 root leaves the blocks of the chain prefix entangled
            (
                "_bisector", IDENTITY, disentangle3, "3",
                SynthesisInvariantError, "cz02: qubit 0 did not factor out", ["pencil", "step4", "chain2", "cz02"],
            ),
            (
                "_bisector", IDENTITY, disentangle2, "2",
                SynthesisInvariantError, "cz01: qubit 0 did not factor out", ["chain1", "cz01"],
            ),
            (
                "_bisector", IDENTITY, disentangle3, "1x2",
                SynthesisInvariantError, "cz01: qubit 0 did not factor out", ["pencil", "A1=0", "chain1", "cz01"],
            ),
            (
                "_pencil_root", 1.0, disentangle3_real, "3-real-delta<0",
                SynthesisInvariantError, "chain1: blocks not products", ["chain01", "chain1"],
            ),
            # a wrong prefix gate (U(1, 1), the root of z^2 - 1 = 0) leaves
            # qubit 1 no chain middle, so the finisher's step 1 cannot make
            # both of its blocks products
            (
                "_chain_form", (1.0, 0.0, -1.0), disentangle3, "haar",
                SynthesisInvariantError, "chain1: blocks not products", ["chain01", "chain1"],
            ),
        ],
        ids=["step1", "step2", "step4-det", "step4-top", "step5", "2q-sandwich", "2q-row", "chain-root", "prefix-gate"],
    )
    def test_step_check_fires(self, monkeypatch, construction, wrong, synth, state, error, msg, trace):
        # each step check must catch a wrong gate from the construction
        # before it, which checks only its input
        import qprep3.synth as synth_module

        monkeypatch.setattr(synth_module, construction, lambda *_: wrong)
        # "3" runs the flow and the chain prefix (a generic state takes the
        # prefix alone), and a fault in both raises the flow's error, the
        # first; _flow_only runs it alone, for a fault the prefix does not meet
        s = {
            "3": lambda: PureState3(w_under_locals(764)),
            "haar": lambda: random_state((764, 0)),
            "2": lambda: random_state2((764, 1)),
            "1x2": lambda: PureState3(np.concatenate([np.zeros(4), random_state2((764, 2)).amps])),
            "3-real-delta<0": lambda: _real_delta_negative(764),
        }[state]()
        with pytest.raises(error, match="^" + re.escape(msg) + "$") as info:
            synth(s)
        assert info.value.branch_trace == trace

    def test_finish_guards_the_tracked_norm(self):
        # a det-1 gate that is not unitary scales |000> by 2: the fidelity
        # reads 2, which passes FID_MIN, so only the norm guard rejects it
        from qprep3.synth import _Builder

        s = basis_state(3, 0)
        b = _Builder(s.w, False)
        b.local(0, Mat2(2, 0, 0, 0.5))
        assert abs(b.amps[0]) == 2.0
        with pytest.raises(SynthesisInvariantError, match=r"^tracked squared norm 4\.0 not within 1e-06 of 1$"):
            b.finish(3)

    @pytest.mark.parametrize(
        "synth, state",
        [
            (disentangle3, random_state((765, 0))),
            (disentangle3_real, random_state((765, 1), real_only=True)),
            (disentangle3_real, delta_negative_vector()),
            (prepare, random_state((765, 2))),
            (partial(prepare, mode="real"), random_state((765, 3), real_only=True)),
        ],
        ids=["general", "real", "real-delta<0", "prepare", "prepare-real"],
    )
    def test_synthesis_validates_once(self, monkeypatch, synth, state):
        # finish reads the tracked list itself, and prepare's round trip
        # checks the list it simulates: synthesis builds no state
        import qprep3.state as state_module

        validate = state_module._prepare_amps
        lengths = []

        def counting(raw, length):
            lengths.append(length)
            return validate(raw, length)

        monkeypatch.setattr(state_module, "_prepare_amps", counting)
        synth(state)
        assert lengths == []

    @pytest.mark.parametrize(
        "state",
        [random_state((766, 0), real_only=True), delta_negative_vector()],
        ids=["delta>=0", "delta<0"],
    )
    def test_real_mode_tests_realness_once(self, monkeypatch, state):
        # disentangle3_real tests realness once, and computes no delta
        import qprep3.state as state_module

        max_imag = state_module._PureState.max_imag
        calls = []

        def counting(s):
            calls.append(s)
            return max_imag(s)

        monkeypatch.setattr(state_module._PureState, "max_imag", counting)
        rep = disentangle3_real(state)
        assert calls == [state]
        assert rep.branch_trace[0] == "chain01"

    def test_invariant_error_carries_trace(self):
        err = SynthesisInvariantError("boom", ["a", "b"])
        assert err.branch_trace == ["a", "b"]

    def test_library_error_carries_trace(self, monkeypatch):
        import qprep3.synth as synth

        def failing(_m):
            raise NonSingularInputError("l1 requires det = 0")

        # the flow builds its step-2 gate with mat2.l1; the chain prefix,
        # which the router runs beside it, and the finisher need no l1, so
        # the flow runs as the only attempt
        monkeypatch.setattr(synth, "l1", failing)
        with pytest.raises(NonSingularInputError) as info:
            _flow_only(PureState3(w_under_locals(767)))
        assert info.value.branch_trace == ["pencil"]

    def test_near_000_synthesizes(self):
        # |det B0| ~ 1e-16 once passed for zero; B0 (norm ~1e-8) is not
        # singular in amplitude units, so the pencil branch handles it
        s = near_000()
        rep = disentangle3(s)
        assert rep.cz_count <= 3
        assert abs(dense_apply(rep.circuit, s.amps)[0]) >= FID

    def test_nested_error_trace_follows_outer_trace(self, monkeypatch):
        import qprep3.synth as synth

        def failing(b, *_):
            b.trace.append("chain2")
            raise SynthesisInvariantError("chain2: boom")

        monkeypatch.setattr(synth, "_finish_chain", failing)
        with pytest.raises(SynthesisInvariantError) as info:
            disentangle3(PureState3(w_under_locals(767)))
        trace = info.value.branch_trace
        assert trace[0] == "pencil" and trace[-1] == "chain2" and len(trace) > 2


def apply_circuit_one(gate, state):
    from qprep3.circuit import apply_gate

    return apply_gate(gate, state)
