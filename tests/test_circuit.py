"""Simulator-vs-dense-oracle equivalence, circuit algebra, and the text format."""
import math
import re

import numpy as np
import pytest

from _oracles import (
    dense_apply,
    gate_unitary,
    random_unitary2,
    reference_apply_cz,
    reference_apply_local,
    reference_l_line,
    reference_max_local_imag,
    reference_ry_angle,
)
from qprep3 import kernels
from qprep3.circuit import (
    Circuit,
    CZGate,
    LocalGate,
    apply_circuit,
    apply_gate,
    emit_circuit,
    fidelity_to_basis,
    invert,
    parse_circuit,
    ry_angle,
    ry_matrix,
)
from qprep3.mat2 import IDENTITY, REAL_GATE_TOL, RY_MATCH_TOL, SWAP_BLOCKS, Mat2, real_parts
from qprep3.state import PureState2, PureState3, basis_state, random_state, random_state2
from qprep3.synth import disentangle3_real, prepare

ISQ2 = 1.0 / math.sqrt(2.0)
X = Mat2(0, 1, 1, 0)


def ghz() -> PureState3:
    return PureState3(np.array([1, 0, 0, 0, 0, 0, 0, 1]) / math.sqrt(2))


class TestApplyGate:
    def test_cz12_on_ghz(self):
        out = apply_gate(CZGate(1, 2), ghz())
        expected = np.array([ISQ2, 0, 0, 0, 0, 0, 0, -ISQ2])
        assert np.max(np.abs(out.amps - expected)) == 0.0

    def test_x_on_qubit2(self):
        out = apply_gate(LocalGate(2, X), basis_state(3, 0))
        assert out.amps[0b100] == 1.0 and np.count_nonzero(out.amps) == 1

    @pytest.mark.parametrize("pair", [(0, 1), (0, 2), (1, 2)])
    def test_cz_signs_on_basis_states(self, pair):
        mask = (1 << pair[0]) | (1 << pair[1])
        for b in range(8):
            out = apply_gate(CZGate(*pair), basis_state(3, b))
            sign = -1.0 if b & mask == mask else 1.0
            assert out.amps[b] == sign

    @pytest.mark.parametrize("qubit", [0, 1, 2])
    def test_local_matches_dense_oracle(self, qubit):
        rng = np.random.default_rng(200 + qubit)
        for i in range(350):
            s = random_state((201, qubit, i))
            g = LocalGate(qubit, random_unitary2(rng))
            got = apply_gate(g, s).amps
            want = gate_unitary(3, g) @ s.amps
            assert np.max(np.abs(got - want)) <= 1e-13
            assert abs(np.linalg.norm(got) - 1.0) <= 1e-13

    @pytest.mark.parametrize("pair", [(0, 1), (0, 2), (1, 2)])
    def test_cz_matches_dense_oracle(self, pair):
        for i in range(350):
            s = random_state((202, pair[0], pair[1], i))
            g = CZGate(*pair)
            got = apply_gate(g, s).amps
            want = gate_unitary(3, g) @ s.amps
            assert np.max(np.abs(got - want)) <= 1e-13

    @pytest.mark.parametrize("num_qubits", [2, 3])
    @pytest.mark.parametrize("real", [False, True], ids=["complex", "real"])
    def test_local_kernel_equals_reference_exactly(self, num_qubits, real):
        rng = np.random.default_rng(204 + 2 * num_qubits + real)
        make = random_state if num_qubits == 3 else random_state2
        for i in range(100):
            amps = make((205, num_qubits, real, i), real_only=real).w
            for qubit in range(num_qubits):
                m = random_unitary2(rng, real)
                got = kernels.apply_local(amps, qubit, *m)
                want = reference_apply_local(amps, qubit, *m)
                # repr also tells -0.0 from 0.0, which the emitted text shows
                assert got == want and repr(got) == repr(want)

    @pytest.mark.parametrize("num_qubits", [2, 3])
    @pytest.mark.parametrize("real", [False, True], ids=["complex", "real"])
    def test_cz_kernel_equals_reference_exactly(self, num_qubits, real):
        make = random_state if num_qubits == 3 else random_state2
        for i in range(100):
            amps = make((206, num_qubits, real, i), real_only=real).w
            for qj in range(num_qubits):
                for qi in range(qj):
                    got = kernels.apply_cz(amps, qi, qj)
                    want = reference_apply_cz(amps, qi, qj)
                    # a real input's imaginary 0.0 turns -0.0 where negated
                    assert got == want and repr(got) == repr(want)

    @pytest.mark.parametrize("container", [list, np.array])
    def test_kernel_inputs_not_mutated(self, container):
        amps = container(random_state(604).amps.tolist())
        before = list(amps)
        out_local = kernels.apply_local(amps, 1, 0.6, 0.8, -0.8, 0.6)
        out_cz = kernels.apply_cz(amps, 0, 2)
        assert list(amps) == before
        assert out_local is not amps and out_cz is not amps

    def test_two_qubit_states(self):
        rng = np.random.default_rng(7)
        for i in range(200):
            s = random_state2((203, i))
            g = LocalGate(int(rng.integers(2)), random_unitary2(rng))
            assert np.max(np.abs(apply_gate(g, s).amps - gate_unitary(2, g) @ s.amps)) <= 1e-13
            cz = CZGate(0, 1)
            assert np.max(np.abs(apply_gate(cz, s).amps - gate_unitary(2, cz) @ s.amps)) <= 1e-13

    def test_qubit_out_of_range(self):
        with pytest.raises(ValueError):
            apply_gate(LocalGate(2, X), random_state2(1))

    @pytest.mark.parametrize("length, qubit", [(4, 2), (4, 3), (4, 4), (8, 3), (8, -1)])
    def test_local_kernel_dispatch_rejects_pairs_off_the_five(self, length, qubit):
        # (4, 4) must not reach a 4-amplitude kernel, as a key of length | qubit would
        with pytest.raises((KeyError, ValueError)):
            kernels.apply_local([0.5] * length, qubit, 1.0, 0.0, 0.0, 1.0)


def random_circuit(seed, n_gates, num_qubits=3) -> Circuit:
    rng = np.random.default_rng(seed)
    pairs = [(0, 1), (0, 2), (1, 2)] if num_qubits == 3 else [(0, 1)]
    gates = []
    for _ in range(n_gates):
        if rng.random() < 0.3:
            gates.append(CZGate(*pairs[rng.integers(len(pairs))]))
        else:
            gates.append(LocalGate(int(rng.integers(num_qubits)), random_unitary2(rng)))
    return Circuit(tuple(gates), num_qubits)


def real_mode_circuits(seed, count) -> list[Circuit]:
    """Real-mode syntheses of seeded real states: local gates of float entries."""
    return [disentangle3_real(random_state((seed, i), real_only=True)).circuit for i in range(count)]


class TestApplyCircuit:
    def test_empty_is_identity(self):
        s = random_state(5)
        out = apply_circuit(Circuit(()), s)
        assert np.array_equal(out.amps, s.amps)

    def test_single_gate_matches_apply_gate(self):
        s = random_state(6)
        g = CZGate(0, 2)
        assert np.array_equal(
            apply_circuit(Circuit((g,)), s).amps, apply_gate(g, s).amps
        )

    def test_norm_preserved_32_gates(self):
        for i in range(50):
            c = random_circuit((301, i), 32)
            out = apply_circuit(c, random_state((302, i)))
            assert abs(np.linalg.norm(out.amps) - 1.0) <= 1e-12

    def test_matches_dense_oracle(self):
        for i in range(100):
            c = random_circuit((303, i), 12)
            s = random_state((304, i))
            assert np.max(np.abs(apply_circuit(c, s).amps - dense_apply(c, s.amps))) <= 1e-12

    @pytest.mark.parametrize(
        "gates, msg",
        [
            ((LocalGate(2, X),), "gate on qubit 2 applied to 2-qubit state"),
            ((CZGate(1, 2),), r"CZ on \(1, 2\) applied to 2-qubit state"),
            # the first gate that does not fit is the one reported
            ((LocalGate(0, X), CZGate(0, 2), LocalGate(2, X)), r"CZ on \(0, 2\) applied to 2-qubit state"),
            ((CZGate(0, 1), LocalGate(2, X), CZGate(1, 2)), "gate on qubit 2 applied to 2-qubit state"),
        ],
        ids=["local", "cz", "cz-first", "local-first"],
    )
    def test_gate_off_the_state_raises(self, gates, msg):
        with pytest.raises(ValueError, match=f"^{msg}$"):
            apply_circuit(Circuit(gates), random_state2(305))

    def test_three_qubit_circuit_on_two_wires_applies_to_two_qubit_state(self):
        for i in range(20):
            two = random_circuit((306, i), 10, num_qubits=2)
            c = Circuit(two.gates, num_qubits=3)
            s = random_state2((307, i))
            out = apply_circuit(c, s)
            assert type(out) is PureState2
            step = s
            for g in c.gates:
                step = apply_gate(g, step)
            assert out.w == step.w
            assert np.max(np.abs(out.amps - dense_apply(two, s.amps))) <= 1e-12


    def test_exactly_real_state_runs_in_floats(self):
        # real gates on an exactly real state: every amplitude equals the
        # complex simulation's (== is blind to signs of zero only), and the
        # dense oracle agrees
        rng = np.random.default_rng(308)
        for i in range(50):
            gates = []
            for _ in range(12):
                if rng.random() < 0.3:
                    gates.append(CZGate(*[(0, 1), (0, 2), (1, 2)][rng.integers(3)]))
                else:
                    gates.append(LocalGate(int(rng.integers(3)), real_parts(random_unitary2(rng, real=True))))
            c = Circuit(tuple(gates))
            s = random_state((309, i), real_only=True)
            want = list(s.w)
            for g in gates:
                if isinstance(g, LocalGate):
                    want = reference_apply_local(want, g.qubit, *map(complex, g.matrix))
                else:
                    want = reference_apply_cz(want, g.i, g.j)
            out = apply_circuit(c, s)
            assert list(out.w) == want
            assert np.max(np.abs(out.amps - dense_apply(c, s.amps))) <= 1e-12


class TestCircuitValue:
    def test_gates_are_stored_as_a_tuple(self):
        g = CZGate(0, 1)
        gates = [g]
        c = Circuit(gates)
        assert c == Circuit((g,)) and hash(c) == hash(Circuit((g,)))
        assert type(c.gates) is tuple
        gates.append(CZGate(1, 2))
        assert c.cz_count == 1

    @pytest.mark.parametrize(
        "gates, k",
        [(((0, 1),), 0), ((CZGate(0, 1), LocalGate(0, X), (0, 2), "CZ 1 2"), 2)],
        ids=["tuple", "after-gates"],
    )
    def test_entry_that_is_not_a_gate_raises_type_error(self, gates, k):
        # the first entry that is neither a LocalGate nor a CZGate is named
        msg = f"^gate {k} is neither a LocalGate nor a CZGate: {re.escape(repr(gates[k]))}$"
        with pytest.raises(TypeError, match=msg):
            Circuit(gates)
        # a circuit built past the checks raises the same from apply_circuit
        with pytest.raises(TypeError, match=msg):
            apply_circuit(tuple.__new__(Circuit, (gates, 3)), random_state(306))


class TestInvert:
    def test_involution(self):
        for c in [random_circuit(401, 10)] + real_mode_circuits(405, 20):
            assert invert(invert(c)) == c

    def test_keeps_entry_types(self):
        # real-mode --prepare writes `0` imaginary fields only for float
        # entries, so inversion must not turn a float into a complex
        kinds = set()
        for c in [random_circuit(406, 12)] + real_mode_circuits(407, 20):
            inv = invert(c)
            for g, h in zip(reversed(c.gates), inv.gates):
                if isinstance(g, LocalGate):
                    a, b, cc, d = g.matrix
                    assert [type(e) for e in h.matrix] == [type(e) for e in (a, cc, b, d)]
                    kinds.update(type(e) for e in h.matrix)
        assert kinds == {float, complex}

    def test_cz_self_inverse(self):
        c = Circuit((CZGate(0, 1),))
        assert invert(c) == c

    def test_round_trip_state(self):
        circuits = [random_circuit((402, i), 16) for i in range(100)] + real_mode_circuits(408, 20)
        for i, c in enumerate(circuits):
            s = random_state((403, i))
            back = apply_circuit(invert(c), apply_circuit(c, s))
            assert np.max(np.abs(back.amps - s.amps)) <= 1e-11

    def test_cz_count_preserved(self):
        c = random_circuit(404, 20)
        assert invert(c).cz_count == c.cz_count


class TestFidelityToBasis:
    def test_basis(self):
        assert fidelity_to_basis(basis_state(3, 0), 0) == 1.0

    def test_ghz(self):
        assert abs(fidelity_to_basis(ghz(), 0) - ISQ2) <= 1e-15

    def test_phase_blind(self):
        s = PureState3(-basis_state(3, 0).amps)
        assert fidelity_to_basis(s, 0) == 1.0

    @pytest.mark.parametrize("index", [-1, 8])
    def test_index_out_of_range(self, index):
        # a negative index used to read the last amplitude
        with pytest.raises(ValueError, match=r"^basis index must be in 0\.\.7, got "):
            fidelity_to_basis(ghz(), index)


class TestRyAngle:
    def test_identity(self):
        assert ry_angle(IDENTITY) == 0.0

    def test_quarter_turn(self):
        theta = ry_angle(Mat2(ISQ2, -ISQ2, ISQ2, ISQ2))
        assert theta is not None and abs(theta - math.pi / 2) <= 1e-12

    def test_complex_gate_has_no_angle(self):
        assert ry_angle(Mat2(1j, 0, 0, -1j)) is None

    def test_reflection_has_no_angle(self):
        assert ry_angle(X) is None

    def test_nan_entry_has_no_angle(self):
        # a NaN fails every tolerance test wherever it sits, also past the
        # first position, where max() drops it
        nan = math.nan
        for u in (Mat2(nan, 0.0, 0.0, nan), Mat2(complex(1, nan), 0, 0, 1), Mat2(1, nan, 0, 1), Mat2(1, 0, 0, complex(1, nan))):
            assert ry_angle(u) is None
        with pytest.raises(ValueError, match="^cannot emit RY lines: a local gate is not a real rotation$"):
            emit_circuit(parse_circuit("L 0 nan 0 nan 0 nan 0 nan 0\n"), include_ry=True)

    def test_round_trip(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            theta = float(rng.uniform(-math.pi, math.pi))
            got = ry_angle(ry_matrix(theta))
            assert got is not None
            assert ry_matrix(got).distance_to(ry_matrix(theta)) <= 1e-12

    @staticmethod
    def _gates(rng):
        yield IDENTITY
        yield Mat2(-1, 0, 0, -1)
        yield X
        yield Mat2(1j, 0, 0, -1j)
        for _ in range(200):
            theta = float(rng.uniform(-math.pi, math.pi))
            c, s = math.cos(theta), math.sin(theta)
            yield ry_matrix(2.0 * theta)
            yield Mat2(c, s, s, -c)  # a reflection, det -1
            yield random_unitary2(rng)
            yield random_unitary2(rng, real=True)

    @staticmethod
    def _nudged(rng):
        """Rotations with one entry moved, in its real or its imaginary part,
        to RY_MATCH_TOL or the next float on either side of it."""
        for _ in range(200):
            base = list(ry_matrix(float(rng.uniform(-math.pi, math.pi))))
            k = int(rng.integers(4))
            for size in (RY_MATCH_TOL, math.nextafter(RY_MATCH_TOL, 0.0), math.nextafter(RY_MATCH_TOL, 1.0)):
                for shift in (size, -size, 1j * size, -1j * size):
                    e = [complex(x) for x in base]
                    e[k] += shift
                    yield Mat2(*e)

    def test_equals_method_form(self):
        rng = np.random.default_rng(43)
        for u in self._gates(rng):
            got, want = ry_angle(u), reference_ry_angle(u)
            assert got is None if want is None else got == want

    def test_equals_method_form_at_the_match_tolerance(self):
        rng = np.random.default_rng(44)
        outcomes = set()
        for u in self._nudged(rng):
            got, want = ry_angle(u), reference_ry_angle(u)
            assert got is None if want is None else got == want
            outcomes.add(want is None)
        # the nudges land on both sides of the tolerance
        assert outcomes == {True, False}


class TestMaxLocalImag:
    def test_equals_method_form(self):
        rng = np.random.default_rng(45)
        circuits = [Circuit(()), Circuit((CZGate(0, 1), CZGate(1, 2)))]
        for i in range(100):
            circuits.append(random_circuit((451, i), 12))
            real = [LocalGate(int(rng.integers(3)), ry_matrix(float(rng.uniform(-3.0, 3.0)))) for _ in range(6)]
            circuits.append(Circuit(tuple(real) + (CZGate(0, 2),)))
        for c in circuits:
            assert c.max_local_imag() == reference_max_local_imag(c)

    @pytest.mark.parametrize("first", [True, False], ids=["nan-first", "nan-later"])
    def test_nan_entries_follow_max(self, first):
        # a NaN anywhere is the maximum, also past the first entry, where
        # max() would drop it
        nan_gate = LocalGate(0, Mat2(complex(0.0, math.nan), 0, 0, 1))
        other = LocalGate(1, Mat2(0.5j, 0, 0, -0.5j))
        c = Circuit((nan_gate, other) if first else (other, nan_gate))
        assert math.isnan(c.max_local_imag())
        assert math.isnan(reference_max_local_imag(c))


class TestIsReal:
    def test_agrees_with_max_local_imag(self):
        # the short-circuit test gives max_local_imag() <= REAL_GATE_TOL on
        # finite circuits, with imaginary parts on both sides of the tolerance
        rng = np.random.default_rng(46)
        circuits = [Circuit(()), Circuit((CZGate(0, 1), CZGate(1, 2)))]
        for i in range(100):
            circuits.append(random_circuit((461, i), 12))
            real = [LocalGate(int(rng.integers(3)), ry_matrix(float(rng.uniform(-3.0, 3.0)))) for _ in range(6)]
            nudge = complex(0.0, REAL_GATE_TOL * float(rng.choice([0.5, 1.0, 2.0])))
            real.insert(int(rng.integers(7)), LocalGate(int(rng.integers(3)), Mat2(1, nudge, 0, 1)))
            circuits.append(Circuit(tuple(real) + (CZGate(0, 2),)))
        circuits += real_mode_circuits(462, 20)
        outcomes = set()
        for c in circuits:
            want = c.max_local_imag() <= REAL_GATE_TOL
            assert c.is_real() == want
            outcomes.add(want)
        assert outcomes == {True, False}

    @pytest.mark.parametrize("first", [True, False], ids=["nan-first", "nan-later"])
    def test_nan_entry_anywhere_is_not_real(self, first):
        # is_real tests every gate, not only the first
        nan_gate = LocalGate(0, Mat2(1, 0, 0, complex(1.0, math.nan)))
        other = LocalGate(1, ry_matrix(0.3))
        c = Circuit((nan_gate, other) if first else (other, nan_gate))
        assert not c.is_real()


class TestSerialization:
    def test_round_trip_value_exact(self):
        for i in range(50):
            c = random_circuit((501, i), 14)
            assert parse_circuit(emit_circuit(c)) == c

    def test_real_mode_circuit_reads_back_with_its_float_entries(self):
        # real mode's local gates have float entries, printed with imaginary parts `0`
        for i in range(20):
            c = prepare(random_state((503, i), real_only=True), "real").circuit
            parsed = parse_circuit(emit_circuit(c, include_ry=True))
            assert parsed == c
            entries = [x for g in parsed.gates if isinstance(g, LocalGate) for x in g.matrix]
            assert entries and {type(x) for x in entries} == {float}
            assert entries == [x for g in c.gates if isinstance(g, LocalGate) for x in g.matrix]

    def test_negative_zero_imaginary_part_keeps_a_line_complex(self):
        line = "L 1 0.59999999999999998 -0 0 0 0 0 0.59999999999999998 0"
        c = parse_circuit(line + "\n")
        (gate,) = c.gates
        assert {type(x) for x in gate.matrix} == {complex}
        assert math.copysign(1.0, gate.matrix.a.imag) == -1.0
        assert emit_circuit(c).splitlines()[1] == line

    @pytest.mark.parametrize(
        "m",
        [
            Mat2(0.6, -0.8, 0.8, 0.6),
            SWAP_BLOCKS,
            Mat2(complex(0.6, 0.0), -0.8 + 0j, 0.8 + 0j, 0.6 + 0j),
            Mat2(complex(0.6, -0.0), complex(-0.8, -0.0), complex(0.8, 0.0), complex(0.6, -0.0)),
            Mat2(0.6, -0.8 + 0.1j, 1, complex(0.6, -0.0)),
            Mat2(0.6, -0.8, 0.8, 0),
            Mat2(np.float64(0.6), np.float64(-0.8), np.float64(0.8), np.float64(0.6)),
            Mat2(0.6, np.float64(-0.8), 0.8, 0.6),
            Mat2(0.0, -0.0, -0.0, 0.0),
            Mat2(complex(-0.0, 0.5), complex(0.0, -0.5), -0.0, 1e-300),
        ],
        ids=[
            "float", "int", "complex-plus-zero-imag", "complex-minus-zero-imag", "mixed", "float-and-int",
            "numpy-float64", "float-and-numpy-float64", "signed-zero-reals", "signed-zero-complex-reals",
        ],
    )
    def test_l_lines_follow_the_written_rule(self, m):
        # float entries take the short template, every other type the eight-number one
        c = Circuit((LocalGate(2, m), CZGate(0, 2), LocalGate(0, m)))
        lines = emit_circuit(c).splitlines()
        assert lines[1:] == [reference_l_line(2, m), "CZ 0 2", reference_l_line(0, m)]

    def test_ry_lines_follow_the_written_rule(self):
        thetas = [0.7, -2.5, 0.0, -0.0, math.pi]
        c = Circuit(tuple(LocalGate(q % 3, ry_matrix(t)) for q, t in enumerate(thetas)))
        ry = [line for line in emit_circuit(c, include_ry=True).splitlines() if line.startswith("RY")]
        assert ry == ["RY %d %.17g" % (g.qubit, ry_angle(g.matrix)) for g in c.gates]

    def test_bad_real_token_error_is_the_first_bad_token(self):
        # the first bad token names the error, whether or not the imaginary fields are all `0`
        with pytest.raises(ValueError, match="^line 1: could not convert string to float: 'x'$"):
            parse_circuit("L 0 x 0 0 0 0 0 1 0\n")
        with pytest.raises(ValueError, match="^line 1: could not convert string to float: 'y'$"):
            parse_circuit("L 0 1 0 0 y 0 x 1 0\n")
        with pytest.raises(ValueError, match="^line 1: could not convert string to float: 'y'$"):
            parse_circuit("L 0 1 y 0 0 0 x 1 0\n")

    def test_emit_deterministic(self):
        c = random_circuit(502, 10)
        assert emit_circuit(c) == emit_circuit(c)

    def test_header_and_shape(self):
        c = Circuit((CZGate(0, 1),), num_qubits=2)
        text = emit_circuit(c)
        assert text.splitlines()[0] == "# qprep3 v1 qubits=2 order=left-first"
        assert parse_circuit(text).num_qubits == 2

    def test_empty_circuit(self):
        text = emit_circuit(Circuit(()))
        parsed = parse_circuit(text)
        assert parsed.gates == () and parsed.num_qubits == 3

    def test_ry_lines_skipped_by_parser(self):
        c = Circuit((LocalGate(1, ry_matrix(0.7)), CZGate(0, 1)))
        text = emit_circuit(c, include_ry=True)
        assert "RY 1 " in text
        assert parse_circuit(text) == c

    def test_ry_refused_for_complex_gates(self):
        c = Circuit((LocalGate(0, Mat2(1j, 0, 0, -1j)),))
        with pytest.raises(ValueError):
            emit_circuit(c, include_ry=True)

    def test_parse_errors_carry_line_numbers(self):
        with pytest.raises(ValueError, match="line 2"):
            parse_circuit("# header\nL 0 1 2\n")
        with pytest.raises(ValueError, match="line 1"):
            parse_circuit("CZ 1 0\n")
        with pytest.raises(ValueError, match="unknown gate"):
            parse_circuit("Q 0\n")

    def test_default_qubits_is_three(self):
        assert parse_circuit("CZ 0 2\n").num_qubits == 3

    def test_surrounding_whitespace_and_tabs(self):
        text = "  CZ 0 1  \n\tL\t2\t0\t0\t1\t0\t-1\t0\t0\t0 \r\nCZ 1\t2\n"
        c = parse_circuit(text)
        assert c == Circuit((CZGate(0, 1), LocalGate(2, Mat2(0j, 1 + 0j, -1 + 0j, 0j)), CZGate(1, 2)))

    def test_blank_and_space_lines_are_skipped(self):
        assert parse_circuit("\n   \n\t\nCZ 0 1\n  \n") == Circuit((CZGate(0, 1),))

    def test_indented_ry_line_is_skipped(self):
        assert parse_circuit("CZ 0 1\n   RY 0 0.5\n\tRY 1 x y z\n") == Circuit((CZGate(0, 1),))

    def test_comment_without_space_sets_qubits(self):
        c = parse_circuit("#qubits=2\nCZ 0 1\n")
        assert c.num_qubits == 2
        assert parse_circuit("  #qubits=2 order=left-first\n").num_qubits == 2

    def test_comment_without_qubits_field(self):
        assert parse_circuit("# a note, qubits unsaid\n#\nCZ 0 2\n") == Circuit((CZGate(0, 2),), 3)

    @pytest.mark.parametrize(
        "text, msg",
        [
            ("# header\n\n   \n  RY 0 1\n\tCZ 0 0\n", "line 5: CZ pair must satisfy"),
            ("#qubits=2\n \nL 0 1 0 0 0 0 0 1\n", "line 3: L line needs a qubit and 8 matrix numbers"),
            ("CZ 0 1\n  #qubits=5\n", "line 2: qubit count must be 2 or 3, got 5"),
            ("\t\n  q 0\n", "line 2: unknown gate kind 'q'"),
            ("  L x 1 0 0 0 0 0 1 0\n", "line 1: invalid literal for int"),
            ("#qubits=2\n\n  L 2 1 0 0 0 0 0 1 0\n", "line 3: gate .* does not fit in 2 qubits"),
        ],
        ids=["cz-pair", "l-arity", "header-count", "unknown", "bad-int", "misfit"],
    )
    def test_error_line_numbers_count_every_line(self, text, msg):
        with pytest.raises(ValueError, match="^" + msg):
            parse_circuit(text)

    @pytest.mark.parametrize("value", ["x", "7", "1"])
    def test_bad_header_qubit_count_carries_line_number(self, value):
        text = f"# qprep3 v1 qubits={value} order=left-first\nCZ 0 1\n"
        with pytest.raises(ValueError, match="^line 1: "):
            parse_circuit(text)

    def test_circuit_rejects_qubit_count(self):
        for n in (1, 4, 7):
            with pytest.raises(ValueError, match="2 or 3"):
                Circuit((), num_qubits=n)

    @pytest.mark.parametrize(
        "text, lineno",
        [
            ("# qprep3 v1 qubits=2 order=left-first\nCZ 0 1\nL 2 1 0 0 0 0 0 1 0\n", 3),
            ("CZ 0 1\nCZ 1 2\n# qprep3 v1 qubits=2 order=left-first\n", 2),
        ],
        ids=["header-first", "header-last"],
    )
    def test_gate_outside_header_qubits_carries_line_number(self, text, lineno):
        with pytest.raises(ValueError, match=f"^line {lineno}: gate .* does not fit in 2 qubits"):
            parse_circuit(text)
