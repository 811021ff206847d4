"""Value semantics of the package's records: immutable, equal by value, hashable.

States are the exception: they are immutable but equal only to themselves.
"""
import math

import pytest

from qprep3.circuit import Circuit, CZGate, LocalGate
from qprep3.mat2 import IDENTITY, Mat2
from qprep3.state import BlockPair, PureState2, PureState3, basis_state, random_state
from qprep3.synth import SynthesisReport, disentangle3

GHZ = [1 / math.sqrt(2), 0, 0, 0, 0, 0, 0, 1 / math.sqrt(2)]


def circuit() -> Circuit:
    return Circuit((LocalGate(0, Mat2(0, 1, -1, 0)), CZGate(0, 1)), 2)


@pytest.mark.parametrize(
    "record, field",
    [
        (Mat2(1, 2, 3, 4), "a"),
        (LocalGate(1, IDENTITY), "qubit"),
        (CZGate(0, 2), "j"),
        (circuit(), "num_qubits"),
        (BlockPair(IDENTITY, IDENTITY), "t1"),
        (SynthesisReport(circuit(), 1, True, (), 1.0), "fidelity"),
        (PureState3(GHZ), "w"),
    ],
    ids=lambda x: type(x).__name__ if not isinstance(x, str) else x,
)
def test_fields_cannot_be_assigned(record, field):
    with pytest.raises(AttributeError):
        setattr(record, field, getattr(record, field))


def test_states_cannot_be_changed():
    s = PureState3(GHZ)
    with pytest.raises(AttributeError):
        s.extra = 1
    with pytest.raises(AttributeError):
        del s.w


@pytest.mark.parametrize(
    "make",
    [
        lambda: Mat2(1, 0.5j, -0.5j, 1),
        lambda: LocalGate(2, Mat2(0, 1, -1, 0)),
        circuit,
    ],
    ids=["Mat2", "LocalGate", "Circuit"],
)
def test_equal_values_compare_and_hash_equal(make):
    a, b = make(), make()
    assert a is not b
    assert a == b and hash(a) == hash(b)


def test_different_values_differ():
    assert Mat2(1, 0, 0, 1) != Mat2(1, 0, 0, -1)
    assert LocalGate(0, IDENTITY) != LocalGate(1, IDENTITY)
    assert circuit() != Circuit(circuit().gates, 3)


def test_states_compare_by_identity():
    a, b = PureState3(GHZ), PureState3(GHZ)
    assert a.w == b.w
    assert a != b and a == a
    assert len({a, b}) == 2


def test_state_class_attributes():
    assert PureState3(GHZ).num_qubits == 3
    assert basis_state(2).num_qubits == 2 and isinstance(basis_state(2), PureState2)
    assert repr(basis_state(2)) == "PureState2(w=((1+0j), 0j, 0j, 0j))"
    s = random_state(7)
    assert s.amps is s.amps and list(s.amps) == list(s.w)


@pytest.mark.parametrize(
    "make, match",
    [
        (lambda: LocalGate(3, IDENTITY), "qubit must be 0, 1 or 2"),
        (lambda: CZGate(1, 0), "0 <= i < j <= 2"),
        (lambda: CZGate(0, 3), "0 <= i < j <= 2"),
        (lambda: Circuit((), 4), "2 or 3"),
        (lambda: Circuit((CZGate(1, 2),), 2), "does not fit in 2 qubits"),
        (lambda: Circuit((LocalGate(2, IDENTITY),), 2), "does not fit in 2 qubits"),
        (lambda: PureState3(GHZ[:4]), "expected 8 amplitudes"),
        (lambda: PureState2(GHZ), "expected 4 amplitudes"),
    ],
    ids=["LocalGate", "CZGate-order", "CZGate-range", "Circuit-count", "Circuit-cz-fit", "Circuit-local-fit",
         "PureState3", "PureState2"],
)
def test_constructor_checks(make, match):
    with pytest.raises(ValueError, match=match):
        make()


@pytest.mark.parametrize(
    "make, change",
    [
        (lambda: LocalGate(0, IDENTITY), {"qubit": 5}),
        (lambda: CZGate(0, 1), {"i": 2}),
        (circuit, {"num_qubits": 7}),
        (lambda: Circuit((CZGate(1, 2),)), {"num_qubits": 2}),
    ],
    ids=["LocalGate", "CZGate", "Circuit-count", "Circuit-fit"],
)
def test_replace_runs_constructor_checks(make, change):
    with pytest.raises(ValueError):
        make()._replace(**change)


def test_replace_and_fields():
    c = circuit()
    assert c._fields == ("gates", "num_qubits")
    c3 = c._replace(num_qubits=3)
    assert c3.gates == c.gates and c3.num_qubits == 3 and type(c3) is Circuit
    rep = disentangle3(random_state(3))
    assert rep._replace(fidelity=0.5).circuit == rep.circuit
