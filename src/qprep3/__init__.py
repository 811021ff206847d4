"""qprep3: compile 2- and 3-qubit pure states into local + controlled-Z circuits.

Any 3-qubit state synthesizes with at most three controlled-Z gates, and any
real-amplitude 3-qubit state with all-real gates and at most three as well.
Circuits are verified by exact simulation, and every bound is checked on
every run: a run that would miss one raises instead.
"""
from . import errors
from .circuit import (
    Circuit,
    CZGate,
    Gate,
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
from .mat2 import Mat2, l1, r1, r2, r3, solve_det_pencil, u_from_pair
from .state import (
    BlockPair,
    Factorization,
    PureState2,
    PureState3,
    basis_state,
    blocks,
    delta,
    factor_right,
    overlap,
    random_state,
    random_state2,
)
from .synth import SynthesisReport, disentangle2, disentangle3, disentangle3_real, prepare

__version__ = "0.1.0"

# Name of the statevector kernels in use; there is one implementation, in
# kernels.py.
kernel_backend = "python"

__all__ = [
    "BlockPair",
    "Circuit",
    "CZGate",
    "Factorization",
    "Gate",
    "LocalGate",
    "Mat2",
    "PureState2",
    "PureState3",
    "SynthesisReport",
    "apply_circuit",
    "apply_gate",
    "basis_state",
    "blocks",
    "delta",
    "disentangle2",
    "disentangle3",
    "disentangle3_real",
    "emit_circuit",
    "errors",
    "factor_right",
    "fidelity_to_basis",
    "invert",
    "kernel_backend",
    "l1",
    "overlap",
    "parse_circuit",
    "prepare",
    "r1",
    "r2",
    "r3",
    "random_state",
    "random_state2",
    "ry_angle",
    "ry_matrix",
    "solve_det_pencil",
    "u_from_pair",
    "__version__",
]
