"""Acceptance suite: one test (and one printed pass/fail line) per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
complete. Every tolerance is pinned here, not configurable.
"""
import math

import numpy as np

from _oracles import (
    gate_unitary,
    max_row_minor,
    random_nonsingular,
    random_rank1,
    random_unitary2,
    rows,
)
from qprep3.circuit import CZGate, LocalGate, apply_circuit, apply_gate, emit_circuit, parse_circuit
from qprep3.cli import main
from qprep3.mat2 import Mat2, Z, r1, r1_ratio, r2
from qprep3.state import (
    PureState2,
    PureState3,
    basis_state,
    blocks,
    delta,
    factor_right,
    random_state,
    random_state2,
)
from qprep3.synth import disentangle2, disentangle3, disentangle3_real, prepare

GHZ = PureState3(np.array([1, 0, 0, 0, 0, 0, 0, 1]) / math.sqrt(2))
DELTA_NEG = PureState3(np.array([1, 0, 0, -1, 0, 1, 1, 0]) / 2.0)

GHZ_FILE = "0.7071067811865476 0\n" + "0 0\n" * 6 + "0.7071067811865476 0\n"


def _report(num: int, desc: str, ok: bool, detail: str):
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'}: {desc} ({detail})")
    assert ok, f"criterion {num}: {desc}: {detail}"


def test_criterion_1_general_three_cz_bound():
    n = 10000
    worst_fid = 1.0
    worst_cz = 0
    for i in range(n):
        rep = disentangle3(random_state((1001, i)))
        worst_fid = min(worst_fid, rep.fidelity)
        worst_cz = max(worst_cz, rep.cz_count)
    ok = worst_cz <= 3 and worst_fid >= 1 - 1e-9
    _report(
        1,
        f"{n} random complex states, cz<=3, fidelity>=1-1e-9",
        ok,
        f"max cz {worst_cz}, min fidelity {worst_fid:.17g}",
    )


def test_criterion_2_real_four_cz_bound():
    n = 10000
    worst_fid = 1.0
    worst_cz = 0
    worst_cz_nonneg = 0
    worst_imag = 0.0
    for i in range(n):
        s = random_state((1002, i), real_only=True)
        d = delta(s)
        rep = disentangle3_real(s)
        worst_fid = min(worst_fid, rep.fidelity)
        worst_cz = max(worst_cz, rep.cz_count)
        worst_imag = max(worst_imag, rep.circuit.max_local_imag())
        if d >= 0:
            worst_cz_nonneg = max(worst_cz_nonneg, rep.cz_count)
    # the paper's bound is 4; the package's is 3 for either sign of delta
    ok = (
        worst_cz <= 3
        and worst_cz_nonneg <= 3
        and worst_imag <= 1e-10
        and worst_fid >= 1 - 1e-9
    )
    _report(
        2,
        f"{n} random real states, cz<=3 (the paper's bound is 4), real gates",
        ok,
        f"max cz {worst_cz}, max cz|delta>=0 {worst_cz_nonneg}, "
        f"max gate imag {worst_imag:.3g}, min fidelity {worst_fid:.17g}",
    )


def test_criterion_3_delta_spot_values():
    d_ghz = delta(GHZ)
    d_neg = delta(DELTA_NEG)
    ok = abs(d_ghz - 0.25) <= 1e-15 and abs(d_neg + 0.25) <= 1e-15
    _report(3, "delta(GHZ)=0.25 and delta(test vector)=-0.25 to 1e-15", ok,
            f"got {d_ghz!r} and {d_neg!r}")


def test_criterion_4_algebra_property_suites():
    rng = np.random.default_rng(1004)
    worst = {"proportionalrows": 0.0, "twomatrices": 0.0, "rightfactor": 0.0, "blockrules": 0.0}

    for _ in range(1000):
        a = random_nonsingular(rng, real=bool(rng.integers(2)))
        k = r1_ratio(a)
        w = a @ r1(a)
        res = max(abs(w.c - k * w.a), abs(w.d + k * w.b)) / a.frobenius()
        worst["proportionalrows"] = max(worst["proportionalrows"], res)

    for idx in range(1000):
        b = random_rank1(rng, zero_first_row=idx % 5 == 0)
        alpha = complex(rng.standard_normal() + 1j * rng.standard_normal())
        u = r2(b)
        all_rows = list(rows(Mat2(alpha, 0, 0, 0) @ u)) + list(rows(b @ u @ Z))
        worst["twomatrices"] = max(worst["twomatrices"], max_row_minor(all_rows))

    for i in range(1000):
        pair = random_state2((1004, i))
        single = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        single /= np.linalg.norm(single)
        s = PureState3(np.kron(pair.amps, single))
        fac = factor_right(s)
        if fac is None:
            worst["rightfactor"] = math.inf
            continue
        err = float(np.max(np.abs(np.kron(fac.pair.amps, fac.single) - s.amps)))
        worst["rightfactor"] = max(worst["rightfactor"], err)

    for i in range(1000):
        s = random_state((1005, i))
        if i % 2:
            gate = LocalGate(int(rng.integers(3)), random_unitary2(rng))
        else:
            pairs = [(0, 1), (0, 2), (1, 2)]
            gate = CZGate(*pairs[rng.integers(3)])
        got = apply_gate(gate, s).amps
        want = gate_unitary(3, gate) @ s.amps
        worst["blockrules"] = max(worst["blockrules"], float(np.max(np.abs(got - want))))

    ok = all(v <= 1e-10 for v in worst.values())
    _report(4, "algebra property suites on 1000 seeded instances each, residual<=1e-10", ok,
            ", ".join(f"{k} {v:.3g}" for k, v in worst.items()))


def test_criterion_5_two_qubit_synthesis():
    worst_fid = 1.0
    cz_entangled = set()
    cz_product = set()
    for i in range(1000):
        rep = disentangle2(random_state2((1006, i)))
        cz_entangled.add(rep.cz_count)
        worst_fid = min(worst_fid, rep.fidelity)
    rng = np.random.default_rng(1007)
    for _ in range(1000):
        a = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        b = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        s = PureState2(np.kron(a / np.linalg.norm(a), b / np.linalg.norm(b)))
        rep = disentangle2(s)
        cz_product.add(rep.cz_count)
        worst_fid = min(worst_fid, rep.fidelity)
    ok = cz_entangled == {1} and cz_product == {0} and worst_fid >= 1 - 1e-10
    _report(5, "2-qubit: products 0 CZ, 1000 entangled exactly 1 CZ", ok,
            f"entangled cz {sorted(cz_entangled)}, product cz {sorted(cz_product)}, "
            f"min fidelity {worst_fid:.17g}")


def test_criterion_6_branch_reductions():
    ok = True
    details = []

    # |1> x (2-qubit) --> at most one CZ, branch named
    worst = 0
    for i in range(200):
        pair = random_state2((1008, i))
        rep = disentangle3(PureState3(np.concatenate([np.zeros(4), pair.amps])))
        worst = max(worst, rep.cz_count)
        ok = ok and rep.cz_count <= 1 and "A1=0" in rep.branch_trace
    details.append(f"|1>x2q max cz {worst}")

    # both blocks singular, a chain with qubit 2 in the middle --> the
    # finisher on qubit 2, two CZ in 7 gates; with a shared row (qubit 1
    # factors out, the forms of qubits 0 and 2 zero) --> the finisher on
    # qubit 0 skips cz01, one CZ in 5 gates, one fewer than the flow, which
    # skips step 4
    rng = np.random.default_rng(1009)
    worst = 0
    for _ in range(200):
        a = random_rank1(rng)
        for b, route, cz, gates in [(random_rank1(rng), "chain2", 2, 7), (a @ random_nonsingular(rng), "skip-cz01", 1, 5)]:
            amps = np.array(tuple(a) + tuple(b))
            rep = disentangle3(PureState3(amps / np.linalg.norm(amps)))
            worst = max(worst, rep.cz_count)
            ok = ok and (rep.cz_count, len(rep.circuit.gates)) == (cz, gates) and route in rep.branch_trace
    details.append(f"singular-blocks max cz {worst}")

    # top block a lone corner entry, bottom block with a zero upper-right
    # entry: both blocks of qubit 1 are singular, a chain with qubit 1 in
    # the middle --> the flow, whose finisher skips cz02, two CZ in 7 gates,
    # a tie with the finisher on qubit 1 that the flow takes; with qubit 0
    # factored out instead --> the finisher on qubit 1 skips cz01, one CZ in
    # 5 gates, one fewer than the flow
    worst = 0
    count = 0
    while count < 200:
        alpha = complex(rng.standard_normal() + 1j * rng.standard_normal())
        b11, b21, b22 = (rng.standard_normal(3) + 1j * rng.standard_normal(3)).tolist()
        bottom = Mat2(b11, 0, b21, b22)
        if abs(bottom.det()) < 0.05:
            continue
        count += 1
        a = random_rank1(rng)
        runs = [(Mat2(alpha, 0, 0, 0), bottom, "skip-cz02", 2, 7), (a, random_nonsingular(rng) @ a, "skip-cz01", 1, 5)]
        for top, bottom, route, cz, gates in runs:
            amps = np.array(tuple(top) + tuple(bottom))
            rep = disentangle3(PureState3(amps / np.linalg.norm(amps)))
            worst = max(worst, rep.cz_count)
            ok = ok and (rep.cz_count, len(rep.circuit.gates)) == (cz, gates) and route in rep.branch_trace
    details.append(f"zero-column max cz {worst}")

    _report(6, "branch reductions reach their CZ bounds with named branches", ok,
            "; ".join(details))


def test_criterion_7_preparation_round_trip():
    worst = 1.0
    for i in range(1000):
        s = random_state((1010, i))
        rep = prepare(s)
        out = apply_circuit(rep.circuit, basis_state(3, 0))
        worst = min(worst, float(abs(np.vdot(s.amps, out.amps))))
    for i in range(1000):
        s = random_state((1011, i), real_only=True)
        rep = prepare(s, mode="real")
        out = apply_circuit(rep.circuit, basis_state(3, 0))
        worst = min(worst, float(abs(np.vdot(s.amps, out.amps))))
    ok = worst >= 1 - 1e-9
    _report(7, "1000 preparation round-trips per mode, overlap>=1-1e-9", ok,
            f"min overlap {worst:.17g}")


def test_criterion_8_determinism_and_serialization(tmp_path, capsys):
    path = tmp_path / "ghz.txt"
    path.write_text(GHZ_FILE, encoding="utf-8")

    outputs = []
    for _ in range(2):
        code = main(["synth", str(path), "--verify", "--ry"])
        outputs.append(capsys.readouterr().out.encode())
        assert code == 0
    synth_same = outputs[0] == outputs[1]

    outputs = []
    for _ in range(2):
        code = main(["sweep", "--n", "40", "--seed", "9", "--real", "--machine"])
        outputs.append(capsys.readouterr().out.encode())
        assert code == 0
    sweep_same = outputs[0] == outputs[1]

    worst = 0.0
    for i in range(200):
        s = random_state((1012, i))
        rep = disentangle3(s)
        parsed = parse_circuit(emit_circuit(rep.circuit, include_ry=rep.all_real))
        direct = apply_circuit(rep.circuit, s)
        replayed = apply_circuit(parsed, s)
        worst = max(worst, float(np.max(np.abs(direct.amps - replayed.amps))))
    roundtrip_ok = worst <= 1e-12

    ok = synth_same and sweep_same and roundtrip_ok
    _report(8, "byte-identical CLI reruns; circuit files replay the same state", ok,
            f"synth identical {synth_same}, sweep identical {sweep_same}, "
            f"max replay deviation {worst:.3g}")
