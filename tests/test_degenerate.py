"""Near-degenerate inputs: every zero/singular decision sits close to its threshold.

Six seeded families of 3-qubit states, each perturbed by eps log-uniform in
[1e-16, 1e-2], go through disentangle3 and, for real inputs, through
disentangle3_real. Every success must meet the guarantee table, checked with
the dense oracle and a discriminant computed here; every failure must be a
Qprep3Error.

A seventh family, built exactly (unperturbed) as C|000> from a random circuit
of local gates and k CZ, must never fail, and in general mode must get the
fewest CZ that prepare it (the cz_min oracle). So must every state whose
amplitudes are drawn exactly from a few values, on every support.

In every family, and for Haar states, no emitted circuit may hold two local
gates on one wire without a CZ on that wire between them (the synthesis fuses
them into one).
"""
import math
import random
from collections import Counter

import numpy as np
import pytest

from _oracles import cz_min, cz_unitary, dense_apply, w_under_locals
from qprep3.circuit import apply_circuit
from qprep3.errors import Qprep3Error, SynthesisInvariantError
from qprep3.state import PureState3
from qprep3.synth import disentangle3, disentangle3_real

FAMILIES = ["rot_000_111", "noise_000", "ghz_w", "one_pair", "rot_product", "real_delta0"]
# families that may not fail at all
MUST_SUCCEED = set(FAMILIES)
PER_FAMILY = 100
CIRCUIT_BUILT_PER_K = 100

GHZ = np.array([1, 0, 0, 0, 0, 0, 0, 1]) / math.sqrt(2.0)
W = np.array([0, 1, 1, 0, 1, 0, 0, 0]) / math.sqrt(3.0)


def _unit(v):
    return v / np.linalg.norm(v)


def _vector(rng, n, real):
    v = rng.standard_normal(n).astype(np.complex128)
    if not real:
        v += 1j * rng.standard_normal(n)
    return _unit(v)


def _kron3(g2, g1, g0, v):
    return np.kron(g2, np.kron(g1, g0)) @ v


def _local_unitary(rng, real):
    if real:
        t = rng.uniform(0.0, 2.0 * math.pi)
        return np.array([[math.cos(t), -math.sin(t)], [math.sin(t), math.cos(t)]])
    x, y = _vector(rng, 2, False)
    return np.array([[x, y], [-y.conjugate(), x.conjugate()]])


def _real_sl2(rng):
    g = rng.standard_normal((2, 2))
    if np.linalg.det(g) < 0.0:
        g[0] = -g[0]
    return g / math.sqrt(np.linalg.det(g))


def _instance(rng, i):
    family = FAMILIES[i % len(FAMILIES)]
    eps = 10.0 ** rng.uniform(-16.0, -2.0)
    real = family == "real_delta0" or bool(rng.integers(2))
    noise = _vector(rng, 8, real)
    if family == "rot_000_111":
        base = np.zeros(8, dtype=np.complex128)
        base[0], base[7] = 1.0, eps
        g = [_local_unitary(rng, real) for _ in range(3)]
        return family, real, _unit(_kron3(*g, base))
    if family == "noise_000":
        base = np.zeros(8, dtype=np.complex128)
        base[0] = 1.0
    elif family == "ghz_w":
        base = GHZ if (i // len(FAMILIES)) % 2 else W
    elif family == "one_pair":
        base = np.zeros(8, dtype=np.complex128)
        base[4:] = _vector(rng, 4, real)
    elif family == "rot_product":
        base = np.kron(_vector(rng, 2, real), np.kron(_vector(rng, 2, real), _vector(rng, 2, real)))
    else:
        # W under real SL(2)^3 stays on the delta = 0 hypersurface
        base = _unit(_kron3(_real_sl2(rng), _real_sl2(rng), _real_sl2(rng), W))
    return family, real, _unit(base + eps * noise)


def _delta(v):
    w = v.real
    s1 = w[0] * w[7] - w[1] * w[6] - w[2] * w[5] + w[3] * w[4]
    return s1 * s1 - 4.0 * (w[1] * w[2] - w[0] * w[3]) * (w[5] * w[6] - w[4] * w[7])


def _unfused_pair(gates):
    """(j, k) for the first local gate k whose wire's last gate before it, j,
    is a local gate too (no CZ on the wire between them), or None."""
    last = {}  # wire -> index of the last gate on it so far
    for k, g in enumerate(gates):
        if hasattr(g, "matrix"):
            j = last.get(g.qubit)
            if j is not None and hasattr(gates[j], "matrix"):
                return j, k
            last[g.qubit] = k
        else:
            last[g.i] = last[g.j] = k
    return None


def _violation(rep, v, mode):
    """The guarantee-table entry rep breaks for input v, or a fusable gate pair, or None."""
    pair = _unfused_pair(rep.circuit.gates)
    if pair is not None:
        return "gates %d and %d are local on one wire with no CZ on it between them" % pair
    if abs(dense_apply(rep.circuit, v)[0]) < 1.0 - 1e-9:
        return "fidelity"
    if rep.cz_count > 3:
        return f"cz {rep.cz_count} > 3"
    if mode == "real" and any(abs(e.imag) > 1e-10 for g in rep.circuit.gates if hasattr(g, "matrix") for e in g.matrix):
        return "non-real gate"
    return None


def _run_all():
    rng = np.random.default_rng(20261018)
    # (family, mode, index, raised exception, guarantee violation, CZ above cz_min)
    outcomes = []
    for i in range(PER_FAMILY * len(FAMILIES)):
        family, real, v = _instance(rng, i)
        s = PureState3(v)
        for mode, synth in [("general", disentangle3)] + ([("real", disentangle3_real)] if real else []):
            try:
                rep = synth(s)
            except Exception as exc:  # classified by the tests below
                outcomes.append((family, mode, i, exc, None, None))
            else:
                outcomes.append((family, mode, i, None, _violation(rep, v, mode), rep.cz_count - cz_min(v)))
    return outcomes


@pytest.fixture(scope="module")
def outcomes():
    return _run_all()


def test_every_family_and_mode_is_covered(outcomes):
    seen = Counter((family, mode) for family, mode, *_ in outcomes)
    for family in FAMILIES:
        assert seen[(family, "general")] == PER_FAMILY
        assert seen[(family, "real")] >= PER_FAMILY // 4


def test_successes_meet_the_guarantee_table(outcomes):
    assert [(f, m, i, bad) for f, m, i, _, bad, _ in outcomes if bad is not None] == []


def test_failures_are_typed_and_rare(outcomes):
    failed = [exc for _, _, _, exc, *_ in outcomes if exc is not None]
    assert [repr(exc) for exc in failed if not isinstance(exc, Qprep3Error)] == []
    assert len(failed) <= len(outcomes) // 50


def test_fixed_families_never_fail(outcomes):
    failed = [(f, m, i, repr(exc)) for f, m, i, exc, *_ in outcomes if exc is not None and f in MUST_SUCCEED]
    assert failed == []


def test_cz_counts_are_minimal_to_within_the_fidelity_floor(outcomes):
    # branch decisions at EPS_ZERO treat a residual that the fidelity floor
    # would let the circuit skip as zero; at 1e-10 they took it for structure,
    # and 45 of 600 general and 43 of 338 real runs got more CZ than cz_min.
    # Every chain middle now goes to the finisher first, so no run is above
    for mode in ("general", "real"):
        runs = [excess for _, m, _, _, _, excess in outcomes if m == mode]
        above = [excess for excess in runs if excess is not None and excess > 0]
        assert above == [], (mode, len(above), len(runs))


def _circuit_built(rng, k, real):
    """C|000>: locals on all three qubits, then k rounds of CZ on a random pair
    followed by fresh locals, applied as dense matrices."""
    v = np.zeros(8, dtype=np.complex128)
    v[0] = 1.0
    v = _kron3(*[_local_unitary(rng, real) for _ in range(3)], v)
    for _ in range(k):
        i, j = sorted(int(q) for q in rng.choice(3, size=2, replace=False))
        v = _kron3(*[_local_unitary(rng, real) for _ in range(3)], cz_unitary(3, i, j) @ v)
    return v


def test_circuit_built_states_never_fail():
    # with one CZ on (0, 1), A0 and B0 are both multiples of one matrix, so the
    # step-1 pencil has a double root that rounding must not split. Every
    # count lies in the band from the loose cz_min (chain gap 1e-4 relative
    # or 1e-5 absolute) up to the strict one in general mode, a chain with
    # its middle on qubit 0 included, and up to the generating count k in
    # real mode
    rng = np.random.default_rng(20261019)
    bad = []
    for mode, synth, max_k in [("general", disentangle3, 3), ("real", disentangle3_real, 4)]:
        for k in range(max_k + 1):
            for n in range(CIRCUIT_BUILT_PER_K):
                v = _circuit_built(rng, k, mode == "real")
                try:
                    rep = synth(PureState3(v))
                except Qprep3Error as exc:
                    bad.append((mode, k, n, repr(exc)))
                    continue
                problem = _violation(rep, v, mode)
                lo, hi = cz_min(v, chain_gap=1e-4, gap_abs=1e-5), cz_min(v) if mode == "general" else k
                if problem is None and not lo <= rep.cz_count <= hi:
                    problem = f"cz {rep.cz_count}, band {lo}..{hi}"
                if problem is not None:
                    bad.append((mode, k, n, problem))
    assert bad == []


# draw 578 of _circuit_built(np.random.default_rng(11), 3, True), after 1,000
# real draws each for k = 1 and k = 2: qubit 0's singular-value gap is 1.4e-6,
# 2.9e-5 relative, a near-gap qubit to the route's screen but not a chain
# middle to the strict cz_min
NEAR_CHAIN_REAL_3_CZ = [
    0.03575747605452102, 0.0926178884663912, -0.5546482824904772, 0.432831832978515,
    -0.01833550544162215, 0.11974810669514323, -0.05574261980794814, 0.6909284892469951,
]
# draw 36 of _circuit_built(np.random.default_rng(20261019), 4, True), the
# draws of test_circuit_built_states_never_fail: qubit 2's form has singular
# values 6.318e-4 and 6.292e-4, a gap of 2.7e-6 but 4.2e-3 relative, so only
# the loose cz_min's absolute gap calls it a chain middle
SMALL_FORM_REAL_4_CZ = [
    0.03332051631052247, -0.1744484662429486, -0.033228686643882829, 0.16937047688573781,
    -0.38744505826298115, 0.59213483502163866, 0.36215450187067505, -0.55387160291713688,
]


def test_circuit_built_band_admits_a_chain_inside_the_gap():
    # the strict cz_min says 3 where both modes give 2, within the fidelity
    # floor: only the band's loose end accepts the count, the second state
    # by its absolute gap alone
    cases = [(NEAR_CHAIN_REAL_3_CZ, 2, "chain0", "cz01", "cz02"), (SMALL_FORM_REAL_4_CZ, 3, "chain2", "cz02", "cz12")]
    for row, relative, *tail in cases:
        v = np.array(row, dtype=np.complex128)
        assert (cz_min(v, chain_gap=1e-4), cz_min(v, chain_gap=1e-4, gap_abs=1e-5), cz_min(v)) == (relative, 2, 3)
        for synth in (disentangle3, disentangle3_real):
            rep = synth(PureState3(v))
            assert rep.cz_count == 2
            assert rep.branch_trace[-3:] == tuple(tail)
            assert _violation(rep, v, "real" if synth is disentangle3_real else "general") is None


EXACT_VALUES = (1, -1, 1j, 0.5, 2)


@pytest.mark.parametrize("seed", [5, 6, 7])
def test_exact_amplitude_patterns_never_fail(seed):
    # exact zeros and ties put decisions exactly on their thresholds. Here a
    # step-4 gate of -I fused into the paper's step-3 gate, and dropping its
    # inverse negated the tracked state (2, 1 and 6 runs by seed failed step
    # 4's top-block check); the tracked state now follows the gates as
    # asked, whatever fuses. General mode must reach cz_min, real mode 3 CZ
    rng = random.Random(seed)
    bad = []
    for support in range(1, 256):
        for n in range(2):
            v = np.array([rng.choice(EXACT_VALUES) if support >> k & 1 else 0 for k in range(8)], dtype=np.complex128)
            v /= np.linalg.norm(v)
            least = cz_min(v)
            for mode, synth, bound in [("general", disentangle3, least), ("real", disentangle3_real, 3)]:
                if mode == "real" and v.imag.any():
                    continue
                try:
                    rep = synth(PureState3(v))
                except Qprep3Error as exc:
                    bad.append((support, n, mode, repr(exc)))
                    continue
                if rep.cz_count > bound or abs(dense_apply(rep.circuit, v)[0]) < 1.0 - 1e-9:
                    bad.append((support, n, mode, rep.cz_count, least, rep.branch_trace))
    assert bad == []


def test_real_states_built_with_3_cz_get_at_most_3():
    # real mode used to give 4 CZ to about one in seven of these
    rng = np.random.default_rng(20261021)
    bad = []
    for n in range(200):
        v = _circuit_built(rng, 3, real=True)
        rep = disentangle3_real(PureState3(v))
        if rep.cz_count > 3 or abs(dense_apply(rep.circuit, v)[0]) < 1.0 - 1e-9:
            bad.append((n, rep.cz_count, rep.branch_trace))
    assert bad == []


# _circuit_built(rng, 2, real=True) of rng = np.random.default_rng(5), by
# index among the first 7,311 draws, at 17 significant digits: as complex128
# arrays these are bit-equal to the generated vectors
PINNED_REAL_2_CZ_CHAINS = {
    17: [
        -0.35217785005055779, 0.67003403578707665, -0.014323367030008083, 0.3108424131970513,
        0.24726945463489752, -0.47044526467862285, 0.01006163798857608, -0.21825402933832544,
    ],
    2875: [
        0.14463842447859049, 0.53686127683575191, -0.60108642619741615, 0.50877408545865788,
        0.039919777994511706, 0.14808548831954216, -0.16580943943941701, 0.14031415848865633,
    ],
    2922: [
        -0.63994720834982022, 0.39876041991114797, -0.40310034405930084, -0.41269689302832868,
        0.21173403548876221, -0.13190831593804628, 0.13336055838592661, 0.13650253115096544,
    ],
    4025: [
        -0.017590675764146163, -0.19820940646960197, 0.13312355873616755, 0.48169432759579289,
        -0.027635642285134245, -0.31041545200143011, 0.2086171752235608, 0.7549898574289341,
    ],
    7310: [
        0.50195742047635494, 0.23420870429879961, -0.091798952163802489, -0.055164832859347285,
        0.73462605979177253, 0.34278313246720071, -0.13430305999699244, -0.080633671024346709,
    ],
}


def test_real_mode_reaches_cz_min_on_pinned_2_cz_chains():
    # each of these real 2-CZ chains lies near a 1-CZ state; with branch
    # decisions at 1e-10 real mode missed the chain and gave them 3 CZ
    got = []
    for n, row in PINNED_REAL_2_CZ_CHAINS.items():
        v = np.array(row, dtype=np.complex128)
        if cz_min(v) != 2:
            pytest.fail(f"state {n} is no longer a 2-CZ chain: cz_min {cz_min(v)}")
        got.append(disentangle3_real(PureState3(v)).cz_count)
    assert got == [2] * 5


# the real near-W states of the near-degenerate benchmark fuzz
# (perfbench/workloads.py, _near_degenerate_instance with rng [seed, 3]) by
# (seed, index), at 17 significant digits, on which the chain prefix leaves
# the bottom block singular. As complex128 arrays they are bit-equal to the
# generated vectors
PINNED_NEAR_W = {
    (2, 2888): [
        4.3282624400187049e-06, 0.5773482608225935, 0.57734946498648798, 1.1748159636950964e-06,
        0.57735308169618771, 9.8293531350405981e-07, 2.1250823813147593e-06, -5.9381505873152951e-06,
    ],
    (3, 1244): [
        -3.1302228024865023e-06, 0.57735321856596011, 0.57734674347514381, 6.4322138785316052e-06,
        0.57735084535416092, 3.2050893543537102e-07, -7.8308654566938927e-06, -8.1493679558672552e-06,
    ],
    (3, 2288): [
        -6.4227889289166106e-07, 0.57735054982688672, 0.57735013423873682, 7.2508683705061155e-07,
        0.57735012339392222, -2.7995520562182139e-07, -5.4634444229830618e-06, -9.7601789173837667e-06,
    ],
    (4, 2804): [
        1.1727185220242157e-06, 0.57735168220016453, 0.57734911671809819, 7.201444817461511e-07,
        0.57735000864329999, -8.4777980488576688e-07, 1.1159201891809417e-06, -1.0934484313077963e-06,
    ],
    (6, 1148): [
        -2.6733124335679856e-06, 0.57735088665394152, 0.57734850658677705, -3.4865738893002444e-07,
        0.57735141430099557, 4.0979234997815372e-07, -1.7892220263341115e-06, -3.991036092364361e-06,
    ],
    (8, 272): [
        3.0765004828343672e-06, 0.57735013871401697, 0.57735001919344964, -1.130094347712189e-06,
        0.57735064964902627, -4.2365103676899518e-07, -1.7574921094131494e-06, -2.56873227783287e-07,
    ],
    (8, 884): [
        -4.550560503785178e-06, 0.57734985913613557, 0.57734513447641411, -7.3861234029924751e-08,
        0.57735581387664769, -7.7149347490233804e-07, 1.160546784783043e-06, -3.474792145531392e-06,
    ],
    (8, 2204): [
        -2.1298221212950106e-07, 0.57735059932646138, 0.57735120062779, 1.0635143688914606e-06,
        0.57734900760969243, 6.8805395598423711e-07, -1.1843297613876663e-06, -2.7586236122917908e-07,
    ],
    (9, 284): [
        2.0554510487632355e-06, 0.57735335299432722, 0.57733376336445064, -1.7865824412398326e-05,
        0.57736368709680808, -8.126242840320105e-07, -2.9668740134053923e-05, -5.5527653085832239e-05,
    ],
    (9, 488): [
        1.1632041786038378e-06, 0.57734919324923828, 0.5773511246670191, 1.0224314475483557e-07,
        0.57735048964183289, -3.6925634773716208e-07, 2.7677312741022516e-06, -1.165213624912574e-06,
    ],
    (12, 320): [
        2.3735954690165663e-06, 0.57735486821437332, 0.57734648874121042, -1.4410763288600449e-05,
        0.57734945027875662, -7.4809038984920797e-07, -1.1439502142579049e-05, -2.3346766606007648e-06,
    ],
    (12, 860): [
        -4.4509802040624807e-07, 0.57735141199194229, 0.57734927356956744, 5.8348372166662873e-07,
        0.57735012200315916, 4.5680898081224507e-07, -1.2450488759465558e-06, -4.932536515436265e-07,
    ],
    (12, 2480): [
        2.4134605059179788e-06, 0.57734455377162452, 0.57735752395459849, -1.7216441383673421e-06,
        0.57734872962305828, -3.8881239171211764e-07, 5.1050082544372866e-06, -1.1441094953795499e-05,
    ],
    (13, 2552): [
        -2.2383693090712096e-06, 0.57734796460080617, 0.57735101186357862, 6.7628540050181288e-07,
        0.57735183108084587, -7.1867780574813164e-07, -3.5544632465197969e-06, -6.1981604977197287e-07,
    ],
    (14, 1904): [
        -1.0225537738377371e-06, 0.57735081144481804, 0.57735062533216652, 1.4249480425137368e-06,
        0.57734937078306992, -8.9283636923363144e-07, -1.5563954526924785e-06, -1.6322233976583249e-06,
    ],
    (19, 8): [
        6.0183016846793494e-06, 0.57734599269056575, 0.57735114311948843, -5.7176286345413078e-06,
        0.577353671662867, -7.826862410266952e-07, -2.6580252023625898e-06, -1.8928358114411713e-06,
    ],
    (19, 2684): [
        2.5977760347623487e-06, 0.5772805471457757, 0.57747086654619773, 2.2520213602251021e-05,
        0.57729933318243898, -6.6319382618649506e-07, 7.8475211308293762e-05, -0.00020349904534184749,
    ],
}


def test_real_near_w_states_get_3_cz():
    # the flow's block swap would break the chain, so the chain prefix goes
    # straight to the finisher, whose step 1 takes the finite pencil root
    bad = []
    for key, row in PINNED_NEAR_W.items():
        v = np.array(row, dtype=np.complex128)
        assert _delta(v) < 0.0, key
        rep = disentangle3_real(PureState3(v))
        problem = _violation(rep, v, "real")
        if problem is None and not rep.cz_count == cz_min(v) == 3:
            problem = f"cz {rep.cz_count}, cz_min {cz_min(v)}"
        if problem is None and rep.branch_trace[:2] != ("chain01", "chain1"):
            problem = "trace"
        if problem is not None:
            bad.append((key, problem, rep.branch_trace))
    assert bad == []


# a real state about 1.6e-6 from one where qubit 2 factors out (Schmidt
# coefficients 1 and 1.6e-6), with delta -2.1e-12, just past DELTA_ZERO_BAND.
# When the flow ran after the chain prefix, it missed the chain the prefix
# made and spent 4 CZ on it
REAL_NEAR_QUBIT2_FACTOR = [
    0.15386960974868619, 0.097535621950442575, -0.11818301501765617, 0.05765158856494771,
    -0.66734096640847507, -0.42301171469108745, 0.51255933452073088, -0.25004013143208798,
]


def test_real_state_near_a_qubit_2_factor_gets_at_most_3_cz():
    v = np.array(REAL_NEAR_QUBIT2_FACTOR, dtype=np.complex128)
    rep = disentangle3_real(PureState3(v))
    assert _violation(rep, v, "real") is None


def test_general_mode_gets_at_most_3_cz_near_a_qubit_2_factor():
    v = np.array(REAL_NEAR_QUBIT2_FACTOR, dtype=np.complex128)
    rep = disentangle3(PureState3(v))
    assert _violation(rep, v, "general") is None


def _near_lone_factor(rng, i):
    """A real (x0|0> + x1|1>) on the lone qubit i % 3, times a real 2-qubit
    state y on the other two (rows the higher of them), plus eps * noise,
    normalized; drawn as eps, x, y, noise."""
    eps = 10.0 ** rng.uniform(-7.5, -4.0)
    x = _unit(rng.normal(size=2))
    y = _unit(rng.normal(size=4)).reshape(2, 2)
    noise = rng.normal(size=8)
    lone = i % 3
    hi, lo = [q for q in (2, 1, 0) if q != lone]
    v = np.array([x[(k >> lone) & 1] * y[(k >> hi) & 1, (k >> lo) & 1] for k in range(8)])
    return _unit(v + eps * noise).astype(np.complex128)


@pytest.mark.parametrize("seed", [5, 6, 7])
def test_real_states_near_a_lone_qubit_factor_get_at_most_3_cz(seed):
    # near a qubit-2 factor, delta ~ -eps^2 lies just past DELTA_ZERO_BAND,
    # and the flow after the chain prefix used to spend 4 CZ on 9 of these
    # 9,000 draws (4, 3 and 2 by seed), each with the lone qubit 2
    rng = np.random.default_rng(seed)
    bad = []
    for i in range(3000):
        v = _near_lone_factor(rng, i)
        try:
            rep = disentangle3_real(PureState3(v))
        except Qprep3Error as exc:
            bad.append((i, repr(exc)))
            continue
        if rep.cz_count > 3 or abs(dense_apply(rep.circuit, v)[0]) < 1.0 - 1e-9:
            bad.append((i, rep.cz_count, rep.branch_trace))
    assert bad == []


def test_haar_circuits_have_3_cz_and_10_gates():
    # a generic state of either mode, and in real mode of either sign of
    # delta, takes the chain prefix (its gate on qubit 1, cz01) and the
    # finisher on qubit 1 (root gate, two bisectors, cz01, cz12, one local
    # per wire): 10 gates, the floor for 3 CZ
    rng = np.random.default_rng(20261020)
    sizes = Counter()
    for n in range(300):
        real = n % 2 == 1
        v = _vector(rng, 8, real)
        mode, synth = ("real", disentangle3_real) if real else ("general", disentangle3)
        rep = synth(PureState3(v))
        assert _violation(rep, v, mode) is None
        sizes[mode, real and _delta(v) < 0.0, rep.cz_count, len(rep.circuit.gates)] += 1
    assert set(sizes) == {("general", False, 3, 10), ("real", False, 3, 10), ("real", True, 3, 10)}
    assert min(sizes.values()) >= 20


# real states on which the chain prefix gives 3 CZ and the flow 2, as
# (family, seed, index): near-degenerate benchmark fuzz draws
# (perfbench/workloads.py, _near_degenerate_instance with rng [seed, 3]) and
# the circuit-built draw of k = 2 after 1,000 each of k = 0 and 1
# (_circuit_built with np.random.default_rng(11)), at 17 significant digits
PINNED_FLOW_FIRST = {
    # delta 6.3e-6 and 8.2e-6 (the largest of the fuzz, seeds 1-30), then
    # 8.1e-9: near states that need fewer CZ, where the route's screen runs
    # the flow beside the chain prefix
    ("noise_000", 4, 2653): [
        0.9999779843886502, 0.0032200627500412167, 0.0004144747874728398, 0.004026664513001827,
        -0.0002422546650373809, 1.287054301274886e-05, 0.0033179728562032344, -0.002491650176208412,
    ],
    ("noise_000", 7, 1039): [
        0.9999930358300433, 0.00025424182848199047, -8.749437218693086e-05, -0.0023510170531639792,
        0.00039168725189359517, 4.6850654366857386e-07, -0.00013544028424406363, 0.002856037966002015,
    ],
    ("rot_product", 21, 2524): [
        -0.23575926480926518, -0.17081621663484015, -0.1314189316128857, -0.09509821680808443,
        0.6670815418194794, 0.48304378493648714, 0.3716720285507616, 0.2691757870904161,
    ],
    # delta 0.25, a GHZ near-chain with qubit 2 in the middle
    ("ghz_w", 4, 2546): [
        0.707355086034254, -0.0001530621837391997, 0.00018851368691015323, 0.00017100315324851333,
        -0.00017192850395187628, -1.238581252495081e-05, 0.0002511163237074139, 0.7068582610974604,
    ],
    # delta 5.0e-3, a chain with qubit 1 in the middle
    ("circuit_built", 11, 2000): [
        -0.3284859395006481, -0.750506538161115, 0.07547447978510793, 0.22796516075491058,
        -0.17604572828127943, -0.4605687733862721, 0.12205690055847512, 0.11471195086994049,
    ],
}


def test_real_mode_runs_the_flow_where_it_finds_fewer_cz():
    # the chain prefix spends cz01 on every state, so near a degenerate
    # split form real mode runs the flow too, whose skips give these 2 CZ,
    # and the finisher on each near-gap qubit, which ends the last one in
    # fewer gates than the flow; with the prefix alone these get 3 CZ
    want = {
        ("noise_000", 4, 2653): ("pencil", "step4", "chain2", "skip-cz02", "cz12"),
        ("noise_000", 7, 1039): ("pencil", "step4", "chain2", "skip-cz02", "cz12"),
        ("rot_product", 21, 2524): ("pencil", "skip-step4", "chain2", "cz02", "cz12"),
        ("ghz_w", 4, 2546): ("pencil", "skip-step4", "chain2", "cz02", "cz12"),
        ("circuit_built", 11, 2000): ("chain1", "cz01", "cz12"),
    }
    bad = []
    for key, row in PINNED_FLOW_FIRST.items():
        v = np.array(row, dtype=np.complex128)
        assert _delta(v) > 1e-12, key
        rep = disentangle3_real(PureState3(v))
        problem = _violation(rep, v, "real")
        if problem is None and (rep.cz_count, rep.branch_trace) != (2, want[key]):
            problem = f"cz {rep.cz_count}"
        if problem is not None:
            bad.append((key, problem, rep.branch_trace))
    assert bad == []


def test_reported_fidelity_is_a_fresh_simulation_of_the_circuit(monkeypatch):
    # inputs whose runs fuse a local gate into an earlier one: the builder
    # tracks the gates as asked, so `finish` checks such a run on a fresh
    # simulation of the gates it emitted, and the report's fidelity is that
    # of the circuit, bit for bit
    import qprep3.synth as synth

    fused = []

    class Recording(synth._Builder):
        def finish(self, max_cz):
            fused.append(self.fused)
            return super().finish(max_cz)

    monkeypatch.setattr(synth, "_Builder", Recording)
    rng = np.random.default_rng(781)
    product = _kron3(*[_local_unitary(rng, False) for _ in range(3)], np.eye(8)[0].astype(np.complex128))
    inputs = [W, w_under_locals(0), w_under_locals(0, real=True), product, np.array([0.5, 0, 0.5, 0, 0, 0.5, 0.5, 0])]
    inputs += [np.array(row) for row in PINNED_FLOW_FIRST.values()]
    bad = []
    for v in inputs:
        s = PureState3(v)
        for synth_fn in (disentangle3, disentangle3_real) if s.max_imag() == 0.0 else (disentangle3,):
            rep = synth_fn(s)
            fresh = abs(apply_circuit(rep.circuit, s).w[0])
            if rep.fidelity != fresh:
                bad.append((synth_fn.__name__, v.tolist(), rep.fidelity, fresh))
    assert bad == []
    assert sum(fused) >= 10


# near-GHZ draws of the near-degenerate benchmark fuzz
# (perfbench/workloads.py, _near_degenerate_instance with rng [seed, 3]) by
# (seed, index), at 17 significant digits: GHZ plus noise of size 1e-5 to
# 1e-4, each a chain with qubit 1 in the middle. The flow, which reached
# them while only qubit 0's chain was tried first, gave them 3 CZ and 11
# gates in both modes. As complex128 arrays they are bit-equal to the
# generated vectors
PINNED_GHZ_CHAINS = {
    (1, 26): [
        0.7071054378081546, 9.7910947436224661e-06, -4.2072517310821705e-06, -9.3093205405682485e-06,
        7.5803465220078919e-06, 4.1585056322068084e-06, 9.7593640511981966e-06, 0.70710812430059666,
    ],
    (3, 2318): [
        0.7071024239538829, 1.6933263374757843e-05, 5.1880506730319073e-06, 1.0240325815490934e-05,
        -5.1399877418045181e-06, -5.3719695110958227e-06, -2.8268439536027899e-05, 0.70711113749229371,
    ],
    (4, 2510): [
        0.70708821428546964, -3.0455151975759105e-07, 3.2006220800359894e-05, 2.5856444902490994e-06,
        -8.3152501057329931e-06, -3.1784430566665186e-05, -1.9255239043244893e-05, 0.70712534584559461,
    ],
    (8, 158): [
        0.70711444266308665, -0.00010975943115150568, 4.5962392991135522e-05, -2.1622612669576836e-05,
        3.9336701063303795e-05, -4.5753495615747783e-05, 4.2873922229470614e-05, 0.70709910540965137,
    ],
    (9, 122): [
        0.7071059591186063, -3.1692173495947575e-06, 8.1165060927722899e-07, 2.0801983143870224e-07,
        2.3242363146820338e-06, -1.0268988924806919e-06, -4.7482989964312407e-06, 0.70710760322542643,
    ],
    (13, 2618): [
        0.70710834007927548, 1.1670145184810895e-05, -1.8718069357573335e-06, -1.1245784453814034e-05,
        1.8079209954668913e-05, 1.9008988782210612e-06, 3.3280642581563861e-06, 0.70710522186066549,
    ],
    (14, 542): [
        0.70711031293248938, 5.5612295372440845e-06, -1.6339788724516881e-06, 3.54409480135092e-06,
        -1.188038330850631e-06, 1.3211394901422328e-06, 1.9532772889819193e-06, 0.70710324938539693,
    ],
    (16, 1802): [
        0.7071051201175973, -6.1036329019530731e-06, 4.2338007662132622e-06, -1.8024555472481382e-06,
        -3.408471219868877e-06, -4.1654969660922228e-06, -3.5477265444731946e-06, 0.70710844218089686,
    ],
    (18, 1022): [
        0.70710506729515243, -3.0329845030106995e-06, -6.5408765924469455e-06, -5.8691652264152608e-06,
        -2.3641993594029383e-06, 6.7264762208899991e-06, -1.4534563801859083e-05, 0.70710849482734994,
    ],
}


@pytest.mark.parametrize("mode", ["general", "real"])
def test_near_ghz_chains_on_qubit_1_get_2_cz(mode):
    synth = disentangle3_real if mode == "real" else disentangle3
    bad = []
    for key, row in PINNED_GHZ_CHAINS.items():
        v = np.array(row, dtype=np.complex128)
        rep = synth(PureState3(v))
        problem = _violation(rep, v, mode)
        if problem is None and not rep.cz_count == cz_min(v) == 2:
            problem = f"cz {rep.cz_count}, cz_min {cz_min(v)}"
        if problem is None and len(rep.circuit.gates) != 8:
            problem = f"{len(rep.circuit.gates)} gates"
        if problem is not None:
            bad.append((key, problem, rep.branch_trace))
    assert bad == []
