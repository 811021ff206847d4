"""State containers, block views, the discriminant, and factorization tests."""
import math

import numpy as np
import pytest

from _oracles import max_row_minor
from qprep3.errors import NotNormalizedError, NotRealError
from qprep3.mat2 import Mat2
from qprep3.state import (
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

ISQ2 = 1.0 / math.sqrt(2.0)


def ghz() -> PureState3:
    return PureState3(np.array([1, 0, 0, 0, 0, 0, 0, 1]) / math.sqrt(2))


def delta_negative_vector() -> PureState3:
    # (|000> - |011> + |101> + |110>) / 2
    return PureState3(np.array([1, 0, 0, -1, 0, 1, 1, 0]) / 2.0)


class TestNormalization:
    def test_rejects_far_from_unit(self):
        with pytest.raises(NotNormalizedError):
            PureState3(np.ones(8) * 0.1)

    def test_renormalizes_nearby(self):
        amps = np.zeros(8, dtype=complex)
        amps[0] = 1.0 + 3e-7
        s = PureState3(amps)
        assert abs(np.linalg.norm(s.amps) - 1.0) <= 1e-12

    def test_exact_input_untouched(self):
        amps = np.zeros(8, dtype=complex)
        amps[3] = 1.0
        s = PureState3(amps)
        assert np.array_equal(s.amps, amps)

    def test_wrong_length(self):
        with pytest.raises(ValueError):
            PureState3(np.array([1.0, 0.0]))

    def test_nan_rejected(self):
        amps = np.zeros(8, dtype=complex)
        amps[0] = complex("nan")
        with pytest.raises(NotNormalizedError):
            PureState3(amps)

    def test_amps_read_only(self):
        s = ghz()
        with pytest.raises(ValueError):
            s.amps[0] = 0.0


class TestBlocks:
    def test_basis_zero(self):
        bp = blocks(basis_state(3, 0))
        assert bp.t0 == Mat2(1, 0, 0, 0)
        assert bp.t1 == Mat2(0, 0, 0, 0)

    def test_ghz(self):
        bp = blocks(ghz())
        assert bp.t0.distance_to(Mat2(ISQ2, 0, 0, 0)) == 0.0
        assert bp.t1.distance_to(Mat2(0, 0, 0, ISQ2)) == 0.0

    def test_basis_101(self):
        bp = blocks(basis_state(3, 0b101))
        assert bp.t0 == Mat2(0, 0, 0, 0)
        assert bp.t1 == Mat2(0, 1, 0, 0)

    def test_blocks_are_slices_of_the_amplitude_cube(self):
        # amplitude i has qubit q at bit q, so the C-order cube's axes are
        # (qubit 2, qubit 1, qubit 0) and T0, T1 are its two qubit-2 slices
        for i in range(1000):
            s = random_state((101, i))
            cube = s.amps.reshape(2, 2, 2)
            for t, want in zip(blocks(s), cube):
                assert np.array_equal(np.array(t).reshape(2, 2), want)


class TestDelta:
    def test_basis_zero(self):
        assert delta(basis_state(3, 0)) == 0.0

    def test_ghz_quarter(self):
        assert abs(delta(ghz()) - 0.25) <= 1e-15

    def test_negative_vector(self):
        assert delta(delta_negative_vector()) == -0.25

    def test_complex_rejected(self):
        amps = np.zeros(8, dtype=complex)
        amps[0] = 1j
        with pytest.raises(NotRealError):
            delta(PureState3(amps))

    def test_global_sign_invariance(self):
        for i in range(200):
            s = random_state((111, i), real_only=True)
            flipped = PureState3(-s.amps)
            assert delta(flipped) == delta(s)


class TestFactorRight:
    def test_bell_times_zero(self):
        s = PureState3(np.array([1, 0, 0, 0, 0, 0, 1, 0]) / math.sqrt(2))
        fac = factor_right(s)
        assert fac is not None
        pair, single = fac
        assert np.allclose(pair.amps, np.array([ISQ2, 0, 0, ISQ2]), atol=1e-15)
        assert abs(single[0] - 1.0) <= 1e-15 and abs(single[1]) <= 1e-15

    def test_ghz_does_not_factor(self):
        assert factor_right(ghz()) is None

    def test_basis_111(self):
        fac = factor_right(basis_state(3, 7))
        assert fac is not None
        pair, single = fac
        assert pair.amps[3] == 1.0
        assert single == (0.0, 1.0)

    def test_products_factor_and_reconstruct(self):
        rng = np.random.default_rng(17)
        for i in range(500):
            real = bool(i % 2)
            pair = random_state2((131, i), real_only=real)
            a = rng.standard_normal(2) + (0 if real else 1j * rng.standard_normal(2))
            a = a / np.linalg.norm(a)
            amps = np.kron(pair.amps, a)
            s = PureState3(amps)
            fac = factor_right(s)
            assert fac is not None
            rebuilt = np.kron(fac.pair.amps, fac.single)
            assert np.max(np.abs(rebuilt - s.amps)) <= 1e-10

    def test_single_factor_phase_convention(self):
        pair = random_state2(7)
        a = np.array([0.6 - 0.3j, 0.5 + 0.55j])
        a /= np.linalg.norm(a)
        fac = factor_right(PureState3(np.kron(pair.amps, a)))
        assert fac is not None
        lead = fac.single[0] if abs(fac.single[0]) > 1e-10 else fac.single[1]
        assert abs(lead.imag) <= 1e-12 and lead.real > 0

    def test_factor_iff_minors_small(self):
        for i in range(300):
            s = random_state((151, i))
            w = s.amps
            rows = [(w[0], w[1]), (w[2], w[3]), (w[4], w[5]), (w[6], w[7])]
            expected = max_row_minor(rows) <= 1e-10
            assert (factor_right(s) is not None) == expected


class TestBasisStateAndOverlap:
    def test_basis_state(self):
        for n in (2, 3):
            for i in range(1 << n):
                assert basis_state(n, i).w == tuple(1 + 0j if k == i else 0j for k in range(1 << n))

    @pytest.mark.parametrize("n, index", [(3, -1), (3, 8), (3, 9), (2, 4), (2, -1), (1, 0), (4, 0)])
    def test_basis_index_out_of_range(self, n, index):
        # -1 used to give the last basis state, 9 a bare IndexError; qubit
        # counts 1 and 4 used to report the amplitude count (2 or 16)
        if n in (2, 3):
            msg = rf"^basis index must be in 0\.\.{(1 << n) - 1}, got {index}$"
        else:
            msg = rf"^qubit count must be 2 or 3, got {n}$"
        with pytest.raises(ValueError, match=msg):
            basis_state(n, index)

    def test_overlap(self):
        assert abs(overlap(ghz(), basis_state(3, 7)) - ISQ2) <= 1e-15
        assert abs(overlap(ghz(), ghz()) - 1.0) <= 1e-15

    def test_overlap_of_different_sizes(self):
        # zip used to pair the first four amplitudes and return 0.671...
        pair = PureState2([0.5, 0.5, 0.5, 0.5])
        with pytest.raises(ValueError, match=r"^overlap needs states of one size, got 2 and 3 qubits$"):
            overlap(pair, random_state(3))
        with pytest.raises(ValueError, match=r"^overlap needs states of one size, got 3 and 2 qubits$"):
            overlap(random_state(3), pair)


class TestRandomState:
    def test_deterministic(self):
        a = random_state(12345)
        b = random_state(12345)
        assert np.array_equal(a.amps, b.amps)

    def test_real_only_exactly_real(self):
        s = random_state(5, real_only=True)
        assert np.all(s.amps.imag == 0.0)

    def test_norms(self):
        for i in range(10000):
            s = random_state((161, i), real_only=bool(i % 2))
            assert abs(np.linalg.norm(s.amps) - 1.0) <= 1e-12

    def test_two_qubit_variant(self):
        s = random_state2(9)
        assert s.amps.shape == (4,)
        assert abs(np.linalg.norm(s.amps) - 1.0) <= 1e-12
