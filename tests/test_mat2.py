"""Formula-level examples and property suites for the 2x2 constructions."""
import math

import numpy as np
import pytest

from _oracles import (
    max_row_minor,
    random_mat2,
    random_nonsingular,
    random_rank1,
    reference_is_singular,
    reference_ry_angle,
    reference_snap_real,
    rows,
    scaled,
    unitarity_defect,
)
from qprep3.errors import (
    BadShapeError,
    NonSingularInputError,
    SingularInputError,
    SingularPencilCoefficientError,
    ZeroMatrixError,
    ZeroPairError,
)
from qprep3.mat2 import (
    EPS_ZERO,
    IDENTITY,
    REAL_SNAP,
    STEP_TOL,
    SWAP_BLOCKS,
    Mat2,
    Z,
    _pencil_form,
    _pencil_root,
    _snap_real,
    is_singular,
    l1,
    r1,
    r1_ratio,
    r2,
    r3,
    row2_norm,
    solve_det_pencil,
    u_from_pair,
)

ISQ2 = 1.0 / math.sqrt(2.0)


def assert_close(m: Mat2, entries, tol=1e-15):
    ref = Mat2(*entries)
    assert m.distance_to(ref) <= tol, f"{m} != {ref}"


class TestUFromPair:
    def test_identity(self):
        assert u_from_pair(1, 0).distance_to(IDENTITY) == 0.0

    def test_antisymmetric(self):
        assert_close(u_from_pair(0, 1), (0, 1, -1, 0), tol=0.0)

    def test_three_four(self):
        assert_close(u_from_pair(3, 4), (0.6, 0.8, -0.8, 0.6))

    def test_zero_pair_rejected(self):
        with pytest.raises(ZeroPairError):
            u_from_pair(0, 0)

    def test_unitary_det_one(self):
        rng = np.random.default_rng(11)
        for _ in range(1000):
            x, y = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            u = u_from_pair(complex(x), complex(y))
            assert unitarity_defect(u) <= 1e-12
            assert abs(u.det() - 1) <= 1e-12


class TestR1:
    def test_identity_input(self):
        assert r1_ratio(IDENTITY) == 1.0
        assert_close(r1(IDENTITY), (ISQ2, -ISQ2, ISQ2, ISQ2))

    def test_diag_one_two(self):
        a = Mat2(1, 0, 0, 2)
        assert r1_ratio(a) == 2.0
        assert_close(r1(a), (ISQ2, -ISQ2, ISQ2, ISQ2))
        w = a @ r1(a)
        # second row equals k times the first row with its second entry negated
        assert abs(w.c - 2 * w.a) <= 1e-15
        assert abs(w.d + 2 * w.b) <= 1e-15

    def test_singular_rejected(self):
        with pytest.raises(SingularInputError):
            r1(Mat2(1, 2, 2, 4))

    @pytest.mark.parametrize("real", [False, True], ids=["complex", "real"])
    def test_proportional_rows_property(self, real):
        rng = np.random.default_rng(21 if real else 22)
        for _ in range(1000):
            a = random_nonsingular(rng, real)
            u = r1(a)
            k = r1_ratio(a)
            w = a @ u
            scale = a.frobenius()
            assert abs(w.c - k * w.a) <= 1e-10 * scale
            assert abs(w.d + k * w.b) <= 1e-10 * scale
            assert unitarity_defect(u) <= 1e-12
            assert abs(u.det() - 1) <= 1e-12


class TestR2:
    def test_first_row_nonzero_a_zero(self):
        a = Mat2(0, 1, 0, 0)
        assert_close(r2(a), (ISQ2, -ISQ2, ISQ2, ISQ2))

    def test_first_row_nonzero_a_nonzero(self):
        a = Mat2(1, 0, 0, 0)
        assert_close(r2(a), (0, 1, -1, 0), tol=0.0)

    def test_noise_first_row_aligns_to_the_larger_row(self):
        # singular at STEP_TOL, first row above EPS_ZERO but not proportional
        # to the second: aligning to it would leave the rows of b @ u @ Z apart
        b = Mat2(2e-10, -3e-10, 0.6, 0.8)
        u = r2(b)
        all_rows = list(rows(Mat2(1.0, 0, 0, 0) @ u)) + list(rows(b @ u @ Z))
        assert max_row_minor(all_rows) <= 1e-9

    def test_zero_rejected(self):
        with pytest.raises(ZeroMatrixError):
            r2(Mat2(0, 0, 0, 0))

    def test_nonsingular_rejected(self):
        with pytest.raises(NonSingularInputError):
            r2(IDENTITY)

    @pytest.mark.parametrize("zero_first_row", [False, True])
    def test_two_matrices_property(self, zero_first_row):
        # all rows of D @ r2(B) and B @ r2(B) @ Z are multiples of one row
        rng = np.random.default_rng(31)
        for _ in range(1000):
            b = random_rank1(rng, zero_first_row=zero_first_row)
            alpha = complex(rng.standard_normal() + 1j * rng.standard_normal())
            d = Mat2(alpha, 0, 0, 0)
            u = r2(b)
            all_rows = list(rows(d @ u)) + list(rows(b @ u @ Z))
            assert max_row_minor(all_rows) <= 1e-10
            assert unitarity_defect(u) <= 1e-12
            assert abs(u.det() - 1) <= 1e-12


class TestL1:
    def test_rows_example(self):
        a = Mat2(1, 1, 0, 0)
        assert l1(a).distance_to(IDENTITY) == 0.0

    def test_proportional_rows_example(self):
        a = Mat2(1, 2, 1, 2)
        u = l1(a)
        assert_close(u, (ISQ2, ISQ2, -ISQ2, ISQ2))
        w = u @ a
        assert max(abs(w.c), abs(w.d)) <= 1e-15

    def test_zero_rejected(self):
        with pytest.raises(ZeroMatrixError):
            l1(Mat2(0, 0, 0, 0))

    def test_nonsingular_rejected(self):
        with pytest.raises(NonSingularInputError):
            l1(IDENTITY)

    def test_kills_second_row_property(self):
        rng = np.random.default_rng(41)
        for _ in range(1000):
            a = random_rank1(rng)
            w = l1(a) @ a
            assert math.hypot(abs(w.c), abs(w.d)) <= 1e-12 * a.frobenius()


class TestR3:
    def test_identity_case(self):
        assert r3(Mat2(1, 0, 0, 0)).distance_to(IDENTITY) == 0.0

    def test_swaplike_case(self):
        a = Mat2(0, 1, 0, 0)
        u = r3(a)
        assert_close(u, (0, -1, 1, 0), tol=0.0)
        # right-multiplying by the construction concentrates the row
        assert_close(a @ u, (1, 0, 0, 0), tol=0.0)
        # the transposed form works here too, up to sign
        w = a @ u.transpose()
        assert abs(abs(w.a) - 1) <= 1e-15
        assert max(abs(w.b), abs(w.c), abs(w.d)) <= 1e-15

    def test_three_four_row(self):
        a = Mat2(0.6, 0.8, 0, 0)
        w = a @ r3(a)
        assert abs(abs(w.a) - 1.0) <= 1e-15
        assert max(abs(w.b), abs(w.c), abs(w.d)) <= 1e-15

    def test_bad_shape_rejected(self):
        with pytest.raises(BadShapeError):
            r3(Mat2(1, 0, 1, 0))
        with pytest.raises(BadShapeError):
            r3(Mat2(0, 0, 0, 0))

    def test_corner_property(self):
        rng = np.random.default_rng(51)
        for _ in range(500):
            row = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            a = Mat2(complex(row[0]), complex(row[1]), 0, 0)
            w = a @ r3(a)
            assert max(abs(w.b), abs(w.c), abs(w.d)) <= 1e-12 * a.frobenius()


class TestSolveDetPencil:
    def test_plus_minus_one(self):
        roots = solve_det_pencil(IDENTITY, Mat2(1, 0, 0, -1))
        assert sorted((z.real, z.imag) for z in roots) == [(-1.0, 0.0), (1.0, 0.0)]
        # ascending-magnitude ordering with the phase tie-break: +1 first
        assert roots[0] == 1.0

    def test_zero_and_minus_one(self):
        roots = solve_det_pencil(Mat2(0, 0, 0, 1), IDENTITY)
        assert roots[0] == 0.0
        assert abs(roots[1] + 1.0) <= 1e-15

    def test_singular_coefficient_rejected(self):
        with pytest.raises(SingularPencilCoefficientError):
            solve_det_pencil(IDENTITY, Mat2(1, 2, 2, 4))

    def test_residual_property(self):
        rng = np.random.default_rng(61)
        for _ in range(1000):
            a = random_mat2(rng)
            b = random_nonsingular(rng)
            roots = solve_det_pencil(a, b)
            assert len(roots) == 2
            assert abs(roots[0]) <= abs(roots[1]) + 1e-12
            for z in roots:
                pencil = Mat2(
                    a.a + z * b.a, a.b + z * b.b, a.c + z * b.c, a.d + z * b.d
                )
                bound = 1e-10 * (a.frobenius() + abs(z) * b.frobenius()) ** 2
                assert abs(pencil.det()) <= bound

    def test_double_root_is_returned_twice(self):
        # A = alpha*T, B = beta*T: det(A + zB) = (alpha + z*beta)^2 det T, whose
        # discriminant is rounding noise; both roots must be -alpha/beta itself
        rng = np.random.default_rng(62)
        for _ in range(200):
            t = random_nonsingular(rng)
            alpha, beta = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            roots = solve_det_pencil(scaled(t, alpha), scaled(t, beta))
            assert roots[0] == roots[1]
            assert abs(roots[0] + alpha / beta) <= 1e-12 * abs(alpha / beta)


class TestPencilRoot:
    """The one root the synthesis takes, for step 1 and the chain finisher."""

    def test_is_the_smaller_root(self):
        rng = np.random.default_rng(63)
        for real in (False, True):
            for _ in range(500):
                a, b = random_mat2(rng, real), random_nonsingular(rng, real)
                z, roots = _pencil_root(*_pencil_form(*a, *b)), solve_det_pencil(a, b)
                # a tie, such as the conjugate roots of a real pencil, sorts
                # by phase, so the root may be the second
                assert z == roots[0] or (z == roots[1] and math.isclose(abs(z), abs(roots[0]), rel_tol=1e-12))

    def test_double_root_is_snapped(self):
        rng = np.random.default_rng(64)
        for _ in range(200):
            t = random_nonsingular(rng)
            alpha, beta = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            q2, q1, q0 = _pencil_form(*scaled(t, alpha), *scaled(t, beta))
            assert _pencil_root(q2, q1, q0) == -q1 / (2.0 * q2)

    def test_singular_coefficient_leaves_one_finite_root(self):
        # B's second row is twice its first, so det B is exactly 0 and the
        # pencil is linear in z: its one root is -q0 / q1
        rng = np.random.default_rng(65)
        for _ in range(500):
            a = random_mat2(rng)
            x, y = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            b = Mat2(complex(x), complex(y), complex(2 * x), complex(2 * y))
            q2, q1, q0 = _pencil_form(*a, *b)
            assert q2 == 0
            z = _pencil_root(q2, q1, q0)
            assert abs(z + q0 / q1) <= 1e-14 * abs(z)
            pencil = Mat2(a.a + z * b.a, a.b + z * b.b, a.c + z * b.c, a.d + z * b.d)
            assert abs(pencil.det()) <= 1e-10 * (a.frobenius() + abs(z) * b.frobenius()) ** 2

    def test_no_finite_root_gives_0(self):
        rng = np.random.default_rng(66)
        for _ in range(100):
            a = random_nonsingular(rng)
            assert _pencil_root(*_pencil_form(*a, *Mat2(0j, 0j, 0j, 0j))) == 0
        assert _pencil_root(0.0, 0.0, 0.0) == 0


def test_real_inputs_give_real_outputs():
    # realness closure: real matrices in, real gates out
    rng = np.random.default_rng(71)
    for _ in range(1000):
        outs = [
            r1(random_nonsingular(rng, real=True)),
            r2(random_rank1(rng, real=True)),
            r2(random_rank1(rng, real=True, zero_first_row=True)),
            l1(random_rank1(rng, real=True)),
        ]
        row = rng.standard_normal(2)
        outs.append(r3(Mat2(complex(row[0]), complex(row[1]), 0, 0)))
        x, y = rng.standard_normal(2)
        outs.append(u_from_pair(complex(x), complex(y)))
        for u in outs:
            assert u.max_imag() <= 1e-12


def test_nearly_real_inputs_stay_nearly_real():
    # unit-scale inputs with imaginary parts at the 1e-14 level keep outputs
    # within 1e-12 (here: exactly real, via the real-representative gauge)
    rng = np.random.default_rng(72)

    def fuzz(m: Mat2) -> Mat2:
        m = scaled(m, 1.0 / m.frobenius())
        noise = 1e-14 * rng.standard_normal(4)
        e = m.entries()
        return Mat2(*[complex(v.real, v.imag + n) for v, n in zip(e, noise)])

    for _ in range(300):
        outs = [
            r1(fuzz(random_nonsingular(rng, real=True))),
            r2(fuzz(random_rank1(rng, real=True))),
            l1(fuzz(random_rank1(rng, real=True))),
        ]
        row = rng.standard_normal(2)
        outs.append(r3(fuzz(Mat2(complex(row[0]), complex(row[1]), 0, 0))))
        for u in outs:
            assert u.max_imag() <= 1e-12


def _tie_blocks(tol):
    """Blocks diag(s, s*y) with y walked, ulp by ulp, across the y where
    |det| = tol * ||m||_F, so some of them sit exactly on the boundary."""
    for s in (1.0, 0.3 + 0.4j, -0.6j, 1e-5, 1e-9j):
        y = tol / abs(s)
        for _ in range(6):
            y = tol * math.hypot(1.0, abs(s) * y) / abs(s)
        for direction in (math.inf, 0.0):
            z = y
            for _ in range(48):
                yield Mat2(complex(s), 0j, 0j, s * z)
                z = math.nextafter(z, direction)


class TestInlineHelpers:
    """is_singular and _snap_real compute on unpacked entries; Mat2's
    transpose, dagger and @ build their result bare. Each must give exactly
    what the method-based form (tests/_oracles.py) or Mat2(...) gives."""

    @staticmethod
    def _blocks(rng):
        yield Mat2(0, 0, 0, 0)
        yield Mat2(0j, 0j, 0j, 0j)
        yield IDENTITY
        yield SWAP_BLOCKS
        for _ in range(300):
            real = bool(rng.integers(2))
            m = random_mat2(rng, real)
            for k in (-14, -11, -10, -9, -6, 0, 2):
                yield scaled(m, 10.0**k)
            yield random_rank1(rng, real)
            yield scaled(random_rank1(rng, real), 1e-10)

    # The equality holds at any tolerance: the two constants the program
    # uses, and the two smaller scales the decisions were once made at.
    TOLS = [1e-9, 1e-10, EPS_ZERO, STEP_TOL]

    @pytest.mark.parametrize("tol", TOLS)
    def test_is_singular_equals_method_form(self, tol):
        rng = np.random.default_rng(81)
        for m in self._blocks(rng):
            assert is_singular(m, tol) == reference_is_singular(m, tol)

    @pytest.mark.parametrize("tol", TOLS)
    def test_is_singular_on_the_boundary(self, tol):
        ties = 0
        seen = set()
        for m in _tie_blocks(tol):
            got = is_singular(m, tol)
            assert got == reference_is_singular(m, tol)
            seen.add(got)
            ties += abs(m.det()) == tol * m.frobenius()
        # the walk hits the boundary exactly and reaches both sides of it
        assert ties > 0 and seen == {True, False}

    def test_snap_real_equals_method_form(self):
        rng = np.random.default_rng(82)
        blocks = list(self._blocks(rng))
        for _ in range(200):
            m = random_mat2(rng, real=True)
            norm = m.frobenius()
            # one entry's imaginary part at, just below and just above the snap band
            for limit in (REAL_SNAP * norm, 0.5 * REAL_SNAP * norm, 2.0 * REAL_SNAP * norm):
                for imag in (limit, math.nextafter(limit, 0.0), math.nextafter(limit, math.inf)):
                    e = list(m)
                    k = int(rng.integers(4))
                    e[k] = complex(e[k].real, imag)
                    blocks.append(Mat2(*e))
        for m in blocks:
            got, want = _snap_real(m), reference_snap_real(m)
            assert got == want and [type(x) for x in got] == [type(x) for x in want]

    def test_built_bare_equal_mat2(self):
        rng = np.random.default_rng(83)
        for _ in range(200):
            m, n = random_mat2(rng), random_mat2(rng, real=bool(rng.integers(2)))
            a, b, c, d = m
            e, f, g, h = n
            for got, want in (
                (m.transpose(), Mat2(a, c, b, d)),
                (m.dagger(), Mat2(a.conjugate(), c.conjugate(), b.conjugate(), d.conjugate())),
                (m @ n, Mat2(a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)),
            ):
                assert type(got) is Mat2
                assert got == want and repr(got) == repr(want)
            assert type(u_from_pair(a, b)) is Mat2


class TestNanEntries:
    """A NaN in any entry fails every `<= tol` test of Mat2.max_imag,
    Mat2.distance_to and row2_norm (max() keeps a NaN only in its first
    position), and _snap_real does not snap it away."""

    @pytest.mark.parametrize("k", range(4))
    def test_nan_anywhere_fails_the_tolerance_tests(self, k):
        # the other imaginary parts, 1e-20, lie in the snap band
        for part in ("real", "imag"):
            e = [complex(x, 1e-20) for x in (1.0, 0.0, 0.0, 1.0)]
            e[k] = complex(math.nan, 1e-20) if part == "real" else complex(e[k].real, math.nan)
            m = Mat2(*e)
            assert not m.distance_to(IDENTITY) <= STEP_TOL
            assert not IDENTITY.distance_to(m) <= STEP_TOL
            assert reference_ry_angle(m) is None
            if part == "imag":
                assert not m.max_imag() <= STEP_TOL
                assert _snap_real(m) is m and reference_snap_real(m) is m
        # row2_norm reads the second row alone, here zero but for the NaN
        e = [1.0, 1.0, 0.0, 0.0]
        e[k] = math.nan
        assert (not row2_norm(Mat2(*e)) <= STEP_TOL) if k >= 2 else row2_norm(Mat2(*e)) == 0.0
