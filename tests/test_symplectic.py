"""Canonical form, defect norms, Cayley transform."""

import numpy as np
import pytest

from damped_midpoint import (
    SingularMatrixError,
    cayley,
    factored_symplectic_defect,
    infinitesimal_symplectic_defect,
    scaled_verdict,
    scheme_factors,
    symplectic_defect,
    symplectic_form,
)
from damped_midpoint.errors import DimensionError


def random_sp_element(rng, n, radius=0.9):
    """Random element of sp(2n): J⁻¹·S with S symmetric, scaled so the
    spectral radius stays below ``radius`` (Frobenius norm bounds it)."""
    j = symplectic_form(n)
    s = rng.uniform(-1.0, 1.0, (2 * n, 2 * n))
    s = 0.5 * (s + s.T)
    b = np.linalg.solve(j, s)
    return b * (radius / np.linalg.norm(b))


class TestSymplecticForm:
    def test_n1_structure(self):
        assert np.array_equal(symplectic_form(1), np.array([[0.0, 1.0], [-1.0, 0.0]]))

    def test_n2_blocks(self):
        j = symplectic_form(2)
        assert np.array_equal(j[:2, 2:], np.eye(2))
        assert np.array_equal(j[2:, :2], -np.eye(2))
        assert np.array_equal(j[:2, :2], np.zeros((2, 2)))
        assert np.array_equal(j[2:, 2:], np.zeros((2, 2)))

    @pytest.mark.parametrize("n", [1, 2, 3, 4, np.int64(2)])
    def test_exact_identities(self, n):
        j = symplectic_form(n)
        assert np.array_equal(j @ j, -np.eye(2 * n))
        assert np.array_equal(j.T @ j, np.eye(2 * n))

    def test_rejects_zero_dimension(self):
        with pytest.raises(DimensionError):
            symplectic_form(0)

    @pytest.mark.parametrize("n", [2.5, True, np.float64(2.0)])
    def test_rejects_a_size_that_is_no_integer(self, n):
        """Not truncated (2.5 was a 4×4 form) nor read as 1 (True)."""
        with pytest.raises(DimensionError, match="must be an integer >= 1"):
            symplectic_form(n)

    def test_read_only(self):
        j = symplectic_form(1)
        with pytest.raises(ValueError):
            j[0, 0] = 5.0


class TestInfinitesimalDefect:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_lie_algebra_elements_have_zero_defect(self, n):
        rng = np.random.default_rng(n)
        for _ in range(50):
            b = random_sp_element(rng, n)
            assert infinitesimal_symplectic_defect(b) <= 1e-12

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_identity_defect_value(self, n):
        # J·I + Iᵀ·J = 2J, whose Frobenius norm is 2·sqrt(2n)
        assert infinitesimal_symplectic_defect(np.eye(2 * n)) == pytest.approx(
            2.0 * np.sqrt(2.0 * n), rel=1e-15)

    def test_zero_matrix(self):
        assert infinitesimal_symplectic_defect(np.zeros((4, 4))) == 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            infinitesimal_symplectic_defect(np.eye(4), symplectic_form(1))

    def test_odd_size_rejected(self):
        with pytest.raises(DimensionError):
            infinitesimal_symplectic_defect(np.eye(3))


class TestSymplecticDefect:
    def test_identity_is_symplectic(self):
        assert symplectic_defect(np.eye(4)) == 0.0

    def test_nonsquare_rejected(self):
        with pytest.raises(DimensionError, match="square"):
            symplectic_defect(np.ones((2, 3)))

    def test_scaled_identity_value(self):
        # F = 2I gives ‖4J - J‖ = 3‖J‖ = 3·sqrt(2) for n = 1
        assert symplectic_defect(2.0 * np.eye(2)) == pytest.approx(
            3.0 * np.sqrt(2.0), rel=1e-15)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_cayley_lands_in_group(self, n):
        rng = np.random.default_rng(10 * n)
        for _ in range(25):
            f = cayley(random_sp_element(rng, n))
            assert symplectic_defect(f) <= 1e-10


class TestScaledVerdict:
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_a_defect_that_is_not_finite_gives_insufficient_data(self, bad):
        assert scaled_verdict([], []) == ("insufficient data", None, None)
        assert scaled_verdict([0.0, bad, 1.0], [1.0] * 3) == ("insufficient data", None, None)

    @pytest.mark.parametrize("defects, norms2", [
        ([1e-12, 1e-12], [1.0]),            # used to broadcast to "symplectic"
        ([1e-12], [1.0, 1.0]),
        ([[1e-12]], [[1.0]]),               # used to fail with numpy's TypeError
        (1e-12, 1.0),
    ])
    def test_inputs_of_another_shape_are_refused(self, defects, norms2):
        """Defects and norms are 1-D and of one shape."""
        with pytest.raises(DimensionError):
            scaled_verdict(defects, norms2)


class TestCayley:
    def test_zero_maps_to_identity(self):
        assert np.array_equal(cayley(np.zeros((4, 4))), np.eye(4))

    def test_quadratic_form_generator(self, sys_1d):
        # B = -(τ/2)·J⁻¹·Q with Q symmetric lies in sp(2), so its image
        # must sit in Sp(2); Q here is the block form diag(K, I).
        tau = 0.2
        q = np.array([[sys_1d.K[0, 0], 0.0], [0.0, 1.0]])
        j = symplectic_form(1)
        b = -(tau / 2.0) * np.linalg.solve(j, q)
        assert infinitesimal_symplectic_defect(b) <= 1e-14
        assert symplectic_defect(cayley(b)) <= 1e-10

    def test_unit_eigenvalue_is_singular(self):
        with pytest.raises(SingularMatrixError):
            cayley(np.diag([1.0, 0.5, 0.2, 0.1]))

    def test_nonsquare_rejected(self):
        with pytest.raises(DimensionError):
            cayley(np.ones((2, 3)))


class TestFactoredDefect:
    def test_equal_factors_vanish(self):
        assert factored_symplectic_defect(np.eye(4), np.eye(4)) == 0.0

    def test_certifies_built_symplectic_quotient(self):
        # With N = M·S for symplectic S, M⁻¹N = S: both membership tests
        # must agree, without ever forming M⁻¹.
        rng = np.random.default_rng(3)
        for n in (1, 2, 3):
            for _ in range(10):
                s = cayley(random_sp_element(rng, n))
                m = rng.uniform(-1.0, 1.0, (2 * n, 2 * n)) + 2.0 * n * np.eye(2 * n)
                nmat = m @ s
                assert factored_symplectic_defect(m, nmat) <= 1e-12 * (2 * n) ** 2
                assert symplectic_defect(np.linalg.solve(m, nmat)) <= 1e-10

    def test_flags_non_symplectic_quotient(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            s = cayley(random_sp_element(rng, 2, radius=0.5))
            s = s + 0.05  # break the structure
            m = rng.uniform(-1.0, 1.0, (4, 4)) + 4.0 * np.eye(4)
            nmat = m @ s
            assert factored_symplectic_defect(m, nmat) >= 1e-3
            assert symplectic_defect(np.linalg.solve(m, nmat)) >= 1e-3

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            factored_symplectic_defect(np.eye(4), np.eye(2))
        with pytest.raises(DimensionError):
            factored_symplectic_defect(np.eye(4)[None], np.eye(4))

    @pytest.mark.parametrize("n", [1, 2, 3, 16])
    def test_stack_is_bitwise_per_pair(self, n):
        rng = np.random.default_rng(n)
        # Random pairs, and substituting-scheme pairs, whose defects are
        # round-off left after cancellation.
        a = rng.uniform(-1.0, 1.0, (6, 2 * n, 2 * n))
        b = rng.uniform(-1.0, 1.0, (6, 2 * n, 2 * n))
        stiffness = rng.uniform(-1.0, 1.0, (6, n, n)) + 4.0 * np.eye(n)
        m, nn = scheme_factors(stiffness, np.zeros((n, n)), 0.3)
        for x, y in ((a, b), (m, nn)):
            stacked = factored_symplectic_defect(x, y)
            singles = [factored_symplectic_defect(x[i], y[i]) for i in range(6)]
            assert all(type(value) is float for value in singles)
            assert stacked.shape == (6,)
            assert stacked.tobytes() == np.array(singles).tobytes()
