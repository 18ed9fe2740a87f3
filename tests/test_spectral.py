import math

import numpy as np
import pytest

from choi_moments.spectral import (
    hermitian_spectrum,
    moments_from_spectrum,
    require_hermitian,
    schatten_norm,
)
from helpers import random_hermitian, random_psd_unit_trace, random_unitary


def trace_moment(m, n):
    """n-th trace moment sum_i lambda_i^n of a Hermitian matrix, as the
    package computes it: from the spectrum."""
    return float(moments_from_spectrum(hermitian_spectrum(m), n)[n - 1])


def dephasing_small_time_choi(gamma, eps=1e-3):
    """4x4 Choi of a first-order dephasing window, built by direct algebra.

    Independent of the package's Choi constructors: only the corner entries
    (1 -/+ 2*eps*gamma)/2 differ from the maximally entangled projector.
    """
    c = np.zeros((4, 4))
    c[0, 0] = c[3, 3] = 0.5
    c[0, 3] = c[3, 0] = 0.5 * (1.0 - 2.0 * eps * gamma)
    return c


class TestHermitianSpectrum:
    def test_identity(self):
        assert np.allclose(hermitian_spectrum(np.eye(2)), [1.0, 1.0])

    def test_pauli_z(self):
        assert np.allclose(hermitian_spectrum(np.diag([1.0, -1.0])), [1.0, -1.0])

    def test_dephasing_small_time_choi(self):
        # gamma = 1, eps = 0.001: spectrum {1 - eps, eps, 0, 0}
        lam = hermitian_spectrum(dephasing_small_time_choi(1.0))
        assert np.allclose(lam, [0.999, 0.001, 0.0, 0.0], atol=1e-12)

    def test_descending_with_multiplicity(self):
        lam = hermitian_spectrum(np.diag([2.0, -1.0, 2.0, 0.0]))
        assert np.allclose(lam, [2.0, 2.0, 0.0, -1.0])

    def test_rejects_non_hermitian(self):
        m = np.array([[0.0, 1e-6], [0.0, 0.0]])
        with pytest.raises(ValueError, match="not Hermitian"):
            hermitian_spectrum(m)

    @pytest.mark.parametrize("entry", [np.nan, np.inf, complex(0.0, -np.inf)])
    @pytest.mark.parametrize("where", [(0, 0), (0, 1)])
    def test_rejects_non_finite_entries(self, entry, where):
        # A NaN asymmetry compares false with the tolerance; it must still fail.
        m = np.zeros((2, 3, 3), dtype=complex)
        m[(1, *where)] = entry
        with pytest.raises(ValueError, match="non-finite"):
            require_hermitian(m)

    def test_rejection_reports_asymmetry(self):
        m = np.array([[0.0, 3e-7], [0.0, 0.0]])
        with pytest.raises(ValueError, match="3.000e-07"):
            hermitian_spectrum(m)

    def test_reconstruction_residual(self):
        rng = np.random.default_rng(11)
        for n in (2, 4, 9, 16):
            m = random_hermitian(rng, n)
            lam, vec = np.linalg.eigh(require_hermitian(m))
            rebuilt = (vec * lam) @ vec.conj().T
            assert np.max(np.abs(rebuilt - m)) < 1e-9

    def test_require_hermitian_checks_each_matrix_of_a_stack(self):
        rng = np.random.default_rng(13)
        stack = np.array([random_hermitian(rng, 3) for _ in range(4)])
        out = require_hermitian(stack)
        assert np.array_equal(out, 0.5 * (stack + np.swapaxes(stack, 1, 2).conj()))
        stack[2, 0, 1] += 1e-6
        with pytest.raises(ValueError, match="1.000e-06"):
            require_hermitian(stack)
        with pytest.raises(ValueError, match="square"):
            require_hermitian(np.zeros((2, 3, 2)))

    def test_spectrum_refuses_a_stack(self):
        with pytest.raises(ValueError, match="square"):
            hermitian_spectrum(np.zeros((2, 3, 3)))

    def test_unitary_invariance(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            m = random_hermitian(rng, 4)
            u = random_unitary(rng, 4)
            lam = hermitian_spectrum(m)
            lam_rot = hermitian_spectrum(u @ m @ u.conj().T)
            assert np.max(np.abs(lam - lam_rot)) < 1e-9


class TestSchattenNorm:
    def test_trace_norm_of_identity(self):
        assert schatten_norm(np.eye(4), 1) == pytest.approx(4.0)

    def test_frobenius_example(self):
        assert schatten_norm(np.diag([0.75, 0.25]), 2) == pytest.approx(
            np.sqrt(0.625), abs=1e-12
        )

    def test_trace_norm_with_negative_eigenvalue(self):
        # gamma = -1 window: spectrum {1.001, -0.001, 0, 0} -> |.|-sum 1.002
        c = dephasing_small_time_choi(-1.0)
        assert schatten_norm(c, 1) == pytest.approx(1.002, abs=1e-12)

    def test_rejects_p_below_one(self):
        with pytest.raises(ValueError, match="p >= 1"):
            schatten_norm(np.eye(2), 0.5)

    @pytest.mark.parametrize("p", [math.inf, math.nan])
    def test_rejects_p_that_is_not_finite(self, p):
        # p = inf used to give 1.0 for I/2, whose operator norm is 0.5.
        with pytest.raises(ValueError, match="finite p >= 1, got p = "):
            schatten_norm(np.eye(2) / 2, p)

    def test_square_matches_second_moment(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            m = random_hermitian(rng, 5)
            assert schatten_norm(m, 2) ** 2 == pytest.approx(
                trace_moment(m, 2), abs=1e-10
            )

    def test_trace_norm_equals_trace_for_psd(self):
        rng = np.random.default_rng(14)
        for _ in range(10):
            m = random_psd_unit_trace(rng, 4)
            assert schatten_norm(m, 1) == pytest.approx(trace_moment(m, 1), abs=1e-10)


class TestTraceMoment:
    def test_first_moment_of_unit_trace(self):
        rng = np.random.default_rng(15)
        assert trace_moment(random_psd_unit_trace(rng, 4), 1) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_third_moment(self):
        assert trace_moment(np.diag([0.75, 0.25, 0.0, 0.0]), 3) == pytest.approx(
            0.4375, abs=1e-14
        )

    def test_maximally_mixed_second_moment(self):
        assert trace_moment(np.eye(4) / 4, 2) == pytest.approx(0.25, abs=1e-14)

    def test_first_moment_matches_trace(self):
        rng = np.random.default_rng(16)
        for _ in range(10):
            m = random_hermitian(rng, 6)
            assert trace_moment(m, 1) == pytest.approx(
                float(np.trace(m).real), abs=1e-10
            )


def test_moments_from_spectrum():
    lam = np.array([0.5, 0.3, 0.2])
    moments = moments_from_spectrum(lam, 3)
    assert np.allclose(moments, [1.0, 0.38, 0.16])
