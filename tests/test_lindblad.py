import numpy as np
import pytest

from choi_moments.lindblad import (
    LOWERING,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    LindbladGenerator,
    apply_generator,
    coefficients,
    dephasing_generator,
    generator_superoperator,
    is_unital,
    isotropic_pauli_generator,
    lindblad_ops_normal,
    named_operator,
    rates_at,
)
from choi_moments.rates import ConstantRate, ExpCosRate
from helpers import random_generator, random_psd_unit_trace


def amplitude_damping_generator(rate=1.0):
    return LindbladGenerator(2, np.zeros((2, 2)), ((LOWERING, ConstantRate(rate)),))


def vec(m):
    return np.asarray(m).reshape(-1)


class TestConstruction:
    def test_named_operators(self):
        assert np.array_equal(named_operator("sigma_x", 2), SIGMA_X)
        assert np.array_equal(named_operator("lowering", 2), LOWERING)
        with pytest.raises(ValueError, match="unknown operator"):
            named_operator("sigma_w", 2)
        with pytest.raises(ValueError, match="dimension"):
            named_operator("sigma_z", 3)

    def test_rejects_non_hermitian_hamiltonian(self):
        h = np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(ValueError, match="not Hermitian"):
            LindbladGenerator(2, h, ())

    def test_blocks_follow_the_operators_and_freeze_no_caller_array(self):
        gen = amplitude_damping_generator()
        blocks = gen.superoperator_blocks
        assert blocks.shape == (2, 4, 4)
        assert LOWERING.flags.writeable
        rebuilt = LindbladGenerator(2, SIGMA_X, gen.dissipators)
        assert np.array_equal(rebuilt.superoperator_blocks[1], blocks[1])
        assert not np.array_equal(rebuilt.superoperator_blocks[0], blocks[0])

    def test_rejects_operator_dimension_mismatch(self):
        with pytest.raises(ValueError, match="does not match dim"):
            LindbladGenerator(3, np.zeros((3, 3)), ((SIGMA_Z, ConstantRate(1.0)),))


class TestApplyGenerator:
    def test_maximally_mixed_is_fixed_point_of_dephasing(self):
        gen = dephasing_generator(ConstantRate(1.0))
        out = apply_generator(gen, np.eye(2) / 2, 0.0)
        assert np.max(np.abs(out)) < 1e-14

    def test_dephasing_kills_coherences(self):
        gen = dephasing_generator(ConstantRate(1.0))
        plus = np.full((2, 2), 0.5)
        out = apply_generator(gen, plus, 0.0)
        assert np.allclose(out, [[0.0, -1.0], [-1.0, 0.0]], atol=1e-14)

    def test_isotropic_pauli_on_ground_state(self):
        gamma = 0.8
        gen = isotropic_pauli_generator(ConstantRate(gamma))
        rho = np.diag([1.0, 0.0]).astype(complex)
        expected = 2.0 * gamma * np.diag([-1.0, 1.0])
        assert np.allclose(apply_generator(gen, rho, 0.0), expected, atol=1e-14)

    def test_rejects_dimension_mismatch(self):
        gen = dephasing_generator(ConstantRate(1.0))
        with pytest.raises(ValueError, match="does not match"):
            apply_generator(gen, np.eye(3) / 3, 0.0)

    def test_output_traceless_and_hermitian(self):
        rng = np.random.default_rng(21)
        for _ in range(15):
            dim = int(rng.integers(2, 5))
            gen = random_generator(rng, dim, n_ops=int(rng.integers(1, 4)))
            rho = random_psd_unit_trace(rng, dim)
            out = apply_generator(gen, rho, 0.0)
            assert abs(np.trace(out)) < 1e-10
            assert np.max(np.abs(out - out.conj().T)) < 1e-10


class TestSuperoperator:
    def test_coefficients_lead_with_one(self):
        gammas = np.arange(6.0).reshape(3, 2)
        assert np.array_equal(coefficients(gammas), [[1, 0, 1], [1, 2, 3], [1, 4, 5]])
        assert np.array_equal(coefficients([0.5]), [1.0, 0.5])
        assert coefficients(np.empty((4, 0))).shape == (4, 1)

    def test_dephasing_is_diagonal(self):
        gen = dephasing_generator(ConstantRate(1.0))
        lhat = generator_superoperator(gen, 0.0)
        assert np.allclose(lhat, np.diag([0.0, -2.0, -2.0, 0.0]), atol=1e-14)

    def test_zero_generator(self):
        gen = LindbladGenerator(2, np.zeros((2, 2)), ())
        assert np.max(np.abs(generator_superoperator(gen, 0.0))) == 0.0

    def test_maximally_mixed_consistency_over_time(self):
        gen = dephasing_generator(ExpCosRate(k=1.0))
        rng = np.random.default_rng(22)
        eye = np.eye(2) / 2
        for t in rng.uniform(0.0, 6.0, size=10):
            lhs = generator_superoperator(gen, t) @ vec(eye)
            rhs = vec(apply_generator(gen, eye, t))
            assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_agrees_with_action_on_matrix_units(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            dim = int(rng.integers(2, 4))
            gen = random_generator(rng, dim, n_ops=int(rng.integers(1, 4)))
            t = float(rng.uniform(0.0, 3.0))
            lhat = generator_superoperator(gen, t)
            gammas = rates_at(gen, t)
            for i in range(dim):
                for j in range(dim):
                    unit = np.zeros((dim, dim), dtype=complex)
                    unit[i, j] = 1.0
                    from choi_moments.lindblad import _action
                    expected = vec(_action(gen, unit, gammas))
                    assert np.max(np.abs(lhat[:, i * dim + j] - expected)) < 1e-10


class TestUnitalAndNormal:
    def test_dephasing_is_unital(self):
        assert is_unital(dephasing_generator(ConstantRate(1.0)), 0.0)

    def test_isotropic_pauli_is_unital(self):
        assert is_unital(isotropic_pauli_generator(ExpCosRate(k=1.0)), 2.0)

    def test_amplitude_damping_is_not_unital(self):
        assert not is_unital(amplitude_damping_generator(), 0.0)

    def test_pauli_operators_are_normal(self):
        assert lindblad_ops_normal(dephasing_generator(ConstantRate(1.0)))
        assert lindblad_ops_normal(isotropic_pauli_generator(ConstantRate(1.0)))

    def test_lowering_operator_is_not_normal(self):
        assert not lindblad_ops_normal(amplitude_damping_generator())
