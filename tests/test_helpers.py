"""The oracles of `helpers`, checked against closed forms: the entropy and
norm oracles, which the acceptance criteria and the monotonicity tests read,
also against the package's trace moments; the generator's superoperator,
which the reference RK4 reads, against the generator's action."""

import numpy as np
import pytest

from choi_moments.detect import lambda_moments
from choi_moments.lindblad import LindbladGenerator
from choi_moments.rates import ConstantRate, ExpCosRate
from helpers import (
    apply_generator,
    dephasing_generator,
    first_order_choi,
    random_generator,
    random_hermitian,
    random_psd_unit_trace,
    reference_superoperator,
    renyi_entropy,
    schatten_norm,
)


class TestRenyiEntropy:
    def test_maximally_mixed_qubit(self):
        assert renyi_entropy(np.eye(2) / 2, 2.0) == pytest.approx(1.0, abs=1e-12)

    def test_pure_state(self):
        rho = np.diag([1.0, 0.0, 0.0])
        for alpha in (0.5, 2.0, 3.0):
            assert renyi_entropy(rho, alpha) == pytest.approx(0.0, abs=1e-12)

    def test_two_level_example(self):
        assert renyi_entropy(np.diag([0.75, 0.25]), 2.0) == pytest.approx(
            -np.log2(0.625), abs=1e-12
        )

    def test_orders_two_and_three_read_the_trace_moments(self):
        rng = np.random.default_rng(18)
        for _ in range(10):
            rho = random_psd_unit_trace(rng, 4)
            r = lambda_moments(rho)
            assert renyi_entropy(rho, 2.0) == pytest.approx(-np.log2(r[1]), abs=1e-12)
            assert renyi_entropy(rho, 3.0) == pytest.approx(-0.5 * np.log2(r[2]), abs=1e-12)


class TestSchattenNorm:
    def test_trace_norm_of_identity(self):
        assert schatten_norm(np.eye(4), 1) == pytest.approx(4.0)

    def test_frobenius_example(self):
        assert schatten_norm(np.diag([0.75, 0.25]), 2) == pytest.approx(
            np.sqrt(0.625), abs=1e-12
        )

    def test_trace_norm_with_negative_eigenvalue(self):
        # gamma = -1 window: spectrum {1.001, -0.001, 0, 0} -> |.|-sum 1.002
        c = first_order_choi(dephasing_generator(ConstantRate(-1.0)), 0.0, 1e-3)
        assert schatten_norm(c, 1) == pytest.approx(1.002, abs=1e-12)

    def test_square_matches_second_moment(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            m = random_hermitian(rng, 5)
            assert schatten_norm(m, 2) ** 2 == pytest.approx(lambda_moments(m)[1], abs=1e-10)

    def test_trace_norm_equals_trace_for_psd(self):
        rng = np.random.default_rng(14)
        for _ in range(10):
            m = random_psd_unit_trace(rng, 4)
            assert schatten_norm(m, 1) == pytest.approx(lambda_moments(m)[0], abs=1e-10)


class TestReferenceSuperoperator:
    @pytest.mark.parametrize("d, n_ops", [(2, 0), (2, 3), (3, 2), (4, 1)])
    def test_columns_are_the_action_on_each_matrix_unit(self, d, n_ops):
        rng = np.random.default_rng(90 + d)
        gen = random_generator(rng, d, n_ops=n_ops)
        lhat = reference_superoperator(gen, 0.7)
        assert lhat.shape == (d * d, d * d)
        for i in range(d):
            for j in range(d):
                unit = np.zeros((d, d))
                unit[i, j] = 1.0
                want = apply_generator(gen, unit, 0.7).ravel()
                assert np.max(np.abs(lhat[:, i * d + j] - want)) <= 1e-14 * np.max(np.abs(lhat))
        rho = random_psd_unit_trace(rng, d)
        want = apply_generator(gen, rho, 0.7).ravel()
        assert np.max(np.abs(lhat @ rho.ravel() - want)) <= 1e-13 * np.max(np.abs(lhat))

    def test_row_major_closed_forms(self):
        # vec(A X B) = (A kron B^T) vec(X): -i[H, .] is -i(H kron I - I kron H^T).
        h = random_hermitian(np.random.default_rng(95), 3)
        want = -1j * (np.kron(h, np.eye(3)) - np.kron(np.eye(3), h.T))
        got = reference_superoperator(LindbladGenerator(3, h, ()), 0.0)
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))
        # Dephasing at rate gamma(t) damps the coherences by 2 gamma(t).
        gamma = float(ExpCosRate(k=1.0).evaluate(np.array(0.4)))
        got = reference_superoperator(dephasing_generator(ExpCosRate(k=1.0)), 0.4)
        assert np.allclose(got, np.diag([0.0, -2.0, -2.0, 0.0]) * gamma, rtol=0.0, atol=1e-15)
