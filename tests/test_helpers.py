"""The entropy and norm oracles of `helpers`, which the acceptance criteria
and the monotonicity tests read, checked against closed forms and against
the package's trace moments."""

import numpy as np
import pytest

from choi_moments.detect import lambda_moments
from choi_moments.rates import ConstantRate
from helpers import (
    dephasing_generator,
    first_order_choi,
    random_hermitian,
    random_psd_unit_trace,
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
