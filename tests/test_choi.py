import numpy as np
import pytest
from scipy.integrate import quad

from choi_moments.choi import (
    CHUNK_ENTRIES,
    bridge_spectra,
    choi_of_superoperator,
    choi_small_time,
    cptp_diagnostics,
    intermediate_map,
    max_entangled_projector,
    propagate_map,
)
from choi_moments.lindblad import (
    LindbladGenerator,
    dephasing_generator,
    generator_superoperator,
    isotropic_pauli_generator,
    rates_at,
)
from choi_moments.rates import ConstantRate, ExpCosRate
from choi_moments.spectral import hermitian_spectrum
from helpers import (
    random_expcos_generator,
    random_generator,
    random_kraus_choi,
    reference_bridge_spectra,
    reference_rk4_propagate,
)


def expcos_integral(a, b):
    """Quadrature oracle for the accumulated exp(-u) cos(u) rate."""
    val, _ = quad(lambda u: np.exp(-u) * np.cos(u), a, b, epsabs=1e-12, epsrel=1e-12)
    return val


class TestMaxEntangledProjector:
    def test_qubit_entries(self):
        bell = max_entangled_projector(2)
        expected = np.zeros((4, 4))
        for i, j in ((0, 0), (0, 3), (3, 0), (3, 3)):
            expected[i, j] = 0.5
        assert np.allclose(bell, expected, atol=1e-15)

    def test_trace_and_purity(self):
        bell = max_entangled_projector(2)
        assert np.trace(bell).real == pytest.approx(1.0, abs=1e-14)
        assert np.trace(bell @ bell).real == pytest.approx(1.0, abs=1e-14)

    def test_qutrit_rank_one(self):
        lam = hermitian_spectrum(max_entangled_projector(3))
        assert lam[0] == pytest.approx(1.0, abs=1e-12)
        assert np.max(np.abs(lam[1:])) < 1e-12

    def test_rejects_trivial_dimension(self):
        with pytest.raises(ValueError, match="d >= 2"):
            max_entangled_projector(1)


class TestChoiSmallTime:
    def test_zero_generator_gives_bell_state(self):
        gen = LindbladGenerator(2, np.zeros((2, 2)), ())
        c = choi_small_time(gen, 0.0, 0.01)
        assert np.allclose(c.matrix, max_entangled_projector(2), atol=1e-15)

    def test_dephasing_spectrum(self):
        gen = dephasing_generator(ConstantRate(1.0))
        lam = hermitian_spectrum(choi_small_time(gen, 0.0, 1e-3).matrix)
        assert np.allclose(lam, [0.999, 0.001, 0.0, 0.0], atol=1e-12)

    def test_isotropic_pauli_spectrum_at_negative_rate(self):
        # ExpCos at t = pi: common rate -e^{-pi}; spectrum {1+3a, -a, -a, -a}
        gen = isotropic_pauli_generator(ExpCosRate(k=1.0))
        eps = 1e-3
        a = eps * np.exp(-np.pi)
        lam = hermitian_spectrum(choi_small_time(gen, np.pi, eps).matrix)
        assert np.allclose(lam, [1.0 + 3.0 * a, -a, -a, -a], atol=1e-12)

    def test_interval_and_mode(self):
        gen = dephasing_generator(ConstantRate(1.0))
        c = choi_small_time(gen, 2.0, 1e-3)
        assert c.mode == "small-time"
        assert c.interval == (2.0, 2.001)

    def test_warns_when_expansion_dubious(self):
        gen = dephasing_generator(ConstantRate(200.0))
        with pytest.warns(UserWarning, match="dubious"):
            choi_small_time(gen, 0.0, 1e-3)

    def test_rejects_non_finite_rate(self):
        gen = dephasing_generator(ConstantRate(float("inf")))
        with pytest.raises(ValueError, match="non-finite"):
            choi_small_time(gen, 0.0, 1e-3)

    def test_rejects_non_positive_epsilon(self):
        gen = dephasing_generator(ConstantRate(1.0))
        with pytest.raises(ValueError, match="epsilon"):
            choi_small_time(gen, 0.0, 0.0)


class TestPropagateMap:
    def test_zero_interval_is_identity(self):
        gen = dephasing_generator(ConstantRate(1.0))
        phi = propagate_map(gen, 1.0, 1.0)
        assert np.array_equal(phi.matrix, np.eye(4))

    def test_constant_dephasing_half_life(self):
        gen = dephasing_generator(ConstantRate(1.0))
        phi = propagate_map(gen, 0.0, np.log(2.0) / 2.0)
        assert np.allclose(phi.matrix, np.diag([1.0, 0.5, 0.5, 1.0]), atol=1e-10)

    @pytest.mark.parametrize("t", [1.0, 2.0, 4.0])
    def test_expcos_coherence_factor_against_quadrature(self, t):
        gen = dephasing_generator(ExpCosRate(k=1.0))
        phi = propagate_map(gen, 0.0, t)
        expected = np.exp(-2.0 * expcos_integral(0.0, t))
        assert phi.matrix[1, 1].real == pytest.approx(expected, abs=1e-10)
        assert phi.matrix[2, 2].real == pytest.approx(expected, abs=1e-10)

    def test_step_doubling_converged(self):
        gen = isotropic_pauli_generator(ExpCosRate(k=1.0))
        t = 2.0 * np.pi
        base = propagate_map(gen, 0.0, t).matrix
        fine = propagate_map(gen, 0.0, t, steps=2 * round(1000 * t)).matrix
        assert np.max(np.abs(base - fine)) < 1e-8

    def test_rejects_reversed_interval(self):
        gen = dephasing_generator(ConstantRate(1.0))
        with pytest.raises(ValueError, match="t1 >= t0"):
            propagate_map(gen, 1.0, 0.5)

    def test_rejects_non_finite_rate(self):
        gen = dephasing_generator(ConstantRate(float("nan")))
        with pytest.raises(ValueError, match="non-finite"):
            propagate_map(gen, 0.0, 1.0)

    def test_maps_identity_to_unit_trace(self):
        rng = np.random.default_rng(31)
        for _ in range(5):
            gen = random_generator(rng, 2, n_ops=2)
            phi = propagate_map(gen, 0.0, 1.5)
            out = (phi.matrix @ (np.eye(2) / 2).reshape(-1)).reshape(2, 2)
            assert np.trace(out).real == pytest.approx(1.0, abs=1e-8)


class TestBatchedKernel:
    """The batched RK4 kernel against the step-by-step loop in helpers."""

    TOL = 1e-12

    @pytest.mark.parametrize("seed", [1, 2])
    @pytest.mark.parametrize("d", [2, 3, 4, 8])
    def test_single_step_bridges_on_uneven_chunks(self, d, seed):
        gen = random_expcos_generator(np.random.default_rng(seed), d)
        grid = np.linspace(0.0, 2.0, 263)
        windows_per_chunk = max(1, CHUNK_ENTRIES // d**4)
        assert d == 8 or grid.size % windows_per_chunk != 0
        rates, spectra = bridge_spectra(gen, grid, 1e-3)
        assert np.max(np.abs(spectra - reference_bridge_spectra(gen, grid, 1e-3))) < self.TOL
        assert np.array_equal(rates, np.array([rates_at(gen, float(t)) for t in grid]))

    @pytest.mark.parametrize("seed", [1, 2])
    @pytest.mark.parametrize("d", [2, 3, 4, 8])
    def test_ten_step_bridges_on_non_uniform_grid(self, d, seed):
        # delta = 0.01 takes 10 RK4 steps per window; at d = 8 a chunk holds
        # one step, so each window is also split into step chunks.
        rng = np.random.default_rng(seed)
        gen = random_expcos_generator(rng, d)
        grid = np.sort(rng.uniform(0.0, 2.0, 37))
        _, spectra = bridge_spectra(gen, grid, 0.01)
        assert np.max(np.abs(spectra - reference_bridge_spectra(gen, grid, 0.01))) < self.TOL

    @pytest.mark.parametrize("d, t0, t1", [(2, 0.3, 1.7), (3, 0.3, 1.7), (4, 0.0, 0.5),
                                           (8, 0.2, 0.25)])
    def test_propagate_map_matches_step_loop(self, d, t0, t1):
        gen = random_expcos_generator(np.random.default_rng(36), d)
        steps = round(1000 * (t1 - t0))
        phi = propagate_map(gen, t0, t1).matrix
        assert np.max(np.abs(phi - reference_rk4_propagate(gen, t0, t1, steps))) < self.TOL


class TestIntermediateMap:
    def test_equal_times_identity(self):
        gen = dephasing_generator(ConstantRate(1.0))
        lam = intermediate_map(gen, 1.0, 1.0)
        assert np.allclose(lam.matrix, np.eye(4), atol=1e-10)

    def test_time_homogeneity_for_constant_rates(self):
        gen = dephasing_generator(ConstantRate(0.7))
        bridged = intermediate_map(gen, 0.7, 1.9).matrix
        direct = propagate_map(gen, 0.0, 1.2).matrix
        assert np.max(np.abs(bridged - direct)) < 1e-8

    def test_coherence_revival_factor(self):
        # On (2, 2.2) the ExpCos rate is negative: the bridge map amplifies
        # coherences, with factor exp(-2 * integral of gamma) > 1.
        gen = dephasing_generator(ExpCosRate(k=1.0))
        lam = intermediate_map(gen, 2.0, 2.2)
        expected = np.exp(-2.0 * expcos_integral(2.0, 2.2))
        assert expected > 1.0
        assert lam.matrix[1, 1].real == pytest.approx(expected, abs=1e-9)

    def test_composition_recovers_full_propagator(self):
        gen = dephasing_generator(ExpCosRate(k=1.0))
        phi_s = propagate_map(gen, 0.0, 1.1).matrix
        phi_t = propagate_map(gen, 0.0, 2.3).matrix
        bridge = intermediate_map(gen, 1.1, 2.3).matrix
        assert np.max(np.abs(bridge @ phi_s - phi_t)) < 1e-7

    def test_rejects_non_invertible_propagator(self):
        # Strong constant dephasing: condition number e^{2*50*0.5} >> 1e12.
        gen = dephasing_generator(ConstantRate(50.0))
        with pytest.raises(ValueError, match="non-invertible"):
            intermediate_map(gen, 0.5, 0.6)

    def test_rejects_bad_ordering(self):
        gen = dephasing_generator(ConstantRate(1.0))
        with pytest.raises(ValueError, match="0 <= s <= t"):
            intermediate_map(gen, 2.0, 1.0)


class TestChoiOfSuperoperator:
    def test_identity_gives_bell_state(self):
        c = choi_of_superoperator(np.eye(4, dtype=complex))
        assert np.allclose(c.matrix, max_entangled_projector(2), atol=1e-15)

    def test_constant_dephasing_spectrum(self):
        gen = dephasing_generator(ConstantRate(1.0))
        c = choi_of_superoperator(propagate_map(gen, 0.0, np.log(2.0) / 2.0))
        lam = hermitian_spectrum(c.matrix)
        assert np.allclose(lam, [0.75, 0.25, 0.0, 0.0], atol=1e-9)

    def test_consistency_with_small_time_choi(self):
        rng = np.random.default_rng(32)
        eps = 1e-3
        for _ in range(10):
            gen = random_generator(rng, 2, n_ops=2)
            t = float(rng.uniform(0.0, 2.0))
            first_order = np.eye(4) + eps * generator_superoperator(gen, t)
            c_lin = choi_of_superoperator(first_order)
            c_direct = choi_small_time(gen, t, eps)
            assert np.max(np.abs(c_lin.matrix - c_direct.matrix)) < 1e-12

    def test_rejects_non_trace_preserving(self):
        with pytest.raises(ValueError, match="not trace preserving"):
            choi_of_superoperator(0.5 * np.eye(4, dtype=complex))

    def test_small_time_agrees_with_finite_interval_to_second_order(self):
        gens = {
            "dephasing": (dephasing_generator(ExpCosRate(k=1.0)), 0.7),
            "isotropic": (isotropic_pauli_generator(ExpCosRate(k=1.0)), 0.3),
        }
        for gen, t in gens.values():
            for eps in (1e-2, 1e-3, 1e-4):
                lin = choi_small_time(gen, t, eps).matrix
                full = choi_of_superoperator(propagate_map(gen, t, t + eps)).matrix
                assert np.max(np.abs(lin - full)) < 10.0 * eps**2


class TestCPTPDiagnostics:
    def test_bell_state(self):
        diag = cptp_diagnostics(max_entangled_projector(2))
        assert diag.is_cp and diag.is_tp
        assert diag.min_eigenvalue == pytest.approx(0.0, abs=1e-12)
        assert diag.trace_deviation < 1e-12

    def test_negative_rate_window_is_not_cp(self):
        gen = dephasing_generator(ConstantRate(-1.0))
        diag = cptp_diagnostics(choi_small_time(gen, 0.0, 1e-3))
        assert not diag.is_cp
        assert diag.min_eigenvalue == pytest.approx(-1e-3, abs=1e-9)
        assert diag.is_tp

    def test_random_kraus_channels_pass(self):
        rng = np.random.default_rng(33)
        for _ in range(100):
            d = int(rng.integers(2, 4))
            choi = random_kraus_choi(rng, d, int(rng.integers(1, 5)))
            diag = cptp_diagnostics(choi)
            assert diag.is_cp and diag.is_tp

    def test_rejects_bad_tolerance(self):
        with pytest.raises(ValueError, match="tol"):
            cptp_diagnostics(max_entangled_projector(2), tol=0.0)


class TestChoiInvariants:
    def test_trace_and_partial_trace_of_propagated_chois(self):
        rng = np.random.default_rng(34)
        for _ in range(10):
            gen = random_generator(rng, 2, n_ops=2)
            t = float(rng.uniform(0.2, 2.0))
            c = choi_of_superoperator(propagate_map(gen, 0.0, t))
            diag = cptp_diagnostics(c, tol=1e-8)
            assert abs(np.trace(c.matrix).real - 1.0) < 1e-9
            assert diag.partial_trace_deviation < 1e-8

    def test_composition_law(self):
        gen = dephasing_generator(ExpCosRate(k=1.0))
        rng = np.random.default_rng(35)
        for _ in range(20):
            s, t = np.sort(rng.uniform(0.0, 3.0, size=2))
            if t - s < 1e-3:
                t = s + 1e-3
            phi_t = propagate_map(gen, 0.0, float(t)).matrix
            composed = intermediate_map(gen, float(s), float(t)).matrix @ propagate_map(
                gen, 0.0, float(s)
            ).matrix
            c_direct = choi_of_superoperator(phi_t).matrix
            c_composed = choi_of_superoperator(composed).matrix
            assert np.max(np.abs(c_direct - c_composed)) < 1e-7

    def test_markovian_intermediate_maps_all_cp(self):
        # Constant non-negative rates form a semigroup: every bridge map is CP.
        gen = isotropic_pauli_generator(ConstantRate(0.6))
        grid = np.linspace(0.0, 5.0, 11)
        props = [np.eye(4, dtype=complex)]
        for a, b in zip(grid[:-1], grid[1:]):
            props.append(propagate_map(gen, float(a), float(b)).matrix @ props[-1])
        for i in range(len(grid)):
            for j in range(i + 1, len(grid)):
                bridge = np.linalg.solve(props[i].T, props[j].T).T
                diag = cptp_diagnostics(choi_of_superoperator(bridge))
                assert diag.min_eigenvalue >= -1e-10
