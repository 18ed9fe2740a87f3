import math
import re
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad
from scipy.linalg import expm

from choi_moments import choi
from choi_moments.choi import (
    CHUNK_ENTRIES,
    _require_trace_preserving,
    bridge_moments,
    max_entangled_projector,
    propagate_map,
)
from choi_moments.config import build_generator, bundled_scenario_path, load_scenario
from choi_moments.detect import (VIOLATION_THRESHOLD, cp_divisibility_scan, lambda_moments,
                                 measure_report, witness_series)
from choi_moments.lindblad import (
    LOWERING,
    SIGMA_X,
    SIGMA_Z,
    LindbladGenerator,
    from_hermitian_basis,
    rates_at,
    require_positive,
)
from choi_moments.rates import ConstantRate, ExpCosRate
from helpers import (
    CountingRate,
    UncheckedConstantRate,
    count_sweeps,
    dephasing_generator,
    first_order_choi,
    isotropic_pauli_generator,
    random_expcos_generator,
    random_generator,
    random_hermitian,
    random_normal_operator,
    reference_bridge_spectra,
    reference_choi,
    reference_dissipator_blocks,
    reference_rk4_propagate,
    reference_superoperator,
    spectra_table,
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
        lam = np.linalg.eigvalsh(max_entangled_projector(3))[::-1]
        assert lam[0] == pytest.approx(1.0, abs=1e-12)
        assert np.max(np.abs(lam[1:])) < 1e-12

    @pytest.mark.parametrize("d, problem", [
        (1, "must be >= 2, got 1"), (2.0, "must be an integer, got 2.0"),
        (2.5, "must be an integer, got 2.5"), (True, "must be an integer, got True")],
        ids=["1", "2.0", "2.5", "True"])
    def test_rejects_a_dimension_that_is_not_an_integer_of_at_least_2(self, d, problem):
        with pytest.raises(ValueError, match=f"^d {problem}$"):
            max_entangled_projector(d)


class TestChoiSmallTime:
    """The small-time Choi state of the map on [t, t + eps], read through the
    moments `witness_series` reports for it."""

    @staticmethod
    def power_sums(lam):
        lam = np.asarray(lam)
        return np.sum(lam**2), np.sum(lam**3)

    def test_dephasing_spectrum(self):
        series = witness_series(dephasing_generator(ConstantRate(1.0)), [0.0, 1.0], 1e-3)
        r2, r3 = self.power_sums([0.999, 0.001, 0.0, 0.0])
        assert series.r2 == pytest.approx([r2, r2], abs=1e-12)
        assert series.r3 == pytest.approx([r3, r3], abs=1e-12)

    def test_isotropic_pauli_spectrum_at_negative_rate(self):
        # ExpCos at t = pi: common rate -e^{-pi}; spectrum {1+3a, -a, -a, -a}
        gen = isotropic_pauli_generator(ExpCosRate(k=1.0))
        eps = 1e-3
        a = eps * np.exp(-np.pi)
        series = witness_series(gen, [np.pi, 4.0], eps)
        r2, r3 = self.power_sums([1.0 + 3.0 * a, -a, -a, -a])
        assert series.r2[0] == pytest.approx(r2, abs=1e-12)
        assert series.r3[0] == pytest.approx(r3, abs=1e-12)
        assert series.values[0] == pytest.approx(r2**2 - r3, abs=1e-12)
        assert series.values[0] > VIOLATION_THRESHOLD

    def test_interval_and_mode(self):
        gen = dephasing_generator(ConstantRate(1.0))
        series = witness_series(gen, [2.0, 3.0], 1e-3)
        assert series.mode == "small-time"
        assert series.epsilon == 1e-3
        assert series.grid.tolist() == [2.0, 3.0]
        assert series.rates.tolist() == [[1.0], [1.0]]


class TestPropagateMap:
    def test_zero_interval_is_identity(self):
        gen = dephasing_generator(ConstantRate(1.0))
        phi = propagate_map(gen, 1.0, 1.0)
        assert np.array_equal(phi, np.eye(4))

    def test_constant_dephasing_half_life(self):
        gen = dephasing_generator(ConstantRate(1.0))
        phi = propagate_map(gen, 0.0, np.log(2.0) / 2.0)
        assert np.allclose(phi, np.diag([1.0, 0.5, 0.5, 1.0]), atol=1e-10)

    @pytest.mark.parametrize("t", [1.0, 2.0, 4.0])
    def test_expcos_coherence_factor_against_quadrature(self, t):
        gen = dephasing_generator(ExpCosRate(k=1.0))
        phi = propagate_map(gen, 0.0, t)
        expected = np.exp(-2.0 * expcos_integral(0.0, t))
        assert phi[1, 1].real == pytest.approx(expected, abs=1e-10)
        assert phi[2, 2].real == pytest.approx(expected, abs=1e-10)

    def test_step_doubling_converged(self):
        gen = isotropic_pauli_generator(ExpCosRate(k=1.0))
        t = 2.0 * np.pi
        base = propagate_map(gen, 0.0, t)
        fine = propagate_map(gen, 0.0, t, steps=2 * round(1000 * t))
        assert np.max(np.abs(base - fine)) < 1e-8

    def test_rejects_reversed_interval(self):
        gen = dephasing_generator(ConstantRate(1.0))
        with pytest.raises(ValueError, match="t1 >= t0"):
            propagate_map(gen, 1.0, 0.5)

    def test_rejects_non_finite_rate(self):
        gen = dephasing_generator(UncheckedConstantRate(float("nan")))
        with pytest.raises(ValueError, match="non-finite"):
            propagate_map(gen, 0.0, 1.0)

    # A NaN or infinite time used to fail in the step count, with
    # "cannot convert float NaN to integer" or an OverflowError.
    @pytest.mark.parametrize("steps", [None, 4])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("end", ["t0", "t1"])
    def test_rejects_non_finite_times(self, end, bad, steps):
        gen = dephasing_generator(ConstantRate(1.0))
        times = {"t0": 0.0, "t1": 1.0, end: bad}
        with pytest.raises(ValueError, match=rf"^{end} must be finite, got {bad}$"):
            propagate_map(gen, times["t0"], times["t1"], steps=steps)

    def test_maps_identity_to_unit_trace(self):
        rng = np.random.default_rng(31)
        for _ in range(5):
            gen = random_generator(rng, 2, n_ops=2)
            phi = propagate_map(gen, 0.0, 1.5)
            out = (phi @ (np.eye(2) / 2).reshape(-1)).reshape(2, 2)
            assert np.trace(out).real == pytest.approx(1.0, abs=1e-8)


class TestNonFiniteRates:
    """Every rate leaves the models through `lindblad.rates_at`, which
    refuses a NaN or infinite one and names the earliest time that has it."""

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("call, first", [
        (lambda gen: rates_at(gen, [2.0, 0.5, 1.0]), "0.5"),
        (lambda gen: rates_at(gen, 0.75), "0.75"),
        (lambda gen: propagate_map(gen, 0.25, 1.0), "0.25"),
        (lambda gen: bridge_moments(gen, [1.5, 0.5], 1e-3), "0.5"),
    ], ids=["rates_at-grid", "rates_at-scalar", "propagate_map", "bridge_moments"])
    def test_is_refused_naming_the_earliest_time(self, call, first, value):
        # rates_at used to return NaN entries.
        gen = LindbladGenerator(2, np.zeros((2, 2)), (
            (SIGMA_X, ConstantRate(0.5)), (SIGMA_Z, UncheckedConstantRate(value))))
        with pytest.raises(ValueError, match=rf"^non-finite rate at t = {first}: "
                                             rf"\[ ?0\.5 +-?(nan|inf)\]$"):
            call(gen)


class TestRefusedTimes:
    """A time the rate models are not defined at (negative, NaN or infinite)
    is refused whatever the number of dissipators: with none, no model's
    evaluation checks it, and `rates_at` does."""

    @pytest.mark.parametrize("n_ops", [0, 1])
    @pytest.mark.parametrize("call, first", [
        (lambda gen: rates_at(gen, [0.0, math.nan, -1.0]), "nan"),
        (lambda gen: bridge_moments(gen, [math.nan, -1.0], 1e-3), "nan"),
        (lambda gen: propagate_map(gen, -1.0, 0.0), "-1.0"),
        # An empty interval used to return the identity before any check.
        (lambda gen: propagate_map(gen, -1.0, -1.0), "-1.0"),
    ], ids=["rates_at", "bridge_moments", "propagate_map", "propagate_map_empty"])
    def test_is_refused(self, call, first, n_ops):
        gen = LindbladGenerator(2, SIGMA_Z, ((SIGMA_X, ConstantRate(1.0)),)[:n_ops])
        with pytest.raises(ValueError, match=rf"^rate models are defined for finite "
                                             rf"t >= 0, got t = {first}$"):
            call(gen)


class TestBatchedKernel:
    """The batched RK4 kernel, which runs in real arithmetic in the Hermitian
    operator basis, against the complex step-by-step loop in helpers."""

    TOL = 1e-13

    @pytest.mark.parametrize("seed", [1, 2])
    @pytest.mark.parametrize("d", [2, 3, 4, 5, 8])
    def test_single_step_bridges_on_uneven_chunks(self, d, seed):
        gen = random_expcos_generator(np.random.default_rng(seed), d)
        grid = np.linspace(0.0, 2.0, 263)
        windows_per_chunk = max(1, CHUNK_ENTRIES // d**4)
        assert grid.size % windows_per_chunk != 0  # a ragged last chunk at every d
        rates, table = bridge_moments(gen, grid, 1e-3)
        want = spectra_table(reference_bridge_spectra(gen, grid, 1e-3))
        assert np.max(np.abs(table - want)) < self.TOL
        assert np.array_equal(rates, np.stack([rates_at(gen, float(t)) for t in grid], axis=1))

    @pytest.mark.parametrize("seed", [1, 2])
    @pytest.mark.parametrize("d", [2, 3, 4, 5, 8])
    def test_ten_step_bridges_on_non_uniform_grid(self, d, seed):
        # delta = 0.01 takes 10 RK4 steps per window; at d = 8 a chunk holds
        # four steps, so each window is also split into step chunks.
        rng = np.random.default_rng(seed)
        gen = random_expcos_generator(rng, d)
        grid = np.sort(rng.uniform(0.0, 2.0, 37))
        _, table = bridge_moments(gen, grid, 0.01)
        want = spectra_table(reference_bridge_spectra(gen, grid, 0.01))
        assert np.max(np.abs(table - want)) < self.TOL

    @pytest.mark.parametrize("d, t0, t1", [(2, 0.3, 1.7), (3, 0.3, 1.7), (4, 0.0, 0.5),
                                           (5, 0.1, 0.4), (8, 0.2, 0.25)])
    def test_propagate_map_matches_step_loop(self, d, t0, t1):
        gen = random_expcos_generator(np.random.default_rng(36), d)
        steps = round(1000 * (t1 - t0))
        phi = propagate_map(gen, t0, t1)
        assert np.max(np.abs(phi - reference_rk4_propagate(gen, t0, t1, steps))) < self.TOL

    @pytest.mark.parametrize("delta", [math.nan, math.inf, -math.inf, 0.0])
    def test_bridge_moments_refuse_a_step_that_is_not_positive_and_finite(self, delta):
        gen = dephasing_generator(ConstantRate(1.0))
        with pytest.raises(ValueError, match="delta must be positive and finite"):
            bridge_moments(gen, [0.0, 1.0], delta)

    # Both used to fail in the step count: "cannot convert float infinity to
    # integer" from the bridge sweep, a bare OverflowError from propagate_map.
    @pytest.mark.parametrize("call, span", [
        (lambda gen: bridge_moments(gen, [0.0, 1.0], 1e308), "delta = 1e+308"),
        (lambda gen: propagate_map(gen, 0.0, 1e306), "t1 - t0 = 1e+306"),
    ], ids=["bridge_moments", "propagate_map"])
    def test_a_span_too_long_for_a_finite_step_count_is_refused(self, call, span):
        gen = dephasing_generator(ConstantRate(1.0))
        with pytest.raises(ValueError, match=rf"^{re.escape(span)} gives a non-finite number "
                                             rf"of RK4 steps at 1000 per unit time$"):
            call(gen)

    # Each used to reach numpy: "Maximum allowed size exceeded" from
    # propagate_map, "array is too big" from the bridge sweep. Only the
    # explicit count was not refused in the package's words either way.
    @pytest.mark.parametrize("call, message", [
        (lambda gen: bridge_moments(gen, [0.0, 1.0], 1e15),
         "delta = 1000000000000000.0 gives 1e+18 RK4 steps at 1000 per unit time, "
         "more than the 1000000 one window may take"),
        (lambda gen: propagate_map(gen, 0.0, 1e300),
         "t1 - t0 = 1e+300 gives 1e+303 RK4 steps at 1000 per unit time, "
         "more than the 1000000 one window may take"),
        (lambda gen: propagate_map(gen, 0.0, 1.0, steps=10**6 + 1),
         "steps = 1000001 is more than the 1000000 RK4 steps one window may take"),
    ], ids=["bridge_moments", "propagate_map", "propagate_map-steps"])
    def test_a_window_of_more_steps_than_the_cap_is_refused(self, call, message):
        gen = dephasing_generator(ConstantRate(1.0))
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call(gen)

    def test_the_cap_counts_the_rounded_steps(self):
        assert choi.MAX_WINDOW_STEPS == 10**6
        assert choi._default_steps("delta", 1000.0004) == 10**6
        with pytest.raises(ValueError, match=r"^delta = 1000\.0006 gives 1000001 RK4 steps"):
            choi._default_steps("delta", 1000.0006)

    # A scalar used to end in an IndexError, and a 2-D array in a broadcast
    # ValueError, neither naming the argument.
    @pytest.mark.parametrize("starts", [0.5, [[0.1, 0.2]], np.zeros((2, 0))],
                             ids=["scalar", "row", "empty-2-D"])
    def test_bridge_moments_refuse_starts_that_are_not_1d(self, starts):
        gen = dephasing_generator(ConstantRate(1.0))
        shape = np.shape(starts)
        with pytest.raises(ValueError, match=rf"^starts must be a 1-D array of times, "
                                             rf"got shape {re.escape(str(shape))}$"):
            bridge_moments(gen, starts, 0.01)

    @pytest.mark.parametrize("steps, problem", [
        (0, "must be >= 1, got 0"), (-5, "must be >= 1, got -5"),
        (2.5, "must be an integer, got 2.5"), (True, "must be an integer, got True"),
        (math.nan, "must be an integer, got nan"), (math.inf, "must be an integer, got inf")])
    def test_propagate_map_refuses_a_step_count_that_is_not_a_positive_integer(
            self, steps, problem):
        # Over an empty interval too, which used to return the identity.
        gen = dephasing_generator(ConstantRate(1.0))
        for t1 in (1.0, 0.0):
            with pytest.raises(ValueError, match=f"^steps {problem}$"):
                propagate_map(gen, 0.0, t1, steps=steps)

    def test_numpy_integer_step_counts_are_accepted(self):
        gen = random_expcos_generator(np.random.default_rng(12), 2)
        assert np.array_equal(propagate_map(gen, 0.0, 0.5, steps=np.int32(40)),
                              propagate_map(gen, 0.0, 0.5, steps=40))

    @pytest.mark.parametrize("d", [2, 3, 4, 8])
    def test_batched_sweep_equals_each_window_swept_alone(self, d):
        # One step per window, over two full chunks and a ragged third: a
        # window stacked with others gets the bits it gets alone.
        gen = random_expcos_generator(np.random.default_rng(80 + d), d)
        windows_per_chunk = CHUNK_ENTRIES // d**4
        assert windows_per_chunk > 1
        grid = np.linspace(0.0, 1.0, 2 * windows_per_chunk + 3)
        rates, table = bridge_moments(gen, grid, 1e-3)
        alone = [bridge_moments(gen, [t], 1e-3) for t in grid]
        assert rates.tobytes() == np.concatenate([r for r, _ in alone], axis=1).tobytes()
        assert table.tobytes() == np.concatenate([s for _, s in alone], axis=1).tobytes()

    @pytest.mark.parametrize("d", [2, 3, 4, 8])
    def test_the_table_is_each_windows_spectrum_summed_bit_for_bit(self, d):
        # The sweep keeps of each spectrum its smallest value and the power
        # sums r_2 and r_3, taken here one window at a time from the kernel's
        # own Choi states, summed as eigvalsh returns the spectrum, and
        # lambda_moments sums them in the same bits. The grid ends in a
        # ragged chunk of one-step windows, and at delta = 0.01 at d = 8
        # every window is a chunk of its own.
        gen = random_expcos_generator(np.random.default_rng(120 + d), d)
        windows_per_chunk = CHUNK_ENTRIES // d**4
        grid = np.linspace(0.0, 1.0, 2 * windows_per_chunk + 3)
        assert grid.size % windows_per_chunk != 0
        for delta, steps in ((1e-3, 1), (0.01, 10)):
            _, table = bridge_moments(gen, grid, delta)
            chunks = choi._rk4_chunks(gen, grid, delta / steps, steps)
            states = np.concatenate([from_hermitian_basis(maps, d) for *_, maps in chunks])
            for column, state in zip(table.T, states, strict=True):
                lam = np.linalg.eigvalsh(state)
                want = np.array([lam[0], np.sum(lam**2), np.sum(lam**3)])
                assert column.tobytes() == want.tobytes()
                assert lambda_moments(state)[1:].tobytes() == column[1:].tobytes()
            alone = [bridge_moments(gen, [t], delta)[1] for t in grid]
            assert table.tobytes() == np.concatenate(alone, axis=1).tobytes()

    @pytest.mark.parametrize("d", [2, 8])
    @pytest.mark.parametrize("entry, value, problem", [
        ((0, 0, 0), -1.0, r"exceeds 1\.0e-06"),  # E_00 leaks trace at rate 1
        ((0, 1, 1), math.nan, "is non-finite"),  # off the diagonal basis elements
        ((1, 0, 0), math.nan, "is non-finite")])
    def test_sweep_refuses_transfer_blocks_that_are_not_trace_preserving(
            self, d, entry, value, problem, monkeypatch):
        gen = random_expcos_generator(np.random.default_rng(90 + d), d)
        blocks = gen.transfer_blocks.copy()
        blocks[entry] += value
        monkeypatch.setitem(vars(gen), "transfer_blocks", blocks)  # the cached table
        for call in (lambda: bridge_moments(gen, np.linspace(0.0, 1.0, 9), 1e-3),
                     lambda: propagate_map(gen, 0.5, 0.501)):
            with pytest.raises(ValueError, match="^map is not trace preserving: Choi trace "
                                                 f"deviation .* {problem}$"):
                call()

    def test_a_sweeps_peak_memory_does_not_grow_with_its_steps(self):
        # example1's generator on 200 windows. At delta = 1e-3 one chunk
        # stacks all 200 one-step windows; at delta = 1 each window is a
        # chunk of 1000 step maps, so the peaks differ by about 1000/200.
        # The rates used to be one array of every half-step rate, (3, 200,
        # 2001) at delta = 1, and the peaks differed by about 80x.
        config = load_scenario(bundled_scenario_path("example1"))
        gen = build_generator(config)
        grid = np.linspace(0.0, config.t_max, 200)
        peaks = []
        for delta in (1e-3, 1.0):
            bridge_moments(gen, grid[:1], delta)  # builds the transfer blocks
            tracemalloc.start()
            try:
                bridge_moments(gen, grid, delta)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < 8 * peaks[0], peaks

    def test_a_map_with_large_entries_passes_the_trace_check(self):
        # Rates -0.403 and +0.344: the map's largest entry grows to 3.9e9
        # over [0, 8], and its Choi trace's rounding with it. The absolute
        # check used to refuse it: "Choi trace deviation 7.713e-05 exceeds
        # 1.0e-06".
        gen = random_generator(np.random.default_rng(0), 4, 2)
        phi = propagate_map(gen, 0.0, 8.0)
        want = reference_rk4_propagate(gen, 0.0, 8.0, 8000)
        assert np.abs(want).max() > 1e9
        assert np.abs(phi - want).max() < 1e-10 * np.abs(want).max()

    @pytest.mark.parametrize("d", [2, 3, 5, 8])
    def test_kernel_propagates_real_maps_with_exactly_hermitian_choi_states(self, d):
        # Ten steps per window: at d = 8 a window's steps span chunks.
        gen = random_expcos_generator(np.random.default_rng(70 + d), d)
        for _, _, _, maps in choi._rk4_chunks(gen, np.linspace(0.0, 1.0, 7), 1e-3, 10):
            assert maps.dtype == np.float64
            states = from_hermitian_basis(maps, d)
            assert np.array_equal(states, np.swapaxes(states, -1, -2).conj())

    @pytest.mark.parametrize("d", [2, 3, 4, 8])
    def test_propagate_map_realigns_the_choi_state_the_sweep_eigensolves(self, d):
        # Maps leave the Hermitian basis only as Choi states: propagate_map
        # scales one by d and realigns it. Over one step of delta = 2**-10
        # from a dyadic start, t1 - t0 is delta exactly, so both calls
        # integrate the same map; undoing the realignment gives back the
        # state the sweep eigensolves, bit for bit when d is a power of two,
        # and so the smallest eigenvalue, r_2 and r_3 the sweep keeps.
        gen = random_expcos_generator(np.random.default_rng(110 + d), d)
        delta = 2.0**-10
        for t in (0.0, 0.5, 1.25):
            assert (t + delta) - t == delta
            superop = propagate_map(gen, t, t + delta).reshape(d, d, d, d)
            state = superop.transpose(2, 0, 3, 1).reshape(d * d, d * d) / d
            got = spectra_table(np.linalg.eigvalsh(state)[None])
            want = bridge_moments(gen, [t], delta)[1]
            if d & (d - 1):
                assert np.max(np.abs(got - want)) <= 1e-15
            else:
                assert got.tobytes() == want.tobytes()


@pytest.fixture
def sweeps(monkeypatch):
    return count_sweeps(monkeypatch)


def same_bits(got, want):
    """Each array in got equals its counterpart in want bit for bit."""
    return all(a.shape == b.shape and a.tobytes() == b.tobytes() for a, b in zip(got, want))


class TestLastSweep:
    """bridge_moments caches its most recent sweep, a pure function of the
    generator, delta and the bits of the starts."""

    GRID = np.linspace(0.0, 2.0, 41)

    @staticmethod
    def generator(hamiltonian=SIGMA_X):
        rate = ExpCosRate()
        return LindbladGenerator(2, 0.3 * hamiltonian,
                                 ((SIGMA_Z.copy(), rate), (LOWERING.copy(), rate)))

    def assert_fresh(self, result, gen, delta):
        """result is what a sweep into an empty cache returns."""
        choi._sweep.cache_clear()
        assert same_bits(result, bridge_moments(gen, self.GRID, delta))

    def test_a_hit_returns_the_read_only_table_of_the_miss(self, sweeps):
        gen = random_expcos_generator(np.random.default_rng(3), 3)
        rates, table = bridge_moments(gen, self.GRID, 0.01)
        assert table.shape == (3, self.GRID.size) and not table.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            table[0, 0] = 0.0
        for _ in range(2):
            hit_rates, hit_table = bridge_moments(gen, self.GRID, 0.01)
            assert hit_table is table
            # Each call gets its own writeable copy of the rates.
            assert hit_rates is not rates and hit_rates.flags.writeable
            assert same_bits((hit_rates,), (rates,))
        assert len(sweeps) == 1
        self.assert_fresh((rates, table), gen, 0.01)

    def test_a_hit_evaluates_no_rate_and_warns_again_in_the_same_words(self, sweeps):
        rate = CountingRate()
        gen = LindbladGenerator(2, np.zeros((2, 2)),
                                ((SIGMA_Z, rate), (SIGMA_X, ConstantRate(200.0))))
        messages = []
        for _ in range(3):
            with pytest.warns(UserWarning, match="RK4 step is dubious") as record:
                bridge_moments(gen, self.GRID, 1e-3)
            messages.append([str(w.message) for w in record])
            # One RK4 step per window: rates at its start, middle and end.
            assert rate.calls == 3 * self.GRID.size
        assert messages == [["RK4 step is dubious: max |h*gamma| = 0.2 in the window "
                             "starting at t = 0 (limit 0.1)"]] * 3
        assert len(sweeps) == 1

    def test_a_generator_built_from_the_same_parts_misses_and_sweeps_the_same_bits(
            self, sweeps):
        gen = random_expcos_generator(np.random.default_rng(3), 3)
        twin = LindbladGenerator(gen.dim, gen.hamiltonian, gen.dissipators)
        first = bridge_moments(gen, self.GRID, 0.01)
        second = bridge_moments(twin, self.GRID, 0.01)
        assert len(sweeps) == 2
        assert second[1] is not first[1]
        assert same_bits(second, first)

    def test_same_rates_other_hamiltonian_miss(self, sweeps):
        # 0.3 sigma_y would be unitarily equivalent to 0.3 sigma_x with these
        # dissipators, so its table would differ from the first only on
        # rounding; 0.3 sigma_z is not, and moves every row well past it.
        gen_x = self.generator(SIGMA_X)
        gen_z = LindbladGenerator(2, 0.3 * SIGMA_Z, gen_x.dissipators)
        rates_x, table_x = bridge_moments(gen_x, self.GRID, 0.01)
        result_z = bridge_moments(gen_z, self.GRID, 0.01)
        assert len(sweeps) == 2
        assert np.array_equal(rates_x, result_z[0])
        assert np.all(np.max(np.abs(table_x - result_z[1]), axis=1) > 1e-12)
        self.assert_fresh(result_z, gen_z, 0.01)

    def test_generator_is_immutable_and_a_rebuilt_one_misses(self, sweeps):
        rate = ExpCosRate()
        hamiltonian, op = 0.3 * SIGMA_X, LOWERING.copy()
        gen = LindbladGenerator(2, hamiltonian, ((SIGMA_Z, rate), (op, rate)))
        before = bridge_moments(gen, self.GRID, 0.01)
        for frozen in (gen.hamiltonian, gen.dissipators[1][0], gen.transfer_blocks):
            with pytest.raises(ValueError, match="read-only"):
                frozen[1, 0] = 0.5
        with pytest.raises(AttributeError, match="cannot assign to field 'k'"):
            rate.k = 1.5
        # The caller's arrays stay theirs: writeable, and no longer read by gen.
        hamiltonian[1, 0] = op[1, 0] = 0.5
        assert same_bits(bridge_moments(gen, self.GRID, 0.01), before)
        assert len(sweeps) == 1
        rebuilt = LindbladGenerator(2, gen.hamiltonian, ((SIGMA_Z, rate), (op, rate)))
        after = bridge_moments(rebuilt, self.GRID, 0.01)
        assert len(sweeps) == 2
        assert not np.array_equal(before[1], after[1])
        self.assert_fresh(after, rebuilt, 0.01)

    def test_other_delta_or_starts_miss(self, sweeps):
        gen = self.generator()
        bridge_moments(gen, self.GRID, 0.01)
        result = bridge_moments(gen, self.GRID, 0.02)
        assert len(sweeps) == 2
        self.assert_fresh(result, gen, 0.02)
        # -0.0 starts the same window as 0.0, but its bits differ.
        bridge_moments(gen, np.where(self.GRID == 0.0, -0.0, self.GRID), 0.02)
        assert len(sweeps) == 4

    def test_rk4_warning_fires_on_a_hit(self, sweeps):
        gen = dephasing_generator(ConstantRate(200.0))
        for _ in range(2):
            with pytest.warns(UserWarning, match="RK4 step is dubious"):
                bridge_moments(gen, self.GRID, 1e-3)
        assert len(sweeps) == 1

    def test_a_refused_sweep_is_not_cached(self, sweeps):
        gen = dephasing_generator(UncheckedConstantRate(math.nan))
        for _ in range(2):
            with pytest.raises(ValueError, match="non-finite rate at t = 0:"):
                bridge_moments(gen, self.GRID, 0.01)
        assert len(sweeps) == 2

    def test_threads_alternating_generators_get_their_own_tables(self, sweeps):
        # Four threads (more than the cores here), two per generator, in
        # lockstep so the two generators alternate in the cache; a short
        # switch interval interleaves them inside bridge_moments too.
        gens = [random_expcos_generator(np.random.default_rng(seed), 2) for seed in (4, 5)]
        expected = [bridge_moments(gen, self.GRID, 0.01) for gen in gens]
        turns = threading.Barrier(4)
        results = [[] for _ in range(4)]

        def work(gen, out):
            for _ in range(10):
                turns.wait(timeout=60)
                out.append(bridge_moments(gen, self.GRID, 0.01))

        threads = [threading.Thread(target=work, args=(gens[i % 2], results[i]))
                   for i in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for i, got in enumerate(results):
            assert len(got) == 10
            assert all(same_bits(result, expected[i % 2]) for result in got)


class TestIntermediateMap:
    """The bridge Lambda(t, s) is the propagator from s to t: propagate_map."""

    def test_equal_times_identity(self):
        gen = dephasing_generator(ConstantRate(1.0))
        lam = propagate_map(gen, 1.0, 1.0)
        assert np.allclose(lam, np.eye(4), atol=1e-10)

    def test_time_homogeneity_for_constant_rates(self):
        gen = dephasing_generator(ConstantRate(0.7))
        bridged = propagate_map(gen, 0.7, 1.9)
        direct = propagate_map(gen, 0.0, 1.2)
        assert np.max(np.abs(bridged - direct)) < 1e-8

    def test_coherence_revival_factor(self):
        # On (2, 2.2) the ExpCos rate is negative: the bridge map amplifies
        # coherences, with factor exp(-2 * integral of gamma) > 1.
        gen = dephasing_generator(ExpCosRate(k=1.0))
        lam = propagate_map(gen, 2.0, 2.2)
        expected = np.exp(-2.0 * expcos_integral(2.0, 2.2))
        assert expected > 1.0
        assert lam[1, 1].real == pytest.approx(expected, abs=1e-9)

    def test_composition_recovers_full_propagator(self):
        gen = dephasing_generator(ExpCosRate(k=1.0))
        phi_s = propagate_map(gen, 0.0, 1.1)
        phi_t = propagate_map(gen, 0.0, 2.3)
        bridge = propagate_map(gen, 1.1, 2.3)
        assert np.max(np.abs(bridge @ phi_s - phi_t)) < 1e-7

    def test_matches_inverse_where_well_conditioned(self):
        # Phi(t,0) = Lambda(t,s) Phi(s,0): where Phi(s,0) is well conditioned
        # (condition number ~2 here) the bridge equals Phi(t,0) Phi(s,0)^-1.
        gen = random_expcos_generator(np.random.default_rng(37), 3)
        phi_s = propagate_map(gen, 0.0, 0.7)
        phi_t = propagate_map(gen, 0.0, 1.9)
        assert np.linalg.cond(phi_s) < 10.0
        inverse = np.linalg.solve(phi_s.T, phi_t.T).T
        bridge = propagate_map(gen, 0.7, 1.9)
        assert np.max(np.abs(bridge - inverse)) < 1e-10

    def test_exact_bridge_where_propagator_is_ill_conditioned(self):
        # Strong constant dephasing: Phi(0.5, 0) has condition number
        # e^{2*50*0.5}, far past anything a solve could invert, yet the bridge
        # is the plain dephasing map diag(1, e^-10, e^-10, 1). RK4 at
        # |h gamma| = 0.05 is off by ~4e-10 there.
        gen = dephasing_generator(ConstantRate(50.0))
        lam = propagate_map(gen, 0.5, 0.6)
        exact = np.diag([1.0, np.exp(-10.0), np.exp(-10.0), 1.0])
        assert np.max(np.abs(lam - exact)) < 1e-9


class TestChoiStates:
    def test_rejects_non_trace_preserving(self):
        # The kernel's check, on Choi traces read off the transfer matrices:
        # the identity map and half of it.
        maps = np.eye(4)[None] * np.array([1.0, 0.5])[:, None, None]
        with pytest.raises(ValueError, match=r"^map is not trace preserving: Choi trace "
                                             r"deviation 5\.000e-01 exceeds 1\.0e-06$"):
            _require_trace_preserving(maps, 2)
        with pytest.raises(ValueError, match="Choi trace deviation nan is non-finite"):
            _require_trace_preserving(np.full((1, 4, 4), np.nan), 2)

    def test_the_trace_bound_scales_with_the_largest_entry(self):
        # The identity map plus 1e7 between two traceless basis elements: the
        # bound is 1e-6 * 1e7 = 10, so a trace off by 1e-2 passes and one off
        # by 20 does not.
        maps = np.repeat(np.eye(4)[None], 3, axis=0)
        maps[:, 1, 2] = 1e7
        maps[1, 0, 0] += 2e-2
        maps[2, 0, 0] += 40.0
        _require_trace_preserving(maps[:2], 2)
        with pytest.raises(ValueError, match=r"deviation 2\.000e\+01 exceeds 1\.0e\+01$"):
            _require_trace_preserving(maps, 2)

    # The table's columns are the smallest Choi eigenvalue, r_2 and r_3.
    def test_identity_gives_bell_state(self):
        # Spectrum {1, 0, 0, 0}: a pure state.
        _, table = bridge_moments(LindbladGenerator(2, np.zeros((2, 2)), ()), [0.0, 1.0], 0.01)
        assert np.allclose(table, [[0.0] * 2, [1.0] * 2, [1.0] * 2], atol=1e-15)

    def test_constant_dephasing_spectrum(self):
        # Spectrum {3/4, 1/4, 0, 0}: r_2 = 10/16 and r_3 = 28/64.
        gen = dephasing_generator(ConstantRate(1.0))
        _, table = bridge_moments(gen, [0.0, 2.0], np.log(2.0) / 2.0)
        assert np.allclose(table, [[0.0] * 2, [0.625] * 2, [0.4375] * 2], atol=1e-9)

    def test_negative_rate_window_is_not_cp(self):
        # Coherence factor q = e^{2 delta}: spectrum {(1 + q)/2, (1 - q)/2, 0, 0},
        # so r_2 = (1 + q^2)/2 and r_3 = (1 + 3 q^2)/4.
        gen = dephasing_generator(ConstantRate(-1.0))
        _, table = bridge_moments(gen, [0.0], 1e-3)
        q = np.exp(2e-3)
        assert np.allclose(table, [[(1.0 - q) / 2.0], [(1.0 + q**2) / 2.0],
                                   [(1.0 + 3.0 * q**2) / 4.0]], atol=1e-12)
        assert table[0, 0] == pytest.approx(-1e-3, abs=1e-5)
        series = witness_series(gen, [0.0, 1.0], 1e-3, mode="finite-interval")
        assert np.all(series.values > VIOLATION_THRESHOLD)

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_constant_rate_bridges_match_the_exponential(self, d):
        # With constant rates the bridge map over delta is expm(delta Lhat).
        rng = np.random.default_rng(60 + d)
        gen = random_generator(rng, d, n_ops=2)
        delta = 0.05
        _, table = bridge_moments(gen, [0.0, 1.0], delta)
        exact = np.linalg.eigvalsh(reference_choi(expm(delta * reference_superoperator(gen, 0.0))))
        assert np.allclose(table, spectra_table([exact] * 2), atol=1e-11)

    def test_consistency_with_small_time_choi(self):
        rng = np.random.default_rng(32)
        eps = 1e-3
        for _ in range(10):
            gen = random_generator(rng, 2, n_ops=2)
            t = float(rng.uniform(0.0, 2.0))
            first_order = np.eye(4) + eps * reference_superoperator(gen, t)
            assert np.max(np.abs(reference_choi(first_order)
                                 - first_order_choi(gen, t, eps))) < 1e-12

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), d=st.integers(2, 5), k=st.integers(0, 4))
    def test_builder_tables_are_traces_of_the_dissipators_choi_images(self, seed, d, k):
        # The tables, contracted from three factors per jump operator, against
        # explicit traces of each dissipator's loop-built Choi image at unit
        # rate. Random complex operators, the second a repeat of the first and
        # the third normal, under a nonzero Hamiltonian.
        rng = np.random.default_rng(seed)
        ops = [rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)) for _ in range(k)]
        if k > 1:
            ops[1] = ops[0]
        if k > 2:
            ops[2] = random_normal_operator(rng, d)
        gen = LindbladGenerator(d, random_hermitian(rng, d),
                                tuple((op, ConstantRate(1.0)) for op in ops))
        tables = gen.small_time_tables
        blocks = reference_dissipator_blocks(gen)
        bell = max_entangled_projector(d)
        want = {
            "bell_overlaps": np.einsum("ab,kba->k", bell, blocks).real,
            "traces2": np.einsum("kab,lba->kl", blocks, blocks).real,
            "bell_pairs": np.einsum("ab,kbc,lca->kl", bell, blocks, blocks).real,
            "traces3": np.einsum("kab,lbc,mca->klm", blocks, blocks,
                                 blocks).real.reshape(k * k, k),
            "dissipator_scales": np.linalg.norm(blocks, axis=(1, 2))}
        assert tuple(want) + ("off_bell",) == tables._fields
        for name, table in want.items():
            got = getattr(tables, name)
            assert got.shape == table.shape
            scale = np.max(np.abs(table), initial=0.0)
            assert np.max(np.abs(got - table), initial=0.0) <= 1e-13 * scale
        # The off-Bell table and the Bell overlaps read one Gram matrix G^c,
        # of the centred vectors Q v_k/sqrt(d): x_k = -G^c_kk, and the
        # spectra sum to -x . gamma and are the nonzero spectrum of Q X_D Q.
        ops = gen.operators
        centred = ops - np.einsum("kii->k", ops)[:, None, None] / d * np.eye(d)
        columns = np.swapaxes(centred, 1, 2).reshape(k, d * d).T / np.sqrt(d)
        norms = np.einsum("ak,ak->k", columns.conj(), columns).real
        scale = norms.sum()  # bounds sum_k |gamma_k| G^c_kk for |gamma_k| <= 1
        assert np.max(np.abs(tables.bell_overlaps + norms), initial=0.0) <= 1e-13 * scale
        table = tables.off_bell
        assert table.shape in ((k,), (k, min(k, d * d), min(k, d * d)))
        traces = table if table.ndim == 1 else np.einsum("kii->k", table).real
        assert np.max(np.abs(traces - norms), initial=0.0) <= 1e-13 * scale
        gammas = rng.uniform(-1.0, 1.0, size=(k, 3))
        mu = gen.projected_spectra(gammas)
        assert mu.shape[0] <= k
        assert np.max(np.abs(tables.bell_overlaps @ gammas + mu.sum(0))) <= 1e-13 * scale
        q = np.eye(d * d) - bell
        for gamma, got in zip(gammas.T, mu.T):
            full = np.linalg.eigvalsh(q @ np.tensordot(gamma, blocks, axes=1) @ q)
            padded = np.sort(np.concatenate((got, np.zeros(d * d - len(got)))))
            assert np.max(np.abs(padded - full)) <= 1e-12 * scale

    def test_small_time_agrees_with_finite_interval_to_second_order(self):
        gens = {
            "dephasing": (dephasing_generator(ExpCosRate(k=1.0)), 0.7),
            "isotropic": (isotropic_pauli_generator(ExpCosRate(k=1.0)), 0.3),
        }
        for gen, t in gens.values():
            for eps in (1e-2, 1e-3, 1e-4):
                lin = first_order_choi(gen, t, eps)
                full = reference_choi(propagate_map(gen, t, t + eps))
                assert np.max(np.abs(lin - full)) < 10.0 * eps**2


class TestRequirePositive:
    """The one check behind every "X must be positive and finite" refusal."""

    @pytest.mark.parametrize("value", [0, 0.0, -0.0, -1, -1e-300, math.nan, math.inf,
                                       -math.inf])
    def test_refuses_a_value_that_is_not_positive_and_finite(self, value):
        with pytest.raises(ValueError) as info:
            require_positive("x", value)
        assert str(info.value) == f"x must be positive and finite, got {value}"

    @pytest.mark.parametrize("value", [5e-324, 1e-3, 1, 1.7976931348623157e308,
                                       np.float64(0.5), np.float32(0.25), np.int64(3)])
    def test_accepts_a_positive_finite_value(self, value):
        assert require_positive("x", value) is None

    # A bool used to pass as 1 (True < inf), and a string, None or a complex
    # failed in the comparison or in np.isfinite with no argument named.
    @pytest.mark.parametrize("value", [True, np.True_, "0.1", None, 1 + 0j],
                             ids=["True", "np.True_", "str", "None", "complex"])
    @pytest.mark.parametrize("name, call", [
        ("epsilon", lambda gen, v: witness_series(gen, [0.0, 1.0], v)),
        ("delta", lambda gen, v: cp_divisibility_scan(gen, [0.0, 1.0], v)),
        ("delta", lambda gen, v: bridge_moments(gen, [0.0, 1.0], v)),
        ("t_max", lambda gen, v: measure_report(gen, v, 5)),
        ("t0", lambda gen, v: propagate_map(gen, v, 2.0)),
        ("t1", lambda gen, v: propagate_map(gen, 0.0, v))],
        ids=["witness_series", "cp_divisibility_scan", "bridge_moments", "measure_report",
             "propagate_map t0", "propagate_map t1"])
    def test_refuses_a_bool_or_a_value_that_is_not_a_real_number(self, name, call, value):
        gen = dephasing_generator(ConstantRate(1.0))
        with pytest.raises(ValueError) as info:
            call(gen, value)
        assert str(info.value) == f"{name} must be a real number, got {value!r}"

    # The checks it replaced each wrote this message; callers and tests read it.
    @pytest.mark.parametrize("name, call", [
        ("delta", lambda gen, v: bridge_moments(gen, [0.0, 1.0], v))],
        ids=["bridge_moments"])
    def test_each_caller_keeps_its_message(self, name, call):
        gen = dephasing_generator(ConstantRate(1.0))
        with pytest.raises(ValueError) as info:
            call(gen, -0.5)
        assert str(info.value) == f"{name} must be positive and finite, got -0.5"


class TestChoiInvariants:
    def test_trace_and_partial_trace_of_propagated_chois(self):
        rng = np.random.default_rng(34)
        for _ in range(10):
            gen = random_generator(rng, 2, n_ops=2)
            t = float(rng.uniform(0.2, 2.0))
            c = reference_choi(propagate_map(gen, 0.0, t))
            output_traced = np.einsum("iaja->ij", c.reshape(2, 2, 2, 2))
            assert abs(np.trace(c).real - 1.0) < 1e-9
            assert np.max(np.abs(output_traced - np.eye(2) / 2)) < 1e-8

    def test_composition_law(self):
        gen = dephasing_generator(ExpCosRate(k=1.0))
        rng = np.random.default_rng(35)
        for _ in range(20):
            s, t = np.sort(rng.uniform(0.0, 3.0, size=2))
            if t - s < 1e-3:
                t = s + 1e-3
            phi_t = propagate_map(gen, 0.0, float(t))
            composed = propagate_map(gen, float(s), float(t)) @ propagate_map(
                gen, 0.0, float(s)
            )
            c_direct = reference_choi(phi_t)
            c_composed = reference_choi(composed)
            assert np.max(np.abs(c_direct - c_composed)) < 1e-7

    def test_markovian_intermediate_maps_all_cp(self):
        # Constant non-negative rates form a semigroup: every bridge map is CP.
        gen = isotropic_pauli_generator(ConstantRate(0.6))
        grid = np.linspace(0.0, 5.0, 11)
        props = [np.eye(4, dtype=complex)]
        for a, b in zip(grid[:-1], grid[1:]):
            props.append(propagate_map(gen, float(a), float(b)) @ props[-1])
        for i in range(len(grid)):
            for j in range(i + 1, len(grid)):
                bridge = np.linalg.solve(props[i].T, props[j].T).T
                assert np.linalg.eigvalsh(reference_choi(bridge))[0] >= -1e-10
