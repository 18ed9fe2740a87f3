import math
import os
import tracemalloc
import warnings
from functools import cached_property

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import expm

from choi_moments.choi import (
    CHUNK_ENTRIES,
    bridge_moments,
    propagate_map,
)
from choi_moments.detect import (
    _RATE_NOISE,
    VIOLATION_THRESHOLD,
    _rate_limits,
    _violation_intervals,
    assess,
    cp_divisibility_scan,
    lambda_moments,
    measure_report,
    moment_witness,
    witness_series,
)
from choi_moments.config import build_generator, bundled_scenario_path, load_scenario
from choi_moments.lindblad import (
    LOWERING,
    RAISING,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    LindbladGenerator,
    rates_at,
)
from choi_moments.rates import (ConstantRate, ExpCosRate, LorentzianRate, RateModel, TabulatedRate,
                                 rate_eval)
from helpers import (
    CountingRate,
    dephasing_generator,
    first_order_choi,
    isotropic_pauli_generator,
    max_entangled_projector,
    random_expcos_generator,
    random_generator,
    random_hermitian,
    random_kraus_choi,
    random_psd_unit_trace,
    random_unital_generator,
    random_unitary,
    reference_choi,
    reference_dissipator_blocks,
    reference_generator_choi,
    reference_rate_limits,
    reference_rhp_rates,
    reference_small_time_witness,
    reference_superoperator,
    reference_violation_intervals,
    renyi_entropy,
    schatten_norm,
    spectra_table,
)


def rate_limits(gen, times):
    """The rates on times as rows, then f and g from them by `_rate_limits`."""
    gammas = rates_at(gen, times)
    return (gammas, *_rate_limits(gen, gammas))


def f_and_g(gen, t):
    """f(t) and g(t) as floats, from `_rate_limits` at the one time t."""
    _, f, g = rate_limits(gen, [float(t)])
    return float(f[0]), float(g[0])


class BlowUpRate(RateModel):
    """Rate 1 up to `after`, infinite past it."""

    __slots__ = _fields = ("after",)

    def __init__(self, after: float):
        self._set_fields(after)

    def evaluate(self, t: np.ndarray) -> np.ndarray:
        return np.where(t > self.after, math.inf, 1.0)


def lorentzian_first_pole(lam, gamma0):
    g_abs = math.sqrt(2.0 * gamma0 * lam - lam * lam)
    return (2.0 / g_abs) * (math.pi - math.atan2(g_abs, lam))


ETERNAL_PAULI = os.path.join(os.path.dirname(__file__), "data", "eternal_pauli.cfg")


def bundled(name):
    """Generator, grid and config of a bundled scenario."""
    config = load_scenario(bundled_scenario_path(name))
    return build_generator(config), np.linspace(0.0, config.t_max, config.points), config


def dephasing_witness_exact(gamma, eps):
    """Closed form for the first-order dephasing window: spectrum {1-a, a, 0, 0}
    with a = eps*gamma gives r2^2 - r3 = -a (1 - a) (1 - 2a)^2."""
    a = eps * gamma
    return -a * (1.0 - a) * (1.0 - 2.0 * a) ** 2


def expcos_measure_oracle():
    """Closed-form moment measure of single-channel exp(-t) cos(t) dephasing.

    The rate is negative on (pi/2 + 2 pi n, 3 pi/2 + 2 pi n); with
    antiderivative e^{-t} (sin t - cos t)/2, summing the lobes geometrically
    gives (e^{-pi/2} + e^{-3 pi/2}) / (2 (1 - e^{-2 pi})).
    """
    return (np.exp(-np.pi / 2) + np.exp(-3 * np.pi / 2)) / (2.0 * (1.0 - np.exp(-2 * np.pi)))


NOT_ONE_HERMITIAN_MATRIX = [
    (np.zeros((2, 3, 3)), r"expected a non-empty square matrix, got shape \(2, 3, 3\)"),
    (np.zeros((2, 3)), "expected a square matrix, got shape"),
    (np.array([[0.0, 1e-6], [0.0, 0.0]]), "not Hermitian"),
    (np.diag([np.nan, 0.0]), "non-finite"),
    # Its moments used to read [0, 0, 0] and its witness 0.0.
    (np.zeros((0, 0)), r"expected a non-empty square matrix, got shape \(0, 0\)"),
]
NOT_ONE_HERMITIAN_MATRIX_IDS = ["stack", "not-square", "not-hermitian", "non-finite", "empty"]


class TestLambdaMoments:
    def test_identity_channel(self):
        assert np.allclose(lambda_moments(max_entangled_projector(2)), [1.0, 1.0, 1.0], atol=1e-12)

    def test_dephasing_small_time(self):
        gen = dephasing_generator(ConstantRate(1.0))
        r = lambda_moments(first_order_choi(gen, 0.0, 1e-3))
        assert r[1] == pytest.approx(0.998002, abs=1e-9)
        assert r[2] == pytest.approx(0.997003, abs=1e-9)

    def test_maximally_mixed(self):
        assert np.allclose(lambda_moments(np.eye(4) / 4), [1.0, 0.25, 0.0625], atol=1e-14)

    def test_third_moment(self):
        assert lambda_moments(np.diag([0.75, 0.25, 0.0, 0.0]))[2] == pytest.approx(
            0.4375, abs=1e-14
        )

    def test_first_moment_matches_trace(self):
        rng = np.random.default_rng(16)
        for _ in range(10):
            m = random_hermitian(rng, 6)
            assert lambda_moments(m)[0] == pytest.approx(float(np.trace(m).real), abs=1e-10)

    def test_sums_the_spectrum_as_eigvalsh_returns_it(self):
        # The moments of the ascending eigenvalues, summed in that order.
        m = random_hermitian(np.random.default_rng(17), 9)
        lam = np.linalg.eigvalsh(m)
        assert lambda_moments(m, 4).tolist() == [np.sum(lam**n) for n in range(1, 5)]

    def test_sums_kraus_choi_states_as_the_bridge_sweep_does(self):
        # r_2 and r_3 in the bits of the sweep's table for the same
        # spectrum. The helper's states are exactly Hermitian, so
        # lambda_moments eigensolves c itself. Summed over a reversed view
        # of the spectrum, while the sweep summed a descending copy, 82 of
        # these 2000 states used to differ from the table in the last bit.
        rng = np.random.default_rng(5)
        for d in (2, 3, 4, 5, 8):
            for _ in range(400):
                c = random_kraus_choi(rng, d, int(rng.integers(1, d * d + 1)))
                want = spectra_table(np.linalg.eigvalsh(c)[None])[1:, 0]
                assert lambda_moments(c)[1:].tobytes() == want.tobytes()

    def test_identity(self):
        assert lambda_moments(np.eye(2)).tolist() == [2.0, 2.0, 2.0]

    def test_pauli_z(self):
        # The odd moments of a signed spectrum cancel.
        assert lambda_moments(np.diag([1.0, -1.0])).tolist() == [0.0, 2.0, 0.0]

    def test_descending_with_multiplicity(self):
        assert lambda_moments(np.diag([2.0, -1.0, 2.0, 0.0]), 4) == pytest.approx(
            [3.0, 9.0, 15.0, 33.0], abs=1e-12)

    def test_moments_from_spectrum(self):
        assert lambda_moments(np.diag([0.5, 0.3, 0.2])) == pytest.approx(
            [1.0, 0.38, 0.16], abs=1e-15)

    def test_unitary_invariance(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            m = random_hermitian(rng, 4)
            u = random_unitary(rng, 4)
            rotated = lambda_moments(u @ m @ u.conj().T)
            assert np.max(np.abs(lambda_moments(m) - rotated)) < 1e-9

    @pytest.mark.parametrize("m, problem", NOT_ONE_HERMITIAN_MATRIX,
                             ids=NOT_ONE_HERMITIAN_MATRIX_IDS)
    def test_rejects_a_matrix_that_is_not_one_hermitian_matrix(self, m, problem):
        with pytest.raises(ValueError, match=problem):
            lambda_moments(m)

    def test_first_moment_is_one_for_tp_maps(self):
        rng = np.random.default_rng(41)
        for _ in range(10):
            choi = random_kraus_choi(rng, 2, int(rng.integers(1, 5)))
            assert lambda_moments(choi)[0] == pytest.approx(1.0, abs=1e-9)

    def test_rejects_low_order(self):
        with pytest.raises(ValueError, match="n_max"):
            lambda_moments(max_entangled_projector(2), n_max=2)

    @pytest.mark.parametrize("n_max", [4.0, True])
    def test_rejects_an_order_that_is_not_an_integer(self, n_max):
        with pytest.raises(ValueError, match="n_max must be an integer"):
            lambda_moments(max_entangled_projector(2), n_max=n_max)


class TestMomentWitness:
    def test_identity_channel_is_zero(self):
        assert abs(moment_witness(max_entangled_projector(2))) < 1e-14

    def test_negative_rate_violates(self):
        gen = dephasing_generator(ConstantRate(-1.0))
        w = moment_witness(first_order_choi(gen, 0.0, 1e-3))
        assert w == pytest.approx(dephasing_witness_exact(-1.0, 1e-3), abs=1e-12)
        assert w == pytest.approx(0.001005, abs=1e-6)

    def test_positive_rate_does_not_violate(self):
        gen = dephasing_generator(ConstantRate(1.0))
        w = moment_witness(first_order_choi(gen, 0.0, 1e-3))
        assert w == pytest.approx(dephasing_witness_exact(1.0, 1e-3), abs=1e-12)
        assert w == pytest.approx(-0.000995, abs=1e-6)

    @pytest.mark.parametrize("m, problem", NOT_ONE_HERMITIAN_MATRIX,
                             ids=NOT_ONE_HERMITIAN_MATRIX_IDS)
    def test_refuses_what_lambda_moments_refuses(self, m, problem):
        with pytest.raises(ValueError, match=problem):
            moment_witness(m)

    def test_soundness_on_random_states(self):
        # Any PSD unit-trace matrix satisfies r2^2 <= r3 (the acceptance suite
        # runs the full 1000-sample sweep; this is the smoke version).
        rng = np.random.default_rng(42)
        for _ in range(200):
            assert moment_witness(random_psd_unit_trace(rng, 4)) <= 1e-12

    def test_positive_witness_implies_negative_eigenvalue(self):
        gen = dephasing_generator(ExpCosRate(k=1.0))
        for t in np.linspace(1.6, 4.6, 25):
            c = first_order_choi(gen, float(t), 1e-3)
            if moment_witness(c) > VIOLATION_THRESHOLD:
                assert np.linalg.eigvalsh(c)[0] < 0.0


class TestWitnessSeries:
    def test_three_pauli_violation_window(self):
        gen = isotropic_pauli_generator(ExpCosRate(k=1.0))
        grid = np.linspace(0.0, 2.0 * np.pi, 800)
        series = witness_series(gen, grid, 1e-3)
        spacing = grid[1] - grid[0]
        assert len(series.violations) == 1
        start, end = series.violations[0]
        assert abs(start - np.pi / 2) <= spacing + 1e-12
        assert abs(end - 3 * np.pi / 2) <= spacing + 1e-12

    def test_violations_match_negative_rate_set(self):
        gen = dephasing_generator(LorentzianRate(lam=1.5, gamma0=1.0, k=1.0))
        grid = np.linspace(0.0, 10.0, 900)
        # A grid point lands near the rate pole, so the small-time guard trips.
        with pytest.warns(UserWarning, match="dubious"):
            series = witness_series(gen, grid, 1e-3)
        gammas = series.rates[:, 0]
        mismatches = (series.values > VIOLATION_THRESHOLD) != (gammas < 0.0)
        # Disagreement only allowed within one spacing of a sign boundary.
        spacing = grid[1] - grid[0]
        boundary_ts = grid[np.nonzero(np.diff(np.sign(gammas)))[0]]
        for t in grid[mismatches]:
            assert np.min(np.abs(boundary_ts - t)) <= spacing + 1e-12

    def test_dubious_grid_warning_names_the_time_of_the_largest_value(self):
        # The warning used to give the largest |eps*gamma| but not where it is.
        peak = TabulatedRate(((0.0, 1.0), (1.25, -300.0), (2.0, 1.0)))
        gen = LindbladGenerator(2, np.zeros((2, 2)), (
            (SIGMA_X, ConstantRate(1.0)), (SIGMA_Z, peak)))
        grid = np.linspace(0.0, 2.0, 9)
        with pytest.warns(UserWarning) as records:
            witness_series(gen, grid, 1e-3)
        assert [str(r.message) for r in records] == [
            "small-time expansion is dubious on part of the grid: "
            "max |eps*gamma| = 0.3 at t = 1.25 (limit 0.1)"]

    def test_markovian_semigroup_has_no_violations(self):
        gen = dephasing_generator(ConstantRate(1.0))
        series = witness_series(gen, np.linspace(0.0, 5.0, 300), 1e-3)
        assert series.violations == ()
        assert not series.is_non_markovian

    def test_pure_hamiltonian_reads_exactly_zero(self):
        # The first-order state bell + eps X of H = sigma_z read +1e-6 here:
        # the truncation of e^{-i eps H} is not a state.
        grid = np.linspace(0.0, 2.0, 11)
        for dissipators in ((), ((SIGMA_Z, ConstantRate(0.0)),)):
            series = witness_series(LindbladGenerator(2, SIGMA_Z, dissipators), grid, 1e-3)
            assert np.array_equal(series.values, np.zeros(11))
            assert np.array_equal(series.r2, np.ones(11))
            assert np.array_equal(series.r3, np.ones(11))
            assert series.violations == ()

    def test_strong_hamiltonian_on_markovian_dephasing_is_not_flagged(self):
        # H = 10 sigma_z dwarfs a dephasing rate of 0.01: the first-order
        # state gave a witness of +9.0e-5 at every t, a false violation. The
        # small-time map takes H exactly, so it reads what the bridge reads.
        gen = LindbladGenerator(2, 10.0 * SIGMA_Z, ((SIGMA_Z, ConstantRate(0.01)),))
        grid = np.linspace(0.0, 2.0, 21)
        small = witness_series(gen, grid, 1e-3)
        bridge = witness_series(gen, grid, 1e-3, mode="finite-interval")
        assert small.violations == () and bridge.violations == ()
        assert small.values == pytest.approx(np.full(21, -9.9995e-6), rel=1e-4)
        assert np.max(np.abs(small.values - bridge.values)) < 1e-9

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_hamiltonian_changes_no_moment(self, d):
        # Weight 0 on B_0 adds exact zeros to every sum, so the moments equal
        # those of the generator without H bit for bit.
        rng = np.random.default_rng(300 + d)
        grid = np.linspace(0.0, 3.0, 31)
        gen = random_expcos_generator(rng, d, n_ops=3)
        bare = witness_series(LindbladGenerator(d, np.zeros((d, d)), gen.dissipators),
                              grid, 1e-3)
        for scale in (1.0, 100.0):
            other = LindbladGenerator(d, scale * random_hermitian(rng, d), gen.dissipators)
            series = witness_series(other, grid, 1e-3)
            for got, want in ((series.r2, bare.r2), (series.r3, bare.r3),
                              (series.values, bare.values)):
                assert np.array_equal(got, want)

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_small_time_state_takes_the_hamiltonian_exactly(self, d):
        # The moments of the Choi state of e^{eps L_H} (1 + eps D(t)), built
        # from the oracle's superoperators and eigensolved; bell + eps X would be off
        # by order eps^2 |H|^2 = 1e-4 here.
        rng = np.random.default_rng(310 + d)
        base = random_expcos_generator(rng, d, n_ops=2)
        h = 10.0 * random_hermitian(rng, d) / d
        gen = LindbladGenerator(d, h, base.dissipators)
        eye = np.eye(d)
        l_h = -1j * (np.kron(h, eye) - np.kron(eye, h.T))
        eps, grid = 1e-3, np.array([0.4, 1.3, 2.5])
        series = witness_series(gen, grid, eps)
        for i, t in enumerate(grid):
            dissipative = reference_superoperator(gen, t) - l_h
            step = expm(eps * l_h) @ (np.eye(d * d) + eps * dissipative)
            lam = np.linalg.eigvalsh(reference_choi(step))
            r2, r3 = np.sum(lam**2), np.sum(lam**3)
            assert series.r2[i] == pytest.approx(r2, abs=1e-13)
            assert series.r3[i] == pytest.approx(r3, abs=1e-13)
            assert series.values[i] == pytest.approx(r2**2 - r3, abs=1e-13)

    def test_violation_intervals_cover_exactly_the_marked_points(self):
        gen = isotropic_pauli_generator(ExpCosRate(k=1.0))
        grid = np.linspace(0.0, 2.0 * np.pi, 200)
        series = witness_series(gen, grid, 1e-3)
        inside = np.zeros(grid.size, dtype=bool)
        for a, b in series.violations:
            inside |= (grid >= a) & (grid <= b)
        assert np.array_equal(inside, series.values > VIOLATION_THRESHOLD)

    def test_finite_interval_mode_agrees_with_small_time(self):
        gen = dephasing_generator(ExpCosRate(k=1.0))
        grid = np.linspace(0.0, 2.0 * np.pi, 60)
        eps = 1e-3
        small = witness_series(gen, grid, eps, mode="small-time")
        finite = witness_series(gen, grid, eps, mode="finite-interval")
        assert np.max(np.abs(small.values - finite.values)) < 10.0 * eps**2
        assert small.violations and finite.violations

    def test_finite_interval_rates_come_from_the_bridge_windows(self):
        # One RK4 step per window: rates at its start, middle and end, and
        # the start rates fill the rates column.
        rate = CountingRate()
        gen = dephasing_generator(rate)
        grid = np.linspace(0.0, 2.0, 40)
        series = witness_series(gen, grid, 1e-3, mode="finite-interval")
        assert rate.calls == 3 * grid.size
        assert np.array_equal(series.rates[:, 0], CountingRate.formula(grid))

    def test_rejects_bad_grid(self):
        gen = dephasing_generator(ConstantRate(1.0))
        with pytest.raises(ValueError, match="strictly increasing"):
            witness_series(gen, [0.0, 0.0, 1.0], 1e-3)
        for grid in ([0.5], [], [[0.0, 1.0]], 1.0):
            with pytest.raises(ValueError) as info:
                witness_series(gen, grid, 1e-3)
            assert str(info.value) == ("time grid must be one-dimensional with at least "
                                       "2 points")
        with pytest.raises(ValueError) as info:
            cp_divisibility_scan(gen, [-0.5, 1.0], 1e-3)
        assert str(info.value) == "time grid must start at t >= 0, got -0.5"
        with pytest.raises(ValueError, match="mode"):
            witness_series(gen, [0.0, 1.0], 1e-3, mode="other")

    @pytest.mark.parametrize("grid", [[0.0, math.nan], [0.0, 1.0, math.inf],
                                      [math.nan, 1.0], [-math.inf, 0.0, 1.0]])
    def test_rejects_non_finite_times(self, grid):
        # Differences with a NaN compare false, and inf - 1 > 0, so the
        # increasing check alone let these through.
        gen = dephasing_generator(ConstantRate(1.0))
        for mode in ("small-time", "finite-interval"):
            with pytest.raises(ValueError, match="time grid must be finite"):
                witness_series(gen, grid, 1e-3, mode=mode)
        with pytest.raises(ValueError, match="time grid must be finite"):
            cp_divisibility_scan(gen, grid, 1e-3)

    @pytest.mark.parametrize("epsilon", [math.nan, math.inf, -math.inf, 0.0, -1e-3])
    def test_rejects_epsilon_that_is_not_positive_and_finite(self, epsilon):
        # A NaN epsilon used to pass `epsilon <= 0` and give a NaN witness,
        # so no violation and a Markovian verdict.
        gen = dephasing_generator(ExpCosRate(k=1.0))
        for mode in ("small-time", "finite-interval"):
            with pytest.raises(ValueError, match="epsilon must be positive and finite"):
                witness_series(gen, [0.0, 2.0], epsilon, mode=mode)

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_batched_small_time_witness_matches_point_loop(self, d):
        # The closed-form polynomials in eps against one eigensolve per point,
        # for constant and time-varying rates and 1-3 jump operators.
        grid = np.linspace(0.0, 3.0, 23)
        rng = np.random.default_rng(d)
        for factory in (random_generator, random_expcos_generator):
            for n_ops in (1, 2, 3):
                gen = factory(rng, d, n_ops=n_ops)
                for eps in (1e-4, 1e-3, 1e-2, 0.1):
                    with warnings.catch_warnings():
                        warnings.simplefilter("ignore")  # |eps*gamma| >= 0.1 at eps = 0.1
                        series = witness_series(gen, grid, eps)
                    rates, r2, r3, values = reference_small_time_witness(gen, grid, eps)
                    assert np.array_equal(series.rates, rates)
                    for got, want in ((series.r2, r2), (series.r3, r3),
                                      (series.values, values),
                                      (series.values, series.r2**2 - series.r3)):
                        assert np.max(np.abs(got - want)) < 1e-12

    @pytest.mark.filterwarnings("ignore:.*over the last 5% of the grid")
    def test_small_time_makes_no_eigensolve(self, monkeypatch):
        calls = []
        eigvalsh = np.linalg.eigvalsh

        def counted(*args, **kwargs):
            calls.append(args)
            return eigvalsh(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", counted)
        gen = random_expcos_generator(np.random.default_rng(5), 3, n_ops=3)
        series = witness_series(gen, np.linspace(0.0, 3.0, 300), 1e-3)
        assert series.values.shape == (300,)
        assert calls == []
        # g needs the spectrum of the K x K matrix R diag(gamma) R^dag, and
        # no d^2 x d^2 one.
        measure_report(gen, 3.0, 300)
        rate_limits(gen, [0.0])
        assert calls
        assert all(a[0].shape[-2:] == (3, 3) for a in calls)

    def test_violation_intervals_match_point_walk(self):
        rng = np.random.default_rng(46)
        n = 40
        grid = np.sort(rng.uniform(0.0, 10.0, n))
        masks = [np.ones(n, bool), np.zeros(n, bool),
                 np.arange(n) < 5, np.arange(n) >= n - 5,          # runs touching each end
                 np.arange(n) % 2 == 0, np.arange(n) % 3 == 1,     # single-point runs
                 np.isin(np.arange(n), [0, n - 1])]
        masks += [rng.random(n) < p for p in (0.1, 0.5, 0.9) for _ in range(30)]
        for mask in masks:
            values = np.where(mask, 1.0, -1.0) * rng.uniform(0.5, 2.0, n)
            got = _violation_intervals(grid, values, 0.0)
            want = reference_violation_intervals(grid, values, 0.0)
            assert got == want
            assert all(type(t) is float for pair in got for t in pair)

    def test_small_time_names_earliest_non_finite_rate(self):
        gen = dephasing_generator(BlowUpRate(after=0.95))
        with pytest.raises(ValueError, match=r"non-finite rate at t = 1:"):
            witness_series(gen, np.linspace(0.0, 2.0, 21), 1e-3)

    def test_small_time_names_the_pole(self):
        pole = lorentzian_first_pole(1.5, 1.0)
        gen = dephasing_generator(LorentzianRate(lam=1.5, gamma0=1.0, k=1.0))
        with pytest.raises(ValueError, match=rf"pole at t = {pole:.8f}"):
            witness_series(gen, [0.5, pole, 9.0], 1e-3)


class TestInstantaneousRates:
    def test_dephasing_negative_rate(self):
        f, g = f_and_g(dephasing_generator(ConstantRate(-0.5)), 0.0)
        assert f == pytest.approx(0.5, abs=1e-6)
        assert g == pytest.approx(1.0, abs=1e-6)

    def test_dephasing_positive_rate(self):
        gen = dephasing_generator(ConstantRate(0.7))
        assert f_and_g(gen, 0.0)[0] == 0.0
        assert f_and_g(gen, 1.3)[1] == pytest.approx(0.0, abs=1e-10)

    def test_three_pauli_rates(self):
        f, g = f_and_g(isotropic_pauli_generator(ConstantRate(-0.1)), 0.0)
        assert f == pytest.approx(0.3, abs=1e-6)
        assert g == pytest.approx(0.6, abs=1e-6)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), dim=st.sampled_from([2, 3]),
           n_ops=st.integers(1, 3))
    def test_closed_forms_match_finite_eps_extrapolation(self, seed, dim, n_ops):
        gen = random_generator(np.random.default_rng(seed), dim, n_ops=n_ops)
        f_ref, g_ref = reference_rate_limits(gen, 0.0)
        f, g = f_and_g(gen, 0.0)
        assert f == pytest.approx(f_ref, rel=1e-4, abs=1e-9)
        assert g == pytest.approx(g_ref, rel=1e-4, abs=1e-9)

    def test_near_identity_operator_reads_its_small_centred_part(self):
        # L = I + delta sigma_z at rate -1 dephases at rate delta^2, so
        # f = delta^2 and g = 2 delta^2. The Bell overlap is the norm of the
        # centred part, with no O(1) terms to cancel: f used to be 8.3e-8 off.
        delta = 1e-5
        gen = LindbladGenerator(2, SIGMA_X, ((np.eye(2) + delta * SIGMA_Z,
                                              ConstantRate(-1.0)),))
        f, g = f_and_g(gen, 0.0)
        assert f == pytest.approx(delta**2, rel=1e-10)
        assert g == pytest.approx(2.0 * delta**2, rel=1e-10)
        report = measure_report(gen, 10.0, 11)
        assert report.moment_measure == pytest.approx(10.0 * delta**2, rel=1e-10)
        assert abs(report.rhp_measure / report.moment_measure - 2.0) < 1e-9

    def test_dephasing_case_formulas_across_rates(self):
        for gamma in np.linspace(-2.0, 2.0, 50):
            f, g = f_and_g(dephasing_generator(ConstantRate(float(gamma))), 0.0)
            assert f == pytest.approx(max(0.0, -gamma), abs=5e-4)
            assert g == pytest.approx(max(0.0, -2.0 * gamma), abs=5e-4)


class TestTraceNormRate:
    """g from the spectrum of R diag(gamma) R^dag against the d^2 x d^2 Q X Q."""

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_matches_projected_eigensolve(self, d):
        grid = np.linspace(0.0, 3.0, 7)
        rng = np.random.default_rng(100 + d)
        for factory in (random_generator, random_expcos_generator):
            for n_ops in range(6):
                for _ in range(4):
                    gen = factory(rng, d, n_ops=n_ops)
                    _, _, g = rate_limits(gen, grid)
                    want = reference_rhp_rates(gen, grid)
                    assert np.all(np.abs(g - want) <= 1e-12 * np.maximum(1.0, np.abs(want)))

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_projected_blocks_are_rank_one(self, d):
        # Q B_H Q = 0 for the Hamiltonian's Choi image B_H, and
        # Q B_k Q = v_k v_k^dag, v_k = vec((L_k - Tr L_k/d I)^T)/sqrt(d).
        gen = random_generator(np.random.default_rng(200 + d), d, n_ops=3)
        q = np.eye(d * d) - max_entangled_projector(d)
        hamiltonian = reference_generator_choi(LindbladGenerator(d, gen.hamiltonian, ()), 0.0)
        assert np.max(np.abs(q @ hamiltonian @ q)) <= 1e-14 * np.max(np.abs(hamiltonian))
        for (op, _), full in zip(gen.dissipators, reference_dissipator_blocks(gen)):
            v = (op - np.trace(op) / d * np.eye(d)).T.ravel() / np.sqrt(d)
            block = q @ full @ q
            assert np.max(np.abs(block - np.outer(v, v.conj()))) <= 1e-14 * np.max(np.abs(full))

    def test_hamiltonian_does_not_change_g(self):
        # No small-time table reads the Hamiltonian, so g, f and the
        # small-time r2, r3 and witness values keep every bit whatever H is.
        rng = np.random.default_rng(7)
        grid = np.linspace(0.0, 3.0, 31)
        gen = random_expcos_generator(rng, 3, n_ops=3)
        _, f, g = rate_limits(gen, grid)
        series = witness_series(gen, grid, 1e-3)
        assert np.any(g > 0.0)
        for h in (np.zeros((3, 3)), 10.0 * random_hermitian(rng, 3)):
            other = LindbladGenerator(3, h, gen.dissipators)
            _, other_f, other_g = rate_limits(other, grid)
            assert other_g.tobytes() == g.tobytes() and other_f.tobytes() == f.tobytes()
            other_series = witness_series(other, grid, 1e-3)
            for name in ("r2", "r3", "values"):
                assert getattr(other_series, name).tobytes() == getattr(series, name).tobytes()

    def test_hamiltonian_only_generator_has_zero_rates(self):
        gen = LindbladGenerator(2, SIGMA_Z, ())
        gammas, f, g = rate_limits(gen, np.linspace(0.0, 2.0, 11))
        assert gammas.shape == (0, 11)
        assert np.array_equal(f, np.zeros(11)) and np.array_equal(g, np.zeros(11))
        report = measure_report(gen, 2.0, 11)
        assert report.moment_measure == 0.0 and report.rhp_measure == 0.0

    @pytest.mark.parametrize("ops, rates, g_want", [
        # A repeated operator adds its rates: one sigma_z at rate -0.2.
        ((SIGMA_Z, SIGMA_Z), (-0.3, 0.1), 0.4),
        # An operator proportional to I has v = 0 and adds nothing.
        ((2.5 * np.eye(2), SIGMA_Z), (-1.0, -0.5), 1.0),
        # Five operators at d = 2: more than d^2, so R is 4 x 5.
        ((SIGMA_X, SIGMA_Y, SIGMA_Z, SIGMA_X + SIGMA_Z, LOWERING),
         (-0.1, -0.1, -0.1, 0.05, 0.2), None),
    ])
    def test_rank_deficient_jump_operators(self, ops, rates, g_want):
        gen = LindbladGenerator(2, SIGMA_X, tuple(zip(ops, map(ConstantRate, rates))))
        _, _, g = rate_limits(gen, [0.0, 1.0])
        rows = np.array(rates)[:, None]
        assert gen.projected_spectra(rows).shape[0] <= len(ops)
        want = reference_rhp_rates(gen, [0.0, 1.0])
        assert np.all(np.abs(g - want) <= 1e-12 * np.maximum(1.0, np.abs(want)))
        assert g[0] > 0.0
        if g_want is not None:
            assert g == pytest.approx([g_want, g_want], abs=1e-12)

    @pytest.mark.parametrize("ops", [
        (SIGMA_Z,), (SIGMA_X, SIGMA_Y), (SIGMA_Y, SIGMA_Z), (SIGMA_X, SIGMA_Y, SIGMA_Z),
        (LOWERING, RAISING, SIGMA_Z),
    ])
    @pytest.mark.filterwarnings("ignore:.*over the last 5% of the grid")
    def test_named_operators_make_no_eigensolve(self, monkeypatch, ops):
        # Pairwise trace-orthogonal operators take the diagonal table, so
        # every mu_k is gamma_k G_kk, read off with no solve.
        rng = np.random.default_rng(len(ops))
        rates = [ExpCosRate(k=float(rng.uniform(0.5, 3.0))) for _ in ops]
        gen = LindbladGenerator(2, SIGMA_X, tuple(zip(ops, rates)))
        assert gen.small_time_tables.off_bell.shape == (len(ops),)
        want = reference_rhp_rates(gen, np.linspace(0.0, 6.0, 61))
        calls = []
        eigvalsh = np.linalg.eigvalsh

        def counted(*args, **kwargs):
            calls.append(args)
            return eigvalsh(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", counted)
        report = measure_report(gen, 6.0, 61)
        assert calls == []
        assert np.any(report.g_series > 0.0)
        assert np.all(np.abs(report.g_series - want) <= 1e-12 * np.maximum(1.0, want))

    def test_mixed_generator_takes_one_solve_over_every_operator(self, monkeypatch):
        # sigma_z, and two random operators in span{I, sigma_x, sigma_y}: their
        # centred parts are orthogonal to sigma_z but not to each other, so
        # the set is not pairwise orthogonal and all three share one solve.
        rng = np.random.default_rng(12)
        ops = [SIGMA_Z] + [sum(c * p for c, p in zip(
            rng.normal(size=3) + 1j * rng.normal(size=3), (np.eye(2), SIGMA_X, SIGMA_Y)))
            for _ in range(2)]
        rates = [ExpCosRate(k=float(rng.uniform(0.5, 3.0))) for _ in ops]
        gen = LindbladGenerator(2, random_hermitian(rng, 2), tuple(zip(ops, rates)))
        assert gen.small_time_tables.off_bell.shape == (3, 3, 3)
        grid = np.linspace(0.0, 6.0, 61)
        want = reference_rhp_rates(gen, grid)
        shapes = []
        eigvalsh = np.linalg.eigvalsh

        def recorded(a, *args, **kwargs):
            shapes.append(a.shape)
            return eigvalsh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", recorded)
        _, _, g = rate_limits(gen, grid)
        assert shapes == [(61, 3, 3)]
        assert gen.projected_spectra(rates_at(gen, grid)).shape == (3, 61)
        assert np.any(g > 0.0)
        assert np.all(np.abs(g - want) <= 1e-12 * np.maximum(1.0, np.abs(want)))

    def test_partially_orthogonal_qutrit_matches_the_spectrum_of_qxq(self):
        # The diagonal and E_20 are orthogonal to every other operator, but
        # E_01 and E_01 + E_12 overlap, so all four share one solve. Its mu
        # are the nonzero eigenvalues of the 9 x 9 matrix Q X Q.
        unit = np.eye(3, dtype=complex)
        ops = (np.diag([1.0, -1.0, 0.0]).astype(complex), np.outer(unit[0], unit[1]),
               np.outer(unit[0], unit[1]) + np.outer(unit[1], unit[2]),
               np.outer(unit[2], unit[0]))
        rates = (ConstantRate(-0.3), ExpCosRate(k=1.5), ConstantRate(0.7), ConstantRate(-0.2))
        rng = np.random.default_rng(23)
        gen = LindbladGenerator(3, random_hermitian(rng, 3), tuple(zip(ops, rates)))
        assert gen.small_time_tables.off_bell.shape == (4, 4, 4)
        grid = np.linspace(0.0, 3.0, 7)
        mu = gen.projected_spectra(rates_at(gen, grid))
        assert mu.shape == (4, 7)
        bare = LindbladGenerator(3, np.zeros((3, 3)), gen.dissipators)
        q = np.eye(9) - max_entangled_projector(3)
        for t, got in zip(grid, mu.T):
            full = np.linalg.eigvalsh(q @ reference_generator_choi(bare, float(t)) @ q)
            want = np.sort(full[np.argsort(np.abs(full))[-4:]])
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(full))
        g = rate_limits(gen, grid)[2]
        want = reference_rhp_rates(gen, grid)
        assert np.all(g > 0.0)
        assert np.all(np.abs(g - want) <= 1e-12 * np.maximum(1.0, want))

    def test_strong_hamiltonian_keeps_weak_rates(self):
        # H enters neither f nor g, so it does not raise their noise floor.
        gen = LindbladGenerator(2, 1e6 * SIGMA_X, ((SIGMA_Z, ConstantRate(-1e-7)),))
        f, g = f_and_g(gen, 0.0)
        assert g == pytest.approx(2e-7, rel=1e-12)
        assert f == pytest.approx(1e-7, rel=1e-12)
        grid = [0.0, 1.0]
        assert np.allclose(rate_limits(gen, grid)[2], reference_rhp_rates(gen, grid),
                           rtol=1e-12, atol=0.0)
        bare = LindbladGenerator(2, np.zeros((2, 2)), gen.dissipators)
        for got, want in zip(rate_limits(gen, [0.0]), rate_limits(bare, [0.0])):
            assert np.array_equal(got, want)

    def test_spectra_are_solved_in_bounded_chunks(self, monkeypatch):
        shapes = []
        eigvalsh = np.linalg.eigvalsh

        def recorded(a, *args, **kwargs):
            shapes.append(a.shape)
            return eigvalsh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", recorded)
        gen = random_expcos_generator(np.random.default_rng(9), 4, n_ops=5)
        grid = np.linspace(0.0, 3.0, 1000)
        _, _, g = rate_limits(gen, grid)
        assert len(shapes) > 1
        assert all(s[1:] == (5, 5) and s[0] * 25 <= CHUNK_ENTRIES for s in shapes)
        assert sum(s[0] for s in shapes) == grid.size
        # Rows are stitched back in order: a coarser grid, in one chunk, agrees.
        coarse = rate_limits(gen, grid[::37])[2]
        assert np.all(np.abs(g[::37] - coarse) <= 1e-13 * np.maximum(1.0, coarse))



def _trace_orthogonal_operators(d):
    """Jump operators whose centred parts are trace-orthogonal: the matrix
    units E_ij (i != j) and traceless diagonals."""
    units = []
    for i in range(d):
        for j in range(d):
            if i != j:
                units.append(np.eye(d, dtype=complex)[:, [i]] @ np.eye(d)[[j]])
    diagonals = [np.diag(np.r_[np.ones(k), -k, np.zeros(d - k - 1)]).astype(complex)
                 for k in range(1, d)]
    return units + diagonals


class TestRowKernels:
    """The rates-major kernels (rows of rates, one per jump operator) against
    the point-by-point eigensolve oracles in helpers."""

    @pytest.mark.parametrize("k", range(5))
    @pytest.mark.parametrize("d", [2, 3, 4])
    @settings(max_examples=8, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), split=st.integers(0, 4),
           eps=st.sampled_from([1e-4, 1e-3, 1e-2]))
    def test_match_the_point_by_point_oracles(self, d, k, seed, split, eps):
        # K = k operators: n_orthogonal distinct members of a trace-orthogonal
        # basis, and n_generic random combinations of I and the rest of the
        # basis, which overlap each other (rank deficient when the rest is
        # one element). With two or more of those the set is not pairwise
        # orthogonal and takes the eigvalsh branch, over all K operators.
        rng = np.random.default_rng(seed)
        basis = _trace_orthogonal_operators(d)
        rng.shuffle(basis)
        n_orthogonal = min(split, k, len(basis) - 1)
        n_generic = k - n_orthogonal
        rest = np.array(basis[n_orthogonal:] + [np.eye(d)])
        ops = [np.tensordot(rng.normal(size=len(rest)) + 1j * rng.normal(size=len(rest)),
                            rest, axes=1) for _ in range(n_generic)]
        ops += basis[:n_orthogonal]
        rates = [ExpCosRate(k=float(rng.uniform(0.5, 3.0))) if rng.uniform() < 0.5
                 else ConstantRate(float(rng.uniform(-1.0, 1.0))) for _ in ops]
        order = rng.permutation(len(ops))
        gen = LindbladGenerator(d, random_hermitian(rng, d),
                                tuple((ops[i], rates[i]) for i in order))
        m = min(k, d * d)
        assert gen.small_time_tables.off_bell.shape == (
            (k,) if n_generic <= 1 else (k, m, m))
        grid = np.linspace(0.0, 2.0, 5)

        series = witness_series(gen, grid, eps)
        rates_want, r2, r3, values = reference_small_time_witness(gen, grid, eps)
        assert series.rates.shape == (grid.size, len(ops))
        assert np.array_equal(series.rates, rates_want.reshape(series.rates.shape))
        for got, want in ((series.r2, r2), (series.r3, r3), (series.values, values)):
            assert np.max(np.abs(got - want)) <= 1e-12

        gammas, f, g = rate_limits(gen, grid)
        assert np.array_equal(gammas, series.rates.T)
        g_want = reference_rhp_rates(gen, grid)
        assert np.all(np.abs(g - g_want) <= 1e-12 * np.maximum(1.0, g_want))
        f_want = np.array([reference_rate_limits(gen, t)[0] for t in grid])
        assert np.all(np.abs(f - f_want) <= 1e-4 * np.maximum(1e-5, f_want))


class TestMeasures:
    def test_markovian_dephasing_measure_vanishes(self):
        gen = dephasing_generator(ConstantRate(1.0))
        assert measure_report(gen, 5.0, 201).moment_measure == 0.0

    def test_markovian_random_unital_measures_vanish(self):
        rng = np.random.default_rng(43)
        for _ in range(5):
            gen = random_unital_generator(rng, 2, n_ops=2)
            report = measure_report(gen, 4.0, 161)
            assert report.moment_measure < 1e-10
            assert report.rhp_measure < 1e-9
            assert np.isnan(report.ratio)

    def test_expcos_dephasing_against_antiderivative_oracle(self):
        gen = dephasing_generator(ExpCosRate(k=1.0))
        report = measure_report(gen, 20.0, 2001)
        oracle = expcos_measure_oracle()
        assert report.moment_measure == pytest.approx(oracle, rel=5e-3)
        assert report.rhp_measure == pytest.approx(2.0 * oracle, rel=5e-3)
        assert report.ratio == pytest.approx(2.0, rel=1e-2)

    def test_three_pauli_measure_is_triple(self):
        report = measure_report(isotropic_pauli_generator(ExpCosRate(k=1.0)), 20.0, 2001)
        assert report.moment_measure == pytest.approx(3.0 * expcos_measure_oracle(), rel=5e-3)
        assert report.rhp_measure == pytest.approx(6.0 * expcos_measure_oracle(), rel=5e-3)

    def test_zero_iff_rate_series_zero(self):
        gen = dephasing_generator(ExpCosRate(k=1.0))
        report = measure_report(gen, 20.0, 501)
        assert (report.moment_measure == 0.0) == bool(np.all(report.f_series == 0.0))
        assert report.moment_measure > 0.0

    def test_bundled_example2_measure_is_trapezoid_of_negative_rate(self):
        # Near the Lorentzian pole |eps*gamma| approaches 1, where a finite-eps
        # estimate of the limit undershoots f; the closed form does not.
        gen, grid, config = bundled("example2")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            report = measure_report(gen, config.t_max, config.points)
        exact = np.trapezoid(np.maximum(0.0, -rate_eval(gen.dissipators[0][1], grid)), grid)
        assert report.moment_measure == pytest.approx(exact, rel=1e-9)
        assert report.rhp_measure == pytest.approx(2.0 * exact, rel=1e-9)

    @pytest.mark.parametrize("name", ["markovian_control", "ohmic_compare"])
    def test_bundled_markovian_controls_measure_exactly_zero(self, name):
        gen, _, config = bundled(name)
        report = measure_report(gen, config.t_max, config.points)
        assert report.moment_measure == 0.0
        assert report.rhp_measure == 0.0

    def test_names_earliest_non_finite_rate(self):
        gen = dephasing_generator(BlowUpRate(after=0.95))
        with pytest.raises(ValueError, match=r"non-finite rate at t = 1:"):
            measure_report(gen, 2.0, 21)

    def test_warns_when_tail_not_decayed(self):
        gen = dephasing_generator(ExpCosRate(k=1.0))
        with pytest.warns(UserWarning, match="last 5%") as records:
            report = measure_report(gen, 3.0, 101)
        tail = report.grid >= 0.95 * 3.0
        f_peak, g_peak = np.max(report.f_series[tail]), np.max(report.g_series[tail])
        assert [str(r.message) for r in records] == [
            f"moment rate f is still {f_peak:.3e} and trace-norm rate g is still "
            f"{g_peak:.3e} over the last 5% of the grid; increase t_max to trust the "
            "truncated integral"]

    def test_warns_when_only_the_tail_of_g_has_not_decayed(self):
        # The eternally non-Markovian Pauli channel: f = 0 everywhere, while
        # g = 2 tanh t is near 2 at the end of the grid, so I grows with t_max.
        config = load_scenario(ETERNAL_PAULI)
        gen = build_generator(config)
        with pytest.warns(UserWarning, match="last 5%") as records:
            report = measure_report(gen, config.t_max, config.points)
        assert not np.any(report.f_series)
        assert [str(r.message) for r in records] == [
            "trace-norm rate g is still 1.988e+00 over the last 5% of the grid; "
            "increase t_max to trust the truncated integral"]
        assert report.rhp_measure == pytest.approx(4.42, abs=5e-3)

    @pytest.mark.parametrize("name", ["example1", "example2", "markovian_control",
                                      "ohmic_compare"])
    def test_bundled_scenarios_have_decayed_tails(self, name):
        gen, grid, config = bundled(name)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = measure_report(gen, config.t_max, config.points)
        tail = grid >= 0.95 * config.t_max
        assert not np.any(report.f_series[tail]) and not np.any(report.g_series[tail])

    @pytest.mark.parametrize("t_max", [math.nan, math.inf, -1.0, 0.0])
    def test_rejects_t_max_that_is_not_positive_and_finite(self, t_max):
        # inf used to give M = I = nan, and nan an empty-reduction error.
        gen = dephasing_generator(ExpCosRate(k=1.0))
        with pytest.raises(ValueError, match="t_max must be positive and finite"):
            measure_report(gen, t_max, 11)

    # 10.0 used to fail with a TypeError inside np.linspace.
    @pytest.mark.parametrize("grid_points, problem", [
        (10.0, "must be an integer, got 10.0"), (2.5, "must be an integer, got 2.5"),
        (True, "must be an integer, got True"), (math.nan, "must be an integer, got nan"),
        (math.inf, "must be an integer, got inf"), (1, "must be >= 2, got 1"),
        (-3, "must be >= 2, got -3")])
    def test_rejects_grid_points_that_are_not_an_integer_of_at_least_two(
            self, grid_points, problem):
        gen = dephasing_generator(ExpCosRate(k=1.0))
        with pytest.raises(ValueError, match=f"^grid_points {problem}$"):
            measure_report(gen, 1.0, grid_points)

    def test_vanishing_rates_are_positive_zeros(self):
        # The CSVs would print a -0.0 as "-0".
        gen = isotropic_pauli_generator(ExpCosRate(k=1.0))
        report = measure_report(gen, 6.0, 301)
        for series in (report.f_series, report.g_series):
            assert np.any(series == 0.0) and np.any(series > 0.0)
            assert not np.signbit(series).any()

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), t_max=st.floats(1e-3, 1e3),
           points=st.integers(2, 600))
    def test_measures_are_np_trapezoid_bit_for_bit(self, seed, t_max, points):
        rng = np.random.default_rng(seed)
        knots = np.linspace(0.0, t_max, 23)
        gen = LindbladGenerator(2, SIGMA_X, tuple(
            (op, TabulatedRate(tuple(zip(knots, rng.normal(size=knots.size)))))
            for op in (SIGMA_X, SIGMA_Z)))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # the random tails have not decayed
            report = measure_report(gen, t_max, points)
        for got, series in ((report.moment_measure, report.f_series),
                            (report.rhp_measure, report.g_series)):
            assert got.hex() == float(np.trapezoid(series, report.grid)).hex()

    @pytest.mark.parametrize("t_max, points", [(1.0, 101), (3.0, 61), (math.pi, 2000),
                                               (0.7, 41)])
    def test_tail_starts_at_the_first_point_at_or_past_95_percent(self, t_max, points):
        grid = np.linspace(0.0, t_max, points)
        first = next(i for i, t in enumerate(grid) if t >= 0.95 * t_max)

        def spiked_at(i):
            # Dephasing whose rate is -1 at grid point i and 0 at every other one.
            knots = ((0.0, 0.0), (grid[i - 1], 0.0), (grid[i], -1.0), (grid[i + 1], 0.0),
                     (t_max, 0.0))
            return dephasing_generator(TabulatedRate(knots))

        with pytest.warns(UserWarning, match="last 5%") as records:
            report = measure_report(spiked_at(first), t_max, points)
        assert np.flatnonzero(report.f_series).tolist() == [first]
        assert [str(r.message) for r in records] == [
            "moment rate f is still 1.000e+00 and trace-norm rate g is still 2.000e+00 "
            "over the last 5% of the grid; increase t_max to trust the truncated integral"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = measure_report(spiked_at(first - 1), t_max, points)
        assert np.flatnonzero(report.g_series).tolist() == [first - 1]


def generator_trace(gen, times):
    """Tr L_t at each time, read off the trace of the transfer blocks, a
    table the rates f and g never read."""
    traces = np.trace(gen.transfer_blocks, axis1=1, axis2=2)
    return traces[0] + traces[1:] @ rates_at(gen, times)


def positive_trace_intervals(gen, t_max, points=4001):
    """The intervals of [0, t_max] on which Tr L_t > 0: located on a grid,
    then each sign change narrowed by bisection to the last bit."""
    grid = np.linspace(0.0, t_max, points)
    positive = generator_trace(gen, grid) > 0.0
    ends = []
    for i in np.flatnonzero(np.diff(positive)):
        lo, hi = grid[i], grid[i + 1]
        while lo < (mid := 0.5 * (lo + hi)) < hi:
            if (generator_trace(gen, [mid])[0] > 0.0) == positive[i]:
                lo = mid
            else:
                hi = mid
        ends.append(lo)
    ends = [0.0] * int(positive[0]) + ends + [t_max] * int(positive[-1])
    return list(zip(ends[::2], ends[1::2]))


class TestVolumeMeasure:
    """The moment measure is a volume measure, for every generator. The
    Hamiltonian part of L_t is traceless and a dissipator at unit rate has
    Tr S_k = d^2 x_k, so Tr L_t = -d^2 sum_j mu_j and f = max(0, Tr L_t)/d^2.
    By Liouville's formula det Phi(t, 0) = exp int_0^t Tr L_s ds, so M sums
    the regained log-volume Delta ln|det Phi(t, 0)|/d^2 over the intervals
    where Tr L_t > 0. No step needs unitality."""

    # Over 200 seeded generators of these kinds the gap stayed within
    # 4.4e-16 of the scale the noise floor is relative to.
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), dim=st.integers(2, 4), n_ops=st.integers(1, 3),
           factory=st.sampled_from([random_generator, random_expcos_generator]))
    def test_f_is_the_positive_part_of_the_generator_trace(self, seed, dim, n_ops, factory):
        # f drops each mu_j within the noise floor, at most K of them.
        gen = factory(np.random.default_rng(seed), dim, n_ops=n_ops)
        grid = np.linspace(0.0, 3.0, 301)
        gammas, f, _ = rate_limits(gen, grid)
        want = np.maximum(0.0, generator_trace(gen, grid)) / dim**2
        noise = _RATE_NOISE * np.maximum(
            1.0, gen.small_time_tables.dissipator_scales @ np.abs(gammas))
        assert np.all(np.abs(f - want) <= n_ops * noise)

    @pytest.mark.parametrize("make, exact", [
        # Three Pauli channels at exp(-t) cos(t): Tr L_t = -12 gamma, so
        # M = 3 int max(0, -gamma).
        (lambda: bundled("example1")[0],
         1.5 * (math.exp(-math.pi / 2) + math.exp(-1.5 * math.pi))),
        # Amplitude damping at exp(-t) cos(t), with a Hamiltonian that
        # commutes with the dissipator: not unital, and physical at every t,
        # since int_0^t gamma >= 0. Tr L_t = -2 gamma, so M = int max(0, -gamma)/2.
        (lambda: LindbladGenerator(2, 0.5 * SIGMA_Z, ((LOWERING, ExpCosRate(k=1.0)),)),
         0.25 * (math.exp(-math.pi / 2) + math.exp(-1.5 * math.pi))),
    ], ids=["example1", "lowering-expcos"])
    def test_the_moment_measure_is_the_regained_log_volume(self, make, exact):
        # Delta ln|det Phi(t, 0)| over [a, b] is ln|det Lambda(b, a)|, as
        # det Phi(b, 0) = det Lambda(b, a) det Phi(a, 0).
        gen, t_max = make(), 2.0 * math.pi
        intervals = positive_trace_intervals(gen, t_max)
        assert len(intervals) == 1
        regained = sum(np.linalg.slogdet(propagate_map(gen, a, b))[1] for a, b in intervals)
        assert regained / gen.dim**2 == pytest.approx(exact, rel=1e-9)
        # The bundled example1 grid: 2000 points on [0, 2 pi].
        report = measure_report(gen, t_max, 2000)
        assert report.moment_measure == pytest.approx(regained / gen.dim**2, rel=2.1e-7)

    def test_amplitude_damping_at_a_positive_rate_reads_zero_with_no_warning(self):
        gen = LindbladGenerator(2, np.zeros((2, 2)), ((LOWERING, ConstantRate(1.0)),))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = measure_report(gen, 2.0, 51)
        assert report.moment_measure == 0.0 and report.rhp_measure == 0.0
        assert not report.f_series.any() and not report.g_series.any()


class TestOrderOfStrength:
    """The trace-norm measure is at least twice the moment measure, bit for
    bit. With N the sum of the mu_j below the noise floor and P the sum of
    the positive ones, f = max(0, -(N + P)) and g = -2N: P >= 0 and
    rounding is monotone, so f <= g/2 at every time, and the trapezoid
    rule's positive weights carry it to 2M <= I."""

    @staticmethod
    def assert_order(report):
        assert np.all(report.f_series <= report.g_series / 2)
        assert 2 * report.moment_measure <= report.rhp_measure
        if report.rhp_measure == 0.0:
            assert report.moment_measure == 0.0

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), dim=st.integers(2, 4), n_ops=st.integers(1, 3),
           factory=st.sampled_from([random_generator, random_expcos_generator]))
    def test_the_rhp_measure_is_at_least_twice_the_moment_measure(self, seed, dim, n_ops,
                                                                   factory):
        gen = factory(np.random.default_rng(seed), dim, n_ops=n_ops)
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", ".* over the last 5% of the grid")
            self.assert_order(measure_report(gen, 5.0, 200))

    # Rates of size 10^u straddle the 1e-12 noise floor, where several mu_j
    # can each sit above minus the floor and still sum below it.
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), dim=st.integers(2, 4), n_ops=st.integers(1, 3),
           u=st.floats(-13.0, -11.5))
    def test_the_order_holds_at_the_noise_floor(self, seed, dim, n_ops, u):
        size = 10.0**u
        gen = random_generator(np.random.default_rng(seed), dim, n_ops=n_ops,
                               rate_range=(-size, size))
        self.assert_order(measure_report(gen, 5.0, 200))

    @pytest.mark.parametrize("ops, rate, solves, vanishes", [
        # Orthogonal: each mu_k = -9e-13 sits above the floor, and their
        # sum, -2.7e-12, below it. M used to read 2.7e-9 beside I = 0.
        ((SIGMA_X, SIGMA_Y, SIGMA_Z), -9e-13, 0, True),
        # Hermitian, not orthogonal: one mu_j of the solve passes the floor
        # and two do not. I/M used to read 1.244.
        ((SIGMA_X, (SIGMA_X + SIGMA_Z) / math.sqrt(2), (SIGMA_Y + SIGMA_Z) / math.sqrt(2)),
         -6e-13, 1, False),
    ], ids=["pauli", "hermitian"])
    def test_sub_floor_spectra_give_exactly_twice(self, monkeypatch, ops, rate, solves,
                                                   vanishes):
        gen = LindbladGenerator(2, np.zeros((2, 2)),
                                tuple((op, ConstantRate(rate)) for op in ops))
        calls = []
        eigvalsh = np.linalg.eigvalsh

        def counted(*args, **kwargs):
            calls.append(args)
            return eigvalsh(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", counted)
        report = measure_report(gen, 1000.0, 1001)
        assert len(calls) == solves
        assert np.array_equal(report.f_series, report.g_series / 2)
        assert report.rhp_measure == 2 * report.moment_measure
        if vanishes:
            assert not report.g_series.any() and report.rhp_measure == 0.0
        else:
            assert np.all(report.g_series > 0.0)

    # Over 300 seeded generators of these kinds the witness fired on 6345
    # windows of 235 of them, and the scan minimum was negative on every one.
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), dim=st.integers(2, 4), n_ops=st.integers(1, 3),
           factory=st.sampled_from([random_generator, random_expcos_generator]))
    def test_a_finite_interval_witness_above_threshold_has_a_negative_scan_minimum(
            self, seed, dim, n_ops, factory):
        # r2^2 <= r3 for every density matrix, so a bridge whose witness
        # exceeds the threshold has a negative Choi eigenvalue.
        gen = factory(np.random.default_rng(seed), dim, n_ops=n_ops)
        grid = np.linspace(0.0, 3.0, 40)
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", ".* over the last 5% of the grid")
            series, _, scan = assess(gen, grid, 0.05, mode="finite-interval", scan=True)
        fired = series.values > VIOLATION_THRESHOLD
        assert np.all(scan.min_eigenvalues[fired] < 0.0), scan.min_eigenvalues[fired]
        # The scan flags every window on which the witness fires, however
        # small its minimum.
        if fired.any():
            assert scan.verdict == "CP-indivisible"


class TestGeneratorBuilder:
    """Each generator builds its small-time tables once, on first need, and
    shares them."""

    @pytest.mark.filterwarnings("ignore:.*over the last 5% of the grid")
    def test_one_builder_per_generator(self, monkeypatch):
        built = []
        build = vars(LindbladGenerator)["small_time_tables"].func

        def counted(gen):
            built.append(gen)
            return build(gen)

        table = cached_property(counted)
        table.__set_name__(LindbladGenerator, "small_time_tables")
        monkeypatch.setattr(LindbladGenerator, "small_time_tables", table)
        gen = random_expcos_generator(np.random.default_rng(5), 2, n_ops=3)
        grid = np.linspace(0.0, 2.0, 21)
        assert "small_time_tables" not in vars(gen)
        witness_series(gen, grid, 1e-3)
        assert built == [gen]
        for _ in range(2):
            witness_series(gen, grid, 1e-3)
            measure_report(gen, 2.0, 21)
            rate_limits(gen, [0.5])
        # The off-Bell spectrum reads the same tables: one build in all.
        assert built == [gen]
        assert gen.small_time_tables is gen.small_time_tables

    @pytest.mark.filterwarnings("ignore:.*over the last 5% of the grid")
    def test_a_twin_generator_builds_its_own_tables_and_gives_equal_outputs(self):
        rng = np.random.default_rng(8)
        grid = np.linspace(0.0, 3.0, 31)
        for d, n_ops in ((2, 3), (3, 4)):
            gen = random_expcos_generator(rng, d, n_ops=n_ops)
            series = witness_series(gen, grid, 1e-3)
            report = measure_report(gen, 3.0, 31)
            # A generator rebuilt from the same parts starts with no tables.
            twin = LindbladGenerator(d, gen.hamiltonian, gen.dissipators)
            assert "small_time_tables" not in vars(twin)
            twin_series = witness_series(twin, grid, 1e-3)
            twin_report = measure_report(twin, 3.0, 31)
            assert twin.small_time_tables is not gen.small_time_tables
            for got, want in zip(twin.small_time_tables, gen.small_time_tables):
                assert np.array_equal(got, want)
            for name in ("r2", "r3", "values"):
                assert np.array_equal(getattr(twin_series, name), getattr(series, name))
            assert np.array_equal(report.f_series, twin_report.f_series)
            assert np.array_equal(report.g_series, twin_report.g_series)

    def test_tables_are_read_only(self):
        gen = random_generator(np.random.default_rng(9), 2, n_ops=3)
        tables = [*gen.small_time_tables, gen.transfer_blocks, gen.operators]
        for table in tables:
            with pytest.raises(ValueError, match="read-only"):
                table.flat[0] = 1.0
        with pytest.raises(AttributeError):
            gen.small_time_tables.traces2 = None

    def test_a_d32_register_assesses_below_the_size_of_one_d4_array(self):
        # Local sigma_z dephasing on each of five qubits (d = 32, K = 5): no
        # table holds a d^2 x d^2 block, so a small-time run of 2000 points
        # peaks far below one complex d^4 array, 16 MiB.
        n, d = 5, 32
        ops = [np.kron(np.kron(np.eye(2**j), SIGMA_Z), np.eye(2 ** (n - 1 - j)))
               for j in range(n)]
        gen = LindbladGenerator(d, np.zeros((d, d)), tuple((op, ExpCosRate(k=1.0)) for op in ops))
        tracemalloc.start()
        try:
            series, measures, _ = assess(gen, np.linspace(0.0, 20.0, 2000), 1e-3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert series.is_non_markovian and measures.rhp_measure > 0.0
        assert peak < 16 * 2**20


# The RK4 warning's peak and window on example2's grid at its epsilon.
_GRID_PEAK = "1.01 in the window starting at t = 6.04302"


class TestDivisibilityScan:
    def test_constant_pauli_semigroup_divisible(self):
        gen = isotropic_pauli_generator(ConstantRate(0.7))
        scan = cp_divisibility_scan(gen, np.linspace(0.0, 4.0, 60), 0.05)
        assert scan.verdict == "CP-divisible"
        assert scan.is_divisible
        assert np.all(scan.min_eigenvalues >= -1e-10)

    def test_expcos_dephasing_indivisible_in_negative_window(self):
        gen = dephasing_generator(ExpCosRate(k=1.0))
        grid = np.linspace(0.0, 2.0 * np.pi, 158)
        delta = 0.01
        scan = cp_divisibility_scan(gen, grid, delta)
        assert scan.verdict == "CP-indivisible"
        flagged = grid[scan.min_eigenvalues < -1e-10]
        assert flagged.size > 0
        for t in flagged:
            window = np.exp(-np.linspace(t, t + delta, 9)) * np.cos(np.linspace(t, t + delta, 9))
            assert window.min() < 0.0

    def test_lorentzian_without_negative_rates_divisible(self):
        gen = dephasing_generator(LorentzianRate(lam=2.0, gamma0=1.0, k=1.0))
        scan = cp_divisibility_scan(gen, np.linspace(0.0, 5.0, 60), 0.05)
        assert scan.verdict == "CP-divisible"

    def test_consistent_with_finite_interval_witness(self):
        gen = dephasing_generator(ExpCosRate(k=1.0))
        grid = np.linspace(0.0, 2.0 * np.pi, 100)
        delta = 0.01
        scan = cp_divisibility_scan(gen, grid, delta)
        series = witness_series(gen, grid, delta, mode="finite-interval")
        for i in range(grid.size):
            if series.values[i] > VIOLATION_THRESHOLD:
                assert scan.min_eigenvalues[i] < 0.0

    def test_rejects_bad_delta(self):
        gen = dephasing_generator(ConstantRate(1.0))
        with pytest.raises(ValueError, match="delta"):
            cp_divisibility_scan(gen, np.linspace(0.0, 1.0, 5), 0.0)

    @pytest.mark.parametrize("delta", [math.nan, math.inf])
    def test_rejects_non_finite_delta(self, delta):
        gen = dephasing_generator(ConstantRate(1.0))
        with pytest.raises(ValueError, match="delta must be positive and finite"):
            cp_divisibility_scan(gen, np.linspace(0.0, 1.0, 5), delta)

    # Each check is choi.require_positive now (the scan's is bridge_moments'),
    # and keeps the message it wrote before.
    @pytest.mark.parametrize("name, call", [
        ("epsilon", lambda gen, v: witness_series(gen, [0.0, 1.0], v)),
        ("epsilon", lambda gen, v: witness_series(gen, [0.0, 1.0], v, mode="finite-interval")),
        ("epsilon", lambda gen, v: assess(gen, [0.0, 1.0], v)),
        ("t_max", lambda gen, v: measure_report(gen, v, 11)),
        ("delta", lambda gen, v: cp_divisibility_scan(gen, np.linspace(0.0, 1.0, 5), v))],
        ids=["small-time witness_series", "finite-interval witness_series", "assess",
             "measure_report", "cp_divisibility_scan"])
    def test_each_positive_check_keeps_its_message(self, name, call):
        gen = dephasing_generator(ConstantRate(1.0))
        with pytest.raises(ValueError) as info:
            call(gen, -0.5)
        assert str(info.value) == f"{name} must be positive and finite, got -0.5"

    @pytest.mark.parametrize("name, verdict", [("example2", "CP-indivisible"),
                                               ("ohmic_compare", "CP-divisible")])
    def test_bundled_scenarios_with_ill_conditioned_propagators(self, name, verdict):
        # Phi(t, 0) passes condition number 1e12 inside both grids (example2
        # near t = 5.95, ohmic_compare near t = 1.98); every bridge map is
        # still well defined, and the scan integrates those directly.
        # example2's pole makes one window's RK4 step dubious; ohmic_compare
        # raises no warning at all.
        gen, grid, config = bundled(name)
        if name == "example2":
            with pytest.warns(UserWarning, match="RK4 step is dubious"):
                scan = cp_divisibility_scan(gen, grid, config.epsilon)
        else:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                scan = cp_divisibility_scan(gen, grid, config.epsilon)
        assert scan.verdict == verdict

    def test_non_finite_rate_names_earliest_time(self):
        # 0.1-wide windows of 100 steps: the first half-step time past 0.9502
        # lies inside the window starting at 0.9.
        gen = dephasing_generator(BlowUpRate(after=0.9502))
        with pytest.raises(ValueError, match=r"non-finite rate at t = 0\.9505:"):
            cp_divisibility_scan(gen, np.linspace(0.0, 2.0, 21), 0.1)

    def test_lorentzian_pole_is_named(self):
        lam, gamma0 = 1.5, 1.0
        pole = lorentzian_first_pole(lam, gamma0)
        gen = dephasing_generator(LorentzianRate(lam=lam, gamma0=gamma0, k=1.0))
        # The pole is the midpoint of the last window.
        grid = np.array([1.0, pole - 5e-4])
        with pytest.raises(ValueError, match=rf"pole at t = {pole:.8f}"):
            cp_divisibility_scan(gen, grid, 1e-3)


    def test_warns_on_coarse_rk4_step_near_pole(self):
        # example2's rate reaches |h*gamma| ~ 1 next to its pole near t = 6.05.
        gen, grid, config = bundled("example2")
        with pytest.warns(UserWarning, match=r"\|h\*gamma\| = .* starting at t = 6\.0"):
            cp_divisibility_scan(gen, grid, config.epsilon)

    @pytest.mark.parametrize("call, peak", [
        (lambda gen, grid, eps: bridge_moments(gen, grid, eps), _GRID_PEAK),
        (lambda gen, grid, eps: cp_divisibility_scan(gen, grid, eps), _GRID_PEAK),
        (lambda gen, grid, eps: witness_series(gen, grid, eps, mode="finite-interval"),
         _GRID_PEAK),
        # One window, [6.0, 6.1], across the pole: bridge_moments(gen, [6.0], 0.1)
        # warns with this text too.
        (lambda gen, grid, eps: propagate_map(gen, 6.0, 6.1),
         "944 in the window starting at t = 6"),
    ], ids=["bridge_moments", "cp_divisibility_scan", "witness_series", "propagate_map"])
    def test_rk4_warning_names_the_callers_line(self, call, peak):
        gen, grid, config = bundled("example2")
        with pytest.warns(UserWarning, match="RK4 step is dubious") as records:
            call(gen, grid, config.epsilon)
        (record,) = [r for r in records if "RK4" in str(r.message)]
        assert str(record.message) == f"RK4 step is dubious: max |h*gamma| = {peak} (limit 0.1)"
        assert record.filename == __file__

    def test_silent_for_slow_rates(self):
        gen, grid, config = bundled("markovian_control")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cp_divisibility_scan(gen, grid, config.epsilon)
            propagate_map(gen, grid[0], grid[-1])


_OSCILLATING = dephasing_generator(ExpCosRate(k=1.0))
_FAST = dephasing_generator(ConstantRate(200.0))


@pytest.mark.parametrize("call, match", [
    # The eternal Pauli channel's g has not decayed: assess reaches the
    # warning by another path through the package than measure_report.
    (lambda: assess(build_generator(load_scenario(ETERNAL_PAULI)),
                    np.linspace(0.0, 2.9, 300), 0.01), "trace-norm rate g is still"),
    (lambda: measure_report(_OSCILLATING, 3.0, 101), "last 5%"),
    (lambda: witness_series(_FAST, [0.0, 1.0], 1e-3), "expansion is dubious"),
], ids=["assess-tail", "measure_report-tail", "small_time_witness"])
def test_warning_names_the_callers_line(call, match):
    with pytest.warns(UserWarning, match=match) as records:
        call()
    assert [r.filename for r in records if match in str(r.message)] == [__file__]


class TestAssess:
    """`assess` returns what the three public views return, from shared inputs."""

    @pytest.mark.filterwarnings("ignore:.*over the last 5% of the grid")
    @pytest.mark.parametrize("mode", ["small-time", "finite-interval"])
    def test_equals_the_public_views_bit_for_bit(self, mode):
        gen = random_expcos_generator(np.random.default_rng(11), 3)
        grid = np.linspace(0.0, 3.0, 61)
        got = assess(gen, grid, 1e-3, mode, scan=True)
        want = (witness_series(gen, grid, 1e-3, mode), measure_report(gen, 3.0, 61),
                cp_divisibility_scan(gen, grid, 1e-3))
        for record, expected in zip(got, want):
            assert type(record) is type(expected)
            for a, b in zip(record, expected):
                if isinstance(a, np.ndarray):
                    assert a.shape == b.shape and a.tobytes() == b.tobytes()
                else:
                    assert a == b
        assert assess(gen, grid, 1e-3, mode)[2] is None

    @pytest.mark.filterwarnings("ignore:.*over the last 5% of the grid")
    @pytest.mark.parametrize("mode, scan", [("finite-interval", False),
                                            ("finite-interval", True), ("small-time", True)])
    def test_a_sweeping_run_evaluates_the_rates_once(self, mode, scan):
        # One RK4 step per window: rates at its start, middle and end. The
        # witness and the measures read the start rates, so the grid is not
        # evaluated a fourth time.
        rate = CountingRate()
        grid = np.linspace(0.0, 2.0, 40)
        series, measures, _ = assess(dephasing_generator(rate), grid, 1e-3, mode, scan=scan)
        assert rate.calls == 3 * grid.size
        assert np.array_equal(series.rates[:, 0], CountingRate.formula(grid))
        assert measures.moment_measure > 0.0

    def test_the_measures_tail_is_the_last_5_percent_of_the_grids_span(self):
        # The rate is -1 until t = 10.2 and 0 from t = 10.25 on. The tail of
        # a grid over [10, 10.5] starts at 10.475, not at 0.95 * 10.5, which
        # used to take the whole grid as its tail and warn.
        rate = TabulatedRate(((0.0, -1.0), (10.2, -1.0), (10.25, 0.0), (30.0, 0.0)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _, measures, _ = assess(dephasing_generator(rate), np.linspace(10.0, 10.5, 101),
                                    1e-3)
        assert measures.moment_measure == pytest.approx(0.225, rel=1e-12)
        assert measures.rhp_measure == pytest.approx(0.45, rel=1e-12)

    def test_checks_its_arguments_as_witness_series_does(self):
        gen = dephasing_generator(ConstantRate(1.0))
        with pytest.raises(ValueError, match="mode"):
            assess(gen, [0.0, 1.0], 1e-3, mode="other")
        with pytest.raises(ValueError, match="epsilon must be positive and finite"):
            assess(gen, [0.0, 1.0], math.nan)
        with pytest.raises(ValueError, match="strictly increasing"):
            assess(gen, [0.0, 0.0, 1.0], 1e-3)


class TestMonotonicityUnderDivisibleUnitalDynamics:
    """Entropy / norm monotonicity along semigroups with normal jump operators.

    (The acceptance suite runs the full 20-generator sweep; this covers the
    mechanics on a smaller budget.)
    """

    def test_renyi_nondecreasing_and_norms_nonincreasing(self):
        rng = np.random.default_rng(44)
        grid = np.linspace(0.0, 5.0, 200)
        h = grid[1] - grid[0]
        for case in range(6):
            dim = 2 if case < 3 else 3
            gen = random_unital_generator(rng, dim, n_ops=2)
            step = propagate_map(gen, 0.0, h)
            rho = random_psd_unit_trace(rng, dim)
            entropies = {2.0: [], 3.0: []}
            norms = {2.0: [], 3.0: []}
            state = rho.reshape(-1)
            for _ in grid:
                mat = 0.5 * (state.reshape(dim, dim) + state.reshape(dim, dim).conj().T)
                for alpha in (2.0, 3.0):
                    entropies[alpha].append(renyi_entropy(mat, alpha))
                    norms[alpha].append(schatten_norm(mat, alpha))
                state = step @ state
            for alpha in (2.0, 3.0):
                assert np.all(np.diff(entropies[alpha]) >= -1e-9)
                assert np.all(np.diff(norms[alpha]) <= 1e-9)
