import math
import warnings
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from choi_moments.choi import (
    CHUNK_ENTRIES,
    SmallTimeChoiBuilder,
    bridge_spectra,
    choi_small_time,
    max_entangled_projector,
    propagate_map,
)
from choi_moments.detect import (
    VIOLATION_THRESHOLD,
    _rate_limits,
    _violation_intervals,
    cp_divisibility_scan,
    lambda_moments,
    measure_report,
    moment_measure,
    moment_rate_f,
    moment_witness,
    renyi_entropy,
    rhp_measure,
    rhp_rate_g,
    witness_series,
)
from choi_moments.config import build_generator, bundled_scenario_path, load_scenario
from choi_moments.lindblad import (
    LOWERING,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    LindbladGenerator,
    dephasing_generator,
    isotropic_pauli_generator,
)
from choi_moments.rates import ConstantRate, ExpCosRate, LorentzianRate, TabulatedRate, rate_eval
from choi_moments.spectral import hermitian_spectrum, schatten_norm
from helpers import (
    CountingRate,
    random_expcos_generator,
    random_generator,
    random_hermitian,
    random_kraus_choi,
    random_psd_unit_trace,
    random_unital_generator,
    reference_rate_limits,
    reference_rhp_rates,
    reference_small_time_witness,
    reference_violation_intervals,
)


@dataclass(frozen=True)
class BlowUpRate:
    """Rate 1 up to `after`, infinite past it."""

    after: float

    def evaluate(self, t: np.ndarray) -> np.ndarray:
        return np.where(t > self.after, math.inf, 1.0)


def lorentzian_first_pole(lam, gamma0):
    g_abs = math.sqrt(2.0 * gamma0 * lam - lam * lam)
    return (2.0 / g_abs) * (math.pi - math.atan2(g_abs, lam))


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


class TestLambdaMoments:
    def test_identity_channel(self):
        assert np.allclose(lambda_moments(max_entangled_projector(2)), [1.0, 1.0, 1.0], atol=1e-12)

    def test_dephasing_small_time(self):
        gen = dephasing_generator(ConstantRate(1.0))
        r = lambda_moments(choi_small_time(gen, 0.0, 1e-3))
        assert r[1] == pytest.approx(0.998002, abs=1e-9)
        assert r[2] == pytest.approx(0.997003, abs=1e-9)

    def test_maximally_mixed(self):
        assert np.allclose(lambda_moments(np.eye(4) / 4), [1.0, 0.25, 0.0625], atol=1e-14)

    def test_first_moment_is_one_for_tp_maps(self):
        rng = np.random.default_rng(41)
        for _ in range(10):
            choi = random_kraus_choi(rng, 2, int(rng.integers(1, 5)))
            assert lambda_moments(choi)[0] == pytest.approx(1.0, abs=1e-9)

    def test_rejects_low_order(self):
        with pytest.raises(ValueError, match="n_max"):
            lambda_moments(max_entangled_projector(2), n_max=2)


class TestMomentWitness:
    def test_identity_channel_is_zero(self):
        assert abs(moment_witness(max_entangled_projector(2))) < 1e-14

    def test_negative_rate_violates(self):
        gen = dephasing_generator(ConstantRate(-1.0))
        w = moment_witness(choi_small_time(gen, 0.0, 1e-3))
        assert w == pytest.approx(dephasing_witness_exact(-1.0, 1e-3), abs=1e-12)
        assert w == pytest.approx(0.001005, abs=1e-6)

    def test_positive_rate_does_not_violate(self):
        gen = dephasing_generator(ConstantRate(1.0))
        w = moment_witness(choi_small_time(gen, 0.0, 1e-3))
        assert w == pytest.approx(dephasing_witness_exact(1.0, 1e-3), abs=1e-12)
        assert w == pytest.approx(-0.000995, abs=1e-6)

    def test_soundness_on_random_states(self):
        # Any PSD unit-trace matrix satisfies r2^2 <= r3 (the acceptance suite
        # runs the full 1000-sample sweep; this is the smoke version).
        rng = np.random.default_rng(42)
        for _ in range(200):
            assert moment_witness(random_psd_unit_trace(rng, 4)) <= 1e-12

    def test_positive_witness_implies_negative_eigenvalue(self):
        gen = dephasing_generator(ExpCosRate(k=1.0))
        for t in np.linspace(1.6, 4.6, 25):
            c = choi_small_time(gen, float(t), 1e-3)
            if moment_witness(c) > VIOLATION_THRESHOLD:
                assert hermitian_spectrum(c.matrix)[-1] < 0.0


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

    def test_markovian_semigroup_has_no_violations(self):
        gen = dephasing_generator(ConstantRate(1.0))
        series = witness_series(gen, np.linspace(0.0, 5.0, 300), 1e-3)
        assert series.violations == ()
        assert not series.is_non_markovian

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
        with pytest.raises(ValueError, match="mode"):
            witness_series(gen, [0.0, 1.0], 1e-3, mode="other")

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
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # the generator is not unital
            measure_report(gen, 3.0, 300)
        rhp_rate_g(gen, 0.0)
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
        gen = dephasing_generator(ConstantRate(-0.5))
        assert moment_rate_f(gen, 0.0) == pytest.approx(0.5, abs=1e-6)
        assert rhp_rate_g(gen, 0.0) == pytest.approx(1.0, abs=1e-6)

    def test_dephasing_positive_rate(self):
        gen = dephasing_generator(ConstantRate(0.7))
        assert moment_rate_f(gen, 0.0) == 0.0
        assert rhp_rate_g(gen, 1.3) == pytest.approx(0.0, abs=1e-10)

    def test_three_pauli_rates(self):
        gen = isotropic_pauli_generator(ConstantRate(-0.1))
        assert moment_rate_f(gen, 0.0) == pytest.approx(0.3, abs=1e-6)
        assert rhp_rate_g(gen, 0.0) == pytest.approx(0.6, abs=1e-6)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), dim=st.sampled_from([2, 3]),
           n_ops=st.integers(1, 3))
    def test_closed_forms_match_finite_eps_extrapolation(self, seed, dim, n_ops):
        gen = random_generator(np.random.default_rng(seed), dim, n_ops=n_ops)
        f_ref, g_ref = reference_rate_limits(gen, 0.0)
        assert moment_rate_f(gen, 0.0) == pytest.approx(f_ref, rel=1e-4, abs=1e-9)
        assert rhp_rate_g(gen, 0.0) == pytest.approx(g_ref, rel=1e-4, abs=1e-9)

    def test_dephasing_case_formulas_across_rates(self):
        for gamma in np.linspace(-2.0, 2.0, 50):
            gen = dephasing_generator(ConstantRate(float(gamma)))
            assert moment_rate_f(gen, 0.0) == pytest.approx(max(0.0, -gamma), abs=5e-4)
            assert rhp_rate_g(gen, 0.0) == pytest.approx(max(0.0, -2.0 * gamma), abs=5e-4)


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
                    _, _, g = _rate_limits(gen, grid)
                    want = reference_rhp_rates(gen, grid)
                    assert np.all(np.abs(g - want) <= 1e-12 * np.maximum(1.0, np.abs(want)))

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_projected_blocks_are_rank_one(self, d):
        # Q B_0 Q = 0 and Q B_k Q = v_k v_k^dag, v_k = vec((L_k - Tr L_k/d I)^T)/sqrt(d).
        gen = random_generator(np.random.default_rng(200 + d), d, n_ops=3)
        builder = SmallTimeChoiBuilder(gen)
        q = np.eye(d * d) - builder.bell
        projected = q @ builder.blocks @ q
        assert np.max(np.abs(projected[0])) <= 1e-14 * np.max(np.abs(builder.blocks[0]))
        for (op, _), block, full in zip(gen.dissipators, projected[1:], builder.blocks[1:]):
            v = (op - np.trace(op) / d * np.eye(d)).T.ravel() / np.sqrt(d)
            assert np.max(np.abs(block - np.outer(v, v.conj()))) <= 1e-14 * np.max(np.abs(full))

    def test_hamiltonian_does_not_change_g(self):
        rng = np.random.default_rng(7)
        grid = np.linspace(0.0, 3.0, 31)
        gen = random_expcos_generator(rng, 3, n_ops=3)
        _, _, g = _rate_limits(gen, grid)
        assert np.any(g > 0.0)
        for h in (np.zeros((3, 3)), 10.0 * random_hermitian(rng, 3)):
            other = LindbladGenerator(3, h, gen.dissipators)
            assert np.array_equal(_rate_limits(other, grid)[2], g)

    def test_hamiltonian_only_generator_has_zero_rates(self):
        gen = LindbladGenerator(2, SIGMA_Z, ())
        gammas, f, g = _rate_limits(gen, np.linspace(0.0, 2.0, 11))
        assert gammas.shape == (11, 0)
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
        _, _, g = _rate_limits(gen, [0.0, 1.0])
        want = reference_rhp_rates(gen, [0.0, 1.0])
        assert np.all(np.abs(g - want) <= 1e-12 * np.maximum(1.0, np.abs(want)))
        assert g[0] > 0.0
        if g_want is not None:
            assert g == pytest.approx([g_want, g_want], abs=1e-12)

    def test_spectra_are_solved_in_bounded_chunks(self, monkeypatch):
        shapes = []
        eigvalsh = np.linalg.eigvalsh

        def recorded(a, *args, **kwargs):
            shapes.append(a.shape)
            return eigvalsh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", recorded)
        gen = random_expcos_generator(np.random.default_rng(9), 4, n_ops=5)
        grid = np.linspace(0.0, 3.0, 1000)
        _, _, g = _rate_limits(gen, grid)
        assert len(shapes) > 1
        assert all(s[1:] == (5, 5) and s[0] * 25 <= CHUNK_ENTRIES for s in shapes)
        assert sum(s[0] for s in shapes) == grid.size
        # Rows are stitched back in order: a coarser grid, in one chunk, agrees.
        coarse = _rate_limits(gen, grid[::37])[2]
        assert np.all(np.abs(g[::37] - coarse) <= 1e-13 * np.maximum(1.0, coarse))



class TestMeasures:
    def test_markovian_dephasing_measure_vanishes(self):
        gen = dephasing_generator(ConstantRate(1.0))
        assert moment_measure(gen, 5.0, 201) == 0.0

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
        gen = isotropic_pauli_generator(ExpCosRate(k=1.0))
        assert moment_measure(gen, 20.0, 2001) == pytest.approx(
            3.0 * expcos_measure_oracle(), rel=5e-3
        )
        assert rhp_measure(gen, 20.0, 2001) == pytest.approx(
            6.0 * expcos_measure_oracle(), rel=5e-3
        )

    def test_zero_iff_rate_series_zero(self):
        gen = dephasing_generator(ExpCosRate(k=1.0))
        report = measure_report(gen, 20.0, 501)
        assert (report.moment_measure == 0.0) == bool(np.all(report.f_series == 0.0))
        assert report.moment_measure > 0.0

    def test_warns_for_non_unital_generator(self):
        gen = LindbladGenerator(2, np.zeros((2, 2)), ((LOWERING, ConstantRate(1.0)),))
        with pytest.warns(UserWarning, match="not unital"):
            measure_report(gen, 2.0, 51)

    def test_warns_when_not_unital_between_sparse_samples(self):
        # Amplitude damping whose rate vanishes at t = 0, 1, ..., 6 (the seven
        # evenly spaced times a sparse check would sample) but not between them.
        knots = tuple((0.5 * k, float(k % 2)) for k in range(13))
        gen = LindbladGenerator(2, np.zeros((2, 2)), ((LOWERING, TabulatedRate(knots)),))
        with pytest.warns(UserWarning, match="not unital"):
            measure_report(gen, 6.0, 61)

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
        with pytest.warns(UserWarning, match="last 5%"):
            measure_report(gen, 3.0, 101)


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

    @pytest.mark.parametrize("call", [
        lambda gen, grid, eps: bridge_spectra(gen, grid, eps),
        lambda gen, grid, eps: cp_divisibility_scan(gen, grid, eps),
        lambda gen, grid, eps: witness_series(gen, grid, eps, mode="finite-interval"),
    ], ids=["bridge_spectra", "cp_divisibility_scan", "witness_series"])
    def test_rk4_warning_names_the_callers_line(self, call):
        gen, grid, config = bundled("example2")
        with pytest.warns(UserWarning, match="RK4 step is dubious") as records:
            call(gen, grid, config.epsilon)
        (record,) = [r for r in records if "RK4" in str(r.message)]
        assert record.filename == __file__

    def test_silent_for_slow_rates(self):
        gen, grid, config = bundled("markovian_control")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cp_divisibility_scan(gen, grid, config.epsilon)


_DAMPING = LindbladGenerator(2, np.zeros((2, 2)), ((LOWERING, ConstantRate(1.0)),))
_OSCILLATING = dephasing_generator(ExpCosRate(k=1.0))
_FAST = dephasing_generator(ConstantRate(200.0))


@pytest.mark.parametrize("call, match", [
    (lambda: measure_report(_DAMPING, 2.0, 51), "not unital"),
    (lambda: measure_report(_OSCILLATING, 3.0, 101), "last 5%"),
    (lambda: moment_measure(_DAMPING, 2.0, 51), "not unital"),
    (lambda: moment_measure(_OSCILLATING, 3.0, 101), "last 5%"),
    (lambda: rhp_measure(_DAMPING, 2.0, 51), "not unital"),
    (lambda: rhp_measure(_OSCILLATING, 3.0, 101), "last 5%"),
    (lambda: choi_small_time(_FAST, 0.0, 1e-3), "expansion is dubious"),
    (lambda: witness_series(_FAST, [0.0, 1.0], 1e-3), "expansion is dubious"),
], ids=["measure_report-unital", "measure_report-tail", "moment_measure-unital",
        "moment_measure-tail", "rhp_measure-unital", "rhp_measure-tail",
        "choi_small_time", "small_time_witness"])
def test_warning_names_the_callers_line(call, match):
    with pytest.warns(UserWarning, match=match) as records:
        call()
    assert [r.filename for r in records if match in str(r.message)] == [__file__]


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

    def test_rejections(self):
        with pytest.raises(ValueError, match="von Neumann"):
            renyi_entropy(np.eye(2) / 2, 1.0)
        with pytest.raises(ValueError, match="positive"):
            renyi_entropy(np.eye(2) / 2, 0.0)
        with pytest.raises(ValueError, match="not PSD"):
            renyi_entropy(np.diag([1.1, -0.1]), 2.0)


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
            step = propagate_map(gen, 0.0, h).matrix
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
