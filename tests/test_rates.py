import copy
import inspect
import math
import os
import pickle
import subprocess
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad

import choi_moments
from choi_moments.rates import (
    ConstantRate,
    ExpCosRate,
    LorentzianRate,
    OhmicDephasingRate,
    TabulatedRate,
    rate_eval,
)


class TestExpCos:
    def test_at_zero(self):
        assert rate_eval(ExpCosRate(k=1.0), 0.0) == pytest.approx(1.0)

    def test_at_pi(self):
        assert rate_eval(ExpCosRate(k=1.0), np.pi) == pytest.approx(
            -np.exp(-np.pi), abs=1e-12
        )
        assert rate_eval(ExpCosRate(k=1.0), np.pi) == pytest.approx(-0.0432139, abs=1e-7)

    def test_time_rescaling(self):
        assert rate_eval(ExpCosRate(k=2.0), 1.5) == pytest.approx(
            rate_eval(ExpCosRate(k=1.0), 3.0), abs=1e-14
        )

    def test_rejects_bad_k(self):
        with pytest.raises(ValueError, match="k > 0"):
            ExpCosRate(k=0.0)


class TestLorentzian:
    def test_critical_damping_limit(self):
        # lam = 2*gamma0 makes g = 0: gamma(t) = lam*gamma0*t / (1 + lam*t/2)
        assert rate_eval(LorentzianRate(lam=2.0, gamma0=1.0, k=1.0), 1.0) == pytest.approx(
            1.0, abs=1e-9
        )

    def test_limit_against_brute_force_small_g(self):
        # Slightly off critical damping, evaluated directly with sinh/cosh.
        lam, gamma0, t = 2.0 + 1e-7, 1.0, 1.3
        g = math.sqrt(lam * lam - 2.0 * gamma0 * lam)
        brute = (2.0 * lam * gamma0 * math.sinh(t * g / 2)
                 / (g * math.cosh(t * g / 2) + lam * math.sinh(t * g / 2)))
        assert rate_eval(LorentzianRate(lam=lam, gamma0=gamma0), t) == pytest.approx(
            brute, rel=1e-10
        )
        limit = 2.0 * 1.0 * t / (1.0 + t)
        assert brute == pytest.approx(limit, rel=1e-6)

    def test_overdamped_positive(self):
        model = LorentzianRate(lam=2.0, gamma0=1.0, k=1.0)
        exact = LorentzianRate(lam=3.0, gamma0=1.0, k=1.0)
        grid = np.linspace(0.0, 20.0, 2000)
        assert all(rate_eval(model, t) >= 0.0 for t in grid)
        assert all(rate_eval(exact, t) >= 0.0 for t in grid)

    def test_oscillatory_branch_goes_negative(self):
        # gamma0 > lam/2: negative window roughly (6.05, 7.26) for these values
        model = LorentzianRate(lam=1.5, gamma0=1.0, k=1.0)
        assert rate_eval(model, 1.0) > 0.0
        assert rate_eval(model, 6.5) < 0.0
        assert rate_eval(model, 8.0) > 0.0

    def test_trig_branch_matches_complex_arithmetic(self):
        # The real-valued form must agree with naive complex sinh/cosh.
        lam, gamma0 = 1.5, 1.0
        g = complex(0.0, math.sqrt(2.0 * gamma0 * lam - lam * lam))
        model = LorentzianRate(lam=lam, gamma0=gamma0, k=1.0)
        for t in (0.3, 1.7, 4.0, 6.5):
            x = t * g / 2.0
            naive = 2.0 * lam * gamma0 * np.sinh(x) / (g * np.cosh(x) + lam * np.sinh(x))
            assert abs(naive.imag) < 1e-12
            assert rate_eval(model, t) == pytest.approx(naive.real, rel=1e-10)

    def test_pole_rejection_reports_location(self):
        lam, gamma0 = 1.5, 1.0
        g_abs = math.sqrt(2.0 * gamma0 * lam - lam * lam)
        pole = (2.0 / g_abs) * (math.pi - math.atan2(g_abs, lam))
        with pytest.raises(ValueError, match="pole"):
            rate_eval(LorentzianRate(lam=lam, gamma0=gamma0, k=1.0), pole)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            LorentzianRate(lam=-1.0, gamma0=1.0)
        with pytest.raises(ValueError):
            LorentzianRate(lam=1.0, gamma0=0.0)


class TestOhmic:
    def test_zero_temperature_value(self):
        # closed form: integral_0^inf e^{-w} sin(w t) dw = t / (1 + t^2)
        assert rate_eval(OhmicDephasingRate(omega_c=1.0, temperature=0.0), 1.0) == pytest.approx(
            0.5, abs=1e-6
        )

    @pytest.mark.parametrize("omega_c", [0.5, 1.0, 2.0])
    def test_zero_temperature_closed_form(self, omega_c):
        model = OhmicDephasingRate(omega_c=omega_c, temperature=0.0)
        for t in np.linspace(0.0, 10.0, 41):
            expected = omega_c**2 * t / (1.0 + omega_c**2 * t**2)
            assert rate_eval(model, t) == pytest.approx(expected, abs=1e-6)

    def test_thermal_value_against_independent_quadrature(self):
        # Oracle uses a different coth formulation (expm1) and truncation.
        temp, wc = 5.0, 1.0
        model = OhmicDephasingRate(omega_c=wc, temperature=temp)

        def oracle(t):
            def f(w):
                coth = 1.0 + 2.0 / math.expm1(w / temp)
                return math.exp(-w / wc) * coth * math.sin(w * t)
            val, _ = quad(f, 1e-12, 60.0 * wc, limit=800, epsabs=1e-10, epsrel=1e-10)
            return val

        for t in (0.2, 1.0, 3.0, 7.5):
            assert rate_eval(model, t) == pytest.approx(oracle(t), abs=1e-6)

    @pytest.mark.parametrize("temp", [0.01, 1.0, 5.0, 50.0])
    @pytest.mark.parametrize("omega_c", [0.5, 1.0, 2.0])
    def test_thermal_series_against_mpmath_digamma(self, omega_c, temp):
        model = OhmicDephasingRate(omega_c=omega_c, temperature=temp)
        ts = np.concatenate(([0.0], np.logspace(-4.0, 3.0, 36)))
        values = rate_eval(model, ts)
        assert values[0] == 0.0
        a0 = 1.0 / omega_c
        with mpmath.workdps(30):
            for t, value in zip(ts, values):
                z = mpmath.mpc(1.0 + temp * a0, -temp * t)
                exact = t / (a0 * a0 + t * t) - 2.0 * temp * float(mpmath.digamma(z).imag)
                assert abs(value - exact) <= 1e-13 * max(1.0, abs(exact)), t

    def test_thermal_rate_stays_non_negative(self):
        model = OhmicDephasingRate(omega_c=1.0, temperature=5.0)
        vals = [rate_eval(model, t) for t in np.linspace(0.0, 25.0, 120)]
        assert min(vals) >= -1e-9

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            OhmicDephasingRate(omega_c=0.0)
        with pytest.raises(ValueError):
            OhmicDephasingRate(omega_c=1.0, temperature=-1.0)


class TestTabulated:
    def test_linear_interpolation(self):
        model = TabulatedRate(knots=((0.0, 0.0), (1.0, 2.0), (3.0, -2.0)))
        assert rate_eval(model, 0.5) == pytest.approx(1.0)
        assert rate_eval(model, 2.0) == pytest.approx(0.0)
        assert rate_eval(model, 3.0) == pytest.approx(-2.0)

    def test_rejects_extrapolation(self):
        model = TabulatedRate(knots=((0.0, 0.0), (1.0, 1.0)))
        with pytest.raises(ValueError, match="extrapolation"):
            rate_eval(model, 1.5)

    def test_rejects_unsorted_knots(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            TabulatedRate(knots=((0.0, 0.0), (0.0, 1.0)))

    def test_rejects_single_knot(self):
        with pytest.raises(ValueError, match="two knots"):
            TabulatedRate(knots=((0.0, 0.0),))

    def test_arrays_are_read_only(self):
        model = TabulatedRate(knots=((0.0, 0.0), (1.0, 1.0)))
        for array in (model._times, model._values):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 5.0
        assert rate_eval(model, 0.0) == 0.0


def test_constant_rate():
    assert rate_eval(ConstantRate(-0.25), 17.0) == -0.25


def test_rejects_negative_time():
    with pytest.raises(ValueError, match="t >= 0"):
        rate_eval(ConstantRate(1.0), -0.1)


class TestNonFiniteParameters:
    """Every constructor refuses NaN and +-inf with a message naming the parameter."""

    @staticmethod
    def refuses(make, name):
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match=rf"a finite {name}, got {name} = -?(nan|inf)$"):
                make(bad)

    def test_constant(self):
        self.refuses(ConstantRate, "value")

    def test_expcos(self):
        self.refuses(lambda v: ExpCosRate(k=v), "k")

    def test_lorentzian(self):
        self.refuses(lambda v: LorentzianRate(lam=v, gamma0=1.0), "lam")
        self.refuses(lambda v: LorentzianRate(lam=1.5, gamma0=v), "gamma0")
        self.refuses(lambda v: LorentzianRate(lam=1.5, gamma0=1.0, k=v), "k")

    def test_ohmic(self):
        # A NaN temperature passes `temperature < 0` and `temp > 0` alike, so
        # it used to evaluate as the zero-temperature model.
        self.refuses(lambda v: OhmicDephasingRate(omega_c=v), "omega_c")
        self.refuses(lambda v: OhmicDephasingRate(temperature=v), "temperature")

    def test_tabulated(self):
        for bad in (math.nan, math.inf, -math.inf):
            for knots in (((0.0, 0.0), (bad, 1.0)), ((0.0, bad), (1.0, 1.0))):
                with pytest.raises(ValueError, match="finite knot times and values"):
                    TabulatedRate(knots)


ARRAY_MODELS = {
    "constant": ConstantRate(-0.25),
    "expcos": ExpCosRate(k=1.3),
    "lorentzian_overdamped": LorentzianRate(lam=3.0, gamma0=1.0),
    "lorentzian_underdamped": LorentzianRate(lam=1.5, gamma0=1.0),
    "lorentzian_critical": LorentzianRate(lam=2.0, gamma0=1.0),
    "tabulated": TabulatedRate(knots=((0.0, 0.0), (1.0, 2.0), (4.0, -1.0), (9.0, 0.5))),
    "ohmic_zero_temperature": OhmicDephasingRate(omega_c=2.0, temperature=0.0),
    "ohmic_thermal": OhmicDephasingRate(omega_c=1.0, temperature=5.0),
}


class TestArrayContract:
    @pytest.mark.parametrize("name", sorted(ARRAY_MODELS))
    def test_grid_call_matches_scalar_calls_bit_for_bit(self, name):
        model = ARRAY_MODELS[name]
        ts = np.linspace(0.0, 9.0, 157)
        values = rate_eval(model, ts)
        assert values.shape == ts.shape
        assert np.array_equal(values, [rate_eval(model, float(t)) for t in ts])
        assert isinstance(rate_eval(model, 1.0), float)
        grid = ts.reshape(-1, 1)
        assert np.array_equal(rate_eval(model, grid), values.reshape(grid.shape))

    def test_grid_call_names_the_earliest_pole(self):
        model = LorentzianRate(lam=1.5, gamma0=1.0)
        g_abs = math.sqrt(2.0 * 1.0 * 1.5 - 1.5 * 1.5)
        first = (2.0 / g_abs) * (math.pi - math.atan2(g_abs, 1.5))
        second = first + 2.0 * math.pi / g_abs
        with pytest.raises(ValueError, match=rf"pole at t = {first:.8f}"):
            rate_eval(model, np.array([0.5, second, first, 8.0]))

    def test_grid_call_names_the_earliest_time_out_of_table(self):
        model = TabulatedRate(knots=((0.0, 0.0), (1.0, 1.0)))
        with pytest.raises(ValueError, match=r"t = 1\.2 is outside"):
            rate_eval(model, np.array([0.5, 1.5, 1.2, 0.9]))

    def test_grid_call_names_the_earliest_negative_time(self):
        with pytest.raises(ValueError, match=r"t >= 0, got t = -0\.3"):
            rate_eval(ConstantRate(1.0), np.array([0.1, -0.2, -0.3]))


class TestValueSemantics:
    """Rate models are immutable values, equal iff of one type with equal fields."""

    def test_equality_and_hash_need_the_same_type(self):
        assert ConstantRate(1.0) != ExpCosRate(k=1.0)
        assert ConstantRate(1.0) == ConstantRate(1.0)
        assert hash(ConstantRate(1.0)) == hash(ConstantRate(1.0))
        assert LorentzianRate(1.5, 1.0) != LorentzianRate(1.5, 1.0, k=2.0)
        assert OhmicDephasingRate(2.0, 0.0) != OhmicDephasingRate(2.0, 1.0)
        models = {ConstantRate(1.0), ExpCosRate(k=1.0), ConstantRate(1.0), ExpCosRate()}
        assert models == {ConstantRate(1.0), ExpCosRate(k=1.0)}

    @pytest.mark.parametrize("model, text", [
        (ConstantRate(1.0), "ConstantRate(value=1.0)"),
        (ExpCosRate(), "ExpCosRate(k=1.0)"),
        (LorentzianRate(1.5, 1.0), "LorentzianRate(lam=1.5, gamma0=1.0, k=1.0)"),
        (OhmicDephasingRate(temperature=5.0), "OhmicDephasingRate(omega_c=1.0, temperature=5.0)"),
        (TabulatedRate([[0, 0], (1, 2)]), "TabulatedRate(knots=((0.0, 0.0), (1.0, 2.0)))"),
    ], ids=["constant", "expcos", "lorentzian", "ohmic", "tabulated"])
    def test_repr(self, model, text):
        assert repr(model) == text

    def test_positional_keyword_and_default_construction(self):
        assert ConstantRate(0.5) == ConstantRate(value=0.5)
        assert ExpCosRate() == ExpCosRate(1.0) == ExpCosRate(k=1.0)
        assert (LorentzianRate(1.5, 1.0) == LorentzianRate(1.5, 1.0, 1.0)
                == LorentzianRate(lam=1.5, gamma0=1.0, k=1.0))
        assert (OhmicDephasingRate() == OhmicDephasingRate(1.0, 0.0)
                == OhmicDephasingRate(omega_c=1.0, temperature=0.0))
        knots = ((0.0, 0.0), (1.0, 2.0))
        assert TabulatedRate(knots) == TabulatedRate(knots=knots)
        for make in (ConstantRate, lambda: LorentzianRate(1.5), TabulatedRate,
                     lambda: ExpCosRate(1.0, 2.0)):
            with pytest.raises(TypeError):
                make()

    def test_tabulated_knots_are_normalised_and_its_arrays_stay_out_of_equality(self):
        model = TabulatedRate([[0, 1], (2, 3)])
        assert model.knots == ((0.0, 1.0), (2.0, 3.0))
        assert all(type(knot) is tuple and list(map(type, knot)) == [float, float]
                   for knot in model.knots)
        assert model == TabulatedRate(((0.0, 1.0), (2.0, 3.0)))
        assert hash(model) == hash(TabulatedRate(((0.0, 1.0), (2.0, 3.0))))

    @pytest.mark.parametrize("name", sorted(ARRAY_MODELS))
    def test_fields_cannot_be_assigned_or_deleted(self, name):
        model = ARRAY_MODELS[name]
        before = repr(model)
        for field in inspect.signature(type(model)).parameters:
            with pytest.raises(AttributeError):
                setattr(model, field, 2.0)
            with pytest.raises(AttributeError):
                delattr(model, field)
        with pytest.raises(AttributeError):
            model.extra = 1.0
        assert repr(model) == before

    @pytest.mark.parametrize("name", sorted(ARRAY_MODELS))
    def test_copies_and_pickles_are_equal_and_evaluate_alike(self, name):
        model = ARRAY_MODELS[name]
        ts = np.linspace(0.0, 9.0, 11)
        for clone in (copy.deepcopy(model), pickle.loads(pickle.dumps(model))):
            assert clone == model and type(clone) is type(model)
            assert np.array_equal(rate_eval(clone, ts), rate_eval(model, ts))


def _scipy_modules_after(code: str) -> str:
    """The scipy modules loaded after running code in a fresh interpreter."""
    src = str(Path(choi_moments.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    code += "; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            env=env, check=True)
    return result.stdout.strip().splitlines()[-1]


def test_import_leaves_scipy_unloaded():
    assert _scipy_modules_after("import sys, choi_moments") == "[]"


def test_thermal_ohmic_run_leaves_scipy_unloaded(tmp_path):
    # The bundled Ohmic comparison evaluates the thermal rate (T = 5).
    code = ("import sys; from choi_moments import cli; "
            f"cli.main(['compare', 'ohmic_compare', '--out-dir', {str(tmp_path)!r}, '--quiet'])")
    assert _scipy_modules_after(code) == "[]"
    assert (tmp_path / "ohmic_compare_compare.csv").is_file()
