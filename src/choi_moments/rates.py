"""Time-dependent dissipation rate models.

Units are dimensionless throughout: hbar = k_B = 1, and where a model carries
a frequency constant ``k`` the physical time enters as t' = k*t. A negative
rate at some instant is the signature exploited by the detection machinery;
the models themselves just evaluate gamma(t).

Every model's ``evaluate`` takes a one-dimensional float array of times and
returns gamma at each of them; ``rate_eval`` is the checked entry point for
a single time or an array of any shape.

The models are immutable values (`RateModel`): equal when they have the same
type and the same fields, hashable, and refusing assignment and deletion
with an AttributeError. They are plain slotted classes, not dataclasses,
because every process that imports the package would otherwise generate and
compile their methods.
"""

import math

import numpy as np

__all__ = [
    "ConstantRate",
    "ExpCosRate",
    "LorentzianRate",
    "OhmicDephasingRate",
    "TabulatedRate",
    "RateModel",
    "rate_eval",
]


class RateModel:
    """Base of the rate models: an immutable value of its `_fields`.

    Each subclass stores its fields in `__slots__`, names them in `_fields`
    (in constructor order) and sets them in `__init__` through
    `_set_fields`, which refuses NaN and +-inf. Two models are equal iff
    they have the same type and equal fields, so ConstantRate(1.0) !=
    ExpCosRate(k=1.0); the hash agrees. Slots outside `_fields` hold state derived from the fields and
    take no part in equality, hashing or repr.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _astuple(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._astuple() == other._astuple()

    def __hash__(self):
        return hash((self.__class__, self._astuple()))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__name__}({fields})"

    def __reduce__(self):
        # Rebuild through the constructor: restoring slot by slot would go
        # through __setattr__, which refuses.
        return self.__class__, self._astuple()

    def _set_fields(self, *values):
        for name, value in zip(self._fields, values):
            if not math.isfinite(value):
                raise ValueError(
                    f"{self.__class__.__name__} requires a finite {name}, got {name} = {value}"
                )
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class ConstantRate(RateModel):
    """gamma(t) = value for all t."""

    __slots__ = _fields = ("value",)

    def __init__(self, value: float):
        self._set_fields(value)

    def evaluate(self, t: np.ndarray) -> np.ndarray:
        return np.full(t.shape, float(self.value))


class ExpCosRate(RateModel):
    """gamma(t) = exp(-t') cos(t') with t' = k*t.

    Negative on (pi/2 + 2*pi*n, 3*pi/2 + 2*pi*n) in t'.
    """

    __slots__ = _fields = ("k",)

    def __init__(self, k: float = 1.0):
        self._set_fields(k)
        if k <= 0:
            raise ValueError(f"ExpCosRate requires k > 0, got k = {k}")

    def evaluate(self, t: np.ndarray) -> np.ndarray:
        tp = self.k * t
        return np.exp(-tp) * np.cos(tp)


class LorentzianRate(RateModel):
    """Dephasing rate of a qubit coupled to a Lorentzian reservoir.

    With g = sqrt(lam^2 - 2*gamma0*lam) and t' = k*t:

        gamma(t) = 2*lam*gamma0*sinh(t'g/2) / (g*cosh(t'g/2) + lam*sinh(t'g/2))

    For lam < 2*gamma0, g is imaginary and the same expression is evaluated on
    the trigonometric branch

        gamma(t) = 2*lam*gamma0*sin(t'|g|/2) / (|g|*cos(t'|g|/2) + lam*sin(t'|g|/2))

    which keeps the arithmetic real. Only on this branch can the rate turn
    negative, i.e. only when gamma0 > lam/2; it also has poles where the
    denominator vanishes, at which evaluation is refused.
    """

    __slots__ = _fields = ("lam", "gamma0", "k")

    def __init__(self, lam: float, gamma0: float, k: float = 1.0):
        self._set_fields(lam, gamma0, k)
        if lam <= 0 or gamma0 <= 0 or k <= 0:
            raise ValueError(
                "LorentzianRate requires lam > 0, gamma0 > 0, k > 0; got "
                f"lam = {lam}, gamma0 = {gamma0}, k = {k}"
            )

    def evaluate(self, t: np.ndarray) -> np.ndarray:
        tp = self.k * t
        g_sq = self.lam * self.lam - 2.0 * self.gamma0 * self.lam
        scale = max(1.0, self.lam * self.lam)
        if abs(g_sq) < 1e-12 * scale:
            # g -> 0 limit: gamma = lam*gamma0*t' / (1 + lam*t'/2)
            return self.lam * self.gamma0 * tp / (1.0 + 0.5 * self.lam * tp)
        if g_sq > 0:
            # Overdamped branch; tanh form avoids overflow of sinh/cosh.
            g = math.sqrt(g_sq)
            th = np.tanh(0.5 * tp * g)
            return 2.0 * self.lam * self.gamma0 * th / (g + self.lam * th)
        g_abs = math.sqrt(-g_sq)
        x = 0.5 * tp * g_abs
        sin_x = np.sin(x)
        denom = g_abs * np.cos(x) + self.lam * sin_x
        pole = np.abs(denom) < 1e-12 * math.hypot(g_abs, self.lam)
        if np.any(pole):
            first = float(np.min(t[pole]))
            raise ValueError(
                f"Lorentzian rate has a pole at t = {self._nearest_pole(first):.12g}; "
                f"evaluation at t = {first:.12g} is undefined"
            )
        return 2.0 * self.lam * self.gamma0 * sin_x / denom

    def _nearest_pole(self, t: float) -> float:
        # Poles at t'|g|/2 = n*pi - arctan(|g|/lam), n = 1, 2, ...
        g_abs = math.sqrt(2.0 * self.gamma0 * self.lam - self.lam * self.lam)
        phase = math.atan2(g_abs, self.lam)
        n = max(1, round((0.5 * self.k * t * g_abs + phase) / math.pi))
        return (2.0 / (self.k * g_abs)) * (n * math.pi - phase)


# Shift of the digamma argument before the asymptotic series, and the series
# coefficients B_2k / (2k), k = 1..8 (Abramowitz & Stegun 6.3.18). With
# |w| >= 11 the first omitted term is below 1e-18.
_DIGAMMA_SHIFT = 10
_STIRLING_COEFFICIENTS = (
    1 / 12, -1 / 120, 1 / 252, -1 / 240, 1 / 132, -691 / 32760, 1 / 12, -3617 / 8160,
)


def _im_digamma(x: float, y: np.ndarray) -> np.ndarray:
    """Im psi(x + iy) for a real x >= 1, elementwise over y >= 0.

    The recurrence psi(z) = psi(z + N) - sum_{k<N} 1/(z + k) contributes
    Im(-1/(x + k + iy)) = y / ((x + k)^2 + y^2) per step; at w = z + N the
    series psi(w) ~ ln w - 1/(2w) - sum_k B_2k / (2k w^2k) takes over.
    """
    total = np.zeros_like(y)
    for k in range(_DIGAMMA_SHIFT):
        total = total + y / ((x + k) ** 2 + y * y)
    w = (x + _DIGAMMA_SHIFT) + 1j * y
    u = 1.0 / (w * w)
    series = np.zeros_like(w)
    for c in reversed(_STIRLING_COEFFICIENTS):
        series = series * u + c
    return total + (np.log(w) - 0.5 / w - u * series).imag


class OhmicDephasingRate(RateModel):
    """Dephasing rate for an Ohmic reservoir, J(w) = w * exp(-w/omega_c).

    gamma(t) = integral_0^inf J(w) coth(w / (2 T)) sin(w t) / w dw. Expanding
    coth(x) = 1 + 2 sum_n exp(-2 n x) integrates term by term to the exact
    series

        gamma(t) = t / (a0^2 + t^2) - 2 T Im psi(1 + T a0 - i T t),  a0 = 1/omega_c,

    with psi the digamma function; at T = 0 only the first term remains.
    Im psi is evaluated in numpy by the recurrence psi(z) = psi(z + 1) - 1/z,
    shifting the argument by 10, and then the Stirling asymptotic series
    (`_im_digamma`). Non-negative for every (omega_c, T), so this reservoir
    never drives the dynamics non-Markovian.
    """

    __slots__ = _fields = ("omega_c", "temperature")

    def __init__(self, omega_c: float = 1.0, temperature: float = 0.0):
        self._set_fields(omega_c, temperature)
        if omega_c <= 0:
            raise ValueError(f"OhmicDephasingRate requires omega_c > 0, got {omega_c}")
        if temperature < 0:
            raise ValueError(f"OhmicDephasingRate requires temperature >= 0, got {temperature}")

    def evaluate(self, t: np.ndarray) -> np.ndarray:
        a0, temp = 1.0 / self.omega_c, self.temperature
        gamma = t / (a0 * a0 + t * t)
        if temp > 0:
            # Im psi(x - iy) = -Im psi(x + iy).
            gamma = gamma + 2.0 * temp * _im_digamma(1.0 + temp * a0, temp * t)
        return gamma


class TabulatedRate(RateModel):
    """User-supplied rate samples with linear interpolation between knots.

    Knot times must be strictly increasing. Extrapolation outside the knot
    range is refused rather than guessed. The knots are kept as a tuple of
    (float, float) pairs; the read-only arrays built from them take no part
    in equality.
    """

    __slots__ = ("knots", "_times", "_values")
    _fields = ("knots",)

    def __init__(self, knots: tuple[tuple[float, float], ...]):
        knots = tuple((float(t), float(g)) for t, g in knots)
        if len(knots) < 2:
            raise ValueError("TabulatedRate needs at least two knots")
        for t, g in knots:
            if not (math.isfinite(t) and math.isfinite(g)):
                raise ValueError(
                    f"TabulatedRate requires finite knot times and values, got knot ({t}, {g})"
                )
        times = [t for t, _ in knots]
        if any(b <= a for a, b in zip(times, times[1:])):
            raise ValueError(f"TabulatedRate knot times must be strictly increasing: {times}")
        object.__setattr__(self, "knots", knots)
        for name, column in (("_times", times), ("_values", [g for _, g in knots])):
            array = np.array(column)
            array.setflags(write=False)
            object.__setattr__(self, name, array)

    def evaluate(self, t: np.ndarray) -> np.ndarray:
        lo, hi = self._times[0], self._times[-1]
        outside = (t < lo) | (t > hi)
        if np.any(outside):
            raise ValueError(
                f"t = {float(np.min(t[outside])):.6g} is outside the tabulated range "
                f"[{lo:.6g}, {hi:.6g}]; extrapolation is not supported"
            )
        return np.interp(t, self._times, self._values)


def rate_eval(model: RateModel, t):
    """Evaluate a rate model at a time t >= 0, or elementwise over an array of times.

    A scalar time gives a float, an array of times an array of its shape. The
    scalar call evaluates a one-element array, so it matches the array call
    bit for bit. A refused time (negative, a pole, outside a table) is
    reported as the earliest such time.
    """
    times = np.asarray(t, dtype=float)
    flat = times.reshape(-1)
    negative = flat < 0
    if negative.any():
        raise ValueError(
            f"rate models are defined for t >= 0, got t = {float(np.min(flat[negative]))}"
        )
    values = np.asarray(model.evaluate(flat), dtype=float)
    return float(values[0]) if times.ndim == 0 else values.reshape(times.shape)
