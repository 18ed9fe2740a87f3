"""Time-dependent dissipation rate models.

Units are dimensionless throughout: hbar = k_B = 1, and where a model carries
a frequency constant ``k`` the physical time enters as t' = k*t. A negative
rate at some instant is the signature exploited by the detection machinery;
the models themselves just evaluate gamma(t).

Every model's ``evaluate`` takes a one-dimensional float array of times and
returns gamma at each of them; ``rate_eval`` is the checked entry point for
a single time or an array of any shape.
"""

import math
from dataclasses import dataclass

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


@dataclass(frozen=True)
class ConstantRate:
    """gamma(t) = value for all t."""

    value: float

    def evaluate(self, t: np.ndarray) -> np.ndarray:
        return np.full(t.shape, float(self.value))


@dataclass(frozen=True)
class ExpCosRate:
    """gamma(t) = exp(-t') cos(t') with t' = k*t.

    Negative on (pi/2 + 2*pi*n, 3*pi/2 + 2*pi*n) in t'.
    """

    k: float = 1.0

    def __post_init__(self):
        if self.k <= 0:
            raise ValueError(f"ExpCosRate requires k > 0, got k = {self.k}")

    def evaluate(self, t: np.ndarray) -> np.ndarray:
        tp = self.k * t
        return np.exp(-tp) * np.cos(tp)


@dataclass(frozen=True)
class LorentzianRate:
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

    lam: float
    gamma0: float
    k: float = 1.0

    def __post_init__(self):
        if self.lam <= 0 or self.gamma0 <= 0 or self.k <= 0:
            raise ValueError(
                "LorentzianRate requires lam > 0, gamma0 > 0, k > 0; got "
                f"lam = {self.lam}, gamma0 = {self.gamma0}, k = {self.k}"
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


@dataclass(frozen=True)
class OhmicDephasingRate:
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

    omega_c: float = 1.0
    temperature: float = 0.0

    def __post_init__(self):
        if self.omega_c <= 0:
            raise ValueError(f"OhmicDephasingRate requires omega_c > 0, got {self.omega_c}")
        if self.temperature < 0:
            raise ValueError(
                f"OhmicDephasingRate requires temperature >= 0, got {self.temperature}"
            )

    def evaluate(self, t: np.ndarray) -> np.ndarray:
        a0, temp = 1.0 / self.omega_c, self.temperature
        gamma = t / (a0 * a0 + t * t)
        if temp > 0:
            # Im psi(x - iy) = -Im psi(x + iy).
            gamma = gamma + 2.0 * temp * _im_digamma(1.0 + temp * a0, temp * t)
        return gamma


@dataclass(frozen=True)
class TabulatedRate:
    """User-supplied rate samples with linear interpolation between knots.

    Knot times must be strictly increasing. Extrapolation outside the knot
    range is refused rather than guessed.
    """

    knots: tuple[tuple[float, float], ...]

    def __post_init__(self):
        knots = tuple((float(t), float(g)) for t, g in self.knots)
        if len(knots) < 2:
            raise ValueError("TabulatedRate needs at least two knots")
        times = [t for t, _ in knots]
        if any(b <= a for a, b in zip(times, times[1:])):
            raise ValueError(f"TabulatedRate knot times must be strictly increasing: {times}")
        object.__setattr__(self, "knots", knots)
        object.__setattr__(self, "_times", np.array(times))
        object.__setattr__(self, "_values", np.array([g for _, g in knots]))

    def evaluate(self, t: np.ndarray) -> np.ndarray:
        lo, hi = self._times[0], self._times[-1]
        outside = (t < lo) | (t > hi)
        if np.any(outside):
            raise ValueError(
                f"t = {float(np.min(t[outside])):.6g} is outside the tabulated range "
                f"[{lo:.6g}, {hi:.6g}]; extrapolation is not supported"
            )
        return np.interp(t, self._times, self._values)


RateModel = (
    ConstantRate | ExpCosRate | LorentzianRate | OhmicDephasingRate | TabulatedRate
)


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
