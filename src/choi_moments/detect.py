"""Moment-based non-Markovianity detection and quantification.

The detector works on trace moments r_n = Tr[C^n] of the Choi state C of an
intermediate map. For any completely positive trace-preserving map the Choi
state is a density matrix and r_2^2 <= r_3 (a Hoelder/Cauchy-Schwarz chain),
so a positive witness value r_2^2 - r_3 certifies that the intermediate map is
not CP and the dynamics is not CP-divisible.

Two integrated quantifiers are provided: the moment measure, built from the
instantaneous rate f(t) = lim_{eps->0} max(0, r_2^2 - r_3)/eps of small-time
Choi states, and the divisibility-based measure built from the trace-norm rate
g(t) = lim_{eps->0} (||C||_1 - 1)/eps. For pure dephasing these reduce to
f = max(0, -gamma) and g = max(0, -2 gamma), so the integrals are related by
a factor of two; the reported ratio is always the empirically computed one.

All grid-point evaluations are pure and independent, so callers may fan them
out across threads; only series assembly is ordered.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .choi import (
    ChoiMatrix,
    SmallTimeChoiBuilder,
    DEFAULT_STEPS_PER_UNIT,
    bridge_spectra,
)
from .lindblad import LindbladGenerator, is_unital
from .spectral import hermitian_spectrum, moments_from_spectrum

__all__ = [
    "WitnessSeries",
    "MeasureReport",
    "DivisibilityReport",
    "VIOLATION_THRESHOLD",
    "DEFAULT_EPS_SCHEDULE",
    "lambda_moments",
    "moment_witness",
    "witness_series",
    "moment_rate_f",
    "rhp_rate_g",
    "measure_report",
    "moment_measure",
    "rhp_measure",
    "cp_divisibility_scan",
    "renyi_entropy",
]

# Witness values above this certify a violation. Sits well above eigensolver
# noise (~1e-14) and well below the smallest physical signal in scope (~1e-5).
VIOLATION_THRESHOLD = 1e-12
# Default epsilon schedule for the eps -> 0 rate limits.
DEFAULT_EPS_SCHEDULE = (1e-4, 5e-5)
# Relative disagreement between successive extrapolants treated as
# non-convergence (only checkable for schedules with >= 3 entries).
_EXTRAPOLATION_RTOL = 1e-4
# Minimum negative Choi eigenvalue that still counts as CP in the scan.
_SCAN_CP_TOL = 1e-10
# Measures below this are reported as exactly Markovian.
MEASURE_ZERO_THRESHOLD = 1e-10


@dataclass(frozen=True)
class WitnessSeries:
    """Witness values r_2^2 - r_3 on a time grid, with violation intervals."""

    grid: np.ndarray
    epsilon: float
    mode: str
    values: np.ndarray
    r2: np.ndarray
    r3: np.ndarray
    rates: np.ndarray  # gamma_i(t), shape (len(grid), number of dissipators)
    violations: tuple[tuple[float, float], ...]

    @property
    def is_non_markovian(self) -> bool:
        return len(self.violations) > 0


@dataclass(frozen=True)
class MeasureReport:
    """Integrated non-Markovianity quantifiers and their rate series."""

    moment_measure: float
    rhp_measure: float
    grid: np.ndarray
    f_series: np.ndarray
    g_series: np.ndarray
    eps_schedule: tuple[float, ...]

    @property
    def ratio(self) -> float:
        """Empirical rhp/moment ratio; NaN when both measures vanish."""
        if self.moment_measure < MEASURE_ZERO_THRESHOLD:
            return float("nan")
        return self.rhp_measure / self.moment_measure


@dataclass(frozen=True)
class DivisibilityReport:
    """Minimum intermediate-map Choi eigenvalue per grid time, plus verdict."""

    grid: np.ndarray
    delta: float
    min_eigenvalues: np.ndarray
    verdict: str  # "CP-divisible" | "CP-indivisible"

    @property
    def is_divisible(self) -> bool:
        return self.verdict == "CP-divisible"


def lambda_moments(c: ChoiMatrix | np.ndarray, n_max: int = 3) -> np.ndarray:
    """Trace moments [r_1, ..., r_n_max] of a Choi state; r_1 = 1 for TP maps."""
    if n_max < 3:
        raise ValueError(f"n_max must be >= 3 (the witness needs r_3), got {n_max}")
    mat = c.matrix if isinstance(c, ChoiMatrix) else c
    return moments_from_spectrum(hermitian_spectrum(mat), n_max)


def moment_witness(c: ChoiMatrix | np.ndarray) -> float:
    """Witness value r_2^2 - r_3; values above ~1e-12 certify a non-CP map."""
    r = lambda_moments(c, 3)
    return float(r[1] ** 2 - r[2])


def _violation_intervals(
    grid: np.ndarray, values: np.ndarray, threshold: float
) -> tuple[tuple[float, float], ...]:
    """Contiguous grid runs with value > threshold, as (t_start, t_end) pairs."""
    mask = values > threshold
    intervals = []
    start = None
    for i, flag in enumerate(mask):
        if flag and start is None:
            start = i
        elif not flag and start is not None:
            intervals.append((float(grid[start]), float(grid[i - 1])))
            start = None
    if start is not None:
        intervals.append((float(grid[start]), float(grid[-1])))
    return tuple(intervals)


def _validate_grid(grid) -> np.ndarray:
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size < 2:
        raise ValueError("time grid must be one-dimensional with at least 2 points")
    if np.any(np.diff(grid) <= 0):
        raise ValueError("time grid must be strictly increasing")
    if grid[0] < 0:
        raise ValueError(f"time grid must start at t >= 0, got {grid[0]}")
    return grid


def witness_series(
    gen: LindbladGenerator,
    grid,
    epsilon: float,
    mode: str = "small-time",
    steps_per_unit: int = DEFAULT_STEPS_PER_UNIT,
) -> WitnessSeries:
    """Evaluate the moment witness across a time grid.

    In "small-time" mode each point uses the first-order Choi state of the
    map acting on [t, t + epsilon]; in "finite-interval" mode it uses the
    Choi state of the bridge map Lambda(t + epsilon, t), integrated directly
    over that window.
    """
    grid = _validate_grid(grid)
    if epsilon <= 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    if mode not in ("small-time", "finite-interval"):
        raise ValueError(f"mode must be 'small-time' or 'finite-interval', got {mode!r}")

    if mode == "small-time":
        builder = SmallTimeChoiBuilder(gen)
        r2 = np.empty(grid.size)
        r3 = np.empty(grid.size)
        rates = np.empty((grid.size, len(gen.dissipators)))
        worst = 0.0
        for i, t in enumerate(grid):
            gammas = builder.rates(float(t))
            if not np.all(np.isfinite(gammas)):
                raise ValueError(f"non-finite rate at t = {t:.6g}: {gammas}")
            rates[i] = gammas
            if gammas.size:
                worst = max(worst, float(np.max(np.abs(epsilon * gammas))))
            lam = np.linalg.eigvalsh(builder.matrix(gammas, epsilon))
            r2[i] = float(np.sum(lam**2))
            r3[i] = float(np.sum(lam**3))
        if worst >= 0.1:
            warnings.warn(
                f"small-time expansion is dubious on part of the grid: "
                f"max |eps*gamma| = {worst:.3g}",
                stacklevel=2,
            )
    else:
        rates, lam = bridge_spectra(gen, grid, epsilon, steps_per_unit)
        r2 = np.sum(lam**2, axis=1)
        r3 = np.sum(lam**3, axis=1)

    values = r2**2 - r3
    return WitnessSeries(
        grid=grid,
        epsilon=float(epsilon),
        mode=mode,
        values=values,
        r2=r2,
        r3=r3,
        rates=rates,
        violations=_violation_intervals(grid, values, VIOLATION_THRESHOLD),
    )


def _validate_schedule(eps_schedule) -> tuple[float, ...]:
    schedule = tuple(float(e) for e in eps_schedule)
    if len(schedule) < 2:
        raise ValueError("epsilon schedule needs at least two entries")
    if any(e <= 0 for e in schedule):
        raise ValueError(f"epsilon schedule must be positive: {schedule}")
    if any(b >= a for a, b in zip(schedule, schedule[1:])):
        raise ValueError(f"epsilon schedule must be strictly decreasing: {schedule}")
    return schedule


def _extrapolate_rate(samples: list[float], schedule: tuple[float, ...], what: str) -> float:
    """Richardson-extrapolate eps -> 0 from first-order-in-eps samples.

    One extrapolant is formed per consecutive schedule pair; the last one is
    returned. With three or more schedule entries the last two extrapolants
    must agree to ~1e-4 relative, otherwise the limit is declared
    non-converged.
    """
    extrapolants = []
    for (e_a, h_a), (e_b, h_b) in zip(
        zip(schedule, samples), zip(schedule[1:], samples[1:])
    ):
        extrapolants.append((e_a * h_b - e_b * h_a) / (e_a - e_b))
    if len(extrapolants) >= 2:
        prev, last = extrapolants[-2], extrapolants[-1]
        scale = max(abs(last), abs(prev), 1e-9)
        if abs(last - prev) > _EXTRAPOLATION_RTOL * scale:
            raise ValueError(
                f"{what} limit did not converge: successive extrapolants "
                f"{prev:.6e} and {last:.6e} disagree beyond "
                f"{_EXTRAPOLATION_RTOL:.0e} relative; refine the epsilon schedule"
            )
    return max(0.0, extrapolants[-1])


def _rate_samples(builder: SmallTimeChoiBuilder, gammas: np.ndarray,
                  schedule: tuple[float, ...]) -> tuple[list[float], list[float]]:
    """Per-epsilon samples of the witness rate and the trace-norm rate."""
    f_samples, g_samples = [], []
    for eps in schedule:
        lam = np.linalg.eigvalsh(builder.matrix(gammas, eps))
        r2 = float(np.sum(lam**2))
        r3 = float(np.sum(lam**3))
        f_samples.append(max(0.0, r2 * r2 - r3) / eps)
        g_samples.append(max(0.0, float(np.sum(np.abs(lam))) - 1.0) / eps)
    return f_samples, g_samples


def moment_rate_f(
    gen: LindbladGenerator, t: float, eps_schedule=DEFAULT_EPS_SCHEDULE
) -> float:
    """Instantaneous moment-witness rate f(t) = lim max(0, r_2^2 - r_3)/eps.

    The clamp is applied before dividing, so instants with a CP small-time map
    contribute exactly zero. For single-dissipator dephasing this equals
    max(0, -gamma(t)).
    """
    schedule = _validate_schedule(eps_schedule)
    builder = SmallTimeChoiBuilder(gen)
    gammas = builder.rates(float(t))
    if not np.all(np.isfinite(gammas)):
        raise ValueError(f"non-finite rate at t = {t:.6g}: {gammas}")
    f_samples, _ = _rate_samples(builder, gammas, schedule)
    return _extrapolate_rate(f_samples, schedule, "moment rate")


def rhp_rate_g(
    gen: LindbladGenerator, t: float, eps_schedule=DEFAULT_EPS_SCHEDULE
) -> float:
    """Instantaneous trace-norm rate g(t) = lim (||C||_1 - 1)/eps.

    Non-negative, and zero exactly when the instantaneous map is CP. For
    single-dissipator dephasing this equals max(0, -2 gamma(t)).
    """
    schedule = _validate_schedule(eps_schedule)
    builder = SmallTimeChoiBuilder(gen)
    gammas = builder.rates(float(t))
    if not np.all(np.isfinite(gammas)):
        raise ValueError(f"non-finite rate at t = {t:.6g}: {gammas}")
    _, g_samples = _rate_samples(builder, gammas, schedule)
    return _extrapolate_rate(g_samples, schedule, "trace-norm rate")


def measure_report(
    gen: LindbladGenerator,
    t_max: float,
    grid_points: int,
    eps_schedule=DEFAULT_EPS_SCHEDULE,
) -> MeasureReport:
    """Both integrated measures over [0, t_max] with their rate series.

    Trapezoidal integration on a uniform grid. The moment measure is proven to
    be a measure only for unital dynamics, so non-unital generators are
    accepted with a warning rather than refused. A warning is also emitted
    when the rate has not decayed below 1e-8 over the last 5% of the grid
    (the truncation of the infinite-horizon integral is then suspect).
    """
    if t_max <= 0:
        raise ValueError(f"t_max must be positive, got {t_max}")
    if grid_points < 2:
        raise ValueError(f"grid_points must be >= 2, got {grid_points}")
    schedule = _validate_schedule(eps_schedule)
    grid = np.linspace(0.0, t_max, grid_points)

    if not all(is_unital(gen, float(t)) for t in np.linspace(0.0, t_max, 7)):
        warnings.warn(
            "generator is not unital: the moment measure is only proven to be "
            "a measure for unital dynamics; interpret the value with care",
            stacklevel=2,
        )

    builder = SmallTimeChoiBuilder(gen)
    f_series = np.empty(grid.size)
    g_series = np.empty(grid.size)
    for i, t in enumerate(grid):
        gammas = builder.rates(float(t))
        if not np.all(np.isfinite(gammas)):
            raise ValueError(f"non-finite rate at t = {t:.6g}: {gammas}")
        f_samples, g_samples = _rate_samples(builder, gammas, schedule)
        f_series[i] = _extrapolate_rate(f_samples, schedule, f"moment rate at t = {t:.6g}")
        g_series[i] = _extrapolate_rate(g_samples, schedule, f"trace-norm rate at t = {t:.6g}")

    tail = grid >= 0.95 * t_max
    tail_peak = float(np.max(f_series[tail]))
    if tail_peak > 1e-8:
        warnings.warn(
            f"moment rate is still {tail_peak:.3e} over the last 5% of the grid; "
            "increase t_max to trust the truncated integral",
            stacklevel=2,
        )

    return MeasureReport(
        moment_measure=float(np.trapezoid(f_series, grid)),
        rhp_measure=float(np.trapezoid(g_series, grid)),
        grid=grid,
        f_series=f_series,
        g_series=g_series,
        eps_schedule=schedule,
    )


def moment_measure(
    gen: LindbladGenerator, t_max: float, grid_points: int,
    eps_schedule=DEFAULT_EPS_SCHEDULE,
) -> float:
    """Integral of the moment rate f over [0, t_max]; zero for Markovian dynamics."""
    return measure_report(gen, t_max, grid_points, eps_schedule).moment_measure


def rhp_measure(
    gen: LindbladGenerator, t_max: float, grid_points: int,
    eps_schedule=DEFAULT_EPS_SCHEDULE,
) -> float:
    """Integral of the trace-norm rate g over [0, t_max]."""
    return measure_report(gen, t_max, grid_points, eps_schedule).rhp_measure


def cp_divisibility_scan(
    gen: LindbladGenerator,
    grid,
    delta: float,
    steps_per_unit: int = DEFAULT_STEPS_PER_UNIT,
) -> DivisibilityReport:
    """Minimum Choi eigenvalue of the bridge map on [t, t + delta] per grid time.

    The verdict is "CP-indivisible" as soon as any bridge map has an
    eigenvalue below -1e-10. Wherever the moment witness is positive the
    minimum eigenvalue here must be negative; the converse need not hold (the
    witness is a sufficient, not necessary, violation criterion).
    """
    grid = _validate_grid(grid)
    if delta <= 0:
        raise ValueError(f"delta must be positive, got {delta}")
    _, lam = bridge_spectra(gen, grid, delta, steps_per_unit)
    min_eigs = lam[:, -1].copy()
    verdict = "CP-indivisible" if np.any(min_eigs < -_SCAN_CP_TOL) else "CP-divisible"
    return DivisibilityReport(grid=grid, delta=float(delta),
                              min_eigenvalues=min_eigs, verdict=verdict)


def renyi_entropy(rho: np.ndarray, alpha: float) -> float:
    """Order-alpha Renyi entropy log2(Tr[rho^alpha]) / (1 - alpha).

    Defined here for alpha > 0, alpha != 1 (the von Neumann limit is out of
    scope). The state must be PSD; eigenvalues below zero by more than 1e-10
    are refused, tinier negatives are clipped.
    """
    if alpha <= 0:
        raise ValueError(f"Renyi order must be positive, got alpha = {alpha}")
    if alpha == 1:
        raise ValueError("alpha = 1 is the von Neumann limit and is not supported")
    lam = hermitian_spectrum(rho)
    if lam[-1] < -1e-10:
        raise ValueError(f"state is not PSD: minimum eigenvalue {lam[-1]:.3e}")
    lam = np.clip(lam, 0.0, None)
    return float(math.log2(float(np.sum(lam**alpha))) / (1.0 - alpha))
