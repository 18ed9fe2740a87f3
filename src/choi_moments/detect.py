"""Moment-based non-Markovianity detection and quantification.

The detector works on trace moments r_n = Tr[C^n] of the Choi state C of an
intermediate map. For any completely positive trace-preserving map the Choi
state is a density matrix and r_2^2 <= r_3 (a Hoelder/Cauchy-Schwarz chain),
so a positive witness value r_2^2 - r_3 certifies that the intermediate map is
not CP and the dynamics is not CP-divisible. On the first-order small-time
Choi state C = bell + eps X the moments are polynomials in eps, so the
small-time witness is evaluated in closed form with no eigensolve; on a
finite-interval bridge map it comes from the bridge's Choi spectrum.

Two integrated quantifiers are provided: the moment measure, built from the
instantaneous rate f(t) = lim_{eps->0} max(0, r_2^2 - r_3)/eps of small-time
Choi states, and the divisibility-based measure built from the trace-norm rate
g(t) = lim_{eps->0} (||C||_1 - 1)/eps. Both limits are evaluated in closed
form from the Choi image X(t) of the generator: f is a linear form in the
rates, and g needs only the spectrum of a rate-weighted Gram matrix of the K
jump operators, at most min(K, d^2) square. For pure dephasing they reduce
to f = max(0, -gamma) and g = max(0, -2 gamma), so the integrals are related
by a factor of two; the reported ratio is always the empirically computed one.

All grid-point evaluations are pure and independent, so callers may fan them
out across threads; only series assembly is ordered.
"""

import math
from dataclasses import dataclass

import numpy as np

from .choi import (
    ChoiMatrix,
    SmallTimeChoiBuilder,
    DEFAULT_STEPS_PER_UNIT,
    SMALL_TIME_RATE_LIMIT,
    bridge_spectra,
    warn_caller,
)
from .lindblad import UNITAL_ATOL, LindbladGenerator, coefficients, unitality_defects
from .spectral import hermitian_spectrum, moments_from_spectrum

__all__ = [
    "WitnessSeries",
    "MeasureReport",
    "DivisibilityReport",
    "VIOLATION_THRESHOLD",
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
# Relative size, against the entries of the generator's Choi image, below
# which a rate-limit term is rounding noise and counts as zero.
_RATE_NOISE = 1e-12
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

    @property
    def ratio(self) -> float:
        """Empirical rhp/moment ratio; NaN when the moment measure vanishes,
        whether or not the rhp measure does."""
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
    mask = np.concatenate(([False], values > threshold, [False]))
    # A run of the unpadded mask starts at a rising edge and ends one point
    # before the falling edge that follows it.
    edges = np.flatnonzero(np.diff(mask))
    return tuple(zip(grid[edges[::2]].tolist(), grid[edges[1::2] - 1].tolist()))


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
        rates = builder.rates(grid)
        worst = float(np.max(np.abs(epsilon * rates))) if rates.size else 0.0
        if worst >= SMALL_TIME_RATE_LIMIT:
            warn_caller(
                f"small-time expansion is dubious on part of the grid: "
                f"max |eps*gamma| = {worst:.3g}"
            )
        r2, r3, values = builder.moments(rates, epsilon)
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


def _rate_limits(gen: LindbladGenerator, times) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The dissipator rates gamma_i (n, K) and the rates f and g (n,) at each
    time, f and g in closed form.

    With C = bell + eps X and X = B_0 + sum_i gamma_i B_i the Choi image of
    the generator, r_2^2 - r_3 = eps <Phi+|X|Phi+> + O(eps^2), so
    f = max(0, <Phi+|X|Phi+>), the leading coefficient of the small-time
    witness: a linear form in the rates over the builder's <Phi+|B_k|Phi+>.
    Off the Bell direction the eigenvalues of C are eps mu_j + O(eps^2),
    with mu_j the eigenvalues of Q X Q and Q = I - bell, so
    g = 2 sum_j max(0, -mu_j) (Rivas, Huelga and Plenio, PRL 105, 050403,
    2010). Q X Q = V diag(gamma) V^dag carries no Hamiltonian term, so its
    nonzero mu_j are those of the min(K, d^2)-square R diag(gamma) R^dag
    (`SmallTimeChoiBuilder.projected_spectra`); the zero ones add nothing
    to g. Terms within 1e-12 of the size of X's entries are rounding noise
    and count as zero, so Markovian generators give exactly f = g = 0.
    """
    builder = SmallTimeChoiBuilder(gen)
    gammas = builder.rates(times)
    coef = coefficients(gammas)
    noise = _RATE_NOISE * np.maximum(
        1.0, np.abs(coef) @ np.max(np.abs(builder.blocks), axis=(1, 2)))
    f = coef @ builder.bell_overlaps
    f = np.where(f > noise, f, 0.0)
    mu = builder.projected_spectra(gammas)
    g = 2.0 * np.sum(np.where(mu < -noise[:, None], -mu, 0.0), axis=1)
    return gammas, f, g


def moment_rate_f(gen: LindbladGenerator, t: float) -> float:
    """Instantaneous moment-witness rate f(t) = lim max(0, r_2^2 - r_3)/eps.

    The clamp is applied before dividing, so instants with a CP small-time map
    contribute exactly zero. For single-dissipator dephasing this equals
    max(0, -gamma(t)).
    """
    return float(_rate_limits(gen, [float(t)])[1][0])


def rhp_rate_g(gen: LindbladGenerator, t: float) -> float:
    """Instantaneous trace-norm rate g(t) = lim (||C||_1 - 1)/eps.

    Non-negative, and zero exactly when the instantaneous map is CP. For
    single-dissipator dephasing this equals max(0, -2 gamma(t)).
    """
    return float(_rate_limits(gen, [float(t)])[2][0])


def measure_report(gen: LindbladGenerator, t_max: float, grid_points: int) -> MeasureReport:
    """Both integrated measures over [0, t_max] with their rate series.

    Trapezoidal integration on a uniform grid. The moment measure is proven to
    be a measure only for unital dynamics, so a generator that is not unital
    at some grid point is accepted with a warning rather than refused. A
    warning is also emitted when the rate has not decayed below 1e-8 over
    the last 5% of the grid (the truncation of the infinite-horizon integral
    is then suspect).
    """
    if t_max <= 0:
        raise ValueError(f"t_max must be positive, got {t_max}")
    if grid_points < 2:
        raise ValueError(f"grid_points must be >= 2, got {grid_points}")
    grid = np.linspace(0.0, t_max, grid_points)
    gammas, f_series, g_series = _rate_limits(gen, grid)

    if np.any(unitality_defects(gen, gammas) >= UNITAL_ATOL):
        warn_caller(
            "generator is not unital: the moment measure is only proven to be "
            "a measure for unital dynamics; interpret the value with care"
        )

    tail = grid >= 0.95 * t_max
    tail_peak = float(np.max(f_series[tail]))
    if tail_peak > 1e-8:
        warn_caller(
            f"moment rate is still {tail_peak:.3e} over the last 5% of the grid; "
            "increase t_max to trust the truncated integral"
        )

    return MeasureReport(
        moment_measure=float(np.trapezoid(f_series, grid)),
        rhp_measure=float(np.trapezoid(g_series, grid)),
        grid=grid,
        f_series=f_series,
        g_series=g_series,
    )


def moment_measure(gen: LindbladGenerator, t_max: float, grid_points: int) -> float:
    """Integral of the moment rate f over [0, t_max]; zero for Markovian dynamics."""
    return measure_report(gen, t_max, grid_points).moment_measure


def rhp_measure(gen: LindbladGenerator, t_max: float, grid_points: int) -> float:
    """Integral of the trace-norm rate g over [0, t_max]."""
    return measure_report(gen, t_max, grid_points).rhp_measure


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
