"""Moment-based non-Markovianity detection and quantification.

The detector works on trace moments r_n = Tr[C^n] of the Choi state C of an
intermediate map. For any completely positive trace-preserving map the Choi
state is a density matrix and r_2^2 <= r_3 (a Hoelder/Cauchy-Schwarz chain),
so a positive witness value r_2^2 - r_3 certifies that the intermediate map is
not CP and the dynamics is not CP-divisible. The small-time map on
[t, t + eps] takes the Hamiltonian H exactly and the dissipator to first
order, so its Choi state is a local unitary conjugation of bell + eps X_D,
with X_D the Choi image of the dissipator alone: H changes no moment, and a
Markovian generator reads no violation however strong its H. The moments
are polynomials in eps, so the small-time witness is evaluated in closed
form with no eigensolve, from trace tables the generator holds
(`LindbladGenerator.small_time_moments`); on a finite-interval bridge map
it comes from the bridge's Choi moments (`choi.bridge_moments`). The
small-time expansion's step eps passes the guard that every RK4 step of a
bridge passes too (`choi.guard_step`, the one home of the 0.1 limit on
|step * gamma|).
`lambda_moments` and `moment_witness` take a Choi matrix the caller
supplies, such as a tomographic estimate.

Two integrated quantifiers are provided: the moment measure, built from the
instantaneous rate f(t) = lim_{eps->0} max(0, r_2^2 - r_3)/eps of small-time
Choi states, and the divisibility-based measure built from the trace-norm rate
g(t) = lim_{eps->0} (||C||_1 - 1)/eps. Both limits are evaluated in closed
form from the Choi image X_D(t) of the dissipator (`_rate_limits`), as two
sums over one off-Bell spectrum with one noise rule, read off the
generator's tables, which come from one Gram matrix of its jump operators:
at most K eigenvalues for K jump operators
(`LindbladGenerator.projected_spectra`), none for mutually trace-orthogonal
ones such as distinct Pauli operators. So f <= g/2 at every time and
I >= 2M, bit for bit. For pure dephasing they reduce to f = max(0, -gamma)
and g = max(0, -2 gamma), so the integrals are related by a factor of two
exactly; the reported ratio is always the empirically computed one.

All grid-point evaluations are pure and independent, so callers may fan them
out across threads; only series assembly is ordered.
"""

from typing import NamedTuple

import numpy as np

from .choi import bridge_moments, guard_step, warn_caller
from .lindblad import (
    LindbladGenerator,
    rates_at,
    require_count,
    require_hermitian,
    require_positive,
)

__all__ = [
    "WitnessSeries",
    "MeasureReport",
    "DivisibilityReport",
    "VIOLATION_THRESHOLD",
    "lambda_moments",
    "moment_witness",
    "witness_series",
    "measure_report",
    "cp_divisibility_scan",
    "assess",
]

# Witness values above this certify a violation. Sits well above eigensolver
# noise (~1e-14) and well below the smallest physical signal in scope (~1e-5).
VIOLATION_THRESHOLD = 1e-12
# Relative size, against the Frobenius norm of the dissipator's Choi image,
# below which a rate-limit term is rounding noise and counts as zero.
_RATE_NOISE = 1e-12
# Minimum negative Choi eigenvalue that still counts as CP in the scan.
_SCAN_CP_TOL = 1e-10
# Measures below this are reported as exactly Markovian.
MEASURE_ZERO_THRESHOLD = 1e-10


class WitnessSeries(NamedTuple):
    """Witness values r_2^2 - r_3 on a time grid, with violation intervals."""

    grid: np.ndarray
    epsilon: float
    mode: str
    values: np.ndarray
    r2: np.ndarray
    r3: np.ndarray
    # gamma_i(t), shape (len(grid), number of dissipators): the layout of the
    # witness CSV's columns, and the one place rates are not rows (K, n).
    rates: np.ndarray
    violations: tuple[tuple[float, float], ...]

    @property
    def is_non_markovian(self) -> bool:
        return len(self.violations) > 0


class MeasureReport(NamedTuple):
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


class DivisibilityReport(NamedTuple):
    """Minimum intermediate-map Choi eigenvalue per grid time, plus verdict."""

    grid: np.ndarray
    delta: float
    min_eigenvalues: np.ndarray
    verdict: str  # "CP-divisible" | "CP-indivisible"

    @property
    def is_divisible(self) -> bool:
        return self.verdict == "CP-divisible"


def lambda_moments(c: np.ndarray, n_max: int = 3) -> np.ndarray:
    """Trace moments [r_1, ..., r_n_max] of a Choi matrix; r_1 = 1 for TP maps.

    Each moment sums the eigenvalues' powers in the order `eigvalsh` gives.
    n_max is an integer >= 3, because the witness needs r_3. A matrix that
    is empty, not 2-D and square, not Hermitian within 1e-12 or not finite
    is refused with a ValueError.
    """
    n_max = require_count("n_max", n_max, 3)
    if np.ndim(c) != 2 or np.size(c) == 0:
        raise ValueError(f"expected a non-empty square matrix, got shape {np.shape(c)}")
    lam = np.linalg.eigvalsh(require_hermitian(c))
    return np.array([np.sum(lam ** n) for n in range(1, n_max + 1)])


def moment_witness(c: np.ndarray) -> float:
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
    if not np.isfinite(grid).all():
        raise ValueError("time grid must be finite")
    if (grid[1:] <= grid[:-1]).any():
        raise ValueError("time grid must be strictly increasing")
    if grid[0] < 0:
        raise ValueError(f"time grid must start at t >= 0, got {grid[0]}")
    return grid


def _witness_args(grid, epsilon: float, mode: str) -> np.ndarray:
    grid = _validate_grid(grid)
    require_positive("epsilon", epsilon)
    if mode not in ("small-time", "finite-interval"):
        raise ValueError(f"mode must be 'small-time' or 'finite-interval', got {mode!r}")
    return grid


def _witness(gen: LindbladGenerator, grid: np.ndarray, epsilon: float, rows: np.ndarray,
             table: np.ndarray | None = None) -> WitnessSeries:
    """The witness series on a checked grid, with the rates on it as rows
    (K, n): small-time from the rates, or, given it, finite-interval from
    the bridges' table (3, n) of `bridge_moments`."""
    if table is None:
        guard_step(epsilon, rows, grid, "small-time expansion is dubious on part of the "
                                        "grid: max |eps*gamma| = {:.3g} at t = {:.6g}")
        r2, r3, values = gen.small_time_moments(rows, epsilon)
    else:
        r2, r3, values = table[1].copy(), table[2].copy(), table[1]**2 - table[2]

    mode = "small-time" if table is None else "finite-interval"
    return WitnessSeries(grid=grid, epsilon=float(epsilon), mode=mode, values=values, r2=r2,
                         r3=r3, rates=rows.T,
                         violations=_violation_intervals(grid, values, VIOLATION_THRESHOLD))


def witness_series(gen: LindbladGenerator, grid, epsilon: float, mode: str = "small-time"
                   ) -> WitnessSeries:
    """Evaluate the moment witness across a time grid.

    In "small-time" mode each point uses the first-order Choi state of the
    map acting on [t, t + epsilon]; in "finite-interval" mode it uses the
    Choi state of the bridge map Lambda(t + epsilon, t), integrated directly
    over that window with `choi.DEFAULT_STEPS_PER_UNIT` RK4 steps per unit
    time.
    """
    grid = _witness_args(grid, epsilon, mode)
    if mode == "small-time":
        return _witness(gen, grid, epsilon, rates_at(gen, grid))
    return _witness(gen, grid, epsilon, *bridge_moments(gen, grid, epsilon))


def _rate_limits(gen: LindbladGenerator, gammas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The rates f and g (n,) at n times, in closed form, from the dissipator
    rates gamma_i there as rows (K, n), one per jump operator.

    The Hamiltonian's part of the small-time map is a local unitary
    conjugation of its Choi state, so it changes no moment and no
    eigenvalue: both limits read only X_D = sum_i gamma_i B_i, the Choi
    image of the dissipator, over its blocks B_i (never formed). Off the
    Bell direction the eigenvalues of C = bell + eps X_D are eps mu_j +
    O(eps^2), with mu_j the eigenvalues of Q X_D Q and Q = I - bell, so
    g = 2 sum_j max(0, -mu_j) (Rivas, Huelga and Plenio, PRL 105, 050403,
    2010). r_2^2 - r_3 = eps <Phi+|X_D|Phi+> + O(eps^2), and Tr X_D = 0
    gives <Phi+|X_D|Phi+> = -Tr(Q X_D Q), so f = max(0, -sum_j mu_j), the
    leading coefficient of the small-time witness. The Hamiltonian part is
    traceless and dissipator k at unit rate has Tr S_k = d^2 <Phi+|B_k|Phi+>,
    so Tr L_t = -d^2 sum_j mu_j and, up to the noise rule below,
    f = max(0, Tr L_t)/d^2, the growth rate of ln|det Phi(t, 0)| over d^2,
    for any generator. Q X_D Q =
    V diag(gamma) V^dag over the centred vectors Q v_i/sqrt(d), whose Gram
    matrix G^c is the leading block of the generator's Gram matrix
    (`small_time_tables`), so its nonzero mu_j, at most K of them, follow
    one rule (`LindbladGenerator.projected_spectra`): gamma_k G^c_kk when
    the jump operators are pairwise orthogonal
    (|G^c_ij| <= 1e-14 sqrt(G^c_ii G^c_jj) counts as orthogonal), and
    otherwise the eigenvalues of R diag(gamma) R^dag over all of them,
    V = W R; the zero ones add nothing to either sum.

    One noise rule serves both: a mu_j within 1e-12 of the size of X_D,
    sum_k |gamma_k| ||B_k||_F (the `dissipator_scales` of the generator's
    `small_time_tables`, read off its Tr(B_k^2) table with no pass over
    entries), is rounding noise. With N the sum of the mu_j below minus
    that floor and P the sum of the positive ones, g = -2N and
    f = max(0, -(N + P)). P >= 0 and rounding is monotone, so f <= g/2
    holds bit for bit, and the trapezoid's positive weights carry it to
    2M <= I. Markovian generators give exactly f = g = 0, and a strong
    Hamiltonian neither scales the noise floor nor erases a weak negative
    rate. The noise floor and both sums are each a product or a reduction
    across the rows of rates and of mu (m, n), with no transposed copy.
    """
    tables = gen.small_time_tables
    noise = _RATE_NOISE * np.maximum(1.0, tables.dissipator_scales @ np.abs(gammas))
    mu = gen.projected_spectra(gammas)
    negative = np.where(mu < -noise, mu, 0.0).sum(0)
    positive = np.maximum(mu, 0.0).sum(0)
    # 0.0 - x rather than -x: a sum of zeros gives 0.0, never -0.0.
    return np.maximum(0.0 - (negative + positive), 0.0), 0.0 - 2.0 * negative


def measure_report(gen: LindbladGenerator, t_max: float, grid_points: int) -> MeasureReport:
    """Both integrated measures over [0, t_max] with their rate series.

    Trapezoidal integration (np.trapezoid) on a uniform grid of
    grid_points >= 2 points. A warning, naming the series, is emitted when
    f or g has not decayed below 1e-8 over the last 5% of the grid (the
    truncation of the infinite-horizon integral is then suspect). t_max
    must be positive and finite.

    The paper states the moment measure for unital dynamics; it needs no
    unitality here. f = max(0, Tr L_t)/d^2 (`_rate_limits`), so M is the
    regained log-volume of the reachable states,
    (1/d^2) int max(0, d/dt ln|det Phi(t, 0)|) dt, for every generator.
    M = 0 whenever every canonical rate is non-negative, and M > 0
    certifies a negative one.
    """
    require_positive("t_max", t_max)
    grid = np.linspace(0.0, t_max, require_count("grid_points", grid_points, 2))
    return _measures(gen, grid, rates_at(gen, grid))


def _measures(gen: LindbladGenerator, grid: np.ndarray, gammas: np.ndarray) -> MeasureReport:
    """`measure_report` over the span of a checked grid, from the rates on it
    as rows (K, n)."""
    f_series, g_series = _rate_limits(gen, gammas)

    # The first point of the last 5% of the grid's span.
    tail = np.searchsorted(grid, grid[0] + 0.95 * (grid[-1] - grid[0]))
    peaks = (("moment rate f", np.max(f_series[tail:])),
             ("trace-norm rate g", np.max(g_series[tail:])))
    undecayed = [f"{name} is still {peak:.3e}" for name, peak in peaks if peak > 1e-8]
    if undecayed:
        warn_caller(
            f"{' and '.join(undecayed)} over the last 5% of the grid; "
            "increase t_max to trust the truncated integral"
        )

    moment, rhp = (float(np.trapezoid(s, grid)) for s in (f_series, g_series))
    return MeasureReport(moment_measure=moment, rhp_measure=rhp, grid=grid,
                         f_series=f_series, g_series=g_series)


def cp_divisibility_scan(gen: LindbladGenerator, grid, delta: float) -> DivisibilityReport:
    """Minimum Choi eigenvalue of the bridge map on [t, t + delta] per grid time.

    The verdict is "CP-indivisible" as soon as any bridge map has an
    eigenvalue below -1e-10 or a witness r_2^2 - r_3 above VIOLATION_THRESHOLD
    (r_2^2 <= r_3 for every state), so it flags every window on which the
    finite-interval witness fires; the witness is sufficient, not necessary.
    """
    grid = _validate_grid(grid)
    return _scan(grid, delta, bridge_moments(gen, grid, delta)[1])


def _scan(grid: np.ndarray, delta: float, table: np.ndarray) -> DivisibilityReport:
    """The scan of a checked grid from its bridges' `bridge_moments` table."""
    min_eigs, r2, r3 = table
    flagged = (np.any(min_eigs < -_SCAN_CP_TOL) or np.any(r2**2 - r3 > VIOLATION_THRESHOLD))
    verdict = "CP-indivisible" if flagged else "CP-divisible"
    return DivisibilityReport(grid=grid, delta=float(delta),
                              min_eigenvalues=min_eigs.copy(), verdict=verdict)


def assess(gen: LindbladGenerator, grid, epsilon: float, mode: str = "small-time",
           scan: bool = False) -> tuple[WitnessSeries, MeasureReport, DivisibilityReport | None]:
    """The witness series, both measures and, if scan is set, the scan with
    delta = epsilon, as `witness_series`, `measure_report` (over the grid's
    span, so equal for np.linspace(0, t_max, n)) and `cp_divisibility_scan`
    return them, from one evaluation of the rates on the grid and, in
    finite-interval mode or for the scan, one bridge sweep. A sweep
    evaluates the rates at its windows' starts, the grid, bit for bit as
    on the grid alone, so a sweeping run reads its rows off the sweep.
    """
    grid = _witness_args(grid, epsilon, mode)
    if mode == "small-time" and not scan:
        rows, table = rates_at(gen, grid), None
    else:
        rows, table = bridge_moments(gen, grid, epsilon)
    series = _witness(gen, grid, epsilon, rows, None if mode == "small-time" else table)
    measures = _measures(gen, grid, rows)
    return series, measures, _scan(grid, epsilon, table) if scan else None
