"""Independent oracles and the correctness checks built on them.

Nothing here calls the program under test. The rates are re-derived from
their defining formulas (the Ohmic rate from its exact digamma series, the
Lorentzian rate through one complex-branch formula), the small-time Choi
spectrum of a Pauli-channel qubit is written down in closed form, and
finite-interval bridge maps are integrated by a fourth-order Magnus step and
a matrix exponential instead of RK4.

Each check returns a list of problems; an empty list means the output is
correct. Tolerances:

* RTOL = 1e-4 relative: twenty times the 5e-6 shift that the exact
  first-order rate limits are documented to move today's extrapolated f/g,
  and far below any error of a wrong formula (a lost factor, sign or term).
* At grid points where the small-time expansion parameter eps*sum|gamma|
  is not small (near a Lorentzian pole), first-order quantities carry a
  relative remainder of that order squared, so the tolerance there is
  max(RTOL, (eps*sum|gamma|)^2). The same rule, with the window delta,
  applies to bridge maps.
"""

import math

import numpy as np

RTOL = 1e-4
ATOL = 1e-12
# Relative to max(1, |gamma|). The Ohmic rate is a quadrature that the
# program accepts up to a 1e-6 error estimate.
RATE_TOL = 1e-6
VIOLATION_THRESHOLD = 1e-12


# --------------------------------------------------------------------- rates

def rate_values(spec, t) -> np.ndarray:
    """gamma_i(t) for every dissipator, shape (len(t), k)."""
    t = np.asarray(t, dtype=float)
    return np.stack([_rate(r, t) for r in spec.rates], axis=-1)


def _rate(rate: dict, t: np.ndarray) -> np.ndarray:
    model = rate["model"]
    if model == "constant":
        return np.full(t.shape, float(rate["value"]))
    if model == "expcos":
        tp = rate["k"] * t
        return np.exp(-tp) * np.cos(tp)
    if model == "lorentzian":
        lam, g0 = rate["lambda"], rate["gamma0"]
        g = np.sqrt(complex(lam * lam - 2.0 * g0 * lam))
        x = 0.5 * rate["k"] * t * g
        return (2.0 * lam * g0 * np.sinh(x) / (g * np.cosh(x) + lam * np.sinh(x))).real
    if model == "ohmic":
        from scipy.special import psi

        # coth(x) = 1 + 2 sum_n exp(-2nx) turns the integral into a digamma series.
        a0, temp = 1.0 / rate["omega_c"], rate["temperature"]
        out = t / (a0 * a0 + t * t)
        if temp > 0:
            out = out - 2.0 * temp * psi(1.0 + temp * a0 - 1j * temp * t).imag
        return out
    if model == "tabulated":
        times, values = zip(*rate["knots"])
        return np.interp(t, times, values)
    raise ValueError(f"no oracle for rate model {model!r}")


def window_integrals(spec, t: np.ndarray, delta: float) -> tuple[np.ndarray, np.ndarray]:
    """int_t^{t+delta} gamma_i by 8-point Gauss-Legendre, and max |sum gamma| seen."""
    x, w = np.polynomial.legendre.leggauss(8)
    nodes = t[:, None] + 0.5 * delta * (1.0 + x)[None, :]
    g = rate_values(spec, nodes)  # (n, 8, k)
    integrals = 0.5 * delta * np.einsum("j,njk->nk", w, g)
    return integrals, np.max(np.abs(g).sum(axis=-1), axis=1)


# ------------------------------------------------------- Pauli-channel qubits

def pauli_rates(spec, gammas: np.ndarray) -> np.ndarray:
    """Per-Pauli rates (x, y, z) of a Pauli-channel qubit, shape (n, 3)."""
    out = np.zeros(gammas.shape[:-1] + (3,))
    for i, op in enumerate(spec.operators):
        out[..., "xyz".index(op[-1])] += gammas[..., i]
    return out


def small_time_spectrum(spec, gammas: np.ndarray, eps: float) -> np.ndarray:
    """Choi spectrum of the map I + eps*L(t) of a Pauli-channel qubit:
    (1 - eps sum gamma, eps gamma_x, eps gamma_y, eps gamma_z)."""
    x = eps * pauli_rates(spec, gammas)
    return np.concatenate([1.0 - x.sum(axis=-1, keepdims=True), x], axis=-1)


def moments(lam: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    r2 = np.sum(lam**2, axis=-1)
    r3 = np.sum(lam**3, axis=-1)
    return r2, r3, r2 * r2 - r3


def pauli_bridge_min_eig(spec, t: np.ndarray, delta: float) -> tuple[np.ndarray, np.ndarray]:
    """Minimum Choi eigenvalue of the exact Pauli-channel bridge on [t, t + delta].

    Pauli dissipators commute, so the bridge is the Pauli channel whose Bloch
    component j shrinks by exp(-2 sum_{k != j} Gamma_k). Also returns the
    relative tolerance for each window.
    """
    integrals, peak = window_integrals(spec, t, delta)
    big = pauli_rates(spec, integrals)
    lam = np.exp(-2.0 * (big.sum(axis=-1, keepdims=True) - big))
    l1, l2, l3 = lam[:, 0], lam[:, 1], lam[:, 2]
    p = np.stack([1 + l1 + l2 + l3, 1 + l1 - l2 - l3, 1 - l1 + l2 - l3, 1 - l1 - l2 + l3]) / 4
    return p.min(axis=0), np.maximum(RTOL, (delta * peak) ** 2)


# --------------------------------------------------------- general generators

def superoperator(spec, gammas: np.ndarray) -> np.ndarray:
    """Row-major vectorised generator: vec(A X B) = (A kron B^T) vec(X)."""
    d = spec.dim
    eye = np.eye(d)
    h = spec.hamiltonian
    out = -1j * (np.kron(h, eye) - np.kron(eye, h.T))
    for a, g in zip(spec.jumps, gammas):
        ada = a.conj().T @ a
        out = out + g * (np.kron(a, a.conj()) - 0.5 * (np.kron(ada, eye) + np.kron(eye, ada.T)))
    return out


def magnus_bridge_spectrum(spec, t: float, delta: float) -> np.ndarray:
    """Choi spectrum of the bridge map on [t, t + delta], fourth-order Magnus."""
    from scipy.linalg import expm

    c = math.sqrt(3.0) / 6.0
    nodes = np.array([t + (0.5 - c) * delta, t + (0.5 + c) * delta])
    a1, a2 = (superoperator(spec, g) for g in rate_values(spec, nodes))
    omega = 0.5 * delta * (a1 + a2) + (math.sqrt(3.0) / 12.0) * delta**2 * (a2 @ a1 - a1 @ a2)
    phi = expm(omega)
    d = spec.dim
    choi = phi.reshape(d, d, d, d).transpose(2, 0, 3, 1).reshape(d * d, d * d) / d
    return np.linalg.eigvalsh(0.5 * (choi + choi.conj().T))


# -------------------------------------------------------------------- checks

def close(name: str, got, want, rtol, atol=ATOL) -> list[str]:
    """Elementwise |got - want| <= rtol*|want| + atol, reporting the worst point."""
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    if got.shape != want.shape:
        return [f"{name}: shape {got.shape} != expected {want.shape}"]
    excess = np.abs(got - want) - (rtol * np.abs(want) + atol)
    if np.all(excess <= 0):
        return []
    i = int(np.argmax(excess))
    return [f"{name}: {float(got.flat[i])!r} != expected {float(want.flat[i])!r} at index {i}"]


def intervals(grid: np.ndarray, mask: np.ndarray) -> list[tuple[float, float]]:
    """Contiguous runs of True in mask, as (t_start, t_end)."""
    out, start = [], None
    for i, flag in enumerate(mask):
        if flag and start is None:
            start = i
        elif not flag and start is not None:
            out.append((float(grid[start]), float(grid[i - 1])))
            start = None
    if start is not None:
        out.append((float(grid[start]), float(grid[-1])))
    return out


def check_violations(grid, witness_oracle, got) -> list[str]:
    """Violation intervals must be those of the oracle witness.

    Points whose oracle value lies within 1e-13 of the threshold may go
    either way.
    """
    got = [tuple(map(float, pair)) for pair in got]
    strict = intervals(grid, witness_oracle > VIOLATION_THRESHOLD + 1e-13)
    loose = intervals(grid, witness_oracle > VIOLATION_THRESHOLD - 1e-13)
    if got in (strict, loose):
        return []
    return [f"violation intervals {got[:3]}... != expected {strict[:3]}..."]


class SmallTimeOracle:
    """Expected small-time witness and measure series of a Pauli-channel qubit."""

    def __init__(self, spec):
        self.spec = spec
        self.grid = spec.grid
        self.gammas = rate_values(spec, self.grid)
        lam = small_time_spectrum(spec, self.gammas, spec.epsilon)
        self.r2, self.r3, self.witness = moments(lam)
        p = pauli_rates(spec, self.gammas)
        self.f = np.maximum(0.0, -p.sum(axis=-1))
        self.g = 2.0 * np.maximum(0.0, -p).sum(axis=-1)
        self.tau = np.maximum(RTOL, (spec.epsilon * np.abs(self.gammas).sum(axis=-1)) ** 2)
        self.moment_measure = float(np.trapezoid(self.f, self.grid))
        self.rhp_measure = float(np.trapezoid(self.g, self.grid))

    def measure_tol(self, series: np.ndarray) -> float:
        return float(np.trapezoid(self.tau * np.abs(series), self.grid)) + ATOL

    def check_witness(self, gammas, r2, r3, witness, violations) -> list[str]:
        """Rates against the oracle rates; moments against the closed form at the
        reported rates, so that the Choi and eigensolve layers are held to
        rounding error whatever the rate quadrature's error."""
        problems = close("gamma", gammas, self.gammas, RATE_TOL, RATE_TOL)
        spectrum = small_time_spectrum(self.spec, gammas, self.spec.epsilon)
        want_r2, want_r3, want_w = moments(spectrum)
        return (problems
                + close("r2", r2, want_r2, 0.0, 1e-12)
                + close("r3", r3, want_r3, 0.0, 1e-12)
                + close("witness", witness, want_w, RTOL, 1e-12)
                + check_violations(self.grid, want_w, violations))

    def check_measures(self, f, g, moment_measure, rhp_measure) -> list[str]:
        problems = (close("f", f, self.f, self.tau, 1e-9)
                    + close("g", g, self.g, self.tau, 1e-9))
        for name, got, want, series in (("M", moment_measure, self.moment_measure, self.f),
                                        ("I", rhp_measure, self.rhp_measure, self.g)):
            if abs(got - want) > self.measure_tol(series):
                problems.append(f"{name} = {got!r} != expected {want!r}")
        return problems


def check_qudit(spec, series, scan, sample_idx) -> list[str]:
    """Finite-interval witness and divisibility scan of a general generator."""
    grid = spec.grid
    problems = close("gamma", series.rates, rate_values(spec, grid), RATE_TOL, RATE_TOL)
    # Both come from the same bridge maps: a witness violation needs a
    # negative eigenvalue at the same time.
    unsound = (series.values > VIOLATION_THRESHOLD) & (scan.min_eigenvalues >= 0.0)
    if np.any(unsound):
        problems.append(f"witness violation without negative eigenvalue at t = {grid[unsound][0]}")
    for i in sample_idx:
        lam = magnus_bridge_spectrum(spec, float(grid[i]), spec.epsilon)
        r2, r3, w = moments(lam)
        problems += close(f"min eigenvalue at t={grid[i]:.6g}", scan.min_eigenvalues[i],
                          lam[0], RTOL, 1e-9)
        problems += close(f"witness at t={grid[i]:.6g}", series.values[i], w, RTOL, 1e-9)
        problems += close(f"r2 at t={grid[i]:.6g}", series.r2[i], r2, RTOL, 1e-9)
    divisible = not np.any(rate_values(spec, grid) < 0.0)
    want = "CP-divisible" if divisible else "CP-indivisible"
    if scan.verdict != want:
        problems.append(f"divisibility verdict {scan.verdict} != expected {want}")
    if bool(series.violations) == divisible:
        problems.append(f"witness violations {series.violations[:2]} for "
                        f"{'divisible' if divisible else 'indivisible'} dynamics")
    return problems
