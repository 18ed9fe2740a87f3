"""Shared random-object factories for the test suite (all seeded by callers)."""

from dataclasses import dataclass

import numpy as np

from choi_moments import choi
from choi_moments.choi import (
    SmallTimeChoiBuilder,
    choi_of_superoperator,
    max_entangled_projector,
)
from choi_moments.lindblad import (
    LindbladGenerator,
    apply_generator,
    generator_superoperator,
    rates_at,
)
from choi_moments.rates import ConstantRate, ExpCosRate


@dataclass
class CountingRate:
    """exp(-t) cos(t) that counts the times it is evaluated at."""

    calls: int = 0

    @staticmethod
    def formula(t: np.ndarray) -> np.ndarray:
        return np.exp(-t) * np.cos(t)

    def evaluate(self, t: np.ndarray) -> np.ndarray:
        self.calls += t.size
        return self.formula(t)


def count_sweeps(monkeypatch):
    """Empty bridge_spectra's last-sweep slot and count the RK4 kernel's runs:
    the returned list gets one entry per call of the kernel."""
    calls = []
    kernel = choi._rk4_chunks

    def counted(*args):
        calls.append(args)
        return kernel(*args)

    monkeypatch.setattr(choi, "_last_sweep", None)
    monkeypatch.setattr(choi, "_rk4_chunks", counted)
    return calls


def random_hermitian(rng, n):
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return 0.5 * (g + g.conj().T)


def random_unitary(rng, n):
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_psd_unit_trace(rng, n):
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    m = g @ g.conj().T
    return m / np.trace(m).real


def random_normal_operator(rng, n):
    """U D U^dag with complex diagonal D: commutes with its adjoint by construction."""
    u = random_unitary(rng, n)
    d = rng.normal(size=n) + 1j * rng.normal(size=n)
    return u @ np.diag(d) @ u.conj().T


def random_generator(rng, dim, n_ops=2, rate_range=(-1.0, 1.0)):
    """Generic generator: Gaussian jump operators, constant rates (any sign)."""
    ops = [rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)) for _ in range(n_ops)]
    rates = [ConstantRate(float(rng.uniform(*rate_range))) for _ in range(n_ops)]
    return LindbladGenerator(dim, random_hermitian(rng, dim), tuple(zip(ops, rates)))


def random_expcos_generator(rng, dim, n_ops=2):
    """Unit-norm Gaussian jump operators with exp(-kt)cos(kt) rates of random k."""
    ops = []
    for _ in range(n_ops):
        a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        ops.append(a / np.linalg.norm(a, 2))
    rates = [ExpCosRate(k=float(rng.uniform(0.5, 3.0))) for _ in range(n_ops)]
    return LindbladGenerator(dim, random_hermitian(rng, dim), tuple(zip(ops, rates)))


def random_unital_generator(rng, dim, n_ops=2):
    """Normal jump operators with non-negative constant rates: unital and divisible."""
    ops = [random_normal_operator(rng, dim) for _ in range(n_ops)]
    rates = [ConstantRate(float(rng.uniform(0.1, 1.0))) for _ in range(n_ops)]
    return LindbladGenerator(dim, random_hermitian(rng, dim), tuple(zip(ops, rates)))


def random_kraus_choi(rng, d, n_kraus):
    """Choi state of a random CPTP map, built directly from Kraus vectors.

    A (n_kraus*d) x d isometry sliced into Kraus blocks A_k satisfies
    sum_k A_k^dag A_k = I; the Choi state is sum_k |v_k><v_k| with
    v_k = vec(A_k^T)/sqrt(d). Independent of the package's construction.
    """
    g = rng.normal(size=(n_kraus * d, d)) + 1j * rng.normal(size=(n_kraus * d, d))
    q, _ = np.linalg.qr(g)
    choi = np.zeros((d * d, d * d), dtype=complex)
    for k in range(n_kraus):
        v = q[k * d:(k + 1) * d].T.reshape(-1) / np.sqrt(d)
        choi += np.outer(v, v.conj())
    return choi


def reference_rk4_propagate(gen, t0, t1, steps):
    """Classical RK4 of dPhi/dt = Lhat(t) Phi from the identity, one step at a
    time, with the generator rebuilt at every stage time.

    The scalar reference for the package's batched kernel: same scheme,
    different order of arithmetic.
    """
    phi = np.eye(gen.dim * gen.dim, dtype=complex)
    h = (t1 - t0) / steps
    for k in range(steps):
        t = t0 + k * h
        a1 = generator_superoperator(gen, t)
        a2 = generator_superoperator(gen, t + 0.5 * h)
        a4 = generator_superoperator(gen, t + h)
        k1 = a1 @ phi
        k2 = a2 @ (phi + 0.5 * h * k1)
        k3 = a2 @ (phi + 0.5 * h * k2)
        k4 = a4 @ (phi + h * k3)
        phi = phi + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return phi


def reference_bridge_spectra(gen, grid, delta, steps_per_unit=1000):
    """Descending Choi spectra of the bridges Lambda(t + delta, t), one window at a time."""
    steps = max(1, round(steps_per_unit * delta))
    spectra = []
    for t in grid:
        bridge = reference_rk4_propagate(gen, float(t), float(t) + delta, steps)
        spectra.append(np.linalg.eigvalsh(choi_of_superoperator(bridge).matrix)[::-1])
    return np.array(spectra)


def reference_generator_choi(gen, t):
    """Choi image X = (1/d) sum_ij E_ij kron L_t(E_ij) of the generator, one
    matrix unit at a time through `apply_generator`."""
    d = gen.dim
    x = np.zeros((d * d, d * d), dtype=complex)
    for i in range(d):
        for j in range(d):
            unit = np.zeros((d, d), dtype=complex)
            unit[i, j] = 1.0
            x += np.kron(unit, apply_generator(gen, unit, t)) / d
    return x


def reference_small_time_witness(gen, grid, eps):
    """Rates, r2, r3 and r2^2 - r3 of the first-order Choi states bell + eps X(t),
    one grid point and one eigensolve at a time."""
    bell = max_entangled_projector(gen.dim)
    rates, r2, r3 = [], [], []
    for t in grid:
        rates.append(rates_at(gen, float(t)))
        lam = np.linalg.eigvalsh(bell + eps * reference_generator_choi(gen, float(t)))
        r2.append(np.sum(lam**2))
        r3.append(np.sum(lam**3))
    r2, r3 = np.array(r2), np.array(r3)
    return np.array(rates), r2, r3, r2**2 - r3


def reference_rhp_rates(gen, grid):
    """Trace-norm rates g(t) = 2 sum_j max(0, -mu_j), with mu_j the eigenvalues
    of the d^2 x d^2 matrix Q X(t) Q and Q = I - bell, one grid point and one
    eigensolve at a time.

    Eigenvalues within the package's noise level (1e-12 of the size of X's
    entries) count as zero, as in the package.
    """
    builder = SmallTimeChoiBuilder(gen)
    q = np.eye(gen.dim**2) - builder.bell
    block_sizes = np.max(np.abs(builder.blocks), axis=(1, 2))
    g = []
    for t in grid:
        coef = np.concatenate(([1.0], rates_at(gen, float(t))))
        noise = 1e-12 * max(1.0, float(np.abs(coef) @ block_sizes))
        mu = np.linalg.eigvalsh(q @ reference_generator_choi(gen, float(t)) @ q)
        g.append(2.0 * float(np.sum(-mu[mu < -noise])))
    return np.array(g)


def reference_violation_intervals(grid, values, threshold):
    """Contiguous grid runs with value > threshold, as (t_start, t_end) pairs,
    found by walking the grid one point at a time."""
    intervals = []
    start = None
    for i, flag in enumerate(values > threshold):
        if flag and start is None:
            start = i
        elif not flag and start is not None:
            intervals.append((float(grid[start]), float(grid[i - 1])))
            start = None
    if start is not None:
        intervals.append((float(grid[start]), float(grid[-1])))
    return tuple(intervals)


def reference_rate_limits(gen, t, eps_schedule=(1e-4, 5e-5)):
    """f(t) and g(t) as eps -> 0 limits of finite-eps samples.

    At each eps the first-order Choi state bell + eps X(t) is eigensolved;
    max(0, r2^2 - r3)/eps and max(0, ||C||_1 - 1)/eps are linear in eps to
    leading order, so each pair of successive samples is Richardson
    extrapolated and the last extrapolant, clipped at 0, is returned.
    """
    bell = max_entangled_projector(gen.dim)
    x = reference_generator_choi(gen, float(t))
    f_samples, g_samples = [], []
    for eps in eps_schedule:
        lam = np.linalg.eigvalsh(bell + eps * x)
        r2, r3 = np.sum(lam**2), np.sum(lam**3)
        f_samples.append(max(0.0, r2 * r2 - r3) / eps)
        g_samples.append(max(0.0, np.sum(np.abs(lam)) - 1.0) / eps)

    def extrapolate(samples):
        (e_a, e_b), (h_a, h_b) = eps_schedule[-2:], samples[-2:]
        return max(0.0, (e_a * h_b - e_b * h_a) / (e_a - e_b))

    return extrapolate(f_samples), extrapolate(g_samples)
