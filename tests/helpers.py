"""Shared random-object factories and independent oracles for the test suite
(all seeded by callers)."""

import numpy as np

from choi_moments import choi
from choi_moments.lindblad import (
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    LindbladGenerator,
    rates_at,
)
from choi_moments.rates import ConstantRate, ExpCosRate, RateModel


def max_entangled_projector(d):
    """Rank-1 projector onto (1/sqrt(d)) sum_i |ii>: the Choi state of the
    identity map in the normalized convention; trace 1, purity 1."""
    phi = np.zeros(d * d, dtype=complex)
    phi[:: d + 1] = 1.0 / np.sqrt(d)
    return np.outer(phi, phi.conj())


def dephasing_generator(rate):
    """Single sigma_z dissipator, no Hamiltonian."""
    return LindbladGenerator(2, np.zeros((2, 2)), ((SIGMA_Z, rate),))


def isotropic_pauli_generator(rate):
    """sigma_x, sigma_y, sigma_z dissipators sharing one rate, no Hamiltonian."""
    return LindbladGenerator(
        2, np.zeros((2, 2)), ((SIGMA_X, rate), (SIGMA_Y, rate), (SIGMA_Z, rate))
    )


def _action(gen, x, gammas):
    """Generator action on an arbitrary matrix, or on each of a stack of
    them, with precomputed rates, one jump operator at a time: the
    independent oracle for the generator's transfer blocks."""
    h = gen.hamiltonian
    out = -1j * (h @ x - x @ h)
    for (op, _), g in zip(gen.dissipators, gammas):
        ld_l = op.conj().T @ op
        out = out + g * (op @ x @ op.conj().T - 0.5 * (ld_l @ x + x @ ld_l))
    return out


def apply_generator(gen, rho, t):
    """d rho / dt at time t. Traceless and Hermitian for Hermitian rho."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (gen.dim, gen.dim):
        raise ValueError(f"state shape {rho.shape} does not match generator dim {gen.dim}")
    return _action(gen, rho, rates_at(gen, t))


def reference_superoperator(gen, t):
    """Row-major matrix Lhat(t) with vec(d rho / dt) = Lhat(t) vec(rho): column
    (i, j) is vec(L_t(E_ij)), the action of `apply_generator` on the matrix
    unit E_ij. The action broadcasts, so it takes the stack of all d^2
    units at once."""
    n = gen.dim * gen.dim
    units = np.eye(n, dtype=complex).reshape(n, gen.dim, gen.dim)
    return _action(gen, units, rates_at(gen, t)).reshape(n, n).T


class CountingRate(RateModel):
    """exp(-t) cos(t) that counts the times it is evaluated at, in its one
    slot outside the (empty) fields."""

    __slots__ = ("_calls",)

    def __init__(self):
        object.__setattr__(self, "_calls", [0])

    @property
    def calls(self) -> int:
        return self._calls[0]

    @staticmethod
    def formula(t: np.ndarray) -> np.ndarray:
        return np.exp(-t) * np.cos(t)

    def evaluate(self, t: np.ndarray) -> np.ndarray:
        self._calls[0] += t.size
        return self.formula(t)


class UncheckedConstantRate(RateModel):
    """gamma(t) = value, with no check on value: the library's rate models
    refuse NaN and +-inf, so this feeds a non-finite rate to later checks."""

    __slots__ = _fields = ("value",)

    def __init__(self, value: float):
        object.__setattr__(self, "value", value)

    def evaluate(self, t: np.ndarray) -> np.ndarray:
        return np.full(t.shape, self.value)


def count_sweeps(monkeypatch):
    """Empty bridge_moments' sweep cache and count the RK4 kernel's runs:
    the returned list gets one entry per call of the kernel."""
    calls = []
    kernel = choi._rk4_chunks

    def counted(*args):
        calls.append(args)
        return kernel(*args)

    choi._sweep.cache_clear()
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
    The sum's mirrored entries round differently, so the state returned is
    its Hermitian part, exactly Hermitian as every Choi state the kernel
    builds is.
    """
    g = rng.normal(size=(n_kraus * d, d)) + 1j * rng.normal(size=(n_kraus * d, d))
    q, _ = np.linalg.qr(g)
    choi = np.zeros((d * d, d * d), dtype=complex)
    for k in range(n_kraus):
        v = q[k * d:(k + 1) * d].T.reshape(-1) / np.sqrt(d)
        choi += np.outer(v, v.conj())
    return (choi + choi.conj().T) / 2


def reference_rk4_propagate(gen, t0, t1, steps):
    """Classical RK4 of dPhi/dt = Lhat(t) Phi from the identity, one step at a
    time, with the generator rebuilt at every stage time.

    The scalar reference for the package's batched kernel: same scheme,
    different order of arithmetic, and its generator comes from
    `reference_superoperator`, so it shares no table with the package.
    """
    phi = np.eye(gen.dim * gen.dim, dtype=complex)
    h = (t1 - t0) / steps
    for k in range(steps):
        t = t0 + k * h
        a1 = reference_superoperator(gen, t)
        a2 = reference_superoperator(gen, t + 0.5 * h)
        a4 = reference_superoperator(gen, t + h)
        k1 = a1 @ phi
        k2 = a2 @ (phi + 0.5 * h * k1)
        k3 = a2 @ (phi + 0.5 * h * k2)
        k4 = a4 @ (phi + h * k3)
        phi = phi + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return phi


def spectra_table(spectra):
    """The table (3, W) `bridge_moments` returns, from ascending Choi
    spectra (W, d^2) as `eigvalsh` returns them: each smallest eigenvalue,
    r_2 and r_3, summed in that order."""
    lam = np.asarray(spectra)
    return np.stack([lam[:, 0], np.sum(lam**2, axis=1), np.sum(lam**3, axis=1)])


def reference_bridge_spectra(gen, grid, delta):
    """Ascending Choi spectra of the bridges Lambda(t + delta, t), one window
    at a time, with the library's 1000 RK4 steps per unit time."""
    steps = max(1, round(1000 * delta))
    spectra = []
    for t in grid:
        bridge = reference_rk4_propagate(gen, float(t), float(t) + delta, steps)
        spectra.append(np.linalg.eigvalsh(reference_choi(bridge)))
    return np.array(spectra)


def hermitian_basis_matrix(d):
    """Dense unitary U whose columns are vec(F) of the Hermitian operator basis,
    built one basis element at a time: E_ii, (E_ij + E_ji)/sqrt(2) at (i, j)
    above the diagonal, i(E_ij - E_ji)/sqrt(2) at (i, j) below it."""
    u = np.zeros((d * d, d * d), dtype=complex)
    for i in range(d):
        for j in range(d):
            f = np.zeros((d, d), dtype=complex)
            if i == j:
                f[i, i] = 1.0
            elif i < j:
                f[i, j] = f[j, i] = np.sqrt(0.5)
            else:
                f[i, j], f[j, i] = 1j * np.sqrt(0.5), -1j * np.sqrt(0.5)
            u[:, i * d + j] = f.ravel()
    return u


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


def reference_choi(phi):
    """Choi state (1/d) sum_ij E_ij kron M(E_ij) of the map with row-major
    d^2 x d^2 superoperator phi, one matrix unit at a time."""
    phi = np.asarray(phi)
    d = int(round(np.sqrt(phi.shape[0])))
    c = np.zeros((d * d, d * d), dtype=complex)
    for i in range(d):
        for j in range(d):
            unit = np.zeros((d, d), dtype=complex)
            unit[i, j] = 1.0
            c += np.kron(unit, (phi @ unit.ravel()).reshape(d, d)) / d
    return c


def first_order_choi(gen, t, eps):
    """bell + eps X(t): the Choi state of the first-order map 1 + eps L_t,
    Hamiltonian included."""
    return max_entangled_projector(gen.dim) + eps * reference_generator_choi(gen, t)


def renyi_entropy(rho, alpha):
    """Order-alpha Renyi entropy log2(Tr rho^alpha) / (1 - alpha) from the
    spectrum of a PSD state (rounding negatives clipped to 0)."""
    lam = np.clip(np.linalg.eigvalsh(rho), 0.0, None)
    return float(np.log2(np.sum(lam**alpha)) / (1.0 - alpha))


def schatten_norm(m, p):
    """Schatten-p norm (sum_i |lambda_i|^p)^(1/p) of a Hermitian matrix."""
    return float(np.sum(np.abs(np.linalg.eigvalsh(m)) ** p) ** (1.0 / p))


def reference_small_time_witness(gen, grid, eps):
    """Rates, r2, r3 and r2^2 - r3 of the small-time Choi states, one grid
    point and one eigensolve at a time.

    The state is bell + eps X(t) with X built with the Hamiltonian set to
    zero: the small-time map takes H exactly, as a unitary e^{-i eps H}
    conjugation of this state, which changes no moment.
    """
    bare = LindbladGenerator(gen.dim, np.zeros((gen.dim, gen.dim)), gen.dissipators)
    rates, r2, r3 = [], [], []
    for t in grid:
        rates.append(rates_at(gen, float(t)))
        lam = np.linalg.eigvalsh(first_order_choi(bare, float(t), eps))
        r2.append(np.sum(lam**2))
        r3.append(np.sum(lam**3))
    r2, r3 = np.array(r2), np.array(r3)
    return np.array(rates), r2, r3, r2**2 - r3


def reference_dissipator_blocks(gen):
    """The Choi image of each dissipator alone at unit rate, (K, d^2, d^2),
    each through `reference_generator_choi` of a generator with that one
    dissipator and no Hamiltonian."""
    d = gen.dim
    return np.array([
        reference_generator_choi(
            LindbladGenerator(d, np.zeros((d, d)), ((op, ConstantRate(1.0)),)), 0.0)
        for op, _ in gen.dissipators]).reshape(-1, d * d, d * d)


def reference_rhp_rates(gen, grid):
    """Trace-norm rates g(t) = 2 sum_j max(0, -mu_j), with mu_j the eigenvalues
    of the d^2 x d^2 matrix Q X(t) Q and Q = I - bell, one grid point and one
    eigensolve at a time.

    X is built with the Hamiltonian set to zero. That is exact, because the
    Hamiltonian's Choi block B_0 has Q B_0 Q = 0, and it keeps the rounding
    of a Hamiltonian that dwarfs the rates out of the eigenvalues.
    Eigenvalues within the package's noise level (1e-12 of the size of the
    dissipators' part of X, sum_k |gamma_k| ||B_k||_F over the blocks of
    `reference_dissipator_blocks`) count as zero, as in the package.
    """
    bare = LindbladGenerator(gen.dim, np.zeros((gen.dim, gen.dim)), gen.dissipators)
    q = np.eye(gen.dim**2) - max_entangled_projector(gen.dim)
    block_sizes = np.linalg.norm(reference_dissipator_blocks(gen), axis=(1, 2))
    g = []
    for t in grid:
        noise = 1e-12 * max(1.0, float(np.abs(rates_at(gen, float(t))) @ block_sizes))
        mu = np.linalg.eigvalsh(q @ reference_generator_choi(bare, float(t)) @ q)
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
