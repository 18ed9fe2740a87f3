"""Choi states of intermediate dynamical maps and complete-positivity checks.

The normalized convention is used throughout: the Choi state of a map M is
(I kron M) applied to the projector onto (1/sqrt(d)) sum_i |ii>, so it has
unit trace for trace-preserving M. The unnormalized d*C convention is
deliberately not used anywhere -- the moment formulas downstream assume unit
trace.

Two constructions are provided: the first-order small-time Choi built directly
from the generator, and the finite-interval Choi of the map bridging two times
of a propagated evolution. The trace moments of the small-time Choi are exact
polynomials in its time step, evaluated from traces of the generator's Choi
blocks with no eigensolve (`SmallTimeChoiBuilder.moments`), and the part of
its spectrum off the Bell direction comes from a min(K, d^2)-square
rate-weighted Gram matrix of the K jump operators
(`SmallTimeChoiBuilder.projected_spectra`). All propagation
goes through one batched fixed-step RK4 kernel: `propagate_map` runs it over
one window, and `bridge_spectra` over one window [t, t + delta] per grid time,
reusing its most recent sweep when the next call has the same inputs. Both
constructions read the generator's read-only superoperator blocks
[H_part, D_1, ...], weighted by `lindblad.coefficients` of the rates.
"""

import os
import sys
import warnings
from dataclasses import dataclass

import numpy as np

from .lindblad import LindbladGenerator, coefficients, rates_at
from .spectral import require_hermitian

__all__ = [
    "SuperoperatorMatrix",
    "ChoiMatrix",
    "CPTPDiagnostics",
    "max_entangled_projector",
    "choi_small_time",
    "propagate_map",
    "intermediate_map",
    "bridge_spectra",
    "choi_of_superoperator",
    "cptp_diagnostics",
    "partial_trace_output",
]

# Fixed-step integrator resolution: steps per unit time.
DEFAULT_STEPS_PER_UNIT = 1000
# |eps * gamma| above which the first-order small-time Choi is dubious, and
# |h * gamma| above which a fixed RK4 step of a bridge is.
SMALL_TIME_RATE_LIMIT = 0.1
# Matrix entries one stacked chunk holds: d^2 x d^2 maps in a batched RK4
# stack (one matrix per window step), or the small matrices of a stacked
# spectrum solve. Bounds memory whatever the grid size.
CHUNK_ENTRIES = 4096
# Tolerances for Choi construction sanity checks.
_CHOI_TRACE_ATOL = 1e-6
_CHOI_ASYMMETRY_ATOL = 1e-8
# Source files of this package, skipped when a warning names its caller.
_PACKAGE_PREFIX = os.path.dirname(__file__) + os.sep

# The most recent bridge sweep: (superoperator blocks, step, half-step rates,
# spectra). It is replaced as one tuple, so a thread reads either the
# old sweep or the new one, never a mix.
_last_sweep = None


@dataclass(frozen=True)
class SuperoperatorMatrix:
    """A d^2 x d^2 map matrix (row-major vectorization) over a time interval."""

    matrix: np.ndarray
    interval: tuple[float, float]

    @property
    def dim(self) -> int:
        return int(round(np.sqrt(self.matrix.shape[0])))


@dataclass(frozen=True)
class ChoiMatrix:
    """Unit-trace Hermitian d^2 x d^2 Choi state of an intermediate map."""

    matrix: np.ndarray
    interval: tuple[float, float]
    mode: str  # "small-time" | "finite-interval"

    @property
    def dim(self) -> int:
        return int(round(np.sqrt(self.matrix.shape[0])))


@dataclass(frozen=True)
class CPTPDiagnostics:
    min_eigenvalue: float
    trace_deviation: float
    partial_trace_deviation: float
    is_cp: bool
    is_tp: bool


def max_entangled_projector(d: int) -> np.ndarray:
    """Rank-1 projector onto (1/sqrt(d)) sum_i |ii>; trace 1, purity 1."""
    if d < 2:
        raise ValueError(f"maximally entangled state needs d >= 2, got d = {d}")
    phi = np.zeros(d * d, dtype=complex)
    phi[:: d + 1] = 1.0 / np.sqrt(d)
    return np.outer(phi, phi.conj())


def _choi_from_superop(phi: np.ndarray, d: int) -> np.ndarray:
    """(1/d) sum_ij E_ij kron M(E_ij) for the map with row-major matrix phi.

    With row-major vec, M(E_ij)[a, b] = phi[(a, b), (i, j)], so the Choi state
    is a reshuffle of phi. Leading axes of phi are stack axes.
    """
    lead = phi.shape[:-2]
    blocks = np.einsum("...abij->...iajb", phi.reshape(*lead, d, d, d, d))
    return blocks.reshape(*lead, d * d, d * d) / d


def partial_trace_output(c: np.ndarray, d: int) -> np.ndarray:
    """Trace a Choi matrix over its output (second) subsystem."""
    return np.einsum("iaja->ij", c.reshape(d, d, d, d))


def _checked_choi(maps: np.ndarray, d: int) -> np.ndarray:
    """Symmetrized Choi states of a (stack of) maps, refusing maps that are
    not trace preserving (Choi trace off 1 by more than 1e-6)."""
    c = _choi_from_superop(maps, d)
    trace = np.trace(c, axis1=-2, axis2=-1)
    trace_dev = float(np.max(np.abs(trace.real - 1.0) + np.abs(trace.imag)))
    if trace_dev > _CHOI_TRACE_ATOL:
        raise ValueError(
            f"map is not trace preserving: Choi trace deviation {trace_dev:.3e} "
            f"exceeds {_CHOI_TRACE_ATOL:.1e}"
        )
    return require_hermitian(c, atol=_CHOI_ASYMMETRY_ATOL)


def _checked_rates(gen: LindbladGenerator, times: np.ndarray) -> np.ndarray:
    """Rates at every time of an array, shape times.shape + (K,), refusing
    non-finite rates at the earliest time that has one."""
    gammas = rates_at(gen, times)
    bad = ~np.all(np.isfinite(gammas), axis=-1)
    if np.any(bad):
        first = np.unravel_index(np.argmin(np.where(bad, times, np.inf)), times.shape)
        raise ValueError(f"non-finite rate at t = {times[first]:.6g}: {gammas[first]}")
    return gammas


class SmallTimeChoiBuilder:
    """The Choi image X(t) = B_0 + sum_k gamma_k(t) B_k of the generator, and
    the first-order Choi states C = bell + eps * X(t) of the maps on [t, t + eps].

    B_0 is the Choi image of the Hamiltonian part and B_k that of dissipator
    k (`blocks`, stacked). The generator enters only through its rates, so a
    grid costs one rate call and one product of the coefficients
    c = [1, gamma_1, ...] with the stacked blocks (`matrix`), or with tables
    of traces of the blocks (`moments`, which needs no eigensolve).

    Off the Bell direction, with Q = I - bell, the Hamiltonian part drops out
    (Q B_0 Q = 0) and each dissipator leaves one rank-1 term,
    Q B_k Q = v_k v_k^dag with v_k = vec((L_k - Tr(L_k)/d I)^T)/sqrt(d). So
    Q X Q = V diag(gamma) V^dag, whose nonzero spectrum is that of the
    min(K, d^2)-square R diag(gamma) R^dag, with V = W R a thin QR
    (`projected_spectra`).
    """

    def __init__(self, gen: LindbladGenerator):
        self.gen = gen
        d = gen.dim
        self.bell = max_entangled_projector(d)
        self.blocks = _choi_from_superop(gen.superoperator_blocks, d)
        # x_k = <Phi+|B_k|Phi+>, so that <Phi+|X|Phi+> = c . x.
        self.bell_overlaps = np.einsum("ab,kba->k", self.bell, self.blocks).real

    def rates(self, times) -> np.ndarray:
        """Rates at each time, (n, K); non-finite rates are refused."""
        return _checked_rates(self.gen, np.asarray(times, dtype=float))

    def projected_spectra(self, gammas: np.ndarray) -> np.ndarray:
        """Ascending eigenvalues of R diag(gamma) R^dag for each row of rates
        gammas (n, K), shape (n, min(K, d^2)): the nonzero spectrum of Q X Q.

        The solves are stacked in chunks of at most CHUNK_ENTRIES matrix
        entries. V may be rank deficient (a jump operator proportional to I
        gives v_k = 0, a repeated one a repeated column): R diag(gamma) R^dag
        then has zero eigenvalues, as Q X Q has.
        """
        d, k = self.gen.dim, len(self.gen.dissipators)
        ops = np.array([op for op, _ in self.gen.dissipators], dtype=complex)
        ops = ops.reshape(k, d, d)
        traceless = ops - np.trace(ops, axis1=1, axis2=2)[:, None, None] / d * np.eye(d)
        v = np.swapaxes(traceless, 1, 2).reshape(k, d * d).T / np.sqrt(d)
        r = np.linalg.qr(v, mode="r")
        m = len(r)
        # R diag(gamma) R^dag = sum_k gamma_k r_k r_k^dag over the columns r_k.
        outer = np.einsum("ik,jk->kij", r, r.conj()).reshape(k, m * m)
        width = max(1, CHUNK_ENTRIES // max(1, m * m))
        mu = np.empty((len(gammas), m))
        for lo in range(0, len(gammas), width):
            chunk = gammas[lo:lo + width] @ outer
            mu[lo:lo + width] = np.linalg.eigvalsh(chunk.reshape(len(chunk), m, m))
        return mu

    def matrix(self, gammas: np.ndarray, epsilon: float) -> np.ndarray:
        """bell + eps * X for each row of rates gammas (n, K): (n, d^2, d^2)."""
        x = coefficients(gammas) @ self.blocks.reshape(len(self.blocks), -1)
        return self.bell + epsilon * x.reshape(-1, *self.bell.shape)

    def moments(self, gammas: np.ndarray, epsilon: float):
        """r_2, r_3 and r_2^2 - r_3 of bell + eps * X for each row of rates
        gammas (n, K), each of shape (n,), with no eigensolve.

        bell is a rank-1 projector, so with x0 = <Phi+|X|Phi+>,
        s2 = Tr X^2, sb = <Phi+|X^2|Phi+> and s3 = Tr X^3,

            r_2 = 1 + 2 eps x0 + eps^2 s2,
            r_3 = 1 + 3 eps x0 + 3 eps^2 sb + eps^3 s3,

        and r_2^2 - r_3 is expanded in eps so that the leading 1s cancel
        exactly. x0, s2, sb and s3 are forms in c = [1, gamma_1, ...] of
        degree 1, 2, 2 and 3 over the tables x_k, Tr(B_k B_l),
        Re <Phi+|B_k B_l|Phi+> and Re Tr(B_k B_l B_m); the blocks are
        Hermitian, so the real parts are the whole contractions.
        """
        k1 = len(self.blocks)
        pairs = (self.blocks[:, None] @ self.blocks[None]).reshape(k1 * k1, -1)
        # Tr(A B) = sum_ab A_ab B_ba: contract with transposed blocks and bell.
        flipped = np.swapaxes(self.blocks, 1, 2).reshape(k1, -1)
        traces2 = (self.blocks.reshape(k1, -1) @ flipped.T).real.ravel()
        bell_pairs = (pairs @ self.bell.T.ravel()).real
        traces3 = (pairs @ flipped.T).real

        c = coefficients(gammas)
        cc = (c[:, :, None] * c[:, None, :]).reshape(len(c), -1)
        x0 = c @ self.bell_overlaps
        s2 = cc @ traces2
        sb = cc @ bell_pairs
        s3 = np.sum((cc @ traces3) * c, axis=1)
        eps = float(epsilon)
        r2 = 1.0 + 2.0 * eps * x0 + eps**2 * s2
        r3 = 1.0 + 3.0 * eps * x0 + 3.0 * eps**2 * sb + eps**3 * s3
        values = (eps * x0 + eps**2 * (4.0 * x0**2 + 2.0 * s2 - 3.0 * sb)
                  + eps**3 * (4.0 * x0 * s2 - s3) + eps**4 * s2**2)
        return r2, r3, values


def choi_small_time(gen: LindbladGenerator, t: float, epsilon: float) -> ChoiMatrix:
    """First-order Choi state of the map acting between t and t + epsilon.

    Valid while |epsilon * gamma_i(t)| << 1 for every rate; a warning is
    emitted past |eps * gamma| = 0.1. Non-finite rates are refused.
    """
    if epsilon <= 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    builder = SmallTimeChoiBuilder(gen)
    gammas = builder.rates([t])
    worst = float(np.max(np.abs(epsilon * gammas))) if gammas.size else 0.0
    if worst >= SMALL_TIME_RATE_LIMIT:
        warn_caller(
            f"small-time expansion is dubious: max |eps*gamma| = {worst:.3g} "
            f"at t = {t:.6g} (limit {SMALL_TIME_RATE_LIMIT})"
        )
    c = require_hermitian(builder.matrix(gammas, epsilon)[0], atol=_CHOI_ASYMMETRY_ATOL)
    return ChoiMatrix(c, (t, t + epsilon), "small-time")


def _half_step_rates(
    gen: LindbladGenerator, starts: np.ndarray, h: float, steps: int
) -> np.ndarray:
    """Rates at the 2*steps + 1 half-step times of every window, (W, 2*steps + 1, K).

    A step's end time is the next step's start, so a step costs two rate
    evaluations. Non-finite rates are refused, naming the earliest such time.
    """
    times = starts[:, None] + (0.5 * h) * np.arange(2 * steps + 1)
    return _checked_rates(gen, times)


def _rk4_product(blocks: np.ndarray, gammas: np.ndarray, h: float) -> np.ndarray:
    """RK4 propagators of n windows of m steps, from their half-step rates (n, 2m + 1, K).

    The generator is affine in the rates, so all stage generators come from
    one product of the coefficients [1, gamma_1, ...] with the generator's
    blocks [H_part, D_1, ...]. Each step map is one classical RK4 step
    applied to the identity (RK4 is linear in Phi, so stepping Phi is that
    map times Phi); a window's step maps are then multiplied pairwise, later
    steps on the left.
    """
    coef = coefficients(gammas)
    a = coef @ blocks.reshape(len(blocks), -1)
    a = a.reshape(*coef.shape[:-1], *blocks.shape[1:])
    a1, a2, a4 = a[:, :-1:2], a[:, 1::2], a[:, 2::2]
    eye = np.eye(blocks.shape[-1])
    k1 = a1
    k2 = a2 @ (eye + 0.5 * h * k1)
    k3 = a2 @ (eye + 0.5 * h * k2)
    k4 = a4 @ (eye + h * k3)
    maps = eye + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    while maps.shape[1] > 1:
        paired = maps[:, 1::2] @ maps[:, :-1:2]
        if maps.shape[1] % 2:
            paired = np.concatenate((paired, maps[:, -1:]), axis=1)
        maps = paired
    return maps[:, 0]


def _rk4_chunks(gen: LindbladGenerator, gammas: np.ndarray, h: float):
    """Classical fixed-step RK4 integration of dPhi/dt = Lhat(t) Phi from the
    identity over every window whose half-step rates are gammas (W, 2m + 1, K).

    Yields (window slice, propagators) chunk by chunk. A chunk holds at most
    CHUNK_ENTRIES matrix entries per stack: `width` whole windows when a
    window's steps fit, otherwise one window whose steps are taken `span` at
    a time.
    """
    blocks = gen.superoperator_blocks
    windows, steps = gammas.shape[0], (gammas.shape[1] - 1) // 2
    per_chunk = max(1, CHUNK_ENTRIES // blocks[0].size)
    width = max(1, per_chunk // steps)
    span = max(1, per_chunk // width)
    for lo in range(0, windows, width):
        phi = None
        for k in range(0, steps, span):
            end = min(k + span, steps)
            block = _rk4_product(blocks, gammas[lo:lo + width, 2 * k:2 * end + 1], h)
            phi = block if phi is None else block @ phi
        yield slice(lo, lo + width), phi


def warn_caller(message: str) -> None:
    """Warn, attributing the warning to the nearest caller outside this package."""
    frame, level = sys._getframe(2), 3
    while frame is not None and frame.f_code.co_filename.startswith(_PACKAGE_PREFIX):
        frame, level = frame.f_back, level + 1
    warnings.warn(message, stacklevel=level)


def _debug(message: str, *args) -> None:
    """Emit a debug event on the "choi_moments" logger.

    Only a program that has imported logging can have set up a handler that
    shows the event, so the module is looked up rather than imported: the
    import would cost every CLI process about 7 ms (2%) for events no one sees.
    """
    logging = sys.modules.get("logging")
    if logging is not None:
        logging.getLogger("choi_moments").debug(message, *args)


def _resolve_steps(t0: float, t1: float, steps: int | None) -> int:
    if steps is None:
        return max(1, round(DEFAULT_STEPS_PER_UNIT * (t1 - t0)))
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    return int(steps)


def propagate_map(
    gen: LindbladGenerator, t0: float, t1: float, steps: int | None = None
) -> SuperoperatorMatrix:
    """Time-ordered propagator Phi(t1, t0) of the generator, as a superoperator.

    Fixed-step fourth-order integration with step (t1 - t0)/steps; the default
    resolution is 1000 steps per unit time. Doubling the steps must not move
    the result by more than ~1e-8 in max-entry norm at the default resolution
    for the rate scales in scope.
    """
    if t1 < t0:
        raise ValueError(f"require t1 >= t0, got t0 = {t0}, t1 = {t1}")
    if t1 == t0:
        return SuperoperatorMatrix(np.eye(gen.dim * gen.dim, dtype=complex), (t0, t1))
    steps = _resolve_steps(t0, t1, steps)
    h = (t1 - t0) / steps
    gammas = _half_step_rates(gen, np.array([float(t0)]), h, steps)
    ((_, phi),) = _rk4_chunks(gen, gammas, h)
    return SuperoperatorMatrix(phi[0], (t0, t1))


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    """True iff two float or complex arrays hold the same bits; unlike ==,
    this tells 0.0 from -0.0, which the kernel's output may carry."""
    return a.shape == b.shape and a.dtype == b.dtype and np.array_equal(
        np.ascontiguousarray(a).view(np.int64), np.ascontiguousarray(b).view(np.int64))


def bridge_spectra(
    gen: LindbladGenerator,
    starts,
    delta: float,
    steps_per_unit: int = DEFAULT_STEPS_PER_UNIT,
) -> tuple[np.ndarray, np.ndarray]:
    """Choi spectra of the bridge maps Lambda(t + delta, t), one per start t.

    Each bridge is integrated directly over its own window with
    max(1, round(steps_per_unit * delta)) RK4 steps, so no propagator from 0
    is formed or inverted. Returns the rates gamma_i(t) at the starts, shape
    (W, K), and each bridge's Choi eigenvalues in descending order, (W, d^2).
    Warns, naming the window, when some step has |h * gamma| >= 0.1 (near a
    rate pole, where the fixed step loses accuracy).

    The rates are evaluated, checked and warned about on every call. When the
    generator's superoperator blocks, the step and every half-step rate
    equal, bit for bit, those of the previous sweep, that sweep's spectra are
    returned (as a copy) instead of being integrated and eigensolved again:
    a finite-interval witness and a scan on one grid and delta share one sweep.
    """
    global _last_sweep
    if delta <= 0:
        raise ValueError(f"delta must be positive, got {delta}")
    starts = np.asarray(starts, dtype=float)
    steps = max(1, round(steps_per_unit * delta))
    h = delta / steps
    gammas = _half_step_rates(gen, starts, h, steps)
    if gammas.size:
        peak = np.max(np.abs(h * gammas), axis=(1, 2))
        w = int(np.argmax(peak))
        if peak[w] >= SMALL_TIME_RATE_LIMIT:
            warn_caller(
                f"RK4 step is dubious: max |h*gamma| = {peak[w]:.3g} in the window "
                f"starting at t = {starts[w]:.6g} (limit {SMALL_TIME_RATE_LIMIT})"
            )
    blocks = gen.superoperator_blocks
    last = _last_sweep
    if (last is not None and last[1] == h and _same_bits(last[0], blocks)
            and _same_bits(last[2], gammas)):
        _debug("reused the last sweep of %d windows", starts.size)
        return gammas[:, 0].copy(), last[3].copy()
    d = gen.dim
    spectra = np.empty((starts.size, d * d))
    for window, maps in _rk4_chunks(gen, gammas, h):
        spectra[window] = np.linalg.eigvalsh(_checked_choi(maps, d))[:, ::-1]
    _last_sweep = (blocks, h, gammas, spectra.copy())
    _debug("swept %d windows, d = %d", starts.size, d)
    return gammas[:, 0].copy(), spectra


def intermediate_map(
    gen: LindbladGenerator, s: float, t: float, steps: int | None = None
) -> SuperoperatorMatrix:
    """Map Lambda(t, s) bridging times s and t of the evolution.

    For a time-local generator Phi(t,0) = Lambda(t,s) Phi(s,0), so this is
    the propagator from s to t, integrated over [s, t] with `steps` RK4 steps
    (default 1000 per unit of t - s). Nothing is inverted: the map is defined
    wherever the rates are finite. It is the object whose complete positivity
    decides divisibility, and need not be CP even though every Phi(t,0) is.
    """
    if not (0 <= s <= t):
        raise ValueError(f"require 0 <= s <= t, got s = {s}, t = {t}")
    return propagate_map(gen, s, t, steps)


def choi_of_superoperator(
    phi: SuperoperatorMatrix | np.ndarray,
    interval: tuple[float, float] | None = None,
) -> ChoiMatrix:
    """Choi state of a trace-preserving map given as a superoperator matrix.

    Refuses maps whose Choi trace deviates from 1 by more than 1e-6 (i.e. maps
    that are not trace preserving).
    """
    if isinstance(phi, SuperoperatorMatrix):
        interval = phi.interval if interval is None else interval
        mat = phi.matrix
    else:
        mat = np.asarray(phi, dtype=complex)
    d2 = mat.shape[0]
    d = int(round(np.sqrt(d2)))
    if mat.shape != (d2, d2) or d * d != d2:
        raise ValueError(f"superoperator must be d^2 x d^2, got shape {mat.shape}")
    return ChoiMatrix(_checked_choi(mat, d), interval if interval else (0.0, 0.0),
                      "finite-interval")


def cptp_diagnostics(c: ChoiMatrix | np.ndarray, tol: float = 1e-10) -> CPTPDiagnostics:
    """Complete-positivity and trace-preservation diagnostics of a Choi state.

    is_cp holds iff the minimum eigenvalue is >= -tol; is_tp holds iff the
    partial trace over the output subsystem is I/d within tol entrywise.
    """
    if tol <= 0:
        raise ValueError(f"tol must be positive, got {tol}")
    mat = c.matrix if isinstance(c, ChoiMatrix) else np.asarray(c, dtype=complex)
    if mat.ndim != 2:
        raise ValueError(f"expected a square matrix, got shape {mat.shape}")
    mat = require_hermitian(mat, atol=_CHOI_ASYMMETRY_ATOL)
    d = int(round(np.sqrt(mat.shape[0])))
    eigs = np.linalg.eigvalsh(mat)
    min_eig = float(eigs[0])
    trace_dev = abs(float(np.sum(eigs)) - 1.0)
    pt_dev = float(np.max(np.abs(partial_trace_output(mat, d) - np.eye(d) / d)))
    return CPTPDiagnostics(
        min_eigenvalue=min_eig,
        trace_deviation=trace_dev,
        partial_trace_deviation=pt_dev,
        is_cp=bool(min_eig >= -tol),
        is_tp=bool(pt_dev <= tol),
    )
