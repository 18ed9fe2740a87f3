"""Propagation of a generator and the Choi moments of its bridge maps.

The normalized convention is used throughout: the Choi state of a map M is
(I kron M) applied to the projector onto (1/sqrt(d)) sum_i |ii>, so it has
unit trace for trace-preserving M. The unnormalized d*C convention is
deliberately not used anywhere -- the moment formulas downstream assume unit
trace.

This module reads the finite-interval Choi states of the maps bridging two
times of a propagated evolution; the small-time states are read from the
generator's own tables (`LindbladGenerator.small_time_moments`). Rates are
rows from the models (`rates_at`) into the RK4 kernel, one row per jump
operator: (K, n, 2m + 1) for the half-step times of the n windows of one
chunk, m RK4 steps each, so every step is a small matrix product or a
reduction across a few long rows; the kernel drops each chunk's rates after
it, so a sweep's memory does not grow with its steps. All propagation goes
through that one batched fixed-step RK4 kernel: `propagate_map` runs it over
one window, and `bridge_moments` over one window [t, t + delta] per grid
time. A generator fixes its rates, so a sweep is a pure function of it,
delta and the starts, and the last sweep is cached.
The kernel weights the generator's read-only real transfer blocks
[S_0, S_1, ...], its Hamiltonian part and each dissipator at unit rate in an
orthonormal basis of Hermitian operators, built from the operators
themselves (`LindbladGenerator.transfer_blocks`), by the coefficients
[1, gamma_1, ...] of the rates. No complex superoperator of the generator
is formed anywhere in the package. The kernel runs in real arithmetic, on
stacks of several windows at once (up to CHUNK_ENTRIES matrix entries: four
64 x 64 maps at d = 8), and each caller leaves the real basis once per map,
with O(d^4) slices and no matrix product, always as the map's Choi state:
`bridge_moments` eigensolves the states, and `propagate_map` realigns its
one state into the row-major superoperator, S[(a, b), (i, j)] =
d C[(i, a), (j, b)]. Every map's trace is checked (`_require_trace_preserving`).

Every fixed step the package reads a map over, epsilon for the small-time
state and h for each RK4 step, passes one guard (`guard_step`), the only
reader of SMALL_TIME_RATE_LIMIT: it warns, naming the caller's line, when
the step times the largest |gamma| reaches that limit. Both ways into the
kernel carry each window's largest |gamma| across its chunks and run the
guard once, after the last.
"""

import os
import sys
import warnings
from functools import lru_cache

import numpy as np

from .lindblad import (CHUNK_ENTRIES, LindbladGenerator, from_hermitian_basis, rates_at,
                       require_count, require_positive, require_real)
from .rates import require_rate_times

__all__ = [
    "max_entangled_projector",
    "propagate_map",
    "bridge_moments",
]

# Fixed-step integrator resolution: steps per unit time.
DEFAULT_STEPS_PER_UNIT = 1000
# Most RK4 steps one window may take, 1000 time units at the default
# resolution: it bounds one window's work (about 1 s of CPU at d = 2, minutes
# at d = 8), not its memory, which one chunk of the kernel bounds.
MAX_WINDOW_STEPS = 10**6
# |eps * gamma| above which the first-order small-time Choi is dubious, and
# |h * gamma| above which a fixed RK4 step is (read by `guard_step` alone).
SMALL_TIME_RATE_LIMIT = 0.1
# Largest deviation from 1 of the Choi trace of a map the kernel integrates,
# per unit of max(1, the map's largest entry): the trace sums entries of the
# map, whose rounding grows with them, and they grow where a rate is negative.
_CHOI_TRACE_ATOL = 1e-6
# Source files of this package, skipped when a warning names its caller,
# except the command line front end: it calls the library as any caller
# does, and past it lie only runpy or an entry-point script.
_PACKAGE_PREFIX = os.path.dirname(__file__) + os.sep
_CLI_FILE = _PACKAGE_PREFIX + "cli.py"


def max_entangled_projector(d: int) -> np.ndarray:
    """Rank-1 projector onto (1/sqrt(d)) sum_i |ii>; trace 1, purity 1."""
    d = require_count("d", d, 2)
    phi = np.zeros(d * d, dtype=complex)
    phi[:: d + 1] = 1.0 / np.sqrt(d)
    return np.outer(phi, phi.conj())


def _require_trace_preserving(maps: np.ndarray, d: int) -> None:
    """Refuse maps, real transfer matrices (n, d^2, d^2), that are not trace
    preserving: whose Choi trace is not 1 within 1e-6 times the larger of 1
    and the map's largest entry, or is not finite. The refusal names the
    map furthest past its bound.

    The trace needs no Choi state: Tr C = Tr Lambda(I)/d =
    (1/d) sum_ij T[(jj), (ii)], since I has coordinate 1 at each E_ii, and
    E_ii has unit trace while the other basis elements are traceless.
    """
    deviation = np.abs(maps[:, :: d + 1, :: d + 1].sum(axis=(1, 2)) / d - 1.0)
    if deviation.max() <= _CHOI_TRACE_ATOL:  # within every map's bound
        return
    bound = _CHOI_TRACE_ATOL * np.maximum(1.0, np.abs(maps).max(axis=(1, 2)))
    excess = deviation / bound
    worst = np.argmax(excess)  # the first NaN, if there is one
    if not excess[worst] <= 1.0:  # NaN compares false either way
        problem = f"exceeds {bound[worst]:.1e}" if np.isfinite(excess[worst]) else "is non-finite"
        raise ValueError("map is not trace preserving: Choi trace deviation "
                         f"{deviation[worst]:.3e} {problem}")


def _rk4_product(blocks: np.ndarray, gammas: np.ndarray, h: float,
                 work: np.ndarray) -> np.ndarray:
    """RK4 propagators of n windows of m steps, from their half-step rates as
    rows (K, n, 2m + 1).

    The blocks are the generator's real transfer blocks [S_0, S_1, ...] in
    the Hermitian operator basis, so every product here is real; the
    propagators come out in that basis too. RK4 is a polynomial in the stage
    generators, so it commutes with the change of basis: these are the
    row-major propagators in that basis, at a quarter of the flops of
    complex arithmetic.

    The generator is affine in the rates, so all stage generators come from
    one product with the blocks of the coefficients [1; gamma_1; ...], rows
    (K + 1, n, 2m + 1): the rates under a row of ones, read transposed.
    Each step map is one classical RK4 step applied to the identity (RK4 is
    linear in Phi, so stepping Phi is that map times Phi); a window's step
    maps are then multiplied pairwise, later steps on the left.

    The stages and the pairwise products are written into work, four flat
    buffers of at least n (2m + 1) d^4 entries that every piece of one
    sweep reuses: freed, a long window's temporaries go back to the system
    and are faulted in again by the next window. Each operation is the one
    an expression without buffers would make, so the bits are the same.
    """
    n, m, side = gammas.shape[1], gammas.shape[2] // 2, blocks.shape[-1]
    t, k2, k3 = (row[:n * m * side**2].reshape(n, m, side, side) for row in work[1:])
    coef = np.concatenate((np.ones((1,) + gammas.shape[1:]), gammas))
    a = np.matmul(coef.reshape(len(coef), -1).T, blocks.reshape(len(blocks), -1),
                  out=work[0, :coef[0].size * side**2].reshape(coef[0].size, -1))
    a = a.reshape(*coef.shape[1:], side, side)
    a1, a2, a4 = a[:, :-1:2], a[:, 1::2], a[:, 2::2]
    eye = np.eye(side)

    def step_from(k, c):  # t = eye + c k
        return np.add(eye, np.multiply(c, k, out=t), out=t)

    k1 = a1
    np.matmul(a2, step_from(k1, 0.5 * h), out=k2)
    np.matmul(a2, step_from(k2, 0.5 * h), out=k3)
    step_from(k3, h)
    # eye + (h/6) (k1 + 2 k2 + 2 k3 + k4), summed from the left into k2's
    # buffer; k4 = a4 @ t goes into k3's once 2 k3 is added.
    maps = np.add(k1, np.multiply(2.0, k2, out=k2), out=k2)
    np.add(maps, np.multiply(2.0, k3, out=k3), out=maps)
    np.add(maps, np.matmul(a4, t, out=k3), out=maps)
    np.add(eye, np.multiply(h / 6.0, maps, out=maps), out=maps)
    row = 1  # each level of the tree goes into the buffer the last did not hold
    while maps.shape[1] > 1:
        half, odd = divmod(maps.shape[1], 2)
        paired = work[row, :n * (half + odd) * side**2].reshape(n, half + odd, side, side)
        np.matmul(maps[:, 1::2], maps[:, :-1:2], out=paired[:, :half])
        if odd:
            paired[:, -1] = maps[:, -1]
        maps, row = paired, 3 - row
    return maps[:, 0].copy()


def _rk4_chunks(gen: LindbladGenerator, starts: np.ndarray, h: float, steps: int):
    """Classical fixed-step RK4 integration of dPhi/dt = Lhat(t) Phi from the
    identity over the windows [t, t + steps * h], one per start t.

    Yields, chunk by chunk, (window slice, the rates at the windows' starts
    as rows (K, n), the largest |gamma| of each window (n,), propagators
    (n, d^2, d^2) as real transfer matrices in the Hermitian operator basis,
    checked by `_require_trace_preserving`). A chunk holds at most
    CHUNK_ENTRIES matrix entries per stack: `width` whole windows, or one
    window whose steps are taken `span` at a time, each piece from its own
    rates at its half-step times (`rates_at`), dropped after it.
    """
    blocks, d = gen.transfer_blocks, gen.dim
    per_chunk = max(1, CHUNK_ENTRIES // blocks[0].size)
    width = max(1, per_chunk // steps)
    span = max(1, per_chunk // width)
    n, m = min(width, len(starts)), min(span, steps)
    work = np.empty((4, n * (2 * m + 1) * blocks[0].size))  # every piece's RK4 buffers
    for lo in range(0, len(starts), width):
        window = slice(lo, lo + width)
        phi, peak = None, 0.0
        for k in range(0, steps, span):
            end = min(k + span, steps)
            gammas = rates_at(gen, starts[window, None]
                              + (0.5 * h) * np.arange(2 * k, 2 * end + 1))
            if phi is None:
                first = gammas[:, :, 0]
            peak = np.maximum(peak, np.abs(gammas).max(axis=(0, 2), initial=0.0))
            block = _rk4_product(blocks, gammas, h, work)
            phi = block if phi is None else block @ phi
        # The Choi states are exactly Hermitian by construction, for any real
        # transfer matrices: only the trace needs a check.
        _require_trace_preserving(phi, d)
        yield window, first, peak, phi


def warn_caller(message: str) -> None:
    """Warn, attributing the warning to the nearest caller outside this
    package, or to the line of `cli.py` that called the library."""
    frame, level = sys._getframe(2), 3
    while (frame is not None and frame.f_code.co_filename.startswith(_PACKAGE_PREFIX)
           and frame.f_code.co_filename != _CLI_FILE):
        frame, level = frame.f_back, level + 1
    warnings.warn(message, stacklevel=level)


def _default_steps(name: str, span: float) -> int:
    """RK4 steps over span at DEFAULT_STEPS_PER_UNIT, at least 1. A span
    whose step count is not finite, or above MAX_WINDOW_STEPS, is refused,
    naming the argument that gives it and its value."""
    steps = DEFAULT_STEPS_PER_UNIT * span
    if not np.isfinite(steps):
        raise ValueError(f"{name} = {span} gives a non-finite number of RK4 steps "
                         f"at {DEFAULT_STEPS_PER_UNIT} per unit time")
    if round(steps) > MAX_WINDOW_STEPS:
        raise ValueError(f"{name} = {span} gives {steps:.7g} RK4 steps at "
                         f"{DEFAULT_STEPS_PER_UNIT} per unit time, more than the "
                         f"{MAX_WINDOW_STEPS} one window may take")
    return max(1, round(steps))


def guard_step(step: float, rows: np.ndarray, times: np.ndarray, message: str) -> None:
    """Warn, naming the caller's line, when a fixed step is too coarse for
    the rates it takes: when step * max|gamma| over the rate rows
    (K, n, ...) at n times reaches SMALL_TIME_RATE_LIMIT. The warning is
    message formatted with that peak and the first of the times whose rates
    reach it, followed by the limit."""
    # max|step*gamma| = step*max|gamma| exactly: rounding is monotone.
    peak = step * np.abs(rows).max(initial=0.0)
    if peak >= SMALL_TIME_RATE_LIMIT:
        at = times[np.abs(rows).max(axis=0).reshape(len(times), -1).max(axis=1).argmax()]
        warn_caller(message.format(peak, at) + f" (limit {SMALL_TIME_RATE_LIMIT})")


def _guard_rk4(h: float, peaks: np.ndarray, starts: np.ndarray) -> None:
    """`guard_step` over windows given by their starts and largest |gamma|."""
    guard_step(h, peaks[None], starts, "RK4 step is dubious: max |h*gamma| = {:.3g} "
                                       "in the window starting at t = {:.6g}")


def propagate_map(
    gen: LindbladGenerator, t0: float, t1: float, steps: int | None = None
) -> np.ndarray:
    """Time-ordered propagator Phi(t1, t0) of the generator: its row-major
    superoperator, a complex d^2 x d^2 array, read off the map's Choi state
    C as S[(a, b), (i, j)] = d C[(i, a), (j, b)].

    Fixed-step fourth-order integration with step (t1 - t0)/steps, steps an
    integer >= 1 and at most MAX_WINDOW_STEPS; the default resolution is
    1000 steps per unit time, and a span that needs more than
    MAX_WINDOW_STEPS of them is refused.
    Doubling the steps must not move the result by more than ~1e-8 in
    max-entry norm at the default resolution for the rate scales in scope.
    Both times must be finite real numbers, and a time the rate models are
    not defined at (t < 0) is refused, the empty interval t1 == t0 too.
    Warns and refuses as the bridge sweep does: when some step has
    |h * gamma| >= 0.1, naming t0 as the window start, and when the map is
    not trace preserving (`_require_trace_preserving`).
    """
    for name, t in (("t0", t0), ("t1", t1)):
        require_real(name, t)
        if not np.isfinite(t):
            raise ValueError(f"{name} must be finite, got {t}")
    if t1 < t0:
        raise ValueError(f"require t1 >= t0, got t0 = {t0}, t1 = {t1}")
    if steps is None:
        steps = _default_steps("t1 - t0", t1 - t0)
    steps = require_count("steps", steps, 1)
    if steps > MAX_WINDOW_STEPS:
        raise ValueError(f"steps = {steps} is more than the {MAX_WINDOW_STEPS} RK4 steps "
                         "one window may take")
    require_rate_times(np.array([float(t0)]))
    d = gen.dim
    if t1 == t0:
        return np.eye(d * d, dtype=complex)
    start, h = np.array([float(t0)]), (t1 - t0) / steps
    ((_, _, peak, phi),) = _rk4_chunks(gen, start, h, steps)
    _guard_rk4(h, peak, start)
    state = from_hermitian_basis(phi[0], d).reshape(d, d, d, d)
    return d * state.transpose(1, 3, 0, 2).reshape(d * d, d * d)


def bridge_moments(gen: LindbladGenerator, starts, delta: float
                   ) -> tuple[np.ndarray, np.ndarray]:
    """Choi moments of the bridge maps Lambda(t + delta, t), one per start t
    of the 1-D array starts (any other shape is refused, naming starts).

    Each bridge is integrated directly over its own window with
    max(1, round(DEFAULT_STEPS_PER_UNIT * delta)) RK4 steps, so no
    propagator from 0 is formed or inverted; a delta that needs more than
    MAX_WINDOW_STEPS of them is refused, naming delta. Returns the rates
    gamma_i(t) at the starts as rows, (K, W), and a read-only table (3, W):
    each bridge's smallest Choi eigenvalue, r_2 = Tr C^2 and r_3 = Tr C^3.
    Warns, naming the window, when some step has |h * gamma| >= 0.1 (near a
    rate pole, where the fixed step loses accuracy).

    The sweep is a pure function of the generator, delta and the starts'
    bits, so the most recent one is cached: a repeat call returns the same
    read-only table and evaluates no rate, and warns again as the first
    did. `detect.assess` reads a witness and a scan off one call.
    """
    require_positive("delta", delta)
    steps = _default_steps("delta", delta)
    starts = np.asarray(starts, dtype=float)
    if starts.ndim != 1:
        raise ValueError(f"starts must be a 1-D array of times, got shape {starts.shape}")
    rows, peaks, table = _sweep(gen, float(delta), steps, starts.tobytes())
    _guard_rk4(float(delta) / steps, peaks, starts)
    return rows.copy(), table


@lru_cache(maxsize=1)
def _sweep(gen: LindbladGenerator, delta: float, steps: int, starts: bytes
           ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """`bridge_moments`'s sweep from the bytes of its starts: the rates at
    them (K, W), each window's largest |gamma| (W,) and the table (3, W),
    all read-only. No spectrum outlives its chunk."""
    starts = np.frombuffer(starts)
    d = gen.dim
    rows = np.empty((len(gen.dissipators), starts.size))
    peaks = np.empty(starts.size)
    table = np.empty((3, starts.size))
    for window, first, peak, maps in _rk4_chunks(gen, starts, delta / steps, steps):
        rows[:, window], peaks[window] = first, peak
        lam = np.linalg.eigvalsh(from_hermitian_basis(maps, d))
        table[:, window] = lam[:, 0], np.sum(lam**2, axis=1), np.sum(lam**3, axis=1)
    for array in (rows, peaks, table):
        array.setflags(write=False)
    return rows, peaks, table
