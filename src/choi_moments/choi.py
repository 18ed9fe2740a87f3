"""Propagation of a generator and the Choi spectra of its bridge maps.

The normalized convention is used throughout: the Choi state of a map M is
(I kron M) applied to the projector onto (1/sqrt(d)) sum_i |ii>, so it has
unit trace for trace-preserving M. The unnormalized d*C convention is
deliberately not used anywhere -- the moment formulas downstream assume unit
trace.

This module reads the finite-interval Choi states of the maps bridging two
times of a propagated evolution; the small-time states are read from the
generator's own tables (`LindbladGenerator.small_time_moments`). Rates are
rows from the models (`rates_at`) into the RK4 kernel, one row per jump
operator: (K, W, 2m + 1) for the half-step times of W windows of m RK4
steps, so every step is a small matrix product or a reduction across a few
long rows. All propagation goes through one batched fixed-step RK4 kernel:
`propagate_map` runs it over one window, and `bridge_spectra` over one
window [t, t + delta] per grid time, handing its most recent sweep's
read-only spectra to the next call with the same generator, step and rates.
The kernel weights the generator's read-only real transfer blocks
[S_0, S_1, ...], its Hamiltonian part and each dissipator at unit rate in an
orthonormal basis of Hermitian operators, built from the operators
themselves (`LindbladGenerator.transfer_blocks`), by the coefficients
[1, gamma_1, ...] of the rates. No complex superoperator of the generator
is formed anywhere in the package. The kernel runs in real arithmetic, on
stacks of several windows at once (up to CHUNK_ENTRIES matrix entries: four
64 x 64 maps at d = 8), and each caller leaves the real basis once per map,
with O(d^4) slices and no matrix product, always as the map's Choi state:
`bridge_spectra` eigensolves the states, and `propagate_map` realigns its
one state into the row-major superoperator, S[(a, b), (i, j)] =
d C[(i, a), (j, b)]. The kernel checks the trace of every map it
integrates, with no Choi state: Tr C = Tr Lambda(I)/d is a sum of d^2
entries of the real transfer matrix, those between the diagonal basis
elements E_ii.

Every fixed step the package reads a map over, epsilon for the small-time
state and h for each RK4 step, passes one guard (`guard_step`), the only
reader of SMALL_TIME_RATE_LIMIT: it warns, naming the caller's line, when
the step times the largest |gamma| reaches that limit. Both ways into the
kernel take their rates and step from one function, which runs the guard.
"""

import os
import sys
import warnings

import numpy as np

from .lindblad import (CHUNK_ENTRIES, LindbladGenerator, from_hermitian_basis, rates_at,
                       require_count, require_positive, require_real)
from .rates import require_rate_times

__all__ = [
    "max_entangled_projector",
    "propagate_map",
    "bridge_spectra",
]

# Fixed-step integrator resolution: steps per unit time.
DEFAULT_STEPS_PER_UNIT = 1000
# |eps * gamma| above which the first-order small-time Choi is dubious, and
# |h * gamma| above which a fixed RK4 step is (read by `guard_step` alone).
SMALL_TIME_RATE_LIMIT = 0.1
# Largest deviation from 1 of the Choi trace of a map the kernel integrates.
_CHOI_TRACE_ATOL = 1e-6
# Source files of this package, skipped when a warning names its caller,
# except the command line front end: it calls the library as any caller
# does, and past it lie only runpy or an entry-point script.
_PACKAGE_PREFIX = os.path.dirname(__file__) + os.sep
_CLI_FILE = _PACKAGE_PREFIX + "cli.py"

# The most recent bridge sweep: ((generator, step, half-step rates' shape,
# their bytes), read-only spectra). It is replaced as one tuple, so a thread
# reads either the old sweep or the new one, never a mix.
_last_sweep = None


def max_entangled_projector(d: int) -> np.ndarray:
    """Rank-1 projector onto (1/sqrt(d)) sum_i |ii>; trace 1, purity 1."""
    d = require_count("d", d, 2)
    phi = np.zeros(d * d, dtype=complex)
    phi[:: d + 1] = 1.0 / np.sqrt(d)
    return np.outer(phi, phi.conj())


def _require_trace_preserving(trace: np.ndarray) -> None:
    """Refuse maps whose Choi traces (real, any shape) are not all 1 within
    1e-6, or not finite: maps that are not trace preserving."""
    trace_dev = float(np.max(np.abs(trace - 1.0)))
    if not trace_dev <= _CHOI_TRACE_ATOL:  # NaN compares false either way
        raise ValueError(
            f"map is not trace preserving: Choi trace deviation {trace_dev:.3e} "
            + (f"exceeds {_CHOI_TRACE_ATOL:.1e}" if np.isfinite(trace_dev)
               else "is non-finite")
        )


def _rk4_product(blocks: np.ndarray, gammas: np.ndarray, h: float) -> np.ndarray:
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
    """
    coef = np.concatenate((np.ones((1,) + gammas.shape[1:]), gammas))
    a = coef.reshape(len(coef), -1).T @ blocks.reshape(len(blocks), -1)
    a = a.reshape(*coef.shape[1:], *blocks.shape[1:])
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
    identity over every window whose half-step rates are the rows gammas
    (K, W, 2m + 1).

    Yields (window slice, propagators) chunk by chunk, the propagators as
    real transfer matrices in the generator's Hermitian operator basis,
    each checked to be trace preserving (`_require_trace_preserving`). A
    chunk holds at most CHUNK_ENTRIES matrix entries per stack: `width`
    whole windows when a window's steps fit, otherwise one window whose
    steps are taken `span` at a time.
    """
    blocks, d = gen.transfer_blocks, gen.dim
    windows, steps = gammas.shape[1], (gammas.shape[2] - 1) // 2
    per_chunk = max(1, CHUNK_ENTRIES // blocks[0].size)
    width = max(1, per_chunk // steps)
    span = max(1, per_chunk // width)
    for lo in range(0, windows, width):
        phi = None
        for k in range(0, steps, span):
            end = min(k + span, steps)
            block = _rk4_product(blocks, gammas[:, lo:lo + width, 2 * k:2 * end + 1], h)
            phi = block if phi is None else block @ phi
        # The Choi states are exactly Hermitian by construction, for any real
        # transfer matrices: only the trace needs a check, and it needs no
        # Choi state. Tr C = Tr Lambda(I)/d = (1/d) sum_ij T[(jj), (ii)],
        # since I has coordinate 1 at each E_ii, and E_ii has unit trace
        # while the other basis elements are traceless.
        _require_trace_preserving(phi[:, :: d + 1, :: d + 1].sum(axis=(1, 2)) / d)
        yield slice(lo, lo + width), phi


def warn_caller(message: str) -> None:
    """Warn, attributing the warning to the nearest caller outside this
    package, or to the line of `cli.py` that called the library."""
    frame, level = sys._getframe(2), 3
    while (frame is not None and frame.f_code.co_filename.startswith(_PACKAGE_PREFIX)
           and frame.f_code.co_filename != _CLI_FILE):
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


def _default_steps(name: str, span: float) -> int:
    """RK4 steps over span at DEFAULT_STEPS_PER_UNIT, at least 1. A span
    whose step count is not finite is refused, naming the argument that
    gives it and its value."""
    steps = DEFAULT_STEPS_PER_UNIT * span
    if not np.isfinite(steps):
        raise ValueError(f"{name} = {span} gives a non-finite number of RK4 steps "
                         f"at {DEFAULT_STEPS_PER_UNIT} per unit time")
    return max(1, round(steps))


def guard_step(step: float, rows: np.ndarray, times: np.ndarray, message: str) -> None:
    """Warn, naming the caller's line, when a fixed step is too coarse for
    the rates it takes: when step * max|gamma| over the rate rows
    (K, n, ...) at n times reaches SMALL_TIME_RATE_LIMIT. The warning is
    message formatted with that peak and the first of the times whose rates
    reach it, followed by the limit."""
    if not rows.size:
        return
    # max|step*gamma| = step*max|gamma| exactly: rounding is monotone.
    peak = step * max(rows.max(), -rows.min())
    if peak >= SMALL_TIME_RATE_LIMIT:
        at = times[np.abs(rows).max(axis=0).reshape(len(times), -1).max(axis=1).argmax()]
        warn_caller(message.format(peak, at) + f" (limit {SMALL_TIME_RATE_LIMIT})")


def _step_rates(gen: LindbladGenerator, starts: np.ndarray, span: float, steps: int
                ) -> tuple[np.ndarray, float]:
    """The rates of windows [t, t + span], one per start t, at the
    2*steps + 1 half-step times of each as rows, (K, W, 2*steps + 1), and
    the RK4 step h = span/steps, warning (`guard_step`) when some window
    has |h * gamma| >= 0.1. A step's end time is the next step's start, so
    a step costs two rate evaluations.
    """
    h = span / steps
    gammas = rates_at(gen, starts[:, None] + (0.5 * h) * np.arange(2 * steps + 1))
    guard_step(h, gammas, starts, "RK4 step is dubious: max |h*gamma| = {:.3g} "
                                  "in the window starting at t = {:.6g}")
    return gammas, h


def propagate_map(
    gen: LindbladGenerator, t0: float, t1: float, steps: int | None = None
) -> np.ndarray:
    """Time-ordered propagator Phi(t1, t0) of the generator: its row-major
    superoperator, a complex d^2 x d^2 array, read off the map's Choi state
    C as S[(a, b), (i, j)] = d C[(i, a), (j, b)].

    Fixed-step fourth-order integration with step (t1 - t0)/steps, steps an
    integer >= 1; the default resolution is 1000 steps per unit time, and a
    span too long for a finite count of them is refused.
    Doubling the steps must not move the result by more than ~1e-8 in
    max-entry norm at the default resolution for the rate scales in scope.
    Both times must be finite real numbers, and a time the rate models are
    not defined at (t < 0) is refused, the empty interval t1 == t0 too.
    Warns and refuses as the bridge sweep does: when some step has
    |h * gamma| >= 0.1, naming t0 as the window start, and when the map is
    not trace preserving within 1e-6.
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
    require_rate_times(np.array([float(t0)]))
    d = gen.dim
    if t1 == t0:
        return np.eye(d * d, dtype=complex)
    gammas, h = _step_rates(gen, np.array([float(t0)]), t1 - t0, steps)
    ((_, phi),) = _rk4_chunks(gen, gammas, h)
    state = from_hermitian_basis(phi[0], d).reshape(d, d, d, d)
    return d * state.transpose(1, 3, 0, 2).reshape(d * d, d * d)


def bridge_spectra(gen: LindbladGenerator, starts, delta: float
                   ) -> tuple[np.ndarray, np.ndarray]:
    """Choi spectra of the bridge maps Lambda(t + delta, t), one per start t
    of the 1-D array starts (any other shape is refused, naming starts).

    Each bridge is integrated directly over its own window with
    max(1, round(DEFAULT_STEPS_PER_UNIT * delta)) RK4 steps, so no
    propagator from 0 is formed or inverted; a delta too long for a finite
    count of them is refused, naming delta. Returns the rates gamma_i(t)
    at the starts as rows, (K, W), and each bridge's Choi eigenvalues in
    descending order, (W, d^2), read-only.
    Warns, naming the window, when some step has |h * gamma| >= 0.1 (near a
    rate pole, where the fixed step loses accuracy).

    The rates are evaluated, checked and warned about on every call. When the
    generator is the previous sweep's, and the step and every half-step rate
    equal that sweep's bit for bit, that sweep's spectra, the same read-only
    array, are returned instead of being integrated and eigensolved again:
    a finite-interval witness and a scan on one grid and delta share one sweep.
    A generator is immutable, so it stands for its transfer blocks.
    """
    global _last_sweep
    require_positive("delta", delta)
    steps = _default_steps("delta", delta)
    starts = np.asarray(starts, dtype=float)
    if starts.ndim != 1:
        raise ValueError(f"starts must be a 1-D array of times, got shape {starts.shape}")
    gammas, h = _step_rates(gen, starts, delta, steps)
    # The bytes tell 0.0 from -0.0, which == would not.
    key = (gen, h, gammas.shape, gammas.tobytes())
    last = _last_sweep
    if last is not None and last[0] == key:
        _debug("reused the last sweep of %d windows", starts.size)
        return gammas[:, :, 0].copy(), last[1]
    d = gen.dim
    spectra = np.empty((starts.size, d * d))
    for window, maps in _rk4_chunks(gen, gammas, h):
        spectra[window] = np.linalg.eigvalsh(from_hermitian_basis(maps, d))[:, ::-1]
    spectra.setflags(write=False)
    _last_sweep = (key, spectra)
    _debug("swept %d windows, d = %d", starts.size, d)
    return gammas[:, :, 0].copy(), spectra
