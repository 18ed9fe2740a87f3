"""Choi states of intermediate dynamical maps and their moments and spectra.

The normalized convention is used throughout: the Choi state of a map M is
(I kron M) applied to the projector onto (1/sqrt(d)) sum_i |ii>, so it has
unit trace for trace-preserving M. The unnormalized d*C convention is
deliberately not used anywhere -- the moment formulas downstream assume unit
trace.

Two kinds of Choi state are read: the small-time state of the map on
[t, t + eps], built from the generator, and the finite-interval state of the
map bridging two times of a propagated evolution. The small-time map takes
its Hamiltonian part exactly and its dissipator to first order,
e^{eps L_H} (1 + eps D(t)), so its Choi state is a local unitary
conjugation of bell + eps X_D(t), with X_D the Choi image of the dissipator
alone, and has the same moments. Those moments are exact polynomials in
eps, evaluated from traces of the dissipators' Choi blocks with no
eigensolve (`SmallTimeChoiBuilder.moments`), contractions of the Gram
matrix of three factors per jump operator: no Choi matrix or block is formed.
Those trace tables, and every other table that depends on the generator
alone, are built once per generator: it holds one read-only builder, made
on first use (`LindbladGenerator.small_time_builder`). The part of its
spectrum off the Bell direction, at most K eigenvalues for K jump operators,
follows one rule (`SmallTimeChoiBuilder.projected_spectra`): when the
operators are pairwise trace-orthogonal (a Gram entry
|G_ij| <= 1e-14 sqrt(G_ii G_jj) counts as zero) each gives its eigenvalue
with no solve, and any other set gives the spectrum of its rate-weighted
Gram matrix, all operators in one solve. Rates are rows from the models
(`rates_at`) into the RK4 kernel, one row per jump operator: (K, n) for n
grid times, (K, W, 2m + 1) for the half-step times of W windows of m RK4
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
with O(d^4) slices and no matrix product: `propagate_map` for the row-major
superoperator of the map, `bridge_spectra` for the Choi states it
eigensolves. A bridge's trace check needs no Choi
state: Tr C = Tr Lambda(I)/d is a sum of d^2 entries of its real transfer
matrix, those between the diagonal basis elements E_ii.
"""

import os
import sys
import warnings
from functools import cached_property

import numpy as np

from .lindblad import (LindbladGenerator, from_hermitian_basis, rates_at, require_count,
                       require_positive)

__all__ = [
    "max_entangled_projector",
    "propagate_map",
    "bridge_spectra",
]

# Fixed-step integrator resolution: steps per unit time.
DEFAULT_STEPS_PER_UNIT = 1000
# |eps * gamma| above which the first-order small-time Choi is dubious, and
# |h * gamma| above which a fixed RK4 step of a bridge is.
SMALL_TIME_RATE_LIMIT = 0.1
# Matrix entries one stacked chunk holds: d^2 x d^2 maps in a batched RK4
# stack (one matrix per window step), or the small matrices of a stacked
# spectrum solve. Bounds memory whatever the grid size. 16384 stacks four
# one-step windows at d = 8, so their RK4 products, basis changes and
# eigensolves are one call each, for about 0.7 MB more peak memory than a
# stack of one (4096); 65536 would cost about 4.6 MB more.
CHUNK_ENTRIES = 16384
# Largest deviation from 1 of a bridge's Choi trace.
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


class SmallTimeChoiBuilder:
    """The Choi image X_D(t) = sum_k gamma_k(t) B_k of the generator's
    dissipator, and the moments of the small-time Choi states of the maps
    on [t, t + eps].

    B_k, the Choi image of dissipator k, comes in closed form from its jump
    operator alone: B_k = (v_k v_k^dag - (w_k e^dag + e w_k^dag)/2)/d =
    F_k M F_k^dag, over the d^2 x 3 factors F_k = [v_k, w_k, e] with
    v_k = vec(L_k^T), w_k = vec((L_k^dag L_k)^T) and e = vec(I), all
    row-major, and M = [[1, 0, 0], [0, 0, -1/2], [0, -1/2, 0]]/d. No block
    is formed: every table contracts the Gram matrix G_kl = F_k^dag F_l,
    (K, 3, K, 3), and p_k = F_k^dag Phi+. The
    small-time map e^{eps L_H} (1 + eps D(t)) takes the Hamiltonian part
    exactly, so its Choi state is (I kron U)(bell + eps X_D(t))(I kron U)^dag,
    with U = e^{-i eps H}, and has the moments of bell + eps X_D: the
    Hamiltonian enters no table. (The first-order state bell + eps X, with
    the Hamiltonian's Choi image in X, is not a state: that part alone gives
    a positive witness of order eps^2 |H|^2.) The generator enters only
    through its rates, so a grid costs one rate call and one product of the
    rates with tables of traces of the blocks (`moments`, which needs no
    eigensolve). Rates come as rows, (K, n) for n times, as `rates_at`
    returns them: numpy runs a reduction along a short last axis row by
    row, but across rows as whole-row operations.

    Everything that depends on the generator alone is built once from its
    operator stack (`LindbladGenerator.operators`, (K, d, d)), read-only:
    here `bell_overlaps`, x_k = p_k^dag M p_k; `trace_tables`, the tables of
    `moments`, Tr(B_k B_l) = Tr(M G_kl M G_lk) and Re <Phi+|B_k B_l|Phi+> =
    Re (M p_k)^dag G_kl (M p_l), (K, K), and Re Tr(B_k B_l B_m) =
    Re Tr(M G_kl M G_lm M G_mk), flattened over (k, l) to (K^2, K); and
    `dissipator_scales`, ||B_k||_F = sqrt(Tr B_k^2); on first use, the table
    of `projected_spectra` (`projected_table`). K = 0 gives empty tables.
    Each generator holds one builder, `LindbladGenerator.small_time_builder`;
    `SmallTimeChoiBuilder(gen)` gives the same tables.

    Off the Bell direction, with Q = I - bell, each dissipator leaves one
    rank-1 term, Q B_k Q = v_k v_k^dag with v_k = vec((L_k - Tr(L_k)/d I)^T)/sqrt(d).
    So Q X_D Q = V diag(gamma) V^dag, and its nonzero spectrum follows one rule
    (`projected_spectra`): when the v_k are pairwise orthogonal, a pair
    counting as orthogonal when |G_ij| <= 1e-14 sqrt(G_ii G_jj) for the Gram
    matrix G = V^dag V, it is gamma_k G_kk, one value per operator with no
    solve; otherwise it is the spectrum of R diag(gamma) R^dag, with V = W R
    the thin QR of all of V, so no coupling between operators is dropped.
    The rule treats a pair within the threshold as exactly orthogonal, which
    moves the eigenvalues by the order of 1e-14 sum_k |gamma_k| G_kk, two
    orders below the 1e-12 noise rule of `detect._rate_limits`.
    """

    def __init__(self, gen: LindbladGenerator):
        self.gen = gen
        ops = gen.operators
        d, k = gen.dim, len(ops)
        # The factors F_k = [v_k, w_k, e] as rows, (K, 3, d^2), and their
        # Gram matrix G_kl = F_k^dag F_l, (K, 3, K, 3).
        factors = np.empty((k, 3, d * d), dtype=complex)
        flipped = np.swapaxes(ops, 1, 2)
        factors[:, 0] = flipped.reshape(k, d * d)
        factors[:, 1] = np.swapaxes(flipped.conj() @ ops, 1, 2).reshape(k, d * d)
        factors[:, 2] = e = np.eye(d).ravel()
        rows = factors.reshape(3 * k, d * d)
        gram = (rows.conj() @ rows.T).reshape(k, 3, k, 3)
        weight = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, -0.5], [0.0, -0.5, 0.0]]) / d
        # A_kl = M G_kl, p_k = F_k^dag Phi+ with Phi+ = e/sqrt(d), and M p_k.
        a = np.einsum("ab,kblc->kalc", weight, gram)
        p = factors.conj() @ e / np.sqrt(d)
        mp = p @ weight
        # x_k = <Phi+|B_k|Phi+> = p_k^dag M p_k, so that <Phi+|X_D|Phi+> = x . gamma.
        self.bell_overlaps = np.einsum("ka,ka->k", p.conj(), mp).real
        self.trace_tables = (
            np.einsum("kalb,lbka->kl", a, a).real,
            np.einsum("ka,kalb,lb->kl", mp.conj(), gram, mp).real,
            np.einsum("kalb,lbmc,mcka->klm", a, a, a).real.reshape(k * k, k))
        # ||B_k||_F, the noise floor's scale: a zero block's Tr B_k^2 may round below 0.
        self.dissipator_scales = np.sqrt(np.maximum(self.trace_tables[0].diagonal(), 0.0))
        for table in (self.bell_overlaps, self.dissipator_scales, *self.trace_tables):
            table.setflags(write=False)

    @cached_property
    def projected_table(self) -> np.ndarray:
        """The table `projected_spectra` reads, decided once from the Gram
        matrix G = V^dag V of the centred vectors
        v_k = vec((L_k - Tr(L_k)/d I)^T)/sqrt(d): the diagonal G_kk, (K,),
        when every pair is orthogonal (|G_ij| <= 1e-14 sqrt(G_ii G_jj) for
        i != j); otherwise the outer products r_k r_k^dag, (K, m, m) with
        m = min(K, d^2), over the columns r_k of R in the thin QR V = W R, so
        that R diag(gamma) R^dag is their gamma-weighted sum. Built on first
        use; the array is read-only.
        """
        ops = self.gen.operators
        k, d = ops.shape[:2]
        traceless = ops - np.trace(ops, axis1=1, axis2=2)[:, None, None] / d * np.eye(d)
        v = np.swapaxes(traceless, 1, 2).reshape(k, d * d).T / np.sqrt(d)
        gram = v.conj().T @ v
        norms = gram.diagonal().real.copy()
        linked = np.abs(gram) > 1e-14 * np.sqrt(np.outer(norms, norms))
        np.fill_diagonal(linked, False)
        if linked.any():
            r = np.linalg.qr(v, mode="r")
            table = np.einsum("ik,jk->kij", r, r.conj())
        else:
            table = norms
        table.setflags(write=False)
        return table

    def projected_spectra(self, gammas: np.ndarray) -> np.ndarray:
        """The nonzero spectrum of Q X Q for each column of rates gammas
        (K, n), shape (m, n) with m <= K, from `projected_table`.

        Pairwise orthogonal operators give m = K eigenvalues gamma_k G_kk, in
        operator order, with no solve. Any other set gives the min(K, d^2)
        eigenvalues of R diag(gamma) R^dag, ascending, in stacked solves of
        at most CHUNK_ENTRIES matrix entries. V may be rank deficient (a
        repeated operator gives a repeated column): R diag(gamma) R^dag then
        has zero eigenvalues, as Q X Q has.
        """
        table = self.projected_table
        if table.ndim == 1:
            return gammas * table[:, None]
        m, n = table.shape[-1], gammas.shape[1]
        mu = np.empty((m, n))
        width = max(1, CHUNK_ENTRIES // (m * m))
        flat = table.reshape(len(table), m * m)
        for lo in range(0, n, width):
            chunk = (gammas[:, lo:lo + width].T @ flat).reshape(-1, m, m)
            mu[:, lo:lo + width] = np.linalg.eigvalsh(chunk).T
        return mu

    def moments(self, gammas: np.ndarray, epsilon: float):
        """r_2, r_3 and r_2^2 - r_3 of the small-time Choi state for each
        column of rates gammas (K, n), each of shape (n,), with no eigensolve.

        The state has the moments of bell + eps * X_D, X_D = sum_k gamma_k B_k
        over the dissipator blocks alone. bell is a rank-1 projector, so with
        x0 = <Phi+|X_D|Phi+>, s2 = Tr X_D^2, sb = <Phi+|X_D^2|Phi+> and
        s3 = Tr X_D^3,

            r_2 = 1 + 2 eps x0 + eps^2 s2,
            r_3 = 1 + 3 eps x0 + 3 eps^2 sb + eps^3 s3,

        and r_2^2 - r_3 is expanded in eps so that the leading 1s cancel
        exactly. x0, s2, sb and s3 are forms in the rates gamma of degree 1,
        2, 2 and 3 over the tables x_k, Tr(B_k B_l), Re <Phi+|B_k B_l|Phi+>
        and Re Tr(B_k B_l B_m); the blocks are Hermitian, so the real parts
        are the whole contractions. The tables are built with the builder
        (`trace_tables`). Each form is a small matrix product over long
        rows, one row per block:
        x0 = x . gamma, s2 = sum_k gamma_k (T2 gamma)_k, likewise sb, and
        s3 = sum_k gamma_k sum_l gamma_l (T3 gamma)_kl.
        """
        traces2, bell_pairs, traces3 = self.trace_tables
        k, n = gammas.shape
        x0 = self.bell_overlaps @ gammas
        s2 = np.einsum("kn,kn->n", gammas, traces2 @ gammas)
        sb = np.einsum("kn,kn->n", gammas, bell_pairs @ gammas)
        s3 = np.einsum("kn,kn->n", gammas,
                       np.einsum("kln,ln->kn", (traces3 @ gammas).reshape(k, k, n), gammas))
        eps = float(epsilon)
        r2 = 1.0 + 2.0 * eps * x0 + eps**2 * s2
        r3 = 1.0 + 3.0 * eps * x0 + 3.0 * eps**2 * sb + eps**3 * s3
        values = (eps * x0 + eps**2 * (4.0 * x0**2 + 2.0 * s2 - 3.0 * sb)
                  + eps**3 * (4.0 * x0 * s2 - s3) + eps**4 * s2**2)
        return r2, r3, values


def _half_step_rates(
    gen: LindbladGenerator, starts: np.ndarray, h: float, steps: int
) -> np.ndarray:
    """Rates at the 2*steps + 1 half-step times of every window as rows,
    (K, W, 2*steps + 1). A step's end time is the next step's start, so a
    step costs two rate evaluations.
    """
    return rates_at(gen, starts[:, None] + (0.5 * h) * np.arange(2 * steps + 1))


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
    real transfer matrices in the generator's Hermitian operator basis. A
    chunk holds at most CHUNK_ENTRIES matrix entries per stack: `width`
    whole windows when a window's steps fit, otherwise one window whose
    steps are taken `span` at a time.
    """
    blocks = gen.transfer_blocks
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


def propagate_map(
    gen: LindbladGenerator, t0: float, t1: float, steps: int | None = None
) -> np.ndarray:
    """Time-ordered propagator Phi(t1, t0) of the generator: its row-major
    superoperator, a complex d^2 x d^2 array.

    Fixed-step fourth-order integration with step (t1 - t0)/steps, steps an
    integer >= 1; the default resolution is 1000 steps per unit time.
    Doubling the steps must not move the result by more than ~1e-8 in
    max-entry norm at the default resolution for the rate scales in scope.
    Both times must be finite.
    """
    for name, t in (("t0", t0), ("t1", t1)):
        if not np.isfinite(t):
            raise ValueError(f"{name} must be finite, got {t}")
    if t1 < t0:
        raise ValueError(f"require t1 >= t0, got t0 = {t0}, t1 = {t1}")
    if steps is None:
        steps = max(1, round(DEFAULT_STEPS_PER_UNIT * (t1 - t0)))
    steps = require_count("steps", steps, 1)
    if t1 == t0:
        return np.eye(gen.dim * gen.dim, dtype=complex)
    h = (t1 - t0) / steps
    gammas = _half_step_rates(gen, np.array([float(t0)]), h, steps)
    ((_, phi),) = _rk4_chunks(gen, gammas, h)
    return from_hermitian_basis(phi[0], gen.dim)


def bridge_spectra(gen: LindbladGenerator, starts, delta: float
                   ) -> tuple[np.ndarray, np.ndarray]:
    """Choi spectra of the bridge maps Lambda(t + delta, t), one per start t.

    Each bridge is integrated directly over its own window with
    max(1, round(DEFAULT_STEPS_PER_UNIT * delta)) RK4 steps, so no
    propagator from 0 is formed or inverted. Returns the rates gamma_i(t)
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
    steps = max(1, round(DEFAULT_STEPS_PER_UNIT * delta))
    starts = np.asarray(starts, dtype=float)
    h = delta / steps
    gammas = _half_step_rates(gen, starts, h, steps)
    if gammas.size:
        peak = np.max(np.abs(h * gammas), axis=(0, 2))
        w = int(np.argmax(peak))
        if peak[w] >= SMALL_TIME_RATE_LIMIT:
            warn_caller(
                f"RK4 step is dubious: max |h*gamma| = {peak[w]:.3g} in the window "
                f"starting at t = {starts[w]:.6g} (limit {SMALL_TIME_RATE_LIMIT})"
            )
    # The bytes tell 0.0 from -0.0, which == would not.
    key = (gen, h, gammas.shape, gammas.tobytes())
    last = _last_sweep
    if last is not None and last[0] == key:
        _debug("reused the last sweep of %d windows", starts.size)
        return gammas[:, :, 0].copy(), last[1]
    d = gen.dim
    spectra = np.empty((starts.size, d * d))
    for window, maps in _rk4_chunks(gen, gammas, h):
        # The Choi states are exactly Hermitian by construction, for any real
        # transfer matrices: only the trace needs a check, and it needs no
        # Choi state. Tr C = Tr Lambda(I)/d = (1/d) sum_ij T[(jj), (ii)],
        # since I has coordinate 1 at each E_ii, and E_ii has unit trace
        # while the other basis elements are traceless.
        _require_trace_preserving(maps[:, :: d + 1, :: d + 1].sum(axis=(1, 2)) / d)
        spectra[window] = np.linalg.eigvalsh(from_hermitian_basis(maps, d, choi=True))[:, ::-1]
    spectra.setflags(write=False)
    _last_sweep = (key, spectra)
    _debug("swept %d windows, d = %d", starts.size, d)
    return gammas[:, :, 0].copy(), spectra
