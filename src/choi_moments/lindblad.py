"""Time-dependent Lindblad generators and their real transfer blocks.

A generator is a Hamiltonian plus a list of (jump operator, rate model)
pairs; its action on a density matrix is

    d rho / dt = -i [H, rho] + sum_i gamma_i(t) (L_i rho L_i^dag
                                                 - (L_i^dag L_i rho + rho L_i^dag L_i) / 2)

so it is affine in the rates: L_t = S_0 + sum_i gamma_i(t) S_i, with S_0 the
Hamiltonian part and S_i dissipator i at unit rate. Vectorization is
row-major project-wide: vec(A X B) = (A kron B^T) vec(X).

Rates leave the models by one path, `rates_at`: rows (K,) + times.shape,
one per dissipator, which every caller down to the RK4 kernel reads as
they are. It refuses a time the models are not defined at and a NaN or
infinite rate.

The generator preserves Hermiticity, so in an orthonormal basis of
Hermitian operators F_p its parts are real matrices, the transfer blocks
T_k[p, q] = Tr(F_p S_k(F_q)), built from the operators themselves
(`LindbladGenerator.transfer_blocks`). The basis is

    E_ii,   (E_ij + E_ji)/sqrt(2)  (i < j),   i (E_ij - E_ji)/sqrt(2)  (i > j),

indexed like the entries of a d x d matrix; U has the columns vec(F_p). U
is sparse: it mixes entry (p, q) of a coordinate vector laid out as a
d x d matrix only with entry (q, p), so leaving the basis costs O(d^4) per
d^2 x d^2 map, with no matrix product. A map leaves it one way, as its
Choi state (`from_hermitian_basis`); its row-major superoperator is that
state realigned, S[(a, b), (i, j)] = d C[(i, a), (j, b)].

The small-time map on [t, t + eps] takes the Hamiltonian part exactly and
the dissipator to first order, so its Choi state is a local unitary
conjugation of bell + eps X_D(t), X_D = sum_k gamma_k B_k the Choi image of
the dissipator alone, and has the same moments. They are exact polynomials
in eps over traces of the blocks B_k (`LindbladGenerator.small_time_moments`),
contractions of one Gram matrix per generator, of three centred factors
per jump operator, so no Choi matrix or block is formed and no eigensolve
is made. The part of the spectrum of X_D off the Bell direction, the
eigenvalues mu_j of Q X_D Q with Q = I - bell, reads the leading block of
the same Gram matrix, the Gram matrix G^c of the centred vectors
Q v_k/sqrt(d). Tr X_D = 0, so <Phi+|X_D|Phi+> = -Tr(Q X_D Q) = -sum_j mu_j,
and the Bell overlaps are x_k = -||Q v_k||^2/d = -G^c_kk. At most K of the
mu_j are nonzero for K jump operators, and they follow one rule
(`LindbladGenerator.projected_spectra`): one eigenvalue per operator with
no solve when the operators are pairwise trace-orthogonal, otherwise one
solve over all of them.

Generators are immutable: their arrays are read-only copies and their rates
immutable `RateModel` values, so all evaluation is pure.
"""

import numbers
import operator
from collections import namedtuple
from functools import cached_property, lru_cache

import numpy as np

from .rates import RateModel, rate_eval, require_rate_times

__all__ = [
    "SIGMA_X",
    "SIGMA_Y",
    "SIGMA_Z",
    "LOWERING",
    "RAISING",
    "NAMED_OPERATORS",
    "named_operator",
    "LindbladGenerator",
    "SmallTimeTables",
    "require_hermitian",
    "rates_at",
    "from_hermitian_basis",
]

def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


# Read-only: every caller in the process shares them (`named_operator` copies).
SIGMA_X = _read_only(np.array([[0, 1], [1, 0]], dtype=complex))
SIGMA_Y = _read_only(np.array([[0, -1j], [1j, 0]], dtype=complex))
SIGMA_Z = _read_only(np.array([[1, 0], [0, -1]], dtype=complex))
LOWERING = _read_only(np.array([[0, 1], [0, 0]], dtype=complex))   # |0><1|
RAISING = _read_only(np.array([[0, 0], [1, 0]], dtype=complex))    # |1><0|

NAMED_OPERATORS = {
    "sigma_x": SIGMA_X,
    "sigma_y": SIGMA_Y,
    "sigma_z": SIGMA_Z,
    "lowering": LOWERING,
    "raising": RAISING,
}

# Absolute tolerance on entrywise asymmetry |m - m^dag|.
HERMITICITY_ATOL = 1e-12
# Matrix entries one stacked chunk holds: d^2 x d^2 maps in a batched RK4
# stack (one matrix per window step), or the small matrices of a stacked
# spectrum solve. Bounds memory whatever the grid size. 16384 stacks four
# one-step windows at d = 8, so their RK4 products, basis changes and
# eigensolves are one call each, for about 0.7 MB more peak memory than a
# stack of one (4096); 65536 would cost about 4.6 MB more.
CHUNK_ENTRIES = 16384


def require_hermitian(m: np.ndarray) -> np.ndarray:
    """Check Hermiticity of ``m`` and return the symmetrized copy (m + m^dag)/2.

    ``m`` is one square matrix or a stack of them along leading axes; the
    last two axes are the matrix axes. Symmetrizing after the check
    stabilizes the eigensolve without masking genuinely non-Hermitian input.

    Raises:
        ValueError: if ``m`` is not square, has a non-finite entry (which
            makes the asymmetry NaN or infinite), or the maximum entrywise
            asymmetry exceeds HERMITICITY_ATOL (the offending magnitude is
            reported).
    """
    m = np.asarray(m, dtype=complex)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    m_dag = np.swapaxes(m, -1, -2).conj()
    with np.errstate(invalid="ignore"):  # inf - inf on the diagonal is refused below
        asymmetry = float(np.max(np.abs(m - m_dag))) if m.size else 0.0
    if not asymmetry <= HERMITICITY_ATOL:  # NaN compares false either way
        if not np.isfinite(asymmetry):
            raise ValueError("matrix has non-finite entries")
        raise ValueError(
            f"matrix is not Hermitian: max |m - m^dag| = {asymmetry:.3e} "
            f"exceeds tolerance {HERMITICITY_ATOL:.1e}"
        )
    return 0.5 * (m + m_dag)


def require_real(name: str, value) -> None:
    """Refuse, with a ValueError naming it, a bool or a value that is not a
    real number ("0.1", None, 1+0j); ints and numpy floats are real."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a real number, got {value!r}")


def require_positive(name: str, value) -> None:
    """Refuse, with a ValueError naming it, a value that is not a positive
    and finite real number."""
    require_real(name, value)
    if not 0.0 < value < np.inf:  # NaN compares false either way
        raise ValueError(f"{name} must be positive and finite, got {value}")


def require_count(name: str, value, minimum: int) -> int:
    """An integer argument, refused with a ValueError naming it when it is a
    bool, not an integer (2.5, 3.0, nan, inf) or below the minimum."""
    try:
        count = operator.index(value)
    except TypeError:
        count = None
    if count is None or isinstance(value, bool):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if count < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {count}")
    return count


def named_operator(name: str, dim: int) -> np.ndarray:
    """Look up a named jump operator, checking it matches the dimension."""
    if name not in NAMED_OPERATORS:
        raise ValueError(
            f"unknown operator name {name!r}; expected one of {sorted(NAMED_OPERATORS)}"
        )
    op = NAMED_OPERATORS[name]
    if op.shape[0] != dim:
        raise ValueError(f"operator {name!r} has dimension {op.shape[0]}, generator declares {dim}")
    return op.copy()


def _basis_weights(d: int) -> np.ndarray:
    """The change of basis U as one (d, d) table w: for a coordinate vector
    y laid out as a d x d matrix, U y = w * (y - i y^T). w is 1/sqrt(2)
    above the diagonal, i/sqrt(2) below it and (1 + i)/2 on it."""
    upper = np.triu(np.ones((d, d), dtype=bool), 1)
    c = np.sqrt(0.5)
    return np.where(upper, c, np.where(upper.T, 1j * c, 0.5 + 0.5j))


@lru_cache
def _rotation_weights(d: int) -> np.ndarray:
    """w_ab conj(w_ij)/d at the Choi entry [(i, a), (j, b)], read-only, (d^2, d^2)."""
    w = _basis_weights(d)
    return _read_only((w.conj()[:, None, :, None] * w[:, None, :]).reshape(d * d, d * d) / d)


def from_hermitian_basis(transfer: np.ndarray, d: int) -> np.ndarray:
    """The Choi states (1/d) sum_ij E_ij kron M(E_ij) of a stack of maps M
    given as real transfer matrices T (..., d^2, d^2), complex: U T U^dag,
    the maps' row-major superoperators, realigned from entry
    [(a, b), (i, j)] to [(i, a), (j, b)] and scaled by 1/d. This is the only
    way out of the Hermitian basis; a caller that wants a superoperator
    realigns the state back, S[(a, b), (i, j)] = d C[(i, a), (j, b)].

    Entry [(i, a), (j, b)] is w_ab conj(w_ij) (P + iQ)/d with
    P = T[(a, b), (i, j)] + T[(b, a), (j, i)] and
    Q = T[(a, b), (j, i)] - T[(b, a), (i, j)]: two real sums over swapped
    views of T, written in the Choi layout, and one scaling; O(d^4) per
    map. Mirrored entries get conjugate weights and P - iQ, so every state
    comes back exactly Hermitian, bit for bit.
    """
    t = transfer.reshape(-1, d, d, d, d)

    def view(*axes):  # T with the given index swaps, laid out as the Choi state
        return t.transpose(axes).transpose(0, 3, 1, 4, 2)

    z = np.empty((len(t), d, d, d, d), dtype=complex)
    np.add(view(0, 1, 2, 3, 4), view(0, 2, 1, 4, 3), out=z.real)
    np.subtract(view(0, 1, 2, 4, 3), view(0, 2, 1, 3, 4), out=z.imag)
    z = z.reshape(-1, d * d, d * d)
    z *= _rotation_weights(d)
    return z.reshape(transfer.shape)


# The read-only tables of the Choi images B_k of the dissipators
# (`LindbladGenerator.small_time_tables`): x_k = <Phi+|B_k|Phi+> =
# -||Q v_k||^2/d, (K,); Tr(B_k B_l) and Re <Phi+|B_k B_l|Phi+>, (K, K);
# Re Tr(B_k B_l B_m), flattened over (k, l) to (K^2, K); ||B_k||_F =
# sqrt(Tr B_k^2), (K,); and the off-Bell table of `projected_spectra`,
# (K,) or (K, m, m).
SmallTimeTables = namedtuple("SmallTimeTables", ("bell_overlaps", "traces2", "bell_pairs",
                                                 "traces3", "dissipator_scales", "off_bell"))


class LindbladGenerator:
    """Hamiltonian plus (jump operator, rate model) dissipator pairs.

    Immutable: the Hamiltonian and the jump operators are read-only copies,
    so the caller's arrays stay writeable and changing them later does not
    change the generator, and assigning or deleting any attribute raises
    AttributeError. The jump operators are held once, as the read-only
    stack `operators` (K, d, d), and each pair of `dissipators` holds a
    view of its operator there. Construction only checks its arguments: it
    refuses a `dim` that is not an integer of at least 2 (`require_count`),
    and a dissipator that is not an (operator, rate) pair whose rate is an
    immutable `rates.RateModel`, naming its index: a generator fixes its
    rates. Every table below is read-only, built from the operators on first
    use and kept: `small_time_tables`, the tables that every small-time
    witness and rate limit reads (`small_time_moments`, `projected_spectra`),
    all from one Gram matrix; and `transfer_blocks`, the generator's parts in
    the Hermitian operator basis, which only the RK4 kernel reads. A
    cached_property writes the instance __dict__ directly, past the refusing
    __setattr__.

    A plain class, not a dataclass, because every process that imports the
    package would otherwise generate and compile its methods. Generators
    compare by identity.
    """

    def __init__(self, dim: int, hamiltonian: np.ndarray,
                 dissipators: tuple[tuple[np.ndarray, RateModel], ...]):
        dim = require_count("dim", dim, 2)
        h = _read_only(require_hermitian(np.asarray(hamiltonian, dtype=complex)))
        if h.shape != (dim, dim):
            raise ValueError(f"Hamiltonian shape {h.shape} does not match dim {dim}")
        ops, rates = [], []
        for index, pair in enumerate(dissipators):
            op, rate = pair if isinstance(pair, tuple | list) and len(pair) == 2 else (None, None)
            if not isinstance(rate, RateModel):
                raise ValueError(f"dissipators[{index}] is not an (operator, rate model) "
                                 "pair whose rate is a RateModel")
            op = np.asarray(op, dtype=complex)
            if op.shape != (dim, dim):
                raise ValueError(f"jump operator shape {op.shape} does not match dim {dim}")
            if not np.all(np.isfinite(op)):
                raise ValueError("jump operator has non-finite entries")
            ops.append(op)
            rates.append(rate)
        stack = _read_only(np.array(ops, dtype=complex).reshape(len(ops), dim, dim))
        vars(self).update(dim=dim, hamiltonian=h, operators=stack,
                          dissipators=tuple(zip(stack, rates)))

    def __repr__(self):
        return (f"LindbladGenerator(dim={self.dim!r}, hamiltonian={self.hamiltonian!r}, "
                f"dissipators={self.dissipators!r})")

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    @cached_property
    def transfer_blocks(self) -> np.ndarray:
        """T_k[p, q] = Tr(F_p S_k(F_q)), (K + 1, d^2, d^2), real: the
        Hamiltonian part S_0 = -i[H, .] and each dissipator S_k at unit rate
        in the Hermitian operator basis, so that L_t = sum_k c_k S_k with
        c = [1, gamma_1(t), ...].

        The basis is the stack F = w * (E - i E^T) over the matrix units E
        (`_basis_weights`). The images S_k(F_q) of every element are
        contracted with conj(F) in one product, as Tr(F_p X) = vec(F_p)^dag
        vec(X) for Hermitian F_p. The imaginary parts are rounding: each
        S_k maps Hermitian to Hermitian.
        """
        d, n, h, ops = self.dim, self.dim * self.dim, self.hamiltonian, self.operators
        units = np.eye(n).reshape(n, d, d)
        basis = _basis_weights(d) * (units - 1j * units.swapaxes(1, 2))
        adjoints = ops.conj().swapaxes(1, 2)[:, None]
        decay = 0.5 * (adjoints @ ops[:, None])
        images = np.concatenate((
            (-1j * (h @ basis - basis @ h))[None],
            ops[:, None] @ basis @ adjoints - (decay @ basis + basis @ decay)))
        t = basis.reshape(n, n).conj() @ images.reshape(-1, n).T  # [p, (k, q)]
        return _read_only(np.ascontiguousarray(t.real.reshape(n, -1, n).swapaxes(0, 1)))

    @cached_property
    def small_time_tables(self) -> SmallTimeTables:
        """The trace tables of the Choi images B_k of the dissipators at unit
        rate, so that X_D(t) = sum_k gamma_k(t) B_k; K = 0 gives empty tables.

        B_k comes in closed form from its jump operator alone:
        B_k = (v_k v_k^dag - (w_k e^dag + e w_k^dag)/2)/d with v_k = vec(L_k^T),
        w_k = vec((L_k^dag L_k)^T) and e = vec(I), all row-major. Centring
        L_k = C_k + a_k I, a_k = Tr(L_k)/d, gives the same block as
        B_k = F_k M F_k^dag over the d^2 x 3 factors F_k = [c_k, u_k, e],
        M = [[1, 0, 0], [0, 0, -1/2], [0, -1/2, 0]]/d, with
        c_k = v_k - a_k e = vec(C_k^T), orthogonal to e, and
        u_k = w_k - 2 conj(a_k) c_k - |a_k|^2 e
            = vec((C_k^dag C_k + a_k C_k^dag - conj(a_k) C_k)^T),
        built from C_k so that no O(|a_k|^2) term cancels. No block is
        formed: every table contracts the one Gram matrix G_kl = F_k^dag F_l,
        (K, 3, K, 3), and p_k = F_k^dag Phi+.

        Off the Bell direction, Q = I - bell, Q e = 0 and Q c_k = c_k, so
        Q B_k Q = c_k c_k^dag/d and Q X_D Q = V diag(gamma) V^dag over the
        columns c_k/sqrt(d) of V, whose Gram matrix is the leading block
        G^c = G[:, 0, :, 0]/d. Tr B_k = 0, so x_k = <Phi+|B_k|Phi+> =
        -Tr(Q B_k Q) = -||Q v_k||^2/d = -G^c_kk: the Bell overlaps are a
        norm, with no difference of O(1) terms. The off-Bell table
        `projected_spectra` reads is decided from G^c: its diagonal, (K,),
        when every pair is orthogonal (|G^c_ij| <= 1e-14 sqrt(G^c_ii G^c_jj)
        for i != j); otherwise the outer products r_k r_k^dag, (K, m, m) with
        m = min(K, d^2), over the columns r_k of R in the thin QR V = W R of
        the c_k columns, so that R diag(gamma) R^dag is their gamma-weighted
        sum. The other tables: Tr(B_k B_l) = Tr(M G_kl M G_lk),
        Re <Phi+|B_k B_l|Phi+> = Re (M p_k)^dag G_kl (M p_l) and
        Re Tr(B_k B_l B_m) = Re Tr(M G_kl M G_lm M G_mk).

        The Hamiltonian enters no table: the small-time state is
        (I kron U)(bell + eps X_D(t))(I kron U)^dag with U = e^{-i eps H},
        which has the moments of bell + eps X_D. (The first-order state
        bell + eps X, with the Hamiltonian's Choi image in X, is not a state:
        that part alone gives a positive witness of order eps^2 |H|^2.)
        """
        ops = self.operators
        d, k = self.dim, len(ops)
        # The factors F_k = [c_k, u_k, e] as rows, (K, 3, d^2), from the
        # centred operators C_k, and their Gram matrix G_kl = F_k^dag F_l,
        # (K, 3, K, 3).
        mean = np.trace(ops, axis1=1, axis2=2)[:, None, None] / d
        centred = ops - mean * np.eye(d)
        adjoints = np.swapaxes(centred, 1, 2).conj()
        factors = np.empty((k, 3, d * d), dtype=complex)
        factors[:, 0] = np.swapaxes(centred, 1, 2).reshape(k, d * d)
        factors[:, 1] = np.swapaxes(adjoints @ centred + mean * adjoints
                                    - mean.conj() * centred, 1, 2).reshape(k, d * d)
        factors[:, 2] = e = np.eye(d).ravel()
        rows = factors.reshape(3 * k, d * d)
        gram = (rows.conj() @ rows.T).reshape(k, 3, k, 3)
        # The off-Bell Gram matrix G^c and the table decided from it.
        off_gram = gram[:, 0, :, 0] / d
        norms = off_gram.diagonal().real.copy()
        linked = np.abs(off_gram) > 1e-14 * np.sqrt(np.outer(norms, norms))
        np.fill_diagonal(linked, False)
        if linked.any():
            r = np.linalg.qr(factors[:, 0].T / np.sqrt(d), mode="r")
            off_bell = np.einsum("ik,jk->kij", r, r.conj())
        else:
            off_bell = norms
        weight = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, -0.5], [0.0, -0.5, 0.0]]) / d
        # A_kl = M G_kl, p_k = F_k^dag Phi+ with Phi+ = e/sqrt(d), and M p_k.
        a = np.einsum("ab,kblc->kalc", weight, gram)
        mp = (factors.conj() @ e / np.sqrt(d)) @ weight
        traces2 = np.einsum("kalb,lbka->kl", a, a).real
        # 0.0 - x, never -0.0. Last, ||B_k||_F, the noise floor's scale: a
        # zero block's Tr B_k^2 may round below 0.
        return SmallTimeTables(*map(_read_only, (
            0.0 - norms, traces2,
            np.einsum("ka,kalb,lb->kl", mp.conj(), gram, mp).real,
            np.einsum("kalb,lbmc,mcka->klm", a, a, a).real.reshape(k * k, k),
            np.sqrt(np.maximum(traces2.diagonal(), 0.0)), off_bell)))

    def small_time_moments(self, gammas: np.ndarray, epsilon: float):
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
        and Re Tr(B_k B_l B_m) (`small_time_tables`); the blocks are
        Hermitian, so the real parts are the whole contractions. Rates come
        as rows, as `rates_at` returns them: numpy runs a reduction along a
        short last axis row by row, but across rows as whole-row operations.
        So each form is a small matrix product over long rows, one row per
        block: x0 = x . gamma, s2 = sum_k gamma_k (T2 gamma)_k, likewise sb,
        and s3 = sum_k gamma_k sum_l gamma_l (T3 gamma)_kl.
        """
        tables = self.small_time_tables
        k, n = gammas.shape
        x0 = tables.bell_overlaps @ gammas
        s2 = np.einsum("kn,kn->n", gammas, tables.traces2 @ gammas)
        sb = np.einsum("kn,kn->n", gammas, tables.bell_pairs @ gammas)
        s3 = np.einsum("kn,kn->n", gammas, np.einsum(
            "kln,ln->kn", (tables.traces3 @ gammas).reshape(k, k, n), gammas))
        eps = float(epsilon)
        r2 = 1.0 + 2.0 * eps * x0 + eps**2 * s2
        r3 = 1.0 + 3.0 * eps * x0 + 3.0 * eps**2 * sb + eps**3 * s3
        values = (eps * x0 + eps**2 * (4.0 * x0**2 + 2.0 * s2 - 3.0 * sb)
                  + eps**3 * (4.0 * x0 * s2 - s3) + eps**4 * s2**2)
        return r2, r3, values

    def projected_spectra(self, gammas: np.ndarray) -> np.ndarray:
        """The nonzero spectrum of Q X_D Q, Q = I - bell, for each column of
        rates gammas (K, n), shape (m, n) with m <= K, from the `off_bell`
        table of `small_time_tables`.

        Off the Bell direction each dissipator leaves one rank-1 term,
        Q B_k Q = c_k c_k^dag/d, so Q X_D Q = V diag(gamma) V^dag over the
        centred columns c_k/sqrt(d), whose Gram matrix is G^c. Pairwise
        orthogonal operators give m = K eigenvalues gamma_k G^c_kk, in
        operator order, with no solve. Any other set gives the min(K, d^2)
        eigenvalues of R diag(gamma) R^dag, ascending, in stacked solves of
        at most CHUNK_ENTRIES matrix entries, so no coupling between
        operators is dropped. V may be rank deficient (a repeated operator
        gives a repeated column): R diag(gamma) R^dag then has zero
        eigenvalues, as Q X_D Q has. Treating a pair within the threshold as
        exactly orthogonal moves the eigenvalues by the order of
        1e-14 sum_k |gamma_k| G^c_kk, two orders below the 1e-12 noise rule of
        `detect._rate_limits`.
        """
        table = self.small_time_tables.off_bell
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


def rates_at(gen: LindbladGenerator, t) -> np.ndarray:
    """Dissipator rates at a time t, shape (K,), or at every time of an
    array t as rows, one per dissipator: shape (K,) + t.shape, C-contiguous.

    One `rate_eval` call per rate model: dissipators that share a model
    object are evaluated once and fill each of their rows. A time that is
    negative, NaN or infinite is refused whatever the number of
    dissipators, and a NaN or infinite rate is refused, naming the earliest
    time that has one; only a failed check of the whole array looks for
    that time.
    """
    times = np.asarray(t, dtype=float)
    if not gen.dissipators:  # no `rate_eval` call checks the times
        require_rate_times(times)
    rows = np.empty((len(gen.dissipators),) + times.shape)
    by_model = {}
    for k, (_, rate) in enumerate(gen.dissipators):
        values = by_model.get(id(rate))
        if values is None:
            values = by_model[id(rate)] = rate_eval(rate, times)
        rows[k] = values
    if not np.isfinite(rows).all():
        bad = ~np.all(np.isfinite(rows), axis=0)
        first = np.unravel_index(np.argmin(np.where(bad, times, np.inf)), times.shape)
        raise ValueError(
            f"non-finite rate at t = {times[first]:.6g}: {rows[(slice(None), *first)]}")
    return rows

