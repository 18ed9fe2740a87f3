"""Time-dependent Lindblad generators and their real transfer blocks.

A generator is a Hamiltonian plus a list of (jump operator, rate model)
pairs; its action on a density matrix is

    d rho / dt = -i [H, rho] + sum_i gamma_i(t) (L_i rho L_i^dag
                                                 - (L_i^dag L_i rho + rho L_i^dag L_i) / 2)

so it is affine in the rates: L_t = S_0 + sum_i gamma_i(t) S_i, with S_0 the
Hamiltonian part and S_i dissipator i at unit rate. Vectorization is
row-major project-wide: vec(A X B) = (A kron B^T) vec(X).

Rates leave the models by one path, `_rate_rows`, which refuses a NaN or
infinite one: rows (K,) + times.shape, one per dissipator. `rates_at` is
their view with that axis last, so every caller down to the RK4 kernel
reads the rows with no copy.

The generator preserves Hermiticity, so in an orthonormal basis of
Hermitian operators F_p its parts are real matrices, the transfer blocks
T_k[p, q] = Tr(F_p S_k(F_q)), built from the operators themselves
(`LindbladGenerator.transfer_blocks`). The basis is

    E_ii,   (E_ij + E_ji)/sqrt(2)  (i < j),   i (E_ij - E_ji)/sqrt(2)  (i > j),

indexed like the entries of a d x d matrix; U has the columns vec(F_p). U
is sparse: it mixes entry (p, q) of a coordinate vector laid out as a
d x d matrix only with entry (q, p), so leaving the basis costs O(d^4) per
d^2 x d^2 map, with no matrix product (`from_hermitian_basis`).

Generators are immutable: their arrays are read-only copies, so all
evaluation is pure.
"""

import operator
from functools import cached_property, lru_cache

import numpy as np

from .rates import RateModel, rate_eval

__all__ = [
    "SIGMA_X",
    "SIGMA_Y",
    "SIGMA_Z",
    "LOWERING",
    "RAISING",
    "NAMED_OPERATORS",
    "named_operator",
    "LindbladGenerator",
    "require_hermitian",
    "rates_at",
    "unitality_defects",
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

UNITAL_ATOL = 1e-10
# Absolute tolerance on entrywise asymmetry |m - m^dag|.
HERMITICITY_ATOL = 1e-12


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


def require_positive(name: str, value) -> None:
    """Refuse, with a ValueError naming it, a value that is not positive and finite."""
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


# Axis orders [a, b, i, j] -> result of `from_hermitian_basis`: the
# superoperator entry [(a, b), (i, j)], or the Choi entry [(i, a), (j, b)].
_LAYOUTS = {False: (0, 1, 2, 3), True: (2, 0, 3, 1)}


@lru_cache
def _rotation_weights(d: int, choi: bool) -> np.ndarray:
    """w_ab conj(w_ij), (1/d times it for a Choi layout), read-only, (d^2, d^2)."""
    w = _basis_weights(d)
    weights = (w[:, :, None, None] * w.conj()) / (d if choi else 1)
    return _read_only(weights.transpose(_LAYOUTS[choi]).reshape(d * d, d * d))


def from_hermitian_basis(transfer: np.ndarray, d: int, choi: bool = False) -> np.ndarray:
    """U T U^dag for a stack of real transfer matrices T (..., d^2, d^2): the
    maps' row-major superoperators, complex. With choi=True, the maps' Choi
    states (1/d) sum_ij E_ij kron M(E_ij) instead, which realign the
    superoperator entry [(a, b), (i, j)] to [(i, a), (j, b)].

    Entry [(a, b), (i, j)] is w_ab conj(w_ij) (P + iQ) with
    P = T[(a, b), (i, j)] + T[(b, a), (j, i)] and
    Q = T[(a, b), (j, i)] - T[(b, a), (i, j)]: two real sums over swapped
    views of T, written in the wanted layout, and one scaling; O(d^4) per
    map. Mirrored entries get conjugate weights and P - iQ, so a
    Hermiticity-preserving map comes back as one exactly, bit for bit.
    """
    t = transfer.reshape(-1, d, d, d, d)
    layout = (0, *(k + 1 for k in _LAYOUTS[choi]))

    def view(*axes):  # T with the given index swaps, laid out as the result
        return t.transpose(axes).transpose(layout)

    z = np.empty((len(t), d, d, d, d), dtype=complex)
    np.add(view(0, 1, 2, 3, 4), view(0, 2, 1, 4, 3), out=z.real)
    np.subtract(view(0, 1, 2, 4, 3), view(0, 2, 1, 3, 4), out=z.imag)
    z = z.reshape(-1, d * d, d * d)
    z *= _rotation_weights(d, choi)
    return z.reshape(transfer.shape)


class LindbladGenerator:
    """Hamiltonian plus (jump operator, rate model) dissipator pairs.

    Immutable: the Hamiltonian and the jump operators are read-only copies,
    so the caller's arrays stay writeable and changing them later does not
    change the generator, and assigning or deleting any attribute raises
    AttributeError. The jump operators are held once, as the read-only
    stack `operators` (K, d, d), and each pair of `dissipators` holds a
    view of its operator there. Construction only checks its arguments: it
    refuses a `dim` that is not an integer of at least 2 (`require_count`),
    and a dissipator that is not an (operator, rate) pair whose rate has a
    callable `evaluate`, naming its index. Every table below is a read-only
    array built from the operators on first use and kept: `unitality_images`
    (K, d^2), the images D_k(I/d) that `unitality_defects` contracts with
    the rates; `small_time_builder`, the one `choi.SmallTimeChoiBuilder`
    that every small-time witness and rate limit reads; and
    `transfer_blocks`, the generator's parts in the Hermitian operator
    basis, which only the RK4 kernel reads. A cached_property writes the
    instance __dict__ directly, past the refusing __setattr__.

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
            if not callable(getattr(rate, "evaluate", None)):
                raise ValueError(f"dissipators[{index}] is not an (operator, rate model) "
                                 "pair whose rate has an evaluate method")
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
    def unitality_images(self) -> np.ndarray:
        """D_k(I/d) = vec(L_k L_k^dag - L_k^dag L_k)/d per dissipator, (K, d^2)."""
        d, ops = self.dim, self.operators
        adjoints = np.swapaxes(ops, 1, 2).conj()
        return _read_only((ops @ adjoints - adjoints @ ops).reshape(len(ops), d * d) / d)

    @cached_property
    def small_time_builder(self):
        """The generator's small-time Choi builder, whose tables are read-only."""
        from .choi import SmallTimeChoiBuilder  # choi imports this module

        return SmallTimeChoiBuilder(self)


def _rate_rows(gen: LindbladGenerator, times: np.ndarray) -> np.ndarray:
    """Dissipator rates at every time of a float array, one row per
    dissipator: shape (K,) + times.shape, C-contiguous.

    One `rate_eval` call per rate model: dissipators that share a model
    object are evaluated once and fill each of their rows. A NaN or infinite
    rate is refused, naming the earliest time that has one; only a failed
    check of the whole array looks for that time.
    """
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


def rates_at(gen: LindbladGenerator, t) -> np.ndarray:
    """Dissipator rates gamma_i at a time t, shape (K,), or at every time of an
    array t, shape t.shape + (K,). A NaN or infinite rate is refused with a
    ValueError naming the earliest time that has one.

    A view of the rates' rows (`_rate_rows`) with that axis moved last, so
    `np.moveaxis(rates_at(gen, t), -1, 0)`, or `.T` for a 1-D t, gives the
    contiguous rows back with no copy.
    """
    rows = _rate_rows(gen, np.asarray(t, dtype=float))
    # np.moveaxis(rows, 0, -1) without its argument checks, which cost several
    # times the transpose itself: the small-time layer calls this per grid.
    return rows.transpose((*range(1, rows.ndim), 0))


def unitality_defects(gen: LindbladGenerator, gammas) -> np.ndarray:
    """Largest entry of |L_t(I/d)| for each row of finite rates gammas (n, K),
    shape (n,).

    The Hamiltonian part annihilates I/d, so the image is linear in the
    rates and a grid of rates costs one product with the dissipators'
    images of I/d (`LindbladGenerator.unitality_images`). A normal jump
    operator (Pauli, Hermitian, unitary) has an image of exactly zero, since
    D_k(I) = L_k L_k^dag - L_k^dag L_k; when every image is zero the product
    would be zero bit for bit, and it is skipped. Otherwise the residual is
    formed transposed, (d^2, n), because numpy reduces along a short last
    axis several times slower than across rows; rates passed as the
    transposed view of rows (K, n), as `detect.measure_report` passes them,
    are read with no copy.
    """
    images = gen.unitality_images
    if not images.any():
        return np.zeros(np.shape(gammas)[0])
    residual = images.T @ np.asarray(gammas, dtype=float).T
    return np.max(np.abs(residual), axis=0)
