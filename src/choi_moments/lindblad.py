"""Time-dependent Lindblad generators in operator and superoperator form.

A generator is a Hamiltonian plus a list of (jump operator, rate model)
pairs; its action on a density matrix is

    d rho / dt = -i [H, rho] + sum_i gamma_i(t) (L_i rho L_i^dag
                                                 - (L_i^dag L_i rho + rho L_i^dag L_i) / 2)

Vectorization is row-major project-wide: vec(A X B) = (A kron B^T) vec(X),
and the vectorized generator is affine in the rates:
Lhat(t) = H_part + sum_i gamma_i(t) D_i. A generator holds the constant
blocks [H_part, D_1, ...] and every superoperator is read off them.

The generator preserves Hermiticity, so in an orthonormal basis of
Hermitian operators its blocks are real: the real transfer matrices
T = U^dag B U, where U has the columns vec(F) of the basis

    E_ii,   (E_ij + E_ji)/sqrt(2)  (i < j),   i (E_ij - E_ji)/sqrt(2)  (i > j),

indexed like the entries of a d x d matrix. U is sparse: it mixes entry
(p, q) of a coordinate vector laid out as a d x d matrix only with entry
(q, p), so a change of basis costs O(d^4) per d^2 x d^2 map, with no matrix
product (`to_hermitian_basis`, `from_hermitian_basis`).

Generators are immutable: their arrays are read-only copies, so all
evaluation is pure.
"""

from functools import cached_property, lru_cache

import numpy as np

from .rates import RateModel, rate_eval
from .spectral import require_hermitian

__all__ = [
    "SIGMA_X",
    "SIGMA_Y",
    "SIGMA_Z",
    "LOWERING",
    "RAISING",
    "NAMED_OPERATORS",
    "named_operator",
    "LindbladGenerator",
    "dephasing_generator",
    "isotropic_pauli_generator",
    "rates_at",
    "coefficients",
    "generator_superoperator",
    "unitality_defects",
    "to_hermitian_basis",
    "from_hermitian_basis",
]

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)
LOWERING = np.array([[0, 1], [0, 0]], dtype=complex)   # |0><1|
RAISING = np.array([[0, 0], [1, 0]], dtype=complex)    # |1><0|

NAMED_OPERATORS = {
    "sigma_x": SIGMA_X,
    "sigma_y": SIGMA_Y,
    "sigma_z": SIGMA_Z,
    "lowering": LOWERING,
    "raising": RAISING,
}

UNITAL_ATOL = 1e-10


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


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


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


def to_hermitian_basis(maps: np.ndarray, d: int) -> np.ndarray:
    """U^dag M U for a stack of d^2 x d^2 maps M (..., d^2, d^2) in row-major
    vec coordinates; complex, and real to rounding for maps that preserve
    Hermiticity.

    With w as in U y = w * (y - i y^T): U^dag z = conj(w) * z + i conj(w)^T * z^T
    on the row index pair, and S U = w * s - i w^T * s^T on the column pair.
    """
    w = _basis_weights(d)
    x = maps.reshape(-1, d, d, d, d)
    rows = w.conj()[:, :, None, None]
    x = rows * x + 1j * rows.swapaxes(0, 1) * x.swapaxes(1, 2)
    x = w * x - 1j * w.T * x.swapaxes(3, 4)
    return x.reshape(maps.shape)


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
    AttributeError. Construction only checks them; every table below
    is a read-only array built on first use and kept. `superoperator_blocks`
    is the stack [H_part, D_1, ...], shape (K + 1, d^2, d^2), of the
    vectorized generator's constant blocks: Lhat(t) = sum_k c_k B_k with
    c = coefficients(rates_at(gen, t)). `transfer_blocks` is the same stack
    in the Hermitian operator basis, U^dag B_k U, and real: the RK4 kernel
    propagates these, in real arithmetic. `unitality_images` (K, d^2) holds
    the dissipator blocks' images B_k vec(I/d), which `unitality_defects`
    contracts with the rates. `small_time_builder` is the generator's one
    `choi.SmallTimeChoiBuilder`: every small-time witness and rate limit on
    this generator reads it. A cached_property writes the instance __dict__
    directly, past the refusing __setattr__.

    A plain class, not a dataclass, because every process that imports the
    package would otherwise generate and compile its methods. Generators
    compare by identity.
    """

    def __init__(self, dim: int, hamiltonian: np.ndarray,
                 dissipators: tuple[tuple[np.ndarray, RateModel], ...]):
        if dim < 1:
            raise ValueError(f"dimension must be >= 1, got {dim}")
        h = _read_only(require_hermitian(np.asarray(hamiltonian, dtype=complex)))
        if h.shape != (dim, dim):
            raise ValueError(f"Hamiltonian shape {h.shape} does not match dim {dim}")
        diss = []
        for op, rate in dissipators:
            op = _read_only(np.array(op, dtype=complex))
            if op.shape != (dim, dim):
                raise ValueError(f"jump operator shape {op.shape} does not match dim {dim}")
            if not np.all(np.isfinite(op)):
                raise ValueError("jump operator has non-finite entries")
            diss.append((op, rate))
        vars(self).update(dim=dim, hamiltonian=h, dissipators=tuple(diss))

    def __repr__(self):
        return (f"LindbladGenerator(dim={self.dim!r}, hamiltonian={self.hamiltonian!r}, "
                f"dissipators={self.dissipators!r})")

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    @cached_property
    def superoperator_blocks(self) -> np.ndarray:
        """[H_part, D_1, ...], (K + 1, d^2, d^2), in row-major vec coordinates."""
        h, eye = self.hamiltonian, np.eye(self.dim, dtype=complex)
        blocks = [-1j * (np.kron(h, eye) - np.kron(eye, h.T))]
        for op, _ in self.dissipators:
            ld_l = op.conj().T @ op
            blocks.append(np.kron(op, op.conj())
                          - 0.5 * (np.kron(ld_l, eye) + np.kron(eye, ld_l.T)))
        return _read_only(np.stack(blocks))

    @cached_property
    def transfer_blocks(self) -> np.ndarray:
        """The superoperator blocks in the Hermitian operator basis, real."""
        # The imaginary parts are rounding: Lhat maps Hermitian to Hermitian.
        rotated = to_hermitian_basis(self.superoperator_blocks, self.dim)
        return _read_only(np.ascontiguousarray(rotated.real))

    @cached_property
    def unitality_images(self) -> np.ndarray:
        """B_k vec(I/d) for each dissipator block, (K, d^2)."""
        eye = np.eye(self.dim).ravel() / self.dim
        return _read_only(self.superoperator_blocks[1:] @ eye)

    @cached_property
    def small_time_builder(self):
        """The generator's small-time Choi builder, whose tables are read-only."""
        from .choi import SmallTimeChoiBuilder  # choi imports this module

        return SmallTimeChoiBuilder(self)


def dephasing_generator(rate: RateModel) -> LindbladGenerator:
    """Single sigma_z dissipator, no Hamiltonian."""
    return LindbladGenerator(2, np.zeros((2, 2)), ((SIGMA_Z, rate),))


def isotropic_pauli_generator(rate: RateModel) -> LindbladGenerator:
    """sigma_x, sigma_y, sigma_z dissipators sharing one rate, no Hamiltonian."""
    return LindbladGenerator(
        2, np.zeros((2, 2)), ((SIGMA_X, rate), (SIGMA_Y, rate), (SIGMA_Z, rate))
    )


def _rate_rows(gen: LindbladGenerator, times: np.ndarray) -> np.ndarray:
    """Dissipator rates at every time of a float array, one row per
    dissipator: shape (K,) + times.shape, C-contiguous.

    One `rate_eval` call per rate model: dissipators that share a model
    object are evaluated once and fill each of their rows.
    """
    rows = np.empty((len(gen.dissipators),) + times.shape)
    by_model = {}
    for k, (_, rate) in enumerate(gen.dissipators):
        values = by_model.get(id(rate))
        if values is None:
            values = by_model[id(rate)] = rate_eval(rate, times)
        rows[k] = values
    return rows


def rates_at(gen: LindbladGenerator, t) -> np.ndarray:
    """Dissipator rates gamma_i at a time t, shape (K,), or at every time of an
    array t, shape t.shape + (K,).

    A view of the rates' rows (`_rate_rows`, one per dissipator) with that
    axis moved last, so `np.moveaxis(rates_at(gen, t), -1, 0)` gives the
    contiguous rows back with no copy.
    """
    return np.moveaxis(_rate_rows(gen, np.asarray(t, dtype=float)), 0, -1)


def coefficients(gammas) -> np.ndarray:
    """The weights [1, gamma_1, ...] of the superoperator blocks for rates
    gammas of shape (..., K): shape (..., K + 1)."""
    gammas = np.asarray(gammas, dtype=float)
    return np.concatenate((np.ones(gammas.shape[:-1] + (1,)), gammas), axis=-1)


def generator_superoperator(gen: LindbladGenerator, t: float) -> np.ndarray:
    """Matrix Lhat(t) with vec(d rho / dt) = Lhat(t) @ vec(rho) at time t.

    Row-major vectorization; the returned d^2 x d^2 matrix is generally not
    Hermitian.
    """
    blocks = gen.superoperator_blocks
    out = coefficients(rates_at(gen, t)) @ blocks.reshape(len(blocks), -1)
    return out.reshape(blocks.shape[1:])


def unitality_defects(gen: LindbladGenerator, gammas) -> np.ndarray:
    """Largest entry of |Lhat(I/d)| for each row of finite rates gammas (n, K),
    shape (n,).

    The Hamiltonian part annihilates I/d, so the image is linear in the
    rates and a grid of rates costs one product with the dissipator blocks'
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
