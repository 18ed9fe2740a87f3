"""Time-dependent Lindblad generators in operator and superoperator form.

A generator is a Hamiltonian plus a list of (jump operator, rate model)
pairs; its action on a density matrix is

    d rho / dt = -i [H, rho] + sum_i gamma_i(t) (L_i rho L_i^dag
                                                 - (L_i^dag L_i rho + rho L_i^dag L_i) / 2)

Vectorization is row-major project-wide: vec(A X B) = (A kron B^T) vec(X).
Generators are immutable after construction and all evaluation is pure.
"""

from dataclasses import dataclass

import numpy as np

from .rates import RateModel, rate_eval
from .spectral import require_hermitian

__all__ = [
    "SIGMA_X",
    "SIGMA_Y",
    "SIGMA_Z",
    "LOWERING",
    "RAISING",
    "named_operator",
    "LindbladGenerator",
    "dephasing_generator",
    "isotropic_pauli_generator",
    "rates_at",
    "apply_generator",
    "generator_superoperator",
    "is_unital",
    "unitality_defects",
    "lindblad_ops_normal",
]

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)
LOWERING = np.array([[0, 1], [0, 0]], dtype=complex)   # |0><1|
RAISING = np.array([[0, 0], [1, 0]], dtype=complex)    # |1><0|

_NAMED_OPERATORS = {
    "sigma_x": SIGMA_X,
    "sigma_y": SIGMA_Y,
    "sigma_z": SIGMA_Z,
    "lowering": LOWERING,
    "raising": RAISING,
}

UNITAL_ATOL = 1e-10
NORMALITY_ATOL = 1e-10


def named_operator(name: str, dim: int) -> np.ndarray:
    """Look up a named jump operator, checking it matches the dimension."""
    if name not in _NAMED_OPERATORS:
        raise ValueError(
            f"unknown operator name {name!r}; expected one of {sorted(_NAMED_OPERATORS)}"
        )
    op = _NAMED_OPERATORS[name]
    if op.shape[0] != dim:
        raise ValueError(f"operator {name!r} has dimension {op.shape[0]}, generator declares {dim}")
    return op.copy()


@dataclass(frozen=True)
class LindbladGenerator:
    """Hamiltonian plus (jump operator, rate model) dissipator pairs."""

    dim: int
    hamiltonian: np.ndarray
    dissipators: tuple[tuple[np.ndarray, RateModel], ...]

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError(f"dimension must be >= 1, got {self.dim}")
        h = require_hermitian(np.asarray(self.hamiltonian, dtype=complex))
        if h.shape != (self.dim, self.dim):
            raise ValueError(f"Hamiltonian shape {h.shape} does not match dim {self.dim}")
        diss = []
        for op, rate in self.dissipators:
            op = np.asarray(op, dtype=complex)
            if op.shape != (self.dim, self.dim):
                raise ValueError(
                    f"jump operator shape {op.shape} does not match dim {self.dim}"
                )
            diss.append((op, rate))
        object.__setattr__(self, "hamiltonian", h)
        object.__setattr__(self, "dissipators", tuple(diss))


def dephasing_generator(rate: RateModel) -> LindbladGenerator:
    """Single sigma_z dissipator, no Hamiltonian."""
    return LindbladGenerator(2, np.zeros((2, 2)), ((SIGMA_Z, rate),))


def isotropic_pauli_generator(rate: RateModel) -> LindbladGenerator:
    """sigma_x, sigma_y, sigma_z dissipators sharing one rate, no Hamiltonian."""
    return LindbladGenerator(
        2, np.zeros((2, 2)), ((SIGMA_X, rate), (SIGMA_Y, rate), (SIGMA_Z, rate))
    )


def rates_at(gen: LindbladGenerator, t) -> np.ndarray:
    """Dissipator rates gamma_i at a time t, shape (K,), or at every time of an
    array t, shape t.shape + (K,).

    One `rate_eval` call per rate model: dissipators that share a model
    object are evaluated once.
    """
    times = np.asarray(t, dtype=float)
    by_model = {}
    columns = []
    for _, rate in gen.dissipators:
        if id(rate) not in by_model:
            by_model[id(rate)] = rate_eval(rate, times)
        columns.append(by_model[id(rate)])
    if not columns:
        return np.empty(times.shape + (0,))
    return np.stack(columns, axis=-1)


def _action(gen: LindbladGenerator, x: np.ndarray, gammas: np.ndarray) -> np.ndarray:
    """Generator action on an arbitrary matrix with precomputed rates."""
    h = gen.hamiltonian
    out = -1j * (h @ x - x @ h)
    for (op, _), g in zip(gen.dissipators, gammas):
        ld_l = op.conj().T @ op
        out = out + g * (op @ x @ op.conj().T - 0.5 * (ld_l @ x + x @ ld_l))
    return out


def apply_generator(gen: LindbladGenerator, rho: np.ndarray, t: float) -> np.ndarray:
    """d rho / dt at time t. Traceless and Hermitian for Hermitian rho."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (gen.dim, gen.dim):
        raise ValueError(f"state shape {rho.shape} does not match generator dim {gen.dim}")
    return _action(gen, rho, rates_at(gen, t))


def _superoperator_parts(gen: LindbladGenerator) -> tuple[np.ndarray, list[np.ndarray]]:
    """Constant blocks of the vectorized generator: Hamiltonian part and one
    block per dissipator, so that Lhat(t) = H_part + sum_i gamma_i(t) D_i."""
    d = gen.dim
    eye = np.eye(d, dtype=complex)
    h = gen.hamiltonian
    h_part = -1j * (np.kron(h, eye) - np.kron(eye, h.T))
    d_parts = []
    for op, _ in gen.dissipators:
        ld_l = op.conj().T @ op
        d_parts.append(
            np.kron(op, op.conj())
            - 0.5 * (np.kron(ld_l, eye) + np.kron(eye, ld_l.T))
        )
    return h_part, d_parts


def generator_superoperator(gen: LindbladGenerator, t: float) -> np.ndarray:
    """Matrix Lhat(t) with vec(apply_generator(gen, rho, t)) = Lhat(t) @ vec(rho).

    Row-major vectorization; the returned d^2 x d^2 matrix is generally not
    Hermitian.
    """
    h_part, d_parts = _superoperator_parts(gen)
    gammas = rates_at(gen, t)
    out = h_part.copy()
    for g, part in zip(gammas, d_parts):
        out += g * part
    return out


def unitality_defects(gen: LindbladGenerator, gammas) -> np.ndarray:
    """Largest entry of |Lhat(I/d)| for each row of rates gammas (n, K), shape (n,).

    The Hamiltonian part annihilates I/d and dissipator i maps it to
    (L_i L_i^dag - L_i^dag L_i)/d, so the image is linear in the rates and
    a grid of rates costs one product with these K images.
    """
    d = gen.dim
    images = np.array([(op @ op.conj().T - op.conj().T @ op) / d
                       for op, _ in gen.dissipators]).reshape(-1, d * d)
    residual = np.asarray(gammas, dtype=float) @ images
    return np.max(np.abs(residual), axis=1)


def is_unital(gen: LindbladGenerator, t: float) -> bool:
    """True iff the generator annihilates the maximally mixed state at time t."""
    return bool(unitality_defects(gen, rates_at(gen, [float(t)]))[0] < UNITAL_ATOL)


def lindblad_ops_normal(gen: LindbladGenerator) -> bool:
    """True iff every jump operator commutes with its adjoint."""
    for op, _ in gen.dissipators:
        comm = op @ op.conj().T - op.conj().T @ op
        if np.max(np.abs(comm)) >= NORMALITY_ATOL:
            return False
    return True
