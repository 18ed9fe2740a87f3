"""Dense Hermitian spectral primitives: spectra, Schatten norms, trace moments.

Everything downstream (Choi diagnostics, moment witnesses, measures) is built
on these three operations. All functions are pure and safe to call from
multiple threads.
"""

import numpy as np

# Absolute tolerance on entrywise asymmetry |m - m^dag|.
HERMITICITY_ATOL = 1e-12


def require_hermitian(m: np.ndarray, atol: float = HERMITICITY_ATOL) -> np.ndarray:
    """Check Hermiticity of ``m`` and return the symmetrized copy (m + m^dag)/2.

    ``m`` is one square matrix or a stack of them along leading axes; the
    last two axes are the matrix axes. Symmetrizing after the check
    stabilizes the eigensolve without masking genuinely non-Hermitian input.

    Raises:
        ValueError: if ``m`` is not square, has a non-finite entry (which
            makes the asymmetry NaN or infinite), or the maximum entrywise
            asymmetry exceeds ``atol`` (the offending magnitude is reported).
    """
    m = np.asarray(m, dtype=complex)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    m_dag = np.swapaxes(m, -1, -2).conj()
    with np.errstate(invalid="ignore"):  # inf - inf on the diagonal is refused below
        asymmetry = float(np.max(np.abs(m - m_dag))) if m.size else 0.0
    if not asymmetry <= atol:  # NaN compares false either way
        if not np.isfinite(asymmetry):
            raise ValueError("matrix has non-finite entries")
        raise ValueError(
            f"matrix is not Hermitian: max |m - m^dag| = {asymmetry:.3e} "
            f"exceeds tolerance {atol:.1e}"
        )
    return 0.5 * (m + m_dag)


def hermitian_spectrum(m: np.ndarray) -> np.ndarray:
    """All real eigenvalues of a Hermitian matrix, descending, with multiplicity."""
    if np.ndim(m) != 2:
        raise ValueError(f"expected a square matrix, got shape {np.shape(m)}")
    return np.linalg.eigvalsh(require_hermitian(m))[::-1]


def schatten_norm(m: np.ndarray, p: float) -> float:
    """Schatten-p norm (sum_i |lambda_i|^p)^(1/p) of a Hermitian matrix.

    p = 1 is the trace norm, p = 2 the Frobenius norm.

    Raises:
        ValueError: if p < 1 (not a norm), or p is infinite or NaN (the
            operator norm p = inf is not computed by this sum).
    """
    if not 1.0 <= p < np.inf:  # NaN compares false either way
        raise ValueError(f"Schatten norm requires a finite p >= 1, got p = {p}")
    lam = hermitian_spectrum(m)
    return float(np.sum(np.abs(lam) ** p) ** (1.0 / p))


def moments_from_spectrum(lam: np.ndarray, n_max: int) -> np.ndarray:
    """Trace moments [sum lam, sum lam^2, ..., sum lam^n_max] of a spectrum."""
    lam = np.asarray(lam, dtype=float)
    return np.array([np.sum(lam ** n) for n in range(1, n_max + 1)])
