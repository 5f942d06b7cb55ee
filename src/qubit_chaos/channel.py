"""Density-matrix form of one conditional step for a single qubit.

One step is a measurement-selected nonlinear filter followed by a unitary
rotation.  The filter squares every matrix element in the computational
basis, rho_ij -> rho_ij**2 (complex squares, not moduli), and renormalizes
by the selection probability sum_i rho_ii**2 -- the fraction of the ensemble
that survives the step's post-selection.  On pure states the full step is
exactly the sphere map of :mod:`qubit_chaos.sphere` through the bridge
defined here.

The matrix operations accept stacked arrays of shape (..., d, d) and
broadcast over the leading axes, which the bulk invariance tests rely on.
"""

from __future__ import annotations

import math

import numpy as np

from .sphere import INF, MapParam, SpherePoint, as_point

# A state counts as pure when 1 - Tr(rho**2) is below this.
PURITY_TOL = 1e-8
# Largest entry of |rho - rho^dagger| a density matrix may have.
HERM_TOL = 1e-12
# Largest |Tr rho - 1| validate_density accepts (the step path allows 1e-10).
TRACE_TOL = 1e-12
# Lowest eigenvalue validate_density accepts: roundoff may dip this far below 0.
EIG_FLOOR = -1e-10

def validate_density(rho, dim: int = 2) -> np.ndarray:
    """Check finite entries, Hermiticity, unit trace, and positivity; return the array.

    Accepts anything ``np.asarray`` can turn into a complex (..., dim, dim)
    stack.  Raises ValueError naming the violated invariant.
    """
    rho = _as_density(rho, dim, TRACE_TOL)
    low = np.linalg.eigvalsh(rho).min()
    if not (low >= EIG_FLOOR):
        raise ValueError(f"matrix has negative eigenvalue {low:.3e}")
    return rho


def _as_density(rho, dim: int, trace_tol: float = 1e-10) -> np.ndarray:
    # light per-call check: shape, finiteness, Hermiticity, trace (positivity
    # is the caller's responsibility; use validate_density for the full gate).
    # Finiteness comes first, so that inf - inf raises no RuntimeWarning.
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim < 2 or rho.shape[-2:] != (dim, dim):
        raise ValueError(f"expected a {dim}x{dim} density matrix, got shape {rho.shape}")
    if not np.isfinite(rho).all():
        raise ValueError("matrix has a NaN or infinite entry")
    herm = np.abs(rho - rho.swapaxes(-1, -2).conj()).max()
    if not (herm <= HERM_TOL):
        raise ValueError(f"matrix is not Hermitian (max asymmetry {herm:.3e})")
    off = np.abs(rho.diagonal(0, -2, -1).real.sum(-1) - 1.0).max()
    if not (off <= trace_tol):
        raise ValueError(f"matrix trace differs from 1 by {off:.3e}")
    return rho


def selection_probability(rho) -> float | np.ndarray:
    """Probability sum_i rho_ii**2 that a state passes one squaring filter.

    Bounded below by 1/dim for any valid state (Cauchy-Schwarz on the
    diagonal), so the squaring map's renormalization never divides by zero.
    """
    diag = np.einsum("...ii->...i", np.asarray(rho, dtype=complex)).real
    out = (diag * diag).sum(axis=-1)
    return float(out) if out.ndim == 0 else out


def squaring_channel(rho, dim: int) -> np.ndarray:
    """Dimension-generic conditional squaring: rho_ij -> rho_ij**2 / sum_i rho_ii**2.

    The exact map sends Hermitian to Hermitian (squares of conjugate entries
    are conjugate), so the output is re-symmetrized to make that true in
    floating point as well; without it the renormalization amplifies
    rounding asymmetry exponentially along iterated orbits.
    """
    rho = _as_density(rho, dim)
    squared = rho * rho
    norm = np.einsum("...ii->...", squared).real
    out = squared / norm[..., None, None]
    return 0.5 * (out + out.swapaxes(-1, -2).conj())


def squaring_map(rho) -> np.ndarray:
    """The single-qubit squaring filter (2x2 case of :func:`squaring_channel`)."""
    return squaring_channel(rho, 2)


def rotation_unitary(x: float, phi: float) -> np.ndarray:
    """The step's 2x2 rotation: [[cos x, sin x e^{i phi}], [-sin x e^{-i phi}, cos x]]."""
    c, s = math.cos(x), math.sin(x)
    e = complex(math.cos(phi), math.sin(phi))
    return np.array([[c, s * e], [-s * e.conjugate(), c]], dtype=complex)


def rotate(rho, x: float, phi: float) -> np.ndarray:
    """Unitary conjugation U rho U^dagger with the step rotation."""
    return _rotate(_as_density(rho, 2), x, phi)


def _rotate(rho: np.ndarray, x: float, phi: float) -> np.ndarray:
    """:func:`rotate` of a complex (..., 2, 2) array, unchecked."""
    u = rotation_unitary(x, phi)
    return u @ rho @ u.conj().T


def step_density(rho, x: float, phi: float) -> np.ndarray:
    """One full conditional step in density form: squaring then rotation.

    The input is checked once: the squaring output is exactly Hermitian by
    construction, so the rotation takes it unchecked."""
    return _rotate(squaring_map(rho), x, phi)


def p_from_angles(x: float, phi: float) -> MapParam:
    """Map parameter p = tan(x) e^{i phi} for the given step angles.

    Raises ValueError within ``MapParam.ANGLE_TOL`` of x = pi/2 mod pi,
    where no finite parameter exists; the density form above still works
    there.
    """
    return MapParam.from_angles(x, phi)


def purity(rho) -> float | np.ndarray:
    """Tr(rho**2), computed as the squared Frobenius norm of a Hermitian rho."""
    rho = np.asarray(rho, dtype=complex)
    out = (np.abs(rho) ** 2).sum(axis=(-1, -2))
    return float(out) if out.ndim == 0 else out


def pure_to_density(z) -> np.ndarray:
    """Density matrix of the pure state with sphere coordinate z.

    z = 0 gives diag(0, 1) (the basis state |1>); infinity gives diag(1, 0)
    (the state |0>).  The normalization is computed inline and never stored.
    """
    z = as_point(z)
    if z.is_infinity:
        return np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
    zv = z.value
    t = abs(zv) ** 2
    n2 = 1.0 / (1.0 + t)
    return np.array([[t * n2, zv * n2], [zv.conjugate() * n2, n2]], dtype=complex)


def density_to_pure(rho) -> SpherePoint:
    """Sphere coordinate of a (numerically) pure density matrix.

    Raises ValueError when 1 - Tr(rho**2) exceeds ``PURITY_TOL``; mixed
    states have no sphere coordinate.
    """
    rho = _as_density(rho, 2)
    if rho.ndim != 2:
        raise ValueError("the pure-state bridge takes a single 2x2 matrix")
    pur = float((np.abs(rho) ** 2).sum())
    if pur < 1.0 - PURITY_TOL:
        raise ValueError(f"state is not pure enough: Tr(rho^2) = {pur:.12f}")
    bb = rho[1, 1].real
    if bb == 0.0:
        return INF
    return SpherePoint(rho[0, 1] / bb)


def selection_trace(rho, x: float, phi: float, n: int) -> np.ndarray:
    """Per-step selection probabilities along n conditional steps from rho.

    Entry k is the probability that a state surviving the first k steps
    also survives step k+1; the cumulative product of the entries is the
    surviving ensemble fraction after each step.
    """
    if n < 0:
        raise ValueError("step count must be nonnegative")
    rho = _as_density(rho, 2)
    probs = np.empty(n, dtype=float)
    for k in range(n):
        probs[k] = selection_probability(rho)
        rho = step_density(rho, x, phi)
    return probs
