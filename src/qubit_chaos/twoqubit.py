"""Two-qubit conditional step and purification-trace experiments.

The computational basis is ordered |00>, |01>, |10>, |11> with qubit 1 the
left tensor factor (row/column index 2*j1 + j2).  One step is the entrywise
squaring filter of :mod:`qubit_chaos.channel` in dimension 4 followed by an
independent local rotation on each qubit.  Squaring factorizes over tensor
products, so product states evolve as two independent single-qubit runs --
the closure checks in the tests lean on that.

No entanglement measures beyond reduced-state purity are provided here.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .channel import purity, rotation_unitary, selection_probability, squaring_channel, validate_density
from .sphere import _json_complex

BASIS_LABELS = ("00", "01", "10", "11")

# Exploratory defaults for the CLI experiment; no benchmark status.
DEFAULT_ANGLES = (0.3, 0.0, 0.3, 0.0)


def squaring4(rho) -> np.ndarray:
    """The two-qubit squaring filter (4x4 case of the generic channel)."""
    return squaring_channel(rho, 4)


def rotate_local(rho, qubit: int, x: float, phi: float) -> np.ndarray:
    """Rotate one qubit of a two-qubit state: (U x I) or (I x U) conjugation."""
    rho = np.asarray(rho, dtype=complex)
    u2 = rotation_unitary(x, phi)
    eye = np.eye(2, dtype=complex)
    if qubit == 1:
        u = np.kron(u2, eye)
    elif qubit == 2:
        u = np.kron(eye, u2)
    else:
        raise ValueError(f"qubit index must be 1 or 2, got {qubit!r}")
    return u @ rho @ u.conj().T


def step_two_qubit(rho, x1: float, phi1: float, x2: float, phi2: float) -> np.ndarray:
    """One full two-qubit conditional step: squaring, then both local rotations."""
    return rotate_local(rotate_local(squaring4(rho), 2, x2, phi2), 1, x1, phi1)


def reduced_state(rho, qubit: int) -> np.ndarray:
    """Partial trace down to the requested qubit's 2x2 state."""
    rho = np.asarray(rho, dtype=complex).reshape(2, 2, 2, 2)
    if qubit == 1:
        return np.einsum("abcb->ac", rho)
    if qubit == 2:
        return np.einsum("abac->bc", rho)
    raise ValueError(f"qubit index must be 1 or 2, got {qubit!r}")


def fidelity(rho, target: np.ndarray) -> float:
    """<target|rho|target> for a normalized 4-component state vector."""
    target = np.asarray(target, dtype=complex).reshape(4)
    return float(np.real(np.conj(target) @ (np.asarray(rho, dtype=complex) @ target)))


def basis_state(index: int) -> np.ndarray:
    """The computational basis vector |00>, |01>, |10>, |11> by index."""
    if not 0 <= index <= 3:
        raise ValueError("basis index must be 0..3")
    vec = np.zeros(4, dtype=complex)
    vec[index] = 1.0
    return vec


def default_initial_state() -> np.ndarray:
    """0.9 |00><00| + 0.1 I/4: slightly mixed, biased toward |00>.

    Used by the CLI when no initial state file is given; an exploratory
    choice with no benchmark status.
    """
    rho = np.zeros((4, 4), dtype=complex)
    rho[0, 0] = 0.9
    rho += 0.1 * np.eye(4) / 4.0
    return rho


@dataclass
class PurificationTrace:
    """Step-indexed record of a conditional two-qubit evolution.

    Row 0 describes the initial state; ``selection_prob`` holds the
    squaring-filter survival probability of the state *entering* each step,
    so it is NaN on row 0 (nothing was filtered yet) and the CSV cell is
    left empty there.  ``fidelity`` is None when no target was given.
    """

    steps: np.ndarray
    purity: np.ndarray
    fidelity: Optional[np.ndarray]
    selection_prob: np.ndarray
    config: dict


def purification_trace(rho0, angles=DEFAULT_ANGLES, n: int = 50,
                       target: Optional[np.ndarray] = None) -> PurificationTrace:
    """Evolve a validated two-qubit state n steps, recording purity per step.

    ``angles`` is (x1, phi1, x2, phi2).  ``target``, if given, is a
    normalized 4-vector whose fidelity is recorded alongside.  Whether a
    given run purifies, and toward what, depends on the angles and the
    initial state; the trace reports, it does not promise.
    """
    rho = validate_density(rho0, 4)
    if n < 0:
        raise ValueError("step count must be nonnegative")
    x1, phi1, x2, phi2 = angles
    pur = np.empty(n + 1, dtype=float)
    sel = np.empty(n + 1, dtype=float)
    fid = np.empty(n + 1, dtype=float) if target is not None else None
    sel[0] = np.nan
    for k in range(n + 1):
        pur[k] = purity(rho)
        if fid is not None:
            fid[k] = fidelity(rho, target)
        if k < n:
            sel[k + 1] = selection_probability(rho)
            rho = step_two_qubit(rho, x1, phi1, x2, phi2)
    config = {
        "kind": "twoqubit", "angles": list(angles), "steps": n,
        "target": None if target is None else
        [_json_complex(c) for c in np.asarray(target, dtype=complex).reshape(4)],
    }
    return PurificationTrace(np.arange(n + 1), pur, fid, sel, config)


def write_trace_csv(path, trace: PurificationTrace) -> None:
    """CSV rows (step,purity,fidelity,selection_prob); empty cells where undefined."""
    with open(path, "w", newline="") as fh:
        fh.write("step,purity,fidelity,selection_prob\n")
        for k in range(len(trace.steps)):
            fid = "" if trace.fidelity is None else repr(float(trace.fidelity[k]))
            sel = "" if np.isnan(trace.selection_prob[k]) else repr(float(trace.selection_prob[k]))
            fh.write(f"{int(trace.steps[k])},{float(trace.purity[k])!r},{fid},{sel}\n")


def load_density_json(path) -> np.ndarray:
    """Load a two-qubit density matrix from a JSON file of rows of [re, im] pairs.

    The file holds the 4x4 matrix row-major: a list of 4 rows, each a list
    of 4 two-element [re, im] entries.  The result must pass the full
    density-matrix validation (Hermitian, unit trace, positive).  A file that
    cannot be opened or parsed raises ValueError naming the path.
    """
    try:
        with open(path) as fh:
            data = json.load(fh)
        rho = np.array(
            [[complex(entry[0], entry[1]) for entry in row] for row in data],
            dtype=complex,
        )
    except (OSError, TypeError, IndexError, ValueError) as exc:
        raise ValueError(f"cannot read a density matrix from {path}: {exc}") from None
    if rho.shape != (4, 4):
        raise ValueError(f"expected a 4x4 matrix in {path}, got {rho.shape}")
    return validate_density(rho, 4)
