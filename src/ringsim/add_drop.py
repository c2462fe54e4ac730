"""Add/drop ring resonator: two bus waveguides coupled to one lossy ring.

The 2x2 transfer matrix M maps the input pair (a, b) to the output pair
(c, d), rows = outputs (c, d), columns = inputs (a, b):

    M = 1/D * [[tau - conj(eta) z,        -conj(gamma) kappa s],
               [-conj(kappa) gamma s,      eta - conj(tau) z  ]],

    z = alpha e^{i theta},  s = sqrt(alpha) e^{i theta/2},
    D = 1 - conj(tau) conj(eta) z,

where (tau, kappa) is the first coupler, (eta, gamma) the second, and the
loss/phase are split symmetrically between the two half arcs.  Loss makes M
a contraction; the deficit I - M M† is the Gram matrix of the collective
noise operators attached to the outputs and is produced by
`noise_commutators`.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .core import CouplerParams, ResonantDivergenceError, RingParams, UnitarityError

__all__ = [
    "AddDropParams",
    "inverse_conjugate",
    "noise_commutators",
    "noise_couplings",
    "permanent2",
    "transfer_matrix",
]

@dataclass(frozen=True)
class AddDropParams:
    """Parameters of an add/drop ring.

    ``coupler_in`` carries (tau, kappa) at the a/c bus, ``coupler_drop``
    carries (eta, gamma) at the b/d bus.  The ring's loss and phase are
    split evenly between the two half arcs (sqrt(alpha) and theta/2 each).
    """

    coupler_in: CouplerParams
    coupler_drop: CouplerParams
    ring: RingParams


def transfer_matrix(params: AddDropParams) -> np.ndarray:
    """Input-output matrix M of the add/drop ring, rows (c, d) x cols (a, b).

    Raises
    ------
    ResonantDivergenceError
        If the circulation denominator 1 - conj(tau) conj(eta) z vanishes
        (lossless, both couplers fully reflective, on resonance).
    """
    tau, kappa = params.coupler_in.tau, params.coupler_in.kappa
    eta, gamma = params.coupler_drop.tau, params.coupler_drop.kappa
    z = params.ring.loop_factor
    s = cmath.sqrt(params.ring.alpha) * cmath.exp(0.5j * params.ring.round_trip_phase)
    denom = 1.0 - tau.conjugate() * eta.conjugate() * z
    if denom == 0:
        raise ResonantDivergenceError(
            "unit loop gain: conj(tau)*conj(eta)*alpha*exp(i*theta) == 1"
        )
    cross = s / denom
    return np.array(
        [
            [(tau - eta.conjugate() * z) / denom, -gamma.conjugate() * kappa * cross],
            [-kappa.conjugate() * gamma * cross, (eta - tau.conjugate() * z) / denom],
        ]
    )


def noise_couplings(params: AddDropParams) -> np.ndarray:
    """Coefficients of the half-arc noise aggregates (f_a, f_b) in (F_c, F_d).

    Returns a (2, 2) array, rows (F_c, F_d), columns (f_a, f_b):

        F_c: -i sqrt(Gamma) * (|kappa|^2 conj(eta),  conj(gamma) kappa)
        F_d: -i sqrt(Gamma) * (conj(kappa) gamma,    |gamma|^2 conj(tau))

    For a lossless ring (Gamma = 0) every coefficient is zero; when the
    first coupler is closed (kappa = 0) the c output collects no noise.
    """
    tau, kappa = params.coupler_in.tau, params.coupler_in.kappa
    eta, gamma = params.coupler_drop.tau, params.coupler_drop.kappa
    pref = -1j * math.sqrt(params.ring.loss_rate)
    return pref * np.array(
        [
            [abs(kappa) ** 2 * eta.conjugate(), gamma.conjugate() * kappa],
            [kappa.conjugate() * gamma, abs(gamma) ** 2 * tau.conjugate()],
        ]
    )


def noise_commutators(matrix: np.ndarray) -> np.ndarray:
    """Commutator matrix [F_i, F_j†] of the collective noise operators.

    Inferred from preservation of the output commutators rather than from
    the path-sum integrals: the result equals I - M M† entrywise,

        comm[c, c] = 1 - (|M_ca|^2 + |M_cb|^2),
        comm[d, d] = 1 - (|M_da|^2 + |M_db|^2),
        comm[c, d] = -(M_ca conj(M_da) + M_cb conj(M_db)),

    Hermitian and positive semidefinite whenever M is a contraction.
    Broadcasts over a (..., 2, 2) stack of matrices.

    Raises
    ------
    UnitarityError
        If a diagonal entry falls outside [0, 1] beyond rounding, i.e. M
        amplifies some input and cannot come from a passive ring.
    """
    m = np.asarray(matrix, dtype=complex)
    if m.shape[-2:] != (2, 2):
        raise ValueError(f"expected 2x2 matrices, got shape {m.shape}")
    comm = np.eye(2, dtype=complex) - m @ m.conj().swapaxes(-1, -2)
    diag = comm.diagonal(0, -2, -1).real
    outside = np.flatnonzero(~((-1e-12 <= diag) & (diag <= 1.0 + 1e-12)))  # NaN too
    if outside.size:
        label = "cd"[outside[0] % 2]
        raise UnitarityError(
            f"[F_{label}, F_{label}†] = {diag.flat[outside[0]]!r} outside [0, 1]; "
            "transfer matrix is not a passive contraction"
        )
    return comm


def _inverse_conjugate(m00, m01, m10, m11):
    """Entries (G00, G01, G10, G11) of G = conj(M^{-1}) from those of M.

    Broadcasts over array entries; a singular M gives inf or NaN, no error.
    """
    det = m00 * m11 - m01 * m10
    return np.conj(m11 / det), np.conj(-m01 / det), np.conj(-m10 / det), np.conj(m00 / det)


def inverse_conjugate(matrix: np.ndarray) -> np.ndarray:
    """Conjugated inverse of M, the matrix that maps output modes back to inputs.

    Satisfies conj(result) @ M = I.  For a unitary M this is just M^T.

    Raises
    ------
    ValueError
        If |det M| < 1e-14 (matrix is singular to working precision).
    """
    m = np.asarray(matrix, dtype=complex)
    if m.shape != (2, 2):
        raise ValueError(f"expected a 2x2 matrix, got shape {m.shape}")
    det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
    if abs(det) < 1e-14:
        raise ValueError(f"matrix is singular: |det| = {abs(det):.3e} < 1e-14")
    return np.array(_inverse_conjugate(*m.ravel())).reshape(2, 2)


def permanent2(matrix: np.ndarray) -> complex:
    """Permanent of a 2x2 matrix: m00*m11 + m01*m10."""
    m = np.asarray(matrix, dtype=complex)
    if m.shape != (2, 2):
        raise ValueError(f"expected a 2x2 matrix, got shape {m.shape}")
    return complex(m[0, 0] * m[1, 1] + m[0, 1] * m[1, 0])
