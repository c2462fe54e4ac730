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

from dataclasses import dataclass

import numpy as np

from .core import (
    CouplerParams,
    ResonantDivergenceError,
    RingParams,
    UnitarityError,
    _as_2x2,
    _as_2x2_stack,
    _cdiv,
    _cmul,
)

__all__ = [
    "AddDropParams",
    "inverse_conjugate",
    "noise_commutators",
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
        If an entry is not finite: the circulation denominator
        1 - conj(tau) conj(eta) z vanishes or is too small to divide by
        (lossless, both couplers fully reflective, on resonance).
    """
    coupler_in, coupler_drop, ring = params.coupler_in, params.coupler_drop, params.ring
    return _matrix(
        coupler_in.tau,
        coupler_in.kappa,
        coupler_drop.tau,
        coupler_drop.kappa,
        ring.alpha,
        ring.theta,
    )


def _matrix(tau, kappa, eta, gamma, alpha, theta) -> np.ndarray:
    """`transfer_matrix` broadcast over arrays: a (..., 2, 2) stack.

    Complex products and division round as CPython's, so every entry
    equals the module formula evaluated in Python scalars, bit for bit.
    """
    z = alpha * np.exp(1j * theta)
    s = np.sqrt(alpha) * np.exp(0.5j * theta)
    denom = 1.0 - _cmul(_cmul(np.conj(tau), np.conj(eta)), z)
    cross = _cdiv(s, denom)
    entries = (
        _cdiv(tau - _cmul(np.conj(eta), z), denom),
        _cmul(_cmul(-np.conj(gamma), kappa), cross),
        _cmul(_cmul(-np.conj(kappa), gamma), cross),
        _cdiv(eta - _cmul(np.conj(tau), z), denom),
    )
    m = np.stack(np.broadcast_arrays(*entries), axis=-1).reshape(denom.shape + (2, 2))
    if not np.all(np.isfinite(m)):  # a zero denominator gives NaN, a subnormal one inf
        raise ResonantDivergenceError(
            "unit loop gain: conj(tau)*conj(eta)*alpha*exp(i*theta) == 1"
        )
    return m


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
    m = _as_2x2_stack(matrix)
    comm = np.eye(2, dtype=complex) - m @ m.conj().swapaxes(-1, -2)
    diag = comm.diagonal(0, -2, -1).real
    outside = np.flatnonzero(~((-1e-12 <= diag) & (diag <= 1.0 + 1e-12)))  # NaN too
    if outside.size:
        label = "cd"[outside[0] % 2]
        raise UnitarityError(
            f"[F_{label}, F_{label}†] = {float(diag.flat[outside[0]])!r} outside [0, 1]; "
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
    Broadcasts over a (..., 2, 2) stack of matrices.

    Raises
    ------
    ValueError
        If |det M| < 1e-14 (matrix is singular to working precision).
    """
    m = _as_2x2_stack(matrix)
    entries = m[..., 0, 0], m[..., 0, 1], m[..., 1, 0], m[..., 1, 1]
    det = np.asarray(np.abs(entries[0] * entries[3] - entries[1] * entries[2]))
    if np.any(det < 1e-14):
        small = det[det < 1e-14].flat[0]
        raise ValueError(f"matrix is singular: |det| = {small:.3e} < 1e-14")
    return np.stack(_inverse_conjugate(*entries), axis=-1).reshape(m.shape)


def permanent2(matrix: np.ndarray) -> complex:
    """Permanent of a 2x2 matrix: m00*m11 + m01*m10."""
    m = _as_2x2(matrix)
    return complex(m[0, 0] * m[1, 1] + m[0, 1] * m[1, 0])
