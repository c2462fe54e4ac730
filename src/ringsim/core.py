"""Shared parameter types and CPython-rounding kernels for ring-resonator models.

All quantities are evaluated at a single optical frequency; frequency-domain
delta functions are normalized to 1, so every transfer amplitude and
commutator coefficient in this package is a plain dimensionless complex
number.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "CouplerParams",
    "RingParams",
    "ResonantDivergenceError",
    "TruncationError",
    "UnitarityError",
    "alpha_from_loss",
]


class UnitarityError(ValueError):
    """A quantity that must conserve power/probability failed to."""


class ResonantDivergenceError(ZeroDivisionError):
    """A circulation sum was evaluated at its divergent (unit loop gain) point.

    Reachable only for a lossless ring driven on resonance, to within
    rounding, through a fully reflective coupler; any finite loss keeps the
    loop gain inside the unit disk.
    """


class TruncationError(RuntimeError):
    """The brute-force circulation double sum was asked for more terms than
    its entry guard allows (`single_bus.commutator_sum_series`)."""


def alpha_from_loss(gamma: float, length: float) -> float:
    """Round-trip amplitude survival factor alpha = exp(-Gamma*L/2).

    Parameters
    ----------
    gamma : float
        Distributed power loss rate, 1/m.  Must be >= 0.
    length : float
        Propagation length (one circulation), m.  Must be finite and > 0.
        Gamma*L above about 1490 is rejected: exp(-Gamma*L/2) underflows to 0.
    """
    _check_line(gamma, length)
    alpha = math.exp(-0.5 * gamma * length)
    if not alpha > 0.0:  # NaN too, from 0 * inf
        raise ValueError(f"loss rate {gamma} over length {length} leaves alpha = {alpha}")
    return alpha


@dataclass(frozen=True)
class CouplerParams:
    """One bus-ring junction: through amplitude tau, cross amplitude kappa.

    Power conservation |tau|^2 + |kappa|^2 = 1 is enforced at construction.
    Both amplitudes may be complex; figure-style parameters use real
    tau in [0, 1] with kappa = sqrt(1 - tau^2).
    """

    tau: complex
    kappa: complex

    def __post_init__(self) -> None:
        _check_power(self.tau, self.kappa)

    @classmethod
    def from_magnitude(cls, magnitude: float, tau_phase: float = 0.0) -> "CouplerParams":
        """Build from real through magnitude in [0, 1], an optional through
        phase and the real cross amplitude kappa = sqrt(1 - magnitude^2)."""
        tau, kappa = _coupler(magnitude, tau_phase)
        return cls(tau=complex(tau), kappa=complex(kappa))


@dataclass(frozen=True)
class RingParams:
    """Ring of unit circumference: loss rate and round-trip phase.

    Attributes
    ----------
    loss_rate : float
        Distributed power loss Gamma per circumference; alpha = exp(-Gamma/2).
    theta : float
        Total round-trip phase, rad.
    """

    loss_rate: float
    theta: float

    def __post_init__(self) -> None:
        if self.loss_rate == math.inf:
            raise ValueError(f"loss rate must be finite, got {self.loss_rate}")
        alpha_from_loss(self.loss_rate, 1.0)  # a NaN, negative or underflowing loss
        if not math.isfinite(self.theta):
            raise ValueError("round-trip phase must be finite")

    @classmethod
    def from_alpha(cls, alpha: float, theta: float) -> "RingParams":
        """Build a ring from the survival factor alpha in (0, 1]."""
        _check_alpha(alpha)
        return cls(loss_rate=-2.0 * math.log(alpha), theta=theta)

    @property
    def alpha(self) -> float:
        """Round-trip amplitude survival factor in (0, 1]."""
        return alpha_from_loss(self.loss_rate, 1.0)


def _check_power(tau, kappa) -> None:
    """Raise unless |tau|^2 + |kappa|^2 = 1 for every coupler of a broadcast pair."""
    defect = np.asarray(np.abs(np.abs(tau) ** 2 + np.abs(kappa) ** 2 - 1.0))
    bad = ~(defect < 1e-12)  # NaN too
    if np.any(bad):
        raise UnitarityError(
            f"|tau|^2 + |kappa|^2 must equal 1 (defect {defect[bad].flat[0]:.3e})"
        )


def _coupler(magnitude, tau_phase=0.0):
    """(tau, kappa) of `CouplerParams.from_magnitude`, broadcast over arrays.

    Raises `UnitarityError` like the scalar constructor: for a magnitude
    outside [0, 1] and for a power defect of 1e-12 or more.
    """
    mag = np.asarray(magnitude, dtype=float)
    inside = (0.0 <= mag) & (mag <= 1.0)
    if not np.all(inside):
        raise UnitarityError(
            f"through magnitude must be in [0, 1], got {mag[~inside].flat[0]}"
        )
    tau = mag * np.exp(1j * np.asarray(tau_phase, dtype=float))
    kappa = np.sqrt(1.0 - mag * mag) + 0j
    _check_power(tau, kappa)
    return tau, kappa


def _survival(alpha) -> np.ndarray:
    """Survival factors as `RingParams.from_alpha(alpha, theta).alpha` reads them.

    Each alpha in (0, 1] takes the scalar route's round trip through the
    loss rate of a unit-circumference ring, with the C library's ``log``
    and ``exp`` (numpy's round differently), so a batched route sees the
    scalar route's alpha bit for bit.  Broadcasts over arrays.
    """
    a = _check_alpha(alpha)
    gamma = -2.0 * _elementwise(math.log, a)  # `RingParams.from_alpha`
    return _elementwise(math.exp, -0.5 * gamma)  # `alpha_from_loss`


def _check_alpha(alpha) -> np.ndarray:
    """Survival factors as a float array; raise unless each (NaN too) lies in (0, 1]."""
    a = np.asarray(alpha, dtype=float)
    inside = (0.0 < a) & (a <= 1.0)
    if not np.all(inside):
        bad = alpha if a.ndim == 0 else a[~inside].flat[0]
        raise ValueError(f"alpha must be in (0, 1], got {bad}")
    return a


def _check_line(gamma, length) -> None:
    """Raise unless each loss rate (NaN too) is >= 0 and each length is
    finite and > 0.  Broadcasts over arrays."""
    g, ell = np.asarray(gamma, dtype=float), np.asarray(length, dtype=float)
    bad = ~(g >= 0)
    if np.any(bad):
        got = gamma if g.ndim == 0 else g[bad].flat[0]
        raise ValueError(f"loss rate must be >= 0, got {got}")
    bad = ~((0 < ell) & (ell < math.inf))
    if np.any(bad):
        got = length if ell.ndim == 0 else ell[bad].flat[0]
        raise ValueError(f"length must be finite and > 0, got {got}")


def _real_couplers(tau, eta) -> tuple[np.ndarray, np.ndarray]:
    """Real through amplitudes tau and eta as float arrays; raise unless
    each lies in [0, 1].  NaN passes."""
    t, e = np.asarray(tau, dtype=float), np.asarray(eta, dtype=float)
    if np.any(t < 0) or np.any(t > 1) or np.any(e < 0) or np.any(e > 1):
        raise ValueError("real coupler amplitudes must lie in [0, 1]")
    return t, e


def _as_2x2(matrix, noun: str = "matrix") -> np.ndarray:
    """``matrix`` as a complex 2x2 array; raise naming its shape otherwise."""
    m = np.asarray(matrix, dtype=complex)
    if m.shape != (2, 2):
        raise ValueError(f"expected a 2x2 {noun}, got shape {m.shape}")
    return m


def _as_2x2_stack(matrix) -> np.ndarray:
    """``matrix`` as a complex (..., 2, 2) stack; raise naming its shape otherwise."""
    m = np.asarray(matrix, dtype=complex)
    if m.shape[-2:] != (2, 2):
        raise ValueError(f"expected 2x2 matrices, got shape {m.shape}")
    return m


def _abs(z):
    """|z| rounded as Python's ``abs(complex)``; ``np.abs`` rounds differently."""
    return np.hypot(np.real(z), np.imag(z))


def _square(x):
    """x ** 2 rounded as Python's float ``**``: the C library's ``pow``.

    numpy's ``x * x`` and ``x ** 2`` round some values differently.
    """
    return _elementwise(lambda v: v**2, x)


def _elementwise(fn, x) -> np.ndarray:
    """``fn`` (a `math` function) applied to each element of x, as a float array."""
    x = np.asarray(x, dtype=float)
    return np.fromiter(map(fn, x.ravel().tolist()), float, x.size).reshape(x.shape)


def _cmul(a, b):
    """a * b with CPython's complex product, broadcast over arrays.

    numpy's complex ``*`` on arrays fuses a multiply and an add where the
    CPU has FMA, so it rounds differently from CPython's product.  Like
    CPython's, it overflows to inf or NaN silently.
    """
    a, b = np.broadcast_arrays(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))
    out = np.empty(a.shape, dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        out.real = a.real * b.real - a.imag * b.imag
        out.imag = a.real * b.imag + a.imag * b.real
    return out


def _cdiv(a, b):
    """a / b with CPython's complex division, broadcast over arrays.

    numpy's complex ``/`` rounds differently from CPython's, whose Smith
    division this ports: scale by the larger part of ``b`` and divide by
    ``denom``, never multiplying by its reciprocal.  A NaN in ``b`` gives
    NaN; a zero ``b`` gives NaN where CPython raises, so callers check it.
    """
    a, b = np.broadcast_arrays(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))
    ar, ai, br, bi = a.real, a.imag, b.real, b.imag
    by_re = np.abs(br) >= np.abs(bi)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore", under="ignore"):
        ratio = np.where(by_re, bi / br, br / bi)
        denom = np.where(by_re, br + bi * ratio, br * ratio + bi)
        out = np.empty(a.shape, dtype=complex)
        out.real = np.where(by_re, ar + ai * ratio, ar * ratio + ai) / denom
        out.imag = np.where(by_re, ai - ar * ratio, ai * ratio - ar) / denom
    return out
