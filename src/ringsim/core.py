"""Shared parameter types and series utilities for ring-resonator models.

All quantities are evaluated at a single optical frequency; frequency-domain
delta functions are normalized to 1, so every transfer amplitude and
commutator coefficient in this package is a plain dimensionless complex
number.
"""

from __future__ import annotations

import math
import cmath
from dataclasses import dataclass

import numpy as np

__all__ = [
    "CouplerParams",
    "RingParams",
    "ResonantDivergenceError",
    "TruncationError",
    "UnitarityError",
    "alpha_from_loss",
    "geometric_sum",
    "geometric_sum_truncated",
    "truncation_order",
]

#: Absolute tolerance for exact analytic identities.
IDENTITY_TOL = 1e-10
#: Absolute tolerance for truncated-series oracles.
SERIES_TOL = 1e-8


class UnitarityError(ValueError):
    """A quantity that must conserve power/probability failed to."""


class ResonantDivergenceError(ZeroDivisionError):
    """A circulation sum was evaluated at its divergent (unit loop gain) point.

    Reachable only for a lossless ring driven exactly on resonance through a
    fully reflective coupler; any finite loss keeps the loop gain inside the
    unit disk.
    """


class TruncationError(RuntimeError):
    """A series truncation order exceeded the hard cap before converging."""


#: Hard cap on automatically chosen truncation orders.
TRUNCATION_CAP = 100_000


def alpha_from_loss(gamma: float, length: float) -> float:
    """Round-trip amplitude survival factor alpha = exp(-Gamma*L/2).

    Parameters
    ----------
    gamma : float
        Distributed power loss rate, 1/m.  Must be >= 0.
    length : float
        Propagation length (one circulation), m.  Must be > 0.
    """
    if gamma < 0:
        raise ValueError(f"loss rate must be >= 0, got {gamma}")
    if length <= 0:
        raise ValueError(f"length must be > 0, got {length}")
    return math.exp(-0.5 * gamma * length)


def geometric_sum(x: complex) -> complex:
    """Closed form of sum_{n>=0} x**n = 1/(1-x) for |x| < 1."""
    if abs(x) >= 1.0:
        raise ResonantDivergenceError(
            f"circulation sum diverges for loop gain |x| >= 1 (|x| = {abs(x)})"
        )
    return 1.0 / (1.0 - x)


def geometric_sum_truncated(x: complex, n_max: int) -> complex:
    """Partial sum sum_{n=0}^{n_max} x**n.

    Uses the closed partial-sum form (1 - x^{n+1})/(1 - x) away from x = 1
    and falls back to direct accumulation when x is too close to 1 for the
    quotient to be accurate.
    """
    if n_max < 0:
        raise ValueError(f"n_max must be >= 0, got {n_max}")
    if abs(1.0 - x) > 1e-6:
        return (1.0 - x ** (n_max + 1)) / (1.0 - x)
    total = 0j
    term = 1.0 + 0j
    for _ in range(n_max + 1):
        total += term
        term *= x
    return total


def truncation_order(x: complex, tol: float = IDENTITY_TOL) -> int:
    """Smallest n with geometric tail bound |x|^{n+1}/(1-|x|) < tol.

    Raises
    ------
    TruncationError
        If more than ``TRUNCATION_CAP`` terms would be needed.
    ResonantDivergenceError
        If |x| >= 1 (no truncation converges).
    """
    mag = abs(x)
    if mag >= 1.0:
        raise ResonantDivergenceError(f"series does not converge for |x| = {mag}")
    if mag == 0.0:
        return 0
    # |x|^(n+1) < tol*(1-|x|)  =>  n > log(tol*(1-|x|))/log|x| - 1
    n = math.ceil(math.log(tol * (1.0 - mag)) / math.log(mag) - 1.0)
    n = max(n, 0)
    if n > TRUNCATION_CAP:
        raise TruncationError(
            f"{n} terms needed for tail bound {tol:g} at |x| = {mag}; "
            f"cap is {TRUNCATION_CAP}"
        )
    return n


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
    def from_through(cls, tau: complex) -> "CouplerParams":
        """Build from the through amplitude alone; kappa real >= 0."""
        mag2 = abs(tau) ** 2
        if mag2 > 1.0 + 1e-15:
            raise UnitarityError(f"|tau| must be <= 1, got {abs(tau)}")
        return cls(tau=complex(tau), kappa=math.sqrt(max(1.0 - mag2, 0.0)))

    @classmethod
    def from_magnitude(
        cls, magnitude: float, tau_phase: float = 0.0, kappa_phase: float = 0.0
    ) -> "CouplerParams":
        """Build from real through magnitude in [0, 1] plus optional phases."""
        tau, kappa = _coupler(magnitude, tau_phase, kappa_phase)
        return cls(tau=complex(tau), kappa=complex(kappa))


@dataclass(frozen=True)
class RingParams:
    """Ring geometry and propagation: circumference, loss rate, phase.

    Exactly one of ``theta`` (total round-trip phase, rad) or ``beta``
    (propagation constant, rad/m, giving theta = beta*L) must be provided.

    Attributes
    ----------
    circumference : float
        Ring circumference L, m.
    loss_rate : float
        Distributed power loss Gamma, 1/m; alpha = exp(-Gamma*L/2).
    theta, beta : float or None
        Round-trip phase, directly or via the propagation constant.
    """

    circumference: float
    loss_rate: float
    theta: float | None = None
    beta: float | None = None

    def __post_init__(self) -> None:
        if self.circumference <= 0:
            raise ValueError(f"circumference must be > 0, got {self.circumference}")
        if self.loss_rate < 0:
            raise ValueError(f"loss rate must be >= 0, got {self.loss_rate}")
        if (self.theta is None) == (self.beta is None):
            raise ValueError("provide exactly one of theta or beta")
        if not math.isfinite(self.round_trip_phase):
            raise ValueError("round-trip phase must be finite")

    @classmethod
    def from_alpha(
        cls, alpha: float, theta: float, circumference: float = 1.0
    ) -> "RingParams":
        """Build from the survival factor alpha in (0, 1] directly."""
        if not 0.0 < alpha <= 1.0:
            raise ValueError(f"alpha must be in (0, 1], got {alpha}")
        gamma = -2.0 * math.log(alpha) / circumference
        return cls(circumference=circumference, loss_rate=gamma, theta=theta)

    @property
    def alpha(self) -> float:
        """Round-trip amplitude survival factor in (0, 1]."""
        return alpha_from_loss(self.loss_rate, self.circumference) if self.loss_rate else 1.0

    @property
    def round_trip_phase(self) -> float:
        return self.theta if self.theta is not None else self.beta * self.circumference

    @property
    def loop_factor(self) -> complex:
        """One full circulation: alpha * exp(i*theta)."""
        return self.alpha * cmath.exp(1j * self.round_trip_phase)


def _check_power(tau, kappa) -> None:
    """Raise unless |tau|^2 + |kappa|^2 = 1 for every coupler of a broadcast pair."""
    defect = np.asarray(np.abs(np.abs(tau) ** 2 + np.abs(kappa) ** 2 - 1.0))
    bad = ~(defect < 1e-12)  # NaN too
    if np.any(bad):
        raise UnitarityError(
            f"|tau|^2 + |kappa|^2 must equal 1 (defect {defect[bad].flat[0]:.3e})"
        )


def _coupler(magnitude, tau_phase=0.0, kappa_phase=0.0):
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
    kappa = np.sqrt(1.0 - mag * mag) * np.exp(1j * np.asarray(kappa_phase, dtype=float))
    _check_power(tau, kappa)
    return tau, kappa


def _survival(alpha) -> np.ndarray:
    """Survival factors as `RingParams.from_alpha(alpha, theta).alpha` reads them.

    Each alpha in (0, 1] takes the scalar route's round trip through the
    loss rate of a unit-circumference ring, with the C library's ``log``
    and ``exp`` (numpy's round differently), so a batched route sees the
    scalar route's alpha bit for bit.  Broadcasts over arrays.
    """
    a = np.asarray(alpha, dtype=float)
    inside = (0.0 < a) & (a <= 1.0)
    if not np.all(inside):
        raise ValueError(f"alpha must be in (0, 1], got {a[~inside].flat[0]}")
    gamma = -2.0 * _elementwise(math.log, a)  # `RingParams.from_alpha`
    return _elementwise(math.exp, -0.5 * gamma)  # `alpha_from_loss`


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
