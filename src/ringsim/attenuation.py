"""Distributed attenuation as a beam-splitter cascade and its continuum limit.

A lossy waveguide of length L with power loss rate Gamma is modeled as N
identical weak beam splitters, each transmitting
``T = sqrt(1 - Gamma*L/N) * exp(i*beta*L/N)``.  The chain amplitude T**N
tends to ``exp(-Gamma*L/2 + i*beta*L)`` as N grows, and the vacuum noise
admitted through the reflected ports restores the field commutator exactly:

    e^{-Gamma*L} + Gamma * int_0^L e^{-Gamma*z} dz = 1.

`continuum_commutator` and `piecewise_commutator` evaluate the left-hand
side numerically and should return 1 to within quadrature error.
"""

from __future__ import annotations

import math
import cmath
from dataclasses import dataclass

import numpy as np

__all__ = [
    "BeamSplitterChain",
    "LossSegment",
    "chain_transmission",
    "continuum_commutator",
    "noise_norm",
    "piecewise_commutator",
    "splitter_transmission",
]

#: Target absolute accuracy for the Simpson quadrature in the commutator
#: check; the returned coefficient must sit within 1e-10 of 1, so the panel
#: count is sized for two extra digits.
QUADRATURE_TOL = 1e-12


@dataclass(frozen=True)
class BeamSplitterChain:
    """N-splitter discretization of a uniform lossy line.

    Requires ``n_splitters >= gamma * length`` so each splitter's power
    reflectivity ``Gamma*L/N`` stays in [0, 1].
    """

    gamma: float
    length: float
    beta: float = 0.0
    n_splitters: int = 1000

    def __post_init__(self) -> None:
        if self.gamma < 0:
            raise ValueError(f"loss rate must be >= 0, got {self.gamma}")
        if self.length <= 0:
            raise ValueError(f"length must be > 0, got {self.length}")
        if self.n_splitters < 1:
            raise ValueError(f"need at least one splitter, got {self.n_splitters}")
        if self.gamma * self.length > self.n_splitters:
            raise ValueError(
                "per-splitter reflectivity Gamma*L/N = "
                f"{self.gamma * self.length / self.n_splitters:.3g} exceeds 1; "
                "increase n_splitters"
            )

    @property
    def step_transmission(self) -> complex:
        return splitter_transmission(self.gamma, self.length, self.beta, self.n_splitters)

    @property
    def amplitude(self) -> complex:
        """Total chain amplitude T**N."""
        return self.step_transmission ** self.n_splitters

    @property
    def power(self) -> float:
        return abs(self.amplitude) ** 2

    @property
    def continuum_power(self) -> float:
        """Limit value exp(-Gamma*L) the chain power converges to."""
        return math.exp(-self.gamma * self.length)


def splitter_transmission(
    gamma: float, length: float, beta: float = 0.0, n_splitters: int = 1000
) -> complex:
    """Single-step amplitude T = sqrt(1 - Gamma*L/N) * exp(i*beta*L/N)."""
    reflectivity = gamma * length / n_splitters
    if not 0.0 <= reflectivity <= 1.0:
        raise ValueError(
            f"per-splitter power reflectivity must be in [0, 1], got {reflectivity:.3g}"
        )
    return math.sqrt(1.0 - reflectivity) * cmath.exp(1j * beta * length / n_splitters)


def chain_transmission(
    gamma: float, length: float, beta: float = 0.0, n_splitters: int = 1000
) -> complex:
    """Amplitude through the full N-splitter chain, T**N."""
    return BeamSplitterChain(gamma, length, beta, n_splitters).amplitude


def _simpson_panels(gamma_l: float) -> int:
    # Simpson error ~ (b-a) h^4 max|f''''|/180 with f = Gamma e^{-Gamma z};
    # in units x = Gamma z this is (G)(G/n)^4/180 <= QUADRATURE_TOL.
    if gamma_l <= 0.0:
        return 4
    n = math.ceil((gamma_l**5 / (180.0 * QUADRATURE_TOL)) ** 0.25)
    n = max(n, 4)
    return n + (n % 2)  # Simpson needs an even panel count


def continuum_commutator(gamma: float, length: float) -> float:
    """Transmitted power plus integrated noise weight for a uniform line.

    Evaluates ``exp(-Gamma*L) + Gamma * int_0^L exp(-Gamma*z) dz`` with the
    integral done by Simpson quadrature on an error-bound-sized grid.
    Equals 1 for any Gamma, L when the noise bookkeeping is consistent.
    """
    if gamma < 0:
        raise ValueError(f"loss rate must be >= 0, got {gamma}")
    if length <= 0:
        raise ValueError(f"length must be > 0, got {length}")
    gl = gamma * length
    n = _simpson_panels(gl)
    f = gamma * np.exp(-gamma * np.linspace(0.0, length, n + 1))
    # composite Simpson: h/3 times the weights 1, 4, 2, 4, ..., 2, 4, 1
    weighted = f[0] + 4.0 * f[1::2].sum() + 2.0 * f[2:-1:2].sum() + f[-1]
    return math.exp(-gl) + float(length / n / 3.0 * weighted)


@dataclass(frozen=True)
class LossSegment:
    """One uniform piece of a piecewise-lossy line."""

    gamma: float
    length: float

    def __post_init__(self) -> None:
        if self.gamma < 0:
            raise ValueError(f"loss rate must be >= 0, got {self.gamma}")
        if self.length <= 0:
            raise ValueError(f"length must be > 0, got {self.length}")

    @property
    def power(self) -> float:
        return math.exp(-self.gamma * self.length)


def piecewise_commutator(segments: list[LossSegment] | tuple[LossSegment, ...]) -> float:
    """Commutator coefficient for a chain of uniform lossy segments.

    The field transmitted through all segments keeps weight
    ``prod_i exp(-Gamma_i L_i)``; noise injected in segment i is attenuated
    by every later segment, contributing
    ``(prod_{j>i} exp(-Gamma_j L_j)) * (1 - exp(-Gamma_i L_i))``.
    The total is identically 1.
    """
    if not segments:
        raise ValueError("need at least one segment")
    total = 1.0
    for seg in segments:
        total *= seg.power
    tail = 1.0
    for seg in reversed(segments):
        total += tail * (1.0 - seg.power)
        tail *= seg.power
    return total


def noise_norm(gamma: float, length: float) -> float:
    """Norm sqrt(1 - exp(-Gamma*L)) of the accumulated noise operator."""
    if gamma < 0:
        raise ValueError(f"loss rate must be >= 0, got {gamma}")
    if length <= 0:
        raise ValueError(f"length must be > 0, got {length}")
    return math.sqrt(1.0 - math.exp(-gamma * length))
