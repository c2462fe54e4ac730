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

from .core import _elementwise

__all__ = [
    "BeamSplitterChain",
    "LossSegment",
    "continuum_commutator",
    "piecewise_commutator",
]

#: Target absolute accuracy for the Simpson quadrature in the commutator
#: check; the returned coefficient must sit within 1e-10 of 1, so the panel
#: count is sized for two extra digits.
QUADRATURE_TOL = 1e-12
#: Most Simpson panels `continuum_commutator` takes (8 MB of nodes).  The
#: audit's Gamma*L <= 5 needs about 2,000; the cap is reached near
#: Gamma*L = 710, where the transmitted weight exp(-Gamma*L) underflows.
_MAX_PANELS = 1_000_000


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
        if not self.gamma >= 0:  # NaN too
            raise ValueError(f"loss rate must be >= 0, got {self.gamma}")
        if not self.length > 0:
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
        """Single-step amplitude T = sqrt(1 - Gamma*L/N) * exp(i*beta*L/N)."""
        reflectivity = self.gamma * self.length / self.n_splitters
        if not 0.0 <= reflectivity <= 1.0:  # NaN too
            raise ValueError(
                f"per-splitter power reflectivity must be in [0, 1], got {reflectivity:.3g}"
            )
        return math.sqrt(1.0 - reflectivity) * cmath.exp(
            1j * self.beta * self.length / self.n_splitters
        )

    @property
    def amplitude(self) -> complex:
        """Total chain amplitude T**N."""
        return self.step_transmission ** self.n_splitters

    @property
    def power(self) -> float:
        return abs(self.amplitude) ** 2


def _simpson_panels(gamma_l: float) -> int:
    # Simpson error ~ (b-a) h^4 max|f''''|/180 with f = Gamma e^{-Gamma z};
    # in units x = Gamma z this is (G)(G/n)^4/180 <= QUADRATURE_TOL.
    if gamma_l <= 0.0:
        return 4
    # n exceeds gamma_l, so a larger gamma_l (or NaN) is over the cap; the
    # formula is skipped there because its fifth power may overflow
    n = math.inf
    if gamma_l <= _MAX_PANELS:
        n = math.ceil((gamma_l**5 / (180.0 * QUADRATURE_TOL)) ** 0.25)
    if n > _MAX_PANELS:
        raise ValueError(f"Gamma*L = {gamma_l:g} needs more than {_MAX_PANELS} Simpson panels")
    n = max(n, 4)
    return n + (n % 2)  # Simpson needs an even panel count


def continuum_commutator(gamma: float, length: float) -> float:
    """Transmitted power plus integrated noise weight for a uniform line.

    Evaluates ``exp(-Gamma*L) + Gamma * int_0^L exp(-Gamma*z) dz`` with the
    integral done by Simpson quadrature on an error-bound-sized grid.
    Equals 1 for any Gamma, L when the noise bookkeeping is consistent.
    """
    if not gamma >= 0:  # NaN too
        raise ValueError(f"loss rate must be >= 0, got {gamma}")
    if not length > 0:
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
        if not self.gamma >= 0:  # NaN too
            raise ValueError(f"loss rate must be >= 0, got {self.gamma}")
        if not 0 < self.length < math.inf:  # NaN too
            raise ValueError(f"length must be finite and > 0, got {self.length}")


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
    gammas = np.array([seg.gamma for seg in segments])
    lengths = np.array([seg.length for seg in segments])
    return float(_piecewise(gammas, lengths))


def _piecewise(gamma, length):
    """`piecewise_commutator` with the segments along the leading axis of
    broadcast ``gamma`` and ``length`` arrays.  Each segment power
    exp(-Gamma_i L_i) is the C library's ``exp``."""
    power = _elementwise(math.exp, -gamma * length)
    total = 1.0
    for p in power:
        total = total * p
    tail = 1.0
    for p in power[::-1]:
        total = total + tail * (1.0 - p)
        tail = tail * p
    return total
