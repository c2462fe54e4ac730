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

from .core import _check_line, _elementwise

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
#: Most quadrature nodes `_continuum` evaluates at once.  Bounds the pass's
#: temporaries to a few hundred kB whatever the number of draws; one pass
#: over a whole 1024-draw audit block raised the audit's peak memory by 30%.
_PASS_NODES = 8192
#: Most beam splitters in a chain.  Beyond it the step transmission
#: 1 - gamma*L/N rounds before its N-th power is taken, so the chain error
#: no longer measures the O(1/N) discretisation.
_MAX_SPLITTERS = 1_000_000


@dataclass(frozen=True)
class BeamSplitterChain:
    """N-splitter discretization of a uniform lossy line.

    Requires an integer ``n_splitters >= gamma * length`` so each splitter's
    power reflectivity ``Gamma*L/N`` stays in [0, 1], and at most
    `_MAX_SPLITTERS` of them.
    """

    gamma: float
    length: float
    beta: float = 0.0
    n_splitters: int = 1000

    def __post_init__(self) -> None:
        _check_line(self.gamma, self.length)
        if not math.isfinite(self.beta * self.length):  # NaN or infinite beta too
            raise ValueError(f"beta * length must be finite, got beta = {self.beta}")
        if not (isinstance(self.n_splitters, (int, np.integer)) and self.n_splitters >= 1):
            raise ValueError(f"n_splitters must be an integer >= 1, got {self.n_splitters}")
        if self.n_splitters > _MAX_SPLITTERS:
            raise ValueError(f"n_splitters must be <= {_MAX_SPLITTERS}, got {self.n_splitters}")
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
    return float(_continuum(gamma, length))


def _continuum(gamma, length):
    """`continuum_commutator`, broadcast over arrays of loss rates and lengths.

    Each draw keeps its own `_simpson_panels` grid of n + 1 nodes
    z_j = j * (L/n), with z_n = L, as ``np.linspace`` spaces them.  The
    draws' grids are laid end to end in one array, one pass of at most
    `_PASS_NODES` nodes at a time (a larger single grid takes a pass of its
    own), and ``exp`` is evaluated once per pass; `_simpson` reduces each
    draw to the value of the draw-by-draw Simpson rule, bit for bit.
    """
    gamma, length = np.broadcast_arrays(
        np.asarray(gamma, dtype=float), np.asarray(length, dtype=float)
    )
    _check_line(gamma, length)
    gl = gamma * length
    g, ell = gamma.ravel(), length.ravel()
    panels = np.array(list(map(_simpson_panels, gl.ravel().tolist())), dtype=np.int64)
    size = panels + 2  # a draw's entries in `_simpson`
    ends = np.cumsum(size)
    integral = np.empty(g.size)
    start = 0
    while start < g.size:
        # the draws whose entries end within _PASS_NODES of this draw's start
        stop = int(np.searchsorted(ends, ends[start] - size[start] + _PASS_NODES, "right"))
        part = slice(start, max(stop, start + 1))
        integral[part] = _simpson(g[part], ell[part], panels[part])
        start = part.stop
    return _elementwise(math.exp, -gl) + integral.reshape(gl.shape)


def _simpson(gamma, length, panels):
    """Composite Simpson integral of Gamma e^{-Gamma z} over [0, L] for each
    draw: h/3 (f_0 + 4 sum(odd f_j) + 2 sum(interior even f_j) + f_n).

    A draw's n + 2 entries are [0, f_0, f_1, ..., f_n], with f_0 zeroed
    once read.  n is even, so every draw starts at an even offset: the
    even entries are [0, f_1, f_3, ..., f_{n-1}] draw after draw, the odd
    ones [0, f_2, ..., f_{n-2}, f_n].  ``np.add.reduceat`` sums a segment
    that opens with 0 as ``ndarray.sum`` sums the rest of it, so each draw
    rounds as the same rule on its own ``np.linspace`` grid.
    """
    size = panels + 2
    first = np.cumsum(size) - size
    last = first + size - 1
    z = (np.arange(size.sum()) - np.repeat(first + 1, size)) * np.repeat(length / panels, size)
    z[last] = length
    rate = np.repeat(gamma, size)
    f = rate * np.exp(-rate * z)
    f_0, f_n = f[first + 1], f[last]
    f[first] = 0.0
    f[first + 1] = 0.0
    odd = np.add.reduceat(f[0::2], first // 2)
    even = np.add.reduceat(f[1::2], np.stack([first // 2, last // 2], axis=1).ravel())[0::2]
    return length / panels / 3.0 * (f_0 + 4.0 * odd + 2.0 * even + f_n)


@dataclass(frozen=True)
class LossSegment:
    """One uniform piece of a piecewise-lossy line."""

    gamma: float
    length: float

    def __post_init__(self) -> None:
        _check_line(self.gamma, self.length)


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
