"""All-pass ring resonator on a single bus waveguide.

Two equivalent descriptions are provided and can be checked against each
other:

* a circulating-phasor model, summing the geometric series of round trips
  to the closed form

      A(theta) = (tau - alpha e^{i theta}) / (1 - conj(tau) alpha e^{i theta}),

  with transmitted power |A|^2 and noise power 1 - |A|^2;

* a Lorentzian (coupled-mode) model

      A(delta) = (gamma_minus + i delta) / (gamma_plus - i delta),

  where gamma_plus/minus = (gamma_coupling +/- gamma_intrinsic)/2 and the
  noise power is gamma_coupling*gamma_intrinsic/(gamma_plus^2 + delta^2).

`match_rates` maps (tau, alpha, round-trip time) onto the rate pair that
makes the two lineshapes agree near resonance, and `power_comparison`
tabulates both on a detuning grid.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import (
    CouplerParams,
    RingParams,
    ResonantDivergenceError,
    TruncationError,
    _abs,
    _cdiv,
    _cmul,
    _square,
)

__all__ = [
    "CommutatorIdentity",
    "LangevinRates",
    "SingleBusResponse",
    "commutator_sum_identity",
    "commutator_sum_series",
    "langevin_transfer",
    "match_rates",
    "power_comparison",
    "transfer_amplitude",
]

#: Entry-count guard for the brute-force double commutator sum.
_MAX_SUM_ENTRIES = 20_000_000


class SingleBusResponse(NamedTuple):
    """Transfer amplitude of the bus mode plus the vacuum-noise power.

    ``abs(transfer)**2 + noise_power == 1`` whenever the underlying model
    conserves the field commutator.
    """

    transfer: complex
    noise_power: float


def transfer_amplitude(coupler: CouplerParams, ring: RingParams) -> SingleBusResponse:
    """Closed-form bus transfer for a single-coupler lossy ring.

    A = (tau - alpha e^{i theta}) / (1 - conj(tau) alpha e^{i theta}) and
    noise power 1 - |A|^2, obtained by summing all circulation numbers.

    Raises
    ------
    ResonantDivergenceError
        If conj(tau)*alpha*e^{i theta} == 1 (lossless, fully reflective,
        on resonance), where the circulation sum diverges.
    """
    amp, power, _ = _transfer(coupler.tau, ring.alpha, ring.theta)
    return SingleBusResponse(transfer=complex(amp), noise_power=1.0 - float(power))


def _transfer(tau, alpha, theta):
    """``(A, |A|^2, D)`` of `transfer_amplitude`, broadcast over arrays.

    D = 1 - conj(tau) alpha e^{i theta} is the circulation denominator.
    Products, division, modulus and square round as CPython's complex and
    float arithmetic do, so every entry equals the module formula evaluated
    in Python scalars, bit for bit.
    """
    z = alpha * np.exp(1j * theta)
    denom = 1.0 - _cmul(np.conj(tau), z)
    if np.any(denom == 0):
        raise ResonantDivergenceError(
            "unit loop gain: conj(tau)*alpha*exp(i*theta) == 1"
        )
    amp = _cdiv(tau - z, denom)
    return amp, _square(_abs(amp)), denom


@dataclass(frozen=True)
class LangevinRates:
    """Decay-rate pair of the Lorentzian model (angular rates, 1/s).

    ``coupling`` is the bus-coupling rate, ``intrinsic`` the internal loss
    rate.  Derived combinations: gamma_plus = (coupling + intrinsic)/2 sets
    the linewidth, gamma_minus = (coupling - intrinsic)/2 the on-resonance
    transmission sign/depth.
    """

    coupling: float
    intrinsic: float

    def __post_init__(self) -> None:
        if not 0 <= self.coupling < math.inf:  # NaN too
            raise ValueError(f"coupling rate must be finite and >= 0, got {self.coupling}")
        if not 0 <= self.intrinsic < math.inf:
            raise ValueError(f"intrinsic rate must be finite and >= 0, got {self.intrinsic}")

    @property
    def gamma_plus(self) -> float:
        return 0.5 * (self.coupling + self.intrinsic)

    @property
    def gamma_minus(self) -> float:
        return 0.5 * (self.coupling - self.intrinsic)


def langevin_transfer(rates: LangevinRates, delta: float) -> SingleBusResponse:
    """Lorentzian bus response at detuning ``delta`` from resonance.

    A = (gamma_minus + i delta)/(gamma_plus - i delta); the accompanying
    noise power gamma_c*gamma_int/(gamma_plus^2 + delta^2) completes
    |A|^2 + noise to exactly 1.
    """
    amp, noise = _lorentzian(rates.coupling, rates.intrinsic, delta)
    return SingleBusResponse(transfer=complex(amp), noise_power=float(noise))


def _lorentzian(coupling, intrinsic, delta):
    """``(A, noise)`` of `langevin_transfer` from its rates, broadcast over arrays."""
    _check_detunings(delta)
    gp, gm = 0.5 * (coupling + intrinsic), 0.5 * (coupling - intrinsic)
    if np.any((gp == 0.0) & (delta == 0.0)):
        raise ResonantDivergenceError(
            "response undefined at zero linewidth and zero detuning"
        )
    amp = _cdiv(gm + 1j * delta, gp - 1j * delta)
    return amp, coupling * intrinsic / (gp * gp + delta * delta)


def _check_detunings(delta) -> None:
    """Raise unless every detuning is finite."""
    bad = ~np.isfinite(delta)
    if np.any(bad):
        raise ValueError(f"detuning must be finite, got {np.asarray(delta)[bad].flat[0]}")


def match_rates(
    coupler: CouplerParams, ring: RingParams, round_trip_time: float
) -> LangevinRates:
    """Rates that make the Lorentzian lineshape match the ring response.

    With t = |tau| and a = alpha,

        coupling  * T_R = (1 + a)(1 - t) / sqrt(a t),
        intrinsic * T_R = (1 - a)(1 + t) / sqrt(a t),

    equivalently gamma_plus*T_R = (1 - a t)/sqrt(a t) and
    gamma_minus*T_R = (a - t)/sqrt(a t).  For weak loss and near-unity
    coupling these reduce to the familiar (1 - t)/T_R and Gamma L / (2 T_R).
    """
    coupling, intrinsic = _match_rates(abs(coupler.tau), ring.alpha, round_trip_time)
    return LangevinRates(coupling=float(coupling), intrinsic=float(intrinsic))


def _match_rates(t, a, round_trip_time):
    """``(coupling, intrinsic)`` of `match_rates` for |tau| = t and alpha = a,
    broadcast over arrays."""
    t_r = np.asarray(round_trip_time)
    bad = ~(t_r > 0)  # NaN too
    if np.any(bad):
        raise ValueError(f"round-trip time must be > 0, got {t_r[bad].flat[0]}")
    zero = (t == 0.0) | (a == 0.0)
    if np.any(zero):
        t0, a0 = (np.broadcast_to(x, np.shape(zero))[zero].flat[0] for x in (t, a))
        raise ValueError(
            "rate matching needs tau != 0 and alpha != 0 "
            f"(got |tau| = {t0}, alpha = {a0})"
        )
    scale = 1.0 / (np.sqrt(a * t) * round_trip_time)
    return (1.0 + a) * (1.0 - t) * scale, (1.0 - a) * (1.0 + t) * scale


def power_comparison(
    coupler: CouplerParams,
    alpha: float,
    round_trip_time: float,
    deltas: np.ndarray,
) -> np.ndarray:
    """Transmitted power of both models on a detuning grid.

    The ring response is evaluated at round-trip phase
    theta = arg(tau) + delta*T_R, which removes the coupler phase from the
    lineshape; the Lorentzian uses the `match_rates` pair at the same
    detuning.  Returns an (n, 3) array with columns
    ``(delta*T_R, power_ring, power_lorentzian)``.
    """
    rates = match_rates(
        coupler, RingParams.from_alpha(alpha, theta=0.0), round_trip_time
    )
    deltas = np.asarray(deltas, dtype=float)
    _check_detunings(deltas)
    t = abs(coupler.tau)
    x = deltas * round_trip_time
    # ring route, phase-rotated: A = (t - a e^{ix})/(1 - t a e^{ix})
    loop = alpha * np.exp(1j * x)
    ring_amp = (t - loop) / (1.0 - t * loop)
    ring_power = np.abs(ring_amp) ** 2
    lorentz_power = (rates.gamma_minus**2 + deltas**2) / (
        rates.gamma_plus**2 + deltas**2
    )
    return np.column_stack([x, ring_power, lorentz_power])


class CommutatorIdentity(NamedTuple):
    """Noise power computed two ways; equal when bookkeeping is consistent."""

    analytic: float
    closed: float


def commutator_sum_identity(
    coupler: CouplerParams, ring: RingParams
) -> CommutatorIdentity:
    """Noise power from the transfer amplitude vs. its closed form.

    ``analytic`` is 1 - |A|^2; ``closed`` is
    |kappa|^2 (1 - alpha^2) / |1 - conj(tau) alpha e^{i theta}|^2.
    The two agree to rounding for every parameter set.
    """
    analytic, closed = _noise_identity(coupler.tau, coupler.kappa, ring.alpha, ring.theta)
    return CommutatorIdentity(analytic=float(analytic), closed=float(closed))


def _noise_identity(tau, kappa, alpha, theta):
    """``(1 - |A|^2, |kappa|^2 (1 - alpha^2) / |D|^2)`` of
    `commutator_sum_identity` (D of `_transfer`), broadcast over arrays."""
    _, power, denom = _transfer(tau, alpha, theta)
    return 1.0 - power, _square(_abs(kappa)) * (1.0 - _square(alpha)) / _square(_abs(denom))


def commutator_sum_series(
    coupler: CouplerParams, ring: RingParams, n_max: int, m_max: int
) -> float:
    """Brute-force noise power: the double sum over circulation numbers
    n, m <= n_max of

        I_{n,m} = |kappa|^4 u^n conj(u)^m (alpha^|n-m| - alpha^{n+m+2}),

    u = conj(tau) e^{i theta}; the alpha exponents come from the overlap of
    noise injected on circulations n and m.  The region is square: ``m_max``
    must equal ``n_max``.  The sum is assembled as the real diagonal plus
    twice the real part of the strict lower triangle (the matrix is
    Hermitian in (n, m)), each term taken from one table of u^n and one of
    alpha^k, k <= 2 n_max + 2.  Converges to the `commutator_sum_identity`
    value as the order grows.

    Raises
    ------
    ValueError
        If the orders are not one integer >= 0.
    TruncationError
        If the (n_max + 1)^2 terms exceed `_MAX_SUM_ENTRIES`.
    """
    integers = all(
        isinstance(n, (int, np.integer)) and not isinstance(n, bool) for n in (n_max, m_max)
    )
    if not (integers and n_max == m_max >= 0):
        raise ValueError(
            f"truncation orders must be one integer >= 0, got n_max={n_max!r}, m_max={m_max!r}"
        )
    if (n_max + 1) ** 2 > _MAX_SUM_ENTRIES:
        raise TruncationError(
            f"{(n_max + 1) ** 2} terms exceeds the {_MAX_SUM_ENTRIES}-entry guard; "
            "pass a smaller order"
        )
    u = complex(coupler.tau).conjugate() * cmath.exp(1j * ring.theta)
    a = ring.alpha
    k4 = abs(coupler.kappa) ** 4
    rows, cols, gap, span = _lower_triangle(n_max)
    un = u ** np.arange(n_max + 1)
    powers = a ** np.arange(2 * n_max + 3)
    diag = k4 * (un * np.conj(un)) * (powers[0] - powers[2::2])
    lower = k4 * (un[rows] * np.conj(un)[cols]) * (powers[gap] - powers[span])
    return float(np.sum(np.real(diag))) + 2.0 * complex(np.sum(lower)).real


@functools.lru_cache(maxsize=1)
def _lower_triangle(order):
    """Row n, column m, n - m and n + m + 2 of each strict-lower-triangle
    entry of the (order + 1) x (order + 1) circulation table, row by row as
    ``np.tril_indices`` lists them."""
    rows, cols = np.tril_indices(order + 1, k=-1)
    indices = rows, cols, rows - cols, rows + cols + 2
    for index in indices:
        index.flags.writeable = False
    return indices
