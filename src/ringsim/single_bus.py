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

import math
import cmath
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import (
    CouplerParams,
    RingParams,
    ResonantDivergenceError,
    SERIES_TOL,
    TruncationError,
    _abs,
    _cdiv,
    _cmul,
    _square,
    geometric_sum_truncated,
    truncation_order,
)

__all__ = [
    "CommutatorIdentity",
    "LangevinRates",
    "ResonanceSpec",
    "SingleBusResponse",
    "background_reflection",
    "commutator_sum_identity",
    "commutator_sum_series",
    "commutator_sum_term",
    "intracavity_fields",
    "langevin_transfer",
    "match_rates",
    "power_comparison",
    "reflection_coefficient",
    "transfer_amplitude",
    "transfer_series",
]

#: Entry-count guard for the brute-force double commutator sum.
_MAX_SUM_ENTRIES = 20_000_000


def _conj(x: complex) -> complex:
    return complex(x).conjugate()


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
    amp, power, _ = _transfer(coupler.tau, ring.alpha, ring.round_trip_phase)
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


def _closed_noise(kappa, alpha, denom):
    """Closed noise power |kappa|^2 (1 - alpha^2) / |D|^2, broadcast over arrays."""
    return _square(_abs(kappa)) * (1.0 - _square(alpha)) / _square(_abs(denom))


def transfer_series(
    coupler: CouplerParams,
    ring: RingParams,
    n_max: int | None = None,
    tol: float = SERIES_TOL,
) -> complex:
    """Bus transfer as an explicit sum over circulation number,

        A = tau - |kappa|^2 alpha e^{i theta}
                  sum_{n=0}^{n_max} (conj(tau) alpha e^{i theta})^n.

    When ``n_max`` is omitted it is chosen so the geometric tail bound
    |x|^{n+1}/(1-|x|) stays below ``tol``.
    """
    z = ring.loop_factor
    x = _conj(coupler.tau) * z
    if n_max is None:
        n_max = truncation_order(x, tol)
    partial = geometric_sum_truncated(x, n_max)
    return coupler.tau - abs(coupler.kappa) ** 2 * z * partial


def intracavity_fields(
    coupler: CouplerParams, ring: RingParams
) -> tuple[complex, complex]:
    """Steady circulating amplitudes just after and just before the coupler.

    Returns ``(launched, returned)`` with

        launched = -conj(kappa) / (1 - conj(tau) alpha e^{i theta}),
        returned = launched * alpha e^{i theta},

    so that ``tau + kappa * returned`` reproduces `transfer_amplitude`.
    On resonance with no loss the circulating power |launched|^2 equals the
    buildup factor (1 + tau)/(1 - tau) for real tau.
    """
    z = ring.loop_factor
    denom = 1.0 - _conj(coupler.tau) * z
    if denom == 0:
        raise ResonantDivergenceError(
            "unit loop gain: conj(tau)*alpha*exp(i*theta) == 1"
        )
    launched = -_conj(coupler.kappa) / denom
    return launched, launched * z


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
        if self.coupling < 0:
            raise ValueError(f"coupling rate must be >= 0, got {self.coupling}")
        if self.intrinsic < 0:
            raise ValueError(f"intrinsic rate must be >= 0, got {self.intrinsic}")

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
    gp, gm = 0.5 * (coupling + intrinsic), 0.5 * (coupling - intrinsic)
    if np.any((gp == 0.0) & (delta == 0.0)):
        raise ResonantDivergenceError(
            "response undefined at zero linewidth and zero detuning"
        )
    amp = _cdiv(gm + 1j * delta, gp - 1j * delta)
    return amp, coupling * intrinsic / (gp * gp + delta * delta)


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
    if np.any(t_r <= 0):
        raise ValueError(f"round-trip time must be > 0, got {t_r[t_r <= 0].flat[0]}")
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
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"alpha must be in (0, 1], got {alpha}")
    if round_trip_time <= 0:
        raise ValueError(f"round-trip time must be > 0, got {round_trip_time}")
    deltas = np.asarray(deltas, dtype=float)
    t = abs(coupler.tau)
    x = deltas * round_trip_time
    # ring route, phase-rotated: A = (t - a e^{ix})/(1 - t a e^{ix})
    loop = alpha * np.exp(1j * x)
    ring_amp = (t - loop) / (1.0 - t * loop)
    ring_power = np.abs(ring_amp) ** 2
    rates = match_rates(
        coupler, RingParams.from_alpha(alpha, theta=0.0), round_trip_time
    )
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
    _, power, denom = _transfer(coupler.tau, ring.alpha, ring.round_trip_phase)
    closed = _closed_noise(coupler.kappa, ring.alpha, denom)
    return CommutatorIdentity(analytic=1.0 - float(power), closed=float(closed))


def commutator_sum_term(
    n: int, m: int, coupler: CouplerParams, ring: RingParams
) -> complex:
    """One (n, m) element of the double sum over circulation numbers.

    I_{n,m} = |kappa|^4 u^n conj(u)^m (alpha^|n-m| - alpha^{n+m+2})
    with u = conj(tau) e^{i theta}; the alpha exponents come from the
    overlap of noise injected on circulations n and m.  Diagonal terms
    reduce to |kappa|^4 |tau|^{2n} (1 - alpha^{2(n+1)}).
    """
    if n < 0 or m < 0:
        raise ValueError("circulation numbers must be >= 0")
    u = _conj(coupler.tau) * cmath.exp(1j * ring.round_trip_phase)
    a = ring.alpha
    return (
        abs(coupler.kappa) ** 4
        * u**n
        * _conj(u) ** m
        * (a ** abs(n - m) - a ** (n + m + 2))
    )


def commutator_sum_series(
    coupler: CouplerParams,
    ring: RingParams,
    n_max: int | None = None,
    m_max: int | None = None,
    tol: float = SERIES_TOL,
) -> float:
    """Brute-force noise power: double sum of `commutator_sum_term`.

    For a square region the sum is assembled as the real diagonal plus
    twice the real part of the strict lower triangle (the matrix is
    Hermitian in (n, m)); rectangular regions fall back to summing every
    element.  Converges to the `commutator_sum_identity` value as the
    orders grow.
    """
    x = _conj(coupler.tau) * ring.loop_factor
    if n_max is None:
        n_max = truncation_order(x, tol)
    if m_max is None:
        m_max = n_max
    if n_max < 0 or m_max < 0:
        raise ValueError("truncation orders must be >= 0")
    if (n_max + 1) * (m_max + 1) > _MAX_SUM_ENTRIES:
        raise TruncationError(
            f"({n_max + 1}) x ({m_max + 1}) terms exceeds the "
            f"{_MAX_SUM_ENTRIES}-entry guard; pass smaller explicit orders"
        )
    ni = np.arange(n_max + 1)
    mi = np.arange(m_max + 1)
    u = _conj(coupler.tau) * cmath.exp(1j * ring.round_trip_phase)
    a = ring.alpha
    un = u**ni
    phase = np.outer(un, np.conj(u**mi))
    decay = a ** np.abs(np.subtract.outer(ni, mi)) - a ** (
        np.add.outer(ni, mi) + 2.0
    )
    terms = abs(coupler.kappa) ** 4 * phase * decay
    if n_max == m_max:
        diag = float(np.sum(np.real(np.diagonal(terms))))
        lower = complex(np.sum(terms[np.tril_indices(n_max + 1, k=-1)]))
        return diag + 2.0 * lower.real
    return float(np.sum(terms).real)


@dataclass(frozen=True)
class ResonanceSpec:
    """One resonance of the multi-line reflection model.

    Rates are angular (1/s); ``center`` is the resonance frequency the
    detuning is measured from.
    """

    coupling: float
    intrinsic: float = 0.0
    center: float = 0.0

    def __post_init__(self) -> None:
        if self.coupling <= 0:
            raise ValueError(f"coupling rate must be > 0, got {self.coupling}")
        if self.intrinsic < 0:
            raise ValueError(f"intrinsic rate must be >= 0, got {self.intrinsic}")

    def lorentzian(self, omega: complex | np.ndarray) -> complex | np.ndarray:
        """L(omega) = gamma_c / ((gamma_c + gamma_int)/2 - i(omega - center))."""
        half_width = 0.5 * (self.coupling + self.intrinsic)
        return self.coupling / (half_width - 1j * (np.asarray(omega) - self.center))


def reflection_coefficient(
    resonances: list[ResonanceSpec] | tuple[ResonanceSpec, ...],
    omega: float | np.ndarray,
    background: complex = -1.0,
) -> complex | np.ndarray:
    """Reflection r(omega) = background + sum_j L_j(omega).

    With a single lossless resonance and background -1 this reduces to the
    `langevin_transfer` amplitude (gamma_minus + i delta)/(gamma_plus - i delta).
    """
    if not resonances:
        raise ValueError("need at least one resonance")
    total = np.asarray(omega, dtype=float) * 0j + background
    for res in resonances:
        total = total + res.lorentzian(omega)
    if np.ndim(omega) == 0:
        return complex(total)
    return total


def background_reflection(
    resonances: list[ResonanceSpec] | tuple[ResonanceSpec, ...],
    omega: float,
) -> float:
    """Real background amplitude making the lossless reflection unimodular.

    Requires every resonance to be lossless (intrinsic == 0); then
    |c + sum_j L_j| = 1 gives the real quadratic

        c^2 + S c + (S + X - 1) = 0,
        S = sum_j |L_j|^2,   X = 2 sum_{j<k} Re(L_j conj(L_k)),

    and the physical root is the one closer to -1.  For a single resonance
    the roots are exactly -1 and S - 1 at every frequency.

    Raises
    ------
    ValueError
        If any resonance has internal loss, or if the discriminant is
        negative (overlapping lines with no unimodular real background).
    """
    if not resonances:
        raise ValueError("need at least one resonance")
    lossy = [r for r in resonances if r.intrinsic != 0.0]
    if lossy:
        raise ValueError(
            f"background solve applies to lossless resonances only; "
            f"{len(lossy)} have intrinsic loss"
        )
    amps = [complex(r.lorentzian(omega)) for r in resonances]
    s = sum(abs(l) ** 2 for l in amps)
    cross = 0.0
    for j in range(len(amps)):
        for k in range(j + 1, len(amps)):
            cross += 2.0 * (amps[j] * amps[k].conjugate()).real
    # c^2 + s*c + (s + cross - 1) = 0
    disc = s * s - 4.0 * (s + cross - 1.0)
    if disc < 0:
        raise ValueError(
            f"no real unimodular background exists here (discriminant {disc:.3e})"
        )
    root = math.sqrt(disc)
    lo, hi = (-s - root) / 2.0, (-s + root) / 2.0
    return lo if abs(lo + 1.0) <= abs(hi + 1.0) else hi
