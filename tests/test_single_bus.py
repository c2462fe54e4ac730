import cmath
import math

import numpy as np
import pytest

from ringsim.core import CouplerParams, ResonantDivergenceError, RingParams, TruncationError
from ringsim.single_bus import (
    LangevinRates,
    commutator_sum_identity,
    commutator_sum_series,
    langevin_transfer,
    match_rates,
    power_comparison,
    transfer_amplitude,
)


def _random_pair(rng, max_tau=0.99, max_alpha=1.0):
    coupler = CouplerParams.from_magnitude(
        rng.uniform(0.0, max_tau), tau_phase=rng.uniform(-np.pi, np.pi)
    )
    ring = RingParams.from_alpha(
        rng.uniform(0.2, max_alpha), theta=rng.uniform(-np.pi, np.pi)
    )
    return coupler, ring


# --- circulation-sum oracles ----------------------------------------------------


def _transfer_series(coupler, ring, n_max=500):
    """Bus transfer as the explicit sum over circulation number,

        A = tau - |kappa|^2 z sum_{n=0}^{n_max} (conj(tau) z)^n,  z = alpha e^{i theta}.
    """
    z = ring.alpha * cmath.exp(1j * ring.theta)
    x = coupler.tau.conjugate() * z
    return coupler.tau - abs(coupler.kappa) ** 2 * z * sum(x**n for n in range(n_max + 1))


def _sum_term(n, m, coupler, ring):
    """One (n, m) term of the circulation double sum for the noise power,
    |kappa|^4 u^n conj(u)^m (alpha^|n-m| - alpha^{n+m+2}), u = conj(tau) e^{i theta}."""
    u = coupler.tau.conjugate() * cmath.exp(1j * ring.theta)
    a = ring.alpha
    decay = a ** abs(n - m) - a ** (n + m + 2)
    return abs(coupler.kappa) ** 4 * u**n * u.conjugate() ** m * decay


def _outer_sum(coupler, ring, order):
    """The order x order circulation double sum from full ``np.outer`` tables
    of phases and decays: the real diagonal plus twice the real part of the
    strict lower triangle."""
    ni = np.arange(order + 1)
    u = coupler.tau.conjugate() * cmath.exp(1j * ring.theta)
    a = ring.alpha
    phase = np.outer(u**ni, np.conj(u**ni))
    decay = a ** np.abs(np.subtract.outer(ni, ni)) - a ** (np.add.outer(ni, ni) + 2.0)
    terms = abs(coupler.kappa) ** 4 * phase * decay
    lower = complex(np.sum(terms[np.tril_indices(order + 1, k=-1)]))
    return float(np.sum(np.real(np.diagonal(terms)))) + 2.0 * lower.real


def test_transfer_closed_form_value():
    coupler = CouplerParams.from_magnitude(0.8)
    ring = RingParams.from_alpha(0.9, theta=0.4)
    z = 0.9 * cmath.exp(0.4j)
    expected = (0.8 - z) / (1 - 0.8 * z)
    amp, noise = transfer_amplitude(coupler, ring)
    assert amp == pytest.approx(expected)
    assert noise == pytest.approx(1 - abs(expected) ** 2)


def test_lossless_transfer_is_unimodular():
    rng = np.random.default_rng(11)
    for _ in range(100):
        coupler, _ = _random_pair(rng)
        ring = RingParams.from_alpha(1.0, theta=rng.uniform(-np.pi, np.pi))
        amp, noise = transfer_amplitude(coupler, ring)
        assert abs(abs(amp) - 1.0) < 1e-12
        assert abs(noise) < 1e-12


def test_transfer_divergence_at_unit_loop_gain():
    coupler = CouplerParams.from_magnitude(1.0)
    ring = RingParams.from_alpha(1.0, theta=0.0)
    with pytest.raises(ResonantDivergenceError):
        transfer_amplitude(coupler, ring)


def test_series_route_matches_closed_form():
    rng = np.random.default_rng(12)
    for _ in range(100):
        coupler, ring = _random_pair(rng, max_tau=0.95, max_alpha=0.99)
        closed, _ = transfer_amplitude(coupler, ring)
        assert abs(_transfer_series(coupler, ring) - closed) < 1e-8


def test_series_explicit_order_controls_error():
    coupler = CouplerParams.from_magnitude(0.9)
    ring = RingParams.from_alpha(0.95, theta=0.3)
    closed, _ = transfer_amplitude(coupler, ring)
    crude = abs(_transfer_series(coupler, ring, n_max=3) - closed)
    sharp = abs(_transfer_series(coupler, ring, n_max=60) - closed)
    assert sharp < crude / 100


def test_coupler_phase_only_rotates_response():
    # |A| depends on (|tau|, alpha, theta - arg tau) only
    ring = RingParams.from_alpha(0.92, theta=0.8)
    plain = transfer_amplitude(CouplerParams.from_magnitude(0.7), ring)
    rotated = transfer_amplitude(
        CouplerParams.from_magnitude(0.7, tau_phase=0.5),
        RingParams.from_alpha(0.92, theta=0.8 + 0.5),
    )
    assert abs(rotated.transfer) == pytest.approx(abs(plain.transfer), abs=1e-14)


def test_langevin_power_plus_noise_is_one():
    rng = np.random.default_rng(14)
    for _ in range(200):
        rates = LangevinRates(rng.uniform(0, 3), rng.uniform(0, 3))
        amp, noise = langevin_transfer(rates, rng.uniform(-5, 5))
        assert abs(abs(amp) ** 2 + noise - 1.0) < 1e-12


def test_langevin_critical_coupling_dip():
    rates = LangevinRates(coupling=1.0, intrinsic=1.0)
    amp, noise = langevin_transfer(rates, 0.0)
    assert abs(amp) < 1e-15 and noise == pytest.approx(1.0)
    with pytest.raises(ResonantDivergenceError):
        langevin_transfer(LangevinRates(0.0, 0.0), 0.0)


def test_match_rates_two_equivalent_forms():
    rng = np.random.default_rng(15)
    for _ in range(100):
        t = rng.uniform(0.05, 0.999)
        a = rng.uniform(0.05, 0.999)
        tr = rng.uniform(1e-13, 1e-9)
        rates = match_rates(
            CouplerParams.from_magnitude(t), RingParams.from_alpha(a, theta=0.0), tr
        )
        root = math.sqrt(a * t)
        assert rates.gamma_plus * tr == pytest.approx((1 - a * t) / root, abs=1e-12)
        assert rates.gamma_minus * tr == pytest.approx((a - t) / root, abs=1e-12)


def test_match_rates_weak_loss_limits():
    # gamma_c*T_R -> (coupler loss), gamma_int*T_R -> (ring loss), both tiny
    gl, gtl, tr = 1e-3, 5e-4, 1.0
    rates = match_rates(
        CouplerParams.from_magnitude(math.exp(-gtl / 2)),
        RingParams.from_alpha(math.exp(-gl / 2), theta=0.0),
        tr,
    )
    assert abs(rates.coupling * tr - gtl) / gtl < 1e-3
    assert abs(rates.intrinsic * tr - gl) / gl < 1e-3


def test_match_rates_domain_errors():
    ring = RingParams.from_alpha(0.9, theta=0.0)
    with pytest.raises(ValueError):
        match_rates(CouplerParams.from_magnitude(0.0), ring, 1.0)
    with pytest.raises(ValueError):
        match_rates(CouplerParams.from_magnitude(0.5), ring, 0.0)


def test_power_comparison_columns_and_agreement():
    coupler = CouplerParams.from_magnitude(0.99)
    deltas = np.array([-1e9, -1e7, 1e7, 1e9])
    tr = 1e-12
    table = power_comparison(coupler, 0.99, tr, deltas)
    assert table.shape == (4, 3)
    np.testing.assert_allclose(table[:, 0], deltas * tr)
    # near resonance the two models agree closely at critical coupling
    near = np.abs(table[:, 0]) < 1e-3
    assert np.all(np.abs(table[near, 1] - table[near, 2]) < 1e-8)


def test_power_comparison_handles_coupler_phase():
    deltas = np.linspace(-1e9, 1e9, 7)
    plain = power_comparison(CouplerParams.from_magnitude(0.97), 0.95, 1e-12, deltas)
    phased = power_comparison(
        CouplerParams.from_magnitude(0.97, tau_phase=1.1), 0.95, 1e-12, deltas
    )
    np.testing.assert_allclose(phased, plain, atol=1e-14)


def test_commutator_sum_identity_exact():
    rng = np.random.default_rng(16)
    for _ in range(300):
        coupler, ring = _random_pair(rng)
        ident = commutator_sum_identity(coupler, ring)
        assert abs(ident.analytic - ident.closed) < 1e-12


def test_commutator_term_diagonal_form():
    coupler = CouplerParams.from_magnitude(0.7, tau_phase=0.2)
    ring = RingParams.from_alpha(0.85, theta=0.9)
    for n in (0, 1, 5):
        term = _sum_term(n, n, coupler, ring)
        expected = abs(coupler.kappa) ** 4 * 0.7 ** (2 * n) * (1 - 0.85 ** (2 * n + 2))
        assert term == pytest.approx(expected)


def test_commutator_series_converges_to_closed_form():
    rng = np.random.default_rng(17)
    for _ in range(30):
        coupler, ring = _random_pair(rng, max_tau=0.9, max_alpha=0.95)
        closed = commutator_sum_identity(coupler, ring).closed
        assert abs(commutator_sum_series(coupler, ring, 200, 200) - closed) < 1e-8


def test_commutator_series_equals_the_full_table_sum():
    rng = np.random.default_rng(18)
    for _ in range(30):
        coupler, ring = _random_pair(rng, max_tau=0.9, max_alpha=0.95)
        assert commutator_sum_series(coupler, ring, 200, 200) == _outer_sum(coupler, ring, 200)


def test_commutator_series_triangle_decomposition_matches_rectangle():
    coupler = CouplerParams.from_magnitude(0.8, tau_phase=-0.4)
    ring = RingParams.from_alpha(0.9, theta=1.7)
    square = commutator_sum_series(coupler, ring, 40, 40)
    brute = sum(_sum_term(n, m, coupler, ring) for n in range(41) for m in range(41))
    assert square == pytest.approx(brute.real, abs=1e-13)
    assert abs(brute.imag) < 1e-13


_BAD_RATES = {
    "coupling-nan": (lambda: LangevinRates(math.nan, 1.0), "coupling rate"),
    "coupling-inf": (lambda: LangevinRates(math.inf, 1.0), "coupling rate"),
    "intrinsic-nan": (lambda: LangevinRates(1.0, math.nan), "intrinsic rate"),
    "intrinsic-inf": (lambda: LangevinRates(1.0, math.inf), "intrinsic rate"),
    "match-nan-time": (
        lambda: match_rates(
            CouplerParams.from_magnitude(0.5), RingParams.from_alpha(0.9, theta=0.0), math.nan
        ),
        "round-trip time",
    ),
    "compare-nan-time": (
        lambda: power_comparison(CouplerParams.from_magnitude(0.5), 0.9, math.nan, np.zeros(3)),
        "round-trip time",
    ),
    # rate matching owns these two checks; the texts are those power_comparison raised itself
    "compare-zero-alpha": (
        lambda: power_comparison(CouplerParams.from_magnitude(0.5), 0.0, 1e-12, np.zeros(3)),
        r"^alpha must be in \(0, 1\], got 0\.0$",
    ),
    "compare-zero-time": (
        lambda: power_comparison(CouplerParams.from_magnitude(0.5), 0.9, 0.0, np.zeros(3)),
        r"^round-trip time must be > 0, got 0\.0$",
    ),
    # a non-finite detuning gave a NaN amplitude, or a numpy RuntimeWarning
    "langevin-nan-detuning": (lambda: langevin_transfer(LangevinRates(1.0, 1.0), math.nan), "detuning"),
    "langevin-inf-detuning": (lambda: langevin_transfer(LangevinRates(1.0, 1.0), math.inf), "detuning"),
    "compare-nan-detuning": (
        lambda: power_comparison(CouplerParams.from_magnitude(0.5), 0.9, 1e-12, [0.0, math.nan]),
        "detuning",
    ),
    "compare-inf-detuning": (
        lambda: power_comparison(CouplerParams.from_magnitude(0.5), 0.9, 1e-12, [math.inf]),
        "detuning",
    ),
}


@pytest.mark.parametrize("case", sorted(_BAD_RATES))
def test_nan_and_infinite_rates_are_rejected(case):
    call, field = _BAD_RATES[case]
    with pytest.raises(ValueError, match=field):
        call()


def test_commutator_series_entry_guard():
    coupler = CouplerParams.from_magnitude(0.9)
    ring = RingParams.from_alpha(0.9, theta=0.0)
    with pytest.raises(TruncationError):
        commutator_sum_series(coupler, ring, n_max=10_000, m_max=10_000)


@pytest.mark.parametrize("orders", [(200, 199), (2.5, 2.5), (200.0, 200.0), (-1, -1)])
def test_commutator_series_takes_one_integer_order(orders):
    coupler = CouplerParams.from_magnitude(0.9)
    ring = RingParams.from_alpha(0.9, theta=0.0)
    n_max, m_max = orders
    with pytest.raises(ValueError) as info:
        commutator_sum_series(coupler, ring, n_max=n_max, m_max=m_max)
    assert f"n_max={n_max!r}, m_max={m_max!r}" in str(info.value)
