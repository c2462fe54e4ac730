import cmath
import math

import numpy as np
import pytest

from ringsim.core import (
    CouplerParams,
    ResonantDivergenceError,
    RingParams,
    TruncationError,
    UnitarityError,
    _abs,
    _cdiv,
    _check_power,
    _cmul,
    _coupler,
    _square,
    _survival,
    alpha_from_loss,
    geometric_sum,
    geometric_sum_truncated,
    truncation_order,
)


def test_alpha_from_loss_matches_exponential():
    assert alpha_from_loss(0.7, 2.0) == pytest.approx(math.exp(-0.7))
    assert alpha_from_loss(0.0, 1.0) == 1.0


def test_alpha_from_loss_rejects_bad_inputs():
    with pytest.raises(ValueError):
        alpha_from_loss(-0.1, 1.0)
    with pytest.raises(ValueError):
        alpha_from_loss(0.1, 0.0)


def test_geometric_sum_closed_form():
    rng = np.random.default_rng(7)
    for _ in range(50):
        x = rng.uniform(0, 0.95) * np.exp(1j * rng.uniform(-np.pi, np.pi))
        # tail bound |x|^800 / (1 - |x|) < 1e-16 for |x| <= 0.95
        brute = sum(x**n for n in range(800))
        assert abs(geometric_sum(x) - brute) < 1e-12


def test_geometric_sum_diverges_on_unit_circle():
    with pytest.raises(ResonantDivergenceError):
        geometric_sum(1.0)
    with pytest.raises(ResonantDivergenceError):
        geometric_sum(np.exp(0.3j))


def test_truncated_sum_matches_loop_near_one():
    # quotient form is avoided close to x = 1; both paths must agree
    for x in (0.999999999 + 0j, 0.5 + 0.1j):
        direct = sum(x**n for n in range(11))
        assert abs(geometric_sum_truncated(x, 10) - direct) < 1e-12


def test_truncation_order_tail_bound():
    for x in (0.3, 0.9, 0.99, 0.5j, -0.85):
        n = truncation_order(x, tol=1e-10)
        mag = abs(x)
        tail = mag ** (n + 1) / (1 - mag)
        assert tail < 1e-10
        if n > 0:
            assert mag**n / (1 - mag) >= 1e-10  # minimal order


def test_truncation_order_caps_and_divergence():
    assert truncation_order(0.0) == 0
    with pytest.raises(TruncationError):
        truncation_order(1 - 1e-9)
    with pytest.raises(ResonantDivergenceError):
        truncation_order(1.0)


def test_coupler_power_conservation_enforced():
    CouplerParams(tau=0.6, kappa=0.8)
    with pytest.raises(UnitarityError):
        CouplerParams(tau=0.6, kappa=0.9)


def test_coupler_constructors():
    c = CouplerParams.from_through(0.3 + 0.4j)
    assert abs(abs(c.tau) ** 2 + abs(c.kappa) ** 2 - 1) < 1e-15
    c = CouplerParams.from_magnitude(0.8, tau_phase=0.5, kappa_phase=-1.0)
    assert abs(c.tau) == pytest.approx(0.8)
    assert np.angle(c.tau) == pytest.approx(0.5)
    assert np.angle(c.kappa) == pytest.approx(-1.0)
    with pytest.raises(UnitarityError):
        CouplerParams.from_magnitude(1.2)


def test_ring_params_phase_sources():
    by_theta = RingParams(circumference=2.0, loss_rate=0.5, theta=1.3)
    by_beta = RingParams(circumference=2.0, loss_rate=0.5, beta=0.65)
    assert by_theta.round_trip_phase == pytest.approx(by_beta.round_trip_phase)
    assert by_theta.alpha == pytest.approx(math.exp(-0.5))
    with pytest.raises(ValueError):
        RingParams(circumference=1.0, loss_rate=0.0)  # neither theta nor beta
    with pytest.raises(ValueError):
        RingParams(circumference=1.0, loss_rate=0.0, theta=0.0, beta=0.0)


def test_ring_lossless_alpha_is_exactly_one():
    assert RingParams(circumference=3.0, loss_rate=0.0, theta=0.1).alpha == 1.0


def test_ring_from_alpha_round_trip():
    ring = RingParams.from_alpha(0.87, theta=2.2, circumference=5.0)
    assert ring.alpha == pytest.approx(0.87, abs=1e-15)
    assert ring.loop_factor == pytest.approx(0.87 * np.exp(2.2j))
    with pytest.raises(ValueError):
        RingParams.from_alpha(0.0, theta=0.0)
    with pytest.raises(ValueError):
        RingParams.from_alpha(1.1, theta=0.0)


# --- CPython rounding in broadcast kernels ------------------------------------


def _same_bits(x, y):
    """Equal floats with equal signs (so 0.0 and -0.0 differ), or both NaN."""
    return (x == y and math.copysign(1.0, x) == math.copysign(1.0, y)) or (x != x and y != y)


def _wide_operands(rng, n):
    """n random complex numbers with parts from 1e-300 to 1e300 of both
    signs, then every pair of signed zeros, subnormals and small integers."""
    parts = 10.0 ** rng.uniform(-300, 300, size=(2, n)) * rng.choice([-1.0, 1.0], size=(2, n))
    specials = [0.0, -0.0, 5e-324, -5e-324, 1e-310, -2.5e-308, 1.0, -3.0]
    grid = np.array([(re, im) for re in specials for im in specials]).T
    parts = np.concatenate([parts, grid], axis=1)
    values = np.empty(parts.shape[1], dtype=complex)
    values.real, values.imag = parts
    return values


def test_complex_kernels_round_like_cpython():
    rng = np.random.default_rng(2024)
    a = np.concatenate([_wide_operands(rng, 100_000), np.repeat(_wide_operands(rng, 0), 64)])
    b = np.concatenate([_wide_operands(rng, 100_000), np.tile(_wide_operands(rng, 0), 64)])
    quotients, products = _cdiv(a, b).tolist(), _cmul(a, b).tolist()
    for x, y, q, p in zip(a.tolist(), b.tolist(), quotients, products):
        want = x * y
        assert _same_bits(p.real, want.real) and _same_bits(p.imag, want.imag), (x, y)
        if y == 0:
            continue  # CPython raises ZeroDivisionError
        want = x / y
        assert _same_bits(q.real, want.real) and _same_bits(q.imag, want.imag), (x, y)


def test_elementwise_helpers_round_like_python_scalars():
    rng = np.random.default_rng(5)
    x = rng.uniform(0.0, 2.0, 20_000) * 10.0 ** rng.uniform(-150, 150, 20_000)
    assert _square(x).tolist() == [v**2 for v in x.tolist()]
    z = x * np.exp(1j * rng.uniform(-4, 4, x.size))
    assert _abs(z).tolist() == [abs(v) for v in z.tolist()]
    alpha = np.concatenate([rng.uniform(0.0, 1.0, 20_000), [1.0, 5e-324, 1e-300]])
    alpha = alpha[alpha > 0]
    assert _survival(alpha).tolist() == [
        RingParams.from_alpha(a, theta=0.0).alpha for a in alpha.tolist()
    ]
    with pytest.raises(ValueError, match="alpha"):
        _survival(np.array([0.5, 0.0]))


def test_batched_couplers_match_the_scalar_constructor():
    rng = np.random.default_rng(8)
    draws = rng.uniform([0.0, -4.0, -4.0], [1.0, 4.0, 4.0], size=(5000, 3))
    tau, kappa = _coupler(*draws.T)
    for t, k, (mag, tau_phase, kappa_phase) in zip(tau.tolist(), kappa.tolist(), draws.tolist()):
        # the constructor formula in Python scalars and cmath
        assert t == mag * cmath.exp(1j * tau_phase)
        assert k == math.sqrt(1.0 - mag * mag) * cmath.exp(1j * kappa_phase)
    with pytest.raises(UnitarityError, match="magnitude"):
        _coupler(np.array([0.5, 1.2]))
    with pytest.raises(UnitarityError, match="defect"):
        _check_power(np.array([0.6, 0.6]), np.array([0.8, 0.9]))
