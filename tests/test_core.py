import cmath
import math

import numpy as np
import pytest

from ringsim.attenuation import BeamSplitterChain, LossSegment, piecewise_commutator
from ringsim.core import (
    CouplerParams,
    RingParams,
    UnitarityError,
    _abs,
    _cdiv,
    _check_power,
    _cmul,
    _coupler,
    _square,
    _survival,
    alpha_from_loss,
)


def test_alpha_from_loss_matches_exponential():
    assert alpha_from_loss(0.7, 2.0) == pytest.approx(math.exp(-0.7))
    assert alpha_from_loss(0.0, 1.0) == 1.0


def test_alpha_from_loss_rejects_bad_inputs():
    with pytest.raises(ValueError):
        alpha_from_loss(-0.1, 1.0)
    with pytest.raises(ValueError):
        alpha_from_loss(0.1, 0.0)


def test_coupler_power_conservation_enforced():
    CouplerParams(tau=0.6, kappa=0.8)
    with pytest.raises(UnitarityError):
        CouplerParams(tau=0.6, kappa=0.9)


def test_coupler_constructors():
    c = CouplerParams.from_magnitude(0.8, tau_phase=0.5)
    assert abs(c.tau) == pytest.approx(0.8)
    assert np.angle(c.tau) == pytest.approx(0.5)
    assert c.kappa == pytest.approx(0.6)
    with pytest.raises(UnitarityError):
        CouplerParams.from_magnitude(1.2)


def test_ring_params_validation():
    assert RingParams(loss_rate=1.0, theta=1.3).alpha == pytest.approx(math.exp(-0.5))
    with pytest.raises(ValueError, match="loss rate"):
        RingParams(loss_rate=-0.1, theta=0.0)
    with pytest.raises(ValueError, match="phase"):
        RingParams(loss_rate=0.0, theta=math.inf)


_NAN = math.nan

# (call, message) of constructors and helpers whose checks NaN must fail,
# naming the field: a NaN loss rate used to give alpha = NaN, and a NaN
# chain length was reported as a per-splitter reflectivity
_BAD_FIELDS = {
    "ring-nan-loss": (
        lambda: RingParams(loss_rate=_NAN, theta=0.3),
        "loss rate must be >= 0, got nan",
    ),
    # alpha came out 0, and rate matching then blamed tau or alpha
    "ring-inf-loss": (
        lambda: RingParams(loss_rate=math.inf, theta=0.0),
        "loss rate must be finite, got inf",
    ),
    # exp(-Gamma/2) underflowed to alpha = 0, and rate matching then blamed
    # tau or alpha
    "ring-underflowing-loss": (
        lambda: RingParams(loss_rate=1500.0, theta=0.0),
        "loss rate 1500.0 over length 1.0 leaves alpha = 0.0",
    ),
    "alpha-inf-loss": (
        lambda: alpha_from_loss(math.inf, 1.0),
        "loss rate inf over length 1.0 leaves alpha = 0.0",
    ),
    "alpha-nan-loss": (lambda: alpha_from_loss(_NAN, 1.0), "loss rate must be >= 0, got nan"),
    "alpha-nan-length": (
        lambda: alpha_from_loss(1.0, _NAN), "length must be finite and > 0, got nan"
    ),
    # exp(-Gamma*L/2) underflowed to 0 and blamed the loss rate
    "alpha-inf-length": (
        lambda: alpha_from_loss(1.0, math.inf), "length must be finite and > 0, got inf"
    ),
    "chain-nan-loss": (
        lambda: BeamSplitterChain(_NAN, 1.0, 0.0, 10), "loss rate must be >= 0, got nan"
    ),
    "chain-nan-length": (
        lambda: BeamSplitterChain(0.1, _NAN, 0.0, 10), "length must be finite and > 0, got nan"
    ),
    # 0 * inf in the segment power made piecewise_commutator NaN with a warning
    "segment-inf-length": (
        lambda: piecewise_commutator([LossSegment(0.0, math.inf)]),
        "length must be finite and > 0, got inf",
    ),
}


@pytest.mark.parametrize("case", sorted(_BAD_FIELDS))
def test_nan_and_infinite_fields_are_rejected_by_name(case):
    call, message = _BAD_FIELDS[case]
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message


def test_ring_lossless_alpha_is_exactly_one():
    # both zero losses take the general exp route: from_alpha(1.0) stores -0.0
    assert RingParams(loss_rate=0.0, theta=0.1).alpha == 1.0
    assert RingParams(loss_rate=-0.0, theta=0.1).alpha == 1.0
    assert RingParams.from_alpha(1.0, theta=0.1).alpha == 1.0


def test_ring_from_alpha_round_trip():
    ring = RingParams.from_alpha(0.87, theta=2.2)
    assert ring.theta == 2.2
    assert ring.alpha == pytest.approx(0.87, abs=1e-15)
    # the smallest alpha still has a finite loss rate
    assert RingParams.from_alpha(5e-324, theta=0.0).loss_rate == pytest.approx(1488.88, abs=0.01)
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
    draws = rng.uniform([0.0, -4.0], [1.0, 4.0], size=(5000, 2))
    tau, kappa = _coupler(*draws.T)
    for t, k, (mag, tau_phase) in zip(tau.tolist(), kappa.tolist(), draws.tolist()):
        # the constructor formula in Python scalars and cmath
        assert t == mag * cmath.exp(1j * tau_phase)
        assert k == complex(math.sqrt(1.0 - mag * mag))
    with pytest.raises(UnitarityError, match="magnitude"):
        _coupler(np.array([0.5, 1.2]))
    with pytest.raises(UnitarityError, match="defect"):
        _check_power(np.array([0.6, 0.6]), np.array([0.8, 0.9]))
