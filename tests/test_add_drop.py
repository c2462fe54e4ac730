import cmath
import math

import numpy as np
import pytest

from ringsim.core import (
    CouplerParams,
    ResonantDivergenceError,
    RingParams,
    UnitarityError,
    _survival,
)
from ringsim.add_drop import (
    AddDropParams,
    _matrix,
    inverse_conjugate,
    noise_commutators,
    permanent2,
    transfer_matrix,
)
from ringsim.hom import coincidence_ratio, sector_normalizer
from ringsim.single_bus import _transfer, commutator_sum_identity, transfer_amplitude


def _params(tau, eta, alpha, theta, tau_phase=0.0, eta_phase=0.0):
    return AddDropParams(
        CouplerParams.from_magnitude(tau, tau_phase=tau_phase),
        CouplerParams.from_magnitude(eta, tau_phase=eta_phase),
        RingParams.from_alpha(alpha, theta=theta),
    )


def _random_params(rng):
    return _params(
        rng.uniform(0.05, 0.98),
        rng.uniform(0.05, 0.98),
        rng.uniform(0.3, 0.98),
        rng.uniform(-np.pi, np.pi),
        tau_phase=rng.uniform(-np.pi, np.pi),
        eta_phase=rng.uniform(-np.pi, np.pi),
    )


def test_matrix_entries_closed_form():
    p = _params(0.8, 0.6, 0.9, 0.7)
    z = 0.9 * np.exp(0.7j)
    s = math.sqrt(0.9) * np.exp(0.35j)
    d = 1 - 0.8 * 0.6 * z
    m = transfer_matrix(p)
    assert m[0, 0] == pytest.approx((0.8 - 0.6 * z) / d)
    assert m[0, 1] == pytest.approx(-0.8 * 0.6 * s / d)  # -gamma*kappa*s/D
    assert m[1, 0] == pytest.approx(-0.6 * 0.8 * s / d)
    assert m[1, 1] == pytest.approx((0.6 - 0.8 * z) / d)


@pytest.mark.parametrize(
    "function", [noise_commutators, inverse_conjugate, coincidence_ratio, sector_normalizer]
)
@pytest.mark.parametrize("shape", [(3, 3), (2,), (4, 2, 3)])
def test_stack_functions_reject_non_2x2_shapes(function, shape):
    with pytest.raises(ValueError) as info:
        function(np.zeros(shape))
    assert str(info.value) == f"expected 2x2 matrices, got shape {shape}"


def test_decoupled_first_bus():
    p = _params(1.0, 0.6, 1.0, 1.2)
    m = transfer_matrix(p)
    assert abs(abs(m[0, 0]) - 1.0) < 1e-12
    assert abs(m[1, 0]) == 0.0


def test_lossless_matrix_is_unitary():
    rng = np.random.default_rng(21)
    for _ in range(100):
        p = _params(
            rng.uniform(0, 0.99), rng.uniform(0, 0.99), 1.0, rng.uniform(-np.pi, np.pi)
        )
        m = transfer_matrix(p)
        assert np.max(np.abs(m @ m.conj().T - np.eye(2))) < 1e-12


def test_single_bus_limit_linear_in_gamma():
    # as the drop coupler closes, row c approaches the single-bus response
    coupler = CouplerParams.from_magnitude(0.8)
    ring = RingParams.from_alpha(0.9, theta=0.5)
    target, _ = transfer_amplitude(coupler, ring)
    gaps = []
    for gamma in (1e-2, 1e-3, 1e-4):
        eta = math.sqrt(1 - gamma**2)
        p = AddDropParams(coupler, CouplerParams.from_magnitude(eta), ring)
        m = transfer_matrix(p)
        gaps.append(abs(m[0, 0] - target) + abs(m[0, 1]))
    assert gaps[0] / gaps[1] == pytest.approx(10, rel=0.15)
    assert gaps[1] / gaps[2] == pytest.approx(10, rel=0.15)


def test_divergence_error():
    with pytest.raises(ResonantDivergenceError):
        transfer_matrix(_params(1.0, 1.0, 1.0, 0.0))


def test_divergence_error_at_a_subnormal_denominator():
    # the cross entries came out 0 * inf = NaN, with no error
    with pytest.raises(ResonantDivergenceError, match="unit loop gain"):
        transfer_matrix(_params(1.0, 1.0, 1.0, 5e-324))


def test_cross_term_reciprocity():
    rng = np.random.default_rng(22)
    for _ in range(50):
        m = transfer_matrix(_random_params(rng))
        assert abs(m[0, 1]) == pytest.approx(abs(m[1, 0]), abs=1e-14)


def test_noise_commutators_equal_unitarity_deficit():
    rng = np.random.default_rng(23)
    stack = np.array([transfer_matrix(_random_params(rng)) for _ in range(100)])
    for m in stack:
        comm = noise_commutators(m)
        np.testing.assert_allclose(comm, np.eye(2) - m @ m.conj().T, atol=1e-14)
        eigs = np.linalg.eigvalsh(comm)
        assert eigs.min() > -1e-12  # PSD: Gram matrix of noise modes
        assert abs(comm[0, 1] - comm[1, 0].conjugate()) < 1e-14
    # a stack of matrices gives the stack of their commutators, bit for bit
    comms = noise_commutators(stack.reshape(4, 25, 2, 2)).reshape(100, 2, 2)
    assert np.array_equal(comms, [noise_commutators(m) for m in stack])


def test_noise_commutators_lossless_zero():
    m = transfer_matrix(_params(0.7, 0.5, 1.0, 0.9))
    np.testing.assert_allclose(noise_commutators(m), 0.0, atol=1e-14)


def test_noise_commutators_single_bus_limit():
    coupler = CouplerParams.from_magnitude(0.8)
    ring = RingParams.from_alpha(0.9, theta=0.5)
    p = AddDropParams(coupler, CouplerParams.from_magnitude(1.0 - 1e-12), ring)
    comm = noise_commutators(transfer_matrix(p))
    expected = commutator_sum_identity(coupler, ring).analytic
    assert comm[0, 0].real == pytest.approx(expected, abs=1e-8)


def test_noise_commutators_reject_amplifying_matrix():
    with pytest.raises(UnitarityError, match="F_c"):
        noise_commutators(np.array([[1.2, 0.0], [0.0, 0.5]]))
    stack = np.array([np.diag([0.5, 0.5]), np.diag([0.5, np.nan])])
    with pytest.raises(UnitarityError, match="F_d"):
        noise_commutators(stack)
    # the value prints as a plain number, not as numpy's repr of its scalar
    with pytest.raises(UnitarityError) as info:
        noise_commutators(2.0 * np.eye(2))
    assert str(info.value).startswith("[F_c, F_c†] = -3.0 outside [0, 1]; ")


def test_inverse_conjugate_round_trip():
    rng = np.random.default_rng(24)
    for _ in range(50):
        m = transfer_matrix(_random_params(rng))
        g = inverse_conjugate(m)
        np.testing.assert_allclose(np.conj(g) @ m, np.eye(2), atol=1e-12)


def test_inverse_conjugate_of_unitary_is_transpose():
    m = transfer_matrix(_params(0.7, 0.4, 1.0, -0.8))
    np.testing.assert_allclose(inverse_conjugate(m), m.T, atol=1e-12)


def test_inverse_conjugate_singular_error():
    with pytest.raises(ValueError, match="singular"):
        inverse_conjugate(np.array([[1.0, 1.0], [1.0, 1.0]]))


def test_permanent_small_cases():
    assert permanent2(np.eye(2)) == 1.0
    assert permanent2(np.array([[0.0, 3.0], [2.0, 0.0]])) == 6.0
    bs = np.array([[1.0, 1.0j], [1.0j, 1.0]]) / math.sqrt(2)
    assert abs(permanent2(bs)) < 1e-15  # balanced-splitter coincidence null


def _complex_coupler(magnitude, tau_phase, kappa_phase):
    """(tau, kappa) arrays with a phase on each amplitude."""
    return (
        magnitude * np.exp(1j * tau_phase),
        np.sqrt(1.0 - magnitude**2) * np.exp(1j * kappa_phase),
    )


def test_broadcast_kernels_round_like_python_scalars():
    # complex couplers: every product is a full complex product
    rng = np.random.default_rng(31)
    draws = rng.uniform([0, -4, -4, 0, -4, -4, 0.05, -4], [1, 4, 4, 1, 4, 4, 1, 4], (2000, 8))
    tau, kappa = _complex_coupler(*draws[:, 0:3].T)
    eta, gamma = _complex_coupler(*draws[:, 3:6].T)
    alpha, theta = _survival(draws[:, 6]), draws[:, 7]
    stack = _matrix(tau, kappa, eta, gamma, alpha, theta)
    amp, power, _ = _transfer(tau, alpha, theta)
    for k in range(len(draws)):
        t, c, e, g = (complex(x[k]) for x in (tau, kappa, eta, gamma))
        ring = RingParams.from_alpha(draws[k, 6], theta=theta[k])
        z = ring.alpha * cmath.exp(1j * ring.theta)
        a = (t - z) / (1.0 - t.conjugate() * z)
        assert (amp[k], power[k]) == (a, abs(a) ** 2)
        s = cmath.sqrt(ring.alpha) * cmath.exp(0.5j * theta[k])
        denom = 1.0 - t.conjugate() * e.conjugate() * z
        cross = s / denom
        assert stack[k].ravel().tolist() == [
            (t - e.conjugate() * z) / denom,
            -g.conjugate() * c * cross,
            -c.conjugate() * g * cross,
            (e - t.conjugate() * z) / denom,
        ]
