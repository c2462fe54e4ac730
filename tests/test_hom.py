import dataclasses
import itertools
import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ringsim import hom
from ringsim.core import CouplerParams, RingParams, UnitarityError
from ringsim.add_drop import (
    AddDropParams,
    inverse_conjugate,
    noise_commutators,
    permanent2,
    transfer_matrix,
)
from ringsim.hom import (
    TwoPhotonOutputState,
    coincidence_probability,
    coincidence_ratio,
    coincidence_ratio_grid,
    entropy_grid,
    entropy_one_photon,
    hom_region,
    output_state,
    reduce_density,
    sector_normalizer,
)


def _matrix(tau, eta, alpha, theta):
    return transfer_matrix(
        AddDropParams(
            CouplerParams.from_magnitude(tau),
            CouplerParams.from_magnitude(eta),
            RingParams.from_alpha(alpha, theta=theta),
        )
    )


def _random_matrix(rng):
    return _matrix(
        rng.uniform(0.05, 0.98),
        rng.uniform(0.05, 0.98),
        rng.uniform(0.3, 0.98),
        rng.uniform(-np.pi, np.pi),
    )


def _state_and_comms(matrix):
    return output_state(inverse_conjugate(matrix)), noise_commutators(matrix)


def _fields(instance):
    return [getattr(instance, field.name) for field in dataclasses.fields(instance)]


# --- independent oracle: unitary dilation of the contraction -----------------
#
# Any 2x2 contraction M embeds in a 4x4 unitary acting on the two bus modes
# plus two environment modes.  Propagating one photon per bus through that
# unitary and post-selecting both photons in the buses gives the conditional
# coincidence probability without ever constructing the sectored noise state,
# so it cross-checks `coincidence_probability` end to end.


def _dilation_unitary(matrix):
    w, sig, vh = np.linalg.svd(matrix)
    c = np.sqrt(np.clip(1.0 - sig**2, 0.0, None))
    core = np.block([[np.diag(sig), np.diag(c)], [np.diag(c), -np.diag(sig)]])
    left = np.block([[w, np.zeros((2, 2))], [np.zeros((2, 2)), np.eye(2)]])
    right = np.block([[vh, np.zeros((2, 2))], [np.zeros((2, 2)), np.eye(2)]])
    u = left @ core @ right
    np.testing.assert_allclose(u @ u.conj().T, np.eye(4), atol=1e-12)
    np.testing.assert_allclose(u[:2, :2], matrix, atol=1e-12)
    return u


def _dilation_conditional(matrix):
    u = _dilation_unitary(matrix)

    def amp(j, k):
        if j == k:
            return math.sqrt(2.0) * u[j, 0] * u[j, 1]
        return u[j, 0] * u[k, 1] + u[j, 1] * u[k, 0]

    in_bus = [(0, 0), (0, 1), (1, 1)]
    return abs(amp(0, 1)) ** 2 / sum(abs(amp(j, k)) ** 2 for j, k in in_bus)


# --- sectored output state ----------------------------------------------------


def test_output_state_amplitudes():
    g = inverse_conjugate(_matrix(0.8, 0.6, 0.9, 0.7))
    state = output_state(g)
    perm = g[0, 0] * g[1, 1] + g[0, 1] * g[1, 0]
    assert state.two_photon[0] == pytest.approx(math.sqrt(2) * g[0, 0] * g[1, 0])
    assert state.two_photon[1] == pytest.approx(perm)
    assert state.two_photon[2] == pytest.approx(math.sqrt(2) * g[0, 1] * g[1, 1])
    assert state.branch_c[0] == pytest.approx(-2 * g[0, 0] * g[1, 0])
    assert state.branch_c[1] == pytest.approx(-perm)
    assert state.branch_d[0] == pytest.approx(-perm)
    assert state.branch_d[1] == pytest.approx(-2 * g[0, 1] * g[1, 1])
    np.testing.assert_allclose(state.env_pair, state.env_pair.T)


def test_output_state_products_round_as_python_complex():
    # one G's products are scalar products: numpy's array product rounds
    # some of them differently
    rng = np.random.default_rng(406)
    for _ in range(200):
        g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        a, b, c, d = map(complex, g.ravel())
        state = output_state(g)
        assert state.two_photon[1] == a * d + b * c
        assert (state.env_pair[0, 0], state.env_pair[1, 1]) == (a * c, b * d)


def test_output_state_rejects_wrong_shape():
    with pytest.raises(ValueError, match="2x2"):
        output_state(np.eye(3))


def test_sector_weights_sum_to_one_and_matrices_are_states():
    rng = np.random.default_rng(404)
    matrices = np.array([_random_matrix(rng) for _ in range(50)]).reshape(5, 10, 2, 2)
    # the stack's chain gains its leading axes, and each entry is the chain
    # of its own matrix within a few ulp: numpy's array loop fuses the
    # complex multiply-add that one matrix's scalar products do not
    state = output_state(inverse_conjugate(matrices))
    density = reduce_density(state, noise_commutators(matrices))
    assert state.env_pair.shape == (5, 10, 2, 2) and density.rho2.shape == (5, 10, 3, 3)
    stacks = [*_fields(state), *_fields(density)]
    stacks += [coincidence_probability(state), entropy_one_photon(density)]
    for k, m in enumerate(matrices.reshape(-1, 2, 2)):
        state, comms = _state_and_comms(m)
        density = reduce_density(state, comms)
        figures = (coincidence_probability(state), entropy_one_photon(density))
        weights = (density.p2, density.p1, density.p0, density.normalizer)
        assert all(type(value) is float for value in figures + weights)
        for stack, one in zip(stacks, [*_fields(state), *_fields(density), *figures]):
            np.testing.assert_allclose(
                stack.reshape(50, *np.shape(one))[k], one, rtol=2e-14, atol=1e-14
            )
        assert density.p2 + density.p1 + density.p0 == pytest.approx(1.0, abs=1e-12)
        assert density.p2 >= 0 and density.p1 >= 0 and density.p0 >= 0
        assert np.trace(density.rho2).real == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(density.rho2, density.rho2.conj().T, atol=1e-12)
        assert np.linalg.eigvalsh(density.rho2).min() > -1e-10
        assert density.rho1 is not None
        assert np.trace(density.rho1).real == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(density.rho1, density.rho1.conj().T, atol=1e-12)
        assert np.linalg.eigvalsh(density.rho1).min() > -1e-10


def test_normalizer_matches_closed_form():
    rng = np.random.default_rng(405)
    for _ in range(50):
        m = _random_matrix(rng)
        state, comms = _state_and_comms(m)
        density = reduce_density(state, comms)
        assert density.normalizer == pytest.approx(sector_normalizer(m), rel=1e-10)


def test_lossless_state_has_no_loss_sectors():
    m = _matrix(0.8, 0.55, 1.0, 0.9)
    state, comms = _state_and_comms(m)
    density = reduce_density(state, comms)
    assert density.p2 == pytest.approx(1.0, abs=1e-12)
    assert density.p1 == pytest.approx(0.0, abs=1e-12)
    assert density.rho1 is None
    assert density.normalizer == pytest.approx(1.0, abs=1e-10)
    # a lossless stack has no one-photon matrix in any entry
    stack = np.array([m, _matrix(0.3, 0.7, 1.0, -2.0), _matrix(0.6, 0.6, 1.0, 0.0)])
    density = reduce_density(*_state_and_comms(stack))
    assert density.rho1 is None
    entropy = entropy_one_photon(density)
    assert entropy.shape == (3,) and np.isnan(entropy).all()


def test_reduce_density_rejects_inconsistent_commutators():
    state, _ = _state_and_comms(_matrix(0.7, 0.6, 0.8, 0.5))
    with pytest.raises(UnitarityError, match="negative"):
        reduce_density(state, -np.eye(2))


def test_reduce_density_rejects_empty_state():
    zeros = np.zeros(2, dtype=complex)
    empty = TwoPhotonOutputState(
        two_photon=np.zeros(3, dtype=complex),
        branch_c=zeros,
        branch_d=zeros,
        env_pair=np.zeros((2, 2), dtype=complex),
    )
    with pytest.raises(UnitarityError, match="empty"):
        reduce_density(empty, np.eye(2))


def test_reduce_density_rejects_wrong_comms_shape():
    state, _ = _state_and_comms(_matrix(0.7, 0.6, 0.8, 0.5))
    with pytest.raises(ValueError, match="2x2"):
        reduce_density(state, np.eye(3))


# --- coincidence figures --------------------------------------------------------


def test_conditional_coincidence_matches_dilation_oracle():
    rng = np.random.default_rng(406)
    for _ in range(40):
        m = _random_matrix(rng)
        state, _ = _state_and_comms(m)
        assert coincidence_probability(state) == pytest.approx(
            _dilation_conditional(m), abs=1e-12
        )


def test_conditional_coincidence_frozen_values():
    pins = {
        (0.8, 0.6, 0.9, 0.7): 0.020524961782781227,
        (0.5, 0.9, 0.75, -1.2): 0.4702658285470522,
        (1 / math.sqrt(2), 1 / math.sqrt(2), 0.75, 0.0): 0.6712328767123289,
        (0.3, 0.4, 0.5, 2.0): 0.12403793917040473,
        (0.95, 0.2, 0.85, 3.0): 0.7522361337905944,
    }
    for (tau, eta, alpha, theta), expected in pins.items():
        state, _ = _state_and_comms(_matrix(tau, eta, alpha, theta))
        assert coincidence_probability(state) == pytest.approx(expected, abs=1e-12)


def test_ratio_and_conditional_agree_without_loss():
    rng = np.random.default_rng(407)
    for _ in range(40):
        m = _matrix(
            rng.uniform(0.05, 0.95), rng.uniform(0.05, 0.95), 1.0, rng.uniform(-3, 3)
        )
        state, _ = _state_and_comms(m)
        assert coincidence_ratio(m) == pytest.approx(
            coincidence_probability(state), abs=1e-10
        )


def test_ratio_and_conditional_split_under_loss():
    m = _matrix(1 / math.sqrt(2), 1 / math.sqrt(2), 0.75, 0.0)
    state, _ = _state_and_comms(m)
    ratio = coincidence_ratio(m)
    conditional = coincidence_probability(state)
    assert ratio == pytest.approx(1.96, abs=1e-12)  # a rate ratio, exceeds 1
    assert conditional == pytest.approx(0.6712328767123289, abs=1e-12)
    assert abs(ratio - conditional) > 1e-3


def test_ratio_invariant_under_inverse_conjugate():
    rng = np.random.default_rng(408)
    for _ in range(40):
        m = _random_matrix(rng)
        assert coincidence_ratio(inverse_conjugate(m)) == pytest.approx(
            coincidence_ratio(m), rel=1e-10, abs=1e-12
        )


def test_ratio_is_one_for_closed_input_coupler():
    # kappa = 0 makes M diagonal, so permanent and determinant coincide.
    assert coincidence_ratio(_matrix(1.0, 0.6, 0.9, 0.4)) == pytest.approx(1.0)


def test_ratio_rejects_singular_matrix():
    with pytest.raises(ValueError, match="singular"):
        coincidence_ratio(np.ones((2, 2)))


def test_destructive_point_without_loss():
    # At alpha = 1, theta = pi the permanent numerator t^2(1-z)^2 + (1-t^2)^2 z
    # vanishes for t = eta = sqrt(2) - 1.
    t = math.sqrt(2) - 1
    m = _matrix(t, t, 1.0, math.pi)
    assert abs(permanent2(m)) < 1e-12
    state, _ = _state_and_comms(m)
    assert coincidence_probability(state) < 1e-24
    assert coincidence_ratio(m) < 1e-24


def test_coincidence_probability_rejects_empty_sector():
    zeros = np.zeros(2, dtype=complex)
    empty = TwoPhotonOutputState(
        two_photon=np.zeros(3, dtype=complex),
        branch_c=zeros,
        branch_d=zeros,
        env_pair=np.zeros((2, 2), dtype=complex),
    )
    with pytest.raises(ValueError, match="empty"):
        coincidence_probability(empty)


def test_phase_rescaled_matrix_gives_same_figures():
    m = _matrix(0.6, 0.7, 0.8, -0.9)
    phased = np.exp(0.37j) * m
    state, comms = _state_and_comms(m)
    state_p, comms_p = _state_and_comms(phased)
    assert coincidence_ratio(phased) == pytest.approx(coincidence_ratio(m), rel=1e-12)
    assert coincidence_probability(state_p) == pytest.approx(
        coincidence_probability(state), abs=1e-12
    )
    assert entropy_one_photon(reduce_density(state_p, comms_p)) == pytest.approx(
        entropy_one_photon(reduce_density(state, comms)), abs=1e-12
    )


# --- parameter-grid routes ------------------------------------------------------


def test_ratio_grid_matches_matrix_route():
    rng = np.random.default_rng(409)
    for _ in range(25):
        tau = rng.uniform(0.05, 0.98)
        eta = rng.uniform(0.05, 0.98)
        alpha = rng.uniform(0.3, 1.0)
        theta = rng.uniform(-np.pi, np.pi)
        grid_value = coincidence_ratio_grid(
            np.float64(tau), np.float64(eta), np.float64(theta), alpha
        )
        assert float(grid_value) == pytest.approx(
            coincidence_ratio(_matrix(tau, eta, alpha, theta)), rel=1e-9, abs=1e-12
        )


def test_ratio_grid_decoupled_corner_is_regular():
    # Fully decoupled ring: both numerators share the factor (1 - z)^2, so the
    # ratio is exactly 1 even within rounding of theta = 0.
    value = coincidence_ratio_grid(
        np.float64(1.0), np.float64(1.0), np.float64(4.44e-16), 0.95
    )
    assert float(value) == pytest.approx(1.0, abs=1e-12)


def test_ratio_grid_nan_where_both_figures_vanish():
    # tau = 1, eta = alpha on resonance zeroes permanent and determinant alike.
    value = coincidence_ratio_grid(
        np.float64(1.0), np.float64(0.75), np.float64(0.0), 0.75
    )
    assert math.isnan(float(value))


def test_ratio_grid_validates_inputs():
    with pytest.raises(ValueError, match="alpha"):
        coincidence_ratio_grid(np.float64(0.5), np.float64(0.5), np.float64(0.0), 0.0)
    with pytest.raises(ValueError, match="amplitudes"):
        coincidence_ratio_grid(np.float64(1.5), np.float64(0.5), np.float64(0.0), 0.9)


# --- former expression of the coincidence kernel (oracle) ----------------------


def _former_ratio_grid(tau, eta, theta, alpha):
    """`coincidence_ratio_grid` as one numpy expression over the whole
    grid, as it was first written."""
    t, e = np.asarray(tau, dtype=float), np.asarray(eta, dtype=float)
    z = alpha * np.exp(1j * np.asarray(theta, dtype=float))
    te = t * e
    perm_num = (t - e * z) * (e - t * z) + (1.0 - t * t) * (1.0 - e * e) * z
    det_num = (te - z) * (1.0 - te * z)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.abs(perm_num) ** 2 / np.abs(det_num) ** 2


def _census_block(lo, alpha=0.9, counts=(201, 201, 401)):
    """The `homm-grid` chunk that starts at pair ``lo`` of the census axes."""
    taus, etas, thetas = hom._grid_axes(*counts)
    pairs = len(taus) * len(etas)
    it, ie = np.divmod(np.arange(lo, min(lo + hom._CHUNK // len(thetas), pairs)), len(etas))
    return taus[it][:, None], etas[ie][:, None], thetas[None, :], alpha


def test_ratio_grid_arrays_are_bitwise_the_former_expression():
    # Grids: the first and last census chunks (the last one is short and
    # holds the decoupled edge tau = eta = 1), and a 3-D block through the
    # decoupled corner and the 0/0 point tau = 1, eta = alpha, theta = 0.
    blocks = [_census_block(0), _census_block(201 * 201 - 5), _census_block(0, alpha=1.0)]
    axis = np.array([0.0, 0.5, 0.75, 1.0])
    corner = (axis[:, None, None], axis[None, :, None], np.array([-0.3, 0.0, 4.44e-16]), 0.75)
    blocks.append(corner)
    # 1-D: the critical-dip curves, and a tau axis against one eta and theta.
    thetas = np.linspace(-np.pi, np.pi, 401)
    blocks += [(1.0 / math.sqrt(2.0), 1.0 / math.sqrt(2.0), thetas, a) for a in (1.0, 0.9, 0.5)]
    blocks.append((np.linspace(0.0, 1.0, 33), 0.75, 0.0, 0.75))
    # Zero-size grids: an empty theta axis and an empty block of pairs.
    blocks.append((np.full((3, 1), 0.5), 0.5, np.zeros((1, 0)), 0.9))
    blocks.append((np.zeros((0, 1)), 0.5, np.zeros((1, 401)), 0.9))
    for tau, eta, theta, alpha in blocks:
        got = coincidence_ratio_grid(tau, eta, theta, alpha)
        want = _former_ratio_grid(tau, eta, theta, alpha)
        assert got.shape == want.shape
        assert np.array_equal(got, want, equal_nan=True)
    ratio = coincidence_ratio_grid(*corner)
    assert ratio[3, 3, 1] == 1.0 and math.isnan(ratio[3, 2, 1])


def test_ratio_grid_scalars_match_the_former_expression():
    # A 0-d call evaluates the kernel's expression once, on numpy scalars,
    # with no tiles.  The former expression squared numpy scalars with `**`,
    # which is libm pow, not x * x; that is the only difference, and it
    # moves the ratio by at most 2 ulp (about 1 point in 1000).
    rng = np.random.default_rng(1203)
    got, want = [], []
    for tau, eta, alpha, theta in zip(*rng.uniform(0.0, 1.0, (3, 2000)), rng.uniform(-3, 3, 2000)):
        got.append(coincidence_ratio_grid(np.float64(tau), np.float64(eta), theta, alpha))
        want.append(_former_ratio_grid(np.float64(tau), np.float64(eta), theta, alpha))
    np.testing.assert_array_max_ulp(np.array(got), np.array(want), maxulp=2)
    assert coincidence_ratio_grid(1.0, 1.0, 0.0, 0.95) == _former_ratio_grid(1.0, 1.0, 0.0, 0.95)
    assert math.isnan(coincidence_ratio_grid(1.0, 0.75, 0.0, 0.75))
    value = coincidence_ratio_grid(np.float64(0.3), np.float64(0.6), np.float64(0.2), 0.9)
    assert type(value) is np.float64


def test_ratio_grid_result_is_a_fresh_array():
    first = coincidence_ratio_grid(*_census_block(0))
    kept = first.copy()
    second = coincidence_ratio_grid(*_census_block(163))
    assert second.shape == first.shape
    assert np.array_equal(first, kept, equal_nan=True)
    assert not np.shares_memory(first, second)


def test_ratio_grid_is_thread_safe():
    # More threads than cores, with a short switch interval so the threads
    # interleave inside the kernel: two on census chunks of one shape, two
    # on blocks of shapes of their own.
    blocks = [_census_block(0), _census_block(163)] + [
        _census_block(lo, counts=counts) for lo, counts in ((3, (9, 7, 130)), (0, (5, 5, 3)))
    ]
    serial = [coincidence_ratio_grid(*block) for block in blocks]
    failures = []
    start = threading.Barrier(len(blocks))

    def run(block, want):
        start.wait(timeout=30)
        for _ in range(50):
            if not np.array_equal(coincidence_ratio_grid(*block), want, equal_nan=True):
                failures.append(block[0].shape)

    threads = [threading.Thread(target=run, args=pair) for pair in zip(blocks, serial)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert failures == []


def _traced(call):
    """``call()``, its peak traced allocation, and the bytes it still holds
    once its result is dropped."""
    tracemalloc.start()
    try:
        result = call()
        _, peak = tracemalloc.get_traced_memory()
        shape, nbytes = result.shape, result.nbytes
        del result
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return shape, nbytes, peak, held


def test_ratio_grid_census_chunk_allocates_only_its_result():
    # The kernel computes in tiles of at most `_TILE` points, so a census
    # chunk allocates its result and a few tile- and axis-sized arrays, not
    # grid-sized temporaries (about 8x the result if evaluated at once).
    shape, nbytes, peak, _ = _traced(lambda: coincidence_ratio_grid(*_census_block(0)))
    assert shape == (163, 401)
    assert peak < 2 * nbytes


def test_ratio_grid_smaller_block_allocates_only_its_result():
    # A census chunk of the pairs its screen keeps: its result and one
    # tile's temporaries (about five complex tiles), not the block-sized
    # temporaries of a whole-block evaluation (about 8x the result).
    tau, eta, theta, alpha = block = _census_block(0)
    part = tau[:60], eta[:60], theta, alpha
    shape, nbytes, peak, _ = _traced(lambda: coincidence_ratio_grid(*part))
    assert shape == (60, 401)
    assert peak < nbytes + 8 * hom._TILE * 16
    want = coincidence_ratio_grid(*block)[:60]
    assert coincidence_ratio_grid(*part).tobytes() == want.tobytes()


def test_ratio_grid_large_call_keeps_nothing():
    # One whole-grid library call peaks at its result plus its tiles and
    # holds nothing once the result is dropped.
    t = np.linspace(0.0, 1.0, 1000)
    th = np.linspace(-np.pi, np.pi, 1000)
    call = lambda: coincidence_ratio_grid(t[:, None], 0.5, th[None, :], 0.9)  # noqa: E731
    shape, nbytes, peak, held = _traced(call)
    assert shape == (1000, 1000)
    assert peak < nbytes + 2 * 2**20
    assert held < 2**20


def test_ratio_grid_tiles_never_change_bits(monkeypatch):
    rng = np.random.default_rng(18)
    taus, etas, thetas = hom._grid_axes(9, 7, 130)
    cases = [
        _census_block(163),
        (rng.uniform(0.0, 1.0, (1, 1)), 0.75, rng.uniform(-np.pi, np.pi, (1, 70001)), 0.9),
        (taus[:, None, None], etas[None, :, None], thetas, 0.75),
        (rng.uniform(0.0, 1.0, 2000), rng.uniform(0.0, 1.0, 2000), 0.3, 0.5),
    ]
    shapes = [(163, 401), (1, 70001), (9, 7, 130), (2000,)]
    for case, shape in zip(cases, shapes):
        bits = set()
        for tile in (1, 7, 401, 4096, 10**9):
            monkeypatch.setattr(hom, "_TILE", tile)
            ratio = coincidence_ratio_grid(*case)
            assert ratio.shape == shape
            bits.add(ratio.tobytes())
        assert len(bits) == 1, shape


def _vertex_angle(tau, eta, alpha):
    """The phase where |Perm|, as a quadratic in cos theta, is least
    (0 where that cosine is undefined)."""
    tau, eta = np.float64(tau), np.float64(eta)
    a = tau * eta
    b = (1.0 - tau**2) * (1.0 - eta**2) - tau**2 - eta**2
    with np.errstate(all="ignore"):
        u = -b * (1.0 + alpha**2) / (4.0 * alpha * a)
    return math.acos(min(1.0, max(-1.0, u))) if math.isfinite(u) else 0.0


_WINDOW_AXIS = np.linspace(-math.pi, math.pi, 4001)  # holds -pi, 0 and pi


@settings(max_examples=400, deadline=None, derandomize=True)
@given(
    tau=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
    eta=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
    alpha=st.one_of(
        st.sampled_from([5e-324, 1e-3, 1.0 - 1e-12, 1.0]),
        st.floats(0.0, 1.0, exclude_min=True),
    ),
    threshold=st.one_of(
        st.floats(-300.0, math.log10(1.5)).map(lambda x: 10.0**x),
        st.sampled_from([1e-300, 1.5, math.inf, None]),
    ),
)
def test_census_window_leaves_out_only_points_above_the_threshold(tau, eta, alpha, threshold):
    t, e = np.array([tau]), np.array([eta])
    if threshold is None:
        # the pair's own ratio at theta = pi, where |det| meets its bound U:
        # an edge of the window then falls on u = -1, and only the slack
        # keeps that point, whose ratio equals the threshold
        threshold = coincidence_ratio_grid(t, e, np.array([math.pi]), alpha)[0]
        threshold = threshold if threshold > 0 else 1e-300
    (lo,), (hi,) = hom._census_window(t, e, alpha, threshold)
    edges = [math.acos(min(1.0, max(-1.0, x))) for x in (lo, hi) if not math.isnan(x)]
    vertex = _vertex_angle(tau, eta, alpha)
    thetas = np.concatenate([_WINDOW_AXIS, edges, np.negative(edges), [vertex, -vertex]])
    ratio = coincidence_ratio_grid(t[:, None], e[:, None], thetas[None, :], alpha)[0]
    out = ~((np.cos(thetas) >= lo) & (np.cos(thetas) <= hi))
    assert np.all((ratio[out] > threshold) | np.isnan(ratio[out]))


def test_census_window_at_alpha_a_zero_is_all_or_nothing():
    # tau = 0: the ratio is (1 - 2 eta^2)^2 at every theta, here 0.6724,
    # 0.0784 and 0.3844, so the window holds all of the axis or none of it
    tau, eta = np.zeros(3), np.array([0.3, 0.6, 0.9])
    for alpha in (1e-3, 0.9, 1.0):
        lo, hi = hom._census_window(tau, eta, alpha, 0.5)
        assert np.all(np.isinf(lo) & np.isinf(hi))
        assert ((lo <= -1.0) & (hi >= 1.0)).tolist() == [False, True, True]
        assert ((lo <= 1.0) & (hi >= -1.0)).tolist() == [False, True, True]
    # a NaN input keeps the whole axis
    for args in ((np.array([math.nan]), np.array([0.5]), 0.9, 1e-3),
                 (np.array([0.5]), np.array([0.5]), 0.9, math.nan)):
        (lo,), (hi,) = hom._census_window(*args)
        assert (lo, hi) == (-math.inf, math.inf)


def test_hom_region_is_the_whole_grid_census(monkeypatch):
    # Small random grids, at the real tile and chunk sizes and at ones that
    # cut the pairs into many search blocks, or the gathered candidates and
    # their z across search blocks and theta slices: the windowed census
    # keeps what one whole-grid kernel call keeps, bit for bit.
    rng = np.random.default_rng(1709)
    alphas = (5e-324, 1e-3, 0.5, 0.9, 1.0 - 1e-12, 1.0)
    screened = 0
    for case in range(60):
        tile, chunk = ((4096, 65536), (4096, 16), (7, 65536))[case % 3]
        monkeypatch.setattr(hom, "_TILE", tile)
        monkeypatch.setattr(hom, "_CHUNK", chunk)
        counts = tuple(int(n) for n in rng.integers(1, 13, 2)) + (int(rng.integers(1, 40)),)
        alpha = float(rng.choice(alphas)) if case % 2 else float(rng.uniform(0.0, 1.0))
        threshold = 10.0 ** rng.uniform(-300.0, math.log10(1.5))
        region = hom_region(alpha, threshold, *counts)
        axes = hom._grid_axes(*counts)
        t, e, th = (g.ravel() for g in np.meshgrid(*axes, indexing="ij"))
        ratio = coincidence_ratio_grid(t, e, th, alpha)
        keep = ratio <= threshold
        assert region.points.tobytes() == np.column_stack([t, e, th])[keep].tobytes()
        assert region.values.tobytes() == ratio[keep].tobytes()
        assert region.points.shape == (keep.sum(), 3)
        lo, hi = hom._census_window(t, e, alpha, threshold)
        screened += (~((np.cos(th) >= lo) & (np.cos(th) <= hi))).sum()
    assert screened > 0


def test_census_working_memory_stays_bounded(monkeypatch):
    # At threshold 1.5 every point is a candidate, so each search block is
    # full and candidates are carried across blocks; with a reduce that
    # keeps nothing, the census holds its per-theta table (the cosines)
    # and, at any pair count or axis length, one search block's mask and
    # candidate indices (9 bytes a point of at most `_CHUNK`), the carried
    # tile and one kernel call's arrays.
    kernel, evaluated = hom._ratio, [0]

    def counting(*operands):
        evaluated[0] += np.broadcast(*operands).size
        return kernel(*operands)

    monkeypatch.setattr(hom, "_ratio", counting)
    for counts in ((20, 20, 401), (80, 80, 401), (1, 1, 200001)):
        axes = hom._grid_axes(*counts)
        evaluated[0] = 0
        tracemalloc.start()
        try:
            kept = sum(hom._census(axes, 0.9, 1.5, lambda ti, ei, hi, values: values.size))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert evaluated[0] == math.prod(counts) and 0 < kept <= evaluated[0]
        assert peak - 8 * counts[2] < 9 * hom._CHUNK + 24 * hom._TILE * 16, counts


@pytest.mark.parametrize("threshold", [0.25, 1.5, math.inf])
@pytest.mark.parametrize("counts", [(1, 7, 33), (6, 1, 33), (1, 1, 9)])
def test_hom_region_on_a_zero_tau_or_eta_axis_is_the_whole_grid_census(counts, threshold):
    # An axis of one value is [0.0], so alpha A = 0 on every pair and the
    # ratio (1 - 2 eta^2)^2 or (1 - 2 tau^2)^2 is at most 1: thresholds 1.5
    # and inf keep every point, 0.25 some of them (none at tau = eta = 0).
    # At alpha 5e-324 |det|^2 underflows, and every ratio is NaN.
    t, e, th = (g.ravel() for g in np.meshgrid(*hom._grid_axes(*counts), indexing="ij"))
    for alpha in (5e-324, 1e-3, 0.5, 1.0):
        region = hom_region(alpha, threshold, *counts)
        ratio = coincidence_ratio_grid(t, e, th, alpha)
        keep = ratio <= threshold
        assert region.points.tobytes() == np.column_stack([t, e, th])[keep].tobytes()
        assert region.values.tobytes() == ratio[keep].tobytes()


def test_hom_region_on_a_sliced_theta_axis_is_the_whole_grid_census(monkeypatch):
    # _CHUNK 16 cuts 41 phases into slices of 14, 14 and 13, so each pair's
    # window is matched against each slice's own cosines in turn
    monkeypatch.setattr(hom, "_CHUNK", 16)
    counts = (5, 5, 41)
    t, e, th = (g.ravel() for g in np.meshgrid(*hom._grid_axes(*counts), indexing="ij"))
    for alpha, threshold in ((0.9, 0.05), (0.5, 0.3)):
        region = hom_region(alpha, threshold, *counts)
        ratio = coincidence_ratio_grid(t, e, th, alpha)
        keep = ratio <= threshold
        assert 0 < keep.sum() < keep.size
        assert region.points.tobytes() == np.column_stack([t, e, th])[keep].tobytes()
        assert region.values.tobytes() == ratio[keep].tobytes()


def test_hom_region_with_no_pair_left_is_empty():
    region = hom_region(1.0, 1e-300, 21, 21, 41)
    assert region.points.shape == (0, 3) and region.points.dtype == float
    assert region.values.shape == (0,) and region.values.dtype == float
    assert region.count == 0 and region.fraction == 0.0


def test_hom_region_census_without_loss():
    region = hom_region(alpha=1.0)
    assert region.grid_shape == (101, 101, 201)
    assert region.count == 52080
    assert region.fraction == pytest.approx(52080 / (101 * 101 * 201), abs=1e-15)
    assert region.points.shape == (52080, 3)
    assert np.all(region.values <= region.threshold)


def test_hom_region_shrinks_with_loss():
    lossy = hom_region(alpha=0.75)
    assert lossy.count == 14356
    assert lossy.count < 52080


def test_hom_region_symmetric_in_phase():
    region = hom_region(alpha=0.9, tau_count=21, eta_count=21, theta_count=41)
    points = {tuple(np.round(p, 12)) for p in region.points}
    mirrored = {(p[0], p[1], round(-p[2], 12)) for p in points}
    assert points == mirrored


def test_hom_region_validates_inputs():
    for threshold in (0.0, math.nan):
        with pytest.raises(ValueError, match="threshold"):
            hom_region(alpha=0.9, threshold=threshold)
    with pytest.raises(ValueError, match="tau_count"):
        hom_region(alpha=0.9, tau_count=0)
    # checked even where the screen leaves the kernel nothing to evaluate
    for alpha in (1.5, 0.0, math.nan):
        with pytest.raises(ValueError, match="alpha"):
            hom_region(alpha, 1e-300, 5, 5, 5)
    # a fractional count used to die in np.linspace with a TypeError
    for name in ("tau_count", "eta_count", "theta_count"):
        with pytest.raises(ValueError, match=name):
            hom_region(alpha=0.9, **{name: 2.5})


# --- one-photon entropy -----------------------------------------------------------


def test_entropy_bounds_on_random_draws():
    rng = np.random.default_rng(410)
    for _ in range(50):
        state, comms = _state_and_comms(_random_matrix(rng))
        entropy = entropy_one_photon(reduce_density(state, comms))
        assert 0.0 <= entropy <= 1.0 + 1e-12


def test_entropy_nan_when_no_photon_is_lost():
    lossless, lossy = _matrix(0.8, 0.55, 1.0, 0.9), _matrix(0.8, 0.55, 0.9, 0.9)
    state, comms = _state_and_comms(lossless)
    assert math.isnan(entropy_one_photon(reduce_density(state, comms)))
    # in a mixed stack, only the lossless entries are NaN
    stack = np.array([[lossless, lossy], [lossy, lossless]])
    entropy = entropy_one_photon(reduce_density(*_state_and_comms(stack)))
    assert np.isnan(entropy).tolist() == [[True, False], [False, True]]
    lone = entropy_one_photon(reduce_density(*_state_and_comms(lossy)))
    assert entropy[0, 1] == entropy[1, 0] == pytest.approx(lone, abs=1e-14)


def test_entropy_zero_when_which_path_is_certain():
    # Closed input coupler: any lost photon came from bus b, the survivor
    # is definitely in c, so the one-photon state is pure.
    state, comms = _state_and_comms(_matrix(1.0, 0.6, 0.8, 0.3))
    density = reduce_density(state, comms)
    assert density.p1 > 0.1
    np.testing.assert_allclose(density.rho1, np.diag([1.0, 0.0]), atol=1e-12)
    assert entropy_one_photon(density) == 0.0


def test_entropy_grid_matches_scalar_route():
    taus = np.linspace(0.1, 0.95, 5)
    etas = np.linspace(0.15, 0.9, 4)
    thetas = np.linspace(-2.5, 2.5, 7)
    alpha = 0.75
    grid = entropy_grid(
        taus[:, None, None], etas[None, :, None], thetas[None, None, :], alpha
    )
    assert grid.shape == (5, 4, 7)
    for i, tau in enumerate(taus):
        for j, eta in enumerate(etas):
            for k, theta in enumerate(thetas):
                state, comms = _state_and_comms(_matrix(tau, eta, alpha, theta))
                expected = entropy_one_photon(reduce_density(state, comms))
                np.testing.assert_allclose(
                    grid[i, j, k], expected, atol=1e-10, equal_nan=True
                )


# --- independent oracle: one-photon entropy from the operator expansion -------
#
# G comes from np.linalg.inv.  Expanding a†b† = sum_kl G0k G1l (x_k† - F_k†)
# (x_l† - F_l†), x = (c, d), every sector norm is an explicit Wick sum with
# <0|x_k x_l†|0> = delta_kl and <0|F_k F_l†|0> = C[k, l], C = I - M M†; the
# entropy comes from np.linalg.eigvalsh.  Nothing here calls the hom kernels.


def _oracle_entropy(tau, eta, alpha, theta):
    m = _matrix(tau, eta, alpha, theta)
    g = np.conj(np.linalg.inv(m))
    c = np.eye(2) - m @ m.conj().T
    pair = np.outer(g[0], g[1])  # coefficient of x_k† x_l† (or F_k† F_l†)
    idx = [(k, l) for k in range(2) for l in range(2)]
    p2 = sum(
        np.conj(pair[k, l]) * pair[q, r] * ((k == q) * (l == r) + (k == r) * (l == q))
        for k, l in idx for q, r in idx
    ).real
    p0 = sum(
        np.conj(pair[k, l]) * pair[q, r] * (c[k, q] * c[l, r] + c[k, r] * c[l, q])
        for k, l in idx for q, r in idx
    ).real
    # branch[i][k]: coefficient of x_k† F_i†
    branch = [[-(g[0, k] * g[1, i] + g[0, i] * g[1, k]) for k in range(2)] for i in range(2)]
    rho1 = np.zeros((2, 2), dtype=complex)
    for i in range(2):
        for j in range(2):
            for a in range(2):
                for b in range(2):
                    rho1[a, b] += c[j, i] * branch[i][a] * np.conj(branch[j][b])
    p1 = np.trace(rho1).real
    if p1 / (p2 + p1 + p0) <= 1e-12:
        return math.nan
    eigs = np.linalg.eigvalsh(rho1 / p1)
    return float(-sum(lam * math.log2(lam) for lam in eigs if lam > 0.0))


def test_entropy_routes_match_independent_oracle():
    taus = (0.0, 0.3, 1 / math.sqrt(2), 0.95, 1.0)
    etas = (0.2, 0.6, 1.0)
    thetas = (-2.7, -0.4, 0.0, 1.3, 3.1)
    nans = 0
    for alpha in (0.5, 0.75, 1.0):
        grid = entropy_grid(
            np.array(taus)[:, None, None],
            np.array(etas)[None, :, None],
            np.array(thetas)[None, None, :],
            alpha,
        )
        for (i, tau), (j, eta), (k, theta) in itertools.product(
            enumerate(taus), enumerate(etas), enumerate(thetas)
        ):
            if tau == eta == alpha == 1.0 and theta == 0.0:
                continue  # unit loop gain: M itself is undefined
            want = _oracle_entropy(tau, eta, alpha, theta)
            state, comms = _state_and_comms(_matrix(tau, eta, alpha, theta))
            scalar = entropy_one_photon(reduce_density(state, comms))
            for got in (grid[i, j, k], scalar):
                np.testing.assert_allclose(got, want, atol=1e-10, equal_nan=True)
            nans += math.isnan(want)
    # lossless rings and the decoupled tau = eta = 1 line have no photon lost
    assert nans == len(taus) * len(etas) * len(thetas) - 1 + 2 * len(thetas)


def test_entropy_grid_nan_on_decoupled_line():
    grid = entropy_grid(
        np.array([0.5, 1.0])[:, None], np.float64(1.0), np.array([0.4, 1.3]), 0.8
    )
    # eta = 1 keeps photon b in its bus; tau = 1 then blocks all loss.
    assert grid.shape == (2, 2)
    assert np.isnan(grid[1]).all()
    assert np.isfinite(grid[0]).all()


def test_entropy_grid_validates_inputs():
    with pytest.raises(ValueError, match="alpha"):
        entropy_grid(np.float64(0.5), np.float64(0.5), np.float64(0.0), 1.5)
    with pytest.raises(ValueError, match="amplitudes"):
        entropy_grid(np.float64(-0.1), np.float64(0.5), np.float64(0.0), 0.9)
    with pytest.raises(ValueError, match="p1_threshold"):
        entropy_grid(np.float64(0.5), np.float64(0.5), np.float64(0.0), 0.9, math.nan)


def test_xlogx_rounds_like_libm():
    rng = np.random.default_rng(41)
    special = [0.0, -0.0, 1.0, 5e-324, math.inf, math.nan, -0.25]
    values = np.concatenate(
        [special, rng.random(20000), np.exp(rng.uniform(-700.0, 0.0, 20000))]
    )
    got = hom._xlogx(values)
    want = [
        0.0 if v == 0.0 else v * math.log(v) if v > 0.0 else math.nan
        for v in values.tolist()
    ]
    np.testing.assert_array_equal(got.view(np.int64), np.array(want).view(np.int64))
    assert hom._xlogx(np.float64(0.5)) == 0.5 * math.log(0.5)

    special_fn = pytest.importorskip("scipy.special")
    want = special_fn.xlogy(values, values)
    np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))


@pytest.mark.parametrize(
    "kernel",
    [
        lambda t, e, th: entropy_grid(t, e, th, 0.9),
        lambda t, e, th: coincidence_ratio_grid(t, e, th, 0.9),
    ],
    ids=["entropy", "ratio"],
)
def test_split_theta_axis_keeps_the_whole_axis_bits(kernel):
    # At the real chunk size: a 70,001-point theta axis runs in two slices,
    # both above the size where numpy's temporary elision swaps operands.
    taus, etas, thetas = axes = (
        np.array([0.5]), np.array([0.3, 0.8]), np.linspace(-np.pi, np.pi, 70001)
    )
    got = np.full((2, len(thetas)), -1.0)

    def reduce(ti, ei, hi, values):
        got[ti * len(etas) + ei, hi] = values
        return hi.size

    sizes = list(hom._walk_grid(axes, kernel, reduce))
    assert max(sizes) <= hom._CHUNK and sum(sizes) == got.size
    # one pair against each of two even slices, pair by pair
    assert sizes == [35001, 35000] * 2
    whole = kernel(taus[:, None], etas[:, None], thetas[None, :])
    assert got.tobytes() == whole.tobytes()


# --- the tiled entropy kernel -------------------------------------------------


def _former_grid_state(t, e, th, alpha):
    """`hom._grid_state` as first written: ``c12`` as one expression, whose
    operand order numpy's temporary elision chose from the call's size."""
    z = alpha * np.exp(1j * th)
    s = math.sqrt(alpha) * np.exp(0.5j * th)
    kap = np.sqrt(1.0 - t * t)
    gam = np.sqrt(1.0 - e * e)
    denom = 1.0 - t * e * z
    m11 = (t - e * z) / denom
    m12 = m21 = -gam * kap * s / denom
    m22 = (e - t * z) / denom
    c11 = 1.0 - np.abs(m11) ** 2 - np.abs(m12) ** 2
    c22 = 1.0 - np.abs(m21) ** 2 - np.abs(m22) ** 2
    c12 = -(m11 * np.conj(m21) + m12 * np.conj(m22))
    pairs = hom._pairs(*hom.add_drop._inverse_conjugate(m11, m12, m21, m22))
    return (*pairs, ((c11, c12), (np.conj(c12), c22)))


def _former_entropy_grid(tau, eta, theta, alpha):
    """`entropy_grid` as one whole-call evaluation through
    `_former_grid_state`, at the default ``p1_threshold``."""
    t, e = hom._real_couplers(tau, eta)
    with np.errstate(divide="ignore", invalid="ignore"):
        state = _former_grid_state(t, e, np.asarray(theta, dtype=float), alpha)
        p2, p1, p0, r00, r11, r01 = hom._sectors(*state)
        bits, _ = hom._entropy_bits(r00.real / p1, r11.real / p1, r01 / p1)
        return np.where(p1 / (p2 + p1 + p0) > hom.P1_THRESHOLD, bits, math.nan)


def _entropy_block():
    """A 541 x 121 `entropy-grid` chunk of the 61x61x121 benchmark grid."""
    return _census_block(0, alpha=0.75, counts=(61, 61, 121))


def _row(points):
    """One (tau, eta) pair against ``points`` phases."""
    return np.array([[0.5]]), np.array([[0.3]]), np.linspace(-np.pi, np.pi, points)[None, :]


def test_grid_state_orders_match_the_former_expression_at_their_sizes():
    # numpy elides a temporary of at least 256 KiB (16384 complex points),
    # computing m11 * conj(m21) as conj(m21) * m11; the kernel writes the
    # order of each size out, so it gives the former bits on either side.
    taus, etas, _ = hom._grid_axes(5, 5, 1)
    cases = [
        (_entropy_block()[:3], True),
        (_row(hom._ELIDE), True),
        (_row(hom._ELIDE - 1), False),
        ((taus[:, None], etas[None, :], np.float64(0.4)), False),
    ]

    def flat(state):
        pairs, (top, bottom) = state[:3], state[3]
        return (*pairs, *top, *bottom)

    for (tau, eta, theta), conj_first in cases:
        assert (np.broadcast(tau, eta, theta).size >= hom._ELIDE) is conj_first
        th = np.asarray(theta)
        got = flat(hom._grid_state(tau, eta, th, 0.75, conj_first))
        want = flat(_former_grid_state(tau, eta, th, 0.75))
        assert [a.tobytes() for a in got] == [b.tobytes() for b in want], th.size


def test_entropy_grid_tiles_never_change_bits(monkeypatch):
    taus, etas, _ = hom._grid_axes(5, 5, 1)
    cases = [
        _entropy_block(),  # above the elision size
        (taus[:, None], etas[None, :], 0.4, 0.75),  # below it
        (*_row(70001), 0.9),  # a row longer than a tile, as a sliced axis gives
    ]
    for case, shape in zip(cases, [(541, 121), (5, 5), (1, 70001)]):
        want = _former_entropy_grid(*case)
        assert want.shape == shape
        for tile in (1, 7, 4096, 10**9):
            monkeypatch.setattr(hom, "_TILE", tile)
            assert entropy_grid(*case).tobytes() == want.tobytes(), (shape, tile)


def test_entropy_grid_counts_the_negative_eigenvalues_of_the_whole_call(monkeypatch):
    # the first chunk of the default entropy-grid at alpha = 1, p1_threshold = 0
    block = _census_block(0, alpha=1.0, counts=(41, 41, 81))
    for tile in (7, 4096, 10**9):
        monkeypatch.setattr(hom, "_TILE", tile)
        with pytest.raises(UnitarityError, match=r"eigenvalue at 9609 grid points$"):
            entropy_grid(*block, p1_threshold=0.0)


def test_grid_kernels_return_a_numpy_scalar_for_0d_inputs():
    point = np.float64(0.5), np.float64(0.3), np.float64(0.4), 0.75
    for kernel in (entropy_grid, coincidence_ratio_grid):
        value = kernel(*point)
        assert type(value) is np.float64
        grid = kernel(np.array([0.5, 0.6]), 0.3, 0.4, 0.75)
        assert value == pytest.approx(grid[0], rel=1e-12)


def test_entropy_chunk_working_memory_scales_with_the_tile(monkeypatch):
    # An entropy chunk evaluated at once holds about 19 complex arrays of its
    # size (about 20 MB at 65,461 points); in tiles it holds its result and
    # one tile's arrays, at any chunk size.
    block = _entropy_block()
    for tile in (1024, 4096):
        monkeypatch.setattr(hom, "_TILE", tile)
        shape, nbytes, peak, held = _traced(lambda: entropy_grid(*block))
        assert shape == (541, 121) and held < 2**16
        assert peak < nbytes + 32 * tile * 16
    # the bound bites: the whole chunk as one tile
    monkeypatch.setattr(hom, "_TILE", 10**9)
    _, nbytes, peak, _ = _traced(lambda: entropy_grid(*block))
    assert peak > nbytes + 10 * 541 * 121 * 16
