import math

import numpy as np
import pytest

from ringsim import attenuation
from ringsim.attenuation import (
    BeamSplitterChain,
    LossSegment,
    _continuum,
    _simpson_panels,
    continuum_commutator,
    piecewise_commutator,
)


def test_single_splitter_amplitude():
    t = BeamSplitterChain(0.5, 2.0, beta=0.3, n_splitters=10).step_transmission
    assert abs(t) == pytest.approx(math.sqrt(1 - 0.1))
    assert np.angle(t) == pytest.approx(0.06)


def test_chain_converges_to_continuum_at_one_over_n():
    gamma, length = 0.35, 2.0
    target = math.exp(-gamma * length)
    errors = []
    for n in (100, 1000, 10000):
        chain = BeamSplitterChain(gamma, length, n_splitters=n)
        errors.append(abs(chain.power - target))
    # O(1/N): each decade of N buys one decade of accuracy
    for coarse, fine in zip(errors, errors[1:]):
        assert coarse / fine == pytest.approx(10.0, rel=0.05)


def test_chain_phase_accumulates_beta_l():
    amp = BeamSplitterChain(0.1, 3.0, beta=0.7, n_splitters=500).amplitude
    assert np.angle(amp) == pytest.approx(0.7 * 3.0)


def test_chain_rejects_overdense_loss():
    with pytest.raises(ValueError):
        BeamSplitterChain(gamma=2.0, length=3.0, n_splitters=5)
    with pytest.raises(ValueError):
        BeamSplitterChain(gamma=-0.1, length=1.0)


def test_continuum_commutator_is_one():
    rng = np.random.default_rng(31)
    for _ in range(200):
        gamma = rng.uniform(0.01, 2.5)
        length = rng.uniform(0.1, 2.0)
        assert abs(continuum_commutator(gamma, length) - 1.0) < 1e-10


def test_continuum_commutator_strong_loss():
    # Gamma L = 50: transmitted weight ~2e-22, noise carries everything
    assert abs(continuum_commutator(25.0, 2.0) - 1.0) < 1e-10


def _simpson_rule(gamma, length):
    """The commutator coefficient with the Simpson rule taken draw by draw,
    on one ``np.linspace`` grid of `_simpson_panels` panels."""
    gl = gamma * length
    n = _simpson_panels(gl)
    f = gamma * np.exp(-gamma * np.linspace(0.0, length, n + 1))
    weighted = f[0] + 4.0 * f[1::2].sum() + 2.0 * f[2:-1:2].sum() + f[-1]
    return math.exp(-gl) + float(length / n / 3.0 * weighted)


@pytest.mark.parametrize("pass_nodes", [None, 64])
def test_batched_quadrature_matches_the_per_draw_rule(monkeypatch, pass_nodes):
    if pass_nodes:  # most grids outgrow a pass, the smallest share one
        monkeypatch.setattr(attenuation, "_PASS_NODES", pass_nodes)
    rng = np.random.default_rng(33)
    gamma, length = rng.uniform(0.01, 2.5, 5000), rng.uniform(0.1, 2.0, 5000)
    # loss-free and strong-loss lines; the latter grid outgrows a whole pass
    gamma[[10, 777]], length[[10, 777]] = [0.0, 25.0], [1.0, 2.0]
    assert _simpson_panels(50.0) + 1 > attenuation._PASS_NODES
    reference = [_simpson_rule(g, ell) for g, ell in zip(gamma.tolist(), length.tolist())]
    # the same operations in the same order: equal, not only within 1e-15
    assert _continuum(gamma, length).tolist() == reference
    assert continuum_commutator(25.0, 2.0) == _simpson_rule(25.0, 2.0)


def test_piecewise_commutator_is_one():
    rng = np.random.default_rng(32)
    for _ in range(100):
        segments = [
            LossSegment(rng.uniform(0.0, 2.0), rng.uniform(0.05, 1.0))
            for _ in range(rng.integers(1, 8))
        ]
        assert abs(piecewise_commutator(segments) - 1.0) < 1e-10


def test_piecewise_matches_uniform_split():
    # one uniform line split into equal thirds carries the same bookkeeping
    whole = [LossSegment(0.9, 1.5)]
    thirds = [LossSegment(0.9, 0.5)] * 3
    assert piecewise_commutator(whole) == pytest.approx(piecewise_commutator(thirds))
    with pytest.raises(ValueError):
        piecewise_commutator([])


_BAD_CALLS = {
    "segment-nan-loss": (lambda: LossSegment(math.nan, 1.0), "loss rate"),
    "segment-nan-length": (lambda: LossSegment(1.0, math.nan), "length"),
    "continuum-nan-loss": (lambda: continuum_commutator(math.nan, 1.0), "loss rate"),
    "continuum-nan-length": (lambda: continuum_commutator(1.0, math.nan), "length"),
    "chain-nan-loss": (lambda: BeamSplitterChain(math.nan, 1.0).power, "loss rate"),
    # a Simpson grid over the panel cap would take gigabytes
    "continuum-huge-loss": (lambda: continuum_commutator(1e6, 1.0), "Simpson panels"),
    "continuum-inf-loss": (lambda: continuum_commutator(math.inf, 1.0), "Simpson panels"),
    "panels-huge": (lambda: _simpson_panels(1e300), "Simpson panels"),
    # each used to give a NaN or meaningless power, or fail without naming its field
    "chain-nan-beta": (lambda: BeamSplitterChain(0.1, 1.0, beta=math.nan), r"beta \* length"),
    "chain-inf-beta": (lambda: BeamSplitterChain(0.1, 1.0, beta=math.inf), r"beta \* length"),
    "chain-huge-phase": (lambda: BeamSplitterChain(0.1, 10.0, beta=1e308), r"beta \* length"),
    "chain-inf-length": (lambda: BeamSplitterChain(0.0, math.inf), "length must be finite"),
    "chain-fractional-splitters": (
        lambda: BeamSplitterChain(0.1, 1.0, n_splitters=2.5),
        "n_splitters must be an integer >= 1",
    ),
    # 1 - Gamma*L/N rounded to 1 (power 1.0), or the count overflowed a float
    "chain-huge-splitters": (
        lambda: BeamSplitterChain(0.1, 1.0, n_splitters=10**20).power,
        "n_splitters must be <= 1000000",
    ),
    "chain-overflow-splitters": (
        lambda: BeamSplitterChain(0.1, 1.0, n_splitters=10**400).power,
        "n_splitters must be <= 1000000",
    ),
    "chain-no-splitters": (
        lambda: BeamSplitterChain(0.1, 1.0, n_splitters=0),
        "n_splitters must be an integer >= 1",
    ),
    "continuum-inf-length": (
        lambda: continuum_commutator(0.0, math.inf),
        "length must be finite and > 0",
    ),
}


def test_lossless_line_takes_the_minimum_panel_count():
    # the formula gives 0 panels at either zero; the floor of 4 applies
    assert _simpson_panels(0.0) == 4
    assert _simpson_panels(-0.0) == 4


@pytest.mark.parametrize("case", sorted(_BAD_CALLS))
def test_nan_and_unbounded_inputs_are_rejected(case):
    call, message = _BAD_CALLS[case]
    with pytest.raises(ValueError, match=message):
        call()
