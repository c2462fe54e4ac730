"""The batched identity audit against a draw-by-draw reference.

`_reference_audit` is the audit written one draw at a time through the
scalar public API, one ``rng.uniform`` call per variate.  The batched
audit must draw the same variates and reach the same identity names,
residual counts and verdicts, with worst residuals equal up to rounding.
"""

import hashlib
import json
import math

import numpy as np
import pytest

from ringsim import add_drop, attenuation, cli, hom, single_bus
from ringsim.core import (
    CouplerParams,
    ResonantDivergenceError,
    RingParams,
    UnitarityError,
    _coupler,
    _survival,
)

PI = math.pi


def _random_add_drop(rng, alpha=None):
    return add_drop.AddDropParams(
        CouplerParams.from_magnitude(rng.uniform(0.05, 0.98)),
        CouplerParams.from_magnitude(rng.uniform(0.05, 0.98)),
        RingParams.from_alpha(
            rng.uniform(0.3, 0.98) if alpha is None else alpha, theta=rng.uniform(-PI, PI)
        ),
    )


def _reference_audit(seed, samples):
    """``[(name, residual count, worst residual, tolerance)]``, draw by draw."""
    rng = np.random.default_rng(seed)
    out = []

    def record(name, tolerance, residuals):
        out.append((name, len(residuals), max(residuals), tolerance))

    res = []
    for _ in range(samples):
        coupler = CouplerParams.from_magnitude(
            rng.uniform(0.0, 0.99), tau_phase=rng.uniform(-PI, PI)
        )
        ring = RingParams.from_alpha(rng.uniform(0.3, 1.0), theta=rng.uniform(-PI, PI))
        ident = single_bus.commutator_sum_identity(coupler, ring)
        res.append(abs(ident.analytic - ident.closed))
    record("single_bus_noise_closed_form", 1e-12, res)

    res = []
    for _ in range(min(samples, 100)):
        coupler = CouplerParams.from_magnitude(rng.uniform(0.0, 0.9))
        ring = RingParams.from_alpha(rng.uniform(0.3, 0.95), theta=rng.uniform(-PI, PI))
        series = single_bus.commutator_sum_series(coupler, ring, n_max=200, m_max=200)
        res.append(abs(series - single_bus.commutator_sum_identity(coupler, ring).closed))
    record("circulation_double_sum_closed_form", 1e-8, res)

    res = []
    for _ in range(samples):
        gamma, length = rng.uniform(0.01, 2.5), rng.uniform(0.1, 2.0)
        res.append(abs(attenuation.continuum_commutator(gamma, length) - 1.0))
    record("uniform_line_commutator_unity", 1e-10, res)

    res = []
    for _ in range(samples):
        segments = [
            attenuation.LossSegment(rng.uniform(0.0, 2.0), rng.uniform(0.05, 1.0))
            for _ in range(5)
        ]
        res.append(abs(attenuation.piecewise_commutator(segments) - 1.0))
    record("piecewise_commutator_unity", 1e-10, res)

    res = []
    for _ in range(samples):
        rates = single_bus.LangevinRates(rng.uniform(0.0, 2.0), rng.uniform(0.0, 2.0))
        amp, noise = single_bus.langevin_transfer(rates, rng.uniform(-3.0, 3.0))
        res.append(abs(abs(amp) ** 2 + noise - 1.0))
    record("lorentzian_power_plus_noise_unity", 1e-12, res)

    res = []
    for _ in range(samples):
        t, a = rng.uniform(0.05, 0.999), rng.uniform(0.05, 0.999)
        tr = rng.uniform(1e-13, 1e-9)
        rates = single_bus.match_rates(
            CouplerParams.from_magnitude(t), RingParams.from_alpha(a, theta=0.0), tr
        )
        scale = math.sqrt(a * t) * tr
        res.append(abs(rates.gamma_plus * scale - (1.0 - a * t)))
        res.append(abs(rates.gamma_minus * scale - (a - t)))
    record("rate_matching_two_forms", 1e-12, res)

    res = []
    for _ in range(samples):
        m = add_drop.transfer_matrix(_random_add_drop(rng))
        comm = add_drop.noise_commutators(m)
        res.append(abs(comm[0, 0] - (1.0 - abs(m[0, 0]) ** 2 - abs(m[0, 1]) ** 2)))
        res.append(abs(comm[1, 1] - (1.0 - abs(m[1, 0]) ** 2 - abs(m[1, 1]) ** 2)))
        cross = -(m[0, 0] * m[1, 0].conjugate() + m[0, 1] * m[1, 1].conjugate())
        res.append(abs(comm[0, 1] - cross))
        res.append(abs(comm[1, 0] - comm[0, 1].conjugate()))
    record("noise_commutator_entries", 1e-12, res)

    res = []
    for _ in range(samples):
        m = add_drop.transfer_matrix(_random_add_drop(rng, alpha=1.0))
        res.append(float(np.max(np.abs(m @ m.conj().T - np.eye(2)))))
    record("lossless_matrix_unitarity", 1e-12, res)

    res = []
    for _ in range(samples):
        m = add_drop.transfer_matrix(_random_add_drop(rng))
        state = hom.output_state(add_drop.inverse_conjugate(m))
        density = hom.reduce_density(state, add_drop.noise_commutators(m))
        res.append(abs(density.p0 + density.p1 + density.p2 - 1.0))
        res.append(max(0.0, -float(np.linalg.eigvalsh(density.rho2).min())))
        if density.rho1 is not None:
            res.append(max(0.0, -float(np.linalg.eigvalsh(density.rho1).min())))
    record("sector_probabilities_and_psd", 1e-10, res)

    res = []
    for _ in range(samples):
        m = add_drop.transfer_matrix(_random_add_drop(rng))
        state = hom.output_state(add_drop.inverse_conjugate(m))
        density = hom.reduce_density(state, add_drop.noise_commutators(m))
        closed = hom.sector_normalizer(m)
        res.append(abs(density.normalizer - closed) / max(1.0, abs(closed)))
    record("sector_norm_closed_form", 1e-10, res)

    res = []
    for _ in range(samples):
        m = add_drop.transfer_matrix(_random_add_drop(rng))
        direct = hom.coincidence_ratio(m)
        inverted = hom.coincidence_ratio(add_drop.inverse_conjugate(m))
        res.append(abs(direct - inverted) / (1.0 + direct))
    record("coincidence_ratio_inversion_invariance", 1e-12, res)

    res = []
    for _ in range(samples):
        m = add_drop.transfer_matrix(_random_add_drop(rng, alpha=1.0))
        state = hom.output_state(add_drop.inverse_conjugate(m))
        res.append(abs(hom.coincidence_ratio(m) - hom.coincidence_probability(state)))
    record("lossless_coincidence_route_agreement", 1e-8, res)
    return out


# identities whose two routes use only Python-scalar rounding on both paths
_EXACT = {
    "single_bus_noise_closed_form",
    "circulation_double_sum_closed_form",
    "uniform_line_commutator_unity",
    "piecewise_commutator_unity",
    "lorentzian_power_plus_noise_unity",
    "rate_matching_two_forms",
}


@pytest.mark.parametrize("seed", [0, 7, 12345])
def test_batched_audit_matches_the_draw_by_draw_reference(seed):
    report = cli.run_audit(seed, 64)
    reference = _reference_audit(seed, 64)
    assert [r.name for r in report.records] == [name for name, *_ in reference]
    for record, (name, count, worst, tolerance) in zip(report.records, reference):
        assert record.samples == count, name
        assert record.tolerance == tolerance, name
        assert record.passed == (worst <= tolerance), name
        if name in _EXACT:
            assert record.max_residual == worst, name
        else:  # numpy arrays and scalars may round the products differently
            assert math.isclose(record.max_residual, worst, rel_tol=0.5, abs_tol=1e-15), name


def test_audit_blocks_draw_like_scalar_calls(monkeypatch):
    monkeypatch.setattr(cli, "_AUDIT_BLOCK", 7)
    variates = cli._IDENTITIES[0][3]
    blocks = list(cli._draw_blocks(np.random.default_rng(3), variates, 20))
    assert [(start, len(block)) for start, block in blocks] == [(0, 7), (7, 7), (14, 6)]
    rng = np.random.default_rng(3)
    scalar = [[rng.uniform(lo, hi) for _, lo, hi in variates] for _ in range(20)]
    assert np.concatenate([block for _, block in blocks]).tolist() == scalar


def test_block_size_never_changes_the_report(monkeypatch):
    whole = cli.run_audit(5, 40)
    monkeypatch.setattr(cli, "_AUDIT_BLOCK", 7)
    assert cli.run_audit(5, 40) == whole


def test_worst_draw_reproduces_the_worst_residual():
    report = cli.run_audit(9, 50)
    for record, (name, _, most, variates, residuals) in zip(report.records, cli._IDENTITIES):
        draw = record.worst_draw
        assert record.name == name
        assert 0 <= draw["index"] < min(50, most or 50)
        assert list(draw["params"]) == [v[0] for v in variates]
        columns = [np.array([draw["params"][v[0]]]) for v in variates]
        assert residuals(*columns)[0][0] == record.max_residual, name
    doc = json.loads(cli.render_audit_json(report, 50))
    assert [item["worst_draw"] for item in doc["identities"]] == [
        record.worst_draw for record in report.records
    ]
    # the text report names no draw
    assert "index" not in cli.render_audit_text(report, 50)


def test_batched_guards_raise_on_one_bad_draw():
    """Each guard of the scalar route still raises when one draw of a
    block breaks it."""
    good = np.full(3, 0.5)
    with pytest.raises(UnitarityError, match="magnitude"):
        _coupler(np.array([0.5, 1.5, 0.5]))
    with pytest.raises(ValueError, match="alpha"):
        _survival(np.array([0.5, 0.0, 0.5]))
    with pytest.raises(ResonantDivergenceError, match="unit loop gain"):
        single_bus._transfer(np.array([0.5, 1.0, 0.5]), 1.0, np.zeros(3))
    with pytest.raises(ResonantDivergenceError, match="unit loop gain"):
        cli._add_drop_matrices(np.array([0.5, 1.0]), np.array([0.5, 1.0]), 1.0, np.zeros(2))
    with pytest.raises(ResonantDivergenceError, match="zero linewidth"):
        single_bus._lorentzian(good, np.array([0.5, -0.5, 0.5]), np.array([1.0, 0.0, 1.0]))
    with pytest.raises(ValueError, match="rate matching"):
        single_bus._match_rates(np.array([0.5, 0.0, 0.5]), good, 1e-12)
    stack = np.array([np.eye(2), np.zeros((2, 2)), np.eye(2)], dtype=complex)
    with pytest.raises(ValueError, match="singular"):
        add_drop.inverse_conjugate(stack)
    with pytest.raises(ValueError, match="singular"):
        hom._coincidence_ratio(stack)
    with pytest.raises(UnitarityError, match="outside"):
        add_drop.noise_commutators(2.0 * stack)
    with pytest.raises(UnitarityError, match="empty"):
        hom._weights(good, np.array([0.5, -1.0, 0.5]), good)
    with pytest.raises(UnitarityError, match="p1 = .* is negative"):
        hom._weights(good, np.array([0.5, -0.1, 0.5]), good)
    with pytest.raises(ValueError, match="loss rate"):
        attenuation._continuum(np.array([0.5, math.nan, 0.5]), good)
    with pytest.raises(ValueError, match="length"):
        attenuation._continuum(good, np.array([0.5, 0.0, 0.5]))
    with pytest.raises(ValueError, match="Simpson panels"):
        attenuation._continuum(np.array([0.5, 1e6, 0.5]), good)
    amps = np.ones((3, 3), dtype=complex)
    amps[1] = 0.0
    with pytest.raises(ValueError, match="empty"):
        hom._coincidence_probability(amps)


def test_run_audit_checks_its_inputs_like_the_command_line():
    # a negative seed reached numpy, which raised an unnamed ValueError
    with pytest.raises(cli.ConfigError) as info:
        cli.run_audit(-1, 5)
    assert str(info.value) == "seed: must be >= 0 (got -1)"
    with pytest.raises(cli.ConfigError) as info:
        cli.run_audit(5, 0)
    assert str(info.value) == "samples: must be >= 1 (got 0)"


# SHA-256 of the text report and of the ``--out`` JSON report of
# ``ringsim audit --seed 7 --samples 500``.  The JSON report writes each
# worst residual with ``repr``, so a residual that moves by one ulp fails.
_AUDIT_DIGESTS = (
    "4b1a0f077f8c93c22e4d29345b1875415f1652b6b0a2cd64ec17210bc80c0ce3",
    "d96b7265a18efcc52338111d670ac1d4a3f59e37dbf0600e4cf15da14e63cb07",
)


def test_audit_report_bytes_are_pinned(tmp_path, capsys):
    out = tmp_path / "audit.json"
    assert cli.main(["audit", "--seed", "7", "--samples", "500", "--out", str(out)]) == 0
    text = capsys.readouterr().out.encode()
    digests = tuple(hashlib.sha256(data).hexdigest() for data in (text, out.read_bytes()))
    assert digests == _AUDIT_DIGESTS
