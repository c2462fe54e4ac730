"""The identity audit behind ``ringsim audit``: 12 bookkeeping identities,
each re-derived on its own seeded draws by comparing two routes to one
quantity.

Only the audit imports this module (through `cli.run_audit`), so a sweep
never compiles it.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from . import add_drop, attenuation, hom, single_bus
from .cli import _PI, _add_drop_matrices, _coerce, _validate
from .core import CouplerParams, RingParams, _abs, _coupler, _square, _survival

__all__ = [
    "AuditReport",
    "IdentityRecord",
    "render_audit_json",
    "render_audit_text",
    "run_audit",
]


@dataclass(frozen=True)
class IdentityRecord:
    """One audited identity: its residual count, worst residual and tolerance.

    ``worst_draw`` names the draw with the worst residual, as
    ``{"index": i, "params": {name: value}}``: the draw's index among the
    identity's draws and the parameters drawn for it, so a failure can be
    reproduced.
    """

    name: str
    samples: int
    max_residual: float
    tolerance: float
    worst_draw: dict | None = None

    @property
    def passed(self) -> bool:
        return self.max_residual <= self.tolerance


@dataclass(frozen=True)
class AuditReport:
    seed: int
    records: tuple[IdentityRecord, ...]

    @property
    def ok(self) -> bool:
        return all(record.passed for record in self.records)


#: Draws an audit identity evaluates at once.  Bounds the audit's working
#: arrays: one block of 5000 draws raised peak memory by about a fifth.
_AUDIT_BLOCK = 1024

# Variates of one draw, in the order the generator yields them:
# (name, low, high) of each uniform.
_PHASE = (-_PI, _PI)
_LOSSLESS_ADD_DROP = (("tau", 0.05, 0.98), ("eta", 0.05, 0.98), ("theta", *_PHASE))
_ADD_DROP = (*_LOSSLESS_ADD_DROP[:2], ("alpha", 0.3, 0.98), _LOSSLESS_ADD_DROP[2])


def _single_bus_noise(tau, tau_phase, alpha, theta):
    coupler = _coupler(tau, tau_phase)
    analytic, closed = single_bus._noise_identity(*coupler, _survival(alpha), theta)
    return np.abs(analytic - closed), tau.size


def _double_sum(tau, alpha, theta):
    # the double sum is one public call per draw; each call sums its
    # triangle of terms at once, on index tables shared by every call
    series = [
        single_bus.commutator_sum_series(
            CouplerParams.from_magnitude(t), RingParams.from_alpha(a, theta=th), 200, 200
        )
        for t, a, th in zip(tau.tolist(), alpha.tolist(), theta.tolist())
    ]
    _, closed = single_bus._noise_identity(*_coupler(tau), _survival(alpha), theta)
    return np.abs(np.array(series) - closed), tau.size


def _uniform_line(gamma, length):
    return np.abs(attenuation.continuum_commutator(gamma, length) - 1.0), gamma.size


def _piecewise_line(*variates):
    segments = list(map(attenuation.LossSegment, variates[0::2], variates[1::2]))
    return np.abs(attenuation.piecewise_commutator(segments) - 1.0), variates[0].size


def _lorentzian_unity(coupling, intrinsic, delta):
    amp, noise = single_bus._lorentzian(coupling, intrinsic, delta)
    return np.abs(_square(_abs(amp)) + noise - 1.0), delta.size


def _rate_matching(tau, alpha, round_trip_time):
    coupling, intrinsic = single_bus._match_rates(
        _abs(_coupler(tau)[0]), _survival(alpha), round_trip_time
    )
    scale = np.sqrt(alpha * tau) * round_trip_time
    plus = np.abs(0.5 * (coupling + intrinsic) * scale - (1.0 - alpha * tau))
    minus = np.abs(0.5 * (coupling - intrinsic) * scale - (alpha - tau))
    return np.maximum(plus, minus), 2 * tau.size


def _commutator_entries(tau, eta, alpha, theta):
    m = _add_drop_matrices(tau, eta, _survival(alpha), theta)
    comm = add_drop.noise_commutators(m)
    m00, m01, m10, m11 = m[:, 0, 0], m[:, 0, 1], m[:, 1, 0], m[:, 1, 1]
    residuals = (
        _abs(comm[:, 0, 0] - (1.0 - _square(_abs(m00)) - _square(_abs(m01)))),
        _abs(comm[:, 1, 1] - (1.0 - _square(_abs(m10)) - _square(_abs(m11)))),
        _abs(comm[:, 0, 1] - (-(m00 * np.conj(m10) + m01 * np.conj(m11)))),
        _abs(comm[:, 1, 0] - np.conj(comm[:, 0, 1])),
    )
    return np.max(residuals, axis=0), 4 * tau.size


def _lossless_unitarity(tau, eta, theta):
    m = _add_drop_matrices(tau, eta, 1.0, theta)
    deviation = m @ np.conj(m).swapaxes(-1, -2) - np.eye(2)
    return np.abs(deviation).max(axis=(-2, -1)), tau.size


def _sector_state(tau, eta, alpha, theta):
    """M and its stack of `hom.SectorDensity`."""
    m = _add_drop_matrices(tau, eta, _survival(alpha), theta)
    state = hom.output_state(add_drop.inverse_conjugate(m))
    return m, hom.reduce_density(state, add_drop.noise_commutators(m))


def _sector_weights_and_psd(tau, eta, alpha, theta):
    _, density = _sector_state(tau, eta, alpha, theta)
    defined = density.p1 > hom.P1_THRESHOLD
    rho1_low = np.zeros_like(density.p1)
    if density.rho1 is not None:
        rho1_low[defined] = np.linalg.eigvalsh(density.rho1[defined]).min(axis=-1)
    residuals = (
        np.abs(density.p0 + density.p1 + density.p2 - 1.0),
        np.maximum(0.0, -np.linalg.eigvalsh(density.rho2).min(axis=-1)),
        np.maximum(0.0, -rho1_low),
    )
    return np.max(residuals, axis=0), 2 * tau.size + int(defined.sum())


def _sector_norm(tau, eta, alpha, theta):
    m, density = _sector_state(tau, eta, alpha, theta)
    closed = hom.sector_normalizer(m)
    return np.abs(density.normalizer - closed) / np.maximum(1.0, np.abs(closed)), tau.size


def _ratio_inversion(tau, eta, alpha, theta):
    m = _add_drop_matrices(tau, eta, _survival(alpha), theta)
    direct = hom.coincidence_ratio(m)
    inverted = hom.coincidence_ratio(add_drop.inverse_conjugate(m))
    return np.abs(direct - inverted) / (1.0 + direct), tau.size


def _lossless_routes(tau, eta, theta):
    m = _add_drop_matrices(tau, eta, 1.0, theta)
    state = hom.output_state(add_drop.inverse_conjugate(m))
    return np.abs(hom.coincidence_ratio(m) - hom.coincidence_probability(state)), tau.size


# (name, tolerance, most draws or None for all, variates, residuals).  Each
# residual function compares two routes to one quantity over a block of
# draws: it takes the block's variate columns and returns the worst
# residual of each draw and the number of residuals the block holds.
_IDENTITIES = (
    (
        "single_bus_noise_closed_form", 1e-12, None,
        (("tau", 0.0, 0.99), ("tau_phase", *_PHASE), ("alpha", 0.3, 1.0), ("theta", *_PHASE)),
        _single_bus_noise,
    ),
    (
        "circulation_double_sum_closed_form", 1e-8, 100,
        (("tau", 0.0, 0.9), ("alpha", 0.3, 0.95), ("theta", *_PHASE)),
        _double_sum,
    ),
    (
        "uniform_line_commutator_unity", 1e-10, None,
        (("gamma", 0.01, 2.5), ("length", 0.1, 2.0)),
        _uniform_line,
    ),
    (
        "piecewise_commutator_unity", 1e-10, None,
        tuple(
            variate
            for k in range(5)
            for variate in ((f"gamma_{k}", 0.0, 2.0), (f"length_{k}", 0.05, 1.0))
        ),
        _piecewise_line,
    ),
    (
        "lorentzian_power_plus_noise_unity", 1e-12, None,
        (("coupling", 0.0, 2.0), ("intrinsic", 0.0, 2.0), ("delta", -3.0, 3.0)),
        _lorentzian_unity,
    ),
    (
        "rate_matching_two_forms", 1e-12, None,
        (("tau", 0.05, 0.999), ("alpha", 0.05, 0.999), ("round_trip_time", 1e-13, 1e-9)),
        _rate_matching,
    ),
    ("noise_commutator_entries", 1e-12, None, _ADD_DROP, _commutator_entries),
    ("lossless_matrix_unitarity", 1e-12, None, _LOSSLESS_ADD_DROP, _lossless_unitarity),
    ("sector_probabilities_and_psd", 1e-10, None, _ADD_DROP, _sector_weights_and_psd),
    ("sector_norm_closed_form", 1e-10, None, _ADD_DROP, _sector_norm),
    ("coincidence_ratio_inversion_invariance", 1e-12, None, _ADD_DROP, _ratio_inversion),
    (
        "lossless_coincidence_route_agreement", 1e-8, None, _LOSSLESS_ADD_DROP,
        _lossless_routes,
    ),
)


def _draw_blocks(rng: np.random.Generator, variates, draws: int):
    """Yield ``(first draw index, (n, k) variates)`` blocks of `_AUDIT_BLOCK`
    draws at most.  The values equal those of one scalar ``rng.uniform``
    call per variate, draw after draw."""
    _, low, high = zip(*variates)
    for start in range(0, draws, _AUDIT_BLOCK):
        size = (min(_AUDIT_BLOCK, draws - start), len(low))
        yield start, rng.uniform(low, high, size=size)


def run_audit(seed: int, samples: int) -> AuditReport:
    """Re-derive every bookkeeping identity on random parameters.

    Deterministic for a fixed seed; each identity records its worst
    residual over ``samples`` draws and the draw that produced it.  A
    ``seed`` or ``samples`` that is not an integer, a negative ``seed`` and
    ``samples`` outside [1, `cli._MAX_SAMPLES`] are a `cli.ConfigError`
    that names the field, as on the command line.
    """
    seed, samples = (_coerce("audit", k, v) for k, v in (("seed", seed), ("samples", samples)))
    _validate("audit", {"seed": seed, "samples": samples})
    rng = np.random.default_rng(seed)
    records = []
    for name, tolerance, most, variates, residuals in _IDENTITIES:
        count, worst, worst_at, worst_row = 0, -math.inf, 0, None
        for start, block in _draw_blocks(rng, variates, min(samples, most or samples)):
            res, entries = residuals(*block.T)
            count += entries
            i = int(np.argmax(res))  # the first NaN, if any
            if res[i] > worst or (np.isnan(res[i]) and not np.isnan(worst)):
                worst, worst_at, worst_row = float(res[i]), start + i, block[i]
        records.append(
            IdentityRecord(
                name=name,
                samples=count,
                max_residual=worst,
                tolerance=tolerance,
                worst_draw={
                    "index": worst_at,
                    "params": dict(zip((v[0] for v in variates), worst_row.tolist())),
                },
            )
        )
    return AuditReport(seed=seed, records=tuple(records))


def render_audit_text(report: AuditReport, samples: int) -> str:
    width = max(len(r.name) for r in report.records)
    lines = [f"identity audit (seed={report.seed}, samples={samples})"]
    for r in report.records:
        verdict = "PASS" if r.passed else "FAIL"
        lines.append(
            f"  {r.name:<{width}}  n={r.samples:<5d} max|res|={r.max_residual:9.3e}"
            f"  tol={r.tolerance:7.1e}  {verdict}"
        )
    passed = sum(r.passed for r in report.records)
    lines.append(
        f"audit: {'PASS' if report.ok else 'FAIL'} "
        f"({passed}/{len(report.records)} identities)"
    )
    return "\n".join(lines) + "\n"


def render_audit_json(report: AuditReport, samples: int) -> str:
    payload = {
        "seed": report.seed,
        "samples": samples,
        "identities": [
            {
                "name": r.name,
                "samples": r.samples,
                # NaN or inf as null, as the sweeps write it
                "max_residual": r.max_residual if math.isfinite(r.max_residual) else None,
                "tolerance": r.tolerance,
                "pass": r.passed,
                "worst_draw": r.worst_draw,
            }
            for r in report.records
        ],
        "pass": report.ok,
    }
    return json.dumps(payload, indent=2, allow_nan=False) + "\n"
