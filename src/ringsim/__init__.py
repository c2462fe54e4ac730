"""Lossy ring resonators: transfer amplitudes, noise bookkeeping, and
two-photon interference.

Modules
-------
core
    Shared parameter types (couplers, rings) and CPython-rounding kernels.
attenuation
    Distributed loss as a beam-splitter cascade; commutator preservation.
single_bus
    All-pass ring: circulating-phasor and Lorentzian models, rate matching,
    the brute-force circulation double sum.
add_drop
    Add/drop ring: 2x2 transfer matrix, collective noise operators.
hom
    Two-photon interference with loss: sectored output state, reduced
    density matrices, coincidence figures, interference-manifold census.
cli
    ``ringsim`` command-line sweeps; ``ringsim audit`` runs `audit`.
audit
    The identity audit: 12 bookkeeping identities re-derived on seeded
    random draws, each by two routes.

The package root imports nothing up front: each public name, and each
module above, is imported on first use (PEP 562).  So ``import ringsim``
loads no numpy, and the command line reaches `cli` before numpy loads.
"""

__version__ = "0.1.0"

#: Public name -> the module that defines it.
_EXPORTS = {
    "CouplerParams": "core",
    "ResonantDivergenceError": "core",
    "RingParams": "core",
    "TruncationError": "core",
    "UnitarityError": "core",
    "alpha_from_loss": "core",
    "LangevinRates": "single_bus",
    "SingleBusResponse": "single_bus",
    "langevin_transfer": "single_bus",
    "match_rates": "single_bus",
    "transfer_amplitude": "single_bus",
    "AddDropParams": "add_drop",
    "inverse_conjugate": "add_drop",
    "noise_commutators": "add_drop",
    "transfer_matrix": "add_drop",
    "SectorDensity": "hom",
    "TwoPhotonOutputState": "hom",
    "coincidence_probability": "hom",
    "coincidence_ratio": "hom",
    "entropy_one_photon": "hom",
    "hom_region": "hom",
    "output_state": "hom",
    "reduce_density": "hom",
}

_MODULES = ("add_drop", "attenuation", "audit", "cli", "core", "hom", "single_bus")

__all__ = sorted([*_EXPORTS, "__version__"])


def __getattr__(name: str):
    module = _EXPORTS.get(name, name)
    if module not in _MODULES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # the builtin import, which binds the module here and which -X importtime times
    __import__(f"{__name__}.{module}")
    if name != module:
        globals()[name] = getattr(globals()[module], name)
    return globals()[name]


def __dir__():
    return sorted({*globals(), *__all__, *_MODULES})
