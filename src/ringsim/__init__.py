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
    ``ringsim`` command-line sweeps and the identity audit.

The package root imports nothing up front: each public name, and each
module above, is imported on first use (PEP 562).  So ``import ringsim``
loads no numpy, and the command line reaches `cli` before numpy loads.
"""

from importlib import import_module

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

_MODULES = ("add_drop", "attenuation", "cli", "core", "hom", "single_bus")

__all__ = sorted([*_EXPORTS, "__version__"])


def __getattr__(name: str):
    if name in _EXPORTS:
        value = getattr(import_module(f".{_EXPORTS[name]}", __name__), name)
        globals()[name] = value
        return value
    if name in _MODULES:
        return import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__, *_MODULES})
