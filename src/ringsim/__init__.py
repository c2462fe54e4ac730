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
"""

from .core import (
    CouplerParams,
    ResonantDivergenceError,
    RingParams,
    TruncationError,
    UnitarityError,
    alpha_from_loss,
)
from .single_bus import (
    LangevinRates,
    SingleBusResponse,
    langevin_transfer,
    match_rates,
    transfer_amplitude,
)
from .add_drop import AddDropParams, inverse_conjugate, noise_commutators, transfer_matrix
from .hom import (
    SectorDensity,
    TwoPhotonOutputState,
    coincidence_probability,
    coincidence_ratio,
    entropy_one_photon,
    hom_region,
    output_state,
    reduce_density,
)

__version__ = "0.1.0"

__all__ = [
    "AddDropParams",
    "CouplerParams",
    "LangevinRates",
    "ResonantDivergenceError",
    "RingParams",
    "SectorDensity",
    "SingleBusResponse",
    "TruncationError",
    "TwoPhotonOutputState",
    "UnitarityError",
    "__version__",
    "alpha_from_loss",
    "coincidence_probability",
    "coincidence_ratio",
    "entropy_one_photon",
    "hom_region",
    "inverse_conjugate",
    "langevin_transfer",
    "match_rates",
    "noise_commutators",
    "output_state",
    "reduce_density",
    "transfer_amplitude",
    "transfer_matrix",
]
