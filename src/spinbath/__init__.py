"""Central-spin decoherence in dilute nuclear-spin baths.

Simulates spin-echo decay of single paramagnetic defects (substitutional
nitrogen and NV centers in diamond) coupled to a random carbon-13 bath,
using the disjoint-cluster factorization, plus the spectroscopy and
statistics helpers needed to interpret such measurements.
"""

from .bathgen import (
    Bath,
    Partition,
    child_seed,
    cluster_bath,
    generate_bath,
)
from .constants import (
    GAMMA_C13_HZ_PER_G,
    GAMMA_E_MHZ_PER_G,
    GAMMA_N14_HZ_PER_G,
)
from .dynamics import (
    EchoCurve,
    SimulationConfig,
    ensemble_signal,
    field_scan,
    group_signal,
    scan_csv,
)
from .hamiltonians import (
    BareElectron,
    JtOrientation,
    NVCenter,
    P1Center,
    build_nv_hamiltonian,
    build_p1_hamiltonian,
    build_system_hamiltonian,
)
from .pulses import (
    ParseError,
    PulseProgram,
    canonical_text,
    expand_preset,
    parse_sequence,
)

__version__ = "0.1.0"

__all__ = [
    "Bath",
    "Partition",
    "child_seed",
    "cluster_bath",
    "generate_bath",
    "GAMMA_C13_HZ_PER_G",
    "GAMMA_E_MHZ_PER_G",
    "GAMMA_N14_HZ_PER_G",
    "EchoCurve",
    "SimulationConfig",
    "ensemble_signal",
    "field_scan",
    "group_signal",
    "scan_csv",
    "BareElectron",
    "JtOrientation",
    "NVCenter",
    "P1Center",
    "build_nv_hamiltonian",
    "build_p1_hamiltonian",
    "build_system_hamiltonian",
    "ParseError",
    "PulseProgram",
    "canonical_text",
    "expand_preset",
    "parse_sequence",
    "__version__",
]
