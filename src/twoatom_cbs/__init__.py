"""Double-scattering coherent backscattering of laser light from two driven atoms.

Numerically exact stationary intensities and emission spectra in the
helicity-preserving channel, perturbative at second order in the
photon-exchange coupling, with the closed-form enhancement factor
(`oracles`) and orientation averaging.
"""

from .basis import expectation, single_atom_basis, two_atom_basis_flat
from .config_average import cbs_cone
from .errors import ConfigurationError, ResolventError
from .liouvillian import (
    DriveConfig,
    GeneratorSet,
    Geometry,
    assemble,
    coupling_constant,
)
from .spectrum import (
    SpectrumResult,
    check_sum_rule,
    compute_spectrum,
    default_nu_grid,
)
from .steady_state import (
    IntensityBreakdown,
    PerturbativeState,
    intensities,
    perturbative_steady_state,
)

__version__ = "0.1.0"

__all__ = [
    "ConfigurationError",
    "DriveConfig",
    "GeneratorSet",
    "Geometry",
    "IntensityBreakdown",
    "PerturbativeState",
    "ResolventError",
    "SpectrumResult",
    "assemble",
    "cbs_cone",
    "check_sum_rule",
    "compute_spectrum",
    "coupling_constant",
    "default_nu_grid",
    "expectation",
    "intensities",
    "perturbative_steady_state",
    "single_atom_basis",
    "two_atom_basis_flat",
    "__version__",
]
