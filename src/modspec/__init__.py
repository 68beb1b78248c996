"""Periodic spectral toolkit for mKdV/NLS flows, determinant-series conserved
quantities, banded (modulation-type) norms, and equicontinuity weights."""

from .grid import (
    AliasingError,
    BandRangeError,
    Field,
    GridError,
    GridSpec,
    band_indicator_field,
    band_profile,
    forward_transform,
    gaussian_field,
    inverse_transform,
    make_grid,
    random_band_field,
    sech_field,
    unresolved_mass_fraction,
)
from .norms import (
    ModulationParams,
    admissible_sigma,
    bracket,
    hs_functional,
    profile_norm,
    sobolev_norm,
)
from .conserved import (
    OperatorPair,
    SeriesDivergenceError,
    SpectralParameter,
    alpha2,
    alpha4,
    alpha_terms,
    build_operator,
    quartic_integral,
    tail_bound,
)
from .symmetries import (
    apriori_exponent,
    galilei_boost,
    scale_field,
    scaling_bound_factor,
)
from .flows import BlowUpError, FlowSpec, Trajectory, evolve_batch
from .equicont import (
    NotEquicontinuousError,
    WeightCheck,
    WeightSequence,
    build_weights,
    verify_weights,
)

__version__ = "0.1.0"
