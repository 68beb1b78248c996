"""Periodic spectral toolkit for mKdV/NLS flows, determinant-series conserved
quantities, banded (modulation-type) norms, and equicontinuity weights."""

from .grid import (
    BandRangeError,
    Field,
    GridError,
    GridSpec,
    band_indicator_field,
    band_l2,
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
    modulation_norm,
    sobolev_norm,
)
from .conserved import (
    AliasingError,
    OperatorPair,
    SeriesDivergenceError,
    SpectralParameter,
    alpha2,
    alpha4,
    alpha_full,
    alpha_series_partial_sums,
    alpha_terms,
    beta2,
    beta_full,
    build_operator,
    quadratic_trace_windowed,
    quartic_integral,
    tail_bound,
)
from .symmetries import (
    BoostSpec,
    apriori_exponent,
    boosted_beta2,
    galilei_boost,
    scale_field,
    scaling_bound_factor,
)
from .flows import BlowUpError, FlowSpec, Trajectory, evolve, linear_propagator
from .equicont import (
    FieldFamily,
    NotEquicontinuousError,
    WeightCheck,
    WeightSequence,
    build_weights,
    equicontinuity_tail,
    verify_weights,
)

__version__ = "0.1.0"
