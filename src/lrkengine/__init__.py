"""Quasistatic quantum heat engines on the long-range Kitaev chain."""

from .chain import (
    SHORT_RANGE,
    ChainParams,
    GaplessConfigurationError,
    InvalidParameterError,
    NonFiniteResultError,
    QuasiparticleSpectrum,
    WindingResult,
    build_spectrum,
    min_gap,
    momentum_grid,
    pairing_function,
    spectrum_scan,
    winding_number,
)
from .cycles import (
    BathPair,
    ContractViolationError,
    CycleSpec,
    OttoResult,
    RatioDiagnostics,
    StirlingResult,
    carnot_efficiency,
    otto_cycle,
    ratio_diagnostics,
    stirling_cycle,
)
from .sweep import (
    InsufficientDataError,
    MaxRatioPoint,
    OptimalCondition,
    RegionMap,
    SweepConfig,
    enhancement_regions,
    max_ratio_grid,
    max_ratios,
    optimal_condition,
    sweep_mu,
)

__version__ = "0.1.0"
