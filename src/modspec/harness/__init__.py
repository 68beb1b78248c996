from .config import ExperimentConfig, ConfigError
from .experiments import (
    SeriesDivergenceError,
    run_conservation,
    run_norm_equivalence,
    run_apriori,
    run_galilei,
    run_scaling,
    run_tails,
    run_weights,
)
from .reports import RunResult, SummaryEntry, write_csv, write_summary

__all__ = [
    "ExperimentConfig", "ConfigError", "SeriesDivergenceError",
    "run_conservation", "run_norm_equivalence", "run_apriori",
    "run_galilei", "run_scaling", "run_tails", "run_weights",
    "RunResult", "SummaryEntry", "write_csv", "write_summary",
]
