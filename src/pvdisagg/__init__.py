"""pvdisagg: split feeder-level net power into PV generation and demand.

The package estimates the aggregate capacity of unobserved behind-the-
meter PV plants from a single composite power measurement and a local
irradiance signal, then reconstructs generation and demand trajectories.
"""

__version__ = "0.1.0"

from .errors import (DisaggError, FormatError, InputError,  # noqa: F401
                     SolverError)
from .timeseries import (TimeSeries, ingest_csv, make_folds,  # noqa: F401
                         mask_night, resample_average, write_csv)
from .solar import (PlaneBank, PlaneConfig, SiteConfig,  # noqa: F401
                    TemperatureModel, build_bank, clearsky_ghi,
                    decompose_ghi, default_bank, sun_position,
                    temperature_correct, transpose_hay_davies)
from .dsp import BandpassFilter, design_bandpass  # noqa: F401
from .methods import (CapacityVector, DisaggregationResult,  # noqa: F401
                      MethodParams, disaggregate, fit, fit_method_a,
                      fit_method_b, fit_method_c, fit_method_d,
                      predict_generation)
from .evaluation import (Metrics, ScenarioData, ScenarioSpec,  # noqa: F401
                         SweepResult, SweepRow, aggregate_stats,
                         compute_metrics, generate_scenario,
                         penetration_experiment, run_cv)
from .optim import (QuadraticProgram, SolverReport,  # noqa: F401
                    irls_bisquare, psd_check_and_regularize, solve_lp,
                    solve_qp)
