"""hiercast: hierarchical time-series forecasting with classical
reconciliation and neural-network disaggregation."""

__version__ = "0.1.0"

from .errors import ConfigError, DataError, HiercastError, NumericError
from .hierarchy import (Hierarchy, SeriesPanel, SummingMatrix, aggregate,
                        build_summing_matrix, calendar_matrix,
                        coherence_violation, load_hierarchy, load_panel)
from .forecastset import ForecastSet, read_forecast_set
from .forecasters import (Arx, CombCls, CombMean, Ets, Naive, Narx,
                          SeasonalNaive, cls_weights, combine_mean,
                          default_candidates, project_simplex, select_model,
                          select_models)
from .reconcile import (ErrorCovariance, apply_topdown, bottom_up,
                        middle_out, mint_reconcile, proportions_ahp,
                        proportions_fp, proportions_pha,
                        shrinkage_covariance)
from .evaluate import (CVConfig, EvalReport, NemenyiResult, chi2_sf,
                       expanding_window_cv, friedman_test, mase,
                       nemenyi_svg, nemenyi_test, smape)
from .nnd import (ArchConfig, NndConfig, NndResult, WindowConfig,
                  disaggregate, make_windows, raw_violation, train_nnd)
from .synthetic import GeneratorSpec, generate, write_dataset
from .seeding import derive_seed

__all__ = [
    "__version__",
    "HiercastError", "ConfigError", "DataError", "NumericError",
    "Hierarchy", "SummingMatrix", "SeriesPanel", "build_summing_matrix",
    "aggregate", "coherence_violation", "calendar_matrix",
    "load_hierarchy", "load_panel",
    "ForecastSet", "read_forecast_set",
    "Naive", "SeasonalNaive", "Arx", "Ets", "Narx", "CombMean", "CombCls",
    "combine_mean", "cls_weights", "project_simplex",
    "default_candidates", "select_model", "select_models",
    "bottom_up", "apply_topdown", "middle_out", "mint_reconcile",
    "proportions_ahp", "proportions_pha", "proportions_fp",
    "ErrorCovariance", "shrinkage_covariance",
    "mase", "smape", "CVConfig", "expanding_window_cv",
    "friedman_test", "nemenyi_test", "NemenyiResult", "EvalReport",
    "chi2_sf", "nemenyi_svg",
    "WindowConfig", "ArchConfig", "NndConfig", "NndResult",
    "make_windows", "train_nnd", "disaggregate", "raw_violation",
    "GeneratorSpec", "generate", "write_dataset",
    "derive_seed",
]
