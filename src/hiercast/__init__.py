"""hiercast: hierarchical time-series forecasting with classical
reconciliation and neural-network disaggregation.

``import hiercast`` runs the code of no submodule.  Each submodule but
``cli`` is registered in ``sys.modules`` and as an attribute of the package
by ``importlib.util.LazyLoader``: the same module object, whose code runs
on the first attribute access or import of it.  The public names resolve
through their module on first access (PEP 562), so
``hiercast.mint_reconcile`` runs ``reconcile`` alone, not the network
engine.  Code that lists the loaded modules (a tracer, a monkeypatch)
sees every submodule from the start."""

import importlib.util as _util
import sys as _sys

__version__ = "0.1.0"

# module -> the public names it exports, in ``__all__`` order
_EXPORTS = {
    "errors": ("HiercastError", "ConfigError", "DataError", "NumericError"),
    "hierarchy": ("Hierarchy", "SummingMatrix", "SeriesPanel",
                  "build_summing_matrix", "aggregate", "coherence_violation",
                  "calendar_matrix", "load_hierarchy", "load_panel"),
    "forecastset": ("ForecastSet", "read_forecast_set"),
    "forecasters": ("Naive", "SeasonalNaive", "Arx", "Ets", "Narx", "CombMean",
                    "CombCls", "combine_mean", "cls_weights", "project_simplex",
                    "default_candidates", "select_model", "select_models"),
    "reconcile": ("bottom_up", "apply_topdown", "middle_out", "mint_reconcile",
                  "proportions_ahp", "proportions_pha", "proportions_fp",
                  "ErrorCovariance", "shrinkage_covariance"),
    "evaluate": ("mase", "smape", "CVConfig", "expanding_window_cv",
                 "friedman_test", "nemenyi_test", "NemenyiResult", "EvalReport",
                 "chi2_sf", "nemenyi_svg"),
    "nnd": ("WindowConfig", "ArchConfig", "NndConfig", "NndResult",
            "make_windows", "train_nnd", "disaggregate", "raw_violation"),
    "synthetic": ("GeneratorSpec", "generate", "write_dataset"),
    "seeding": ("derive_seed",),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *_HOME]


def _register_lazy(name):
    """Put submodule ``name`` in ``sys.modules`` and on the package without
    running its code (the recipe of the ``importlib`` documentation)."""
    spec = _util.find_spec(f"{__name__}.{name}")
    spec.loader = _util.LazyLoader(spec.loader)
    module = _util.module_from_spec(spec)
    _sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    globals()[name] = module


# ``cli`` is left out: ``python -m hiercast.cli`` runs it as ``__main__``,
# and runpy warns when that module is in ``sys.modules`` already
for _name in (*_EXPORTS, "kernels", "neuralnet"):
    _register_lazy(_name)
del _name


def __getattr__(name):
    """A public name from its module.  Nothing is cached here, so a name
    rebound in its module (a wrapper, a test's monkeypatch) is what this
    returns too."""
    if name in _HOME:
        return getattr(globals()[_HOME[name]], name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})
