"""Outside-in tracer for hiercast.

``Tracer.install()`` wraps every public function and every public plain
method of the classes defined in the given ``hiercast`` modules, and
rebinds each wrapped function under every name that any loaded
``hiercast.*`` module holds it by (``cli.build_summing_matrix`` and
``nnd.build_summing_matrix`` are both the one in ``hierarchy``).  Each
wrapper records calls, inclusive time and self time (inclusive minus the
time of traced calls made inside it).  ``uninstall()`` puts every original
back.  Nothing under ``src/`` is modified.

A name captured before ``install()`` (a default argument, a closure, a
``from x import f`` in a module loaded later) keeps the original and is not
traced.  The tracer is single-threaded: the benchmark runs NND with
``--jobs 1``.
"""

import functools
import importlib
import inspect
import sys
import time
import tracemalloc
import warnings
from collections import defaultdict
from dataclasses import dataclass


@dataclass
class Stat:
    calls: int = 0
    s: float = 0.0          # inclusive, counted once under recursion
    self_s: float = 0.0     # inclusive minus traced callees
    active: int = 0


class Tracer:
    def __init__(self, layers, hooks=None):
        """``layers``: module names under ``hiercast`` whose public callables
        are wrapped.  ``hooks``: traced name -> ``hook(tracer, call, args,
        kwargs)`` run in place of the call inside the timed region; it must
        return ``call()``'s result (used for counters derived from
        arguments or results)."""
        self.layers = tuple(layers)
        self.hooks = dict(hooks or {})
        self.stats = defaultdict(Stat)
        self.counters = defaultdict(float)
        self._stack = []        # per open frame: time spent in traced callees
        self._patches = []      # (owner, attribute, original)

    # -- recording -------------------------------------------------------

    def wrap(self, name, fn):
        stat = self.stats[name]
        hook = self.hooks.get(name)
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            stat.active += 1
            t0 = clock()
            try:
                if hook is None:
                    return fn(*args, **kwargs)
                return hook(self, lambda: fn(*args, **kwargs), args, kwargs)
            finally:
                dt = clock() - t0
                stat.active -= 1
                stat.calls += 1
                stat.self_s += dt - stack.pop()
                if not stat.active:
                    stat.s += dt
                if stack:
                    stack[-1] += dt

        return traced

    # -- patching --------------------------------------------------------

    def _patch(self, owner, attr, original, wrapped):
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapped)

    def _targets(self):
        """(traced name, owner, attribute, original) for every callable the
        tracer wraps, in a stable order."""
        out = []
        for layer in self.layers:
            mod = importlib.import_module(f"hiercast.{layer}")
            for attr, obj in sorted(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isclass(obj):
                    for meth, raw in sorted(vars(obj).items()):
                        if not meth.startswith("_") and inspect.isfunction(raw):
                            out.append((f"{obj.__name__}.{meth}", obj, meth, raw))
                elif callable(obj):
                    out.append((attr, mod, attr, obj))
        names = [t[0] for t in out]
        dup = {n for n in names if names.count(n) > 1}
        if dup:
            raise RuntimeError(f"traced names are not unique: {sorted(dup)}")
        return out

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "hiercast" or n.startswith("hiercast."))]
        for name, owner, attr, original in self._targets():
            wrapped = self.wrap(name, original)
            if inspect.isclass(owner):
                self._patch(owner, attr, original, wrapped)
                continue
            for mod in modules:
                for alias, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, alias, original, wrapped)
        return self

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


# ---------------------------------------------------------------------------
# Hooks: counters measured where the work happens
# ---------------------------------------------------------------------------

def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _cv_folds(tracer, call, args, kwargs):
    """Attempted folds from the CV config, failed folds from the warnings
    ``expanding_window_cv`` issues, failed candidates from it raising.  The
    captured warnings are re-issued unchanged."""
    y, cfg = _arg(args, kwargs, 0, "y"), _arg(args, kwargs, 3, "cfg")
    tracer.counters["cv.folds"] += len(cfg.fold_sizes(len(y)))
    caught = []
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            return call()
    except Exception:
        tracer.counters["cv.candidates_failed"] += 1
        raise
    finally:
        tracer.counters["cv.folds_failed"] += sum(
            str(w.message).startswith("CV fold") for w in caught)
        for w in caught:
            warnings.warn_explicit(w.message, w.category, w.filename, w.lineno)


def _conv_flop(x, k):
    """2*B*w*c_in*c_out*ks multiply-adds of one 'same' convolution, computed
    from the shapes (taps that fall in the padding are counted too)."""
    B, w, c_in = x.shape
    ks, _, c_out = k.shape
    return 2.0 * B * w * c_in * c_out * ks


def _conv_forward(tracer, call, args, kwargs):
    tracer.counters["conv1d_same.gflop"] += _conv_flop(args[0], args[1]) / 1e9
    return call()


def _conv_grad(tracer, call, args, kwargs):
    # input gradient and weight gradient: two convolutions' worth
    tracer.counters["conv1d_same_grad.gflop"] += 2 * _conv_flop(args[0], args[1]) / 1e9
    return call()


def _hw_points(tracer, call, args, kwargs):
    tracer.counters["hw_add_fit.points"] += len(args[0])
    return call()


def _train_epochs(tracer, call, args, kwargs):
    net = call()
    tracer.counters["train.epochs"] += len(net.history)
    return net


def _panel_rows(tracer, call, args, kwargs):
    panel = call()
    tracer.counters["load_panel.rows"] += panel.values.size + sum(
        mat.size for _, mat in panel.exog.values())
    return panel


def _traced_peak(tracer, call, args, kwargs):
    """Peak Python-visible allocation (numpy included) during the call."""
    tracemalloc.start()
    try:
        return call()
    finally:
        peak = tracemalloc.get_traced_memory()[1] / 2**20
        tracemalloc.stop()
        key = "shrinkage_covariance.peak_mb"
        tracer.counters[key] = max(tracer.counters[key], peak)


HOOKS = {
    "expanding_window_cv": _cv_folds,
    "conv1d_same": _conv_forward,
    "conv1d_same_grad": _conv_grad,
    "hw_add_fit": _hw_points,
    "train": _train_epochs,
    "load_panel": _panel_rows,
    "shrinkage_covariance": _traced_peak,
}

# ``cli`` is not wrapped: each CLI stage is one frame around
# ``hiercast.cli.main``, so its self time is the time no other layer covers.
LAYERS = ("hierarchy", "forecastset", "forecasters", "kernels", "neuralnet",
          "nnd", "reconcile", "evaluate")
