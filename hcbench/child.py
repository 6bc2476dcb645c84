"""One fresh interpreter per measurement; started by run.py.

    python3 hcbench/child.py SPEC.json RESULT.json

``mode: "setup"`` times ``import hiercast.cli`` and probes the kernel
backend.  ``mode: "pipeline"`` runs the spec's stages through
``hiercast.cli.main(argv)`` in order, timing each (wall and user+sys CPU),
optionally under the tracer, and records the process's peak RSS.
"""

import json
import resource
import sys
import time
import traceback


def _cpu():
    r = resource.getrusage(resource.RUSAGE_SELF)
    return r.ru_utime + r.ru_stime


def _import_cli(src):
    sys.path.insert(0, src)
    t0 = time.perf_counter()
    import hiercast.cli
    setup_s = time.perf_counter() - t0
    if not hiercast.cli.__file__.startswith(src):
        raise RuntimeError(f"hiercast imported from {hiercast.cli.__file__}, "
                           f"not from {src}")
    return hiercast.cli, setup_s


def run_setup(spec):
    cli, setup_s = _import_cli(spec["src"])
    from hiercast import kernels
    try:
        import numba
        numba_version = numba.__version__
    except ImportError:
        numba_version = None
    return {"setup_s": setup_s, "backend": kernels.BACKEND,
            "numba": numba_version}


def run_pipeline(spec):
    cli, setup_s = _import_cli(spec["src"])
    tracer = None
    if spec["trace"]:
        from tracer import HOOKS, LAYERS, Tracer
        tracer = Tracer(LAYERS, HOOKS).install()
    stages = []
    try:
        for name, argv in spec["stages"]:
            main = cli.main if tracer is None else tracer.wrap(f"cli.{name}", cli.main)
            c0, t0 = _cpu(), time.perf_counter()
            try:
                rc = main(argv)
            except SystemExit as exc:      # argparse rejects the argv
                rc = exc.code
            except Exception:
                traceback.print_exc()
                rc = "exception"
            stages.append({"stage": name, "rc": rc,
                           "s": time.perf_counter() - t0, "cpu_s": _cpu() - c0})
            if rc != 0:
                break
    finally:
        if tracer is not None:
            tracer.uninstall()
    result = {"setup_s": setup_s, "stages": stages,
              "maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    if tracer is not None:
        result["stats"] = {k: {"calls": v.calls, "s": v.s, "self_s": v.self_s}
                           for k, v in tracer.stats.items()}
        result["counters"] = dict(tracer.counters)
    return result


if __name__ == "__main__":
    with open(sys.argv[1]) as fh:
        spec = json.load(fh)
    out = run_setup(spec) if spec["mode"] == "setup" else run_pipeline(spec)
    with open(sys.argv[2], "w") as fh:
        json.dump(out, fh)
