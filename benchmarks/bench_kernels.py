"""Time the hot kernels of the active backend.

    python3 benchmarks/bench_kernels.py
    HIERCAST_NO_NUMBA=1 python3 benchmarks/bench_kernels.py

The convolution rows use the active backend (numba when it imports and
``HIERCAST_NO_NUMBA`` is unset, numpy otherwise).  The smoothing rows are
numpy only and time one full parameter grid, the work of one ``Ets.fit``.
"""

import time

import numpy as np


def _bench(fn, *args, repeat=5, warmup=1):
    for _ in range(warmup):
        fn(*args)
    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn(*args)
        best = min(best, time.perf_counter() - t0)
    return best


def main():
    from hiercast import kernels
    from hiercast.forecasters import _ETS_GRID, _HOLT_GRID, _HW_GRID

    rng = np.random.default_rng(0)
    results = []

    B, w, c_in, c_out, ks = 64, 30, 16, 16, 4
    x = rng.standard_normal((B, w, c_in))
    k = rng.standard_normal((ks, c_in, c_out))
    bias = rng.standard_normal(c_out)
    gout = rng.standard_normal((B, w, c_out))
    results.append(("conv1d_same (64x30x16)",
                    _bench(kernels.conv1d_same, x, k, bias)))
    results.append(("conv1d_same_grad (64x30x16)",
                    _bench(kernels.conv1d_same_grad, x, k, gout)))

    y = rng.standard_normal(1460).cumsum() + 100.0
    results.append(("ses_fit (T=1460, 10 combos)",
                    _bench(kernels.ses_fit, y, _ETS_GRID)))
    results.append(("holt_fit (T=1460, 100 combos)",
                    _bench(kernels.holt_fit, y, *_HOLT_GRID)))
    results.append(("hw_add_fit (T=1460, m=7, 1000 combos)",
                    _bench(kernels.hw_add_fit, y, 7, *_HW_GRID)))

    try:
        import numba  # noqa: F401
        numba_imports = "yes"
    except ImportError:
        numba_imports = "no"
    print(f"numba imports: {numba_imports}; conv backend: {kernels.BACKEND}")
    for name, secs in results:
        print(f"  {name:38s} {secs * 1e6:10.1f} us")


if __name__ == "__main__":
    main()
