"""Time the hot kernels.

    python3 benchmarks/bench_kernels.py

The convolution rows use the shapes an NND2 network trains on (window 30,
kernel 4, 16 filters): the first layer has one input channel, the later
ones 16.  A batch of 32 is a training minibatch; 190 is the size of a
loss pass over a whole training split (nnd-train has 193 windows per
network).  The smoothing rows time one full parameter grid,
the work of one ``Ets.fit``.
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

    w, ks, c_out = 30, 4, 16
    for B in (32, 190):
        for c_in in (1, 16):
            x = rng.standard_normal((B, w, c_in))
            k = rng.standard_normal((ks, c_in, c_out))
            bias = rng.standard_normal(c_out)
            gout = rng.standard_normal((B, w, c_out))
            shape = f"B={B} w={w} c_in={c_in} ks={ks}"
            results.append((f"conv1d_same ({shape})",
                            _bench(kernels.conv1d_same, x, k, bias)))
            results.append((f"conv1d_same_grad ({shape})",
                            _bench(kernels.conv1d_same_grad, x, k, gout)))

    y = rng.standard_normal(1460).cumsum() + 100.0
    results.append(("ses_fit (T=1460, 10 combos)",
                    _bench(kernels.ses_fit, y, _ETS_GRID)))
    results.append(("holt_fit (T=1460, 100 combos)",
                    _bench(kernels.holt_fit, y, *_HOLT_GRID)))
    results.append(("hw_add_fit (T=1460, m=7, 1000 combos)",
                    _bench(kernels.hw_add_fit, y, 7, *_HW_GRID)))

    for name, secs in results:
        print(f"  {name:50s} {secs * 1e6:10.1f} us")


if __name__ == "__main__":
    main()
