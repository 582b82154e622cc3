"""Wall-time and peak-memory comparison of the two attention kernels.

The quadratic kernel materializes an M x M score matrix; the linear one
accumulates a d x d summary. Timing over a geometric range of token
counts exposes the O(M^2) vs O(M) separation directly.
"""

from __future__ import annotations

import time
import tracemalloc
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .attention import linear_attention, softmax_attention
from .tensor import Tensor

__all__ = ["BenchRow", "run_benchmark", "crosscheck_kernels", "DEFAULT_BUDGET"]

# Largest M*M score-matrix entry count the quadratic kernel may allocate
# (64M entries = 512 MB of f64).
DEFAULT_BUDGET = 64 * 1024 * 1024


@dataclass
class BenchRow:
    m: int
    variant: str
    seconds: float
    bytes: int

    def csv_row(self) -> str:
        return f"{self.m},{self.variant},{self.seconds:.9f},{self.bytes}"


CSV_HEADER = "m,variant,seconds,bytes"

_VARIANTS = {
    "quadratic": softmax_attention,
    "linear": linear_attention,
}


def crosscheck_kernels(dim: int, seed: int = 0) -> None:
    """Refuse to benchmark divergent implementations.

    Checks the single-token identity (both kernels must return v) and the
    convex-hull property of the linear kernel on a random instance.
    """
    rng = np.random.default_rng(seed)
    v1 = rng.normal(size=(1, dim))
    one = [Tensor(rng.normal(size=(1, dim))), Tensor(rng.normal(size=(1, dim)))]
    for name, fn in _VARIANTS.items():
        out = fn(one[0], one[1], Tensor(v1)).data
        if np.max(np.abs(out - v1)) > 1e-9:
            raise AssertionError(f"{name} kernel fails the single-token identity")

    q = Tensor(rng.uniform(-2, 2, (64, dim)))
    k = Tensor(rng.uniform(-2, 2, (64, dim)))
    v = rng.normal(size=(64, dim))
    out = linear_attention(q, k, Tensor(v)).data
    if np.any(out < v.min(axis=0) - 1e-10) or np.any(out > v.max(axis=0) + 1e-10):
        raise AssertionError("linear kernel output left the value convex hull")


# Each timing sample is the mean of enough back-to-back calls to last at
# least this long, so sub-millisecond kernels are not timed from one call.
MIN_SAMPLE_S = 0.02

# Every case runs round-robin this long before any is calibrated or timed.
# A multi-threaded BLAS whose second core sat idle for ~10 s runs each
# product about 16 ms slow for the first second (2-core VM, OpenBLAS
# 0.3.31): 1024 x 16 x 1024 took 16.0 ms, then 0.9 ms. Timed cold, the
# quadratic kernel's small-M samples carry that constant and its scaling
# reads ~5x instead of ~23x for 4x the tokens.
WARMUP_S = 1.5


def _time_calls(fn, q, k, v, number: int) -> float:
    """Seconds per call, averaged over ``number`` back-to-back calls."""
    with T.no_grad():
        start = time.perf_counter()
        for _ in range(number):
            fn(q, k, v)
        return (time.perf_counter() - start) / number


def _calls_per_sample(fn, q, k, v) -> int:
    """Smallest of 1, 2, 5, 10, 20, 50, ... calls lasting ``MIN_SAMPLE_S``,
    found as ``timeit.Timer.autorange`` does; also warms the kernel up."""
    scale = 1
    while True:
        for number in (scale, 2 * scale, 5 * scale):
            if _time_calls(fn, q, k, v, number) * number >= MIN_SAMPLE_S:
                return number
        scale *= 10


def _peak_bytes(fn, q, k, v) -> int:
    tracemalloc.start()
    try:
        with T.no_grad():
            fn(q, k, v)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return int(peak)


def run_benchmark(
    sizes: list[int],
    dim: int = 16,
    repeats: int = 5,
    budget: int = DEFAULT_BUDGET,
    seed: int = 0,
    log=None,
) -> list[BenchRow]:
    """Median-of-repeats timings plus a separate traced-memory pass.

    Each of the ``repeats`` samples is the per-call mean of back-to-back
    calls lasting at least ``MIN_SAMPLE_S`` in all. The cases run for
    ``WARMUP_S`` before calibration, and the samples are taken in rounds,
    one per (size, kernel) case each, so a slow spell of the host lands on
    every case alike instead of on whichever case was being timed.

    Quadratic runs whose M^2 exceeds ``budget`` are skipped (with a log
    line), never failed: the point of the budget is to keep the quadratic
    kernel from taking the host down.
    """
    crosscheck_kernels(dim, seed)
    rng = np.random.default_rng(seed)
    cases = []
    for m in sizes:
        qkv = tuple(
            Tensor(x) for x in (rng.uniform(-1, 1, (m, dim)),
                                rng.uniform(-1, 1, (m, dim)),
                                rng.normal(size=(m, dim)))
        )
        for variant, fn in _VARIANTS.items():
            if variant == "quadratic" and m * m > budget:
                if log:
                    log(
                        f"skip quadratic at m={m}: score matrix "
                        f"({m * m} entries) exceeds budget {budget}"
                    )
                continue
            cases.append((m, variant, fn, qkv))
    deadline = time.perf_counter() + WARMUP_S
    while cases and time.perf_counter() < deadline:
        for _, _, fn, qkv in cases:
            _time_calls(fn, *qkv, 1)
    numbers = [_calls_per_sample(fn, *qkv) for _, _, fn, qkv in cases]
    times = [[] for _ in cases]
    for _ in range(repeats):
        for samples, (_, _, fn, qkv), number in zip(times, cases, numbers):
            samples.append(_time_calls(fn, *qkv, number))
    rows: list[BenchRow] = []
    for samples, (m, variant, fn, qkv) in zip(times, cases):
        median = sorted(samples)[len(samples) // 2]
        rows.append(BenchRow(m, variant, median, _peak_bytes(fn, *qkv)))
        if log:
            log(f"m={m} {variant}: {median * 1e3:.3f} ms, "
                f"{rows[-1].bytes / 1e6:.1f} MB peak")
    return rows
