"""Shared helpers: clocks, order statistics, memory, the environment record."""

from __future__ import annotations

import ctypes
import dataclasses
import gc
import os
import platform
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field

import numpy as np

now = time.perf_counter


@dataclass
class Outcome:
    """What one workload run hands back to ``run.py``."""

    attempted: int = 0
    failed: int = 0
    wrong: int = 0
    errors: list[str] = field(default_factory=list)
    end_to_end: dict = field(default_factory=dict)
    per_layer: dict = field(default_factory=dict)
    record: dict = field(default_factory=dict)
    # Keyword arguments for LayerTrace.layer_metrics (traced runs only).
    layer_inputs: dict | None = None

    def fail(self, message: str, count: int = 1, *, wrong: bool = True) -> None:
        """Count ``count`` failed operations and keep the first messages.

        ``wrong=False`` is a failure that is not a correctness-gate failure
        (a shed or unfinished request): it counts in ``failed`` only.
        """
        self.failed += count
        if wrong:
            self.wrong += count
        if len(self.errors) < 20:
            self.errors.append(message)

    def metric(self, name: str, value: float, unit: str) -> None:
        self.end_to_end[name] = {"value": float(value), "unit": unit}


def cold_reopens(rec, out, reopen, verify, *, warmup: int, timed: int) -> list[float]:
    """Milliseconds of ``timed`` cold reopens, after ``warmup`` untimed ones.

    Each reopen clears the engine's plan cache, then ``reopen(k)`` loads the
    artefact and plan sidecar from the warm cache, opens a session and
    serves its first result, returning ``(result, output)``;
    ``verify(k, result, output)`` checks it outside the timed region.  The
    first reopens in a process run up to twice as slow while the allocator
    grows to the operand's size, and how many do varies from run to run, so
    they are run untimed and untraced.
    """
    from repro.perf import engine

    samples = []
    for k in range(warmup + timed):
        engine.clear_plan_cache()
        gc.collect()  # the benchmark's own garbage is not the program's cold start
        out.attempted += 1
        with rec.phase("reopen", traced=k >= warmup):
            t0 = now()
            res, y = reopen(k)
            dt = now() - t0
        if k >= warmup:
            samples.append(dt * 1e3)
        verify(k, res, y)
    return samples


def median(values) -> float:
    return float(statistics.median(values))


def tail(values, cap: float = 95.0) -> tuple[float, float, int]:
    """``(value, percentile, n)``: the highest percentile with at least ten
    samples beyond it, capped at ``cap``.

    On a shared 2-CPU host the percentiles above p95 of a few thousand
    request latencies are set by a handful of scheduler stalls and swing by
    a fifth between runs, so they are capped.  With fewer than 11 samples
    no such percentile exists and the maximum is returned.
    """
    xs = np.sort(np.asarray(values, dtype=np.float64))
    n = len(xs)
    if n < 11:
        return float(xs[-1]), 100.0, n
    q = min(cap, 100.0 * (n - 11) / (n - 1))
    return float(np.percentile(xs, q)), q, n


def geomean(values) -> float:
    return float(np.exp(np.mean(np.log(np.asarray(values, dtype=np.float64)))))


def peak_rss_mb() -> float:
    """Peak resident set size of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def operand_bytes(obj, _depth: int = 0) -> int:
    """Bytes of every array an operand holds (computed, not measured)."""
    if isinstance(obj, np.ndarray):
        return int(obj.nbytes)
    if _depth > 3:
        return 0
    if dataclasses.is_dataclass(obj):
        parts = [getattr(obj, f.name) for f in dataclasses.fields(obj)]
    elif hasattr(obj, "__dict__"):
        parts = list(vars(obj).values())
    else:
        return 0
    return sum(operand_bytes(p, _depth + 1) for p in parts)


def modelled_speedup(cost_model, csr, operand, h: int = 128) -> float:
    """Cost-model CSR SpMM time ÷ the chosen operand's time at width ``h``."""
    from repro.pipeline import registry

    return (registry.model_spmm_time(cost_model, csr, h)
            / registry.model_spmm_time(cost_model, operand, h))


def _openblas_call(names, *args) -> int | None:
    """Call the first of ``names`` exported by the OpenBLAS numpy loaded."""
    try:
        with open("/proc/self/maps") as maps:
            libs = {line.split()[-1] for line in maps if "openblas" in line}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for name in names:
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = [ctypes.c_int] * len(args)
                return int(fn(*args))
    return None


def blas_threads() -> int | None:
    """Thread count of the OpenBLAS numpy loaded, or ``None`` if unknown."""
    return _openblas_call(("scipy_openblas_get_num_threads64_",
                           "openblas_get_num_threads64_", "openblas_get_num_threads"))


def set_blas_threads(n: int) -> None:
    """Cap OpenBLAS at ``n`` threads (a no-op when numpy uses another BLAS)."""
    _openblas_call(("scipy_openblas_set_num_threads64_",
                    "openblas_set_num_threads64_", "openblas_set_num_threads"), n)


def environment() -> dict:
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "argv": sys.argv[1:],
    }
