"""``serve-open``: open-loop micro-batched serving of narrow requests.

Independent clients send requests through ``ServingSession.submit`` on a
seeded Poisson schedule at a fixed rate.  The operand is the facebook
stand-in at half scale (n ≈ 2k, under the dense-panel budget, so the
``panel`` kernel).  Metrics, the flight recorder and a deadline
``AdmissionPolicy`` are on, as ``repro serve --telemetry-port`` runs them
(the HTTP plane itself is not started).  One generator thread submits each
request at its due time; latency is measured from the due time.
"""

from __future__ import annotations

import gc
import time
from collections import deque

import numpy as np

from common import (
    cold_reopens,
    median,
    modelled_speedup,
    now,
    operand_bytes,
    peak_rss_mb,
    set_blas_threads,
    tail,
)
from repro.core.patterns import VNMPattern
from repro.graphs.datasets import load_dataset
from repro.obs import FlightRecorder, MetricsRegistry, MetricWindows
from repro.pipeline import (
    ArtifactCache,
    OverloadError,
    PipelineError,
    PreprocessPlan,
    ServingSession,
    preprocess,
)
from repro.pipeline.guard import AdmissionPolicy
from repro.sptc.costmodel import CostModel
from repro.sptc.csr import CSRMatrix

DATASET = "facebook"
SCALE = 0.5
PATTERN = VNMPattern(1, 2, 8)
PLAN = PreprocessPlan(pattern=PATTERN, backend="hybrid")
# Requests per second: above what one-at-a-time serving sustains on this
# mix, inside what micro-batching sustains.
RATE = 400.0
WIDE_FRACTION = 0.1      # share of requests with h in [8, 16]; the rest h = 1
LIMIT_S = 0.1            # latency limit for goodput
# Admission sheds a request whose estimated completion exceeds this; above
# the goodput limit so that only a growing backlog sheds, not a burst.
SHED_DEADLINE_S = 0.25
WINDOW_S = 2.0           # statistics per window of due times, median over windows
SPIN_S = 0.001           # the generator yields instead of sleeping this close to a due time
GRACE_S = 1.0            # how long requests still pending may finish
POOL = 128               # distinct request inputs, references precomputed
SETUPS = 5
REOPEN_WARMUP = 5
REOPENS = 15
WARMUP = 64


def _wait_until(t: float) -> None:
    """Sleep until ``t``, yielding in a loop over the last millisecond: on a
    loaded VM a thread woken from a longer sleep can start milliseconds late,
    which would count against every request due meanwhile."""
    while (left := t - now()) > 0:
        time.sleep(left - SPIN_S if left > SPIN_S else 0)


def _open_session(result) -> ServingSession:
    metrics = MetricsRegistry()
    windows = MetricWindows(metrics)
    return ServingSession.from_result(
        result, metrics=metrics, recorder=FlightRecorder(),
        admission=AdmissionPolicy(deadline=SHED_DEADLINE_S),
        latency_window=windows.histogram_view("spmm_latency_seconds", 60.0),
    )


def _pool(g, rng):
    a = g.csr().to_scipy()
    xs, refs, floor_s = [], [], []
    n_wide = round(POOL * WIDE_FRACTION)
    widths = [8 + k % 9 for k in range(n_wide)] + [1] * (POOL - n_wide)
    for h in widths:
        x = rng.integers(0, 16, size=(g.n, h)).astype(np.float64)
        t0 = now()
        refs.append(a @ x)
        floor_s.append(now() - t0)
        xs.append(x[:, 0] if h == 1 else x)
    refs = [r[:, 0] if x.ndim == 1 else r for x, r in zip(xs, refs)]
    return a, xs, refs, floor_s


def _setup(seed, cache_dir, xs):
    t0 = now()
    g = load_dataset(DATASET, seed=seed, scale=SCALE)
    cache = ArtifactCache(cache_dir)
    t1 = now()
    result = preprocess(g, PLAN, cache=cache)
    pre_s = now() - t1
    # Warm the operand's plan and dense panel on a plain session, then open
    # the served one: the one-off panel build would otherwise sit in the
    # admission policy's p95 window for a minute and shed the first requests.
    warm = ServingSession.from_result(result)
    for k in range(WARMUP):
        warm.spmm(xs[k % len(xs)])
    return g, cache, result, _open_session(result), pre_s, now() - t0


def run(args, rec, workdir, out) -> None:
    # The generator and the micro-batch flusher are the two threads this
    # workload may run on two CPUs.  With an OpenBLAS helper thread beside
    # them, about one run in five had twice the tail latency throughout.
    set_blas_threads(1)
    rng = np.random.default_rng(args.seed)
    # Request inputs and their scipy references, outside the timed set-up
    # (each set-up regenerates the same graph from the same seed).
    a, xs, refs, floor_s = _pool(load_dataset(DATASET, seed=args.seed, scale=SCALE), rng)

    setup_s, preprocess_s = [], []
    session = None
    for k in range(SETUPS):
        if session is not None:
            session.close()
            session = result = None
            gc.collect()  # free the previous set-up first, so peak RSS repeats
        with rec.phase("setup"):
            g, cache, result, session, pre_s, dt = _setup(args.seed, workdir / f"setup-{k}", xs)
        setup_s.append(dt)
        preprocess_s.append(pre_s)

    gaps = rng.exponential(1.0 / RATE, size=int(RATE * args.seconds * 1.5) + 100)
    due = np.cumsum(gaps)
    due = due[due < args.seconds]
    n = len(due)
    picks = rng.integers(0, POOL, size=n)
    lat = np.full(n, np.nan)
    lag = np.zeros(n)
    futures: list = [None] * n
    done: deque = deque()
    shed = 0
    open_requests = 0

    def check_done() -> None:
        nonlocal open_requests
        while done:
            j, t = done.popleft()
            fut, futures[j] = futures[j], None
            open_requests -= 1
            try:
                y = fut.result()
            except PipelineError as exc:
                out.fail(f"request {j} failed: {exc}", wrong=False)
                continue
            if not np.array_equal(y, refs[picks[j]]):
                out.fail(f"request {j}: response differs from scipy A @ x")
                continue
            lat[j] = t - (start + due[j])

    segments = [(0, n, False)]
    if args.trace:
        segments = [(0, n // 2, False), (n // 2, n, True)]
    start = now() + 0.005
    for lo, hi, traced in segments:
        with rec.phase("op", traced=traced, units=hi - lo):
            for j in range(lo, hi):
                out.attempted += 1
                check_done()
                _wait_until(start + due[j])
                lag[j] = now() - (start + due[j])
                try:
                    with rec.span("bench.op", req=j):
                        fut = session.submit(xs[picks[j]])
                except OverloadError as exc:
                    shed += 1
                    out.fail(f"request {j} shed: {exc}", wrong=False)
                    continue
                futures[j] = fut
                open_requests += 1
                fut.add_done_callback(lambda _f, j=j: done.append((j, now())))
            if hi == n:  # the last requests finish inside the phase
                t_end = start + args.seconds + GRACE_S
                while open_requests and now() < t_end:
                    time.sleep(0.001)
                    check_done()
    batcher = session.batcher
    per_kernel = batcher.n_coalesced / max(1, batcher.n_batches)
    if open_requests:
        out.fail(f"{open_requests} request(s) still pending at the end",
                 count=open_requests, wrong=False)
    session.close(drain=False)
    rss = peak_rss_mb()

    h1 = next(k for k, x in enumerate(xs) if x.ndim == 1)

    def reopen(k):
        res = preprocess(g, PLAN, cache=cache)
        return res, _open_session(res).spmm(xs[h1])

    def verify(k, res, y):
        if not (res.cached and np.array_equal(y, refs[h1])):
            out.fail("cold reopen did not serve the same bits from the cache")

    first_ms = cold_reopens(rec, out, reopen, verify, warmup=REOPEN_WARMUP, timed=REOPENS)

    # Per-window statistics, then the median over windows: a few seconds of
    # host contention move one or two windows, not the reported figure.
    windows = []
    for w0 in np.arange(0.0, args.seconds - WINDOW_S / 2, WINDOW_S):
        in_w = (due >= w0) & (due < w0 + WINDOW_S)
        ms = lat[in_w & ~np.isnan(lat)] * 1e3
        if ms.size == 0:
            raise RuntimeError(f"no request due in [{w0:g}, {w0 + WINDOW_S:g}) s "
                               "was answered correctly")
        windows.append((median(ms), tail(ms), float((ms <= LIMIT_S * 1e3).sum()) / WINDOW_S))
    tails = [t for _, t, _ in windows]
    cm = CostModel()
    operand = session.operand
    out.metric("setup_s", median(setup_s), "s")
    out.metric("peak_rss_mb", rss, "MB")
    out.metric("preprocess_s", median(preprocess_s), "s")
    out.metric("p50_ms", median([p for p, _, _ in windows]), "ms")
    out.metric("tail_ms", median([t[0] for t in tails]), "ms")
    out.metric("first_result_ms", median(first_ms), "ms")
    out.metric("goodput_per_s", median([g for _, _, g in windows]), "1/s")
    out.metric("modelled_speedup",
               modelled_speedup(cm, CSRMatrix.from_scipy(a), operand), "x")
    widths = np.array([1 if x.ndim == 1 else x.shape[1] for x in xs])[picks]
    out.record.update({
        "dataset": DATASET, "scale": SCALE, "n": g.n, "nnz": int(a.nnz),
        "pattern": str(PATTERN), "rate_per_s": RATE, "requests": n,
        "setup_samples_s": setup_s,
        "preprocess_samples_s": preprocess_s,
        "first_result_samples_ms": first_ms,
        "mean_h": float(widths.mean()), "latency_limit_ms": LIMIT_S * 1e3,
        "shed": shed, "requests_per_kernel": per_kernel,
        "windows": {"seconds": WINDOW_S,
                    "p50_ms": [p for p, _, _ in windows],
                    "tail_ms": [t[0] for t in tails],
                    "tail_percentile": [t[1] for t in tails],
                    "samples": [t[2] for t in tails],
                    "goodput_per_s": [g for _, _, g in windows]},
        "loadgen_lag_p99_ms": float(np.percentile(lag, 99) * 1e3),
        "floor": {"scipy_request_ms": median(floor_s) * 1e3},
        "modelled": {"modelled_speedup": True, "h": 128},
    })
    if args.trace:
        order = result.permutation.order
        mid = n // 2
        traced_lat, plain_lat = lat[mid:], lat[:mid]
        out.layer_inputs = {
            "pre_phase": "setup",
            "operands": {id(operand): {
                "nnz": int(a.nnz), "bytes": operand_bytes(operand),
                "rows": g.n, "cols": g.n, "floor": a[order][:, order].tocsr(),
            }},
            "cost_model_h": {},
            "extra": {
                "operand_bytes": operand_bytes(operand),
                "retries": session.resilience.retries,
                "downgrades": len(session.resilience.downgrades),
                "shed": shed, "requests_per_kernel": per_kernel,
                "lag_p99_ms": float(np.percentile(lag, 99) * 1e3),
                "overhead_frac": (float(np.nanmedian(traced_lat))
                                  / float(np.nanmedian(plain_lat)) - 1.0),
            },
        }
