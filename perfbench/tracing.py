"""Benchmark-owned tracing: spans around the public functions of each layer.

The traced run wraps functions at the sites the program calls them through
(module attributes and class methods), so every span is recorded from
outside the layer.  Spans go to a private :class:`repro.obs.trace.Tracer`
that is never installed as the process-wide tracer: the program's own
in-code spans stay off.  Each span is attributed to the benchmark phase
(``setup``, ``op``, ``reopen``) during which it started, and per-layer
metrics are reported per unit of that phase (one set-up, one workload
operation, one cold reopen).
"""

from __future__ import annotations

import functools
import importlib
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

from common import median, now


class AttemptLog:
    """Every auto-search attempt: pattern, elapsed seconds, conformance.

    Always installed on the ``reorder`` workload (traced or not), because the
    budget gate needs each attempt's elapsed time.
    """

    def __init__(self):
        self.attempts: list[dict] = []

    def install(self) -> None:
        autoselect = importlib.import_module("repro.core.autoselect")
        inner = autoselect.reorder

        @functools.wraps(inner)
        def reorder(*args, **kwargs):
            res = inner(*args, **kwargs)
            self.attempts.append({
                "pattern": str(res.pattern),
                "elapsed_s": res.elapsed_seconds,
                "iterations": res.iterations,
                "conforms": bool(res.conforms),
                "budget_s": kwargs.get("time_budget"),
            })
            return res

        autoselect.reorder = reorder


class LayerTrace:
    """Span recorder plus the per-layer metric arithmetic over its spans."""

    def __init__(self, enabled: bool):
        from repro.obs.trace import NullTracer, Tracer

        self.enabled = enabled
        self.on = False
        self.tracer = Tracer()
        self._null = NullTracer()
        self.phases: list[tuple[str, float, float]] = []
        self.units: dict[str, int] = defaultdict(int)
        # (operand id, h) -> first input seen, for the scipy floor.
        self.stash: dict[tuple[int, int], np.ndarray] = {}
        if enabled:
            self._install()

    # -- phases --------------------------------------------------------------
    @contextmanager
    def phase(self, name: str, *, traced: bool = True, units: int = 1):
        t0 = now()
        self.on = self.enabled and traced
        try:
            yield
        finally:
            self.on = False
            if self.enabled and traced:
                self.phases.append((name, t0, now()))
                self.units[name] += units

    def span(self, name: str, **attrs):
        return (self.tracer if self.on else self._null).span(name, **attrs)

    # -- wrapping --------------------------------------------------------------
    def _wrap(self, owner, attr: str, name: str, *, describe=None, skip=None) -> None:
        inner = getattr(owner, attr)
        rec = self

        @functools.wraps(inner)
        def wrapper(*args, **kwargs):
            if not rec.on or (skip is not None and skip(args)):
                return inner(*args, **kwargs)
            with rec.tracer.span(name) as sp:
                out = inner(*args, **kwargs)
                if describe is not None:
                    sp.set(**describe(args, out))
                return out

        setattr(owner, attr, wrapper)

    def _install(self) -> None:
        from repro.gnn.layers import Aggregator
        from repro.gnn.linear import Linear

        # By module path: several packages re-export a function under the
        # name of the module that defines it (repro.core.reorder, ...).
        mod = importlib.import_module
        autoselect, reorder = mod("repro.core.autoselect"), mod("repro.core.reorder")
        engine, cache = mod("repro.perf.engine"), mod("repro.pipeline.cache")
        preprocess, registry = mod("repro.pipeline.preprocess"), mod("repro.pipeline.registry")
        serving = mod("repro.pipeline.serving")

        def reorder_attrs(attempt):
            return lambda args, res: {
                "iterations": res.iterations, "conforms": bool(res.conforms),
                "pattern": str(res.pattern), "attempt": attempt,
            }

        self._wrap(reorder, "stage1_reorder", "core.stage1")
        self._wrap(reorder, "stage2_reorder", "core.stage2")
        self._wrap(reorder, "total_pscore", "core.scores")
        self._wrap(reorder, "mbscore", "core.scores")
        self._wrap(autoselect, "reorder", "core.reorder", describe=reorder_attrs(True))
        self._wrap(preprocess, "reorder", "core.reorder", describe=reorder_attrs(False))
        self._wrap(registry, "compress", "sptc.compress")
        hit = lambda args, out: {"hit": out is not None}  # noqa: E731
        self._wrap(cache.ArtifactCache, "store", "pipeline.cache.store")
        self._wrap(cache.ArtifactCache, "store_plan", "pipeline.cache.store")
        self._wrap(cache.ArtifactCache, "load", "pipeline.cache.load", describe=hit)
        self._wrap(cache.ArtifactCache, "load_plan", "pipeline.cache.plan_load",
                   describe=hit)

        session_type = serving.ServingSession

        def execute_attrs(args, out):
            operand, b = args[0], args[1]
            key = (id(operand), int(b.shape[1]))
            if key not in self.stash:
                self.stash[key] = np.array(b, copy=True)
            plan = engine.cached_plan(operand)
            return {"oid": key[0], "h": key[1],
                    "variant": getattr(plan, "variant", None)}

        # The outer Aggregator call on a session is not a kernel call: the
        # session's own execute on its operand is.
        self._wrap(engine, "execute", "perf.engine.execute", describe=execute_attrs,
                   skip=lambda args: isinstance(args[0], session_type))
        self._wrap(engine, "plan_for", "perf.engine.plan_for",
                   skip=lambda args: isinstance(args[0], session_type))
        self._wrap(engine, "build_plan", "perf.engine.plan_build",
                   skip=lambda args: isinstance(args[0], session_type))
        self._wrap(session_type, "spmm", "pipeline.serving.spmm")
        self._wrap(session_type, "submit", "pipeline.serving.submit")
        self._wrap(session_type, "_serve_cycle", "pipeline.serving.cycle",
                   describe=lambda args, out: {"h": int(args[1].shape[1])})
        self._wrap(Aggregator, "mm", "gnn.aggregate",
                   describe=lambda args, out: {"h": int(np.shape(args[1])[-1])})
        self._wrap(Linear, "forward", "gnn.update")

    # -- export ------------------------------------------------------------------
    def records(self) -> list[dict]:
        """Every span, flattened: id, parent, name, start, end, self time,
        request id (inherited from the nearest ancestor that has one), phase."""
        out: list[dict] = []

        def visit(rec, parent, req):
            req = rec.attrs.get("req", req)
            rid = len(out)
            out.append({
                "id": rid, "parent": parent, "name": rec.name,
                "start": rec.start, "end": rec.start + rec.duration,
                "self": rec.self_seconds, "req": req, "phase": self._phase_of(rec.start),
                "attrs": {k: v for k, v in rec.attrs.items() if k != "req"},
            })
            for child in rec.children:
                visit(child, rid, req)

        for root in list(self.tracer.roots):
            visit(root, None, None)
        return out

    def _phase_of(self, t: float) -> str | None:
        for name, t0, t1 in self.phases:
            if t0 <= t <= t1:
                return name
        return None

    # -- per-layer metrics ---------------------------------------------------------
    def layer_metrics(self, records: list[dict], *, pre_phase: str, operands: dict,
                      cost_model_h: dict, extra: dict) -> dict:
        """The per-layer metrics (see README.md for each definition).

        ``operands`` maps operand id to ``{"nnz", "bytes", "rows", "cols",
        "floor"}`` (floor: the scipy CSR of the same operator in the
        operand's basis);
        ``cost_model_h`` maps h to the modelled seconds of one aggregation
        at that width.
        """
        def per(phase):
            return max(1, self.units.get(phase, 0))

        def select(phase, *names):
            return [r for r in records if r["phase"] == phase and r["name"] in names]

        def dur(rs):
            return sum(r["end"] - r["start"] for r in rs)

        m: dict[str, tuple[float, str]] = {}
        pre, n_pre = pre_phase, per(pre_phase)
        n_op, n_re = per("op"), per("reopen")

        for stage in ("stage1", "stage2"):
            rs = select(pre, f"core.{stage}")
            m[f"core.{stage}.s"] = (dur(rs) / n_pre, "s")
            m[f"core.{stage}.calls"] = (len(rs) / n_pre, "count")
        m["core.scores.s"] = (dur(select(pre, "core.scores")) / n_pre, "s")
        reorders = select(pre, "core.reorder")
        m["core.reorder.iterations"] = (
            sum(r["attrs"]["iterations"] for r in reorders) / n_pre, "count")
        attempts = [r for r in reorders if r["attrs"]["attempt"]]
        m["core.autoselect.attempts"] = (len(attempts) / n_pre, "count")
        m["core.autoselect.conforming_ratio"] = (
            sum(r["attrs"]["conforms"] for r in attempts) / len(attempts)
            if attempts else 0.0, "ratio")
        m["sptc.compress.s"] = (dur(select(pre, "sptc.compress")) / n_pre, "s")
        m["sptc.operand_bytes"] = (float(extra["operand_bytes"]), "B")
        m["pipeline.cache.store.s"] = (dur(select(pre, "pipeline.cache.store")) / n_pre, "s")

        loads = select("reopen", "pipeline.cache.load", "pipeline.cache.plan_load")
        m["pipeline.cache.load.s"] = (dur(select("reopen", "pipeline.cache.load")) / n_re, "s")
        m["pipeline.cache.plan_load.s"] = (
            dur(select("reopen", "pipeline.cache.plan_load")) / n_re, "s")
        m["pipeline.cache.hit_ratio"] = (
            sum(r["attrs"]["hit"] for r in loads) / len(loads) if loads else 0.0, "ratio")
        builds = select("reopen", "perf.engine.plan_build")
        m["perf.engine.plan_build.s"] = (dur(builds) / n_re, "s")
        m["perf.engine.plan_builds"] = (len(builds) / n_re, "count")

        serving = [r for r in records if r["phase"] == "op"
                   and r["name"].startswith("pipeline.serving.")]
        m["pipeline.serving.self.s"] = (sum(r["self"] for r in serving) / n_op, "s")
        m["pipeline.serving.retries"] = (float(extra["retries"]), "count")
        m["pipeline.serving.downgrades"] = (float(extra["downgrades"]), "count")
        m["pipeline.guard.shed"] = (float(extra["shed"]), "count")

        execs = select("op", "perf.engine.execute")
        m["perf.engine.execute.s"] = (dur(execs) / n_op, "s")
        m["perf.engine.execute.calls"] = (len(execs) / n_op, "count")
        flops, moved = [], []
        for r in execs:
            info = operands[r["attrs"]["oid"]]
            h = r["attrs"]["h"]
            flops.append(2.0 * info["nnz"] * h)
            moved.append(info["bytes"] + 8.0 * h * (info["rows"] + info["cols"]))
        m["perf.engine.flops_per_call"] = (float(np.mean(flops)) if flops else 0.0, "flop")
        m["perf.engine.bytes_per_call"] = (float(np.mean(moved)) if moved else 0.0, "B")
        m["perf.engine.floor_ratio"] = (self._floor_ratio(execs, operands), "ratio")
        m["perf.engine.panel_calls"] = (
            sum(r["attrs"]["variant"] == "panel" for r in execs) / n_op, "count")
        m["perf.engine.gathered_calls"] = (
            sum(r["attrs"]["variant"] == "gathered" for r in execs) / n_op, "count")
        m["perf.batching.requests_per_kernel"] = (float(extra["requests_per_kernel"]), "count")

        aggs = select("op", "gnn.aggregate")
        agg_s = dur(aggs) / n_op
        ops = select("op", "bench.op")
        op_s = dur(ops) / max(1, len(ops))
        m["gnn.aggregate.s"] = (agg_s, "s")
        m["gnn.update.s"] = (dur(select("op", "gnn.update")) / n_op, "s")
        m["gnn.aggregate_share"] = (agg_s / op_s if aggs and op_s > 0 else 0.0, "ratio")
        m["gnn.aggregate.modelled_s"] = (
            sum(cost_model_h.get(r["attrs"]["h"], 0.0) for r in aggs) / n_op, "s")
        m["loadgen.lag_p99_ms"] = (float(extra["lag_p99_ms"]), "ms")
        m["trace.overhead_frac"] = (float(extra["overhead_frac"]), "ratio")
        return {k: {"value": float(v), "unit": u} for k, (v, u) in m.items()}

    def _floor_ratio(self, execs: list[dict], operands: dict) -> float:
        """Call-weighted execute median ÷ scipy ``A @ X`` median, per
        (operand, h) class, on the first input each class saw."""
        by_key: dict[tuple[int, int], list[float]] = defaultdict(list)
        for r in execs:
            by_key[(r["attrs"]["oid"], r["attrs"]["h"])].append(r["end"] - r["start"])
        num = den = 0.0
        for key, samples in by_key.items():
            floor = operands[key[0]]["floor"]
            x = self.stash[key]
            scipy_s = []
            for _ in range(7):
                t0 = now()
                floor @ x
                scipy_s.append(now() - t0)
            num += len(samples) * median(samples)
            den += len(samples) * median(scipy_s)
        return num / den if den > 0 else 0.0
