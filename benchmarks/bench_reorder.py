"""Reorder benchmark: per-stage wall clock of the auto pattern search.

Runs ``find_best_pattern`` (progressive-doubling search, default
candidates) over a fixed corpus per size class and splits its wall clock
into stages by wrapping the library's functions for the duration of the run:

* ``stage1``            — ``stage1_reorder`` (encode, sort, permute);
* ``stage2``            — ``stage2_reorder``, of which
  ``stage2.gains`` (``_WorkingState.pair_gains``: the M×M gain matrices),
  ``stage2.freshtop`` (``_freshtop``: the best fresh pair) and
  ``stage2.apply`` (``_WorkingState.apply_swap``: virtual column swaps);
* ``scores``            — ``total_pscore`` and ``mbscore`` inside ``reorder``;
* ``attempts``          — one per pattern the search tries.

Reordering has no external floor (scipy has no N:M reorder), so the floor is
the previous commit's time: ``--floor`` names a ``BENCH_reorder.json``
written by this script at that commit (default: the tracked one at the
repository root).  Every graph's ``sha256(pattern|order)`` digest is
recorded; any digest that differs from the floor's fails the run, because a
speed-up of the reorder must leave every permutation bit-identical.  Full
mode also fails when a class's median time exceeds ``MAX_RATIO_TO_FLOOR`` ×
the floor's.  ``--quick`` runs the small class once and gates only on the
digests (shared runners are too noisy for a time gate).

Run standalone from the repository root::

    PYTHONPATH=src python benchmarks/bench_reorder.py --json-out .

To record the floor, run the same script with ``PYTHONPATH`` pointing at the
previous commit's ``src/`` and pass its output with ``--floor``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from repro.core import find_best_pattern
from repro.graphs.generators import suitesparse_like_collection

ROOT = Path(__file__).resolve().parent.parent
# Indices into suitesparse_like_collection(class, seed=0, max_vertices=4000).
# The medium slice is the perfbench ``reorder`` slice (sbm, banded, two
# power-law graphs whose last attempts fail, gnp); the small one mixes two
# Stage-2-heavy banded graphs with an sbm and a power-law graph.  The large
# class is left out: one search on it runs for many minutes.
CORPUS = {
    "small": (1, 2, 5, 9, 13),
    "medium": (3, 5, 6, 11, 16),
}
MAX_VERTICES = 4000
ATTEMPT_BUDGET_S = 60.0
MAX_RATIO_TO_FLOOR = 1.25
STAGES = ("stage1", "stage2", "stage2.gains", "stage2.freshtop", "stage2.apply", "scores")


class StageClock:
    """Accumulated wall clock and call count per stage, via function wrappers."""

    def __init__(self):
        self.seconds = dict.fromkeys(STAGES, 0.0)
        self.calls = dict.fromkeys(STAGES, 0)
        self.attempts: list[dict] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, owner, attr: str, stage: str) -> None:
        inner = getattr(owner, attr)

        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return inner(*args, **kwargs)
            finally:
                self.seconds[stage] += time.perf_counter() - t0
                self.calls[stage] += 1

        self._undo.append((owner, attr, inner))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        autoselect = importlib.import_module("repro.core.autoselect")
        reorder = importlib.import_module("repro.core.reorder")
        stage2 = importlib.import_module("repro.core.stage2")
        self._wrap(reorder, "stage1_reorder", "stage1")
        self._wrap(reorder, "stage2_reorder", "stage2")
        self._wrap(stage2._WorkingState, "pair_gains", "stage2.gains")
        self._wrap(stage2, "_freshtop", "stage2.freshtop")
        self._wrap(stage2._WorkingState, "apply_swap", "stage2.apply")
        self._wrap(reorder, "total_pscore", "scores")
        self._wrap(reorder, "mbscore", "scores")
        inner = autoselect.reorder

        def attempt(*args, **kwargs):
            res = inner(*args, **kwargs)
            self.attempts.append({"pattern": str(res.pattern), "elapsed_s": res.elapsed_seconds,
                                  "conforms": bool(res.conforms)})
            return res

        self._undo.append((autoselect, "reorder", inner))
        autoselect.reorder = attempt

    def uninstall(self) -> None:
        for owner, attr, inner in reversed(self._undo):
            setattr(owner, attr, inner)
        self._undo.clear()


def digest(pattern, order: np.ndarray) -> str:
    """The perfbench digest: sha256 of ``pattern|order`` bytes, 16 hex chars."""
    blob = str(pattern).encode() + b"|" + np.ascontiguousarray(order, dtype=np.int64).tobytes()
    return hashlib.sha256(blob).hexdigest()[:16]


def source_commit() -> str | None:
    """Short commit of the checkout the ``repro`` package was imported from."""
    import repro

    src = Path(repro.__file__).resolve().parent
    try:
        sha = subprocess.run(["git", "-C", str(src), "rev-parse", "--short", "HEAD"],
                             capture_output=True, text=True, check=True).stdout.strip()
        dirty = subprocess.run(["git", "-C", str(src), "status", "--porcelain", "--", "."],
                               capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None
    return sha + ("+dirty" if dirty else "")


def run_class(name: str, rounds: int, failures: list[str]) -> dict:
    graphs = suitesparse_like_collection(
        name, count=max(CORPUS[name]) + 1, seed=0, max_vertices=MAX_VERTICES)
    graphs = [graphs[i] for i in CORPUS[name]]
    for g in graphs:
        g.bitmatrix()
    totals, per_round, digests = [], [], {}
    for _ in range(rounds):
        clock = StageClock()
        clock.install()
        try:
            t0 = time.perf_counter()
            for g in graphs:
                found = find_best_pattern(g.bitmatrix(), attempt_time_budget=ATTEMPT_BUDGET_S)
                d = None
                if found.succeeded:
                    d = digest(found.pattern, found.result.permutation.order)
                if digests.setdefault(g.name, d) != d:
                    failures.append(f"{g.name}: permutation differs between rounds")
            totals.append(time.perf_counter() - t0)
        finally:
            clock.uninstall()
        for a in clock.attempts:
            if a["elapsed_s"] >= ATTEMPT_BUDGET_S:
                failures.append(f"{name}: attempt {a['pattern']} ended on its budget")
        per_round.append(clock)
    best = per_round[int(np.argsort(totals)[len(totals) // 2])]  # the median round
    return {
        "graphs": [{"name": g.name, "n": g.n, "nnz": int(g.csr().nnz), "digest": digests[g.name]}
                   for g in graphs],
        "seconds": totals,
        "median_s": statistics.median(totals),
        "stages_s": best.seconds,
        "stage_calls": best.calls,
        "attempts": len(best.attempts),
        "max_attempt_s": max(a["elapsed_s"] for a in best.attempts),
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--rounds", type=int, default=3, help="timed repetitions per class")
    ap.add_argument("--quick", action="store_true",
                    help="small class, one round; gate on digests only")
    ap.add_argument("--floor", type=Path, default=ROOT / "BENCH_reorder.json",
                    help="BENCH_reorder.json of the previous commit")
    ap.add_argument("--json-out", metavar="DIR", default=None,
                    help="write BENCH_reorder.json into DIR")
    args = ap.parse_args()
    classes = ("small",) if args.quick else tuple(CORPUS)
    rounds = 1 if args.quick else args.rounds

    floor = json.loads(args.floor.read_text()) if args.floor.is_file() else None
    failures: list[str] = []
    results = {}
    for name in classes:
        res = results[name] = run_class(name, rounds, failures)
        line = "  ".join(f"{s}={res['stages_s'][s]:.3f}s" for s in STAGES)
        print(f"{name:6s} median {res['median_s']:.3f}s  attempts={res['attempts']}  {line}")
        if floor is None or name not in floor["classes"]:
            continue
        base = floor["classes"][name]
        want = {g["name"]: g["digest"] for g in base["graphs"]}
        for g in res["graphs"]:
            if g["name"] in want and want[g["name"]] != g["digest"]:
                failures.append(f"{g['name']}: digest {g['digest']} != floor {want[g['name']]}")
        res["ratio_to_floor"] = res["median_s"] / base["median_s"]
        print(f"{name:6s} {res['ratio_to_floor']:.2f}x the floor ({base['median_s']:.3f}s)")
        if not args.quick and res["ratio_to_floor"] > MAX_RATIO_TO_FLOOR:
            failures.append(f"{name}: {res['ratio_to_floor']:.2f}x the floor "
                            f"(limit {MAX_RATIO_TO_FLOOR}x)")
    for msg in failures:
        print(f"FAIL: {msg}")
    if floor is None:
        print("no floor file: digests and times are not compared")
    elif not failures:
        print("OK: permutations bit-identical to the floor")
    if args.json_out:
        payload = {
            "benchmark": "reorder",
            "config": {"quick": args.quick, "rounds": rounds, "corpus": CORPUS,
                       "max_vertices": MAX_VERTICES, "attempt_budget_s": ATTEMPT_BUDGET_S,
                       "max_ratio_to_floor": None if args.quick else MAX_RATIO_TO_FLOOR,
                       "cpu_count": os.cpu_count(),
                       "usable_cpus": len(os.sched_getaffinity(0)),
                       "python": sys.version.split()[0], "numpy": np.__version__},
            "commit": source_commit(),
            "classes": results,
            "floor": None if floor is None else {
                "definition": "previous commit's time (no external floor for reordering)",
                "commit": floor.get("commit"),
                "median_s": {k: v["median_s"] for k, v in floor["classes"].items()},
                "stages_s": {k: v["stages_s"] for k, v in floor["classes"].items()},
            },
            "passed": not failures,
        }
        out = Path(args.json_out) / "BENCH_reorder.json"
        out.write_text(json.dumps(payload, indent=2) + "\n")
        print(f"wrote {out}")
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
