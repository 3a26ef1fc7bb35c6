"""The repository's benchmark: reorder, GNN forward and open-loop serving.

Run from the repository root:

    python3 perfbench/run.py --workload reorder --seed 1 --seconds 24 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the same
workload with benchmark-owned spans around each layer's public functions and
prints the per-layer metrics.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``; the line before
it holds the environment, floor and workload record.  The full record (and,
traced, every span) is written to ``.perfbench-out/``.  The exit code is 1
when a correctness gate fails, a search attempt ends on its budget, or the
program source is missing.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("reorder", "gnn-forward", "serve-open")


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def _import_program() -> None:
    """Put the checkout's ``src/`` first on the path; refuse any other copy."""
    src = (ROOT / "src").resolve()
    if not (src / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: program source not found at {src}/repro")
    sys.path.insert(0, str(src))
    import repro

    if Path(repro.__file__).resolve().parent != src / "repro":
        sys.exit(f"perfbench: imported repro from {repro.__file__}, not {src}")


def main(argv=None) -> int:
    args = _parse(argv)
    _import_program()

    import common
    import tracing

    rec = tracing.LayerTrace(enabled=bool(args.trace))
    out = common.Outcome()
    workdir = ROOT / ".perfbench-work" / f"{args.workload}-{os.getpid()}"
    try:
        if args.workload == "reorder":
            import wl_reorder

            attempts = tracing.AttemptLog()
            attempts.install()
            wl_reorder.run(args, rec, attempts, workdir, out)
        elif args.workload == "gnn-forward":
            import wl_gnn_forward

            wl_gnn_forward.run(args, rec, workdir, out)
        else:
            import wl_serve_open

            wl_serve_open.run(args, rec, workdir, out)
        spans = []
        if args.trace:
            spans = rec.records()
            out.per_layer = rec.layer_metrics(spans, **out.layer_inputs)
    except Exception:  # noqa: BLE001 - report and fail the run, print no result
        for message in out.errors:
            print(f"perfbench: {message}", file=sys.stderr)
        traceback.print_exc()
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    summary = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": common.environment(),
        "record": out.record, "errors": out.errors,
    }
    outdir = ROOT / ".perfbench-out"
    outdir.mkdir(exist_ok=True)
    full = {**summary, "end_to_end": out.end_to_end, "per_layer": out.per_layer,
            "spans": spans}
    path = outdir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(full, default=str) + "\n")

    correct = out.wrong == 0
    result = {
        "correct": correct,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": out.per_layer if args.trace else out.end_to_end,
    }
    print(json.dumps(summary, default=str))
    for message in out.errors:
        print(f"perfbench: {message}", file=sys.stderr)
    print(json.dumps(result), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
