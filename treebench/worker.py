"""One pass of one workload in a fresh interpreter.

    python3 treebench/worker.py WORKLOAD SEED [--trace SPANS_FILE]

Imports ``treemajor`` from the ``src`` directory next to this benchmark,
builds the workload's inputs from SEED, times each operation, checks each
output, and prints one JSON line: per-operation seconds and verdicts, the
pass's peak RSS, the input mix and, when traced, the per-layer metrics.
A fresh process per pass keeps the library's caches cold, as they are for
every ``treemajor`` command, and makes ``ru_maxrss`` belong to one pass.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def import_library():
    """Import ``treemajor`` from this checkout's ``src``, never another copy."""
    sys.path.insert(0, str(SRC))
    import treemajor

    if Path(treemajor.__file__).resolve().parent != SRC / "treemajor":
        raise ImportError(f"treemajor imported from {treemajor.__file__}, not {SRC}")
    return treemajor


def run_pass(workload: str, seed: int, size, tracer=None) -> dict:
    import workloads  # imports treemajor, so only after import_library()

    wl = workloads.FACTORIES[workload](seed, size)
    results = []
    errors = []
    for idx, op in enumerate(wl.ops):
        if tracer is not None:
            tracer.current_op = idx
            tracer.enabled = True
        try:
            t0 = perf_counter()
            out = op.run()
            dt = perf_counter() - t0
        except Exception:  # an operation that raises is a failed operation
            dt = perf_counter() - t0
            out = None
            errors.append(f"{op.label}: {traceback.format_exc(limit=3)}")
        finally:
            if tracer is not None:
                tracer.enabled = False
        ok = out is not None and bool(op.check(out))
        results.append([op.label, op.units, dt, ok])
    return {
        "ops": results,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "mix": wl.mix,
        "errors": errors[:5],
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("workload")
    ap.add_argument("seed", type=int)
    ap.add_argument("--trace", metavar="SPANS_FILE", help="record spans, write them here")
    args = ap.parse_args(argv)

    import_library()
    import workloads
    from spans import Tracer, layer_metrics

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    try:
        result = run_pass(args.workload, args.seed, workloads.FULL, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
    if tracer is not None:
        result["layers"] = layer_metrics(tracer)
        tracer.write(Path(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
