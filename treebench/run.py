"""treemajor benchmark: one workload, one seed, one closed-loop caller.

    python3 treebench/run.py --workload {enumerate,verify,realize} --seed N \
        --seconds S --trace {0,1}

With ``--trace 0`` it runs passes of the workload's fixed work, each in a
fresh interpreter, until S seconds are used (at least three passes), and
reports the end-to-end metrics.  An operation's time is its best over the
passes: on a machine whose speed wanders with other tenants' load, the
best of many spaced-out samples is what stays put from run to run.  With
``--trace 1`` it alternates three plain and three traced passes and
reports the per-layer metrics and the tracing overhead.  The last line of
stdout is one JSON object: ``correct``, ``attempted``, ``failed``,
``metrics``.  Run from the root of a checkout; see README.md here.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKER = HERE / "worker.py"
SPANS_DIR = ROOT / ".bench_out"
WORKLOADS = ("enumerate", "verify", "realize")

MIN_PASSES = 3
#: Plain and traced passes, alternated, that a traced run makes.
TRACE_PAIRS = 3
SETUP_SAMPLES = 21
#: Every run must end within this many seconds.
DEADLINE_S = 170.0

SETUP_CODE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "t0 = time.perf_counter()\n"
    "import treemajor\n"
    "print(time.perf_counter() - t0, treemajor.__file__)\n"
)


class BenchError(RuntimeError):
    pass


def _child(argv: list[str], deadline: float) -> str:
    left = deadline - perf_counter()
    if left <= 0:
        raise BenchError("out of time")
    try:
        proc = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT, timeout=left)
    except subprocess.TimeoutExpired:
        raise BenchError(f"timed out: {argv[1:]}") from None
    if proc.returncode != 0:
        raise BenchError(f"{argv[1:]} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return proc.stdout


def measure_setup(deadline: float) -> list[float]:
    """Seconds to ``import treemajor`` in fresh interpreters.  The first
    import, which may compile bytecode, is not counted."""
    samples = []
    for k in range(SETUP_SAMPLES + 1):
        out = _child([sys.executable, "-c", SETUP_CODE, str(SRC)], deadline)
        seconds, path = out.strip().split(maxsplit=1)
        if Path(path).resolve().parent != SRC / "treemajor":
            raise BenchError(f"imported treemajor from {path}, not {SRC}")
        if k:
            samples.append(float(seconds))
    return samples


def run_pass(workload: str, seed: int, deadline: float, trace: Path | None = None) -> dict:
    argv = [sys.executable, str(WORKER), workload, str(seed)]
    if trace is not None:
        argv += ["--trace", str(trace)]
    t0 = perf_counter()
    result = json.loads(_child(argv, deadline).splitlines()[-1])
    result["process_s"] = perf_counter() - t0
    return result


def tail_percentile(n: int) -> int | None:
    """Highest whole percentile with at least ten of ``n`` samples beyond it,
    or None when even the median has fewer beyond it."""
    if n < 20:
        return None
    return math.floor(100 * (1 - 10 / n))


def summarize(passes: list[dict]) -> dict:
    """Per-operation best times over the passes, and what follows from them."""
    labels = [op[0] for op in passes[0]["ops"]]
    for p in passes[1:]:
        if [op[0] for op in p["ops"]] != labels:
            raise BenchError("passes ran different operations")
    best = [min(p["ops"][i][2] for p in passes) for i in range(len(labels))]
    units = [op[1] for op in passes[0]["ops"]]
    unit_lat = [m for m, u in zip(best, units) if u]
    pct = tail_percentile(len(unit_lat))
    if pct is None:
        tail, tail_name = max(unit_lat), "max"
    else:
        tail, tail_name = statistics.quantiles(unit_lat, n=100)[pct - 1], f"p{pct}"
    return {
        "wall_s": sum(best),
        "ops_per_s": sum(units) / sum(unit_lat),
        "latency_p50_ms": 1e3 * statistics.median(unit_lat),
        "latency_tail_ms": 1e3 * tail,
        "tail_name": tail_name,
        "latency_samples": len(unit_lat),
        "peak_rss_mb": statistics.median(p["rss_mb"] for p in passes),
    }


def tally(passes: list[dict]) -> tuple[int, int]:
    """Operations attempted and operations whose output failed its check."""
    ops = [op for p in passes for op in p["ops"]]
    return len(ops), sum(not op[3] for op in ops)


def unit_of(name: str) -> str:
    if name.startswith("us_per_"):
        return "us"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def bench(args, deadline: float) -> tuple[dict, int, int, list[str]]:
    setup = measure_setup(deadline)
    notes = [f"setup_s: median of {len(setup)} fresh-interpreter imports"]
    if args.trace:
        spans = SPANS_DIR / f"spans-{args.workload}.bin"
        plain, traced = [], []
        for _ in range(TRACE_PAIRS):
            plain.append(run_pass(args.workload, args.seed, deadline))
            traced.append(run_pass(args.workload, args.seed, deadline, trace=spans))
        passes = plain + traced
        layers = traced[-1]["layers"]
        plain_wall = summarize(plain)["wall_s"]
        traced_wall = summarize(traced)["wall_s"]
        layers["trace_overhead_s"] = traced_wall - plain_wall
        metrics = {k: (v, unit_of(k)) for k, v in layers.items()}
        notes.append(
            f"wall_s {traced_wall:.4f} s traced vs {plain_wall:.4f} s plain, "
            f"best of {TRACE_PAIRS} passes each; layer metrics from the last traced pass"
        )
        notes.append(f"spans written to {spans.relative_to(ROOT)}")
    else:
        passes = []
        start = perf_counter()
        while True:
            passes.append(run_pass(args.workload, args.seed, deadline))
            used = perf_counter() - start
            typical = statistics.median(p["process_s"] for p in passes)
            if len(passes) >= MIN_PASSES and used + typical > args.seconds:
                break
        s = summarize(passes)
        metrics = {
            "setup_s": (statistics.median(setup), "s"),
            "wall_s": (s["wall_s"], "s"),
            "ops_per_s": (s["ops_per_s"], "1/s"),
            "latency_p50_ms": (s["latency_p50_ms"], "ms"),
            "latency_tail_ms": (s["latency_tail_ms"], "ms"),
            "peak_rss_mb": (s["peak_rss_mb"], "MB"),
        }
        notes.append(
            f"{len(passes)} passes; operation times are best over passes; "
            f"latency_tail_ms is {s['tail_name']} of {s['latency_samples']} operations"
        )
    attempted, failed = tally(passes)
    notes.append(f"fail_ratio = {failed / attempted:.6g} ({failed} of {attempted} operations)")
    notes.append(f"input mix: {json.dumps(passes[0]['mix'], sort_keys=True)}")
    for p in passes:
        notes.extend(p["errors"])
    return metrics, attempted, failed, notes


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="treemajor benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "treemajor" / "__init__.py").is_file():
        print(f"error: no treemajor sources under {SRC}", file=sys.stderr)
        return 2
    try:
        metrics, attempted, failed, notes = bench(args, perf_counter() + DEADLINE_S)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"workload={args.workload} seed={args.seed} trace={args.trace}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    for note in notes:
        print(f"  {note}")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
