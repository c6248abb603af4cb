"""The benchmark's own tests: every output check can fail, every workload
runs at a tiny size, and tracing reports every per-layer metric.

    PYTHONPATH=src python3 -m pytest -q treebench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import worker

tm = worker.import_library()

import run  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer, layer_metrics  # noqa: E402

HERE = Path(__file__).resolve().parent


def _relabeled(t, shift):
    n = t.n
    return tm.Tree(n, [((u + shift) % n, (v + shift) % n) for u, v in t.sorted_edges()])


def _failed(result):
    return sum(not op[3] for op in result["ops"])


# --- each check can fail ---------------------------------------------------


def test_enumerate_check_rejects_wrong_digest_and_count():
    result = workloads.run_cli(["enumerate", "6"])
    digest = workloads.DIGESTS["enumerate 6"]
    assert workloads.check_enumerate(result, 6, digest)
    assert not workloads.check_enumerate(result, 6, "0" * 64)
    assert not workloads.check_enumerate(result, 7, digest)
    assert not workloads.check_enumerate((2, result[1]), 6, digest)


def test_cli_checks_reject_bad_exit_code_and_output():
    rc, out = workloads.run_cli(["verify", "5", "--all"])
    assert workloads.check_cli_verify((rc, out))
    assert not workloads.check_cli_verify((5, out))
    assert not workloads.check_cli_verify((0, out.replace("PASS", "FAIL", 1)))
    hasse = workloads.run_cli(["hasse", "6"])
    assert workloads.check_digest(hasse, workloads.DIGESTS["hasse 6"])
    assert not workloads.check_digest(hasse, workloads.DIGESTS["hasse 12"])


def test_certify_check_rejects_tampered_and_misclassified_certificates():
    source = _relabeled(tm.chain(7), 3)
    target = tm.DeltaSequence([3, 3, 2, 1, 1, 1, 1])
    cert = tm.certify_reachability(source, target)
    assert cert.trace is not None
    assert workloads.check_certify((cert, tm.check_certificate(cert)), source, target)

    trace = cert.trace
    cut = tm.MoveTrace(initial=trace.initial, moves=trace.moves[:-1], final=trace.final)
    tampered = tm.ReachabilityCertificate(source, target, cut, None)
    assert not workloads.check_certify((tampered, tm.check_certificate(tampered)), source, target)

    # a closure certificate for a reachable target contradicts dominance
    wrong_kind = tm.ReachabilityCertificate(source, target, None, tm.reachability_closure(source))
    assert not workloads.check_certify((wrong_kind, True), source, target)


def test_realize_check_rejects_wrong_degrees_and_short_traces():
    target = tm.DeltaSequence([4, 3, 2, 1, 1, 1, 1, 1])
    trace, tree = tm.realize_from_chain(target), tm.realize_direct(target)
    assert workloads.check_realize((trace, tree), target)
    assert not workloads.check_realize((trace, tm.star(8)), target)
    short = tm.MoveTrace(initial=trace.initial, moves=trace.moves[:-1], final=trace.final)
    assert not workloads.check_realize((short, tree), target)


def test_tampering_counts_as_failed_operations(monkeypatch):
    monkeypatch.setitem(workloads.DIGESTS, "enumerate 6", "0" * 64)
    assert _failed(worker.run_pass("enumerate", 1, workloads.TINY)) == 1
    monkeypatch.undo()

    counts = list(workloads.A000055)
    counts[6] += 1
    monkeypatch.setattr(workloads, "A000055", tuple(counts))
    assert _failed(worker.run_pass("enumerate", 1, workloads.TINY)) == 1
    monkeypatch.undo()

    genuine = tm.certify_reachability

    def drop_last_move(t, target):
        cert = genuine(t, target)
        if cert.trace is None or not cert.trace.moves:
            return cert
        tr = cert.trace
        cut = tm.MoveTrace(initial=tr.initial, moves=tr.moves[:-1], final=tr.final)
        return tm.ReachabilityCertificate(cert.source, target, cut, None)

    monkeypatch.setattr(tm, "certify_reachability", drop_last_move)
    result = worker.run_pass("verify", 1, workloads.TINY)
    assert _failed(result) > 0
    monkeypatch.undo()

    def broken(target):
        raise tm.NotTreeFeasible("injected")

    monkeypatch.setattr(tm, "realize_direct", broken)
    result = worker.run_pass("realize", 1, workloads.TINY)
    assert _failed(result) == workloads.TINY.realize_count
    assert "injected" in result["errors"][0]


def test_summary_counts_failures_and_names_the_tail():
    passes = [
        {"ops": [["a", 1, 0.010, True], ["b", 1, 0.030, True]], "rss_mb": 20.0},
        {"ops": [["a", 1, 0.012, False], ["b", 1, 0.020, True]], "rss_mb": 22.0},
    ]
    assert run.tally(passes) == (4, 1)
    s = run.summarize(passes)
    assert s["wall_s"] == pytest.approx(0.010 + 0.020)
    assert s["tail_name"] == "max"
    assert run.tail_percentile(19) is None
    assert run.tail_percentile(20) == 50
    assert run.tail_percentile(304) == 96


# --- smoke runs ------------------------------------------------------------


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_tiny_workload_passes_every_check(name):
    result = worker.run_pass(name, 7, workloads.TINY)
    assert result["ops"] and _failed(result) == 0, result["errors"]
    assert result["rss_mb"] > 0
    again = worker.run_pass(name, 7, workloads.TINY)
    assert [op[0] for op in again["ops"]] == [op[0] for op in result["ops"]]
    assert again["mix"] == result["mix"]


def _traced(name, seed):
    tracer = Tracer()
    tracer.install()
    try:
        result = worker.run_pass(name, seed, workloads.TINY, tracer)
    finally:
        tracer.uninstall()
    return result, layer_metrics(tracer)


def test_traced_run_reports_every_layer_metric_and_restores_the_library():
    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())["per_layer"]
    assert all(run.unit_of(m["name"]) == m["unit"] for m in declared)
    names = {m["name"] for m in declared} - {"trace_overhead_s"}
    counts = ("candidates", "classes", "Tree.builds", "legal_moves.moves", "plan_steps", "moves")
    seen = {}
    assert set(run.WORKLOADS) == set(workloads.FACTORIES)
    for name in run.WORKLOADS:
        result, layers = _traced(name, 3)
        assert _failed(result) == 0
        assert set(layers) == names
        again = _traced(name, 3)[1]
        assert {k: layers[k] for k in counts} == {k: again[k] for k in counts}
        seen[name] = layers
    assert seen["enumerate"]["classes"] == workloads.A000055[workloads.TINY.enumerate_n]
    assert seen["verify"]["certificates.positive"] > 0
    assert seen["verify"]["certificates.negative"] > 0
    assert seen["realize"]["moves"] == seen["realize"]["plan_steps"] > 0
    assert seen["verify"]["main.self_s"] > 0
    assert tm.verify.move_branch is tm.trees.move_branch
    assert not hasattr(tm.trees.move_branch, "__wrapped__")
    assert not hasattr(tm.Tree.__init__, "__wrapped__")


def test_run_fails_without_the_library(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "enumerate",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
