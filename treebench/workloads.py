"""Inputs, operations and output checks of the three benchmark workloads.

Each workload is a fixed list of operations built from a seed.  An
operation's ``run`` is the only part that is timed (and traced); its
``check`` runs afterwards and decides whether the output is correct.  The
library is reached only through its public names and ``treemajor.cli.main``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import random
import statistics
from dataclasses import dataclass
from typing import Callable

import treemajor as tm
from treemajor import cli

#: OEIS A000055, the number of free trees on n unlabeled nodes, n = 0..16.
A000055 = (1, 1, 1, 1, 2, 3, 6, 11, 23, 47, 106, 235, 551, 1301, 3159, 7741, 19320)

#: SHA-256 of the CLI's stdout, recorded when the benchmark was written.
DIGESTS = {
    "enumerate 13": "8b1eb2e32088c6afb47c09a9f40bc4fc1cf617e5e1443bdac59697ed0d5033dc",
    "hasse 12": "c666f3c1404146046e90e5b9f29d72ddeb463107e0a582620cee1c6a0868d406",
    "enumerate 6": "de5afed205f48181fbfc2d2e0926325c404d63f2dd28f902e80ab1368b4dc4a1",
    "hasse 6": "84af7aabe893d2bc646821cbe32346201877f7e7c5f6256d921ec3e55a079b53",
}

_POSITIVE = (tm.ComparisonResult.EQUAL, tm.ComparisonResult.STRICTLY_BELOW)


@dataclass(frozen=True)
class Size:
    enumerate_n: int
    verify_ns: tuple[int, ...]
    hasse_n: int
    #: (n, k): every class on n nodes gets a reachable target, and every
    #: k-th class (in canonical order) also an unreachable one
    certify: tuple[tuple[int, int], ...]
    realize_count: int
    realize_lo: int
    realize_hi: int


#: Each workload's fixed work takes 2 s or less, so a run gets 15 or more
#: passes; see README.md for why that many.
FULL = Size(
    enumerate_n=13,
    verify_ns=tuple(range(4, 11)),
    hasse_n=12,
    certify=((9, 1), (10, 8)),
    realize_count=36,
    realize_lo=32,
    realize_hi=384,
)
#: Milliseconds-long version of every workload, for the benchmark's own tests.
TINY = Size(
    enumerate_n=6,
    verify_ns=(4, 5, 6),
    hasse_n=6,
    certify=((5, 1), (6, 2)),
    realize_count=4,
    realize_lo=8,
    realize_hi=24,
)


@dataclass(frozen=True)
class Op:
    """One timed call.  ``units`` is the work it counts towards ``ops_per_s``
    (classes written, one certificate, one sequence); 0 marks set-up calls
    that count towards ``wall_s`` only."""

    label: str
    units: int
    run: Callable[[], object]
    check: Callable[[object], bool]


@dataclass(frozen=True)
class Workload:
    ops: list[Op]
    mix: dict


def run_cli(argv: list[str]) -> tuple[int, str]:
    """``treemajor.cli.main(argv)`` with stdout and stderr captured in memory."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue()


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def check_digest(result: tuple[int, str], digest: str) -> bool:
    rc, out = result
    return rc == 0 and sha256(out) == digest


def check_enumerate(result: tuple[int, str], expected_count: int, digest: str) -> bool:
    out = result[1].strip()
    classes = len(out.split("\n\n")) if out else 0
    return classes == expected_count and check_digest(result, digest)


def check_cli_verify(result: tuple[int, str]) -> bool:
    rc, out = result
    lines = out.splitlines()
    return rc == 0 and bool(lines) and all(": PASS (" in ln for ln in lines)


def check_certify(result, source: tm.Tree, target: tm.DeltaSequence) -> bool:
    """The certificate re-verified, and its kind agrees with dominance."""
    cert, verdict = result
    positive = tm.compare(tm.delta_sequence(source), target) in _POSITIVE
    return (
        verdict is True
        and cert.source == source
        and cert.target_delta == target
        and (cert.trace is not None) == positive
    )


def check_realize(result, target: tm.DeltaSequence) -> bool:
    """Both realizations carry exactly the target degrees, and the plan the
    chain route follows replays to the target."""
    trace, tree = result
    start = tm.chain(len(target))
    plan = tm.plan_transfers(tm.delta_sequence(start), target)
    try:
        replayed = tm.replay(plan)
    except tm.TreeMajorError:
        return False
    return (
        replayed == target
        and trace.initial == start
        and len(trace.moves) == len(plan.steps)
        and tm.delta_sequence(trace.final) == target
        and tm.delta_sequence(tree) == target
    )


def enumerate_workload(seed: int, size: Size) -> Workload:
    # deterministic: the seed is not used
    n = size.enumerate_n
    argv = ["enumerate", str(n)]
    digest = DIGESTS[" ".join(argv)]
    op = Op(
        label=" ".join(argv),
        units=A000055[n],
        run=lambda: run_cli(argv),
        check=lambda r: check_enumerate(r, A000055[n], digest),
    )
    return Workload(ops=[op], mix={"n": n, "classes": A000055[n]})


def _relabel(t: tm.Tree, rng: random.Random) -> tm.Tree:
    perm = list(range(t.n))
    rng.shuffle(perm)
    return tm.Tree(t.n, [(perm[u], perm[v]) for u, v in t.sorted_edges()])


def _certify_op(source: tm.Tree, target: tm.DeltaSequence, kind: str) -> Op:
    def run():
        cert = tm.certify_reachability(source, target)
        return cert, tm.check_certificate(cert)

    return Op(
        label=f"certify n={source.n} {kind}",
        units=1,
        run=run,
        check=lambda r: check_certify(r, source, target),
    )


def verify_workload(seed: int, size: Size) -> Workload:
    """CLI ``verify N --all`` for every n, ``hasse``, then certificate ops.

    Sources are whole classes, as ``size.certify`` selects them; each
    target is the middle one, in census order, of the targets of its kind
    (reachable or not).  The seed picks how each source is relabeled and
    the order of the operations.  Certificate costs spread over three
    orders of magnitude, so targets or classes drawn at random would move
    the run's cost and median from seed to seed.
    """
    rng = random.Random(seed)
    ops: list[Op] = []
    for n in size.verify_ns:
        argv = ["verify", str(n), "--all", "--seed", str(seed)]
        ops.append(Op(" ".join(argv[:3]), 0, lambda a=argv: run_cli(a), check_cli_verify))
    hasse = ["hasse", str(size.hasse_n)]
    digest = DIGESTS[" ".join(hasse)]
    ops.append(Op(" ".join(hasse), 0, lambda: run_cli(hasse), lambda r: check_digest(r, digest)))

    certs: list[Op] = []
    kinds = {"positive": 0, "negative": 0}
    per_n = {}
    for n, every in size.certify:
        census = tm.delta_census(n)
        per_n[n] = 0
        for idx, t in enumerate(tm.enumerate_trees(n)):
            d = tm.delta_sequence(t)
            reach = [s for s in census if tm.compare(d, s) in _POSITIVE]
            unreach = [s for s in census if tm.compare(d, s) not in _POSITIVE]
            if idx % every:
                unreach = []
            for kind, pool in (("positive", reach), ("negative", unreach)):
                if pool:
                    certs.append(_certify_op(_relabel(t, rng), pool[len(pool) // 2], kind))
                    kinds[kind] += 1
                    per_n[n] += 1
    rng.shuffle(certs)
    ops.extend(certs)
    total = len(certs)
    mix = {
        "cli_verify_n": list(size.verify_ns),
        "hasse_n": size.hasse_n,
        "certificates": total,
        "certificates_by_n": {str(n): c for n, c in per_n.items()},
        "positive_share": round(kinds["positive"] / total, 4),
        "negative_share": round(kinds["negative"] / total, 4),
    }
    return Workload(ops=ops, mix=mix)


def _prufer_degrees(n: int, hubs: list[int], rng: random.Random) -> tm.DeltaSequence:
    """Degree sequence of a random Prufer sequence; with ``hubs`` each entry
    lands on a hub with probability 0.9, which concentrates degree."""
    deg = [1] * n
    for _ in range(n - 2):
        if hubs and rng.random() < 0.9:
            deg[rng.choice(hubs)] += 1
        else:
            deg[rng.randrange(n)] += 1
    return tm.DeltaSequence(deg)


def realize_workload(seed: int, size: Size) -> Workload:
    """Sizes spaced evenly in log n from lo to hi, each with one sequence
    from a uniform Prufer sequence and one hub-heavy sequence (2 to 5 hubs,
    cycling with the size).  The seed draws the sequences and the order.
    The sizes are fixed because a replay costs about n squared: sizes
    drawn at random would move the run's cost and median with the seed."""
    rng = random.Random(seed)
    sizes, lo, hi = size.realize_count // 2, size.realize_lo, size.realize_hi
    items = []
    for j in range(sizes):
        n = round(lo * (hi / lo) ** (j / (sizes - 1)))
        items.append(("prufer", _prufer_degrees(n, [], rng)))
        items.append(("hub", _prufer_degrees(n, rng.sample(range(n), 2 + j % 4), rng)))
    rng.shuffle(items)

    def make(kind: str, target: tm.DeltaSequence) -> Op:
        return Op(
            label=f"realize n={len(target)} {kind}",
            units=1,
            run=lambda: (tm.realize_from_chain(target), tm.realize_direct(target)),
            check=lambda r: check_realize(r, target),
        )

    ns = sorted(len(s) for _, s in items)
    hub_share = sum(kind == "hub" for kind, _ in items) / len(items)
    mix = {
        "sequences": len(items),
        "n_min": ns[0],
        "n_quartiles": [round(q, 1) for q in statistics.quantiles(ns, n=4)],
        "n_max": ns[-1],
        "prufer_share": round(1 - hub_share, 4),
        "hub_share": round(hub_share, 4),
    }
    return Workload(ops=[make(kind, s) for kind, s in items], mix=mix)


FACTORIES = {
    "enumerate": enumerate_workload,
    "verify": verify_workload,
    "realize": realize_workload,
}
