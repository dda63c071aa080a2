"""Tests of the benchmark's independent certificate.

Run with ``python3 -m pytest perfbench/test_certify.py``.
"""

from __future__ import annotations

import math
import os
import random
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import certify  # noqa: E402

REL = 1e-9


def graph(tasks, channels=()):
    """``tasks``: (name, wcet, arrival, absolute deadline); ``channels``: (src, dst, size)."""
    return certify.Graph({
        "format": "repro/taskgraph-v1",
        "tasks": [{"name": n, "wcet": w, "phase": a, "relative_deadline": d - a}
                  for n, w, a, d in tasks],
        "channels": [{"src": s, "dst": t, "message_size": z} for s, t, z in channels],
    })


# a -> b carries 5 data items; c is independent.
CHAIN = graph([("a", 2.0, 0.0, 3.0), ("b", 3.0, 0.0, 6.0), ("c", 4.0, 1.0, 5.0)],
              [("a", "b", 5.0)])
CHAIN_BEST = {"a": (0, 0.0, 2.0), "b": (0, 2.0, 5.0), "c": (1, 1.0, 5.0)}


def test_valid_optimal_schedule_passes():
    lmax = certify.check_schedule(CHAIN, 2, CHAIN_BEST, 0.0, REL)
    assert lmax == 0.0
    assert certify.prove_optimal(CHAIN, 2, 0.0, REL) == "critical-path"


def test_precedence_violation_is_rejected():
    bad = dict(CHAIN_BEST, b=(0, 1.0, 4.0))  # starts before a finishes
    with pytest.raises(certify.CertificateError, match="before its input"):
        certify.check_schedule(CHAIN, 2, bad, -1.0, REL)


def test_missing_communication_delay_is_rejected():
    # b on the other processor must wait 5 for a's message, not start at 2.
    bad = {"a": (0, 0.0, 2.0), "b": (1, 2.0, 5.0), "c": (0, 2.0, 6.0)}
    with pytest.raises(certify.CertificateError, match="before its input"):
        certify.check_schedule(CHAIN, 2, bad, 1.0, REL)


def test_overlap_on_one_processor_is_rejected():
    bad = dict(CHAIN_BEST, c=(0, 1.0, 5.0))
    with pytest.raises(certify.CertificateError, match="overlap"):
        certify.check_schedule(CHAIN, 2, bad, 0.0, REL)


def test_wrong_duration_and_early_start_are_rejected():
    with pytest.raises(certify.CertificateError, match="wcet"):
        certify.check_schedule(CHAIN, 2, dict(CHAIN_BEST, c=(1, 1.0, 4.0)), 0.0, REL)
    with pytest.raises(certify.CertificateError, match="arrival"):
        certify.check_schedule(CHAIN, 2, dict(CHAIN_BEST, c=(1, 0.0, 4.0)), 0.0, REL)


def test_misreported_cost_is_rejected():
    with pytest.raises(certify.CertificateError, match="reported cost"):
        certify.check_schedule(CHAIN, 2, CHAIN_BEST, -0.5, REL)


def test_printed_precision_is_tolerated():
    printed = {k: (p, float(f"{s:g}"), float(f"{f:g}")) for k, (p, s, f) in
               {"a": (0, 0.0, 2.0000011), "b": (0, 2.0000011, 5.0000011),
                "c": (1, 1.0, 5.0)}.items()}
    tasks = [("a", 2.0000011, 0.0, 3.0), ("b", 3.0, 0.0, 6.0), ("c", 4.0, 1.0, 5.0)]
    g = graph(tasks, [("a", "b", 5.0)])
    certify.check_schedule(g, 2, printed, float(f"{0.0000011:g}"), 5e-6)


# Three equal independent tasks on two processors: the critical-path bound
# (-1) is not reachable, so only the enumeration can prove the optimum (1).
TRIPLE = graph([("x", 2.0, 0.0, 3.0), ("y", 2.0, 0.0, 3.0), ("z", 2.0, 0.0, 3.0)])


def test_enumeration_proves_a_non_trivial_optimum():
    best = {"x": (0, 0.0, 2.0), "y": (0, 2.0, 4.0), "z": (1, 0.0, 2.0)}
    assert certify.check_schedule(TRIPLE, 2, best, 1.0, REL) == 1.0
    assert certify.critical_path_bound(TRIPLE) == -1.0
    assert certify.prove_optimal(TRIPLE, 2, 1.0, REL) == "enumeration"


def test_valid_but_non_optimal_schedule_is_rejected():
    serial = {"x": (0, 0.0, 2.0), "y": (0, 2.0, 4.0), "z": (0, 4.0, 6.0)}
    assert certify.check_schedule(TRIPLE, 2, serial, 3.0, REL) == 3.0
    with pytest.raises(certify.CertificateError, match="below"):
        certify.prove_optimal(TRIPLE, 2, 3.0, REL)
    # Splitting a chain across processors pays the message delay for nothing.
    split = {"a": (0, 0.0, 2.0), "b": (1, 7.0, 10.0), "c": (0, 2.0, 6.0)}
    assert certify.check_schedule(CHAIN, 2, split, 4.0, REL) == 4.0
    with pytest.raises(certify.CertificateError, match="below"):
        certify.prove_optimal(CHAIN, 2, 4.0, REL)


def brute_force_optimum(g: certify.Graph, m: int) -> float:
    """Every append-only placement sequence, with no pruning or symmetry cuts."""
    best = math.inf
    proc, finish, avail = [-1] * g.n, [0.0] * g.n, [0.0] * m

    def rec(placed: int, lmax: float) -> None:
        nonlocal best
        if placed == g.n:
            best = min(best, lmax)
            return
        for i in range(g.n):
            if proc[i] >= 0 or any(proc[j] < 0 for j, _ in g.preds[i]):
                continue
            for p in range(m):
                s = max([g.arrival[i], avail[p]] + [
                    finish[j] + (size if proc[j] != p else 0.0) for j, size in g.preds[i]])
                saved = avail[p]
                proc[i], finish[i], avail[p] = p, s + g.wcet[i], s + g.wcet[i]
                rec(placed + 1, max(lmax, finish[i] - g.deadline[i]))
                proc[i], avail[p] = -1, saved

    rec(0, -math.inf)
    return best


@pytest.mark.parametrize("seed", range(40))
def test_pruned_enumeration_agrees_with_brute_force(seed):
    rng = random.Random(seed)
    n, m = rng.randint(3, 6), rng.randint(1, 3)
    tasks, channels = [], []
    for i in range(n):
        arrival = rng.choice([0.0, rng.uniform(0, 10)])
        tasks.append((f"t{i}", rng.uniform(1, 10), arrival, arrival + rng.uniform(2, 30)))
        for j in range(i):
            if rng.random() < 0.3:
                channels.append((f"t{j}", f"t{i}", rng.uniform(0, 8)))
    g = graph(tasks, channels)
    opt = brute_force_optimum(g, m)
    assert certify.prove_optimal(g, m, opt, REL) in ("critical-path", "enumeration")
    with pytest.raises(certify.CertificateError):
        certify.prove_optimal(g, m, opt + 0.5, REL)
