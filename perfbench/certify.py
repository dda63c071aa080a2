"""Independent optimality certificate for one solve.

This module shares no code with the program under test.  It reads the
task-graph JSON file itself and knows the scheduling model from the
paper only:

* task ``i`` may start no earlier than its arrival (``phase``), runs for
  ``wcet`` without preemption, and has absolute deadline
  ``phase + relative_deadline``;
* a task starts no earlier than each predecessor's finish, plus the
  message size (one time unit per data item on the shared bus) when the
  two run on different processors;
* a processor runs one task at a time.

``check_schedule`` validates a reported schedule against those rules and
recomputes ``L_max``.  ``prove_optimal`` then proves that no schedule is
better than the reported cost, first with a critical-path bound and, if
that is not tight, with an exhaustive enumeration of append-only
placements.
"""

from __future__ import annotations

import json
import math

__all__ = [
    "Graph",
    "CertificateError",
    "load",
    "check_schedule",
    "critical_path_bound",
    "prove_optimal",
    "tolerance",
]


class CertificateError(Exception):
    """A reported result failed the certificate."""


class Graph:
    """The scheduling instance as read from a ``repro/taskgraph-v1`` file."""

    def __init__(self, doc: dict) -> None:
        if doc.get("format") != "repro/taskgraph-v1":
            raise CertificateError(f"unknown graph format {doc.get('format')!r}")
        tasks = doc["tasks"]
        self.names = [t["name"] for t in tasks]
        self.index = {name: i for i, name in enumerate(self.names)}
        self.n = len(tasks)
        self.wcet = [float(t["wcet"]) for t in tasks]
        self.arrival = [float(t["phase"]) for t in tasks]
        self.deadline = [
            float(t["phase"]) + float(t["relative_deadline"]) for t in tasks
        ]
        self.preds: list[list[tuple[int, float]]] = [[] for _ in tasks]
        self.succs: list[list[int]] = [[] for _ in tasks]
        for ch in doc["channels"]:
            src, dst = self.index[ch["src"]], self.index[ch["dst"]]
            self.preds[dst].append((src, float(ch["message_size"])))
            self.succs[src].append(dst)
        self.topo = self._topological_order()

    def _topological_order(self) -> list[int]:
        indeg = [len(p) for p in self.preds]
        order = [i for i in range(self.n) if indeg[i] == 0]
        for i in order:
            for j in self.succs[i]:
                indeg[j] -= 1
                if indeg[j] == 0:
                    order.append(j)
        if len(order) != self.n:
            raise CertificateError("task graph has a cycle")
        return order


def load(path: str) -> Graph:
    with open(path) as fh:
        return Graph(json.load(fh))


def tolerance(*values: float, rel: float) -> float:
    """Slack for comparing numbers each known to relative precision ``rel``.

    The CLI prints times with six significant digits, so a printed value
    can sit ``5e-6`` of itself away from the exact one; in-process results
    are exact floats and use a much smaller ``rel``.
    """
    return rel * sum(abs(v) for v in values) + 1e-9


def check_schedule(
    g: Graph,
    m: int,
    placement: dict[str, tuple[int, float, float]],
    reported_cost: float,
    rel: float,
) -> float:
    """Validate ``placement`` (name -> processor, start, finish).

    Returns the recomputed ``L_max``; raises :class:`CertificateError` on
    the first broken rule.
    """
    if sorted(placement) != sorted(g.names):
        raise CertificateError("schedule does not place every task exactly once")
    proc = [0] * g.n
    start = [0.0] * g.n
    finish = [0.0] * g.n
    for name, (p, s, f) in placement.items():
        i = g.index[name]
        if not 0 <= p < m:
            raise CertificateError(f"{name} on processor {p} of {m}")
        if abs((f - s) - g.wcet[i]) > tolerance(s, f, rel=rel):
            raise CertificateError(f"{name} runs {f - s}, not its wcet {g.wcet[i]}")
        if s < g.arrival[i] - tolerance(s, g.arrival[i], rel=rel):
            raise CertificateError(f"{name} starts at {s}, before its arrival")
        proc[i], start[i], finish[i] = p, s, f
    for i in range(g.n):
        for j, size in g.preds[i]:
            ready = finish[j] + (size if proc[j] != proc[i] else 0.0)
            if start[i] < ready - tolerance(start[i], ready, rel=rel):
                raise CertificateError(
                    f"{g.names[i]} starts at {start[i]} before its input from "
                    f"{g.names[j]} is ready at {ready}"
                )
    for p in range(m):
        on_p = sorted((start[i], finish[i], i) for i in range(g.n) if proc[i] == p)
        for (_, f0, a), (s1, _, b) in zip(on_p, on_p[1:]):
            if s1 < f0 - tolerance(s1, f0, rel=rel):
                raise CertificateError(
                    f"{g.names[a]} and {g.names[b]} overlap on processor {p}"
                )
    lmax = max(finish[i] - g.deadline[i] for i in range(g.n))
    if abs(lmax - reported_cost) > tolerance(
        lmax, reported_cost, max(finish), rel=rel
    ):
        raise CertificateError(
            f"reported cost {reported_cost} but the schedule's L_max is {lmax}"
        )
    return lmax


def critical_path_bound(g: Graph) -> float:
    """``L_max`` no schedule can beat: arrivals and precedence only."""
    finish = [0.0] * g.n
    for i in g.topo:
        s = g.arrival[i]
        for j, _ in g.preds[i]:
            if finish[j] > s:
                s = finish[j]
        finish[i] = s + g.wcet[i]
    return max(finish[i] - g.deadline[i] for i in range(g.n))


def _better_schedule_exists(g: Graph, m: int, target: float) -> bool:
    """Whether some schedule has ``L_max < target``.

    Enumerates append-only placements: each step appends a ready task to a
    processor at its earliest start.  Every semi-active schedule arises
    from appending its tasks in order of (start, task index), and some
    semi-active schedule is optimal for ``L_max``, so the enumeration is
    restricted to sequences non-decreasing in that key.  Processors are
    identical, so only the first empty processor is tried.  A branch is
    cut once a lower bound on its ``L_max`` reaches ``target``.
    """
    n = g.n
    wcet, arrival, deadline, preds = g.wcet, g.arrival, g.deadline, g.preds
    topo = g.topo
    proc = [-1] * n
    finish = [0.0] * n
    avail = [0.0] * m
    used = [False] * m

    def bound(last_start: float, lmax: float) -> float:
        floor = min(avail)
        if last_start > floor:
            floor = last_start
        est = [0.0] * n
        best = lmax
        for i in topo:
            if proc[i] >= 0:
                continue
            s = arrival[i] if arrival[i] > floor else floor
            for j, _ in preds[i]:
                r = finish[j] if proc[j] >= 0 else est[j] + wcet[j]
                if r > s:
                    s = r
            est[i] = s
            late = s + wcet[i] - deadline[i]
            if late > best:
                best = late
        return best

    def search(placed: int, last_start: float, last_task: int, lmax: float) -> bool:
        if placed == n:
            return lmax < target
        for i in range(n):
            if proc[i] >= 0:
                continue
            if any(proc[j] < 0 for j, _ in preds[i]):
                continue
            first_empty = True
            for p in range(m):
                if not used[p]:
                    if not first_empty:
                        continue
                    first_empty = False
                s = arrival[i] if arrival[i] > avail[p] else avail[p]
                for j, size in preds[i]:
                    r = finish[j] + (size if proc[j] != p else 0.0)
                    if r > s:
                        s = r
                if s < last_start or (s == last_start and i < last_task):
                    continue
                f = s + wcet[i]
                late = f - deadline[i]
                new_lmax = late if late > lmax else lmax
                if new_lmax >= target:
                    continue
                saved = (avail[p], used[p])
                proc[i], finish[i], avail[p], used[p] = p, f, f, True
                if bound(s, new_lmax) < target and search(placed + 1, s, i, new_lmax):
                    proc[i] = -1
                    avail[p], used[p] = saved
                    return True
                proc[i] = -1
                avail[p], used[p] = saved
        return False

    return search(0, -math.inf, -1, -math.inf)


def prove_optimal(g: Graph, m: int, cost: float, rel: float) -> str:
    """Prove that no schedule of ``g`` on ``m`` processors beats ``cost``.

    ``cost`` must be achieved by a schedule already checked with
    :func:`check_schedule`.  Returns which proof held (``"critical-path"``
    or ``"enumeration"``); raises :class:`CertificateError` when a better
    schedule exists.
    """
    slack = tolerance(cost, rel=rel)
    if critical_path_bound(g) >= cost - slack:
        return "critical-path"
    if _better_schedule_exists(g, m, cost - slack):
        raise CertificateError(f"a schedule with L_max below {cost} exists")
    return "enumeration"
