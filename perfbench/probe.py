"""Traced layer probe: time each layer's public function in one process.

Usage (from the repository root, with ``src`` on ``PYTHONPATH``)::

    python3 perfbench/probe.py SWEEP.json SEARCH.json OUT.json SPANS.json

``SWEEP.json`` and ``SEARCH.json`` are manifests written by
``inputs.py``.  Every call into the program is wrapped in a span of
:class:`spans.Tracer`; nothing inside the program is instrumented.  The
output holds the spans, the counters read from results and reports, and
each in-process result's schedule so the caller can certify it.

* CLI chain, on the sweep draws (object engine, as ``repro solve``) and
  on the search draws (array engine, as ``repro solve --engine array``):
  ``load_graph``, ``compile_problem``, ``edf_schedule`` and
  ``BranchAndBound.solve`` with the hooks the CLI attaches (an
  ``Observability`` bundle with nothing enabled and a ``StopToken``
  under ``graceful_interrupts``).
* The same solve with no hooks, for both engines, on the search draws.
* ``FrontierCollector`` at split depth 2, ``ParallelBnB`` in throughput
  mode with two workers (and once on a root-settled draw, for its fixed
  cost), and an in-process ``ClusterCoordinator`` whose ``TcpTransport``
  is wrapped in a frame-counting ``Transport``, served by two real
  ``repro cluster worker`` processes.
"""

from __future__ import annotations

import json
import os
import pickle
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from spans import Tracer  # noqa: E402

from repro.cluster import ClusterCoordinator, TcpTransport, Transport  # noqa: E402
from repro.cluster.transport import Connection, Listener  # noqa: E402
from repro.core.checkpoint import StopToken, graceful_interrupts  # noqa: E402
from repro.core.engine import BranchAndBound  # noqa: E402
from repro.core.parallel import ParallelBnB  # noqa: E402
from repro.core.params import BnBParameters  # noqa: E402
from repro.core.selection import SELECTION_RULES  # noqa: E402
from repro.core.shards import FrontierCollector  # noqa: E402
from repro.io.json_io import load_graph  # noqa: E402
from repro.model.compile import compile_problem  # noqa: E402
from repro.model.platform import shared_bus_platform  # noqa: E402
from repro.obs import Observability  # noqa: E402
from repro.scheduling.edf import edf_schedule  # noqa: E402

WORKERS = 2
SPLIT_DEPTH = 2
#: Search draws the probe covers (the first ones of the run's shuffled list).
SEARCH_PROBES = 4
FIXED_REPEATS = 3


def params_for(draw: dict, engine: str) -> BnBParameters:
    return BnBParameters(selection=SELECTION_RULES[draw["selection"]](), engine=engine)


def placement(result) -> dict:
    return {e.task: (e.processor, e.start, e.finish) for e in result.schedule().entries}


def outcome(kind: str, draw: dict, result) -> dict:
    return {"kind": kind, "path": draw["path"], "m": draw["m"],
            "status": result.status.value, "cost": result.best_cost,
            "generated": result.stats.generated,
            "placement": placement(result) if result.found_solution else None}


def cpu(who: int) -> float:
    r = resource.getrusage(who)
    return r.ru_utime + r.ru_stime


def cli_solve(problem, params):
    """``BranchAndBound.solve`` as ``repro solve`` calls it."""
    token = StopToken()
    with graceful_interrupts(token):
        return BranchAndBound(params, trace=None, obs=Observability()).solve(
            problem, checkpoint=None, resume=None, stop=token
        )


def dur(span: dict) -> float:
    return span["end"] - span["start"]


def chain(tr: Tracer, draw: dict, engine: str) -> tuple:
    """The four in-process steps of one ``repro solve``; returns their times."""
    with tr.span("cli.chain", path=draw["path"], engine=engine):
        with tr.span("io.load_graph") as s_load:
            graph = load_graph(draw["path"])
        with tr.span("model.compile") as s_comp:
            problem = compile_problem(graph, shared_bus_platform(draw["m"]))
        with tr.span("scheduling.edf") as s_edf:
            edf_schedule(problem)
        with tr.span(f"core.search.{engine}") as s_search:
            result = cli_solve(problem, params_for(draw, engine))
    times = {"path": draw["path"], "load": dur(s_load), "compile": dur(s_comp),
             "edf": dur(s_edf), "search": dur(s_search)}
    return problem, result, times


class _Counts:
    def __init__(self) -> None:
        self.frames_sent = self.frames_recv = 0
        self.bytes_sent = self.bytes_recv = 0
        self.send_s = self.recv_s = 0.0
        self.hello: dict[str, float] = {}


class CountingConnection(Connection):
    """Counts frames and their pickled bytes; times ``send`` and ``recv``."""

    def __init__(self, inner: Connection, counts: _Counts) -> None:
        self._inner, self._c = inner, counts

    def send(self, frame: dict) -> None:
        t = time.perf_counter()
        self._inner.send(frame)
        self._c.send_s += time.perf_counter() - t
        self._c.frames_sent += 1
        self._c.bytes_sent += 4 + len(pickle.dumps(frame, protocol=pickle.HIGHEST_PROTOCOL))

    def recv(self, timeout: float | None = None):
        t = time.perf_counter()
        frame = self._inner.recv(timeout)
        now = time.perf_counter()
        self._c.recv_s += now - t
        if frame is not None:
            self._c.frames_recv += 1
            self._c.bytes_recv += 4 + len(pickle.dumps(frame, protocol=pickle.HIGHEST_PROTOCOL))
            if isinstance(frame, dict) and frame.get("t") == "hello":
                self._c.hello.setdefault(str(frame.get("worker")), now)
        return frame

    def poll(self) -> bool:
        return self._inner.poll()

    def close(self) -> None:
        self._inner.close()


class CountingListener(Listener):
    def __init__(self, inner: Listener, counts: _Counts) -> None:
        self._inner, self._c = inner, counts

    def accept(self, timeout: float | None = None):
        conn = self._inner.accept(timeout)
        return None if conn is None else CountingConnection(conn, self._c)

    def close(self) -> None:
        self._inner.close()

    @property
    def address(self) -> str:
        return self._inner.address


class CountingTransport(Transport):
    def __init__(self, inner: Transport) -> None:
        self._inner = inner
        self.counts = _Counts()

    def listen(self, address: str) -> Listener:
        return CountingListener(self._inner.listen(address), self.counts)

    def connect(self, address: str) -> Connection:
        return CountingConnection(self._inner.connect(address), self.counts)


def stop(procs) -> None:
    """Reap the workers; one that never joined is still retrying its connect."""
    for p in procs:
        try:
            p.wait(timeout=0.25)
        except subprocess.TimeoutExpired:
            p.kill()
            p.wait()


def cluster_solve(tr: Tracer, draw: dict, problem) -> tuple:
    transport = CountingTransport(TcpTransport())
    coord = ClusterCoordinator(params_for(draw, "object"), bind="127.0.0.1:0",
                               transport=transport)
    addr = coord.bind_now()
    spawned, procs = {}, []
    try:
        for i in range(WORKERS):
            wid = f"probe-w{i}"
            spawned[wid] = time.perf_counter()
            procs.append(subprocess.Popen(
                [sys.executable, "-m", "repro", "cluster", "worker", addr, "--id", wid],
                stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            ))
        with tr.span("cluster.solve", path=draw["path"]) as sp:
            result = coord.solve(problem)
    finally:
        stop(procs)
    c = transport.counts
    # The wrapper's time inside send/recv is the coordinator's transport
    # time: recorded as child spans so the solve's self time excludes it.
    tr.add("cluster.send", sp["start"], sp["start"] + c.send_s, sp["id"])
    tr.add("cluster.recv", sp["start"], sp["start"] + c.recv_s, sp["id"])
    rep = coord.last_report
    counters = {
        "solve_s": dur(sp),
        "joins": [c.hello[w] - spawned[w] for w in c.hello if w in spawned],
        "frames_sent": c.frames_sent, "frames_recv": c.frames_recv,
        "bytes_sent": c.bytes_sent, "bytes_recv": c.bytes_recv,
        "send_s": c.send_s, "recv_s": c.recv_s,
        "lease_expiries": rep.lease_expiries, "steals": rep.steals,
        "retries": rep.shard_retries,
    }
    return result, counters


def parallel_solve(tr: Tracer, draw: dict, problem, name: str) -> tuple:
    pbnb = ParallelBnB(params_for(draw, "object"), workers=WORKERS, split_depth=SPLIT_DEPTH,
                       deterministic=False)
    self0, kids0 = cpu(resource.RUSAGE_SELF), cpu(resource.RUSAGE_CHILDREN)
    with tr.span(name, path=draw["path"]) as span:
        result = pbnb.solve(problem)
    rep = pbnb.last_report
    return result, {
        "solve_s": dur(span),
        "coordinator_cpu_s": cpu(resource.RUSAGE_SELF) - self0,
        "worker_cpu_s": cpu(resource.RUSAGE_CHILDREN) - kids0,
        "shards_stale": rep.shards_stale, "shard_retries": rep.shard_retries,
        "worker_restarts": rep.worker_restarts,
    }


def main(argv: list[str]) -> int:
    with open(argv[0]) as fh:
        sweep = json.load(fh)["draws"]
    with open(argv[1]) as fh:
        search = json.load(fh)["draws"][:SEARCH_PROBES]
    tr = Tracer()
    out = {"sweep": [], "search": [], "fixed_s": [], "parallel": [], "cluster": [],
           "outcomes": []}

    for draw in sweep:
        _, result, times = chain(tr, draw, "object")
        out["sweep"].append(times)
        out["outcomes"].append(outcome("chain", draw, result))
    problem = compile_problem(load_graph(sweep[0]["path"]), shared_bus_platform(sweep[0]["m"]))
    for _ in range(FIXED_REPEATS):
        t = time.perf_counter()
        result, _ = parallel_solve(tr, sweep[0], problem, "parallel.fixed")
        out["fixed_s"].append(time.perf_counter() - t)
        out["outcomes"].append(outcome("parallel", sweep[0], result))

    for draw in search:
        problem, hooked, row = chain(tr, draw, "array")
        out["outcomes"].append(outcome("chain", draw, hooked))
        with tr.span("core.search_bare.array") as s:
            BranchAndBound(params_for(draw, "array")).solve(problem)
        row["bare_array"] = dur(s)
        with tr.span("core.search.object") as s:
            cli_solve(problem, params_for(draw, "object"))
        row["hooked_object"] = dur(s)
        with tr.span("core.search_bare.object") as s:
            bare = BranchAndBound(params_for(draw, "object")).solve(problem)
        row["bare_object"] = dur(s)
        collector = FrontierCollector(SPLIT_DEPTH, problem, params_for(draw, "object"))
        with tr.span("shards.collect") as s:
            BranchAndBound(params_for(draw, "object")).solve(problem, dispatcher=collector)
        st = hooked.stats
        row.update(collect=dur(s), shards=len(collector.shards), generated=st.generated,
                   explored=st.explored, peak_active=st.peak_active)
        out["search"].append(row)
        result, counters = parallel_solve(tr, draw, problem, "parallel.solve")
        counters["search_ratio"] = result.stats.generated / bare.stats.generated
        out["parallel"].append(counters)
        out["outcomes"].append(outcome("parallel", draw, result))
        result, counters = cluster_solve(tr, draw, problem)
        out["cluster"].append(counters)
        out["outcomes"].append(outcome("cluster", draw, result))

    out["self"] = {k: statistics.median(v) for k, v in tr.self_times().items()}
    with open(argv[2], "w") as fh:
        json.dump(out, fh)
    tr.write(argv[3])
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
