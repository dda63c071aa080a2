#!/usr/bin/env python3
"""The repository's benchmark: what users run, end to end and layer by layer.

Run from the root of a checkout::

    python3 perfbench/run.py --workload cli-sweep --seed 1 --seconds 10 --trace 0

Workloads (each a closed loop with one solve in flight):

``cli-sweep``
    ``repro solve G -m M --gantt`` on fresh root-settled draws of the
    paper's Section 4.1 workload, m in {2, 3, 4}.
``cli-search``
    ``repro solve G -m M --engine array --selection S --gantt`` on the
    search-heavy draws of ``draws.json``.
``parallel-throughput``
    ``ParallelBnB(workers=2, deterministic=False).solve_graph`` in this
    process, default engine, on the search-heavy draws.
``cluster-local``
    ``repro solve G --cluster 127.0.0.1:PORT`` plus two
    ``repro cluster worker`` processes per solve, on the search-heavy
    draws.

A run sets up ``SETUP_REPS`` times (graph files from the seed, the native
driver built into an empty ``REPRO_NATIVE_CACHE``, one warm-up solve) and
reports the median, then runs whole rounds over its draws until
``--seconds`` have passed.  Every solve is checked afterwards by
``certify.py``: a valid schedule, the recomputed ``L_max`` and a proof
that no better schedule exists.  ``--trace 1`` instead runs the loop
untraced and traced for half the time each and then the layer probe, and
prints the per-layer metrics.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import resource
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import certify  # noqa: E402
from spans import Tracer  # noqa: E402

#: Workload -> the draws it solves: fresh root-settled draws, or its band
#: of the search-heavy list (see inputs.py).
WORKLOADS = {
    "cli-sweep": "sweep",
    "cli-search": "search",
    "parallel-throughput": "search",
    "cluster-local": "search",
}
SETUP_REPS = 3
WORKERS = 2
SOLVE_TIMEOUT = 60.0
WORKER_GRACE = 0.25
IMPORT_REPEATS = 5
#: ``repro solve --gantt`` prints times with six significant digits.
CLI_REL = 5e-6
#: In-process results are exact floats.
EXACT_REL = 1e-9

SUMMARY = re.compile(r"^(\w+): L_max=(\S+) \(U=.*?generated=(\d+) ", re.M)
ROW = re.compile(r"^\s+p(\d+): (.*)$")
CELL = re.compile(r"(\S+?)\[([^,\]]+),([^\]]+)\]")


class Outcome:
    """One solve: how long it took and what the program reported."""

    def __init__(self, draw: dict, wall: float, rc: int | None, stdout: str = "",
                 result: dict | None = None) -> None:
        self.draw, self.wall, self.rc = draw, wall, rc
        self.stdout, self.result = stdout, result


def parse_cli(stdout: str) -> dict | None:
    """Status, cost, generated count and schedule from ``repro solve --gantt``."""
    head = SUMMARY.search(stdout)
    if head is None:
        return None
    placement = {}
    in_schedule = False
    for line in stdout.splitlines():
        if line.startswith("Schedule of "):
            in_schedule = True
            continue
        row = ROW.match(line) if in_schedule else None
        if row:
            for name, start, finish in CELL.findall(row.group(2)):
                placement[name] = (int(row.group(1)), float(start), float(finish))
    return {"status": head.group(1), "cost": float(head.group(2)),
            "generated": int(head.group(3)), "placement": placement, "rel": CLI_REL}


def cpu_seconds() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        r = resource.getrusage(who)
        total += r.ru_utime + r.ru_stime
    return total


def peak_rss_mb() -> float:
    """Largest resident set of this process or any child it has reaped."""
    return max(resource.getrusage(who).ru_maxrss
               for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)) / 1024.0


def free_port() -> int:
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


class Bench:
    def __init__(self, root: str, workload: str, seed: int) -> None:
        self.root, self.workload, self.seed = root, workload, seed
        self.work = os.path.join(root, ".perfbench", f"{workload}-s{seed}-p{os.getpid()}")
        self.graphs = os.path.join(self.work, "graphs")
        self.native = os.path.join(self.work, "native")
        src = os.path.join(root, "src")
        path = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""),
                        REPRO_NATIVE_CACHE=self.native)
        self.live: list[subprocess.Popen] = []
        self.certified: dict[tuple, float] = {}
        self.loaded: dict[str, certify.Graph] = {}
        self.parallel_api = None
        self.tracer: Tracer | None = None

    # -- processes ------------------------------------------------------

    def spawn(self, argv: list[str]) -> subprocess.Popen:
        # A session of its own, so that killing it also ends the processes
        # it started (pool workers, the probe's cluster workers).
        p = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                             text=True, env=self.env, cwd=self.root,
                             start_new_session=True)
        self.live.append(p)
        return p

    @staticmethod
    def kill(p: subprocess.Popen) -> None:
        try:
            os.killpg(p.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    def reap(self, p: subprocess.Popen, timeout: float) -> tuple[int | None, str]:
        try:
            out, _ = p.communicate(timeout=timeout)
            rc = p.returncode
        except subprocess.TimeoutExpired:
            self.kill(p)
            out, _ = p.communicate()
            rc = None
        self.live.remove(p)
        return rc, out

    def stop_all(self) -> None:
        for p in list(self.live):
            self.kill(p)
            p.communicate()
        self.live.clear()

    def python(self, *args: str, timeout: float = SOLVE_TIMEOUT) -> tuple[int | None, str]:
        return self.reap(self.spawn([sys.executable, *args]), timeout)

    # -- one solve per workload -----------------------------------------

    def span(self, name: str, start: float, end: float) -> None:
        if self.tracer is not None:
            self.tracer.add(name, start, end, None, workload=self.workload)

    def cli(self, draw: dict, extra: list[str]) -> Outcome:
        argv = [sys.executable, "-m", "repro", "solve", draw["path"], "-m", str(draw["m"]),
                *extra, "--gantt"]
        t0 = time.perf_counter()
        rc, out = self.reap(self.spawn(argv), SOLVE_TIMEOUT)
        t1 = time.perf_counter()
        self.span("repro.solve", t0, t1)
        return Outcome(draw, t1 - t0, rc, stdout=out)

    def cluster(self, draw: dict) -> Outcome:
        addr = f"127.0.0.1:{free_port()}"
        t0 = time.perf_counter()
        coord = self.spawn([sys.executable, "-m", "repro", "solve", draw["path"],
                            "-m", str(draw["m"]), "--cluster", addr, "--gantt"])
        workers = [self.spawn([sys.executable, "-m", "repro", "cluster", "worker", addr,
                               "--id", f"w{i}"]) for i in range(WORKERS)]
        rc, out = self.reap(coord, SOLVE_TIMEOUT)
        t1 = time.perf_counter()
        # A worker that joined leaves on the coordinator's stop frame; one
        # that started too late to join keeps retrying its connect, so it
        # is killed after a short grace.
        for w in workers:
            self.reap(w, WORKER_GRACE)
        self.span("repro.solve.cluster", t0, t1)
        self.span("repro.cluster.workers", t0, time.perf_counter())
        return Outcome(draw, t1 - t0, rc, stdout=out)

    def parallel(self, draw: dict) -> Outcome:
        api = self.parallel_api
        if api is None:
            sys.path.insert(0, os.path.join(self.root, "src"))
            os.environ["REPRO_NATIVE_CACHE"] = self.native
            from repro.core.parallel import ParallelBnB
            from repro.core.params import BnBParameters
            from repro.io.json_io import load_graph
            from repro.model.platform import shared_bus_platform
            api = self.parallel_api = (ParallelBnB, BnBParameters, load_graph,
                                       shared_bus_platform)
        ParallelBnB, BnBParameters, load_graph, shared_bus_platform = api
        params = BnBParameters()
        t0 = time.perf_counter()
        try:
            graph = load_graph(draw["path"])
            t1 = time.perf_counter()
            result = ParallelBnB(params, workers=WORKERS, deterministic=False).solve_graph(
                graph, shared_bus_platform(draw["m"]))
        except Exception as exc:  # a crashed solve is a failed solve, not a failed run
            print(f"parallel solve raised {exc!r}", file=sys.stderr)
            return Outcome(draw, time.perf_counter() - t0, 1)
        t2 = time.perf_counter()
        self.span("io.load_graph", t0, t1)
        self.span("parallel.solve_graph", t1, t2)
        placement = (None if not result.found_solution else
                     {e.task: (e.processor, e.start, e.finish)
                      for e in result.schedule().entries})
        return Outcome(draw, t2 - t0, 0, result={
            "status": result.status.value, "cost": result.best_cost,
            "generated": result.stats.generated, "placement": placement, "rel": EXACT_REL})

    def solve(self, draw: dict) -> Outcome:
        if self.workload == "cli-sweep":
            return self.cli(draw, [])
        if self.workload == "cli-search":
            return self.cli(draw, ["--engine", "array", "--selection", draw["selection"]])
        if self.workload == "parallel-throughput":
            return self.parallel(draw)
        return self.cluster(draw)

    # -- set-up and the measured loop ------------------------------------

    def inputs(self, workload: str) -> dict:
        kind = WORKLOADS[workload]
        extra = [workload] if kind == "search" else []
        rc, out = self.python(os.path.join(HERE, "inputs.py"), kind, str(self.seed),
                              self.graphs, *extra, timeout=120.0)
        if rc != 0:
            raise SystemExit(f"set-up failed: inputs.py {kind} exited {rc}")
        return json.loads(out.strip().splitlines()[-1])

    def setup(self) -> tuple[float, dict]:
        shutil.rmtree(self.native, ignore_errors=True)
        t0 = time.perf_counter()
        manifest = self.inputs(self.workload)
        warm = self.solve(manifest["draws"][manifest["warmup"]])
        if warm.rc != 0:
            raise SystemExit(f"warm-up solve exited {warm.rc}")
        return time.perf_counter() - t0, manifest

    def loop(self, draws: list[dict], seconds: float) -> dict:
        cpu0 = cpu_seconds()
        t0 = time.perf_counter()
        outcomes: list[Outcome] = []
        while True:
            outcomes.extend(self.solve(d) for d in draws)
            if time.perf_counter() - t0 >= seconds:
                break
        wall = time.perf_counter() - t0
        return {"outcomes": outcomes, "wall": wall, "cpu": cpu_seconds() - cpu0,
                "peak_rss_mb": peak_rss_mb()}

    # -- checking ----------------------------------------------------------

    def check(self, report: dict | None, draw: dict) -> str | None:
        """None when the solve passes; otherwise why it failed."""
        if report is None:
            return "no result printed"
        if report["status"] != "optimal":
            return f"status {report['status']}"
        if report["placement"] is None:
            return "no schedule"
        path, m, rel = draw["path"], draw["m"], report["rel"]
        g = self.loaded.get(path)
        if g is None:
            g = self.loaded[path] = certify.load(path)
        cost = report["cost"]
        try:
            certify.check_schedule(g, m, report["placement"], cost, rel)
            proven = self.certified.get((path, m))
            if proven is None or abs(proven - cost) > certify.tolerance(proven, cost, rel=rel):
                certify.prove_optimal(g, m, cost, rel)
                self.certified[(path, m)] = cost
        except certify.CertificateError as exc:
            return f"certificate: {exc}"
        return None

    def report_of(self, o: Outcome) -> dict | None:
        if o.result is not None:
            return o.result
        return parse_cli(o.stdout) if o.rc == 0 else None

    def check_all(self, outcomes: list[Outcome], tally: dict) -> list[dict]:
        reports = []
        for o in outcomes:
            report = self.report_of(o)
            why = self.check(report, o.draw) if o.rc == 0 else f"exit code {o.rc}"
            tally["attempted"] += 1
            if why is not None:
                tally["failed"] += 1
                if why.startswith("certificate"):
                    tally["wrong"] += 1
                print(f"FAILED {o.draw['path']} m={o.draw['m']}: {why}", file=sys.stderr)
            reports.append(report)
        return reports


def wall_p50(phase: dict) -> float:
    return statistics.median(o.wall for o in phase["outcomes"])


def cpu_per_solve(phase: dict) -> float:
    return phase["cpu"] / len(phase["outcomes"])


def end_to_end(phase: dict, reports: list, setups: list[float]) -> dict:
    generated = [r["generated"] for r in reports if r is not None]
    return {
        "setup_s": (statistics.median(setups), "s"),
        "solve_wall_p50_s": (wall_p50(phase), "s"),
        "solves_per_s": (len(phase["outcomes"]) / phase["wall"], "1/s"),
        "cpu_per_solve_s": (cpu_per_solve(phase), "s"),
        "vertices_per_solve": (statistics.mean(generated) if generated else 0.0, "count"),
        "peak_rss_mb": (phase["peak_rss_mb"], "MiB"),
    }


def import_cost(bench: Bench) -> tuple[float, int]:
    """Fresh-interpreter ``import repro.cli`` wall minus a bare interpreter."""
    bare, full = [], []
    for _ in range(IMPORT_REPEATS):
        for argv, into in ((["-c", "pass"], bare), (["-c", "import repro.cli"], full)):
            t0 = time.perf_counter()
            bench.python(*argv)
            into.append(time.perf_counter() - t0)
    _, out = bench.python("-c", "import sys, repro.cli; print(len(sys.modules))")
    return statistics.median(full) - statistics.median(bare), int(out.strip())


def per_layer(bench: Bench, manifest: dict, tally: dict, seconds: float) -> dict:
    draws = manifest["draws"]
    untraced = bench.loop(draws, seconds / 2)
    bench.check_all(untraced["outcomes"], tally)
    bench.tracer = Tracer()
    traced = bench.loop(draws, seconds / 2)
    bench.check_all(traced["outcomes"], tally)
    spans = os.path.join(bench.root, ".perfbench", f"trace-{bench.workload}-s{bench.seed}")
    bench.tracer.write(spans + ".json")
    bench.tracer = None

    own = WORKLOADS[bench.workload]
    sweep = manifest if own == "sweep" else bench.inputs("cli-sweep")
    search = manifest if own == "search" else bench.inputs("cli-search")
    files = {}
    for name, doc in (("sweep", sweep), ("search", search)):
        files[name] = os.path.join(bench.work, f"{name}.json")
        with open(files[name], "w") as fh:
            json.dump(doc, fh)

    # The CLI process around each sweep draw, for cli.overhead_s.
    wall = {}
    for d in sweep["draws"]:
        o = bench.cli(d, [])
        bench.check_all([o], tally)
        wall[d["path"]] = o.wall
    import_s, modules = import_cost(bench)

    out_path = os.path.join(bench.work, "probe.json")
    rc, _ = bench.python(os.path.join(HERE, "probe.py"), files["sweep"], files["search"],
                         out_path, spans + "-probe.json", timeout=150.0)
    if rc != 0:
        raise SystemExit(f"layer probe exited {rc}")
    with open(out_path) as fh:
        probe = json.load(fh)
    for o in probe["outcomes"]:
        draw = {"path": o["path"], "m": o["m"]}
        report = None if o["placement"] is None else dict(o, rel=EXACT_REL)
        why = bench.check(report, draw)
        tally["attempted"] += 1
        if why is not None:
            tally["failed"] += 1
            tally["wrong"] += why.startswith("certificate")
            print(f"FAILED probe {o['kind']} {o['path']} m={o['m']}: {why}", file=sys.stderr)

    med = statistics.median
    rows, par, clu = probe["search"], probe["parallel"], probe["cluster"]
    chains = probe["sweep"]
    joins = [j for c in clu for j in c["joins"]]
    return {
        "cli.import_s": (import_s, "s"),
        "cli.modules_loaded": (modules, "count"),
        "cli.overhead_s": (med(wall[c["path"]] - c["load"] - c["compile"] - c["edf"]
                               - c["search"] for c in chains), "s"),
        "io.load_graph_s": (med(c["load"] for c in chains), "s"),
        "model.compile_s": (med(c["compile"] for c in chains), "s"),
        "scheduling.edf_s": (med(c["edf"] for c in chains), "s"),
        "core.search_s": (med(r["search"] for r in rows), "s"),
        "core.search_bare_s": (med(r["bare_array"] for r in rows), "s"),
        "core.hook_overhead_ratio.array": (med(r["search"] / r["bare_array"] for r in rows),
                                           "ratio"),
        "core.hook_overhead_ratio.object": (med(r["hooked_object"] / r["bare_object"]
                                                for r in rows), "ratio"),
        "core.vertices_per_s": (sum(r["generated"] for r in rows)
                                / sum(r["search"] for r in rows), "1/s"),
        "core.generated": (statistics.mean(r["generated"] for r in rows), "count"),
        "core.explored": (statistics.mean(r["explored"] for r in rows), "count"),
        "core.peak_active": (statistics.mean(r["peak_active"] for r in rows), "count"),
        "core.root_settled": (sweep["root_settled"] / sweep["tried"], "fraction"),
        "shards.collect_s": (med(r["collect"] for r in rows), "s"),
        "shards.count": (statistics.mean(r["shards"] for r in rows), "count"),
        "parallel.solve_s": (med(p["solve_s"] for p in par), "s"),
        "parallel.fixed_s": (med(probe["fixed_s"]), "s"),
        "parallel.coordinator_cpu_s": (med(p["coordinator_cpu_s"] for p in par), "s"),
        "parallel.worker_cpu_s": (med(p["worker_cpu_s"] for p in par), "s"),
        "parallel.search_ratio": (med(p["search_ratio"] for p in par), "ratio"),
        "parallel.shards_stale": (statistics.mean(p["shards_stale"] for p in par), "count"),
        "parallel.shard_retries": (sum(p["shard_retries"] for p in par), "count"),
        "parallel.worker_restarts": (sum(p["worker_restarts"] for p in par), "count"),
        "cluster.solve_s": (med(c["solve_s"] for c in clu), "s"),
        "cluster.coordinator_self_s": (probe["self"]["cluster.solve"], "s"),
        "cluster.worker_join_s": (med(joins) if joins else 0.0, "s"),
        "cluster.frames_sent": (statistics.mean(c["frames_sent"] for c in clu), "count"),
        "cluster.frames_recv": (statistics.mean(c["frames_recv"] for c in clu), "count"),
        "cluster.bytes_sent": (statistics.mean(c["bytes_sent"] for c in clu), "bytes"),
        "cluster.bytes_recv": (statistics.mean(c["bytes_recv"] for c in clu), "bytes"),
        "cluster.send_s": (med(c["send_s"] for c in clu), "s"),
        "cluster.recv_s": (med(c["recv_s"] for c in clu), "s"),
        "cluster.lease_expiries": (sum(c["lease_expiries"] for c in clu), "count"),
        "cluster.steals": (statistics.mean(c["steals"] for c in clu), "count"),
        "cluster.retries": (sum(c["retries"] for c in clu), "count"),
        "trace.overhead_wall_s": (wall_p50(traced) - wall_p50(untraced), "s"),
        "trace.overhead_cpu_s": (cpu_per_solve(traced) - cpu_per_solve(untraced), "s"),
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "repro", "cli.py")):
        print("error: run from the root of a checkout (src/repro is missing)", file=sys.stderr)
        return 2
    bench = Bench(root, args.workload, args.seed)
    os.makedirs(bench.graphs, exist_ok=True)
    # Children run in sessions of their own, so a terminated benchmark must
    # stop them itself: turn SIGTERM into an exit that runs the clean-up.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    tally = {"attempted": 0, "failed": 0, "wrong": 0}
    try:
        setups = []
        for _ in range(SETUP_REPS):
            took, manifest = bench.setup()
            setups.append(took)
        if args.trace:
            metrics = per_layer(bench, manifest, tally, args.seconds)
        else:
            phase = bench.loop(manifest["draws"], args.seconds)
            reports = bench.check_all(phase["outcomes"], tally)
            metrics = end_to_end(phase, reports, setups)
    finally:
        bench.stop_all()
        shutil.rmtree(bench.work, ignore_errors=True)
    print(json.dumps({
        "correct": tally["wrong"] == 0,
        "attempted": tally["attempted"],
        "failed": tally["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
