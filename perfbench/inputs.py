"""Set-up step: write one run's input graph files from the seed.

Usage (from the repository root, with ``src`` on ``PYTHONPATH``)::

    python3 perfbench/inputs.py sweep SEED OUTDIR
    python3 perfbench/inputs.py search SEED OUTDIR WORKLOAD

Prints a JSON manifest of the draws.  The program sees only the graph
files written here.

``sweep``
    Fresh draws of the paper's Section 4.1 workload (``paper`` profile,
    CCR 1.0), four per processor count m in {2, 3, 4}, interleaved by m.
    A draw is kept when the search settles it at the root (the initial
    EDF bound meets the root lower bound, so one vertex is generated);
    the draws the search must explore belong to the search workloads.
    The check runs the in-process array engine with no hooks, which
    builds the native driver into ``REPRO_NATIVE_CACHE``.
``search``
    The workload's band of ``draws.json`` (``BANDS``) without the draws
    whose frontier outgrows ``PEAK_CAP``, sorted by the time the list
    recorded for the workload's own solve, its cheapest and dearest tenth
    dropped (``TRIM``), and cut into equal strata; one draw from each
    stratum, redrawn until the set's mean generated count is within
    ``GENERATED_SLACK`` of the band's, then shuffled.  Every run thus
    holds the same spread of solve time, search cost and memory, whatever
    the seed.  Each graph file is checked against the digest the list
    recorded.  One bare array-engine solve builds the native driver.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import sys

from repro.core.engine import BranchAndBound, SolveStatus
from repro.core.params import BnBParameters
from repro.core.resources import ResourceBounds
from repro.io.json_io import save_graph
from repro.model.compile import compile_problem
from repro.model.platform import shared_bus_platform
from repro.workload.generator import generate_task_graph
from repro.workload.suites import spec_for_profile

HERE = os.path.dirname(os.path.abspath(__file__))
#: Workload -> (strata, selection or None for any, generated-vertex band,
#: the recorded solve time the band is ranked by; see make_draws.py).
#: The parallel and cluster workloads run the default parameters, so they
#: take entries listed with the default selection, LIFO.  A parallel solve
#: of a 10k-30k draw takes about 0.1 s, mostly pool start-up, and its wall
#: time then swings with the host's load far more than the search does;
#: the larger band keeps it about a quarter second, search-dominated.
BANDS = {
    "cli-search": (8, None, 10_000, 30_000, "array_hooked_s"),
    "parallel-throughput": (16, "LIFO", 40_000, 120_000, "object_s"),
    "cluster-local": (8, "LIFO", 10_000, 30_000, "object_s"),
}
#: Share of a band dropped at each end of its time ranking: the dearest
#: entries of the 10k-30k band take up to twice as long as the next, and
#: one of them in a run would move its throughput by a tenth.
TRIM = 0.1
#: Largest frontier (``peak_active``) of a draw a search workload takes.  A
#: CLI process holds about 42 MiB plus 1 KiB per frontier vertex, and the
#: LLB draws' frontiers reach 19k: one such draw sets a run's
#: ``peak_rss_mb``, which then spread 21% (IQR over median) between five
#: seeds.  LIFO frontiers stay under 50, so the cap takes only LLB draws.
PEAK_CAP = 3_000
#: A run's set is redrawn until its mean generated count is within this
#: share of the band's: with strata of time alone, ``vertices_per_solve``
#: spread 11% between five seeds, against a bound of 15%.
GENERATED_SLACK = 0.02
SET_TRIES = 10_000
SWEEP_PER_M = 4
#: Fresh draws tried per m before set-up gives up: about three in four
#: are settled at the root, so this is only reached if the program broke.
SWEEP_TRIES = 200


def write_graph(graph, path: str) -> str:
    save_graph(graph, path)
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def sweep(seed: int, out: str) -> dict:
    rng = random.Random(f"cli-sweep:{seed}")
    spec = spec_for_profile("paper")
    params = BnBParameters(engine="array", resources=ResourceBounds(max_vertices=2))
    kept: dict[int, list[dict]] = {}
    tried = 0
    for m in (2, 3, 4):
        kept[m] = []
        tries = 0
        while len(kept[m]) < SWEEP_PER_M:
            if tries == SWEEP_TRIES:
                raise SystemExit(f"fewer than {SWEEP_PER_M} of {SWEEP_TRIES} draws on "
                                 f"m={m} settle at the root")
            tries += 1
            gen_seed = rng.randrange(1 << 30)
            graph = generate_task_graph(spec, seed=gen_seed)
            result = BranchAndBound(params).solve(
                compile_problem(graph, shared_bus_platform(m))
            )
            tried += 1
            if result.status is SolveStatus.OPTIMAL and result.stats.generated == 1:
                path = os.path.join(out, f"sweep-m{m}-{gen_seed}.json")
                write_graph(graph, path)
                kept[m].append({"path": path, "m": m, "selection": "LIFO",
                                "seed": gen_seed, "ccr": 1.0})
    draws = [kept[m][i] for i in range(SWEEP_PER_M) for m in (2, 3, 4)]
    return {"draws": draws, "warmup": 0, "tried": tried, "root_settled": len(draws)}


def pick(doc: dict, workload: str, seed: int) -> list[dict]:
    """The run's list entries, cheapest stratum first (see the module doc)."""
    strata, selection, lo, hi, cost = BANDS[workload]
    listed = sorted(
        (d for d in doc["draws"]
         if selection in (None, d["selection"]) and lo <= d["generated"] <= hi
         and d["peak_active"] <= PEAK_CAP),
        key=lambda d: (d[cost], d["seed"], d["m"], d["selection"]),
    )
    cut = round(TRIM * len(listed))
    listed = listed[cut:len(listed) - cut]
    bounds = [round(i * len(listed) / strata) for i in range(strata + 1)]
    layers = [listed[a:b] for a, b in zip(bounds, bounds[1:])]
    target = sum(sum(d["generated"] for d in layer) / len(layer) for layer in layers)
    rng = random.Random(f"search:{seed}")
    for _ in range(SET_TRIES):
        picks = [rng.choice(layer) for layer in layers]
        if abs(sum(d["generated"] for d in picks) / target - 1) <= GENERATED_SLACK:
            return picks
    raise SystemExit(f"no set of {workload} draws within {GENERATED_SLACK:.0%} of the "
                     f"band's mean generated count after {SET_TRIES} tries")


def search(seed: int, out: str, workload: str) -> dict:
    with open(os.path.join(HERE, "draws.json")) as fh:
        doc = json.load(fh)
    rule = doc["rule"]
    picks = pick(doc, workload, seed)
    warmup = picks[0]
    rng = random.Random(f"search-order:{seed}")
    rng.shuffle(picks)
    spec = spec_for_profile(rule["profile"], ccr=rule["ccr"])
    draws = []
    for d in picks:
        path = os.path.join(out, f"search-{d['seed']}.json")
        graph = generate_task_graph(spec, seed=d["seed"])
        digest = write_graph(graph, path)
        if digest != d["sha256"]:
            raise SystemExit(
                f"graph for seed {d['seed']} differs from draws.json; the generator "
                "changed, so remake the list with perfbench/make_draws.py"
            )
        draws.append({"path": path, "m": d["m"], "selection": d["selection"],
                      "seed": d["seed"], "ccr": rule["ccr"],
                      "listed_explored": d["explored"]})
    BranchAndBound(BnBParameters(engine="array")).solve(
        compile_problem(graph, shared_bus_platform(draws[-1]["m"]))
    )
    return {"draws": draws, "warmup": picks.index(warmup), "tried": len(draws),
            "root_settled": 0}


def main(argv: list[str]) -> int:
    kind, seed, out = argv[0], int(argv[1]), argv[2]
    os.makedirs(out, exist_ok=True)
    if kind == "sweep":
        manifest = sweep(seed, out)
    else:
        manifest = search(seed, out, argv[3])
    print(json.dumps(manifest))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
