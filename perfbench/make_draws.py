"""Remake ``draws.json``, the fixed list of search-heavy draws.

Run from the repository root::

    PYTHONPATH=src python3 perfbench/make_draws.py            # the whole list
    PYTHONPATH=src python3 perfbench/make_draws.py --costs    # re-time it only

The list is made once and committed, so the inputs of the search
workloads do not move when a later change makes the search itself
cheaper.  Each candidate is a graph of the paper's Section 4.1 workload
at the Section 6 high-CCR point (``paper`` profile, CCR 2.0), one
generator seed, solved exactly on ``m`` processors with one selection
rule.  A candidate joins the list when the default search generates
between ``FLOOR`` and ``CEILING`` vertices, measured at the commit that
made the list; each workload then takes its own band of the list (see
``inputs.py``).  The SHA-256 of each graph file is kept so that set-up
can refuse a generator whose output has drifted.

Each entry a workload's band takes is then timed the way that workload
solves it (``solve_seconds``), best of ``REPEATS``, and set-up
stratifies the band by that time.  Vertex counts predict it poorly:
across the 10k-30k band a hooked array solve took 0.36-3.6 s, and within
a window of 30 entries of like explored count its time still spread
25-40% (IQR over median).  Strata of generated vertices let a run's
median solve time move 14% with the seed alone; strata of time, under
5%.  The largest frontier of each entry's search is recorded too, since
it sets a CLI process's memory.  The times are those of the machine that
made the list and serve only to rank entries; ``--costs`` re-times an
existing list (and recounts its frontiers) without searching the
candidates again.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import tempfile
import time

from repro.core.engine import BranchAndBound, SolveStatus
from repro.core.params import BnBParameters
from repro.core.resources import ResourceBounds
from repro.core.selection import SELECTION_RULES
from repro.io.json_io import save_graph
from repro.model.compile import compile_problem
from repro.model.platform import shared_bus_platform
from repro.workload.generator import generate_task_graph
from repro.workload.suites import spec_for_profile

from inputs import BANDS
from probe import cli_solve

PROFILE = "paper"
CCR = 2.0
SEEDS = range(0, 1000)
PROCESSORS = (2, 3, 4)
SELECTIONS = ("LIFO", "LLB")
FLOOR = 10_000
CEILING = 120_000
#: Larger searches are cut here: they are outside the band anyway, and
#: some high-CCR draws would otherwise grow past the memory of a small box.
CAP = CEILING + 1
REPEATS = 2

HERE = os.path.dirname(os.path.abspath(__file__))


def graph_text(seed: int) -> tuple[object, str]:
    """The generated graph and the exact file text ``save_graph`` writes."""
    graph = generate_task_graph(spec_for_profile(PROFILE, ccr=CCR), seed=seed)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "g.json")
        save_graph(graph, path)
        with open(path) as fh:
            return graph, fh.read()


def solve_seconds(cost: str, problem, selection: str) -> float:
    """Best-of-``REPEATS`` time of the solve a workload runs on an entry.

    ``array_hooked_s`` is ``repro solve --engine array --selection S``: the
    CLI's hooks move the array engine onto its numpy batch loop.
    ``object_s`` is the default object engine with no hooks, the search a
    ``ParallelBnB`` or cluster worker runs.
    """
    params = BnBParameters(selection=SELECTION_RULES[selection](),
                           engine="array" if cost == "array_hooked_s" else "object")
    best = float("inf")
    for _ in range(REPEATS):
        t = time.perf_counter()
        if cost == "array_hooked_s":
            cli_solve(problem, params)
        else:
            BranchAndBound(params).solve(problem)
        best = min(best, time.perf_counter() - t)
    return best


def add_costs(draws: list[dict]) -> None:
    """Time every entry for each band that takes it (see ``inputs.BANDS``),
    and record the largest frontier of its exact search."""
    graphs: dict[int, object] = {}
    for d in draws:
        graph = graphs.get(d["seed"])
        if graph is None:
            graph = graphs[d["seed"]] = graph_text(d["seed"])[0]
        problem = compile_problem(graph, shared_bus_platform(d["m"]))
        d["peak_active"] = BranchAndBound(BnBParameters(
            selection=SELECTION_RULES[d["selection"]](), engine="array",
        )).solve(problem).stats.peak_active
        for cost in sorted({band[4] for band in BANDS.values()
                            if band[1] in (None, d["selection"])
                            and band[2] <= d["generated"] <= band[3]}):
            d[cost] = round(solve_seconds(cost, problem, d["selection"]), 4)
            print(f"seed={d['seed']} m={d['m']} {d['selection']} {cost}={d[cost]}",
                  file=sys.stderr)


def write(doc: dict) -> None:
    with open(os.path.join(HERE, "draws.json"), "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def main(argv: list[str]) -> int:
    if argv == ["--costs"]:
        with open(os.path.join(HERE, "draws.json")) as fh:
            doc = json.load(fh)
        add_costs(doc["draws"])
        write(doc)
        return 0
    draws = []
    for seed in SEEDS:
        graph, text = graph_text(seed)
        digest = hashlib.sha256(text.encode()).hexdigest()
        for m in PROCESSORS:
            problem = compile_problem(graph, shared_bus_platform(m))
            for selection in SELECTIONS:
                params = BnBParameters(
                    selection=SELECTION_RULES[selection](),
                    engine="array",
                    resources=ResourceBounds(max_vertices=CAP),
                )
                result = BranchAndBound(params).solve(problem)
                generated = result.stats.generated
                if result.status is SolveStatus.OPTIMAL and FLOOR <= generated <= CEILING:
                    draws.append(
                        {"seed": seed, "m": m, "selection": selection,
                         "generated": generated, "explored": result.stats.explored,
                         "sha256": digest}
                    )
                    print(f"seed={seed} m={m} {selection} generated={generated}",
                          file=sys.stderr)
    doc = {
        "rule": {
            "profile": PROFILE, "ccr": CCR,
            "seeds": [SEEDS.start, SEEDS.stop - 1],
            "processors": list(PROCESSORS), "selections": list(SELECTIONS),
            "generated_floor": FLOOR, "generated_ceiling": CEILING,
        },
        "draws": draws,
    }
    print(f"{len(draws)} draws", file=sys.stderr)
    add_costs(draws)
    write(doc)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
