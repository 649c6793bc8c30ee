"""Layer mix of the ``headline`` stages at bench scale and at library-default scale.

Usage (from the repository root, ``src`` on ``PYTHONPATH``)::

    python3 perfbench/mix.py --seed 2021

Each scale runs cold in its own spawned process with the layers traced
(:mod:`layers`).  For each stage (``run_sweep``, then ``fig10.run``) it
prints the self time of every layer as a share of the stage's traced
wall, the call counts per word-run and the memo-cache hit ratios, so
the bench scale of :mod:`campaign` can be checked against the
library-default campaign it stands in for.
"""

from __future__ import annotations

import argparse
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from multiprocessing import get_context
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

#: Layers whose self-time shares the report lists, in this order.
SHOWN = (
    "profiling.word", "profiling.craft", "ecc.encode", "analysis.crafted",
    "analysis.decode", "profiling.observe", "experiments.metrics",
    "memory.patterns", "analysis.ber", "analysis.ground_truth", "analysis.indirect",
)


def _own(document: dict) -> dict[str, list]:
    """Layer -> [calls, self seconds] summed over parents."""
    totals: dict[str, list] = {}
    for name, _parent, calls, _total, own in document["aggregates"]:
        entry = totals.setdefault(name, [0, 0.0])
        entry[0] += calls
        entry[1] += own
    return totals


def _stage(before: dict, after: dict, wall: float, word_runs: int) -> dict:
    """One stage's table: the difference of two cumulative documents."""
    first, second = _own(before), _own(after)
    table = {}
    for name, (calls, own) in second.items():
        calls -= first.get(name, [0, 0.0])[0]
        own -= first.get(name, [0, 0.0])[1]
        table[name] = {"share": own / wall, "calls_per_word_run": calls / word_runs}
    for name, stats in after["caches"].items():
        old = before["caches"][name]
        hits = sum(stats[key] - old[key] for key in ("hits", "shared_hits"))
        lookups = hits + stats["misses"] - old["misses"]
        table.setdefault(name, {})["hit_ratio"] = hits / lookups if lookups else None
    return {"wall_s": wall, "word_runs": word_runs, "layers": table}


def measure(scale: str, seed: int) -> dict:
    """Trace one headline campaign (in this process) and split it by stage."""
    import campaign
    import layers
    from repro.experiments import fig10
    from repro.experiments.config import CaseStudyConfig, SweepConfig
    from repro.experiments.runner import run_sweep

    if scale == "bench":
        cfg = campaign.configs("bench", seed)
    else:
        cfg = {"sweep": SweepConfig(seed=seed), "case": CaseStudyConfig(seed=seed)}
    tracer = layers.Tracer()
    layers.install(tracer)
    empty = tracer.document()
    start = time.perf_counter()
    sweep = run_sweep(cfg["sweep"])
    middle = time.perf_counter()
    after_sweep = tracer.document()
    fig10.run(cfg["case"])
    end = time.perf_counter()
    sweep_runs = sum(len(cell.words) for cell in sweep.cells.values())
    return {
        "sweep": _stage(empty, after_sweep, middle - start, sweep_runs),
        "fig10": _stage(after_sweep, tracer.document(), end - middle,
                        campaign.fig10_word_runs(cfg["case"])),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=2021)
    args = parser.parse_args(argv)
    tables = {}
    for scale in ("bench", "default"):
        # A fresh spawned process per scale, so neither sees the other's caches.
        with ProcessPoolExecutor(1, mp_context=get_context("spawn")) as pool:
            tables[scale] = pool.submit(measure, scale, args.seed).result()
    for stage in ("sweep", "fig10"):
        bench, default = tables["bench"][stage], tables["default"][stage]
        print(f"{stage}: bench {bench['word_runs']} word-runs in {bench['wall_s']:.2f} s traced; "
              f"default {default['word_runs']} in {default['wall_s']:.2f} s")
        print(f"  {'layer':<22} {'self share':>21} {'calls/word-run':>23} {'hit ratio':>15}")
        for name in SHOWN:
            row = [bench["layers"].get(name, {}), default["layers"].get(name, {})]

            def pair(key, fmt):
                return " / ".join("-" if r.get(key) is None else format(r[key], fmt) for r in row)

            print(f"  {name:<22} {pair('share', '9.3f'):>21} {pair('calls_per_word_run', '10.2f'):>23} "
                  f"{pair('hit_ratio', '6.3f'):>15}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
