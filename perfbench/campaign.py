"""One cold campaign rep in a fresh process: the ``campaigns`` workload.

Usage (from the repository root, ``src`` on ``PYTHONPATH``)::

    python3 perfbench/campaign.py --seed 2021 --backend pool --out rep.json

The process imports what ``python -m repro`` imports, prints ``ready``
on stdout, then runs two campaigns inside the timed region: the
headline (a sweep, the Fig 10 case study and the headline renderers, on
the serial backend) and then the fleet (on a 2-worker pool with
``--backend pool``, in this process with ``--backend serial``).  It
writes their timings, resource usage, output digests and
structural-invariant failures to ``--out``.  With ``--trace 1`` it wraps
the layer functions first (see :mod:`layers`) and adds the per-layer
table and a span file.  Without ``--out`` it stops after printing
``ready``: a set-up probe.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import time
from dataclasses import replace
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import repro.cli  # noqa: E402,F401 - what a CLI run imports
from repro.cli import CASE_SCALES, FLEET_SCALES, SCALES  # noqa: E402
from repro.experiments import fig10, fleet, headline  # noqa: E402
from repro.experiments.config import CaseStudyConfig, SweepConfig  # noqa: E402
from repro.experiments.runner import run_sweep  # noqa: E402
from repro.experiments.store import sweep_to_json  # noqa: E402

import layers  # noqa: E402

#: Headline at a quarter of the library-default Monte-Carlo samples:
#: the same 80-cell grid, 128 rounds and profiler mix, so a rep takes
#: seconds and a run holds several cold reps.
HEADLINE_SWEEP = SweepConfig(num_codes=4, words_per_code=6)
HEADLINE_CASE = CaseStudyConfig(num_codes=2, words_per_stratum=4)
#: Workers of the ``pool`` backend: one per usable CPU of a 2-CPU host.
POOL_WORKERS = 2


def configs(scale: str, seed: int) -> dict:
    """The campaign configs a rep runs, derived only from the seed."""
    if scale == "bench":
        sweep, case, fleet_preset = HEADLINE_SWEEP, HEADLINE_CASE, FLEET_SCALES["full"]
    else:
        sweep, case, fleet_preset = SCALES["unit"], CASE_SCALES["unit"], FLEET_SCALES["unit"]
    return {
        "sweep": replace(sweep, seed=seed),
        "case": replace(case, seed=seed),
        "fleet": replace(fleet_preset, seed=seed),
    }


def fig10_word_runs(config: CaseStudyConfig) -> int:
    """Word-runs a Fig 10 case study simulates."""
    return (
        config.num_codes
        * (config.max_at_risk - 1)
        * config.words_per_stratum
        * len(config.probabilities)
        * len(config.profilers)
    )


def strip_seconds(document: dict) -> dict:
    """A sweep JSON document without its per-cell wall-clock ``seconds``."""
    for cell in document["cells"]:
        cell.pop("seconds", None)
    return document


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _monotone(series, rising: bool) -> bool:
    pairs = zip(series, series[1:])
    return all(b >= a for a, b in pairs) if rising else all(b <= a for a, b in pairs)


def check_sweep(sweep, config) -> list[str]:
    """Structural invariants of a sweep: grid, word counts, coverage."""
    failures = []
    grid = {
        (count, probability, name)
        for count in config.error_counts
        for probability in config.probabilities
        for name in config.profilers
    }
    if set(sweep.cells) != grid:
        failures.append(f"sweep has {len(sweep.cells)} cells, expected {len(grid)}")
    words = config.num_codes * config.words_per_code
    for key, cell in sorted(sweep.cells.items()):
        if len(cell.words) != words:
            failures.append(f"cell {key} has {len(cell.words)} words, expected {words}")
        for metrics in cell.words:
            series = (metrics.direct_identified, metrics.post_identified)
            if any(len(values) != config.num_rounds for values in series):
                failures.append(f"cell {key}: a word has the wrong round count")
                break
            if not all(_monotone(values, rising=True) for values in series):
                failures.append(f"cell {key}: coverage fell from one round to the next")
                break
    return failures


def check_case(result, config) -> list[str]:
    """Fig 10 invariants: full grid, one value per tick, BER never rising."""
    failures = []
    expected = {
        (probability, rber, name)
        for probability in config.probabilities
        for rber in config.rbers
        for name in config.profilers
    }
    for label, curves in (("before", result.before), ("after", result.after)):
        if set(curves) != expected:
            failures.append(f"fig10 {label} has {len(curves)} curves, expected {len(expected)}")
        for key, values in curves.items():
            if len(values) != len(result.ticks):
                failures.append(f"fig10 {label} {key} has {len(values)} ticks")
            elif not _monotone(values, rising=False):
                failures.append(f"fig10 {label} {key}: BER rose as coverage grew")
    if len(result.rounds_to_zero) != len(config.probabilities) * len(config.profilers):
        failures.append("fig10 rounds-to-zero grid is incomplete")
    return failures


def check_fleet(result, config) -> list[str]:
    """Fleet invariants: every chip present, bit accounting consistent."""
    failures = []
    if [chip.chip for chip in result.chips] != list(range(config.num_chips)):
        failures.append(f"fleet has {len(result.chips)} chips, expected {config.num_chips}")
    if result.quarantined or result.incomplete_chips:
        failures.append("fleet quarantined shards")
    for chip in result.chips:
        if chip.identified_bits + chip.missed_bits > chip.at_risk_bits or not (
            0.0 <= chip.ue_repaired <= chip.ue_unrepaired <= 1.0
        ):
            failures.append(f"chip {chip.chip}: inconsistent coverage or UE accounting")
            break
    return failures


def _cpu(usage) -> float:
    return usage.ru_utime + usage.ru_stime


def run_headline(cfg: dict) -> tuple[dict, callable]:
    sweep_config, case_config = cfg["sweep"], cfg["case"]
    start = time.perf_counter()
    sweep = run_sweep(sweep_config)
    middle = time.perf_counter()
    case = fig10.run(case_config)
    active = headline.active_speedups(sweep)
    text = headline.render(active=active, case_study=headline.case_study_speedups(case))
    end = time.perf_counter()
    stages = {"sweep_s": middle - start, "fig10_s": end - middle}

    def outputs() -> dict:
        document = strip_seconds(json.loads(sweep_to_json(sweep)))
        return {
            "word_runs": sum(len(cell.words) for cell in sweep.cells.values())
            + fig10_word_runs(case_config),
            "outputs": {
                "sweep_sha256": _digest(json.dumps(document, sort_keys=True)),
                "fig10_rendition": fig10.render(case),
                "headline_rendition": text,
            },
            "failures": check_sweep(sweep, sweep_config) + check_case(case, case_config),
            "active_fractions": {
                str(speedup.error_count): speedup.fraction for speedup in active
            },
        }

    return {"start": start, "end": end, "stages": stages}, outputs


def run_fleet(cfg: dict, backend: str) -> tuple[dict, callable]:
    config = cfg["fleet"]
    start = time.perf_counter()
    result = fleet.run(config, jobs=POOL_WORKERS if backend == "pool" else None)
    text = fleet.render(result)
    end = time.perf_counter()

    def outputs() -> dict:
        return {
            "word_runs": sum(chip.profiled_words for chip in result.chips),
            "outputs": {"fleet_rendition": text},
            "failures": check_fleet(result, config),
        }

    return {"start": start, "end": end}, outputs


def _usage() -> tuple:
    return resource.getrusage(resource.RUSAGE_SELF), resource.getrusage(resource.RUSAGE_CHILDREN)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=2021)
    parser.add_argument("--scale", choices=("bench", "smoke"), default="bench")
    parser.add_argument("--backend", choices=("serial", "pool"), default="serial",
                        help="where the fleet campaign runs; the headline is always serial")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None, help="result file (omit: set-up probe)")
    parser.add_argument("--spans", default=None, help="span file of a traced rep")
    args = parser.parse_args(argv)
    if args.out is None:
        print("ready", flush=True)
        return 0
    cfg = configs(args.scale, args.seed)
    tracer = None
    if args.trace:
        tracer = layers.Tracer()
        layers.install(tracer)
    print("ready", flush=True)

    self_before, children_before = _usage()
    headline_timing, headline_outputs = run_headline(cfg)
    self_middle, children_middle = _usage()
    fleet_timing, fleet_outputs = run_fleet(cfg, args.backend)
    self_after, children_after = _usage()

    start, end = headline_timing["start"], fleet_timing["end"]
    wall = end - start
    headline, fleet_part = headline_outputs(), fleet_outputs()
    # The pool figures cover the fleet stage, the only one a pool runs.
    fleet_wall = fleet_timing["end"] - fleet_timing["start"]
    parent_cpu = _cpu(self_after) - _cpu(self_middle)
    worker_cpu = _cpu(children_after) - _cpu(children_middle)
    workers = POOL_WORKERS if args.backend == "pool" else 1
    report = {
        "end": end,
        "wall_s": wall,
        "cpu_s": _cpu(self_after) - _cpu(self_before) + _cpu(children_after) - _cpu(children_before),
        # ru_maxrss is in KiB on Linux; a pool's children report their largest.
        "peak_rss_mb": max(self_after.ru_maxrss, children_after.ru_maxrss) / 1024,
        "stages": {**headline_timing["stages"], "fleet_s": fleet_wall},
        "pool": {
            "parent_cpu_s": parent_cpu,
            "worker_cpu_s": worker_cpu,
            "busy_ratio": (worker_cpu if workers > 1 else parent_cpu) / (workers * fleet_wall),
        },
        "word_runs": headline["word_runs"] + fleet_part["word_runs"],
        "outputs": {**headline["outputs"], **fleet_part["outputs"]},
        "failures": headline["failures"] + fleet_part["failures"],
        "active_fractions": headline["active_fractions"],
    }
    if tracer is not None:
        document = tracer.dump(args.spans) if args.spans else tracer.document()
        report["layers"] = layers.span_metrics(document, start, end)
    Path(args.out).write_text(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
