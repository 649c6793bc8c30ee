"""The repository's benchmark: cold HARP campaigns, end to end and per layer.

Usage, from the repository root::

    python3 perfbench/run.py --workload {campaigns,service} \\
        --seed N --seconds S --trace {0,1}

Every rep runs in a fresh process with cold caches, the way a CLI user
pays for it: ``campaigns`` reps are ``campaign.py`` children (the
headline campaign, then the fleet campaign), ``service`` reps are cold
``repro serve`` daemons under a closed loop (``service.py``).  Reps
repeat while the next one fits in ``--seconds`` (at least
:data:`MIN_REPS`), and each timing is the median over reps.  ``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` alternates traced and untraced reps and prints the
per-layer table instead.  Every rep passes the correctness gate, and
one smoke-scale campaign at :data:`REFERENCE_SEED` is checked against
its committed reference: the last stdout line is
``{"correct", "attempted", "failed", "metrics"}``.
See ``perfbench/README.md`` for the metrics and how to read them.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import layers  # noqa: E402
import service  # noqa: E402

WORKLOADS = ("campaigns", "service")
MIN_REPS = 3
#: Import-only spawns per run, on top of each rep's own spawn.
SETUP_PROBES = 4
#: The seed of the committed references in ``reference/``.
REFERENCE_SEED = 2021
#: Seconds one campaign child may take.
REP_TIMEOUT_S = 60.0
#: No rep starts after this many seconds, so a run ends well within 180 s.
RUN_LIMIT_S = 100.0
#: The backend whose reps give each workload's end-to-end numbers.
PRIMARY = {"campaigns": "pool", "service": "daemon"}
#: Trace-mode rep cycles: (backend, traced).  Traced reps run the fleet
#: serially because wrappers in the parent cannot see into pool workers.
TRACE_PLAN = {
    "campaigns": (("serial", True), ("serial", False), ("pool", False)),
    "service": (("daemon", True), ("daemon", False)),
}


def declared_units(kind: str) -> dict[str, str]:
    """Name -> unit of the ``end_to_end`` or ``per_layer`` metrics of BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {metric["name"]: metric["unit"] for metric in spec[kind]}


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


# ----------------------------------------------------------------------
# Environment
# ----------------------------------------------------------------------


def host_record(cpus: int) -> dict:
    """What the numbers depend on: host, versions, code, cache state."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        probe = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        )
        commit = probe.stdout.strip() or None
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "usable_cpus": cpus,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "REPRO_GF2_TIER": os.environ.get("REPRO_GF2_TIER", "(unset: auto)"),
        "commit": commit,
        "src_sha256": digest.hexdigest()[:16],
        "cache": "cold: every rep is a fresh process, no shared cache",
    }


def child_env(work: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    tmp = work / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env["TMPDIR"] = str(tmp)
    return env


# ----------------------------------------------------------------------
# campaigns reps
# ----------------------------------------------------------------------


def campaign_rep(args, env: dict, work: Path, index, backend: str, traced: bool) -> dict:
    """One campaign child; returns its report plus set-up and job latency."""
    out = work / f"{args.workload}-rep{index}.json"
    out.unlink(missing_ok=True)
    command = [
        sys.executable, str(BENCH / "campaign.py"),
        "--seed", str(args.seed), "--scale", args.scale, "--backend", backend,
        "--trace", str(int(traced)), "--out", str(out),
    ]
    if traced:
        command += ["--spans", str(work / f"{args.workload}-spans-rep{index}.json")]
    rep = {"backend": backend, "traced": traced}
    with open(work / f"{args.workload}-rep{index}.stderr", "w") as errors:
        spawned = time.perf_counter()
        process = subprocess.Popen(
            command, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=errors, text=True
        )
        try:
            line = service.read_line(process.stdout, spawned + REP_TIMEOUT_S)
            rep["setup_s"] = time.perf_counter() - spawned
            process.communicate(timeout=max(1.0, spawned + REP_TIMEOUT_S - time.perf_counter()))
        except subprocess.TimeoutExpired:
            process.kill()
            process.communicate()
    if line.strip() != "ready" or process.returncode != 0 or not out.exists():
        tail = (work / f"{args.workload}-rep{index}.stderr").read_text()[-400:]
        rep["error"] = f"campaign child exited {process.returncode}: {tail.strip()}"
        return rep
    rep.update(json.loads(out.read_text()))
    rep["job_ms"] = 1000 * (rep["end"] - spawned)
    return rep


def setup_probe(env: dict) -> float:
    spawned = time.perf_counter()
    process = subprocess.Popen(
        [sys.executable, str(BENCH / "campaign.py")], cwd=ROOT, env=env,
        stdout=subprocess.PIPE, text=True,
    )
    try:
        process.communicate(timeout=REP_TIMEOUT_S)
    finally:
        if process.poll() is None:
            process.kill()
            process.communicate()
    return time.perf_counter() - spawned


def reference_path(workload: str, scale: str) -> Path:
    return BENCH / "reference" / f"{workload}-{scale}.json"


def committed_outputs(workload: str, scale: str, seed: int) -> dict | None:
    """The committed reference outputs for this campaign, if there are any."""
    path = reference_path(workload, scale)
    if not path.exists():
        return None
    document = json.loads(path.read_text())
    return document["outputs"] if document["seed"] == seed else None


def reference_check(args, env: dict, work: Path) -> list[str]:
    """Run the smoke campaign at :data:`REFERENCE_SEED` once, outside the
    timed region, and compare it with its committed reference.  This ties
    a run on any seed to outputs recorded from a known-good program."""
    check = argparse.Namespace(**{**vars(args), "seed": REFERENCE_SEED, "scale": "smoke"})
    rep = campaign_rep(check, env, work, "ref", PRIMARY[args.workload], False)
    name = reference_path(args.workload, "smoke").name
    if "error" in rep:
        return [f"reference rep: {rep['error']}"]
    problems = [f"reference rep: {failure}" for failure in rep["failures"]]
    if rep["outputs"] != committed_outputs(args.workload, "smoke", REFERENCE_SEED):
        problems.append(f"reference rep (seed {REFERENCE_SEED}, smoke): outputs differ "
                        f"from the reference {name}")
    return problems


def gate_campaigns(args, reps: list[dict]) -> tuple[int, list[str]]:
    """Failed reps and why: crashes, broken invariants, outputs that differ
    from the first rep's (nondeterminism, or tracing changing a result)
    or, on the reference seed, from the committed reference."""
    path = reference_path(args.workload, args.scale)
    reference = committed_outputs(args.workload, args.scale, args.seed)
    first = next((rep["outputs"] for rep in reps if "outputs" in rep), None)
    failed, notes = 0, []
    for index, rep in enumerate(reps):
        problems = [rep["error"]] if "error" in rep else list(rep["failures"])
        if "outputs" in rep and rep["outputs"] != first:
            problems.append("outputs differ from the first rep's")
        if "outputs" in rep and reference is not None and rep["outputs"] != reference:
            problems.append(f"outputs differ from the reference {path.name}")
        if problems:
            failed += 1
            notes += [f"rep {index} ({'traced' if rep['traced'] else 'untraced'} "
                      f"{rep['backend']}): {problem}" for problem in problems]
    if not failed:
        notes.append(f"all {len(reps)} reps hold the invariants and agree"
                     + (f"; they match the reference {path.name}" if reference else ""))
    return failed, notes


def campaign_metrics(reps: list[dict], setups: list[float]) -> tuple[dict, dict]:
    """End-to-end metrics (medians over reps) plus report-only extras."""
    metrics = {
        "setup_s": median(setups),
        "wall_s": median(rep["wall_s"] for rep in reps),
        "cpu_s": median(rep["cpu_s"] for rep in reps),
        "peak_rss_mb": median(rep["peak_rss_mb"] for rep in reps),
        "word_runs_per_s": median(rep["word_runs"] / rep["wall_s"] for rep in reps),
        "job_p50_ms": median(rep["job_ms"] for rep in reps),
    }
    extras = {
        f"{stage} (s)": median(rep["stages"][stage] for rep in reps)
        for stage in reps[0]["stages"]
    } if reps else {}
    if reps:
        extras["word runs per rep"] = median(rep["word_runs"] for rep in reps)
    return metrics, extras


# ----------------------------------------------------------------------
# service reps
# ----------------------------------------------------------------------


def verify_service(outcomes: list[dict], check: bool) -> tuple[list[str], dict[int, int]]:
    """Count each done job's word runs; with ``check``, also compare the
    first job of each kind with a serial in-process run."""
    from campaign import fig10_word_runs, strip_seconds
    from repro.experiments import fig10, fleet, scheduler
    from repro.experiments.runner import run_sweep
    from repro.experiments.store import sweep_to_json

    problems: list[str] = []
    word_runs: dict[int, int] = {}
    checked: set[str] = set()
    for index, outcome in enumerate(outcomes):
        if outcome["state"] != "done" or outcome["result"] is None:
            continue
        spec = scheduler.parse_job_spec(outcome["spec"])
        config = scheduler.job_config(spec)
        result = outcome["result"]
        kind = spec["kind"]
        if kind == "sweep":
            word_runs[index] = sum(len(cell["words"]) for cell in result["sweep"]["cells"])
        elif kind == "fig10":
            word_runs[index] = fig10_word_runs(config)
        else:
            word_runs[index] = sum(
                len(fleet.profiled_words(fleet.chip_faults(config, chip)))
                for chip in range(config.num_chips)
            )
        if not check or kind in checked:
            continue
        checked.add(kind)
        if kind == "sweep":
            sweep = run_sweep(config)
            module = scheduler._SWEEP_EXHIBITS[spec["exhibit"]]
            same = (
                module.render(module.from_sweep(sweep)) == result.get("rendition")
                and strip_seconds(json.loads(sweep_to_json(sweep)))
                == strip_seconds(result["sweep"])
            )
        elif kind == "fig10":
            same = fig10.render(fig10.run(config)) == result.get("rendition")
        else:
            same = fleet.render(fleet.run(config)) == result.get("rendition")
        if not same:
            problems.append(f"job {index} ({kind}) differs from a serial in-process run")
    return problems, word_runs


def service_rep(args, env: dict, work: Path, index: int, backend: str, traced: bool) -> dict:
    """Rep ``index`` serves its own slice of the seeded job list."""
    per_rep = service.JOBS_PER_REP if args.scale == "bench" else 6
    specs = service.job_specs(args.seed, per_rep * (index + 1))[per_rep * index:]
    spans = work / f"service-spans-rep{index}.json" if traced else None
    try:
        rep = service.run_rep(ROOT, work, env, specs, spans)
    except RuntimeError as error:
        rep = {"error": str(error)}
    rep.update(backend=backend, traced=traced, spans=spans)
    return rep


def gate_service(reps: list[dict]) -> tuple[int, int, list[str]]:
    attempted = failed = 0
    notes: list[str] = []
    checked = False
    for index, rep in enumerate(reps):
        if "error" in rep:
            attempted += 1
            failed += 1
            notes.append(f"rep {index}: {rep['error']}")
            continue
        problems, word_runs = verify_service(rep["outcomes"], check=not checked)
        checked = True
        bad = [i for i, outcome in enumerate(rep["outcomes"]) if outcome["state"] != "done"]
        rep["word_runs"] = sum(word_runs.values())
        attempted += len(rep["outcomes"]) + len(rep["http"]["latencies"])
        failed += len(bad) + len(problems) + rep["http"]["errors"]
        notes += [f"rep {index}: job {i} ended {rep['outcomes'][i]['state']}" for i in bad]
        notes += [f"rep {index}: {problem}" for problem in problems]
    if not failed:
        notes.append("every job ended done; the first sweep, fleet and fig10 job "
                      "match a serial in-process run")
    return attempted, failed, notes


def service_metrics(reps: list[dict]) -> tuple[dict, dict]:
    latencies = [o["latency_s"] * 1000 for rep in reps for o in rep["outcomes"]]
    p90 = layers.percentile(latencies, 0.90)
    metrics = {
        "setup_s": median(rep["setup_s"] for rep in reps),
        "wall_s": median(rep["wall_s"] for rep in reps),
        "cpu_s": median(rep["cpu_s"] for rep in reps),
        "peak_rss_mb": median(rep["peak_rss_mb"] for rep in reps),
        "word_runs_per_s": median(rep["word_runs"] / rep["wall_s"] for rep in reps),
        "job_p50_ms": median(latencies),
    }
    extras = {
        "jobs_per_s": median(len(rep["outcomes"]) / rep["wall_s"] for rep in reps),
        "job_p90_ms": p90,
        "jobs beyond p90": sum(1 for value in latencies if value > p90),
        "jobs": len(latencies),
    }
    return metrics, extras


def service_layers(plain: list[dict]) -> dict:
    """Fleet snapshot, scheduler records and client HTTP of untraced reps."""
    records = [o["record"] for rep in plain for o in rep["outcomes"] if "record" in o]
    waits = [1000 * (r["started"] - r["created"]) for r in records if r.get("started")]
    runs = [1000 * (r["finished"] - r["started"]) for r in records if r.get("finished")]
    http = [1000 * value for rep in plain for value in rep["http"]["latencies"]]
    jobs = [o for rep in plain for o in rep["outcomes"]]
    return {
        "backends.fleet.chunks": median(rep["fleet"]["chunks"]["done"] for rep in plain),
        "backends.fleet.requeues": median(rep["fleet"]["retries"] for rep in plain),
        "backends.fleet.quarantined": median(len(rep["fleet"]["quarantined"]) for rep in plain),
        "scheduler.queue_wait_p50_ms": median(waits),
        "scheduler.run_p50_ms": median(runs),
        "service.http.requests": median(len(rep["http"]["latencies"]) for rep in plain),
        "service.http.errors": sum(rep["http"]["errors"] for rep in plain),
        "service.http.p50_ms": median(http),
        "service.http.p99_ms": layers.percentile(http, 0.99),
        "service.http.polls_per_job": sum(o["polls"] for o in jobs) / len(jobs) if jobs else 0,
    }


# ----------------------------------------------------------------------
# Per-layer table
# ----------------------------------------------------------------------


def traced_layers(traced: list[dict]) -> dict:
    """Median of each span metric over the traced reps."""
    tables = []
    for rep in traced:
        if "layers" in rep:
            tables.append(rep["layers"])
        elif rep.get("spans") is not None and Path(rep["spans"]).exists():
            document = json.loads(Path(rep["spans"]).read_text())
            tables.append(layers.span_metrics(document, rep["start"], rep["end"]))
    return {key: median(table[key] for table in tables) for key in (tables[0] if tables else {})}


def layer_table(workload: str, reps: list[dict]) -> tuple[dict, dict]:
    """The per-layer table, plus the walls its coverage and overhead rest on."""
    ok = [rep for rep in reps if "error" not in rep]
    traced = [rep for rep in ok if rep["traced"]]
    plain = [rep for rep in ok if not rep["traced"]]
    table = traced_layers(traced)
    if workload == "service" and plain:
        table.update(service_layers(plain))
    pool = [rep for rep in plain if rep["backend"] == PRIMARY[workload]]
    for key in ("parent_cpu_s", "worker_cpu_s", "busy_ratio"):
        table[f"backends.pool.{key}"] = median(rep["pool"][key] for rep in pool)
    extras = {}
    if traced:
        backend = traced[0]["backend"]
        traced_wall = median(rep["wall_s"] for rep in traced)
        plain_wall = median(rep["wall_s"] for rep in plain if rep["backend"] == backend)
        table["trace.overhead_s"] = traced_wall - plain_wall
        extras = {f"traced {backend} wall_s": traced_wall, f"untraced {backend} wall_s": plain_wall}
    return table, extras


# ----------------------------------------------------------------------
# Report
# ----------------------------------------------------------------------


def print_report(args, host: dict, reps: list[dict], metrics: dict, units: dict,
                 extras: dict, notes: list[str], attempted: int, failed: int) -> None:
    kinds = {}
    for rep in reps:
        label = f"{'traced' if rep['traced'] else 'untraced'} {rep['backend']}"
        kinds[label] = kinds.get(label, 0) + 1
    print(f"perfbench {args.workload} · seed {args.seed} · scale {args.scale} · "
          f"trace {args.trace} · {len(reps)} cold reps "
          f"({', '.join(f'{n} {k}' for k, n in kinds.items())})")
    print("host " + json.dumps(host))
    width = max(len(name) for name in metrics)
    for name, value in metrics.items():
        print(f"  {name:<{width}}  {value:>14.6g}  {units[name]}")
    for name, value in extras.items():
        print(f"  {name:<{width}}  {value:>14.6g}  (report only)")
    print(f"  {'error_rate':<{width}}  {failed / attempted if attempted else 1.0:>14.6g}  "
          f"ratio ({failed} failed of {attempted} attempted)")
    for note in notes:
        print(note if note.startswith("info:") else f"gate: {note}")


def active_fraction_lines(reps: list[dict]) -> list[str]:
    """HARP's reproduced active-phase fractions beside the paper's (info only)."""
    from repro.experiments.headline import PAPER_ACTIVE_FRACTIONS

    fractions = next((rep["active_fractions"] for rep in reps if "active_fractions" in rep), {})
    parts = []
    for count, paper in PAPER_ACTIVE_FRACTIONS.items():
        value = fractions.get(str(count))
        parts.append(f"{count} errors {'n/a' if value is None else f'{value:.1%}'} "
                     f"(paper {paper:.1%})")
    return ["info: HARP active-phase fraction vs best baseline at p=50%: " + "; ".join(parts)]


# ----------------------------------------------------------------------
# Driver
# ----------------------------------------------------------------------


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("bench", "smoke"), default="bench",
                        help="smoke: unit-sized inputs for the self-tests")
    parser.add_argument("--write-reference", action="store_true",
                        help="record this run's outputs as the reference for its seed")
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    cpus = len(os.sched_getaffinity(0))
    if args.workload == "campaigns" and cpus < 2:
        print(f"perfbench: campaigns is INVALID on this host: {cpus} usable CPU(s) < 2, so a "
              "2-worker pool would run in-process; no number reported", file=sys.stderr)
        return 3
    work = BENCH / ".work"
    env = child_env(work)
    host = host_record(cpus)
    setup_probe(env)  # warm the bytecode and page caches; not measured
    probes = SETUP_PROBES if args.trace == 0 and args.workload != "service" else 0
    setups = [setup_probe(env) for _ in range(probes)]
    plan = TRACE_PLAN[args.workload] if args.trace else ((PRIMARY[args.workload], False),)

    run_one = service_rep if args.workload == "service" else campaign_rep
    reps: list[dict] = []
    durations: list[float] = []
    start = time.perf_counter()
    while time.perf_counter() - start < RUN_LIMIT_S and (
        len(reps) < max(MIN_REPS, len(plan))
        # Start another rep only if a typical one ends within --seconds.
        or time.perf_counter() - start + median(durations) <= args.seconds
    ):
        backend, traced = plan[len(reps) % len(plan)]
        began = time.perf_counter()
        reps.append(run_one(args, env, work, len(reps), backend, traced))
        durations.append(time.perf_counter() - began)
    if args.workload == "service":
        attempted, failed, notes = gate_service(reps)
    else:
        failed, notes = gate_campaigns(args, reps)
        attempted = len(reps)
        if not args.write_reference:
            # Re-recording a reference is the one time it may differ.
            problems = reference_check(args, env, work)
            attempted += 1
            failed += bool(problems)
            notes += problems or [f"the seed-{REFERENCE_SEED} smoke rep matches its reference"]
        notes += active_fraction_lines(reps)

    ok = [rep for rep in reps if "error" not in rep]
    primary = [rep for rep in ok if not rep["traced"] and rep["backend"] == PRIMARY[args.workload]]
    if args.trace:
        table, extras = layer_table(args.workload, reps)
        units = declared_units("per_layer")
        # A layer the workload does not exercise reads 0.
        metrics = {name: table.get(name, 0) for name in units}
    else:
        if args.workload == "service":
            table, extras = service_metrics(primary)
        else:
            table, extras = campaign_metrics(primary, setups + [r["setup_s"] for r in primary])
        units = declared_units("end_to_end")
        metrics = {name: table[name] for name in units}
    print_report(args, host, reps, metrics, units, extras, notes, attempted, failed)

    if args.write_reference and not failed and args.workload != "service":
        path = reference_path(args.workload, args.scale)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"seed": args.seed, "outputs": ok[0]["outputs"]}, indent=1) + "\n")
        print(f"wrote reference {path}")
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace, "host": host,
        "metrics": metrics, "extras": extras, "notes": notes,
        "reps": [{key: rep.get(key) for key in ("backend", "traced", "setup_s", "wall_s",
                                                "cpu_s", "error")} for rep in reps],
    }
    (work / f"result-{args.workload}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
