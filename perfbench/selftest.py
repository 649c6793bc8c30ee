"""Self-tests of the benchmark (not part of the tier-1 suite).

Run from the repository root::

    python3 -m pytest perfbench/selftest.py -q

They run every workload at smoke scale, traced and untraced, and check
the printed metric names against ``BENCHMARK.json``, that the bench-scale
campaigns of the reference seed match the committed references, that a
tampered reference fails the correctness gate, and that the benchmark
refuses to report from a directory without the program.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import service  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def result_of(completed: subprocess.CompletedProcess) -> dict:
    assert completed.returncode == 0, completed.stderr[-2000:]
    return json.loads(completed.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def smoke_runs() -> dict:
    runs = {}
    for workload in ("campaigns", "service"):
        for trace in ("0", "1"):
            runs[workload, trace] = bench(
                "--workload", workload, "--seed", "5", "--seconds", "0",
                "--trace", trace, "--scale", "smoke",
            )
    return runs


def test_benchmark_json_follows_its_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["perfbench"] and 1 <= SPEC["run_seconds"] <= 60
    names = [w["name"] for w in SPEC["workloads"]]
    names += [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names)) and all(NAME.match(name) for name in names)
    for workload in SPEC["workloads"]:
        assert set(workload) == {"name", "why"} and len(workload["why"]) <= 200
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25 and UNIT.match(metric["unit"])
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    for metric in SPEC["per_layer"]:
        assert set(metric) == {"name", "unit", "better"} and UNIT.match(metric["unit"])


@pytest.mark.parametrize("workload", ["campaigns", "service"])
@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_run_prints_exactly_the_declared_metrics(smoke_runs, workload, trace):
    result = result_of(smoke_runs[workload, trace])
    declared = SPEC["end_to_end"] if trace == "0" else SPEC["per_layer"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {name: value["unit"] for name, value in result["metrics"].items()} == {
        metric["name"]: metric["unit"] for metric in declared
    }
    if trace == "0":
        assert all(value["value"] > 0 for value in result["metrics"].values())


#: Per-layer metrics that read 0 on a healthy smoke run of every workload:
#: fault counters, and a ground-truth cache every word of a sweep looks
#: up exactly once.
HEALTHY_ZEROS = {
    "wire.rejected", "backends.fleet.requeues", "backends.fleet.quarantined",
    "service.http.errors", "analysis.ground_truth.hit_ratio",
}


def test_every_declared_layer_metric_is_measured_somewhere(smoke_runs):
    measured = set()
    for workload in ("campaigns", "service"):
        metrics = result_of(smoke_runs[workload, "1"])["metrics"]
        measured |= {name for name, value in metrics.items() if value["value"] != 0}
    declared = {metric["name"] for metric in SPEC["per_layer"]}
    assert declared - measured == HEALTHY_ZEROS


def test_traced_run_covers_the_campaign_and_reports_overhead(smoke_runs):
    metrics = result_of(smoke_runs["campaigns", "1"])["metrics"]
    assert metrics["trace.coverage"]["value"] >= 0.9
    assert metrics["profiling.word.adaptive_calls"]["value"] > 0
    assert metrics["experiments.shard.count"]["value"] > 0
    service_metrics = result_of(smoke_runs["service", "1"])["metrics"]
    assert service_metrics["wire.frames_out"]["value"] > 0
    assert service_metrics["store.appends"]["value"] > 0


def test_bench_scale_matches_the_committed_reference():
    # The default seed is the reference seed.
    completed = bench("--workload", "campaigns", "--seconds", "0")
    assert result_of(completed)["correct"]
    assert "they match the reference campaigns-bench.json" in completed.stdout
    assert "smoke rep matches its reference" in completed.stdout


def copy_of_the_benchmark(into: Path) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", into)
    shutil.copytree(BENCH, into / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))


@pytest.mark.parametrize("key", ["sweep_sha256", "fleet_rendition"])
def test_tampered_reference_fails_the_gate(tmp_path, key):
    copy_of_the_benchmark(tmp_path)
    (tmp_path / "src").symlink_to(ROOT / "src")
    path = tmp_path / "perfbench" / "reference" / "campaigns-smoke.json"
    document = json.loads(path.read_text())
    document["outputs"][key] = document["outputs"][key].replace("0", "1", 1) + " "
    path.write_text(json.dumps(document))
    completed = bench("--workload", "campaigns", "--seed", "5", "--seconds", "0",
                      "--scale", "smoke", cwd=tmp_path)
    result = result_of(completed)
    assert not result["correct"]
    assert result["failed"] >= 1
    assert "differ from the reference" in completed.stdout


def test_refuses_to_report_without_the_program(tmp_path):
    copy_of_the_benchmark(tmp_path)
    completed = bench("--workload", "campaigns", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert completed.returncode != 0
    assert '"correct"' not in completed.stdout


def test_job_mix_is_seeded_and_four_one_one():
    specs = service.job_specs(3, 72)
    assert specs == service.job_specs(3, 144)[:72]
    assert specs != service.job_specs(4, 72)
    assert Counter(spec["kind"] for spec in specs) == {"sweep": 48, "fleet": 12, "fig10": 12}
    sweeps = [spec for spec in specs if spec["kind"] == "sweep"]
    reused = [spec for spec in sweeps if spec["exhibit"] != "fig6"]
    assert len(reused) == len(sweeps) // 4
    for previous, spec in zip(sweeps, sweeps[1:]):
        if spec["exhibit"] != "fig6":
            assert spec["config"] == previous["config"]
    seeds = [spec["config"]["seed"] for spec in specs if spec.get("exhibit", "fig6") == "fig6"]
    assert len(seeds) == len(set(seeds))
