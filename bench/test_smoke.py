"""Smoke test of the benchmark at tiny sizes.

    python3 -m pytest -q bench/test_smoke.py
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import critgroups  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

TINY = {
    "verify_sweep": lambda: workloads.VerifySweep({"n6": 4, "n7": 4, "n8": 5}),
    "critgroup_chain": lambda: workloads.CritgroupChain({"laplacian": 8, "structure": 7}),
    "fuzz_small": workloads.FuzzSmall,
    "cli_enumerate": lambda: workloads.CliEnumerate({("P", 3): 2, ("P", 4): 3, ("C", 4): 5, ("C", 5): 8}),
}


@pytest.mark.parametrize("name", sorted(TINY))
def test_instances_pass_checks_and_tracing_keeps_digests(name, tmp_path):
    workload = TINY[name]()
    pool = workload.pool(random.Random(0), tmp_path)[:3]
    plain = workloads.Loop(workload, pool, tmp_path)
    plain.for_count(len(pool))
    if hasattr(workload, "in_process"):
        workload.in_process = True  # the traced CLI runs in process
    tracer = Tracer()
    tracer.install()
    try:
        traced = workloads.Loop(workload, pool, tmp_path)
        traced.for_count(len(pool))
    finally:
        tracer.uninstall()
    assert plain.problems == [] and traced.problems == []
    assert plain.digests == traced.digests
    assert sum(tracer.calls.values()) > 0
    assert not hasattr(critgroups.linalg.smith_normal_form, "__wrapped__")


def test_round_trip_beyond_digit_limit_is_counted_apart(tmp_path):
    m = 10**5000
    g = critgroups.Multigraph(((0, m, 0), (m, 0, m), (0, m, 0)))
    s = critgroups.ArithmeticalStructure((m, 2 * m, m), (1, 1, 1))
    run = workloads.Run()
    workloads.CritgroupChain().run(run, (g, s, ()), tmp_path)
    assert run.problems == [] and run.failed == 0
    assert run.digit_limited == 2  # save_structure and save_graph


def test_value_error_on_small_ints_counts_as_failed(tmp_path, monkeypatch):
    def broken_save(path, obj):
        raise ValueError("broken")

    monkeypatch.setattr(critgroups.jsonio, "save_graph", broken_save)
    g, s = workloads.weighted_structure(random.Random(0), 4, r_max=2, c_max=1, p=0.5)
    run = workloads.Run()
    workloads.CritgroupChain().run(run, (g, s, (0,)), tmp_path)
    assert run.failed == 2 and run.digit_limited == 0  # one per chain step


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def check_result(result: dict, declared: list[dict]) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and isinstance(result["failed"], int)
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }


def test_all_workloads_print_end_to_end_metrics():
    proc = bench("--workload", "all", "--seed", "0", "--seconds", "1", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    results = json.loads(proc.stdout.splitlines()[-1])
    assert set(results) == {w["name"] for w in SPEC["workloads"]}
    for result in results.values():
        check_result(result, SPEC["end_to_end"])


def test_traced_run_prints_per_layer_metrics():
    proc = bench("--workload", "fuzz_small", "--seed", "0", "--seconds", "1", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    check_result(json.loads(proc.stdout.splitlines()[-1]), SPEC["per_layer"])


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "fuzz_small", "--seed", "0", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
