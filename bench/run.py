"""Benchmark of the critgroups package: one workload per run.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

``--workload all`` runs every workload, each in its own process, and
prints each metric by name with its unit.

Run it from the root of a source checkout; it imports the package from
``src/`` and needs nothing outside the standard library.  The workloads,
the metrics and their units are declared in ``BENCHMARK.json``.

With ``--trace 0`` the run sets up (import, input generation, warm-up,
repeated and the median taken), then runs instances one at a time for S
seconds, finishing the pass over the schedule under way, and reports the
end-to-end metrics.  With ``--trace 1`` it runs
instances untraced for S/2 seconds, runs the same instances again with
spans around every public function, checks that both passes produced
the same digests, and reports the per-layer metrics.

Times are scaled to a reference machine speed with a calibration loop
that runs between instances (see ``workloads.Loop``); the unscaled
figures are in the context line.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it holds the run context.  Span files and a full report are written to
``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5


def interpreter_seconds() -> float:
    """Wall time of a fresh interpreter running ``pass``."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], capture_output=True, timeout=60, check=True)
    return time.perf_counter() - t0


def import_seconds(module: str) -> float:
    """Time a fresh interpreter spends importing ``module`` from the checkout."""
    code = f"import time; t = time.perf_counter(); import {module}; print(time.perf_counter() - t)"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=60, check=True)
    return float(out.stdout)


def tail(latencies: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it, and its value.

    That is the eleventh-largest sample; with fewer than eleven samples the
    largest one is reported.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    beyond = min(10, n - 1)
    return 100 * (n - beyond) / n, ordered[n - 1 - beyond]


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def setup(workload, seed: int, workdir: Path):
    """Import, input generation and warm-up, repeated; returns the pool and median seconds.

    The median is scaled by the calibration loop like instance times.
    """
    from workloads import CALIBRATION_S, Run, calibrate

    times, calibrations, pool = [], [], None
    for _ in range(SETUP_REPEATS):
        imported = import_seconds("critgroups")
        t0 = time.perf_counter()
        pool = workload.pool(random.Random(seed), workdir)
        workload.run(Run(), workload.warmup_instance(workdir), workdir)
        times.append(imported + time.perf_counter() - t0)
        calibrations.append(calibrate())
    return pool, statistics.median(times) * CALIBRATION_S / statistics.median(calibrations)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help='a workload name, or "all"')
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "critgroups" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"needs {SRC / 'critgroups'} and {spec_path}; run from a source checkout", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    why = {w["name"]: w["why"] for w in spec["workloads"]}
    if args.workload == "all":
        return run_all(args, list(why))
    if args.workload not in why:
        print(f"unknown workload {args.workload!r}; choose from {sorted(why)}", file=sys.stderr)
        return 2
    declared = spec["per_layer" if args.trace else "end_to_end"]
    sys.path.insert(0, str(SRC))

    from workloads import WORKLOADS, Loop

    workload = WORKLOADS[args.workload]()
    workdir = ROOT / ".bench_work" / str(os.getpid())
    workdir.mkdir(parents=True)
    try:
        pool, setup_s = setup(workload, args.seed, workdir)
        loop = Loop(workload, pool, workdir)
        if args.trace:
            metrics, extra = traced_run(workload, loop, args)
        else:
            loop.for_seconds(args.seconds)
            metrics, extra = end_to_end(loop, setup_s, args.workload == "cli_enumerate")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if set(metrics) != {m["name"] for m in declared}:
        differ = sorted(set(metrics) ^ {m["name"] for m in declared})
        raise SystemExit(f"metrics differ from BENCHMARK.json: {differ}")
    result = {
        "correct": not loop.problems and not extra.get("digest_mismatches"),
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared},
    }
    context = {
        "workload": args.workload,
        "why": why[args.workload],
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_commit": git_commit(),
        "loadavg": os.getloadavg(),
        "instances": len(loop.raw),
        "problems": loop.problems[:20],
        **extra,
    }
    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    report = out / f"report-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    report.write_text(json.dumps({"context": context, "result": result}, indent=2) + "\n")
    print(json.dumps({"context": context}))
    print(json.dumps(result))
    return 0


def run_all(args, names: list[str]) -> int:
    """Each workload in its own process; prints every metric by name with its unit."""
    results = {}
    for name in names:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900,
        )
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return proc.returncode
        results[name] = result = json.loads(proc.stdout.splitlines()[-1])
        print(f"{name}: correct={result['correct']} attempted={result['attempted']} failed={result['failed']}")
        for metric, m in result["metrics"].items():
            print(f"  {metric:48s} {m['value']:>16.6g} {m['unit']}")
    print(json.dumps(results))
    return 0 if all(r["correct"] for r in results.values()) else 1


def end_to_end(loop, setup_s: float, children: bool):
    latencies = loop.latencies
    level, tail_s = tail(latencies)
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    metrics = {
        "setup_s": setup_s,
        "throughput_ips": len(latencies) / sum(latencies),
        "latency_p50_ms": statistics.median(latencies) * 1000,
        "latency_tail_ms": tail_s * 1000,
        "ok_ratio": (loop.attempted - loop.failed - loop.digit_limited) / loop.attempted,
        "peak_rss_mib": resource.getrusage(who).ru_maxrss / 1024,
    }
    extra = {
        "tail_percentile": level,
        "tail_samples_beyond": min(10, len(latencies) - 1),
        "samples": len(latencies),
        "calibration_ms": statistics.median(loop.calibrations) * 1000,
        "fail_ratio": loop.failed / loop.attempted,
        "digit_limited_saves": loop.digit_limited,
        "raw_latency_p50_ms": statistics.median(loop.raw) * 1000,
        "raw_throughput_ips": len(loop.raw) / sum(loop.raw),
    }
    return metrics, extra


def traced_run(workload, loop, args):
    """Untraced pass for half the time, then the same instances traced."""
    from tracer import Tracer
    from workloads import Loop

    if hasattr(workload, "in_process"):
        workload.in_process = True
    loop.for_seconds(args.seconds / 2)
    count = len(loop.raw)
    untraced = sum(loop.latencies)
    traced_loop = Loop(workload, loop.pool, loop.workdir)
    tracer = Tracer()
    tracer.install()
    try:
        traced_loop.for_count(count)
    finally:
        tracer.uninstall()
    loop.attempted += traced_loop.attempted
    loop.failed += traced_loop.failed
    loop.digit_limited += traced_loop.digit_limited
    loop.problems.extend(traced_loop.problems)
    mismatches = sum(a != b for a, b in zip(loop.digests, traced_loop.digests))

    metrics = tracer.metrics()
    metrics["trace.overhead_ratio"] = sum(traced_loop.latencies) / untraced
    metrics["cli.interp_start_ms"] = 1000 * statistics.median(interpreter_seconds() for _ in range(3))
    metrics["cli.import_ms"] = 1000 * statistics.median(import_seconds("critgroups.cli") for _ in range(3))
    tracer.write_spans(ROOT / ".bench_out" / f"spans-{args.workload}-seed{args.seed}.tsv.gz")
    return metrics, {"instances_traced": count, "spans": len(tracer.span_start),
                     "digest_mismatches": mismatches}


if __name__ == "__main__":
    sys.exit(main())
