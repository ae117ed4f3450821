#!/usr/bin/env python3
"""wzwcat benchmark: end-to-end metrics untraced, per-layer metrics traced.

    python3 perfbench/run.py --workload fold_sweep --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the library is taken from its `src/`.
Every pass runs in a fresh worker process (worker.py), so each starts cold
with respect to the library's in-memory caches, and passes repeat while the
next one is expected to end within --seconds (always at least one).  Set-up
is timed in SETUP_SAMPLES processes, half before the passes and half after,
and reported as the median.  Each
operation's output is checked against goldens/ (checks.py); `failed` counts
operations that raised or did not match.

--trace 1 runs one untraced and one traced pass, reports the per-layer
metrics of the traced one, and its overhead as the difference in run_s.
The last line of stdout is one JSON object: correct, attempted, failed,
metrics.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

import checks
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SETUP_SAMPLES = 11
DEADLINE_S = 170.0      # a benchmark run must end within 180 s

END_TO_END = {"setup_s": "s", "run_s": "s", "op_p50_ms": "ms",
              "op_p90_ms": "ms", "peak_rss_mb": "MB"}


class BenchError(RuntimeError):
    pass


def worker_env() -> dict:
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def run_worker(workload: str, seed: int, deadline: float, *flags) -> dict:
    """Start one worker; returns its set-up seconds, records and result."""
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"),
           "--workload", workload, "--seed", str(seed), *flags]
    t0 = perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            cwd=ROOT, env=worker_env())
    try:
        first = proc.stdout.readline()
        setup_s = perf_counter() - t0
        if not first.startswith('{"ready"'):
            raise BenchError(f"{workload} worker failed during set-up")
        out, _ = proc.communicate(timeout=max(deadline - perf_counter(), 1.0))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} pass did not finish in time") from None
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if proc.returncode != 0:
        raise BenchError(f"{workload} worker exited {proc.returncode}")
    lines = [json.loads(line) for line in out.splitlines()]
    if "--setup-only" in flags:
        return {"setup_s": setup_s}
    if not lines or "result" not in lines[-1]:
        raise BenchError(f"{workload} worker ended without a result")
    return {"setup_s": setup_s, "records": lines[:-1],
            "result": lines[-1]["result"]}


def check_records(records: list, goldens: dict) -> list:
    """[(key, reason)] for every operation whose output is wrong."""
    failures = []
    first_digest = {}
    for rec in records:
        key = rec["key"]
        why = checks.compare(goldens.get(key), rec)
        digest = rec.get("stdout_sha256")
        if why is None and digest is not None:
            # repeats of one command in one run (cold and warm cache) must
            # print byte-identical output
            if first_digest.setdefault(key, digest) != digest:
                why = "output differs from the first run of this command"
        if why is not None:
            failures.append((key, why))
    return failures


def quantile(values: list, p: float) -> float:
    """Harrell-Davis estimate of the p-quantile: the mean of the order
    statistics weighted by a Beta((n+1)p, (n+1)(1-p)) density.

    The sample quantile is a single operation's time, so that operation's
    noise passes into it whole; on the 15 unequal cases of modular_sweep
    its run-to-run spread reached 28 %.  This estimate averages the order
    statistics near the quantile.
    """
    x = np.sort(np.asarray(values, dtype=float))
    n, sub = x.size, 32
    a, b = (n + 1) * p, (n + 1) * (1 - p)
    t = (np.arange(n * sub) + 0.5) / (n * sub)
    log_pdf = (a - 1) * np.log(t) + (b - 1) * np.log1p(-t)
    w = np.exp(log_pdf - log_pdf.max()).reshape(n, sub).sum(axis=1)
    return float(w @ x / w.sum())


def run_passes(workload, seed, seconds, trace, deadline) -> list:
    """Untraced passes while the next is expected to end within `seconds`
    (at least one), then the traced pass if asked for."""
    passes = []
    timed_from = perf_counter()
    while True:
        passes.append(run_worker(workload, seed, deadline))
        elapsed = perf_counter() - timed_from
        if trace or elapsed * (len(passes) + 1) / len(passes) > seconds:
            break
    if trace:
        passes.append(run_worker(workload, seed, deadline, "--trace"))
    return passes


def measure(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    start = perf_counter()
    deadline = start + DEADLINE_S
    goldens = checks.load_goldens(workload)

    def setup_s():
        return run_worker(workload, seed, deadline, "--setup-only")["setup_s"]

    # half the set-up samples before the passes and half after, so that
    # their median spans the run rather than one phase of a drifting machine
    extra = 0 if trace else SETUP_SAMPLES - 1
    setups = [setup_s() for _ in range(extra // 2)]
    passes = run_passes(workload, seed, seconds, trace, deadline)
    setups += [setup_s() for _ in range(extra - extra // 2)]
    setups.append(passes[0]["setup_s"])

    attempted, failures = 0, []
    for p in passes:
        attempted += p["result"]["attempted"]
        failures += check_records(p["records"], goldens)
    untraced = [p["result"] for p in passes if "layers" not in p["result"]]
    op_ms = [1000 * s for r in untraced for s in r["op_s"]]
    e2e = {
        "setup_s": statistics.median(setups),
        "run_s": statistics.median(r["run_s"] for r in untraced),
        "op_p50_ms": quantile(op_ms, 0.5),
        "op_p90_ms": quantile(op_ms, 0.9),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in untraced),
    }
    notes = {"passes": len(untraced), "ops_per_pass": untraced[0]["attempted"],
             "latency_samples": len(op_ms)}
    layers = None
    if trace:
        traced = passes[-1]["result"]
        layers = dict(traced["layers"])
        layers["trace.run_s"] = traced["run_s"]
        layers["trace.overhead_s"] = traced["run_s"] - e2e["run_s"]
        layers["trace.spans"] = traced["spans"]
        notes["bypassed"] = traced["bypassed"]
        notes["trace_file"] = traced["trace_file"]
    return {"workload": workload, "attempted": attempted,
            "failures": failures, "e2e": e2e, "layers": layers,
            "notes": notes, "wall_s": perf_counter() - start}


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("_frac"):
        return "fraction"
    return "count"


def report(m: dict, trace: bool) -> dict:
    """Prints a readable block and returns the workload's metrics."""
    w = m["workload"]
    n = m["notes"]
    print(f"== {w}: {n['passes']} untraced pass(es) of {n['ops_per_pass']} "
          f"operations, {m['wall_s']:.1f} s wall")
    failed = len(m["failures"])
    print(f"{w} fail_frac {failed / m['attempted']:.6g} "
          f"({failed} of {m['attempted']} operations)")
    for key, why in m["failures"][:10]:
        print(f"  FAILED {key}: {why}")
    if not trace:
        for name, unit in END_TO_END.items():
            extra = f" (n={n['latency_samples']})" if name.startswith("op_") else ""
            print(f"{w} {name} {m['e2e'][name]:.6g} {unit}{extra}")
        return {name: {"value": m["e2e"][name], "unit": unit}
                for name, unit in END_TO_END.items()}
    print(f"{w} untraced run_s {m['e2e']['run_s']:.6g} s")
    print(f"{w} spans written to {n['trace_file']}")
    metrics = {}
    for name, value in m["layers"].items():
        unit = layer_unit(name)
        extra = " (bypassed: never called here)" if name in n["bypassed"] else ""
        print(f"{w} {name} {value:.6g} {unit}{extra}")
        metrics[name] = {"value": value, "unit": unit}
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=(*workloads.WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "wzwcat" / "__init__.py").is_file():
        print(f"no wzwcat sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    attempted = failed = 0
    metrics = {}
    try:
        for w in names:
            m = measure(w, args.seed, args.seconds, bool(args.trace))
            attempted += m["attempted"]
            failed += len(m["failures"])
            for name, v in report(m, bool(args.trace)).items():
                metrics[name if len(names) == 1 else f"{w}.{name}"] = v
    except BenchError as e:
        print(f"benchmark error: {e}", file=sys.stderr)
        return 1
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
