"""One cold pass of one workload, in a fresh process started by run.py.

Protocol, one JSON object per line on stdout:
  {"ready": true}                         after imports and input generation
  {"key": ..., "exact": ..., ...}         one record per operation (checks.py)
  {"result": {...}}                       timings of the pass, last

The parent measures set-up from process start to the ready line.  Each
case or command starts after a full garbage collection, outside the timing,
as a command in a fresh process would: otherwise when the collector runs
depends on what ran before, and one warm `data` call took 30 to 50 ms.  Records
are built after each operation, outside its timing, and checked against the
goldens by the parent, so the goldens never sit in this process's memory.
"""
from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"      # before numpy is imported

import argparse
import gc
import hashlib
import json
import shutil
import sys
import tempfile
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))   # the checkout's library

import numpy  # noqa: E402,F401  (part of set-up, whichever workload runs)
import wzwcat  # noqa: E402,F401
import wzwcat.cli  # noqa: E402,F401

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

WORK_DIR = BENCH_DIR / ".work"


class Pass:
    """Times the operations of one pass and emits their records."""

    def __init__(self, emit, tracer=None):
        self.emit = emit
        self.tracer = tracer
        self.op_s = []
        self.other_s = 0.0      # timed work that is not an operation
        self.attempted = 0

    def _call(self, key, name, fn, args):
        if self.tracer is None:
            return fn(*args)
        return self.tracer.run_op(key, name, fn, *args)

    def step(self, key, name, fn, *args):
        """Timed work counted in run_s but not as an operation."""
        t0 = perf_counter()
        try:
            return self._call(key, name, fn, args)
        finally:
            self.other_s += perf_counter() - t0

    def op(self, key, name, fn, *args):
        """(ok, result) of one timed operation; a raise emits its record."""
        self.attempted += 1
        t0 = perf_counter()
        try:
            result = self._call(key, name, fn, args)
        except Exception as e:  # noqa: BLE001 -- a failed operation is data
            self.op_s.append(perf_counter() - t0)
            self.emit(checks.error_record(key, e))
            return False, None
        self.op_s.append(perf_counter() - t0)
        return True, result

    @property
    def run_s(self) -> float:
        return sum(self.op_s) + self.other_s


def run_fold_sweep(plan, p: Pass, cache_dir) -> None:
    from wzwcat import ModularData

    for case, rows in plan:
        gc.collect()
        key0 = workloads.case_key(case) + ":build"
        try:
            md = p.step(key0, "op.fold_build", ModularData, *case)
        except Exception as e:  # noqa: BLE001
            for i, j in rows:
                p.attempted += 1
                p.emit(checks.error_record(workloads.fold_key(case, i, j), e))
            continue
        done = []
        for i, j in rows:
            key = workloads.fold_key(case, i, j)
            ok, row = p.op(key, "op.fold_row", md.fusion.row, i, j)
            if ok:
                done.append((key, i, j, row))
        # the case is finished, so reading its qdims warms nothing later
        d, w = md.qdims, md.weights
        for key, i, j, row in done:
            lhs = float(d[i] * d[j])
            rhs = float(sum(n * d[l] for l, n in row.items()))
            problems = []
            if abs(lhs - rhs) > checks.FLOAT_TOL * max(1.0, lhs):
                problems.append(f"d_i d_j = {lhs!r} but sum_l N d_l = {rhs!r}")
            exact = [w[i], w[j], sorted([w[l], n] for l, n in row.items())]
            p.emit(checks.record(key, exact, problems=problems))


def modular_record(step: str, result):
    """(exact, problems) of one modular_sweep step's result."""
    if step == "build":
        return {"labels": result.weights, "qdims": result.qdims,
                "twists": [a.t for a in result.twists],
                "central_charge": result.central_charge}, []
    if step in ("unitarity", "gauss"):
        problems = [] if result <= checks.FLOAT_TOL else \
            [f"{step} residual {result:.3g} > {checks.FLOAT_TOL}"]
        return result, problems
    if step == "currents":
        return {"indices": result.indices,
                "actions": [result.actions[j] for j in result.indices]}, []
    if step == "local":
        return result.subgroup_order, []
    if step == "fingerprint":
        return vars(result), []
    return result, []           # smatrix, census, pointed


def run_modular_sweep(plan, p: Pass, cache_dir) -> None:
    steps = workloads.modular_steps()
    for case in plan:
        gc.collect()
        done = {"case": case}
        for n, (step, fn) in enumerate(steps):
            if step == "fingerprint" and done["local"].subgroup_order == 1:
                continue
            key = workloads.modular_key(case, step)
            ok, result = p.op(key, "op.modular_" + step, fn, done)
            if not ok:
                # the later steps need this one's result, so they fail too
                for later, _ in steps[n + 1:]:
                    p.attempted += 1
                    p.emit(checks.error_record(
                        workloads.modular_key(case, later),
                        RuntimeError(f"not run: step {step} failed")))
                break
            done[step] = result
            exact, problems = modular_record(step, result)
            p.emit(checks.record(key, exact, problems=problems))


def run_cli_mix(plan, p: Pass, cache_dir) -> None:
    for cmd in plan:
        gc.collect()
        argv = cmd.replace(workloads.CACHE_TOKEN, str(cache_dir)).split()
        ok, out = p.op(cmd, "cli.main", workloads.cli_call, argv)
        if not ok:
            continue
        skeleton, floats = checks.text_output(out["stdout"])
        rec = checks.record(cmd, {"rc": out["rc"], "stdout": skeleton}, floats)
        rec["stdout_sha256"] = hashlib.sha256(
            out["stdout"].encode()).hexdigest()
        p.emit(rec)


RUNNERS = {
    "fold_sweep": run_fold_sweep,
    "modular_sweep": run_modular_sweep,
    "cli_mix": run_cli_mix,
}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    proto = sys.stdout

    def emit(obj):
        proto.write(json.dumps(obj, separators=(",", ":")) + "\n")

    WORK_DIR.mkdir(exist_ok=True)
    cache_dir = Path(tempfile.mkdtemp(prefix="cache-", dir=WORK_DIR))
    try:
        plan = workloads.INPUTS[args.workload](args.seed)
        emit({"ready": True})
        proto.flush()
        if args.setup_only:
            return 0
        tracer = None
        if args.trace:
            tracer = tracing.Tracer()
            tracer.install()
        p = Pass(emit, tracer)
        RUNNERS[args.workload](plan, p, cache_dir)
        result = {"attempted": p.attempted, "run_s": p.run_s, "op_s": p.op_s,
                  "peak_rss_mb": tracing.peak_rss_kb() / 1024}
        if tracer is not None:
            tracer.uninstall()
            result["layers"] = tracer.metrics()
            result["bypassed"] = tracer.bypassed()
            result["spans"] = len(tracer.spans)
            trace_path = WORK_DIR / f"trace-{args.workload}-seed{args.seed}.json"
            tracer.write(trace_path)
            result["trace_file"] = str(trace_path.relative_to(BENCH_DIR.parent))
        emit({"result": result})
        return 0
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
