"""The benchmark's own tests: inputs, output checks, and tracing.

    python3 -m pytest perfbench/tests -q
"""
import copy
import json
import shutil
import subprocess
import sys
import tempfile

import numpy as np
import pytest

import checks
import run
import tracing
import worker
import workloads
from wzwcat import cli

FOLD_CASE = ("B", 2, 3)
MODULAR_SUBSET = [("B", 3, 6), ("C", 3, 8)]
CLI_SUBSET = [
    "local A 3 4",
    f"data B 2 10 --format json --cache-dir {workloads.CACHE_TOKEN}",
    "fingerprint B 2 8 --local",
    f"data B 2 10 --format json --cache-dir {workloads.CACHE_TOKEN}",
    "verify thm1 --range C",
]


def fold_subset(seed):
    return [(case, rows) for case, rows in workloads.fold_sweep_inputs(seed)
            if case == FOLD_CASE]


def run_subset(tmp_path, seed=5, trace=False, only=workloads.WORKLOADS):
    """Records and tracer of a small slice of the workloads, in-process."""
    records = []
    tracer = tracing.Tracer() if trace else None
    if tracer is not None:
        tracer.install()
    try:
        p = worker.Pass(records.append, tracer)
        if "fold_sweep" in only:
            worker.run_fold_sweep(fold_subset(seed), p, tmp_path)
        if "modular_sweep" in only:
            worker.run_modular_sweep(MODULAR_SUBSET, p, tmp_path)
        if "cli_mix" in only:
            worker.run_cli_mix(CLI_SUBSET, p, tempfile.mkdtemp(dir=tmp_path))
    finally:
        if tracer is not None:
            tracer.uninstall()
    return json.loads(json.dumps(records)), tracer


def failures(records):
    out = []
    for w in workloads.WORKLOADS:
        keys = {r["key"] for r in records}
        goldens = {k: v for k, v in checks.load_goldens(w).items() if k in keys}
        mine = [r for r in records if r["key"] in goldens]
        out += run.check_records(mine, goldens)
    return out


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_inputs_other_seed_other_order(workload):
    make = workloads.INPUTS[workload]
    assert make(7) == make(7)
    assert make(7) != make(8)
    # a seed orders the work; it never changes how much there is
    assert sorted(map(repr, make(7))) == sorted(map(repr, make(8))) or \
        workload == "fold_sweep"
    if workload == "fold_sweep":
        assert sorted((c, sorted(r)) for c, r in make(7)) == \
            sorted((c, sorted(r)) for c, r in make(8))


def test_cli_mix_draws_every_menu_entry_equally():
    draws = workloads.cli_mix_inputs(3)
    assert len(draws) >= 100
    assert {cmd: draws.count(cmd) for cmd in workloads.CLI_MENU} == \
        dict.fromkeys(workloads.CLI_MENU, workloads.CLI_DRAWS_PER_ENTRY)


def test_fold_table_is_every_level_up_to_the_cap():
    for (series, rank), sizes in workloads.FOLD_SIMPLES.items():
        counted = [cli.count_alcove(series, rank, k)
                   for k in range(1, len(sizes) + 2)]
        assert tuple(counted[:-1]) == sizes
        assert counted[-1] > workloads.FOLD_MAX_SIMPLES


def test_every_operation_has_a_golden():
    for w in workloads.WORKLOADS:
        goldens = checks.load_goldens(w)
        inputs = workloads.INPUTS[w](0)
        if w == "fold_sweep":
            keys = {workloads.fold_key(c, i, j) for c, rows in inputs
                    for i, j in rows}
        elif w == "modular_sweep":
            # every step of every case; a fingerprint only where |H| > 1
            keys = {workloads.modular_key(c, step) for c in inputs
                    for step, _ in workloads.modular_steps()
                    if step != "fingerprint"
                    or goldens[workloads.modular_key(c, "local")]["exact"] > 1}
        else:
            keys = set(inputs)
        assert keys == set(goldens)


def test_subset_matches_goldens(tmp_path):
    records, _ = run_subset(tmp_path)
    cases = tuple(workloads.case_key(c) + ":" for c in MODULAR_SUBSET)
    modular_ops = sum(r["key"].startswith(cases) for r in records)
    assert 8 * len(MODULAR_SUBSET) <= modular_ops <= 9 * len(MODULAR_SUBSET)
    assert len(records) == 55 + modular_ops + len(CLI_SUBSET)
    assert failures(records) == []


def test_flipped_fusion_coefficient_fails_exactly_that_operation(tmp_path):
    records, _ = run_subset(tmp_path)
    fold = [r for r in records if r["key"].startswith("B2:3:")]
    goldens = checks.load_goldens("fold_sweep")
    target = fold[17]["key"]
    bad = copy.deepcopy(goldens)
    bad[target]["exact"][2][0][1] += 1      # N of the first product term
    assert run.check_records(fold, goldens) == []
    assert [key for key, _ in run.check_records(fold, bad)] == \
        [target]


def test_changed_cli_output_on_a_repeat_fails(tmp_path):
    records, _ = run_subset(tmp_path)
    data = [r for r in records if r["key"].startswith("data ")]
    assert len(data) == 2 and data[0]["stdout_sha256"] == data[1]["stdout_sha256"]
    goldens = checks.load_goldens("cli_mix")
    data[1]["stdout_sha256"] = "0" * 64
    assert [k for k, _ in run.check_records(data, goldens)] == \
        [data[1]["key"]]


def test_float_check_tolerates_rounding_and_catches_errors():
    s = np.exp(2j * np.pi * np.arange(400).reshape(20, 20) / 37)
    golden = checks.record("k", {"s": s})
    assert checks.compare(golden, checks.record("k", {"s": s * (1 + 1e-13)})) is None
    off = s.copy()
    off[3, 4] += 1e-5
    assert "floats differ" in checks.compare(golden, checks.record("k", {"s": off}))
    # the tolerance holds per entry, however many entries there are
    big = np.exp(2j * np.pi * np.arange(300 * 300).reshape(300, 300) / 997)
    off = big.copy()
    off[7, 9] += 2e-9
    assert checks.compare(checks.record("k", {"s": big}),
                          checks.record("k", {"s": off})) is not None
    assert "floats differ" in checks.compare(
        golden, checks.record("k", {"s": s * np.nan}))


def test_quantile_estimates():
    assert run.quantile(list(range(101)), 0.5) == pytest.approx(50)
    assert run.quantile(list(range(1000)), 0.9) == pytest.approx(899.5)
    # one slow operation moves the estimate by only part of its change
    base = [1, 2, 3, 4, 5, 6, 7]
    assert 4 < run.quantile(base[:3] + [4.8] + base[4:], 0.5) < 4.8


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_a_layer_metric_reads_zero_only_where_its_layer_is_bypassed(
        tmp_path, workload):
    _, tracer = run_subset(tmp_path, trace=True, only=(workload,))
    values, bypassed = tracer.metrics(), tracer.bypassed()
    # a ratio of wasted work may truly be 0: no weight system twice
    may_be_zero = {"rootsys.weight_system_redundant_frac"}
    zero = {m for m, v in values.items() if v == 0}
    assert set(bypassed) <= zero
    assert zero - set(bypassed) <= may_be_zero
    if workload == "fold_sweep":
        assert {"modular.smatrix_s", "modular.weyl_terms",
                "verifier.checks", "cli.cmd_self_s"} <= set(bypassed)
    if workload == "cli_mix":
        assert not bypassed


def test_traced_run_gives_the_same_outputs(tmp_path):
    plain, _ = run_subset(tmp_path)
    traced, _ = run_subset(tmp_path, trace=True)
    assert traced == plain


def test_traced_counts_repeat_exactly(tmp_path):
    _, first = run_subset(tmp_path, trace=True)
    _, second = run_subset(tmp_path, trace=True)
    a, b = first.metrics(), second.metrics()
    assert {k: a[k] for k in tracing.EXACT_COUNTS} == \
        {k: b[k] for k in tracing.EXACT_COUNTS}
    assert a["fusion.rows"] >= 55 and a["verifier.checks"] > 0
    assert a["currents.current_action_calls"] > 0 and a["modular.weyl_terms"] > 0
    assert 0 < a["cli.cache_hit_frac"] < 1
    # every span closed, and parents precede their children
    assert all(s[2] is not None and (s[3] is None or s[3] < i)
               for i, s in enumerate(first.spans))


def test_bare_benchmark_directory_fails_without_a_result(tmp_path):
    shutil.copytree(run.BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli_mix",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
