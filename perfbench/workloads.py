"""The three workloads: inputs drawn from a seed, and the operations run on them.

Inputs are plain data (case tuples, index pairs, argv lists) made without
calling the library, so generating them warms none of its caches.  The seed
only orders the work: every seed runs the same multiset of operations, which
keeps total work, and hence the end-to-end metrics, comparable across seeds.
"""
from __future__ import annotations

import contextlib
import io
import random

# Alcove sizes of every level whose alcove has at most 36 simples, for
# k = 1, 2, ...  (checked against cli.count_alcove by the benchmark's tests).
FOLD_SIMPLES = {
    ("A", 1): tuple(range(2, 37)),
    ("A", 2): (3, 6, 10, 15, 21, 28, 36),
    ("A", 3): (4, 10, 20, 35),
    ("A", 4): (5, 15, 35),
    ("B", 2): (3, 6, 10, 15, 21, 28, 36),
    ("B", 3): (3, 7, 13, 22, 34),
    ("B", 4): (3, 8, 16, 30),
    ("C", 3): (4, 10, 20, 35),
    ("C", 4): (5, 15, 35),
    ("D", 4): (4, 11, 24),
    ("D", 5): (4, 12, 28),
    ("G", 2): (2, 4, 6, 9, 12, 16, 20, 25, 30, 36),
    ("F", 4): (2, 5, 9, 16, 25),
    ("E", 6): (3, 9, 20),
}
FOLD_MAX_SIMPLES = 36

# Many rows with a small Weyl group (A5 k6) against few rows with a large
# one (E6 k2: 51840 orbit points per row).
MODULAR_CASES = (
    ("A", 5, 6), ("E", 6, 2), ("D", 5, 4), ("D", 4, 8), ("A", 3, 12),
    ("A", 4, 5), ("C", 4, 4), ("C", 3, 8), ("B", 2, 20), ("B", 3, 6),
    ("B", 4, 4), ("G", 2, 20), ("F", 4, 4), ("A", 2, 30), ("A", 1, 200),
)

CACHE_TOKEN = "<cache>"

# The menu is the one the benchmark was specified with.  No record of how
# users weight these commands exists, so every entry is drawn equally often:
# CLI_DRAWS_PER_ENTRY times per run, in an order the seed shuffles.  Four is
# the fewest that gives at least 100 commands (27 entries, 108 commands), so
# op_p90_ms has at least ten samples beyond it.  Fixed counts rather than
# independent draws keep the work the same on every seed: independent draws
# made run_s depend on how many slow `local D 5 4` calls a seed picked.
CLI_MENU = (
    *(f"data {g} --format json --cache-dir {CACHE_TOKEN}"
      for g in ("A 3 8", "G 2 10", "C 3 4", "D 4 4", "B 2 10", "A 1 50")),
    *(f"local {g}" for g in ("A 3 4", "A 3 8", "D 5 4", "D 4 8", "B 2 12",
                             "A 4 5")),
    "fingerprint G 2 7 --vs B:2:8:local", "fingerprint D 4 4",
    "fingerprint B 2 8 --local", "fingerprint A 3 8 --local",
    "fusion B 2 6 --format json", "fusion G 2 8",
    *(f"verify thm1 --range {r}" for r in ("A", "B", "C", "D", "E6", "E7")),
    *(f"verify witt --range {r}" for r in ("so5", "g2", "emb")),
)
CLI_DRAWS_PER_ENTRY = 4

WORKLOADS = ("fold_sweep", "modular_sweep", "cli_mix")


def fold_cases():
    for (series, rank), sizes in FOLD_SIMPLES.items():
        for k, simples in enumerate(sizes, start=1):
            yield series, rank, k, simples


def fold_sweep_inputs(seed: int) -> list:
    """[((series, rank, k), [(i, j), ...]), ...] in seed order."""
    rng = random.Random(seed)
    cases = list(fold_cases())
    rng.shuffle(cases)
    plan = []
    for series, rank, k, simples in cases:
        rows = [(i, j) for i in range(simples) for j in range(i, simples)]
        rng.shuffle(rows)
        plan.append(((series, rank, k), rows))
    return plan


def modular_sweep_inputs(seed: int) -> list:
    cases = list(MODULAR_CASES)
    random.Random(seed).shuffle(cases)
    return cases


def cli_mix_inputs(seed: int) -> list:
    """Command strings with the cache directory left as CACHE_TOKEN."""
    draws = [cmd for cmd in CLI_MENU for _ in range(CLI_DRAWS_PER_ENTRY)]
    random.Random(seed).shuffle(draws)
    return draws


INPUTS = {
    "fold_sweep": fold_sweep_inputs,
    "modular_sweep": modular_sweep_inputs,
    "cli_mix": cli_mix_inputs,
}


def case_key(case) -> str:
    series, rank, k = case
    return f"{series}{rank}:{k}"


def fold_key(case, i, j) -> str:
    return f"{case_key(case)}:{i}:{j}"


# ---------------------------------------------------------------------------
# operations: library calls only; what they return is turned into a checked
# record afterwards, outside the timed region


def modular_key(case, step: str) -> str:
    return f"{case_key(case)}:{step}"


def _build(case):
    """ModularData with its exact data (labels, twists, c) and qdims."""
    from wzwcat import ModularData

    md = ModularData(*case)
    md.qdims, md.twists, md.central_charge  # noqa: B018 -- computed here
    return md


def modular_steps() -> tuple:
    """The operations of one modular_sweep case, in order, as (step, fn);
    fn takes the results of the earlier steps by name, "case" included.
    There is no fusion table; "fingerprint" runs only when |H| > 1."""
    from wzwcat import CurrentGroup, LocalCategoryData, wittlab

    return (
        ("build", lambda r: _build(r["case"])),
        ("smatrix", lambda r: r["build"].smatrix),
        ("unitarity", lambda r: r["build"].smatrix_unitarity_residual),
        ("gauss", lambda r: r["build"].gauss_sum_residual()),
        ("currents", lambda r: CurrentGroup(r["build"])),
        ("local", lambda r: LocalCategoryData(r["build"],
                                              currents=r["currents"])),
        ("census", lambda r: r["local"].census()),
        ("pointed", lambda r: r["local"].pointed_part()),
        ("fingerprint", lambda r: wittlab.fingerprint(r["local"])),
    )


def cli_call(argv: list) -> dict:
    """One in-process `wzwcat` command with stdout and stderr captured."""
    from wzwcat import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return {"rc": rc, "stdout": out.getvalue(), "stderr": err.getvalue()}
