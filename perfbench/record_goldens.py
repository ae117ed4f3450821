#!/usr/bin/env python3
"""Record the goldens from the library in this checkout.

    python3 perfbench/record_goldens.py [WORKLOAD ...]

Runs one untraced pass of each workload (seed 0) and stores one record per
distinct operation in goldens/<workload>.json.gz.  Run it only to accept a
deliberate change of output; the goldens in the repository were recorded
from the library as it stood when the benchmark was defined.
"""
from __future__ import annotations

import sys
from time import perf_counter

import checks
import run
import workloads


def main(argv=None) -> int:
    names = (sys.argv[1:] if argv is None else argv) or workloads.WORKLOADS
    for w in names:
        t0 = perf_counter()
        goldens = {}
        for rec in run.run_worker(w, 0, perf_counter() + 3600)["records"]:
            if "error" in rec or rec["problems"]:
                print(f"{w} {rec['key']}: {rec.get('error') or rec['problems']}",
                      file=sys.stderr)
                return 1
            golden = {"exact": rec["exact"], "floats": rec["floats"]}
            if goldens.setdefault(rec["key"], golden) != golden:
                print(f"{w} {rec['key']}: repeats disagree", file=sys.stderr)
                return 1
        checks.save_goldens(w, goldens)
        print(f"{w}: {len(goldens)} goldens in {perf_counter() - t0:.1f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
