#!/usr/bin/env python3
"""Record the reference digests that bench/run.py checks op outputs against.

    python3 bench/record_reference.py

For each workload and each seed from 0 to 15, builds the op list, runs
it once, checks every output against the invariants that need no reference,
and stores an 8-hex-digit digest of each output in bench/reference.json.  It
refuses to record a seed on which any op fails.  Run it only on a commit whose
outputs are known good; a change that alters an output on purpose records
again.
"""

from __future__ import annotations

import json
import os
import sys

import run


REFERENCE_SEEDS = range(16)


def main() -> int:
    run.cap_memory()
    sys.path.insert(0, run.BENCH_DIR)
    run.import_library()
    import workloads

    reference: dict[str, dict[str, str]] = {}
    workdir = os.path.join(run.BENCH_DIR, ".work", f"record-{os.getpid()}")
    try:
        for name in run.WORKLOAD_NAMES:
            reference[name] = {}
            for seed in REFERENCE_SEEDS:
                workload, _ = run.set_up(workloads, name, seed, workdir, repeats=1)
                indices = list(range(len(workload.ops)))
                _, _, outputs, errors = run.run_pass(workloads, workload, indices)
                checker = run.Checker(workload.ops, indices, None)
                if checker.check_pass(0, outputs, errors):
                    print(f"{name} seed {seed}: ops failed, not recorded", file=sys.stderr)
                    return 1
                reference[name][str(seed)] = "".join(checker.first)
                print(f"{name} seed {seed}: {len(indices)} ops recorded", file=sys.stderr)
    finally:
        run.remove_workdir(workdir)
    with open(run.REFERENCE, "w", encoding="utf-8") as handle:
        json.dump(reference, handle, indent=0, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
