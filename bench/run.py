#!/usr/bin/env python3
"""Benchmark of the omegagroups library and CLI.

    python3 bench/run.py --workload classify|separate|grid|build \
        --seed N --seconds S --trace 0|1

Run from the repository root.  The package is imported from src/ beside this
directory, never from an installed copy.  The run builds the workload from
the seed (its set-up, repeated SETUP_REPEATS times), then repeats the
workload's op list, one op at a time, until S seconds have passed.  Every op
output is digested and compared with bench/reference.json when that file has
the seed, and checked against invariants that need no reference otherwise;
later passes must reproduce the first pass exactly.

The last line of stdout is one JSON object: {"correct", "attempted",
"failed", "metrics"}.  With --trace 0 the metrics are the end-to-end ones;
with --trace 1 the first half of the time runs untraced and the second half
traced, and the metrics are the per-layer ones (see spans.py).  A fuller
record goes to bench/results/.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
RESULTS_DIR = os.path.join(BENCH_DIR, "results")
REFERENCE = os.path.join(BENCH_DIR, "reference.json")
WORKLOAD_NAMES = ("classify", "separate", "grid", "build")
SCHEMA_VERSION = 1
SETUP_REPEATS = 7
IMPORT_REPEATS = 7
# Address-space cap for this process: an allocation blow-up raises
# MemoryError and fails its op instead of exhausting the machine.
MEMORY_CAP_BYTES = 3 << 30
SMOKE_OPS_PER_KIND = 2


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run a few light ops of each kind (for the smoke test)")
    return parser.parse_args(argv)


def cap_memory() -> None:
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    cap = MEMORY_CAP_BYTES if hard == resource.RLIM_INFINITY else min(hard, MEMORY_CAP_BYTES)
    if soft == resource.RLIM_INFINITY or soft > cap:
        resource.setrlimit(resource.RLIMIT_AS, (cap, hard))


def import_library():
    """Import the package from this checkout's src/ IMPORT_REPEATS times.

    Each import after the first drops the package's modules (and the
    benchmark's, which bind them) from sys.modules and runs them again;
    third-party modules stay loaded.  The first import alone pays for numpy
    and for compiling the package, which the median leaves out.  Returns the
    module of the last import and the time of every import.
    """
    if not os.path.isfile(os.path.join(SRC, "omegagroups", "__init__.py")):
        raise SystemExit(f"error: no omegagroups package under {SRC}")
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    os.environ.setdefault("OMP_NUM_THREADS", "1")
    sys.path.insert(0, SRC)
    times = []
    for _ in range(IMPORT_REPEATS):
        for name in [m for m in sys.modules if m.split(".")[0] in ("omegagroups", "workloads",
                                                                   "spans")]:
            del sys.modules[name]
        gc.collect()
        start = time.perf_counter()
        import omegagroups
        import workloads  # noqa: F401  (imports the package's modules it drives)

        times.append(time.perf_counter() - start)
    origin = os.path.realpath(os.path.dirname(omegagroups.__file__))
    if origin != os.path.realpath(os.path.join(SRC, "omegagroups")):
        raise SystemExit(f"error: omegagroups was imported from {origin}, not {SRC}")
    return omegagroups, times


def digest(output) -> str:
    return hashlib.sha256(repr(output).encode()).hexdigest()[:8]


def load_reference(workload: str, seed: int) -> list[str] | None:
    if not os.path.exists(REFERENCE):
        return None
    with open(REFERENCE, encoding="utf-8") as handle:
        packed = json.load(handle).get(workload, {}).get(str(seed))
    return None if packed is None else [packed[i : i + 8] for i in range(0, len(packed), 8)]


def smoke_subset(ops) -> list[int]:
    """Indices of a few light ops of each kind."""
    taken: dict[str, int] = {}
    keep = []
    for i, op in enumerate(ops):
        if not op.heavy and taken.get(op.kind, 0) < SMOKE_OPS_PER_KIND:
            taken[op.kind] = taken.get(op.kind, 0) + 1
            keep.append(i)
    return keep


def set_up(workloads, name: str, seed: int, workdir: str, repeats: int = SETUP_REPEATS):
    """Build the workload `repeats` times from a cold cache; keep the last."""
    times = []
    workload = None
    for _ in range(repeats):
        workloads.grid_cache().clear()
        shutil.rmtree(workdir, ignore_errors=True)
        os.makedirs(workdir)
        gc.collect()
        start = time.perf_counter()
        workload = workloads.BUILDERS[name](seed, workdir)
        times.append(time.perf_counter() - start)
    return workload, times


def remove_workdir(workdir: str) -> None:
    """Remove this run's files, and their parent once no other run uses it."""
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        os.rmdir(os.path.dirname(workdir))
    except OSError:
        pass


def run_pass(workloads, workload, indices):
    """Run the selected ops once; returns (wall seconds, latencies, outputs, errors)."""
    if workload.cold_cache:
        workloads.grid_cache().clear()
    gc.collect()
    latencies, outputs, errors = [], [], {}
    start = time.perf_counter()
    for i in indices:
        op = workload.ops[i]
        t0 = time.perf_counter()
        try:
            output = op.run()
        except MemoryError:
            output = None
            errors[i] = "MemoryError"
        except Exception as exc:  # any raise is a failed op; the run goes on
            output = None
            errors[i] = f"{type(exc).__name__}: {exc}"
            traceback.print_exc(file=sys.stderr)
        latencies.append(time.perf_counter() - t0)
        outputs.append(output)
    return time.perf_counter() - start, latencies, outputs, errors


def percentile(values, q: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def module_line_counts() -> dict[str, int]:
    package = os.path.join(SRC, "omegagroups")
    counts = {}
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), encoding="utf-8") as handle:
                counts[name] = sum(1 for _ in handle)
    return counts


def git_sha() -> str:
    """The checked-out commit, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


class Checker:
    """Compares op outputs with the reference, or with invariants and pass one."""

    def __init__(self, ops, indices, reference):
        self.ops = ops
        self.indices = indices
        self.reference = reference
        self.first: list[str] | None = None
        self.failures: list[dict] = []

    def check_pass(self, number: int, outputs, errors) -> int:
        digests = [digest(out) for out in outputs]
        failed = 0
        for pos, i in enumerate(self.indices):
            op = self.ops[i]
            problem = errors.get(i)
            if problem is None and self.reference is not None:
                if digests[pos] != self.reference[i]:
                    problem = "output differs from the reference"
            if problem is None and self.first is not None and digests[pos] != self.first[pos]:
                problem = "output differs from the first pass"
            if problem is None and self.first is None and op.check is not None:
                try:
                    problem = op.check(outputs[pos])
                except Exception as exc:  # a check that cannot run fails its op
                    problem = f"invariant check raised {type(exc).__name__}: {exc}"
            if problem is not None:
                failed += 1
                if len(self.failures) < 20:
                    self.failures.append({"pass": number, "op": i, "label": op.label,
                                          "problem": problem})
                print(f"failed op {i} ({op.label}): {problem}", file=sys.stderr)
        if self.first is None:
            self.first = digests
        return failed


def main(argv=None) -> int:
    args = parse_args(argv)
    cap_memory()
    sys.path.insert(0, BENCH_DIR)
    package, import_times = import_library()
    import numpy
    import workloads
    from spans import PER_LAYER, Tracer

    workdir = os.path.join(BENCH_DIR, ".work", f"{args.workload}-{os.getpid()}")
    tracer = None
    try:
        workload, setup_times = set_up(workloads, args.workload, args.seed, workdir)
        indices = list(range(len(workload.ops)))
        reference = load_reference(args.workload, args.seed)
        if reference is not None and len(reference) != len(workload.ops):
            raise SystemExit("error: reference.json does not match this workload's op list")
        if args.smoke:
            indices = smoke_subset(workload.ops)
        checker = Checker(workload.ops, indices, reference)

        untraced_walls, traced_walls, latencies = [], [], []
        layer_passes = []
        attempted = failed = 0
        started = time.perf_counter()

        def another(walls, until: float) -> bool:
            """One more pass if it should end by `until`, give or take half a pass."""
            elapsed = time.perf_counter() - started
            return not walls or elapsed + statistics.median(walls) / 2 < until

        def one_pass(traced: bool) -> None:
            nonlocal attempted, failed
            wall, lat, outputs, errors = run_pass(workloads, workload, indices)
            if traced:
                layers = tracer.summarize_pass()
                layers["cli.stdout_bytes"] = sum(
                    len(out[1].encode()) for i, out in zip(indices, outputs)
                    if workload.ops[i].kind.startswith("cli") and out is not None)
                layer_passes.append(layers)
                traced_walls.append(wall)
            else:
                untraced_walls.append(wall)
                latencies.extend(lat)
            failed += checker.check_pass(len(untraced_walls) + len(traced_walls) - 1,
                                         outputs, errors)
            attempted += len(indices)

        while another(untraced_walls, args.seconds / 2 if args.trace else args.seconds):
            one_pass(traced=False)
        if args.trace:
            tracer = Tracer(package)
            tracer.install()
            try:
                while another(traced_walls, args.seconds):
                    one_pass(traced=True)
            finally:
                tracer.uninstall()
    finally:
        remove_workdir(workdir)

    setup_s = statistics.median(import_times) + statistics.median(setup_times)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    end_to_end = {
        "setup_s": (setup_s, "s"),
        "wall_s": (statistics.median(untraced_walls), "s"),
        "op_p50_ms": (percentile(latencies, 0.5) * 1e3, "ms"),
        "op_p90_ms": (percentile(latencies, 0.9) * 1e3, "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    per_layer = {}
    if args.trace:
        for name, unit in PER_LAYER:
            values = [p[name] for p in layer_passes]
            per_layer[name] = (sum(values) / len(values), unit)
        per_layer["failed_ops"] = (failed / attempted, "ratio")
        per_layer["trace.wall_s"] = (statistics.median(traced_walls), "s")
        per_layer["trace.overhead_s"] = (
            statistics.median(traced_walls) - statistics.median(untraced_walls), "s")

    os.makedirs(RESULTS_DIR, exist_ok=True)
    stem = f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}"
    record = {
        "schema_version": SCHEMA_VERSION,
        "git_sha": git_sha(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "reference_checked": checker.reference is not None,
        "ops_per_pass": len(indices),
        "untraced_passes": len(untraced_walls),
        "traced_passes": len(traced_walls),
        "op_samples": len(latencies),
        "wall_s": {"median": statistics.median(untraced_walls), "min": min(untraced_walls),
                   "all": untraced_walls},
        "setup_s": {"median": setup_s, "min": min(import_times) + min(setup_times),
                    "imports": import_times, "builds": setup_times},
        "end_to_end": {k: {"value": v, "unit": u} for k, (v, u) in end_to_end.items()},
        "per_layer": {k: {"value": v, "unit": u} for k, (v, u) in per_layer.items()},
        "attempted": attempted,
        "failed": failed,
        "failures": checker.failures,
        "peak_rss_mb": peak_rss_mb,
        "module_lines": module_line_counts(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "memory_cap_bytes": MEMORY_CAP_BYTES,
    }
    with open(os.path.join(RESULTS_DIR, stem + ".json"), "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)
    if tracer is not None:
        tracer.write(os.path.join(RESULTS_DIR, stem + "_spans.jsonl.gz"))

    chosen = per_layer if args.trace else end_to_end
    print(f"{args.workload}: {len(indices)} ops/pass, {len(untraced_walls)} untraced and "
          f"{len(traced_walls)} traced passes, {len(latencies)} op samples", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in chosen.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
