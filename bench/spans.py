"""Spans around the library's public functions, recorded from outside it.

`Tracer.install` replaces each traced function, in every module namespace of
the package that binds it, by a wrapper that records a span: the function,
its start and end, and the span that called it.  Nothing under src/ changes;
intra-module calls are caught too, because Python looks module globals up at
call time.  Spans stay in memory; `summarize_pass` turns one pass of spans into the
per-layer metrics, and `write` stores every span at the end of the run.

A span's self time is its duration minus the durations of its child spans.
"""

from __future__ import annotations

import functools
import gzip
import json
from time import perf_counter

from workloads import grid_cache


# Functions traced, per module.  Hot recursive helpers (eval_term, vars_of,
# term_to_str) and thin aliases are left out: a span per recursion level would
# cost more than the work it measures.
TRACED = {
    "core": ("validate_algebra", "as_group", "as_ring", "as_lie_ring", "direct_product",
             "homomorphism"),
    "closures": ("ideal_closure", "omega_subgroup_closure", "commutator_group",
                 "commutator_group_is_trivial", "enumerate_ideals",
                 "enumerate_omega_subgroups", "is_ideal", "is_omega_subgroup"),
    "domains": ("is_abelian", "zero_divisor_witness", "is_domain", "is_anticommutative",
                "is_anticommutative_exhaustive", "is_c_anticommutative",
                "ring_satisfies_formula5", "group_zero_divisor_sets"),
    "terms": ("term_values", "random_term"),
    "zariski": ("solve_system", "term_function_table", "point_in_closure", "zariski_closure",
                "closure_excess_point", "is_algebraic", "equational_domain_check",
                "enumerate_algebraic_sets", "bounded_depth_ideal_oracle"),
    "catalog": ("cyclic_group", "cyclic_ring", "klein_four_group", "symmetric_group_3",
                "dihedral_4", "quaternion_group", "field_f4", "dual_numbers_f2",
                "null_ring_klein", "matrix_ring_m2_f2", "abelian_lie_f2", "heisenberg_lie_f2",
                "sl2_f2", "build_catalog", "catalog_algebra", "classify_algebra",
                "run_classification"),
    "cli": ("dispatch", "parse_algebra_file", "serialize_algebra"),
}

# Self time of these spans is attributed to a named metric; every other
# traced function counts toward its module's `<module>.self_s`.
SELF_METRIC = {
    "core": "core.validate_s",
    "closures.ideal_closure": "closures.ideal_closure_s",
    "closures.omega_subgroup_closure": "closures.subgroup_closure_s",
    "closures.commutator_group": "closures.commutator_scan_s",
    "closures.commutator_group_is_trivial": "closures.commutator_scan_s",
    "closures.enumerate_ideals": "closures.subset_scan_s",
    "closures.enumerate_omega_subgroups": "closures.subset_scan_s",
    "closures.is_ideal": "closures.subset_scan_s",
    "closures.is_omega_subgroup": "closures.subset_scan_s",
    "terms.term_values": "terms.term_values_s",
    "terms.random_term": "terms.random_term_s",
    "zariski.solve_system": "zariski.solve_self_s",
    "zariski.enumerate_algebraic_sets": "zariski.lattice_self_s",
    "zariski.bounded_depth_ideal_oracle": "zariski.oracle_s",
}
# Closure queries: their self time is grid_query_s when a term-function
# table answered them, worklist_s when the per-candidate worklists did.
CLOSURE_FAMILY = frozenset(
    f"zariski.{n}" for n in ("zariski_closure", "closure_excess_point", "point_in_closure",
                             "is_algebraic", "equational_domain_check")
)
COUNTED_CALLS = {
    "core": "core.validate_calls",
    "closures.ideal_closure": "closures.ideal_closure_calls",
    "closures.commutator_group": "closures.commutator_scan_calls",
    "closures.commutator_group_is_trivial": "closures.commutator_scan_calls",
    "terms.term_values": "terms.term_values_calls",
}

PER_LAYER = (
    ("core.validate_s", "s"), ("core.validate_calls", "count"),
    ("closures.ideal_closure_s", "s"), ("closures.ideal_closure_calls", "count"),
    ("closures.subgroup_closure_s", "s"), ("closures.commutator_scan_s", "s"),
    ("closures.commutator_scan_calls", "count"), ("closures.subset_scan_s", "s"),
    ("domains.self_s", "s"),
    ("terms.term_values_s", "s"), ("terms.term_values_calls", "count"),
    ("terms.random_term_s", "s"),
    ("zariski.table_build_s", "s"), ("zariski.table_builds", "count"),
    ("zariski.table_rows", "count"), ("zariski.table_hits", "count"),
    ("zariski.table_overflows", "count"), ("zariski.table_overflow_s", "s"),
    ("zariski.table_useful_ratio", "ratio"), ("zariski.grid_query_s", "s"),
    ("zariski.worklist_s", "s"), ("zariski.closure_calls", "count"),
    ("zariski.candidates", "count"), ("zariski.added_points", "count"),
    ("zariski.added_per_candidate", "ratio"), ("zariski.lattice_self_s", "s"),
    ("zariski.solve_self_s", "s"), ("zariski.oracle_s", "s"),
    ("catalog.self_s", "s"),
    ("cli.self_s", "s"), ("cli.stdout_bytes", "bytes"),
    ("failed_ops", "ratio"), ("trace.wall_s", "s"), ("trace.overhead_s", "s"),
)
PER_LAYER_UNITS = dict(PER_LAYER)


class Tracer:
    def __init__(self, package):
        self.package = package
        self.names: list[str] = []
        self.spans: list[list] = []  # [fid, start, end, parent, info], one pass
        self.stack: list[int] = []
        self.kept: list[tuple] = []  # compact spans of every traced pass
        self._patched: list[tuple] = []
        self._passes = 0

    # --- wrapping ------------------------------------------------------------

    def install(self) -> None:
        modules = [self.package] + [getattr(self.package, m) for m in TRACED]
        for mod_name, fn_names in TRACED.items():
            module = getattr(self.package, mod_name)
            for fn_name in fn_names:
                original = getattr(module, fn_name)
                qualified = f"{mod_name}.{fn_name}"
                # A table request that misses the cache stores its result, so
                # the cache's size tells a hit from a miss without hashing.
                cache = grid_cache() if qualified == "zariski.term_function_table" else None
                keep = qualified in CLOSURE_FAMILY or cache is not None
                wrapper = self._wrap(len(self.names), original, cache, keep)
                self.names.append(qualified)
                for namespace in modules:
                    for attr, value in list(vars(namespace).items()):
                        if value is original:
                            setattr(namespace, attr, wrapper)
                            self._patched.append((namespace, attr, original))

    def uninstall(self) -> None:
        for namespace, attr, original in reversed(self._patched):
            setattr(namespace, attr, original)
        self._patched.clear()

    def _wrap(self, fid, fn, cache, keep):
        tracer = self

        def wrapper(*args, **kwargs):
            stack = tracer.stack
            rec = [fid, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(tracer.spans))
            tracer.spans.append(rec)
            cached = len(cache) if cache is not None else 0
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if keep:
                hit = cache is not None and len(cache) == cached
                rec[4] = (hit, args, kwargs, result)
            return result

        return functools.wraps(fn)(wrapper)

    # --- per-pass summary ----------------------------------------------------

    def summarize_pass(self) -> dict[str, float]:
        """Per-layer metrics of the spans recorded since the last call."""
        spans, names = self.spans, self.names
        n = len(spans)
        child = [0.0] * n
        table_route = [False] * n
        out = {name: 0.0 for name, _ in PER_LAYER}
        builds = useful = 0
        for i in range(n - 1, -1, -1):
            fid, start, end, parent, info = spans[i]
            name = names[fid]
            dur = end - start
            if name == "zariski.term_function_table" and info is not None:
                hit, args, kwargs, table = info
                rows = None if table is None else int(table.shape[0])
                if hit:
                    out["zariski.table_hits"] += 1
                    out["zariski.grid_query_s"] += dur
                else:
                    builds += 1
                    out["zariski.table_build_s"] += dur
                    if rows is None:
                        out["zariski.table_overflows"] += 1
                        out["zariski.table_overflow_s"] += dur
                    else:
                        useful += 1
                        out["zariski.table_rows"] += rows
                if rows is not None and parent >= 0:
                    table_route[parent] = True
            elif name in CLOSURE_FAMILY:
                if info is not None:
                    _count_candidates(name, info, out)
                if table_route[i] and parent >= 0:
                    table_route[parent] = True
            if parent >= 0:
                child[parent] += dur
        for i in range(n):
            fid, start, end, parent, info = spans[i]
            name = names[fid]
            module = name.split(".", 1)[0]
            self_s = (end - start) - child[i]
            if name in CLOSURE_FAMILY:
                key = "zariski.grid_query_s" if table_route[i] else "zariski.worklist_s"
            elif name == "zariski.term_function_table":
                key = None  # attributed above, inclusive of nothing traced below it
            else:
                key = SELF_METRIC.get(name) or SELF_METRIC.get(module) or f"{module}.self_s"
            if key in out:
                out[key] += self_s
            calls = COUNTED_CALLS.get(name) or COUNTED_CALLS.get(module)
            if calls:
                out[calls] += 1
            self.kept.append((self._passes, fid, start, end, parent))
        out["zariski.table_builds"] = builds
        out["zariski.table_useful_ratio"] = useful / builds if builds else 0.0
        out["zariski.added_per_candidate"] = (
            out["zariski.added_points"] / out["zariski.candidates"]
            if out["zariski.candidates"] else 0.0
        )
        self.spans = []
        self.stack.clear()
        self._passes += 1
        return out

    def write(self, path: str) -> None:
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            handle.write(json.dumps({"functions": self.names,
                                     "fields": ["pass", "function", "start", "end", "parent"]}))
            handle.write("\n")
            for row in self.kept:
                handle.write(json.dumps(row))
                handle.write("\n")


def _count_candidates(name: str, info, out: dict) -> None:
    """Candidate points a closure query decided, and how many it added."""
    _, args, kwargs, result = info
    if name not in ("zariski.zariski_closure", "zariski.closure_excess_point",
                    "zariski.point_in_closure"):
        return  # is_algebraic / equational_domain_check delegate to closure_excess_point
    out["zariski.closure_calls"] += 1
    algebra, n_vars, points = args[0], args[1], args[2]
    pts = points if isinstance(points, (set, frozenset)) else {tuple(p) for p in points}
    total = algebra.size**n_vars
    if name == "zariski.zariski_closure":
        out["zariski.candidates"] += total - len(pts)
        out["zariski.added_points"] += len(result) - len(pts)
    elif name == "zariski.closure_excess_point":
        if result is None:
            out["zariski.candidates"] += total - len(pts)
            return
        cell = _cell(algebra.size, result)
        out["zariski.candidates"] += cell + 1 - sum(_cell(algebra.size, p) <= cell for p in pts)
        out["zariski.added_points"] += 1
    else:
        candidate = tuple(args[3] if len(args) > 3 else kwargs["candidate"])
        if candidate not in pts:
            out["zariski.candidates"] += 1
            out["zariski.added_points"] += int(bool(result))


def _cell(size: int, point) -> int:
    idx = 0
    for x in point:
        idx = idx * size + x
    return idx
