"""Per-layer metrics for the traced run (``--trace 1``).

Each metric times calls into one module of revca from here, on the
workload's own inputs, in ``ref`` units (see :mod:`timing`). Counts are
taken from what revca returns. Which end-to-end metric each should move
is listed in README.md.
"""

from __future__ import annotations

import contextlib
import io
import statistics
import sys
import tracemalloc

import revca.cli
from revca import (
    FrontierClosure,
    NodeClass,
    child,
    decide,
    edge_label,
    infinite_injective,
    oracle_is_reversible,
    pair_graph,
)
from timing import LOOP_CLOCK, Clock, ref_loop
from workloads import run_child, start_clock

timed = LOOP_CLOCK.timed

_REPEATS = 5


def _closure(rule, ns):
    """A closure expanded as far as deciding every n in ``ns`` needs."""
    n_max = max(ns)
    closure = FrontierClosure(rule)
    if closure.first_interior_violation(n_max - 4) is None:
        closure.frontier_at(n_max - 3)
    return closure


def _per_call(fn, calls: int) -> float:
    return timed(fn).refs / max(calls, 1)


def tree_and_decider(cases) -> dict[str, tuple[float, str]]:
    nodes, levels, closure_t, tail_t, peaks = [], [], [], [], []
    label_t, child_t = [], []
    for rule, ns in cases:
        rec = timed(lambda: _closure(rule, ns))
        closure = rec.value
        closure_t.append(rec.refs)
        nodes.append(sum(closure.frontier_sizes()))
        levels.append(closure.levels_computed)
        for n in ns:
            tail_t.append(timed(lambda: decide(rule, n, closure=closure)).refs)
        tracemalloc.start()
        _closure(rule, ns)
        peaks.append(tracemalloc.get_traced_memory()[1] / 2**20)
        tracemalloc.stop()
        frontier_nodes = [node for level in closure.levels for node in level]
        labels = []
        label_t.append(_per_call(
            lambda: labels.extend(edge_label(nd, rule, m) for nd in frontier_nodes for m in range(rule.d)),
            len(frontier_nodes) * rule.d,
        ))
        child_t.append(_per_call(lambda: [child(lb, NodeClass.INTERIOR) for lb in labels], len(labels)))
    return {
        "tree.nodes": (statistics.median(nodes), "count"),
        "tree.edge_label_time": (statistics.median(label_t), "ref"),
        "tree.child_time": (statistics.median(child_t), "ref"),
        "decider.levels": (statistics.median(levels), "count"),
        "decider.closure_time": (statistics.median(closure_t), "ref"),
        "decider.tail_time": (statistics.median(tail_t), "ref"),
        "decider.closure_peak_mb": (max(peaks), "MB"),
    }


def infinite(cases) -> dict[str, tuple[float, str]]:
    graph_t = [timed(lambda: pair_graph(rule)).refs for rule, _ in cases]
    inj_t = [timed(lambda: infinite_injective(rule)).refs for rule, _ in cases]
    return {
        "infinite.pair_graph_time": (statistics.median(graph_t), "ref"),
        "infinite.injective_time": (statistics.median(inj_t), "ref"),
    }


def _median_refs(fn) -> float:
    return statistics.median(timed(fn).refs for _ in range(_REPEATS))


def _child_seconds_refs(argv, env, read) -> float:
    """Median over repeats of a time the child reports, in units of a bare
    interpreter start."""
    clock = start_clock(env)
    values = []
    for _ in range(_REPEATS):
        rec = clock.timed(lambda: run_child(argv, env))
        code, out, err, _ = rec.value
        if code != 0:
            raise RuntimeError(f"{argv} exited {code}: {err.strip()[-200:]}")
        values.append(read(out, err) / rec.ref_seconds)
    return statistics.median(values)


def _numpy_import_seconds(_out: str, err: str) -> float:
    for line in err.splitlines():
        parts = [p.strip() for p in line.split("|")]
        if len(parts) == 3 and parts[2] == "numpy":
            return int(parts[1]) / 1e6
    raise RuntimeError("numpy missing from -X importtime output")


def cli(env, argvs) -> dict[str, tuple[float, str]]:
    py = sys.executable
    import_code = "import time; t = time.perf_counter(); import revca; print(time.perf_counter() - t)"

    def main_quiet(argv):
        with contextlib.redirect_stdout(io.StringIO()):
            revca.cli.main(list(argv))

    main_t = [_median_refs(lambda: main_quiet(argv)) for argv in argvs]
    return {
        "cli.import_time": (_child_seconds_refs([py, "-c", import_code], env, lambda o, e: float(o)), "ref"),
        "cli.import_numpy_time": (
            _child_seconds_refs([py, "-X", "importtime", "-c", "import revca"], env, _numpy_import_seconds),
            "ref",
        ),
        "cli.main_time": (statistics.median(main_t), "ref"),
        # no timer samples: they would share the CPU with the child
        "cli.interpreter_time": (statistics.median(
            Clock(ref_loop, brackets=2).timed(lambda: run_child([py, "-c", "pass"], env)).refs
            for _ in range(_REPEATS)
        ), "ref"),
    }


def measure(workload, env) -> dict[str, tuple[float, str]]:
    cases = workload.probe_cases()
    out = {}
    out.update(tree_and_decider(cases))
    out.update(infinite(cases))
    out["strategies.sample_time"] = (_median_refs(workload.sample), "ref")
    rule3 = workload.oracle_rule()
    out["oracle.time"] = (_median_refs(lambda: oracle_is_reversible(rule3, 12)), "ref")
    out.update(cli(env, workload.main_argvs()))
    return out
