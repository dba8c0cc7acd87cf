#!/usr/bin/env python3
"""Benchmark of revca, one workload per run.

    python3 bench/run.py --workload sweep --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout; revca is imported from ``src/``. The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``. See README.md.
"""

from __future__ import annotations

import os

# The children a user would start get the environment as it was; this
# process keeps numpy's BLAS to one thread, so it runs no extra threads.
USER_ENV = dict(os.environ)
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("sweep", "large-n", "cli")
#: Set-up is measured this many times before the timed pass and as many
#: after it; the machine's speed changes between the two.
SETUP_REPEATS = 4
OUT_DIR = HERE / "out"


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def _setup_probe(args) -> int:
    """Child mode: import revca and build the inputs, print the seconds."""
    from timing import Tracer

    start = time.perf_counter()
    import workloads

    workloads.make(args.workload, args.seed, Tracer(False), {})
    print(json.dumps({"setup_s": time.perf_counter() - start}))
    return 0


def _setup_seconds(args) -> list[float]:
    from workloads import run_child

    argv = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--setup-probe"]
    values = []
    for _ in range(SETUP_REPEATS):
        code, out, err, _ = run_child(argv, dict(os.environ))
        if code != 0:
            raise RuntimeError(f"setup probe exited {code}: {err.strip()[-300:]}")
        values.append(json.loads(out.splitlines()[-1])["setup_s"])
    return values


def _timed_pass(workload, seconds: float, tracer):
    """Whole rounds; another starts only if a round like the last fits."""
    records = []
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        for op in workload.round:
            gc.collect()  # each operation starts from the same collector state
            with tracer.span("op", workload.name):
                rec = workload.clock.timed(lambda: workload.run(op, tracer))
            records.append((op, rec))
        now = time.perf_counter()
        if now - start + (now - round_start) > seconds:
            return records


def _peak_rss_kb(workload, records) -> int:
    """The largest child for ``cli``; this process for the others."""
    if workload.name == "cli":
        return max(rec.value.maxrss_kb for _, rec in records)
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _end_to_end(workload, records, setup_s: float, rss_kb: int) -> dict:
    """Times over the operations that succeeded; the rate over the whole pass."""
    from timing import percentile

    ok = sorted(rec.refs for _, rec in records if not rec.value.failed)
    total = sum(rec.refs for _, rec in records)
    ok_per_round = len(ok) // (len(records) // len(workload.round))
    return {
        "setup_s": (setup_s, "s"),
        "ops_rate": (1000 * len(ok) / total, "1/kref"),
        "op_time_p50": (statistics.median(ok), "ref"),
        "op_time_tail": (percentile(ok, 1 - 10 / ok_per_round), "ref"),
        "peak_rss_mb": (rss_kb / 1024, "MB"),
    }


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "revca" / "__init__.py").is_file():
        print(f"error: no revca package at {SRC / 'revca'}; run from a checkout root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from timing import Tracer, pin_to_one_cpu

    pin_to_one_cpu()
    if args.setup_probe:
        return _setup_probe(args)

    import workloads

    tracer = Tracer(bool(args.trace))
    env = workloads.child_env(ROOT, USER_ENV)
    workload = workloads.make(args.workload, args.seed, tracer, env)
    setup = _setup_seconds(args)
    records = _timed_pass(workload, args.seconds, tracer)
    rss_kb = _peak_rss_kb(workload, records)
    setup_s = statistics.median(setup + _setup_seconds(args))

    problems = list(workload.input_problems())
    for op, rec in records:
        if not rec.value.failed:
            problems += workload.problems(op, rec.value.value)
    failed = sum(1 for _, rec in records if rec.value.failed)

    if args.trace:
        import layers

        e2e = _end_to_end(workload, records, setup_s, rss_kb)
        metrics = layers.measure(workload, env)
        metrics["trace.op_time_p50"] = e2e["op_time_p50"]
        path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
        tracer.write(path, {"workload": args.workload, "seed": args.seed})
        print(f"spans written to {path.relative_to(ROOT)}", file=sys.stderr)
    else:
        metrics = _end_to_end(workload, records, setup_s, rss_kb)
    for p in problems[:20]:
        print(f"check failed: {p}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": len(records),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
