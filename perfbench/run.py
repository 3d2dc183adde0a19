"""textindex_ray benchmark: one workload, one run, one JSON line.

    python3 perfbench/run.py --workload build_zipf --seed 1 --seconds 10 --trace 0

Run from the repository root. It starts its own local Ray cluster (the
logical CPU count is chosen here and printed), generates its inputs from
``--seed``, measures for ``--seconds`` and checks every output against
results computed apart from the program. Scratch files go under
``.bench_work/`` in the repository and are removed at the end.

The last line of standard output is
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``:
end-to-end metrics with ``--trace 0``, per-layer metrics with
``--trace 1``. The line before it starts with ``context`` and records the
machine (nproc, affinity, load, steal ticks, git HEAD, Ray CPUs).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

END_TO_END = {"setup_s": "s", "op_p50_ms": "ms", "query_p50_ms": "ms",
              "index_mb": "MB", "peak_rss_mb": "MB"}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isdir(os.path.join(ROOT, "textindex_ray")):
        print("perfbench: no textindex_ray package next to %s" % HERE, file=sys.stderr)
        return 2
    sys.path.insert(0, ROOT)
    from perfbench import harness, layers, workloads

    if args.workload not in workloads.WORKLOADS:
        print("perfbench: unknown workload %r (one of %s)"
              % (args.workload, ", ".join(workloads.WORKLOADS)), file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2

    cpus = harness.ray_cpu_count()
    ctx = harness.MachineContext(ROOT, cpus)
    work = os.path.join(ROOT, ".bench_work", "run-%d" % os.getpid())
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    cluster = harness.RayCluster(ROOT, work, cpus)
    tracer = harness.Tracer(enabled=bool(args.trace))
    run = workloads.Run(work, args.seed, args.seconds, tracer)
    aborted = None
    t0 = time.perf_counter()
    try:
        with harness.RssSampler() as rss:
            try:
                workloads.WORKLOADS[args.workload](run, cluster)
                workloads.finish(run)
                if args.trace:
                    run.layers = layers.probe(run)
            except harness.RunAborted as e:
                aborted = str(e)
        run.metrics["peak_rss_mb"] = rss.peak_mb
    finally:
        t1 = time.perf_counter()
        cluster.stop()
        shutil.rmtree(work, ignore_errors=True)
    print("perfbench: workload %.1f s, teardown %.1f s"
          % (t1 - t0, time.perf_counter() - t1), file=sys.stderr)
    info = ctx.finish()
    info.update({"workload": args.workload, "seed": args.seed, "seconds": args.seconds})
    for e in run.errors[:20]:
        print("perfbench: " + e, file=sys.stderr)
    if aborted:
        print("perfbench: run aborted: " + aborted, file=sys.stderr)

    units = layers.PER_LAYER if args.trace else END_TO_END
    source = run.layers if args.trace else run.metrics
    metrics = {}
    for n, unit in units.items():
        v = source.get(n)
        if v is None or not math.isfinite(v):
            print("perfbench: metric %s was not measured" % n, file=sys.stderr)
            run.correct = False
            v = 0.0
        metrics[n] = {"value": v, "unit": unit}
    print("context " + json.dumps(info))
    print(json.dumps({"correct": run.correct, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
