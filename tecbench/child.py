"""One workload in a process of its own.

``run.py`` starts this script once per measured run, and a few more times
with ``--setup-only`` to sample set-up time.  It prints one JSON line: the
set-up time, every op's time and outcome, peak RSS and, when traced, the
per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import time
from dataclasses import asdict
from pathlib import Path


def _traced_run(workload, name: str, seconds: float, seed: int, spans_path: Path, meter) -> dict:
    """Untraced ops, then traced ops, then one traced op of each other
    workload and the layer probes, so every per-layer metric is reported."""
    import layers
    from harness import Tracer, closed_loop, patched, run_op
    from workloads import TRACE_POINTS, WORKLOADS

    start = time.perf_counter()
    untraced = closed_loop(workload, 0.35 * seconds, name, meter=meter)
    tracer = Tracer()

    def on_start(op_id):
        tracer.op = op_id

    with patched(tracer, TRACE_POINTS):
        traced = closed_loop(
            workload, 0.7 * seconds - (time.perf_counter() - start), f"{name}/traced",
            on_start=on_start, meter=meter,
        )
        others = []
        for other_name, cls in WORKLOADS.items():
            if other_name != name:
                other = cls(seed, workload.workdir)
                with other.session():
                    on_start(f"{other_name}/traced#0")
                    others.append(run_op(other, tracer.op))
    tracer.write(spans_path)

    metrics = layers.from_spans(tracer.spans)
    metrics.update(layers.probe(seed))
    metrics.update(layers.object_shares(metrics))
    metrics["trace.overhead_s"] = statistics.median(r.ref_seconds for r in traced) - statistics.median(
        r.ref_seconds for r in untraced
    )
    mismatches = []
    for key, got in layers.span_counts(tracer.spans).items():
        read = {r.counts[key] for r in untraced + traced + others if key in r.counts}
        if got != read:
            mismatches.append(f"{key}: spans saw {sorted(got)}, outputs gave {sorted(read)}")
    return {
        "ops": untraced + traced + others,
        "metrics": {k: {"value": metrics[k], "unit": unit} for k, unit in layers.UNITS.items()},
        "mismatches": mismatches,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.monotonic() when the parent started this process")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans", default=None, help="where a traced run writes its spans")
    args = parser.parse_args(argv)

    import numpy

    from calib import Calibration
    from harness import HostMeter, closed_loop
    from workloads import WORKLOADS

    bench_dir = Path(__file__).resolve().parent
    workdir = bench_dir / ".work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir)
        with workload.session():
            setup_s = time.monotonic() - args.spawned_at
            meter = HostMeter(Calibration())
            workload.checkpoint = meter.checkpoint
            out = {"setup_s": setup_s, "numpy": numpy.__version__}
            if not args.setup_only:
                if args.trace:
                    out.update(_traced_run(workload, args.workload, args.seconds, args.seed,
                                           Path(args.spans), meter))
                else:
                    out["ops"] = closed_loop(workload, args.seconds, args.workload, meter=meter)
                    out["mismatches"] = []
                out["ops"] = [asdict(r) for r in out["ops"]]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
