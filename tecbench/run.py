"""tecpol benchmark: run one workload, or all three, and print the metrics.

    python3 tecbench/run.py --workload paper-bounds --seed 1 --seconds 30 --trace 0
    python3 tecbench/run.py --seed 1            # every workload, one after another

Run from the root of a checkout.  Each workload runs in a fresh child process
(``child.py``) pinned to one BLAS/OpenMP thread, so its peak RSS and set-up
time are its own.  Set-up is sampled in extra set-up-only children and
reported as the median.  Times are reported in reference seconds: wall time
divided by the host factor of a calibration timed next to it (``calib.py``).
The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; the full record,
including op times and the environment, goes to ``tecbench/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RESULTS = BENCH_DIR / "results"
WORKLOAD_NAMES = ("paper-bounds", "tree-stats", "verify-suite")
#: set-up-only children started besides the measured one; set-up time is
#: their median
SETUP_SAMPLES = 11
#: peak RSS is read after this many ops, so a commit that fits more ops into
#: a run is not charged for the allocator's growth over the extra ones
RSS_OPS = 3
#: a run must end within this many seconds, whatever ``--seconds`` says
RUN_LIMIT_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END_UNITS = {"op_s_p50": "s", "op_s_tail": "s", "peak_rss_mb": "MB", "setup_s": "s"}


class BenchError(RuntimeError):
    pass


def _child(workload: str, seed: int, seconds: float, trace: int, deadline: float,
           setup_only: bool = False, spans: Path | None = None) -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    cmd = [sys.executable, str(BENCH_DIR / "child.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", repr(seconds), "--trace", str(trace)]
    if setup_only:
        cmd.append("--setup-only")
    if spans is not None:
        cmd += ["--spans", str(spans)]
    spawned_at = time.monotonic()
    try:
        proc = subprocess.run(cmd + ["--spawned-at", repr(spawned_at)], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=max(deadline - spawned_at, 1.0))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload} did not finish in time") from exc
    if proc.returncode != 0:
        raise BenchError(f"{workload} child exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _environment(workload: str, seed: int, numpy_version: str) -> dict:
    commit = None
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10).stdout.split()
    except (OSError, subprocess.SubprocessError):
        out = []
    if len(out) == 2 and Path(out[0]).resolve() == ROOT:
        commit = out[1]
    digest = hashlib.sha256()
    for path in sorted((SRC / "tecpol").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": workload,
        "seed": seed,
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "threads": {var: "1" for var in THREAD_VARS},
    }


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """Measure one workload; return the result line plus the full record."""
    from calib import Calibration
    from harness import OpResult, fail_ratio, tail

    deadline = time.monotonic() + RUN_LIMIT_S
    RESULTS.mkdir(exist_ok=True)
    stem = RESULTS / f"{workload}-seed{seed}-trace{trace}"
    calibrate = Calibration()
    setups = []  # (wall seconds, host factor around the child)
    for _ in range(SETUP_SAMPLES):
        before = calibrate()
        wall = _child(workload, seed, seconds, trace, deadline, setup_only=True)["setup_s"]
        setups.append((wall, (before + calibrate()) / 2.0))
    main = _child(workload, seed, seconds, trace, deadline,
                  spans=stem.with_suffix(".spans.jsonl") if trace else None)
    ops = [OpResult(**op) for op in main["ops"]]
    # traced ops carry "/traced" in their id; end-to-end figures use the others
    untraced = [op for op in ops if "/" not in op.op]
    op_tail = tail(op.ref_seconds for op in untraced)
    if trace:
        metrics = main["metrics"]
    else:
        values = {
            "op_s_p50": statistics.median(op.ref_seconds for op in untraced),
            "op_s_tail": op_tail.value,
            "peak_rss_mb": untraced[min(RSS_OPS, len(untraced)) - 1].peak_rss_mb,
            "setup_s": statistics.median(wall / factor for wall, factor in setups),
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    failed = sum(op.failed for op in ops)
    result = {
        "correct": failed == 0 and not main["mismatches"],
        "attempted": len(ops),
        "failed": failed,
        "metrics": metrics,
    }
    record = {
        "result": result,
        "fail_ratio": fail_ratio(ops),
        "tail": {"percentile": op_tail.percentile, "beyond": op_tail.beyond,
                 "samples": op_tail.samples},
        "wall": {
            "op_s_p50": statistics.median(op.seconds for op in untraced),
            "setup_s": statistics.median(wall for wall, _ in setups),
            "measured_child_setup_s": main["setup_s"],
        },
        "host_factor_p50": statistics.median(op.host_factor for op in untraced),
        "setup_samples": [{"wall_s": wall, "host_factor": factor} for wall, factor in setups],
        "ops": main["ops"],
        "mismatches": main["mismatches"],
        "environment": _environment(workload, seed, main["numpy"]),
        "seconds": seconds,
        "trace": trace,
    }
    stem.with_suffix(".json").write_text(json.dumps(record, indent=1) + "\n")
    return record


def _report(record: dict) -> None:
    env = record["environment"]
    res = record["result"]
    print(f"== {env['workload']}  seed={env['seed']}  trace={record['trace']}  "
          f"commit={env['commit'] or 'n/a'}  python={env['python']}  numpy={env['numpy']}  "
          f"nproc={env['nproc']}")
    for name, m in res["metrics"].items():
        print(f"  {name:34s} {m['value']:.6g} {m['unit']}")
    wall = record["wall"]
    print(f"  {'wall op_s_p50 / setup_s':34s} {wall['op_s_p50']:.6g} / {wall['setup_s']:.6g} s "
          f"(host factor p50 {record['host_factor_p50']:.4g})")
    t = record["tail"]
    print(f"  {'fail_ratio':34s} {record['fail_ratio']:.6g} ({res['failed']}/{res['attempted']} ops)")
    print(f"  tail = p{t['percentile']:.0f} of {t['samples']} ops, {t['beyond']} beyond it")
    for op in record["ops"]:
        for miss in op["misses"]:
            print(f"  MISS {op['op']}: {miss}")
        if op["error"]:
            print(f"  ERROR {op['op']}:\n{op['error']}")
    for line in record["mismatches"]:
        print(f"  MISMATCH {line}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES, default=None,
                        help="one workload (default: all, one after another)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "tecpol" / "__init__.py").is_file():
        sys.stderr.write(f"tecbench: no package source at {SRC / 'tecpol'}; run from a checkout\n")
        return 2
    sys.path.insert(0, str(BENCH_DIR))

    names = (args.workload,) if args.workload else WORKLOAD_NAMES
    results = {}
    try:
        for name in names:
            record = run_workload(name, args.seed, args.seconds, args.trace)
            _report(record)
            results[name] = record["result"]
    except BenchError as exc:
        sys.stderr.write(f"tecbench: {exc}\n")
        return 1
    if args.workload:
        print(json.dumps(results[args.workload]))
    else:
        summary = {"correct": all(r["correct"] for r in results.values()),
                   "attempted": sum(r["attempted"] for r in results.values()),
                   "failed": sum(r["failed"] for r in results.values()),
                   "workloads": results}
        (RESULTS / f"all-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(summary, indent=1) + "\n")
        print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
