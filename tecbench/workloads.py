"""The three workloads: what one op runs, and the reference checks on its output.

Each op drives the package the way a user does, mostly through ``cli.run``,
and checks the numbers against the acceptance-suite references with the
acceptance-suite tolerances, no tighter, so that a legitimate change to the
solvers still passes.  An op that misses a check runs to the end.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import re
from pathlib import Path

import numpy as np

from harness import Checks
from tecpol import channel, cli, eigen, process, spline, trap, verify

ROOT_SPEC = "becpair:0.55,0.55"
SCATTER_DEPTH = 16
SAMPLE_DEPTH = 40
SAMPLE_COUNT = 100_000
VERIFY_SAMPLES = 100_000

#: phi = inner bound, chi = outer bound, at x = 0.25 and 0.5
TRAP_REFERENCE = {
    ("inner", 0.25): 0.2997,
    ("inner", 0.5): 0.3930,
    ("outer", 0.25): 0.3492,
    ("outer", 0.5): 0.4439,
}
TRAP_TOL = 0.002
MU_BEC, MU_BEC_TOL = 3.627, 0.01
MU_ALPHA_MAX = 3.451
MU_ENHANCED_MAX = 3.328 + 0.01

#: frozen depth-20 slope table for becpair:0.55,0.55 (generation, twist,
#: untwisted), as in the acceptance suite
SLOPE_TABLE = [
    (1, 0.3825, 0.2898),
    (2, 0.7031, 0.5655),
    (3, 1.0244, 0.8465),
    (4, 1.3296, 1.1205),
    (5, 1.6362, 1.3984),
    (6, 1.9426, 1.6745),
    (7, 2.2470, 1.9503),
    (8, 2.5509, 2.2262),
    (9, 2.8550, 2.5022),
    (10, 3.1585, 2.7780),
    (11, 3.4619, 3.0538),
    (12, 3.7654, 3.3296),
    (13, 4.0687, 3.6054),
    (14, 4.3721, 3.8811),
    (15, 4.6753, 4.1569),
    (16, 4.9784, 4.4326),
    (17, 5.2816, 4.7084),
    (18, 5.5848, 4.9841),
    (19, 5.8880, 5.2598),
    (20, 6.1912, 5.5356),
]
SLOPE_TOL = 0.01
MEAN_H_TOL = 1e-12
SAMPLE_SIGMAS = 5.0

_TRAP_LINE = re.compile(r"^(inner|outer) bound: (\d+) iterations$", re.M)


class Workload:
    """Inputs made from the seed, and a working directory inside the checkout.

    Ops draw their seeds from one stream seeded by the workload seed, so a
    run is reproducible and consecutive ops see different inputs.  An op
    calls ``checkpoint()`` after each step it times as a whole; the runner
    sets it to a ``HostMeter``'s, which calibrates the host there.
    """

    name = ""
    checkpoint = staticmethod(lambda: None)

    def __init__(self, seed: int, workdir: Path):
        self.workdir = workdir
        self.op_seeds = np.random.default_rng(seed).integers(0, 2**31 - 1, size=1 << 16)
        self.ops_run = 0

    def __call__(self, op_id: str) -> Checks:
        op_seed = int(self.op_seeds[self.ops_run % len(self.op_seeds)])
        self.ops_run += 1
        checks = Checks()
        with contextlib.redirect_stderr(io.StringIO()) as err:
            self.op(checks, op_seed)
        self.read_log(checks, err.getvalue())
        return checks

    def session(self):
        """Context the workload's ops run in, entered once per run."""
        return contextlib.nullcontext()

    def op(self, checks: Checks, op_seed: int) -> None:
        raise NotImplementedError

    def read_log(self, checks: Checks, log: str) -> None:
        pass

    def path(self, name: str) -> str:
        return str(self.workdir / name)

    def cli(self, checks: Checks, *argv) -> bool:
        argv = [str(a) for a in argv]
        rc = cli.run(argv)
        self.checkpoint()
        return checks.expect(f"{argv[0]} exit code", rc == 0, f"{' '.join(argv)} -> {rc}")

    def cli_json(self, checks: Checks, *argv):
        out = self.path("out.json")
        self.cli(checks, *argv, "--out", out)
        with open(out) as fh:
            return json.load(fh)


def curve_at(path: str, points) -> dict:
    """Linear interpolation of an ``x,y`` curve file at increasing ``points``,
    reading only as far as the last point needs."""
    want = sorted(points)
    found = {}
    with open(path) as fh:
        if fh.readline().strip() != "x,y":
            raise ValueError(f"{path} lacks the x,y header")
        x0 = y0 = None
        for line in fh:
            x1, y1 = (float(v) for v in line.split(","))
            while want and x1 >= want[0]:
                x = want.pop(0)
                found[x] = y1 if x0 is None or x1 == x0 else y0 + (y1 - y0) * (x - x0) / (x1 - x0)
            if not want:
                return found
            x0, y0 = x1, y1
    raise ValueError(f"{path} ends before x={want[0]}")


class PaperBounds(Workload):
    """Trap curves, then mu for the enhanced, baseline and rigorous maps, then
    the lemma certificate, on the default 100k-node grids.  Deterministic."""

    name = "paper-bounds"

    def op(self, checks: Checks, op_seed: int) -> None:
        phi, chi = self.path("phi.csv"), self.path("chi.csv")
        self.cli(checks, "trap", "--mode", "inner", "--out", phi)
        runs = {"phi": self.cli_json(checks, "eigen", "power", "--map", "curve", "--curve-file", phi)}
        self.cli(checks, "trap", "--mode", "outer", "--out", chi)
        runs["bec"] = self.cli_json(checks, "eigen", "power", "--map", "bec")
        runs["alpha"] = self.cli_json(checks, "eigen", "power", "--map", "alpha")
        lemma = self.cli_json(checks, "eigen", "verify-lemma")

        for mode, path in (("inner", phi), ("outer", chi)):
            got = curve_at(path, (0.25, 0.5))
            for x, y in got.items():
                want = TRAP_REFERENCE[(mode, x)]
                checks.expect(f"{mode}({x})", abs(y - want) <= TRAP_TOL, f"{y:.5f} vs {want}")
        mu = {k: v["mu"] for k, v in runs.items()}
        checks.expect("mu bec", abs(mu["bec"] - MU_BEC) <= MU_BEC_TOL, f"{mu['bec']:.4f}")
        checks.expect("mu alpha", mu["alpha"] <= MU_ALPHA_MAX, f"{mu['alpha']:.4f}")
        checks.expect("mu enhanced", mu["phi"] <= MU_ENHANCED_MAX, f"{mu['phi']:.4f}")
        checks.expect(
            "lemma ratio",
            lemma["max_ratio"] < eigen.LEMMA_RATIO_BOUND,
            f"{lemma['max_ratio']:.7f}",
        )
        for k, v in runs.items():
            checks.counts[f"eigen.power_iters.{k}"] = v["iterations"]

    def read_log(self, checks: Checks, log: str) -> None:
        for mode, iters in _TRAP_LINE.findall(log):
            checks.counts[f"trap.{mode}_iters"] = int(iters)


class TreeStats(Workload):
    """Exact depth-20 slope series for both kernels, the exact depth-16
    scatter, and 100k sampled depth-40 paths."""

    name = "tree-stats"

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        self.root = cli.parse_channel_spec(ROOT_SPEC)
        self.root_h = channel.functionals(self.root).entropy
        self.leaves = None

    @contextlib.contextmanager
    def session(self):
        """Keep the records ``scatter`` builds, so the op can check their
        entropies at full precision rather than from the 6-digit CSV."""
        original = process.enumerate_descendants

        def keeping(*args, **kwargs):
            self.leaves = original(*args, **kwargs)
            return self.leaves

        process.enumerate_descendants = keeping
        try:
            yield
        finally:
            process.enumerate_descendants = original

    def op(self, checks: Checks, op_seed: int) -> None:
        fig3, scatter = self.path("fig3.csv"), self.path("scatter.csv")
        self.cli(checks, "fig3", ROOT_SPEC, "--depth", len(SLOPE_TABLE), "--out", fig3)
        self.leaves = None
        self.cli(checks, "scatter", ROOT_SPEC, "--depth", SCATTER_DEPTH, "--out", scatter)
        leaves, self.leaves = self.leaves, None
        paths = process.sample_paths(self.root, SAMPLE_DEPTH, SAMPLE_COUNT, op_seed)
        self.checkpoint()

        with open(fig3) as fh:
            rows = [tuple(float(v) for v in line.split(",")) for line in list(fh)[1:]]
        gap = max(
            (max(abs(t - want_t), abs(b - want_b))
             for (n, t, b), (m, want_t, want_b) in zip(rows, SLOPE_TABLE) if n == m),
            default=math.inf,
        )
        checks.expect(
            "slope table", len(rows) == len(SLOPE_TABLE) and gap <= SLOPE_TOL, f"gap {gap:.4f}"
        )
        with open(scatter) as fh:
            n_rows = sum(1 for _ in fh) - 1
        checks.expect("scatter rows", n_rows == 1 << SCATTER_DEPTH, str(n_rows))
        if checks.expect("scatter records", leaves is not None and len(leaves) == n_rows):
            drift = abs(math.fsum(r.entropy for r in leaves) / len(leaves) - self.root_h)
            checks.expect("leaf mean H", drift <= MEAN_H_TOL, f"off by {drift:.2e}")
        h = np.fromiter((r.entropy for r in paths), float, len(paths))
        se = float(h.std(ddof=1)) / math.sqrt(len(h))
        dev = abs(float(h.mean()) - self.root_h)
        checks.expect("sampled mean H", dev <= SAMPLE_SIGMAS * se, f"{dev / se:.2f} SE")


class VerifySuite(Workload):
    """``verify all`` at 100k samples, seeded from the workload seed."""

    name = "verify-suite"

    def op(self, checks: Checks, op_seed: int) -> None:
        reports = self.cli_json(
            checks, "verify", "all", "--samples", VERIFY_SAMPLES, "--seed", op_seed
        )
        checks.counts["verify.failed_checks"] = sum(not r["pass"] for r in reports)
        checks.expect("verify ids", [r["id"] for r in reports] == list(verify.CHECK_IDS))


WORKLOADS = {w.name: w for w in (PaperBounds, TreeStats, VerifySuite)}


def _map_label(argv) -> dict:
    argv = list(argv)
    if "--map" not in argv:
        return {}
    label = argv[argv.index("--map") + 1]
    return {"map": "phi" if label == "curve" else label}


#: the public calls whose spans the traced run records:
#: (module, attribute, span name, attributes read from the call)
TRACE_POINTS = (
    (cli, "run", "cli", lambda a, k, r: {"command": a[0][0], "rc": r, **_map_label(a[0])}),
    (trap, "iterate_bound", "trap.iterate_bound",
     lambda a, k, r: {"mode": a[0], "iterations": r.iterations, "converged": r.converged}),
    (trap, "compose_through_inverse", "spline.compose_through_inverse", None),
    (spline, "write_spline", "spline.write_spline", None),
    (spline, "read_spline", "spline.read_spline", None),
    (eigen, "power_iterate", "eigen.power_iterate", lambda a, k, r: {"iterations": r.iterations}),
    (eigen, "verify_lemma_eigen", "eigen.verify_lemma_eigen", None),
    (process, "psi_expectation_series", "process.psi_expectation_series", None),
    (process, "enumerate_descendants", "process.enumerate_descendants", None),
    (process, "sample_paths", "process.sample_paths", None),
    (process, "write_scatter_csv", "process.write_scatter_csv", None),
    (verify, "run_check", "verify.run_check",
     lambda a, k, r: {"check": r.check_id, "passed": r.passed}),
)
