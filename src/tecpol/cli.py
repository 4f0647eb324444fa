"""Command-line front end emitting figure-ready CSV/JSON."""

from __future__ import annotations

import argparse
import ctypes
import functools
import json
import sys
from contextlib import contextmanager, suppress
from typing import Optional

import numpy as np

from . import channel, eigen, kernel, process, spline, trap, verify


def parse_channel_spec(text: str) -> channel.TecChannel:
    """Parse "tec:p,q,r,s,t", "becpair:delta,eps", or "qec:eps"."""
    if ":" not in text:
        raise ValueError(f"channel spec {text!r} lacks a 'kind:' prefix")
    kind, _, args = text.partition(":")
    try:
        vals = [float(v) for v in args.split(",")]
    except ValueError as exc:
        raise ValueError(f"non-numeric value in channel spec {text!r}") from exc
    if kind == "tec" and len(vals) == 5:
        return channel.new_tec(*vals)
    if kind == "becpair" and len(vals) == 2:
        return channel.from_bec_pair(*vals)
    if kind == "qec" and len(vals) == 1:
        return channel.from_qary_erasure(vals[0])
    raise ValueError(f"unrecognized channel spec {text!r}")


@contextmanager
def _output(path: Optional[str]):
    if path is None or path == "-":
        yield sys.stdout
    else:
        with open(path, "w") as fh:
            yield fh


def _write_json(path: Optional[str], payload, **options) -> None:
    text = json.dumps(payload, allow_nan=False, **options)  # before the file opens
    with _output(path) as fh:
        fh.write(text + "\n")


def _print_functionals(w: channel.TecChannel, fh) -> None:
    f = channel.functionals(w)
    fh.write(f"p,q,r,s,t = {','.join(f'{v:.6g}' for v in w.as_tuple())}\n")
    fh.write(f"H = {f.entropy:.6g}\n")
    fh.write(f"E = {f.edge_mass:.6g}\n")
    fh.write(f"A = {f.inertia:.6g}\n")
    q = "undefined" if f.quetelet is None else f"{f.quetelet:.6g}"
    fh.write(f"Q = {q}\n")
    fh.write(f"edge_heavy = {f.is_edge_heavy}\n")


def _given(args) -> dict:
    """The solver options given on the command line; the solver's own defaults
    stand for the rest.  A command's parser declares only the ones it reads."""
    names = ("nodes", "tol", "max_iters")
    return {n: v for n in names if (v := getattr(args, n, None)) is not None}


def _cmd_show(args) -> int:
    w = parse_channel_spec(args.channel)  # before the output file opens
    with _output(args.out) as fh:
        _print_functionals(w, fh)
    return 0


def _cmd_children(args) -> int:
    w = parse_channel_spec(args.channel)
    serial, parallel = kernel.children_arrays(np.array([w.as_tuple()]))
    with _output(args.out) as fh:
        fh.write("serial child:\n")
        _print_functionals(kernel.tec_from_row(serial[0]), fh)
        fh.write("parallel child:\n")
        _print_functionals(kernel.tec_from_row(parallel[0]), fh)
    return 0


def _cmd_scatter(args) -> int:
    records = process.enumerate_descendants(
        parse_channel_spec(args.channel), args.depth, process.KernelKind(args.kernel)
    )
    with _output(args.out) as fh:
        process.write_scatter_csv(records, fh)
    return 0


def _cmd_series(args) -> int:
    series = process.psi_expectation_series(
        parse_channel_spec(args.channel), args.depth, process.KernelKind(args.kernel)
    )
    with _output(args.out) as fh:
        process.write_csv("n,mean_psi,neg_log2_ratio,mean_inertia", series, fh)
    return 0


def _cmd_trap(args) -> int:
    result = trap.iterate_bound(args.mode, **_given(args))
    sys.stderr.write(f"{args.mode} bound: {result.iterations} iterations\n")
    with _output(args.out) as fh:
        spline.write_spline(result.curve, fh)
    return 0


def _cmd_power(args) -> int:
    if args.map != "curve":
        if args.curve_file is not None:
            raise ValueError(f"--curve-file is read only with --map curve, not --map {args.map}")
        curve = np.zeros_like if args.map == "bec" else trap.alpha_parabola
    elif not args.curve_file:
        raise ValueError("--curve-file is required with --map curve")
    else:
        with open(args.curve_file) as fh:
            curve = spline.read_spline(fh)
    result = eigen.power_iterate(curve, **_given(args))
    payload = {
        "lambda": result.lam,
        "mu": result.mu,
        "iterations": result.iterations,
        "residual": result.residual,
        "concave": result.concave,
        "nodes": len(result.eigenfunction.nodes),
    }
    if args.eigenfunction_out:  # first, so --out exists only after success
        with _output(args.eigenfunction_out) as fh:
            spline.write_spline(result.eigenfunction, fh)
    _write_json(args.out, payload)
    return 0


def _cmd_verify_lemma(args) -> int:
    max_ratio, argmax_x = eigen.verify_lemma_eigen(**_given(args))
    payload = {
        "max_ratio": max_ratio,
        "argmax_x": argmax_x,
        "bound": eigen.LEMMA_RATIO_BOUND,
        "pass": max_ratio < eigen.LEMMA_RATIO_BOUND,
    }
    _write_json(args.out, payload)
    return 0 if payload["pass"] else 1


def _cmd_verify(args) -> int:
    ids = verify.CHECK_IDS if args.check == "all" else (args.check,)
    reports = verify.run_checks(ids, args.samples, args.seed)
    _write_json(args.out, [r.to_dict() for r in reports], indent=2)
    for r in reports:
        status = "PASS" if r.passed else "FAIL"
        sys.stderr.write(f"{r.check_id}: {status} (worst margin {r.worst_margin:.3e})\n")
    return 0 if all(r.passed for r in reports) else 1


def _cmd_fig2(args) -> int:
    if args.plot_points < 2:
        raise ValueError(f"--plot-points must be at least 2, got {args.plot_points}")
    # enumerated first, so a bad depth exits before the trap runs or a file opens
    records = process.enumerate_descendants(
        parse_channel_spec(args.channel), args.depth, process.KernelKind.QUATERNARY_TWIST
    )
    grid = np.linspace(0.0, 1.0, args.plot_points)
    options = _given(args)
    phi = trap.iterate_bound("inner", **options).curve(grid)
    chi = trap.iterate_bound("outer", **options).curve(grid)
    with open(f"{args.out_prefix}_curves.csv", "w") as fh:
        header = "x,outer_parabola,outer_numeric,inner_numeric,alpha_parabola"
        columns = [grid, trap.outer_parabola(grid), chi, phi, trap.alpha_parabola(grid)]
        process.write_csv(header, columns, fh)
    with open(f"{args.out_prefix}_scatter.csv", "w") as fh:
        process.write_scatter_csv(records, fh)
    sys.stderr.write(
        f"wrote {args.out_prefix}_curves.csv and {args.out_prefix}_scatter.csv\n"
    )
    return 0


def _cmd_fig3(args) -> int:
    root = parse_channel_spec(args.channel)
    twist = process.psi_expectation_series(root, args.depth, process.KernelKind.QUATERNARY_TWIST)
    base = process.psi_expectation_series(root, args.depth, process.KernelKind.UNTWISTED_BASELINE)
    with _output(args.out) as fh:
        columns = [twist.generation, twist.neg_log2_ratio, base.neg_log2_ratio]
        process.write_csv("n,twist,untwisted", columns, fh)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tecpol",
        description="Polarization dynamics of tetrahedral erasure channels.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # option groups, each declared once and listed in parents= by the commands that
    # read it; they share the Action objects, so no set_defaults may name their dests
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", default=None, help="output path (default stdout)")
    chan = argparse.ArgumentParser(add_help=False)
    chan.add_argument("channel", help="tec:p,q,r,s,t | becpair:d,e | qec:e")
    root = argparse.ArgumentParser(add_help=False)
    root.add_argument("channel", nargs="?", default="becpair:0.55,0.55")
    nodes = argparse.ArgumentParser(add_help=False)
    nodes.add_argument("--nodes", type=int, default=None,
                       help="grid size; trap, fig2 and eigen power solve an even one on size + 1")
    solver = argparse.ArgumentParser(add_help=False, parents=[nodes])
    solver.add_argument("--tol", type=float, default=None)
    solver.add_argument("--max-iters", type=int, default=None)

    p = sub.add_parser("show", parents=[chan, out], help="print channel functionals")
    p.set_defaults(func=_cmd_show)

    p = sub.add_parser("children", parents=[chan, out], help="print both twisted children")
    p.set_defaults(func=_cmd_children)

    p = sub.add_parser("scatter", parents=[chan, out], help="descendant scatter CSV")
    p.add_argument("--depth", type=int, default=10)
    p.add_argument("--kernel", choices=("twist", "untwisted"), default="twist")
    p.set_defaults(func=_cmd_scatter)

    p = sub.add_parser("series", parents=[chan, out], help="per-generation expectation CSV")
    p.add_argument("--depth", type=int, default=20)
    p.add_argument("--kernel", choices=("twist", "untwisted"), default="twist")
    p.set_defaults(func=_cmd_series)

    p = sub.add_parser("trap", parents=[out, solver], help="iterate a numerical trap bound")
    p.add_argument("--mode", choices=("inner", "outer"), required=True)
    p.set_defaults(func=_cmd_trap)

    p = sub.add_parser("eigen", help="eigenvalue certificates")
    actions = p.add_subparsers(dest="action", required=True)

    p = actions.add_parser("power", parents=[out, solver], help="lambda and mu")
    p.add_argument("--map", choices=("bec", "alpha", "curve"), default="bec")
    p.add_argument("--curve-file", default=None)
    p.add_argument("--eigenfunction-out", default=None)
    p.set_defaults(func=_cmd_power)

    p = actions.add_parser("verify-lemma", parents=[out, nodes], help="ratio certificate")
    p.set_defaults(func=_cmd_verify_lemma)

    p = sub.add_parser("verify", parents=[out], help="run theorem checks")
    p.add_argument("check", choices=verify.CHECK_IDS + ("all",))
    p.add_argument("--samples", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("fig2", parents=[root, solver], help="trap curves plus descendant scatter")
    p.add_argument("--depth", type=int, default=10)
    p.add_argument("--plot-points", type=int, default=101)
    p.add_argument("--out-prefix", default="fig2")
    p.set_defaults(func=_cmd_fig2)

    p = sub.add_parser("fig3", parents=[root, out], help="slope series for both kernels")
    p.add_argument("--depth", type=int, default=20)
    p.set_defaults(func=_cmd_fig3)

    return parser


# one parser per process, as argparse takes ms to build; lazy, so import stays cheap
_parser = functools.cache(build_parser)


@functools.cache
def _keep_heap() -> None:
    """Keep numpy's MB-sized temporaries on glibc's heap, untrimmed, so each step
    reuses the pages the last one freed.  Only run() calls it: importers keep
    the allocator as they found it."""
    with suppress(OSError, AttributeError, TypeError):  # no mallopt; Windows: TypeError
        mallopt = ctypes.CDLL(None).mallopt
        mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD: the cap of glibc's dynamic threshold
        mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD: twice it, as glibc's dynamic rule pairs them


def run(argv=None) -> int:
    _keep_heap()
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except (ValueError, OSError, MemoryError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
