import json
import os
import re
import resource
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from tecpol import cli, process, trap, verify
from tecpol.channel import from_bec_pair, from_qary_erasure, new_tec


def test_parse_channel_spec_kinds():
    assert cli.parse_channel_spec("tec:0.2,0.2,0.2,0.2,0.2") == new_tec(
        0.2, 0.2, 0.2, 0.2, 0.2
    )
    assert cli.parse_channel_spec("becpair:0.55,0.55") == from_bec_pair(0.55, 0.55)
    assert cli.parse_channel_spec("qec:0.3") == from_qary_erasure(0.3)


@pytest.mark.parametrize(
    "bad",
    ["0.5,0.5", "tec:1,2", "becpair:a,b", "weird:0.5", "qec:0.1,0.2"],
)
def test_parse_channel_spec_rejects(bad):
    with pytest.raises(ValueError):
        cli.parse_channel_spec(bad)


def test_show_command(capsys):
    assert cli.run(["show", "becpair:0.55,0.55"]) == 0
    out = capsys.readouterr().out
    assert "H = 0.55" in out
    assert "Q = 2" in out
    assert "edge_heavy = True" in out


def test_show_degenerate_quetelet(capsys):
    assert cli.run(["show", "tec:1,0,0,0,0"]) == 0
    assert "Q = undefined" in capsys.readouterr().out


#: full stdout of ``children``, frozen; the children come from the array kernel
CHILDREN_GOLDEN = {
    "becpair:0.55,0.55": (
        "serial child:\n"
        "p,q,r,s,t = 0.0410062,0.161494,0.0501187,0.0501187,0.697263\n"
        "H = 0.828128\n"
        "E = 0.261731\n"
        "A = 0.0248088\n"
        "Q = 1.83888\n"
        "edge_heavy = True\n"
        "parallel child:\n"
        "p,q,r,s,t = 0.547762,0.210994,0.0748688,0.0748688,0.0915063\n"
        "H = 0.271872\n"
        "E = 0.360731\n"
        "A = 0.03706\n"
        "Q = 1.82227\n"
        "edge_heavy = True\n"
    ),
    "tec:0.1,0.2,0.3,0.15,0.25": (
        "serial child:\n"
        "p,q,r,s,t = 0.01,0.065,0.11,0.09,0.725\n"
        "H = 0.8575\n"
        "E = 0.265\n"
        "A = 0.00305\n"
        "Q = 2.16869\n"
        "edge_heavy = True\n"
        "parallel child:\n"
        "p,q,r,s,t = 0.4775,0.1175,0.185,0.1575,0.0625\n"
        "H = 0.2925\n"
        "E = 0.46\n"
        "A = 0.0069125\n"
        "Q = 2.22283\n"
        "edge_heavy = True\n"
    ),
}


def test_children_command(capsys):
    for spec, want in CHILDREN_GOLDEN.items():
        assert cli.run(["children", spec]) == 0
        assert capsys.readouterr().out == want


def test_scatter_command(tmp_path):
    path = str(tmp_path / "scatter.csv")
    assert cli.run(["scatter", "becpair:0.55,0.55", "--depth", "3", "--out", path]) == 0
    lines = Path(path).read_text().splitlines()
    assert lines[0] == "path,H,E,A"
    assert len(lines) == 9


def test_series_command(capsys):
    assert cli.run(["series", "becpair:0.55,0.55", "--depth", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "n,mean_psi,neg_log2_ratio,mean_inertia"
    assert len(lines) == 3
    assert lines[1].startswith("1,")


@pytest.mark.parametrize("depth", [0, 12])
@pytest.mark.parametrize("kernel", ["twist", "untwisted"])
def test_series_csv_matches_the_percent_format(capsys, bec55, kernel, depth):
    argv = ["series", "becpair:0.55,0.55", "--depth", str(depth), "--kernel", kernel]
    assert cli.run(argv) == 0
    series = process.psi_expectation_series(bec55, depth, process.KernelKind(kernel))
    want = "n,mean_psi,neg_log2_ratio,mean_inertia\n" + "".join(
        "%d,%.6g,%.6g,%.6g\n" % row for row in zip(*series)
    )
    assert capsys.readouterr().out == want


def test_series_deterministic(tmp_path):
    a = str(tmp_path / "a.csv")
    b = str(tmp_path / "b.csv")
    cli.run(["series", "becpair:0.55,0.55", "--depth", "6", "--out", a])
    cli.run(["series", "becpair:0.55,0.55", "--depth", "6", "--out", b])
    assert Path(a).read_bytes() == Path(b).read_bytes()


def test_trap_command(tmp_path, capsys):
    path = str(tmp_path / "inner.csv")
    args = ["trap", "--mode", "inner", "--nodes", "5000", "--out", path]
    assert cli.run(args) == 0
    # the benchmark counts trap iterations from this line
    assert re.fullmatch(r"inner bound: [1-9]\d* iterations\n", capsys.readouterr().err)
    lines = Path(path).read_text().splitlines()
    assert lines[0] == "x,y"
    assert len(lines) == 5002  # an even count solves on one node more, so 1/2 is a node


def test_eigen_verify_lemma(capsys):
    assert cli.run(["eigen", "verify-lemma", "--nodes", "5000"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["pass"] is True
    assert payload["max_ratio"] < payload["bound"]


@pytest.mark.parametrize(
    "option, value",
    [
        ("--map", "curve"),
        ("--curve-file", "curve.csv"),
        ("--tol", "0"),
        ("--max-iters", "0"),
        ("--psi-exponent", "0"),
        ("--eigenfunction-out", "psi.csv"),
    ],
)
def test_verify_lemma_rejects_options_it_does_not_read(
    tmp_path, monkeypatch, capsys, option, value
):
    monkeypatch.chdir(tmp_path)
    assert cli.run(["eigen", "verify-lemma", option, value, "--out", "lemma.json"]) == 2
    assert f"unrecognized arguments: {option}" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "command",
    ["show", "children", "scatter", "series", "trap", "eigen", "eigen power",
     "eigen verify-lemma", "verify", "fig2", "fig3"],
)
def test_help_exits_0(capsys, command):
    assert cli.run(command.split() + ["--help"]) == 0
    assert capsys.readouterr().out.startswith(f"usage: tecpol {command} ")


def test_eigen_power_bec(capsys):
    assert cli.run(["eigen", "power", "--map", "bec", "--nodes", "5000"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["mu"] == pytest.approx(3.627, abs=0.02)
    assert payload["concave"] is True


def test_eigen_power_curve_file(tmp_path, capsys):
    curve = str(tmp_path / "curve.csv")
    cli.run(["trap", "--mode", "inner", "--nodes", "5000", "--out", curve])
    capsys.readouterr()
    args = ["eigen", "power", "--map", "curve", "--curve-file", curve,
            "--nodes", "5000"]
    assert cli.run(args) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["mu"] < 3.451


@pytest.mark.parametrize(
    "curve", [lambda x: -0.2 * x * (1 - x), lambda x: 0.9], ids=["negative", "above-cap"]
)
def test_eigen_power_rejects_infeasible_curve_file(tmp_path, capsys, curve):
    # y < 0, or y above 2 min(x, 1 - x), is no balanced channel
    path = str(tmp_path / "curve.csv")
    with open(path, "w") as fh:
        fh.write("x,y\n")
        for x in [i / 100 for i in range(101)]:
            fh.write(f"{x!r},{curve(x)!r}\n")
    args = ["eigen", "power", "--map", "curve", "--curve-file", path, "--nodes", "5000"]
    assert cli.run(args) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "is not a balanced point" in captured.err


def test_verify_single_check(capsys):
    assert cli.run(["verify", "conservation", "--samples", "2000"]) == 0
    captured = capsys.readouterr()
    reports = json.loads(captured.out)
    assert reports[0]["id"] == "conservation"
    assert "conservation: PASS" in captured.err


def test_verify_all(capsys):
    assert cli.run(["verify", "all", "--samples", "1000"]) == 0
    reports = json.loads(capsys.readouterr().out)
    assert len(reports) == 11
    assert [r["id"] for r in reports] == list(verify.CHECK_IDS)


@pytest.mark.parametrize("seed", [0, 5])
def test_verify_all_prints_strict_json(capsys, seed):
    def reject(constant):
        raise ValueError(f"{constant} is not JSON")

    assert cli.run(["verify", "all", "--samples", "100000", "--seed", str(seed)]) == 0
    reports = json.loads(capsys.readouterr().out, parse_constant=reject)
    assert all(r["pass"] for r in reports)


def test_ultimate_a_fails_when_children_copy_their_parent(monkeypatch, capsys):
    # A_n then stays at the root's inertia, above 3/(n+1) for n large
    monkeypatch.setattr(verify.kernel, "children_arrays", lambda w: (w, w))
    assert cli.run(["verify", "ultimate-A", "--samples", "200"]) == 1
    assert "ultimate-A: FAIL" in capsys.readouterr().err


def test_non_finite_json_exits_2_and_writes_nothing(tmp_path, monkeypatch, capsys):
    nan_margin = lambda rng, samples: (np.array([np.nan]), {})
    monkeypatch.setitem(verify._CHECKS, "trap", (None, nan_margin))
    out = tmp_path / "out.json"
    assert cli.run(["verify", "trap", "--samples", "10", "--out", str(out)]) == 2
    assert "error: Out of range float values are not JSON compliant" in capsys.readouterr().err
    assert not out.exists()


@pytest.fixture()
def address_space_cap():
    """Caps the address space at 1 TiB while the test runs, so an allocation far
    above it fails at once, whatever the kernel's overcommit policy."""
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    cap = 2**40 if hard == resource.RLIM_INFINITY else min(2**40, hard)
    resource.setrlimit(resource.RLIMIT_AS, (cap, hard))
    yield
    resource.setrlimit(resource.RLIMIT_AS, (soft, hard))


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "all", "--samples", "10000000000000"],
        ["eigen", "verify-lemma", "--nodes", "10000000000000"],
    ],
    ids=["verify-all", "verify-lemma"],
)
def test_allocation_that_cannot_succeed_exits_2(tmp_path, capsys, address_space_cap, argv):
    # exit 1 would read as a failed check or certificate
    out = tmp_path / "out.json"
    assert cli.run(argv + ["--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: Unable to allocate")
    assert not out.exists()


def test_fig3_command(capsys):
    assert cli.run(["fig3", "--depth", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "n,twist,untwisted"
    assert len(lines) == 3


@pytest.mark.parametrize("depth", [0, 6])
def test_fig3_csv_matches_the_percent_format(capsys, bec55, depth):
    assert cli.run(["fig3", "--depth", str(depth)]) == 0
    twist, base = (
        process.psi_expectation_series(bec55, depth, kind) for kind in process.KernelKind
    )
    want = "n,twist,untwisted\n" + "".join(
        "%d,%.6g,%.6g\n" % row
        for row in zip(twist.generation, twist.neg_log2_ratio, base.neg_log2_ratio)
    )
    assert capsys.readouterr().out == want


#: full stdout of two depth-20 tree walks, frozen; a change to the walker must
#: keep them byte for byte
FIG3_DEPTH_20 = (
    "n,twist,untwisted\n"
    "1,0.382547,0.289855\n"
    "2,0.703193,0.565596\n"
    "3,1.02442,0.846558\n"
    "4,1.32961,1.12054\n"
    "5,1.63626,1.39842\n"
    "6,1.94264,1.67454\n"
    "7,2.24705,1.95035\n"
    "8,2.55098,2.22625\n"
    "9,2.85505,2.50225\n"
    "10,3.15854,2.77801\n"
    "11,3.46193,3.05382\n"
    "12,3.76543,3.3297\n"
    "13,4.06876,3.60544\n"
    "14,4.37212,3.88117\n"
    "15,4.67531,4.1569\n"
    "16,4.97849,4.43269\n"
    "17,5.28168,4.70845\n"
    "18,5.58489,4.98416\n"
    "19,5.88803,5.2599\n"
    "20,6.19125,5.53565\n"
)
SERIES_UNTWISTED_DEPTH_20 = (
    "n,mean_psi,neg_log2_ratio,mean_inertia\n"
    "1,0.307785,0.289855,0.0705986\n"
    "2,0.254239,0.565596,0.0622299\n"
    "3,0.209249,0.846558,0.0419688\n"
    "4,0.173056,1.12054,0.0373962\n"
    "5,0.142737,1.39842,0.0288632\n"
    "6,0.117874,1.67454,0.0233711\n"
    "7,0.0973619,1.95035,0.0191693\n"
    "8,0.0804147,2.22625,0.0157493\n"
    "9,0.0664128,2.50225,0.01285\n"
    "10,0.0548578,2.77801,0.0105835\n"
    "11,0.0453116,3.05382,0.00872238\n"
    "12,0.0374252,3.3297,0.00716052\n"
    "13,0.0309142,3.60544,0.00590372\n"
    "14,0.0255361,3.88117,0.00487017\n"
    "15,0.0210936,4.1569,0.00402322\n"
    "16,0.0174233,4.43269,0.0033171\n"
    "17,0.0143919,4.70845,0.00273502\n"
    "18,0.0118883,4.98416,0.00225997\n"
    "19,0.00982008,5.2599,0.00186623\n"
    "20,0.00811161,5.53565,0.00154027\n"
)


@pytest.mark.parametrize(
    "argv,want",
    [
        (["fig3", "--depth", "20"], FIG3_DEPTH_20),
        (
            ["series", "becpair:0.55,0.55", "--depth", "20", "--kernel", "untwisted"],
            SERIES_UNTWISTED_DEPTH_20,
        ),
    ],
    ids=["fig3", "series-untwisted"],
)
def test_depth_20_walks_are_byte_identical(capsys, argv, want):
    assert cli.run(argv) == 0
    assert capsys.readouterr().out == want


def test_fig2_command(tmp_path, capsys):
    prefix = str(tmp_path / "fig2")
    # a coarse grid keeps the test fast; at the default tol the inner bound
    # converges from 100 nodes up
    args = ["fig2", "--depth", "3", "--nodes", "3000", "--out-prefix", prefix]
    assert cli.run(args) == 0
    curves = Path(prefix + "_curves.csv").read_text().splitlines()
    scatter = Path(prefix + "_scatter.csv").read_text().splitlines()
    assert curves[0] == "x,outer_parabola,outer_numeric,inner_numeric,alpha_parabola"
    row = dict(zip(curves[0].split(","), map(float, curves[51].split(","))))
    assert row["x"] == 0.5
    assert row["inner_numeric"] == pytest.approx(0.39295, abs=0.005)
    assert scatter[0] == "path,H,E,A"
    assert len(scatter) == 9


def test_fig2_curves_csv_matches_the_percent_format(tmp_path, capsys):
    prefix = str(tmp_path / "fig2")
    args = ["fig2", "--depth", "0", "--nodes", "3000", "--plot-points", "1001"]
    assert cli.run(args + ["--out-prefix", prefix]) == 0
    grid = np.linspace(0.0, 1.0, 1001)
    columns = [
        grid,
        trap.outer_parabola(grid),
        trap.iterate_bound("outer", nodes=3000).curve(grid),
        trap.iterate_bound("inner", nodes=3000).curve(grid),
        trap.alpha_parabola(grid),
    ]
    want = "x,outer_parabola,outer_numeric,inner_numeric,alpha_parabola\n" + "".join(
        "%.6g,%.6g,%.6g,%.6g,%.6g\n" % row for row in zip(*columns)
    )
    assert Path(prefix + "_curves.csv").read_text() == want


def test_fig2_without_convergence_exits_2_and_writes_nothing(tmp_path, monkeypatch, capsys):
    prefix = tmp_path / "fig2"
    # at 100 nodes and tol 1e-7 the inner iterate drains toward zero instead of
    # converging, and falls below the alpha parabola at step 1,513 of 2,000
    args = ["fig2", "--depth", "3", "--nodes", "100", "--tol", "1e-7"]
    assert cli.run(args + ["--out-prefix", str(prefix)]) == 2
    assert "the iterate fell below the alpha parabola" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []
    # a bad depth exits before the trap runs
    monkeypatch.setattr(trap, "iterate_bound", lambda *a, **k: pytest.fail("trap ran"))
    for depth, message in [(-1, "depth must be nonnegative"), (25, "depth 25 exceeds 23")]:
        assert cli.run(["fig2", "--depth", str(depth), "--out-prefix", str(prefix)]) == 2
        assert message in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


def test_scatter_over_the_table_budget_exits_2_before_allocating(traced_peak, capsys):
    # depth 23 needs about 0.74 GiB, depth 24 about 1.5 GiB of the 1 GiB budget
    assert process.MAX_EXACT_DEPTH == 23
    codes = []
    peak = traced_peak(lambda: codes.append(cli.run(["scatter", "qec:0.5", "--depth", "24"])))
    assert codes == [2] and peak < 2**20
    assert "needs 1,610,612,736 bytes" in capsys.readouterr().err


def test_usage_error_exit_code(capsys):
    assert cli.run(["show", "tec:0.9,0.9,0.9,0.9,0.9"]) == 2
    assert "error:" in capsys.readouterr().err
    assert cli.run(["no-such-command"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv, name",
    [
        (["trap", "--mode", "inner", "--max-iters", "0"], "max_iters"),
        (["trap", "--mode", "inner", "--max-iters", "-5"], "max_iters"),
        (["trap", "--mode", "inner", "--max-iters", "3"], "did not reach"),
        (["trap", "--mode", "inner", "--tol", "0"], "tol"),
        (["eigen", "power", "--tol", "0"], "tol"),
        (["eigen", "power", "--max-iters", "0"], "max_iters"),
        (["eigen", "power", "--psi-exponent", "0.5"], "unrecognized arguments"),
        (
            ["series", "becpair:0.55,0.55", "--depth", "4", "--psi-exponent", "-1"],
            "unrecognized arguments: --psi-exponent",
        ),
        (
            ["series", "becpair:0.55,0.55", "--depth", "4", "--psi-exponent", "nan"],
            "unrecognized arguments: --psi-exponent",
        ),
        (
            ["fig3", "--depth", "4", "--psi-exponent", "0"],
            "unrecognized arguments: --psi-exponent",
        ),
        (["eigen", "power", "--max-iters", "3"], "did not reach"),
    ],
    ids=[
        "trap-max-iters-0",
        "trap-max-iters-negative",
        "trap-no-convergence",
        "trap-tol-0",
        "eigen-tol-0",
        "eigen-max-iters-0",
        "eigen-psi-exponent-unrecognized",
        "series-psi-exponent-negative-unrecognized",
        "series-psi-exponent-nan-unrecognized",
        "fig3-psi-exponent-0-unrecognized",
        "eigen-no-convergence",
    ],
)
def test_solver_argument_errors_exit_2(tmp_path, capsys, argv, name):
    out = tmp_path / "out.csv"
    assert cli.run(argv + ["--out", str(out)]) == 2
    assert name in capsys.readouterr().err
    assert not out.exists()


_CURVE = ["eigen", "power", "--map", "curve", "--curve-file", "curve.csv"]
# a valid curve file beside a map that does not read it
_STRAY = ["eigen", "power", "--curve-file", "curve.csv", "--map"]


@pytest.mark.parametrize(
    "argv, curve, message",
    [
        (_CURVE, "0,0\n", "need matching 1-d nodes/values with at least 2 entries"),
        (_CURVE, "0,0\n0.5,nan\n1,0\n", "nodes and values must be finite"),
        (_CURVE, "0,0\ninf,0\n", "nodes and values must be finite"),
        (_CURVE, "0,0\n0.6,0.1\n0.4,0.1\n1,0\n", "nodes must be strictly increasing"),
        (_CURVE[:4], None, "--curve-file is required with --map curve"),
        (_STRAY + ["bec"], "0,0\n1,0\n", "read only with --map curve, not --map bec"),
        (_STRAY + ["alpha"], "0,0\n1,0\n", "read only with --map curve, not --map alpha"),
        (["show", "tec:nan,0,0,0,1"], None, "component p is not finite"),
        (["show", "becpair:1.5,0.5"], None, "outside [0, 1]"),
        (["eigen", "verify-lemma", "--nodes", "999"], None, "need at least 1000 nodes"),
        # depth 99 fails the enumeration at once, so these show the check comes first
        (["fig2", "--depth", "99", "--plot-points", "0"], None, "--plot-points must be at least 2"),
        (["fig2", "--depth", "99", "--plot-points", "-3"], None, "--plot-points must be at least 2"),
        (["show", "tec:0.5,-0.1,0.3,0.2,0.1"], None,
         "error: component q=-0.1 is negative beyond tolerance\n"),
        (["show", "tec:0.9,0.9,0.9,0.9,0.9"], None,
         "error: components sum to 4.5, not 1 within 1e-12\n"),
        (["show", "qec:1.5"], None, "error: erasure probability 1.5 outside [0, 1]\n"),
        (["series", "qec:0", "--depth", "3"], None, "error: root entropy 0.0 is fully polarized\n"),
        # the eigenfunction is written before the JSON, so its failure leaves no --out
        (["eigen", "power", "--nodes", "1000", "--eigenfunction-out", "missing/psi.csv"], None,
         "error: [Errno 2] No such file or directory: 'missing/psi.csv'\n"),
    ],
    ids=[
        "curve-one-row",
        "curve-nan-value",
        "curve-inf-node",
        "curve-decreasing",
        "curve-file-missing",
        "curve-file-with-map-bec",
        "curve-file-with-map-alpha",
        "show-tec-nan",
        "show-becpair-outside",
        "verify-lemma-999-nodes",
        "fig2-plot-points-0",
        "fig2-plot-points-negative",
        "show-tec-negative",
        "show-tec-sum",
        "show-qec-outside",
        "series-fully-polarized-root",
        "eigenfunction-out-unwritable",
    ],
)
def test_bad_input_exits_2_without_output(tmp_path, monkeypatch, capsys, argv, curve, message):
    monkeypatch.chdir(tmp_path)
    if curve is not None:
        Path("curve.csv").write_text("x,y\n" + curve)
    before = set(tmp_path.iterdir())
    out = ["--out-prefix", "out"] if argv[0] == "fig2" else ["--out", "out.txt"]
    assert cli.run(argv + out) == 2
    assert message in capsys.readouterr().err
    assert set(tmp_path.iterdir()) == before


@pytest.mark.parametrize("bad", ["0.5,0.1,3", "0.5"], ids=["three-values", "one-value"])
def test_malformed_curve_file_names_the_line(tmp_path, capsys, bad):
    curve, out = tmp_path / "curve.csv", tmp_path / "out.json"
    curve.write_text(f"x,y\n0,0\n{bad}\n1,1\n")
    argv = ["eigen", "power", "--map", "curve", "--curve-file", str(curve), "--out", str(out)]
    assert cli.run(argv) == 2
    assert f"line 3 is not 'x,y': {bad!r}" in capsys.readouterr().err
    assert not out.exists()


def test_unknown_check_exit_code(capsys):
    assert cli.run(["verify", "bogus"]) == 2
    capsys.readouterr()


def test_cached_parser_carries_nothing_between_runs(tmp_path, capsys):
    # run() parses with one parser per process: neither the options of an
    # earlier run nor a parse error may leak into the next run
    a, b, fresh = (tmp_path / name for name in ("a.json", "b.json", "fresh.json"))
    assert cli.run(["eigen", "power", "--map", "alpha", "--nodes", "2000", "--out", str(a)]) == 0
    assert cli.run(["trap"]) == 2
    assert cli.run(["eigen", "power", "--out", str(b)]) == 0
    capsys.readouterr()
    assert json.loads(a.read_text())["nodes"] == 2001
    got = json.loads(b.read_text())
    assert (got["nodes"], got["iterations"]) == (10_001, 52)
    src = str(Path(cli.__file__).resolve().parents[1])
    argv = [sys.executable, "-m", "tecpol.cli", "eigen", "power", "--out", str(fresh)]
    subprocess.run(argv, env={**os.environ, "PYTHONPATH": src}, timeout=60, check=True)
    assert got["mu"] == json.loads(fresh.read_text())["mu"]
    assert cli.build_parser() is not cli.build_parser()


def test_cli_import_leaves_the_thread_pool_unloaded():
    # concurrent.futures and its logging import cost about 11 ms, which
    # every CLI start would pay; the pool is imported when blocks run on it
    src = str(Path(cli.__file__).resolve().parents[1])
    code = "import sys, tecpol.cli; sys.exit('concurrent.futures' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": src}
    assert subprocess.run([sys.executable, "-c", code], env=env, timeout=60).returncode == 0


def _raises(exc):
    def cdll(name):
        raise exc

    return cdll


@pytest.mark.parametrize(
    "cdll",
    [
        _raises(OSError("None: cannot open shared object file")),
        _raises(TypeError("argument of type 'NoneType' is not iterable")),  # CDLL(None) on Windows
        lambda name: object(),
    ],
    ids=["no-libc", "windows", "no-mallopt"],
)
def test_keep_heap_does_nothing_without_mallopt(monkeypatch, capsys, cdll):
    monkeypatch.setattr(cli.ctypes, "CDLL", cdll)
    cli._keep_heap.cache_clear()
    try:
        assert cli.run(["show", "qec:0.3"]) == 0  # run() calls _keep_heap first
    finally:
        cli._keep_heap.cache_clear()
    capsys.readouterr()


def test_keep_heap_sets_both_thresholds_once_per_process(monkeypatch, capsys):
    calls = []

    class LibC:
        def mallopt(self, param, value):
            calls.append((param, value))
            return 1

    monkeypatch.setattr(cli.ctypes, "CDLL", lambda name: LibC())
    cli._keep_heap.cache_clear()
    try:
        assert cli.run(["show", "qec:0.3"]) == 0
        assert cli.run(["show", "qec:0.3"]) == 0
    finally:
        cli._keep_heap.cache_clear()
    capsys.readouterr()
    assert calls == [(-3, 32 << 20), (-1, 64 << 20)]  # M_MMAP_THRESHOLD, M_TRIM_THRESHOLD


#: prints the minor page faults of the second of five ``verify all`` runs in
#: one process, then how far, in KiB, the peak RSS grew from the first to the fifth
_VERIFY_FAULTS = """
import os, resource
from tecpol import cli
usage = []
for _ in range(5):
    assert cli.run(["verify", "all", "--samples", "100000", "--out", os.devnull]) == 0
    usage.append(resource.getrusage(resource.RUSAGE_SELF))
print(usage[1].ru_minflt - usage[0].ru_minflt, usage[4].ru_maxrss - usage[0].ru_maxrss)
"""


@pytest.mark.skipif(sys.platform != "linux", reason="glibc's mallopt; ru_maxrss in KiB")
def test_repeated_runs_reuse_their_heap_pages():
    # a trimmed heap or mmapped temporaries make every run fault its ~50 MB of
    # numpy temporaries in afresh: about 12,700 faults per run, not ~1
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    argv = [sys.executable, "-c", _VERIFY_FAULTS]
    run = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=120, check=True)
    faults, growth_kib = map(int, run.stdout.split())
    assert faults < 1000
    assert growth_kib < 4 * 2**10  # the kept pages do not pile up


def test_readme_cli_examples_exit_0(tmp_path, monkeypatch, capsys):
    # the example block under the README's "## CLI" heading, line by line
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    monkeypatch.chdir(tmp_path)
    codes = {}
    for line in block.splitlines():
        prog, *argv = shlex.split(line, comments=True)
        assert prog == "tecpol"
        codes[line] = cli.run(argv)
    capsys.readouterr()
    assert codes
    assert all(code == 0 for code in codes.values()), codes
