import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from tecpol import cli, verify
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
    assert len(lines) == 5001


def test_eigen_verify_lemma(capsys):
    assert cli.run(["eigen", "verify-lemma", "--nodes", "5000"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["pass"] is True
    assert payload["max_ratio"] < payload["bound"]


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


def test_fig3_command(capsys):
    assert cli.run(["fig3", "--depth", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "n,twist,untwisted"
    assert len(lines) == 3


def test_fig2_command(tmp_path, capsys):
    prefix = str(tmp_path / "fig2")
    args = ["fig2", "--depth", "3", "--nodes", "2000", "--out-prefix", prefix]
    assert cli.run(args) == 0
    curves = Path(prefix + "_curves.csv").read_text().splitlines()
    scatter = Path(prefix + "_scatter.csv").read_text().splitlines()
    assert curves[0] == "x,outer_parabola,outer_numeric,inner_numeric,alpha_parabola"
    assert scatter[0] == "path,H,E,A"
    assert len(scatter) == 9


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
        (["eigen", "power", "--tol", "0"], "tol"),
        (["eigen", "power", "--max-iters", "0"], "max_iters"),
        (["eigen", "power", "--psi-exponent", "-1"], "psi_exponent"),
        (["eigen", "power", "--psi-exponent", "0"], "psi_exponent"),
        (["eigen", "power", "--psi-exponent", "nan"], "psi_exponent"),
        (["series", "becpair:0.55,0.55", "--depth", "4", "--psi-exponent", "-1"], "psi_exponent"),
        (["series", "becpair:0.55,0.55", "--depth", "4", "--psi-exponent", "nan"], "psi_exponent"),
        (["fig3", "--depth", "4", "--psi-exponent", "0"], "psi_exponent"),
        (["eigen", "power", "--max-iters", "3"], "did not reach"),
    ],
    ids=[
        "trap-max-iters-0",
        "trap-max-iters-negative",
        "eigen-tol-0",
        "eigen-max-iters-0",
        "eigen-psi-exponent-negative",
        "eigen-psi-exponent-0",
        "eigen-psi-exponent-nan",
        "series-psi-exponent-negative",
        "series-psi-exponent-nan",
        "fig3-psi-exponent-0",
        "eigen-no-convergence",
    ],
)
def test_solver_argument_errors_exit_2(tmp_path, capsys, argv, name):
    out = tmp_path / "out.csv"
    assert cli.run(argv + ["--out", str(out)]) == 2
    assert name in capsys.readouterr().err
    assert not out.exists()


def test_unknown_check_exit_code(capsys):
    assert cli.run(["verify", "bogus"]) == 2
    capsys.readouterr()


def test_cli_import_leaves_the_thread_pool_unloaded():
    # concurrent.futures and its logging import cost about 11 ms, which
    # every CLI start would pay; the pool is imported when blocks run on it
    src = str(Path(cli.__file__).resolve().parents[1])
    code = "import sys, tecpol.cli; sys.exit('concurrent.futures' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": src}
    assert subprocess.run([sys.executable, "-c", code], env=env, timeout=60).returncode == 0
