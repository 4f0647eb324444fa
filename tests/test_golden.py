"""The headline chain's outputs at the CLI defaults and seeded sampling, frozen by SHA-256.

The digests hold for numpy 2.4.6: ``np.sin``, ``**`` and ``np.log10`` may
round differently under another numpy or libm, and then these digests move
while every tolerance-based test still passes.  A change that moves an output
on purpose updates its digest here, and lists the old and new values.
"""

import hashlib
import json

import numpy as np
import pytest

from tecpol import cli, process
from tecpol.channel import from_bec_pair

#: file name -> SHA-256 of its bytes, as written by the commands in the test
GOLDEN = {
    "inner.csv": "0d0741cdaa3cb6e9e3b160e22001ee730eaa10197e0fc91671a3573b79c78231",
    "outer.csv": "c291e3a38acd7aa9c23c92940152b8c3a5b039f3fa36d990d4fd1c1a27542611",
    "power-bec.json": "b9c63e87afe18e79b6cf25da6b16e291a2b3c5b21053111c72711e652a6ff6f2",
    "power-alpha.json": "90145e2d1a629ac2da8a25584684a2c9bf792622a72faee6bf322d2d6459c74f",
    "power-curve.json": "5264d82c83927fd270e5426792a15081a7089a83dd87e21740157ac7fdb8bb7e",
    "eigenfunction-bec.csv": "2e9c5be0435c793b2e2abd4aa7e51b0b94de2408e91bb778e27110bd927d5202",
    "eigenfunction-alpha.csv": "7c15d1e2cc9d50d92b40de636f2aff6a338d21e352990ca999154b7f15fef500",
    "eigenfunction-curve.csv": "e9f4cadbf0cd26861dfcceadcb9f4c5d4cb971a5c1205eaed80d25992408a3e3",
    "lemma.json": "d4142adaffdd42bb6c209ad3ff7941fc18c7ce9b0d5ff681188991993e93e837",
    "scatter16.csv": "58e66ad4c1904a88de6775622ce309979d6a8321166cb7ecedc955a25d147e3c",
    "fig2_curves.csv": "6c2a9c2cb5d7630c191e000e270115a800d154b049c603bb7ed3e636db4f04ce",
    "fig2_scatter.csv": "6aa60e679d8b3490f3cac354b271d8d1f6532d93940f4ab676fe8f05dcf75b54",
}
#: kernel -> SHA-256 of the rows' float64 bits and of the path characters of
#: ``sample_paths(becpair:0.55,0.55, 40, 100_000, seed=3)``, both in C order
SAMPLED = {
    "twist": (
        "ab08168b1e39d8729999cf38d2ecf6c956b6af30506f5f0feb48527235cfef63",
        "b13e5884a147fbbd30eb58c70aff60c4d435c7dd5050c469cf994e229cc06d8d",
    ),
    "untwisted": (
        "75ba2cf9690308654df619f45ebbc2c480b10611a00477f50bb23f6b0b7b519b",
        "b13e5884a147fbbd30eb58c70aff60c4d435c7dd5050c469cf994e229cc06d8d",
    ),
}
#: lambda of ``eigen power`` on each map, bit for bit
LAMBDAS = {"bec": 0.8260325172076146, "alpha": 0.8170680275602284, "curve": 0.811940315774949}


def test_headline_outputs_are_byte_identical(tmp_path, capsys):
    def run(*argv):
        assert cli.run([str(a) for a in argv]) == 0, argv

    run("trap", "--mode", "inner", "--out", tmp_path / "inner.csv")
    run("trap", "--mode", "outer", "--out", tmp_path / "outer.csv")
    for name in LAMBDAS:
        argv = ["eigen", "power", "--map", name, "--out", tmp_path / f"power-{name}.json"]
        argv += ["--eigenfunction-out", tmp_path / f"eigenfunction-{name}.csv"]
        if name == "curve":
            argv += ["--curve-file", tmp_path / "inner.csv"]
        run(*argv)
    run("eigen", "verify-lemma", "--out", tmp_path / "lemma.json")
    run("scatter", "becpair:0.55,0.55", "--depth", 16, "--out", tmp_path / "scatter16.csv")
    run("fig2", "--out-prefix", tmp_path / "fig2")
    capsys.readouterr()
    got = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in GOLDEN}
    assert got == GOLDEN
    for name, lam in LAMBDAS.items():
        assert json.loads((tmp_path / f"power-{name}.json").read_text())["lambda"] == lam


@pytest.mark.parametrize("kind", process.KernelKind)
def test_sampled_paths_are_bit_identical(kind):
    table = process.sample_paths(from_bec_pair(0.55, 0.55), 40, 100_000, 3, kind)
    arrays = (table.rows.view(np.uint64), table.path_chars)
    got = tuple(hashlib.sha256(a.tobytes()).hexdigest() for a in arrays)
    assert got == SAMPLED[kind.value]
