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
    "inner.csv": "ddaea9df7ee007bc8ddc50caf34cf649dbfa1853fb67a236cef10956abb1316a",
    "outer.csv": "3258aa3d5bb386c54f5751d1b974725f547ed6834f9eb6fe01f3d97716c67d42",
    "power-bec.json": "2f298583e7eefd71c8af6bef052bf75657c5d28ef1b582c11ef9a6fa92ec5734",
    "power-alpha.json": "b79b7fa1bae80a42b168931f513896d180ca3cfae8ee5d364cb9752cbd64ed03",
    "power-curve.json": "61728e83d39d1fe24fda4cea3e44b6d88868fd07c1bf06d4698eacaafa6199b2",
    "eigenfunction-bec.csv": "78d33b0246ce89f267ca81dddc0f27e1c312b07cfc291fd3c062b79cfb7a412a",
    "eigenfunction-alpha.csv": "5d3310cacb4a6e6a8e572bf55e6e55473fe8d63d05e3d86bc5fab1de75361ffc",
    "eigenfunction-curve.csv": "e56a3b58c4a30ca3bbc720d18ac6b9b19189bc171d7757458f716265a4434eb8",
    "lemma.json": "e3be329a398e0066684992a1938be4ac6b98000c18b3c23f1eb184085d83713f",
    "scatter16.csv": "58e66ad4c1904a88de6775622ce309979d6a8321166cb7ecedc955a25d147e3c",
    "fig2_curves.csv": "3b13e5f66e99144eb44202e5d5c65219cb4df0bc0387aaec51ec82c7f51018f1",
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
LAMBDAS = {"bec": 0.8260325171024395, "alpha": 0.8170680274609192, "curve": 0.8119403158753108}


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
