import json

import numpy as np
import pytest

from tecpol import verify
from tecpol.errors import UnknownCheck


@pytest.mark.parametrize("check_id", verify.CHECK_IDS)
def test_each_check_passes(check_id):
    report = verify.run_check(check_id, samples=20_000, seed=2)
    assert report.passed, report
    assert report.worst_margin >= verify.MARGIN_FLOOR


def test_reports_deterministic():
    a = verify.run_check("trap", samples=5000, seed=9)
    b = verify.run_check("trap", samples=5000, seed=9)
    assert a == b
    c = verify.run_check("trap", samples=5000, seed=10)
    assert a.witness != c.witness


def test_unknown_check():
    with pytest.raises(UnknownCheck):
        verify.run_check("nonsense", 10, 0)


def test_bad_sample_count():
    with pytest.raises(ValueError):
        verify.run_check("trap", 0, 0)


WITNESS_KEYS = {
    "uniform-A": {"tec"},
    "average-A": {"tec"},
    "ultimate-A": {"fitted_C", "n", "tec"},
    "trap": {"x", "y"},
    "inner-Q": {"x", "y", "eps"},
    "uniform-Q": {"x", "y", "eps"},
    "gap-jump": {"x", "y"},
    "outer-Q": {"x", "y"},
    "fg-bounds": {"x", "y", "side"},
    "oracle": {"u", "v", "mode"},
    "conservation": {"tec"},
}


def _plain(value):
    if isinstance(value, list):
        return all(type(v) is float for v in value)
    return type(value) in (float, int, str)


@pytest.mark.parametrize("check_id", verify.CHECK_IDS)
def test_report_json_round_trip(check_id):
    report = verify.run_check(check_id, samples=1000, seed=0)
    d = report.to_dict()
    payload = json.loads(json.dumps(d))
    assert payload == d
    assert payload["id"] == check_id
    assert payload["pass"] is True
    assert set(d["witness"]) == WITNESS_KEYS[check_id]
    assert all(_plain(v) for v in d["witness"].values()), d["witness"]


def test_oracle_witness_on_zero_and_tied_gaps(monkeypatch):
    # every gap 0: no witness, margin -0.0
    monkeypatch.setattr(verify.kernel, "brute_force_arrays", verify.kernel.combine_arrays)
    report = verify.run_check("oracle", samples=50, seed=3)
    assert report.witness == {}
    assert report.worst_margin == 0.0 and report.passed
    # every gap equal: the first pair, serial before parallel
    ones = lambda u, v: (np.ones_like(u), np.ones_like(u))
    zeros = lambda u, v: (np.zeros_like(u), np.zeros_like(u))
    monkeypatch.setattr(verify.kernel, "brute_force_arrays", ones)
    monkeypatch.setattr(verify.kernel, "combine_arrays", zeros)
    report = verify.run_check("oracle", samples=50, seed=3)
    rng = np.random.default_rng(3)
    us, vs = verify.kernel.sample_tecs(rng, 50), verify.kernel.sample_tecs(rng, 50)
    assert report.worst_margin == -1.0
    assert report.witness == {"u": us[0].tolist(), "v": vs[0].tolist(), "mode": "serial"}


def test_run_all_covers_every_check():
    reports = verify.run_checks(verify.CHECK_IDS, samples=2000, seed=1)
    assert [r.check_id for r in reports] == list(verify.CHECK_IDS)


@pytest.mark.parametrize("seed", [0, 5])
def test_shared_draws_change_no_report(seed):
    shared = verify.run_checks(verify.CHECK_IDS, 20_000, seed)
    alone = [verify.run_check(cid, 20_000, seed) for cid in verify.CHECK_IDS]
    assert [r.to_dict() for r in shared] == [r.to_dict() for r in alone]


def test_run_checks_keeps_the_order_of_ids():
    ids = ["conservation", "trap", "uniform-A"]
    reports = verify.run_checks(ids, 2000, 3)
    assert [r.check_id for r in reports] == ids
    assert reports == [verify.run_check(cid, 2000, 3) for cid in ids]


@pytest.mark.parametrize(
    "ids, samples, error",
    [(["uniform-A", "nonsense"], 10, UnknownCheck), (["uniform-A", "trap"], 0, ValueError)],
    ids=["unknown-id", "no-samples"],
)
def test_run_checks_validates_before_any_check_runs(monkeypatch, ids, samples, error):
    calls = []
    monkeypatch.setattr(verify, "stratified_tecs", lambda *a: calls.append(a))
    with pytest.raises(error):
        verify.run_checks(ids, samples, 0)
    assert calls == []


def test_verify_all_memory_is_bounded(traced_peak):
    # each shared draw is dropped after the last check that reads it
    assert traced_peak(lambda: verify.run_checks(verify.CHECK_IDS, 100_000, 0)) < 20 * 2**20


def test_stratified_sampler_shape_and_simplex(rng):
    w = verify.stratified_tecs(rng, 1234)
    assert w.shape == (1234, 5)
    assert abs(w.sum(axis=1) - 1.0).max() <= 1e-9
    assert w.min() >= 0.0


def test_ultimate_a_witness_is_its_worst_margin():
    report = verify.run_check("ultimate-A", samples=500, seed=4)
    w = report.witness
    a = verify.kernel.inertia_array(np.array([w["tec"]]))[0]
    assert report.worst_margin == 3.0 - (w["n"] + 1) * a
    assert 1 <= w["n"] <= 100 and w["fitted_C"] >= w["n"] * a
