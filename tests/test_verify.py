import json

import pytest

from tecpol import verify
from tecpol.errors import UnknownCheck


@pytest.mark.parametrize("check_id", verify.ASSERTED_CHECK_IDS)
def test_each_check_passes(check_id):
    report = verify.run_check(check_id, samples=20_000, seed=2)
    assert report.passed, report
    assert report.worst_margin >= verify.MARGIN_FLOOR


def test_ultimate_a_is_descriptive():
    report = verify.run_check("ultimate-A", samples=200, seed=2)
    assert report.passed
    assert "fitted_C" in report.witness
    assert report.note


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


def test_report_json_round_trip():
    report = verify.run_check("conservation", samples=1000, seed=0)
    payload = json.loads(json.dumps(report.to_dict()))
    assert payload["id"] == "conservation"
    assert payload["pass"] is True


def test_run_all_covers_every_check():
    reports = [verify.run_check(cid, samples=2000, seed=1) for cid in verify.CHECK_IDS]
    assert [r.check_id for r in reports] == list(verify.CHECK_IDS)


def test_stratified_sampler_shape_and_simplex(rng):
    w = verify.stratified_tecs(rng, 1234)
    assert w.shape == (1234, 5)
    assert abs(w.sum(axis=1) - 1.0).max() <= 1e-9
    assert w.min() >= 0.0
