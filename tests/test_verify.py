import json

import numpy as np
import pytest

from tecpol import verify


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
    with pytest.raises(ValueError) as exc:
        verify.run_check("nonsense", 10, 0)
    assert str(exc.value) == f"no check named 'nonsense'; known: {', '.join(verify.CHECK_IDS)}"


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
    "ids, samples, message",
    [(["uniform-A", "nonsense"], 10, "^no check named 'nonsense'; known: "),
     (["uniform-A", "trap"], 0, "^samples must be at least 1$")],
    ids=["unknown-id", "no-samples"],
)
def test_run_checks_validates_before_any_check_runs(monkeypatch, ids, samples, message):
    calls = []
    monkeypatch.setattr(verify, "stratified_tecs", lambda *a: calls.append(a))
    with pytest.raises(ValueError, match=message):
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


@pytest.mark.parametrize("samples", [1, 2, 1000])
def test_fg_bounds_witness_is_its_worst_margin(samples):
    report = verify.run_check("fg-bounds", samples=samples, seed=0)
    w = report.witness
    h_p, e_p, h_s, e_s = verify.kernel.balanced_children(np.array([w["x"]]), np.array([w["y"]]))
    if w["side"] == "above_f":
        f = verify.poly_inner
        margin = np.minimum(e_p - f(h_p), e_s - f(h_s))[0]
    else:
        g = verify.poly_outer
        margin = np.minimum(g(h_p) - e_p, g(h_s) - e_s)[0]
    assert report.worst_margin == margin
    # the first half of the points lies above f, so a single point lies below g
    assert samples > 1 or w["side"] == "below_g"


@pytest.mark.parametrize("check_id", verify.CHECK_IDS)
def test_checks_return_one_margin_per_sample(check_id):
    sampler, check = verify._CHECKS[check_id]
    rng = np.random.default_rng(0)
    margins, columns = check(rng if sampler is None else sampler(rng, 30), 30)
    assert margins.ndim == 1
    assert set(columns) == WITNESS_KEYS[check_id]
    assert all(len(col) == len(margins) for col in columns.values())


def test_reports_count_the_margins_they_took_the_worst_of():
    # ultimate-A walks at most 1000 paths, and oracle checks at most 10k pairs
    reports = verify.run_checks(verify.CHECK_IDS, 20_000, 0)
    capped = {"ultimate-A": 1000, "oracle": 10_000}
    assert {r.check_id: r.samples for r in reports} == {
        cid: capped.get(cid, 20_000) for cid in verify.CHECK_IDS
    }


# worst margin and witness of every check at seed 0, at a count whose stratified
# draws hold only corners and none of the balanced channels, and at 100k
FROZEN_REPORTS = {
    7: {
        "uniform-A": (0.0, {"tec": [1.0, 0.0, 0.0, 0.0, 0.0]}),
        "average-A": (0.0, {"tec": [1.0, 0.0, 0.0, 0.0, 0.0]}),
        "ultimate-A": (
            2.926973815113622,
            {
                "fitted_C": 0.04322392137031509,
                "n": 1,
                "tec": [
                    0.08956413090566515,
                    0.13505376568861863,
                    0.14082801429225938,
                    0.0029166708244242165,
                    0.6316374182890326,
                ],
            },
        ),
        "trap": (0.015437447204094124, {"x": 0.813269612659794, "y": 0.19661598400623373}),
        "inner-Q": (
            0.0002696029418550183,
            {"x": 0.0027394946931477548, "y": 0.000876937990044901, "eps": 0.2205116053077089},
        ),
        "uniform-Q": (
            0.03244573757562305,
            {"x": 0.03358650813431374, "y": 0.001158500585987133, "eps": 0.03118440637561185},
        ),
        "gap-jump": (0.020568682299484775, {"x": 0.6721758785095097, "y": 0.534912949289571}),
        "outer-Q": (2.124888415277722e-05, {"x": 0.016528602473258037, "y": 0.0265240644144666}),
        "fg-bounds": (
            2.2163943597676677e-05,
            {"x": 0.016527636495473823, "y": 0.026378837010049075, "side": "below_g"},
        ),
        "oracle": (
            -3.885780586188048e-16,
            {
                "u": [
                    0.05437900147090519,
                    0.3156246705892203,
                    0.13889417009751842,
                    0.22051911481113204,
                    0.270583043031224,
                ],
                "v": [
                    0.09082097683034412,
                    0.1758897904955477,
                    0.017069739597105796,
                    0.2084733712176086,
                    0.5077461218593936,
                ],
                "mode": "parallel",
            },
        ),
        "conservation": (
            -2.220446049250313e-16,
            {
                "tec": [
                    0.29927266982747547,
                    0.4487766273694334,
                    0.008717921248874971,
                    0.000998846282454981,
                    0.2422339352717613,
                ]
            },
        ),
    },
    100_000: {
        "uniform-A": (0.0, {"tec": [1.0, 0.0, 0.0, 0.0, 0.0]}),
        "average-A": (0.0, {"tec": [1.0, 0.0, 0.0, 0.0, 0.0]}),
        "ultimate-A": (
            2.7719043545972646,
            {
                "fitted_C": 0.11404782270136773,
                "n": 1,
                "tec": [
                    0.0015372787354046363,
                    0.018098599219109824,
                    0.2595944907557486,
                    0.02359155755141028,
                    0.6971780737383266,
                ],
            },
        ),
        "trap": (1.1374251540630098e-07, {"x": 3.357530161863824e-05, "y": 4.3361137972503614e-05}),
        "inner-Q": (
            2.8368296153889576e-08,
            {"x": 0.001916512901818264, "y": 1.6615761534080108e-06, "eps": 1.2883982067380355},
        ),
        "uniform-Q": (
            5.437696081645671e-07,
            {"x": 0.6139565026744622, "y": 1.6574887026821075e-06, "eps": 1.291463091138597},
        ),
        "gap-jump": (0.0006195907586813432, {"x": 0.6670032939969517, "y": 0.6651291246369706}),
        "outer-Q": (-3.93996465516664e-22, {"x": 0.9999957667277155, "y": 8.466508727797298e-06}),
        "fg-bounds": (
            2.4315741836825077e-12,
            {"x": 0.9999967657212554, "y": 6.04403492737013e-06, "side": "above_f"},
        ),
        "oracle": (
            -6.661338147750939e-16,
            {
                "u": [
                    0.1953810899202626,
                    0.23656774167646852,
                    0.0494913190927109,
                    0.5068744234159747,
                    0.011685425894583653,
                ],
                "v": [
                    0.1607500450878463,
                    0.03168278543928364,
                    0.4061987687827036,
                    0.11811103307405771,
                    0.28325736761610887,
                ],
                "mode": "serial",
            },
        ),
        "conservation": (
            -6.661338147750939e-16,
            {
                "tec": [
                    0.7784269162577895,
                    0.15272843598588356,
                    0.023045730527062023,
                    0.040105129779977,
                    0.005693787449287631,
                ]
            },
        ),
    },
}


@pytest.mark.parametrize("samples", FROZEN_REPORTS)
def test_frozen_worst_margins_and_witnesses(samples):
    reports = verify.run_checks(verify.CHECK_IDS, samples, 0)
    got = {r.check_id: (r.worst_margin, r.witness) for r in reports}
    assert got == FROZEN_REPORTS[samples]
