import pytest

from layerbench.compare import classify, compare_sets, within_noise

SPEC = {
    "end_to_end": [
        {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
        {"name": "msgs_per_s", "unit": "msg/s", "better": "higher", "bound": 0.1},
        {"name": "events_per_msg", "unit": "count", "better": "lower", "bound": 0.02},
    ]
}


def test_within_the_bound_and_tight_reps_is_ok():
    assert classify("run_wall_s", "lower", 0.1, 4.0, 4.2, [3.9, 4.0, 4.1], [4.1, 4.2, 4.3]) == "ok"
    assert classify("msgs_per_s", "higher", 0.1, 1000, 950, [990, 1000, 1010], [940, 950, 960]) == "ok"


def test_worse_than_the_bound_is_regressed_in_the_metrics_direction():
    assert classify("run_wall_s", "lower", 0.1, 4.0, 4.5) == "regressed"
    assert classify("msgs_per_s", "higher", 0.1, 1000, 880) == "regressed"
    # A faster run or a higher rate is never a regression.
    assert classify("run_wall_s", "lower", 0.1, 4.0, 3.0) == "ok"
    assert classify("msgs_per_s", "higher", 0.1, 1000, 1500) == "ok"


def test_reps_spread_wider_than_the_bound_is_unresolved_not_unchanged():
    wide = [3.6, 4.0, 4.4]  # 20 % range against a 10 % bound
    assert classify("run_wall_s", "lower", 0.1, 4.0, 4.1, wide, [4.0, 4.1, 4.2]) == "unresolved"
    assert classify("run_wall_s", "lower", 0.1, 4.0, 4.1, [3.9, 4.0, 4.1], wide) == "unresolved"


def test_wide_spread_is_still_ok_when_every_rep_of_b_beats_every_rep_of_a():
    assert classify("run_wall_s", "lower", 0.1, 4.0, 2.0, [3.6, 4.0, 4.4], [1.9, 2.0, 2.1]) == "ok"
    assert classify("msgs_per_s", "higher", 0.1, 1000, 2000,
                    [900, 1000, 1100], [1900, 2000, 2100]) == "ok"


def test_setup_may_move_by_its_absolute_floor():
    # 24 ms -> 40 ms is +67 %, but 16 ms is under the 20 ms floor.
    assert classify("setup_s", "lower", 0.25, 0.024, 0.040) == "ok"
    assert classify("setup_s", "lower", 0.25, 0.024, 0.050) == "regressed"
    # On a 0.4 s set-up the relative bound is the wider one.
    assert classify("setup_s", "lower", 0.25, 0.40, 0.49) == "ok"
    assert classify("setup_s", "lower", 0.25, 0.40, 0.51) == "regressed"


def result(setup, rate, events_per_msg, rate_samples=()):
    return {"untraced": {
        "metrics": {"setup_s": {"value": setup}, "msgs_per_s": {"value": rate},
                    "events_per_msg": {"value": events_per_msg}},
        "detail": {"samples": {"msgs_per_s": list(rate_samples)}},
    }}


def test_compare_sets_gives_both_values_ratio_bound_and_verdict():
    first = {"pilot_clean": result(0.024, 1000.0, 16.0, [990, 1000, 1010])}
    second = {"pilot_clean": result(0.030, 850.0, 16.0, [840, 850, 860]),
              "fleet_64x128": result(0.4, 1.0, 14.0)}
    rows = {row["metric"]: row for row in compare_sets(first, second, SPEC)}
    assert set(rows) == {"setup_s", "msgs_per_s", "events_per_msg"}
    assert rows["msgs_per_s"]["a"] == 1000.0 and rows["msgs_per_s"]["b"] == 850.0
    assert rows["msgs_per_s"]["ratio"] == pytest.approx(0.85)
    assert rows["msgs_per_s"]["status"] == "regressed"
    assert rows["setup_s"]["status"] == "ok"
    assert rows["setup_s"]["bound"] == pytest.approx(0.020 / 0.024)
    assert rows["events_per_msg"]["exact"] and rows["events_per_msg"]["status"] == "ok"


def test_same_code_must_agree_exactly_on_simulated_metrics():
    exact = {"exact": True, "a": 16.0, "b": 16.0, "ratio": 1.0, "bound": 0.02}
    assert within_noise(exact)
    assert not within_noise({**exact, "b": 16.0001, "ratio": 16.0001 / 16.0})
    host = {"exact": False, "a": 4.0, "b": 4.3, "ratio": 1.075, "bound": 0.1}
    assert within_noise(host)
    assert not within_noise({**host, "ratio": 0.85})  # faster by 15 % is also a disagreement
