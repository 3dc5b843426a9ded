from perfbench.stats import percentile, reportable, slice_bounds, tail_percentile


def test_nearest_rank_percentile():
    xs = list(range(1, 101))  # 1..100
    assert percentile(xs, 50) == 50
    assert percentile(xs, 90) == 90
    assert percentile(xs, 99) == 99
    assert percentile(reversed(xs), 99) == 99
    assert percentile([7.0], 99) == 7.0


def test_ten_samples_beyond_rule():
    assert reportable(100, 90) and not reportable(99, 90)
    assert reportable(1000, 99) and not reportable(999, 99)
    assert reportable(20, 50) and not reportable(19, 50)


def test_tail_percentile_follows_sample_count():
    assert tail_percentile(5000) == 99
    assert tail_percentile(1000) == 99
    assert tail_percentile(999) == 90
    assert tail_percentile(100) == 90
    assert tail_percentile(99) == 50
    assert tail_percentile(12) == 50


def test_slice_bounds():
    b = slice_bounds(2400, 100, 8)
    assert b == list(range(0, 2401, 300))
    assert len(slice_bounds(450, 100, 8)) == 5  # 4 slices
    assert slice_bounds(12, 100, 8) == [0, 12]


def test_bracket_reports_slowdown_and_result():
    from perfbench import calibrate

    slow, res = calibrate.bracket(lambda a, b: a + b, 2, 3)
    assert res == 5
    assert 0.05 < slow < 50  # a probe reading in plausible units
