import math

import pytest

from minislot.qoe import (
    QoeParams,
    QoeUndefinedError,
    combined_qoe,
    effective_rate,
    evaluate_ue,
    qoe_fn,
)


def test_qoe_is_log_of_rate():
    p = QoeParams()
    assert qoe_fn(1.0, p) == 0.0
    assert qoe_fn(math.e, p) == pytest.approx(1.0, rel=1e-15)
    assert qoe_fn(100.0, QoeParams(a=2.0, b=0.5)) == pytest.approx(
        2.0 + 0.5 * math.log(100.0), rel=1e-15
    )


def test_qoe_undefined_at_zero_rate():
    with pytest.raises(QoeUndefinedError):
        qoe_fn(0.0, QoeParams())
    with pytest.raises(QoeUndefinedError):
        qoe_fn(-1.0, QoeParams())


def test_coverage_areas():
    p = QoeParams()
    assert p.bt_coverage_deg2 == 64800.0  # full sphere, 360 x 180
    assert p.et_coverage_deg2 == 18225.0  # 135 x 135 viewport


def test_effective_rate_hand_calc():
    # 1847 bits in a 62.5 us frame over the full sphere
    rate = effective_rate(1847.0, 6.25e-5, 64800.0)
    assert rate == pytest.approx(1847.0 / (6.25e-5 * 64800.0), rel=1e-15)
    assert rate == pytest.approx(456.049, rel=1e-5)
    with pytest.raises(ValueError):
        effective_rate(10.0, 0.0, 64800.0)
    with pytest.raises(ValueError):
        effective_rate(10.0, 6.25e-5, -1.0)


def test_combined_qoe_mixes_by_fov_probability():
    assert combined_qoe(4.0, 6.0, 0.8) == pytest.approx(0.2 * 4.0 + 0.8 * 6.0, rel=1e-15)
    assert combined_qoe(4.0, 6.0, 0.0) == 4.0
    assert combined_qoe(4.0, 6.0, 1.0) == 6.0


def test_peak_qoe_is_multiple_of_minimum():
    p = QoeParams(min_qoe=4.9, peak_factor=5.0)
    assert p.peak_qoe == pytest.approx(24.5, rel=1e-15)


def test_evaluate_ue_serving_threshold():
    p = QoeParams(min_qoe=4.6)
    frame_s = 6.25e-5
    # bits chosen so the base-tier rate sits just above / below e^4.6
    just_above = math.exp(4.6) * frame_s * p.bt_coverage_deg2 * 1.01
    just_below = math.exp(4.6) * frame_s * p.bt_coverage_deg2 * 0.99
    assert evaluate_ue(just_above, 0.0, frame_s, p).served
    assert not evaluate_ue(just_below, 0.0, frame_s, p).served


def test_evaluate_ue_with_enhancement_tier():
    p = QoeParams(fov_prob=0.7)
    frame_s = 6.25e-5
    report = evaluate_ue(2.0e5, 1.0e5, frame_s, p)
    bt_rate = 2.0e5 / (frame_s * p.bt_coverage_deg2)
    et_rate = 1.0e5 / (frame_s * p.et_coverage_deg2)
    expected = 0.3 * math.log(bt_rate) + 0.7 * math.log(bt_rate + et_rate)
    assert report.q_combined == pytest.approx(expected, rel=1e-12)


def test_enhancement_alone_cannot_serve():
    report = evaluate_ue(0.0, 5.0e5, 6.25e-5, QoeParams())
    assert not report.served
    assert math.isnan(report.q_bt)
    assert report.counted_qoe == 0.0


def test_counted_qoe_zero_when_unserved():
    p = QoeParams(min_qoe=50.0)  # unreachable threshold
    report = evaluate_ue(1.0e5, 0.0, 6.25e-5, p)
    assert not report.served
    assert report.counted_qoe == 0.0
    assert report.q_combined == pytest.approx(report.q_bt, rel=1e-12)
