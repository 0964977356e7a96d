"""Logarithmic quality-of-experience model for two-tier 360-degree video.

A user's QoE for a tier is ``a + b * ln(effective rate)`` where the
effective rate normalises the bits delivered per frame by the frame
duration and by the solid-angle coverage of that tier (full sphere for the
base tier, predicted field of view for the enhancement tier).  The combined
score mixes the base-tier QoE and the QoE of the total delivered rate,
weighted by the probability that the viewer stays inside the predicted
field of view.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


class QoeUndefinedError(ValueError):
    """QoE is undefined at non-positive rates; callers treat such users as
    unserved rather than propagating -inf."""


@dataclass(frozen=True)
class QoeParams:
    """Per-user QoE constants."""

    a: float = 0.0
    b: float = 1.0
    fov_prob: float = 0.8  # probability the viewport stays inside the FoV
    bt_coverage_deg2: float = 360.0 * 180.0
    et_coverage_deg2: float = 135.0 * 135.0
    min_qoe: float = 4.6
    peak_factor: float = 5.0  # base-tier QoE ceiling, in multiples of min_qoe

    @property
    def peak_qoe(self) -> float:
        return self.peak_factor * self.min_qoe


def qoe_fn(rate: float, params: QoeParams) -> float:
    """Logarithmic utility a + b * ln(rate); natural log."""
    if rate <= 0.0:
        raise QoeUndefinedError(f"QoE undefined for non-positive rate {rate}")
    return params.a + params.b * math.log(rate)


def effective_rate(
    bits_per_frame: float, frame_duration_s: float, coverage_deg2: float
) -> float:
    """Bits per second per square degree of covered solid angle."""
    if frame_duration_s <= 0 or coverage_deg2 <= 0:
        raise ValueError(
            f"frame_duration_s and coverage_deg2 must be positive, got "
            f"{frame_duration_s}, {coverage_deg2}"
        )
    return bits_per_frame / (frame_duration_s * coverage_deg2)


def combined_qoe(q_bt: float, q_total: float, fov_prob: float) -> float:
    """FoV-weighted mix of base-tier QoE and total-rate QoE."""
    return (1.0 - fov_prob) * q_bt + fov_prob * q_total


def base_tier_qoe(bt_bits: float, frame_duration_s: float, params: QoeParams) -> float:
    """QoE of ``bt_bits`` base-tier bits per frame, spread over the sphere."""
    return qoe_fn(effective_rate(bt_bits, frame_duration_s, params.bt_coverage_deg2), params)


def ue_rates(
    bt_bits: float, et_bits: float, frame_duration_s: float, params: QoeParams
) -> tuple[float, float]:
    """(base-tier, total) effective rate of one user's bits per frame."""
    bt_rate = effective_rate(bt_bits, frame_duration_s, params.bt_coverage_deg2)
    if et_bits <= 0.0:
        return bt_rate, bt_rate
    return bt_rate, bt_rate + effective_rate(
        et_bits, frame_duration_s, params.et_coverage_deg2
    )


def ue_scores(bt_rate: float, total_rate: float, params: QoeParams) -> tuple[float, float]:
    """(base-tier QoE, combined QoE) of one user at the given effective rates."""
    q_bt = qoe_fn(bt_rate, params)
    return q_bt, combined_qoe(q_bt, qoe_fn(total_rate, params), params.fov_prob)


@dataclass(frozen=True)
class QoeReport:
    """Evaluated QoE for one user under a concrete allocation."""

    bt_rate: float  # effective base-tier rate, bits/s/deg^2
    total_rate: float  # base plus enhancement effective rate
    q_bt: float
    q_combined: float
    served: bool

    @property
    def counted_qoe(self) -> float:
        """Contribution to a plan's total QoE: zero when unserved."""
        return self.q_combined if self.served else 0.0


def evaluate_ue(
    bt_bits: float,
    et_bits: float,
    frame_duration_s: float,
    params: QoeParams,
) -> QoeReport:
    """Full per-user QoE pipeline with the minimum-QoE serving test.

    A user with no base-tier rate is reported unserved with NaN scores
    instead of raising, so plan evaluation stays total.
    """
    if bt_bits <= 0.0:
        return QoeReport(
            bt_rate=0.0,
            total_rate=0.0,
            q_bt=math.nan,
            q_combined=math.nan,
            served=False,
        )
    bt_rate, total = ue_rates(bt_bits, et_bits, frame_duration_s, params)
    q_bt, q_comb = ue_scores(bt_rate, total, params)
    return QoeReport(
        bt_rate=bt_rate,
        total_rate=total,
        q_bt=q_bt,
        q_combined=q_comb,
        served=q_bt >= params.min_qoe,
    )
