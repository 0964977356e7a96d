"""Millimetre-wave link budget: path gain, per-user SNR and BWP rates.

Antenna gains are given in dBi and power spectral densities in dBm/Hz; all
arithmetic happens in linear units.  The transmit PSD carries an explicit
back-off (default 30 dB) below its nominal figure: this pins the calibrated
operating point of the simulator, e.g. a 200 m user in the default system
sees an SNR of 2.277 when the total PSD is split four ways.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

SPEED_OF_LIGHT_M_S = 3.0e8
MIN_DISTANCE_M = 1.0


def db_to_linear(db: float) -> float:
    return 10.0 ** (db / 10.0)


def linear_to_db(linear: float) -> float:
    if linear <= 0:
        raise ValueError(f"cannot convert non-positive value {linear} to dB")
    return 10.0 * math.log10(linear)


def dbm_per_hz_to_w_per_hz(dbm: float) -> float:
    return db_to_linear(dbm - 30.0)


@dataclass(frozen=True)
class LinkParams:
    """Static radio parameters shared by all users."""

    carrier_frequency_hz: float = 28e9
    tx_gain_dbi: float = 15.0
    rx_gain_dbi: float = 10.0
    noise_psd_dbm_hz: float = -169.0
    total_tx_psd_dbm_hz: float = -47.0
    tx_psd_backoff_db: float = 30.0

    @property
    def noise_psd_w_hz(self) -> float:
        return dbm_per_hz_to_w_per_hz(self.noise_psd_dbm_hz)

    @property
    def total_tx_psd_w_hz(self) -> float:
        return dbm_per_hz_to_w_per_hz(
            self.total_tx_psd_dbm_hz - self.tx_psd_backoff_db
        )

    @property
    def tx_gain_linear(self) -> float:
        return db_to_linear(self.tx_gain_dbi)

    @property
    def rx_gain_linear(self) -> float:
        return db_to_linear(self.rx_gain_dbi)


def per_ue_psd_w_hz(link: LinkParams, n_ues: int) -> float:
    """Equal split of the total transmit PSD across all ``n_ues`` users."""
    if n_ues < 1:
        raise ValueError(f"n_ues must be >= 1, got {n_ues}")
    return link.total_tx_psd_w_hz / n_ues


def path_gain(distance_m: float, carrier_frequency_hz: float) -> float:
    """Free-space channel power gain (c / 4 pi f)^2 * d^-2."""
    if distance_m < MIN_DISTANCE_M:
        raise ValueError(
            f"distance_m must be >= {MIN_DISTANCE_M} (far-field model), "
            f"got {distance_m}"
        )
    amplitude = SPEED_OF_LIGHT_M_S / (4.0 * math.pi * carrier_frequency_hz)
    return amplitude**2 / distance_m**2


def snr(link: LinkParams, channel_power_gain: float, ue_psd_w_hz: float) -> float:
    """Linear SNR: antenna gains * channel gain * allocated PSD / noise PSD."""
    return (
        link.tx_gain_linear
        * link.rx_gain_linear
        * channel_power_gain
        * ue_psd_w_hz
        / link.noise_psd_w_hz
    )


def bwp_rate_bits(area_shz: float, snr_linear: float) -> float:
    """Bits a BWP of the given time-bandwidth area carries in one frame."""
    if area_shz < 0:
        raise ValueError(f"area_shz must be non-negative, got {area_shz}")
    return area_shz * math.log2(1.0 + snr_linear)


@dataclass(frozen=True)
class LinkState:
    """Per-user link quantities, fixed for the duration of one trial."""

    distance_m: float
    channel_power_gain: float
    snr_linear: float
    spectral_efficiency: float  # bits per second per hertz

    @classmethod
    def for_distance(
        cls, link: LinkParams, distance_m: float, n_ues: int
    ) -> "LinkState":
        gain = path_gain(distance_m, link.carrier_frequency_hz)
        snr_lin = snr(link, gain, per_ue_psd_w_hz(link, n_ues))
        return cls(
            distance_m=distance_m,
            channel_power_gain=gain,
            snr_linear=snr_lin,
            spectral_efficiency=math.log2(1.0 + snr_lin),
        )
