"""Millimetre-wave link budget: path gain, per-user SNR and spectral efficiency.

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
MAX_ABS_DB = 300.0  # 1e30 in linear units; far past any real link


def db_to_linear(db: float) -> float:
    return 10.0 ** (db / 10.0)


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

    def check(self) -> None:
        """Refuse a carrier frequency that is not positive and finite, and a
        gain or PSD beyond ``MAX_ABS_DB``, whose linear value could
        overflow or vanish."""
        if not 0.0 < self.carrier_frequency_hz < math.inf:
            raise ValueError(
                f"carrier_frequency_hz must be positive and finite, got "
                f"{self.carrier_frequency_hz}"
            )
        for name in (
            "tx_gain_dbi", "rx_gain_dbi", "noise_psd_dbm_hz",
            "total_tx_psd_dbm_hz", "tx_psd_backoff_db",
        ):
            value = getattr(self, name)
            if not abs(value) <= MAX_ABS_DB:
                raise ValueError(f"{name} must lie within ±{MAX_ABS_DB} dB, got {value}")

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
    """Free-space channel power gain (c / 4 pi f)^2 * d^-2; a ValueError
    where a square overflows."""
    if distance_m < MIN_DISTANCE_M:
        raise ValueError(
            f"distance_m must be >= {MIN_DISTANCE_M} (far-field model), "
            f"got {distance_m}"
        )
    amplitude = SPEED_OF_LIGHT_M_S / (4.0 * math.pi * carrier_frequency_hz)
    try:
        return amplitude**2 / distance_m**2
    except OverflowError:
        raise ValueError(
            f"path gain overflows at distance_m {distance_m} and "
            f"carrier_frequency_hz {carrier_frequency_hz}"
        ) from None


def snr(link: LinkParams, channel_power_gain: float, ue_psd_w_hz: float) -> float:
    """Linear SNR: antenna gains * channel gain * allocated PSD / noise PSD."""
    return (
        link.tx_gain_linear
        * link.rx_gain_linear
        * channel_power_gain
        * ue_psd_w_hz
        / link.noise_psd_w_hz
    )


@dataclass(frozen=True)
class LinkState:
    """Per-user link quantities, fixed for the duration of one trial."""

    snr_linear: float
    spectral_efficiency: float  # bits per second per hertz

    @classmethod
    def for_distance(
        cls, link: LinkParams, distance_m: float, n_ues: int
    ) -> "LinkState":
        gain = path_gain(distance_m, link.carrier_frequency_hz)
        snr_lin = snr(link, gain, per_ue_psd_w_hz(link, n_ues))
        return cls(snr_linear=snr_lin, spectral_efficiency=math.log2(1.0 + snr_lin))
