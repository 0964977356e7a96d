import math

import pytest

from minislot.grid import GridSpec, bwp_shape, derive_grid
from minislot.radio import (
    LinkParams,
    LinkState,
    db_to_linear,
    dbm_per_hz_to_w_per_hz,
    path_gain,
    per_ue_psd_w_hz,
    snr,
)


def test_db_conversions():
    assert db_to_linear(0.0) == 1.0
    assert db_to_linear(10.0) == pytest.approx(10.0, rel=1e-12)
    assert dbm_per_hz_to_w_per_hz(-30.0) == pytest.approx(1e-6, rel=1e-12)


def test_path_gain_free_space_hand_calc():
    # ((c / (4 pi f_c)) / d)^2 at 28 GHz, 200 m
    wavelength = 3.0e8 / 28e9
    expected = (wavelength / (4.0 * math.pi)) ** 2 / 200.0**2
    assert path_gain(200.0, 28e9) == pytest.approx(expected, rel=1e-12)
    assert path_gain(200.0, 28e9) == pytest.approx(1.8173841134826214e-11, rel=1e-9)


def test_path_gain_rejects_nearfield_distance():
    with pytest.raises(ValueError):
        path_gain(0.5, 28e9)


def test_equal_psd_split():
    link = LinkParams()
    assert per_ue_psd_w_hz(link, 4) == pytest.approx(
        dbm_per_hz_to_w_per_hz(-47.0 - link.tx_psd_backoff_db) / 4.0, rel=1e-12
    )
    assert per_ue_psd_w_hz(link, 1) == pytest.approx(4 * per_ue_psd_w_hz(link, 4), rel=1e-12)
    with pytest.raises(ValueError):
        per_ue_psd_w_hz(link, 0)


def test_snr_at_cell_edge_four_way_split():
    # independent hand calculation of the full budget
    link = LinkParams()
    p_n = 10 ** ((-47.0 - 30.0 - 30.0) / 10.0) / 4.0  # dBm/Hz -> W/Hz, 4 users
    assert p_n == pytest.approx(4.988155787422207e-12, rel=1e-9)
    gain = (3.0e8 / (4.0 * math.pi * 28e9)) ** 2 / 200.0**2
    antennas = 10 ** ((15.0 + 10.0) / 10.0)
    noise = 10 ** ((-169.0 - 30.0) / 10.0)
    expected = p_n * antennas * gain / noise
    got = snr(link, path_gain(200.0, link.carrier_frequency_hz), per_ue_psd_w_hz(link, 4))
    assert got == pytest.approx(expected, rel=1e-12)
    assert got == pytest.approx(2.277, rel=5e-3)


def test_link_state_spectral_efficiency():
    state = LinkState.for_distance(LinkParams(), 200.0, 4)
    assert state.spectral_efficiency == pytest.approx(math.log2(1.0 + state.snr_linear), rel=1e-15)
    assert state.snr_linear == pytest.approx(2.277124290686266, rel=1e-9)


def test_eight_rb_bwp_bits_per_frame():
    spec = GridSpec(4, 6, 0.0625, 69120.0)
    dims = derive_grid(spec)
    shape = bwp_shape(5, 2, spec)  # area 8 RBs
    assert shape.area_units == 8
    state = LinkState.for_distance(LinkParams(), 200.0, 4)
    bits = shape.area_shz(dims) * state.spectral_efficiency
    assert bits == pytest.approx(44.0, rel=5e-3)
    # additivity: same area split into single RBs carries the same payload
    per_rb = dims.rb_size_shz * state.spectral_efficiency
    assert bits == pytest.approx(8 * per_rb, rel=1e-12)


def test_per_frame_equals_rate_times_duration():
    spec = GridSpec(4, 6, 0.0625, 69120.0)
    dims = derive_grid(spec)
    state = LinkState.for_distance(LinkParams(), 120.0, 4)
    shape = bwp_shape(6, 7, spec)
    frame_s = spec.frame_duration_ms * 1e-3
    # bits = (bandwidth * se) * (occupied time): both factorizations agree
    bandwidth_hz = shape.freq_width_units * spec.db_min_khz * 1e3
    time_s = shape.time_len_units * spec.dt_min_ms * 1e-3
    direct = bandwidth_hz * time_s * state.spectral_efficiency
    assert shape.area_shz(dims) * state.spectral_efficiency == pytest.approx(
        direct, rel=1e-12
    )
    assert time_s <= frame_s


def test_closer_users_get_better_links():
    near = LinkState.for_distance(LinkParams(), 10.0, 4)
    far = LinkState.for_distance(LinkParams(), 199.0, 4)
    assert near.snr_linear > far.snr_linear
    assert near.spectral_efficiency > far.spectral_efficiency
