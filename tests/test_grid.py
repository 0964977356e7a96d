import numpy as np
import pytest

from minislot.grid import (
    BwpAllocation,
    BwpShape,
    ConfigError,
    GridSpec,
    Occupancy,
    Tier,
    bwp_shape,
    derive_grid,
    validate_allocation_set,
)

DEFAULT = GridSpec(mu_min=4, mu_max=6, frame_duration_ms=0.0625, system_bandwidth_khz=69120.0)


def test_default_grid_is_56_by_24():
    dims = derive_grid(DEFAULT)
    assert dims.n_time_units == 56
    assert dims.n_freq_units == 24
    assert dims.total_units == 56 * 24


def test_unit_cell_size():
    # finest time unit 1/(14*2^6) ms, finest band 12*15*2^4 kHz
    assert DEFAULT.dt_min_ms == pytest.approx(1.0 / 896.0, rel=1e-15)
    assert DEFAULT.db_min_khz == pytest.approx(2880.0, rel=1e-15)
    dims = derive_grid(DEFAULT)
    assert dims.rb_size_shz == pytest.approx((1e-3 / 896.0) * 2880e3, rel=1e-15)


def test_non_integer_frame_raises_with_field_name():
    with pytest.raises(ConfigError, match="frame_duration_ms"):
        derive_grid(GridSpec(4, 6, 0.06, 69120.0))
    with pytest.raises(ConfigError, match="system_bandwidth_khz"):
        derive_grid(GridSpec(4, 6, 0.0625, 69000.0))


def test_grid_spec_validation():
    with pytest.raises(ConfigError):
        GridSpec(6, 4, 0.0625, 69120.0)
    with pytest.raises(ConfigError):
        GridSpec(-1, 6, 0.0625, 69120.0)
    with pytest.raises(ConfigError):
        GridSpec(4, 6, -0.0625, 69120.0)


@pytest.mark.parametrize("mu", [4, 5, 6])
@pytest.mark.parametrize("eta", [2, 4, 7])
def test_bwp_area_is_numerology_invariant(mu, eta):
    shape = bwp_shape(mu, eta, DEFAULT)
    assert shape.time_len_units == eta * 2 ** (6 - mu)
    assert shape.freq_width_units == 2 ** (mu - 4)
    assert shape.area_units == 4 * eta  # independent of mu


@pytest.mark.parametrize("mu", [4, 5, 6])
@pytest.mark.parametrize("eta", [2, 4, 7])
def test_bwp_area_shz_exact(mu, eta):
    shape = bwp_shape(mu, eta, DEFAULT)
    dims = derive_grid(DEFAULT)
    direct = (
        (eta * 2 ** (6 - mu) * DEFAULT.dt_min_ms * 1e-3)
        * (2 ** (mu - 4) * DEFAULT.db_min_khz * 1e3)
    )
    # association order differs between the two factorizations: allow 1 ulp
    assert shape.area_shz(dims) == pytest.approx(direct, rel=1e-14)


def test_bwp_shape_range_errors():
    with pytest.raises(ConfigError):
        bwp_shape(3, 2, DEFAULT)  # mu below grid range
    with pytest.raises(ConfigError):
        bwp_shape(7, 2, DEFAULT)  # mu above grid range
    with pytest.raises(ConfigError):
        bwp_shape(4, 0, DEFAULT)
    with pytest.raises(ConfigError):
        bwp_shape(4, 15, DEFAULT)  # more symbols than one slot


def _alloc(ue, tier, shape, t, f):
    return BwpAllocation(
        ue_index=ue, tier=tier, shape=shape, time_offset_units=t, freq_offset_units=f
    )


def test_overlap_detection():
    """The placement check refuses one shared cell and accepts neighbours."""
    dims = derive_grid(DEFAULT)
    s = bwp_shape(4, 2, DEFAULT)  # 8 x 1
    a = _alloc(0, Tier.BT, s, 0, 0)
    assert not validate_allocation_set([a, _alloc(1, Tier.BT, s, 7, 0)], dims)
    assert validate_allocation_set([a, _alloc(1, Tier.BT, s, 8, 0)], dims)  # edge-adjacent
    assert validate_allocation_set([a, _alloc(1, Tier.BT, s, 0, 1)], dims)  # other row


def test_validate_allocation_set():
    dims = derive_grid(DEFAULT)
    s = bwp_shape(6, 7, DEFAULT)  # 7 x 4
    good = [_alloc(0, Tier.BT, s, 0, 0), _alloc(1, Tier.ET, s, 7, 0)]
    assert validate_allocation_set(good, dims)
    overlapping = [_alloc(0, Tier.BT, s, 0, 0), _alloc(1, Tier.BT, s, 6, 1)]
    assert not validate_allocation_set(overlapping, dims)
    out_of_bounds = [_alloc(0, Tier.BT, s, 50, 0)]  # 50 + 7 > 56
    assert not validate_allocation_set(out_of_bounds, dims)
    assert validate_allocation_set([], dims)


def test_first_fit_prefers_earliest_time_then_lowest_frequency():
    dims = derive_grid(DEFAULT)
    occ = Occupancy(dims)
    wide = bwp_shape(4, 7, DEFAULT)  # 28 x 1
    assert occ.find_first_fit(wide) == (0, 0)
    occ.mark(0, 0, wide, 1)
    assert occ.find_first_fit(wide) == (0, 1)  # same column, next row up
    occ.mark(0, 1, wide, 1)
    tall = bwp_shape(6, 2, DEFAULT)  # 2 x 4
    # rows 0-1 are blocked until t=28, rows 2+ free from t=0
    assert occ.find_first_fit(tall) == (0, 2)


def test_first_fit_skips_holes_too_small():
    dims = derive_grid(DEFAULT)
    occ = Occupancy(dims)
    occ.mark(4, 0, bwp_shape(4, 7, DEFAULT), 1)  # cols 4..31 of row 0
    pos = occ.find_first_fit(bwp_shape(4, 2, DEFAULT))  # needs 8 columns
    assert pos == (0, 1)  # the 4-column hole in row 0 is too narrow


def test_mark_rejects_overlap():
    dims = derive_grid(DEFAULT)
    occ = Occupancy(dims)
    s = bwp_shape(5, 4, DEFAULT)  # 8 x 2
    occ.mark(0, 0, s, 3)
    assert (occ.code[:2, :8] == 3).all()
    with pytest.raises(ValueError):
        occ.mark(7, 1, s, 1)
    assert occ.free_units() == dims.total_units - s.area_units


def test_shape_too_large_for_grid():
    small = GridSpec(1, 2, 2.0 / 7.0, 2880.0)
    dims = derive_grid(small)
    occ = Occupancy(dims)
    assert occ.find_first_fit(BwpShape(mu=2, eta=14, time_len_units=14, freq_width_units=16)) is None


def _scan_first_fit(code, shape):
    for t in range(code.shape[1] - shape.time_len_units + 1):
        for f in range(code.shape[0] - shape.freq_width_units + 1):
            window = code[f : f + shape.freq_width_units, t : t + shape.time_len_units]
            if not window.any():
                return t, f
    return None


def test_occupancy_copy_is_independent():
    dims = derive_grid(DEFAULT)
    occ = Occupancy(dims)
    small, large = bwp_shape(4, 2, DEFAULT), bwp_shape(6, 7, DEFAULT)
    occ.mark(*occ.find_first_fit(small), small, 1)
    shapes = [bwp_shape(mu, eta, DEFAULT) for mu in (4, 5, 6) for eta in (2, 4, 7, 14)]
    before = [occ.find_first_fit(s) for s in shapes]  # the copy starts from these
    clone = occ.copy()
    clone.mark(*clone.find_first_fit(small), small, 1)
    assert clone.free_units() == occ.free_units() - 8
    clone.mark(*clone.find_first_fit(large), large, 2)
    for shape, answer in zip(shapes, before):
        assert occ.find_first_fit(shape) == _scan_first_fit(occ.code, shape) == answer
        assert clone.find_first_fit(shape) == _scan_first_fit(clone.code, shape)
