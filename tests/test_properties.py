"""Property tests: the environment's grid, placements and serving flags
against simple reference implementations, on generated configs and
generated masked action sequences."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from minislot.env import SchedulingEnv
from minislot.grid import BwpShape, GridDims, GridSpec, Occupancy, Tier
from minislot.qoe import evaluate_ue
from minislot.scenario import scenario_for_trial, tiny_config

SETTINGS = settings(max_examples=60, deadline=None, database=None)


@st.composite
def small_configs(draw):
    mu_min = draw(st.integers(0, 2))
    mu_max = mu_min + draw(st.integers(0, 2))
    n_time = draw(st.integers(8, 32))
    n_freq = draw(st.integers(2, 8))
    grid = GridSpec(
        mu_min=mu_min,
        mu_max=mu_max,
        frame_duration_ms=n_time / (14 * 2**mu_max),
        system_bandwidth_khz=n_freq * 180.0 * 2**mu_min,
    )
    numerologies = draw(
        st.lists(st.integers(mu_min, mu_max), min_size=1, max_size=3, unique=True)
    )
    minislots = draw(st.lists(st.integers(1, 7), min_size=1, max_size=3, unique=True))
    n_ues = draw(st.integers(1, 3))
    return tiny_config(
        n_ues=n_ues,
        grid=grid,
        numerology_set=tuple(sorted(numerologies)),
        minislot_set=tuple(sorted(minislots)),
        min_qoe=tuple(draw(st.floats(1.5, 3.5)) for _ in range(n_ues)),
        peak_factor=draw(st.sampled_from([2.0, 10.0])),
        max_bwps_per_ue_tier=draw(st.sampled_from([None, 1, 2, 3])),
        rng_seed=draw(st.integers(0, 2**16)),
    )


def reference_codes(allocations, dims) -> np.ndarray:
    """Paint the placement log onto a fresh grid, checking each placement
    is in bounds and overlaps no earlier one."""
    grid = np.zeros((dims.n_freq_units, dims.n_time_units), dtype=np.int64)
    for a in allocations:
        assert 0 <= a.time_offset_units and a.time_end <= dims.n_time_units
        assert 0 <= a.freq_offset_units and a.freq_end <= dims.n_freq_units
        cells = grid[a.freq_offset_units : a.freq_end, a.time_offset_units : a.time_end]
        assert not cells.any(), "placements overlap"
        cells[:] = 1 + 2 * a.ue_index + (1 if a.tier == Tier.ET else 0)
    return grid


def check_invariants(env: SchedulingEnv) -> None:
    np.testing.assert_array_equal(
        env.occupancy.code, reference_codes(env.allocations, env.dims)
    )
    for ue, profile in enumerate(env.profiles):
        bits = {Tier.BT: 0.0, Tier.ET: 0.0}
        for a in env.allocations:
            if a.ue_index == ue:
                bits[a.tier] += a.shape.area_shz(env.dims) * profile.link.spectral_efficiency
        report = evaluate_ue(
            bits[Tier.BT], bits[Tier.ET], env.config.frame_duration_s, profile.qoe
        )
        assert env.served[ue] == report.served


@SETTINGS
@given(config=small_configs(), trial=st.integers(0, 50), data=st.data())
def test_random_masked_episodes_keep_grid_and_serving_consistent(config, trial, data):
    env = SchedulingEnv(config)
    env.reset(profiles=scenario_for_trial(config, trial))
    check_invariants(env)
    while not env.done:
        feasible = np.flatnonzero(env.feasible_actions())
        env.step(int(data.draw(st.sampled_from(feasible))))
        check_invariants(env)


def brute_force_first_fit(code: np.ndarray, fw: int, tl: int):
    n_freq, n_time = code.shape
    for t in range(n_time - tl + 1):
        for f in range(n_freq - fw + 1):
            if not code[f : f + fw, t : t + tl].any():
                return t, f
    return None


@SETTINGS
@given(
    code=arrays(
        np.uint8,
        st.tuples(st.integers(1, 6), st.integers(1, 12)),
        elements=st.sampled_from([0, 0, 0, 1, 2, 255]),
    ),
    fw=st.integers(1, 7),
    tl=st.integers(1, 13),
)
def test_first_fit_matches_brute_force(code, fw, tl):
    n_freq, n_time = code.shape
    occ = Occupancy(GridDims(n_time_units=n_time, n_freq_units=n_freq, rb_size_shz=1.0))
    occ.code[:] = code
    shape = BwpShape(mu=0, eta=1, time_len_units=tl, freq_width_units=fw)
    assert occ.find_first_fit(shape) == brute_force_first_fit(code, fw, tl)
    # answers are cached per grid state: each mark must drop them
    while (pos := occ.find_first_fit(shape)) is not None:
        occ.mark(*pos, shape, 7)
        assert occ.find_first_fit(shape) == brute_force_first_fit(occ.code, fw, tl)
