"""Property tests: the environment's grid, placements, serving flags and
what it computes once and keeps (scores, first fits, the free count)
against simple reference implementations, on generated configs and
generated masked action sequences."""

import math
from itertools import combinations

import numpy as np
import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from minislot.env import SchedulingEnv
from minislot.grid import (
    BwpAllocation,
    BwpShape,
    GridDims,
    GridSpec,
    Occupancy,
    Tier,
    allocations_overlap,
    validate_allocation_set,
)
from minislot.qoe import evaluate_ue, ue_rates, ue_scores
from minislot.scenario import scenario_for_trial, tiny_config

# hypothesis's explain phase can crash on a failing st.data() example and
# hide the failed assertion, so it is left out; it only annotates failures
SETTINGS = settings(
    max_examples=60,
    deadline=None,
    database=None,
    phases=[phase for phase in Phase if phase is not Phase.explain],
)


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
        # the kept scores are the scores of the user's bits as they stand
        qp = profile.qoe
        if env.bt_bits[ue] > 0.0:
            rates = ue_rates(env.bt_bits[ue], env.et_bits[ue], env.config.frame_duration_s, qp)
            assert env._scores[ue] == ue_scores(*rates, qp)
        else:
            assert env._scores[ue] == (-math.inf, 0.0)
    code = env.occupancy.code
    assert env.occupancy.free_units() == code.size - np.count_nonzero(code)
    if env.done:
        return
    # the base tier serves its queue's head, and step() pops a user as soon
    # as it is served, so no queued user is ever served
    if env.phase == Tier.BT:
        assert env.active_ue == env._bt_queue[0]
        assert not any(env.served[ue] for ue in env._bt_queue)
    # the fit kept for each feasible action is the first fit on the grid
    # as it stands, where step() will place it
    for action in np.flatnonzero(env.feasible_actions()):
        shape = env.shapes[action]
        reference = brute_force_first_fit(code, shape.freq_width_units, shape.time_len_units)
        assert env._fits[action] == env.occupancy.find_first_fit(shape) == reference


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
    # the finished episode's plan agrees exactly with the env's bookkeeping
    plan = env.plan()
    assert plan.allocations == tuple(env.allocations)
    assert [r.served for r in plan.reports] == env.served
    assert [r.counted_qoe for r in plan.reports] == [
        q if served else 0.0 for (_, q), served in zip(env._scores, env.served)
    ]
    assert plan.total_qoe == env.total_qoe()


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
    occ.free = free_int_of(code)
    shape = BwpShape(mu=0, eta=1, time_len_units=tl, freq_width_units=fw)
    assert occ.find_first_fit(shape) == brute_force_first_fit(code, fw, tl)
    # answers are cached per grid state: each mark must drop them
    while (pos := occ.find_first_fit(shape)) is not None:
        occ.mark(*pos, shape, 7)
        assert occ.find_first_fit(shape) == brute_force_first_fit(occ.code, fw, tl)


def free_int_of(code: np.ndarray) -> int:
    """The free-cell int rebuilt cell by cell: bit t*F + f for free (f, t)."""
    n_freq = code.shape[0]
    return sum(1 << int(t * n_freq + f) for f, t in zip(*np.nonzero(code == 0)))


# a shape one row too tall for the top rows would wrap into the next column
@example(size=(3, 4), marks=[(0, 2, 1, 2)])
@example(size=(3, 4), marks=[(0, 0, 1, 1), (0, 0, 2, 1)])
@SETTINGS
@given(
    size=st.tuples(st.integers(1, 9), st.integers(1, 16)),
    marks=st.lists(
        st.tuples(st.integers(-2, 16), st.integers(-2, 9), st.integers(1, 6), st.integers(1, 4)),
        max_size=16,
    ),
)
def test_mark_keeps_the_free_int_and_refuses_bad_placements(size, marks):
    n_freq, n_time = size
    occ = Occupancy(GridDims(n_time_units=n_time, n_freq_units=n_freq, rb_size_shz=1.0))
    assert occ.free == free_int_of(occ.code)  # every cell free from the start
    for i, (t, f, tl, fw) in enumerate(marks):
        shape = BwpShape(mu=0, eta=1, time_len_units=tl, freq_width_units=fw)
        code, free = occ.code.copy(), occ.free
        on_grid = t >= 0 and f >= 0 and t + tl <= n_time and f + fw <= n_freq
        if on_grid and not code[f : f + fw, t : t + tl].any():
            occ.mark(t, f, shape, 1 + i)
            assert (occ.code[f : f + fw, t : t + tl] == 1 + i).all()
        else:
            with pytest.raises(ValueError, match="overlaps" if on_grid else "leaves"):
                occ.mark(t, f, shape, 1 + i)
            np.testing.assert_array_equal(occ.code, code)
            assert occ.free == free
        assert occ.free == free_int_of(occ.code)
        assert occ.free_units() == occ.code.size - np.count_nonzero(occ.code)


def _at(t, f, tl, fw):
    shape = BwpShape(mu=0, eta=1, time_len_units=tl, freq_width_units=fw)
    return BwpAllocation(0, Tier.BT, shape, t, f)


@st.composite
def allocation_sets(draw):
    """A grid of more than 64 cells and allocations on it: some inside it,
    some against or across an earlier one or at the bottom or top row
    (kept inside), some anywhere, out of bounds and at negative offsets
    included."""
    n_freq, n_time = draw(st.integers(2, 12)), draw(st.integers(33, 80))
    allocations = []
    for _ in range(draw(st.integers(0, 8))):
        fw, tl = draw(st.integers(1, min(4, n_freq))), draw(st.integers(1, 16))
        where = draw(st.sampled_from(["inside", "against", "against", "anywhere"]))
        if where == "against" and allocations:
            other = draw(st.sampled_from(allocations))
            t0, t1 = other.time_offset_units, other.time_end
            f0, f1 = other.freq_offset_units, other.freq_end
            t = draw(st.sampled_from([t0 - tl, t0 - tl + 1, t0, t1 - 1, t1]))
            f = draw(st.sampled_from([f0 - fw, f0 - fw + 1, f0, f1 - 1, f1, 0, n_freq - fw]))
            t, f = min(max(t, 0), n_time - tl), min(max(f, 0), n_freq - fw)
        elif where == "anywhere":
            t, f = draw(st.integers(-2, n_time)), draw(st.integers(-2, n_freq))
        else:
            t, f = draw(st.integers(0, n_time - tl)), draw(st.integers(0, n_freq - fw))
        allocations.append(_at(t, f, tl, fw))
    return GridDims(n_time_units=n_time, n_freq_units=n_freq, rb_size_shz=1.0), allocations


def pairwise_valid(allocations, dims) -> bool:
    in_bounds = all(
        a.time_offset_units >= 0
        and a.freq_offset_units >= 0
        and a.time_end <= dims.n_time_units
        and a.freq_end <= dims.n_freq_units
        for a in allocations
    )
    return in_bounds and not any(
        allocations_overlap(a, b) for a, b in combinations(allocations, 2)
    )


# the top row of one column and the bottom row of the next are neighbours
# in the bit order, not on the grid
@example(case=(GridDims(40, 3, 1.0), [_at(0, 2, 2, 1), _at(2, 0, 1, 1)]))
@example(case=(GridDims(40, 3, 1.0), [_at(0, 1, 2, 2), _at(1, 0, 1, 1)]))
@settings(max_examples=300, deadline=None, database=None)
@given(case=allocation_sets())
def test_validate_allocation_set_matches_pairwise_reference(case):
    dims, allocations = case
    assert validate_allocation_set(allocations, dims) == pairwise_valid(allocations, dims)
