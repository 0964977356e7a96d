"""Property tests: the environment's grid, placements, serving flags and
what it computes once and keeps (QoE reports, first fits, the free count)
against simple reference implementations, on generated configs and
generated masked action sequences."""

import struct
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
    live_cells,
    live_plans,
    validate_allocation_set,
)
from minislot.qoe import QoeReport, base_tier_qoe, evaluate_ue
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


def ends(a: BwpAllocation) -> tuple[int, int]:
    """(time, frequency) unit one past a placement's last cell."""
    return (
        a.time_offset_units + a.shape.time_len_units,
        a.freq_offset_units + a.shape.freq_width_units,
    )


def reference_codes(allocations, dims) -> np.ndarray:
    """Paint the placement log onto a fresh grid, checking each placement
    is in bounds and overlaps no earlier one."""
    grid = np.zeros((dims.n_freq_units, dims.n_time_units), dtype=np.int64)
    for a in allocations:
        time_end, freq_end = ends(a)
        assert 0 <= a.time_offset_units and time_end <= dims.n_time_units
        assert 0 <= a.freq_offset_units and freq_end <= dims.n_freq_units
        cells = grid[a.freq_offset_units : freq_end, a.time_offset_units : time_end]
        assert not cells.any(), "placements overlap"
        cells[:] = 1 + 2 * a.ue_index + (1 if a.tier == Tier.ET else 0)
    return grid


def check_invariants(env: SchedulingEnv) -> None:
    np.testing.assert_array_equal(
        env.occupancy.code, reference_codes(env.allocations, env.dims)
    )
    # every step placed one allocation and counted it in one slot
    assert env.step_count == len(env.allocations) == sum(env.counts)
    for ue, profile in enumerate(env.profiles):
        bits = {Tier.BT: 0.0, Tier.ET: 0.0}
        for a in env.allocations:
            if a.ue_index == ue:
                bits[a.tier] += a.shape.area_shz(env.dims) * profile.link.spectral_efficiency
        report = evaluate_ue(
            bits[Tier.BT], bits[Tier.ET], env.config.frame_duration_s, profile.qoe
        )
        # the kept report is the report of the user's bits as they stand
        assert report_bits(env.reports[ue]) == report_bits(report)
        assert env.served[ue] == report.served
        # the serving flag follows from the kept base-tier bits alone, which
        # lets the oracle's key leave it out
        qp = profile.qoe
        bt = env.bits[ue]
        frame_s = env.config.frame_duration_s
        assert env.served[ue] == (bt > 0.0 and base_tier_qoe(bt, frame_s, qp) >= qp.min_qoe)
    code = env.occupancy.code
    assert env.occupancy.free_units() == code.size - np.count_nonzero(code)
    if env.done:
        return
    # the phase and the active user follow from the rotation and the
    # counts, which lets the oracle's key leave them out: the rotation is
    # filled when the enhancement tier starts and its head acts; the base
    # tier serves users in order, each until it is served, and no user
    # after the active one has a base-tier placement yet
    assert (env.phase == Tier.ET) == bool(env._et_rotation)
    if env.phase == Tier.ET:
        assert env._active == env._et_rotation[0]
    else:
        at = env.order.index(env._active)
        assert env._active == next(ue for ue in env.order if not env.served[ue])
        assert not any(env.counts[ue] for ue in env.order[at + 1 :])
    # the fit kept for each feasible action is the first fit on the grid
    # as it stands, where step() will place it
    for action in np.flatnonzero(env.feasible_actions()):
        shape = env.shapes[action]
        reference = brute_force_first_fit(code, shape.freq_width_units, shape.time_len_units)
        assert env._fits[action] == env.occupancy.find_first_fit(shape) == reference
    assert env.feasible_actions() == reference_mask(env)


def report_bits(report: QoeReport) -> tuple[bytes, bool]:
    """A report's scores as their float64 bytes, so that NaN (a user with no
    base-tier bits) equals NaN, and its serving flag."""
    return struct.pack("<2d", report.q_bt, report.q_combined), report.served


def reference_mask(env: SchedulingEnv) -> tuple[bool, ...]:
    """The live state's mask, rebuilt: an action is feasible when its shape
    fits on the grid, the acting user's placements in the acting tier are
    under the cap and, in the base tier, the bits the shape adds keep the
    user's base-tier QoE within its peak (NaN passes, as in the env)."""
    ue = env._active
    profile = env.profiles[ue]
    qp = profile.qoe
    cap = env.config.max_bwps_per_ue_tier
    slot = ue if env.phase == Tier.BT else env.config.n_ues + ue
    mask = []
    for shape in env.shapes:
        feasible = brute_force_first_fit(
            env.occupancy.code, shape.freq_width_units, shape.time_len_units
        ) is not None and (cap is None or env.counts[slot] < cap)
        if feasible and env.phase == Tier.BT:
            bits = env.bits[ue] + shape.area_shz(env.dims) * profile.link.spectral_efficiency
            q_bt = base_tier_qoe(bits, env.config.frame_duration_s, qp)
            feasible = not q_bt > qp.peak_qoe
        mask.append(feasible)
    return tuple(mask)


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
        r.q_combined if r.served else 0.0 for r in env.reports
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


@SETTINGS
@given(
    code=arrays(
        np.uint8,
        st.tuples(st.integers(1, 6), st.integers(1, 12)),
        elements=st.sampled_from([0, 0, 0, 1]),
    ),
    sizes=st.lists(st.tuples(st.integers(1, 4), st.integers(1, 8)), min_size=1, max_size=5),
)
def test_live_cells_are_the_cells_of_free_windows(code, sizes):
    """Every shape's windows counted, not only those ``live_plans`` keeps."""
    n_freq, n_time = code.shape
    windows = np.zeros(code.shape, dtype=bool)
    for fw, tl in sizes:
        for t in range(n_time - tl + 1):
            for f in range(n_freq - fw + 1):
                if not code[f : f + fw, t : t + tl].any():
                    windows[f : f + fw, t : t + tl] = True
    shapes = tuple(BwpShape(mu=0, eta=1, time_len_units=tl, freq_width_units=fw) for fw, tl in sizes)
    live = live_cells(free_int_of(code), live_plans(n_freq, n_time, shapes))
    assert live == free_int_of(np.where(windows, 0, 1))


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
            t0, f0 = other.time_offset_units, other.freq_offset_units
            t1, f1 = ends(other)
            t = draw(st.sampled_from([t0 - tl, t0 - tl + 1, t0, t1 - 1, t1]))
            f = draw(st.sampled_from([f0 - fw, f0 - fw + 1, f0, f1 - 1, f1, 0, n_freq - fw]))
            t, f = min(max(t, 0), n_time - tl), min(max(f, 0), n_freq - fw)
        elif where == "anywhere":
            t, f = draw(st.integers(-2, n_time)), draw(st.integers(-2, n_freq))
        else:
            t, f = draw(st.integers(0, n_time - tl)), draw(st.integers(0, n_freq - fw))
        allocations.append(_at(t, f, tl, fw))
    return GridDims(n_time_units=n_time, n_freq_units=n_freq, rb_size_shz=1.0), allocations


def overlap(a: BwpAllocation, b: BwpAllocation) -> bool:
    """Whether two placements share a cell."""
    (a_time_end, a_freq_end), (b_time_end, b_freq_end) = ends(a), ends(b)
    return (
        a.time_offset_units < b_time_end
        and b.time_offset_units < a_time_end
        and a.freq_offset_units < b_freq_end
        and b.freq_offset_units < a_freq_end
    )


def pairwise_valid(allocations, dims) -> bool:
    in_bounds = all(
        a.time_offset_units >= 0
        and a.freq_offset_units >= 0
        and ends(a)[0] <= dims.n_time_units
        and ends(a)[1] <= dims.n_freq_units
        for a in allocations
    )
    return in_bounds and not any(overlap(a, b) for a, b in combinations(allocations, 2))


# the top row of one column and the bottom row of the next are neighbours
# in the bit order, not on the grid
@example(case=(GridDims(40, 3, 1.0), [_at(0, 2, 2, 1), _at(2, 0, 1, 1)]))
@example(case=(GridDims(40, 3, 1.0), [_at(0, 1, 2, 2), _at(1, 0, 1, 1)]))
@settings(max_examples=300, deadline=None, database=None)
@given(case=allocation_sets())
def test_validate_allocation_set_matches_pairwise_reference(case):
    dims, allocations = case
    assert validate_allocation_set(allocations, dims) == pairwise_valid(allocations, dims)
