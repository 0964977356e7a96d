"""The oracle's table of seen states: the key it computes for a child
before making it covers every part of the environment that decides what
can follow, equal keys step to equal states, and the search it shortens
still returns what plain enumeration returns."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from minislot.env import SchedulingEnv
from minislot.grid import GridSpec, Tier
from minislot.oracle import oracle_best_plan
from minislot.scenario import scenario_for_trial, tiny_config

KEY_FIELDS = SchedulingEnv.KEY_FIELDS

# SchedulingEnv attributes the key leaves out
NOT_KEYED = {
    # fixed per config
    "config", "reward_params", "dims", "action_set", "shapes", "n_actions",
    "aux_dim",
    # fixed per trial: the scenario, the serving order and the bits each
    # action adds for each user
    "profiles", "order", "_added_bits",
    # derived: the mask and each action's first fit from the grid and
    # cursor, each user's scores from its bits, the step count is the sum
    # of the per-tier counts
    "_mask", "_fits", "_scores", "step_count",
    # records of the past, which no later step reads
    "allocations",
    # terminal states are never keyed
    "done", "outcome",
}


def live_states():
    """Every live state of a tiny-config episode that always takes the
    largest feasible shape, from reset through both tiers."""
    config = tiny_config()
    env = SchedulingEnv(config)
    env.reset(profiles=scenario_for_trial(config, 0))
    states = []
    while not env.done:
        states.append(env.clone())
        feasible = np.flatnonzero(env.feasible_actions())
        env.step(int(max(feasible, key=lambda a: env.shapes[a].area_units)))
    assert {s.phase for s in states} == {Tier.BT, Tier.ET}
    return states


def keys(env):
    """The child key of every feasible action of ``env``."""
    return env.child_keys([int(a) for a in np.flatnonzero(env.feasible_actions())])


def test_key_fields_and_exclusions_cover_the_env_state():
    assert not NOT_KEYED & set(KEY_FIELDS)
    for env in live_states():
        assert set(vars(env)) <= NOT_KEYED | set(KEY_FIELDS)
        assert env.step_count == sum(env.bt_count) + sum(env.et_count)


def _occupy_last_free_cell(env):
    grid = env.occupancy
    cell = int(np.flatnonzero(grid.code.T == 0)[-1])  # t*F + f: its free bit
    grid.code.T.flat[cell] = 1
    grid.free ^= 1 << cell


def _other(env):
    """A user other than the active one."""
    return (env._active + 1) % len(env.profiles)


# one change per key field of a live parent; each must change the key of
# every child.  The bits change by one ulp on a user that does not act, so
# no add can absorb the change.
PERTURB = {
    "occupancy": _occupy_last_free_cell,
    "bt_bits": lambda e: e.bt_bits.__setitem__(_other(e), np.nextafter(e.bt_bits[_other(e)], 1.0)),
    "et_bits": lambda e: e.et_bits.__setitem__(_other(e), np.nextafter(e.et_bits[_other(e)], 1.0)),
    "bt_count": lambda e: e.bt_count.__setitem__(1, e.bt_count[1] + 1),
    "et_count": lambda e: e.et_count.__setitem__(1, e.et_count[1] + 1),
    "served": lambda e: e.served.__setitem__(1, not e.served[1]),
    "bt_excluded": lambda e: e.bt_excluded.__setitem__(1, not e.bt_excluded[1]),
    "phase": lambda e: setattr(e, "phase", Tier.ET if e.phase == Tier.BT else Tier.BT),
    "_et_rotation": lambda e: e._et_rotation.append(0),
    "_active": lambda e: setattr(e, "_active", _other(e)),
}


def test_every_key_field_changes_the_key():
    assert set(PERTURB) == set(KEY_FIELDS)
    for env in live_states():
        base = keys(env)
        for name, perturb in PERTURB.items():
            other = env.clone()
            perturb(other)
            for a, b in zip(base, keys(other), strict=True):
                assert a != b, name


def test_key_ignores_owners():
    for env in live_states():
        recoloured = env.clone()
        code = recoloured.occupancy.code
        code[code > 0] = 200  # the same cells stay free
        assert keys(recoloured) == keys(env)


def plain_best(env: SchedulingEnv) -> tuple[float, tuple[int, ...]]:
    """Reference: every action sequence in large-shape-first order, no
    bound and no table; the first terminal state with the highest total."""
    order = sorted(range(env.n_actions), key=lambda a: -env.shapes[a].area_units)
    best = [-1.0, ()]

    def walk(node, prefix):
        if node.done:
            total = node.total_qoe()
            if total > best[0]:
                best[:] = [total, prefix]
            return
        mask = node.feasible_actions()
        for action in order:
            if mask[action]:
                child = node.clone()
                child.step(action)
                walk(child, prefix + (action,))

    walk(env, ())
    return best[0], best[1]


@st.composite
def micro_configs(draw):
    n_ues = draw(st.integers(1, 2))
    return tiny_config(
        n_ues=n_ues,
        grid=GridSpec(
            mu_min=1,
            mu_max=2,
            frame_duration_ms=2.0 / 7.0,
            system_bandwidth_khz=draw(st.sampled_from([720.0, 1080.0, 1440.0, 2880.0])),
        ),
        numerology_set=tuple(
            draw(st.lists(st.sampled_from([1, 2]), min_size=1, max_size=2, unique=True))
        ),
        minislot_set=tuple(
            draw(st.lists(st.sampled_from([2, 4, 7]), min_size=1, max_size=2, unique=True))
        ),
        min_qoe=tuple(draw(st.floats(0.5, 4.2)) for _ in range(n_ues)),
        max_bwps_per_ue_tier=draw(st.integers(1, 2)),
        rng_seed=draw(st.integers(0, 2**16)),
    )


@st.composite
def strip_configs(draw):
    """Two users who are easily served, sharing enhancement BWPs along one
    two-row strip: placing two lengths in either order fills the same
    cells, so many states repeat and a key that merged unequal states
    would change the answer."""
    return tiny_config(
        grid=GridSpec(
            mu_min=1,
            mu_max=2,
            frame_duration_ms=2.0 / 7.0,
            system_bandwidth_khz=draw(st.sampled_from([720.0, 1080.0])),
        ),
        numerology_set=(2,),
        minislot_set=draw(st.sampled_from([(2, 4), (2, 7)])),
        min_qoe=(draw(st.floats(0.5, 1.5)), draw(st.floats(0.5, 1.5))),
        max_bwps_per_ue_tier=2,
        rng_seed=draw(st.integers(0, 2**16)),
    )


@settings(max_examples=60, deadline=None, database=None)
@given(config=st.one_of(micro_configs(), strip_configs()), trial=st.integers(0, 50))
def test_oracle_matches_plain_enumeration(config, trial):
    profiles = tuple(scenario_for_trial(config, trial))
    env = SchedulingEnv(config)
    env.reset(profiles=profiles)
    total, actions = plain_best(env)
    result = oracle_best_plan(config, profiles)
    assert result.actions == actions
    assert result.plan.total_qoe == total
    # the plan read off the search's leaf is the plan of its actions
    # replayed on a fresh environment
    replay = SchedulingEnv(config)
    replay.reset(profiles=profiles)
    for action in result.actions:
        replay.step(action)
    assert result.plan == replay.plan()


def key_fields(env):
    """``env``'s ``KEY_FIELDS``, the grid as its occupied cells."""
    return [
        (env.occupancy.code > 0).tolist() if name == "occupancy" else getattr(env, name)
        for name in KEY_FIELDS
    ]


def check_equal_keys_step_alike(config, trial) -> int:
    """Steps every (state, action) pair below the reset state, searching
    each distinct child once as the oracle does, and requires any two
    pairs with one key to step to states equal on every key field and in
    being done.  Returns how many pairs repeated an earlier key."""
    env = SchedulingEnv(config)
    env.reset(profiles=tuple(scenario_for_trial(config, trial)))
    first: dict[bytes, SchedulingEnv] = {}
    stack = [] if env.done else [env]
    repeats = 0
    while stack:
        node = stack.pop()
        actions = [int(a) for a in np.flatnonzero(node.feasible_actions())]
        for action, key in zip(actions, node.child_keys(actions), strict=True):
            child = node.clone()
            child.step(action)
            if key not in first:
                first[key] = child
                if not child.done:
                    stack.append(child)
                continue
            repeats += 1
            assert key_fields(child) == key_fields(first[key])
            assert child.done == first[key].done
    return repeats


def test_repeated_child_keys_occur_and_step_alike():
    config = tiny_config(rng_seed=1)
    assert check_equal_keys_step_alike(config, 1) > 0


@settings(max_examples=40, deadline=None, database=None)
@given(config=st.one_of(micro_configs(), strip_configs()), trial=st.integers(0, 50))
def test_equal_child_keys_step_to_equal_states(config, trial):
    check_equal_keys_step_alike(config, trial)
