"""The oracle's table of seen states and its bound: the key it computes
for a child before making it covers every part of the environment that
decides what can follow, equal keys step to states with equal futures, the
bound is at least every total below its state and is predicted exactly for
a child before it is made, the search they shorten still returns what
plain enumeration returns, and it reads the environment only through its
protocol."""

import ast
import hashlib
import math
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import minislot.oracle
from minislot.env import RewardParams, SchedulingEnv
from minislot.grid import GridSpec, Tier, live_cells, live_plans
from minislot.oracle import oracle_best_plan
from minislot.scenario import scenario_for_trial, tiny_config

# The SchedulingEnv attributes that decide what can follow a live state,
# which SchedulingEnv.child_keys keys.  Everything else reset() sets is
# fixed per trial, derived from these, or a record of the past (NOT_KEYED).
KEY_FIELDS = ("occupancy", "bits", "counts", "_et_rotation")

# SchedulingEnv attributes the key leaves out
NOT_KEYED = {
    # fixed per config
    "config", "reward_params", "dims", "shapes", "n_actions",
    "aux_dim", "_largest_area", "_frame_s", "_live_plans",
    # fixed per trial: the scenario, the serving order, the bits each
    # action adds for each user and the bits one cell gives each user
    "profiles", "order", "_added_bits", "_cell_bits",
    # derived: the mask and each action's first fit from the grid and
    # cursor, each user's scores and serving flag from its bits, the phase
    # is the enhancement tier exactly when the rotation is non-empty, and
    # the active user is the rotation's head there, else the last user in
    # serving order with a base-tier placement (test_properties.py checks
    # these on every step)
    "_mask", "_fits", "_scores", "served", "phase", "_active",
    # records of the past, which no later step reads; a user is excluded
    # from the base tier only on the step that ends the episode, so the
    # exclusion flags are all False in every live state
    "allocations", "bt_excluded",
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
        assert env.step_count == sum(env.counts)


def _occupy_last_free_cell(env):
    grid = env.occupancy
    cell = int(np.flatnonzero(grid.code.T == 0)[-1])  # t*F + f: its free bit
    grid.code.T.flat[cell] = 1
    grid.free ^= 1 << cell


def _other(env):
    """A user other than the active one."""
    return (env._active + 1) % len(env.profiles)


def _more_bits(env, tier):
    """One ulp more bits in ``tier`` for a user that does not act, so no
    add can absorb the change."""
    slot = env._slot(_other(env), tier)
    env.bits[slot] = np.nextafter(env.bits[slot], 1.0)


def _one_more_placement(env, tier):
    env.counts[env._slot(1, tier)] += 1


# (key field, change) pairs, at least one per key field of a live parent
# and one per tier half of the bits and of the counts; each change must
# change the key of every child
PERTURB = [
    ("occupancy", _occupy_last_free_cell),
    ("bits", lambda e: _more_bits(e, Tier.BT)),
    ("bits", lambda e: _more_bits(e, Tier.ET)),
    ("counts", lambda e: _one_more_placement(e, Tier.BT)),
    ("counts", lambda e: _one_more_placement(e, Tier.ET)),
    ("_et_rotation", lambda e: e._et_rotation.append(0)),
]


def test_every_key_field_changes_the_key():
    assert {name for name, _ in PERTURB} == set(KEY_FIELDS)
    for env in live_states():
        base = keys(env)
        for i, (name, perturb) in enumerate(PERTURB):
            other = env.clone()
            perturb(other)
            for a, b in zip(base, keys(other), strict=True):
                assert a != b, (i, name)


def test_tiny_key_at_reset_is_84_bytes():
    # 16 B of live cells, a 4 B free count, then 8 B for each of the two
    # users' two bits and two counts; the base tier has no rotation yet
    assert {len(key) for key in keys(live_states()[0])} == {84}


def test_key_ignores_owners():
    for env in live_states():
        recoloured = env.clone()
        code = recoloured.occupancy.code
        code[code > 0] = 200  # the same cells stay free
        assert keys(recoloured) == keys(env)


def plain_best(env: SchedulingEnv) -> tuple[float, tuple[int, ...]]:
    """Reference: every action sequence in large-shape-first order, no
    bound and no table; the first terminal state with the highest total.
    ``env`` is built with the reward parameters the oracle is given, so
    both end an episode at the same step limit."""
    order = sorted(range(env.n_actions), key=lambda a: -env.shapes[a].area_units)
    best = [-math.inf, ()]

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
    """A micro config and reward parameters whose step limit often cuts
    its episodes short: with at most 2 users and 2 BWPs per user and tier,
    no episode is longer than 8 steps."""
    n_ues = draw(st.integers(1, 2))
    config = tiny_config(
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
    max_steps = draw(st.one_of(st.just(RewardParams().max_steps), st.integers(1, 8)))
    return config, RewardParams(max_steps=max_steps)


@st.composite
def strip_configs(draw):
    """Two users who are easily served, sharing enhancement BWPs along one
    two-row strip: placing two lengths in either order fills the same
    cells, so many states repeat and a key that merged unequal states
    would change the answer.  The reward parameters are the defaults."""
    config = tiny_config(
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
    return config, RewardParams()


def check_oracle_matches_plain_enumeration(config, trial, reward=None):
    profiles = tuple(scenario_for_trial(config, trial))
    env = SchedulingEnv(config, reward)
    env.reset(profiles=profiles)
    total, actions = plain_best(env)
    result = oracle_best_plan(config, profiles, reward)
    assert result.plan.total_qoe == total
    # the plan read off the search's leaf is the plan of the enumeration's
    # actions replayed on a fresh environment
    replay = SchedulingEnv(config, reward)
    replay.reset(profiles=profiles)
    for action in actions:
        replay.step(action)
    assert result.plan == replay.plan()
    return total


@settings(max_examples=60, deadline=None, database=None)
@given(instance=st.one_of(micro_configs(), strip_configs()), trial=st.integers(0, 50))
def test_oracle_matches_plain_enumeration(instance, trial):
    config, reward = instance
    check_oracle_matches_plain_enumeration(config, trial, reward)


def micro_grid(bandwidth_khz: float) -> GridSpec:
    return GridSpec(
        mu_min=1, mu_max=2, frame_duration_ms=2.0 / 7.0, system_bandwidth_khz=bandwidth_khz
    )


# QoE constants under which every total is negative (a user is served at
# a base-tier QoE of -200 to -80), and under which QoE falls as the rate
# grows, so that more bits are never better and the bound does not hold
@pytest.mark.parametrize(
    "qoe",
    [
        dict(qoe_a=-100.0, min_qoe=(-200.0, -200.0), peak_factor=0.4),
        dict(qoe_a=20.0, qoe_b=-1.0, min_qoe=(5.0, 5.0), peak_factor=4.0),
    ],
    ids=["negative-totals", "falling-qoe"],
)
@pytest.mark.parametrize("bandwidth_khz", [720.0, 1440.0])
def test_oracle_matches_plain_enumeration_off_the_usual_qoe(qoe, bandwidth_khz):
    config = tiny_config(grid=micro_grid(bandwidth_khz), max_bwps_per_ue_tier=2, **qoe)
    totals = [check_oracle_matches_plain_enumeration(config, trial) for trial in range(3)]
    assert all((total < 0.0) == (qoe["qoe_a"] < 0.0) for total in totals)


def bound(env):
    """``env``'s bound: ``_bound`` of its own free-cell count, bits, counts
    and serving flags."""
    return env._bound(env.occupancy.free_units(), env.bits, env.counts, env.served)


def bound_states(config, trial, reward):
    """(bound, best total below) of every live state of plain enumeration,
    and (predicted bound, done, bound or, if done, total) of every child
    of one: what ``child_bounds`` of all the feasible actions predicted,
    and what the child's ``bound`` or ``total_qoe()`` reads."""
    env = SchedulingEnv(config, reward)
    env.reset(profiles=tuple(scenario_for_trial(config, trial)))
    pairs, children = [], []

    def best_below(node):
        if node.done:
            return node.total_qoe()
        actions = [int(a) for a in np.flatnonzero(node.feasible_actions())]
        best = -math.inf
        for action, predicted in zip(actions, node.child_bounds(actions), strict=True):
            child = node.clone()
            child.step(action)
            value = child.total_qoe() if child.done else bound(child)
            children.append((predicted, child.done, value))
            best = max(best, best_below(child))
        pairs.append((bound(node), best))
        return best

    best_below(env)
    return pairs, children


def shifted(config):
    """``config`` with every QoE 100 lower, the minimum too; a peak of 0.8
    times the minimum is a little above the old peak less 100 for every
    minimum micro_configs draws."""
    return replace(
        config,
        qoe_a=-100.0,
        min_qoe=tuple(q - 100.0 for q in config.min_qoe),
        peak_factor=0.8,
    )


@settings(max_examples=40, deadline=None, database=None)
@given(
    instance=st.one_of(micro_configs(), strip_configs()),
    trial=st.integers(0, 50),
    negative=st.booleans(),
)
def test_bound_covers_every_total_below(instance, trial, negative):
    config, reward = instance
    pairs, _ = bound_states(shifted(config) if negative else config, trial, reward)
    for bound, best in pairs:
        assert bound >= best


@settings(max_examples=40, deadline=None, database=None)
@given(
    instance=st.one_of(micro_configs(), strip_configs()),
    trial=st.integers(0, 50),
    negative=st.booleans(),
)
def test_child_bounds_predict_the_step(instance, trial, negative):
    """A live child's bound, predicted before the step, is the one it has
    after, bit for bit, so the oracle prunes the same children; a done
    child's total is at most its predicted bound, so skipping it cannot
    lose a strict gain."""
    config, reward = instance
    _, children = bound_states(shifted(config) if negative else config, trial, reward)
    for predicted, done, value in children:
        if done:
            assert predicted >= value
        else:
            assert predicted == value


def counting(calls: Counter, name: str):
    """``SchedulingEnv``'s method ``name``, counting each call in ``calls``."""
    method = getattr(SchedulingEnv, name)

    def counted(*args):
        calls[name] += 1
        return method(*args)

    return counted


def test_tiny_search_sizes(monkeypatch):
    """The benchmark's two tiny trials took 6,616 and 1,161 nodes before
    live-cell keys and the bound, and 2,384 steps and 1,324 clones in all
    while children were bounded only once made; the tests above keep their
    answers.  Every node is a repeated key, a pruned child or a child made
    by one step."""
    calls = Counter()
    for name in ("step", "clone"):
        monkeypatch.setattr(SchedulingEnv, name, counting(calls, name))
    config = tiny_config(rng_seed=1)
    nodes = []
    for trial in (0, 1):
        steps = calls["step"]
        result = oracle_best_plan(config, tuple(scenario_for_trial(config, trial)))
        nodes.append(result.nodes)
        assert result.nodes == result.repeats + result.prunes + calls["step"] - steps
    assert nodes == [3812, 615]
    assert (calls["step"], calls["clone"]) == (1829, 809)


def test_tiny_answers_are_pinned(monkeypatch):
    """The oracle's answers and work on tiny scenario seeds 0-1, trials
    0-19: a hash of every plan's placements as integers, and the nodes,
    steps and clones of all 40 searches.  A change that keeps the search
    keeps all four."""
    calls = Counter()
    for name in ("step", "clone"):
        monkeypatch.setattr(SchedulingEnv, name, counting(calls, name))
    digest = hashlib.sha256()
    nodes = 0
    for seed in (0, 1):
        config = tiny_config(rng_seed=seed)
        for trial in range(20):
            result = oracle_best_plan(config, tuple(scenario_for_trial(config, trial)))
            nodes += result.nodes
            placements = tuple(
                (a.ue_index, int(a.tier == Tier.ET), a.shape.mu, a.shape.eta,
                 a.time_offset_units, a.freq_offset_units)
                for a in result.plan.allocations
            )
            digest.update(repr(placements).encode())
    assert (nodes, calls["step"], calls["clone"]) == (154_357, 64_552, 29_391)
    assert digest.hexdigest() == (
        "a745e048bb0bb82e18c4cc70e52338b32941cae6c4d94e951d892e386822c5d5"
    )


def live(env):
    """``env``'s live cells: the part of its grid a key holds."""
    n_freq, n_time = env.occupancy.code.shape
    return live_cells(env.occupancy.free, live_plans(n_freq, n_time, env.shapes))


def future(env):
    """What decides ``env``'s future and its total: the ``KEY_FIELDS``,
    the grid as its live cells and free-cell count, the serving flags and
    cursor the key leaves out as derived, whether it is done and how, and,
    while it is live, each action's first fit and the mask.  A done
    state's fits and mask are its parent's, which no step reads."""
    fields = [
        (live(env), env.occupancy.free_units()) if name == "occupancy" else getattr(env, name)
        for name in KEY_FIELDS
    ]
    fields += [env.served, env.phase, env._active]
    fields += [env.done, env.outcome, env.total_qoe()]
    if not env.done:
        fields += [env._fits, list(env._mask)]
    return fields


def check_equal_keys_step_alike(config, trial, reward=None) -> tuple[int, int]:
    """Steps every (state, action) pair below the reset state, searching
    each distinct child once as the oracle does, and requires any two
    pairs with one key to step to states with one ``future``.  Returns how
    many pairs repeated an earlier key, and how many of those differ from
    it in their free cells."""
    env = SchedulingEnv(config, reward)
    env.reset(profiles=tuple(scenario_for_trial(config, trial)))
    first: dict[bytes, SchedulingEnv] = {}
    stack = [] if env.done else [env]
    repeats = merged = 0
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
            merged += child.occupancy.free != first[key].occupancy.free
            assert future(child) == future(first[key])
    return repeats, merged


def test_repeated_child_keys_occur_and_step_alike():
    config = tiny_config(rng_seed=1)
    repeats, merged = check_equal_keys_step_alike(config, 1)
    assert repeats > merged > 0  # some repeats differ only in dead cells


@settings(max_examples=40, deadline=None, database=None)
@given(instance=st.one_of(micro_configs(), strip_configs()), trial=st.integers(0, 50))
def test_equal_child_keys_step_to_equal_states(instance, trial):
    config, reward = instance
    check_equal_keys_step_alike(config, trial, reward)


# what the oracle may read of an environment: the episode protocol, the
# search's calls, and the action count and shapes it orders the actions by
ENV_PROTOCOL = {
    "reset", "feasible_actions", "step", "done", "total_qoe", "plan",
    "child_keys", "child_bounds", "clone", "n_actions", "shapes",
}


def test_oracle_reads_only_the_env_protocol():
    tree = ast.parse(Path(minislot.oracle.__file__).read_text())
    read = {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id in ("env", "child")
    }
    assert read <= ENV_PROTOCOL, sorted(read - ENV_PROTOCOL)
    assert {"child_keys", "child_bounds", "step"} <= read  # the walk saw the search
