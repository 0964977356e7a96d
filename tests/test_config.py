import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minislot.agent import TrainConfig
from minislot.config import (
    ExperimentConfig,
    apply_env_overrides,
    default_experiment,
    from_dict,
    load_config,
    save_config,
    tiny_experiment,
    to_dict,
)
from minislot.env import RewardParams
from minislot.grid import GridSpec
from minislot.radio import LinkParams
from minislot.scenario import FovModel, ScenarioConfig

PROPERTY_SETTINGS = settings(max_examples=60, deadline=None, database=None)

# NaN is left out: it parses back, but never compares equal to itself
reals = st.floats(allow_nan=False, allow_infinity=False)
positive = st.floats(1e-6, 1e6)
counts = st.integers(0, 10**6)


@st.composite
def experiment_configs(draw):
    """Configs that pass the dataclasses' own checks, every field drawn."""
    mu_min = draw(st.integers(0, 6))
    mu_max = draw(st.integers(mu_min, 6))
    n_ues = draw(st.integers(1, 6))
    min_distance = draw(st.floats(1.0, 1e4))
    fov_low = draw(st.floats(0.0, 0.99))
    eps_end = draw(st.floats(0.0, 1.0))
    scenario = ScenarioConfig(
        n_ues=n_ues,
        cell_radius_m=draw(st.floats(min_distance, 2e4)),
        min_distance_m=min_distance,
        grid=GridSpec(mu_min, mu_max, draw(positive), draw(positive)),
        link=LinkParams(*(draw(reals) for _ in range(6))),
        numerology_set=tuple(
            draw(st.lists(st.integers(mu_min, mu_max), min_size=1, max_size=4))
        ),
        minislot_set=tuple(draw(st.lists(st.integers(1, 14), min_size=1, max_size=4))),
        min_qoe=tuple(draw(reals) for _ in range(n_ues)),
        peak_factor=draw(reals),
        qoe_a=draw(reals),
        qoe_b=draw(reals),
        bt_coverage_deg2=draw(positive),
        et_coverage_deg2=draw(positive),
        fov=FovModel(
            parent_mean=draw(reals),
            parent_var=draw(positive),
            low=fov_low,
            high=draw(st.floats(fov_low, 1.0, exclude_min=True)),
            max_draws=draw(counts),
        ),
        max_bwps_per_ue_tier=draw(st.none() | st.integers(1, 20)),
        rng_seed=draw(counts),
    )
    reward = RewardParams(*(draw(reals) for _ in range(5)), max_steps=draw(counts))
    batch_size = draw(st.integers(1, 10**6))
    train_start_size = draw(counts)
    train = TrainConfig(
        episodes=draw(counts),
        learning_rate=draw(positive),
        batch_size=batch_size,
        replay_capacity=draw(st.integers(max(batch_size, train_start_size), 2 * 10**6)),
        train_start_size=train_start_size,
        target_sync_steps=draw(st.integers(1, 10**6)),
        epsilon_start=draw(st.floats(eps_end, 1.0)),
        epsilon_end=eps_end,
        epsilon_decay_fraction=draw(st.floats(0.0, 1.0, exclude_min=True)),
        grad_clip_norm=draw(positive),
        seed=draw(counts),
    )
    return ExperimentConfig(
        scenario=scenario,
        reward=reward,
        train=train,
        n_eval_trials=draw(counts),
        output_dir=draw(st.text(min_size=1, max_size=20)),
    )


def leaf_paths(node, path=()):
    """(path, value) for every non-dict value of a nested dict."""
    for key, value in node.items():
        if isinstance(value, dict):
            yield from leaf_paths(value, path + (key,))
        else:
            yield path + (key,), value


def test_dict_round_trip_preserves_everything():
    for config in (default_experiment(), tiny_experiment()):
        assert from_dict(to_dict(config)) == config


def test_file_round_trip(tmp_path):
    path = tmp_path / "experiment.json"
    config = tiny_experiment(n_eval_trials=7, output_dir="elsewhere")
    save_config(path, config)
    assert load_config(path) == config
    # the file is plain JSON a human can diff
    text = path.read_text()
    assert text.endswith("\n")
    assert '"episodes": 300' in text


def test_from_dict_rejects_malformed_input():
    raw = to_dict(default_experiment())
    del raw["scenario"]
    with pytest.raises(ValueError, match="malformed"):
        from_dict(raw)
    raw = to_dict(default_experiment())
    raw["train"]["no_such_knob"] = 1
    with pytest.raises(ValueError, match="malformed"):
        from_dict(raw)


def test_tiny_experiment_shape():
    config = tiny_experiment()
    assert config.scenario.n_ues == 2
    assert config.train.episodes == 300
    assert default_experiment().scenario.n_ues == 4


def test_env_overrides_reach_nested_fields():
    config = apply_env_overrides(
        default_experiment(),
        {
            "MINISLOT_TRAIN__EPISODES": "77",
            "MINISLOT_TRAIN__LEARNING_RATE": "5e-4",
            "MINISLOT_SCENARIO__GRID__MU_MIN": "5",
            "MINISLOT_SCENARIO__NUMEROLOGY_SET": "[5, 6]",
            "MINISLOT_OUTPUT_DIR": "from_env",
            "UNRELATED": "ignored",
        },
    )
    assert config.train.episodes == 77
    assert config.train.learning_rate == 5e-4
    assert config.scenario.grid.mu_min == 5
    assert config.scenario.numerology_set == (5, 6)
    assert config.output_dir == "from_env"


def test_env_override_unknown_path_raises():
    with pytest.raises(ValueError, match="MINISLOT_TRAIN__TYPO"):
        apply_env_overrides(default_experiment(), {"MINISLOT_TRAIN__TYPO": "1"})
    with pytest.raises(ValueError, match="MINISLOT_NOPE"):
        apply_env_overrides(default_experiment(), {"MINISLOT_NOPE": "1"})


def test_env_override_values_are_json_coerced():
    config = apply_env_overrides(
        default_experiment(),
        {"MINISLOT_SCENARIO__CELL_RADIUS_M": "150.5", "MINISLOT_OUTPUT_DIR": "plain/path"},
    )
    assert config.scenario.cell_radius_m == 150.5
    assert config.output_dir == "plain/path"


def test_env_override_values_must_fit_their_field():
    base = default_experiment()
    for name, text in (
        ("MINISLOT_TRAIN__EPISODES", "1.5"),
        ("MINISLOT_TRAIN__EPISODES", "true"),
        ("MINISLOT_TRAIN__EPISODES", "null"),
        ("MINISLOT_TRAIN__LEARNING_RATE", '"fast"'),
        ("MINISLOT_N_EVAL_TRIALS", "[3]"),
        ("MINISLOT_SCENARIO__MIN_QOE", "5"),
        ("MINISLOT_SCENARIO__GRID", "1"),
    ):
        with pytest.raises(ValueError, match=name):
            apply_env_overrides(base, {name: text})
    # a float field takes an int; an optional int takes null
    assert apply_env_overrides(base, {"MINISLOT_TRAIN__LEARNING_RATE": "1"}).train.learning_rate == 1
    assert apply_env_overrides(
        base, {"MINISLOT_SCENARIO__MAX_BWPS_PER_UE_TIER": "null"}
    ).scenario.max_bwps_per_ue_tier is None


def test_string_override_keeps_its_text():
    base = default_experiment()
    for text, expected in (("null", "null"), ("1e5", "1e5"), ("true", "true"),
                           ("[1]", "[1]"), ('"quoted"', "quoted"), ("runs/x", "runs/x")):
        assert apply_env_overrides(base, {"MINISLOT_OUTPUT_DIR": text}).output_dir == expected


def test_from_dict_checks_value_types():
    for path, value in (
        (("n_eval_trials",), 2.0),
        (("output_dir",), None),
        (("train", "batch_size"), "32"),
        (("scenario", "grid", "mu_min"), True),
        (("scenario", "numerology_set"), 1),
    ):
        raw = to_dict(default_experiment())
        node = raw
        for part in path[:-1]:
            node = node[part]
        node[path[-1]] = value
        with pytest.raises(ValueError, match="malformed.*" + path[-1]):
            from_dict(raw)


def test_env_override_still_validates():
    # a path that parses but violates scenario invariants must not slip through
    with pytest.raises(ValueError):
        apply_env_overrides(
            default_experiment(), {"MINISLOT_SCENARIO__N_UES": "3"}
        )  # 3 users but 4 min-QoE levels


@PROPERTY_SETTINGS
@given(config=experiment_configs())
def test_every_valid_config_survives_a_file_round_trip(tmp_path_factory, config):
    path = tmp_path_factory.mktemp("config") / "experiment.json"
    save_config(path, config)
    assert load_config(path) == config


@PROPERTY_SETTINGS
@given(config=experiment_configs())
def test_every_env_override_path_survives_unchanged(config):
    environ = {
        "MINISLOT_" + "__".join(path).upper(): json.dumps(value)
        for path, value in leaf_paths(to_dict(config))
    }
    for name, value in environ.items():
        assert apply_env_overrides(config, {name: value}) == config, name
    assert apply_env_overrides(config, environ) == config
