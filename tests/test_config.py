"""Run configuration: strict parsing, env overrides, and the config digest."""

import json
import re
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from layerbridge.cli import main
from layerbridge.config import (
    DiagnosticsConfig,
    RunConfig,
    StageConfig,
    apply_env_overrides,
    build_model,
    config_digest,
    load_run_config,
    run_config_from_dict,
)
from layerbridge import training
from layerbridge.data import SynthSpec, generate_synthetic_corpus
from layerbridge.errors import ConfigError, LayerBridgeError
from conftest import JSON_VALUES


def test_empty_dict_gives_calibrated_defaults():
    cfg = run_config_from_dict({})
    assert cfg == RunConfig()
    assert cfg.stage1 == StageConfig(learning_rate=2e-2, epochs=3, batch_size=32, warmup_ratio=0.05)
    assert cfg.stage2 == StageConfig(learning_rate=1e-2, epochs=6, batch_size=32, warmup_ratio=0.05)
    assert cfg.data.synth == SynthSpec(stage1_per_hrl=16000, lrl_fraction=0.30, stage2_per_lang=1500,
                                       eval_per_lang=100, parallel_sentences=24, tasks=("copy",),
                                       active_words=80, copy_max_words=3)
    assert cfg.seed == 0
    assert cfg.data.corpus_dir is None


def test_nested_fields_parse():
    cfg = run_config_from_dict(
        {
            "seed": 7,
            "encoder": {"d_enc": 32, "n_layers": 2, "n_heads": 2, "d_ff": 48},
            "stage2": {"learning_rate": 0.01, "epochs": 5},
            "data": {"synth": {"vocab_size": 64, "tasks": ["arithmetic", "copy"]}},
            "ablations": {"no_aligner": True},
        }
    )
    assert cfg.seed == 7
    assert cfg.encoder.d_enc == 32
    assert cfg.stage2.learning_rate == 0.01 and cfg.stage2.epochs == 5
    assert cfg.stage1 == RunConfig().stage1  # untouched
    assert cfg.data.synth.vocab_size == 64
    assert cfg.data.synth.tasks == ("arithmetic", "copy")  # lists become tuples
    assert cfg.ablations.no_aligner is True


def test_unknown_top_level_key():
    with pytest.raises(ConfigError, match=r"unknown keys \['wormhole'\]"):
        run_config_from_dict({"wormhole": 1})


# keys an earlier schema accepted; each is now as unknown as a typo. The
# special ids and init scales are constants of data, encoder and decoder,
# and the aligner width is a constant of model.
REMOVED_KEYS = [
    ("bridge", "separate_kv", False),
    ("bridge", "deep_adapter", False),
    ("bridge", "d_hidden", 96),
    ("ablations", "dynamic_gate", False),
    ("ablations", "no_llm_input", False),
    ("stage1", "clip_norm", None),
    ("stage2", "clip_norm", 1.0),
    ("ablations", "skip_stage2", False),
    ("ablations", "skip_stage1", False),
    ("data.synth", "stage2_lrl_fraction", 1.0),
    ("data.synth", "explicit_ciphers", None),
    ("diagnostics", "include_prompt", False),
    ("encoder", "emb_scale", 0.5),
    ("encoder", "pos_scale", 0.3),
    ("decoder", "pad_id", 0),
    ("decoder", "bos_id", 5),
    ("decoder", "sep_id", 2),
    ("decoder", "eos_id", 4),
    ("decoder", "emb_scale", 0.5),
    ("decoder", "pos_scale", 0.3),
    ("decoder", "head_scale", 1.5),
]


def _refusal(section: str, key: str) -> str:
    """The error naming a removed key; the whole bridge section is gone, so
    its keys are refused at the top level."""
    if section == "bridge":
        return "top level: unknown keys ['bridge']"
    return f"{section}: unknown keys ['{key}']"


def _with_key(base: dict, section: str, key: str, value) -> dict:
    """A copy of the config dict ``base`` with ``section.key`` set."""
    data = json.loads(json.dumps(base))
    node = data
    for part in section.split("."):
        node = node.setdefault(part, {})
    node[key] = value
    return data


def test_unknown_nested_key_reports_dotted_path():
    with pytest.raises(ConfigError, match=r"encoder: unknown keys \['dd_enc'\]"):
        run_config_from_dict({"encoder": {"dd_enc": 32}})
    with pytest.raises(ConfigError, match=r"data.synth: unknown keys \['vocab'\]"):
        run_config_from_dict({"data": {"synth": {"vocab": 64}}})
    for section, key, value in REMOVED_KEYS:
        with pytest.raises(ConfigError, match=re.escape(_refusal(section, key))):
            run_config_from_dict(_with_key({}, section, key, value))


def test_readme_example_config_parses():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    example = readme.split("## Configuration", 1)[1].split("```json\n", 1)[1].split("```", 1)[0]
    assert run_config_from_dict(json.loads(example)) == RunConfig()


def test_section_must_be_object():
    with pytest.raises(ConfigError, match="encoder: expected an object"):
        run_config_from_dict({"encoder": 5})


def test_nested_validation_still_fires():
    with pytest.raises(ConfigError, match="stage1: learning_rate"):
        run_config_from_dict({"stage1": {"learning_rate": -1.0}})


def test_stage_config_validation():
    with pytest.raises(ConfigError, match="epochs"):
        StageConfig(epochs=0)
    with pytest.raises(ConfigError, match="batch_size"):
        StageConfig(batch_size=0)
    with pytest.raises(ConfigError, match="warmup_ratio"):
        StageConfig(warmup_ratio=1.5)
    with pytest.raises(ConfigError, match=r"warmup_ratio must be in \[0, 1\)"):
        StageConfig(warmup_ratio=1.0)


# ---------------------------------------------------------------------------
# env overrides
# ---------------------------------------------------------------------------


def test_env_override_top_level():
    data = apply_env_overrides({}, environ={"LAYERBRIDGE_SEED": "9"})
    assert data == {"seed": 9}
    assert run_config_from_dict(data).seed == 9


def test_env_override_nested():
    env = {"LAYERBRIDGE_DECODER__D_DEC": "256", "LAYERBRIDGE_STAGE2__LEARNING_RATE": "0.001"}
    cfg = run_config_from_dict(apply_env_overrides({}, environ=env))
    assert cfg.decoder.d_dec == 256
    assert cfg.stage2.learning_rate == 0.001


def test_env_override_wins_over_file_value():
    data = {"seed": 1, "stage1": {"epochs": 2}}
    apply_env_overrides(data, environ={"LAYERBRIDGE_STAGE1__EPOCHS": "8"})
    assert data["stage1"]["epochs"] == 8
    assert data["seed"] == 1


def test_integer_in_float_field_builds_that_float():
    # the file form and the env form of 1 give the config, and digest, of 1.0
    as_float = run_config_from_dict({"stage1": {"learning_rate": 1.0}, "data": {"synth": {"lrl_fraction": 1.0}}})
    from_file = run_config_from_dict({"stage1": {"learning_rate": 1}, "data": {"synth": {"lrl_fraction": 1}}})
    from_env = load_run_config(None, environ={"LAYERBRIDGE_STAGE1__LEARNING_RATE": "1",
                                              "LAYERBRIDGE_DATA__SYNTH__LRL_FRACTION": "1"})
    for cfg in (from_file, from_env):
        assert type(cfg.stage1.learning_rate) is float and type(cfg.data.synth.lrl_fraction) is float
        assert config_digest(cfg) == config_digest(as_float)
    with pytest.raises(ConfigError, match="stage1.learning_rate: .* is too large for a float"):
        load_run_config(None, environ={"LAYERBRIDGE_STAGE1__LEARNING_RATE": "1" + "0" * 400})


def test_env_values_parse_as_json_literals():
    env = {
        "LAYERBRIDGE_ABLATIONS__NO_ALIGNER": "true",
        "LAYERBRIDGE_OUT_DIR": "runs/exp1",
        "LAYERBRIDGE_DATA__SYNTH__TASKS": '["copy", "arithmetic"]',
    }
    cfg = run_config_from_dict(apply_env_overrides({}, environ=env))
    assert cfg.ablations.no_aligner is True
    assert cfg.out_dir == "runs/exp1"  # non-JSON strings stay strings
    assert cfg.data.synth.tasks == ("copy", "arithmetic")


def test_env_override_three_levels():
    env = {"LAYERBRIDGE_DATA__SYNTH__VOCAB_SIZE": "64"}
    cfg = run_config_from_dict(apply_env_overrides({}, environ=env))
    assert cfg.data.synth.vocab_size == 64


def test_unrelated_env_vars_ignored():
    assert apply_env_overrides({}, environ={"PATH": "/bin", "LAYER": "x"}) == {}


def test_malformed_env_name():
    with pytest.raises(ConfigError, match="malformed"):
        apply_env_overrides({}, environ={"LAYERBRIDGE_STAGE1__": "3"})


def test_env_override_through_scalar_section():
    with pytest.raises(ConfigError, match="not a config section"):
        apply_env_overrides({"stage1": 5}, environ={"LAYERBRIDGE_STAGE1__EPOCHS": "3"})


def test_env_typo_caught_at_parse():
    data = apply_env_overrides({}, environ={"LAYERBRIDGE_STAGE1__EPOCS": "3"})
    with pytest.raises(ConfigError, match=r"stage1: unknown keys \['epocs'\]"):
        run_config_from_dict(data)


# ---------------------------------------------------------------------------
# file loading
# ---------------------------------------------------------------------------


def test_load_from_file(tmp_path):
    p = tmp_path / "run.json"
    p.write_text(json.dumps({"seed": 3, "out_dir": "runs/x"}))
    cfg = load_run_config(p)
    assert cfg.seed == 3 and cfg.out_dir == "runs/x"


def test_load_without_file_uses_defaults():
    cfg = load_run_config(None, environ={})
    assert cfg == RunConfig()


def test_load_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        load_run_config(tmp_path / "absent.json")


def test_load_invalid_json(tmp_path):
    p = tmp_path / "run.json"
    p.write_text("{\n  broken\n}")
    with pytest.raises(ConfigError, match=r"run.json:2: invalid JSON"):
        load_run_config(p)


def test_load_non_object_top_level(tmp_path):
    p = tmp_path / "run.json"
    p.write_text("[1, 2]")
    with pytest.raises(ConfigError, match="top level"):
        load_run_config(p)


def test_load_applies_env(tmp_path):
    p = tmp_path / "run.json"
    p.write_text(json.dumps({"seed": 3}))
    cfg = load_run_config(p, environ={"LAYERBRIDGE_SEED": "11"})
    assert cfg.seed == 11


# ---------------------------------------------------------------------------
# digest and model plumbing
# ---------------------------------------------------------------------------


def test_digest_stable_and_sensitive():
    base = run_config_from_dict({})
    assert config_digest(base) == config_digest(run_config_from_dict({}))
    changed = run_config_from_dict({"seed": 1})
    assert config_digest(changed) != config_digest(base)
    deeper = run_config_from_dict({"data": {"synth": {"vocab_size": 64}}})
    assert config_digest(deeper) != config_digest(base)


def test_digest_ignores_out_dir_and_diagnostics():
    base = run_config_from_dict({})
    moved = run_config_from_dict({"out_dir": "elsewhere"})
    plotted = run_config_from_dict({"diagnostics": {"plots": True}})
    assert config_digest(moved) == config_digest(base)
    assert config_digest(plotted) == config_digest(base)


def test_build_model_uses_config():
    cfg = run_config_from_dict(
        {
            "seed": 5,
            "encoder": {"vocab_size": 64, "d_enc": 16, "n_layers": 2, "n_heads": 2,
                        "d_ff": 24, "max_positions": 16},
            "decoder": {"vocab_size": 64, "d_dec": 16, "n_layers": 2, "n_heads": 2,
                        "d_ff": 24, "max_positions": 32},
            "ablations": {"no_aligner": True},
        }
    )
    model = build_model(cfg)
    assert model.enc_config.d_enc == 16
    assert model.ablations.no_aligner is True
    assert all(not name.startswith("aligner") for name in model.trainable_params())


def test_stage_sections_parse_to_stage_configs():
    cfg = run_config_from_dict(
        {"seed": 2, "stage1": {"epochs": 4}, "stage2": {"learning_rate": 0.01, "warmup_ratio": 0.1}}
    )
    assert StageConfig is training.StageConfig
    assert cfg.stage1 == replace(RunConfig().stage1, epochs=4)
    assert cfg.stage2 == replace(RunConfig().stage2, learning_rate=0.01, warmup_ratio=0.1)


def test_partial_stage2_section_keeps_run_config_default_rate():
    # stage 2's default rate comes from RunConfig's field, not StageConfig's class default
    cfg = run_config_from_dict({"stage2": {"epochs": 2}})
    assert cfg.stage2 == replace(RunConfig().stage2, epochs=2)
    assert cfg.stage2.learning_rate == RunConfig().stage2.learning_rate != StageConfig().learning_rate


def test_partial_stage2_env_override_keeps_run_config_default_rate():
    cfg = load_run_config(None, environ={"LAYERBRIDGE_STAGE2__EPOCHS": "2"})
    assert cfg.stage2 == replace(RunConfig().stage2, epochs=2)
    assert cfg.stage2.learning_rate != StageConfig().learning_rate


def test_diagnostics_config_defaults():
    d = DiagnosticsConfig()
    assert d.plots is False
    with pytest.raises(ConfigError, match=r"diagnostics: unknown keys \['enabled'\]"):
        run_config_from_dict({"diagnostics": {"enabled": True}})


# ---------------------------------------------------------------------------
# bad values: a named ConfigError, never a traceback
# ---------------------------------------------------------------------------

SMALL = {
    "encoder": {"vocab_size": 64, "d_enc": 8, "n_layers": 2, "n_heads": 2, "d_ff": 8, "max_positions": 16},
    "decoder": {"vocab_size": 64, "d_dec": 8, "n_layers": 2, "n_heads": 2, "d_ff": 8, "max_positions": 24},
    "data": {"synth": {"vocab_size": 64, "stage1_per_hrl": 4, "lrl_fraction": 0.10, "stage2_per_lang": 3,
                       "eval_per_lang": 2, "parallel_sentences": 2, "active_words": 12,
                       "sentence_max_words": 4, "copy_max_words": 2,
                       "tasks": ["arithmetic", "copy", "classification"]}},
}

# override names the fuzz draws from, without the LAYERBRIDGE_ prefix; each is
# also a config-file key, so a bad value is reachable from both
FUZZ_KEYS = [
    "SEED",
    *(f"ENCODER__{k}" for k in ("VOCAB_SIZE", "D_ENC", "N_LAYERS", "N_HEADS", "D_FF", "MAX_POSITIONS")),
    *(f"DECODER__{k}" for k in ("VOCAB_SIZE", "D_DEC", "N_LAYERS", "N_HEADS", "D_FF", "MAX_POSITIONS")),
    "STAGE1__LEARNING_RATE", "STAGE1__EPOCHS", "STAGE1__BATCH_SIZE",
    "STAGE2__WARMUP_RATIO", "STAGE2__TRACE_EVERY",
    *(f"ABLATIONS__{k}" for k in ("NO_ADAPTER", "NO_ALIGNER", "LAYER_SUBSET")),
    *(f"DATA__SYNTH__{k}" for k in ("VOCAB_SIZE", "LANGUAGES", "STAGE1_PER_HRL", "LRL_FRACTION",
                                    "STAGE2_PER_LANG", "EVAL_PER_LANG", "PARALLEL_SENTENCES", "TASKS",
                                    "MAX_OPERAND", "COPY_MAX_WORDS", "SENTENCE_MAX_WORDS", "ACTIVE_WORDS")),
    "DIAGNOSTICS__PLOTS",
]

@pytest.fixture(scope="module")
def small_config(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz") / "small.json"
    path.write_text(json.dumps(SMALL))
    return path


def _prepare_run(config_path, environ):
    """What ``train`` does before its first step."""
    config = load_run_config(config_path, environ=environ)
    build_model(config)
    generate_synthetic_corpus(config.data.synth, config.seed)


@settings(max_examples=200, deadline=None)
@given(overrides=st.dictionaries(st.sampled_from(FUZZ_KEYS), JSON_VALUES, min_size=1, max_size=3))
def test_fuzzed_overrides_raise_only_package_errors(small_config, overrides):
    environ = {f"LAYERBRIDGE_{key}": json.dumps(value) for key, value in overrides.items()}
    try:
        _prepare_run(small_config, environ)
    except LayerBridgeError:
        pass


# boundary values for every key, so each one meets each kind of bad value
SWEEP_VALUES = (-1, 0, 1, 2, 1.5, "x", True, None, [], [1], {}, {"a": 1})


# the removed keys as override names, and the removed bridge section itself:
# these refuse every value
REMOVED_ENV_KEYS = [f"{section.replace('.', '__')}__{key}".upper() for section, key, _ in REMOVED_KEYS] + ["BRIDGE"]


@pytest.mark.parametrize("key", FUZZ_KEYS + REMOVED_ENV_KEYS)
def test_every_key_rejects_boundary_values_with_package_errors(small_config, key):
    for value in SWEEP_VALUES:
        try:
            _prepare_run(small_config, {f"LAYERBRIDGE_{key}": json.dumps(value)})
        except LayerBridgeError:
            pass
        else:
            assert key not in REMOVED_ENV_KEYS, f"removed key {key} took {value!r}"


def _train_refuses_from_file_and_env(tmp_path, monkeypatch, section, key, value):
    """``train --stage 1`` with ``section.key`` set to ``value`` in the config
    file, then by a ``LAYERBRIDGE_*`` variable: both exit 2 and write nothing."""
    path = tmp_path / "run.json"
    base = dict(SMALL, out_dir=str(tmp_path / "out"))
    path.write_text(json.dumps(_with_key(base, section, key, value)))
    assert main(["train", "--config", str(path), "--stage", "1"]) == 2
    path.write_text(json.dumps(base))
    monkeypatch.setenv(f"LAYERBRIDGE_{section.replace('.', '__')}__{key}".upper(), json.dumps(value))
    assert main(["train", "--config", str(path), "--stage", "1"]) == 2
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("section, key, value", REMOVED_KEYS, ids=[f"{s}.{k}" for s, k, _ in REMOVED_KEYS])
def test_train_refuses_removed_key_from_file_or_env(tmp_path, monkeypatch, capsys, section, key, value):
    _train_refuses_from_file_and_env(tmp_path, monkeypatch, section, key, value)
    assert capsys.readouterr().err.count(_refusal(section, key)) == 2


@pytest.mark.parametrize(
    "section, key, value",
    [
        ("stage1", "learning_rate", float("nan")),
        ("stage2", "learning_rate", float("inf")),
        ("data.synth", "stage1_per_hrl", -5),
        ("data.synth", "stage2_per_lang", 0),
        ("data.synth", "eval_per_lang", 0),
        ("data.synth", "parallel_sentences", -1),
    ],
)
def test_train_refuses_out_of_range_value_from_file_or_env(tmp_path, monkeypatch, capsys, section, key, value):
    _train_refuses_from_file_and_env(tmp_path, monkeypatch, section, key, value)
    assert capsys.readouterr().err.count(f"{section}: {key} must be") == 2


@pytest.mark.parametrize(
    "key, value",
    [
        ("SEED", '"abc"'),
        ("SEED", "-1"),
        ("SEED", "1.5"),
        ("SEED", "true"),
        ("ENCODER__N_HEADS", "0"),
        ("DECODER__N_HEADS", "0"),
        ("DATA__SYNTH__LANGUAGES", "[1,2]"),
        ("DATA__SYNTH__EXPLICIT_CIPHERS", "[1]"),
        ("DATA__SYNTH__STAGE1_PER_HRL", '"x"'),
    ],
)
def test_bad_override_is_config_error(small_config, key, value):
    with pytest.raises(ConfigError):
        _prepare_run(small_config, {f"LAYERBRIDGE_{key}": value})


def test_negative_seed_from_file_or_flag_exits_2(tmp_path, capsys):
    path = tmp_path / "run.json"
    path.write_text(json.dumps(dict(SMALL, seed=-1, out_dir=str(tmp_path / "out"))))
    assert main(["gen-synth", "--config", str(path)]) == 2
    path.write_text(json.dumps(dict(SMALL, out_dir=str(tmp_path / "out"))))
    assert main(["gen-synth", "--config", str(path), "--seed", "-1"]) == 2
    assert capsys.readouterr().err.count("seed must be a non-negative integer") == 2
