"""Run configuration: strict parsing, env overrides, and the config digest."""

import json

import pytest

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
from layerbridge.errors import ConfigError
from layerbridge.training import (
    DEFAULT_BATCH,
    DEFAULT_EPOCHS,
    DEFAULT_WARMUP_RATIO,
    STAGE1_DEFAULT_LR,
    STAGE2_DEFAULT_LR,
)


def test_empty_dict_gives_reference_defaults():
    cfg = run_config_from_dict({})
    assert cfg.stage1.learning_rate == STAGE1_DEFAULT_LR == 4e-5
    assert cfg.stage2.learning_rate == STAGE2_DEFAULT_LR == 3e-5
    assert cfg.stage1.batch_size == cfg.stage2.batch_size == DEFAULT_BATCH == 128
    assert cfg.stage1.epochs == cfg.stage2.epochs == DEFAULT_EPOCHS == 3
    assert cfg.stage1.warmup_ratio == cfg.stage2.warmup_ratio == DEFAULT_WARMUP_RATIO == 0.05
    assert cfg.seed == 0
    assert cfg.data.corpus_dir is None


def test_nested_fields_parse():
    cfg = run_config_from_dict(
        {
            "seed": 7,
            "encoder": {"d_enc": 32, "n_layers": 2, "n_heads": 2, "d_ff": 48},
            "stage2": {"learning_rate": 0.01, "epochs": 5},
            "data": {"synth": {"vocab_size": 64, "tasks": ["copy"]}},
            "ablations": {"no_aligner": True},
        }
    )
    assert cfg.seed == 7
    assert cfg.encoder.d_enc == 32
    assert cfg.stage2.learning_rate == 0.01 and cfg.stage2.epochs == 5
    assert cfg.stage1.learning_rate == STAGE1_DEFAULT_LR  # untouched
    assert cfg.data.synth.vocab_size == 64
    assert cfg.data.synth.tasks == ("copy",)  # lists become tuples
    assert cfg.ablations.no_aligner is True


def test_unknown_top_level_key():
    with pytest.raises(ConfigError, match=r"unknown keys \['wormhole'\]"):
        run_config_from_dict({"wormhole": 1})


def test_unknown_nested_key_reports_dotted_path():
    with pytest.raises(ConfigError, match=r"encoder: unknown keys \['dd_enc'\]"):
        run_config_from_dict({"encoder": {"dd_enc": 32}})
    with pytest.raises(ConfigError, match=r"data.synth: unknown keys \['vocab'\]"):
        run_config_from_dict({"data": {"synth": {"vocab": 64}}})


def test_section_must_be_object():
    with pytest.raises(ConfigError, match="encoder: expected an object"):
        run_config_from_dict({"encoder": 5})


def test_nested_validation_still_fires():
    with pytest.raises(ConfigError, match="learning_rate"):
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
    plotted = run_config_from_dict({"diagnostics": {"plots": True, "include_prompt": True}})
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
        {"seed": 2, "stage1": {"epochs": 4}, "stage2": {"learning_rate": 0.01, "clip_norm": 1.0}}
    )
    assert StageConfig is training.StageConfig
    assert cfg.stage1 == StageConfig(epochs=4)
    assert cfg.stage2 == StageConfig(learning_rate=0.01, clip_norm=1.0)


def test_diagnostics_config_defaults():
    d = DiagnosticsConfig()
    assert d.plots is False and d.include_prompt is False
    with pytest.raises(ConfigError, match=r"diagnostics: unknown keys \['enabled'\]"):
        run_config_from_dict({"diagnostics": {"enabled": True}})
