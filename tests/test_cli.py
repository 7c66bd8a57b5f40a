"""End-to-end CLI behavior: command outputs, determinism, exit codes."""

import csv
import json
import struct
from pathlib import Path

import numpy as np
import pytest

from layerbridge import cli
from layerbridge.checkpoint import FORMAT_VERSION, MAGIC, load_checkpoint
from layerbridge.cli import main, write_eval_csv
from layerbridge.training import EvalReport, StageConfig
from conftest import TINY_SPEC, fail_file_writes

TINY = {
    "seed": 0,
    "encoder": {"vocab_size": 64, "d_enc": 16, "n_layers": 3, "n_heads": 2,
                "d_ff": 24, "max_positions": 16},
    "decoder": {"vocab_size": 64, "d_dec": 16, "n_layers": 2, "n_heads": 2,
                "d_ff": 24, "max_positions": 32},
    "stage1": {"learning_rate": 0.01, "epochs": 1, "batch_size": 8},
    "stage2": {"learning_rate": 0.01, "epochs": 1, "batch_size": 8},
    "data": {"synth": {"vocab_size": 64, "stage1_per_hrl": 12, "lrl_fraction": 0.25,
                       "stage2_per_lang": 6, "eval_per_lang": 4, "parallel_sentences": 4,
                       "active_words": 12, "sentence_max_words": 4, "copy_max_words": 2}},
}


def write_config(tmp_path, out_name="run", **extra) -> str:
    data = json.loads(json.dumps(TINY))
    data["out_dir"] = str(tmp_path / out_name)
    for key, value in extra.items():
        if isinstance(value, dict):
            data.setdefault(key, {}).update(value)
        else:
            data[key] = value
    path = tmp_path / f"{out_name}.json"
    path.write_text(json.dumps(data))
    return str(path)


# ---------------------------------------------------------------------------
# gen-synth
# ---------------------------------------------------------------------------


def test_gen_synth_writes_corpus(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert main(["gen-synth", "--config", cfg]) == 0
    out = capsys.readouterr().out
    assert "stage1: 27 rows" in out  # 12 + 12 + 3
    assert "stage2: 18 rows" in out
    corpus_dir = tmp_path / "run" / "corpus"
    names = sorted(p.name for p in corpus_dir.iterdir())
    assert "spec.json" in names and "stage1.jsonl" in names


def test_gen_synth_is_deterministic(tmp_path):
    cfg_a = write_config(tmp_path, "a")
    cfg_b = write_config(tmp_path, "b")
    assert main(["gen-synth", "--config", cfg_a]) == 0
    assert main(["gen-synth", "--config", cfg_b]) == 0
    files_a = sorted((tmp_path / "a" / "corpus").iterdir())
    files_b = sorted((tmp_path / "b" / "corpus").iterdir())
    assert [p.name for p in files_a] == [p.name for p in files_b]
    for pa, pb in zip(files_a, files_b):
        assert pa.read_bytes() == pb.read_bytes(), pa.name


def test_gen_synth_seed_override_changes_corpus(tmp_path):
    cfg = write_config(tmp_path)
    main(["gen-synth", "--config", cfg])
    first = (tmp_path / "run" / "corpus" / "stage1.jsonl").read_bytes()
    main(["gen-synth", "--config", cfg, "--seed", "5"])
    assert (tmp_path / "run" / "corpus" / "stage1.jsonl").read_bytes() != first


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def stage1_run(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("stage1")
    cfg = write_config(tmp)
    assert main(["train", "--config", cfg, "--stage", "1"]) == 0
    return tmp, cfg


def test_train_stage1_outputs(stage1_run):
    tmp, _ = stage1_run
    out = tmp / "run"
    assert (out / "checkpoint.bin").exists()
    assert (out / "trace_stage1.csv").exists()
    meta = json.loads((out / "metadata.json").read_text())
    assert meta["stage"] == "translation"
    assert meta["ablations"] == []
    assert meta["steps"] == 4  # ceil(27 / 8)
    assert meta["corpus_rows"] == 27
    assert np.isfinite(meta["final_loss"])
    assert len(meta["epoch_losses"]) == 1
    assert meta["plan"]["learning_rate"] == 0.01
    # the run's plan and the reference defaults share one JSON form
    assert set(meta["plan"]) == set(meta["reference_defaults"]["stage1"])


def test_train_metadata_reference_defaults(stage1_run):
    tmp, _ = stage1_run
    meta = json.loads((tmp / "run" / "metadata.json").read_text())
    ref = meta["reference_defaults"]
    assert ref["stage1"]["learning_rate"] == 4e-5
    assert ref["stage2"]["learning_rate"] == 3e-5
    for stage in ("stage1", "stage2"):
        assert ref[stage]["batch_size"] == 128
        assert ref[stage]["epochs"] == 3
        assert ref[stage]["warmup_ratio"] == 0.05


def test_train_checkpoint_carries_digest(stage1_run):
    tmp, _ = stage1_run
    meta = json.loads((tmp / "run" / "metadata.json").read_text())
    ckpt = load_checkpoint(tmp / "run" / "checkpoint.bin")
    assert ckpt.config_digest == meta["config_digest"]
    assert ckpt.stage == "translation"
    assert ckpt.step == meta["steps"]


def test_train_stage2_resume_continues(stage1_run, tmp_path):
    tmp, cfg = stage1_run
    ckpt = str(tmp / "run" / "checkpoint.bin")
    out2 = str(tmp_path / "stage2")
    assert main(["train", "--config", cfg, "--stage", "2",
                 "--resume", ckpt, "--out", out2]) == 0
    meta = json.loads((Path(out2) / "metadata.json").read_text())
    assert meta["stage"] == "task"
    assert meta["ablations"] == []  # resumed, so stage 1 was not skipped
    assert (Path(out2) / "trace_stage2.csv").exists()


def test_train_stage2_fresh_records_skip(tmp_path):
    cfg = write_config(tmp_path)
    assert main(["train", "--config", cfg, "--stage", "2"]) == 0
    meta = json.loads((tmp_path / "run" / "metadata.json").read_text())
    assert meta["ablations"] == ["skip_stage1"]


def test_train_resume_wrong_digest_refused(stage1_run, tmp_path, capsys):
    tmp, _ = stage1_run
    ckpt = str(tmp / "run" / "checkpoint.bin")
    other_cfg = write_config(tmp_path, "other", seed=9)
    assert main(["train", "--config", other_cfg, "--stage", "2", "--resume", ckpt]) == 2
    assert "digest" in capsys.readouterr().err
    # force overrides the refusal
    assert main(["train", "--config", other_cfg, "--stage", "2",
                 "--resume", ckpt, "--force"]) == 0


def test_train_is_deterministic(tmp_path):
    cfg_a = write_config(tmp_path, "a")
    cfg_b = write_config(tmp_path, "b")
    assert main(["train", "--config", cfg_a, "--stage", "1"]) == 0
    assert main(["train", "--config", cfg_b, "--stage", "1"]) == 0
    assert (tmp_path / "a" / "checkpoint.bin").read_bytes() == \
        (tmp_path / "b" / "checkpoint.bin").read_bytes()
    assert (tmp_path / "a" / "trace_stage1.csv").read_bytes() == \
        (tmp_path / "b" / "trace_stage1.csv").read_bytes()
    meta_a = json.loads((tmp_path / "a" / "metadata.json").read_text())
    meta_b = json.loads((tmp_path / "b" / "metadata.json").read_text())
    assert meta_a["config_digest"] == meta_b["config_digest"]
    assert meta_a["final_loss"] == meta_b["final_loss"]


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------


def read_eval_csv(path):
    """eval.csv parsed with the csv module: (per-language, aggregate) accuracies."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["name", "kind", "accuracy"]
    assert {kind for _, kind, _ in rows[1:]} == {"language", "aggregate"}
    per_lang = {name: float(acc) for name, kind, acc in rows[1:] if kind == "language"}
    aggregates = {name: float(acc) for name, kind, acc in rows[1:] if kind == "aggregate"}
    return per_lang, aggregates


def test_eval_writes_csv(stage1_run, tmp_path, capsys):
    tmp, cfg = stage1_run
    ckpt = str(tmp / "run" / "checkpoint.bin")
    out = str(tmp_path / "eval_out")
    assert main(["eval", ckpt, "--config", cfg, "--out", out]) == 0
    printed = capsys.readouterr().out
    assert "lang1" in printed and "Avg" in printed
    per_lang, aggregates = read_eval_csv(Path(out) / "eval.csv")
    assert sorted(per_lang) == ["lang1", "lang2", "lang3"]
    assert set(aggregates) == {"Avg", "Lrl", "Hrl"}
    assert all(0.0 <= v <= 100.0 for v in per_lang.values())


def test_eval_csv_round_trip(tmp_path):
    report = EvalReport(
        per_lang={"lang1": 50.0, "lang2": 1 / 3 * 100},
        aggregates={"Avg": 41.66666666666667, "Lrl": float("nan"), "Hrl": 41.66666666666667},
    )
    path = tmp_path / "eval.csv"
    write_eval_csv(path, report)
    per_lang, aggregates = read_eval_csv(path)
    assert per_lang == report.per_lang  # repr round trip is exact
    assert aggregates["Avg"] == report.aggregates["Avg"]
    assert np.isnan(aggregates["Lrl"])


def test_eval_missing_checkpoint_is_io_error(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert main(["eval", str(tmp_path / "absent.bin"), "--config", cfg]) == 4
    assert "i/o error" in capsys.readouterr().err


def test_eval_malformed_checkpoint_header_is_io_error(tmp_path, capsys):
    cfg = write_config(tmp_path)
    bad = tmp_path / "bad.bin"
    header = b"[]"  # valid JSON, but not a header object
    bad.write_bytes(MAGIC + struct.pack("<IQ", FORMAT_VERSION, len(header)) + header)
    assert main(["eval", str(bad), "--config", cfg]) == 4
    assert "malformed checkpoint header" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------


def test_analyze_writes_report(stage1_run, tmp_path):
    tmp, cfg = stage1_run
    ckpt = str(tmp / "run" / "checkpoint.bin")
    out = str(tmp_path / "an")
    assert main(["analyze", ckpt, "--config", cfg, "--out", out]) == 0
    report_dir = Path(out) / "report"
    names = sorted(p.name for p in report_dir.iterdir())
    assert names == ["aligner_matrix.csv", "cosine.csv", "gates.csv", "norm_ratio.csv", "pca.csv"]
    matrix = np.genfromtxt(report_dir / "aligner_matrix.csv", delimiter=",", skip_header=1)
    row_sums = matrix[:, 1:].sum(axis=1)
    assert np.all(np.abs(row_sums - 1.0) < 1e-6)


def test_analyze_is_deterministic(stage1_run, tmp_path):
    tmp, cfg = stage1_run
    ckpt = str(tmp / "run" / "checkpoint.bin")
    assert main(["analyze", ckpt, "--config", cfg, "--out", str(tmp_path / "r1")]) == 0
    assert main(["analyze", ckpt, "--config", cfg, "--out", str(tmp_path / "r2")]) == 0
    for name in ("cosine.csv", "pca.csv", "norm_ratio.csv", "aligner_matrix.csv", "gates.csv"):
        assert (tmp_path / "r1" / "report" / name).read_bytes() == \
            (tmp_path / "r2" / "report" / name).read_bytes()


def test_analyze_untrained_gates_zero_norm_ratio(tmp_path):
    # stage-2-only run with zero epochs is not possible, so train one tiny
    # stage and zero the gates by hand through a fresh stage-2 skip run
    cfg = write_config(tmp_path)
    assert main(["train", "--config", cfg, "--stage", "1"]) == 0
    ckpt_path = tmp_path / "run" / "checkpoint.bin"
    ckpt = load_checkpoint(ckpt_path)
    for name in ckpt.tensors:
        if name.startswith("gates."):
            ckpt.tensors[name][...] = 0.0
    from layerbridge.checkpoint import save_checkpoint

    save_checkpoint(ckpt_path, ckpt)
    assert main(["analyze", str(ckpt_path), "--config", cfg]) == 0
    rows = np.genfromtxt(tmp_path / "run" / "report" / "norm_ratio.csv",
                         delimiter=",", skip_header=1)
    assert np.all(rows[:, 1] == 0.0)
    gates = np.genfromtxt(tmp_path / "run" / "report" / "gates.csv",
                          delimiter=",", skip_header=1)
    assert np.all(gates[:, 1] == 0.0)


# ---------------------------------------------------------------------------
# output files
# ---------------------------------------------------------------------------


def test_no_temp_file_left_after_any_command(tmp_path):
    cfg = write_config(tmp_path)
    ckpt = str(tmp_path / "run" / "checkpoint.bin")
    assert main(["gen-synth", "--config", cfg]) == 0
    assert main(["train", "--config", cfg, "--stage", "1"]) == 0
    assert main(["train", "--config", cfg, "--stage", "2", "--resume", ckpt]) == 0
    assert main(["eval", ckpt, "--config", cfg]) == 0
    assert main(["analyze", ckpt, "--config", cfg]) == 0
    written = sorted(str(p.relative_to(tmp_path / "run")) for p in (tmp_path / "run").rglob("*") if p.is_file())
    assert len(written) == 15, written  # corpus 5, checkpoint, 2 traces, metadata, eval, report 5
    assert not [name for name in written if name.endswith(".tmp")]


def test_failed_write_keeps_old_output_and_exits_4(tmp_path, monkeypatch, capsys):
    cfg = write_config(tmp_path)
    assert main(["gen-synth", "--config", cfg]) == 0
    corpus = tmp_path / "run" / "corpus"
    before = {p.name: p.read_bytes() for p in corpus.iterdir()}
    fail_file_writes(monkeypatch)
    assert main(["gen-synth", "--config", cfg, "--seed", "5"]) == 4
    assert "i/o error" in capsys.readouterr().err
    assert {p.name: p.read_bytes() for p in corpus.iterdir()} == before


# ---------------------------------------------------------------------------
# exit codes and argument handling
# ---------------------------------------------------------------------------


def test_unknown_ablation_flag(tmp_path, capsys):
    cfg = write_config(tmp_path)
    for flag in ("no_such", "skip_stage2", "layer_subset"):
        assert main(["train", "--config", cfg, "--stage", "1", "--ablate", flag]) == 2
        err = capsys.readouterr().err
        assert "configuration error: ablations" in err and flag in err


def test_stage1_under_skip_stage1_is_refused(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert main(["train", "--config", cfg, "--stage", "1", "--ablate", "skip_stage1"]) == 2
    assert "conflicts with the skip_stage1 ablation" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_ablate_flag_applies(tmp_path):
    cfg = write_config(tmp_path)
    for names in ("no_aligner", ",no_aligner, "):
        assert main(["train", "--config", cfg, "--stage", "1", "--ablate", names]) == 0
        meta = json.loads((tmp_path / "run" / "metadata.json").read_text())
        assert meta["ablations"] == ["no_aligner"]


def stage1_metadata(tmp_path, name, *flags, **config) -> dict:
    cfg = write_config(tmp_path, name, **config)
    assert main(["train", "--config", cfg, "--stage", "1", *flags]) == 0
    return json.loads((tmp_path / name / "metadata.json").read_text())


def test_flag_env_and_file_give_one_digest(tmp_path, monkeypatch):
    by_flag = stage1_metadata(tmp_path, "flag", "--seed", "3")
    by_file = stage1_metadata(tmp_path, "file", seed=3)
    monkeypatch.setenv("LAYERBRIDGE_SEED", "3")
    by_env = stage1_metadata(tmp_path, "env")
    assert by_flag["seed"] == by_env["seed"] == by_file["seed"] == 3
    assert by_flag["config_digest"] == by_env["config_digest"] == by_file["config_digest"]


def test_ablation_flags_and_section_give_one_digest(tmp_path):
    by_flags = stage1_metadata(tmp_path, "flags", "--ablate", "no_adapter", "--layers", "last:3")
    by_file = stage1_metadata(tmp_path, "file", ablations={"no_adapter": True, "layer_subset": "last:3"})
    assert by_flags["ablations"] == by_file["ablations"]
    assert by_flags["config_digest"] == by_file["config_digest"]


def test_layer_subset_without_aligner_is_refused(tmp_path, capsys):
    by_flags = ["--config", write_config(tmp_path), "--ablate", "no_aligner", "--layers", "last:3"]
    by_file = ["--config", write_config(tmp_path, ablations={"no_aligner": True, "layer_subset": "last:3"})]
    for flags in (by_flags, by_file):
        assert main(["train", "--stage", "1", *flags]) == 2
        err = capsys.readouterr().err
        assert "configuration error: ablations: layer_subset 'last:3' has no effect with no_aligner" in err
        assert not (tmp_path / "run").exists()


def test_flag_beats_env_beats_file(tmp_path, monkeypatch):
    cfg = write_config(tmp_path, seed=1)
    spec_path = tmp_path / "run" / "corpus" / "spec.json"

    def seed_written(*flags) -> int:
        assert main(["gen-synth", "--config", cfg, *flags]) == 0
        return json.loads(spec_path.read_text())["seed"]

    assert seed_written() == 1
    monkeypatch.setenv("LAYERBRIDGE_SEED", "2")
    assert seed_written() == 2
    assert seed_written("--seed", "3") == 3


def test_missing_config_file(tmp_path, capsys):
    assert main(["gen-synth", "--config", str(tmp_path / "absent.json")]) == 2
    assert "configuration error" in capsys.readouterr().err


def test_invalid_config_key(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"wormhole": 1}))
    assert main(["gen-synth", "--config", str(path)]) == 2
    assert "wormhole" in capsys.readouterr().err


def test_checkpoint_from_other_ablation_is_contract_error(stage1_run, tmp_path, capsys):
    tmp, cfg = stage1_run
    ckpt = str(tmp / "run" / "checkpoint.bin")
    code = main(["eval", ckpt, "--config", cfg, "--ablate", "no_aligner", "--force",
                 "--out", str(tmp_path / "eval")])
    assert code == 2
    assert "does not match model" in capsys.readouterr().err


BLANK_TARGET = {"src": "baba", "tgt": " ", "lang": "lang1", "stage": "translation"}


@pytest.mark.parametrize(
    "name, content, needle",
    [
        ("stage1.jsonl", "5\n", "expected a JSON object"),
        ("stage1.jsonl", json.dumps("src tgt lang stage") + "\n", "expected a JSON object"),
        ("stage1.jsonl", json.dumps(BLANK_TARGET) + "\n", "empty text"),
        ("eval_parallel.jsonl", "[1, 2]\n", "expected a JSON object"),
        ("eval_parallel.jsonl", json.dumps({"sid": 0, "lang": "base", "src": 5, "base": "baba"}) + "\n",
         "'src' must be str"),
        ("spec.json", "[]", "expected an object"),
        ("spec.json", json.dumps({"seed": 0, "spec": 5}), "expected an object"),
        ("spec.json", json.dumps({"seed": 0, "spec": {"lrl_fraction": 2.0}}),
         "spec.json: spec: lrl_fraction must be in (0, 1]"),
        ("spec.json", json.dumps({"seed": 0, "spec": {"explicit_ciphers": None}}),
         "spec.json: spec: unknown keys ['explicit_ciphers']"),
        ("spec.json", json.dumps({"sead": 0, "spec": {}}), "spec.json: top level: unknown keys ['sead']"),
        ("spec.json", json.dumps({"seed": True, "spec": {}}), "spec.json: seed: expected int, got True"),
    ],
)
def test_malformed_corpus_file_is_io_error(tmp_path, capsys, name, content, needle):
    cfg = write_config(tmp_path)
    assert main(["gen-synth", "--config", cfg]) == 0
    corpus_dir = tmp_path / "run" / "corpus"
    (corpus_dir / name).write_text(content)
    cfg2 = write_config(tmp_path, "fromdir", data={"corpus_dir": str(corpus_dir)})
    assert main(["train", "--config", cfg2, "--stage", "1"]) == 4
    err = capsys.readouterr().err
    assert "i/o error" in err and needle in err
    assert not (tmp_path / "fromdir").exists()


@pytest.mark.parametrize(
    "key, value",
    [("vocab_size", 64.0), ("vocab_size", True), ("vocab_size", 10),
     ("stage1_per_hrl", "x"), ("max_operand", 2.5),
     ("tasks", [["copy"]]), ("languages", {"lang1": 1, "lang2": "hrl"}),
     ("stage1_per_hrl", -5), ("parallel_sentences", 0)],
)
def test_mistyped_corpus_spec_field_is_io_error(tmp_path, capsys, key, value):
    cfg = write_config(tmp_path)
    assert main(["gen-synth", "--config", cfg]) == 0
    spec_path = tmp_path / "run" / "corpus" / "spec.json"
    payload = json.loads(spec_path.read_text())
    payload["spec"][key] = value
    spec_path.write_text(json.dumps(payload))
    cfg2 = write_config(tmp_path, "fromdir", data={"corpus_dir": str(spec_path.parent)})
    assert main(["train", "--config", cfg2, "--stage", "1"]) == 4
    err = capsys.readouterr().err
    assert err.startswith(f"i/o error: {spec_path}: ") and key in err
    assert not (tmp_path / "fromdir").exists()


def test_missing_resume_checkpoint_is_io_error_and_writes_nothing(tmp_path, capsys):
    cfg = write_config(tmp_path)
    absent = tmp_path / "absent.bin"
    assert main(["train", "--config", cfg, "--stage", "2", "--resume", str(absent)]) == 4
    assert str(absent) in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize(
    "name, command",
    [
        ("stage1.jsonl", ["train", "--stage", "1"]),
        ("stage2.jsonl", ["train", "--stage", "2"]),
        ("eval_task.jsonl", ["eval", "CHECKPOINT", "--force"]),
        ("eval_parallel.jsonl", ["analyze", "CHECKPOINT", "--force"]),
    ],
)
def test_out_of_vocabulary_corpus_word_is_io_error(stage1_run, tmp_path, capsys, name, command):
    cfg = write_config(tmp_path)
    assert main(["gen-synth", "--config", cfg]) == 0
    path = tmp_path / "run" / "corpus" / name
    lines = path.read_text().splitlines()
    row = json.loads(lines[1])
    row["src"] += " zzzz"
    lines[1] = json.dumps(row)
    path.write_text("\n".join(lines) + "\n")
    cfg2 = write_config(tmp_path, "fromdir", data={"corpus_dir": str(path.parent)})
    ckpt = str(stage1_run[0] / "run" / "checkpoint.bin")
    argv = [ckpt if arg == "CHECKPOINT" else arg for arg in command]
    assert main(argv + ["--config", cfg2]) == 4
    err = capsys.readouterr().err
    assert f"i/o error: {path}:2: word 'zzzz' not in vocabulary" in err


def test_corpus_dir_round_trip_through_cli(tmp_path):
    cfg = write_config(tmp_path)
    assert main(["gen-synth", "--config", cfg]) == 0
    corpus_dir = str(tmp_path / "run" / "corpus")
    cfg2 = write_config(tmp_path, "fromdir", data={"corpus_dir": corpus_dir})
    assert main(["train", "--config", cfg2, "--stage", "1"]) == 0
    meta = json.loads((tmp_path / "fromdir" / "metadata.json").read_text())
    assert meta["corpus_rows"] == 27


# ---------------------------------------------------------------------------
# experiment
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "flags, needle",
    [
        (["--arms", "full,fullest"], "--arms: unknown arm 'fullest'"),
        (["--arms", "full,full"], "--arms: 'full' given twice"),
        (["--arms", ""], "--arms: unknown arm ''"),
        (["--seeds", "0,x"], "--seeds: 'x' is not a non-negative integer"),
        (["--seeds", "-1"], "--seeds: '-1' is not a non-negative integer"),
    ],
    ids=["unknown_arm", "duplicate_arm", "empty_arms", "bad_seed", "negative_seed"],
)
def test_experiment_refuses_bad_input_before_any_work(tmp_path, monkeypatch, capsys, flags, needle):
    def never(*args, **kwargs):
        raise AssertionError("work began before every seed and arm was checked")

    monkeypatch.setattr(cli, "generate_synthetic_corpus", never)
    monkeypatch.setattr(cli, "train_arms", never)
    assert main(["experiment", "--out", str(tmp_path / "exp"), *flags]) == 2
    assert f"configuration error: {needle}" in capsys.readouterr().err
    assert not (tmp_path / "exp").exists()


def run_tiny_experiment(monkeypatch, capsys, *flags) -> tuple[int, str]:
    stage = StageConfig(learning_rate=1e-2, epochs=1, batch_size=8)
    monkeypatch.setattr(cli, "benchmark_spec", lambda: TINY_SPEC)
    monkeypatch.setattr(cli, "SYNTHETIC_STAGES", (stage, stage))
    code = main(["experiment", *flags])
    return code, capsys.readouterr().out


def test_experiment_writes_identical_cells_and_exits_by_verdict(tmp_path, monkeypatch, capsys):
    runs = [run_tiny_experiment(monkeypatch, capsys, "--seeds", "0,1", "--out", str(tmp_path / name))
            for name in ("a", "b")]
    assert runs[0] == runs[1]
    code, out = runs[0]
    assert out.splitlines()[-1] == ("PASS" if code == 0 else "FAIL")
    assert code in (0, 1)
    assert "worst margins: skip_stage1" in out

    traces = {"full": (1, 2), "skip_stage1": (2,), "no_aligner": (1, 2), "untrained": ()}
    expected = sorted(
        f"seed{seed}/{arm}/{name}"
        for seed in (0, 1)
        for arm, stages in traces.items()
        for name in ["eval.csv"] + [f"trace_stage{s}.csv" for s in stages]
    )
    files = {root: sorted(p.relative_to(root).as_posix() for p in root.rglob("*") if p.is_file())
             for root in (tmp_path / "a", tmp_path / "b")}
    assert files[tmp_path / "a"] == files[tmp_path / "b"] == expected
    for name in expected:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes(), name
    per_lang, aggregates = read_eval_csv(tmp_path / "a" / "seed0" / "full" / "eval.csv")
    printed = "".join(f"{v:10.1f}" for v in [*per_lang.values(), *aggregates.values()])
    assert f"{'full':14s}{printed}" in out.splitlines()


def test_experiment_without_full_gives_no_verdict(monkeypatch, capsys):
    code, out = run_tiny_experiment(monkeypatch, capsys, "--arms", "untrained")
    assert code == 0
    assert "untrained" in out and "no verdict" in out
