"""Synthetic corpus generation: vocabulary layout, cipher algebra, split
semantics, and the jsonl round trips.

Most checks here decipher generated text with the inverse permutation and
re-derive the expected answer from scratch, so a regression in either the
cipher or the task templates shows up as a semantic mismatch, not just a
changed hash.
"""

import json
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from layerbridge.data import (
    MARKER_WORDS,
    NUMBER_WORDS,
    ParallelExample,
    SynthSpec,
    Vocabulary,
    apply_cipher,
    build_cipher,
    generate_synthetic_corpus,
    load_corpus_dir,
    pseudo_word,
    read_corpus,
    read_parallel,
    write_corpus,
    write_corpus_dir,
    write_parallel,
)
from layerbridge.errors import ConfigError, IngestionError, InputError

SMALL_SPEC = SynthSpec(
    vocab_size=64,
    stage1_per_hrl=40,
    lrl_fraction=0.10,
    stage2_per_lang=12,
    eval_per_lang=8,
    parallel_sentences=6,
    active_words=20,
)


@pytest.fixture(scope="module")
def small_corpus():
    return generate_synthetic_corpus(SMALL_SPEC, seed=3)


def inverse_tables(corpus):
    return {lang: np.argsort(table) for lang, table in corpus.ciphers.items()}


# ---------------------------------------------------------------------------
# vocabulary
# ---------------------------------------------------------------------------


def test_pseudo_word_examples():
    assert pseudo_word(0) == "baba"
    assert pseudo_word(1) == "babe"
    words = [pseudo_word(i) for i in range(500)]
    assert len(set(words)) == 500


def test_pseudo_word_space_exhaustion():
    # 14 consonants x 5 vowels x 14 x 5 distinct forms
    assert pseudo_word(4899) == "zuzu"
    with pytest.raises(ConfigError):
        pseudo_word(4900)


def test_vocabulary_layout():
    vocab = Vocabulary(512)
    assert vocab.words[:4] == ["<pad>", "<bos>", "<sep>", "<eos>"]
    assert vocab.number_id(0) == 4
    assert vocab.number_id(18) == 4 + 18
    # markers sit right after the 19 number words
    assert [vocab.marker_id(m) for m in MARKER_WORDS] == [23, 24, 25, 26, 27, 28]
    assert vocab.pseudo_ids[0] == 29
    assert len(vocab.pseudo_ids) == 512 - 29
    assert vocab.decode([11]) == "seven"
    assert np.array_equal(vocab.content_ids, np.arange(4, 512))


def test_vocabulary_minimum_size():
    with pytest.raises(ConfigError):
        Vocabulary(29)
    vocab = Vocabulary(30)
    assert len(vocab.pseudo_ids) == 1


def test_number_word_out_of_range():
    vocab = Vocabulary(40)
    with pytest.raises(ConfigError):
        vocab.number_id(19)


def test_encode_decode_round_trip():
    vocab = Vocabulary(64)
    text = "copy baba seven babe"
    assert vocab.decode(vocab.encode(text)) == text


def test_encode_unknown_word():
    vocab = Vocabulary(64)
    with pytest.raises(InputError, match="qqq"):
        vocab.encode("baba qqq")


def test_decode_out_of_range_id():
    vocab = Vocabulary(64)
    with pytest.raises(InputError, match="64"):
        vocab.decode([3, 64])


@given(st.lists(st.integers(min_value=0, max_value=63), min_size=1, max_size=12))
@settings(max_examples=40, deadline=None)
def test_decode_encode_identity(ids):
    vocab = Vocabulary(64)
    assert np.array_equal(vocab.encode(vocab.decode(ids)), np.asarray(ids))


# ---------------------------------------------------------------------------
# ciphers
# ---------------------------------------------------------------------------


@given(seed=st.integers(min_value=0, max_value=10_000), lang_index=st.integers(min_value=0, max_value=7))
@settings(max_examples=30, deadline=None)
def test_cipher_is_content_permutation_fixing_specials(seed, lang_index):
    vocab = Vocabulary(40)
    table = build_cipher(vocab, SynthSpec(vocab_size=40, active_words=11), "x", lang_index, seed)
    assert np.array_equal(table[:4], np.arange(4))
    assert np.array_equal(np.sort(table), np.arange(40))


def test_cipher_determinism_and_distinctness():
    vocab = Vocabulary(512)
    spec = SynthSpec()
    a = build_cipher(vocab, spec, "lang1", 0, 0)
    b = build_cipher(vocab, spec, "lang1", 0, 0)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, build_cipher(vocab, spec, "lang1", 0, 1))
    assert not np.array_equal(a, build_cipher(vocab, spec, "lang2", 1, 0))


def test_explicit_cipher_swap_and_inverse():
    vocab = Vocabulary(64)
    spec = SynthSpec(vocab_size=64, active_words=20, explicit_ciphers={"x": {29: 30, 30: 29}})
    table = build_cipher(vocab, spec, "x", 0, seed=0)
    ids = np.array([29, 30, 31, 2])
    assert np.array_equal(apply_cipher(table, ids), [30, 29, 31, 2])
    inv = np.argsort(table)
    assert np.array_equal(apply_cipher(inv, apply_cipher(table, ids)), ids)


def test_identity_cipher_control():
    # empty explicit mapping leaves the table as the identity permutation
    vocab = Vocabulary(64)
    spec = SynthSpec(vocab_size=64, active_words=20, explicit_ciphers={"x": {}})
    table = build_cipher(vocab, spec, "x", 0, seed=5)
    assert np.array_equal(table, np.arange(64))


def test_explicit_cipher_rejects_special_range():
    vocab = Vocabulary(64)
    spec = SynthSpec(vocab_size=64, active_words=20, explicit_ciphers={"x": {2: 40}})
    with pytest.raises(ConfigError, match="special"):
        build_cipher(vocab, spec, "x", 0, seed=0)


def test_explicit_cipher_rejects_non_bijection():
    vocab = Vocabulary(64)
    spec = SynthSpec(vocab_size=64, active_words=20, explicit_ciphers={"x": {29: 31, 30: 31}})
    with pytest.raises(ConfigError, match="bijection"):
        build_cipher(vocab, spec, "x", 0, seed=0)


def test_explicit_cipher_rejects_out_of_vocab():
    vocab = Vocabulary(64)
    spec = SynthSpec(vocab_size=64, active_words=20, explicit_ciphers={"x": {70: 71}})
    with pytest.raises(ConfigError, match="outside"):
        build_cipher(vocab, spec, "x", 0, seed=0)


def test_explicit_cipher_string_keys_normalized():
    # JSON object keys arrive as strings; the spec normalizes them to ints
    spec = SynthSpec(vocab_size=64, active_words=20, explicit_ciphers={"x": {"29": 30, "30": 29}})
    assert spec.explicit_ciphers == {"x": {29: 30, 30: 29}}
    vocab = Vocabulary(64)
    table = build_cipher(vocab, spec, "x", 0, seed=0)
    assert table[29] == 30 and table[30] == 29


# ---------------------------------------------------------------------------
# spec validation
# ---------------------------------------------------------------------------


def test_spec_rejects_single_language():
    with pytest.raises(ConfigError, match="two languages"):
        SynthSpec(languages={"only": "hrl"})


def test_spec_rejects_unknown_tier():
    with pytest.raises(ConfigError, match="tier"):
        SynthSpec(languages={"a": "hrl", "b": "mid"})


def test_spec_rejects_base_as_language_name():
    with pytest.raises(ConfigError, match="base"):
        SynthSpec(languages={"base": "hrl", "b": "lrl"})


@pytest.mark.parametrize("frac", [0.0, -0.1, 1.5])
def test_spec_rejects_bad_lrl_fraction(frac):
    with pytest.raises(ConfigError, match="lrl_fraction"):
        SynthSpec(lrl_fraction=frac)


def test_spec_rejects_unknown_task():
    with pytest.raises(ConfigError, match="sorting"):
        SynthSpec(tasks=("copy", "sorting"))


def test_spec_rejects_empty_tasks():
    with pytest.raises(ConfigError, match="task"):
        SynthSpec(tasks=())


def test_spec_rejects_tiny_word_pool():
    with pytest.raises(ConfigError, match="active_words"):
        SynthSpec(active_words=3, sentence_max_words=5)


# ---------------------------------------------------------------------------
# generated corpus semantics
# ---------------------------------------------------------------------------


def test_split_sizes_follow_tiers(small_corpus):
    stage1 = Counter(e.source_lang for e in small_corpus.stage1)
    # lrl gets round(40 * 0.10) = 4 rows
    assert stage1 == {"lang1": 40, "lang2": 40, "lang3": 4}
    assert Counter(e.source_lang for e in small_corpus.stage2) == {l: 12 for l in stage1}
    assert Counter(e.source_lang for e in small_corpus.eval_task) == {l: 8 for l in stage1}


def test_lrl_stage1_count_floors_at_one():
    spec = SynthSpec(stage1_per_hrl=4, lrl_fraction=0.01)
    assert spec.stage1_count("lang3") == 1


def test_stage1_is_ciphered_rendering_of_target(small_corpus):
    vocab = small_corpus.vocab
    for ex in small_corpus.stage1:
        assert ex.stage == "translation"
        table = small_corpus.ciphers[ex.source_lang]
        assert np.array_equal(
            apply_cipher(table, vocab.encode(ex.target_text)), vocab.encode(ex.source_text)
        )


def test_task_answers_follow_deciphered_prompts(small_corpus):
    vocab = small_corpus.vocab
    inv = inverse_tables(small_corpus)
    kinds = Counter()
    for ex in small_corpus.stage2 + small_corpus.eval_task:
        assert ex.stage == "task"
        words = vocab.decode(inv[ex.source_lang][vocab.encode(ex.source_text)]).split()
        if words[0] == "copy":
            kinds["copy"] += 1
            assert " ".join(words[1:]) == ex.target_text
        elif words[0] == "class":
            kinds["classification"] += 1
            word_id = int(vocab.encode(words[1])[0])
            assert ex.target_text == ("red" if word_id % 2 == 0 else "blue")
        else:
            kinds["arithmetic"] += 1
            a = NUMBER_WORDS.index(words[0])
            b = NUMBER_WORDS.index(words[2])
            assert words[1] == "plus" and words[3] == "equals"
            assert ex.target_text == NUMBER_WORDS[a + b]
    # every template family actually occurs
    assert set(kinds) == {"copy", "classification", "arithmetic"}


def test_arithmetic_operand_pairs_partitioned(small_corpus):
    vocab = small_corpus.vocab
    inv = inverse_tables(small_corpus)

    def operand_pairs(rows):
        pairs = set()
        for ex in rows:
            words = vocab.decode(inv[ex.source_lang][vocab.encode(ex.source_text)]).split()
            if words[0] not in ("copy", "class"):
                pairs.add((NUMBER_WORDS.index(words[0]), NUMBER_WORDS.index(words[2])))
        return pairs

    train_pairs = operand_pairs(small_corpus.stage2)
    eval_pairs = operand_pairs(small_corpus.eval_task)
    assert train_pairs and eval_pairs
    assert not (train_pairs & eval_pairs)


def test_eval_prompts_never_seen_in_training(small_corpus):
    train = {(e.source_lang, e.source_text) for e in small_corpus.stage2}
    seen = set()
    for ex in small_corpus.eval_task:
        key = (ex.source_lang, ex.source_text)
        assert key not in train
        assert key not in seen
        seen.add(key)


def test_parallel_split_shape_and_content(small_corpus):
    rows = small_corpus.eval_parallel
    assert len(rows) == 6 * (len(SMALL_SPEC.languages) + 1)
    by_lang = Counter(r["lang"] for r in rows)
    assert by_lang["base"] == 6
    vocab = small_corpus.vocab
    for row in rows:
        if row["lang"] == "base":
            assert row["src"] == row["base"]
        else:
            table = small_corpus.ciphers[row["lang"]]
            assert np.array_equal(
                apply_cipher(table, vocab.encode(row["base"])), vocab.encode(row["src"])
            )
    # each sentence id appears once per rendering
    sids = Counter((r["sid"], r["lang"]) for r in rows)
    assert all(count == 1 for count in sids.values())


def test_generation_is_deterministic():
    a = generate_synthetic_corpus(SMALL_SPEC, seed=3)
    b = generate_synthetic_corpus(SMALL_SPEC, seed=3)
    assert [(e.source_text, e.target_text) for e in a.stage1] == [
        (e.source_text, e.target_text) for e in b.stage1
    ]
    assert [(e.source_text, e.target_text) for e in a.stage2] == [
        (e.source_text, e.target_text) for e in b.stage2
    ]
    assert a.eval_parallel == b.eval_parallel
    c = generate_synthetic_corpus(SMALL_SPEC, seed=4)
    assert not np.array_equal(a.ciphers["lang1"], c.ciphers["lang1"])


def test_template_exhaustion_raises():
    # classification over a 5-word pool has only 5 distinct prompts per language
    spec = SynthSpec(
        vocab_size=64,
        tasks=("classification",),
        active_words=5,
        sentence_max_words=5,
        stage2_per_lang=6,
        eval_per_lang=1,
    )
    with pytest.raises(ConfigError, match="template space too small"):
        generate_synthetic_corpus(spec, seed=0)


# ---------------------------------------------------------------------------
# record validation and file IO
# ---------------------------------------------------------------------------


def test_parallel_example_rejects_empty_text():
    with pytest.raises(ConfigError, match="empty"):
        ParallelExample(source_text="", source_lang="x", target_text="y", stage="task")


@pytest.mark.parametrize("text", [" ", "\t\n"])
def test_parallel_example_rejects_text_with_no_words(text):
    with pytest.raises(ConfigError, match="empty"):
        ParallelExample(source_text="a", source_lang="x", target_text=text, stage="task")


def test_parallel_example_rejects_unknown_stage():
    with pytest.raises(ConfigError, match="warmup"):
        ParallelExample(source_text="a", source_lang="x", target_text="y", stage="warmup")


def test_corpus_file_round_trip(tmp_path):
    rows = [
        ParallelExample("baba gado", "lang1", "dupe gado", "translation"),
        ParallelExample("copy baba", "lang2", "baba", "task"),
    ]
    path = tmp_path / "rows.jsonl"
    write_corpus(path, rows)
    assert read_corpus(path) == rows


def test_read_corpus_skips_blank_lines(tmp_path):
    path = tmp_path / "rows.jsonl"
    record = json.dumps({"src": "a", "tgt": "b", "lang": "x", "stage": "task"})
    path.write_text(record + "\n\n" + record + "\n")
    assert len(read_corpus(path)) == 2


def test_read_corpus_reports_bad_json_line(tmp_path):
    path = tmp_path / "rows.jsonl"
    record = json.dumps({"src": "a", "tgt": "b", "lang": "x", "stage": "task"})
    path.write_text(record + "\n{not json\n")
    with pytest.raises(IngestionError, match=r":2: not valid JSON"):
        read_corpus(path)


def test_read_corpus_reports_missing_fields(tmp_path):
    path = tmp_path / "rows.jsonl"
    path.write_text(json.dumps({"src": "a", "lang": "x"}) + "\n")
    with pytest.raises(IngestionError, match=r":1: missing fields \['tgt', 'stage'\]"):
        read_corpus(path)


def test_read_corpus_rejects_non_string_fields(tmp_path):
    path = tmp_path / "rows.jsonl"
    path.write_text(json.dumps({"src": "a", "tgt": 5, "lang": "x", "stage": "task"}) + "\n")
    with pytest.raises(IngestionError, match=r":1: field 'tgt' must be str, got int"):
        read_corpus(path)


def test_read_corpus_wraps_record_validation(tmp_path):
    path = tmp_path / "rows.jsonl"
    path.write_text(json.dumps({"src": "", "tgt": "b", "lang": "x", "stage": "task"}) + "\n")
    with pytest.raises(IngestionError, match=r":1: .*empty"):
        read_corpus(path)


@pytest.mark.parametrize("line", ["5", '"src tgt lang stage"', "[1, 2]", "null"])
def test_read_corpus_rejects_non_object_records(tmp_path, line):
    path = tmp_path / "rows.jsonl"
    path.write_text(line + "\n")
    with pytest.raises(IngestionError, match=r":1: expected a JSON object"):
        read_corpus(path)


def _json_containers(inner):
    return st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3)


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    _json_containers,
    max_leaves=6,
)
# records carrying every field, so the per-field checks run as well as the
# line-level ones
RECORDS = st.fixed_dictionaries(
    {
        "src": JSON_VALUES,
        "tgt": JSON_VALUES,
        "lang": JSON_VALUES,
        "stage": st.sampled_from(["translation", "task"]) | JSON_VALUES,
    }
)


@given(lines=st.lists(RECORDS | JSON_VALUES, min_size=1, max_size=4))
@settings(max_examples=150, deadline=None)
def test_read_corpus_returns_examples_or_ingestion_error(tmp_path_factory, lines):
    path = tmp_path_factory.mktemp("rows") / "rows.jsonl"
    path.write_text("".join(json.dumps(line) + "\n" for line in lines), encoding="utf-8")
    try:
        examples = read_corpus(path)
    except IngestionError:
        return
    assert len(examples) == len(lines)
    for ex in examples:
        assert ex.source_text.split() and ex.target_text.split()


def test_read_corpus_missing_file(tmp_path):
    with pytest.raises(IngestionError, match="cannot read"):
        read_corpus(tmp_path / "absent.jsonl")


def test_read_corpus_rejects_undecodable_bytes(tmp_path):
    path = tmp_path / "rows.jsonl"
    path.write_bytes(b'{"src": "\xff"}\n')
    with pytest.raises(IngestionError, match="cannot read"):
        read_corpus(path)


def test_parallel_file_round_trip(tmp_path):
    rows = [
        {"sid": 0, "lang": "base", "src": "baba", "base": "baba"},
        {"sid": 0, "lang": "lang1", "src": "gado", "base": "baba"},
    ]
    path = tmp_path / "par.jsonl"
    write_parallel(path, rows)
    assert read_parallel(path) == rows


def test_read_parallel_rejects_mistyped_fields(tmp_path):
    path = tmp_path / "par.jsonl"
    path.write_text(json.dumps({"sid": "0", "lang": "base", "src": "baba", "base": "baba"}) + "\n")
    with pytest.raises(IngestionError, match="'sid' must be int"):
        read_parallel(path)


def test_read_parallel_missing_key(tmp_path):
    path = tmp_path / "par.jsonl"
    path.write_text(json.dumps({"sid": 0, "lang": "base", "src": "baba"}) + "\n")
    with pytest.raises(IngestionError, match="'base'"):
        read_parallel(path)


# ---------------------------------------------------------------------------
# corpus directories
# ---------------------------------------------------------------------------


def test_corpus_dir_round_trip(tmp_path, small_corpus):
    out = tmp_path / "corpus"
    files = write_corpus_dir(out, small_corpus, seed=3)
    assert all(f.exists() for f in files)
    loaded = load_corpus_dir(out)
    assert loaded.spec == small_corpus.spec
    assert loaded.stage1 == small_corpus.stage1
    assert loaded.stage2 == small_corpus.stage2
    assert loaded.eval_task == small_corpus.eval_task
    assert loaded.eval_parallel == small_corpus.eval_parallel
    for lang in small_corpus.ciphers:
        assert np.array_equal(loaded.ciphers[lang], small_corpus.ciphers[lang])


def test_corpus_dir_seed_edit_changes_ciphers(tmp_path, small_corpus):
    # ciphers are re-derived from (spec, seed), so editing the stored seed
    # breaks the pairing with the stored ciphertext instead of hiding it
    out = tmp_path / "corpus"
    write_corpus_dir(out, small_corpus, seed=3)
    payload = json.loads((out / "spec.json").read_text())
    payload["seed"] = 99
    (out / "spec.json").write_text(json.dumps(payload))
    loaded = load_corpus_dir(out)
    assert not np.array_equal(loaded.ciphers["lang1"], small_corpus.ciphers["lang1"])


def test_load_corpus_dir_missing_spec(tmp_path):
    with pytest.raises(IngestionError, match="spec"):
        load_corpus_dir(tmp_path)


def test_load_corpus_dir_corrupt_spec(tmp_path):
    (tmp_path / "spec.json").write_text("{broken")
    with pytest.raises(IngestionError, match="invalid JSON"):
        load_corpus_dir(tmp_path)


@pytest.mark.parametrize("payload", [[], 5, {"seed": 0, "spec": []}, {"seed": 0, "spec": "tiny"}])
def test_load_corpus_dir_rejects_non_object_spec(tmp_path, payload):
    (tmp_path / "spec.json").write_text(json.dumps(payload))
    with pytest.raises(IngestionError, match="expected an object"):
        load_corpus_dir(tmp_path)


@pytest.mark.parametrize("seed", ["x", -1, 1.5, True])
def test_load_corpus_dir_rejects_bad_seed(tmp_path, seed):
    (tmp_path / "spec.json").write_text(json.dumps({"seed": seed, "spec": {}}))
    with pytest.raises(IngestionError, match="seed must be a non-negative integer"):
        load_corpus_dir(tmp_path)


def test_load_corpus_dir_unknown_spec_field(tmp_path):
    (tmp_path / "spec.json").write_text(json.dumps({"seed": 0, "spec": {"wormholes": 2}}))
    with pytest.raises(IngestionError, match="wormholes"):
        load_corpus_dir(tmp_path)


@pytest.mark.parametrize(
    "spec",
    [{"languages": [1, 2]}, {"languages": "abc"}, {"tasks": [[1]]},
     {"explicit_ciphers": [1]}, {"explicit_ciphers": {"lang1": {"a": 5}}}],
)
def test_load_corpus_dir_mistyped_spec_field(tmp_path, spec):
    (tmp_path / "spec.json").write_text(json.dumps({"seed": 0, "spec": spec}))
    with pytest.raises(IngestionError, match="spec.json"):
        load_corpus_dir(tmp_path)
