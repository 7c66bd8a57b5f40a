"""Toy vocabulary, cipher languages, and synthetic corpus generation.

A cipher language is a bijective permutation of the content vocabulary;
special tokens are never ciphered. Training data pairs ciphered sentences
with their base-language originals (translation stage) or ciphered task
prompts with base-language answers (task stage). This gives a desk-scale
stand-in for a many-to-one multilingual setup where alignment quality is
directly measurable: every language says exactly the same things, just
through a different token permutation.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ConfigError, IngestionError, InputError
from .files import build, read_json_object, write_atomic

PAD, BOS, SEP, EOS = 0, 1, 2, 3
SPECIAL_TOKENS = {"<pad>": PAD, "<bos>": BOS, "<sep>": SEP, "<eos>": EOS}

NUMBER_WORDS = (
    "zero one two three four five six seven eight nine ten eleven twelve "
    "thirteen fourteen fifteen sixteen seventeen eighteen"
).split()
MARKER_WORDS = ("plus", "equals", "copy", "class", "red", "blue")

_CONSONANTS = "bdfgklmnprstvz"
_VOWELS = "aeiou"


def pseudo_word(i: int) -> str:
    """Deterministic two-syllable word for index i, e.g. 0 -> 'baba'."""
    c1, rest = divmod(i, len(_VOWELS) * len(_CONSONANTS) * len(_VOWELS))
    v1, rest = divmod(rest, len(_CONSONANTS) * len(_VOWELS))
    c2, v2 = divmod(rest, len(_VOWELS))
    if c1 >= len(_CONSONANTS):
        raise ConfigError(f"pseudo-word index {i} exhausts the syllable space")
    return _CONSONANTS[c1] + _VOWELS[v1] + _CONSONANTS[c2] + _VOWELS[v2]


class Vocabulary:
    """Fixed word-level vocabulary shared by encoder and decoder.

    Ids 0..3 are the specials; content ids follow: number words, task
    markers, then pseudo-words up to ``size``.
    """

    def __init__(self, size: int = 512):
        base = len(SPECIAL_TOKENS) + len(NUMBER_WORDS) + len(MARKER_WORDS)
        if size < base + 1:
            raise ConfigError(f"vocab_size {size} too small; need at least {base + 1}")
        words = ["<pad>", "<bos>", "<sep>", "<eos>"]
        words += NUMBER_WORDS
        words += MARKER_WORDS
        n_pseudo = size - len(words)
        words += [pseudo_word(i) for i in range(n_pseudo)]
        if len(set(words)) != len(words):
            raise ConfigError("vocabulary contains duplicate word forms")
        self.words = words
        self.index = {w: i for i, w in enumerate(words)}
        self.size = size

    @property
    def content_ids(self) -> np.ndarray:
        return np.arange(len(SPECIAL_TOKENS), self.size, dtype=np.int64)

    @property
    def pseudo_ids(self) -> np.ndarray:
        start = len(SPECIAL_TOKENS) + len(NUMBER_WORDS) + len(MARKER_WORDS)
        return np.arange(start, self.size, dtype=np.int64)

    def number_id(self, value: int) -> int:
        if not 0 <= value < len(NUMBER_WORDS):
            raise ConfigError(f"no single word for number {value}")
        return len(SPECIAL_TOKENS) + value

    def marker_id(self, marker: str) -> int:
        return self.index[marker]

    def encode(self, text: str) -> np.ndarray:
        ids = []
        for word in text.split():
            if word not in self.index:
                raise InputError(f"word {word!r} not in vocabulary")
            ids.append(self.index[word])
        return np.asarray(ids, dtype=np.int64)

    def decode(self, ids) -> str:
        out = []
        for i in ids:
            i = int(i)
            if not 0 <= i < self.size:
                raise InputError(f"token id {i} outside vocabulary")
            out.append(self.words[i])
        return " ".join(out)


# the stage tag every record carries: stage one trains on translation pairs,
# stage two on task prompts
STAGE_TRANSLATION = "translation"
STAGE_TASK = "task"
STAGES = (STAGE_TRANSLATION, STAGE_TASK)


@dataclass(frozen=True)
class ParallelExample:
    """One training record: ciphered source, language tag, base-language
    target, and the stage the record belongs to."""

    source_text: str
    source_lang: str
    target_text: str
    stage: str

    def __post_init__(self):
        if not self.source_text.split() or not self.target_text.split():
            raise ConfigError("parallel example with empty text")
        if self.stage not in STAGES:
            raise ConfigError(f"unknown stage tag {self.stage!r}")


@dataclass(frozen=True)
class SynthSpec:
    """Shape of the synthetic multilingual world.

    ``languages`` maps name -> tier ("hrl" or "lrl"). Low-resource languages
    receive ``lrl_fraction`` of the high-resource stage-1 sample count. The
    base language is implicit: it is the target side everywhere and appears
    as the identity rendering in the parallel evaluation split.

    The defaults are the calibrated benchmark corpus: two high-resource
    cipher languages and one low-resource one, on the copy task. Tiering
    applies to the translation stage only: the low-resource language gets
    30% of the stage-1 sentence pairs but the same task split as everyone
    else, so the benchmark arms differ only in what stage 1 taught them
    about it.
    """

    vocab_size: int = 512
    languages: dict[str, str] = field(
        default_factory=lambda: {"lang1": "hrl", "lang2": "hrl", "lang3": "lrl"}
    )
    stage1_per_hrl: int = 16000
    lrl_fraction: float = 0.30
    stage2_per_lang: int = 1500
    eval_per_lang: int = 100
    parallel_sentences: int = 24
    tasks: tuple[str, ...] = ("copy",)
    max_operand: int = 9
    copy_max_words: int = 3
    sentence_max_words: int = 5
    # sentences and tasks draw pseudo-words from a pool this large, so
    # stage-1 exposure can actually cover the working vocabulary
    active_words: int = 80

    def __post_init__(self):
        if len(self.languages) < 2:
            raise ConfigError("need at least two languages")
        for lang, tier in self.languages.items():
            if tier not in ("hrl", "lrl"):
                raise ConfigError(f"language {lang!r} has unknown tier {tier!r}")
            if lang == "base":
                raise ConfigError("'base' names the target language; pick another name")
        for name in ("stage1_per_hrl", "stage2_per_lang", "eval_per_lang", "parallel_sentences"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        if not 0 < self.lrl_fraction <= 1:
            raise ConfigError(f"lrl_fraction must be in (0, 1], got {self.lrl_fraction}")
        unknown = set(self.tasks) - {"arithmetic", "copy", "classification"}
        if unknown:
            raise ConfigError(f"unknown tasks: {sorted(unknown)}")
        if not self.tasks:
            raise ConfigError("at least one task template required")
        if self.active_words < self.sentence_max_words:
            raise ConfigError(
                f"active_words {self.active_words} smaller than sentence_max_words {self.sentence_max_words}"
            )
        # sums must be number words, and train and eval each need operand pairs
        if not 2 <= self.max_operand <= (len(NUMBER_WORDS) - 1) // 2:
            raise ConfigError(f"max_operand must be in 2..{(len(NUMBER_WORDS) - 1) // 2}, got {self.max_operand}")
        if self.sentence_max_words < 2 or not 1 <= self.copy_max_words <= self.active_words:
            raise ConfigError("need sentence_max_words >= 2 and 1 <= copy_max_words <= active_words")

    def stage1_count(self, lang: str) -> int:
        tier = self.languages[lang]
        if tier == "hrl":
            return self.stage1_per_hrl
        return max(1, int(round(self.stage1_per_hrl * self.lrl_fraction)))

    def stage2_count(self, lang: str) -> int:
        """Task rows for ``lang``: the same for every tier."""
        return self.stage2_per_lang


def build_cipher(vocab: Vocabulary, lang_index: int, seed: int) -> np.ndarray:
    """Length-vocab permutation array: identity on specials, a seeded
    bijection on content ids."""
    table = np.arange(vocab.size, dtype=np.int64)
    rng = np.random.default_rng(np.random.SeedSequence([seed, lang_index, 0xC1F]))
    content = vocab.content_ids
    table[content] = rng.permutation(content)
    return table


def apply_cipher(table: np.ndarray, ids: np.ndarray) -> np.ndarray:
    return table[np.asarray(ids, dtype=np.int64)]


@dataclass
class SynthCorpus:
    """All generated splits of one spec, with the vocabulary they use."""

    spec: SynthSpec
    vocab: Vocabulary
    stage1: list[ParallelExample]
    stage2: list[ParallelExample]
    eval_task: list[ParallelExample]
    eval_parallel: list[dict]

    def tiers(self) -> dict[str, str]:
        return dict(self.spec.languages)


def _word_pool(vocab: Vocabulary, spec: SynthSpec) -> np.ndarray:
    pool = vocab.pseudo_ids[: spec.active_words]
    if len(pool) < spec.active_words:
        raise ConfigError(
            f"vocabulary holds {len(vocab.pseudo_ids)} pseudo-words, spec wants {spec.active_words}"
        )
    return pool


def _sentence(rng: np.random.Generator, vocab: Vocabulary, spec: SynthSpec) -> np.ndarray:
    """Base-language sentence: pseudo-words, or a spelled-out equation."""
    if rng.random() < 0.5:
        a = int(rng.integers(0, spec.max_operand + 1))
        b = int(rng.integers(0, spec.max_operand + 1))
        return np.array(
            [vocab.number_id(a), vocab.marker_id("plus"), vocab.number_id(b),
             vocab.marker_id("equals"), vocab.number_id(a + b)],
            dtype=np.int64,
        )
    k = int(rng.integers(2, spec.sentence_max_words + 1))
    return rng.choice(_word_pool(vocab, spec), size=k, replace=False)


def _task_item(rng: np.random.Generator, vocab: Vocabulary, spec: SynthSpec,
               task: str, arith_pool: list[tuple[int, int]]) -> tuple[np.ndarray, np.ndarray]:
    """(prompt ids, answer ids) in base-language form."""
    if task == "arithmetic":
        a, b = arith_pool[int(rng.integers(0, len(arith_pool)))]
        prompt = np.array(
            [vocab.number_id(a), vocab.marker_id("plus"), vocab.number_id(b), vocab.marker_id("equals")],
            dtype=np.int64,
        )
        answer = np.array([vocab.number_id(a + b)], dtype=np.int64)
        return prompt, answer
    if task == "copy":
        k = int(rng.integers(1, spec.copy_max_words + 1))
        words = rng.choice(_word_pool(vocab, spec), size=k, replace=False)
        prompt = np.concatenate([[vocab.marker_id("copy")], words])
        return prompt.astype(np.int64), words.astype(np.int64)
    if task == "classification":
        word = int(rng.choice(_word_pool(vocab, spec)))
        label = "red" if word % 2 == 0 else "blue"
        prompt = np.array([vocab.marker_id("class"), word], dtype=np.int64)
        answer = np.array([vocab.marker_id(label)], dtype=np.int64)
        return prompt, answer
    raise ConfigError(f"unknown task {task!r}")


def generate_synthetic_corpus(spec: SynthSpec, seed: int) -> SynthCorpus:
    """Build all splits deterministically from (spec, seed).

    Stage-1: (ciphered sentence -> base sentence). Stage-2 and the task eval
    split: (ciphered prompt -> base answer), with arithmetic operand pairs
    partitioned so evaluation pairs never occur in training. The parallel
    split renders each held-out sentence in the base language and every
    cipher language under a shared sentence id.
    """
    vocab = Vocabulary(spec.vocab_size)
    langs = list(spec.languages)
    ciphers = {lang: build_cipher(vocab, i, seed) for i, lang in enumerate(langs)}
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x5EED]))

    # partition arithmetic operand pairs between train and eval
    all_pairs = [(a, b) for a in range(spec.max_operand + 1) for b in range(spec.max_operand + 1)]
    order = rng.permutation(len(all_pairs))
    n_eval_pairs = max(4, len(all_pairs) // 5)
    eval_pairs = [all_pairs[i] for i in order[:n_eval_pairs]]
    train_pairs = [all_pairs[i] for i in order[n_eval_pairs:]]

    stage1: list[ParallelExample] = []
    for lang in langs:
        table = ciphers[lang]
        for _ in range(spec.stage1_count(lang)):
            base_ids = _sentence(rng, vocab, spec)
            stage1.append(
                ParallelExample(
                    source_text=vocab.decode(apply_cipher(table, base_ids)),
                    source_lang=lang,
                    target_text=vocab.decode(base_ids),
                    stage=STAGE_TRANSLATION,
                )
            )

    def task_split(counts: dict[str, int], pool: list[tuple[int, int]], stage_tag: str,
                   seen: set[tuple[str, str]]) -> list[ParallelExample]:
        out = []
        for lang in langs:
            n_per_lang = counts[lang]
            table = ciphers[lang]
            made = 0
            attempts = 0
            budget = 100 * n_per_lang + 1000
            while made < n_per_lang:
                attempts += 1
                if attempts > budget:
                    raise ConfigError(
                        f"cannot draw {n_per_lang} distinct {stage_tag} prompts for {lang!r}; "
                        f"template space too small for the requested split sizes"
                    )
                task = spec.tasks[int(rng.integers(0, len(spec.tasks)))]
                prompt_ids, answer_ids = _task_item(rng, vocab, spec, task, pool)
                src = vocab.decode(apply_cipher(table, prompt_ids))
                tgt = vocab.decode(answer_ids)
                key = (lang, src)
                if key in seen:
                    continue
                seen.add(key)
                out.append(
                    ParallelExample(source_text=src, source_lang=lang, target_text=tgt, stage=stage_tag)
                )
                made += 1
        return out

    train_keys: set[tuple[str, str]] = set()
    stage2 = task_split(
        {lang: spec.stage2_count(lang) for lang in langs}, train_pairs, STAGE_TASK, seen=train_keys
    )
    # eval prompts must not repeat training prompts; arithmetic is held out by
    # operand-pair partition, copy/classification by prompt-string rejection
    eval_seen = set(train_keys)
    eval_task = task_split(
        {lang: spec.eval_per_lang for lang in langs}, eval_pairs, STAGE_TASK, seen=eval_seen
    )

    eval_parallel: list[dict] = []
    for sid in range(spec.parallel_sentences):
        base_ids = _sentence(rng, vocab, spec)
        base_text = vocab.decode(base_ids)
        eval_parallel.append({"sid": sid, "lang": "base", "src": base_text, "base": base_text})
        for lang in langs:
            eval_parallel.append(
                {
                    "sid": sid,
                    "lang": lang,
                    "src": vocab.decode(apply_cipher(ciphers[lang], base_ids)),
                    "base": base_text,
                }
            )
    return SynthCorpus(
        spec=spec,
        vocab=vocab,
        stage1=stage1,
        stage2=stage2,
        eval_task=eval_task,
        eval_parallel=eval_parallel,
    )


# ---------------------------------------------------------------------------
# corpus file IO: one JSON object per line, with the fields and types below
# ---------------------------------------------------------------------------

RECORD_FIELDS = {"src": str, "tgt": str, "lang": str, "stage": str}
PARALLEL_FIELDS = {"sid": int, "lang": str, "src": str, "base": str}
TEXT_FIELDS = ("src", "tgt", "base")


def write_corpus(path: str | Path, examples: list[ParallelExample]) -> None:
    rows = ({"src": ex.source_text, "tgt": ex.target_text, "lang": ex.source_lang, "stage": ex.stage}
            for ex in examples)
    write_atomic(path, "".join(json.dumps(row, sort_keys=True) + "\n" for row in rows))


def _read_records(path: Path, fields: dict[str, type], what: str, vocab: Vocabulary | None):
    """Yield (line number, record) for each nonblank line of a JSONL file;
    every record must be an object carrying each of ``fields`` with its type,
    and, given a ``vocab``, text fields holding only its words."""
    try:
        lines = path.read_text(encoding="utf-8").split("\n")
    except (OSError, UnicodeDecodeError) as err:
        raise IngestionError(f"{path}: cannot read {what} file: {err}") from err
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as err:
            raise IngestionError(f"{path}:{lineno}: not valid JSON ({err.msg})") from None
        if not isinstance(record, dict):
            raise IngestionError(f"{path}:{lineno}: expected a JSON object, got {type(record).__name__}")
        missing = [k for k in fields if k not in record]
        if missing:
            raise IngestionError(f"{path}:{lineno}: missing fields {missing}")
        for key, kind in fields.items():
            if not isinstance(record[key], kind):
                got = type(record[key]).__name__
                raise IngestionError(f"{path}:{lineno}: field {key!r} must be {kind.__name__}, got {got}")
        if vocab is not None:
            for key in (k for k in fields if k in TEXT_FIELDS):
                for word in record[key].split():
                    if word not in vocab.index:
                        raise IngestionError(f"{path}:{lineno}: word {word!r} not in vocabulary")
        yield lineno, record


def read_corpus(path: str | Path, vocab: Vocabulary | None = None) -> list[ParallelExample]:
    path = Path(path)
    out = []
    for lineno, record in _read_records(path, RECORD_FIELDS, "corpus", vocab):
        try:
            out.append(
                ParallelExample(
                    source_text=record["src"],
                    source_lang=record["lang"],
                    target_text=record["tgt"],
                    stage=record["stage"],
                )
            )
        except ConfigError as err:
            raise IngestionError(f"{path}:{lineno}: {err}") from None
    return out


def write_parallel(path: str | Path, rows: list[dict]) -> None:
    write_atomic(path, "".join(json.dumps(row, sort_keys=True) + "\n" for row in rows))


def read_parallel(path: str | Path, vocab: Vocabulary | None = None) -> list[dict]:
    return [record for _, record in _read_records(Path(path), PARALLEL_FIELDS, "parallel", vocab)]

CORPUS_FILES = ("stage1.jsonl", "stage2.jsonl", "eval_task.jsonl", "eval_parallel.jsonl")


@dataclass(frozen=True)
class SpecFile:
    """The top level of a corpus directory's ``spec.json``."""

    seed: int = 0
    spec: SynthSpec = field(default_factory=SynthSpec)

    def __post_init__(self):
        if self.seed < 0:
            raise ConfigError(f"seed must be a non-negative integer, got {self.seed}")


def write_corpus_dir(out_dir: str | Path, corpus: SynthCorpus, seed: int) -> list[Path]:
    """Persist all splits plus the generating (seed, spec); every file write
    is atomic. No cipher table is stored or re-derived: the ciphered text is
    the corpus."""
    out_dir = Path(out_dir)
    spec_payload = dataclasses.asdict(SpecFile(seed, corpus.spec))
    spec_path = write_atomic(out_dir / "spec.json", json.dumps(spec_payload, sort_keys=True, indent=2) + "\n")
    write_corpus(out_dir / "stage1.jsonl", corpus.stage1)
    write_corpus(out_dir / "stage2.jsonl", corpus.stage2)
    write_corpus(out_dir / "eval_task.jsonl", corpus.eval_task)
    write_parallel(out_dir / "eval_parallel.jsonl", corpus.eval_parallel)
    return [spec_path] + [out_dir / name for name in CORPUS_FILES]


def load_corpus_dir(corpus_dir: str | Path) -> SynthCorpus:
    corpus_dir = Path(corpus_dir)
    spec_path = corpus_dir / "spec.json"
    payload = read_json_object(spec_path, IngestionError, "corpus spec")
    try:
        spec = build(SpecFile(), payload, "").spec
        vocab = Vocabulary(spec.vocab_size)
    except ConfigError as err:
        raise IngestionError(f"{spec_path}: {err}") from None
    return SynthCorpus(
        spec=spec,
        vocab=vocab,
        stage1=read_corpus(corpus_dir / "stage1.jsonl", vocab),
        stage2=read_corpus(corpus_dir / "stage2.jsonl", vocab),
        eval_task=read_corpus(corpus_dir / "eval_task.jsonl", vocab),
        eval_parallel=read_parallel(corpus_dir / "eval_parallel.jsonl", vocab),
    )
