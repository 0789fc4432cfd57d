"""Synthetic seq2seq tasks, TSV corpus loading, vocabulary and batching.

Token ids 0..4 are reserved (pad, begin, end, unknown, null-match);
content tokens start at 5. Target rows in a batch carry the begin
sentinel up front and exactly one end sentinel before the padding, so a
batch can be sliced directly into decoder inputs and next-token labels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterator, Sequence

import numpy as np

from .rng import named_rng

PAD_ID = 0
BOS_ID = 1
EOS_ID = 2
UNK_ID = 3
NULL_ID = 4
FIRST_CONTENT_ID = 5

_RESERVED = {PAD_ID: "<pad>", BOS_ID: "<s>", EOS_ID: "</s>", UNK_ID: "<unk>", NULL_ID: "<null>"}


class DataError(ValueError):
    """Corpus or generator configuration is unusable."""


class TaskKind(str, Enum):
    COPY = "copy"
    REVERSE = "reverse"
    NOISY_MAP = "noisy_map"


@dataclass(frozen=True)
class Vocab:
    """Token/id bijection with the five reserved ids pinned at 0..4."""

    tokens: tuple[str, ...]  # content tokens, ids 5..
    _index: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(
            self, "_index", {tok: FIRST_CONTENT_ID + i for i, tok in enumerate(self.tokens)}
        )

    @property
    def size(self) -> int:
        return FIRST_CONTENT_ID + len(self.tokens)

    def encode(self, words: Sequence[str]) -> list[int]:
        return [self._index.get(w, UNK_ID) for w in words]

    def decode(self, ids: Sequence[int]) -> list[str]:
        out = []
        for i in ids:
            if i in _RESERVED:
                out.append(_RESERVED[i])
            else:
                out.append(self.tokens[i - FIRST_CONTENT_ID])
        return out

    @staticmethod
    def numeric(vocab_size: int) -> "Vocab":
        """Identity vocabulary for synthetic integer-token tasks."""
        if vocab_size <= FIRST_CONTENT_ID:
            raise DataError(f"vocab_size must exceed {FIRST_CONTENT_ID}, got {vocab_size}")
        return Vocab(tuple(str(i) for i in range(FIRST_CONTENT_ID, vocab_size)))


@dataclass
class Corpus:
    pairs: list[tuple[list[int], list[int]]]
    vocab: Vocab

    def __len__(self) -> int:
        return len(self.pairs)


@dataclass
class Batch:
    """Padded id matrices. ``target`` rows are [BOS, y.., EOS, PAD..]."""

    source: np.ndarray  # [B, m] int64
    source_mask: np.ndarray  # [B, m] bool, True on real tokens
    target: np.ndarray  # [B, n] int64
    target_mask: np.ndarray  # [B, n] bool
    source_lengths: np.ndarray  # [B]
    target_lengths: np.ndarray  # [B] includes both sentinels

    @property
    def size(self) -> int:
        return self.source.shape[0]

    def decoder_inputs(self) -> np.ndarray:
        return self.target[:, :-1]

    def labels(self) -> np.ndarray:
        return self.target[:, 1:]

    def label_mask(self) -> np.ndarray:
        return self.target_mask[:, 1:]


def _pick_coprime(start: int, modulus: int) -> int:
    a = max(1, start)
    while math.gcd(a, modulus) != 1:
        a += 1
    return a


def gen_task(
    kind: TaskKind,
    vocab_size: int,
    min_len: int,
    max_len: int,
    count: int,
    seed: int,
    noise: float = 0.0,
    map_a: int | None = None,
    map_b: int = 1,
    history_weight: int = 0,
    long_length_mass: float = 0.0,
) -> Corpus:
    """Generate a paired corpus for one of the synthetic tasks.

    ``noisy_map`` applies a tokenwise affine bijection to the source and
    then corrupts each *target* token with probability ``noise``, so the
    golden histories seen in training differ from anything a correct
    model would produce at inference time.

    A non-zero ``history_weight`` h makes the map first-order
    autoregressive, target_t = a*src_t + h*target_{t-1} + b (mod content),
    with substitution noise feeding back through the recurrence. History
    then carries real information and a single divergence from a
    reference reroutes its whole continuation, which is what makes
    exposure bias measurable on sequences this short.

    Lengths draw uniformly from [min_len, max_len]; ``long_length_mass``
    diverts that probability to the top length band (the last four
    lengths), which flattens per-position sample counts so per-step
    curves are comparable across the whole range.

    The corpus is drawn in one pass of array expressions, in this order
    from the task's stream: every length, then (when ``long_length_mass``
    is set) one Bernoulli block and one block of top-band lengths, then
    the sources as one flat block, then the noise flips and substitutes
    as flat blocks. Pairs are slices of the flat blocks. The h != 0
    recurrence runs as one loop over positions, covering at each
    position every pair that long.
    """
    kind = TaskKind(kind)
    vocab = Vocab.numeric(vocab_size)
    content = vocab_size - FIRST_CONTENT_ID
    if count < 0:
        raise DataError(f"count must be >= 0, got {count}")
    if not 1 <= min_len <= max_len:
        raise DataError(f"bad length range [{min_len}, {max_len}]")
    if not 0.0 <= noise <= 1.0:
        raise DataError(f"noise must lie in [0, 1], got {noise}")
    if not 0.0 <= long_length_mass <= 1.0:
        raise DataError(f"long_length_mass must lie in [0, 1], got {long_length_mass}")
    a = _pick_coprime(2 if map_a is None else map_a, content)
    if map_a is not None and a != map_a:
        raise DataError(f"map_a={map_a} shares a factor with content vocab {content}")

    rng = named_rng(seed, "gen", kind.value)
    lengths = rng.integers(min_len, max_len + 1, size=count)
    if long_length_mass:
        long = rng.random(count) < long_length_mass
        lengths = np.where(long, rng.integers(max(min_len, max_len - 3), max_len + 1, size=count), lengths)
    ends = np.cumsum(lengths)
    starts = ends - lengths
    total = int(lengths.sum())
    src = rng.integers(FIRST_CONTENT_ID, vocab_size, size=total)
    if kind is TaskKind.COPY:
        tgt = src
    elif kind is TaskKind.REVERSE:  # position p of the pair on [start, end) reads end - 1 - p + start
        tgt = src[np.repeat(ends - 1 + starts, lengths) - np.arange(total)]
    else:
        flip = rng.random(total) < noise if noise > 0.0 else np.zeros(total, dtype=bool)
        subs = rng.integers(FIRST_CONTENT_ID, vocab_size, size=total) if noise > 0.0 else src
        clean = (src - FIRST_CONTENT_ID) * a + map_b  # the map before the history term and the modulus
        if history_weight == 0:
            tgt = np.where(flip, subs, clean % content + FIRST_CONTENT_ID)
        else:
            tgt = np.empty(total, dtype=np.int64)
            first = starts[np.argsort(-lengths)]  # longest pairs first
            alive = count - np.cumsum(np.bincount(lengths, minlength=max_len + 1))  # pairs longer than t
            prev = np.zeros(count, dtype=np.int64)
            for t in range(max_len):
                pos = first[: alive[t]] + t
                history = prev[: alive[t]] * history_weight
                tok = np.where(flip[pos], subs[pos], (clean[pos] + history) % content + FIRST_CONTENT_ID)
                tgt[pos] = tok
                prev = tok - FIRST_CONTENT_ID
    src_ids, tgt_ids = src.tolist(), tgt.tolist()
    pairs = [(src_ids[s:e], tgt_ids[s:e]) for s, e in zip(starts.tolist(), ends.tolist())]
    return Corpus(pairs, vocab)


def load_tsv_corpus(path, vocab: Vocab | None = None) -> Corpus:
    """Read a tab-separated parallel corpus with whitespace tokenization.

    When ``vocab`` is None a vocabulary is built from the file (training
    split); otherwise unknown words map to the unknown id (eval splits).
    """
    rows: list[tuple[list[str], list[str]]] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 2 or not parts[0].strip() or not parts[1].strip():
                raise DataError(f"{path}:{lineno}: expected 'source<TAB>target', got {line!r}")
            rows.append((parts[0].split(), parts[1].split()))
    if not rows:
        raise DataError(f"{path}: empty corpus")
    if vocab is None:
        seen: dict[str, None] = {}
        for src, tgt in rows:
            for w in src:
                seen.setdefault(w, None)
            for w in tgt:
                seen.setdefault(w, None)
        vocab = Vocab(tuple(seen))
    pairs = [(vocab.encode(src), vocab.encode(tgt)) for src, tgt in rows]
    return Corpus(pairs, vocab)


def make_batch(pairs: Sequence[tuple[list[int], list[int]]]) -> Batch:
    b = len(pairs)
    m = max(len(src) for src, _ in pairs)
    n = max(len(tgt) for _, tgt in pairs) + 2  # sentinels
    source = np.full((b, m), PAD_ID, dtype=np.int64)
    target = np.full((b, n), PAD_ID, dtype=np.int64)
    src_lens = np.zeros(b, dtype=np.int64)
    tgt_lens = np.zeros(b, dtype=np.int64)
    for i, (src, tgt) in enumerate(pairs):
        source[i, : len(src)] = src
        row = [BOS_ID, *tgt, EOS_ID]
        target[i, : len(row)] = row
        src_lens[i] = len(src)
        tgt_lens[i] = len(row)
    source_mask = np.arange(m)[None, :] < src_lens[:, None]
    target_mask = np.arange(n)[None, :] < tgt_lens[:, None]
    return Batch(source, source_mask, target, target_mask, src_lens, tgt_lens)


def row_width(pair: tuple[list[int], list[int]]) -> int:
    """Positions the pair's widest padded row takes: the source, or the target and its two sentinels."""
    src, tgt = pair
    return max(len(src), len(tgt) + 2)


def batchify(corpus: Corpus, token_budget: int, seed: int, epoch: int = 0) -> Iterator[Batch]:
    """Length-bucketed batches whose padded size never exceeds the budget.

    The cap is rows x widest row <= token_budget (the padded matrix is
    what costs memory and compute). Pair order is shuffled per epoch,
    grouped by length, and batch order is shuffled again; everything is
    deterministic given (seed, epoch). Each pair's ``row_width`` is taken
    once; a stable argsort of the shuffled widths gives the order a stable
    sort by ``row_width`` gives, and rows are packed in ascending width, so
    a row's own width is its batch's widest. The checks and the plan run
    at the call; each batch is built when it is drawn.
    """
    if not corpus.pairs:
        raise DataError("cannot batch an empty corpus")
    widths = np.fromiter(map(row_width, corpus.pairs), dtype=np.int64, count=len(corpus.pairs))
    widest = int(widths.max())
    if widest > token_budget:
        raise DataError(f"token budget {token_budget} below widest pair ({widest} tokens)")
    rng = named_rng(seed, "batchify", epoch)
    order = rng.permutation(len(corpus.pairs))
    by_width = order[np.argsort(widths[order], kind="stable")]
    batches: list[list[int]] = []
    current: list[int] = []
    for idx, width in zip(by_width.tolist(), widths[by_width].tolist()):
        if current and (len(current) + 1) * width > token_budget:
            batches.append(current)
            current = []
        current.append(idx)
    batches.append(current)
    rng.shuffle(batches)
    return (make_batch([corpus.pairs[i] for i in group]) for group in batches)


def batch_stream(corpus: Corpus, token_budget: int, seed: int) -> Iterator[Batch]:
    """Endless batch iterator; each epoch reshuffles under its own stream."""
    epoch = 0
    while True:
        yield from batchify(corpus, token_budget, seed, epoch)
        epoch += 1


def split_corpus(corpus: Corpus, eval_fraction: float, seed: int) -> tuple[Corpus, Corpus]:
    """Deterministic train/eval split preserving the vocabulary."""
    if not 0.0 < eval_fraction < 1.0:
        raise DataError(f"eval fraction must lie in (0, 1), got {eval_fraction}")
    rng = named_rng(seed, "split")
    order = rng.permutation(len(corpus.pairs))
    n_eval = max(1, int(round(eval_fraction * len(corpus.pairs))))
    eval_idx = set(order[:n_eval].tolist())
    train_pairs = [p for i, p in enumerate(corpus.pairs) if i not in eval_idx]
    eval_pairs = [p for i, p in enumerate(corpus.pairs) if i in eval_idx]
    return Corpus(train_pairs, corpus.vocab), Corpus(eval_pairs, corpus.vocab)
