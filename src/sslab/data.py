"""Synthetic seq2seq tasks, TSV corpus loading, vocabulary and batching.

A corpus is held as flat token arrays with per-pair lengths, and every
step from generation to a padded batch works on whole arrays. Token
arrays take the vocabulary's width (``Vocab.token_dtype``: one byte up to
256 ids, two up to 65,536), so arithmetic on them must widen first: under
numpy's promotion rules a Python int does not widen a uint8 array, and the
result wraps. Batches are int64. Token ids 0..4 are reserved (pad, begin,
end, unknown, null-match); content tokens start at 5. Target rows in a
batch carry the begin sentinel up front and exactly one end sentinel
before the padding, so a batch can be sliced directly into decoder inputs
and next-token labels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from itertools import chain
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

    @property
    def token_dtype(self) -> np.dtype:
        """The narrowest unsigned integer type that holds every id: a corpus's token width."""
        return np.min_scalar_type(self.size - 1)

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


def _gather(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Flat positions of the rows at ``starts`` with ``lengths``, row after row."""
    offsets = np.cumsum(lengths) - lengths  # where each row begins in the output
    return np.repeat(starts - offsets, lengths) + np.arange(int(lengths.sum()))


def _rows(tokens: np.ndarray, starts: np.ndarray, lengths: np.ndarray) -> list[list[int]]:
    ids = tokens.tolist()
    return [ids[s : s + n] for s, n in zip(starts.tolist(), lengths.tolist())]


@dataclass(eq=False)
class Corpus:
    """A parallel corpus held flat: each side's pairs back to back in one token array.

    Pair i's source is ``sources[source_starts[i] : source_starts[i] +
    source_lengths[i]]``, and likewise its target; the starts are derived
    from the lengths. Nothing here copies per pair: subsets and batches
    gather by index arrays. Token arrays of any integer type are checked
    against the vocabulary and then held at ``vocab.token_dtype``, so the
    narrowing cast never wraps; an array already that narrow is kept as
    it is. Lengths and starts are int64.
    """

    sources: np.ndarray  # [total source tokens] vocab.token_dtype
    source_lengths: np.ndarray  # [pairs] int64
    targets: np.ndarray  # [total target tokens] vocab.token_dtype
    target_lengths: np.ndarray  # [pairs] int64
    vocab: Vocab
    source_starts: np.ndarray = field(init=False, repr=False)
    target_starts: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        size = self.vocab.size
        for name in ("sources", "targets"):
            tokens = getattr(self, name)
            if len(tokens):
                lo, hi = tokens.min(), tokens.max()
                if lo < 0 or hi >= size:
                    raise DataError(f"token id {lo if lo < 0 else hi} lies outside the vocabulary of size {size}")
            setattr(self, name, tokens.astype(self.vocab.token_dtype, copy=False))
        self.source_starts = np.cumsum(self.source_lengths) - self.source_lengths
        self.target_starts = np.cumsum(self.target_lengths) - self.target_lengths

    @staticmethod
    def from_pairs(pairs: Sequence[tuple[Sequence[int], Sequence[int]]], vocab: Vocab) -> "Corpus":
        def side(k: int) -> tuple[np.ndarray, np.ndarray]:
            rows = [pair[k] for pair in pairs]
            lengths = np.fromiter(map(len, rows), dtype=np.int64, count=len(rows))
            return np.fromiter(chain.from_iterable(rows), dtype=np.int64, count=int(lengths.sum())), lengths

        return Corpus(*side(0), *side(1), vocab)

    def __len__(self) -> int:
        return len(self.source_lengths)

    @property
    def pairs(self) -> list[tuple[list[int], list[int]]]:
        """Every pair as (source ids, target ids) lists: a copy built on each access."""
        return list(zip(_rows(self.sources, self.source_starts, self.source_lengths), self.target_rows()))

    def target_rows(self) -> list[list[int]]:
        return _rows(self.targets, self.target_starts, self.target_lengths)

    def row_widths(self) -> np.ndarray:
        """Positions each pair's widest padded row takes: the source, or the target and its two sentinels."""
        return np.maximum(self.source_lengths, self.target_lengths + 2)

    def take(self, rows: np.ndarray) -> "Corpus":
        """The pairs at ``rows``, in that order, with the same vocabulary."""
        src_lens, tgt_lens = self.source_lengths[rows], self.target_lengths[rows]
        return Corpus(
            self.sources[_gather(self.source_starts[rows], src_lens)], src_lens,
            self.targets[_gather(self.target_starts[rows], tgt_lens)], tgt_lens, self.vocab,
        )


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
    as flat blocks. Every draw is int64 (a narrower draw would consume the
    stream differently) and is narrowed to ``vocab.token_dtype`` once its
    last int64 use ends: the map runs in place on the source draw before
    that buffer is dropped, so no int64 token block outlives its draw. The
    corpus keeps the narrowed source and target blocks, with the lengths.
    The h != 0 recurrence runs as one loop over positions, covering at
    each position every pair that long, and widens as it adds the history.
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
    width = vocab.token_dtype
    drawn = rng.integers(FIRST_CONTENT_ID, vocab_size, size=total)
    src = drawn.astype(width)
    if kind is TaskKind.NOISY_MAP:
        # the map, in place on the draw: a*(src - 5) + b mod content, plus 5 unless a history term follows
        drawn -= FIRST_CONTENT_ID
        drawn *= a
        drawn += map_b
        drawn %= content
        if history_weight == 0:
            drawn += FIRST_CONTENT_ID
        clean = drawn.astype(width)
    del drawn
    if kind is TaskKind.COPY:
        tgt = src
    elif kind is TaskKind.REVERSE:  # position p of the pair on [start, end) reads end - 1 - p + start
        tgt = src[np.repeat(ends - 1 + starts, lengths) - np.arange(total)]
    else:
        flip = rng.random(total) < noise if noise > 0.0 else np.zeros(total, dtype=bool)
        subs = rng.integers(FIRST_CONTENT_ID, vocab_size, size=total).astype(width) if noise > 0.0 else src
        if history_weight == 0:
            tgt = clean
            np.copyto(tgt, subs, where=flip)
        else:  # (x mod c + h) mod c = (x + h) mod c, so the reduced map gives the same tokens
            tgt = np.empty(total, dtype=width)
            first = starts[np.argsort(-lengths)]  # longest pairs first
            alive = count - np.cumsum(np.bincount(lengths, minlength=max_len + 1))  # pairs longer than t
            prev = np.zeros(count, dtype=np.int64)
            for t in range(max_len):
                pos = first[: alive[t]] + t
                history = prev[: alive[t]] * history_weight  # int64, so the sum below widens
                tok = np.where(flip[pos], subs[pos], (clean[pos] + history) % content + FIRST_CONTENT_ID)
                tgt[pos] = tok
                prev = tok - FIRST_CONTENT_ID
    return Corpus(src, lengths, tgt, lengths, vocab)


def load_tsv_corpus(path, vocab: Vocab | None = None) -> Corpus:
    """Read a tab-separated parallel corpus with whitespace tokenization.

    When ``vocab`` is None a vocabulary is built from the file (training
    split); otherwise unknown words map to the unknown id (eval splits).
    The encoded pairs go flat through ``Corpus.from_pairs``.
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
    return Corpus.from_pairs([(vocab.encode(src), vocab.encode(tgt)) for src, tgt in rows], vocab)


def make_batch(corpus: Corpus, rows: np.ndarray) -> Batch:
    """The padded batch of the pairs at ``rows``, in that order.

    Every matrix is filled by array indexing: a row-major boolean mask
    assignment lays each side's gathered tokens row after row. The id
    matrices are int64 whatever the corpus's token width.
    """
    src_lens, content = corpus.source_lengths[rows], corpus.target_lengths[rows]
    b, m, n = len(rows), int(src_lens.max()), int(content.max()) + 2  # sentinels
    cols = np.arange(max(m, n))
    source_mask = cols[:m] < src_lens[:, None]
    source = np.full((b, m), PAD_ID, dtype=np.int64)
    source[source_mask] = corpus.sources[_gather(corpus.source_starts[rows], src_lens)]
    target = np.full((b, n), PAD_ID, dtype=np.int64)
    target[:, 0] = BOS_ID
    target[:, 1:][cols[: n - 1] < content[:, None]] = corpus.targets[_gather(corpus.target_starts[rows], content)]
    target[np.arange(b), content + 1] = EOS_ID
    tgt_lens = content + 2
    target_mask = cols[:n] < tgt_lens[:, None]
    return Batch(source, source_mask, target, target_mask, src_lens, tgt_lens)


def _packing(corpus: Corpus, token_budget: int) -> tuple[np.ndarray, list[int]]:
    """Each pair's row width, and where the pairs in ascending width split into batches.

    A batch closes before the row that would take rows x width past the
    budget, and ascending widths make a row's width its batch's widest.
    The split depends only on the sorted widths, so it is the same in
    every epoch; it is found one width at a time, not one pair at a time.
    """
    if not len(corpus):
        raise DataError("cannot batch an empty corpus")
    widths = corpus.row_widths()
    values, counts = np.unique(widths, return_counts=True)
    if values[-1] > token_budget:
        raise DataError(f"token budget {token_budget} below widest pair ({values[-1]} tokens)")
    cuts: list[int] = []
    rows = pos = 0  # rows in the open batch; pairs placed so far
    for width, n in zip(values.tolist(), counts.tolist()):
        fit = token_budget // width  # rows of this width a batch may hold
        if rows >= fit:
            cuts.append(pos)
            rows = 0
        # the open batch takes fit - rows of the n pairs, and new batches of fit take the rest
        cuts.extend(range(pos + fit - rows, pos + n, fit))
        rows, pos = (rows + n - 1) % fit + 1, pos + n
    return widths, cuts


def _epoch_plan(widths: np.ndarray, cuts: list[int], seed: int, epoch: int) -> list[np.ndarray]:
    rng = named_rng(seed, "batchify", epoch)
    order = rng.permutation(len(widths))
    groups = np.split(order[np.argsort(widths[order], kind="stable")], cuts)
    rng.shuffle(groups)
    return groups


def batchify(corpus: Corpus, token_budget: int, seed: int, epoch: int = 0) -> Iterator[Batch]:
    """Length-bucketed batches whose padded size never exceeds the budget.

    The cap is rows x widest row <= token_budget (the padded matrix is
    what costs memory and compute). Pair order is shuffled per epoch,
    grouped by ``Corpus.row_widths``, and batch order is shuffled again;
    everything is deterministic given (seed, epoch). A stable argsort of
    the shuffled widths orders the pairs, and rows are packed in ascending
    width, so a row's own width is its batch's widest. The checks and the
    plan run at the call; each batch is built when it is drawn.
    """
    widths, cuts = _packing(corpus, token_budget)
    return (make_batch(corpus, rows) for rows in _epoch_plan(widths, cuts, seed, epoch))


def batch_stream(corpus: Corpus, token_budget: int, seed: int, start: int = 0) -> Iterator[Batch]:
    """Endless batch iterator; each epoch reshuffles under its own stream.

    Every epoch holds the same number of batches, so ``start`` skips that
    many by seeking to its epoch and offset: no skipped batch is built.
    """
    widths, cuts = _packing(corpus, token_budget)
    epoch, skip = divmod(start, len(cuts) + 1)
    while True:
        for rows in _epoch_plan(widths, cuts, seed, epoch)[skip:]:
            yield make_batch(corpus, rows)
        epoch, skip = epoch + 1, 0


def split_corpus(corpus: Corpus, eval_fraction: float, seed: int) -> tuple[Corpus, Corpus]:
    """Deterministic train/eval split preserving the vocabulary; each side keeps corpus order."""
    if not 0.0 < eval_fraction < 1.0:
        raise DataError(f"eval fraction must lie in (0, 1), got {eval_fraction}")
    rng = named_rng(seed, "split")
    order = rng.permutation(len(corpus))
    n_eval = max(1, int(round(eval_fraction * len(corpus))))
    held = np.zeros(len(corpus), dtype=bool)
    held[order[:n_eval]] = True
    return corpus.take(np.flatnonzero(~held)), corpus.take(np.flatnonzero(held))
