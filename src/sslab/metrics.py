"""Per-decoding-step precision measurement and a toy-scale corpus BLEU.

One routine counts hits per step over padded arrays. It truncates or
pads each hypothesis to its reference length (padding with the reserved
null token, which never matches) and accepts a token if it occurs
anywhere in the reference window centered on the same position.
Inference-side precision uses a small window; training-side (strict)
precision and token accuracy are the window-1 case. ``decode_corpus``
decodes a corpus in calls of at most ``BATCH_ROWS`` rows, the size the
CLI's teacher-forced pass uses too; ``in_corpus_order`` runs both over
``length_sorted_batches``, so a batch pads only to its own widest source
and a decode stops near its own longest one. ``empirical_schedule`` turns
an inference-side curve into an ``empirical`` schedule, and ``gap_curve``
subtracts an inference-side curve from a training-side one; ``sslab
gap-curve`` writes the gap and the schedule next to the two curves.

The BLEU here is a simplified corpus score for synthetic tasks; it is
not comparable to official evaluation scripts.
"""

from __future__ import annotations

import warnings
from collections import Counter
from dataclasses import dataclass
from math import exp, log
from typing import Callable, Iterator, Sequence

import numpy as np

from .data import Batch, Corpus, NULL_ID, make_batch
from .decode import DecodeConfig, decode_batch
from .model import ModelParams
from .schedules import Family, ScheduleSpec

Tokens = Sequence[int]
BATCH_ROWS = 64  # rows per model call when a corpus is decoded or teacher-forced


class MetricsError(ValueError):
    """Inputs cannot be scored."""


@dataclass
class StepCurve:
    """A per-decoding-step series with the sample count behind each value."""

    steps: list[int]
    values: list[float]
    counts: list[int]

    def __post_init__(self):
        if not (len(self.steps) == len(self.values) == len(self.counts)):
            raise MetricsError("steps, values and counts must have equal lengths")
        if any(b <= a for a, b in zip(self.steps, self.steps[1:])):
            raise MetricsError("steps must be strictly increasing")


def _check_pairs(hypotheses, references):
    if len(hypotheses) != len(references):
        raise MetricsError(
            f"{len(hypotheses)} hypotheses vs {len(references)} references"
        )
    if not references:
        raise MetricsError("empty corpus")


def _step_counts(
    hypotheses: Sequence[Tokens], references: Sequence[Tokens], window: int
) -> tuple[np.ndarray, np.ndarray]:
    """Windowed hit and reference-token counts per step, over padded arrays.

    Hypotheses are truncated or padded with the null token to the longest
    reference; a hypothesis token hits when it equals any reference token
    in its window. Null tokens and reference padding never match.
    """
    _check_pairs(hypotheses, references)
    n, width = len(references), max(len(r) for r in references)
    before = (window - 1) // 2
    hyp = np.full((n, width), NULL_ID, dtype=np.int64)
    ref = np.full((n, width + window - 1), NULL_ID, dtype=np.int64)
    valid = np.zeros((n, width), dtype=bool)
    for i, (h, r) in enumerate(zip(hypotheses, references)):
        h = h[:width]
        hyp[i, : len(h)] = h
        ref[i, before : before + len(r)] = r
        valid[i, : len(r)] = True
    hit = np.zeros((n, width), dtype=bool)
    for shift in range(window):
        hit |= hyp == ref[:, shift : shift + width]
    hit &= valid & (hyp != NULL_ID)
    return hit.sum(axis=0), valid.sum(axis=0)


def _precision_curve(hypotheses: Sequence[Tokens], references: Sequence[Tokens], window: int) -> StepCurve:
    # Python ints and floats, not numpy scalars, so CSV reprs stay plain
    hits, totals = (a.tolist() for a in _step_counts(hypotheses, references, window))
    steps = [t for t, total in enumerate(totals) if total]
    return StepCurve(steps, [hits[t] / totals[t] for t in steps], [totals[t] for t in steps])


def strict_precision_per_step(hypotheses: Sequence[Tokens], references: Sequence[Tokens]) -> StepCurve:
    """Exact position-by-position match rate at each step."""
    return _precision_curve(hypotheses, references, window=1)


def fuzzy_precision_per_step(
    hypotheses: Sequence[Tokens], references: Sequence[Tokens], window: int = 3
) -> StepCurve:
    """Windowed unigram match rate after truncating/padding to reference length.

    A hypothesis token at step t counts as correct when it occurs anywhere
    in the reference window centered on t (clipped at the boundaries).
    Null padding never matches, and window=1 is the strict protocol.
    """
    if window < 1 or window % 2 == 0:
        raise MetricsError(f"window must be odd and >= 1, got {window}")
    return _precision_curve(hypotheses, references, window)


def empirical_schedule(curve: StepCurve) -> ScheduleSpec:
    """One minus ``curve`` per decoding step as an ``empirical`` schedule.

    The table covers steps 0 to the last observed step; steps with no
    samples are linearly interpolated from their neighbours.
    """
    if not curve.steps:
        raise MetricsError("an empirical schedule needs at least one observed step")
    steps = np.arange(curve.steps[-1] + 1)
    errors = np.interp(steps, curve.steps, [1.0 - v for v in curve.values])
    return ScheduleSpec(Family.EMPIRICAL, empirical_table=tuple(errors.tolist()))


def gap_curve(train: StepCurve, infer: StepCurve) -> StepCurve:
    """Training-side minus inference-side precision per step, as ``gap.csv`` holds it.

    Both curves must count against the same references, so they share
    their steps and counts.
    """
    if train.steps != infer.steps or train.counts != infer.counts:
        raise MetricsError("a gap needs two curves over the same steps and counts")
    return StepCurve(train.steps, [tv - iv for tv, iv in zip(train.values, infer.values)], train.counts)


def token_accuracy(hypotheses: Sequence[Tokens], references: Sequence[Tokens]) -> float:
    """Micro-averaged strict match over all reference positions."""
    hits, totals = _step_counts(hypotheses, references, window=1)
    return int(hits.sum()) / int(totals.sum())


def length_sorted_batches(corpus: Corpus, per_batch: int) -> Iterator[tuple[np.ndarray, Batch]]:
    """(corpus indices, their batch) of ``per_batch`` pairs each, in ascending source length.

    The order is a stable argsort of the source lengths, so ties keep
    corpus order; each batch is built when it is drawn.
    """
    order = np.argsort(corpus.source_lengths, kind="stable")
    for lo in range(0, len(order), per_batch):
        indices = order[lo : lo + per_batch]
        yield indices, make_batch(corpus, indices)


def in_corpus_order(corpus: Corpus, per_batch: int, rows_of: Callable[[Batch], list[list[int]]]) -> list[list[int]]:
    """``rows_of``'s rows, one per pair, over the ``length_sorted_batches`` of ``corpus``, put back in corpus order."""
    out: list[list[int]] = [[] for _ in range(len(corpus))]
    for indices, batch in length_sorted_batches(corpus, per_batch):
        for i, row in zip(indices.tolist(), rows_of(batch)):
            out[i] = row
    return out


def decode_corpus(params: ModelParams, corpus: Corpus, decode_cfg: DecodeConfig) -> list[list[int]]:
    """One hypothesis per source, in corpus order, decoded through ``decode.decode_batch``.

    ``BATCH_ROWS`` caps the rows of each scorer call: a batch holds
    ``BATCH_ROWS // beam_size`` sources (at least one), since each source
    holds up to ``beam_size`` live beams; greedy decodes ``BATCH_ROWS``.
    """
    return in_corpus_order(
        corpus, max(1, BATCH_ROWS // decode_cfg.beam_size),
        lambda batch: decode_batch(params, batch.source, batch.source_mask, decode_cfg),
    )


def _ngram_counts(tokens: Tokens, n: int) -> Counter:
    return Counter(tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1))


def corpus_bleu_lite(
    hypotheses: Sequence[Tokens], references: Sequence[Tokens], max_n: int = 4
) -> float:
    """Geometric mean of clipped n-gram precisions with brevity penalty.

    Zero-count precisions for n >= 2 get add-one smoothing (short toy
    corpora would otherwise collapse to zero); a zero unigram precision
    keeps the score at 0. Not comparable to official BLEU scripts.
    """
    _check_pairs(hypotheses, references)
    hyp_len = sum(len(h) for h in hypotheses)
    ref_len = sum(len(r) for r in references)
    if hyp_len == 0:
        warnings.warn("empty hypothesis corpus scores 0", stacklevel=2)
        return 0.0
    log_sum = 0.0
    for n in range(1, max_n + 1):
        clipped = total = 0
        for hyp, ref in zip(hypotheses, references):
            counts = _ngram_counts(hyp, n)
            if not counts:
                continue
            ref_counts = _ngram_counts(ref, n)
            total += sum(counts.values())
            clipped += sum(min(c, ref_counts[g]) for g, c in counts.items())
        if n >= 2 and clipped == 0:
            precision = 1.0 / (total + 1.0)
        elif clipped == 0 or total == 0:
            return 0.0
        else:
            precision = clipped / total
        log_sum += log(precision) / max_n
    brevity = 1.0 if hyp_len >= ref_len else exp(1.0 - ref_len / hyp_len)
    return brevity * exp(log_sum)


def write_curve_csv(path, curve: StepCurve) -> None:
    """CSV with the step/value/count schema shared by all curve outputs."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("step,value,count\n")
        for s, v, c in zip(curve.steps, curve.values, curve.counts):
            fh.write(f"{s},{v!r},{c}\n")
