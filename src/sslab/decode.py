"""Single-pass autoregressive inference: greedy and beam search.

Decoding is plain next-token prediction from the begin sentinel to the
end sentinel ``data.EOS_ID`` that ends every target; no sampling
machinery is involved. Beam search keeps each source's best finished
hypothesis apart from its beams, scored by sum-log-probability divided
by the length penalty ((5 + len) / 6) ** alpha, and stops once no live
beam could still beat it at its current length.

Both searches run against a step scorer ((prefix ids, source rows,
parents) -> next-token log probabilities), so tests can drive them with
arbitrary toy models. Both decode a batch of sources in lockstep, one
scorer call per step: greedy scores every unfinished row and keeps its
hypotheses in the prefix array it grows, beam search the live beams of
every source whose search has not stopped, held in one [sources, beams,
length] array that each step ranks along one axis; every call after the
first names each row's parent among the previous call's rows. The one
model adapter, ``decode_batch``, runs either search on the transformer
scorer, which decodes incrementally: it computes the encoder states
and their ``SourceState`` (cross-attention keys/values and source masks)
once per batch, keeps one state row per source that a source's beams
all read, and regathers that state only when the calls' sources change;
it keeps a self-attention key/value cache across calls, gathered by
those parents, and so projects one new position per row and step.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .data import BOS_ID, EOS_ID
from .model import (
    DecoderCache,
    ModelParams,
    decode_step_logits,
    embed_targets,
    encode,
    source_state,
)
from .tensor import no_grad


class DecodeError(ValueError):
    """Decode configuration is out of range."""


@dataclass
class DecodeConfig:
    beam_size: int = 4
    length_penalty: float = 0.6
    max_length: int = 80

    def __post_init__(self):
        if self.beam_size < 1:
            raise DecodeError(f"beam_size must be >= 1, got {self.beam_size}")
        if self.length_penalty < 0:
            raise DecodeError(f"length_penalty must be >= 0, got {self.length_penalty}")
        if self.max_length < 1:
            raise DecodeError(f"max_length must be >= 1, got {self.max_length}")


@dataclass
class BeamResult:
    tokens: list[int]  # generated tokens, end sentinel excluded
    score: float  # penalized score of the returned hypothesis
    finished: bool  # False when nothing finished within max_length


StepScorer = Callable[[np.ndarray, np.ndarray, np.ndarray | None], np.ndarray]
"""Maps prefix ids [K, t] (begin sentinel included), their source rows [K] and parents [K] to log-probs [K, V].

``parents[i]`` indexes the previous call's row that ``prefixes[i]`` extends; a search's first call passes ``None``."""


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def length_penalty(length: int, alpha: float) -> float:
    return ((5.0 + length) / 6.0) ** alpha


def transformer_scorer(params: ModelParams, source: np.ndarray, source_mask: np.ndarray) -> StepScorer:
    """Batch scorer: (prefixes [K, t], source rows [K], parents [K] | None) -> log-probs [K, V].

    Encoder states, every layer's cross-attention keys/values and the
    source masks are computed once here, in a base ``SourceState`` over the
    batch's rows. A call whose ``rows`` are runs of k equal rows (a beam
    search's k beams per source) reads one state row per run; k is 1 for
    greedy and for any rows that do not form equal runs. The state is
    regathered from the base only when those source rows differ from the
    previous call's. The per-hypothesis self-attention cache follows
    ``parents``: a call gathers it in that order, unless every row extends
    the previous call's row at its own index, and decodes only the newest
    position; that one gather follows greedy's shrinking alive set and beam
    reordering alike. A call without parents decodes its full prefixes
    from an empty cache through the same step function.
    """
    with no_grad():
        enc = encode(params, source, source_mask)
        base = source_state(params, enc, source_mask)
    state, state_rows = base, np.arange(source.shape[0])
    cache: DecoderCache | None = None
    previous = 0  # rows of the previous call

    def step(prefixes: np.ndarray, rows: np.ndarray, parents: np.ndarray | None) -> np.ndarray:
        nonlocal state, state_rows, cache, previous
        if parents is None:
            cache, new = DecoderCache.empty(params.config, len(rows)), prefixes
        else:
            if not np.array_equal(parents, np.arange(previous)):  # still the previous call's rows
                cache = cache.take(parents)
            new = prefixes[:, -1:]
        previous = len(rows)
        sources = rows[:: _run_length(rows)]
        if not np.array_equal(sources, state_rows):
            state, state_rows = base.take(sources), np.array(sources)
        logits = decode_step_logits(params, state, embed_targets(params, new), cache=cache)
        return _log_softmax(logits.data[:, -1, :])

    return step


def _run_length(rows: np.ndarray) -> int:
    """k when ``rows`` is runs of k equal consecutive values, else 1."""
    k = int(np.argmax(rows != rows[0])) or len(rows)  # the first run's length
    if k == 1 or len(rows) % k or not (rows.reshape(-1, k) == rows[::k, None]).all():
        return 1
    return k


def greedy_decode(step_fn: StepScorer, decode_cfg: DecodeConfig, sources: int) -> list[list[int]]:
    """Argmax continuation per step for ``sources`` rows until the end token or max_length.

    A finished row takes the end token in every later column of the
    prefix array, and each hypothesis is read up to its first end token.
    """
    prefixes = np.full((sources, 1), BOS_ID, dtype=np.int64)
    rows, parents = np.arange(sources), None  # the unfinished rows, and their parents among the previous call's
    for _ in range(decode_cfg.max_length):
        if not rows.size:
            break
        column = np.full(sources, EOS_ID, dtype=np.int64)
        column[rows] = step_fn(prefixes[rows], rows, parents).argmax(axis=-1)
        prefixes = np.concatenate([prefixes, column[:, None]], axis=1)
        parents = np.flatnonzero(column[rows] != EOS_ID)
        rows = rows[parents]
    return [h[: h.index(EOS_ID)] if EOS_ID in h else h for h in prefixes[:, 1:].tolist()]


def beam_search(
    step_fn: StepScorer,
    vocab_size: int,
    decode_cfg: DecodeConfig,
    sources: int = 1,
) -> list[BeamResult]:
    """Beam search over ``sources`` sources in lockstep, one result per source.

    Each step ranks a source's beam * vocab continuations by raw cumulative
    log-probability and keeps the top beam_size; candidates ending in the
    end token give up their slot, and the best of them (the first beam on
    ties) becomes the source's finish if it beats the finish so far. A
    source stops once it has a finish that its best live score, penalized
    at the current length, cannot beat; a source with none never stops.

    The live sources share one array state: their ids [n], their beams
    with the begin sentinel [n, k, t + 1] and raw scores [n, k]. This rests
    on one invariant: every live source holds the same number of beams k,
    one at the start and min(beam_size, k * (vocab_size - 1)) after each
    step, since the end token never takes a slot. So one ``step_fn`` call
    per step scores every live beam, in source order with their source
    rows and parents, and each source's row of candidates is ranked on its
    own; its result is that of a search over it alone.
    """
    alpha = decode_cfg.length_penalty
    live = np.arange(sources)
    beams = np.full((sources, 1, 1), BOS_ID, dtype=np.int64)
    scores = np.zeros((sources, 1))
    parent_rows = None  # each beam's parent among the previous step_fn call's rows
    best = np.full(sources, -np.inf)  # penalized score of each source's finish; finite once it has one
    finishes: list[list[int]] = [[] for _ in range(sources)]
    for t in range(decode_cfg.max_length):
        if not live.size:
            break
        n, k = scores.shape
        at = np.arange(n)[:, None]  # each source's row, for indexing along the beam or candidate axis
        logp = step_fn(beams.reshape(n * k, -1), np.repeat(live, k), parent_rows)
        total = scores[:, :, None] + logp.reshape(n, k, vocab_size)
        penalty = length_penalty(t + 1, alpha)
        # end-token continuations do not compete for a beam slot, so short
        # finishes with strong penalized scores cannot be crowded out by
        # raw-score ranking
        ends = total[:, :, EOS_ID] / penalty
        ending = ends.argmax(axis=1)
        for i in np.flatnonzero(ends[at[:, 0], ending] > best[live]):
            best[live[i]] = ends[i, ending[i]]
            finishes[live[i]] = beams[i, ending[i], 1:].tolist()
        total[:, :, EOS_ID] = -np.inf
        flat = total.reshape(n, -1)
        width = min(decode_cfg.beam_size, k * (vocab_size - 1))
        top = np.argpartition(-flat, width - 1, axis=1)[:, :width]
        top = top[at, np.argsort(-flat[at, top], axis=1)]
        parents, tokens = np.divmod(top, vocab_size)
        beams = np.concatenate([beams[at, parents], tokens[:, :, None]], axis=2)
        scores = flat[at, top]
        going = ~(np.isfinite(best[live]) & (scores.max(axis=1) / penalty <= best[live]))
        parent_rows = (at * k + parents)[going].reshape(-1)
        live, beams, scores = live[going], beams[going], scores[going]
    finished = np.isfinite(best)
    # a source that finished nothing is still live: its best live beam stands in
    for i, s in enumerate(live.tolist()):
        if not finished[s]:
            j = int(np.argmax(scores[i]))
            finishes[s] = beams[i, j, 1:].tolist()
            best[s] = scores[i, j] / length_penalty(len(finishes[s]), alpha)
    return [BeamResult(hyp, float(score), bool(done)) for hyp, score, done in zip(finishes, best, finished)]


def decode_batch(
    params: ModelParams, source: np.ndarray, source_mask: np.ndarray, decode_cfg: DecodeConfig
) -> list[list[int]]:
    """One hypothesis per source row: greedy at beam_size 1, else beam search's best.

    The batch's scorer is built once, by this module's ``transformer_scorer``
    as bound at call time, so each decoding step is one scorer call.
    """
    scorer, sources = transformer_scorer(params, source, source_mask), source.shape[0]
    if decode_cfg.beam_size == 1:
        return greedy_decode(scorer, decode_cfg, sources)
    return [r.tokens for r in beam_search(scorer, params.config.vocab_size, decode_cfg, sources)]
