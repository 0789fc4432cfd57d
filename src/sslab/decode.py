"""Single-pass autoregressive inference: greedy and beam search.

Decoding is plain next-token prediction from the begin sentinel onward;
no sampling machinery is involved. Beam search keeps finished hypotheses
in a separate pool scored by sum-log-probability divided by the length
penalty ((5 + len) / 6) ** alpha, and stops once no live beam could still
beat the best finished hypothesis at its current length.

Both searches run against a step scorer ((prefix ids, source rows) ->
next-token log probabilities), so tests can drive them with arbitrary toy
models. Both decode a batch of sources in lockstep, one scorer call per
step: greedy scores every unfinished row, beam search the live beams of
every source whose search has not stopped. The transformer adapter decodes
incrementally: it computes the encoder states and their ``SourceState``
(cross-attention keys/values and source masks) once per batch and
regathers that state only when the calls' source rows change; it keeps a
self-attention key/value cache across calls, gathered by parent at every
step, and so projects one new position per row and step instead of the
whole prefix.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .data import BOS_ID, EOS_ID
from .model import (
    DecoderCache,
    ModelConfig,
    ModelParams,
    decode_step_logits,
    embed_targets,
    encode,
    source_state,
)
from .tensor import no_grad


class DecodeError(ValueError):
    """Decode configuration is inconsistent with the model."""


@dataclass
class DecodeConfig:
    beam_size: int = 4
    length_penalty: float = 0.6
    max_length: int = 64
    eos_id: int = EOS_ID

    def __post_init__(self):
        if self.beam_size < 1:
            raise DecodeError(f"beam_size must be >= 1, got {self.beam_size}")
        if self.max_length < 1:
            raise DecodeError(f"max_length must be >= 1, got {self.max_length}")


@dataclass
class BeamResult:
    tokens: list[int]  # generated tokens, end sentinel excluded
    score: float  # penalized score of the returned hypothesis
    finished: bool  # False when nothing finished within max_length
    ranking: list[tuple[list[int], float]] | None = None  # finished pool, best first


StepScorer = Callable[[np.ndarray, np.ndarray], np.ndarray]
"""Maps prefix ids [K, t] (begin sentinel included) and their source rows [K] to log-probs [K, V]."""


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def length_penalty(length: int, alpha: float) -> float:
    return ((5.0 + length) / 6.0) ** alpha


def transformer_scorer(params: ModelParams, source: np.ndarray, source_mask: np.ndarray) -> StepScorer:
    """Batch scorer: (prefixes [K, t], source rows [K]) -> log-probs [K, V].

    Encoder states, every layer's cross-attention keys/values and the
    source masks are computed once here, in a base ``SourceState`` over the
    batch's rows. The state a call reads is regathered from that base only
    when the call's ``rows`` differ from the previous call's. The
    per-hypothesis self-attention cache follows the beams: each call finds
    every row's parent among the previous call's rows, keyed by (source
    row, prefix[:-1]), gathers the cache in that order and decodes only the
    newest position; that one gather follows greedy's shrinking alive set
    and beam reordering alike. A call in which some row has no parent (the
    first step, or a caller that jumps) decodes its full prefixes from an
    empty cache through the same step function.
    """
    with no_grad():
        enc = encode(params, source, source_mask)
        base = source_state(params, enc, source_mask)
    state, state_rows = base, np.arange(source.shape[0])
    cache: DecoderCache | None = None
    index: dict[tuple[int, bytes], int] = {}  # (source row, prefix) -> row of ``cache``

    def step(prefixes: np.ndarray, rows: np.ndarray) -> np.ndarray:
        nonlocal state, state_rows, cache, index
        parents = [index.get((int(r), p[:-1].tobytes()), -1) for r, p in zip(rows, prefixes)]
        if not np.array_equal(rows, state_rows):
            state, state_rows = base.take(rows), np.array(rows)
        if -1 in parents:
            cache, new = DecoderCache.empty(params.config, len(rows)), prefixes
        else:
            if parents != list(range(len(index))):
                cache = cache.take(np.array(parents))
            new = prefixes[:, -1:]
        logits = decode_step_logits(params, state, embed_targets(params, new), cache=cache)
        index = {(int(r), p.tobytes()): i for i, (r, p) in enumerate(zip(rows, prefixes))}
        return _log_softmax(logits.data[:, -1, :])

    return step


def _check_against_model(config: ModelConfig, decode_cfg: DecodeConfig) -> None:
    if decode_cfg.max_length > config.max_positions:
        raise DecodeError(
            f"max_length {decode_cfg.max_length} exceeds max_positions {config.max_positions}"
        )
    if not 0 <= decode_cfg.eos_id < config.vocab_size:
        raise DecodeError(f"eos_id {decode_cfg.eos_id} is outside the vocabulary of {config.vocab_size}")


def greedy_decode(
    params: ModelParams, source: np.ndarray, source_mask: np.ndarray, decode_cfg: DecodeConfig
) -> list[list[int]]:
    """Argmax continuation per step until the end token or max_length."""
    _check_against_model(params.config, decode_cfg)
    scorer = transformer_scorer(params, source, source_mask)
    b = source.shape[0]
    prefixes = np.full((b, 1), BOS_ID, dtype=np.int64)
    rows = np.arange(b)
    outputs: list[list[int]] = [[] for _ in range(b)]
    alive = np.ones(b, dtype=bool)
    for _ in range(decode_cfg.max_length):
        logp = scorer(prefixes[alive], rows[alive])
        next_tokens = logp.argmax(axis=-1)
        column = np.zeros(b, dtype=np.int64)
        column[alive] = next_tokens
        for i, row in enumerate(np.flatnonzero(alive)):
            tok = int(next_tokens[i])
            if tok == decode_cfg.eos_id:
                alive[row] = False
            else:
                outputs[row].append(tok)
        prefixes = np.concatenate([prefixes, column[:, None]], axis=1)
        if not alive.any():
            break
    return outputs


@dataclass
class _SourceSearch:
    """One source's beam state: live hypotheses, their raw scores, the finished pool."""

    beams: list[list[int]] = field(default_factory=lambda: [[]])
    scores: np.ndarray = field(default_factory=lambda: np.zeros(1))
    finished: list[tuple[list[int], float]] = field(default_factory=list)
    best_finished: float = -np.inf  # max penalized score in ``finished``

    def advance(self, logp: np.ndarray, t: int, vocab_size: int, decode_cfg: DecodeConfig) -> bool:
        """Extend every live beam by one token; True once the stopping rule fires."""
        alpha = decode_cfg.length_penalty
        eos = decode_cfg.eos_id
        total = self.scores[:, None] + logp  # [K, V]
        # every reachable end-token continuation joins the finished pool; it
        # does not compete for a beam slot, so short finishes with strong
        # penalized scores cannot be crowded out by raw-score ranking
        for beam_idx in range(len(self.beams)):
            raw = float(total[beam_idx, eos])
            if np.isfinite(raw):
                pen = raw / length_penalty(t + 1, alpha)
                self.finished.append((self.beams[beam_idx], pen))
                self.best_finished = max(self.best_finished, pen)
        total[:, eos] = -np.inf
        flat = total.reshape(-1)
        k = min(decode_cfg.beam_size, len(self.beams) * (vocab_size - 1))
        top = np.argpartition(-flat, k - 1)[:k]
        top = top[np.argsort(-flat[top])]
        new_beams: list[list[int]] = []
        new_scores = []
        for idx in top:
            beam_idx, tok = divmod(int(idx), vocab_size)
            new_beams.append(self.beams[beam_idx] + [tok])
            new_scores.append(float(flat[idx]))
        self.beams = new_beams
        self.scores = np.array(new_scores)
        if not self.finished:
            return False
        attainable = float(self.scores.max()) / length_penalty(t + 1, alpha)
        return attainable <= self.best_finished

    def result(self, decode_cfg: DecodeConfig) -> BeamResult:
        if self.finished:
            ranked = sorted(self.finished, key=lambda item: -item[1])[: decode_cfg.beam_size]
            ranking = [(list(toks), pen) for toks, pen in ranked]
            return BeamResult(*ranking[0], True, ranking)
        best = int(np.argmax(self.scores))
        pen = float(self.scores[best]) / length_penalty(len(self.beams[best]), decode_cfg.length_penalty)
        return BeamResult(list(self.beams[best]), pen, False, [(list(self.beams[best]), pen)])


def beam_search(
    step_fn: StepScorer,
    vocab_size: int,
    decode_cfg: DecodeConfig,
    sources: int = 1,
    bos_id: int = BOS_ID,
) -> list[BeamResult]:
    """Beam search over ``sources`` sources in lockstep, one result per source.

    Each step ranks a source's beam * vocab continuations by raw cumulative
    log-probability and keeps the top beam_size; candidates ending in the
    end token move to the finished pool (they give up their slot), the
    rest stay live. A live hypothesis is abandoned once its penalized
    score at the current length cannot beat the best finished one, and a
    source whose search has stopped leaves the later calls.

    At step t every live beam holds t tokens, so one ``step_fn`` call per
    step scores the live beams of every source, stacked in source order
    with their source rows; each source's slice is ranked on its own, so
    its result is that of a search over it alone.
    """
    searches = [_SourceSearch() for _ in range(sources)]
    live = list(range(sources))
    for t in range(decode_cfg.max_length):
        if not live:
            break
        prefixes = np.array([[bos_id] + b for s in live for b in searches[s].beams], dtype=np.int64)
        counts = [len(searches[s].beams) for s in live]
        logp = step_fn(prefixes, np.repeat(live, counts))
        still = []
        lo = 0
        for s, n in zip(live, counts):
            if not searches[s].advance(logp[lo : lo + n], t, vocab_size, decode_cfg):
                still.append(s)
            lo += n
        live = still
    return [s.result(decode_cfg) for s in searches]


def beam_decode(
    params: ModelParams, source: np.ndarray, source_mask: np.ndarray, decode_cfg: DecodeConfig
) -> list[BeamResult]:
    """Best finished hypothesis per source row (best unfinished as fallback).

    Every row's beams go through one lockstep ``beam_search``, so each
    decoding step is one scorer call for the whole batch.
    """
    _check_against_model(params.config, decode_cfg)
    scorer = transformer_scorer(params, source, source_mask)
    return beam_search(scorer, params.config.vocab_size, decode_cfg, source.shape[0])
