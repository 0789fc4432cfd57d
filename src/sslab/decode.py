"""Single-pass autoregressive inference: greedy and beam search.

Decoding is plain next-token prediction from the begin sentinel onward;
no sampling machinery is involved. Beam search keeps finished hypotheses
in a separate pool scored by sum-log-probability divided by the length
penalty ((5 + len) / 6) ** alpha, and stops once no live beam could still
beat the best finished hypothesis at its current length.

Both searches run against a step scorer (prefix ids -> next-token log
probabilities), so tests can drive them with arbitrary toy models. The
transformer adapter decodes incrementally: it computes the encoder states
and cross-attention keys/values once per batch, keeps a self-attention
key/value cache across calls, and so projects one new position per row
and step instead of the whole prefix.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .data import BOS_ID, EOS_ID
from .model import (
    ModelConfig,
    ModelParams,
    decode_step_logits,
    decoder_cache,
    embed_targets,
    encode,
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


StepScorer = Callable[[np.ndarray], np.ndarray]
"""Maps prefix ids [K, t] (begin sentinel included) to log-probs [K, V]."""


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def length_penalty(length: int, alpha: float) -> float:
    return ((5.0 + length) / 6.0) ** alpha


def transformer_scorer(
    params: ModelParams,
    config: ModelConfig,
    source: np.ndarray,
    source_mask: np.ndarray,
) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
    """Batch scorer: (prefixes [K, t], source rows [K]) -> log-probs [K, V].

    Encoder states and every layer's cross-attention keys/values are
    computed once here. Each call finds every row's parent among the
    previous call's rows, keyed by (source row, prefix[:-1]), gathers the
    self-attention cache in that order and decodes only the newest
    position; that one gather follows greedy's shrinking alive set and
    beam reordering alike. A call in which some row has no parent (the
    first step, or a caller that jumps) decodes its full prefixes from an
    empty cache through the same step function.
    """
    with no_grad():
        enc = encode(params, config, source, source_mask)
    empty = decoder_cache(params, config, enc)
    cache = empty
    index: dict[tuple[int, bytes], int] = {}  # (source row, prefix) -> row of ``cache``

    def step(prefixes: np.ndarray, rows: np.ndarray) -> np.ndarray:
        nonlocal cache, index
        parents = [index.get((int(r), p[:-1].tobytes()), -1) for r, p in zip(rows, prefixes)]
        if -1 in parents:
            cache, new = empty.take(rows), prefixes
        else:
            if parents != list(range(len(index))):
                cache = cache.take(np.array(parents))
            new = prefixes[:, -1:]
        logits = decode_step_logits(
            params, config, embed_targets(params, new), None, source_mask[rows], cache=cache
        )
        index = {(int(r), p.tobytes()): i for i, (r, p) in enumerate(zip(rows, prefixes))}
        return _log_softmax(logits.data[:, -1, :])

    return step


def _check_lengths(config: ModelConfig, decode_cfg: DecodeConfig) -> None:
    if decode_cfg.max_length > config.max_positions:
        raise DecodeError(
            f"max_length {decode_cfg.max_length} exceeds max_positions {config.max_positions}"
        )


def greedy_decode(
    params: ModelParams,
    config: ModelConfig,
    source: np.ndarray,
    source_mask: np.ndarray,
    decode_cfg: DecodeConfig,
) -> list[list[int]]:
    """Argmax continuation per step until the end token or max_length."""
    _check_lengths(config, decode_cfg)
    scorer = transformer_scorer(params, config, source, source_mask)
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


def beam_search(
    step_fn: StepScorer,
    vocab_size: int,
    decode_cfg: DecodeConfig,
    bos_id: int = BOS_ID,
) -> BeamResult:
    """Beam search over one source with a caller-supplied step scorer.

    Each step ranks all beam * vocab continuations by raw cumulative
    log-probability and keeps the top beam_size; candidates ending in the
    end token move to the finished pool (they give up their slot), the
    rest stay live. A live hypothesis is abandoned once its penalized
    score at the current length cannot beat the best finished one.
    """
    alpha = decode_cfg.length_penalty
    eos = decode_cfg.eos_id
    beams: list[list[int]] = [[]]
    scores = np.zeros(1)
    finished: list[tuple[list[int], float]] = []
    for t in range(decode_cfg.max_length):
        prefixes = np.array([[bos_id] + b for b in beams], dtype=np.int64)
        logp = step_fn(prefixes)
        total = scores[:, None] + logp  # [K, V]
        # every reachable end-token continuation joins the finished pool; it
        # does not compete for a beam slot, so short finishes with strong
        # penalized scores cannot be crowded out by raw-score ranking
        for beam_idx in range(len(beams)):
            raw = float(total[beam_idx, eos])
            if np.isfinite(raw):
                finished.append((beams[beam_idx], raw / length_penalty(t + 1, alpha)))
        total[:, eos] = -np.inf
        flat = total.reshape(-1)
        k = min(decode_cfg.beam_size, len(beams) * (vocab_size - 1))
        top = np.argpartition(-flat, k - 1)[:k]
        top = top[np.argsort(-flat[top])]
        new_beams: list[list[int]] = []
        new_scores = []
        for idx in top:
            beam_idx, tok = divmod(int(idx), vocab_size)
            new_beams.append(beams[beam_idx] + [tok])
            new_scores.append(float(flat[idx]))
        beams = new_beams
        scores = np.array(new_scores)
        if finished:
            best_finished = max(pen for _, pen in finished)
            attainable = float(scores.max()) / length_penalty(t + 1, alpha)
            if attainable <= best_finished:
                break
    if finished:
        ranked = sorted(finished, key=lambda item: -item[1])[: decode_cfg.beam_size]
        ranking = [(list(toks), pen) for toks, pen in ranked]
        return BeamResult(*ranking[0], True, ranking)
    best = int(np.argmax(scores))
    pen = float(scores[best]) / length_penalty(len(beams[best]), alpha)
    return BeamResult(list(beams[best]), pen, False, [(list(beams[best]), pen)])


def beam_decode(
    params: ModelParams,
    config: ModelConfig,
    source: np.ndarray,
    source_mask: np.ndarray,
    decode_cfg: DecodeConfig,
) -> list[BeamResult]:
    """Best finished hypothesis per source row (best unfinished as fallback)."""
    _check_lengths(config, decode_cfg)
    scorer = transformer_scorer(params, config, source, source_mask)
    results = []
    for row in range(source.shape[0]):
        rows = np.full(decode_cfg.beam_size, row)

        def step(prefixes: np.ndarray) -> np.ndarray:
            return scorer(prefixes, rows[: prefixes.shape[0]])

        results.append(beam_search(step, config.vocab_size, decode_cfg))
    return results
