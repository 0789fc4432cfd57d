"""Post-norm encoder-decoder transformer with sinusoidal absolute positions.

The decoder exposes an embedding-level entry point so a trainer can feed
mixtures of golden and predicted token embeddings; the ids-based teacher
forcing loss is the plain path through the same code. Padding keys are
masked additively before the softmax and zeroed multiplicatively after
it, so pad positions receive exactly zero attention weight.

Dropout is applied to embeddings and to each sublayer output before its
residual (attention weights are left undropped to keep the RNG surface
small). Each full pass consumes one named dropout stream.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .data import Batch
from .tensor import (
    Tensor,
    add,
    constant,
    cross_entropy_label_smoothed,
    dropout,
    embedding_lookup,
    layer_norm,
    matmul,
    mul,
    no_grad,
    parameter,
    relu,
    reshape,
    softmax,
    transpose,
)

NEG_INF = -1e9


class LengthError(ValueError):
    """Sequence exceeds the positional table of the model."""


@dataclass
class ModelConfig:
    vocab_size: int
    hidden_size: int = 64
    filter_size: int = 128
    num_heads: int = 4
    num_encoder_layers: int = 2
    num_decoder_layers: int = 2
    dropout: float = 0.1
    label_smoothing: float = 0.1
    max_positions: int = 256
    share_embeddings: bool = True
    share_softmax_weights: bool = True
    param_dtype: str = "float32"

    def __post_init__(self):
        if self.hidden_size % self.num_heads != 0:
            raise ValueError(
                f"hidden_size {self.hidden_size} not divisible by num_heads {self.num_heads}"
            )
        if self.param_dtype not in ("float32", "float64"):
            raise ValueError(f"param_dtype must be float32 or float64, got {self.param_dtype}")

    @property
    def np_dtype(self):
        return np.float32 if self.param_dtype == "float32" else np.float64


def sinusoidal_positions(max_positions: int, hidden: int, dtype) -> np.ndarray:
    pos = np.arange(max_positions, dtype=np.float64)[:, None]
    dim = np.arange(0, hidden, 2, dtype=np.float64)[None, :]
    angles = pos / np.power(10000.0, dim / hidden)
    table = np.zeros((max_positions, hidden), dtype=np.float64)
    table[:, 0::2] = np.sin(angles)
    table[:, 1::2] = np.cos(angles[:, : hidden // 2])
    return table.astype(dtype)


@dataclass
class ModelParams:
    """All learnable weights plus the fixed positional table.

    Tied weights (shared embeddings, shared softmax projection) are one
    Tensor object reachable under one canonical name, never copies.
    """

    params: dict[str, Tensor]
    pos_table: np.ndarray
    config: ModelConfig

    def __getitem__(self, name: str) -> Tensor:
        return self.params[name]

    def src_embedding(self) -> Tensor:
        return self.params["src_embed" if "src_embed" in self.params else "embed"]

    def tgt_embedding(self) -> Tensor:
        return self.params["tgt_embed" if "tgt_embed" in self.params else "embed"]

    def all_tensors(self) -> list[Tensor]:
        return list(self.params.values())

    def as_arrays(self) -> dict[str, np.ndarray]:
        return {name: t.data for name, t in self.params.items()}

    def load_arrays(self, arrays: Mapping[str, np.ndarray]) -> None:
        missing = set(self.params) - set(arrays)
        if missing:
            raise KeyError(f"checkpoint is missing parameters: {sorted(missing)}")
        for name, t in self.params.items():
            arr = np.asarray(arrays[name], dtype=t.data.dtype)
            if arr.shape != t.data.shape:
                raise ValueError(f"{name}: shape {arr.shape} != expected {t.data.shape}")
            t.data = arr.copy()


def _attn_names(prefix: str) -> list[str]:
    return [f"{prefix}/{w}" for w in ("wq", "wk", "wv", "wo")]


def init_params(config: ModelConfig, rng: np.random.Generator) -> ModelParams:
    """Uniform(+-1/sqrt(hidden)) matrices, zero biases, unit layer-norm gains."""
    h, f, v = config.hidden_size, config.filter_size, config.vocab_size
    dtype = config.np_dtype
    bound = 1.0 / math.sqrt(h)

    params: dict[str, Tensor] = {}

    def mat(name, rows, cols, scale=bound):
        params[name] = parameter(rng.uniform(-scale, scale, size=(rows, cols)), dtype=dtype)

    def vec(name, size, value=0.0):
        params[name] = parameter(np.full(size, value), dtype=dtype)

    def attn_block(prefix):
        for w in ("wq", "wk", "wv", "wo"):
            mat(f"{prefix}/{w}", h, h)
        for b in ("bq", "bk", "bv", "bo"):
            vec(f"{prefix}/{b}", h)

    def ln_block(prefix):
        vec(f"{prefix}/gain", h, 1.0)
        vec(f"{prefix}/bias", h, 0.0)

    def ffn_block(prefix):
        mat(f"{prefix}/w1", h, f)
        vec(f"{prefix}/b1", f)
        mat(f"{prefix}/w2", f, h, scale=1.0 / math.sqrt(f))
        vec(f"{prefix}/b2", h)

    # half-scale embeddings keep untrained output distributions near
    # uniform (the table doubles as the output projection when tied)
    if config.share_embeddings:
        mat("embed", v, h, scale=0.5 * bound)
    else:
        mat("src_embed", v, h, scale=0.5 * bound)
        mat("tgt_embed", v, h, scale=0.5 * bound)
    if not config.share_softmax_weights:
        mat("out_proj", h, v, scale=0.5 * bound)

    for i in range(config.num_encoder_layers):
        attn_block(f"enc{i}/attn")
        ln_block(f"enc{i}/attn_ln")
        ffn_block(f"enc{i}/ffn")
        ln_block(f"enc{i}/ffn_ln")
    for i in range(config.num_decoder_layers):
        attn_block(f"dec{i}/self_attn")
        ln_block(f"dec{i}/self_ln")
        attn_block(f"dec{i}/cross_attn")
        ln_block(f"dec{i}/cross_ln")
        ffn_block(f"dec{i}/ffn")
        ln_block(f"dec{i}/ffn_ln")

    pos = sinusoidal_positions(config.max_positions, h, dtype)
    return ModelParams(params, pos, config)


def _linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """[.., D_in] @ [D_in, D_out] + bias, flattened for one BLAS call."""
    lead = x.data.shape[:-1]
    flat = reshape(x, (-1, x.data.shape[-1]))
    out = add(matmul(flat, w), b)
    return reshape(out, (*lead, w.data.shape[-1]))


def _split_heads(x: Tensor, num_heads: int) -> Tensor:
    b, t, h = x.data.shape
    return transpose(reshape(x, (b, t, num_heads, h // num_heads)), (0, 2, 1, 3))


def _merge_heads(x: Tensor) -> Tensor:
    b, n, t, d = x.data.shape
    return reshape(transpose(x, (0, 2, 1, 3)), (b, t, n * d))


def _project_kv(params: ModelParams, prefix: str, keys_values: Tensor) -> tuple[Tensor, Tensor]:
    """Per-head keys and values [B, heads, t, head_dim] of one attention block."""
    heads = params.config.num_heads
    k = _split_heads(_linear(keys_values, params[f"{prefix}/wk"], params[f"{prefix}/bk"]), heads)
    v = _split_heads(_linear(keys_values, params[f"{prefix}/wv"], params[f"{prefix}/bv"]), heads)
    return k, v


def _attention(
    params: ModelParams,
    prefix: str,
    queries: Tensor,
    keys_values: Tensor | None,
    additive_mask: np.ndarray | None,
    key_mask: np.ndarray | None,
    kv: tuple[Tensor, Tensor] | None = None,
) -> Tensor:
    """Multi-head attention; ``kv`` supplies projected keys/values in place of ``keys_values``."""
    cfg = params.config
    q = _split_heads(_linear(queries, params[f"{prefix}/wq"], params[f"{prefix}/bq"]), cfg.num_heads)
    # projected after the queries: tape order fixes the order in which
    # gradients accumulate, so training stays bit-identical
    k, v = _project_kv(params, prefix, keys_values) if kv is None else kv
    d = cfg.hidden_size // cfg.num_heads
    scores = matmul(q, transpose(k, (0, 1, 3, 2)))
    scores = mul(scores, constant(np.asarray(1.0 / math.sqrt(d), dtype=scores.dtype)))
    if additive_mask is not None:
        scores = add(scores, constant(additive_mask.astype(scores.data.dtype)))
    weights = softmax(scores, axis=-1)
    if key_mask is not None:
        # exact zero on pad keys, including rows where every key is padding
        weights = mul(weights, constant(key_mask.astype(weights.data.dtype)))
    ctx = _merge_heads(matmul(weights, v))
    return _linear(ctx, params[f"{prefix}/wo"], params[f"{prefix}/bo"])


def _post_norm(params: ModelParams, prefix: str, x: Tensor, sub: Tensor, rng, training) -> Tensor:
    sub = dropout(sub, params.config.dropout, rng, training) if rng is not None else sub
    return layer_norm(add(x, sub), params[f"{prefix}/gain"], params[f"{prefix}/bias"])


def _ffn(params: ModelParams, prefix: str, x: Tensor) -> Tensor:
    inner = relu(_linear(x, params[f"{prefix}/w1"], params[f"{prefix}/b1"]))
    return _linear(inner, params[f"{prefix}/w2"], params[f"{prefix}/b2"])


def _check_length(config: ModelConfig, length: int) -> None:
    if length > config.max_positions:
        raise LengthError(f"sequence length {length} exceeds max_positions {config.max_positions}")


def _embed_and_position(params: ModelParams, emb: Tensor, rng, training, offset: int = 0) -> Tensor:
    cfg = params.config
    end = offset + emb.data.shape[1]
    _check_length(cfg, end)
    scale = constant(np.asarray(math.sqrt(cfg.hidden_size), dtype=cfg.np_dtype))
    x = add(mul(emb, scale), constant(params.pos_table[None, offset:end, :]))
    if rng is not None:
        x = dropout(x, cfg.dropout, rng, training)
    return x


def encode(
    params: ModelParams,
    config: ModelConfig,
    src_ids: np.ndarray,
    src_mask: np.ndarray,
    rng: np.random.Generator | None = None,
    training: bool = False,
) -> Tensor:
    """Contextual states [B, m, H]; padding keys are never attended to."""
    emb = embedding_lookup(params.src_embedding(), src_ids)
    x = _embed_and_position(params, emb, rng, training)
    key_mask = src_mask[:, None, None, :].astype(config.np_dtype)
    additive = np.where(src_mask[:, None, None, :], 0.0, NEG_INF)
    for i in range(config.num_encoder_layers):
        attn = _attention(params, f"enc{i}/attn", x, x, additive, key_mask)
        x = _post_norm(params, f"enc{i}/attn_ln", x, attn, rng, training)
        x = _post_norm(params, f"enc{i}/ffn_ln", x, _ffn(params, f"enc{i}/ffn", x), rng, training)
    return x


def embed_targets(params: ModelParams, ids: np.ndarray) -> Tensor:
    """Raw target-side token embeddings (no scaling, no positions)."""
    return embedding_lookup(params.tgt_embedding(), ids)


def output_logits(params: ModelParams, x: Tensor) -> Tensor:
    """Project hidden states to the vocabulary; tied weights reuse the embedding."""
    cfg = params.config
    if cfg.share_softmax_weights:
        w = transpose(params.tgt_embedding(), (1, 0))
    else:
        w = params["out_proj"]
    lead = x.data.shape[:-1]
    flat = reshape(x, (-1, cfg.hidden_size))
    return reshape(matmul(flat, w), (*lead, cfg.vocab_size))


@dataclass
class DecoderCache:
    """Attention keys and values for incremental decoding, per decoder layer.

    Arrays are plain numpy [rows, heads, length, head_dim] and never enter
    a tape. ``cross`` holds each layer's projection of the encoder states;
    ``self_kv`` holds the self-attention keys/values of the ``offset``
    decoder positions computed so far.
    """

    cross: list[tuple[np.ndarray, np.ndarray]]
    self_kv: list[tuple[np.ndarray, np.ndarray]]
    offset: int = 0

    def take(self, rows: np.ndarray) -> DecoderCache:
        """The cache of ``rows`` in that order; rows may repeat."""

        def pick(pairs):
            return [(k[rows], v[rows]) for k, v in pairs]

        return DecoderCache(pick(self.cross), pick(self.self_kv), self.offset)


def decoder_cache(params: ModelParams, config: ModelConfig, encoder_states: Tensor) -> DecoderCache:
    """An empty self-attention cache plus every layer's cross-attention keys/values."""
    with no_grad():
        cross = [
            tuple(t.data for t in _project_kv(params, f"dec{i}/cross_attn", encoder_states))
            for i in range(config.num_decoder_layers)
        ]
    self_kv = [(k[:, :, :0], v[:, :, :0]) for k, v in cross]
    return DecoderCache(cross, self_kv)


def decode_step_logits(
    params: ModelParams,
    config: ModelConfig,
    decoder_embeddings: Tensor,
    encoder_states: Tensor | None,
    src_mask: np.ndarray,
    rng: np.random.Generator | None = None,
    training: bool = False,
    cache: DecoderCache | None = None,
) -> Tensor:
    """Next-token logits [B, n, V] from embedding-level decoder inputs.

    Position t attends only to decoder positions <= t, so perturbing the
    input at t can change logits at positions >= t but never earlier ones.

    Without ``cache`` the inputs are the whole prefix. With a cache the
    inputs are the n positions after ``cache.offset``: only they are
    projected, their self-attention keys/values are appended to the cache,
    and cross-attention reads the cached keys/values instead of
    ``encoder_states`` (which may be None). The cached path records
    nothing on the tape.
    """
    context = encoder_states.data.shape if cache is None else src_mask.shape
    if decoder_embeddings.data.shape[0] != context[0]:
        raise ValueError(
            f"batch mismatch: decoder {decoder_embeddings.data.shape} vs encoder {context}"
        )
    with no_grad() if cache is not None else contextlib.nullcontext():
        offset = 0 if cache is None else cache.offset
        n = decoder_embeddings.data.shape[1]
        x = _embed_and_position(params, decoder_embeddings, rng, training, offset)
        causal = np.triu(np.full((1, 1, n, offset + n), NEG_INF), k=offset + 1)
        cross_key_mask = src_mask[:, None, None, :].astype(config.np_dtype)
        cross_additive = np.where(src_mask[:, None, None, :], 0.0, NEG_INF)
        for i in range(config.num_decoder_layers):
            self_kv = cross_kv = None
            if cache is not None:
                k_new, v_new = _project_kv(params, f"dec{i}/self_attn", x)
                k_old, v_old = cache.self_kv[i]
                cache.self_kv[i] = (
                    np.concatenate([k_old, k_new.data], axis=2),
                    np.concatenate([v_old, v_new.data], axis=2),
                )
                self_kv = tuple(constant(a) for a in cache.self_kv[i])
                cross_kv = tuple(constant(a) for a in cache.cross[i])
            self_attn = _attention(params, f"dec{i}/self_attn", x, x, causal, None, self_kv)
            x = _post_norm(params, f"dec{i}/self_ln", x, self_attn, rng, training)
            cross = _attention(
                params, f"dec{i}/cross_attn", x, encoder_states, cross_additive, cross_key_mask, cross_kv
            )
            x = _post_norm(params, f"dec{i}/cross_ln", x, cross, rng, training)
            x = _post_norm(params, f"dec{i}/ffn_ln", x, _ffn(params, f"dec{i}/ffn", x), rng, training)
        if cache is not None:
            cache.offset += n
        return output_logits(params, x)


def teacher_forcing_loss(
    params: ModelParams,
    config: ModelConfig,
    batch: Batch,
    enc_rng: np.random.Generator | None = None,
    dec_rng: np.random.Generator | None = None,
    training: bool = True,
) -> Tensor:
    """Label-smoothed next-token loss with golden prefixes as decoder input."""
    if batch.size == 0:
        raise ValueError("empty batch")
    enc = encode(params, config, batch.source, batch.source_mask, enc_rng, training)
    emb = embed_targets(params, batch.decoder_inputs())
    logits = decode_step_logits(params, config, emb, enc, batch.source_mask, dec_rng, training)
    return cross_entropy_label_smoothed(
        logits, batch.labels(), config.label_smoothing, batch.label_mask()
    )


def teacher_forced_logits(params: ModelParams, config: ModelConfig, batch: Batch) -> np.ndarray:
    """Evaluation-mode logits at every golden-prefix position (no recording)."""
    with no_grad():
        enc = encode(params, config, batch.source, batch.source_mask)
        emb = embed_targets(params, batch.decoder_inputs())
        logits = decode_step_logits(params, config, emb, enc, batch.source_mask)
    return logits.data
