"""Post-norm encoder-decoder transformer with sinusoidal absolute positions.

Positions have a closed form, so each pass computes the rows of the
offsets it covers, at any offset: the model has no position limit.

The decoder exposes an embedding-level entry point so a trainer can feed
mixtures of golden and predicted token embeddings; the ids-based teacher
forcing loss is the plain path through the same code. One embedding table
serves the source and target sides and, transposed, is the output
projection; no configuration unties them. Padding keys are masked
additively before the softmax and zeroed multiplicatively after it, so
pad positions receive exactly zero attention weight.

Dropout is applied to embeddings and to each sublayer output before its
residual (attention weights are left undropped to keep the RNG surface
small). Each full pass consumes one named dropout stream; a pass given no
stream runs without dropout, which is evaluation mode. Every function
that takes ``params`` reads the model's configuration from
``params.config``.

Memory: a recording pass keeps on the tape only the arrays its backward
rules read (see ``tensor.py``); a pass under ``no_grad`` keeps nothing
there, so the code here drops each activation at its last read. The
attention score chain runs under one name, so each step frees its input,
and a sublayer's output goes straight into its residual norm. An
evaluation pass then holds at most two score-sized arrays at a time.
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
    param_dtype: str = "float32"

    def __post_init__(self):
        for name, low in (("hidden_size", 1), ("filter_size", 1), ("num_heads", 1), ("num_encoder_layers", 0),
                          ("num_decoder_layers", 0)):
            if getattr(self, name) < low:
                raise ValueError(f"{name} must be >= {low}, got {getattr(self, name)}")
        for name in ("dropout", "label_smoothing"):
            if not 0.0 <= getattr(self, name) < 1.0:
                raise ValueError(f"{name} must lie in [0, 1), got {getattr(self, name)}")
        if self.hidden_size % self.num_heads != 0:
            raise ValueError(
                f"hidden_size {self.hidden_size} not divisible by num_heads {self.num_heads}"
            )
        if self.param_dtype not in ("float32", "float64"):
            raise ValueError(f"param_dtype must be float32 or float64, got {self.param_dtype}")

    @property
    def np_dtype(self):
        return np.float32 if self.param_dtype == "float32" else np.float64


def sinusoidal_positions(start: int, end: int, hidden: int, dtype) -> np.ndarray:
    """The sinusoidal rows of positions ``start`` to ``end - 1``, [end - start, hidden]."""
    pos = np.arange(start, end, dtype=np.float64)[:, None]
    dim = np.arange(0, hidden, 2, dtype=np.float64)[None, :]
    angles = pos / np.power(10000.0, dim / hidden)
    table = np.zeros((end - start, hidden), dtype=np.float64)
    table[:, 0::2] = np.sin(angles)
    table[:, 1::2] = np.cos(angles[:, : hidden // 2])
    return table.astype(dtype)


@dataclass
class ModelParams:
    """All learnable weights.

    One ``embed`` table serves the source and target sides and, transposed,
    the output projection: the weights are tied, so every use reads one
    Tensor object.
    """

    params: dict[str, Tensor]
    config: ModelConfig

    def __getitem__(self, name: str) -> Tensor:
        return self.params[name]

    def all_tensors(self) -> list[Tensor]:
        return list(self.params.values())

    def as_arrays(self) -> dict[str, np.ndarray]:
        return {name: t.data for name, t in self.params.items()}

    def load_arrays(self, arrays: Mapping[str, np.ndarray]) -> None:
        missing = set(self.params) - set(arrays)
        if missing:
            raise ValueError(f"checkpoint is missing parameters: {sorted(missing)}")
        unexpected = set(arrays) - set(self.params)
        if unexpected:
            raise ValueError(f"checkpoint has parameters the model lacks: {sorted(unexpected)}")
        for name, t in self.params.items():
            arr = np.asarray(arrays[name], dtype=t.data.dtype)
            if arr.shape != t.data.shape:
                raise ValueError(f"{name}: shape {arr.shape} != expected {t.data.shape}")
            t.data = arr.copy()


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
    # uniform (the table doubles as the output projection)
    mat("embed", v, h, scale=0.5 * bound)

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

    return ModelParams(params, config)


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
    additive_mask: Tensor | None,
    key_mask: Tensor | None,
    kv: tuple[Tensor, Tensor] | None = None,
) -> Tensor:
    """Multi-head attention over projected ``kv``, else self-attention; masks are in the scores' dtype."""
    cfg = params.config
    q = _split_heads(_linear(queries, params[f"{prefix}/wq"], params[f"{prefix}/bq"]), cfg.num_heads)
    # projected after the queries: tape order fixes the order in which
    # gradients accumulate, so training stays bit-identical
    k, v = _project_kv(params, prefix, queries) if kv is None else kv
    d = cfg.hidden_size // cfg.num_heads
    # one name along the score chain, so each step frees its input (see the module docstring)
    scores = matmul(q, transpose(k, (0, 1, 3, 2)))
    del q, k
    scores = mul(scores, constant(np.asarray(1.0 / math.sqrt(d), dtype=scores.dtype)))
    if additive_mask is not None:
        scores = add(scores, additive_mask)
    scores = softmax(scores, axis=-1)
    if key_mask is not None:
        # exact zero on pad keys, including rows where every key is padding
        scores = mul(scores, key_mask)
    ctx = matmul(scores, v)
    del scores, v
    return _linear(_merge_heads(ctx), params[f"{prefix}/wo"], params[f"{prefix}/bo"])


def _post_norm(params: ModelParams, prefix: str, x: Tensor, sub: Tensor, rng) -> Tensor:
    sub = dropout(sub, params.config.dropout, rng)
    return layer_norm(add(x, sub), params[f"{prefix}/gain"], params[f"{prefix}/bias"])


def _ffn(params: ModelParams, prefix: str, x: Tensor) -> Tensor:
    inner = relu(_linear(x, params[f"{prefix}/w1"], params[f"{prefix}/b1"]))
    return _linear(inner, params[f"{prefix}/w2"], params[f"{prefix}/b2"])


def _embed_and_position(params: ModelParams, emb: Tensor, rng, offset: int = 0) -> Tensor:
    cfg = params.config
    end = offset + emb.data.shape[1]
    scale = constant(np.asarray(math.sqrt(cfg.hidden_size), dtype=cfg.np_dtype))
    x = add(mul(emb, scale), constant(sinusoidal_positions(offset, end, cfg.hidden_size, cfg.np_dtype)[None]))
    return dropout(x, cfg.dropout, rng)


def _source_masks(config: ModelConfig, src_mask: np.ndarray) -> tuple[Tensor, Tensor]:
    """Key mask (1 on real keys, 0 on padding) and additive mask (0 or NEG_INF), [B, 1, 1, m] in the model dtype."""
    keys = src_mask[:, None, None, :]
    dtype = config.np_dtype
    return constant(keys.astype(dtype)), constant(np.where(keys, dtype(0.0), dtype(NEG_INF)))


def encode(
    params: ModelParams,
    src_ids: np.ndarray,
    src_mask: np.ndarray,
    rng: np.random.Generator | None = None,
) -> Tensor:
    """Contextual states [B, m, H]; padding keys are never attended to."""
    emb = embedding_lookup(params["embed"], src_ids)
    x = _embed_and_position(params, emb, rng)
    key_mask, additive = _source_masks(params.config, src_mask)
    for i in range(params.config.num_encoder_layers):
        attn = _attention(params, f"enc{i}/attn", x, additive, key_mask)
        x = _post_norm(params, f"enc{i}/attn_ln", x, attn, rng)
        x = _post_norm(params, f"enc{i}/ffn_ln", x, _ffn(params, f"enc{i}/ffn", x), rng)
    return x


def embed_targets(params: ModelParams, ids: np.ndarray) -> Tensor:
    """Raw target-side token embeddings (no scaling, no positions)."""
    return embedding_lookup(params["embed"], ids)


def output_logits(params: ModelParams, x: Tensor) -> Tensor:
    """Project hidden states to the vocabulary through the transposed embedding table."""
    cfg = params.config
    w = transpose(params["embed"], (1, 0))
    lead = x.data.shape[:-1]
    flat = reshape(x, (-1, cfg.hidden_size))
    return reshape(matmul(flat, w), (*lead, cfg.vocab_size))


@dataclass
class SourceState:
    """What every decoder pass reads of its sources, one row per source.

    ``cross`` holds every decoder layer's cross-attention keys/values
    [rows, heads, m, head_dim]; ``key_mask`` (1 on real keys, 0 on
    padding) and ``additive`` (0 or NEG_INF) are the source key masks
    [rows, 1, 1, m], in the model dtype. ``source_state`` builds it once
    per batch and every decoder pass over that batch reads it; in training
    the passes' gradients sum in its keys/values. A decoder pass may hold
    k hypotheses per row (a source's beams, consecutive), which all read
    that one row, so none of this needs regathering while beams reorder
    among the same sources.
    """

    cross: list[tuple[Tensor, Tensor]]
    key_mask: Tensor
    additive: Tensor

    def take(self, rows: np.ndarray) -> SourceState:
        """The state of ``rows`` in that order (rows may repeat), as constants off the tape."""
        cross = [(constant(k.data[rows]), constant(v.data[rows])) for k, v in self.cross]
        return SourceState(cross, constant(self.key_mask.data[rows]), constant(self.additive.data[rows]))


def source_state(params: ModelParams, encoder_states: Tensor, src_mask: np.ndarray) -> SourceState:
    """Every decoder layer's cross-attention keys/values over ``encoder_states``, and the source masks.

    The projections record on the tape when one is active.
    """
    layers = range(params.config.num_decoder_layers)
    cross = [_project_kv(params, f"dec{i}/cross_attn", encoder_states) for i in layers]
    return SourceState(cross, *_source_masks(params.config, src_mask))


@dataclass
class DecoderCache:
    """Per-hypothesis state for incremental decoding; it never enters a tape.

    ``self_kv`` holds each decoder layer's self-attention keys/values
    [rows, heads, offset, head_dim] of the ``offset`` decoder positions
    computed so far. The source side is the ``SourceState`` each step reads.
    """

    self_kv: list[tuple[np.ndarray, np.ndarray]]
    offset: int = 0

    @classmethod
    def empty(cls, config: ModelConfig, rows: int) -> DecoderCache:
        """A cache of ``rows`` hypotheses with no position computed yet."""
        kv = np.zeros((rows, config.num_heads, 0, config.hidden_size // config.num_heads), config.np_dtype)
        return cls([(kv, kv)] * config.num_decoder_layers)

    def take(self, parents: np.ndarray) -> DecoderCache:
        """The hypotheses ``parents`` in that order (rows may repeat)."""
        return DecoderCache([(k[parents], v[parents]) for k, v in self.self_kv], self.offset)


def decode_step_logits(
    params: ModelParams,
    source: SourceState,
    decoder_embeddings: Tensor,
    rng: np.random.Generator | None = None,
    cache: DecoderCache | None = None,
) -> Tensor:
    """Next-token logits [B, n, V] from embedding-level decoder inputs.

    Arguments are the parameters, the ``source`` the pass reads, then the
    decoder embeddings [B, n, H]. Position t attends only to decoder
    positions <= t, so perturbing the input at t can change logits at
    positions >= t but never earlier ones. B is k times ``source``'s rows:
    decoder rows i * k to i * k + k - 1 read source row i. Cross-attention
    takes them as k * n query positions of that one row ([B, n, H] viewed
    as [rows, k * n, H]), which attends as k copies of the row would,
    since no mask lies between queries; BLAS may round a k-row product
    differently from k one-row products. Training passes have k = 1.
    With ``rng`` the pass applies dropout from that stream; without it the
    pass runs in evaluation mode.

    Without ``cache`` the inputs are the whole prefix, and the pass records
    on the tape when one is active. With a cache the inputs are the n
    positions after ``cache.offset``: only they are projected, their
    self-attention keys/values are appended to the cache, and nothing is
    recorded.
    """
    cfg = params.config
    rows = source.key_mask.data.shape[0]
    k, rest = divmod(decoder_embeddings.data.shape[0], rows)
    if rest or not k:
        raise ValueError(f"batch mismatch: decoder {decoder_embeddings.data.shape} vs {rows} source rows")
    with no_grad() if cache is not None else contextlib.nullcontext():
        offset = 0 if cache is None else cache.offset
        n = decoder_embeddings.data.shape[1]
        x = _embed_and_position(params, decoder_embeddings, rng, offset)
        del decoder_embeddings
        # one new position may attend to every key: its causal mask is all zeros
        causal = None
        if n > 1:
            causal = constant(np.triu(np.full((1, 1, n, offset + n), NEG_INF, cfg.np_dtype), k=offset + 1))
        for i in range(cfg.num_decoder_layers):
            self_kv = None
            if cache is not None:
                k_new, v_new = _project_kv(params, f"dec{i}/self_attn", x)
                k_old, v_old = cache.self_kv[i]
                cache.self_kv[i] = (
                    np.concatenate([k_old, k_new.data], axis=2),
                    np.concatenate([v_old, v_new.data], axis=2),
                )
                del k_old, v_old  # their last read (see the module docstring)
                self_kv = tuple(constant(a) for a in cache.self_kv[i])
            x = _post_norm(
                params, f"dec{i}/self_ln", x, _attention(params, f"dec{i}/self_attn", x, causal, None, self_kv), rng
            )
            # the grouped view is passed, not kept (see the module docstring): holding this layer's
            # input past the _post_norm below raised a 64-row teacher-forced pass's peak RSS by ~4 MB
            cross = _attention(
                params, f"dec{i}/cross_attn", x if k == 1 else reshape(x, (rows, k * n, cfg.hidden_size)),
                source.additive, source.key_mask, source.cross[i],
            )
            if k > 1:
                cross = reshape(cross, x.data.shape)
            x = _post_norm(params, f"dec{i}/cross_ln", x, cross, rng)
            del cross
            x = _post_norm(params, f"dec{i}/ffn_ln", x, _ffn(params, f"dec{i}/ffn", x), rng)
        if cache is not None:
            cache.offset += n
        return output_logits(params, x)


def teacher_forcing_loss(
    params: ModelParams,
    batch: Batch,
    enc_rng: np.random.Generator | None = None,
    dec_rng: np.random.Generator | None = None,
) -> Tensor:
    """Label-smoothed next-token loss with golden prefixes as decoder input."""
    if batch.size == 0:
        raise ValueError("empty batch")
    enc = encode(params, batch.source, batch.source_mask, enc_rng)
    source = source_state(params, enc, batch.source_mask)
    emb = embed_targets(params, batch.decoder_inputs())
    logits = decode_step_logits(params, source, emb, dec_rng)
    return cross_entropy_label_smoothed(
        logits, batch.labels(), params.config.label_smoothing, batch.label_mask()
    )


def teacher_forced_logits(params: ModelParams, batch: Batch) -> np.ndarray:
    """Evaluation-mode logits at every golden-prefix position (no recording)."""
    with no_grad():
        enc = encode(params, batch.source, batch.source_mask)
        source = source_state(params, enc, batch.source_mask)
        del enc  # the decoder reads only ``source`` (see the module docstring)
        logits = decode_step_logits(params, source, embed_targets(params, batch.decoder_inputs()))
    return logits.data
