"""Two-pass decoder training with scheduled golden/predicted input mixing.

The first pass runs the decoder on golden inputs in evaluation mode (it
simulates the inference scene, which has no dropout) and turns each output
distribution into a prediction embedding: the probability-weighted mix of
the embedding rows. A per-position Bernoulli mask then chooses,
independently for every (sentence, position), whether the second pass sees
the golden embedding or the prediction; the loss is the label-smoothed
cross entropy of the second pass alone. Both passes share one set of
parameters, one encoder run and one cross-attention projection: one
``SourceState`` per batch feeds both.

Gradients do not flow through first-pass predictions: they are constants,
matching their role as simulated inference inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterator

import numpy as np

from .data import Batch
from .model import (
    ModelParams,
    SourceState,
    decode_step_logits,
    embed_targets,
    encode,
    source_state,
    teacher_forcing_loss,
)
from .rng import named_rng
from .schedules import JointSpec, ScheduleSpec, eval_joint, eval_schedule
from .tensor import (
    Tape,
    Tensor,
    constant,
    cross_entropy_label_smoothed,
    grad_of,
    no_grad,
    select,
    softmax,
    weighted_embedding_mix,
)


class SamplingMode(str, Enum):
    TRAINING_STEPS = "training_steps"
    DECODING_STEPS = "decoding_steps"
    JOINT = "joint"


@dataclass
class SamplerConfig:
    mode: SamplingMode
    schedule: ScheduleSpec | None = None
    joint: JointSpec | None = None
    warm_start_steps: int = 0

    def __post_init__(self):
        self.mode = SamplingMode(self.mode)
        if self.warm_start_steps < 0:
            raise ValueError(f"warm_start_steps must be >= 0, got {self.warm_start_steps}")
        if self.mode is SamplingMode.JOINT:
            if self.joint is None:
                raise ValueError("joint mode needs a JointSpec")
        elif self.schedule is None:
            raise ValueError(f"{self.mode.value} mode needs a ScheduleSpec")


def golden_probability(sampler: SamplerConfig, train_step: int, dec_step: int) -> float:
    """p(i, t): probability that the token at decoding step t stays golden."""
    if sampler.mode is SamplingMode.TRAINING_STEPS:
        return eval_schedule(sampler.schedule, train_step)
    if sampler.mode is SamplingMode.DECODING_STEPS:
        return eval_schedule(sampler.schedule, dec_step)
    return eval_joint(sampler.joint, train_step, dec_step)


def selection_probabilities(sampler: SamplerConfig, train_step: int, n_positions: int) -> np.ndarray:
    """Golden probability per decoder input position.

    Position 0 carries the begin sentinel and is always golden. Input
    position j >= 1 consumes the token generated at decoding step j - 1,
    so it is scheduled at that step. Training-step schedules count from
    the end of the warm start (the fine-tuning phase owns the schedule
    horizon); ``train`` sends warm-start steps to teacher forcing, so
    ``train_step`` is never below ``warm_start_steps`` here.
    """
    p = np.ones(n_positions)
    effective_step = train_step - sampler.warm_start_steps
    for j in range(1, n_positions):
        p[j] = golden_probability(sampler, effective_step, j - 1)
    return p


def sample_selection_mask(
    sampler: SamplerConfig,
    train_step: int,
    batch_size: int,
    n_positions: int,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Independent Bernoulli draw per (sentence, position); True keeps golden."""
    p = selection_probabilities(sampler, train_step, n_positions)
    mask = rng.random((batch_size, n_positions)) < p[None, :]
    mask[:, 0] = True
    return mask, p


@dataclass
class MixedDecoderInputs:
    """Second-pass inputs plus the bookkeeping needed for diagnostics."""

    embeddings: Tensor
    golden_mask: np.ndarray  # [B, n] bool, True where the golden token was kept
    probabilities: np.ndarray  # [n] scheduled golden probability per position
    golden_fraction: float  # realized fraction over sampled non-pad positions
    mean_p: float  # scheduled mean over the same positions


def first_pass_predictions(params: ModelParams, batch: Batch, source: SourceState) -> Tensor:
    """Input-aligned prediction embeddings [B, n, H] from a golden-input pass over ``source``.

    Each prediction is the softmax-weighted mix of the embedding rows. The
    prediction for input position j + 1 is the first-pass output at
    position j; position 0 is zero-filled and always overridden by the
    golden begin sentinel. Runs without dropout, and the result is a
    constant: nothing is recorded on the tape.
    """
    with no_grad():
        logits = decode_step_logits(params, source, embed_targets(params, batch.decoder_inputs()))
        mix = weighted_embedding_mix(softmax(logits, axis=-1), params["embed"]).data
    pred = np.zeros_like(mix)
    pred[:, 1:] = mix[:, :-1]
    return constant(pred)


def two_pass_loss(
    params: ModelParams,
    sampler: SamplerConfig,
    batch: Batch,
    train_step: int,
    enc_rng: np.random.Generator | None,
    dec_rng: np.random.Generator | None,
    mask_rng: np.random.Generator,
) -> tuple[Tensor, MixedDecoderInputs]:
    """Scheduled-sampling loss: second pass over mixed inputs, golden labels.

    The dropout streams drive the encoder and the second pass; ``None``
    streams give an evaluation-mode loss.
    """
    enc = encode(params, batch.source, batch.source_mask, enc_rng)
    source = source_state(params, enc, batch.source_mask)
    golden_in = batch.decoder_inputs()
    golden_emb = embed_targets(params, golden_in)
    mask, p = sample_selection_mask(sampler, train_step, batch.size, golden_in.shape[1], mask_rng)
    pred_emb = first_pass_predictions(params, batch, source)
    mixed = select(mask[:, :, None], golden_emb, pred_emb)
    logits = decode_step_logits(params, source, mixed, dec_rng)
    loss = cross_entropy_label_smoothed(
        logits, batch.labels(), params.config.label_smoothing, batch.label_mask()
    )
    sampled = batch.target_mask[:, :-1].copy()
    sampled[:, 0] = False  # the forced sentinel is not a draw
    n_sampled = int(sampled.sum())
    golden_fraction = float(mask[sampled].sum() / n_sampled) if n_sampled else 1.0
    mean_p = float((np.broadcast_to(p, mask.shape)[sampled]).mean()) if n_sampled else 1.0
    diag = MixedDecoderInputs(mixed, mask, p, golden_fraction, mean_p)
    return loss, diag


# ---------------------------------------------------------------------------
# optimizer and training loop
# ---------------------------------------------------------------------------


class DivergenceError(RuntimeError):
    """Training loss became non-finite."""


@dataclass
class OptimizerConfig:
    lr_factor: float = 1.0
    warmup_steps: int = 400

    def __post_init__(self):
        if not self.lr_factor > 0.0:
            raise ValueError(f"lr_factor must be > 0, got {self.lr_factor}")
        if self.warmup_steps < 1:
            raise ValueError(f"warmup_steps must be >= 1, got {self.warmup_steps}")


def learning_rate(opt: OptimizerConfig, hidden_size: int, step: int) -> float:
    """Inverse-sqrt schedule with linear warmup, scaled by model width."""
    step = max(1, step)
    return (
        opt.lr_factor
        * hidden_size**-0.5
        * min(step**-0.5, step * opt.warmup_steps**-1.5)
    )


BETA1, BETA2, EPS = 0.9, 0.98, 1e-9  # Adam's moment decays and denominator floor


class Adam:
    """Adam with bias correction at ``BETA1``, ``BETA2`` and ``EPS``; treats missing grads as zero."""

    def __init__(self, tensors: list[Tensor]):
        self.tensors = tensors
        self.t = 0
        self.m = [np.zeros_like(p.data) for p in tensors]
        self.v = [np.zeros_like(p.data) for p in tensors]

    def step(self, lr: float) -> None:
        self.t += 1
        bc1 = 1.0 - BETA1**self.t
        bc2 = 1.0 - BETA2**self.t
        for p, m, v in zip(self.tensors, self.m, self.v):
            g = grad_of(p)
            m *= BETA1
            m += (1.0 - BETA1) * g
            v *= BETA2
            v += (1.0 - BETA2) * (g * g)
            update = (m / bc1) / (np.sqrt(v / bc2) + EPS)
            p.data = p.data - np.asarray(lr, dtype=p.data.dtype) * update
            p.grad = None


def train(
    params: ModelParams,
    sampler: SamplerConfig,
    batches: Iterator[Batch],
    opt_cfg: OptimizerConfig,
    total_steps: int,
    root_seed: int,
    start_step: int = 0,
    on_step: Callable[[dict], None] | None = None,
) -> list[dict]:
    """Run ``total_steps`` updates and return the per-step log rows.

    Steps below ``warm_start_steps`` take the plain teacher-forcing path,
    consuming exactly the same dropout streams the two-pass path would
    hand its second pass, so a run with warm start covering every step is
    bit-identical to pure teacher forcing under the same seed.
    """
    adam = Adam(params.all_tensors())
    rows: list[dict] = []
    for step in range(start_step, start_step + total_steps):
        batch = next(batches)
        enc_rng = named_rng(root_seed, "dropout", "encoder", step)
        dec_rng = named_rng(root_seed, "dropout", "decoder", step)
        with Tape() as tape:
            if step < sampler.warm_start_steps:
                loss = teacher_forcing_loss(params, batch, enc_rng, dec_rng)
                golden_fraction, mean_p, mode = 1.0, 1.0, "teacher_forcing"
            else:
                mask_rng = named_rng(root_seed, "sampler", step)
                loss, diag = two_pass_loss(params, sampler, batch, step, enc_rng, dec_rng, mask_rng)
                golden_fraction, mean_p = diag.golden_fraction, diag.mean_p
                mode = sampler.mode.value
            loss_value = float(loss.data)
            if not math.isfinite(loss_value):
                raise DivergenceError(f"non-finite loss {loss_value} at step {step}")
            tape.backward(loss)
        adam.step(learning_rate(opt_cfg, params.config.hidden_size, step + 1))
        row = {
            "step": step,
            "loss": loss_value,
            "golden_fraction": golden_fraction,
            "mean_p": mean_p,
            "mode": mode,
        }
        rows.append(row)
        if on_step is not None:
            on_step(row)
    return rows
