import math

import numpy as np
import pytest

from batching import batch_of
from sslab.data import TaskKind, batch_stream, gen_task
from sslab.model import ModelConfig, init_params, teacher_forcing_loss
from sslab.rng import named_rng
from sslab.sampler import (
    Adam,
    DivergenceError,
    OptimizerConfig,
    SamplerConfig,
    SamplingMode,
    first_pass_predictions,
    golden_probability,
    learning_rate,
    sample_selection_mask,
    selection_probabilities,
    train,
    two_pass_loss,
)
from sslab.schedules import Family, JointMethod, JointSpec, ScheduleSpec
from sslab.tensor import Tape, constant, grad_of, softmax, weighted_embedding_mix
from sslab.model import encode, embed_targets, source_state
import sslab.model as model_module


def config64(vocab=14, **kw):
    base = dict(
        vocab_size=vocab,
        hidden_size=16,
        filter_size=32,
        num_heads=2,
        num_encoder_layers=1,
        num_decoder_layers=1,
        dropout=0.1,
        label_smoothing=0.1,
        max_positions=32,
        param_dtype="float64",
    )
    base.update(kw)
    return ModelConfig(**base)


def random_batch(rng, vocab, b=3, src_len=5, tgt_len=4):
    pairs = []
    for _ in range(b):
        src = rng.integers(5, vocab, size=src_len).tolist()
        tgt = rng.integers(5, vocab, size=rng.integers(2, tgt_len + 1)).tolist()
        pairs.append((src, tgt))
    return batch_of(pairs)


def uniform_sampler(p, **kw):
    return SamplerConfig(
        mode=SamplingMode.DECODING_STEPS,
        schedule=ScheduleSpec(Family.UNIFORM, uniform_p=p),
        **kw,
    )


# ---------------------------------------------------------------------------
# prediction embeddings
# ---------------------------------------------------------------------------


def test_one_hot_mixture_is_exact_embedding_row():
    table = constant(np.random.default_rng(0).normal(size=(6, 4)))
    probs = np.zeros((1, 3, 6))
    probs[0, :, 2] = 1.0
    mixed = weighted_embedding_mix(constant(probs), table)
    for t in range(3):
        assert np.array_equal(mixed.data[0, t], table.data[2])


def test_uniform_mixture_is_column_mean():
    table = constant(np.random.default_rng(1).normal(size=(6, 4)))
    probs = np.full((1, 2, 6), 1.0 / 6.0)
    mixed = weighted_embedding_mix(constant(probs), table)
    assert np.allclose(mixed.data[0, 0], table.data.mean(axis=0), atol=1e-12)


def test_soft_mix_predictions_live_in_embedding_hull():
    cfg = config64()
    params = init_params(cfg, named_rng(2, "init"))
    batch = random_batch(np.random.default_rng(3), cfg.vocab_size, b=4)
    states = encode(params, batch.source, batch.source_mask)
    source = source_state(params, states, batch.source_mask)
    pred = first_pass_predictions(params, batch, source).data
    table = params["embed"].data
    lo, hi = table.min(axis=0), table.max(axis=0)
    # positions >= 1 hold convex mixtures of the embedding rows
    assert (pred[:, 1:] >= lo - 1e-9).all()
    assert (pred[:, 1:] <= hi + 1e-9).all()
    assert np.array_equal(pred[:, 0], np.zeros_like(pred[:, 0]))


def test_prediction_at_each_input_is_the_first_pass_mix_one_position_back():
    cfg = config64()
    params = init_params(cfg, named_rng(4, "init"))
    batch = random_batch(np.random.default_rng(5), cfg.vocab_size, b=3, tgt_len=6)
    source = source_state(params, encode(params, batch.source, batch.source_mask), batch.source_mask)
    pred = first_pass_predictions(params, batch, source).data
    logits = model_module.decode_step_logits(params, source, embed_targets(params, batch.decoder_inputs()))
    mix = weighted_embedding_mix(softmax(logits, axis=-1), params["embed"]).data
    assert pred.shape == mix.shape
    assert np.array_equal(pred[:, 1:], mix[:, :-1]) and not np.allclose(pred[:, 1:], mix[:, 1:])


# ---------------------------------------------------------------------------
# selection masks
# ---------------------------------------------------------------------------


def test_all_golden_probability_one():
    mask, p = sample_selection_mask(uniform_sampler(1.0), 0, 16, 9, named_rng(0, "m"))
    assert mask.all()
    assert p.tolist() == [1.0] * 9


def test_always_sample_keeps_only_sentinel():
    sampler = SamplerConfig(
        mode=SamplingMode.DECODING_STEPS, schedule=ScheduleSpec(Family.ALWAYS_SAMPLE)
    )
    mask, _ = sample_selection_mask(sampler, 0, 8, 7, named_rng(1, "m"))
    assert mask[:, 0].all()
    assert not mask[:, 1:].any()


def test_uniform_mask_concentrates_at_half():
    mask, _ = sample_selection_mask(uniform_sampler(0.5), 0, 1000, 11, named_rng(2, "m"))
    frac = mask[:, 1:].mean()
    assert abs(frac - 0.5) < 0.02


def test_warm_start_forces_all_golden():
    sampler = uniform_sampler(0.0, warm_start_steps=10)
    p = selection_probabilities(sampler, train_step=3, n_positions=6)
    assert p.tolist() == [1.0] * 6
    p_after = selection_probabilities(sampler, train_step=10, n_positions=6)
    assert p_after[1:].tolist() == [0.0] * 5


def test_position_indexing_uses_decoding_step_offset():
    # input position j consumes the token generated at decoding step j - 1
    sampler = SamplerConfig(
        mode=SamplingMode.DECODING_STEPS, schedule=ScheduleSpec(Family.EXPONENTIAL, k=0.5)
    )
    p = selection_probabilities(sampler, 0, 4)
    assert p.tolist() == [1.0, 1.0, 0.5, 0.25]


def test_mask_positions_uncorrelated():
    mask, _ = sample_selection_mask(uniform_sampler(0.5), 0, 20000, 3, named_rng(3, "m"))
    a = mask[:, 1].astype(float)
    b = mask[:, 2].astype(float)
    r = np.corrcoef(a, b)[0, 1]
    assert abs(r) < 0.03


def test_golden_probability_dispatch():
    f = ScheduleSpec(Family.UNIFORM, uniform_p=0.8)
    g = ScheduleSpec(Family.UNIFORM, uniform_p=0.4)
    assert golden_probability(SamplerConfig(SamplingMode.TRAINING_STEPS, schedule=f), 3, 9) == 0.8
    assert golden_probability(SamplerConfig(SamplingMode.DECODING_STEPS, schedule=g), 3, 9) == 0.4
    joint = SamplerConfig(SamplingMode.JOINT, joint=JointSpec(JointMethod.PRODUCT, f, g))
    assert golden_probability(joint, 3, 9) == pytest.approx(0.32)


def test_sampler_config_validation():
    with pytest.raises(ValueError):
        SamplerConfig(SamplingMode.DECODING_STEPS)
    with pytest.raises(ValueError):
        SamplerConfig(SamplingMode.JOINT)
    with pytest.raises(ValueError):
        uniform_sampler(0.5, warm_start_steps=-1)


# ---------------------------------------------------------------------------
# two-pass loss
# ---------------------------------------------------------------------------


def _streams(seed, step):
    return (
        named_rng(seed, "dropout", "encoder", step),
        named_rng(seed, "dropout", "decoder", step),
        named_rng(seed, "sampler", step),
    )


def test_degenerate_equivalence_is_bitwise():
    cfg = config64()
    rng = np.random.default_rng(7)
    for trial in range(5):
        params = init_params(cfg, named_rng(100 + trial, "init"))
        batch = random_batch(rng, cfg.vocab_size, b=3)
        seed = 500 + trial

        enc_rng, dec_rng, _ = _streams(seed, 0)
        with Tape() as tape:
            tf_loss = teacher_forcing_loss(params, batch, enc_rng, dec_rng)
            tape.backward(tf_loss)
        tf_grads = [grad_of(p).copy() for p in params.all_tensors()]
        for p in params.all_tensors():
            p.grad = None

        enc_rng, dec_rng, mask_rng = _streams(seed, 0)
        with Tape() as tape:
            tp_loss, diag = two_pass_loss(
                params, uniform_sampler(1.0), batch, 0, enc_rng, dec_rng, mask_rng
            )
            tape.backward(tp_loss)
        tp_grads = [grad_of(p).copy() for p in params.all_tensors()]
        for p in params.all_tensors():
            p.grad = None

        assert float(tf_loss.data) == float(tp_loss.data)
        assert diag.golden_fraction == 1.0
        for a, b in zip(tf_grads, tp_grads):
            assert a.tobytes() == b.tobytes()


def test_always_sample_loss_near_log_vocab_untrained():
    cfg = config64(vocab=30, hidden_size=32, num_heads=4, dropout=0.0, label_smoothing=0.0)
    params = init_params(cfg, named_rng(8, "init"))
    batch = random_batch(np.random.default_rng(9), cfg.vocab_size, b=6, src_len=8, tgt_len=8)
    sampler = SamplerConfig(
        mode=SamplingMode.DECODING_STEPS, schedule=ScheduleSpec(Family.ALWAYS_SAMPLE)
    )
    _, _, mask_rng = _streams(11, 0)
    loss, diag = two_pass_loss(params, sampler, batch, 0, None, None, mask_rng)
    value = float(loss.data)
    assert math.isfinite(value)
    assert abs(value - math.log(30)) / math.log(30) < 0.10
    assert diag.golden_fraction == 0.0


def test_prediction_fed_positions_connect_gradients():
    cfg = config64()
    params = init_params(cfg, named_rng(10, "init"))
    batch = random_batch(np.random.default_rng(11), cfg.vocab_size)
    sampler = SamplerConfig(
        mode=SamplingMode.DECODING_STEPS, schedule=ScheduleSpec(Family.ALWAYS_SAMPLE)
    )
    enc_rng, dec_rng, mask_rng = _streams(12, 0)
    with Tape() as tape:
        loss, _ = two_pass_loss(params, sampler, batch, 0, enc_rng, dec_rng, mask_rng)
        tape.backward(loss)
    assert np.abs(grad_of(params["embed"])).sum() > 0


def test_both_passes_share_one_cross_attention_projection(monkeypatch):
    cfg = config64(num_decoder_layers=2)
    params = init_params(cfg, named_rng(20, "init"))
    batch = random_batch(np.random.default_rng(21), cfg.vocab_size)
    sampler = uniform_sampler(0.5)
    projected = []
    project_kv = model_module._project_kv

    def spy(params, prefix, keys_values):
        projected.append(prefix)
        return project_kv(params, prefix, keys_values)

    monkeypatch.setattr(model_module, "_project_kv", spy)
    with Tape() as tape:
        loss, _ = two_pass_loss(params, sampler, batch, 0, *_streams(22, 0))
        tape.backward(loss)
    cross = [prefix for prefix in projected if prefix.endswith("/cross_attn")]
    assert cross == [f"dec{i}/cross_attn" for i in range(cfg.num_decoder_layers)]


# ---------------------------------------------------------------------------
# training loop
# ---------------------------------------------------------------------------


def test_zero_steps_leaves_params_untouched():
    cfg = config64()
    params = init_params(cfg, named_rng(16, "init"))
    before = {k: v.data.copy() for k, v in params.params.items()}
    corpus = gen_task(TaskKind.COPY, cfg.vocab_size, 2, 5, 10, seed=17)
    rows = train(
        params, uniform_sampler(0.5),
        batch_stream(corpus, 64, seed=18),
        OptimizerConfig(), total_steps=0, root_seed=19,
    )
    assert rows == []
    for k, v in params.params.items():
        assert np.array_equal(v.data, before[k])


def test_full_warm_start_matches_pure_teacher_forcing():
    cfg = config64()
    corpus = gen_task(TaskKind.COPY, cfg.vocab_size, 2, 5, 30, seed=20)

    def run(sampler):
        params = init_params(cfg, named_rng(21, "init"))
        train(
            params, sampler,
            batch_stream(corpus, 96, seed=22),
            OptimizerConfig(), total_steps=8, root_seed=23,
        )
        return params

    warm = run(uniform_sampler(0.0, warm_start_steps=8))
    pure = run(uniform_sampler(1.0))
    for k in warm.params:
        assert warm[k].data.tobytes() == pure[k].data.tobytes()


def test_train_log_rows_have_schedule_diagnostics():
    cfg = config64()
    corpus = gen_task(TaskKind.COPY, cfg.vocab_size, 2, 5, 30, seed=24)
    params = init_params(cfg, named_rng(25, "init"))
    sampler = uniform_sampler(0.5, warm_start_steps=2)
    rows = train(
        params, sampler,
        batch_stream(corpus, 96, seed=26),
        OptimizerConfig(), total_steps=5, root_seed=27,
    )
    assert [r["step"] for r in rows] == [0, 1, 2, 3, 4]
    assert rows[0]["mode"] == "teacher_forcing" and rows[0]["golden_fraction"] == 1.0
    assert rows[-1]["mode"] == "decoding_steps"
    assert 0.0 <= rows[-1]["golden_fraction"] <= 1.0
    assert rows[-1]["mean_p"] == pytest.approx(0.5)


def test_resume_continues_step_numbering():
    cfg = config64()
    corpus = gen_task(TaskKind.COPY, cfg.vocab_size, 2, 5, 30, seed=28)
    params = init_params(cfg, named_rng(29, "init"))
    sampler = uniform_sampler(0.5)
    train(params, sampler, batch_stream(corpus, 96, seed=30),
          OptimizerConfig(), total_steps=3, root_seed=31)
    rows = train(params, sampler, batch_stream(corpus, 96, seed=30),
                 OptimizerConfig(), total_steps=2, root_seed=31, start_step=3)
    assert [r["step"] for r in rows] == [3, 4]


def test_divergence_aborts_with_diagnostic():
    cfg = config64()
    corpus = gen_task(TaskKind.COPY, cfg.vocab_size, 2, 5, 10, seed=32)
    params = init_params(cfg, named_rng(33, "init"))
    params["embed"].data[0, 0] = np.nan
    with pytest.raises(DivergenceError, match="step 0"):
        train(params, uniform_sampler(0.5), batch_stream(corpus, 64, seed=34),
              OptimizerConfig(), total_steps=1, root_seed=35)


def test_learning_rate_warmup_then_inverse_sqrt():
    opt = OptimizerConfig(warmup_steps=100)
    lrs = [learning_rate(opt, 64, s) for s in (1, 50, 100, 400, 10000)]
    assert lrs[0] < lrs[1] < lrs[2]
    assert lrs[2] == pytest.approx(64**-0.5 * 100**-0.5)
    assert lrs[3] == pytest.approx(64**-0.5 * 400**-0.5)
    assert lrs[4] < lrs[3]


def test_adam_moves_toward_minimum():
    from sslab.tensor import parameter

    p = parameter(np.array([5.0]))
    adam = Adam([p], OptimizerConfig())
    for _ in range(300):
        p.grad = 2.0 * p.data  # d/dp of p^2
        adam.step(0.05)
    assert abs(float(p.data[0])) < 0.1
