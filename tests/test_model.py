import math
from dataclasses import asdict

import numpy as np
import pytest

from gradcheck import max_rel_error, numeric_grads
from sslab.data import Batch, TaskKind, batch_stream, gen_task, make_batch
from sslab.model import (
    LengthError,
    ModelConfig,
    ModelParams,
    decode_step_logits,
    decoder_cache,
    embed_targets,
    encode,
    init_params,
    output_logits,
    sinusoidal_positions,
    teacher_forced_logits,
    teacher_forcing_loss,
)
from sslab.rng import named_rng
from sslab.tensor import Tape, Tensor, constant, grad_of, no_grad


def tiny_config(**kw):
    base = dict(
        vocab_size=12,
        hidden_size=16,
        filter_size=32,
        num_heads=2,
        num_encoder_layers=1,
        num_decoder_layers=1,
        dropout=0.0,
        label_smoothing=0.0,
        max_positions=32,
        param_dtype="float64",
    )
    base.update(kw)
    return ModelConfig(**base)


def random_batch(rng, vocab, b=3, src_len=5, tgt_len=4):
    pairs = []
    for _ in range(b):
        src = rng.integers(5, vocab, size=src_len).tolist()
        tgt = rng.integers(5, vocab, size=tgt_len).tolist()
        pairs.append((src, tgt))
    return make_batch(pairs)


def test_encode_shape_contract():
    cfg = tiny_config()
    params = init_params(cfg, named_rng(0, "init"))
    batch = random_batch(np.random.default_rng(0), cfg.vocab_size, b=4, src_len=7)
    states = encode(params, cfg, batch.source, batch.source_mask)
    assert states.data.shape == (4, 7, cfg.hidden_size)


def test_pad_content_cannot_leak_into_real_positions():
    cfg = tiny_config()
    params = init_params(cfg, named_rng(1, "init"))
    batch = make_batch([([5, 6, 7, 8], [9, 10]), ([11, 5], [6, 7, 8])])

    def run(b):
        states = encode(params, cfg, b.source, b.source_mask)
        emb = embed_targets(params, b.decoder_inputs())
        logits = decode_step_logits(params, cfg, emb, states, b.source_mask)
        return states.data, logits.data

    states_a, logits_a = run(batch)
    # rewrite the pad tail of the short source row with arbitrary content
    tampered = Batch(
        batch.source.copy(),
        batch.source_mask,
        batch.target,
        batch.target_mask,
        batch.source_lengths,
        batch.target_lengths,
    )
    tampered.source[1, 2:] = [9, 9]
    states_b, logits_b = run(tampered)

    for row, n in enumerate(batch.source_lengths):
        assert states_a[row, :n].tobytes() == states_b[row, :n].tobytes()
    assert logits_a.tobytes() == logits_b.tobytes()


def test_all_pad_source_row_stays_finite_with_zero_context():
    cfg = tiny_config()
    params = init_params(cfg, named_rng(2, "init"))
    source = np.array([[5, 6, 7], [0, 0, 0]])
    source_mask = np.array([[True, True, True], [False, False, False]])
    states = encode(params, cfg, source, source_mask)
    assert np.isfinite(states.data).all()
    batch = make_batch([([5, 6, 7], [8, 9]), ([5], [10, 11])])
    emb = embed_targets(params, batch.decoder_inputs())
    logits = decode_step_logits(params, cfg, emb, states, source_mask)
    assert np.isfinite(logits.data).all()


def test_causality_of_decoder_logits():
    cfg = tiny_config()
    params = init_params(cfg, named_rng(3, "init"))
    rng = np.random.default_rng(5)
    batch = random_batch(rng, cfg.vocab_size, b=2, src_len=4, tgt_len=5)
    states = encode(params, cfg, batch.source, batch.source_mask)
    emb = embed_targets(params, batch.decoder_inputs()).data

    base = decode_step_logits(params, cfg, constant(emb), states, batch.source_mask).data
    t = 3
    bumped = emb.copy()
    bumped[:, t, :] += 0.5
    changed = decode_step_logits(params, cfg, constant(bumped), states, batch.source_mask).data

    assert base[:, :t].tobytes() == changed[:, :t].tobytes()
    assert not np.allclose(base[:, t:], changed[:, t:])


def test_single_token_target_logit_shape():
    cfg = tiny_config()
    params = init_params(cfg, named_rng(4, "init"))
    batch = make_batch([([5, 6], [7])])
    states = encode(params, cfg, batch.source, batch.source_mask)
    emb = embed_targets(params, batch.decoder_inputs()[:, :1])
    logits = decode_step_logits(params, cfg, emb, states, batch.source_mask)
    assert logits.data.shape == (1, 1, cfg.vocab_size)


def test_shared_softmax_equals_embedding_transpose():
    cfg = tiny_config(share_softmax_weights=True)
    params = init_params(cfg, named_rng(5, "init"))
    x = np.random.default_rng(6).normal(size=(2, 3, cfg.hidden_size))
    got = output_logits(params, constant(x)).data
    want = x @ params.tgt_embedding().data.T
    assert np.allclose(got, want, atol=1e-12)


def test_untied_softmax_uses_its_own_matrix():
    cfg = tiny_config(share_softmax_weights=False)
    params = init_params(cfg, named_rng(5, "init"))
    x = np.random.default_rng(6).normal(size=(2, 3, cfg.hidden_size))
    got = output_logits(params, constant(x)).data
    assert np.allclose(got, x @ params["out_proj"].data, atol=1e-12)


def test_tied_weights_are_one_object():
    cfg = tiny_config(share_embeddings=True, share_softmax_weights=True)
    params = init_params(cfg, named_rng(7, "init"))
    assert params.src_embedding() is params.tgt_embedding()
    cfg2 = tiny_config(share_embeddings=False)
    params2 = init_params(cfg2, named_rng(7, "init"))
    assert params2.src_embedding() is not params2.tgt_embedding()


def test_untrained_loss_is_near_log_vocab():
    cfg = ModelConfig(vocab_size=40, hidden_size=32, filter_size=64, num_heads=4,
                      num_encoder_layers=2, num_decoder_layers=2, dropout=0.0,
                      label_smoothing=0.0, max_positions=64, param_dtype="float64")
    params = init_params(cfg, named_rng(8, "init"))
    batch = random_batch(np.random.default_rng(9), cfg.vocab_size, b=8, src_len=10, tgt_len=10)
    loss = float(teacher_forcing_loss(params, cfg, batch, training=False).data)
    assert abs(loss - math.log(40)) / math.log(40) < 0.10


def test_loss_invariant_to_batch_order():
    cfg = tiny_config()
    params = init_params(cfg, named_rng(10, "init"))
    batch = random_batch(np.random.default_rng(11), cfg.vocab_size, b=4)
    perm = [2, 0, 3, 1]
    shuffled = Batch(
        batch.source[perm],
        batch.source_mask[perm],
        batch.target[perm],
        batch.target_mask[perm],
        batch.source_lengths[perm],
        batch.target_lengths[perm],
    )
    a = float(teacher_forcing_loss(params, cfg, batch, training=False).data)
    b = float(teacher_forcing_loss(params, cfg, shuffled, training=False).data)
    assert a == pytest.approx(b, rel=1e-12)


def test_length_error():
    cfg = tiny_config(max_positions=4)
    params = init_params(cfg, named_rng(12, "init"))
    batch = make_batch([([5, 6, 7, 8, 9], [5])])
    with pytest.raises(LengthError):
        encode(params, cfg, batch.source, batch.source_mask)


def test_sinusoidal_table_properties():
    table = sinusoidal_positions(16, 8, np.float64)
    assert table.shape == (16, 8)
    assert np.allclose(table[0, 0::2], 0.0)
    assert np.allclose(table[0, 1::2], 1.0)
    assert np.abs(table).max() <= 1.0


def test_micro_model_gradient_check():
    # H=8, one layer each side, V=11, five decoder positions, float64
    cfg = ModelConfig(vocab_size=11, hidden_size=8, filter_size=16, num_heads=2,
                      num_encoder_layers=1, num_decoder_layers=1, dropout=0.0,
                      label_smoothing=0.1, max_positions=16, param_dtype="float64")
    params = init_params(cfg, named_rng(13, "init"))
    batch = make_batch([([5, 6, 7, 8, 9], [10, 5, 6, 7])])
    assert batch.decoder_inputs().shape[1] == 5

    tensors = params.all_tensors()
    with Tape() as tape:
        loss = teacher_forcing_loss(params, cfg, batch, training=False)
        tape.backward(loss)
    analytic = [grad_of(p) for p in tensors]

    numeric = numeric_grads(
        lambda: float(teacher_forcing_loss(params, cfg, batch, training=False).data),
        tensors,
        1e-5,
    )
    assert max_rel_error(analytic, numeric) <= 1e-4


def test_config_round_trip():
    cfg = tiny_config(vocab_size=33, dropout=0.2)
    assert ModelConfig(**asdict(cfg)) == cfg


def test_params_checkpoint_round_trip(tmp_path):
    from sslab.tensor import load_checkpoint, save_checkpoint

    cfg = tiny_config()
    params = init_params(cfg, named_rng(14, "init"))
    path = tmp_path / "params.bin"
    save_checkpoint(path, params.as_arrays())
    fresh = init_params(cfg, named_rng(99, "init"))
    fresh.load_arrays(load_checkpoint(path))
    for name in params.params:
        assert np.array_equal(fresh[name].data, params[name].data)


def test_teacher_forced_logits_matches_eval_loss_path():
    cfg = tiny_config()
    params = init_params(cfg, named_rng(15, "init"))
    batch = random_batch(np.random.default_rng(16), cfg.vocab_size)
    logits = teacher_forced_logits(params, cfg, batch)
    assert logits.shape == (batch.size, batch.decoder_inputs().shape[1], cfg.vocab_size)
    assert np.isfinite(logits).all()


def test_loss_decreases_on_tiny_copy_task():
    from sslab.sampler import OptimizerConfig, SamplerConfig, SamplingMode, train
    from sslab.schedules import Family, ScheduleSpec

    corpus = gen_task(TaskKind.COPY, 15, 3, 6, 50, seed=21)
    cfg = ModelConfig(vocab_size=15, hidden_size=32, filter_size=64, num_heads=4,
                      num_encoder_layers=1, num_decoder_layers=1, dropout=0.0,
                      label_smoothing=0.1, max_positions=16)
    params = init_params(cfg, named_rng(22, "init"))
    sampler = SamplerConfig(
        mode=SamplingMode.DECODING_STEPS,
        schedule=ScheduleSpec(Family.UNIFORM, uniform_p=1.0),
        warm_start_steps=200,
    )
    rows = train(
        params, cfg, sampler,
        batch_stream(corpus, token_budget=256, seed=23),
        OptimizerConfig(warmup_steps=50),
        total_steps=200,
        root_seed=24,
    )
    first = np.mean([r["loss"] for r in rows[:20]])
    last = np.mean([r["loss"] for r in rows[-20:]])
    assert last < 0.7 * first


# ---------------------------------------------------------------------------
# incremental decoding: cached step logits against full-prefix recompute
# ---------------------------------------------------------------------------

CACHE_TOLERANCE = {"float32": dict(rtol=1e-5, atol=1e-6), "float64": dict(rtol=1e-10, atol=1e-12)}


def _cache_case(dtype, seed):
    cfg = tiny_config(param_dtype=dtype, num_decoder_layers=2, max_positions=12)
    params = init_params(cfg, named_rng(seed, "init"))
    batch = random_batch(np.random.default_rng(seed), cfg.vocab_size, b=3, src_len=6, tgt_len=7)
    enc = encode(params, cfg, batch.source, batch.source_mask)
    emb = embed_targets(params, batch.decoder_inputs())
    full = decode_step_logits(params, cfg, emb, enc, batch.source_mask).data
    return cfg, params, batch, enc, emb, full


@pytest.mark.parametrize("dtype", ["float32", "float64"])
@pytest.mark.parametrize("chunks", [(1,) * 8, (3, 1, 2, 2)])
def test_cached_steps_match_full_prefix(dtype, chunks):
    cfg, params, batch, enc, emb, full = _cache_case(dtype, seed=30)
    cache = decoder_cache(params, cfg, enc)
    start = 0
    for n in chunks:
        step = decode_step_logits(
            params, cfg, constant(emb.data[:, start : start + n]), None, batch.source_mask, cache=cache
        )
        assert step.data.dtype == full.dtype
        np.testing.assert_allclose(step.data, full[:, start : start + n], **CACHE_TOLERANCE[dtype])
        start += n
        assert cache.offset == start
    assert start == full.shape[1]


def test_cache_take_reorders_and_duplicates_rows():
    cfg, params, batch, enc, emb, full = _cache_case("float64", seed=31)
    cache = decoder_cache(params, cfg, enc)
    decode_step_logits(params, cfg, constant(emb.data[:, :4]), None, batch.source_mask, cache=cache)
    order = np.array([2, 0, 2])
    cache = cache.take(order)
    step = decode_step_logits(
        params, cfg, constant(emb.data[order, 4:5]), None, batch.source_mask[order], cache=cache
    )
    np.testing.assert_allclose(step.data[:, 0], full[order, 4], **CACHE_TOLERANCE["float64"])


def test_cached_path_records_no_tape_nodes():
    cfg, params, batch, enc, emb, _ = _cache_case("float64", seed=32)
    with Tape() as tape:
        cache = decoder_cache(params, cfg, enc)
        decode_step_logits(params, cfg, constant(emb.data[:, :2]), None, batch.source_mask, cache=cache)
        decode_step_logits(params, cfg, constant(emb.data[:, 2:3]), None, batch.source_mask, cache=cache)
    assert len(tape) == 0


def test_cached_offset_plus_new_positions_raises_length_error():
    cfg, params, batch, enc, emb, _ = _cache_case("float64", seed=33)
    cache = decoder_cache(params, cfg, enc)
    decode_step_logits(params, cfg, constant(emb.data[:, :7]), None, batch.source_mask, cache=cache)
    decode_step_logits(params, cfg, constant(emb.data[:, :4]), None, batch.source_mask, cache=cache)
    assert cache.offset == cfg.max_positions - 1
    with pytest.raises(LengthError):
        decode_step_logits(params, cfg, constant(emb.data[:, :2]), None, batch.source_mask, cache=cache)
    assert cache.offset == cfg.max_positions - 1
    decode_step_logits(params, cfg, constant(emb.data[:, :1]), None, batch.source_mask, cache=cache)
    with pytest.raises(LengthError):
        decode_step_logits(params, cfg, constant(emb.data[:, :1]), None, batch.source_mask, cache=cache)
