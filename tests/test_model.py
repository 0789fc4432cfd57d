import math
import tracemalloc
import weakref
from dataclasses import asdict

import numpy as np
import pytest

from batching import batch_of
from gradcheck import max_rel_error, numeric_grads
from sslab.data import Batch, TaskKind, batch_stream, gen_task, make_batch
from sslab.decode import DecodeConfig, decode_batch
from sslab.model import (
    DecoderCache,
    ModelConfig,
    ModelParams,
    decode_step_logits,
    embed_targets,
    encode,
    init_params,
    output_logits,
    sinusoidal_positions,
    source_state,
    teacher_forced_logits,
    teacher_forcing_loss,
)
import sslab.model as model_module
from sslab.rng import named_rng
from sslab.tensor import Tape, Tensor, constant, grad_of, no_grad, softmax


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
    return batch_of(pairs)


def test_encode_shape_contract():
    cfg = tiny_config()
    params = init_params(cfg, named_rng(0, "init"))
    batch = random_batch(np.random.default_rng(0), cfg.vocab_size, b=4, src_len=7)
    states = encode(params, batch.source, batch.source_mask)
    assert states.data.shape == (4, 7, cfg.hidden_size)


def test_pad_content_cannot_leak_into_real_positions():
    cfg = tiny_config()
    params = init_params(cfg, named_rng(1, "init"))
    batch = batch_of([([5, 6, 7, 8], [9, 10]), ([11, 5], [6, 7, 8])])

    def run(b):
        states = encode(params, b.source, b.source_mask)
        emb = embed_targets(params, b.decoder_inputs())
        logits = decode_step_logits(params, source_state(params, states, b.source_mask), emb)
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
    states = encode(params, source, source_mask)
    assert np.isfinite(states.data).all()
    batch = batch_of([([5, 6, 7], [8, 9]), ([5], [10, 11])])
    emb = embed_targets(params, batch.decoder_inputs())
    logits = decode_step_logits(params, source_state(params, states, source_mask), emb)
    assert np.isfinite(logits.data).all()


def test_causality_of_decoder_logits():
    cfg = tiny_config()
    params = init_params(cfg, named_rng(3, "init"))
    rng = np.random.default_rng(5)
    batch = random_batch(rng, cfg.vocab_size, b=2, src_len=4, tgt_len=5)
    states = encode(params, batch.source, batch.source_mask)
    emb = embed_targets(params, batch.decoder_inputs()).data

    source = source_state(params, states, batch.source_mask)
    base = decode_step_logits(params, source, constant(emb)).data
    t = 3
    bumped = emb.copy()
    bumped[:, t, :] += 0.5
    changed = decode_step_logits(params, source, constant(bumped)).data

    assert base[:, :t].tobytes() == changed[:, :t].tobytes()
    assert not np.allclose(base[:, t:], changed[:, t:])


def test_single_token_target_logit_shape():
    cfg = tiny_config()
    params = init_params(cfg, named_rng(4, "init"))
    batch = batch_of([([5, 6], [7])])
    states = encode(params, batch.source, batch.source_mask)
    emb = embed_targets(params, batch.decoder_inputs()[:, :1])
    logits = decode_step_logits(params, source_state(params, states, batch.source_mask), emb)
    assert logits.data.shape == (1, 1, cfg.vocab_size)


def test_shared_softmax_equals_embedding_transpose():
    cfg = tiny_config()
    params = init_params(cfg, named_rng(5, "init"))
    x = np.random.default_rng(6).normal(size=(2, 3, cfg.hidden_size))
    got = output_logits(params, constant(x)).data
    want = x @ params["embed"].data.T
    assert np.allclose(got, want, atol=1e-12)


def test_tied_weights_are_one_object():
    params = init_params(tiny_config(), named_rng(7, "init"))
    # one table of vocabulary rows serves both sides and the output projection
    vocab_tables = [name for name, t in params.params.items() if params.config.vocab_size in t.data.shape]
    assert vocab_tables == ["embed"]


def test_untrained_loss_is_near_log_vocab():
    cfg = ModelConfig(vocab_size=40, hidden_size=32, filter_size=64, num_heads=4,
                      num_encoder_layers=2, num_decoder_layers=2, dropout=0.0,
                      label_smoothing=0.0, param_dtype="float64")
    params = init_params(cfg, named_rng(8, "init"))
    batch = random_batch(np.random.default_rng(9), cfg.vocab_size, b=8, src_len=10, tgt_len=10)
    loss = float(teacher_forcing_loss(params, batch).data)
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
    a = float(teacher_forcing_loss(params, batch).data)
    b = float(teacher_forcing_loss(params, shuffled).data)
    assert a == pytest.approx(b, rel=1e-12)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("hidden", [2, 4, 6, 8, 10, 16, 32, 64, 5])
def test_positions_at_any_offset_are_the_rows_of_one_table(hidden, dtype):
    table = sinusoidal_positions(0, 1024, hidden, dtype)
    for start in range(1024):
        # one row, as a cached step computes it, and a span, as a full pass from an offset does
        for end in (start + 1, min(1024, start + 1 + start % 67)):
            rows = sinusoidal_positions(start, end, hidden, dtype)
            assert rows.dtype == dtype and rows.tobytes() == table[start:end].tobytes(), (start, end)


def test_sinusoidal_table_properties():
    table = sinusoidal_positions(0, 16, 8, np.float64)
    assert table.shape == (16, 8)
    assert np.allclose(table[0, 0::2], 0.0)
    assert np.allclose(table[0, 1::2], 1.0)
    assert np.abs(table).max() <= 1.0


def test_micro_model_gradient_check():
    # H=8, one layer each side, V=11, five decoder positions, float64
    cfg = ModelConfig(vocab_size=11, hidden_size=8, filter_size=16, num_heads=2,
                      num_encoder_layers=1, num_decoder_layers=1, dropout=0.0,
                      label_smoothing=0.1, param_dtype="float64")
    params = init_params(cfg, named_rng(13, "init"))
    batch = batch_of([([5, 6, 7, 8, 9], [10, 5, 6, 7])])
    assert batch.decoder_inputs().shape[1] == 5

    tensors = params.all_tensors()
    with Tape() as tape:
        loss = teacher_forcing_loss(params, batch)
        tape.backward(loss)
    analytic = [grad_of(p) for p in tensors]

    numeric = numeric_grads(
        lambda: float(teacher_forcing_loss(params, batch).data),
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
    with no_grad():
        source = source_state(params, encode(params, batch.source, batch.source_mask), batch.source_mask)
    logits = teacher_forced_logits(params, batch, source)
    assert logits.shape == (batch.size, batch.decoder_inputs().shape[1], cfg.vocab_size)
    assert np.isfinite(logits).all()


def test_loss_decreases_on_tiny_copy_task():
    from sslab.sampler import OptimizerConfig, SamplerConfig, SamplingMode, train
    from sslab.schedules import Family, ScheduleSpec

    corpus = gen_task(TaskKind.COPY, 15, 3, 6, 50, seed=21)
    cfg = ModelConfig(vocab_size=15, hidden_size=32, filter_size=64, num_heads=4,
                      num_encoder_layers=1, num_decoder_layers=1, dropout=0.0,
                      label_smoothing=0.1)
    params = init_params(cfg, named_rng(22, "init"))
    sampler = SamplerConfig(
        mode=SamplingMode.DECODING_STEPS,
        schedule=ScheduleSpec(Family.UNIFORM, uniform_p=1.0),
        warm_start_steps=200,
    )
    rows = train(
        params, sampler,
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
    cfg = tiny_config(param_dtype=dtype, num_decoder_layers=2)
    params = init_params(cfg, named_rng(seed, "init"))
    batch = random_batch(np.random.default_rng(seed), cfg.vocab_size, b=3, src_len=6, tgt_len=7)
    enc = encode(params, batch.source, batch.source_mask)
    emb = embed_targets(params, batch.decoder_inputs())
    full = decode_step_logits(params, source_state(params, enc, batch.source_mask), emb).data
    return cfg, params, batch, enc, emb, full


@pytest.mark.parametrize("dtype", ["float32", "float64"])
@pytest.mark.parametrize("chunks", [(1,) * 8, (3, 1, 2, 2)])
def test_cached_steps_match_full_prefix(dtype, chunks):
    cfg, params, batch, enc, emb, full = _cache_case(dtype, seed=30)
    source = source_state(params, enc, batch.source_mask)
    cache = DecoderCache.empty(cfg, 3)
    start = 0
    for n in chunks:
        step = decode_step_logits(
            params, source, constant(emb.data[:, start : start + n]), cache=cache
        )
        assert step.data.dtype == full.dtype
        np.testing.assert_allclose(step.data, full[:, start : start + n], **CACHE_TOLERANCE[dtype])
        start += n
        assert cache.offset == start
    assert start == full.shape[1]


def test_cache_take_reorders_and_duplicates_rows():
    cfg, params, batch, enc, emb, full = _cache_case("float64", seed=31)
    base = source_state(params, enc, batch.source_mask)
    cache = DecoderCache.empty(cfg, 3)
    decode_step_logits(params, base, constant(emb.data[:, :4]), cache=cache)
    order = np.array([2, 0, 2])
    cache = cache.take(order)
    step = decode_step_logits(
        params, base.take(order), constant(emb.data[order, 4:5]), cache=cache
    )
    np.testing.assert_allclose(step.data[:, 0], full[order, 4], **CACHE_TOLERANCE["float64"])

    # the split take: per-source state gathered from the base state, the
    # self-attention cache by parent; hypothesis 2 pairs source 2 with target 1
    sources, targets = np.array([2, 0, 2]), np.array([2, 0, 1])
    want = decode_step_logits(
        params,
        source_state(params, constant(enc.data[sources]), batch.source_mask[sources]),
        constant(emb.data[targets]),
    ).data
    kept = base.take(sources)
    cache = DecoderCache.empty(cfg, 3)
    decode_step_logits(params, kept, constant(emb.data[targets, :4]), cache=cache)
    parents = np.array([2, 1, 0])  # reorders hypotheses over the same source rows
    assert np.array_equal(sources[parents], sources)
    cache = cache.take(parents)
    step = decode_step_logits(params, kept, constant(emb.data[targets[parents], 4:5]), cache=cache)
    np.testing.assert_allclose(step.data[:, 0], want[parents, 4], **CACHE_TOLERANCE["float64"])


@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_one_position_step_without_causal_mask_equals_zero_mask(dtype, monkeypatch):
    cfg, params, batch, enc, emb, _ = _cache_case(dtype, seed=34)
    source = source_state(params, enc, batch.source_mask)
    cache = DecoderCache.empty(cfg, 3)
    decode_step_logits(params, source, constant(emb.data[:, :4]), cache=cache)
    rows = np.arange(3)
    new = constant(emb.data[:, 4:5])
    without = decode_step_logits(params, source, new, cache=cache.take(rows)).data

    attention = model_module._attention
    unmasked = []

    def zero_mask(params, prefix, queries, additive_mask, *rest):
        if additive_mask is None:
            unmasked.append(prefix)
            additive_mask = constant(np.zeros((1, 1, 1, cache.offset + 1), cfg.np_dtype))
        return attention(params, prefix, queries, additive_mask, *rest)

    monkeypatch.setattr(model_module, "_attention", zero_mask)
    with_zeros = decode_step_logits(params, source, new, cache=cache.take(rows)).data
    assert unmasked == [f"dec{i}/self_attn" for i in range(cfg.num_decoder_layers)]
    assert without.tobytes() == with_zeros.tobytes()


def test_tape_keeps_no_pre_softmax_scores(monkeypatch):
    cfg = tiny_config(num_encoder_layers=2, num_decoder_layers=2)
    params = init_params(cfg, named_rng(34, "init"))
    batch = random_batch(np.random.default_rng(34), cfg.vocab_size)
    scores = []

    def watched(x, axis=-1):
        scores.append(weakref.ref(x.data))
        return softmax(x, axis=axis)

    monkeypatch.setattr(model_module, "softmax", watched)
    with Tape() as tape:
        loss = teacher_forcing_loss(params, batch)
        alive = sum(ref() is not None for ref in scores)
        tape.backward(loss)
    assert len(scores) == 6  # self-attention in each of the four layers, cross-attention in the two decoder layers
    assert alive == 0  # softmax's rule reads its output, and no rule reads the scores


def test_cached_path_records_no_tape_nodes():
    cfg, params, batch, enc, emb, _ = _cache_case("float64", seed=32)
    source = source_state(params, enc, batch.source_mask)
    with Tape() as tape:
        cache = DecoderCache.empty(cfg, 3)
        decode_step_logits(params, source, constant(emb.data[:, :2]), cache=cache)
        decode_step_logits(params, source, constant(emb.data[:, 2:3]), cache=cache)
    assert len(tape) == 0


@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_passes_run_past_256_positions_and_the_cache_matches_them(dtype):
    cfg = tiny_config(param_dtype=dtype, num_decoder_layers=2)
    params = init_params(cfg, named_rng(33, "init"))
    batch = random_batch(np.random.default_rng(33), cfg.vocab_size, b=2, src_len=300, tgt_len=299)
    loss = teacher_forcing_loss(params, batch)
    assert np.isfinite(loss.data)
    enc = encode(params, batch.source, batch.source_mask)
    source = source_state(params, enc, batch.source_mask)
    emb = embed_targets(params, batch.decoder_inputs())
    assert emb.data.shape[1] == 300
    full = decode_step_logits(params, source, emb).data
    cache = DecoderCache.empty(cfg, 2)
    steps = [decode_step_logits(params, source, constant(emb.data[:, :250]), cache=cache).data]
    for t in range(250, 300):
        steps.append(decode_step_logits(params, source, constant(emb.data[:, t : t + 1]), cache=cache).data)
    assert cache.offset == 300
    np.testing.assert_allclose(np.concatenate(steps, axis=1), full, **CACHE_TOLERANCE[dtype])


def _traced_peak_mib(fn) -> float:
    """``tracemalloc``'s peak over one call of ``fn``, after an untraced warm-up call, in MiB."""
    fn()
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("run", ["encoder", "teacher-forced", "greedy"])
def test_no_grad_passes_drop_each_activation_at_its_last_read(run):
    cfg = ModelConfig(vocab_size=50)  # float32, hidden 64, 4 heads of 16, 2 + 2 layers
    params = init_params(cfg, named_rng(0, "init"))
    batch = make_batch(gen_task(TaskKind.NOISY_MAP, 50, 55, 60, 64, seed=5), np.arange(64))
    rows, m = batch.source.shape
    n = batch.decoder_inputs().shape[1]
    assert (rows, m, n) == (64, 60, 61)

    def encoder_run():
        with no_grad():
            return encode(params, batch.source, batch.source_mask).data

    enc = encoder_run()  # the caller's, which the decoder passes read
    mib = 4 / 2**20  # float32 bytes per element, in MiB
    heads, head_dim = cfg.num_heads, cfg.hidden_size // cfg.num_heads
    source_kv = 2 * cfg.num_decoder_layers * rows * heads * m * head_dim * mib  # the SourceState's K/V: 3.75
    hidden = rows * n * cfg.hidden_size * mib  # one [64, 61, 64] hidden state: 0.95
    if run == "encoder":
        scores = rows * heads * m * m * mib  # one [64, 4, 60, 60] self-attention score array: 3.52
        # one score step's input and output, and five [64, 60, 64] states (a layer's input, its
        # queries, keys and values, and a sublayer output): 2 * 3.52 + 5 * 0.94 = 11.72 (10.90 measured)
        bound = 2 * scores + 5 * rows * m * cfg.hidden_size * mib
        peak = _traced_peak_mib(encoder_run)
    elif run == "teacher-forced":
        scores = rows * heads * n * n * mib  # one [64, 4, 61, 61] self-attention score array: 3.63
        # the K/V, one score step's input and output, and three hidden states:
        # 3.75 + 2 * 3.63 + 3 * 0.95 = 13.88 (13.06 measured; 20.63 while a block's scores
        # and weights both stayed alive through its output projection)
        bound = source_kv + 2 * scores + 3 * hidden
        peak = _traced_peak_mib(
            lambda: teacher_forced_logits(params, batch, source_state(params, constant(enc), batch.source_mask))
        )
    else:
        decode_cfg = DecodeConfig(beam_size=1)  # the untrained model decodes every row to max_length
        cache = rows * heads * decode_cfg.max_length * head_dim * mib  # one layer's K or V at 80 positions: 1.25
        # the K/V, every layer's cache plus the new copy of one layer's as it grows, and one hidden
        # state: 3.75 + (4 + 2) * 1.25 + 0.95 = 12.20 (11.39 measured)
        bound = source_kv + (2 * cfg.num_decoder_layers + 2) * cache + hidden
        peak = _traced_peak_mib(lambda: decode_batch(params, enc, batch.source_mask, decode_cfg))
    assert peak <= bound
