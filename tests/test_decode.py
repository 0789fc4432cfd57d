from itertools import product
from pathlib import Path

import numpy as np
import pytest
from scipy.special import log_softmax

from sslab.data import BOS_ID, EOS_ID, TaskKind, batch_stream, gen_task, make_batch
from sslab.decode import (
    BeamResult,
    DecodeConfig,
    DecodeError,
    beam_decode,
    beam_search,
    greedy_decode,
    length_penalty,
    transformer_scorer,
)
import sslab.decode as decode_module
from sslab.model import ModelConfig, decode_step_logits, embed_targets, encode, init_params
from sslab.rng import named_rng
from sslab.tensor import constant, no_grad


# ---------------------------------------------------------------------------
# stub scorers (independent of the transformer)
# ---------------------------------------------------------------------------


def random_scorer(seed, vocab, scale=1.0):
    """Deterministic random log-probs per prefix."""

    def step(prefixes):
        out = np.zeros((prefixes.shape[0], vocab))
        for i, pref in enumerate(prefixes):
            r = np.random.default_rng(seed * 1000003 + hash(tuple(pref.tolist())) % (2**31))
            logits = r.normal(size=vocab) * scale
            s = logits - logits.max()
            out[i] = s - np.log(np.exp(s).sum())
        return out

    return step


def pattern_scorer(pattern, vocab, eos, peak=8.0):
    """Near-deterministic model that walks ``pattern`` then emits eos."""

    def step(prefixes):
        out = np.zeros((prefixes.shape[0], vocab))
        for i, pref in enumerate(prefixes):
            pos = len(pref) - 1
            want = pattern[pos] if pos < len(pattern) else eos
            logits = np.zeros(vocab)
            logits[want] = peak
            s = logits - logits.max()
            out[i] = s - np.log(np.exp(s).sum())
        return out

    return step


def greedy_by_steps(step, cfg, bos=BOS_ID):
    """Test-side reimplementation of greedy over a stub scorer."""
    prefix, out = [bos], []
    for _ in range(cfg.max_length):
        tok = int(step(np.array([prefix]))[0].argmax())
        if tok == cfg.eos_id:
            break
        out.append(tok)
        prefix.append(tok)
    return out


def exhaustive_best(step, vocab, cfg, bos=BOS_ID):
    """Score every possible finished sequence by brute force."""
    eos = cfg.eos_id
    non_eos = [v for v in range(vocab) if v != eos]
    best_tokens, best_pen = None, -np.inf

    def seq_logp(tokens):
        total, prefix = 0.0, [bos]
        for tok in tokens:
            total += step(np.array([prefix]))[0][tok]
            prefix.append(tok)
        return total

    for k in range(cfg.max_length):
        for combo in product(non_eos, repeat=k):
            pen = seq_logp([*combo, eos]) / length_penalty(k + 1, cfg.length_penalty)
            if pen > best_pen:
                best_tokens, best_pen = list(combo), pen
    return best_tokens, best_pen


# ---------------------------------------------------------------------------
# beam search against oracles
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", range(40))
def test_beam_matches_exhaustive_enumeration(seed):
    vocab = 4 + seed % 2
    cfg = DecodeConfig(beam_size=vocab, length_penalty=0.6, max_length=3, eos_id=0)
    step = random_scorer(seed, vocab)
    got = beam_search(step, vocab, cfg)
    want_tokens, want_pen = exhaustive_best(step, vocab, cfg)
    assert got.finished
    assert got.tokens == want_tokens
    assert got.score == pytest.approx(want_pen, abs=1e-12)


def test_alpha_zero_is_pure_logprob_ranking():
    for seed in range(25):
        vocab = 5
        cfg = DecodeConfig(beam_size=vocab, length_penalty=0.0, max_length=3, eos_id=0)
        step = random_scorer(seed, vocab)
        got = beam_search(step, vocab, cfg)
        want_tokens, want_pen = exhaustive_best(step, vocab, cfg)
        assert got.tokens == want_tokens
        assert got.score == pytest.approx(want_pen, abs=1e-12)
        assert length_penalty(3, 0.0) == 1.0


def test_beam_one_equals_greedy_on_peaked_models():
    rng = np.random.default_rng(0)
    for _ in range(100):
        vocab = 6
        n = int(rng.integers(1, 5))
        pattern = rng.integers(2, vocab, size=n).tolist()
        step = pattern_scorer(pattern, vocab, eos=0)
        cfg = DecodeConfig(beam_size=1, length_penalty=0.6, max_length=8, eos_id=0)
        got = beam_search(step, vocab, cfg)
        assert got.tokens == greedy_by_steps(step, cfg)
        assert got.tokens == pattern


def test_enlarging_beam_never_hurts():
    for seed in range(40):
        vocab = 5
        step = random_scorer(seed, vocab)
        prev = -np.inf
        for bs in range(1, 6):
            cfg = DecodeConfig(beam_size=bs, length_penalty=0.6, max_length=4, eos_id=0)
            got = beam_search(step, vocab, cfg)
            assert got.score >= prev - 1e-12
            prev = got.score


def test_ranking_is_monotone_non_increasing():
    step = random_scorer(7, 5)
    cfg = DecodeConfig(beam_size=5, length_penalty=0.6, max_length=4, eos_id=0)
    got = beam_search(step, 5, cfg)
    scores = [s for _, s in got.ranking]
    assert scores == sorted(scores, reverse=True)
    assert got.score == scores[0]


def test_unreachable_eos_returns_unfinished_with_warning_flag():
    vocab = 4

    def step(prefixes):
        out = np.full((prefixes.shape[0], vocab), np.log(1.0 / (vocab - 1)))
        out[:, 0] = -np.inf  # eos has probability zero
        return out

    cfg = DecodeConfig(beam_size=2, length_penalty=0.6, max_length=3, eos_id=0)
    got = beam_search(step, vocab, cfg)
    assert not got.finished
    assert len(got.tokens) == 3


# ---------------------------------------------------------------------------
# transformer decoding
# ---------------------------------------------------------------------------


def tiny_config(**kw):
    base = dict(
        vocab_size=15,
        hidden_size=32,
        filter_size=64,
        num_heads=4,
        num_encoder_layers=1,
        num_decoder_layers=1,
        dropout=0.0,
        label_smoothing=0.1,
        max_positions=24,
    )
    base.update(kw)
    return ModelConfig(**base)


def test_greedy_max_length_one(trained_copy_model):
    params, cfg = trained_copy_model
    batch = make_batch([([5, 6, 7], [5, 6, 7])])
    out = greedy_decode(
        params, cfg, batch.source, batch.source_mask, DecodeConfig(max_length=1)
    )
    assert all(len(seq) <= 1 for seq in out)


def test_greedy_deterministic(trained_copy_model):
    params, cfg = trained_copy_model
    corpus = gen_task(TaskKind.COPY, cfg.vocab_size, 3, 6, 10, seed=45)
    batch = make_batch(corpus.pairs)
    dcfg = DecodeConfig(max_length=12)
    a = greedy_decode(params, cfg, batch.source, batch.source_mask, dcfg)
    b = greedy_decode(params, cfg, batch.source, batch.source_mask, dcfg)
    assert a == b


def test_converged_copy_model_copies_heldout(trained_copy_model):
    params, cfg = trained_copy_model
    corpus = gen_task(TaskKind.COPY, cfg.vocab_size, 3, 6, 40, seed=46)
    batch = make_batch(corpus.pairs)
    out = greedy_decode(params, cfg, batch.source, batch.source_mask, DecodeConfig(max_length=12))
    hits = sum(
        seq == batch.source[i, : batch.source_lengths[i]].tolist() for i, seq in enumerate(out)
    )
    assert hits / len(out) >= 0.95


def test_transformer_beam_one_equals_greedy_on_trained_model(trained_copy_model):
    params, cfg = trained_copy_model
    corpus = gen_task(TaskKind.COPY, cfg.vocab_size, 3, 6, 20, seed=47)
    batch = make_batch(corpus.pairs)
    dcfg = DecodeConfig(beam_size=1, max_length=12)
    greedy = greedy_decode(params, cfg, batch.source, batch.source_mask, dcfg)
    beams = beam_decode(params, cfg, batch.source, batch.source_mask, dcfg)
    assert [r.tokens for r in beams] == greedy
    assert all(r.finished for r in beams)


def test_beam_decode_batch_order_and_scores(trained_copy_model):
    params, cfg = trained_copy_model
    batch = make_batch([([5, 6, 7], [5, 6, 7]), ([8, 9, 10, 11], [8, 9, 10, 11])])
    results = beam_decode(
        params, cfg, batch.source, batch.source_mask, DecodeConfig(beam_size=4, max_length=12)
    )
    assert len(results) == 2
    assert results[0].tokens == [5, 6, 7]
    assert results[1].tokens == [8, 9, 10, 11]
    for r in results:
        assert r.score <= 0.0


def test_decode_rejects_overlong_max_length(trained_copy_model):
    params, cfg = trained_copy_model
    batch = make_batch([([5], [5])])
    with pytest.raises(DecodeError, match="max_positions"):
        greedy_decode(
            params, cfg, batch.source, batch.source_mask, DecodeConfig(max_length=1000)
        )


def test_decode_module_never_touches_the_sampler():
    source = Path("src/sslab/decode.py").read_text(encoding="utf-8")
    assert "sampler" not in source


# ---------------------------------------------------------------------------
# incremental scorer against full-prefix recompute
# ---------------------------------------------------------------------------

SCORER_TOLERANCE = {"float32": dict(rtol=1e-5, atol=1e-5), "float64": dict(rtol=1e-10, atol=1e-11)}


def full_prefix_scorer(params, cfg, source, source_mask):
    """The uncached reference: the whole decoder over the full prefix per call."""
    with no_grad():
        enc = encode(params, cfg, source, source_mask).data

    def step(prefixes, rows):
        with no_grad():
            emb = embed_targets(params, prefixes)
            logits = decode_step_logits(params, cfg, emb, constant(enc[rows]), source_mask[rows])
        return log_softmax(logits.data[:, -1, :], axis=-1)

    return step


def _scorer_pair(dtype, seed=60, b=4):
    cfg = tiny_config(param_dtype=dtype, num_decoder_layers=2)
    params = init_params(cfg, named_rng(seed, "init"))
    corpus = gen_task(TaskKind.COPY, cfg.vocab_size, 3, 7, b, seed=seed)
    batch = make_batch(corpus.pairs)
    cached = transformer_scorer(params, cfg, batch.source, batch.source_mask)
    full = full_prefix_scorer(params, cfg, batch.source, batch.source_mask)

    def check(prefixes, rows):
        prefixes, rows = np.asarray(prefixes, dtype=np.int64), np.asarray(rows)
        got = cached(prefixes, rows)
        np.testing.assert_allclose(got, full(prefixes, rows), **SCORER_TOLERANCE[dtype])
        return got

    return cfg, check


@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_cached_scorer_follows_greedy_with_staggered_finishes(dtype):
    cfg, check = _scorer_pair(dtype)
    b = 4
    finish_at = [2, 6, 4, 9]  # row r leaves the alive set after finish_at[r] steps
    prefixes = np.full((b, 1), BOS_ID, dtype=np.int64)
    for t in range(max(finish_at)):
        alive = np.array([t < f for f in finish_at])
        logp = check(prefixes[alive], np.flatnonzero(alive))
        column = np.zeros(b, dtype=np.int64)
        column[alive] = logp.argmax(axis=-1)
        prefixes = np.concatenate([prefixes, column[:, None]], axis=1)


@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_cached_scorer_follows_beam_reordering_and_duplicated_parents(dtype):
    cfg, check = _scorer_pair(dtype)
    bos = BOS_ID
    check([[bos], [bos]], [1, 3])
    check([[bos, 7], [bos, 9], [bos, 5], [bos, 7]], [1, 1, 1, 3])
    # source 1: beam [bos, 9] spawns two children, [bos, 7] one, [bos, 5] dies
    check([[bos, 9, 6], [bos, 7, 8], [bos, 9, 8], [bos, 7, 7]], [1, 3, 1, 1])
    check([[bos, 7, 7, 5], [bos, 9, 6, 5], [bos, 9, 6, 11], [bos, 7, 8, 5]], [1, 1, 1, 3])
    check([[bos, 7, 8, 5, 6], [bos, 9, 6, 11, 6]], [3, 1])


@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_cached_scorer_recomputes_on_a_cache_miss(dtype):
    cfg, check = _scorer_pair(dtype)
    bos = BOS_ID
    check([[bos], [bos]], [0, 2])
    check([[bos, 5], [bos, 6]], [0, 2])
    check([[bos, 5, 7, 8], [bos, 6, 9, 9]], [0, 2])  # jumps two positions ahead
    check([[bos, 5, 7, 8, 10], [bos, 6, 9, 9, 5]], [0, 2])  # extends the jump
    check([[bos, 5, 7, 8, 10, 5], [bos, 6, 9, 9, 5, 5]], [0, 3])  # same prefix, other source
    check([[bos], [bos], [bos]], [3, 2, 1])  # a new search restarts at the sentinel
    check([[bos, 5], [bos, 6], [bos, 7]], [3, 2, 1])


def test_cached_decoding_matches_full_prefix_hypotheses(trained_copy_model, monkeypatch):
    params, cfg = trained_copy_model
    corpus = gen_task(TaskKind.COPY, cfg.vocab_size, 3, 6, 24, seed=48)
    batch = make_batch(corpus.pairs)
    args = (params, cfg, batch.source, batch.source_mask)
    cached = {
        beam: [r.tokens for r in beam_decode(*args, DecodeConfig(beam_size=beam, max_length=12))]
        for beam in (2, 4)
    }
    cached[1] = greedy_decode(*args, DecodeConfig(max_length=12))
    monkeypatch.setattr(decode_module, "transformer_scorer", full_prefix_scorer)
    assert greedy_decode(*args, DecodeConfig(max_length=12)) == cached[1]
    for beam in (2, 4):
        results = beam_decode(*args, DecodeConfig(beam_size=beam, max_length=12))
        assert [r.tokens for r in results] == cached[beam]
