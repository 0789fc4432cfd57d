from dataclasses import dataclass, field
from itertools import product
from pathlib import Path

import numpy as np
import pytest
from scipy.special import log_softmax

from batching import batch_of
from sslab.cli import build_corpora, load_model_checkpoint, load_run_config
from sslab.data import BOS_ID, EOS_ID, TaskKind, batch_stream, gen_task, make_batch
from sslab.decode import (
    BeamResult,
    DecodeConfig,
    beam_search,
    decode_batch,
    greedy_decode,
    length_penalty,
    transformer_scorer,
)
import sslab.decode as decode_module
import sslab.metrics as metrics_module
import sslab.model as model_module
from sslab.metrics import decode_corpus
from sslab.model import ModelConfig, decode_step_logits, embed_targets, encode, init_params, source_state
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


def pattern_scorer(pattern, vocab, peak=8.0):
    """Near-deterministic model that walks ``pattern``, which holds no end token, then emits it."""
    assert EOS_ID not in pattern

    def step(prefixes):
        out = np.zeros((prefixes.shape[0], vocab))
        for i, pref in enumerate(prefixes):
            pos = len(pref) - 1
            want = pattern[pos] if pos < len(pattern) else EOS_ID
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
        if tok == EOS_ID:
            break
        out.append(tok)
        prefix.append(tok)
    return out


def exhaustive_best(step, vocab, cfg, bos=BOS_ID):
    """Score every possible finished sequence by brute force."""
    non_eos = [v for v in range(vocab) if v != EOS_ID]
    best_tokens, best_pen = None, -np.inf

    def seq_logp(tokens):
        total, prefix = 0.0, [bos]
        for tok in tokens:
            total += step(np.array([prefix]))[0][tok]
            prefix.append(tok)
        return total

    for k in range(cfg.max_length):
        for combo in product(non_eos, repeat=k):
            pen = seq_logp([*combo, EOS_ID]) / length_penalty(k + 1, cfg.length_penalty)
            if pen > best_pen:
                best_tokens, best_pen = list(combo), pen
    return best_tokens, best_pen


# ---------------------------------------------------------------------------
# beam search against oracles
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", range(40))
def test_beam_matches_exhaustive_enumeration(seed):
    vocab = 4 + seed % 2
    cfg = DecodeConfig(beam_size=vocab, length_penalty=0.6, max_length=3)
    step = random_scorer(seed, vocab)
    got = beam_search(lambda p, r, _: step(p), vocab, cfg)[0]
    want_tokens, want_pen = exhaustive_best(step, vocab, cfg)
    assert got.finished
    assert got.tokens == want_tokens
    assert got.score == pytest.approx(want_pen, abs=1e-12)


def test_alpha_zero_is_pure_logprob_ranking():
    for seed in range(25):
        vocab = 5
        cfg = DecodeConfig(beam_size=vocab, length_penalty=0.0, max_length=3)
        step = random_scorer(seed, vocab)
        got = beam_search(lambda p, r, _: step(p), vocab, cfg)[0]
        want_tokens, want_pen = exhaustive_best(step, vocab, cfg)
        assert got.tokens == want_tokens
        assert got.score == pytest.approx(want_pen, abs=1e-12)
        assert length_penalty(3, 0.0) == 1.0


def test_beam_one_equals_greedy_on_peaked_models():
    rng = np.random.default_rng(0)
    for _ in range(100):
        vocab = 6
        n = int(rng.integers(1, 5))
        pattern = np.delete(np.arange(vocab), [BOS_ID, EOS_ID])[rng.integers(0, vocab - 2, size=n)].tolist()
        step = pattern_scorer(pattern, vocab)
        cfg = DecodeConfig(beam_size=1, length_penalty=0.6, max_length=8)
        got = beam_search(lambda p, r, _: step(p), vocab, cfg)[0]
        assert got.tokens == greedy_by_steps(step, cfg)
        assert got.tokens == pattern
        assert greedy_decode(lambda p, r, _: step(p), cfg, 1) == [pattern]


def test_enlarging_beam_never_hurts():
    for seed in range(40):
        vocab = 5
        step = random_scorer(seed, vocab)
        prev = -np.inf
        for bs in range(1, 6):
            cfg = DecodeConfig(beam_size=bs, length_penalty=0.6, max_length=4)
            got = beam_search(lambda p, r, _: step(p), vocab, cfg)[0]
            assert got.score >= prev - 1e-12
            prev = got.score


def test_unreachable_eos_returns_unfinished_with_warning_flag():
    vocab = 4

    def step(prefixes):
        out = np.full((prefixes.shape[0], vocab), np.log(1.0 / (vocab - 1)))
        out[:, EOS_ID] = -np.inf  # the end token has probability zero
        return out

    cfg = DecodeConfig(beam_size=2, length_penalty=0.6, max_length=3)
    got = beam_search(lambda p, r, _: step(p), vocab, cfg)[0]
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
    )
    base.update(kw)
    return ModelConfig(**base)


def test_greedy_max_length_one(trained_copy_model):
    params, cfg = trained_copy_model
    batch = batch_of([([5, 6, 7], [5, 6, 7])])
    out = decode_batch(params, batch.source, batch.source_mask, DecodeConfig(beam_size=1, max_length=1))
    assert all(len(seq) <= 1 for seq in out)


def test_greedy_deterministic(trained_copy_model):
    params, cfg = trained_copy_model
    corpus = gen_task(TaskKind.COPY, cfg.vocab_size, 3, 6, 10, seed=45)
    batch = make_batch(corpus, np.arange(len(corpus)))
    dcfg = DecodeConfig(beam_size=1, max_length=12)
    a = decode_batch(params, batch.source, batch.source_mask, dcfg)
    b = decode_batch(params, batch.source, batch.source_mask, dcfg)
    assert a == b


def test_converged_copy_model_copies_heldout(trained_copy_model):
    params, cfg = trained_copy_model
    corpus = gen_task(TaskKind.COPY, cfg.vocab_size, 3, 6, 40, seed=46)
    batch = make_batch(corpus, np.arange(len(corpus)))
    out = decode_batch(params, batch.source, batch.source_mask, DecodeConfig(beam_size=1, max_length=12))
    hits = sum(
        seq == batch.source[i, : batch.source_lengths[i]].tolist() for i, seq in enumerate(out)
    )
    assert hits / len(out) >= 0.95


def test_transformer_beam_one_equals_greedy_on_trained_model(trained_copy_model):
    params, cfg = trained_copy_model
    corpus = gen_task(TaskKind.COPY, cfg.vocab_size, 3, 6, 20, seed=47)
    batch = make_batch(corpus, np.arange(len(corpus)))
    dcfg = DecodeConfig(beam_size=1, max_length=12)
    greedy = decode_batch(params, batch.source, batch.source_mask, dcfg)
    scorer = transformer_scorer(params, batch.source, batch.source_mask)
    beams = beam_search(scorer, cfg.vocab_size, dcfg, len(corpus.pairs))
    assert [r.tokens for r in beams] == greedy
    assert all(r.finished for r in beams)


def test_decode_batch_order_and_beam_scores(trained_copy_model):
    params, cfg = trained_copy_model
    batch = batch_of([([5, 6, 7], [5, 6, 7]), ([8, 9, 10, 11], [8, 9, 10, 11])])
    dcfg = DecodeConfig(beam_size=4, max_length=12)
    results = beam_search(transformer_scorer(params, batch.source, batch.source_mask), cfg.vocab_size, dcfg, 2)
    assert [r.tokens for r in results] == [[5, 6, 7], [8, 9, 10, 11]]
    assert decode_batch(params, batch.source, batch.source_mask, dcfg) == [[5, 6, 7], [8, 9, 10, 11]]
    for r in results:
        assert r.score <= 0.0


def test_decode_module_never_touches_the_sampler():
    source = Path("src/sslab/decode.py").read_text(encoding="utf-8")
    assert "sampler" not in source


# ---------------------------------------------------------------------------
# incremental scorer against full-prefix recompute
# ---------------------------------------------------------------------------

SCORER_TOLERANCE = {"float32": dict(rtol=1e-5, atol=1e-5), "float64": dict(rtol=1e-10, atol=1e-11)}


def full_prefix_scorer(params, source, source_mask):
    """The uncached reference: the whole decoder over the full prefix per call."""
    with no_grad():
        enc = encode(params, source, source_mask).data

    def step(prefixes, rows, parents):
        with no_grad():
            emb = embed_targets(params, prefixes)
            source = source_state(params, constant(enc[rows]), source_mask[rows])
            logits = decode_step_logits(params, source, emb)
        return log_softmax(logits.data[:, -1, :], axis=-1)

    return step


@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_greedy_decodes_past_256_positions_as_the_uncached_scorer_does(dtype):
    params = init_params(tiny_config(param_dtype=dtype), named_rng(0, "init"))  # untrained: no row ends early
    batch = batch_of([([5, 6, 7], [5]), ([8, 9], [5])])
    cfg = DecodeConfig(beam_size=1, max_length=300)
    got = decode_batch(params, batch.source, batch.source_mask, cfg)
    assert [len(h) for h in got] == [300, 300]
    assert got == greedy_decode(full_prefix_scorer(params, batch.source, batch.source_mask), cfg, 2)


def _scorer_pair(dtype, seed=60, b=4):
    cfg = tiny_config(param_dtype=dtype, num_decoder_layers=2)
    params = init_params(cfg, named_rng(seed, "init"))
    corpus = gen_task(TaskKind.COPY, cfg.vocab_size, 3, 7, b, seed=seed)
    batch = make_batch(corpus, np.arange(len(corpus)))
    cached = transformer_scorer(params, batch.source, batch.source_mask)
    full = full_prefix_scorer(params, batch.source, batch.source_mask)
    previous = None  # the previous call's (rows, prefixes)

    def check(prefixes, rows, fresh=False):
        """Score through both scorers; unless ``fresh``, each row's parent is found among the previous call's rows."""
        nonlocal previous
        prefixes, rows = np.asarray(prefixes, dtype=np.int64), np.asarray(rows)
        parents = None
        if previous is not None and not fresh:
            index = {(r, p.tobytes()): i for i, (r, p) in enumerate(zip(*previous))}
            parents = np.array([index[(r, p[:-1].tobytes())] for r, p in zip(rows.tolist(), prefixes)])
        got = cached(prefixes, rows, parents)
        np.testing.assert_allclose(got, full(prefixes, rows, parents), **SCORER_TOLERANCE[dtype])
        previous = (rows.tolist(), prefixes)
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
def test_cached_scorer_follows_beams_that_share_a_source_row(dtype):
    cfg, check = _scorer_pair(dtype)
    bos = BOS_ID
    check([[bos], [bos]], [1, 3])
    check([[bos, 7], [bos, 9], [bos, 5], [bos, 8]], [1, 1, 3, 3])  # two beams per source: k = 2
    # source 3 stops and source 1's beams extend the previous call's rows 0 and 1: parents are
    # [0, 1], the identity over this call's source rows but not over the previous call's four rows
    check([[bos, 7, 6], [bos, 9, 8]], [1, 1])
    check([[bos, 7, 6, 5], [bos, 7, 6, 6], [bos, 9, 8, 5], [bos, 9, 8, 7]], [1, 1, 1, 1])  # k = 4
    check([[bos, 7, 6, 6, 6], [bos, 9, 8, 5, 6], [bos, 9, 8, 5, 7]], [1, 1, 1])  # k = 3


@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_call_without_parents_mid_search_recomputes_from_an_empty_cache(dtype):
    cfg, check = _scorer_pair(dtype)
    bos = BOS_ID
    check([[bos], [bos]], [0, 2])
    check([[bos, 5], [bos, 6]], [0, 2])
    check([[bos, 5, 7, 8], [bos, 6, 9, 9]], [0, 2], fresh=True)  # jumps two positions ahead
    check([[bos, 5, 7, 8, 10], [bos, 6, 9, 9, 5]], [0, 2])  # extends the jump
    check([[bos, 5, 7, 8, 10, 5], [bos, 6, 9, 9, 5, 5]], [0, 3], fresh=True)  # same prefix, other source
    check([[bos], [bos], [bos]], [3, 2, 1], fresh=True)  # a new search restarts at the sentinel
    check([[bos, 5], [bos, 6], [bos, 7]], [3, 2, 1])


@pytest.mark.parametrize("beam", [1, 2, 4])
def test_cached_decoding_matches_full_prefix_hypotheses(trained_copy_model, beam):
    params, cfg = trained_copy_model
    corpus = gen_task(TaskKind.COPY, cfg.vocab_size, 3, 6, 24, seed=48)
    batch = make_batch(corpus, np.arange(len(corpus)))
    dcfg = DecodeConfig(beam_size=beam, max_length=12)
    hyps = []
    for make_scorer in (transformer_scorer, full_prefix_scorer):
        scorer = make_scorer(params, batch.source, batch.source_mask)
        if beam == 1:
            hyps.append(greedy_decode(scorer, dcfg, len(corpus.pairs)))
        else:
            hyps.append([r.tokens for r in beam_search(scorer, cfg.vocab_size, dcfg, len(corpus.pairs))])
    assert hyps[0] == hyps[1]


# ---------------------------------------------------------------------------
# lockstep search across sources against one search per source
# ---------------------------------------------------------------------------

FIXTURE_CHECKPOINT = Path(__file__).resolve().parents[1] / "perfbench" / "fixture" / "ckpt.bin"


def no_eos_scorer(vocab):
    """Uniform over every token except the end token, which is unreachable."""

    def step(prefixes):
        out = np.full((prefixes.shape[0], vocab), np.log(1.0 / (vocab - 1)))
        out[:, EOS_ID] = -np.inf
        return out

    return step


def per_source_beam_decode(params, source, source_mask, dcfg):
    """One search per source row over a shared scorer, as decoding ran before batching."""
    scorer = transformer_scorer(params, source, source_mask)
    vocab = params.config.vocab_size
    return [
        beam_search(lambda p, r, parents, row=row: scorer(p, np.full(len(p), row), parents), vocab, dcfg)[0]
        for row in range(source.shape[0])
    ]


@pytest.mark.parametrize("beam", range(1, 6))
def test_lockstep_search_equals_one_search_per_source(beam):
    vocab = 6
    cfg = DecodeConfig(beam_size=beam, length_penalty=0.6, max_length=7)
    scorers = [
        random_scorer(3, vocab),
        pattern_scorer([0, 3, 4, 5, 0], vocab),
        random_scorer(4, vocab, scale=3.0),
        pattern_scorer([4], vocab),
        no_eos_scorer(vocab),
        random_scorer(5, vocab, scale=0.3),
        pattern_scorer([3, 3, 0], vocab, peak=2.0),
    ]
    want, want_rows = [], []  # per source: its result, and its beams scored per call
    for scorer in scorers:
        rows = []

        def step(prefixes, _, __, scorer=scorer, rows=rows):
            rows.append(len(prefixes))
            return scorer(prefixes)

        want.append(beam_search(step, vocab, cfg)[0])
        want_rows.append(rows)
    assert len({len(rows) for rows in want_rows}) > 2  # the sources stop at different steps

    calls = []

    def step(prefixes, rows, parents):
        calls.append(rows.tolist())
        return np.stack([scorers[r](p[None])[0] for p, r in zip(prefixes, rows.tolist())])

    got = beam_search(step, vocab, cfg, len(scorers))
    assert got == want
    # one call per step; a stopped source leaves every later call
    assert len(calls) == max(len(rows) for rows in want_rows)
    for i, rows in enumerate(calls):
        assert rows == [s for s, per_call in enumerate(want_rows) if i < len(per_call) for _ in range(per_call[i])]


def test_lockstep_search_over_no_sources_makes_no_call():
    def step(prefixes, rows, parents):
        raise AssertionError("scorer called")

    assert beam_search(step, 5, DecodeConfig(beam_size=3), 0) == []
    assert greedy_decode(step, DecodeConfig(beam_size=1), 0) == []


@pytest.mark.parametrize("beam", [2, 3, 4])
def test_batched_beam_search_equals_per_source_search(trained_copy_model, beam):
    params, cfg = trained_copy_model
    corpus = gen_task(TaskKind.COPY, cfg.vocab_size, 3, 6, 24, seed=49)
    batch = make_batch(corpus, np.arange(len(corpus)))
    dcfg = DecodeConfig(beam_size=beam, max_length=12)
    scorer = transformer_scorer(params, batch.source, batch.source_mask)
    got = beam_search(scorer, cfg.vocab_size, dcfg, len(corpus.pairs))
    want = per_source_beam_decode(params, batch.source, batch.source_mask, dcfg)
    assert [r.tokens for r in got] == [r.tokens for r in want]
    assert [r.finished for r in got] == [r.finished for r in want]
    np.testing.assert_allclose([r.score for r in got], [r.score for r in want], rtol=1e-5)


def per_source_greedy_decode(params, source, source_mask, dcfg):
    """One greedy search per source row over a shared scorer."""
    scorer = transformer_scorer(params, source, source_mask)
    return [
        greedy_decode(lambda p, r, parents, row=row: scorer(p, np.full(len(p), row), parents), dcfg, 1)[0]
        for row in range(source.shape[0])
    ]


# (beam_size, eval pairs, batches): gap-greedy's shape and evaluate-beam's
@pytest.mark.parametrize("beam, pairs, batches", [(1, 72, 2), (4, 48, 3)])
def test_evaluate_beam_fixture_decodes_as_per_source_search_in_few_calls(monkeypatch, beam, pairs, batches):
    params, _, _ = load_model_checkpoint(str(FIXTURE_CHECKPOINT))
    run = load_run_config(None, ["seed=1", f"data.eval_count={pairs}", f"decode.beam_size={beam}"])
    dcfg = run.decode
    _, corpus = build_corpora(run)
    batch = make_batch(corpus, np.arange(len(corpus)))
    if beam == 1:
        want = per_source_greedy_decode(params, batch.source, batch.source_mask, dcfg)
    else:
        want = [r.tokens for r in per_source_beam_decode(params, batch.source, batch.source_mask, dcfg)]

    calls = []  # rows of each scorer call, one list per batch
    model_steps = []  # rows of each decoder pass

    def counting_scorer(*args):
        scorer = transformer_scorer(*args)
        calls.append([])

        def step(prefixes, rows, parents):
            calls[-1].append(len(rows))
            return scorer(prefixes, rows, parents)

        return step

    def counting_step_logits(params, source, emb, **kwargs):
        model_steps.append(emb.data.shape[0])
        return decode_step_logits(params, source, emb, **kwargs)

    widths = []  # padded source width of each batch

    def spying_decode_batch(params, source, source_mask, dcfg):
        widths.append(source.shape[1])
        return decode_batch(params, source, source_mask, dcfg)

    # the benchmark cuts tokens_per_s at each call of the scorer bound on sslab.decode
    monkeypatch.setattr(decode_module, "transformer_scorer", counting_scorer)
    monkeypatch.setattr(decode_module, "decode_step_logits", counting_step_logits)
    monkeypatch.setattr(metrics_module, "decode_batch", spying_decode_batch)
    lengths = [len(src) for src, _ in corpus.pairs]
    assert lengths != sorted(lengths)  # batches run in length order, so hypotheses must be put back
    hyps = decode_corpus(params, corpus, dcfg)
    assert hyps == want
    assert len(calls) == len(widths) == batches  # 64 rows per call hold 64 sources at beam 1, 16 at beam 4
    assert widths == sorted(widths)
    assert [n for batch_calls in calls for n in batch_calls] == model_steps  # the probe sees every decoder pass
    assert all(0 < len(batch_calls) <= dcfg.max_length for batch_calls in calls)
    assert max(model_steps) <= 64


# ---------------------------------------------------------------------------
# per-source state gathered only when the source rows change
# ---------------------------------------------------------------------------


def test_scorer_gathers_source_state_once_per_change_of_rows(trained_copy_model, monkeypatch):
    params, cfg = trained_copy_model
    corpus = gen_task(TaskKind.COPY, cfg.vocab_size, 1, 6, 8, seed=50)
    batch = make_batch(corpus, np.arange(len(corpus)))
    gathers = []
    take = model_module.SourceState.take

    def spy(self, rows):
        gathers.append(np.array(rows))
        return take(self, rows)

    monkeypatch.setattr(model_module.SourceState, "take", spy)
    scorer = transformer_scorer(params, batch.source, batch.source_mask)
    full = full_prefix_scorer(params, batch.source, batch.source_mask)
    calls = []

    def step(prefixes, rows, parents):
        calls.append(rows)
        got = scorer(prefixes, rows, parents)
        np.testing.assert_allclose(got, full(prefixes, rows, parents), **SCORER_TOLERANCE["float32"])
        return got

    beam_search(step, cfg.vocab_size, DecodeConfig(beam_size=3, max_length=12), len(corpus.pairs))
    # a call's source rows: one per run of a source's beams, which all read that source's state row
    sources = [rows[np.r_[True, rows[1:] != rows[:-1]]] for rows in calls]
    assert any(len(rows) > len(s) for rows, s in zip(calls, sources))  # beams fill up without a gather
    changed = [
        s for prev, s in zip([np.arange(len(corpus.pairs))] + sources, sources) if not np.array_equal(prev, s)
    ]
    assert len(changed) >= 2  # sources stop at different steps
    assert len(gathers) == len(changed)
    assert all(np.array_equal(g, s) for g, s in zip(gathers, changed))


@pytest.mark.parametrize("dtype", ["float32", "float64"])
@pytest.mark.parametrize("k", [2, 4])
def test_beams_sharing_a_source_row_give_the_logits_of_a_row_per_beam(dtype, k):
    cfg = tiny_config(param_dtype=dtype, num_decoder_layers=2)
    params = init_params(cfg, named_rng(61, "init"))
    batch = batch_of(gen_task(TaskKind.COPY, cfg.vocab_size, 2, 9, 3, seed=61).pairs)
    sources = batch.size
    prefixes = named_rng(62, "prefixes").integers(5, cfg.vocab_size, size=(sources * k, 6))
    prefixes[:, 0] = BOS_ID
    with no_grad():
        shared = source_state(params, encode(params, batch.source, batch.source_mask), batch.source_mask)
    per_beam = shared.take(np.repeat(np.arange(sources), k))

    def logits(state, ids, cache=None):
        with no_grad():
            return decode_step_logits(params, state, embed_targets(params, ids), cache=cache).data

    # n > 1 without a cache, as a full-prefix pass runs: bit for bit
    assert np.array_equal(logits(shared, prefixes), logits(per_beam, prefixes))
    # n > 1 into an empty cache, then n = 1 positions from it, as the scorer runs. With n = 1 a row
    # per beam is a one-row product, which numpy hands to BLAS gemv, while k beams sharing a row are
    # a k-row gemm; the two kernels sum in different orders, so those logits agree to a few ulps
    caches = [model_module.DecoderCache.empty(cfg, sources * k) for _ in range(2)]
    for lo, hi in ((0, 4), (4, 5), (5, 6)):
        got, want = (logits(state, prefixes[:, lo:hi], cache) for state, cache in zip((shared, per_beam), caches))
        assert got.dtype == np.dtype(dtype)
        if hi - lo > 1:
            assert np.array_equal(got, want)
        else:
            np.testing.assert_allclose(got, want, rtol=0, atol=16 * np.finfo(dtype).eps * np.abs(want).max())
    with pytest.raises(ValueError, match="batch mismatch"):
        logits(shared, prefixes[: sources * k - 1])


@pytest.mark.parametrize("beam", range(1, 6))
def test_running_best_finished_score_is_the_pool_maximum(beam):
    vocab = 6
    cfg = DecodeConfig(beam_size=beam, length_penalty=0.6, max_length=7)
    scorers = [
        random_scorer(3, vocab),
        pattern_scorer([0, 3, 4, 5, 0], vocab),
        random_scorer(4, vocab, scale=3.0),
        no_eos_scorer(vocab),  # its pool stays empty
    ]
    calls = []

    def step(prefixes, rows, parents):
        logp = np.stack([scorers[r](p[None])[0] for p, r in zip(prefixes, rows.tolist())])
        calls.append((prefixes[:, 1:].tolist(), rows.tolist(), logp))
        return logp

    results = beam_search(step, vocab, cfg, len(scorers))
    # rebuild every pool's maximum and each live source's stopping test from
    # the scored prefixes alone: the search must stop a source exactly when
    # its best live score, penalized, cannot beat the maximum of its pool
    raw = {(s, ()): 0.0 for s in range(len(scorers))}
    pool_max = np.full(len(scorers), -np.inf)
    seen = []
    for t, (prefixes, rows, logp) in enumerate(calls):
        penalty = length_penalty(t + 1, cfg.length_penalty)
        best_live = {}
        for p, s, lp in zip(prefixes, rows, logp):
            base = raw[(s, tuple(p))]
            for v in range(vocab):
                if v != EOS_ID:
                    raw[(s, (*p, v))] = base + lp[v]
            if np.isfinite(base + lp[EOS_ID]):
                pool_max[s] = max(pool_max[s], (base + lp[EOS_ID]) / penalty)
            best_live[s] = max(best_live.get(s, -np.inf), float(np.max(np.delete(base + lp, EOS_ID))))
        stopping = {s for s in best_live if np.isfinite(pool_max[s]) and best_live[s] / penalty <= pool_max[s]}
        seen.extend(pool_max[sorted(best_live)].tolist())
        if t + 1 < len(calls):
            assert sorted(set(calls[t + 1][1])) == sorted(set(best_live) - stopping), f"step {t}"
        elif t + 1 < cfg.max_length:
            assert stopping == set(best_live), f"step {t}"
    for s, result in enumerate(results):
        assert result.finished == bool(np.isfinite(pool_max[s]))
        if result.finished:
            assert result.score == pool_max[s]
    assert np.isfinite(seen).any() and not np.isfinite(seen).all()


# ---------------------------------------------------------------------------
# array-state search against the per-source reference
# ---------------------------------------------------------------------------


@dataclass
class ReferenceSourceSearch:
    """One source's beam state as Python lists: live hypotheses, their raw scores, the finished pool."""

    beams: list[list[int]] = field(default_factory=lambda: [[]])
    scores: np.ndarray = field(default_factory=lambda: np.zeros(1))
    finished: list[tuple[list[int], float]] = field(default_factory=list)
    best_finished: float = -np.inf  # max penalized score in ``finished``

    def advance(self, logp: np.ndarray, t: int, vocab_size: int, decode_cfg: DecodeConfig) -> bool:
        """Extend every live beam by one token; True once the stopping rule fires."""
        alpha = decode_cfg.length_penalty
        total = self.scores[:, None] + logp  # [K, V]
        # every reachable end-token continuation joins the finished pool; it
        # does not compete for a beam slot, so short finishes with strong
        # penalized scores cannot be crowded out by raw-score ranking
        for beam_idx in range(len(self.beams)):
            raw = float(total[beam_idx, EOS_ID])
            if np.isfinite(raw):
                pen = raw / length_penalty(t + 1, alpha)
                self.finished.append((self.beams[beam_idx], pen))
                self.best_finished = max(self.best_finished, pen)
        total[:, EOS_ID] = -np.inf
        flat = total.reshape(-1)
        k = min(decode_cfg.beam_size, len(self.beams) * (vocab_size - 1))
        top = np.argpartition(-flat, k - 1)[:k]
        top = top[np.argsort(-flat[top])]
        parents, tokens = np.divmod(top, vocab_size)
        self.beams = [self.beams[p] + [tok] for p, tok in zip(parents.tolist(), tokens.tolist())]
        self.scores = flat[top]
        if not self.finished:
            return False
        attainable = float(self.scores.max()) / length_penalty(t + 1, alpha)
        return attainable <= self.best_finished

    def result(self, decode_cfg: DecodeConfig) -> BeamResult:
        if self.finished:
            tokens, pen = sorted(self.finished, key=lambda item: -item[1])[0]
            return BeamResult(list(tokens), pen, True)
        best = int(np.argmax(self.scores))
        pen = float(self.scores[best]) / length_penalty(len(self.beams[best]), decode_cfg.length_penalty)
        return BeamResult(list(self.beams[best]), pen, False)


def reference_beam_search(step_fn, vocab_size, decode_cfg, sources=1):
    """Beam search with one ``ReferenceSourceSearch`` per source, stacked into one scorer call per step."""
    searches = [ReferenceSourceSearch() for _ in range(sources)]
    live = list(range(sources))
    for t in range(decode_cfg.max_length):
        if not live:
            break
        prefixes = np.array([[BOS_ID] + b for s in live for b in searches[s].beams], dtype=np.int64)
        counts = [len(searches[s].beams) for s in live]
        logp = step_fn(prefixes, np.repeat(live, counts), None)
        still = []
        lo = 0
        for s, n in zip(live, counts):
            if not searches[s].advance(logp[lo : lo + n], t, vocab_size, decode_cfg):
                still.append(s)
            lo += n
        live = still
    return [s.result(decode_cfg) for s in searches]


def random_toy_search(rng):
    """A drawn toy search: its config, vocabulary and one stub scorer per source."""
    vocab = int(rng.integers(3, 8))  # below beam_size, the width is capped at step 0
    cfg = DecodeConfig(
        beam_size=int(rng.integers(1, 7)), length_penalty=float(rng.choice([0.0, 0.6, 1.2])),
        max_length=int(rng.integers(1, 9)),
    )
    scorers = []
    for _ in range(int(rng.integers(0, 6))):
        kind = rng.integers(5)
        if kind == 0:
            scorers.append(no_eos_scorer(vocab))
        elif kind == 1:
            pattern = np.delete(np.arange(vocab), EOS_ID)[rng.integers(0, vocab - 1, size=int(rng.integers(0, 6)))]
            scorers.append(pattern_scorer(pattern.tolist(), vocab, peak=float(rng.choice([2.0, 8.0]))))
        elif kind == 2:  # every token ties, so the stopping rule meets equal scores
            scorers.append(lambda prefixes, vocab=vocab: np.full((len(prefixes), vocab), -np.log(vocab)))
        else:
            scorers.append(random_scorer(int(rng.integers(1000)), vocab, scale=float(rng.choice([0.3, 1.0, 3.0]))))
    return vocab, cfg, scorers


def test_array_search_equals_per_source_reference_on_random_toy_searches():
    rng = np.random.default_rng(13)
    seen = set()  # (finished, width capped below beam_size at step 0) over every result
    for draw in range(300):
        vocab, cfg, scorers = random_toy_search(rng)
        runs = []
        for search in (beam_search, reference_beam_search):
            calls = []

            def step(prefixes, rows, parents):
                calls.append((prefixes.tolist(), rows.tolist()))
                return np.stack([scorers[r](p[None])[0] for p, r in zip(prefixes, rows.tolist())])

            results = [(r.tokens, r.score, r.finished) for r in search(step, vocab, cfg, len(scorers))]
            runs.append((results, calls))
        assert runs[0] == runs[1], f"draw {draw}: vocab {vocab}, {cfg}, {len(scorers)} sources"
        seen |= {(finished, vocab - 1 < cfg.beam_size) for _, _, finished in runs[0][0]}
    assert seen == {(True, True), (True, False), (False, True), (False, False)}


# ---------------------------------------------------------------------------
# parents: each call after a search's first names every row's parent
# ---------------------------------------------------------------------------


def recording_step(scorers, calls):
    """A toy scorer per source row that records every call's (prefixes, rows, parents)."""

    def step(prefixes, rows, parents):
        calls.append((prefixes, rows, parents))
        return np.stack([scorers[r](p[None])[0] for p, r in zip(prefixes, rows.tolist())])

    return step


def assert_parent_contract(calls):
    """The first call has no parents; every later row extends its parent, a row of the previous call."""
    assert calls[0][2] is None
    for (prev_prefixes, prev_rows, _), (prefixes, rows, parents) in zip(calls, calls[1:]):
        np.testing.assert_array_equal(prev_rows[parents], rows)
        np.testing.assert_array_equal(prev_prefixes[parents], prefixes[:, :-1])


def test_greedy_names_every_rows_parent():
    vocab = 15
    scorers = [pattern_scorer(list(range(5, 5 + n)), vocab) for n in (3, 0, 5, 1)]
    scorers += [no_eos_scorer(vocab), random_scorer(8, vocab, scale=3.0)]
    calls = []
    hyps = greedy_decode(recording_step(scorers, calls), DecodeConfig(max_length=9), len(scorers))
    assert [len(h) for h in hyps[:4]] == [3, 0, 5, 1] and len(hyps[4]) == 9
    assert len({len(rows) for _, rows, _ in calls}) > 3  # the alive set shrinks step by step
    assert_parent_contract(calls)


def test_beam_search_names_every_rows_parent_on_random_toy_searches():
    rng = np.random.default_rng(15)
    reordered = 0  # calls whose parents are not the previous call's rows in order
    for draw in range(300):
        vocab, cfg, scorers = random_toy_search(rng)
        calls = []
        beam_search(recording_step(scorers, calls), vocab, cfg, len(scorers))
        if scorers:
            assert_parent_contract(calls)
        reordered += sum(not np.array_equal(parents, np.arange(len(parents))) for _, _, parents in calls[1:])
    assert reordered
