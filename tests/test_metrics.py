import math
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from batching import batch_of
from sslab import metrics
from sslab.cli import RunConfig, build_corpora, load_model_checkpoint
from sslab.data import BOS_ID, EOS_ID, FIRST_CONTENT_ID, NULL_ID, Corpus, TaskKind, Vocab, gen_task
from sslab.decode import DecodeConfig, greedy_decode
from sslab.metrics import (
    MetricsError,
    StepCurve,
    corpus_bleu_lite,
    decode_corpus,
    empirical_schedule,
    fuzzy_precision_per_step,
    gap_curve,
    in_corpus_order,
    length_sorted_batches,
    strict_precision_per_step,
    token_accuracy,
    write_curve_csv,
)
from sslab.schedules import Family, eval_schedule

A, B, C, D, E = 5, 6, 7, 8, 9


# ---------------------------------------------------------------------------
# strict and fuzzy precision
# ---------------------------------------------------------------------------


def test_identical_sequences_score_one_everywhere():
    seqs = [[A, B, C], [D, E]]
    curve = strict_precision_per_step(seqs, seqs)
    assert curve.values == [1.0, 1.0, 1.0]
    assert curve.counts == [2, 2, 1]


def test_disjoint_vocabularies_score_zero():
    curve = strict_precision_per_step([[A, A, A]], [[B, B, B]])
    assert curve.values == [0.0, 0.0, 0.0]


def test_swapped_prefix_hand_enumeration():
    ref = [[A, B, C, D]]
    hyp = [[B, A, C, D]]
    assert strict_precision_per_step(hyp, ref).values == [0.0, 0.0, 1.0, 1.0]
    assert fuzzy_precision_per_step(hyp, ref, window=3).values == [1.0, 1.0, 1.0, 1.0]


def test_window_one_reproduces_strict():
    hyp = [[B, A, C, D], [A, B]]
    ref = [[A, B, C, D], [A, C]]
    strict = strict_precision_per_step(hyp, ref)
    fuzzy = fuzzy_precision_per_step(hyp, ref, window=1)
    assert strict.values == fuzzy.values
    assert strict.counts == fuzzy.counts


def test_long_hypothesis_tail_is_truncated():
    curve = fuzzy_precision_per_step([[A, B, C, D, E]], [[A, B]], window=3)
    assert curve.steps == [0, 1]
    assert curve.values == [1.0, 1.0]


def test_short_hypothesis_padding_never_matches():
    curve = fuzzy_precision_per_step([[A]], [[A, NULL_ID, NULL_ID]], window=3)
    # steps 1..2 are null-padded in the hypothesis; padding scores a miss
    assert curve.values == [1.0, 0.0, 0.0]


def test_window_validation():
    with pytest.raises(MetricsError, match="odd"):
        fuzzy_precision_per_step([[A]], [[A]], window=2)
    with pytest.raises(MetricsError, match="empty"):
        strict_precision_per_step([], [])


def corpus_strategy():
    token = st.integers(5, 12)
    seq = st.lists(token, min_size=1, max_size=8)
    return st.lists(st.tuples(seq, seq), min_size=1, max_size=12)


@given(corpus_strategy())
@settings(max_examples=60, deadline=None)
def test_fuzzy_dominates_strict_pointwise(pairs):
    hyps = [h for h, _ in pairs]
    refs = [r for _, r in pairs]
    strict = strict_precision_per_step(hyps, refs)
    fuzzy = fuzzy_precision_per_step(hyps, refs, window=3)
    assert strict.steps == fuzzy.steps
    for s, f in zip(strict.values, fuzzy.values):
        assert f >= s - 1e-12


@given(corpus_strategy())
@settings(max_examples=60, deadline=None)
def test_window_one_identity_property(pairs):
    hyps = [h for h, _ in pairs]
    refs = [r for _, r in pairs]
    assert (
        fuzzy_precision_per_step(hyps, refs, window=1).values
        == strict_precision_per_step(hyps, refs).values
    )


def reference_precision(hypotheses, references, window):
    """Plain-loop windowed precision as (steps, hits, counts), one entry per step with a reference token."""
    half = (window - 1) // 2
    steps, hits, counts = [], [], []
    for t in range(max((len(r) for r in references), default=0)):
        hit = total = 0
        for hyp, ref in zip(hypotheses, references):
            if t >= len(ref):
                continue
            total += 1
            tok = hyp[t] if t < len(hyp) else NULL_ID
            if tok != NULL_ID and tok in ref[max(0, t - half) : min(len(ref) - 1, t + half) + 1]:
                hit += 1
        if total:
            steps.append(t)
            hits.append(hit)
            counts.append(total)
    return steps, hits, counts


def reserved_corpus_strategy():
    # ids 0..4 are the reserved tokens, NULL_ID among them; hypotheses may
    # be empty or longer than their reference
    token = st.integers(0, 12)
    pair = st.tuples(st.lists(token, max_size=10), st.lists(token, max_size=8))
    return st.lists(pair, min_size=1, max_size=10)


@given(reserved_corpus_strategy(), st.sampled_from([1, 3, 5]))
@settings(max_examples=200, deadline=None)
def test_precision_matches_plain_loop_reference(pairs, window):
    hyps = [h for h, _ in pairs]
    refs = [r for _, r in pairs]
    steps, hits, counts = reference_precision(hyps, refs, window)
    curves = [fuzzy_precision_per_step(hyps, refs, window)]
    if window == 1:
        curves.append(strict_precision_per_step(hyps, refs))
    for curve in curves:
        assert curve.steps == steps
        assert curve.counts == counts
        assert curve.values == [h / c for h, c in zip(hits, counts)]
    if window == 1 and counts:
        assert token_accuracy(hyps, refs) == sum(hits) / sum(counts)


# ---------------------------------------------------------------------------
# the gap instrument in closed form: decode, per-step precision, gap.csv
# ---------------------------------------------------------------------------

MAP_VOCAB, MAP_A, MAP_B, CONTENT = 50, 2, 1, 45  # content ids 5..49; gen_task's map is 2*(s - 5) + 1 mod 45


def error_table_scorer(sources, lengths, errors):
    """A toy h = 1 noisy-map model whose mistakes are exactly the True cells of ``errors`` [rows, steps].

    At step t it continues the recurrence from its own previous token,
    adds 1 (mod 45) where the table marks (row, t), and emits the end token
    at the row's reference length. An error offsets every later token by
    the same amount, so a row is right at t iff it made no error in [0, t],
    for t < 45.
    """

    def step(prefixes, rows, parents):
        t = prefixes.shape[1] - 1
        out = np.full((len(rows), MAP_VOCAB), -np.inf)
        for i, r in enumerate(rows.tolist()):
            if t == lengths[r]:
                out[i, EOS_ID] = 0.0
                continue
            prev = prefixes[i, -1] - FIRST_CONTENT_ID if t else 0
            token = ((sources[r][t] - FIRST_CONTENT_ID) * MAP_A + prev + MAP_B + errors[r, t]) % CONTENT
            out[i, token + FIRST_CONTENT_ID] = 0.0
        return out

    return step


def test_gap_instrument_matches_the_error_table_in_closed_form():
    corpus = gen_task(TaskKind.NOISY_MAP, MAP_VOCAB, 10, 40, 300, seed=7, noise=0.0, history_weight=1)
    sources, refs = [src for src, _ in corpus.pairs], [tgt for _, tgt in corpus.pairs]
    lengths = np.array([len(r) for r in refs])
    errors = np.random.default_rng(11).random((len(refs), 40)) < 0.05
    scorer = error_table_scorer(sources, lengths, errors)

    hyps = greedy_decode(scorer, DecodeConfig(beam_size=1, max_length=64), len(refs))
    # teacher forcing: the argmax at every golden prefix, as the CLI's teacher-forced pass reads it
    train_preds = [[] for _ in refs]
    for t in range(lengths.max()):
        rows = np.flatnonzero(lengths > t)
        golden = np.array([[BOS_ID, *refs[r][:t]] for r in rows])
        for r, token in zip(rows.tolist(), scorer(golden, rows, None).argmax(axis=-1).tolist()):
            train_preds[r].append(token)
    train = strict_precision_per_step(train_preds, refs)
    strict = strict_precision_per_step(hyps, refs)
    infer = fuzzy_precision_per_step(hyps, refs, window=3)

    steps = np.arange(lengths.max())
    counts = [int((lengths > t).sum()) for t in steps]
    clean = ~np.logical_or.accumulate(errors, axis=1)  # no error in [0, t]
    assert [len(h) for h in hyps] == lengths.tolist()
    assert strict.steps == train.steps == steps.tolist()
    assert strict.counts == train.counts == counts
    assert strict.values == [int(clean[lengths > t, t].sum()) / n for t, n in zip(steps, counts)]
    assert train.values == [(n - int(errors[lengths > t, t].sum())) / n for t, n in zip(steps, counts)]
    ref_steps, ref_hits, ref_counts = reference_precision(hyps, refs, 3)
    assert (infer.steps, infer.counts) == (ref_steps, ref_counts)
    assert infer.values == [h / n for h, n in zip(ref_hits, ref_counts)]

    gap = gap_curve(train, infer)
    assert (gap.steps, gap.counts) == (train.steps, train.counts)
    assert gap.values == [tv - iv for tv, iv in zip(train.values, infer.values)]
    # errors compound along the hypothesis, so the gap grows with the decoding step
    assert np.mean(gap.values[-12:]) > np.mean(gap.values[:12]) + 0.3


def test_gap_curve_needs_curves_over_the_same_steps_and_counts():
    with pytest.raises(MetricsError, match="same steps"):
        gap_curve(StepCurve([0, 1], [1.0, 1.0], [2, 2]), StepCurve([0, 1], [0.5, 0.5], [2, 1]))


# ---------------------------------------------------------------------------
# BLEU
# ---------------------------------------------------------------------------


def _oracle_bleu(hyps, refs, max_n=4):
    # independent reference implementation built directly on Counters
    def ngrams(seq, n):
        return Counter(tuple(seq[i : i + n]) for i in range(len(seq) - n + 1))

    hyp_len = sum(map(len, hyps))
    ref_len = sum(map(len, refs))
    if hyp_len == 0:
        return 0.0
    total_log = 0.0
    for n in range(1, max_n + 1):
        clipped = total = 0
        for h, r in zip(hyps, refs):
            hc, rc = ngrams(h, n), ngrams(r, n)
            total += sum(hc.values())
            clipped += sum(min(c, rc[g]) for g, c in hc.items())
        if n >= 2 and clipped == 0:
            p = 1.0 / (total + 1.0)
        elif clipped == 0 or total == 0:
            return 0.0
        else:
            p = clipped / total
        total_log += math.log(p) / max_n
    bp = 1.0 if hyp_len >= ref_len else math.exp(1.0 - ref_len / hyp_len)
    return bp * math.exp(total_log)


def test_bleu_identical_corpora():
    corpus = [[A, B, C], [D, E, A, B]]
    assert corpus_bleu_lite(corpus, corpus) == pytest.approx(1.0)


def test_bleu_empty_hypotheses_warns_and_scores_zero():
    with pytest.warns(UserWarning, match="empty"):
        assert corpus_bleu_lite([[], []], [[A], [B]]) == 0.0


def test_bleu_worked_example():
    # unigram 3/4, bigram 2/3, trigram 1/2, four-gram smoothed to 1/2
    score = corpus_bleu_lite([[A, B, C, D]], [[A, B, C, E]])
    assert score == pytest.approx((3 / 4 * 2 / 3 * 1 / 2 * 1 / 2) ** 0.25, abs=1e-12)
    assert score == pytest.approx(0.5946035575013605, abs=1e-12)


@given(corpus_strategy())
@settings(max_examples=100, deadline=None)
def test_bleu_matches_independent_oracle(pairs):
    hyps = [h for h, _ in pairs]
    refs = [r for _, r in pairs]
    assert corpus_bleu_lite(hyps, refs) == pytest.approx(_oracle_bleu(hyps, refs), abs=1e-9)


def test_token_accuracy_micro_average():
    hyps = [[A, B], [C]]
    refs = [[A, E], [C, D, E]]
    # hits: 1 of 2, then 1 of 3
    assert token_accuracy(hyps, refs) == pytest.approx(2 / 5)


# ---------------------------------------------------------------------------
# corpus decoding (needs a live model)
# ---------------------------------------------------------------------------


def test_decode_corpus_preserves_order(trained_copy_model):
    params, cfg = trained_copy_model
    corpus = gen_task(TaskKind.COPY, cfg.vocab_size, 3, 5, 10, seed=95)
    greedy = decode_corpus(params, corpus, DecodeConfig(beam_size=1, max_length=10))
    beamed = decode_corpus(params, corpus, DecodeConfig(beam_size=4, max_length=10))
    assert len(greedy) == len(beamed) == 10
    hits = sum(g == src for (src, _), g in zip(corpus.pairs, greedy))
    assert hits >= 9


FIXTURE_CHECKPOINT = Path(__file__).resolve().parents[1] / "perfbench" / "fixture" / "ckpt.bin"


@pytest.mark.parametrize("beam_size", [1, 4], ids=["greedy", "beam4"])
def test_decode_corpus_does_not_depend_on_batch_rows(monkeypatch, beam_size):
    # one-row and k-row products may round differently in the last bits, so
    # nothing guarantees this; the slice (the first 96 clean eval pairs at
    # seed 1) was fixed before the test first ran
    params, _, _ = load_model_checkpoint(str(FIXTURE_CHECKPOINT))
    cfg = RunConfig(seed=1)
    corpus = build_corpora(cfg, train_data=False)[1].take(np.arange(96))
    decode_cfg = replace(cfg.decode, beam_size=beam_size)
    hyps = {}
    for rows in (64, 8):
        monkeypatch.setattr(metrics, "BATCH_ROWS", rows)
        hyps[rows] = decode_corpus(params, corpus, decode_cfg)
    assert hyps[8] == hyps[64]


def test_length_sorted_batches_cover_the_corpus_in_stable_length_order():
    pairs = [([A] * n, [B] * (7 - n)) for n in (5, 3, 5, 1, 3, 2, 5)]
    corpus = Corpus.from_pairs(pairs, Vocab(("a", "b")))
    plan = list(length_sorted_batches(corpus, 3))
    # ties keep corpus order; the last batch takes what is left
    assert [indices.tolist() for indices, _ in plan] == [[3, 5, 1], [4, 0, 2], [6]]
    for indices, batch in plan:
        want = batch_of([pairs[i] for i in indices.tolist()])
        assert np.array_equal(batch.source, want.source) and np.array_equal(batch.target, want.target)
    assert list(length_sorted_batches(Corpus.from_pairs([], corpus.vocab), 3)) == []


def test_in_corpus_order_returns_each_pairs_row_at_its_corpus_index():
    pairs = [([A] * n, [B] * (7 - n)) for n in (5, 3, 5, 1, 3, 2, 5)]
    corpus = Corpus.from_pairs(pairs, Vocab(("a", "b")))
    sizes = []

    def rows_of(batch):  # each row reads back its own source length and its batch's size
        sizes.append(batch.size)
        return [[int(n), batch.size] for n in batch.source_lengths]

    rows = in_corpus_order(corpus, 3, rows_of)
    assert sizes == [3, 3, 1]
    assert rows == [[len(src), 1 if i == 6 else 3] for i, (src, _) in enumerate(pairs)]
    assert in_corpus_order(Corpus.from_pairs([], corpus.vocab), 3, rows_of) == [] and sizes == [3, 3, 1]


def test_error_table_round_trips_through_empirical_schedule(trained_copy_model):
    params, cfg = trained_copy_model
    corpus = gen_task(TaskKind.COPY, cfg.vocab_size, 4, 6, 40, seed=94)
    hyps = decode_corpus(params, corpus, DecodeConfig(beam_size=1, max_length=10))
    curve = fuzzy_precision_per_step(hyps, [tgt for _, tgt in corpus.pairs], window=3)
    spec = empirical_schedule(curve)
    assert spec.family is Family.EMPIRICAL
    assert len(spec.empirical_table) == curve.steps[-1] + 1
    for t, value in zip(curve.steps, curve.values):
        assert spec.empirical_table[t] == pytest.approx(1.0 - value, abs=1e-12)
        assert eval_schedule(spec, t) == pytest.approx(value, abs=1e-12)


def test_empirical_schedule_interpolates_unobserved_steps():
    spec = empirical_schedule(StepCurve([0, 2], [1.0, 0.5], [4, 4]))
    assert spec.empirical_table == pytest.approx((0.0, 0.25, 0.5))
    with pytest.raises(MetricsError):
        empirical_schedule(StepCurve([], [], []))


# ---------------------------------------------------------------------------
# curve CSV
# ---------------------------------------------------------------------------


def test_write_curve_csv_schema(tmp_path):
    curve = StepCurve([0, 1, 2], [1.0, 0.5, 0.25], [10, 10, 5])
    path = tmp_path / "curve.csv"
    write_curve_csv(path, curve)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "step,value,count"
    assert lines[1] == "0,1.0,10"
    assert len(lines) == 4


def test_step_curve_validation():
    with pytest.raises(MetricsError):
        StepCurve([0, 0], [1.0, 1.0], [1, 1])
    with pytest.raises(MetricsError):
        StepCurve([0, 1], [1.0], [1, 1])
