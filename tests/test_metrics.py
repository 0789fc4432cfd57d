import math
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sslab.data import NULL_ID, TaskKind, gen_task
from sslab.decode import DecodeConfig
from sslab.metrics import (
    MetricsError,
    StepCurve,
    corpus_bleu_lite,
    decode_corpus,
    empirical_schedule,
    fuzzy_precision_per_step,
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
