import hashlib
import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from batching import batch_of, epoch_batches
from sslab.data import (
    BOS_ID,
    EOS_ID,
    FIRST_CONTENT_ID,
    PAD_ID,
    Corpus,
    DataError,
    TaskKind,
    Vocab,
    Batch,
    batch_stream,
    gen_task,
    load_tsv_corpus,
    make_batch,
    split_corpus,
)
from sslab.rng import named_rng


def row_width(pair):
    """Positions the pair's widest padded row takes: the source, or the target and its two sentinels."""
    src, tgt = pair
    return max(len(src), len(tgt) + 2)


def test_copy_task_deterministic():
    a = gen_task(TaskKind.COPY, 20, 3, 8, 50, seed=5)
    b = gen_task(TaskKind.COPY, 20, 3, 8, 50, seed=5)
    assert a.pairs == b.pairs
    for src, tgt in a.pairs:
        assert src == tgt


def test_generated_ids_stay_in_content_range():
    for kind in TaskKind:
        corpus = gen_task(kind, 17, 1, 9, 100, seed=3, noise=0.3)
        for src, tgt in corpus.pairs:
            for tok in src + tgt:
                assert FIRST_CONTENT_ID <= tok < 17


def test_noisy_map_without_noise_is_tokenwise_bijection():
    vocab_size = 50
    content = vocab_size - FIRST_CONTENT_ID
    corpus = gen_task(TaskKind.NOISY_MAP, vocab_size, 2, 6, 300, seed=7, noise=0.0)
    mapping = {}
    for src, tgt in corpus.pairs:
        for s, t in zip(src, tgt):
            if s in mapping:
                assert mapping[s] == t
            mapping[s] = t
    # brute-force over the whole content vocabulary: injective => bijection
    a = 2  # first multiplier coprime with 45
    full = [((s - FIRST_CONTENT_ID) * a + 1) % content + FIRST_CONTENT_ID for s in range(FIRST_CONTENT_ID, vocab_size)]
    assert len(set(full)) == content
    for s, t in mapping.items():
        assert full[s - FIRST_CONTENT_ID] == t


def test_history_coupled_map_follows_recurrence():
    vocab_size = 50
    content = vocab_size - FIRST_CONTENT_ID
    corpus = gen_task(
        TaskKind.NOISY_MAP, vocab_size, 3, 8, 100, seed=9, noise=0.0, history_weight=1
    )
    a = 2  # first multiplier coprime with 45
    for src, tgt in corpus.pairs:
        prev = 0
        for s, t in zip(src, tgt):
            want = ((s - FIRST_CONTENT_ID) * a + prev + 1) % content + FIRST_CONTENT_ID
            assert t == want
            prev = t - FIRST_CONTENT_ID


def test_history_coupled_noise_propagates_through_recurrence():
    vocab_size = 50
    content = vocab_size - FIRST_CONTENT_ID
    corpus = gen_task(
        TaskKind.NOISY_MAP, vocab_size, 30, 30, 200, seed=10, noise=0.1, history_weight=1
    )
    a = 2
    consistent = 0
    total = 0
    for src, tgt in corpus.pairs:
        prev = 0
        for s, t in zip(src, tgt):
            want = ((s - FIRST_CONTENT_ID) * a + prev + 1) % content + FIRST_CONTENT_ID
            consistent += t == want
            total += 1
            prev = t - FIRST_CONTENT_ID  # the realized token drives the recurrence
    # every token either follows the recurrence from the realized prefix or
    # was substituted (about rho of them, minus chance coincidences)
    assert 0.86 < consistent / total < 0.94


def test_history_weight_zero_matches_previous_generation():
    a = gen_task(TaskKind.NOISY_MAP, 20, 3, 8, 50, seed=5, noise=0.2)
    b = gen_task(TaskKind.NOISY_MAP, 20, 3, 8, 50, seed=5, noise=0.2, history_weight=0)
    assert a.pairs == b.pairs


def test_noisy_map_noise_rate_close_to_rho():
    vocab_size = 50
    content = vocab_size - FIRST_CONTENT_ID
    corpus = gen_task(TaskKind.NOISY_MAP, vocab_size, 30, 30, 400, seed=11, noise=0.1)
    a = 2
    flips = 0
    total = 0
    for src, tgt in corpus.pairs:
        clean = [((s - FIRST_CONTENT_ID) * a + 1) % content + FIRST_CONTENT_ID for s in src]
        flips += sum(1 for c, t in zip(clean, tgt) if c != t)
        total += len(src)
    rate = flips / total
    # substituted tokens can coincide with the clean one, so the observed
    # rate sits slightly below rho
    assert 0.06 < rate < 0.12


def _digest(corpus):
    canonical = json.dumps(corpus.pairs, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("ascii")).hexdigest()


@pytest.mark.parametrize(
    "kind, kwargs, want",
    [
        (TaskKind.COPY, {},
         "1e95be836203067cf2c51391cf32d8d3ea49ba99772c12c88df253c11f4af87f"),
        (TaskKind.NOISY_MAP, {"noise": 0.1},
         "1b1fd8f85c67cd79fea681ca16a36f90fc93834e67f74b2c8ace8510713950be"),
        (TaskKind.NOISY_MAP, {"noise": 0.1, "history_weight": 1},
         "619e6f14dc5016488c3aef21f6346bfb9ffcf2c6b27db30c6e96e88040900e5c"),
    ],
    ids=["copy", "map-h0", "map-h1"],
)
def test_generated_stream_is_pinned(kind, kwargs, want):
    # a change here moves every synthetic corpus, checkpoint and curve:
    # make it on purpose, and name it a data change
    assert _digest(gen_task(kind, 20, 2, 9, 25, seed=17, **kwargs)) == want


def test_negative_count_is_rejected_and_zero_gives_an_empty_corpus():
    with pytest.raises(DataError, match="count"):
        gen_task(TaskKind.COPY, 20, 2, 9, -1, seed=0)
    for kind in TaskKind:
        assert gen_task(kind, 20, 2, 9, 0, seed=0, noise=0.1, history_weight=1).pairs == []


def test_lengths_cover_the_whole_range():
    corpus = gen_task(TaskKind.COPY, 20, 3, 20, 2000, seed=21)
    assert set(corpus.source_lengths.tolist()) == set(range(3, 21))


def _sorted_plan(pairs, token_budget, seed, epoch):
    """The batch plan as a stable sort by row_width and a running widest row."""
    rng = named_rng(seed, "batchify", epoch)
    order = rng.permutation(len(pairs))
    by_len = sorted(order, key=lambda idx: row_width(pairs[idx]))
    batches, current, width = [], [], 0
    for idx in by_len:
        w = max(width, row_width(pairs[idx]))
        if current and (len(current) + 1) * w > token_budget:
            batches.append(current)
            current, width = [idx], row_width(pairs[idx])
        else:
            current.append(idx)
            width = w
    if current:
        batches.append(current)
    rng.shuffle(batches)
    return [[int(i) for i in group] for group in batches]


@given(
    st.lists(st.tuples(st.integers(1, 9), st.integers(0, 9)), min_size=1, max_size=80),
    st.integers(0, 40),
    st.integers(0, 1000),
    st.integers(0, 3),
)
@example([(1, 0)] * 5 + [(4, 2)] * 7 + [(3, 0)] * 4, 0, 1, 0)  # ties, and a budget equal to the widest row
@settings(max_examples=60, deadline=None)
def test_batch_plan_matches_a_stable_sort_by_row_width(shape, slack, seed, epoch):
    # pair i's source opens with token 5 + i, so each batch names its pairs
    pairs = [([FIRST_CONTENT_ID + i] * s, [FIRST_CONTENT_ID] * t) for i, (s, t) in enumerate(shape)]
    corpus = Corpus.from_pairs(pairs, Vocab.numeric(FIRST_CONTENT_ID + len(pairs)))
    budget = max(map(row_width, pairs)) + slack
    got = [(b.source[:, 0] - FIRST_CONTENT_ID).tolist() for b in epoch_batches(corpus, budget, seed, epoch)]
    assert got == _sorted_plan(pairs, budget, seed, epoch)


def test_make_batch_sentinels_and_masks():
    batch = batch_of([([5, 6], [7, 8, 9]), ([10], [11])])
    assert batch.target[0, 0] == BOS_ID and batch.target[1, 0] == BOS_ID
    for row, n in zip(batch.target, batch.target_lengths):
        assert row[n - 1] == EOS_ID
        assert np.sum(row == EOS_ID) == 1
        assert np.all(row[n:] == PAD_ID)
    assert batch.source_mask.tolist() == [[True, True], [True, False]]
    # decoder slicing: inputs drop the last column, labels drop the first
    assert batch.decoder_inputs().shape[1] == batch.target.shape[1] - 1
    assert batch.labels()[0, :3].tolist() == [7, 8, 9]


def test_an_epoch_respects_budget_and_partitions_corpus():
    corpus = gen_task(TaskKind.COPY, 30, 2, 14, 157, seed=2)
    batches = epoch_batches(corpus, 64, seed=9)
    seen = []
    for b in batches:
        width = max(b.source.shape[1], b.target.shape[1])
        assert b.size * width <= 64
        for i in range(b.size):
            src = b.source[i, : b.source_lengths[i]].tolist()
            tgt = b.target[i, 1 : b.target_lengths[i] - 1].tolist()
            seen.append((tuple(src), tuple(tgt)))
    want = sorted((tuple(s), tuple(t)) for s, t in corpus.pairs)
    assert sorted(seen) == want


def test_an_epoch_of_a_single_pair_is_one_batch():
    corpus = Corpus.from_pairs([([5, 6, 7], [8, 9])], Vocab.numeric(12))
    batches = epoch_batches(corpus, 512, seed=0)
    assert len(batches) == 1 and batches[0].size == 1


def test_epochs_are_deterministic_per_seed_and_epoch():
    corpus = gen_task(TaskKind.COPY, 30, 2, 14, 100, seed=2)
    a = epoch_batches(corpus, 128, seed=4, epoch=1)
    b = epoch_batches(corpus, 128, seed=4, epoch=1)
    assert len(a) == len(b)
    for x, y in zip(a, b):
        assert np.array_equal(x.source, y.source)
        assert np.array_equal(x.target, y.target)
    c = epoch_batches(corpus, 128, seed=4, epoch=2)
    assert any(not np.array_equal(x.source, y.source) for x, y in zip(a, c))


def test_batch_stream_rejects_tiny_budget():
    corpus = gen_task(TaskKind.COPY, 30, 10, 14, 10, seed=2)
    with pytest.raises(DataError, match="budget"):
        next(batch_stream(corpus, token_budget=8, seed=0))


def test_load_tsv_simple(tmp_path):
    p = tmp_path / "corpus.tsv"
    p.write_text("a b\tc d\n", encoding="utf-8")
    corpus = load_tsv_corpus(p)
    assert len(corpus) == 1
    src, tgt = corpus.pairs[0]
    assert len(src) == 2 and len(tgt) == 2
    assert all(i >= FIRST_CONTENT_ID for i in src + tgt)


def test_load_tsv_errors(tmp_path):
    empty = tmp_path / "empty.tsv"
    empty.write_text("", encoding="utf-8")
    with pytest.raises(DataError, match="empty"):
        load_tsv_corpus(empty)
    bad = tmp_path / "bad.tsv"
    bad.write_text("a b\tc\nno tab here\n", encoding="utf-8")
    with pytest.raises(DataError, match=":2"):
        load_tsv_corpus(bad)


def test_tsv_round_trip(tmp_path):
    corpus = gen_task(TaskKind.NOISY_MAP, 25, 1, 9, 40, seed=13, noise=0.2)
    words = [[corpus.vocab.decode(side) for side in pair] for pair in corpus.pairs]
    p = tmp_path / "rt.tsv"
    with open(p, "w", encoding="utf-8") as fh:
        for src, tgt in words:
            fh.write(f"{' '.join(src)}\t{' '.join(tgt)}\n")
    back = load_tsv_corpus(p)  # the file's own vocabulary numbers the words in order of appearance
    assert [[back.vocab.decode(side) for side in pair] for pair in back.pairs] == words


def test_split_corpus_partitions():
    corpus = gen_task(TaskKind.COPY, 20, 2, 6, 100, seed=1)
    train, held = split_corpus(corpus, 0.1, seed=3)
    assert len(train) == 90 and len(held) == 10
    merged = sorted(map(repr, train.pairs + held.pairs))
    assert merged == sorted(map(repr, corpus.pairs))


@given(st.integers(0, 10_000), st.integers(6, 40))
@settings(max_examples=25, deadline=None)
def test_padding_masks_cover_exactly_beyond_lengths(seed, vocab_size):
    corpus = gen_task(TaskKind.COPY, vocab_size, 1, 7, 23, seed=seed)
    for batch in epoch_batches(corpus, 64, seed=seed):
        for i in range(batch.size):
            m = batch.source_mask[i]
            assert m[: batch.source_lengths[i]].all()
            assert not m[batch.source_lengths[i] :].any()
            tm = batch.target_mask[i]
            assert tm[: batch.target_lengths[i]].all()
            assert not tm[batch.target_lengths[i] :].any()


def _make_batch_by_rows(pairs):
    """The per-row batch builder the flat ``make_batch`` replaced, kept as its oracle."""
    b = len(pairs)
    m = max(len(src) for src, _ in pairs)
    n = max(len(tgt) for _, tgt in pairs) + 2  # sentinels
    source = np.full((b, m), PAD_ID, dtype=np.int64)
    target = np.full((b, n), PAD_ID, dtype=np.int64)
    src_lens = np.zeros(b, dtype=np.int64)
    tgt_lens = np.zeros(b, dtype=np.int64)
    for i, (src, tgt) in enumerate(pairs):
        source[i, : len(src)] = src
        row = [BOS_ID, *tgt, EOS_ID]
        target[i, : len(row)] = row
        src_lens[i] = len(src)
        tgt_lens[i] = len(row)
    source_mask = np.arange(m)[None, :] < src_lens[:, None]
    target_mask = np.arange(n)[None, :] < tgt_lens[:, None]
    return Batch(source, source_mask, target, target_mask, src_lens, tgt_lens)


def _assert_same_batch(got, want):
    for name in ("source", "source_mask", "target", "target_mask", "source_lengths", "target_lengths"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.shape == b.shape and np.array_equal(a, b), name


_token_rows = st.lists(st.integers(FIRST_CONTENT_ID, 30), min_size=1, max_size=12)


@given(
    st.lists(st.tuples(_token_rows, _token_rows), min_size=1, max_size=20),  # lengths differ, as in TSV pairs
    st.data(),
)
@example([([5], [6])], None)  # a single row of length-1 pairs
@example([([5, 6, 7], [8]), ([9], [10, 11, 12, 13])], None)
@settings(max_examples=80, deadline=None)
def test_make_batch_matches_the_per_row_builder(pairs, data):
    corpus = Corpus.from_pairs(pairs, Vocab.numeric(31))
    if data is None:
        rows = list(range(len(pairs)))
    else:  # any rows, in any order, repeats allowed
        rows = data.draw(st.lists(st.integers(0, len(pairs) - 1), min_size=1, max_size=12))
    _assert_same_batch(make_batch(corpus, np.array(rows)), _make_batch_by_rows([pairs[i] for i in rows]))


@given(st.lists(st.tuples(_token_rows, _token_rows), max_size=20))
@settings(max_examples=40, deadline=None)
def test_from_pairs_round_trips(pairs):
    corpus = Corpus.from_pairs(pairs, Vocab.numeric(31))
    assert corpus.pairs == [(list(src), list(tgt)) for src, tgt in pairs]
    again = Corpus.from_pairs(corpus.pairs, corpus.vocab)
    for name in ("sources", "source_lengths", "targets", "target_lengths", "source_starts", "target_starts"):
        want = np.uint8 if name in ("sources", "targets") else np.int64  # 31 ids take one byte
        assert getattr(again, name).dtype == want
        assert np.array_equal(getattr(again, name), getattr(corpus, name))
    assert corpus.target_rows() == [tgt for _, tgt in corpus.pairs]


def test_pairs_is_a_copy():
    corpus = gen_task(TaskKind.COPY, 20, 2, 5, 6, seed=1)
    view = corpus.pairs
    view[0][0][0] = -1
    view.clear()
    assert len(corpus.pairs) == 6 and corpus.pairs[0][0][0] >= FIRST_CONTENT_ID


@pytest.mark.parametrize("kind, fraction", [(TaskKind.COPY, 0.1), (TaskKind.NOISY_MAP, 0.37), (TaskKind.COPY, 0.9)])
def test_split_corpus_matches_the_set_filter(kind, fraction):
    corpus = gen_task(kind, 30, 1, 9, 83, seed=4, noise=0.2)
    train, held = split_corpus(corpus, fraction, seed=5)
    # the filter split_corpus replaced: test every pair against a set of eval indices
    order = named_rng(5, "split").permutation(len(corpus))
    eval_idx = set(order[: max(1, int(round(fraction * len(corpus))))].tolist())
    pairs = corpus.pairs
    assert train.pairs == [p for i, p in enumerate(pairs) if i not in eval_idx]
    assert held.pairs == [p for i, p in enumerate(pairs) if i in eval_idx]
    assert train.vocab is corpus.vocab and held.vocab is corpus.vocab


def test_tsv_loads_to_the_encoded_pairs(tmp_path):
    train = tmp_path / "train.tsv"
    train.write_text("a b c\tx y\nb\tz x y w\n\nc a\tw\n", encoding="utf-8")
    corpus = load_tsv_corpus(train)
    assert corpus.vocab.tokens == ("a", "b", "c", "x", "y", "z", "w")
    enc = corpus.vocab.encode
    assert corpus.pairs == [(enc("a b c".split()), enc("x y".split())), (enc(["b"]), enc("z x y w".split())),
                            (enc("c a".split()), enc(["w"]))]


def test_encoding_a_word_outside_the_vocabulary_raises():
    vocab = Vocab(("a", "b"))
    assert vocab.encode(["b", "a"]) == [FIRST_CONTENT_ID + 1, FIRST_CONTENT_ID]
    with pytest.raises(KeyError):
        vocab.encode(["a", "c"])


def test_an_empty_corpus_cannot_be_batched():
    empty = gen_task(TaskKind.COPY, 20, 2, 5, 0, seed=1)
    assert len(empty) == 0 and empty.pairs == []
    with pytest.raises(DataError, match="empty"):
        next(batch_stream(empty, 64, seed=0))


def test_batch_stream_seeks_to_any_start():
    corpus = gen_task(TaskKind.NOISY_MAP, 30, 2, 14, 60, seed=6, noise=0.2)
    per_epoch = len(epoch_batches(corpus, 96, seed=8))
    assert per_epoch > 2
    whole = batch_stream(corpus, 96, seed=8)
    want = [next(whole) for _ in range(2 * per_epoch + 3)]
    for start in range(per_epoch + 3):  # past the first epoch boundary
        seeked = batch_stream(corpus, 96, seed=8, start=start)
        for batch in want[start : start + per_epoch]:
            _assert_same_batch(next(seeked), batch)


def test_batch_stream_builds_no_skipped_batch(monkeypatch):
    import sslab.data as data

    built = []
    monkeypatch.setattr(data, "make_batch", lambda corpus, rows: built.append(rows) or "batch")
    corpus = gen_task(TaskKind.COPY, 30, 2, 14, 60, seed=6)
    stream = batch_stream(corpus, 96, seed=8, start=1000)
    assert next(stream) == "batch" and len(built) == 1


@pytest.mark.parametrize("kind", list(TaskKind))
def test_token_arrays_take_the_vocabulary_width(kind):
    for vocab_size, width in ((20, np.uint8), (256, np.uint8), (257, np.uint16), (2000, np.uint16)):
        corpus = gen_task(kind, vocab_size, 2, 9, 40, seed=3, noise=0.2, history_weight=1)
        assert corpus.vocab.token_dtype == width
        assert corpus.sources.dtype == corpus.targets.dtype == width
        for name in ("source_lengths", "target_lengths", "source_starts", "target_starts"):
            assert getattr(corpus, name).dtype == np.int64
        assert corpus.take(np.array([3, 1])).targets.dtype == width


@pytest.mark.parametrize("history_weight", [0, 1, 40])
@pytest.mark.parametrize("vocab_size", [256, 65_536])  # the most ids each width holds
def test_noisy_map_does_not_wrap_at_the_token_width(vocab_size, history_weight):
    # a*(s - 5) + 1, and h*prev at h = 40, exceed the token width, so arithmetic on the narrow arrays would wrap
    content = vocab_size - FIRST_CONTENT_ID
    a = 2  # the least multiplier coprime with 251 and with 65,531
    corpus = gen_task(TaskKind.NOISY_MAP, vocab_size, 2, 9, 300, seed=12, history_weight=history_weight)
    assert (int(corpus.sources.max()) - FIRST_CONTENT_ID) * a + 1 > np.iinfo(corpus.sources.dtype).max
    for src, tgt in corpus.pairs:
        prev = 0
        for s, t in zip(src, tgt):
            assert t == ((s - FIRST_CONTENT_ID) * a + 1 + history_weight * prev) % content + FIRST_CONTENT_ID
            prev = t - FIRST_CONTENT_ID


def test_tsv_past_one_byte_of_ids_loads_at_two_bytes(tmp_path):
    words = [f"w{i}" for i in range(300)]  # ids 5..304
    lines = [(words[i : i + 5], words[::-1][i : i + 3]) for i in range(0, 300, 7)]
    path = tmp_path / "wide.tsv"
    path.write_text("".join(f"{' '.join(s)}\t{' '.join(t)}\n" for s, t in lines), encoding="utf-8")
    corpus = load_tsv_corpus(path)
    assert corpus.vocab.size > 256 and corpus.sources.dtype == corpus.targets.dtype == np.uint16
    assert int(corpus.targets.max()) > 255
    want = [corpus.vocab.encode(t) for _, t in lines]  # the ids as Python ints: no width to wrap
    assert corpus.target_rows() == want
    assert [s for s, _ in corpus.pairs] == [corpus.vocab.encode(s) for s, _ in lines]


@pytest.mark.parametrize("bad", [31, 255, 256, 70_000, -1, -300])
@pytest.mark.parametrize("side", [0, 1])
def test_an_id_outside_the_vocabulary_is_rejected(bad, side):
    pair = [[5, 6], [7, 8]]
    pair[side] = [5, bad]
    with pytest.raises(DataError, match=rf"token id {bad} lies outside the vocabulary of size 31"):
        Corpus.from_pairs([([9], [9]), tuple(pair)], Vocab.numeric(31))
