"""Batches spelled out as lists of pairs, for tests that write their rows by hand, and one epoch of a stream."""

import numpy as np

from sslab.data import FIRST_CONTENT_ID, Batch, Corpus, Vocab, batch_stream, make_batch


def batch_of(pairs) -> Batch:
    """``make_batch`` over every pair of ``pairs``, in order, under the smallest numeric vocabulary holding every id."""
    top = max([FIRST_CONTENT_ID, *(i for src, tgt in pairs for i in (*src, *tgt))])
    return make_batch(Corpus.from_pairs(pairs, Vocab.numeric(top + 1)), np.arange(len(pairs)))


def epoch_batches(corpus: Corpus, token_budget: int, seed: int, epoch: int = 0) -> list[Batch]:
    """Epoch ``epoch`` of ``batch_stream``: each epoch covers the corpus once, so it ends where the rows reach its size."""
    stream = batch_stream(corpus, token_budget, seed)
    for _ in range(epoch + 1):
        batches, rows = [], 0
        while rows < len(corpus):
            batches.append(next(stream))
            rows += batches[-1].size
    return batches
