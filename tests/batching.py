"""Batches spelled out as lists of pairs, for tests that write their rows by hand."""

import numpy as np

from sslab.data import FIRST_CONTENT_ID, Batch, Corpus, Vocab, make_batch


def batch_of(pairs) -> Batch:
    """``make_batch`` over every pair of ``pairs``, in order, under the smallest numeric vocabulary holding every id."""
    top = max([FIRST_CONTENT_ID, *(i for src, tgt in pairs for i in (*src, *tgt))])
    return make_batch(Corpus.from_pairs(pairs, Vocab.numeric(top + 1)), np.arange(len(pairs)))
