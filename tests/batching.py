"""Batches spelled out as lists of pairs, for tests that write their rows by hand."""

import numpy as np

from sslab.data import Batch, Corpus, Vocab, make_batch


def batch_of(pairs) -> Batch:
    """``make_batch`` over every pair of ``pairs``, in order (the vocabulary plays no part)."""
    return make_batch(Corpus.from_pairs(pairs, Vocab(())), np.arange(len(pairs)))
