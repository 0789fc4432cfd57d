import itertools
import math
import tempfile
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradcheck import max_rel_error, numeric_grads
from sslab import tensor as T
from sslab.rng import named_rng
from sslab.tensor import (
    CheckpointError,
    ShapeError,
    Tape,
    TapeError,
    Tensor,
    constant,
    grad_of,
    load_checkpoint,
    no_grad,
    parameter,
    save_checkpoint,
)


# ---------------------------------------------------------------------------
# forward semantics
# ---------------------------------------------------------------------------


def test_matmul_identity():
    a = constant(np.eye(2))
    b = constant([[1.0, 2.0], [3.0, 4.0]])
    assert np.array_equal(T.matmul(a, b).data, b.data)


def test_matmul_hand_value():
    out = T.matmul(constant([[1.0, 2.0]]), constant([[3.0], [4.0]]))
    assert out.data.tolist() == [[11.0]]


def test_matmul_zero():
    z = constant(np.zeros((3, 4)))
    b = constant(np.arange(8.0).reshape(4, 2))
    assert np.all(T.matmul(z, b).data == 0.0)


def test_matmul_shape_error_reports_both_shapes():
    with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 2\)"):
        T.matmul(constant(np.zeros((2, 3))), constant(np.zeros((2, 2))))


def test_softmax_symmetry_and_stability():
    assert T.softmax(constant([0.0, 0.0])).data.tolist() == [0.5, 0.5]
    assert T.softmax(constant([1000.0, 1000.0])).data.tolist() == [0.5, 0.5]
    out = T.softmax(constant([0.0, math.log(3.0)])).data
    assert out == pytest.approx([0.25, 0.75], abs=1e-12)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=30)
def test_softmax_rows_sum_to_one_and_shift_invariant(seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(4, 7)) * 10.0
    y = T.softmax(constant(x), axis=-1).data
    assert np.allclose(y.sum(axis=-1), 1.0, atol=1e-6)
    y2 = T.softmax(constant(x + 123.456), axis=-1).data
    assert np.allclose(y, y2, atol=1e-9)


def test_cross_entropy_uniform_logits():
    logits = constant(np.zeros((5, 4)))
    loss = T.cross_entropy_label_smoothed(logits, np.zeros(5, dtype=np.int64), 0.0)
    assert float(loss.data) == pytest.approx(math.log(4.0), abs=1e-12)


def test_cross_entropy_confident_correct_is_near_zero():
    logits = np.full((3, 6), -100.0)
    tgt = np.array([0, 3, 5])
    logits[np.arange(3), tgt] = 100.0
    loss = T.cross_entropy_label_smoothed(constant(logits), tgt, 0.0)
    assert float(loss.data) == pytest.approx(0.0, abs=1e-9)


def _plain_cross_entropy(logits, targets, mask):
    # independent reference: unsmoothed mean NLL over real positions
    shifted = logits - logits.max(axis=-1, keepdims=True)
    logp = shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    nll = -logp[np.arange(len(targets)), targets]
    return float((nll * mask).sum() / mask.sum())


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=30)
def test_cross_entropy_zero_smoothing_matches_plain(seed):
    rng = np.random.default_rng(seed)
    logits = rng.normal(size=(8, 11)) * 3.0
    targets = rng.integers(0, 11, size=8)
    mask = rng.random(8) < 0.8
    if not mask.any():
        mask[0] = True
    got = T.cross_entropy_label_smoothed(constant(logits), targets, 0.0, mask)
    assert float(got.data) == pytest.approx(_plain_cross_entropy(logits, targets, mask), rel=1e-12)


def test_cross_entropy_all_pad_rejected():
    with pytest.raises(ValueError, match="all-pad"):
        T.cross_entropy_label_smoothed(
            constant(np.zeros((2, 3))), np.zeros(2, dtype=int), 0.0, np.zeros(2, dtype=bool)
        )


def test_dropout_eval_mode_is_identity_and_leaves_stream():
    x = constant(np.ones((4, 4)))
    # no stream is evaluation mode
    assert T.dropout(x, 0.5, None) is x
    # rate 0 with a stream: identity, and the stream is untouched (same
    # next draw as a fresh stream)
    rng = named_rng(0, "drop")
    assert T.dropout(x, 0.0, rng) is x
    assert rng.random() == named_rng(0, "drop").random()


def test_dropout_seeded_reproducible():
    x = constant(np.ones((64, 64)))
    a = T.dropout(x, 0.3, named_rng(7, "d")).data
    b = T.dropout(x, 0.3, named_rng(7, "d")).data
    assert np.array_equal(a, b)
    kept = a[a != 0]
    assert np.allclose(kept, 1.0 / 0.7)


def test_select_all_true_is_bitwise_a():
    rng = np.random.default_rng(3)
    a = constant(rng.normal(size=(5, 4)))
    b = constant(rng.normal(size=(5, 4)))
    out = T.select(np.ones((5, 1), dtype=bool), a, b)
    assert out.data.tobytes() == a.data.tobytes()


# ---------------------------------------------------------------------------
# backward semantics
# ---------------------------------------------------------------------------


def test_product_rule():
    x = parameter([2.0])
    y = parameter([3.0])
    with Tape() as tape:
        out = T.reshape(T.mul(x, y), ())
        tape.backward(out)
    assert x.grad.tolist() == [3.0]
    assert y.grad.tolist() == [2.0]


def test_backward_rejects_non_scalar():
    x = parameter([1.0, 2.0])
    with Tape() as tape:
        out = T.mul(x, x)
        with pytest.raises(TapeError, match="scalar"):
            tape.backward(out)


def test_off_path_parameter_gets_zero_grad():
    x = parameter([2.0])
    unused = parameter([5.0])
    with Tape() as tape:
        out = T.reshape(T.mul(x, x), ())
        tape.backward(out)
    assert np.array_equal(grad_of(unused), np.zeros(1))


def test_grad_accumulates_across_uses():
    x = parameter([3.0])
    with Tape() as tape:
        out = T.reshape(T.add(T.mul(x, x), x), ())  # x^2 + x -> 2x + 1 = 7
        tape.backward(out)
    assert x.grad.tolist() == [7.0]


def test_backward_releases_intermediates_once_and_keeps_leaf_grads():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(6, 4))
    targets = rng.integers(0, 3, size=6)
    w = parameter(rng.normal(size=(4, 3)))
    b = parameter(rng.normal(size=3))
    with Tape() as tape:
        inputs = constant(x.copy())
        hidden = T.matmul(inputs, w)
        kept = weakref.ref(inputs.data)
        dropped = weakref.ref(hidden.data)
        logits = T.add(hidden, b)
        loss = T.cross_entropy_label_smoothed(logits, targets, 0.0)
        del inputs, hidden
        assert kept() is not None  # matmul's rule reads it for w's gradient, so the tape keeps it
        assert dropped() is None  # add's rule reads only shapes, so nothing keeps its input
        recorded = len(tape)
        tape.backward(loss)
        assert kept() is None  # gone while the tape itself still lives
        assert len(tape) == recorded
        assert logits.grad is None and loss.grad is None  # only the leaves keep grad
        with pytest.raises(TapeError, match="already swept"):
            tape.backward(loss)
    logits = x @ w.data + b.data
    probs = np.exp(logits - logits.max(axis=-1, keepdims=True))
    probs /= probs.sum(axis=-1, keepdims=True)
    probs[np.arange(6), targets] -= 1.0
    d_logits = probs / 6
    np.testing.assert_allclose(w.grad, x.T @ d_logits, rtol=1e-10, atol=1e-14)
    np.testing.assert_allclose(b.grad, d_logits.sum(axis=0), rtol=1e-10, atol=1e-14)


def test_tensor_from_an_earlier_tape_takes_its_gradient_like_a_leaf():
    x = parameter([2.0])
    with Tape():
        y = T.mul(x, x)
    with Tape() as tape:
        loss = T.reshape(T.mul(y, x), ())
        tape.backward(loss)
    assert y.grad.tolist() == [2.0]  # d(y x)/dy = x
    assert x.grad.tolist() == [4.0]  # only this tape's path: d(y x)/dx = y


def test_backward_rejects_a_loss_from_an_earlier_tape():
    x = parameter([2.0])
    with Tape() as first:
        loss = T.reshape(T.mul(x, x), ())
    with Tape() as second:
        for _ in range(3):  # enough nodes that the loss's id would fall inside this tape if ids restarted
            T.mul(x, x)
        with pytest.raises(TapeError, match="loss is not on this tape"):
            second.backward(loss)
    first.backward(loss)
    assert x.grad.tolist() == [4.0]


def test_tape_cannot_record_again_after_another_tape_recorded():
    x = parameter([2.0])
    first = Tape()
    with first:
        T.mul(x, x)
    with first:  # a tape may record again while no other tape has
        T.mul(x, x)
    assert len(first) == 2
    with Tape():
        T.mul(x, x)
    with pytest.raises(TapeError, match="after another tape has recorded"):
        with first:
            pass


def test_no_grad_suppresses_recording():
    x = parameter([2.0])
    with Tape() as tape:
        with no_grad():
            y = T.mul(x, x)
        assert not y.requires_grad
        assert len(tape) == 0


def _two_layer_loss(params, x, targets, dtype):
    w1, b1, w2, b2 = params
    h = T.relu(T.add(T.matmul(x, w1), b1))
    logits = T.add(T.matmul(h, w2), b2)
    return T.cross_entropy_label_smoothed(logits, targets, 0.1)


@pytest.mark.parametrize(
    "dtype,h,tol",
    [(np.float32, 1e-3, 1e-3), (np.float64, 1e-6, 1e-6)],
)
def test_two_layer_net_matches_central_differences(dtype, h, tol):
    rng = np.random.default_rng(11)
    master = [
        rng.normal(scale=0.5, size=(4, 8)),
        np.zeros(8),
        rng.normal(scale=0.5, size=(8, 3)),
        np.zeros(3),
    ]
    params = [parameter(m, dtype=dtype) for m in master]
    x64 = rng.normal(size=(5, 4))
    x = constant(x64, dtype=dtype)
    targets = rng.integers(0, 3, size=5)

    with Tape() as tape:
        loss = _two_layer_loss(params, x, targets, dtype)
        tape.backward(loss)
    analytic = [grad_of(p).astype(np.float64) for p in params]

    # the oracle differentiates the same function in float64, so its own
    # noise stays far below the dtype tolerance under test
    oracle_params = [parameter(m) for m in master]
    oracle_x = constant(x64)
    numeric = numeric_grads(
        lambda: float(_two_layer_loss(oracle_params, oracle_x, targets, np.float64).data),
        oracle_params,
        h,
    )
    assert max_rel_error(analytic, numeric, floor=1e-3 if dtype == np.float32 else 1e-6) <= tol


def _random_graph_loss(arrays, ids, drop_rng):
    table, gain, bias, w = arrays
    emb = T.embedding_lookup(table, np.concatenate([ids, ids], axis=1))  # [2, 6, H]
    tr = T.transpose(emb, (1, 0, 2))
    flat = T.reshape(tr, (12, table.data.shape[1]))
    normed = T.layer_norm(flat, gain, bias)
    probs = T.softmax(T.matmul(normed, w), axis=-1)
    mixed = T.weighted_embedding_mix(probs, table)
    sel = T.select(np.arange(12)[:, None] % 2 == 0, mixed, normed)
    dropped = T.dropout(sel, 0.25, drop_rng)
    logits = T.matmul(dropped, w)
    return T.cross_entropy_label_smoothed(
        logits, np.arange(12) % table.data.shape[0], 0.05
    )


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=15, deadline=None)
def test_random_graphs_match_central_differences(seed):
    # exercises every primitive in one composite graph
    rng = np.random.default_rng(seed)
    v, h = 5, 4
    arrays = [
        parameter(rng.normal(scale=0.8, size=(v, h))),
        parameter(1.0 + 0.1 * rng.normal(size=h)),
        parameter(0.1 * rng.normal(size=h)),
        parameter(rng.normal(scale=0.8, size=(h, v))),
    ]
    ids = rng.integers(0, v, size=(2, 3))

    with Tape() as tape:
        loss = _random_graph_loss(arrays, ids, named_rng(seed, "drop"))
        tape.backward(loss)
    analytic = [grad_of(p) for p in arrays]

    numeric = numeric_grads(
        lambda: float(_random_graph_loss(arrays, ids, named_rng(seed, "drop")).data),
        arrays,
        1e-6,
    )
    # floor at 1e-4: difference noise on near-zero entries is ~1e-10
    # absolute, while a wrong backward rule shows up at O(1)
    assert max_rel_error(analytic, numeric, floor=1e-4) <= 1e-4


def test_seeded_computation_is_bit_identical():
    def run():
        rng = np.random.default_rng(42)
        x = parameter(rng.normal(size=(6, 6)))
        with Tape() as tape:
            y = T.softmax(T.matmul(x, x), axis=-1)
            drop = T.dropout(y, 0.5, named_rng(9, "s"))
            loss = T.cross_entropy_label_smoothed(drop, np.arange(6) % 6, 0.1)
            tape.backward(loss)
        return float(loss.data), x.grad.copy()

    l1, g1 = run()
    l2, g2 = run()
    assert l1 == l2
    assert g1.tobytes() == g2.tobytes()


# ---------------------------------------------------------------------------
# compositions against the hand-written rules they replaced
# ---------------------------------------------------------------------------


def reference_dropout(x: Tensor, rate: float, rng: np.random.Generator | None) -> Tensor:
    """Inverted dropout with an explicit stream; the stream is the training switch.

    Without a stream (evaluation) or at rate 0 it is the identity and draws
    nothing, so a pass that skips dropout leaves any stream untouched.
    """
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must lie in [0, 1), got {rate}")
    if rng is None or rate == 0.0:
        return x
    draw_dtype = x.data.dtype if x.data.dtype in (np.float32, np.float64) else np.float64
    keep = (rng.random(x.data.shape, dtype=draw_dtype) >= rate).astype(x.data.dtype)
    scale = np.asarray(1.0 / (1.0 - rate), dtype=x.data.dtype)
    mask = keep * scale

    def bwd(g):
        return (g * mask,)

    return T._apply(x.data * mask, (x,), bwd)


def reference_weighted_embedding_mix(probs: Tensor, table: Tensor) -> Tensor:
    """Probability-weighted average of embedding rows: [.., V] x [V, H] -> [.., H]."""
    v, h = table.data.shape
    if probs.data.shape[-1] != v:
        raise ShapeError(f"mix needs [.., V] probs for a [V, H] table, got {probs.data.shape} and {table.data.shape}")
    lead = probs.data.shape[:-1]
    flat = probs.data.reshape(-1, v)
    data = (flat @ table.data).reshape(*lead, h)

    def bwd(g):
        gflat = g.reshape(-1, h)
        gprobs = (gflat @ table.data.T).reshape(probs.data.shape)
        gtable = flat.T @ gflat
        return gprobs, gtable

    return T._apply(data, (probs, table), bwd)


def _run_against_upstream(fn, inputs, upstream):
    """Forward bytes, the input gradients' bytes and the tape length of ``sum(fn(*inputs) * upstream)``.

    The weighted sum is one [1, N] @ [N, 1] product, so the gradient that
    reaches ``fn``'s output is ``upstream`` exactly.
    """
    with Tape() as tape:
        out = fn(*inputs)
        total = T.matmul(T.reshape(out, (1, -1)), constant(upstream.reshape(-1, 1)))
        tape.backward(T.reshape(total, ()))
    grads = [grad_of(x) for x in inputs]
    return out.data.tobytes(), [(g.dtype, g.shape, g.tobytes()) for g in grads], len(tape)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("ndim", [1, 2, 3, 4])
@pytest.mark.parametrize("rate", [0.1, 0.5, 0.9])
def test_dropout_composition_equals_its_reference_rule(dtype, ndim, rate):
    rng = np.random.default_rng([ndim, int(rate * 10), np.dtype(dtype).itemsize])
    shape = tuple(int(n) for n in rng.integers(1, 7, size=ndim))
    data = rng.normal(size=shape).astype(dtype)
    upstream = rng.normal(size=shape).astype(dtype)
    results = [
        _run_against_upstream(lambda x: fn(x, rate, named_rng(ndim, "drop")), [parameter(data)], upstream)
        for fn in (T.dropout, reference_dropout)
    ]
    assert results[0] == results[1]
    assert results[0][2] == 4  # one dropout node, and the sum's three


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("v", [3, 50])
@pytest.mark.parametrize("h", [1, 16])
@pytest.mark.parametrize("lead", [(), (5,), (2, 7)])
def test_weighted_embedding_mix_composition_equals_its_reference_rule(dtype, v, h, lead):
    rng = np.random.default_rng([v, h, len(lead), np.dtype(dtype).itemsize])
    probs = rng.dirichlet(np.ones(v), size=lead).astype(dtype)
    table = rng.normal(size=(v, h)).astype(dtype)
    upstream = rng.normal(size=(*lead, h)).astype(dtype)
    results = [
        _run_against_upstream(fn, [parameter(probs), parameter(table)], upstream)[:2]
        for fn in (T.weighted_embedding_mix, reference_weighted_embedding_mix)
    ]
    assert results[0] == results[1]


# ---------------------------------------------------------------------------
# wrapper-free forms against the numpy calls they replaced
# ---------------------------------------------------------------------------


@given(
    st.sampled_from([np.float32, np.float64]),
    st.lists(st.integers(1, 4), min_size=1, max_size=3),
    st.one_of(st.sampled_from([45, 50, 63]), st.integers(1, 300)),
    st.floats(-1e3, 1e3),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=300, deadline=None)
def test_mean_helper_equals_ndarray_mean_bit_for_bit(dtype, lead, width, loc, seed):
    a = np.random.default_rng(seed).normal(loc, 1.0 + abs(loc), size=(*lead, width)).astype(dtype)
    got, want = T._mean_last(a), a.mean(axis=-1, keepdims=True)
    assert (got.dtype, got.shape) == (want.dtype, want.shape)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("rank", [1, 2, 3, 4, 5])
def test_transpose_backward_undoes_every_permutation(rank):
    shape = tuple(range(2, 2 + rank))  # distinct sizes, so a wrong inverse cannot fit
    data = np.arange(math.prod(shape), dtype=np.float64).reshape(shape)
    for axes in itertools.permutations(range(rank)):
        upstream = np.random.default_rng(list(axes)).normal(size=data.transpose(axes).shape)
        _, [(_, grad_shape, grad_bytes)], _ = _run_against_upstream(
            lambda x: T.transpose(x, axes), [parameter(data)], upstream
        )
        assert grad_shape == shape
        assert grad_bytes == upstream.transpose(np.argsort(axes)).tobytes()


# ---------------------------------------------------------------------------
# checkpoint container
# ---------------------------------------------------------------------------


def test_checkpoint_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    entries = {
        "enc/w": rng.normal(size=(3, 4)).astype(np.float32),
        "dec/b": rng.normal(size=7),
        "meta/step": np.asarray(1234, dtype=np.int64),
    }
    path = tmp_path / "model.bin"
    save_checkpoint(path, entries)
    back = load_checkpoint(path)
    assert set(back) == set(entries)
    for name in entries:
        assert back[name].dtype == entries[name].dtype
        assert np.array_equal(back[name], entries[name])


def test_failed_checkpoint_write_keeps_the_previous_file(tmp_path):
    path = tmp_path / "model.bin"
    save_checkpoint(path, {"w": np.arange(4.0)})
    before = path.read_bytes()
    # the unsupported dtype is found after "w" has been written
    with pytest.raises(CheckpointError, match="unsupported dtype"):
        save_checkpoint(path, {"w": np.ones(50_000), "bad": np.array(["x"])})
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["model.bin"]


def test_checkpoint_rejects_garbage(tmp_path):
    path = tmp_path / "junk.bin"
    path.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(CheckpointError, match="not a checkpoint"):
        load_checkpoint(path)


def _container(entries) -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "c.bin"
        save_checkpoint(path, entries)
        return path.read_bytes()


VALID_CONTAINER = _container(
    {
        "enc/w": np.arange(6, dtype=np.float32).reshape(2, 3),
        "dec/b": np.linspace(-1.0, 1.0, 4),
        "meta/step": np.asarray(7, dtype=np.int64),
        "empty": np.zeros((0, 2), dtype=np.float32),
    }
)


@st.composite
def container_like_bytes(draw):
    """Arbitrary bytes, or a valid container truncated, overwritten and extended."""
    if draw(st.booleans()):
        return draw(st.binary(max_size=64))
    raw = bytearray(VALID_CONTAINER[: draw(st.integers(0, len(VALID_CONTAINER)))])
    for _ in range(draw(st.integers(0, 3))):
        if raw:
            raw[draw(st.integers(0, len(raw) - 1))] = draw(st.integers(0, 255))
    return bytes(raw) + draw(st.binary(max_size=8))


@given(container_like_bytes())
@settings(max_examples=300, deadline=None)
def test_checkpoint_bytes_round_trip_or_raise_checkpoint_error(raw):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "c.bin"
        path.write_bytes(raw)
        try:
            entries = load_checkpoint(path)
        except CheckpointError:
            return
    assert _container(entries) == raw


def test_checkpoint_rejects_truncation_and_trailing_bytes(tmp_path):
    path = tmp_path / "c.bin"
    for cut in range(len(VALID_CONTAINER)):
        path.write_bytes(VALID_CONTAINER[:cut])
        with pytest.raises(CheckpointError):
            load_checkpoint(path)
    path.write_bytes(VALID_CONTAINER + b"junk")
    with pytest.raises(CheckpointError, match="4 trailing bytes"):
        load_checkpoint(path)
