import math
import tempfile
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
    rng = named_rng(0, "drop")
    x = constant(np.ones((4, 4)))
    out = T.dropout(x, 0.5, rng, training=False)
    assert out is x
    # stream untouched: same next draw as a fresh stream
    assert rng.random() == named_rng(0, "drop").random()


def test_dropout_seeded_reproducible():
    x = constant(np.ones((64, 64)))
    a = T.dropout(x, 0.3, named_rng(7, "d"), training=True).data
    b = T.dropout(x, 0.3, named_rng(7, "d"), training=True).data
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
    dropped = T.dropout(sel, 0.25, drop_rng, training=True)
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
            drop = T.dropout(y, 0.5, named_rng(9, "s"), training=True)
            loss = T.cross_entropy_label_smoothed(drop, np.arange(6) % 6, 0.1)
            tape.backward(loss)
        return float(loss.data), x.grad.copy()

    l1, g1 = run()
    l2, g2 = run()
    assert l1 == l2
    assert g1.tobytes() == g2.tobytes()


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
