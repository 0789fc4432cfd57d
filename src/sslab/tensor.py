"""Dense arrays with reverse-mode differentiation on an explicit tape.

The primitive set is closed: matmul, add, mul, relu, softmax, layer_norm,
embedding_lookup, weighted_embedding_mix, cross_entropy_label_smoothed,
dropout, reshape, transpose and select. Higher layers build only
on these, which bounds the backward-rule surface that has to be trusted.

Recording happens inside a ``with Tape():`` block; outside a block (or
under ``no_grad``) the same functions run as plain numpy math. Creation
order on the tape is the topological order, so backward is a single
reverse sweep. Accumulation order is fixed by the tape, which keeps
repeated runs of a seeded computation bit-identical.
"""

from __future__ import annotations

import contextlib
import math
import os
import struct
from typing import IO, Callable, Iterator, Sequence

import numpy as np


class ShapeError(ValueError):
    """Operand shapes are incompatible for the requested primitive."""


class TapeError(RuntimeError):
    """Backward was asked for something the tape cannot provide."""


class CheckpointError(ValueError):
    """Checkpoint file is malformed or has an unsupported version."""


_ACTIVE_TAPE: "Tape | None" = None


class Tensor:
    """A numpy array plus an optional gradient and a position on the tape."""

    __slots__ = ("data", "grad", "requires_grad", "node_id")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        self.data = np.asarray(data, dtype=dtype)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self.node_id: int | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}, requires_grad={self.requires_grad})"


def parameter(data, dtype=None) -> Tensor:
    return Tensor(np.array(data, dtype=dtype), requires_grad=True)


def constant(data, dtype=None) -> Tensor:
    return Tensor(np.asarray(data, dtype=dtype), requires_grad=False)


def grad_of(t: Tensor) -> np.ndarray:
    """The accumulated gradient, with a zero array for untouched tensors."""
    if t.grad is None:
        return np.zeros_like(t.data)
    return t.grad


class _Node:
    __slots__ = ("out", "parents", "backward_fn")

    def __init__(self, out: Tensor, parents: tuple[Tensor, ...], backward_fn: Callable):
        self.out = out
        self.parents = parents
        self.backward_fn = backward_fn


class Tape:
    """Ordered record of primitive applications for one backward sweep."""

    def __init__(self):
        self._nodes: list[_Node] = []

    def __enter__(self) -> "Tape":
        global _ACTIVE_TAPE
        if _ACTIVE_TAPE is not None:
            raise TapeError("a tape is already active; nested tapes are not supported")
        _ACTIVE_TAPE = self
        return self

    def __exit__(self, *exc) -> None:
        global _ACTIVE_TAPE
        _ACTIVE_TAPE = None

    def __len__(self) -> int:
        return len(self._nodes)

    def record(self, out: Tensor, parents: tuple[Tensor, ...], backward_fn: Callable) -> None:
        out.node_id = len(self._nodes)
        self._nodes.append(_Node(out, parents, backward_fn))

    def backward(self, loss: Tensor) -> None:
        """Fill ``grad`` on every tensor the scalar ``loss`` depends on."""
        if loss.data.ndim != 0:
            raise TapeError(f"backward root must be a scalar, got shape {loss.data.shape}")
        if loss.node_id is None:
            raise TapeError("loss is not on this tape")
        loss.grad = np.ones((), dtype=loss.data.dtype)
        for node in reversed(self._nodes[: loss.node_id + 1]):
            out_grad = node.out.grad
            if out_grad is None:
                continue
            parent_grads = node.backward_fn(out_grad)
            for parent, pgrad in zip(node.parents, parent_grads):
                if pgrad is None or not parent.requires_grad:
                    continue
                if parent.grad is None:
                    # adopt without copying; a second contribution rebinds
                    # to a fresh sum instead of mutating, so rules may hand
                    # the same array to several parents
                    parent.grad = pgrad
                else:
                    parent.grad = parent.grad + pgrad


class no_grad:
    """Temporarily disable recording, e.g. for inference inside training."""

    def __enter__(self):
        global _ACTIVE_TAPE
        self._saved = _ACTIVE_TAPE
        _ACTIVE_TAPE = None
        return self

    def __exit__(self, *exc):
        global _ACTIVE_TAPE
        _ACTIVE_TAPE = self._saved


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a broadcast gradient back down to ``shape``."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


def _apply(
    data: np.ndarray,
    parents: tuple[Tensor, ...],
    backward_fn: Callable,
) -> Tensor:
    requires = _ACTIVE_TAPE is not None and any(p.requires_grad for p in parents)
    out = Tensor(data, requires_grad=requires)
    if requires:
        _ACTIVE_TAPE.record(out, parents, backward_fn)
    return out


# ---------------------------------------------------------------------------
# primitives
# ---------------------------------------------------------------------------


def add(a: Tensor, b: Tensor) -> Tensor:
    data = a.data + b.data

    def bwd(g):
        ga = _unbroadcast(g, a.data.shape) if a.requires_grad else None
        gb = _unbroadcast(g, b.data.shape) if b.requires_grad else None
        return ga, gb

    return _apply(data, (a, b), bwd)


def mul(a: Tensor, b: Tensor) -> Tensor:
    data = a.data * b.data

    def bwd(g):
        ga = _unbroadcast(g * b.data, a.data.shape) if a.requires_grad else None
        gb = _unbroadcast(g * a.data, b.data.shape) if b.requires_grad else None
        return ga, gb

    return _apply(data, (a, b), bwd)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim < 2 or b.data.ndim < 2 or a.data.shape[-1] != b.data.shape[-2]:
        raise ShapeError(f"matmul needs [..,M,K] @ [..,K,N], got {a.data.shape} @ {b.data.shape}")
    data = a.data @ b.data

    def bwd(g):
        ga = gb = None
        if a.requires_grad:
            ga = _unbroadcast(g @ b.data.swapaxes(-1, -2), a.data.shape)
        if b.requires_grad:
            gb = _unbroadcast(a.data.swapaxes(-1, -2) @ g, b.data.shape)
        return ga, gb

    return _apply(data, (a, b), bwd)


def relu(x: Tensor) -> Tensor:
    data = np.maximum(x.data, 0)

    def bwd(g):
        return (g * (x.data > 0),)

    return _apply(data, (x,), bwd)


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    y = x.data - x.data.max(axis=axis, keepdims=True)
    np.exp(y, out=y)
    y /= y.sum(axis=axis, keepdims=True)

    def bwd(g):
        inner = (g * y).sum(axis=axis, keepdims=True)
        return (y * (g - inner),)

    return _apply(y, (x,), bwd)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-6) -> Tensor:
    if gain.data.shape != x.data.shape[-1:] or bias.data.shape != x.data.shape[-1:]:
        raise ShapeError(
            f"layer_norm gain/bias must match the last axis: x {x.data.shape}, "
            f"gain {gain.data.shape}, bias {bias.data.shape}"
        )
    mu = x.data.mean(axis=-1, keepdims=True)
    centered = x.data - mu
    var = (centered * centered).mean(axis=-1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + eps)
    xhat = centered * inv_std
    data = xhat * gain.data + bias.data

    def bwd(g):
        dxhat = g * gain.data
        m1 = dxhat.mean(axis=-1, keepdims=True)
        m2 = (dxhat * xhat).mean(axis=-1, keepdims=True)
        dx = inv_std * (dxhat - m1 - xhat * m2)
        lead = tuple(range(g.ndim - 1))
        dgain = (g * xhat).sum(axis=lead)
        dbias = g.sum(axis=lead)
        return dx, dgain, dbias

    return _apply(data, (x, gain, bias), bwd)


def embedding_lookup(table: Tensor, ids: np.ndarray) -> Tensor:
    ids = np.asarray(ids)
    if ids.size and (ids.min() < 0 or ids.max() >= table.data.shape[0]):
        raise ShapeError(
            f"token id out of range [0, {table.data.shape[0]}): [{ids.min()}, {ids.max()}]"
        )
    data = table.data[ids]

    def bwd(g):
        v, h = table.data.shape
        flat_ids = ids.reshape(-1)
        flat_g = g.reshape(-1, h)
        if v <= 4096:
            # scatter-add as a one-hot matmul: far faster than np.add.at
            onehot = np.zeros((flat_ids.size, v), dtype=g.dtype)
            onehot[np.arange(flat_ids.size), flat_ids] = 1.0
            return (onehot.T @ flat_g,)
        gt = np.zeros_like(table.data)
        np.add.at(gt, flat_ids, flat_g)
        return (gt,)

    return _apply(data, (table,), bwd)


def weighted_embedding_mix(probs: Tensor, table: Tensor) -> Tensor:
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

    return _apply(data, (probs, table), bwd)


def cross_entropy_label_smoothed(
    logits: Tensor,
    targets: np.ndarray,
    smoothing: float,
    pad_mask: np.ndarray | None = None,
) -> Tensor:
    """Mean smoothed negative log-likelihood over non-pad positions.

    ``logits`` is [.., V]; ``targets`` and ``pad_mask`` (True = real token)
    match the leading shape. The smoothing mass is spread uniformly over
    the whole vocabulary.
    """
    if not 0.0 <= smoothing < 1.0:
        raise ValueError(f"smoothing must lie in [0, 1), got {smoothing}")
    v = logits.data.shape[-1]
    flat = logits.data.reshape(-1, v)
    tgt = np.asarray(targets).reshape(-1)
    if tgt.size != flat.shape[0]:
        raise ShapeError(f"targets {np.asarray(targets).shape} do not match logits {logits.data.shape}")
    if tgt.size and tgt.max() >= v:
        raise ShapeError(f"target id {tgt.max()} out of vocabulary {v}")
    if pad_mask is None:
        mask = np.ones(tgt.shape, dtype=flat.dtype)
    else:
        mask = np.asarray(pad_mask).reshape(-1).astype(flat.dtype)
    n_real = mask.sum()
    if n_real == 0:
        raise ValueError("cross entropy over an all-pad batch is undefined")

    m = flat.max(axis=-1, keepdims=True)
    shifted = flat - m
    lse = np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    log_probs = shifted - lse
    rows = np.arange(tgt.size)
    nll = -(1.0 - smoothing) * log_probs[rows, tgt] - (smoothing / v) * log_probs.sum(axis=-1)
    loss = (nll * mask).sum() / n_real
    data = np.asarray(loss, dtype=flat.dtype)

    def bwd(g):
        p = np.exp(log_probs)
        q = np.full_like(p, smoothing / v)
        q[rows, tgt] += 1.0 - smoothing
        gl = (p - q) * (mask * (g / n_real))[:, None]
        return (gl.reshape(logits.data.shape),)

    return _apply(data, (logits,), bwd)


def dropout(x: Tensor, rate: float, rng: np.random.Generator | None) -> Tensor:
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

    return _apply(x.data * mask, (x,), bwd)


def reshape(x: Tensor, shape: Sequence[int]) -> Tensor:
    data = x.data.reshape(shape)

    def bwd(g):
        return (g.reshape(x.data.shape),)

    return _apply(data, (x,), bwd)


def transpose(x: Tensor, axes: Sequence[int]) -> Tensor:
    axes = tuple(axes)
    inverse = tuple(np.argsort(axes))

    def bwd(g):
        return (g.transpose(inverse),)

    return _apply(x.data.transpose(axes), (x,), bwd)


def select(mask: np.ndarray, a: Tensor, b: Tensor) -> Tensor:
    """Elementwise ``mask ? a : b`` with a constant boolean mask.

    Selected entries pass through untouched (no arithmetic), so a mask of
    all-True reproduces ``a`` bit for bit.
    """
    mask = np.asarray(mask, dtype=bool)
    data = np.where(mask, a.data, b.data)

    def bwd(g):
        zero = np.zeros((), dtype=g.dtype)
        ga = gb = None
        if a.requires_grad:
            ga = _unbroadcast(np.where(mask, g, zero), a.data.shape)
        if b.requires_grad:
            gb = _unbroadcast(np.where(mask, zero, g), b.data.shape)
        return ga, gb

    return _apply(data, (a, b), bwd)


# ---------------------------------------------------------------------------
# checkpoint container
# ---------------------------------------------------------------------------

_MAGIC = b"SSLB"
_VERSION = 1
_DTYPE_CODES = {np.dtype("float32"): 1, np.dtype("float64"): 2, np.dtype("int64"): 3}
_CODE_DTYPES = {v: k for k, v in _DTYPE_CODES.items()}


@contextlib.contextmanager
def replacing(path, mode: str = "wb", **open_kwargs) -> Iterator[IO]:
    """Write ``path`` whole or not at all.

    The file object writes a temporary file in the same directory, which
    is flushed to disk and then renamed over ``path`` when the block ends
    normally. If the block raises, the temporary file is removed and
    ``path`` keeps its previous contents (or stays absent).
    """
    path = os.fspath(path)
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, mode, **open_kwargs) as fh:
            yield fh
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


def save_checkpoint(path, entries: dict[str, np.ndarray]) -> None:
    """Write named arrays to a single binary container, crash-safely (see ``replacing``).

    Layout (all integers little-endian): 4-byte magic ``SSLB``, u32 format
    version, u32 entry count, then per entry: u16 name length, utf-8 name,
    u8 dtype code (1=float32, 2=float64, 3=int64), u8 rank, u64 per
    dimension, then the raw little-endian values in C order.
    """
    with replacing(path) as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<II", _VERSION, len(entries)))
        for name, arr in entries.items():
            arr = np.asarray(arr)
            if arr.dtype not in _DTYPE_CODES:
                raise CheckpointError(f"unsupported dtype {arr.dtype} for entry {name!r}")
            raw_name = name.encode("utf-8")
            fh.write(struct.pack("<H", len(raw_name)))
            fh.write(raw_name)
            fh.write(struct.pack("<BB", _DTYPE_CODES[arr.dtype], arr.ndim))
            fh.write(struct.pack(f"<{arr.ndim}Q", *arr.shape))
            payload = np.ascontiguousarray(arr).astype(arr.dtype.newbyteorder("<"), copy=False)
            fh.write(payload.tobytes())


def load_checkpoint(path) -> dict[str, np.ndarray]:
    """Read a container written by ``save_checkpoint``.

    Every malformed input (truncation, unknown version or dtype, a bad
    name, a duplicate entry, bytes after the last entry) raises
    ``CheckpointError``.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:4] != _MAGIC:
        raise CheckpointError(f"{path}: not a checkpoint container")
    pos = 4

    def take(n: int, what: str) -> bytes:
        nonlocal pos
        if n > len(data) - pos:
            raise CheckpointError(f"{path}: truncated {what}")
        pos += n
        return data[pos - n : pos]

    def unpack(fmt: str, what: str) -> tuple:
        return struct.unpack(fmt, take(struct.calcsize(fmt), what))

    version, count = unpack("<II", "header")
    if version != _VERSION:
        raise CheckpointError(f"{path}: unsupported checkpoint version {version}")
    entries: dict[str, np.ndarray] = {}
    for i in range(count):
        (name_len,) = unpack("<H", f"entry {i} header")
        try:
            name = take(name_len, f"entry {i} name").decode("utf-8")
        except UnicodeDecodeError as err:
            raise CheckpointError(f"{path}: entry {i} name is not utf-8") from err
        if name in entries:
            raise CheckpointError(f"{path}: duplicate entry {name!r}")
        code, ndim = unpack("<BB", f"entry {name!r} header")
        if code not in _CODE_DTYPES:
            raise CheckpointError(f"{path}: unknown dtype code {code}")
        shape = unpack(f"<{ndim}Q", f"entry {name!r} shape")
        dtype = _CODE_DTYPES[code]
        buf = take(math.prod(shape) * dtype.itemsize, f"entry {name!r}")
        try:
            arr = np.frombuffer(buf, dtype=dtype.newbyteorder("<")).astype(dtype).reshape(shape)
        except ValueError as err:
            raise CheckpointError(f"{path}: entry {name!r} has unsupported shape {shape}") from err
        entries[name] = arr
    if pos != len(data):
        raise CheckpointError(f"{path}: {len(data) - pos} trailing bytes after the last entry")
    return entries
