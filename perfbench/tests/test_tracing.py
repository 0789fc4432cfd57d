"""Tracing must not change what the program computes or writes."""

import sys

import layers
import workloads as wl
from spans import Tracer, restore


def _run(out, traced: bool):
    tracer = Tracer()
    undo = layers.install(tracer) if traced else []
    try:
        rec = wl.run_command(wl.WORKLOADS["train"], 7, out)
    finally:
        restore(undo)
    return rec, tracer


def test_tracing_leaves_train_outputs_byte_identical(tmp_path):
    plain, _ = _run(tmp_path / "plain", traced=False)
    traced, tracer = _run(tmp_path / "traced", traced=True)
    assert plain.exit_code == 0 and traced.exit_code == 0, (plain.error, traced.error)
    for name in ("ckpt_final.bin", "steps.csv"):
        assert (tmp_path / "plain" / name).read_bytes() == (tmp_path / "traced" / name).read_bytes()
    # the traced run really went through the wrappers, and they were removed again
    stats = tracer.summarize()
    assert stats["tensor.backward"].calls == wl.TRAIN_STEPS
    assert stats["data.next_batch"].calls == wl.TRAIN_STEPS
    assert tracer.counters["tape_nodes"] == 263 * (wl.TRAIN_STEPS // 2) + 264 * (wl.TRAIN_STEPS // 2)
    model, tensor = sys.modules["sslab.model"], sys.modules["sslab.tensor"]
    assert not any(hasattr(fn, "__wrapped__") for fn in (wl.cli.build_corpora, model.matmul, tensor.Tape.backward))


def test_every_listed_function_is_found_and_patched():
    tracer = Tracer()
    undo = layers.install(tracer)
    try:
        patched = {getattr(owner, attr).__name__ for owner, attr, _ in undo}
    finally:
        restore(undo)
    expected = {path.split(".")[-1] for _, path in layers.FUNCTIONS.values()}
    assert patched == expected
