"""Per-layer tracing: which sslab functions get spans, and the metrics they give.

Every public function listed here is wrapped in a span wherever a module
of the package binds it. Primitive times are forward self time (backward
closures run inside ``tensor.backward``); every other ``.ms`` metric is
inclusive time in the call. Values are per traced CLI command, and are 0
where a layer does not run on the workload.

Which end-to-end figure each layer should move (``tokens_per_s`` is gated;
the tf and two-pass rates are on the ``perfbench:`` line of ``train``):

- tensor primitives, model.*: ``tokens_per_s`` on every workload;
  backward, tape_nodes, teacher_forcing_loss, adam_step: on train only.
- sampler.two_pass_loss, first_pass_predictions, sample_selection_mask,
  schedules.eval_schedule: the two-pass rate only, never the tf rate.
- data.gen_task, cli.build_corpora, cli.load_model_checkpoint,
  tensor.load_checkpoint, data.next_batch (first call): ``setup_s``.
- decode.*: ``tokens_per_s`` on gap-greedy and evaluate-beam. A KV cache
  moves recompute_ratio toward 1 on both; batched beam search lowers
  scorer_calls and raises rows_per_call on evaluate-beam only.
- metrics.*, model.teacher_forced_logits, tensor.save_checkpoint: command
  time only (median wall time on the ``perfbench:`` line).
"""

from __future__ import annotations

import sys

from spans import SpanStats, Tracer, Undo, rebind, traced

PRIMITIVES = (
    "matmul", "add", "mul", "relu", "softmax", "layer_norm", "embedding_lookup",
    "weighted_embedding_mix", "cross_entropy_label_smoothed", "dropout", "reshape",
    "transpose", "select",
)

# span name -> (module, attribute path) of the traced callable
FUNCTIONS = {
    **{f"tensor.{p}": ("tensor", p) for p in PRIMITIVES},
    "tensor.backward": ("tensor", "Tape.backward"),
    "tensor.load_checkpoint": ("tensor", "load_checkpoint"),
    "tensor.save_checkpoint": ("tensor", "save_checkpoint"),
    "model.encode": ("model", "encode"),
    "model.decode_step_logits": ("model", "decode_step_logits"),
    "model.output_logits": ("model", "output_logits"),
    "model.teacher_forcing_loss": ("model", "teacher_forcing_loss"),
    "model.teacher_forced_logits": ("model", "teacher_forced_logits"),
    "sampler.two_pass_loss": ("sampler", "two_pass_loss"),
    "sampler.first_pass_predictions": ("sampler", "first_pass_predictions"),
    "sampler.sample_selection_mask": ("sampler", "sample_selection_mask"),
    "sampler.adam_step": ("sampler", "Adam.step"),
    "schedules.eval_schedule": ("schedules", "eval_schedule"),
    "data.gen_task": ("data", "gen_task"),
    "data.batch_stream": ("data", "batch_stream"),
    "data.make_batch": ("data", "make_batch"),
    "decode.transformer_scorer": ("decode", "transformer_scorer"),
    "decode.greedy_decode": ("decode", "greedy_decode"),
    "decode.beam_search": ("decode", "beam_search"),
    "metrics.decode_corpus": ("metrics", "decode_corpus"),
    "metrics.strict_precision": ("metrics", "strict_precision_per_step"),
    "metrics.fuzzy_precision": ("metrics", "fuzzy_precision_per_step"),
    "metrics.token_accuracy": ("metrics", "token_accuracy"),
    "metrics.corpus_bleu": ("metrics", "corpus_bleu_lite"),
    "cli.build_corpora": ("cli", "build_corpora"),
    "cli.load_model_checkpoint": ("cli", "load_model_checkpoint"),
}

SEARCHES = ("decode.greedy_decode", "decode.beam_search")
SCORER = "decode.transformer_scorer"

# (name, unit, better) in report order; BENCHMARK.json lists the same
METRICS: list[tuple[str, str, str]] = [
    *[m for p in PRIMITIVES for m in ((f"tensor.{p}.calls", "count", "lower"), (f"tensor.{p}.ms", "ms", "lower"))],
    ("tensor.backward.ms", "ms", "lower"),
    ("tensor.tape_nodes", "count", "lower"),
    ("tensor.load_checkpoint.ms", "ms", "lower"),
    ("tensor.save_checkpoint.ms", "ms", "lower"),
    ("model.encode.calls", "count", "lower"),
    ("model.encode.ms", "ms", "lower"),
    ("model.decode_step_logits.calls", "count", "lower"),
    ("model.decode_step_logits.ms", "ms", "lower"),
    ("model.decoder_positions", "count", "lower"),
    ("model.output_logits.ms", "ms", "lower"),
    ("model.teacher_forcing_loss.ms", "ms", "lower"),
    ("model.teacher_forced_logits.ms", "ms", "lower"),
    ("sampler.two_pass_loss.ms", "ms", "lower"),
    ("sampler.first_pass_predictions.ms", "ms", "lower"),
    ("sampler.sample_selection_mask.ms", "ms", "lower"),
    ("sampler.adam_step.ms", "ms", "lower"),
    ("schedules.eval_schedule.calls", "count", "lower"),
    ("schedules.eval_schedule.ms", "ms", "lower"),
    ("data.gen_task.ms", "ms", "lower"),
    ("data.next_batch.ms", "ms", "lower"),
    ("data.make_batch.ms", "ms", "lower"),
    ("decode.transformer_scorer.ms", "ms", "lower"),
    ("decode.scorer_calls", "count", "lower"),
    ("decode.rows_per_call", "rows", "higher"),
    ("decode.positions_computed", "count", "lower"),
    ("decode.recompute_ratio", "ratio", "lower"),
    ("decode.greedy_decode.ms", "ms", "lower"),
    ("decode.beam_search.ms", "ms", "lower"),
    ("decode.search_self.ms", "ms", "lower"),
    ("metrics.decode_corpus.ms", "ms", "lower"),
    ("metrics.strict_precision.ms", "ms", "lower"),
    ("metrics.fuzzy_precision.ms", "ms", "lower"),
    ("metrics.token_accuracy.ms", "ms", "lower"),
    ("metrics.corpus_bleu.ms", "ms", "lower"),
    ("cli.build_corpora.ms", "ms", "lower"),
    ("cli.load_model_checkpoint.ms", "ms", "lower"),
    ("trace.overhead_s", "s", "lower"),
]


def _package_modules() -> list:
    return [m for name, m in list(sys.modules.items()) if name == "sslab" or name.startswith("sslab.")]


def _resolve(module: str, path: str):
    owner = sys.modules[f"sslab.{module}"]
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr, getattr(owner, attr)


# hooks: each sees the finished span and returns the (possibly wrapped) result


def _count_tape(tracer: Tracer, idx, args, kwargs, result):
    tracer.counters["tape_nodes"] += len(args[0])
    return result


def _count_positions(tracer: Tracer, idx, args, kwargs, result):
    b, n = args[2].data.shape[:2]
    tracer.counters["decoder_positions"] += b * n
    if tracer.is_open(SCORER):
        tracer.counters["positions_computed"] += b * n
    return result


def _traced_stream(tracer: Tracer, idx, args, kwargs, stream):
    """Each ``next()`` on the batch stream becomes a ``data.next_batch`` span."""

    def batches():
        while True:
            span = tracer.enter("data.next_batch")
            try:
                batch = next(stream)
            finally:
                tracer.exit(span)
            yield batch

    return batches()


def _scorer_step_hook(tracer: Tracer, idx, args, kwargs, result):
    rows = args[0].shape[0]
    tracer.counters["scorer_calls"] += 1
    tracer.counters["scorer_rows"] += rows
    if any(tracer.is_open(s) for s in SEARCHES):
        tracer.counters["scorer_in_search_s"] += tracer.duration(idx)
    return result


def _traced_scorer(tracer: Tracer, idx, args, kwargs, step):
    # the factory's own time (encoder precompute) and every step call share
    # one span name, so the scorer's inclusive time covers both
    if any(tracer.is_open(s) for s in SEARCHES):
        tracer.counters["scorer_in_search_s"] += tracer.duration(idx)
    return traced(tracer, SCORER, step, _scorer_step_hook)


HOOKS = {
    "tensor.backward": _count_tape,
    "model.decode_step_logits": _count_positions,
    "data.batch_stream": _traced_stream,
    "decode.transformer_scorer": _traced_scorer,
}


def install(tracer: Tracer) -> Undo:
    """Wrap every function of ``FUNCTIONS`` in a span; returns the undo list."""
    modules = _package_modules()
    undo: Undo = []
    for name, (module, path) in FUNCTIONS.items():
        owner, attr, original = _resolve(module, path)
        wrapper = traced(tracer, name, original, HOOKS.get(name))
        owners = [owner] if owner not in modules else modules
        undo += rebind(owners, original, wrapper)
    return undo


def per_layer(stats: dict[str, SpanStats], counters: dict[str, float], commands: int) -> dict[str, float]:
    """Per-layer metrics per traced command, from spans and counters.

    ``<span>.calls`` and ``<span>.ms`` come straight from the spans; the
    other metrics (and ``trace.overhead_s``, which the caller adds) are
    derived below.
    """

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    search_s = sum(stats[s].inclusive_s for s in SEARCHES if s in stats)
    out = {
        "tensor.tape_nodes": ratio(counters["tape_nodes"], stats["tensor.backward"].calls if "tensor.backward" in stats else 0),
        "model.decoder_positions": counters["decoder_positions"] / commands,
        "decode.scorer_calls": counters["scorer_calls"] / commands,
        "decode.rows_per_call": ratio(counters["scorer_rows"], counters["scorer_calls"]),
        "decode.positions_computed": counters["positions_computed"] / commands,
        "decode.recompute_ratio": ratio(counters["positions_computed"], counters["scorer_rows"]),
        "decode.search_self.ms": 1000.0 * (search_s - counters["scorer_in_search_s"]) / commands,
    }
    for metric, _, _ in METRICS:
        span, _, kind = metric.rpartition(".")
        if metric in out or kind not in ("calls", "ms"):
            continue
        s = stats.get(span, SpanStats())
        if kind == "calls":
            out[metric] = s.calls / commands
        else:
            primitive = span.removeprefix("tensor.") in PRIMITIVES
            out[metric] = 1000.0 * (s.self_s if primitive else s.inclusive_s) / commands
    return out
