"""Command-line entry point wiring configs, training, measurement and decoding.

Configuration is file-first: a JSON document holding every module's
settings, overridable with repeated ``--set dotted.key=value`` flags.
Each command writes the fully resolved configuration next to its outputs,
so re-running from that echo reproduces the run bit for bit. The output
directory can be overridden with the ``SSLAB_OUT_DIR`` environment
variable. All randomness derives from one root seed split into named
streams (data, init, dropout, sampler).

Subcommands: schedule-dump, train, gap-curve, evaluate, decode.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from dataclasses import MISSING, asdict, dataclass, field, fields, is_dataclass
from pathlib import Path
from typing import Mapping

import numpy as np

from .data import Corpus, DataError, TaskKind, Vocab, batch_stream, gen_task, load_tsv_corpus, make_batch, split_corpus
from .decode import DecodeConfig, beam_decode, greedy_decode
from .metrics import (
    StepCurve,
    corpus_bleu_lite,
    decode_corpus,
    fuzzy_precision_per_step,
    strict_precision_per_step,
    token_accuracy,
    write_curve_csv,
)
from .model import ModelConfig, ModelParams, init_params, teacher_forced_logits
from .rng import named_rng
from .sampler import (
    DivergenceError,
    OptimizerConfig,
    PredictionMode,
    SamplerConfig,
    SamplingMode,
    train,
)
from .schedules import JointSpec, ScheduleSpec, dump_curves
from .tensor import load_checkpoint, save_checkpoint


class ConfigError(ValueError):
    """Run configuration is malformed."""


@dataclass
class DataConfig:
    task: str = "noisy_map"  # copy | reverse | noisy_map | tsv
    tsv_path: str | None = None
    vocab_size: int = 50
    min_len: int = 20
    max_len: int = 60
    count: int = 20000
    eval_count: int = 500
    noise: float = 0.1
    map_a: int | None = None
    map_b: int = 1
    history_weight: int = 0
    long_length_mass: float = 0.0
    eval_clean_targets: bool = True
    eval_fraction: float = 0.05  # tsv only
    token_budget: int = 1024


@dataclass
class TrainSection:
    total_steps: int = 2000
    checkpoint_every: int = 1000
    log_every: int = 50
    resume_from: str | None = None


@dataclass
class SamplerSection:
    mode: str = "decoding_steps"
    schedule: dict = field(default_factory=lambda: {"family": "exponential", "k": 0.99})
    joint: dict | None = None
    prediction: str = "soft_mix"
    warm_start_steps: int = 0
    backprop_through_predictions: bool = False

    def build(self) -> SamplerConfig:
        return SamplerConfig(
            mode=SamplingMode(self.mode),
            schedule=ScheduleSpec.from_dict(self.schedule) if self.schedule else None,
            joint=JointSpec.from_dict(self.joint) if self.joint else None,
            prediction=PredictionMode(self.prediction),
            warm_start_steps=self.warm_start_steps,
            backprop_through_predictions=self.backprop_through_predictions,
        )


@dataclass
class RunConfig:
    """Every module's configuration in one structured document."""

    seed: int = 0
    out_dir: str = "runs/exp"
    model: ModelConfig = field(default_factory=lambda: ModelConfig(vocab_size=0))
    data: DataConfig = field(default_factory=DataConfig)
    sampler: SamplerSection = field(default_factory=SamplerSection)
    optimizer: OptimizerConfig = field(default_factory=OptimizerConfig)
    decode: DecodeConfig = field(default_factory=lambda: DecodeConfig(beam_size=4, length_penalty=0.6, max_length=80))
    train: TrainSection = field(default_factory=TrainSection)
    # named specs for schedule-dump; entries with a "method" key are joint
    schedules: dict = field(default_factory=dict)
    dump_max_i: int = 100
    dump_max_t: int = 128
    gap_window: int = 3

    @staticmethod
    def from_dict(doc: Mapping) -> "RunConfig":
        """Build from a document keyed by field name; a section given replaces its defaults whole."""
        cfg = RunConfig()
        for key, value in _checked_fields(RunConfig, doc, "").items():
            section = type(getattr(cfg, key))
            if is_dataclass(section):
                value = section(**_checked_fields(section, value, f"{key}."))
            setattr(cfg, key, value)
        return cfg


def _checked_fields(cls, doc: object, prefix: str) -> Mapping:
    """``doc``, once it is a mapping of ``cls``'s field names that holds every required one."""
    if not isinstance(doc, Mapping):
        where = f"section {prefix[:-1]!r}" if prefix else "document"
        raise ConfigError(f"config {where} must be a mapping, got {type(doc).__name__}")
    names = {f.name: f for f in fields(cls)}
    for key in doc:
        if key not in names:
            raise ConfigError(f"unknown config key {prefix + key!r}")
    for name, f in names.items():
        if name not in doc and f.default is MISSING and f.default_factory is MISSING:
            raise ConfigError(f"config key {prefix + name!r} is required")
    return doc


def _parse_override(raw: str) -> tuple[list[str], object]:
    if "=" not in raw:
        raise ConfigError(f"--set needs key=value, got {raw!r}")
    key, value = raw.split("=", 1)
    try:
        parsed = json.loads(value)
    except json.JSONDecodeError:
        parsed = value
    return key.split("."), parsed


def load_run_config(path: str | None, overrides: list[str]) -> RunConfig:
    doc: dict = {}
    if path:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    base = asdict(RunConfig.from_dict(doc))
    for raw in overrides:
        keys, value = _parse_override(raw)
        node = base
        for k in keys[:-1]:
            if k not in node or not isinstance(node[k], dict):
                raise ConfigError(f"unknown config path {'.'.join(keys)!r}")
            node = node[k]
        if keys[-1] not in node:
            raise ConfigError(f"unknown config key {'.'.join(keys)!r}")
        node[keys[-1]] = value
    cfg = RunConfig.from_dict(base)
    env_out = os.environ.get("SSLAB_OUT_DIR")
    if env_out:
        cfg.out_dir = env_out
    return cfg


def _prepare_out_dir(cfg: RunConfig) -> Path:
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "config.json", "w", encoding="utf-8") as fh:
        json.dump(asdict(cfg), fh, indent=2, sort_keys=True)
        fh.write("\n")
    return out


def build_corpora(cfg: RunConfig) -> tuple[Corpus, Corpus]:
    """Deterministic train/eval corpora for the configured task.

    Synthetic eval sets are generated from their own stream; for the noisy
    map task the eval references are noise-free by default, so measurement
    scores map recovery instead of unpredictable corruptions.
    """
    d = cfg.data
    if d.task == "tsv":
        if not d.tsv_path:
            raise ConfigError("data.task=tsv needs data.tsv_path")
        corpus = load_tsv_corpus(d.tsv_path)
        return split_corpus(corpus, d.eval_fraction, cfg.seed)
    kind = TaskKind(d.task)
    train_corpus = gen_task(
        kind, d.vocab_size, d.min_len, d.max_len, d.count,
        seed=hash_seed(cfg.seed, "train-data"), noise=d.noise, map_a=d.map_a, map_b=d.map_b,
        history_weight=d.history_weight, long_length_mass=d.long_length_mass,
    )
    eval_noise = 0.0 if d.eval_clean_targets else d.noise
    eval_corpus = gen_task(
        kind, d.vocab_size, d.min_len, d.max_len, d.eval_count,
        seed=hash_seed(cfg.seed, "eval-data"), noise=eval_noise, map_a=d.map_a, map_b=d.map_b,
        history_weight=d.history_weight, long_length_mass=d.long_length_mass,
    )
    return train_corpus, eval_corpus


def hash_seed(root: int, label: str) -> int:
    return int(named_rng(root, label).integers(0, 2**31 - 1))


def _resolve_model_config(cfg: RunConfig, vocab: Vocab) -> ModelConfig:
    doc = asdict(cfg.model)
    if doc["vocab_size"] in (0, None):
        doc["vocab_size"] = vocab.size
    elif doc["vocab_size"] != vocab.size:
        raise ConfigError(
            f"model.vocab_size {doc['vocab_size']} != corpus vocabulary {vocab.size}"
        )
    if doc["max_positions"] < cfg.data.max_len + 2:
        raise ConfigError(
            f"model.max_positions {doc['max_positions']} too small for sequences "
            f"up to {cfg.data.max_len} tokens plus sentinels"
        )
    return ModelConfig(**doc)


def save_model_checkpoint(
    path: Path, params: ModelParams, step: int, vocab: Vocab
) -> None:
    entries = dict(params.as_arrays())
    entries["meta/step"] = np.asarray(step, dtype=np.int64)
    save_checkpoint(path, entries)
    sidecar = {"model": asdict(params.config), "step": step, "vocab_tokens": list(vocab.tokens)}
    with open(str(path) + ".json", "w", encoding="utf-8") as fh:
        json.dump(sidecar, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_model_checkpoint(path: str) -> tuple[ModelParams, int, Vocab]:
    with open(str(path) + ".json", "r", encoding="utf-8") as fh:
        sidecar = json.load(fh)
    config = ModelConfig(**sidecar["model"])
    vocab = Vocab(tuple(sidecar["vocab_tokens"]))
    entries = load_checkpoint(path)
    step = int(entries.pop("meta/step"))
    params = init_params(config, named_rng(0, "init"))
    params.load_arrays(entries)
    return params, step, vocab


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_schedule_dump(cfg: RunConfig) -> int:
    out = _prepare_out_dir(cfg)
    if not cfg.schedules:
        raise ConfigError("schedule-dump needs at least one entry under 'schedules'")
    specs = {}
    for name, doc in cfg.schedules.items():
        specs[name] = JointSpec.from_dict(doc) if "method" in doc else ScheduleSpec.from_dict(doc)
    tables = dump_curves(specs, cfg.dump_max_i, cfg.dump_max_t)
    for key, (header, rows) in tables.items():
        with open(out / f"{key}.csv", "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows(rows)
    print(f"wrote {len(tables)} csv file(s) to {out}")
    return 0


def cmd_train(cfg: RunConfig) -> int:
    out = _prepare_out_dir(cfg)
    train_corpus, _ = build_corpora(cfg)
    model_cfg = _resolve_model_config(cfg, train_corpus.vocab)
    if cfg.train.resume_from:
        params, start_step, vocab = load_model_checkpoint(cfg.train.resume_from)
        if vocab.tokens != train_corpus.vocab.tokens:
            raise ConfigError("checkpoint vocabulary does not match the configured data")
    else:
        params = init_params(model_cfg, named_rng(cfg.seed, "init"))
        start_step = 0
    sampler = cfg.sampler.build()
    batches = batch_stream(train_corpus, cfg.data.token_budget, hash_seed(cfg.seed, "batches"))
    # the stream is stateless per epoch; skip ahead so resumed runs see new data
    for _ in range(start_step):
        next(batches)

    log_path = out / "steps.csv"
    log_fh = open(log_path, "a" if start_step else "w", encoding="utf-8")
    if not start_step:
        log_fh.write("step,loss,golden_fraction,mean_p,mode\n")
    last_checkpoint = None

    def on_step(row: dict) -> None:
        nonlocal last_checkpoint
        log_fh.write(
            f"{row['step']},{row['loss']!r},{row['golden_fraction']!r},"
            f"{row['mean_p']!r},{row['mode']}\n"
        )
        if (row["step"] + 1) % cfg.train.log_every == 0:
            log_fh.flush()
        if (row["step"] + 1) % cfg.train.checkpoint_every == 0:
            path = out / f"ckpt_step{row['step'] + 1:06d}.bin"
            save_model_checkpoint(path, params, row["step"] + 1, train_corpus.vocab)
            last_checkpoint = path

    try:
        train(
            params, model_cfg, sampler, batches, cfg.optimizer,
            total_steps=cfg.train.total_steps, root_seed=cfg.seed,
            start_step=start_step, on_step=on_step,
        )
    except DivergenceError as err:
        log_fh.close()
        kept = last_checkpoint or cfg.train.resume_from
        raise DivergenceError(f"{err}; last good checkpoint: {kept}") from err
    log_fh.close()
    final = out / "ckpt_final.bin"
    save_model_checkpoint(final, params, start_step + cfg.train.total_steps, train_corpus.vocab)
    print(f"trained {cfg.train.total_steps} step(s); final checkpoint {final}")
    return 0


def _content_targets(corpus: Corpus) -> list[list[int]]:
    return [tgt for _, tgt in corpus.pairs]


def _teacher_forced_predictions(
    params: ModelParams, model_cfg: ModelConfig, corpus: Corpus, batch_rows: int = 64
) -> list[list[int]]:
    """Argmax continuation at every golden prefix, trimmed to content length."""
    preds: list[list[int]] = []
    for lo in range(0, len(corpus.pairs), batch_rows):
        chunk = corpus.pairs[lo : lo + batch_rows]
        batch = make_batch(chunk)
        logits = teacher_forced_logits(params, model_cfg, batch)
        argmax = logits.argmax(axis=-1)
        for i, (_, tgt) in enumerate(chunk):
            preds.append(argmax[i, : len(tgt)].tolist())
    return preds


def cmd_gap_curve(cfg: RunConfig, checkpoint: str) -> int:
    out = _prepare_out_dir(cfg)
    params, _, _ = load_model_checkpoint(checkpoint)
    model_cfg = params.config
    _, eval_corpus = build_corpora(cfg)
    refs = _content_targets(eval_corpus)

    train_preds = _teacher_forced_predictions(params, model_cfg, eval_corpus)
    train_curve = strict_precision_per_step(train_preds, refs)

    hyps = decode_corpus(params, model_cfg, eval_corpus, cfg.decode)
    infer_curve = fuzzy_precision_per_step(hyps, refs, window=cfg.gap_window)

    infer_at = dict(zip(infer_curve.steps, infer_curve.values))
    shared = [
        (s, tv - infer_at[s], c)
        for s, tv, c in zip(train_curve.steps, train_curve.values, train_curve.counts)
        if s in infer_at
    ]
    gap_curve = StepCurve(
        [s for s, _, _ in shared], [g for _, g, _ in shared], [c for _, _, c in shared]
    )
    write_curve_csv(out / "training_precision.csv", train_curve)
    write_curve_csv(out / "inference_precision.csv", infer_curve)
    write_curve_csv(out / "gap.csv", gap_curve)
    print(f"wrote gap curves for {len(refs)} pairs to {out}")
    return 0


def cmd_evaluate(cfg: RunConfig, checkpoint: str) -> int:
    out = _prepare_out_dir(cfg)
    params, step, _ = load_model_checkpoint(checkpoint)
    model_cfg = params.config
    _, eval_corpus = build_corpora(cfg)
    refs = _content_targets(eval_corpus)
    hyps = decode_corpus(params, model_cfg, eval_corpus, cfg.decode)

    accuracy = token_accuracy(hyps, refs)
    bleu = corpus_bleu_lite(hyps, refs)
    strict = strict_precision_per_step(hyps, refs)
    fuzzy = fuzzy_precision_per_step(hyps, refs, window=cfg.gap_window)
    write_curve_csv(out / "strict_precision.csv", strict)
    write_curve_csv(out / "fuzzy_precision.csv", fuzzy)
    report = {
        "checkpoint": str(checkpoint),
        "checkpoint_step": step,
        "pairs": len(refs),
        "token_accuracy": accuracy,
        "bleu_lite": bleu,
    }
    with open(out / "report.json", "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    with open(out / "report.txt", "w", encoding="utf-8") as fh:
        fh.write(f"checkpoint      : {checkpoint} (step {step})\n")
        fh.write(f"eval pairs      : {len(refs)}\n")
        fh.write(f"token accuracy  : {accuracy:.4f}\n")
        fh.write(f"bleu (toy scale): {bleu:.4f}\n")
    print((out / "report.txt").read_text(encoding="utf-8"), end="")
    return 0


def cmd_decode(cfg: RunConfig, checkpoint: str, output: str | None) -> int:
    out = _prepare_out_dir(cfg)
    params, _, vocab = load_model_checkpoint(checkpoint)
    model_cfg = params.config
    _, eval_corpus = build_corpora(cfg)
    hyps = decode_corpus(params, model_cfg, eval_corpus, cfg.decode)
    path = Path(output) if output else out / "hypotheses.txt"
    with open(path, "w", encoding="utf-8") as fh:
        for hyp in hyps:
            fh.write(" ".join(vocab.decode(hyp)) + "\n")
    print(f"wrote {len(hyps)} hypothesis lines to {path}")
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sslab",
        description="Scheduled-sampling laboratory for seq2seq transformers",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("schedule-dump", "train", "gap-curve", "evaluate", "decode"):
        p = sub.add_parser(name)
        p.add_argument("--config", help="JSON run configuration")
        p.add_argument(
            "--set", action="append", default=[], dest="overrides", metavar="KEY=VALUE",
            help="override a config entry by dotted path (repeatable)",
        )
        if name in ("gap-curve", "evaluate", "decode"):
            p.add_argument("--checkpoint", required=True)
        if name == "decode":
            p.add_argument("--output", help="hypothesis file (default <out_dir>/hypotheses.txt)")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = load_run_config(args.config, args.overrides)
        if args.command == "schedule-dump":
            return cmd_schedule_dump(cfg)
        if args.command == "train":
            return cmd_train(cfg)
        if args.command == "gap-curve":
            return cmd_gap_curve(cfg, args.checkpoint)
        if args.command == "evaluate":
            return cmd_evaluate(cfg, args.checkpoint)
        if args.command == "decode":
            return cmd_decode(cfg, args.checkpoint, args.output)
        raise ConfigError(f"unknown command {args.command}")
    except (ConfigError, DataError, DivergenceError, OSError, KeyError, ValueError) as err:
        print(f"sslab: error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
