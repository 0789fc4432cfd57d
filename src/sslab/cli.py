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
from enum import Enum
from pathlib import Path
from types import NoneType, UnionType
from typing import Mapping, get_args, get_origin, get_type_hints

import numpy as np

from .data import FIRST_CONTENT_ID, Corpus, DataError, TaskKind, Vocab, batch_stream, gen_task, load_tsv_corpus, make_batch, split_corpus
from .decode import DecodeConfig
from .metrics import (
    BATCH_ROWS,
    StepCurve,
    corpus_bleu_lite,
    decode_corpus,
    empirical_schedule,
    fuzzy_precision_per_step,
    strict_precision_per_step,
    token_accuracy,
    write_curve_csv,
)
from .model import ModelConfig, ModelParams, init_params, teacher_forced_logits
from .rng import named_rng
from .sampler import DivergenceError, OptimizerConfig, SamplerConfig, SamplingMode, train
from .schedules import Family, JointSpec, ScheduleSpec, dump_curves
from .tensor import load_checkpoint, replacing, save_checkpoint


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

    def __post_init__(self):
        tasks = [k.value for k in TaskKind] + ["tsv"]
        if self.task not in tasks:
            raise ValueError(f"task must be one of {tasks}, got {self.task!r}")
        for name in ("noise", "long_length_mass"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {getattr(self, name)}")
        if not 0.0 < self.eval_fraction < 1.0:
            raise ValueError(f"eval_fraction must lie in (0, 1), got {self.eval_fraction}")
        if self.task != "tsv":  # a TSV file fixes its own lengths and vocabulary
            if not 1 <= self.min_len <= self.max_len:
                raise ValueError(f"min_len must be >= 1 and <= max_len {self.max_len}, got {self.min_len}")
            if self.vocab_size <= FIRST_CONTENT_ID:
                raise ValueError(f"vocab_size must exceed {FIRST_CONTENT_ID}, got {self.vocab_size}")
            if self.token_budget < self.max_len + 2:  # the widest row: max_len tokens plus two sentinels
                raise ValueError(f"token_budget must be >= max_len + 2 = {self.max_len + 2}, got {self.token_budget}")


@dataclass
class TrainSection:
    total_steps: int = 2000
    checkpoint_every: int = 1000
    log_every: int = 50
    resume_from: str | None = None

    def __post_init__(self):
        if self.total_steps < 0:
            raise ValueError(f"total_steps must be >= 0, got {self.total_steps}")
        for name in ("checkpoint_every", "log_every"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")


def _default_sampler() -> SamplerConfig:
    return SamplerConfig(SamplingMode.DECODING_STEPS, schedule=ScheduleSpec(Family.EXPONENTIAL, k=0.99))


@dataclass
class RunConfig:
    """Every module's configuration in one structured document."""

    seed: int = 0
    out_dir: str = "runs/exp"
    model: ModelConfig = field(default_factory=lambda: ModelConfig(vocab_size=0))
    data: DataConfig = field(default_factory=DataConfig)
    sampler: SamplerConfig = field(default_factory=_default_sampler)
    optimizer: OptimizerConfig = field(default_factory=OptimizerConfig)
    decode: DecodeConfig = field(default_factory=lambda: DecodeConfig(beam_size=4, length_penalty=0.6, max_length=80))
    train: TrainSection = field(default_factory=TrainSection)
    # named specs for schedule-dump; entries with a "method" key are joint
    schedules: dict = field(default_factory=dict)
    dump_max_i: int = 100
    dump_max_t: int = 128
    gap_window: int = 3

    def __post_init__(self):
        if self.gap_window < 1 or self.gap_window % 2 == 0:
            raise ValueError(f"gap_window must be odd and >= 1, got {self.gap_window}")


def read_config(cls, doc: object, key: str = ""):
    """An instance of config dataclass ``cls`` read from the mapping ``doc``.

    Each field is read by its type annotation: a nested dataclass from a
    mapping of its field names, an enum from its value, a float tuple from
    a list of numbers, and a scalar by type (an int is stored as a float
    for a float field; a bool is only a bool). Fields not given take the
    class's defaults. Every error is a ``ConfigError`` naming the dotted
    ``key`` of the offending entry.
    """
    where = f"section {key!r}" if key else "document"
    if not isinstance(doc, Mapping):
        raise ConfigError(f"config {where} must be a mapping, got {type(doc).__name__}")
    prefix = f"{key}." if key else ""
    names = {f.name: f for f in fields(cls)}
    for name in doc:
        if name not in names:
            raise ConfigError(f"unknown config key {prefix + name!r}")
    for name, f in names.items():
        if name not in doc and f.default is MISSING and f.default_factory is MISSING:
            raise ConfigError(f"config key {prefix + name!r} is required")
    hints = get_type_hints(cls)
    values = {name: _read_value(hints[name], value, prefix + name) for name, value in doc.items()}
    try:
        return cls(**values)
    except ValueError as err:
        raise ConfigError(f"config {where}: {err}") from err


def _read_value(hint, value: object, key: str) -> object:
    if get_origin(hint) is UnionType:  # T | None
        if value is None and NoneType in get_args(hint):
            return None
        (hint,) = [t for t in get_args(hint) if t is not NoneType]
    if is_dataclass(hint):
        return read_config(hint, value, key)
    if get_origin(hint) is tuple:  # tuple[float, ...]
        if not (isinstance(value, (list, tuple)) and all(_is_number(v) for v in value)):
            raise ConfigError(f"config key {key!r} must be a list of numbers, got {value!r}")
        return tuple(float(v) for v in value)
    if issubclass(hint, Enum):
        try:
            return hint(value)
        except ValueError:
            raise ConfigError(
                f"config key {key!r} must be one of {[m.value for m in hint]}, got {value!r}"
            ) from None
    if hint is dict:
        if not isinstance(value, Mapping):
            raise ConfigError(f"config key {key!r} must be a mapping, got {type(value).__name__}")
        return value
    if hint is float and _is_number(value):
        return float(value)
    if isinstance(value, hint) and (hint is bool or not isinstance(value, bool)):
        return value
    raise ConfigError(f"config key {key!r} must be {hint.__name__}, got {value!r}")


def _is_number(value: object) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


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
    base = asdict(read_config(RunConfig, doc))
    for raw in overrides:
        keys, value = _parse_override(raw)
        node = base
        for k in keys[:-1]:
            if k not in node or not isinstance(node[k], dict):
                raise ConfigError(f"unknown config path {'.'.join(keys)!r}")
            node = node[k]
        node[keys[-1]] = value  # an unknown key is the reader's to reject
    cfg = read_config(RunConfig, base)
    env_out = os.environ.get("SSLAB_OUT_DIR")
    if env_out:
        cfg.out_dir = env_out
    return cfg


def _prepare_out_dir(cfg: RunConfig) -> Path:
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    _write_json(out / "config.json", asdict(cfg))
    return out


def _write_json(path, doc: Mapping) -> None:
    """``doc`` as sorted, indented JSON, written whole or not at all."""
    with replacing(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def build_corpora(cfg: RunConfig, *, train_data: bool = True) -> tuple[Corpus | None, Corpus]:
    """Deterministic train/eval corpora for the configured task.

    Synthetic eval sets are generated from their own stream; for the noisy
    map task the eval references are noise-free by default, so measurement
    scores map recovery instead of unpredictable corruptions. With
    ``train_data=False`` no synthetic training corpus is generated and its
    place holds ``None``; a TSV file is always read and split whole.
    """
    d = cfg.data
    if d.task == "tsv":
        if not d.tsv_path:
            raise ConfigError("data.task=tsv needs data.tsv_path")
        corpus = load_tsv_corpus(d.tsv_path)
        return split_corpus(corpus, d.eval_fraction, cfg.seed)

    def generate(count: int, label: str, noise: float) -> Corpus:
        return gen_task(
            TaskKind(d.task), d.vocab_size, d.min_len, d.max_len, count,
            seed=hash_seed(cfg.seed, label), noise=noise, map_a=d.map_a, map_b=d.map_b,
            history_weight=d.history_weight, long_length_mass=d.long_length_mass,
        )

    train_corpus = generate(d.count, "train-data", d.noise) if train_data else None
    return train_corpus, generate(d.eval_count, "eval-data", 0.0 if d.eval_clean_targets else d.noise)


def hash_seed(root: int, label: str) -> int:
    return int(named_rng(root, label).integers(0, 2**31 - 1))


def _resolve_model_config(cfg: RunConfig, vocab: Vocab) -> ModelConfig:
    doc = asdict(cfg.model)
    if doc["vocab_size"] == 0:
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
    _write_json(str(path) + ".json", sidecar)


def load_model_checkpoint(path: str) -> tuple[ModelParams, int, Vocab]:
    sidecar_path = str(path) + ".json"
    with open(sidecar_path, "r", encoding="utf-8") as fh:
        sidecar = json.load(fh)
    model = sidecar.get("model") if isinstance(sidecar, Mapping) else None
    try:
        config = read_config(ModelConfig, model, "model")
        tokens = sidecar.get("vocab_tokens")
        content = config.vocab_size - FIRST_CONTENT_ID
        if not (isinstance(tokens, list) and len(tokens) == content and all(isinstance(t, str) for t in tokens)):
            raise ConfigError(
                f"vocab_tokens must be a list of {content} strings (model.vocab_size - {FIRST_CONTENT_ID})"
            )
    except ConfigError as err:
        raise ConfigError(f"checkpoint sidecar {sidecar_path}: {err}") from err
    vocab = Vocab(tuple(tokens))
    entries = load_checkpoint(path)
    step = int(entries.pop("meta/step"))
    params = init_params(config, named_rng(0, "init"))
    params.load_arrays(entries)
    return params, step, vocab


def _load_checkpoint_for(path: str, corpus: Corpus) -> tuple[ModelParams, int]:
    """The checkpoint's parameters and step; its vocabulary must be ``corpus``'s."""
    params, step, vocab = load_model_checkpoint(path)
    if vocab.tokens != corpus.vocab.tokens:
        raise ConfigError(
            f"checkpoint vocabulary ({vocab.size} ids) does not match the configured data ({corpus.vocab.size} ids)"
        )
    return params, step


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_schedule_dump(cfg: RunConfig) -> int:
    out = _prepare_out_dir(cfg)
    if not cfg.schedules:
        raise ConfigError("schedule-dump needs at least one entry under 'schedules'")
    specs = {}
    for name, doc in cfg.schedules.items():
        spec_cls = JointSpec if isinstance(doc, Mapping) and "method" in doc else ScheduleSpec
        specs[name] = read_config(spec_cls, doc, f"schedules.{name}")
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
        params, start_step = _load_checkpoint_for(cfg.train.resume_from, train_corpus)
        # the run trains the checkpoint's model, so its model section must name that model
        ours, theirs = asdict(model_cfg), asdict(params.config)
        differ = [f"model.{k} is {ours[k]!r} here, {theirs[k]!r} in the checkpoint" for k in ours if ours[k] != theirs[k]]
        if differ:
            raise ConfigError(f"the run's model section differs from the checkpoint's: {'; '.join(differ)}")
    else:
        params = init_params(model_cfg, named_rng(cfg.seed, "init"))
        start_step = 0
    batches = batch_stream(train_corpus, cfg.data.token_budget, hash_seed(cfg.seed, "batches"))
    # the stream is stateless per epoch; skip ahead so resumed runs see new data
    for _ in range(start_step):
        next(batches)

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

    with open(out / "steps.csv", "a" if start_step else "w", encoding="utf-8") as log_fh:
        if log_fh.tell() == 0:  # a new log, also when a resumed run writes to a new out_dir
            log_fh.write("step,loss,golden_fraction,mean_p,mode\n")
        try:
            train(
                params, cfg.sampler, batches, cfg.optimizer,
                total_steps=cfg.train.total_steps, root_seed=cfg.seed,
                start_step=start_step, on_step=on_step,
            )
        except DivergenceError as err:
            kept = last_checkpoint or cfg.train.resume_from
            raise DivergenceError(f"{err}; last good checkpoint: {kept}") from err
    final = out / "ckpt_final.bin"
    save_model_checkpoint(final, params, start_step + cfg.train.total_steps, train_corpus.vocab)
    print(f"trained {cfg.train.total_steps} step(s); final checkpoint {final}")
    return 0


def _content_targets(corpus: Corpus) -> list[list[int]]:
    return [tgt for _, tgt in corpus.pairs]


def _teacher_forced_predictions(params: ModelParams, corpus: Corpus) -> list[list[int]]:
    """Argmax continuation at every golden prefix, trimmed to content length."""
    preds: list[list[int]] = []
    for lo in range(0, len(corpus.pairs), BATCH_ROWS):
        chunk = corpus.pairs[lo : lo + BATCH_ROWS]
        batch = make_batch(chunk)
        logits = teacher_forced_logits(params, batch)
        argmax = logits.argmax(axis=-1)
        for i, (_, tgt) in enumerate(chunk):
            preds.append(argmax[i, : len(tgt)].tolist())
    return preds


def _eval_setup(cfg: RunConfig, checkpoint: str) -> tuple[Path, Corpus, ModelParams, int]:
    """Out dir, eval corpus (no synthetic training data is generated), and the checkpoint read against it."""
    out = _prepare_out_dir(cfg)
    _, eval_corpus = build_corpora(cfg, train_data=False)
    params, step = _load_checkpoint_for(checkpoint, eval_corpus)
    return out, eval_corpus, params, step


def cmd_gap_curve(cfg: RunConfig, checkpoint: str) -> int:
    out, eval_corpus, params, _ = _eval_setup(cfg, checkpoint)
    refs = _content_targets(eval_corpus)

    train_preds = _teacher_forced_predictions(params, eval_corpus)
    train_curve = strict_precision_per_step(train_preds, refs)

    hyps = decode_corpus(params, eval_corpus, cfg.decode)
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
    # inference error per decoding step as a ready ``sampler.schedule``
    _write_json(out / "empirical_schedule.json", asdict(empirical_schedule(infer_curve)))
    print(f"wrote gap curves and an empirical schedule for {len(refs)} pairs to {out}")
    return 0


def cmd_evaluate(cfg: RunConfig, checkpoint: str) -> int:
    out, eval_corpus, params, step = _eval_setup(cfg, checkpoint)
    refs = _content_targets(eval_corpus)
    hyps = decode_corpus(params, eval_corpus, cfg.decode)

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
    _write_json(out / "report.json", report)
    with open(out / "report.txt", "w", encoding="utf-8") as fh:
        fh.write(f"checkpoint      : {checkpoint} (step {step})\n")
        fh.write(f"eval pairs      : {len(refs)}\n")
        fh.write(f"token accuracy  : {accuracy:.4f}\n")
        fh.write(f"bleu (toy scale): {bleu:.4f}\n")
    print((out / "report.txt").read_text(encoding="utf-8"), end="")
    return 0


def cmd_decode(cfg: RunConfig, checkpoint: str, output: str | None) -> int:
    out, eval_corpus, params, _ = _eval_setup(cfg, checkpoint)
    hyps = decode_corpus(params, eval_corpus, cfg.decode)
    path = Path(output) if output else out / "hypotheses.txt"
    with open(path, "w", encoding="utf-8") as fh:
        for hyp in hyps:
            fh.write(" ".join(eval_corpus.vocab.decode(hyp)) + "\n")
    print(f"wrote {len(hyps)} hypothesis lines to {path}")
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

COMMANDS = {"schedule-dump": cmd_schedule_dump, "train": cmd_train, "gap-curve": cmd_gap_curve,
            "evaluate": cmd_evaluate, "decode": cmd_decode}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sslab",
        description="Scheduled-sampling laboratory for seq2seq transformers",
    )
    sub = parser.add_subparsers(required=True)
    for name, handler in COMMANDS.items():
        p = sub.add_parser(name)
        p.set_defaults(handler=handler)
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
    args = vars(_build_parser().parse_args(argv))
    handler = args.pop("handler")  # what remains after config and overrides is the handler's own options
    try:
        cfg = load_run_config(args.pop("config"), args.pop("overrides"))
        return handler(cfg, **args)
    except (ConfigError, DataError, DivergenceError, OSError, KeyError, ValueError) as err:
        print(f"sslab: error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
