"""The three workloads: sslab CLI commands run in-process and timed from outside.

Each workload repeats one CLI command (same config, same seed) in a closed
loop: the next command starts when the previous one ends. Light probes
patched into ``sslab.cli`` timestamp the boundaries the end-to-end metrics
need (corpora built, checkpoint loaded, first batch built, each training
step, the decode call); they draw from no RNG stream and change no output.

Durations are CPU seconds of this process (``time.process_time``). On a
shared virtual machine the host steals CPU from the guest in bursts: over a
minute of identical work, wall time spread 23% and CPU time 4%. The program
runs on one thread (BLAS is pinned to one), so on an idle machine the two
clocks agree.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import shutil
import sys
import statistics
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from sslab import cli
from sslab.data import EOS_ID

from spans import restore, tail_percentile

BENCH_DIR = Path(__file__).resolve().parent
FIXTURE = BENCH_DIR / "fixture"
CHECKPOINT = FIXTURE / "ckpt.bin"

TRAIN_STEPS = 20  # half teacher forcing (warm start), half two-pass
GREEDY_SOURCES = 128
BEAM_SOURCES = 48
MIN_ACCURACY = 0.9  # the fixed checkpoint scores about 0.9997
CLOCK = time.process_time


@dataclass(frozen=True)
class Workload:
    name: str
    argv: Callable[[int, Path], list[str]]
    outputs: tuple[str, ...]  # files every successful command leaves in out_dir
    decodes: bool


def _common(seed: int, out: Path) -> list[str]:
    return ["--set", f"seed={seed}", "--set", f"out_dir={out}"]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "train",
            lambda seed, out: ["train", *_common(seed, out),
                               "--set", f"train.total_steps={TRAIN_STEPS}",
                               "--set", f"sampler.warm_start_steps={TRAIN_STEPS // 2}"],
            ("config.json", "steps.csv", "ckpt_final.bin", "ckpt_final.bin.json"),
            decodes=False,
        ),
        Workload(
            "gap-greedy",
            lambda seed, out: ["gap-curve", "--checkpoint", str(CHECKPOINT), *_common(seed, out),
                               "--set", f"data.eval_count={GREEDY_SOURCES}",
                               "--set", "decode.beam_size=1"],
            ("config.json", "training_precision.csv", "inference_precision.csv", "gap.csv"),
            decodes=True,
        ),
        Workload(
            "evaluate-beam",
            lambda seed, out: ["evaluate", "--checkpoint", str(CHECKPOINT), *_common(seed, out),
                               "--set", f"data.eval_count={BEAM_SOURCES}"],
            ("config.json", "strict_precision.csv", "fuzzy_precision.csv", "report.json", "report.txt"),
            decodes=True,
        ),
    )
}


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def fixture_problem() -> str | None:
    """None when every file listed in ``fixture/SHA256SUMS`` matches its digest."""
    sums = FIXTURE / "SHA256SUMS"
    if not sums.is_file():
        return f"{sums.name} is missing"
    for line in sums.read_text(encoding="utf-8").splitlines():
        digest, name = line.split()
        path = FIXTURE / name
        if not path.is_file() or sha256(path) != digest:
            return f"fixture {name} does not match its sha256"
    return None


@dataclass
class Command:
    """What one CLI command did, as seen from outside."""

    start: float = 0.0
    end: float = 0.0
    wall_s: float = 0.0
    exit_code: int | None = None
    error: str = ""
    setup_marks: list[float] = field(default_factory=list)
    # train
    batches: list = field(default_factory=list)
    step_ends: list[float] = field(default_factory=list)
    rows: list[dict] = field(default_factory=list)
    # decode: decode_corpus start, each scorer call's start, decode_corpus end
    references: list[list[int]] | None = None
    decode_marks: list[float] = field(default_factory=list)
    hypotheses: list | None = None
    digests: dict[str, str] = field(default_factory=dict)

    @property
    def cpu_s(self) -> float:
        return self.end - self.start

    @property
    def setup_s(self) -> float:
        return max(self.setup_marks) - self.start


def _probes(rec: Command) -> list:
    """Wrap the cli-level calls whose boundaries the end-to-end metrics need."""
    clock = CLOCK
    undo = []

    def patch(attr: str, make: Callable, owner=cli) -> None:
        original = getattr(owner, attr)
        setattr(owner, attr, make(original))
        undo.append((owner, attr, original))

    def build_corpora(fn):
        def probe(*args, **kwargs):
            train_corpus, eval_corpus = fn(*args, **kwargs)
            rec.setup_marks.append(clock())
            rec.references = [tgt for _, tgt in eval_corpus.pairs]
            return train_corpus, eval_corpus
        return probe

    def load_model_checkpoint(fn):
        def probe(*args, **kwargs):
            result = fn(*args, **kwargs)
            rec.setup_marks.append(clock())
            return result
        return probe

    def batch_stream(fn):
        def probe(*args, **kwargs):
            stream = fn(*args, **kwargs)

            def batches():
                for batch in stream:
                    if not rec.batches:
                        # building the first epoch is set-up, not step time
                        rec.setup_marks.append(clock())
                    rec.batches.append(batch)
                    yield batch
            return batches()
        return probe

    def train(fn):
        def probe(*args, on_step=None, **kwargs):
            def timed(row):
                on_step(row)
                rec.step_ends.append(clock())
                rec.rows.append(row)
            return fn(*args, on_step=timed, **kwargs)
        return probe

    def decode_corpus(fn):
        def probe(*args, **kwargs):
            rec.decode_marks.append(clock())
            hyps = fn(*args, **kwargs)
            rec.decode_marks.append(clock())
            rec.hypotheses = hyps
            return hyps
        return probe

    def transformer_scorer(fn):
        def probe(*args, **kwargs):
            step = fn(*args, **kwargs)

            def timed(*a, **k):
                rec.decode_marks.append(clock())
                return step(*a, **k)
            return timed
        return probe

    for attr, make in (("build_corpora", build_corpora), ("load_model_checkpoint", load_model_checkpoint),
                       ("batch_stream", batch_stream), ("train", train), ("decode_corpus", decode_corpus)):
        patch(attr, make)
    # greedy and beam decoding both build their scorer through this module global
    patch("transformer_scorer", transformer_scorer, owner=sys.modules["sslab.decode"])
    return undo


def run_command(workload: Workload, seed: int, out: Path) -> Command:
    """Run the workload's CLI command once in this process and record it."""
    if out.exists():
        shutil.rmtree(out)
    rec = Command()
    undo = _probes(rec)
    sink = io.StringIO()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            wall = time.perf_counter()
            rec.start = CLOCK()
            try:
                rec.exit_code = cli.main(workload.argv(seed, out))
            finally:
                rec.end = CLOCK()
                rec.wall_s = time.perf_counter() - wall
    except Exception:  # a crashing command is a failed operation, not a crashed benchmark
        rec.error = traceback.format_exc(limit=3)
    finally:
        restore(undo)
    if rec.exit_code not in (0, None):
        rec.error = sink.getvalue().strip()
    for name in workload.outputs:
        path = out / name
        if path.is_file():
            rec.digests[name] = sha256(path)
    if rec.hypotheses is not None:
        hyps = json.dumps([[int(t) for t in h] for h in rec.hypotheses]).encode()
        rec.digests["hypotheses"] = hashlib.sha256(hyps).hexdigest()
    return rec


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------


@dataclass
class Checked:
    ok: bool
    attempted: int
    failed: int
    problems: list[str]


def check(workload: Workload, rec: Command, out: Path, vocab_size: int, max_length: int,
          reference_digests: dict[str, str] | None) -> Checked:
    """Apply the output checks to one command.

    Operations are the command itself plus each training step (train) or
    each decoded sentence (decode workloads).
    """
    problems: list[str] = []
    if rec.exit_code != 0:
        problems.append(f"exit {rec.exit_code}: {rec.error[-300:]}")
    missing = [n for n in workload.outputs if not (out / n).is_file()]
    if missing:
        problems.append(f"missing output {missing}")
    if reference_digests is not None and rec.digests != reference_digests:
        problems.append("outputs differ from the first command of this run")
    if workload.decodes:
        ops = len(rec.references) if rec.references is not None else 1
        bad = _bad_sentences(rec, vocab_size, max_length, problems)
        accuracy = token_accuracy(rec)
        if accuracy is not None and accuracy < MIN_ACCURACY:
            problems.append(f"token accuracy {accuracy:.4f} below {MIN_ACCURACY}")
    else:
        ops = TRAIN_STEPS
        finite = [r for r in rec.rows if math.isfinite(r["loss"])]
        bad = ops - len(finite)
        if bad:
            problems.append(f"{bad} of {ops} training steps missing or non-finite")
    command_failed = bool(problems)
    return Checked(not problems, ops + 1, bad + int(command_failed), problems)


def _bad_sentences(rec: Command, vocab_size: int, max_length: int, problems: list[str]) -> int:
    if rec.references is None or rec.hypotheses is None:
        problems.append("no hypotheses were decoded")
        return len(rec.references or [None])
    if len(rec.hypotheses) != len(rec.references):
        problems.append(f"{len(rec.hypotheses)} hypotheses for {len(rec.references)} sources")
        return len(rec.references)
    bad = 0
    for hyp in rec.hypotheses:
        if (len(hyp) > max_length or EOS_ID in hyp
                or any(not 0 <= int(tok) < vocab_size for tok in hyp)):
            bad += 1
    if bad:
        problems.append(f"{bad} malformed hypotheses")
    return bad


def token_accuracy(rec: Command) -> float | None:
    """Micro-averaged positionwise match, computed here rather than by sslab."""
    if not rec.hypotheses or rec.references is None or len(rec.hypotheses) != len(rec.references):
        return None
    hits = total = 0
    for hyp, ref in zip(rec.hypotheses, rec.references):
        total += len(ref)
        hits += sum(1 for t, r in enumerate(ref) if t < len(hyp) and int(hyp[t]) == r)
    return hits / total


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def final_loss(out: Path, last: int = 10) -> float:
    """Mean loss of the last logged steps in ``steps.csv``."""
    lines = (out / "steps.csv").read_text(encoding="utf-8").splitlines()[1:]
    return statistics.fmean(float(line.split(",")[1]) for line in lines[-last:])


def step_times(rec: Command) -> list[float]:
    """CPU seconds of each training step; the first starts once the first batch is built."""
    starts = [max(rec.setup_marks)] + rec.step_ends[:-1]
    return [end - begin for begin, end in zip(starts, rec.step_ends)]


def decode_segments(rec: Command) -> list[float]:
    """CPU seconds of decode_corpus, cut at each scorer call."""
    marks = rec.decode_marks
    return [b - a for a, b in zip(marks, marks[1:])]


def fastest(units: list[list[float]]) -> list[float]:
    """Each unit's fastest time over commands that repeat the same work.

    Every command of a run does identical work (its outputs are checked to
    be byte-identical), so unit k of one command is the same computation as
    unit k of another, and a slow reading is the machine, not the program.
    """
    if len({len(u) for u in units}) != 1:
        raise ValueError(f"commands split into different unit counts {sorted({len(u) for u in units})}")
    return [min(column) for column in zip(*units)]


def train_rates(recs: list[Command]) -> dict[str, float]:
    """Label tokens per CPU second of step time, overall and by step mode."""
    best = fastest([step_times(r) for r in recs])
    rec = recs[0]
    tokens = [int(batch.label_mask().sum()) for batch in rec.batches]
    tf = [row["mode"] == "teacher_forcing" for row in rec.rows]

    def rate(keep) -> float:
        picked = [(n, t) for n, t, m in zip(tokens, best, tf) if keep(m)]
        return sum(n for n, _ in picked) / sum(t for _, t in picked)

    return {
        "tokens_per_s": rate(lambda m: True),
        "tf_tokens_per_s": rate(lambda m: m),
        "two_pass_tokens_per_s": rate(lambda m: not m),
        "sents_per_s": sum(batch.size for batch in rec.batches) / sum(best),
    }


def decode_rates(recs: list[Command]) -> dict[str, float]:
    """Sentences and reference tokens (content plus end token) per CPU second of decoding."""
    seconds = sum(fastest([decode_segments(r) for r in recs]))
    refs = recs[0].references
    return {
        "tokens_per_s": sum(len(ref) + 1 for ref in refs) / seconds,
        "sents_per_s": len(refs) / seconds,
    }


def step_latencies(recs: list[Command]) -> dict[str, float]:
    """Training-step CPU milliseconds pooled over commands: median and tail."""
    steps_ms = [1000.0 * t for rec in recs for t in step_times(rec)]
    figures = {"step_ms_p50": statistics.median(steps_ms), "step_samples": len(steps_ms)}
    tail = tail_percentile(steps_ms)
    if tail is not None:
        figures[f"step_ms_p{tail[0]}"] = tail[1]
    return figures
