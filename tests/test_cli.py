import csv
import hashlib
import json
from dataclasses import asdict
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from batching import batch_of
from sslab import cli
from sslab.cli import load_model_checkpoint, main, save_model_checkpoint
from sslab.data import TaskKind, Vocab, gen_task
from sslab.model import ModelConfig, init_params, teacher_forced_logits
from sslab.rng import named_rng
from sslab.schedules import Family, ScheduleSpec, eval_schedule
from sslab.tensor import load_checkpoint, save_checkpoint


def run_cli(*argv):
    return main(list(argv))


def tiny_train_args(out_dir, extra=()):
    args = [
        "train",
        "--set", f"out_dir={out_dir}",
        "--set", "data.task=copy",
        "--set", "data.vocab_size=12",
        "--set", "data.min_len=2",
        "--set", "data.max_len=5",
        "--set", "data.count=60",
        "--set", "data.eval_count=16",
        "--set", "data.token_budget=128",
        "--set", "model.hidden_size=16",
        "--set", "model.filter_size=32",
        "--set", "model.num_heads=2",
        "--set", "model.num_encoder_layers=1",
        "--set", "model.num_decoder_layers=1",
        "--set", "model.max_positions=16",
        "--set", "decode.max_length=8",
        "--set", "train.total_steps=30",
        "--set", "train.checkpoint_every=20",
        "--set", "train.log_every=10",
        "--set", "optimizer.warmup_steps=50",
        "--set", 'sampler.schedule={"family": "uniform", "uniform_p": 0.8}',
    ]
    args.extend(extra)
    return args


# ---------------------------------------------------------------------------
# schedule-dump
# ---------------------------------------------------------------------------


def test_schedule_dump_tables(tmp_path):
    out = tmp_path / "dump"
    code = run_cli(
        "schedule-dump",
        "--set", f"out_dir={out}",
        "--set", "dump_max_i=3",
        "--set", "dump_max_t=129",
        "--set",
        'schedules={"exp_dec": {"family": "exponential", "k": 0.99},'
        ' "sig": {"family": "sigmoid", "k": 20000},'
        ' "comp": {"method": "composite",'
        '  "f": {"family": "exponential", "k": 0.9},'
        '  "g": {"family": "exponential", "k": 0.9}}}',
    )
    assert code == 0
    with open(out / "values.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["step", "exp_dec", "sig"]
    assert len(rows) == 130
    # the exponential column follows the translation-task radix exactly
    exp_col = [float(r[1]) for r in rows[1:]]
    for t in (0, 1, 64, 128):
        assert exp_col[t] == pytest.approx(0.99**t, abs=1e-12)
    sig_col = [float(r[2]) for r in rows[1:]]
    assert all(a >= b for a, b in zip(sig_col, sig_col[1:]))

    with open(out / "joint_comp.csv") as fh:
        joint_rows = list(csv.reader(fh))
    assert joint_rows[0] == ["i", "t", "value"]
    assert len(joint_rows) == 1 + 3 * 129

    with open(out / "accumulated.csv") as fh:
        acc = list(csv.reader(fh))
    acc_col = [float(r[1]) for r in acc[1:]]
    assert all(b >= a - 1e-12 for a, b in zip(acc_col, acc_col[1:]))


def test_schedule_dump_rejects_bad_spec(tmp_path, capsys):
    code = run_cli(
        "schedule-dump",
        "--set", f"out_dir={tmp_path / 'x'}",
        "--set", 'schedules={"bad": {"family": "exponential", "k": 1.5}}',
    )
    assert code != 0
    assert "error" in capsys.readouterr().err


def test_schedule_dump_needs_specs(tmp_path, capsys):
    code = run_cli("schedule-dump", "--set", f"out_dir={tmp_path / 'y'}")
    assert code != 0


@pytest.mark.parametrize("schedules", [5, {"a": 5}], ids=["not-mapping", "entry-not-mapping"])
def test_schedule_dump_malformed_schedules_fail_without_traceback(tmp_path, capsys, schedules):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"schedules": schedules}))
    code = run_cli("schedule-dump", "--config", str(path), "--set", f"out_dir={tmp_path / 'out'}")
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("sslab: error:") and "schedules" in err


# ---------------------------------------------------------------------------
# config handling
# ---------------------------------------------------------------------------


def test_unknown_config_key_fails(tmp_path, capsys):
    code = run_cli("train", "--set", f"out_dir={tmp_path}", "--set", "nope.key=1")
    assert code != 0
    assert "unknown config" in capsys.readouterr().err


@pytest.mark.parametrize(
    "doc",
    [
        {"to_dict": 1},
        {"data": {"bogus": 1}},
        {"model": {"hidden": 1}},
        {"model": {"hidden_size": 32}},
        {"train": 5},
        [1],
    ],
    ids=["method-name", "data-field", "model-field", "model-missing-vocab", "section-not-mapping", "not-mapping"],
)
def test_malformed_config_fails_without_traceback(tmp_path, capsys, doc):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    code = run_cli("schedule-dump", "--config", str(path), "--set", f"out_dir={tmp_path / 'out'}")
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("sslab: error:")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "override, error",
    [
        ("sampler.schedule=5", "config section 'sampler.schedule' must be a mapping"),
        ('sampler.schedule={"family": "empirical", "empirical_table": 5}',
         "config key 'sampler.schedule.empirical_table' must be a list of numbers"),
        ('sampler.joint={"method": "product", "f": 5, "g": 5}',
         "config section 'sampler.joint.f' must be a mapping"),
        ('sampler.schedule={"k": 0.5}', "config key 'sampler.schedule.family' is required"),
        ('sampler.schedule={"family": "exponential", "k": "0.5"}',
         "config key 'sampler.schedule.k' must be float"),
        ('sampler.schedule={"family": "exponential", "k": 0.5, "bogus": 1}',
         "unknown config key 'sampler.schedule.bogus'"),
        ("sampler.schedule.direction=increase", None),
    ],
    ids=["not-mapping", "table-not-list", "joint-f-not-mapping", "family-missing", "k-string",
         "unknown-key", "direction-override"],
)
def test_sampler_section_is_read_by_type(tmp_path, capsys, override, error):
    out = tmp_path / "run"
    code = run_cli(*tiny_train_args(out, extra=["--set", "train.total_steps=1", "--set", override]))
    err = capsys.readouterr().err
    if error is None:
        assert code == 0
        schedule = json.loads((out / "config.json").read_text())["sampler"]["schedule"]
        assert schedule["direction"] == "increase" and schedule["family"] == "uniform"
    else:
        assert code == 1
        assert err.startswith("sslab: error:") and error in err


@pytest.mark.parametrize(
    "override",
    [
        "train.log_every=0", "train.checkpoint_every=0", "model.num_heads=0", "optimizer.warmup_steps=0",
        "train.total_steps=-3", "model.hidden_size=0", "model.filter_size=0", "model.max_positions=0",
        "model.num_encoder_layers=-1", "model.num_decoder_layers=-1", "model.dropout=1.5",
        "model.label_smoothing=2.0", "optimizer.beta1=1.0", "optimizer.beta2=-0.1", "optimizer.eps=0",
        "gap_window=2", "data.token_budget=0", "data.min_len=0", "data.task=foo", "seed=-1",
    ],
)
def test_zero_step_count_fails_without_traceback(tmp_path, capsys, override):
    code = run_cli(*tiny_train_args(tmp_path / "run", extra=["--set", override]))
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("sslab: error:") and override.split("=")[0].split(".")[-1] in err
    assert not (tmp_path / "run" / "config.json").exists()


@pytest.mark.parametrize(
    "command, override, key",
    [
        ("schedule-dump", 'schedules={"s": {"family": "sigmoid", "k": Infinity}}', "schedules.s.k"),
        ("schedule-dump", 'schedules={"s": {"family": "empirical", "empirical_table": [0.1, NaN]}}',
         "schedules.s.empirical_table"),
        ("train", "decode.length_penalty=NaN", "decode.length_penalty"),
        ("train", "model.dropout=-Infinity", "model.dropout"),
        ("train", 'sampler.schedule={"family": "exponential", "k": NaN}', "sampler.schedule.k"),
        ("train", "optimizer.lr_factor=-1", "lr_factor"),
        ("train", "optimizer.lr_factor=0", "lr_factor"),
        ("train", "optimizer.lr_factor=1" + "0" * 400, "optimizer.lr_factor"),
    ],
    ids=["schedule-k-inf", "table-nan", "length-penalty-nan", "dropout-minus-inf", "sampler-k-nan",
         "lr-factor-negative", "lr-factor-zero", "int-beyond-float-range"],
)
def test_non_finite_or_non_positive_floats_fail_before_any_output(tmp_path, capsys, command, override, key):
    out = tmp_path / "run"
    argv = tiny_train_args(out) if command == "train" else ["schedule-dump", "--set", f"out_dir={out}"]
    code = run_cli(*argv, "--set", override)
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("sslab: error:") and len(err.splitlines()) == 1 and key in err
    assert not list(tmp_path.rglob("*.csv"))


@pytest.mark.parametrize("value", [0, -5])
@pytest.mark.parametrize(
    "command, key", [("train", "count"), ("train", "eval_count"), ("evaluate", "count"), ("evaluate", "eval_count")]
)
def test_corpus_count_below_one_fails_before_any_output(tmp_path, capsys, command, key, value):
    out = tmp_path / "run"
    if command == "train":
        argv = tiny_train_args(out)
    else:
        argv = ["evaluate", "--checkpoint", str(FIXTURE_CHECKPOINT), "--set", f"out_dir={out}"]
    code = run_cli(*argv, "--set", f"data.{key}={value}")
    err = capsys.readouterr().err
    assert code == 1
    assert err == f"sslab: error: config section 'data': {key} must be >= 1, got {value}\n"
    assert not list(tmp_path.rglob("*"))


@pytest.mark.parametrize("command", ["evaluate", "decode"])
def test_negative_length_penalty_fails_before_any_output(tmp_path, capsys, command):
    code = run_cli(command, "--checkpoint", str(FIXTURE_CHECKPOINT), "--set", f"out_dir={tmp_path / 'run'}",
                   "--set", "decode.length_penalty=-1")
    err = capsys.readouterr().err
    assert code == 1
    assert err == "sslab: error: config section 'decode': length_penalty must be >= 0, got -1.0\n"
    assert not list(tmp_path.rglob("*"))


def test_outputs_land_in_out_dir_whatever_the_environment(tmp_path, monkeypatch):
    env_dir = tmp_path / "env_out"
    monkeypatch.setenv("SSLAB_OUT_DIR", str(env_dir))
    out = tmp_path / "run"
    code = run_cli(
        "schedule-dump",
        "--set", f"out_dir={out}",
        "--set", "dump_max_t=4",
        "--set", 'schedules={"u": {"family": "uniform", "uniform_p": 0.5}}',
    )
    assert code == 0
    assert (out / "values.csv").exists()
    assert not env_dir.exists()


TINY_DUMP = ("schedule-dump", "--set", "dump_max_i=1", "--set", "dump_max_t=1",
             "--set", 'schedules={"exp": {"family": "exponential", "k": 0.9}}')


def test_main_raises_both_malloc_thresholds(tmp_path, monkeypatch):
    calls = []
    monkeypatch.setattr(cli.ctypes, "CDLL", lambda name: SimpleNamespace(mallopt=lambda *args: calls.append(args)))
    assert run_cli(*TINY_DUMP, "--set", f"out_dir={tmp_path}") == 0
    assert sorted(calls) == [(-3, 256 << 20), (-1, 256 << 20)]  # M_MMAP_THRESHOLD, M_TRIM_THRESHOLD


def test_main_runs_where_the_c_library_has_no_mallopt(tmp_path, monkeypatch):
    monkeypatch.setattr(cli.ctypes, "CDLL", lambda name: SimpleNamespace())
    assert run_cli(*TINY_DUMP, "--set", f"out_dir={tmp_path}") == 0
    assert (tmp_path / "values.csv").exists()


# ---------------------------------------------------------------------------
# train / resume / reproducibility
# ---------------------------------------------------------------------------


def test_train_writes_checkpoints_log_and_config_echo(tmp_path):
    out = tmp_path / "run"
    assert run_cli(*tiny_train_args(out)) == 0
    assert (out / "ckpt_final.bin").exists()
    assert (out / "ckpt_step000020.bin").exists()
    assert (out / "config.json").exists()
    with open(out / "steps.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 30
    assert rows[0]["step"] == "0" and rows[-1]["step"] == "29"
    assert all(float(r["loss"]) > 0 for r in rows)
    sidecar = json.loads((out / "ckpt_final.bin.json").read_text())
    assert "step" not in sidecar  # meta/step alone carries it
    assert sidecar["model"]["vocab_size"] == 12
    echo = json.loads((out / "config.json").read_text())
    for model in (sidecar["model"], echo["model"]):  # the weights are always tied, so neither names it
        assert not {"share_embeddings", "share_softmax_weights"} & set(model)
    assert load_model_checkpoint(str(out / "ckpt_final.bin"))[1] == 30


def test_train_resume_continues_step_numbering(tmp_path):
    out = tmp_path / "resume"
    assert run_cli(*tiny_train_args(out)) == 0
    assert (
        run_cli(
            *tiny_train_args(
                out,
                extra=[
                    "--set", f"train.resume_from={out / 'ckpt_final.bin'}",
                    "--set", "train.total_steps=5",
                ],
            )
        )
        == 0
    )
    with open(out / "steps.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert [int(r["step"]) for r in rows] == list(range(35))
    assert load_model_checkpoint(str(out / "ckpt_final.bin"))[1] == 35


@pytest.mark.parametrize("override", ["model.hidden_size=32", "model.dropout=0.3"])
def test_resume_with_another_model_section_fails(tmp_path, capsys, override):
    first = tmp_path / "first"
    assert run_cli(*tiny_train_args(first, extra=["--set", "train.total_steps=2"])) == 0
    second = tmp_path / "second"
    code = run_cli(
        *tiny_train_args(
            second,
            extra=[
                "--set", f"train.resume_from={first / 'ckpt_final.bin'}",
                "--set", "train.total_steps=2",
                "--set", override,
            ],
        )
    )
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("sslab: error:") and override.split("=")[0] in err
    assert not (second / "ckpt_final.bin").exists()


def test_two_identical_runs_are_bit_identical(tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert run_cli(*tiny_train_args(out_a)) == 0
    assert run_cli(*tiny_train_args(out_b)) == 0
    assert (out_a / "ckpt_final.bin").read_bytes() == (out_b / "ckpt_final.bin").read_bytes()
    assert (out_a / "steps.csv").read_text() == (out_b / "steps.csv").read_text()


def test_config_echo_round_trips(tmp_path):
    out_a = tmp_path / "orig"
    assert run_cli(*tiny_train_args(out_a)) == 0
    out_b = tmp_path / "echoed"
    code = run_cli(
        "train", "--config", str(out_a / "config.json"), "--set", f"out_dir={out_b}"
    )
    assert code == 0
    assert (out_a / "ckpt_final.bin").read_bytes() == (out_b / "ckpt_final.bin").read_bytes()


def test_tsv_task_runs_through_every_command(tmp_path, capsys):
    rng = np.random.default_rng(0)
    words = [f"w{i}" for i in range(8)]
    lines = []
    for _ in range(60):
        src = list(rng.choice(words, size=int(rng.integers(2, 6))))
        lines.append(" ".join(src) + "\t" + " ".join(reversed(src)))
    tsv = tmp_path / "pairs.tsv"
    tsv.write_text("\n".join(lines) + "\n")
    first = tmp_path / "first"
    extra = ["--set", "data.task=tsv", "--set", f"data.tsv_path={tsv}", "--set", "data.eval_fraction=0.1",
             "--set", "train.total_steps=2"]
    assert run_cli(*tiny_train_args(first, extra=extra)) == 0
    config = str(first / "config.json")
    again = tmp_path / "again"
    assert run_cli("train", "--config", config, "--set", f"out_dir={again}") == 0
    for name in ("ckpt_final.bin", "steps.csv"):
        assert (first / name).read_bytes() == (again / name).read_bytes()
    checkpoint = str(first / "ckpt_final.bin")
    outputs = {"evaluate": "report.json", "gap-curve": "gap.csv", "decode": "hypotheses.txt"}
    capsys.readouterr()
    for command, output in outputs.items():
        out = tmp_path / command
        assert run_cli(command, "--config", config, "--set", f"out_dir={out}", "--checkpoint", checkpoint) == 0
        assert (out / output).is_file()
        err = capsys.readouterr().err
        if command == "evaluate":  # two steps do not learn to emit tokens, and BLEU warns through the CLI
            assert err == "sslab: warning: empty hypothesis corpus scores 0\n"
    assert len((tmp_path / "decode" / "hypotheses.txt").read_text().splitlines()) == 6  # 10% of 60 pairs


def write_tsv_with_a_wide_pair(path: Path, words: int) -> Path:
    """30 pairs over five words; the first has a ``words``-word source, the rest are two words wide."""
    lines = [" ".join(["w0"] * words) + "\tw1"] + [f"w{i % 5} w1\tw1 w{i % 5}" for i in range(29)]
    path.write_text("\n".join(lines) + "\n")
    return path


@pytest.mark.parametrize(
    "words, budget, key",
    [(300, 1024, "model.max_positions"), (40, 30, "data.token_budget")],
    ids=["model.max_positions", "data.token_budget"],
)
def test_tsv_pair_wider_than_the_run_allows_fails_before_training(tmp_path, capsys, words, budget, key):
    tsv = write_tsv_with_a_wide_pair(tmp_path / "pairs.tsv", words)
    out = tmp_path / "run"
    extra = ["--set", "data.task=tsv", "--set", f"data.tsv_path={tsv}", "--set", "data.eval_fraction=0.1",
             "--set", "train.total_steps=3", "--set", "model.max_positions=256", "--set", f"data.token_budget={budget}"]
    code = run_cli(*tiny_train_args(out, extra=extra))
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("sslab: error:") and key in err and str(words) in err
    assert len(err.splitlines()) == 1
    assert not (out / "steps.csv").exists()


def test_default_training_corpus_holds_one_byte_per_token():
    train_corpus, eval_corpus = cli.build_corpora(cli.RunConfig())
    for corpus in (train_corpus, eval_corpus):
        assert corpus.sources.nbytes == corpus.source_lengths.sum() == len(corpus.sources)
        assert corpus.targets.nbytes == corpus.target_lengths.sum() == len(corpus.targets)
    assert len(train_corpus) == cli.DataConfig().count


def test_tsv_that_leaves_no_training_pair_fails_before_any_output(tmp_path, capsys):
    one = tmp_path / "one.tsv"
    one.write_text("a b\tc d\n")  # the split always holds out at least one pair
    out = tmp_path / "run"
    code = run_cli(*tiny_train_args(out, extra=["--set", "data.task=tsv", "--set", f"data.tsv_path={one}"]))
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith(f"sslab: error: data.tsv_path {one} holds 1 pair(s)") and "data.eval_fraction" in err
    assert len(err.splitlines()) == 1
    assert not (out / "config.json").exists() and not (out / "steps.csv").exists()
    # evaluate builds no training corpus, so the one pair is its eval set as before
    two = tmp_path / "two.tsv"
    two.write_text("a b\tc d\nc d\ta b\n")  # the same vocabulary, with one pair left for training
    extra = ["--set", "data.task=tsv", "--set", f"data.tsv_path={two}", "--set", "train.total_steps=2"]
    assert run_cli(*tiny_train_args(out, extra=extra)) == 0
    code = run_cli("evaluate", "--config", str(out / "config.json"), "--set", f"data.tsv_path={one}",
                   "--set", f"out_dir={tmp_path / 'eval'}", "--checkpoint", str(out / "ckpt_final.bin"))
    assert code == 0
    assert json.loads((tmp_path / "eval" / "report.json").read_text())["pairs"] == 1


# ---------------------------------------------------------------------------
# gap-curve / evaluate / decode
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def trained_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli_trained")
    args = tiny_train_args(out, extra=["--set", "train.total_steps=400"])
    assert main(list(args)) == 0
    return out


def test_gap_curve_outputs(trained_run, tmp_path):
    out = tmp_path / "gap"
    code = run_cli(
        "gap-curve",
        "--config", str(trained_run / "config.json"),
        "--set", f"out_dir={out}",
        "--checkpoint", str(trained_run / "ckpt_final.bin"),
    )
    assert code == 0
    for name in ("training_precision.csv", "inference_precision.csv", "gap.csv"):
        with open(out / name) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["step", "value", "count"]
        assert len(rows) > 1
    train_rows = list(csv.DictReader(open(out / "training_precision.csv")))
    infer_rows = list(csv.DictReader(open(out / "inference_precision.csv")))
    gap_rows = list(csv.DictReader(open(out / "gap.csv")))
    at = {r["step"]: float(r["value"]) for r in infer_rows}
    for tr, gr in zip(train_rows, gap_rows):
        assert float(gr["value"]) == pytest.approx(float(tr["value"]) - at[tr["step"]])
    # the empirical schedule is one minus the inference curve, and trains as it is
    schedule_text = (out / "empirical_schedule.json").read_text()
    spec = cli.read_config(ScheduleSpec, json.loads(schedule_text))
    assert spec.family is Family.EMPIRICAL
    for row in infer_rows:
        assert abs(eval_schedule(spec, int(row["step"])) - float(row["value"])) <= 1e-12
    run = tmp_path / "train"
    extra = ["--set", "train.total_steps=1", "--set", f"sampler.schedule={schedule_text}"]
    assert run_cli(*tiny_train_args(run, extra=extra)) == 0
    assert json.loads((run / "config.json").read_text())["sampler"]["schedule"] == json.loads(schedule_text)


def test_evaluate_memorized_model(trained_run, tmp_path):
    out = tmp_path / "eval"
    code = run_cli(
        "evaluate",
        "--config", str(trained_run / "config.json"),
        "--set", f"out_dir={out}",
        "--checkpoint", str(trained_run / "ckpt_final.bin"),
    )
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["token_accuracy"] > 0.9
    assert report["bleu_lite"] > 0.8
    assert (out / "strict_precision.csv").exists()
    assert (out / "fuzzy_precision.csv").exists()
    assert (out / "report.txt").exists()


def test_evaluate_deterministic(trained_run, tmp_path):
    outs = []
    for sub in ("e1", "e2"):
        out = tmp_path / sub
        assert (
            run_cli(
                "evaluate",
                "--config", str(trained_run / "config.json"),
                "--set", f"out_dir={out}",
                "--checkpoint", str(trained_run / "ckpt_final.bin"),
            )
            == 0
        )
        outs.append((out / "report.json").read_text())
    assert outs[0] == outs[1]


def test_teacher_forced_predictions_come_back_in_corpus_order(trained_copy_model):
    params, config = trained_copy_model
    corpus = gen_task(TaskKind.COPY, config.vocab_size, 1, 6, 70, seed=96)  # two batches of at most 64 rows
    lengths = [len(src) for src, _ in corpus.pairs]
    assert lengths != sorted(lengths)
    want = [
        teacher_forced_logits(params, batch_of([pair])).argmax(axis=-1)[0, : len(pair[1])].tolist()
        for pair in corpus.pairs
    ]
    assert cli._teacher_forced_predictions(params, corpus) == want


def test_evaluate_reports_name_the_checkpoint_by_digest_and_step(tmp_path):
    fixture = Path(__file__).resolve().parents[1] / "perfbench" / "fixture" / "ckpt.bin"
    reports = []
    for place in ("here", "there/deeper"):
        ckpt = tmp_path / place / "ckpt.bin"
        ckpt.parent.mkdir(parents=True)
        for suffix in ("", ".json"):
            Path(f"{ckpt}{suffix}").write_bytes(Path(f"{fixture}{suffix}").read_bytes())
        out = tmp_path / place / "eval"
        assert run_cli("evaluate", "--checkpoint", str(ckpt), "--set", f"out_dir={out}",
                       "--set", "data.eval_count=4") == 0
        reports.append({name: (out / name).read_bytes() for name in ("report.json", "report.txt")})
    assert reports[0] == reports[1]
    report = json.loads(reports[0]["report.json"])
    assert report["checkpoint_sha256"] == hashlib.sha256(fixture.read_bytes()).hexdigest()
    assert report["checkpoint_step"] == 1500
    assert str(tmp_path) not in reports[0]["report.txt"].decode()


@pytest.fixture(scope="module")
def wide_eval_pair_run(tmp_path_factory):
    """A 2-step TSV checkpoint with ``model.max_positions=30`` whose 40-word pair fell in the eval split."""
    root = tmp_path_factory.mktemp("cli_wide_eval_pair")
    tsv = write_tsv_with_a_wide_pair(root / "pairs.tsv", 40)
    extra = ["--set", "data.task=tsv", "--set", f"data.tsv_path={tsv}", "--set", "data.eval_fraction=0.5",
             "--set", "seed=3", "--set", "model.max_positions=30", "--set", "train.total_steps=2"]
    assert main(tiny_train_args(root / "train", extra=extra)) == 0
    return root / "train"


EVAL_OUTPUTS = {
    "evaluate": ("report.json", "report.txt", "strict_precision.csv", "fuzzy_precision.csv"),
    "gap-curve": ("training_precision.csv", "inference_precision.csv", "gap.csv", "empirical_schedule.json"),
    "decode": ("hypotheses.txt",),
}


@pytest.mark.parametrize("command", list(EVAL_OUTPUTS))
@pytest.mark.parametrize("case", ["wide eval pair", "long decode"])
def test_eval_commands_check_the_run_against_the_checkpoint_model(
    trained_run, wide_eval_pair_run, tmp_path, capsys, command, case
):
    if case == "wide eval pair":  # decode.max_length 8 fits the checkpoint's 30 positions
        run, override, key = wide_eval_pair_run, "decode.max_length=8", "model.max_positions"
    else:  # the checkpoint has 16 positions
        run, override, key = trained_run, "decode.max_length=17", "decode.max_length"
    out = tmp_path / "out"
    code = run_cli(command, "--config", str(run / "config.json"), "--set", f"out_dir={out}",
                   "--set", override, "--checkpoint", str(run / "ckpt_final.bin"))
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("sslab: error:") and key in err
    assert len(err.splitlines()) == 1
    assert not [name for name in EVAL_OUTPUTS[command] if (out / name).exists()]


def test_decode_writes_one_line_per_pair(trained_run, tmp_path):
    out = tmp_path / "dec"
    code = run_cli(
        "decode",
        "--config", str(trained_run / "config.json"),
        "--set", f"out_dir={out}",
        "--checkpoint", str(trained_run / "ckpt_final.bin"),
    )
    assert code == 0
    lines = (out / "hypotheses.txt").read_text().strip().splitlines()
    assert len(lines) == 16  # eval_count
    for line in lines:
        assert all(tok.isdigit() for tok in line.split())


@pytest.mark.parametrize("command", ["evaluate", "gap-curve", "decode"])
def test_eval_commands_generate_only_the_eval_corpus(trained_run, tmp_path, monkeypatch, command):
    counts = []

    def spy(*args, **kwargs):
        counts.append(args[4])  # count, the fifth positional argument
        return gen_task(*args, **kwargs)

    monkeypatch.setattr(cli, "gen_task", spy)
    code = run_cli(
        command,
        "--config", str(trained_run / "config.json"),
        "--set", f"out_dir={tmp_path / 'x'}",
        "--checkpoint", str(trained_run / "ckpt_final.bin"),
    )
    assert code == 0
    assert counts == [16]  # data.eval_count; data.count is 60


@pytest.mark.parametrize("command", ["evaluate", "gap-curve", "decode"])
@pytest.mark.parametrize("vocab_size", [40, 10])
def test_checkpoint_vocabulary_must_match_the_data(trained_run, tmp_path, capsys, command, vocab_size):
    code = run_cli(
        command,
        "--config", str(trained_run / "config.json"),
        "--set", f"out_dir={tmp_path / 'x'}",
        "--set", f"data.vocab_size={vocab_size}",
        "--checkpoint", str(trained_run / "ckpt_final.bin"),
    )
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("sslab: error: checkpoint vocabulary") and "Traceback" not in err


def test_missing_checkpoint_fails(trained_run, tmp_path, capsys):
    code = run_cli(
        "evaluate",
        "--config", str(trained_run / "config.json"),
        "--set", f"out_dir={tmp_path / 'x'}",
        "--checkpoint", str(tmp_path / "missing.bin"),
    )
    assert code != 0
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "damage", [lambda raw: raw[:30], lambda raw: raw + b"junk"], ids=["truncated", "trailing"]
)
def test_damaged_checkpoint_fails_without_traceback(trained_run, tmp_path, capsys, damage):
    ckpt = tmp_path / "damaged.bin"
    ckpt.write_bytes(damage((trained_run / "ckpt_final.bin").read_bytes()))
    Path(str(ckpt) + ".json").write_bytes((trained_run / "ckpt_final.bin.json").read_bytes())
    code = run_cli(
        "evaluate",
        "--config", str(trained_run / "config.json"),
        "--set", f"out_dir={tmp_path / 'x'}",
        "--checkpoint", str(ckpt),
    )
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("sslab: error:") and "Traceback" not in err


@pytest.mark.parametrize(
    "command, damage",
    [
        ("evaluate", lambda s: {**s, "model": {**s["model"], "hidden": 1}}),
        ("evaluate", lambda s: {**s, "model": 5}),
        ("evaluate", lambda s: {**s, "model": {**s["model"], "dropout": 1.5}}),
        ("evaluate", lambda s: {**s, "vocab_tokens": 5}),
        ("evaluate", lambda s: {k: v for k, v in s.items() if k != "vocab_tokens"}),
        ("evaluate", lambda s: {**s, "vocab_tokens": s["vocab_tokens"][:-1]}),
        ("decode", lambda s: {**s, "vocab_tokens": s["vocab_tokens"][:-1]}),
        ("decode", lambda s: {**s, "vocab_tokens": list(range(len(s["vocab_tokens"])))}),
    ],
    ids=[
        "unknown-key", "not-mapping", "dropout-out-of-range", "vocab-not-list", "vocab-missing", "vocab-short",
        "decode-vocab-short", "decode-vocab-not-strings",
    ],
)
def test_malformed_sidecar_fails_without_traceback(trained_run, tmp_path, capsys, command, damage):
    ckpt = tmp_path / "ckpt.bin"
    ckpt.write_bytes((trained_run / "ckpt_final.bin").read_bytes())
    sidecar = json.loads((trained_run / "ckpt_final.bin.json").read_text())
    Path(str(ckpt) + ".json").write_text(json.dumps(damage(sidecar)))
    code = run_cli(
        command,
        "--config", str(trained_run / "config.json"),
        "--set", f"out_dir={tmp_path / 'x'}",
        "--checkpoint", str(ckpt),
    )
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("sslab: error: checkpoint sidecar") and "Traceback" not in err


FIXTURE_CHECKPOINT = Path(__file__).resolve().parents[1] / "perfbench" / "fixture" / "ckpt.bin"


def copy_fixture(directory: Path, edit_sidecar=None) -> Path:
    """The fixture checkpoint and its sidecar, the sidecar's bytes passed through ``edit_sidecar``, in ``directory``."""
    ckpt = directory / "ckpt.bin"
    ckpt.write_bytes(FIXTURE_CHECKPOINT.read_bytes())
    sidecar = Path(f"{FIXTURE_CHECKPOINT}.json").read_bytes()
    Path(f"{ckpt}.json").write_bytes(sidecar if edit_sidecar is None else edit_sidecar(sidecar))
    return ckpt


@pytest.mark.parametrize("content", [b"a b\tc d\n", b"\xff\xfe{}"], ids=["tsv", "not-utf-8"])
def test_config_file_that_is_not_json_fails_naming_it(tmp_path, capsys, content):
    path = tmp_path / "pairs.tsv"
    path.write_bytes(content)
    code = run_cli("train", "--config", str(path), "--set", f"out_dir={tmp_path / 'run'}")
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith(f"sslab: error: config file {path}: ") and len(err.splitlines()) == 1
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("damage", [lambda s: s[: len(s) // 2], lambda s: b"\xff" + s], ids=["truncated", "not-utf-8"])
def test_sidecar_that_is_not_json_fails_naming_it(tmp_path, capsys, damage):
    ckpt = copy_fixture(tmp_path, damage)
    code = run_cli("evaluate", "--checkpoint", str(ckpt), "--set", f"out_dir={tmp_path / 'x'}")
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith(f"sslab: error: checkpoint sidecar {ckpt}.json: ") and len(err.splitlines()) == 1
    assert "Traceback" not in err


def test_legacy_sidecar_naming_tied_weights_loads(tmp_path):
    model = json.loads(Path(f"{FIXTURE_CHECKPOINT}.json").read_text())["model"]
    assert model["share_embeddings"] is model["share_softmax_weights"] is True  # written before their removal
    params, step, _ = load_model_checkpoint(str(copy_fixture(tmp_path)))
    assert step == 1500 and "embed" in params.params


@pytest.mark.parametrize("key", ["share_embeddings", "share_softmax_weights"])
@pytest.mark.parametrize("value", [False, None, "true", 1])
def test_legacy_sidecar_naming_untied_weights_fails_naming_the_key(tmp_path, capsys, key, value):
    def untie(sidecar):
        doc = json.loads(sidecar)
        return json.dumps({**doc, "model": {**doc["model"], key: value}}).encode()

    ckpt = copy_fixture(tmp_path, untie)
    code = run_cli("evaluate", "--checkpoint", str(ckpt), "--set", f"out_dir={tmp_path / 'x'}")
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith(f"sslab: error: checkpoint sidecar {ckpt}.json: model.{key} is {value!r}")
    assert len(err.splitlines()) == 1
    assert not (tmp_path / "x" / "report.json").exists()


@pytest.mark.parametrize("command", ["evaluate", "gap-curve", "decode"])
def test_rejected_checkpoint_leaves_no_config_echo(tmp_path, capsys, command):
    def untie(sidecar):
        doc = json.loads(sidecar)
        return json.dumps({**doc, "model": {**doc["model"], "share_embeddings": False}}).encode()

    ckpt = copy_fixture(tmp_path, untie)
    code = run_cli(command, "--checkpoint", str(ckpt), "--set", f"out_dir={tmp_path / 'x'}")
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("sslab: error: ") and len(err.splitlines()) == 1
    assert not (tmp_path / "x" / "config.json").exists()


@pytest.mark.parametrize(
    "override",
    [
        "decode.beam_size=abc",
        "decode.beam_size=[1]",
        "decode.beam_size=2.5",
        "decode.beam_size=true",
        "decode.length_penalty=abc",
        "decode.eos_id=999",
        "decode.eos_id=-1",
        # removed settings: untied weights, argmax predictions, backprop through predictions, composite_alt
        "model.share_embeddings=false",
        "sampler.prediction=argmax_embedding",
        "sampler.backprop_through_predictions=true",
        'sampler.joint={"method": "composite_alt", "f": {"family": "uniform", "uniform_p": 0.5},'
        ' "g": {"family": "uniform", "uniform_p": 0.5}}',
    ],
)
def test_wrongly_typed_config_value_fails_without_traceback(tmp_path, capsys, override):
    code = run_cli(
        "evaluate", "--checkpoint", str(FIXTURE_CHECKPOINT),
        "--set", f"out_dir={tmp_path}", "--set", override,
    )
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("sslab: error:") and "Traceback" not in err
    assert len(err.splitlines()) == 1
    assert override.split("=")[0].split(".")[-1] in err


def _drop(name):
    return lambda entries: entries.pop(name)


@pytest.mark.parametrize(
    "edit, named",
    [
        (_drop("meta/step"), "meta/step"),
        (lambda entries: entries.update({"meta/step": np.arange(2)}), "meta/step"),
        (lambda entries: entries.update({"meta/step": np.asarray(1.5)}), "meta/step"),
        (lambda entries: entries.update({"meta/step": np.asarray(-1)}), "meta/step"),
        (_drop("enc0/ffn/b1"), "enc0/ffn/b1"),
    ],
    ids=["step-missing", "step-not-scalar", "step-not-integer", "step-negative", "parameter-missing"],
)
def test_malformed_checkpoint_entries_fail_without_traceback(tmp_path, capsys, edit, named):
    entries = load_checkpoint(FIXTURE_CHECKPOINT)
    edit(entries)
    ckpt = tmp_path / "ckpt.bin"
    save_checkpoint(ckpt, entries)
    Path(str(ckpt) + ".json").write_bytes(Path(str(FIXTURE_CHECKPOINT) + ".json").read_bytes())
    code = run_cli("evaluate", "--checkpoint", str(ckpt), "--set", f"out_dir={tmp_path / 'x'}")
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("sslab: error:") and len(err.splitlines()) == 1 and "Traceback" not in err
    if named == "meta/step":
        assert f"{ckpt}: meta/step" in err
    else:  # the file, then the message itself, not a KeyError's quoted repr of it
        assert err.startswith(f"sslab: error: {ckpt}: checkpoint is missing parameters: ['{named}']")


@pytest.mark.parametrize("step", [7, "1500", 1500.0, None], ids=["other", "string", "float", "null"])
def test_sidecar_step_must_agree_with_meta_step(tmp_path, capsys, step):
    ckpt = tmp_path / "ckpt.bin"
    ckpt.write_bytes(FIXTURE_CHECKPOINT.read_bytes())
    sidecar = json.loads(Path(str(FIXTURE_CHECKPOINT) + ".json").read_text())
    Path(str(ckpt) + ".json").write_text(json.dumps({**sidecar, "step": step}))
    code = run_cli("evaluate", "--checkpoint", str(ckpt), "--set", f"out_dir={tmp_path / 'x'}")
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith(f"sslab: error: {ckpt}: meta/step is 1500 but the sidecar {ckpt}.json says step {step!r}")
    assert len(err.splitlines()) == 1
    assert not (tmp_path / "x" / "report.json").exists()


def test_sidecar_without_step_loads(tmp_path):
    ckpt = tmp_path / "ckpt.bin"
    ckpt.write_bytes(FIXTURE_CHECKPOINT.read_bytes())
    sidecar = json.loads(Path(str(FIXTURE_CHECKPOINT) + ".json").read_text())
    assert sidecar["step"] == 1500  # the fixture's sidecar agrees with its meta/step
    Path(str(ckpt) + ".json").write_text(json.dumps({k: v for k, v in sidecar.items() if k != "step"}))
    _, step, _ = load_model_checkpoint(str(ckpt))
    assert step == load_model_checkpoint(str(FIXTURE_CHECKPOINT))[1] == 1500


def test_gap_curve_checks_the_decode_section_before_any_model_pass(tmp_path, capsys, monkeypatch):
    passes = []
    monkeypatch.setattr(cli, "_teacher_forced_predictions", lambda *args: passes.append(args))
    code = run_cli("gap-curve", "--checkpoint", str(FIXTURE_CHECKPOINT), "--set", f"out_dir={tmp_path}",
                   "--set", "decode.eos_id=999")
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("sslab: error: decode.eos_id 999") and len(err.splitlines()) == 1
    assert passes == []


def test_checkpoint_with_layers_its_sidecar_lacks_fails_without_traceback(tmp_path, capsys):
    fixture_params, _, vocab = load_model_checkpoint(str(FIXTURE_CHECKPOINT))
    layers = fixture_params.config.num_decoder_layers
    deeper = ModelConfig(**{**asdict(fixture_params.config), "num_decoder_layers": layers + 1})
    ckpt = tmp_path / "deeper.bin"
    save_model_checkpoint(ckpt, init_params(deeper, named_rng(0, "init")), 1500, vocab)
    # the sidecar names the fixture's shallower model, at the fixture's step
    Path(str(ckpt) + ".json").write_bytes(Path(str(FIXTURE_CHECKPOINT) + ".json").read_bytes())
    code = run_cli("evaluate", "--checkpoint", str(ckpt), "--set", f"out_dir={tmp_path / 'x'}")
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("sslab: error:") and "Traceback" not in err
    assert f"dec{layers}/" in err


def test_failed_sidecar_write_keeps_the_previous_sidecar(tmp_path, monkeypatch):
    cfg = ModelConfig(vocab_size=8, hidden_size=8, filter_size=8, num_heads=2,
                      num_encoder_layers=1, num_decoder_layers=1)
    params = init_params(cfg, named_rng(0, "init"))
    path = tmp_path / "ckpt.bin"
    save_model_checkpoint(path, params, 1, Vocab(("a", "b", "c")))
    sidecar = Path(str(path) + ".json")
    before = sidecar.read_bytes()

    def dump_then_fail(obj, fh, **kwargs):
        fh.write('{"model": {')
        raise OSError("disk full")

    monkeypatch.setattr(json, "dump", dump_then_fail)
    with pytest.raises(OSError, match="disk full"):
        save_model_checkpoint(path, params, 2, Vocab(("a", "b", "c")))
    assert sidecar.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["ckpt.bin", "ckpt.bin.json"]
    monkeypatch.undo()
    assert int(load_checkpoint(path)["meta/step"]) == 2  # the new .bin was written before the sidecar
    assert load_model_checkpoint(str(path))[1] == 2  # the sidecar holds no step, so the pair left behind loads
