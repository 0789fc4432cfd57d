import csv
import json
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from sslab import cli
from sslab.cli import load_model_checkpoint, main, save_model_checkpoint
from sslab.data import Vocab, gen_task
from sslab.model import ModelConfig, init_params
from sslab.rng import named_rng
from sslab.schedules import Family, ScheduleSpec, eval_schedule


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
        "gap_window=2", "data.token_budget=0", "data.min_len=0", "data.task=foo",
    ],
)
def test_zero_step_count_fails_without_traceback(tmp_path, capsys, override):
    code = run_cli(*tiny_train_args(tmp_path / "run", extra=["--set", override]))
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("sslab: error:") and override.split("=")[0].split(".")[-1] in err
    assert not (tmp_path / "run" / "config.json").exists()


def test_empty_corpus_fails_without_traceback(tmp_path, capsys):
    code = run_cli(*tiny_train_args(tmp_path / "run", extra=["--set", "data.count=0"]))
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("sslab: error:") and "empty corpus" in err


def test_env_var_overrides_out_dir(tmp_path, monkeypatch):
    env_dir = tmp_path / "env_out"
    monkeypatch.setenv("SSLAB_OUT_DIR", str(env_dir))
    code = run_cli(
        "schedule-dump",
        "--set", "out_dir=should/not/be/used",
        "--set", "dump_max_t=4",
        "--set", 'schedules={"u": {"family": "uniform", "uniform_p": 0.5}}',
    )
    assert code == 0
    assert (env_dir / "values.csv").exists()
    assert not Path("should/not/be/used").exists()


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
    assert sidecar["step"] == 30
    assert sidecar["model"]["vocab_size"] == 12


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
    assert json.loads((out / "ckpt_final.bin.json").read_text())["step"] == 35


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


@pytest.mark.filterwarnings("ignore:empty hypothesis corpus")  # two steps do not learn to emit tokens
def test_tsv_task_runs_through_every_command(tmp_path):
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
    for command, output in outputs.items():
        out = tmp_path / command
        assert run_cli(command, "--config", config, "--set", f"out_dir={out}", "--checkpoint", checkpoint) == 0
        assert (out / output).is_file()
    assert len((tmp_path / "decode" / "hypotheses.txt").read_text().splitlines()) == 6  # 10% of 60 pairs


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
    assert override.split("=")[0].split(".")[-1] in err


def test_checkpoint_with_layers_its_sidecar_lacks_fails_without_traceback(tmp_path, capsys):
    fixture_params, _, vocab = load_model_checkpoint(str(FIXTURE_CHECKPOINT))
    layers = fixture_params.config.num_decoder_layers
    deeper = ModelConfig(**{**asdict(fixture_params.config), "num_decoder_layers": layers + 1})
    ckpt = tmp_path / "deeper.bin"
    save_model_checkpoint(ckpt, init_params(deeper, named_rng(0, "init")), 1, vocab)
    # the sidecar names the fixture's shallower model
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
    _, step, vocab = load_model_checkpoint(str(path))  # the new .bin was written before the sidecar
    assert step == 2 and vocab.tokens == ("a", "b", "c")
