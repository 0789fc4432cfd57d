import csv
import json
from pathlib import Path

import numpy as np
import pytest

from sslab.cli import main


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
