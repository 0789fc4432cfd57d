import importlib.util
import json
import math
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

import pytest
from scipy.stats import spearmanr

from sslab.cli import RunConfig, main, read_config

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


strategy_grid = load_script("strategy_grid")
gap_experiment = load_script("gap_experiment")


@pytest.mark.parametrize("script", sorted(p.name for p in SCRIPTS.glob("*.py")))
def test_script_answers_help(script):
    done = subprocess.run(
        [sys.executable, str(SCRIPTS / script), "--help"], capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert "usage:" in done.stdout


SAMPLER_SECTIONS = {
    "default": None,
    **strategy_grid.build_strategies(40, 700),
    "empirical": {
        "mode": "training_steps",
        "schedule": {"family": "empirical", "empirical_table": [0, 0.25, 0.5]},
        "warm_start_steps": 3,
    },
}


@pytest.mark.parametrize("name", list(SAMPLER_SECTIONS))
def test_config_reads_back_from_its_echo(name):
    section = SAMPLER_SECTIONS[name]
    cfg = read_config(RunConfig, {} if section is None else {"sampler": section})
    assert read_config(RunConfig, asdict(cfg)) == cfg
    assert read_config(RunConfig, json.loads(json.dumps(asdict(cfg)))) == cfg


def test_strategy_grid_row_reruns_bit_for_bit(tmp_path):
    grid = tmp_path / "grid"
    results = strategy_grid.run_grid(
        [3], min_len=2, max_len=6, pairs=60, eval_count=8, warm_steps=4, ft_steps=3,
        budget=128, vocab=12, hidden=16, layers=1,
        strategy_filter={"exponential_decay", "joint_composite", "training_steps"}, out_dir=grid,
    )
    assert sorted(results) == ["exponential_decay", "joint_composite", "training_steps"]
    assert all(0.0 <= acc[3] <= 1.0 for acc in results.values())
    for name in ("joint_composite", "training_steps"):
        row, rerun = grid / "seed3" / name, tmp_path / "rerun" / name
        assert main(["train", "--config", str(row / "config.json"), "--set", f"out_dir={rerun}"]) == 0
        assert (rerun / "ckpt_final.bin").read_bytes() == (row / "ckpt_final.bin").read_bytes()
        assert (rerun / "steps.csv").read_bytes() == (row / "steps.csv").read_bytes()


def test_gap_experiment_spearman_matches_scipy_on_ties_and_is_nan_on_a_flat_curve():
    cases = [
        ([0, 1, 2, 3, 4], [1, 1, 2, 0, 0]),
        ([0, 1, 2, 3, 4, 5, 6, 7], [0.5, 0.25, 0.5, 0.75, 0.25, 0.25, 1.0, 0.5]),
        ([3, 3, 1, 2, 2, 5], [0.1, 0.2, 0.2, 0.9, 0.4, 0.4]),
    ]
    for xs, ys in cases:
        assert gap_experiment.spearman(xs, ys) == pytest.approx(spearmanr(xs, ys).statistic, abs=1e-12)
    assert math.isnan(gap_experiment.spearman([0, 1, 2, 3], [0.5, 0.5, 0.5, 0.5]))


def test_gap_experiment_is_one_training_run_and_a_gap_curve_per_checkpoint(tmp_path):
    out = tmp_path / "gap"
    gap_experiment.main(["--steps", "4", "--measure-every", "2", "--eval-count", "8", "--out", str(out)])
    train = out / "train"
    rerun = tmp_path / "rerun"
    assert main(["train", "--config", str(train / "config.json"), "--set", f"out_dir={rerun}"]) == 0
    assert (rerun / "ckpt_final.bin").read_bytes() == (train / "ckpt_final.bin").read_bytes()
    assert (rerun / "steps.csv").read_bytes() == (train / "steps.csv").read_bytes()
    for step in (2, 4):
        for name in ("training_precision.csv", "inference_precision.csv", "gap.csv"):
            assert (out / f"step{step}" / name).is_file()


AB_TIME = [sys.executable, str(SCRIPTS / "ab_time.py")]
SRC = SCRIPTS.parent / "src"
FIXTURE_CHECKPOINT = SCRIPTS.parent / "perfbench" / "fixture" / "ckpt.bin"


def assert_traced_peaks(lines):
    """One line per side with the traced peak of its untimed command under ``tracemalloc``, in MB."""
    assert [line.split()[:2] for line in lines] == [["A", "traced_peak"], ["B", "traced_peak"]]
    for line in lines:
        assert float(line.split()[2]) > 0 and line.split()[3] == "MB"


def test_ab_time_compares_a_tree_with_itself():
    done = subprocess.run(
        [*AB_TIME, str(SRC), str(SRC), "--reps", "2", "--",
         "evaluate", "--checkpoint", str(FIXTURE_CHECKPOINT), "--set", "data.eval_count=4"],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert len(lines) == 8
    assert [line.split()[:2] for line in lines[:2]] == [["A", "min"], ["B", "min"]]
    assert lines[2].startswith("B faster in ") and " of 2 pairs" in lines[2]
    # the decode alone, inside the whole command
    assert [line.split()[:3] for line in lines[3:5]] == [["A", "decode_corpus", "min"], ["B", "decode_corpus", "min"]]
    assert lines[5].startswith("decode_corpus: B faster in ") and " of 2 pairs" in lines[5]
    assert "first_batch" not in done.stdout
    for whole, decode in zip(lines[:2], lines[3:5]):
        assert 0 < float(decode.split()[3]) <= float(whole.split()[2])  # minimum CPU seconds
    assert_traced_peaks(lines[6:])


def test_ab_time_times_a_training_command_to_its_first_batch():
    done = subprocess.run(
        [*AB_TIME, str(SRC), str(SRC), "--reps", "2", "--",
         "train", "--set", "data.task=copy", "--set", "data.vocab_size=12", "--set", "data.min_len=2",
         "--set", "data.max_len=5", "--set", "data.count=60", "--set", "data.eval_count=4",
         "--set", "data.token_budget=128", "--set", "model.hidden_size=16", "--set", "model.filter_size=32",
         "--set", "model.num_heads=2", "--set", "model.num_encoder_layers=1", "--set", "model.num_decoder_layers=1",
         "--set", "train.total_steps=3"],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert len(lines) == 8
    assert lines[2].startswith("B faster in ") and " of 2 pairs" in lines[2]
    # the in-command set-up: from the command's start to the first batch the trainer draws
    assert [line.split()[:3] for line in lines[3:5]] == [["A", "first_batch", "min"], ["B", "first_batch", "min"]]
    assert lines[5].startswith("first_batch: B faster in ") and " of 2 pairs" in lines[5]
    for whole, setup in zip(lines[:2], lines[3:5]):
        assert 0 < float(setup.split()[3]) < float(whole.split()[2])  # minimum CPU seconds
    assert "decode_corpus" not in done.stdout
    assert_traced_peaks(lines[6:])


def test_ab_time_fails_when_the_trees_write_different_outputs(tmp_path):
    trees = []
    for side, text in (("a", "one"), ("b", "two")):
        package = tmp_path / side / "sslab"
        package.mkdir(parents=True)
        (package / "__init__.py").write_text("")
        (package / "cli.py").write_text(
            "from pathlib import Path\n\n\n"
            "def main(argv):\n"
            "    out = Path(argv[-1].split('=', 1)[1])\n"
            "    out.mkdir(parents=True)\n"
            f"    (out / 'config.json').write_text({text!r})\n"
            f"    (out / 'result.txt').write_text({text!r})\n"
            "    return 0\n"
        )
        trees.append(str(tmp_path / side))
    done = subprocess.run([*AB_TIME, *trees, "--reps", "1", "--", "any"], capture_output=True, text=True, timeout=60)
    assert done.returncode == 1
    # a command that neither trains nor decodes gets no lines for either
    assert "decode_corpus" not in done.stdout and "first_batch" not in done.stdout
    assert "outputs differ between A and B: ['result.txt']" in done.stderr
