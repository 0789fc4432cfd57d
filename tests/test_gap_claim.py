"""The reproduction's headline claim, at reduced size: the precision gap
between teacher forcing and free-running inference grows with the
decoding step. The claim is about a model that has learned the task, so
the test first requires teacher-forced precision above chance.

Opt-in (``pytest -m slow``): it runs ``scripts/gap_experiment.py`` at one
fixed seed for 1500 training steps, which takes a few minutes on a
2-vCPU machine. BLAS is pinned to one thread, as in the benchmark: a
multi-threaded BLAS sums in a thread-dependent order, and 1500 training
steps amplify that into different curves.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import spearmanr

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "gap_experiment.py"
SEED = 0
STEPS = 1500
BUDGET = 1024
EVAL_COUNT = 200
MIN_COUNT = 30
CHANCE = 1 / 45  # uniform guessing over the script's 45 content tokens


def _curve(path):
    """step -> precision, for steps with at least MIN_COUNT references."""
    rows = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return {int(s): v for s, v, c in rows if c >= MIN_COUNT}


@pytest.mark.slow
def test_train_minus_inference_gap_grows_with_decoding_step(tmp_path):
    one_thread = {var: "1" for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    subprocess.run(
        [
            sys.executable, str(SCRIPT),
            "--seed", str(SEED),
            "--steps", str(STEPS),
            "--measure-every", str(STEPS),
            "--budget", str(BUDGET),
            "--eval-count", str(EVAL_COUNT),
            "--out", str(tmp_path),
        ],
        env={**os.environ, **one_thread},
        check=True,
        timeout=1800,
    )
    train = _curve(tmp_path / f"training_precision_{STEPS}.csv")
    infer = _curve(tmp_path / f"inference_precision_{STEPS}.csv")
    steps = sorted(train.keys() & infer.keys())
    gaps = [train[s] - infer[s] for s in steps]
    rho = spearmanr(steps, gaps).statistic
    third = len(gaps) // 3
    head, tail = float(np.mean(gaps[:third])), float(np.mean(gaps[-third:]))
    learned = float(np.mean([train[s] for s in steps]))
    print(
        f"\n{len(steps)} steps, teacher-forced precision {learned:.3f}, "
        f"spearman(step, gap) {rho:+.3f}, gap first third {head:.3f}, last third {tail:.3f}"
    )
    assert learned > CHANCE, "the baseline has not learned the task; the gap is noise"
    assert rho > 0.5
    assert tail > head
