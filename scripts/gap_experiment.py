#!/usr/bin/env python3
"""Train a teacher-forcing baseline on the noisy-map task and measure how
training-side and inference-side precision behave across decoding steps.

Every run goes through the ``sslab`` command line in-process: one
``train`` into ``<out>/train`` (every step teacher forcing, a checkpoint
every ``--measure-every`` steps), then one ``gap-curve`` per checkpoint
into ``<out>/step<N>``. References keep the training noise. Prints Spearman
rank correlations (precision vs decoding step) at each checkpoint. The
training run's ``config.json`` re-runs it bit for bit with
``sslab train --config``.
"""

import argparse
import csv
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np

from sslab.cli import main as cli_main


def ranks(values):
    """1-based ranks; tied values share the mean of the ranks they span."""
    _, inverse, counts = np.unique(np.asarray(values, dtype=float), return_inverse=True, return_counts=True)
    return (np.cumsum(counts) - (counts - 1) / 2.0)[inverse]


def spearman(xs, ys):
    """Spearman rank correlation with tie-averaged ranks; nan when either side is constant."""
    xr, yr = ranks(xs), ranks(ys)
    xr -= xr.mean()
    yr -= yr.mean()
    den = np.sqrt((xr * xr).sum() * (yr * yr).sum())
    return float((xr * yr).sum() / den) if den > 0 else float("nan")


def curve_points(path, min_count):
    """Steps and values of a curve CSV, for steps with at least ``min_count`` references."""
    with open(path, encoding="utf-8") as fh:
        rows = [r for r in csv.DictReader(fh) if int(r["count"]) >= min_count]
    return [int(r["step"]) for r in rows], [float(r["value"]) for r in rows]


def _cli(command, settings, *extra):
    argv = [command, *extra]
    for key, value in settings.items():
        argv += ["--set", f"{key}={json.dumps(value)}"]
    if cli_main(argv) != 0:
        raise SystemExit(f"sslab {command} failed for {settings['out_dir']}")


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--steps", type=int, default=4000)
    ap.add_argument("--measure-every", type=int, default=1000)
    ap.add_argument("--budget", type=int, default=2048)
    ap.add_argument("--eval-count", type=int, default=400)
    ap.add_argument("--min-count", type=int, default=30)
    ap.add_argument("--history-weight", type=int, default=1)
    ap.add_argument("--out", default="runs/gap_experiment")
    args = ap.parse_args(argv)

    out = Path(args.out)
    run = {
        "seed": args.seed,
        "data.history_weight": args.history_weight,
        "data.token_budget": args.budget,
        "data.eval_count": args.eval_count,
        "data.eval_clean_targets": False,
        "decode.beam_size": 1,
        "decode.max_length": 70,
    }
    t0 = time.time()
    _cli("train", {
        **run, "out_dir": str(out / "train"), "train.total_steps": args.steps,
        "train.checkpoint_every": args.measure_every, "sampler.warm_start_steps": args.steps,
    })
    with open(out / "train" / "steps.csv", encoding="utf-8") as fh:
        losses = [float(r["loss"]) for r in csv.DictReader(fh)]

    for done in [*range(args.measure_every, args.steps, args.measure_every), args.steps]:
        name = "ckpt_final.bin" if done == args.steps else f"ckpt_step{done:06d}.bin"
        measured = out / f"step{done}"
        _cli("gap-curve", {**run, "out_dir": str(measured)}, "--checkpoint", str(out / "train" / name))
        ts, tv = curve_points(measured / "training_precision.csv", args.min_count)
        is_, iv = curve_points(measured / "inference_precision.csv", args.min_count)
        if not (tv and iv):
            print(f"step {done:5d}: no decoding step has {args.min_count} references", flush=True)
            continue
        print(
            f"step {done:5d} loss {np.mean(losses[max(0, done - 50):done]):.3f} "
            f"train prec mean {np.mean(tv):.3f} rho {spearman(ts, tv):+.3f} | "
            f"infer prec mean {np.mean(iv):.3f} rho {spearman(is_, iv):+.3f} "
            f"head {np.mean(iv[:5]):.3f} tail {np.mean(iv[-5:]):.3f} "
            f"[{time.time() - t0:.0f}s]",
            flush=True,
        )


if __name__ == "__main__":
    main()
