#!/usr/bin/env python3
"""Compare scheduled-sampling strategies on the noisy-map task.

Every run goes through the ``sslab`` command line in-process. Per seed, one
teacher-forcing ``train`` makes the warm start; each strategy then resumes
it with ``train.resume_from`` (so every strategy of a seed sees the same
batches) and is scored by ``evaluate`` on held-out token accuracy under
greedy decoding. Each strategy's run directory keeps the ``config.json``
that ``sslab train --config`` re-runs bit for bit. Prints a per-seed table
plus seed means.
"""

import argparse
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np

from sslab.cli import main as cli_main


def build_strategies(max_t: int, ft_steps: int) -> dict[str, dict]:
    """Sampler sections, with schedule parameters scaled from the translation settings by horizon.

    The translation setup decays g over 128 decoding steps (exponential
    0.99, linear -1/64, sigmoid 20) and f over 300k training steps; the
    same fractional shapes are reproduced over max_t and ft_steps.
    """
    exp_k = float(0.99 ** (128.0 / max_t))
    lin_k = -1.0 / (max_t / 2.0)
    sig_k = 1.0
    while sig_k * np.log(max(sig_k, 1.0001)) < 0.47 * max_t:
        sig_k += 0.5
    f_sig_k = 1.0
    while f_sig_k * np.log(max(f_sig_k, 1.0001)) < 0.47 * ft_steps:
        f_sig_k += 1.0

    def ds(family, direction="decay", **kw):
        return {"mode": "decoding_steps", "schedule": {"family": family, "direction": direction, **kw}}

    f = {"family": "sigmoid", "k": f_sig_k}

    def joint(method):
        g = {"family": "exponential", "k": exp_k}
        return {"mode": "joint", "joint": {"method": method, "f": f, "g": g}}

    linear = {"k": lin_k, "epsilon": 0.2, "b": 1.0}
    return {
        "always_sample": ds("always_sample"),
        "uniform": ds("uniform", uniform_p=0.5),
        "linear_decay": ds("linear", **linear),
        "linear_increase": ds("linear", "increase", **linear),
        "exponential_decay": ds("exponential", k=exp_k),
        "exponential_increase": ds("exponential", "increase", k=exp_k),
        "sigmoid_decay": ds("sigmoid", k=sig_k),
        "sigmoid_increase": ds("sigmoid", "increase", k=sig_k),
        "training_steps": {"mode": "training_steps", "schedule": f},  # vanilla scheduled sampling
        "joint_product": joint("product"),
        "joint_arithmetic_mean": joint("arithmetic_mean"),
        "joint_composite": joint("composite"),
    }


def _cli(command: str, doc: dict, *extra: str) -> None:
    """Run one ``sslab`` command with every top-level entry of ``doc`` given by ``--set``."""
    argv = [command, *extra]
    for key, value in doc.items():
        argv += ["--set", f"{key}={json.dumps(value)}"]
    if cli_main(argv) != 0:
        raise SystemExit(f"sslab {command} failed for {doc['out_dir']}")


def _accuracy(doc: dict, checkpoint: Path) -> float:
    """Token accuracy of ``checkpoint`` from ``sslab evaluate``, run into ``<out_dir>/eval``."""
    out = Path(doc["out_dir"]) / "eval"
    _cli("evaluate", {**doc, "out_dir": str(out)}, "--checkpoint", str(checkpoint))
    return json.loads((out / "report.json").read_text(encoding="utf-8"))["token_accuracy"]


def run_grid(
    seeds,
    min_len=16,
    max_len=40,
    pairs=8000,
    eval_count=300,
    warm_steps=400,
    ft_steps=700,
    budget=1024,
    vocab=50,
    noise=0.1,
    history_weight=1,
    hidden=64,
    layers=2,
    strategy_filter=None,
    out_dir="runs/strategy_grid",
):
    strategies = build_strategies(max_len, ft_steps)
    if strategy_filter:
        strategies = {k: v for k, v in strategies.items() if k in strategy_filter}
    results: dict[str, dict[int, float]] = {name: {} for name in strategies}
    base = {
        "data": {
            "task": "noisy_map", "vocab_size": vocab, "min_len": min_len, "max_len": max_len,
            "count": pairs, "eval_count": eval_count, "noise": noise,
            "history_weight": history_weight, "token_budget": budget,
        },
        "model": {
            "vocab_size": 0, "hidden_size": hidden, "filter_size": 2 * hidden, "num_heads": 4,
            "num_encoder_layers": layers, "num_decoder_layers": layers, "dropout": 0.1,
            "label_smoothing": 0.1,
        },
        "decode": {"beam_size": 1, "length_penalty": 0.6, "max_length": max_len + 6},
        "optimizer": {"warmup_steps": min(400, warm_steps)},
    }
    teacher = {
        "mode": "decoding_steps",
        "schedule": {"family": "uniform", "uniform_p": 1.0},
        "warm_start_steps": warm_steps,
    }

    for seed in seeds:
        seed_dir = Path(out_dir) / f"seed{seed}"
        t0 = time.time()
        warm = {
            **base, "seed": seed, "out_dir": str(seed_dir / "warm"), "sampler": teacher,
            "train": {"total_steps": warm_steps},
        }
        _cli("train", warm)
        warm_ckpt = seed_dir / "warm" / "ckpt_final.bin"
        warm_acc = _accuracy(warm, warm_ckpt)
        print(f"seed {seed} warm start ({warm_steps} steps): acc {warm_acc:.4f} "
              f"[{time.time() - t0:.0f}s]", flush=True)

        for name, sampler in strategies.items():
            t1 = time.time()
            row = {
                **base, "seed": seed, "out_dir": str(seed_dir / name),
                "sampler": {**sampler, "warm_start_steps": warm_steps},
                "train": {"total_steps": ft_steps, "resume_from": str(warm_ckpt)},
            }
            _cli("train", row)
            acc = _accuracy(row, seed_dir / name / "ckpt_final.bin")
            results[name][seed] = acc
            print(f"seed {seed} {name:22s} acc {acc:.4f} [{time.time() - t1:.0f}s]", flush=True)
    return results


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2])
    ap.add_argument("--warm-steps", type=int, default=400)
    ap.add_argument("--ft-steps", type=int, default=700)
    ap.add_argument("--pairs", type=int, default=8000)
    ap.add_argument("--min-len", type=int, default=16)
    ap.add_argument("--max-len", type=int, default=40)
    ap.add_argument("--budget", type=int, default=1024)
    ap.add_argument("--out", default=None)
    args = ap.parse_args()

    results = run_grid(
        args.seeds, min_len=args.min_len, max_len=args.max_len, pairs=args.pairs,
        warm_steps=args.warm_steps, ft_steps=args.ft_steps, budget=args.budget,
    )
    print("\n=== seed means ===")
    means = {}
    for name, per_seed in results.items():
        means[name] = float(np.mean(list(per_seed.values())))
        print(f"{name:22s} {means[name]:.4f}  (per seed: "
              + " ".join(f"{per_seed[s]:.4f}" for s in sorted(per_seed)) + ")")

    checks = [
        ("exp_decay > uniform", means["exponential_decay"] > means["uniform"]),
        ("uniform > always_sample", means["uniform"] > means["always_sample"]),
        ("linear: decay > increase", means["linear_decay"] > means["linear_increase"]),
        ("exponential: decay > increase", means["exponential_decay"] > means["exponential_increase"]),
        ("sigmoid: decay > increase", means["sigmoid_decay"] > means["sigmoid_increase"]),
        ("composite >= product", means["joint_composite"] >= means["joint_product"]),
        ("composite >= arith_mean", means["joint_composite"] >= means["joint_arithmetic_mean"]),
    ]
    print("\n=== ordering checks ===")
    for label, ok in checks:
        print(f"{'PASS' if ok else 'FAIL'}  {label}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(results, fh, indent=2, sort_keys=True)


if __name__ == "__main__":
    main()
