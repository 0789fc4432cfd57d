"""sslab benchmark: one workload per process, end-to-end or traced.

    python3 perfbench/run.py --workload train --seed 1 --seconds 35 --trace 0

Workloads (see ``workloads.py``): ``train``, ``gap-greedy`` and
``evaluate-beam``. Each repeats its CLI command until ``--seconds`` have
passed (at least three times, or two untraced and two traced with
``--trace 1``), checks every command's outputs, and prints one JSON object
as the last line of standard output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones:

- ``setup_s``: CPU seconds of set-up, the package import plus the median
  over the run's commands of everything before the first training step or
  the decode (corpora, model init or checkpoint load, first batch epoch);
- ``tokens_per_s``: label tokens per CPU second of training steps, or
  reference tokens (content plus end token) per CPU second of decoding.
  The time is the sum, over the units of work a command repeats (each
  training step; each stretch of decoding between scorer calls), of that
  unit's fastest time among the run's commands;
- ``peak_rss_mb``: the process's peak resident set.

Throughput uses each unit's fastest time because the machine this was
tuned on (a 2-vCPU VM on a shared host) runs the same code up to 1.6x
slower for seconds to minutes at a time. Per-run medians of command time
moved 20-35% between runs of one seed; the fastest whole command moved
about 10%.

With ``--trace 1`` the metrics are the per-layer ones of ``layers.py`` from
the traced commands, plus the tracing overhead. A line before the result,
starting with ``perfbench:``, records the environment (nproc, Python,
numpy, BLAS and its thread count) and the workload's detailed figures:
token rates by step mode, step-latency median and tail with the sample
count, final loss, sentences per second, token accuracy, error rate and
median wall time. The program is imported from ``src/`` of the checkout
this file sits in; BLAS runs on one thread.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

BLAS_THREADS = 1
for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = str(BLAS_THREADS)
os.environ.pop("SSLAB_OUT_DIR", None)  # would redirect every command's outputs

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_ROOT = ROOT / ".bench_out"
MIN_COMMANDS = 3
TIME_LIMIT_S = 150.0  # start no command that would likely end after this


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_program() -> float:
    """Import sslab from this checkout's ``src``; returns the import time in seconds."""
    src = ROOT / "src"
    if not (src / "sslab" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no sslab package under {src}")
    sys.path.insert(0, str(src))
    t0 = time.process_time()
    import sslab.cli  # noqa: F401  (numpy is first imported here)

    return time.process_time() - t0


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
    }


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    import_s = import_program()
    sys.path.insert(0, str(BENCH_DIR))
    import layers
    import workloads as wl
    from spans import Tracer, restore

    workload = wl.WORKLOADS.get(args.workload)
    if workload is None:
        raise SystemExit(f"perfbench: unknown workload {args.workload!r}; choose from {sorted(wl.WORKLOADS)}")
    out = OUT_ROOT / workload.name
    run_cfg = wl.cli.RunConfig()
    vocab_size = json.loads(Path(str(wl.CHECKPOINT) + ".json").read_text(encoding="utf-8"))["model"]["vocab_size"]
    max_length = run_cfg.decode.max_length

    attempted = failed = 0
    problems: list[str] = []
    good: list = []  # (command record, traced?) for commands that passed every check
    first_digests = None
    tracer = Tracer()
    traced_runs = untraced_runs = 0
    began = time.perf_counter()
    last_s = 0.0
    n = 0
    while True:
        elapsed = time.perf_counter() - began
        enough = traced_runs >= 2 and untraced_runs >= 2 if args.trace else n >= MIN_COMMANDS
        if (enough and elapsed >= args.seconds) or (n and elapsed + last_s > TIME_LIMIT_S):
            break
        if workload.decodes:
            bad_fixture = wl.fixture_problem()
            if bad_fixture:
                attempted, failed = attempted + 1, failed + 1
                problems.append(bad_fixture)
                break
        trace_this = bool(args.trace) and n % 2 == 1
        undo = layers.install(tracer) if trace_this else []
        try:
            rec = wl.run_command(workload, args.seed, out)
        finally:
            restore(undo)
        last_s = rec.wall_s
        n += 1
        result = wl.check(workload, rec, out, vocab_size, max_length, first_digests)
        attempted += result.attempted
        failed += result.failed
        problems += result.problems
        if first_digests is None and result.ok:
            first_digests = rec.digests
        if result.ok:
            good.append((rec, trace_this))
        traced_runs += trace_this
        untraced_runs += not trace_this

    untraced = [r for r, t in good if not t]
    traced = [r for r, t in good if t]
    metrics: dict[str, dict] = {}
    detail: dict = {"commands": n, "import_s": import_s}
    if untraced:
        rates = wl.decode_rates(untraced) if workload.decodes else wl.train_rates(untraced)
        end_to_end = {
            "setup_s": (import_s + statistics.median(r.setup_s for r in untraced), "s"),
            "tokens_per_s": (rates["tokens_per_s"], "tokens/s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
        detail.update(rates)
        detail["median_command_cpu_s"] = statistics.median(r.cpu_s for r in untraced)
        detail["median_wall_s"] = statistics.median(r.wall_s for r in untraced)
        if workload.decodes:
            detail["token_accuracy"] = wl.token_accuracy(untraced[0])
        else:
            detail.update(wl.step_latencies(untraced))
            detail["final_loss"] = wl.final_loss(out)
        detail["error_rate"] = failed / attempted
        if args.trace == 0:
            metrics = {k: {"value": v, "unit": u} for k, (v, u) in end_to_end.items()}
        elif traced:
            values = layers.per_layer(tracer.summarize(), tracer.counters, len(traced))
            values["trace.overhead_s"] = (statistics.median(r.cpu_s for r in traced)
                                          - statistics.median(r.cpu_s for r in untraced))
            metrics = {name: {"value": values[name], "unit": unit} for name, unit, _ in layers.METRICS}
            OUT_ROOT.mkdir(exist_ok=True)
            tracer.write(OUT_ROOT / f"{workload.name}.spans.tsv.gz")
            detail["spans"] = len(tracer)
    info = {"workload": workload.name, "seed": args.seed, "trace": args.trace,
            "env": environment(), "detail": detail, "problems": problems[:20]}
    print("perfbench: " + json.dumps(info, sort_keys=True))
    correct = failed == 0 and bool(metrics)
    print(json.dumps({"correct": correct, "attempted": max(attempted, 1), "failed": failed, "metrics": metrics}))
    return 0 if metrics else 1


if __name__ == "__main__":
    sys.exit(main())
