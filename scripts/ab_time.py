#!/usr/bin/env python3
"""Time one sslab command on two source trees, interleaved in one process.

    python3 scripts/ab_time.py A/src B/src --reps 20 -- evaluate --checkpoint perfbench/fixture/ckpt.bin

Each tree's ``sslab`` package is loaded under its own name (``sslab_a``,
``sslab_b``); this works because the package imports itself only
relatively. Every repetition runs the command once per side through that
tree's ``cli.main``, so the allocator setting ``main`` makes applies to
both, and the side that goes first alternates. Each command writes to its
own ``out_dir`` in a temporary directory (appended as ``--set out_dir=...``),
which is emptied before every run.

Prints, per side, the minimum, quartiles and median of the commands' CPU
seconds, and how many pairs B won. When the command trains, it prints the
same for the CPU seconds from the command's start to its first drawn batch
(the in-command set-up: corpora, model, batch plan), since the training
steps dilute a change to set-up. When the command decodes, it prints the
same for the CPU seconds spent inside ``cli.decode_corpus`` alone (the time
the benchmark's decode rates divide by), since set-up, a teacher-forced
pass and the metrics dilute a change to decoding. After the timed pairs,
it runs the command once more per side, untimed, under ``tracemalloc``
and prints each side's traced peak in MB, so that a memory change can be
checked in one process. Exits 1 if a command fails or if the two sides'
output files differ in name or bytes in any pair (``config.json``, which
echoes the out_dir, is not compared). BLAS runs on one thread.

Both sides share one process and so one heap: what either side allocates
and keeps (a table built at init, say) shifts where the other's arrays
land, and that can read as a speed difference of several percent in
either direction. When a change alters the allocations made before
training, confirm a ``train`` result with a control (tree A plus a dummy
allocation of the same size, run against A) or with
``perfbench/run.py``, which runs each side in its own process.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import importlib.util
import io
import os
import shutil
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"

import numpy as np

SIDES = ("a", "b")


def load_cli(src: Path, side: str):
    """The ``cli`` module of the ``sslab`` package under ``src``, imported as ``sslab_<side>``."""
    init = src / "sslab" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"ab_time: no sslab package under {src}")
    name = f"sslab_{side}"
    spec = importlib.util.spec_from_file_location(name, init, submodule_search_locations=[str(init.parent)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return importlib.import_module(f"{name}.cli")


def run(cli, argv: list[str], out: Path) -> tuple[float, float | None, float | None]:
    """CPU seconds of one command writing to an emptied ``out``, from its start to its first drawn
    batch (None if it draws none), and of its ``decode_corpus`` calls (None if none)."""
    shutil.rmtree(out, ignore_errors=True)
    first_batch: list[float] = []
    decoding: list[float] = []
    originals = {name: getattr(cli, name, None) for name in ("batch_stream", "decode_corpus")}

    def streamed(*args, **kwargs):
        stream = originals["batch_stream"](*args, **kwargs)

        def batches():
            for batch in stream:
                if not first_batch:
                    first_batch.append(time.process_time() - start)
                yield batch
        return batches()

    def timed(*args, **kwargs):
        begin = time.process_time()
        try:
            return originals["decode_corpus"](*args, **kwargs)
        finally:
            decoding.append(time.process_time() - begin)

    probes = {"batch_stream": streamed, "decode_corpus": timed}
    sink = io.StringIO()
    for name, original in originals.items():
        if original is not None:
            setattr(cli, name, probes[name])
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            start = time.process_time()
            code = cli.main([*argv, "--set", f"out_dir={out}"])
            seconds = time.process_time() - start
    finally:
        for name, original in originals.items():
            if original is not None:
                setattr(cli, name, original)
    if code != 0:
        raise SystemExit(f"ab_time: command exited {code}: {sink.getvalue().strip()[-300:]}")
    return seconds, first_batch[0] if first_batch else None, sum(decoding) if decoding else None


def traced_peak(cli, argv: list[str], out: Path) -> float:
    """MB at the peak of the memory that ``tracemalloc`` traced during one command."""
    tracemalloc.start()
    try:
        run(cli, argv, out)
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def differing(a: Path, b: Path) -> list[str]:
    """Output files, ``config.json`` aside, missing on one side or differing in bytes."""
    names = {p.name for d in (a, b) for p in d.iterdir() if p.is_file()} - {"config.json"}
    return sorted(n for n in names if not ((a / n).is_file() and (b / n).is_file()
                                           and (a / n).read_bytes() == (b / n).read_bytes()))


def summary(seconds: list[float]) -> str:
    q1, median, q3 = np.percentile(seconds, [25, 50, 75])
    return f"min {min(seconds):.3f}  q1 {q1:.3f}  median {median:.3f}  q3 {q3:.3f}  (CPU s, n={len(seconds)})"


def compare(times: dict[str, list[float]], label: str = "") -> None:
    """Each side's summary, then the pairs B won and the change in the median, tagged with ``label``."""
    for side in SIDES:
        print("  ".join(filter(None, (side.upper(), label, summary(times[side])))))
    won = sum(b < a for a, b in zip(times["a"], times["b"]))
    change = np.median(times["b"]) / np.median(times["a"]) - 1.0
    print(f"{label + ': ' if label else ''}B faster in {won} of {len(times['a'])} pairs; median {100 * change:+.1f}%")


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(
        description=__doc__.splitlines()[0], usage="%(prog)s A_SRC B_SRC [--reps N] -- SSLAB_ARGS..."
    )
    p.add_argument("a_src", type=Path, help="the src directory of tree A (the baseline)")
    p.add_argument("b_src", type=Path, help="the src directory of tree B")
    p.add_argument("--reps", type=int, default=10, help="pairs of commands to run")
    argv = sys.argv[1:] if argv is None else argv
    split = argv.index("--") if "--" in argv else len(argv)
    args, command = p.parse_args(argv[:split]), argv[split + 1 :]
    if not command or args.reps < 1:
        p.error("give --reps >= 1 and the sslab command line after --")
    clis = {side: load_cli(src.resolve(), side) for side, src in zip(SIDES, (args.a_src, args.b_src))}
    times: dict[str, list[float]] = {side: [] for side in SIDES}
    first_batch: dict[str, list[float | None]] = {side: [] for side in SIDES}
    decoding: dict[str, list[float | None]] = {side: [] for side in SIDES}
    mismatched: set[str] = set()
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        for rep in range(args.reps):
            for side in SIDES if rep % 2 == 0 else SIDES[::-1]:
                seconds, setup_seconds, decode_seconds = run(clis[side], command, work / side)
                times[side].append(seconds)
                first_batch[side].append(setup_seconds)
                decoding[side].append(decode_seconds)
            mismatched.update(differing(work / "a", work / "b"))
        peaks = {side: traced_peak(clis[side], command, work / side) for side in SIDES}
    compare(times)
    for label, part in (("first_batch", first_batch), ("decode_corpus", decoding)):
        if all(s is not None for side in SIDES for s in part[side]):
            compare(part, label)
    for side in SIDES:
        print(f"{side.upper()}  traced_peak  {peaks[side]:.1f} MB (tracemalloc, one untimed command)")
    if mismatched:
        print(f"ab_time: outputs differ between A and B: {sorted(mismatched)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
