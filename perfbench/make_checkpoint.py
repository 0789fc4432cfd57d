"""Regenerate the fixed checkpoint that the decode workloads load.

The checkpoint is trained once with the default model config, seed 0 and
teacher forcing on every step, then committed under ``perfbench/fixture``
together with its JSON sidecar and a ``SHA256SUMS`` file. The benchmark
refuses to decode with a checkpoint whose digests do not match.

    python3 perfbench/make_checkpoint.py            # about 1500 steps

The noisy-map bijection does not depend on the seed, so this one
checkpoint is valid for the eval corpus of every workload seed.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import sys
import tempfile
from pathlib import Path

os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
FIXTURE = BENCH_DIR / "fixture"
CKPT = FIXTURE / "ckpt.bin"
SUMS = FIXTURE / "SHA256SUMS"
STEPS = 1500


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from sslab import cli

    with tempfile.TemporaryDirectory(dir=BENCH_DIR) as tmp:
        code = cli.main([
            "train",
            "--set", "seed=0",
            "--set", f"out_dir={tmp}",
            "--set", f"train.total_steps={STEPS}",
            "--set", f"train.checkpoint_every={STEPS}",
            "--set", f"sampler.warm_start_steps={STEPS}",
        ])
        if code != 0:
            return code
        FIXTURE.mkdir(exist_ok=True)
        for name in ("ckpt_final.bin", "ckpt_final.bin.json"):
            shutil.copyfile(Path(tmp) / name, FIXTURE / name.replace("ckpt_final", "ckpt"))
    SUMS.write_text("".join(f"{sha256(p)}  {p.name}\n" for p in (CKPT, Path(str(CKPT) + ".json"))), encoding="utf-8")
    print(SUMS.read_text(encoding="utf-8"), end="")
    return 0


if __name__ == "__main__":
    sys.exit(main())
