"""Benchmark input preparation, run in its own process before any timed one.

    python3 perfbench/prep.py desk DIR
    python3 perfbench/prep.py scan DIR --seed N --frames F

`desk` runs `facegcn synth` and `facegcn train` at the shipped defaults (60
sequences, 60 epochs): the FGT1 tensors, FGG1 graph and FGC1 checkpoint the
train and identify workloads load. `scan` writes F seeded raw frames for
scan-ingest (see scan_inputs.py). Output is built in DIR.tmp, every file's
SHA-256 goes into digests.json, and DIR.tmp is renamed to DIR last, so an
interrupted preparation leaves nothing that looks complete.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import shutil
import sys
from pathlib import Path


def write_digests(root: Path) -> None:
    digests = {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.iterdir()) if p.is_file()
    }
    (root / "digests.json").write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")


def prepare_desk(tmp: Path) -> None:
    from facegcn import cli

    config = tmp / "run.json"
    config.write_text(json.dumps({"paths": {"output_dir": str(tmp)}}))
    for command in ("synth", "train"):
        if cli.main([command, "--config", str(config)]) != 0:
            raise SystemExit(f"facegcn {command} failed")


def prepare_scan(tmp: Path, seed: int, frames: int) -> None:
    from scan_inputs import make_frame

    for t in range(frames):
        ply, lm2 = make_frame(seed, t, frames)
        (tmp / f"frame_{t:03d}.ply").write_text(ply)
        (tmp / f"frame_{t:03d}.lm2").write_text(lm2)


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("kind", choices=("desk", "scan"))
    p.add_argument("dir")
    p.add_argument("--seed", type=int)
    p.add_argument("--frames", type=int)
    args = p.parse_args()

    final = Path(args.dir)
    tmp = final.with_name(final.name + ".tmp")
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    if args.kind == "desk":
        prepare_desk(tmp)
    else:
        prepare_scan(tmp, args.seed, args.frames)
    write_digests(tmp)
    shutil.rmtree(final, ignore_errors=True)
    tmp.rename(final)
    return 0


if __name__ == "__main__":
    sys.exit(main())
