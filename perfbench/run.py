"""Run one facegcn benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root; BENCHMARK.json there lists the workloads and
metrics. Inputs are prepared once in their own process and cached under
.bench_build/perfbench (the desk set and checkpoint keyed by a hash of src/,
the scan frames by seed); every cached file is checked against its SHA-256
before use. Each workload runs in its own process with one caller in a closed
loop and BLAS pinned to BLAS_THREADS threads.

--trace 0 runs two set-up-only processes and one measuring process, and
reports the end-to-end metrics (set-up time is the median of the three).
Throughput and set-up time are in reference seconds (see worker.SpeedProbe);
the wall-clock values are printed on report lines. --trace 1 runs the workload
for half the time untraced and for half the time with every facegcn layer
call traced, and reports per-layer calls, self time (wall clock) and work
counts plus the tracing overhead. Both modes run the correctness checks and a
quality check of the desk checkpoint. The last stdout line is one JSON
object; the exit code is 1 when any check failed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BLAS_THREADS = 1

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
CACHE = ROOT / ".bench_build" / "perfbench"
WORKER_TIMEOUT_S = 150
KEEP_SCAN_INPUTS = 6  # newest seeds kept on disk


class BenchError(Exception):
    pass


def log(line: str) -> None:
    print(line, flush=True)


def tree_hash(root: Path) -> str:
    h = hashlib.sha256()
    for p in sorted(root.rglob("*")):
        if p.is_file() and "__pycache__" not in p.parts:
            h.update(str(p.relative_to(root)).encode() + b"\0" + p.read_bytes())
    return h.hexdigest()


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(args: list[str], timeout: float = WORKER_TIMEOUT_S) -> None:
    proc = subprocess.run(
        [sys.executable, *args], cwd=ROOT, env=child_env(), timeout=timeout,
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
    )
    if proc.returncode != 0:
        raise BenchError(f"{Path(args[0]).name} {' '.join(args[1:3])} exited "
                         f"{proc.returncode}:\n{proc.stderr[-3000:]}")


# ---------------------------------------------------------------------------
# inputs


def verified(root: Path) -> bool:
    """True when root holds every file digests.json lists, byte for byte."""
    try:
        digests = json.loads((root / "digests.json").read_text())
    except (OSError, ValueError):
        return False
    return all(
        (root / name).is_file() and hashlib.sha256((root / name).read_bytes()).hexdigest() == want
        for name, want in digests.items()
    )


def ensure_inputs(root: Path, what: str, prep_args: list[str]) -> Path:
    if verified(root):
        log(f"prep: {what}: cached in {root.relative_to(ROOT)}, digests verified")
        return root
    t = time.perf_counter()
    run_child([str(HERE / "prep.py"), *prep_args, str(root)], timeout=600)
    if not verified(root):
        raise BenchError(f"prepared {what} fail their digest check")
    log(f"prep: {what}: prepared in {time.perf_counter() - t:.1f} s (own process, not timed)")
    return root


def evict(pattern: str, keep: int) -> None:
    dirs = sorted(CACHE.glob(pattern), key=lambda p: p.stat().st_mtime, reverse=True)
    for old in dirs[keep:]:
        shutil.rmtree(old, ignore_errors=True)


def desk_inputs(src_hash: str) -> Path:
    evict("desk-*", 2)
    root = ensure_inputs(CACHE / f"desk-{src_hash[:16]}",
                         "desk set (shipped synth config, 60-epoch checkpoint)", ["desk"])
    os.utime(root)
    return root


def scan_inputs(seed: int, seconds: float) -> Path:
    frames = max(6, int(seconds // 2) + 2)
    gen = hashlib.sha256((HERE / "scan_inputs.py").read_bytes()).hexdigest()[:12]
    root = CACHE / f"scan-{gen}-{frames}-{seed}"
    ensure_inputs(root, f"{frames} scan frames for seed {seed}",
                  ["scan", "--seed", str(seed), "--frames", str(frames)])
    os.utime(root)
    evict("scan-*", KEEP_SCAN_INPUTS)
    return root


def tensors_digest(root: Path) -> str:
    digests = json.loads((root / "digests.json").read_text())
    h = hashlib.sha256()
    for name in sorted(n for n in digests if n.endswith(".fgt")):
        h.update(bytes.fromhex(digests[name]))
    return h.hexdigest()


# ---------------------------------------------------------------------------
# provenance and calibration


def provenance(src_hash: str) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    git = "none (not a git checkout)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        git = proc.stdout.strip() or git
    return {
        "git_sha": git,
        "src_sha256": src_hash,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "threads": {v: os.environ.get(v) for v in
                    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "FACEGCN_THREADS": os.environ.get("FACEGCN_THREADS", "unset"),
    }


def calibrate() -> dict:
    """Fixed kernels timed in every run, to see machine drift between run sets."""
    import numpy as np

    a = np.random.default_rng(0).standard_normal((256, 256)).astype(np.float32)
    matmul, loop = [], []
    for _ in range(5):
        t = time.perf_counter()
        for _ in range(20):
            a @ a
        matmul.append(time.perf_counter() - t)
        t = time.perf_counter()
        total = 0
        for i in range(200_000):
            total += i * i
        loop.append(time.perf_counter() - t)
    return {"matmul_256_x20_ms": 1e3 * statistics.median(matmul),
            "python_loop_200k_ms": 1e3 * statistics.median(loop)}


# ---------------------------------------------------------------------------
# workload processes


def worker(workload: str, seed: int, seconds: float, inputs: Path, tag: str,
           setup_only: bool = False, spans: Path | None = None) -> dict:
    scratch = CACHE / "scratch" / tag
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir(parents=True)
    out = scratch / "result.json"
    args = [str(HERE / "worker.py"), workload, "--seed", str(seed), "--seconds", str(seconds),
            "--inputs", str(inputs), "--scratch", str(scratch), "--out", str(out)]
    if setup_only:
        args.append("--setup-only")
    if spans is not None:
        args += ["--spans", str(spans)]
    args += ["--t0", repr(time.monotonic())]
    run_child(args)
    return json.loads(out.read_text())


def log_counts(values: dict, frames: int) -> None:
    """Exact work counts of the traced run, each ratio with its base."""
    for name in ("mesh_core.validate_mesh", "landmark_engine.geodesic_path",
                 "patch_features.extract_patch"):
        calls = values[f"{name}.calls"]
        if calls:
            log(f"count: {name}.calls_per_frame = {calls / frames:g} ({calls} calls / {frames} frames)")
    calls = values["landmark_engine.geodesic_path.calls"]
    if calls:
        n = values["landmark_engine.geodesic_path.path_vertices"]
        log(f"count: landmark_engine.geodesic_path.path_vertices = {n} "
            f"({n / calls:g} per path over {calls} paths)")
    for name in ("stgcn_net.graph_conv", "stgcn_net.temporal_conv"):
        calls = values[f"{name}.calls"]
        if calls:
            log(f"count: {name}.gflop_per_call = {values[f'{name}.gflop_per_call']:.6g} "
                f"(computed from shapes: {values[f'{name}.gflop']:.6g} GFLOP / {calls} calls)")


def main() -> int:
    # before numpy is first imported here or in a child process
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    os.environ.pop("FACEGCN_THREADS", None)  # the shipped single-threaded default

    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "facegcn" / "__init__.py").is_file() or not spec_path.is_file():
        print("perfbench: run from the repository root: src/facegcn and BENCHMARK.json "
              "must be there", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    try:
        return bench(args, spec)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1


def bench(args, spec) -> int:
    wl, seed, seconds = args.workload, args.seed, args.seconds
    CACHE.mkdir(parents=True, exist_ok=True)
    src_hash = tree_hash(SRC)
    log(f"perfbench workload={wl} seed={seed} seconds={seconds:g} trace={args.trace}")
    log("provenance: " + json.dumps(provenance(src_hash), sort_keys=True))

    desk = desk_inputs(src_hash)
    log(f"digest: desk FGT1 tensors (shipped synth config) sha256={tensors_digest(desk)}")
    inputs = scan_inputs(seed, seconds) if wl == "scan-ingest" else desk
    log("calibration (diagnostic, not a metric): " + json.dumps(
        {k: round(v, 3) for k, v in calibrate().items()}))

    results = []
    if args.trace == 0:
        setups = [worker(wl, seed, seconds, inputs, f"setup{i}", setup_only=True) for i in range(2)]
        main_run = worker(wl, seed, seconds, inputs, "main")
        results += setups + [main_run]
        setup_samples = [r["setup_ref_s"] for r in results]
    else:
        # the measuring time is split between an untraced and a traced pass
        main_run = worker(wl, seed, seconds / 2, inputs, "untraced")
        spans_path = CACHE / "scratch" / "spans.json"
        traced = worker(wl, seed, seconds / 2, inputs, "traced", spans=spans_path)
        results += [main_run, traced]
    quality = worker("quality", seed, seconds, desk, "quality")
    results.append(quality)

    raw_fps = main_run["timed_frames"] / main_run["timed_s"]
    frames_per_s = main_run["frames_per_ref_s"]
    info = main_run["info"]
    log(f"timed phase: {main_run['units']} units, {main_run['timed_frames']} frames "
        f"in {main_run['timed_s']:.3f} s: {raw_fps:.4f} frames/s wall clock; "
        f"{frames_per_s:.4f} frames/ref-s, the median over units; speed probe: "
        f"{main_run['probe_samples']} samples, median sample {main_run['probe_ms']:.4f} ms")
    log("frames/ref-s per timed unit: " + json.dumps([round(r, 4) for r in main_run["unit_rates"]]))
    if wl in ("train", "identify"):
        seqs = main_run["timed_frames"] / 24
        label = "samples_per_s" if wl == "train" else "seqs_per_s"
        log(f"{label}: {frames_per_s / 24:.4f} per ref-s, {seqs / main_run['timed_s']:.4f} "
            f"wall clock ({seqs:.0f} sequences of T=24 frames)")
    for key in sorted(info):
        log(f"{wl}: {key} = {info[key]}")
    for key in sorted(quality["info"]):
        log(f"quality: {key} = {quality['info'][key]}")

    if args.trace == 0:
        log(f"setup_s wall clock: {[round(r['setup_s'], 4) for r in setups + [main_run]]}")
        values = {
            "frames_per_s": frames_per_s,
            "setup_s": statistics.median(setup_samples),
            "peak_rss_mb": main_run["peak_rss_mb"],
            "heldout_nll": quality["info"]["heldout_nll"],
        }
        wanted = spec["end_to_end"]
    else:
        from tracing import layer_report

        spans = json.loads(spans_path.read_text())
        values = layer_report(spans, traced["frames"])
        traced_fps = traced["frames_per_ref_s"]
        values["trace.untraced_frames_per_s"] = frames_per_s
        values["trace.traced_frames_per_s"] = traced_fps
        values["trace.overhead_pct"] = 100.0 * (frames_per_s - traced_fps) / frames_per_s
        log(f"trace: {len(spans)} spans over {traced['frames']} frames "
            f"(warm-up and timed); tracing overhead {values['trace.overhead_pct']:.2f} % "
            f"of untraced frames_per_s ({frames_per_s:.4f} untraced, {traced_fps:.4f} traced)")
        wall = sum(e - s for _, s, e, parent, _ in spans if parent < 0)
        for key, v in sorted(values.items(), key=lambda kv: -kv[1]):
            if key.endswith(".self_s") and v > 0:
                log(f"self time: {key[:-7]:45s} {v:9.4f} s  {100 * v / wall:5.1f} % of traced top-level time")
        log_counts(values, traced["frames"])
        wanted = spec["per_layer"]

    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    for r in results:
        for err in r["errors"]:
            log(f"check failed: {err}")
    log(f"checks: {attempted} attempted, {failed} failed")

    metrics = {}
    for m in wanted:
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        log(f"metric: {m['name']} = {values[m['name']]:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
