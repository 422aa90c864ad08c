"""The coslie benchmark: one run of one workload.

    python3 perfbench/run.py --workload catalog --seed 1 --seconds 20 --trace 0

Run it from the repository root; it measures the working tree's src/.  It
measures set-up time in fresh interpreters, starts a fresh worker process
for the workload (perfbench/worker.py) and prints two JSON lines: a record
of the environment and the run's details, then the result with exactly the
keys correct, attempted, failed and metrics.  Times in the metrics are
scaled to a nominal machine speed (speed.py).  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import gen

HERE = Path(__file__).resolve().parent
SETUP_SAMPLES = 7
WORKER_TIMEOUT_S = 150


def setup_seconds(env: dict) -> float:
    """Time from starting a fresh interpreter to ``import coslie`` returning.

    The child prints its CLOCK_MONOTONIC reading after the import; the
    parent read the same clock just before starting it.
    """
    start = time.monotonic()
    out = subprocess.run(
        [sys.executable, "-c", "import time, coslie; print(repr(time.monotonic()))"],
        env=env, stdout=subprocess.PIPE, check=True, timeout=60,
    ).stdout
    return float(out) - start


def git_revision(root: Path) -> str:
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[len("ref: "):]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return f"unknown ({name})"


def main() -> int:
    parser = argparse.ArgumentParser(description="coslie benchmark, one run")
    parser.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path.cwd().resolve()
    if not (root / "src" / "coslie" / "__init__.py").is_file():
        print(f"no src/coslie under {root}: run from the repository root", file=sys.stderr)
        return 2
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH")) if p
    )
    env["PYTHONHASHSEED"] = "0"  # set iteration order, so traced counts repeat
    record = {
        "interpreter": sys.executable,
        "python": sys.version.split()[0],
        "git_revision": git_revision(root),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_start": os.getloadavg(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }

    setup = [] if args.trace else [setup_seconds(env) for _ in range(SETUP_SAMPLES)]
    workdir = root / ".perfbench_work" / f"{args.workload}-{args.seed}-t{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace), "--workdir", str(workdir)],
            env=env, cwd=root, stdout=subprocess.PIPE, timeout=WORKER_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        print(f"worker passed {WORKER_TIMEOUT_S} s", file=sys.stderr)
        return 1
    if proc.returncode != 0:
        print(f"worker exited with {proc.returncode}", file=sys.stderr)
        return 1
    result = json.loads(proc.stdout.decode("utf-8").strip().splitlines()[-1])

    metrics = result["metrics"]
    if not args.trace:
        # scaled like the worker's op times; the probe ran right after
        scale = result["detail"]["speed_scale"]
        metrics = {"setup_s": {"value": statistics.median(setup) * scale, "unit": "s"}, **metrics}
        result["detail"].update({"measured_setup_s": statistics.median(setup), "setup_samples_s": setup})
    record["loadavg_end"] = os.getloadavg()
    record["failed_ratio"] = result["failed"] / result["attempted"]
    record.update(result["detail"])
    print(json.dumps(record, ensure_ascii=False))
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
