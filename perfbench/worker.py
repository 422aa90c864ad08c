"""One benchmark run, in a fresh interpreter started by run.py.

    python3 perfbench/worker.py --workload W --seed N --seconds S --trace 0|1 --workdir DIR

The repository's src/ must come first on PYTHONPATH.  The worker writes
each round's generated files into DIR, runs the operations one after
another (a closed loop with one client), checks every answer outside the
timed region and prints one JSON object as the last line of stdout.

Untraced (--trace 0): whole rounds run until S seconds have passed (at
least one), so every run weighs the case kinds of a round alike.  Times are
scaled to a nominal machine speed by speed.py; the measured values are in
the details.  Traced (--trace 1): each operation of a fixed number
of rounds runs once untraced and once traced, so the per-layer counts
repeat exactly and the two times give the tracing overhead.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import resource
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import gen
import oracle
import speed
import tracing

OP_TIMEOUT_S = 60
# rounds of a traced run: about 5 s of untraced work on each workload
TRACE_ROUNDS = {"catalog": 1, "exists": 3, "structures": 3, "symbolic": 6}
FACT_SHARES = ("expected", "dense", "symbolic", "dim")


class OpTimeout(BaseException):
    """Raised by SIGALRM when an in-process operation passes its timeout.
    A BaseException, so the program's own ``except Exception`` cannot
    swallow it."""


def _alarm(signum, frame):
    raise OpTimeout()


def execute(op, workdir: Path, in_process: bool) -> tuple:
    """(exit code, stdout, seconds, error) of one operation; the clock
    covers only the program's work, not writing or checking files."""
    argv = [a.replace("{dir}", str(workdir)) for a in op.argv]
    if op.fresh_process and not in_process:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "coslie.cli", *argv],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        try:
            out, err = proc.communicate(timeout=OP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            return None, "", time.perf_counter() - start, "timeout"
        seconds = time.perf_counter() - start
        error = None if proc.returncode in (0, 1) else err.decode(errors="replace")[-300:]
        return proc.returncode, out.decode("utf-8"), seconds, error

    from coslie import cli

    out, err = io.StringIO(), io.StringIO()
    signal.setitimer(signal.ITIMER_REAL, OP_TIMEOUT_S)
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
        error = None
    except OpTimeout:
        rc, error = None, "timeout"
    except Exception as exc:  # a crash of the program is a failed op
        rc, error = None, f"{type(exc).__name__}: {exc}"[:300]
    finally:
        seconds = time.perf_counter() - start
        signal.setitimer(signal.ITIMER_REAL, 0)
    if error is None and rc not in (0, 1):
        error = f"exit code {rc}: {err.getvalue()[-300:]}"
    return rc, out.getvalue(), seconds, error


def write_files(ops, workdir: Path) -> None:
    for op in ops:
        for name, text in op.files.items():
            (workdir / name).write_text(text, encoding="utf-8")


def shares(records) -> dict:
    """Share of the attempted ops having each value of each recorded fact."""
    out = {}
    for key in FACT_SHARES:
        counts = Counter(str(r["facts"].get(key)) for r in records)
        out[key] = {k: round(v / len(records), 4) for k, v in sorted(counts.items())}
    return out


def timed_run(stream, workdir: Path, seconds: float) -> dict:
    records, probe = [], speed.Probe()
    deadline = time.perf_counter() + seconds
    rounds = 0
    while rounds == 0 or time.perf_counter() < deadline:
        ops = stream.round(rounds)
        write_files(ops, workdir)
        for op in ops:
            probe.sample()
            gc.collect()  # every op starts from a collected heap
            rc, out, secs, error = execute(op, workdir, in_process=False)
            reason = error or oracle.check(op, rc, out)
            records.append({"op": op.name, "kind": op.kind, "round": rounds,
                            "s": secs, "failed": reason, "facts": op.facts})
        rounds += 1

    lat = [r["s"] for r in records]
    completed = sum(1 for r in records if not r["failed"])
    scale = probe.scale()
    who = resource.RUSAGE_CHILDREN if stream.workload == "catalog" else resource.RUSAGE_SELF
    metrics = {
        "ops_per_s": {"value": completed / (sum(lat) * scale), "unit": "1/s"},
        "op_p50_ms": {"value": statistics.median(lat) * 1000 * scale, "unit": "ms"},
        "peak_rss_mb": {"value": resource.getrusage(who).ru_maxrss / 1024, "unit": "MB"},
    }
    by_kind = {}
    for r in records:
        by_kind.setdefault(r["kind"], []).append(r["s"])
    detail = {
        "rounds": rounds,
        "samples": len(lat),
        "speed_scale": scale,
        "reference_samples": len(probe.samples),
        "measured_ops_per_s": completed / sum(lat),
        "measured_op_p50_ms": statistics.median(lat) * 1000,
        "op_p90_ms": statistics.quantiles(lat, n=10)[8] * 1000 * scale if len(lat) >= 100 else None,
        "kind_p50_ms": {k: round(statistics.median(v) * 1000 * scale, 3)
                        for k, v in sorted(by_kind.items())},
    }
    return finish(records, metrics, detail, workdir)


def traced_run(stream, workdir: Path) -> dict:
    ops = [op for r in range(TRACE_ROUNDS[stream.workload]) for op in stream.round(r)]
    write_files(ops, workdir)
    tracer = tracing.Tracer()
    plain, traced = [], []
    for op in ops:  # interleaved, so drift in machine speed hits both alike
        gc.collect()
        plain.append(execute(op, workdir, in_process=True))
        gc.collect()
        tracer.install()
        try:
            traced.append(execute(op, workdir, in_process=True))
        finally:
            tracer.uninstall()
    records = []
    for op, (rc, out, secs, error), (trc, tout, tsecs, terror) in zip(ops, plain, traced):
        tracer.stdout_bytes += len(tout.encode("utf-8"))
        reason = error or terror or oracle.check(op, rc, out)
        if reason is None and (trc, tout) != (rc, out):
            reason = "traced output differs from untraced output"
        records.append({"op": op.name, "kind": op.kind, "s": secs, "traced_s": tsecs,
                        "failed": reason, "facts": op.facts})
    overhead = sum(r["traced_s"] for r in records) / sum(r["s"] for r in records)
    tracer.write_spans(workdir / "spans.tsv")
    detail = {"rounds": TRACE_ROUNDS[stream.workload], "spans_file": str(workdir / "spans.tsv")}
    return finish(records, tracer.metrics(overhead), detail, workdir)


def finish(records, metrics, detail, workdir: Path) -> dict:
    with open(workdir / "ops.jsonl", "w", encoding="utf-8") as fh:
        for r in records:
            fh.write(json.dumps(r, ensure_ascii=False) + "\n")
    failures = [f"{r['op']}: {r['failed']}" for r in records if r["failed"]]
    detail.update({"ops_log": str(workdir / "ops.jsonl"), "shares": shares(records),
                   "failures": failures[:5]})
    return {"attempted": len(records), "failed": len(failures), "metrics": metrics,
            "detail": detail}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--workdir", required=True)
    args = parser.parse_args()

    import coslie

    src = Path.cwd().resolve() / "src"
    if Path(coslie.__file__).resolve().parent.parent != src:
        print(f"coslie imported from {coslie.__file__}, not from {src}", file=sys.stderr)
        return 2
    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    signal.signal(signal.SIGALRM, _alarm)
    stream = gen.Stream(args.workload, args.seed)
    if args.trace:
        result = traced_run(stream, workdir)
    else:
        result = timed_run(stream, workdir, args.seconds)
    print(json.dumps(result, ensure_ascii=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
