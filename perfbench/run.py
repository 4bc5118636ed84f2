"""polarkit benchmark: one workload, closed loop, one process.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from anywhere inside a checkout: it imports polarkit from the checkout's
``src``.  With ``--trace 0`` it times the workload's operation back to back
for ``--seconds`` and reports the end-to-end metrics (medians over the
operations).  With ``--trace 1`` it alternates an untraced and a traced
operation and reports the per-layer metrics of README.md.  Either way it
checks every operation's output, prints a run record line describing the
machine and inputs, and prints the result as its last line of JSON.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy

import tracer
import workloads

SETUP_REPEATS = 5
NOTES = {
    "search-n64": "workers=2: encode, channel and decode run in pool worker "
                  "processes the tracer cannot see, so that work is reported "
                  "whole under montecarlo.simulate_s and montecarlo.self_s; "
                  "its split by layer is measured on the evaluate workloads.",
}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return parser.parse_args(argv)


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = workloads.ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_stats() -> tuple[int, str]:
    """Non-blank source lines under src/polarkit and a digest of the sources."""
    lines, digest = 0, hashlib.sha256()
    for path in sorted((workloads.SRC / "polarkit").rglob("*.py")):
        text = path.read_bytes()
        digest.update(path.relative_to(workloads.SRC).as_posix().encode() + b"\0" + text)
        lines += sum(1 for line in text.decode().splitlines() if line.strip())
    return lines, digest.hexdigest()


def run_record(args, workload) -> dict:
    src_lines, src_digest = _source_stats()
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "inputs": workload.inputs(),
        "machine": {"host": platform.node(), "cpu_model": _cpu_model(),
                    "nproc": os.cpu_count(),
                    "usable_cpus": len(os.sched_getaffinity(0)),
                    "loadavg_at_start": os.getloadavg()},
        "python": platform.python_version(), "numpy": numpy.__version__,
        "git_commit": _git_commit(), "src_sha256": src_digest,
        "src_lines": src_lines,
    }


def time_setup(name: str, seed: int, workdir: Path) -> float:
    """Median wall time of a fresh interpreter importing polarkit and doing
    the workload's set-up."""
    probe_dir = workdir / "probe"
    probe_dir.mkdir()
    script = Path(workloads.__file__).resolve()
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        # No timeout: with one, subprocess polls the child in steps of up to
        # 50 ms, which would quantize the time measured.
        subprocess.run([sys.executable, str(script), name, str(seed), str(probe_dir)],
                       check=True, cwd=workloads.ROOT)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


class Loop:
    """Runs operations, counting the attempted and failed ones."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = self.failed = 0

    def __call__(self, index: int):
        """One operation: (wall seconds, OpResult), or None if it failed."""
        self.attempted += 1
        try:
            start = time.perf_counter()
            result = self.workload.op(index)
            wall = time.perf_counter() - start
        except Exception:
            traceback.print_exc()
            self.failed += 1
            return None
        if result.problems:
            print(f"operation {index} failed its check: {result.problems}",
                  file=sys.stderr)
            self.failed += 1
            return None
        return wall, result


def _room_for_another(start: float, seconds: float, done: int) -> bool:
    """True while another iteration, as long as the mean one so far, still
    ends within ``seconds`` of ``start``; the first iteration always runs."""
    elapsed = time.perf_counter() - start
    return done == 0 or elapsed + elapsed / done <= seconds


def measure(loop: Loop, seconds: float, record: dict) -> dict:
    walls, results = [], []
    start = time.perf_counter()
    index = 0
    while _room_for_another(start, seconds, index):
        done = loop(index)
        index += 1
        if done is not None:
            walls.append(done[0])
            results.append(done[1])
    if not walls:
        raise SystemExit("perfbench: every operation failed")
    record["op_wall_s"] = walls
    return {
        "evals_per_s": (statistics.median(r.evals / w for w, r in zip(walls, results)), "1/s"),
        "frames_per_s": (statistics.median(r.frames / w for w, r in zip(walls, results)), "1/s"),
    }


def measure_traced(loop: Loop, seconds: float, setup_stats) -> dict:
    """Alternate untraced and traced operations on the same inputs."""
    spans = tracer.Tracer()
    plain, traced, per_op = [], [], []
    start = time.perf_counter()
    index = 0
    while _room_for_another(start, seconds, index):
        untraced = loop(index)
        with spans:
            done = loop(index)
        stats = spans.reset()
        if untraced is not None and done is not None:
            if done[1].fingerprint != untraced[1].fingerprint:
                print(f"operation {index}: tracing changed the result", file=sys.stderr)
                loop.failed += 1
            else:
                plain.append(untraced[0])
                traced.append(done[0])
                per_op.append(tracer.layer_metrics(
                    tracer.merge(setup_stats, stats), done[1].points))
        index += 1
    if not per_op:
        raise SystemExit("perfbench: no traced operation succeeded")
    # median_low picks an observed value, so counts stay whole numbers.
    metrics = {name: (statistics.median_low(m[name][0] for m in per_op), unit)
               for name, (_, unit) in per_op[0].items()}
    metrics["trace_overhead_ratio"] = (statistics.median(traced) /
                                       statistics.median(plain), "ratio")
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    workloads.import_polarkit()
    workdir = workloads.ROOT / ".perfbench_tmp" / str(os.getpid())
    workdir.mkdir(parents=True)
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
        record = run_record(args, workload)
        loop = Loop(workload)
        if args.trace:
            setup_spans = tracer.Tracer()
            with setup_spans:
                workload.setup()
            workload.warm_up()
            metrics = measure_traced(loop, args.seconds, setup_spans.reset())
            record["note"] = NOTES.get(args.workload)
        else:
            workload.setup()
            setup_s = time_setup(args.workload, args.seed, workdir)
            workload.warm_up()
            metrics = measure(loop, args.seconds, record)
            metrics["setup_s"] = (setup_s, "s")
            metrics["peak_rss_mb"] = (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
        record["failed_ratio"] = loop.failed / loop.attempted
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass
    print(json.dumps({"run_record": record}))
    print(json.dumps({
        "correct": loop.failed == 0, "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
