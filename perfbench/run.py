"""physkey benchmark: one command, one workload per process.

    python3 perfbench/run.py --workload exchange --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  Workloads (see workloads.py): ``exchange``, ``calibrate`` and
``analyze``.  With ``--trace 0`` the last line of standard output is a JSON
object with the end-to-end metrics; with ``--trace 1`` the run is split in
an untraced and a traced half and the object carries the per-layer metrics.
The environment record, and in a traced run every span, are written under
``.perfbench/`` in the checkout.

Host speed.  On a shared machine the speed of one core drifts by up to
~1.7x over seconds to minutes (load on the sibling hardware thread), which
no statistic taken inside one run removes.  Every reported time is therefore
scaled to a nominal host speed: a fixed reference kernel that does not touch
the package is timed right before and right after each timed interval, and
the interval's time is multiplied by REFERENCE_MS over the mean of the two.
Raw times are kept next to the scaled ones in the results file.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
SETUP_REPEATS = 5
# reference_kernel() on an unloaded core of the 2-vCPU Xeon the benchmark
# was tuned on; it only fixes the scale of the reported times
REFERENCE_MS = 2.5
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def import_package():
    """Put the checkout's src/ first on the path and import the benchmark's
    modules; exits with an error when the checkout holds no package."""
    if not (SRC / "physkey" / "__init__.py").is_file():
        sys.exit(f"error: no physkey package under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import spans
    import workloads
    return spans, workloads


@dataclass
class Loop:
    """Outcome of one closed loop of operations."""

    ms: list = field(default_factory=list)        # completed operations, scaled
    raw_ms: list = field(default_factory=list)
    scales: dict = field(default_factory=dict)    # operation -> speed scale
    attempted: int = 0
    failed: int = 0
    successes: list = field(default_factory=list)  # per attempted operation
    problems: list = field(default_factory=list)
    counts: dict = field(default_factory=dict)


def reference_kernel() -> float:
    """Milliseconds for a fixed mix of interpreter-bound, small-array and
    streaming numpy work that does not touch the package."""
    t0 = time.perf_counter()
    a = np.arange(81.0).reshape(9, 9) / 81.0
    v = np.ones(9)
    for _ in range(150):
        v = np.maximum(a @ v, 0.5)
    x = 0
    for i in range(15_000):
        x += i * i
    big = np.arange(150_000, dtype=np.int64)
    int(((big * 3) & 1).sum())
    return (time.perf_counter() - t0) * 1e3


def run_loop(workload, seconds: float, min_ops: int = 0, tracer=None) -> Loop:
    """Operations back to back until `seconds` have passed and at least
    `min_ops` have run; each output is checked outside the timed region."""
    loop = Loop()
    start = time.perf_counter()
    ref_before = reference_kernel()
    i = 0
    while time.perf_counter() - start < seconds or i < min_ops:
        loop.attempted += 1
        problems, counts, success, raw = [], {}, False, None
        try:
            with tracer.operation(i) if tracer else contextlib.nullcontext():
                t0 = time.perf_counter()
                out = workload.op(i)
                raw = (time.perf_counter() - t0) * 1e3
        except Exception:
            problems = [traceback.format_exc()]
        ref_after = reference_kernel()
        scale = loop.scales[i] = REFERENCE_MS / ((ref_before + ref_after) / 2)
        ref_before = ref_after
        if raw is not None:
            loop.raw_ms.append(raw)
            loop.ms.append(raw * scale)
            try:
                problems, counts = workload.check(i, out)
                success = workload.succeeded(out)
            except Exception:
                problems = [traceback.format_exc()]
        loop.successes.append(success and not problems)
        if problems:
            loop.failed += 1
            loop.problems.append({"op": i, "problems": problems})
        for name, value in counts.items():
            loop.counts.setdefault(name, []).append(value)
        i += 1
    return loop


def measure_setup(name: str, seed: int) -> tuple[list[float], list[float]]:
    """Seconds from spawning a fresh interpreter to the end of its set-up,
    for SETUP_REPEATS processes run one after another: (scaled, raw).  Each
    process times the reference kernel itself, on the core it ran on."""
    scaled, raw = [], []
    for _ in range(SETUP_REPEATS):
        spawned = time.time()
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--setup-only"],
            capture_output=True, text=True, timeout=170, check=True)
        ready, ref = json.loads(proc.stdout.strip().splitlines()[-1])
        raw.append(ready - spawned)
        scaled.append(raw[-1] * REFERENCE_MS / ref)
    return scaled, raw


def end_to_end(loop: Loop, workload, setup: list[float]) -> dict:
    ms = loop.ms or [0.0]  # no completed operation: the run reports correct=false
    first_pass = loop.successes[:workload.min_ops or None]
    return {
        "ops_per_s": (len(loop.ms) / (sum(ms) / 1e3) if loop.ms else 0.0, "1/s"),
        "op_ms_p50": (statistics.median(ms), "ms"),
        "op_ms_p95": (statistics.quantiles(ms, n=20, method="inclusive")[18]
                      if len(ms) > 1 else ms[0], "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "setup_s": (statistics.median(setup), "s"),
        "success_rate": (sum(first_pass) / len(first_pass), "ratio"),
    }


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def git_commit() -> str | None:
    try:
        proc = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def environment(args, workload) -> dict:
    import scipy
    lines = {p.name: p.read_bytes().count(b"\n")
             for p in sorted((SRC / "physkey").glob("*.py"))}
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "git_commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "inputs_sha256": workload.inputs_sha256,
        "src_lines": {**lines, "total": sum(lines.values())},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, print the wall-clock time and the "
                             "reference kernel's time, and exit")
    args = parser.parse_args(argv)

    spans, workloads = import_package()
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(workloads.WORKLOADS)}")
    setup, raw_setup = ([], []) if args.setup_only or args.trace else \
        measure_setup(args.workload, args.seed)
    (OUT / "work").mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=OUT / "work"))
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
        if args.setup_only:
            ready = time.time()
            print(json.dumps([ready, statistics.median(reference_kernel() for _ in range(3))]))
            return 0
        env = environment(args, workload)
        if not args.trace:
            loop = run_loop(workload, args.seconds, workload.min_ops)
            metrics = end_to_end(loop, workload, setup)
            traced = None
        else:
            loop = run_loop(workload, args.seconds / 2)
            tracer = spans.Tracer()
            restore = spans.install(tracer)
            try:
                traced = run_loop(workload, args.seconds / 2, tracer=tracer)
            finally:
                restore()
            metrics = spans.layer_metrics(tracer.spans, traced.scales, traced.counts)
            untraced_p50 = statistics.median(loop.ms) if loop.ms else 0.0
            metrics["trace.untraced_op_ms_p50"] = (untraced_p50, "ms")
            metrics["trace.overhead_ms"] = (metrics["trace.traced_op_ms_p50"][0]
                                            - untraced_p50, "ms")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = loop.attempted + (traced.attempted if traced else 0)
    failed = loop.failed + (traced.failed if traced else 0)
    result = {
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {"env": env, "result": result, "reference_ms": REFERENCE_MS,
              "setup_s": setup, "raw_setup_s": raw_setup,
              "op_ms": loop.ms, "raw_op_ms": loop.raw_ms,
              "problems": loop.problems + (traced.problems if traced else [])}
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=2))
    if traced:
        with open(OUT / f"{stem}-spans.jsonl", "w") as f:
            for s in tracer.spans:
                f.write(json.dumps(s) + "\n")
    print(json.dumps({"env": env}))
    for p in record["problems"][:5]:
        print(json.dumps(p))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
