"""Benchmark of ginar: three workloads, end-to-end metrics or a traced run.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload size_grid --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics untraced; ``--trace 1``
alternates untraced passes with passes in which every layer is wrapped
(see tracing.py) and reports the per-layer metrics and the tracing
overhead. Both check the outputs; a failed check exits 1. The last line of
standard output is the result object; the line before it records the
provenance, the sample counts and any layer functions found absent.
``--smoke`` shrinks every workload to a few replications.

The package is imported from ``src/`` of the checkout this file lives in;
without it the benchmark exits 2 and prints no result.
"""

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
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".bench_build"

WORKLOADS = ("size_grid", "power_cell", "cli_session")

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s_p90", "s"),
    ("replications_per_s", "1/s"),
    ("test_ms_p90", "ms"),
    ("test_ms_p95", "ms"),
    ("simulate_ms_p95", "ms"),
    ("peak_rss_mb", "MB"),
    ("ok_fraction", "fraction"),
)

# Timings are reported at high percentiles rather than the median. On a
# shared 2-vCPU KVM guest (Xeon, Sapphire Rapids) the CPU runs about 35%
# faster for stretches of seconds, and the share of such stretches in a run
# moved its medians by up to 20% from run to run; the 90th percentile stays
# with the slow mode and moved about half as much. Simulation times mix
# series of very different lengths, so their 90th percentile sits in the
# middle of the slowest kind; the 95th is steadier. The medians are printed
# too.


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measured time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for the smoke test")
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**63:
        parser.error("--seed must lie in [0, 2**63)")
    return args


def import_package():
    """Import ginar from this checkout's src/, never from elsewhere."""
    if not (SRC / "ginar" / "__init__.py").is_file():
        print(f"error: {SRC / 'ginar'} not found; run from a checkout with the sources", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    import ginar

    if Path(ginar.__file__).resolve().parent != SRC / "ginar":
        print(f"error: imported ginar from {ginar.__file__}, expected {SRC / 'ginar'}", file=sys.stderr)
        raise SystemExit(2)
    return ginar


def git_commit():
    """The checkout's commit, read from .git without running git; None outside a repository."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def measure_setup(workload, seed, repeats):
    """Median wall time of a fresh interpreter importing ginar, building the
    workload's inputs and making one warm-up call."""
    walls = []
    for _ in range(repeats):
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)],
            cwd=ROOT,
            check=True,
            timeout=120,
        )
        walls.append(time.perf_counter() - start)
    return statistics.median(walls)


def peak_rss_mb():
    """Largest resident set of this process and of any child it waited for
    (pool workers included); ru_maxrss is in KiB on Linux."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def run_passes(workload, m, seconds, before_pass=None, untraced=contextlib.nullcontext):
    """Repeat passes until ``seconds`` have elapsed; at least two, so that a
    traced run has both kinds."""
    start = time.perf_counter()
    index = 0
    while index < 2 or time.perf_counter() - start < seconds:
        if before_pass:
            before_pass(index)
        workload.run_pass(index, m, untraced)
        index += 1


def main(argv=None):
    args = parse_args(argv)
    import_package()
    import tracing
    import workloads

    scale = workloads.SMOKE if args.smoke else workloads.FULL
    WORKDIR.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="perfbench-", dir=WORKDIR)
    try:
        workload = workloads.make(args.workload, args.seed, scale, workdir)
        m = workloads.Measurements()
        info = {}
        if args.trace:
            metrics, info = traced_run(workload, m, args, tracing)
        else:
            metrics = untraced_run(workload, m, args, scale, tracing)
        check = workload.check(m)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    info["provenance"] = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "jobs": workload.jobs,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": __import__("numpy").__version__,
        "ginar": __import__("ginar").__version__,
        "commit": git_commit(),
        "machine": platform.machine(),
    }
    info["samples"] = {
        "passes": len(m.pass_walls),
        "test_ms": len(m.test_ms),
        "simulate_ms": len(m.simulate_ms),
        "test_ms_beyond_p95": sum(1 for v in m.test_ms if v > tracing.percentile(m.test_ms, 95)),
    }
    info["medians"] = {
        "wall_s": tracing.percentile(m.pass_walls, 50),
        "test_ms": tracing.percentile(m.test_ms, 50),
        "simulate_ms": tracing.percentile(m.simulate_ms, 50),
    }
    info["check"] = check
    info["problems"] = m.problems
    print(json.dumps(info))
    correct = not m.problems
    print(json.dumps({"correct": correct, "attempted": m.attempted, "failed": m.failed, "metrics": metrics}))
    return 0 if correct else 1


def untraced_run(workload, m, args, scale, tracing):
    setup_s = measure_setup(args.workload, args.seed, scale.setup_repeats)
    workload.setup()
    run_passes(workload, m, args.seconds)
    wall = tracing.percentile(m.pass_walls, 90)
    values = {
        "setup_s": setup_s,
        "wall_s_p90": wall,
        "replications_per_s": m.items / len(m.pass_walls) / wall,
        "test_ms_p90": tracing.percentile(m.test_ms, 90),
        "test_ms_p95": tracing.percentile(m.test_ms, 95),
        "simulate_ms_p95": tracing.percentile(m.simulate_ms, 95),
        "peak_rss_mb": peak_rss_mb(),
        "ok_fraction": 1.0 - m.failed / m.attempted,
    }
    return {name: {"value": float(values[name]), "unit": unit} for name, unit in END_TO_END}


def traced_run(workload, m, args, tracing):
    """Even passes run untraced, odd passes traced; the per-layer metrics
    come from the traced ones, the overhead from the difference."""
    workload.setup()
    tracer = tracing.Tracer()

    def before_pass(index):
        tracer.uninstall()
        if index % 2:
            tracer.install()

    try:
        run_passes(workload, m, args.seconds, before_pass=before_pass, untraced=tracer.pause)
    finally:
        tracer.uninstall()
    traced, untraced = m.pass_walls[1::2], m.pass_walls[0::2]
    overhead = statistics.median(traced) - statistics.median(untraced)
    metrics = tracing.layer_metrics(tracer, len(traced), overhead, SRC)
    return metrics, {"absent": tracer.absent}


if __name__ == "__main__":
    sys.exit(main())
