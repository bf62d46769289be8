"""hmmrisk benchmark: seeded CLI workloads, end-to-end metrics and an
outside-in per-layer trace.

Usage (from the repository root):

    python3 perfbench/run.py --workload decode-long --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload decode-long --seed 1 --seconds 30 --trace 1

One single-threaded client runs the workload's CLI commands in process
through ``hmmrisk.cli.main``, in a closed loop: each command starts when the
previous one has finished and its output has been checked.  End-to-end
times are in reference seconds (``refclock.py``), which stay steady while
the speed of a shared CPU swings.  With ``--trace 0`` the last stdout line
is a JSON object with the end-to-end metrics; with ``--trace 1`` it carries
the per-layer metrics.  Earlier lines print every metric with its unit, plus
``ops_failed_frac`` and the run metadata.  Inputs, outputs, spans and a
full result file go to ``perfbench/.work/<workload>-seed<n>-trace<0|1>/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import refclock
import tracer as tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_PROBES = 15
MIN_REPEATS = 3

SETUP_PROBE = """
import sys
from hmmrisk import io as hio
model = hio.load_model(sys.argv[1])
for path in sys.argv[2:]:
    hio.load_observations(path, model)
"""

# One pass over the op list in a fresh interpreter; prints its peak RSS in
# KiB.  VmHWM, not ru_maxrss: Linux carries the spawning process's peak into
# the child's ru_maxrss across exec.
MEMORY_PROBE = """
import contextlib, io, json, sys
import hmmrisk.cli
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        hmmrisk.cli.main(argv)
with open("/proc/self/status") as fh:
    print(next(line.split()[1] for line in fh if line.startswith("VmHWM:")))
"""


def import_hmmrisk():
    """Import the package from this checkout's ``src/``; exit with an error if it is absent."""
    if not (SRC / "hmmrisk" / "__init__.py").is_file():
        sys.exit(f"error: {SRC / 'hmmrisk'} not found; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import hmmrisk
    import hmmrisk.cli

    if Path(hmmrisk.__file__).resolve().parent != (SRC / "hmmrisk").resolve():
        sys.exit(f"error: imported hmmrisk from {hmmrisk.__file__}, not from {SRC}")
    return hmmrisk


def _run_python(code: str, *args: str) -> str:
    """Run ``code`` in a fresh interpreter that imports hmmrisk from ``src/``."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    argv = [sys.executable, "-c", code, *args]
    return subprocess.run(argv, env=env, cwd=ROOT, check=True, capture_output=True, text=True).stdout


class SetupProbe:
    """Times fresh interpreters that import hmmrisk and parse the workload's
    input files, as every CLI call does before its first recursion."""

    def __init__(self, workload, clock: refclock.ReferenceClock):
        self.args = [workload.model, *workload.observations]
        self.clock = clock
        self.times: list[float] = []  # reference seconds
        self.walls: list[float] = []

    def __call__(self) -> None:
        _, cost, wall = self.clock.measure(_run_python, SETUP_PROBE, *self.args, children=True)
        self.times.append(cost)
        self.walls.append(wall)


def peak_rss_mb(workload) -> float:
    """Peak RSS of a fresh process that runs one pass of the workload.  A
    fresh process keeps the harness's own state out of the figure: in the
    long-lived benchmark process the same peak read 61 or 74 MB on wide-k32
    from run to run."""
    return int(_run_python(MEMORY_PROBE, json.dumps([list(op.argv) for op in workload.ops])).split()[-1]) / 1024.0


class Client:
    """Runs ops one at a time, times each, and checks each output untimed."""

    def __init__(self, hmmrisk, workload, clock: refclock.ReferenceClock):
        self.cli = hmmrisk.cli  # main is looked up per call, so a traced cycle sees its wrapper
        self.workload = workload
        self.clock = clock
        self.checker = checks.Checker()
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def _call(self, argv):
        try:
            return checks.run_cli(self.cli.main, argv)
        except Exception as exc:  # an op that raises is a failed op, not a harness error
            return None, "", f"{type(exc).__name__}: {exc}"

    def run_op(self, op, tracer=None, cycle=0) -> tuple[float, float]:
        """Run and check one op; return its cost in reference seconds and its wall time."""
        self.attempted += 1
        if tracer is not None:
            tracer.context = {"op": self.attempted, "cycle": cycle}
        (code, stdout, stderr), cost, wall = self.clock.measure(self._call, op.argv)
        if tracer is not None:
            tracer.context = None
        if code != 0:
            problems = [f"exit code {code}: {stderr.strip()[-300:]}"]
        else:
            problems = self.checker.check(op, stdout)
        if problems:
            self.failed += 1
            self.failures.append(f"{op.label}: {'; '.join(problems)}")
        return cost, wall

    def cycle(self, tracer=None, cycle=0) -> list[tuple[float, float]]:
        return [self.run_op(op, tracer, cycle) for op in self.workload.ops]


def _median_cost(repetitions) -> float:
    return statistics.median(cost for cost, _ in repetitions)


def end_to_end(client: Client, seconds: float, probe: SetupProbe) -> tuple[dict, dict]:
    """Repeat the op list for ``seconds``, at least ``MIN_REPEATS`` times.
    Throughput uses each op's median cost in reference seconds; set-up time
    is the median probe, the probes spread over the run between ops.  See
    README.md for why."""
    ops = client.workload.ops
    op_times = [[] for _ in ops]  # (reference seconds, wall seconds) per repetition
    start = time.perf_counter()
    deadline = start + seconds
    while len(op_times[-1]) < MIN_REPEATS or time.perf_counter() < deadline:
        for op, times in zip(ops, op_times):
            if len(times) >= MIN_REPEATS and time.perf_counter() >= deadline:
                break
            times.append(client.run_op(op))
            due = start + len(probe.times) * seconds / SETUP_PROBES
            if len(probe.times) < SETUP_PROBES and time.perf_counter() >= due:
                probe()
    while len(probe.times) < SETUP_PROBES:
        probe()
    positions = sum(op.positions for op in ops)
    metrics = {
        "positions_per_s": (positions / sum(_median_cost(times) for times in op_times), "positions/s"),
        "setup_s": (statistics.median(probe.times), "s"),
        "peak_rss_mb": (peak_rss_mb(client.workload), "MB"),
    }
    details = {
        "op_reference_seconds": {op.label: [cost for cost, _ in t] for op, t in zip(ops, op_times)},
        "op_seconds": {op.label: [wall for _, wall in t] for op, t in zip(ops, op_times)},
        "wall_positions_per_s": positions / sum(statistics.median(wall for _, wall in t) for t in op_times),
        "setup_reference_seconds": probe.times,
        "setup_seconds": probe.walls,
        "benchmark_process_peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return metrics, details


def per_layer(client: Client, seconds: float, tracer: tracing.Tracer) -> tuple[dict, dict]:
    """Alternate untraced and traced passes over the op list for ``seconds``,
    untraced first, so every traced pass runs warm.  Layer metrics are per
    traced pass and come from the tracer's wall clock; the overhead compares
    each op's median traced and untraced cost in reference seconds."""
    wrappers = tracing.hmmrisk_wrappers(tracer)
    untraced, traced = [], []
    deadline = time.perf_counter() + seconds
    while not traced or time.perf_counter() < deadline:
        untraced.append(client.cycle())
        undo = tracing.install(wrappers)
        try:
            traced.append(client.cycle(tracer, cycle=len(traced)))
        finally:
            tracing.uninstall(undo)
    cycles = len(traced)
    summary = tracing.summarize(tracer.spans)
    metrics = {}
    for name in tracing.TARGETS:
        row = summary.get(name, {"calls": 0, "self_s": 0.0, "steps": 0, "errors": 0})
        metrics[f"{name}.calls"] = (row["calls"] / cycles, "count")
        metrics[f"{name}.self_s"] = (row["self_s"] / cycles, "s")
        if name in tracing.STEP_KERNELS:
            metrics[f"{name}.us_per_step"] = (1e6 * row["self_s"] / row["steps"] if row["steps"] else 0.0, "us")
        metrics[f"{name}.errors"] = (row["errors"] / cycles, "count")
        if name in tracing.DISTINCT:
            metrics[f"{name}.distinct_frac"] = (row.get("distinct", 0) / row["calls"] if row["calls"] else 0.0, "frac")
    rabiner = summary.get("decoders.rabiner_block_decode", {})
    metrics["decoders.rabiner_block_decode.window_bytes"] = (rabiner.get("window_bytes", 0), "bytes_computed")
    cost_traced, cost_untraced = (sum(map(_median_cost, zip(*passes))) for passes in (traced, untraced))
    metrics["trace.overhead_frac"] = ((cost_traced - cost_untraced) / cost_untraced, "frac")
    # cli.main is every op's root span: its self time is whatever no other
    # wrapped function covers, so it is left out of the share.
    self_total = sum(row["self_s"] for name, row in summary.items() if name != "cli.main")
    traced_wall = sum(wall for passes in traced for _, wall in passes)
    metrics["trace.self_s_share"] = (self_total / traced_wall, "frac")
    return metrics, {"untraced_pass_seconds": untraced, "traced_pass_seconds": traced}


def run_metadata() -> dict:
    import numpy as np

    head = ROOT / ".git" / "HEAD"
    sha = "unknown (not a git checkout)"
    if head.is_file():
        ref = head.read_text().strip()
        sha = ref
        if ref.startswith("ref: ") and (ROOT / ".git" / ref[5:]).is_file():
            sha = (ROOT / ".git" / ref[5:]).read_text().strip()
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = {var: os.environ.get(var, "unset") for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "src_lines": sum(len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py"))),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.BUILDERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    hmmrisk = import_hmmrisk()
    workdir = ROOT / "perfbench" / ".work" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    workload = workloads.generate(args.workload, args.seed, workdir)
    with refclock.ReferenceClock() as clock:
        client = Client(hmmrisk, workload, clock)
        if args.trace:
            tracer = tracing.Tracer()
            metrics, details = per_layer(client, args.seconds, tracer)
            tracer.write(workdir / "spans.jsonl")
        else:
            metrics, details = end_to_end(client, args.seconds, SetupProbe(workload, clock))
    failed_frac = client.failed / client.attempted
    meta = run_metadata()
    result = {
        "correct": client.failed == 0,
        "attempted": client.attempted,
        "failed": client.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    full = {**result, "ops_failed_frac": failed_frac, "failures": client.failures, "details": details, "meta": meta}
    (workdir / "result.json").write_text(json.dumps(full, indent=1) + "\n")

    print(f"# workload {args.workload}, seed {args.seed}, trace {args.trace}; details in {workdir / 'result.json'}")
    for key, value in meta.items():
        print(f"# {key}: {value}")
    for label, costs in details.get("op_reference_seconds", {}).items():
        walls = details["op_seconds"][label]
        print(f"# op {label}: n={len(costs)} median {statistics.median(costs):.4f} reference s, "
              f"{statistics.median(walls):.4f} wall s")
    if "wall_positions_per_s" in details:
        print(f"# wall_positions_per_s {details['wall_positions_per_s']:.6g} (informational, not steady)")
    for failure in client.failures[:20]:
        print(f"# FAILED {failure}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(f"ops_failed_frac {failed_frac:.6g} frac ({client.failed} of {client.attempted} ops)")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
