"""teleportsim benchmark: seeded closed-loop workloads with oracle-checked outputs.

    python3 perfbench/run.py --workload float_sweep --seed 1 --seconds 36 --trace 0

Run it from anywhere inside a checkout; it imports the package from the
checkout's ``src/`` and writes only under ``.perfbench_work/``.  One
process, one thread, one client: each op starts when the previous one has
returned.  Ops call the package's public entry points in process, mostly
``teleportsim.cli.main``.

``--trace 0`` measures the end-to-end metrics.  ``--trace 1`` runs the same
ops twice, first untraced and then with the probes of :mod:`tracer`
installed, and reports per-layer metrics plus the tracing overhead.  Either
way the last line of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Lines before it give every metric with its unit and sample count, the
error rate, and the provenance of the run.
"""

from __future__ import annotations

import os

# Before numpy is imported: one BLAS thread, as on a shared two-core box.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import hashlib
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".perfbench_work"

SETUP_REPEATS = 15
SETUP_CODE = (
    "import sys; sys.path.insert(0, sys.argv[1]); "
    "import teleportsim.cli as cli; cli.build_parser()"
)
# The set-up reference: a fresh interpreter that imports a fixed set of
# standard-library modules.  Process start and module loading speed up and
# slow down with the host differently from in-process arithmetic, so set-up
# is measured against this, not against reference_seconds().
STARTUP_REFERENCE_CODE = "import argparse, csv, dataclasses, enum, fractions, json, typing"
# setup_s is the median set-up cost in startup refs times this many seconds:
# the startup reference's median in a probe of 60 timings on the host where
# the seed baseline was taken (an Intel Xeon with 2 vCPUs), so that the
# figure reads as seconds there
STARTUP_REFERENCE_NOMINAL_S = 0.07
TAIL_MIN_OPS = 100  # report p90 only with at least 10 samples beyond it
REFERENCE_EVERY_S = 0.5
MAX_REPORTED_PROBLEMS = 5


def load_program():
    """Import teleportsim from this checkout's src/, and from nowhere else."""
    package = SRC / "teleportsim"
    if not (package / "__init__.py").is_file():
        sys.exit(f"perfbench: no teleportsim package at {package}; run inside a checkout")
    sys.path.insert(0, str(SRC))
    import teleportsim

    if Path(teleportsim.__file__).resolve().parent != package:
        sys.exit(f"perfbench: imported teleportsim from {teleportsim.__file__}, not {package}")


# --- running ops -------------------------------------------------------------------


def reference_seconds() -> float:
    """Time a fixed pure-Python computation of about 14 ms.

    On a shared host the same code can run up to twice as fast at one
    moment as at another.  An op's cost is its latency
    divided by the mean of the reference timings just before and just after
    it, so that host-speed drift cancels.  The computation uses only the
    standard library, and it runs with garbage collection off, so neither
    the program's code nor the objects it keeps alive can change it.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        acc = 0
        for k in range(30000):
            acc += k * k
        table = {k: Fraction(k, 7) for k in range(10000)}
        del acc, table
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class Run:
    """What one pass over a sequence of blocks observed."""

    def __init__(self):
        self.latencies: list[float] = []
        self.references: list[float] = []
        self.bracket: list[int] = []  # per latency: index of the reference before it
        self.attempted = 0
        self.failed = 0
        self.points = 0
        self.blocks = 0
        self.mix: dict[str, int] = {}

    @property
    def timed_s(self) -> float:
        return sum(self.latencies)

    @property
    def costs(self) -> list[float]:
        """Latencies in refs: over the mean of the bracketing reference timings."""
        refs = self.references
        return [2 * lat / (refs[k] + refs[k + 1]) for lat, k in zip(self.latencies, self.bracket)]


def run_ops(workload, seconds: float, blocks=None, tracer=None, between=None) -> Run:
    """Closed loop over whole blocks for ``seconds`` of wall time (or ``blocks`` blocks).

    Output checks run between ops, outside the timed interval, but inside
    the wall-time budget, so a run's length does not depend on how costly
    its checks are.  ``between(elapsed)`` is called after every block.
    """
    run = Run()
    clock = time.perf_counter
    began = clock()
    reference_at = -REFERENCE_EVERY_S
    while blocks is None or run.blocks < blocks:
        for op in workload.block():
            if clock() - reference_at >= REFERENCE_EVERY_S:
                run.references.append(reference_seconds())
                reference_at = clock()
            run.attempted += 1
            run.mix[op.label] = run.mix.get(op.label, 0) + 1
            execute = workload.execute
            if tracer is not None:
                tracer.op_id = run.attempted
                execute = tracer.span("op." + op.label, execute)
            try:
                start = clock()
                output = execute(op)
                run.latencies.append(clock() - start)
                run.bracket.append(len(run.references) - 1)
                problems = workload.check(op, output)
            except Exception:  # the op boundary: count it and keep going
                problems = [traceback.format_exc()]
            if problems:
                run.failed += 1
                if run.failed <= MAX_REPORTED_PROBLEMS:
                    print(f"perfbench: {op.label} {op.argv} failed: {problems[:3]}",
                          file=sys.stderr)
            else:
                run.points += op.points
        run.blocks += 1
        elapsed = clock() - began
        if between is not None:
            between(elapsed)
        if blocks is None and elapsed >= seconds:
            break
    run.references.append(reference_seconds())
    return run


def warm_up(workload) -> None:
    """One untimed op, so lazy imports and gate caches are built before timing.

    It draws the workload's first block and runs only that block's first op.
    """
    op = workload.block()[0]
    workload.check(op, workload.execute(op))


class SetupTimer:
    """Set-up cost: fresh interpreters that import teleportsim and build the parser.

    Called between blocks, it spreads its runs evenly over the timed loop, so
    the median sees the same machine conditions as the ops do.  Each run
    happens while no op is in flight, between two runs of the startup
    reference, and its cost is its wall time over their mean.
    """

    def __init__(self, seconds: float):
        self.gap = seconds / SETUP_REPEATS
        self.times: list[float] = []  # wall seconds
        self.costs: list[float] = []  # startup refs
        # the first runs may write bytecode caches: untimed
        self._spawn(SETUP_CODE)
        self._spawn(STARTUP_REFERENCE_CODE)

    @staticmethod
    def _spawn(code: str) -> float:
        # no timeout: with one, the wait polls in sleeps of up to 50 ms,
        # which would round the measured time
        cmd = [sys.executable, "-c", code, str(SRC)]
        start = time.perf_counter()
        subprocess.run(cmd, cwd=ROOT, env=os.environ, check=True, stdout=subprocess.DEVNULL)
        return time.perf_counter() - start

    def _record(self) -> None:
        before = self._spawn(STARTUP_REFERENCE_CODE)
        wall = self._spawn(SETUP_CODE)
        after = self._spawn(STARTUP_REFERENCE_CODE)
        self.times.append(wall)
        self.costs.append(2 * wall / (before + after))

    def __call__(self, elapsed: float) -> None:
        if len(self.times) < SETUP_REPEATS and elapsed >= self.gap * len(self.times):
            self._record()

    def finish(self) -> "SetupTimer":
        while len(self.times) < SETUP_REPEATS:
            self._record()
        return self


# --- metrics -------------------------------------------------------------------------


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(run: Run, setup: SetupTimer) -> tuple[dict, list[str]]:
    lat, costs = run.latencies, run.costs
    n = len(lat)
    setup_ref = statistics.median(setup.costs)
    metrics = {
        "setup_s": metric(setup_ref * STARTUP_REFERENCE_NOMINAL_S, "s"),
        "ops_per_ref": metric(n / sum(costs), "1/ref"),
        "op_ref.p50": metric(statistics.median(costs), "ref"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    reference = statistics.median(run.references)
    notes = [
        f"setup_s: median of {len(setup.costs)} fresh interpreters, {setup_ref:.6g} startup refs "
        f"at {STARTUP_REFERENCE_NOMINAL_S} s each; wall median {statistics.median(setup.times):.6g} s",
        f"ops_per_ref, op_ref.p50: {n} ops; 1 ref = the reference computation, "
        f"median {reference:.6g} s over {len(run.references)} timings",
        f"ops_per_s = {n / run.timed_s:.6g} 1/s ({n} ops, {run.timed_s:.3f} s of op time)",
        f"op_s.p50 = {statistics.median(lat):.6g} s ({n} samples)",
    ]
    if n >= TAIL_MIN_OPS:
        p90 = statistics.quantiles(lat, n=10)[8]
        notes.append(f"op_s.p90 = {p90:.6g} s ({n} samples, {n - int(0.9 * n)} beyond it)")
    else:
        notes.append(f"op_s.p90 not reported: {n} ops, fewer than {TAIL_MIN_OPS}")
    notes.append(f"points_per_s = {run.points / run.timed_s:.6g} 1/s "
                 f"({run.points} oracle-checked fidelity values)")
    return metrics, notes


# Layers reported by --trace 1; BENCHMARK.json lists the same names, which
# the self-test checks.
PER_LAYER_CALLS = (
    "linalg.conjugate_by",
    "linalg.operator_init",
    "linalg.tensor",
    "channels.apply_layer",
    "channels.apply_to_qubit",
    "teleport.run_stages",
    "exact.polyp_mul",
    "exact.polyp_add",
    "exact.extract_transfer_map",
    "exact.run_pipeline_symbolic",
)
PER_LAYER_SELF = (
    "linalg.conjugate_by",
    "linalg.fidelity_with",
    "linalg.hermitian_eigenvalues",
    "channels.apply_layer",
    "channels.apply_to_qubit",
    "teleport.initial_stage",
    "teleport.gate_stage",
    "teleport.noise_stage",
    "teleport.measure_stage",
    "analytic.fidelity_closed",
    "analytic.fidelity_linear",
    "cli.build_parser",
    "cli.cmd_trace",
    "cli.run_sweep",
    "charts.render_line_chart",
    "exact.polyp_mul",
    "exact.extract_transfer_map",
    "exact.run_pipeline_symbolic",
    "verify.run_verification",
)


def per_layer(tracer, workload, ops: int, overhead: float) -> tuple[dict, list[str]]:
    """Per-op layer metrics from the traced pass."""
    calls, self_s = tracer.calls, tracer.self_s
    metrics = {}
    for name in PER_LAYER_CALLS:
        metrics[f"{name}.calls"] = metric(calls.get(name, 0) / ops, "count/op")
    for name in PER_LAYER_SELF:
        metrics[f"{name}.self_s"] = metric(self_s.get(name, 0.0) / ops, "s/op")
    for kind in ("depolarizing", "bitflip", "phaseflip"):
        runs = tracer.runs.get(kind, 0)
        per_point = tracer.run_conjugations[kind] / runs if runs else 0.0
        metrics[f"linalg.conjugate_by.calls_per_point.{kind}"] = metric(per_point, "count")
    hits = workload.cache_hits
    lookups = hits + workload.cache_misses
    metrics["exact.transfer_map_cache.lookups"] = metric(lookups / ops, "count/op")
    hit_ratio = hits / lookups if lookups else 0.0
    metrics["exact.transfer_map_cache.hit_ratio"] = metric(hit_ratio, "ratio")
    metrics["trace.overhead_ratio"] = metric(overhead, "ratio")
    notes = [
        f"per-layer values are per op over {ops} traced ops",
        f"exact.transfer_map_cache.hit_ratio base: {hits} hits of {lookups} lookups",
        f"linalg.conjugate_by.calls_per_point base: {dict(tracer.runs)} pipeline runs",
        f"spans logged: {tracer.span_count}",
    ]
    return metrics, notes


# --- provenance ----------------------------------------------------------------------


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_sha() -> str | None:
    """HEAD of the checkout, read from .git without running git; None outside a repo."""
    git = ROOT / ".git"
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


def source_digest() -> str:
    """sha256 over the package sources, which identifies the code outside git too."""
    h = hashlib.sha256()
    for path in sorted((SRC / "teleportsim").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def provenance(args, workload) -> dict:
    import numpy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu": cpu_model(),
        "nproc": os.cpu_count(),
        "git_sha": git_sha(),
        "source_sha256": source_digest(),
        "inputs": workload.sizes(),
        "client": "closed loop, 1 client, 1 thread",
    }


# --- main ------------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    load_program()
    import workloads
    from tracer import Tracer

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(workloads.WORKLOADS)}")
    WORKDIR.mkdir(exist_ok=True)
    workload = workloads.WORKLOADS[args.workload](args.seed, WORKDIR)
    prov = provenance(args, workload)

    warm_up(workload)
    if args.trace == 0:
        setup = SetupTimer(args.seconds)
        run = run_ops(workload, args.seconds, between=setup)
        metrics, notes = end_to_end(run, setup.finish())
        attempted, failed, mix, latencies = run.attempted, run.failed, run.mix, run.latencies
    else:
        # untraced first, then the same blocks traced, drawn again by a second
        # workload with the same seed: the ratio of the two p50s is the
        # tracing overhead
        plain = run_ops(workload, args.seconds / 3)
        workload.harvest_cache()
        replay = workloads.WORKLOADS[args.workload](args.seed, WORKDIR)
        replay.block()  # the block that warm_up drew
        tracer = Tracer()
        tracer.install()
        try:
            traced = run_ops(replay, 0, blocks=plain.blocks, tracer=tracer)
            replay.harvest_cache()
        finally:
            tracer.uninstall()
        overhead = statistics.median(traced.costs) / statistics.median(plain.costs)
        metrics, notes = per_layer(tracer, replay, traced.attempted, overhead)
        spans = WORKDIR / f"spans-{args.workload}-seed{args.seed}.npz"
        tracer.write(spans)
        notes.append(f"spans written to {spans.relative_to(ROOT)}")
        attempted = plain.attempted + traced.attempted
        failed = plain.failed + traced.failed
        mix = plain.mix
        latencies = {"untraced": plain.latencies, "traced": traced.latencies}

    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    prov["op_mix"] = mix
    record = dict(result, provenance=prov, notes=notes, error_rate=failed / attempted,
                  latencies_s=latencies)
    out = WORKDIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=2) + "\n")

    print(f"# perfbench {args.workload} seed={args.seed} trace={args.trace}")
    print(f"# provenance {json.dumps(prov)}")
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    for note in notes:
        print(f"# {note}")
    print(f"# error_rate = {failed}/{attempted}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
