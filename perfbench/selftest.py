"""Fast self-test of the benchmark itself (about 30 s).

    python3 perfbench/selftest.py

Checks that a tiny run of every workload prints exactly the metrics that
BENCHMARK.json lists, with their units, and that a corrupted program output
is counted as a failed op instead of passing.  It is a script, not a pytest
module, so the repository's test command does not collect it.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

import run

SEED = 7


def tiny_run(workload: str, trace: int) -> dict:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = run.main(["--workload", workload, "--seed", str(SEED), "--seconds", "0",
                       "--trace", str(trace)])
    if rc != 0:
        raise AssertionError(f"{workload} trace={trace}: exit status {rc}")
    return json.loads(buf.getvalue().strip().splitlines()[-1])


def check_metric_names(spec: dict) -> None:
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        want = {m["name"]: m["unit"] for m in spec[key]}
        for w in spec["workloads"]:
            res = tiny_run(w["name"], trace)
            got = {name: m["unit"] for name, m in res["metrics"].items()}
            if got != want:
                raise AssertionError(f"{w['name']} trace={trace}: metrics {sorted(got)} "
                                     f"differ from BENCHMARK.json {key} {sorted(want)}")
            if not (res["correct"] and res["failed"] == 0 and res["attempted"] >= 1):
                raise AssertionError(f"{w['name']} trace={trace}: {res}")
            print(f"ok: {w['name']} trace={trace} prints {len(got)} metrics")


def failures_with(workloads, name: str, corrupt) -> tuple[int, int]:
    """(failed, attempted) of one block whose outputs pass through ``corrupt``."""
    workload = workloads.WORKLOADS[name](SEED, run.WORKDIR)
    real = workload.execute
    workload.execute = lambda op: corrupt(op, real(op))
    with contextlib.redirect_stderr(io.StringIO()):
        result = run.run_ops(workload, 0)
    return result.failed, result.attempted


def perturb_csv_value(op, output):
    rc, text = output
    if op.label != "sweep":
        return output
    lines = text.splitlines(keepends=True)
    fields = lines[50].split(",")
    fields[2] = repr(float(fields[2]) + 1e-9)
    lines[50] = ",".join(fields)
    return rc, "".join(lines)


def flip_tsv_status(op, output):
    path = Path(op.out + ".tsv")
    rows = path.read_text().splitlines(keepends=True)
    name, status, rest = rows[0].split("\t", 2)
    rows[0] = "\t".join((name, "Mismatch" if status == "Match" else "Match", rest))
    path.write_text("".join(rows))
    return output


def check_corruption(workloads) -> None:
    failed, attempted = failures_with(workloads, "float_sweep", perturb_csv_value)
    sweeps = attempted * 3 // 4  # one op in four is `curves`
    if failed != sweeps:
        raise AssertionError(f"perturbed CSV: {failed} of {attempted} ops failed, "
                             f"expected {sweeps}")
    print(f"ok: one perturbed CSV value per sweep fails {failed} of {attempted} ops")
    failed, attempted = failures_with(workloads, "exact_verify", flip_tsv_status)
    if (failed, attempted) != (1, 1):
        raise AssertionError(f"flipped TSV status: {failed} of {attempted} ops failed")
    print("ok: one flipped TSV status fails the verify op")


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    run.load_program()
    run.WORKDIR.mkdir(exist_ok=True)
    import workloads

    check_corruption(workloads)
    check_metric_names(spec)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
