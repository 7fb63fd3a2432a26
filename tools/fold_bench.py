"""Fold paired perfbench results into one BENCH_<n>.json file.

Each side is a checkout in which ``perfbench/run.py --trace 0`` has written
``.perfbench_work/result-<workload>-seed<N>-trace0.json`` files.  A pair is
one workload and seed run on both sides.  For every end-to-end metric that
``BENCHMARK.json`` lists, the output gives each side's median and [q1, q3]
over the pairs, how many pairs the change won, and the seeds, run length and
provenance behind them.

    python3 tools/fold_bench.py --parent ../parent --change . \\
        --parent-commit 678fc89 --change-commit HEAD --out BENCH_11.json
"""

from __future__ import annotations

import argparse
import json
import statistics
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# provenance fields that are the same for every run of one side
SIDE_FIELDS = ("python", "numpy", "cpu", "nproc", "git_sha", "source_sha256", "client")


def load_side(checkout: Path) -> dict[tuple[str, int], dict]:
    results = {}
    for path in sorted((checkout / ".perfbench_work").glob("result-*-trace0.json")):
        record = json.loads(path.read_text())
        prov = record["provenance"]
        results[prov["workload"], prov["seed"]] = record
    return results


def summary(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "q1_q3": [q1, q3], "runs": values}


def side_provenance(records: list[dict]) -> dict:
    first = records[0]["provenance"]
    for record in records[1:]:
        for field in SIDE_FIELDS:
            if record["provenance"].get(field) != first.get(field):
                raise SystemExit(f"{field} differs between runs of one side")
    return {field: first.get(field) for field in SIDE_FIELDS}


def fold(parent: dict, change: dict, spec: dict) -> dict:
    keys = sorted(parent.keys() & change.keys())
    if not keys:
        raise SystemExit("no workload and seed was run on both sides")
    seconds = {parent[k]["provenance"]["seconds"] for k in keys}
    seconds |= {change[k]["provenance"]["seconds"] for k in keys}
    if len(seconds) != 1:
        raise SystemExit(f"runs differ in --seconds: {sorted(seconds)}")
    workloads = {}
    for name in dict.fromkeys(w for w, _ in keys):
        seeds = [s for w, s in keys if w == name]
        sides = {"parent": [parent[name, s] for s in seeds],
                 "change": [change[name, s] for s in seeds]}
        metrics = {}
        for metric in spec["end_to_end"]:
            m = metric["name"]
            values = {side: [r["metrics"][m]["value"] for r in runs] for side, runs in sides.items()}
            sign = 1 if metric["better"] == "higher" else -1
            wins = sum(sign * (c - p) > 0 for p, c in zip(values["parent"], values["change"]))
            metrics[m] = {
                "unit": metric["unit"],
                "better": metric["better"],
                "bound": metric["bound"],
                "parent": summary(values["parent"]),
                "change": summary(values["change"]),
                "change_wins": wins,
            }
        workloads[name] = {
            "seeds": seeds,
            "pairs": len(seeds),
            "attempted": {side: sum(r["attempted"] for r in runs) for side, runs in sides.items()},
            "failed": {side: sum(r["failed"] for r in runs) for side, runs in sides.items()},
            "metrics": metrics,
        }
    return {
        "seconds": seconds.pop(),
        "trace": 0,
        "provenance": {
            "parent": side_provenance([parent[k] for k in keys]),
            "change": side_provenance([change[k] for k in keys]),
        },
        "workloads": workloads,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", type=Path, required=True, help="parent checkout")
    parser.add_argument("--change", type=Path, required=True, help="changed checkout")
    parser.add_argument("--parent-commit", required=True)
    parser.add_argument("--change-commit", required=True)
    parser.add_argument("--note", action="append", default=[], help="free-text note; repeatable")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bench = fold(load_side(args.parent), load_side(args.change), spec)
    bench = {
        "commits": {"parent": args.parent_commit, "change": args.change_commit},
        **bench,
        "notes": args.note,
    }
    args.out.write_text(json.dumps(bench, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
