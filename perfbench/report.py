"""Benchmark records: reference results, comparisons and the baseline.

    python3 perfbench/report.py reference --seed 1
    python3 perfbench/report.py compare OLD.json NEW.json
    python3 perfbench/report.py baseline perfbench/results/*.json

``reference`` runs every workload once at ``--seed`` and writes their
simulated results to ``reference.json``; a later run at that seed fails
every operation whose result differs.  ``compare`` prints the metrics of
two records written by ``run.py`` side by side and refuses records whose
environment (drain, Python, ``nproc``) differs.  ``baseline`` folds
records into ``baseline.json``: per workload, the median and quartiles
of each end-to-end metric over the untraced records and the per-layer
metrics of the traced one.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys

import run

BASELINE = run.HERE / "baseline.json"


def write_reference(seed: int) -> None:
    run.import_simulator()
    from workloads import WORKLOADS
    out = {"seed": seed, "workloads": {}}
    for name, workload in WORKLOADS.items():
        inputs = workload.inputs(seed)
        results = workload.run(workload.setup(inputs), inputs)
        failed = run.Checker(workload, inputs, None)
        failed.check(results)
        if failed.failed:
            sys.exit(f"perfbench: {name} fails at seed {seed}: "
                     f"{failed.failures}")
        out["workloads"][name] = {"digest": run.digest(results),
                                  "results": run.canonical(results)}
    with open(run.REFERENCE, "w") as f:
        json.dump(out, f, sort_keys=True, separators=(",", ":"))
        f.write("\n")


def compare(old_path: str, new_path: str) -> int:
    with open(old_path) as f:
        old = json.load(f)
    with open(new_path) as f:
        new = json.load(f)
    if old["env"] != new["env"] or old["workload"] != new["workload"]:
        print(f"perfbench: not comparable: {old['workload']} {old['env']} "
              f"vs {new['workload']} {new['env']}", file=sys.stderr)
        return 2
    print(f"{old['workload']}: seed {old['seed']} -> {new['seed']}")
    for key, metric in old["metrics"].items():
        after = new["metrics"].get(key)
        if after is None:
            continue
        a, b = metric["value"], after["value"]
        ratio = f"{b / a:.3f}x" if a else "-"
        print(f"  {key:28} {a:14.6g} {b:14.6g} {metric['unit']:8} {ratio}")
    return 0


def baseline(paths) -> None:
    from workloads import WORKLOADS
    with open(run.ROOT / "BENCHMARK.json") as f:
        spec = json.load(f)
    records = []
    for path in paths:
        with open(path) as f:
            records.append(json.load(f))
    envs = {json.dumps(r["env"], sort_keys=True) for r in records}
    if len(envs) != 1:
        sys.exit(f"perfbench: records from different environments: {envs}")
    why = {w["name"]: w["why"] for w in spec["workloads"]}
    out = {"env": records[0]["env"], "workloads": {}}
    for name, workload in WORKLOADS.items():
        mine = [r for r in records if r["workload"] == name]
        untraced = [r for r in mine if not r["trace"]]
        traced = [r for r in mine if r["trace"]]
        entry = {"why": why[name], "exercises": list(workload.exercises),
                 "bypasses": list(workload.bypasses),
                 "seeds": sorted(r["seed"] for r in untraced),
                 "error_rate": (sum(r["failed"] for r in mine)
                                / max(sum(r["attempted"] for r in mine), 1)),
                 "end_to_end": {}}
        for metric in spec["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in untraced]
            if len(values) < 2:
                continue
            q1, median, q3 = statistics.quantiles(values, n=4)
            entry["end_to_end"][metric["name"]] = {
                "unit": metric["unit"], "better": metric["better"],
                "median": median, "q1": q1, "q3": q3,
                "spread": (q3 - q1) / median}
        if traced:
            metrics = traced[0]["metrics"]
            self_s = {key[:-len(".self_s")]: metric["value"]
                      for key, metric in metrics.items()
                      if key.endswith(".self_s")}
            total = sum(self_s.values())
            entry["per_layer"] = {"seed": traced[0]["seed"], **metrics}
            entry["self_time_share"] = {layer: value / total
                                        for layer, value in self_s.items()}
        out["workloads"][name] = entry
    with open(BASELINE, "w") as f:
        json.dump(out, f, indent=1, sort_keys=True)
        f.write("\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    ref = sub.add_parser("reference")
    ref.add_argument("--seed", type=int, required=True)
    cmp_ = sub.add_parser("compare")
    cmp_.add_argument("old")
    cmp_.add_argument("new")
    base = sub.add_parser("baseline")
    base.add_argument("records", nargs="+")
    args = parser.parse_args(argv)
    if args.command == "reference":
        write_reference(args.seed)
    elif args.command == "compare":
        return compare(args.old, args.new)
    else:
        run.import_simulator()
        baseline(args.records)
    return 0


if __name__ == "__main__":
    sys.exit(main())
