"""End-to-end and per-layer benchmark of the SMAPPIC simulator.

    python3 perfbench/run.py --workload fig7_matrix --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25

One process measures one workload (``all`` runs each in a child process,
one after the other), from one thread.  The compiled event drain is
loaded, and compiled if its cache is cold, before anything is timed.

With ``--trace 0`` the run reports the end-to-end metrics: the median
host seconds of one run of the workload (``wall_s``), the median set-up
time (``setup_s``), peak host memory (``peak_rss_mb``) and the simulated
results' distance from the paper (``model_error_pct``).  With
``--trace 1`` it measures untraced runs for half the time, then traces
one run with :class:`spans.SpanRecorder` and reports per-layer host time
and work counts.

Every operation (one probe, one kernel x mode run, one program) is
checked: against ``reference.json`` at the reference seed, against the
paper bands at every seed, and against the run's first results in every
later run, including the traced one.  The last line of standard output
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; the full record, with the environment (drain, Python,
``nproc``), goes to ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
REFERENCE = HERE / "reference.json"

#: Set-ups timed before each measured run of the workload.  One build
#: takes only 1-50 ms, so it takes many samples, spread over the whole
#: measurement like the runs themselves, for a steady median.
SETUPS_PER_RUN = 3
#: Layers whose self times must add up to the traced wall time.
CLOSURE_TOLERANCE = 0.05
#: ``repro`` packages traced as layers; ``workloads`` holds the entry
#: points MapleKernelBench.run and run_helloworld.
LAYERS = ("engine", "noc", "cache", "axi", "mem", "interconnect", "core",
          "cpu", "accel", "io", "irq", "obs", "workloads")


def import_simulator():
    """Import ``repro`` from this checkout's ``src`` or exit with 2."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import repro
    except ImportError as error:
        print(f"perfbench: cannot import the simulator from {src}: {error}",
              file=sys.stderr)
        sys.exit(2)
    if not Path(repro.__file__).resolve().is_relative_to(src):
        print(f"perfbench: repro was imported from {repro.__file__}, "
              f"not from {src}", file=sys.stderr)
        sys.exit(2)


def environment() -> dict:
    """Load the event drain (compiling it on a cold cache) and describe
    the host; results whose drain differs are not comparable."""
    from repro.engine import Simulator
    return {"drain": Simulator().kernel,
            "python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0))}


# ----------------------------------------------------------------------
# Correctness
# ----------------------------------------------------------------------
def canonical(results: dict) -> dict:
    """``results`` as plain JSON values; a :class:`workloads.Failed`
    operation becomes ``{"error": ...}``."""
    return json.loads(json.dumps(results, sort_keys=True,
                                 default=lambda failed: {"error": failed.error}))


def digest(results: dict) -> str:
    return hashlib.sha256(json.dumps(canonical(results), sort_keys=True)
                          .encode()).hexdigest()


def load_reference(name: str, seed: int):
    """The committed results of ``name`` when ``seed`` is the reference
    seed, else None."""
    with open(REFERENCE) as f:
        reference = json.load(f)
    if seed != reference["seed"]:
        return None
    return reference["workloads"][name]["results"]


class Checker:
    """Counts attempted and failed operations over every run.

    ``expected`` holds the reference results; when it is None, the first
    checked run's results become the expectation for every later run.
    """

    def __init__(self, workload, inputs: dict, expected) -> None:
        self.workload = workload
        self.inputs = inputs
        self.expected = expected
        self.attempted = 0
        self.failed = 0
        self.failures: list = []

    def check(self, results: dict) -> None:
        from workloads import Failed
        bad = {k for k, v in results.items() if isinstance(v, Failed)}
        bad |= self.workload.band_failures(results, self.inputs)
        got = canonical(results)
        if self.expected is not None:
            bad |= {k for k, v in self.expected.items() if got.get(k) != v}
        else:
            self.expected = got
        self.attempted += len(set(results) | set(self.expected))
        self.failed += len(bad)
        self.failures.extend(sorted(bad)[:20 - len(self.failures)])


# ----------------------------------------------------------------------
# Measurement
# ----------------------------------------------------------------------
def timed(fn, *args):
    start = time.perf_counter()
    value = fn(*args)
    return value, time.perf_counter() - start


def measure(workload, seconds: float, checker: Checker) -> dict:
    """Warm up, then set up and run the workload as often as fits in
    ``seconds`` (at least once); returns the set-up and run times and
    the first run's results."""
    inputs = checker.inputs
    first = workload.run(workload.setup(inputs), inputs)
    checker.check(first)
    walls, setups = [], []
    deadline = time.perf_counter() + seconds
    while not walls or time.perf_counter() + max(walls) < deadline:
        for _ in range(SETUPS_PER_RUN):
            gc.collect()
            state, setup_s = timed(workload.setup, inputs)
            setups.append(setup_s)
        gc.collect()
        results, wall_s = timed(workload.run, state, inputs)
        walls.append(wall_s)
        checker.check(results)
    return {"first": first, "walls": walls, "setups": setups}


def trace_run(workload, checker: Checker) -> dict:
    """One traced run: per-layer self time, calls and work counts."""
    from spans import SpanRecorder
    inputs = checker.inputs
    recorder = SpanRecorder(LAYERS, capture=("Prototype", "RiscvCore"))
    recorder.install()
    try:
        state = workload.setup(inputs)
        gc.collect()
        recorder.reset()
        results, wall_s = timed(recorder.run_root, workload.run, state,
                                inputs)
    finally:
        recorder.uninstall()
    checker.check(results)
    totals = recorder.totals()
    protos = recorder.captured["Prototype"]
    stats: dict = {}
    for proto in protos:
        for key, value in proto.stats_report().items():
            stats[key] = stats.get(key, 0) + value
    return {
        "wall_s": wall_s,
        "totals": totals,
        "stats": stats,
        "events": sum(p.sim.events_executed for p in protos),
        "sim_cycles": sum(p.now for p in protos),
        "instructions": sum(c.instret for c in recorder.captured["RiscvCore"]),
        "recorder": recorder,
    }


def layer_metrics(workload, traced: dict, untraced_wall: float):
    """The per-layer metrics, plus the coverage and closure problems."""
    from spans import ROOT as ROOT_SPAN
    totals, stats = traced["totals"], traced["stats"]
    wall = traced["wall_s"]
    events, cycles = traced["events"], traced["sim_cycles"]
    hits, misses = stats.get("array_hits", 0), stats.get("array_misses", 0)
    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = (totals[layer]["self_s"], "s")
        metrics[f"{layer}.calls"] = (totals[layer]["calls"], "count")
    layered = sum(totals[layer]["self_s"] for layer in LAYERS)
    metrics.update({
        "engine.events": (events, "count"),
        "engine.sim_cycles": (cycles, "cycles"),
        "engine.ns_per_event": (
            totals["engine"]["self_s"] * 1e9 / max(events, 1), "ns"),
        "engine.events_per_s": (events / untraced_wall, "1/s"),
        "engine.sim_cycles_per_s": (cycles / untraced_wall, "cycles/s"),
        "cache.misses": (stats.get("misses", 0), "count"),
        "cache.hit_ratio": (hits / (hits + misses) if hits + misses else 0.0,
                            "ratio"),
        "mem.reads": (stats.get("reads", 0), "count"),
        "mem.writes": (stats.get("writes", 0), "count"),
        "interconnect.sent_packets": (stats.get("sent_packets", 0), "count"),
        "interconnect.credit_polls": (stats.get("credit_polls", 0), "count"),
        "cpu.instructions": (traced["instructions"], "count"),
        "bench.self_s": (totals[ROOT_SPAN]["self_s"], "s"),
        "trace.overhead_ratio": (wall / untraced_wall, "ratio"),
        "trace.closure_gap": (abs(wall - layered) / wall, "ratio"),
    })
    problems = []
    for layer in workload.exercises:
        if totals[layer]["calls"] == 0:
            problems.append(f"exercised layer {layer} recorded no calls")
    for layer in workload.bypasses:
        if totals[layer]["calls"] != 0:
            problems.append(f"bypassed layer {layer} recorded "
                            f"{totals[layer]['calls']} calls")
    if metrics["trace.closure_gap"][0] > CLOSURE_TOLERANCE:
        problems.append("layer self times do not add up to the traced "
                        f"wall time (gap {metrics['trace.closure_gap'][0]:.3f})")
    return metrics, problems


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    from workloads import WORKLOADS
    workload = WORKLOADS[name]
    env = environment()
    inputs = workload.inputs(seed)
    checker = Checker(workload, inputs, load_reference(name, seed))
    sample = measure(workload, seconds / 2 if trace else seconds, checker)
    wall_s = statistics.median(sample["walls"])
    problems: list = []
    if trace:
        traced = trace_run(workload, checker)
        metrics, problems = layer_metrics(workload, traced, wall_s)
    else:
        metrics = {
            "wall_s": (wall_s, "s"),
            "setup_s": (statistics.median(sample["setups"]), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF)
                            .ru_maxrss / 1024, "MB"),
            "model_error_pct": (workload.model_error_pct(sample["first"],
                                                         inputs), "%"),
        }
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "env": env,
        "digest": digest(sample["first"]),
        "attempted": checker.attempted, "failed": checker.failed,
        "error_rate": checker.failed / max(checker.attempted, 1),
        "failures": checker.failures, "problems": problems,
        "runs": len(sample["walls"]), "walls": sample["walls"],
        "setups": sample["setups"],
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }
    RESULTS.mkdir(exist_ok=True)
    stem = RESULTS / f"{name}-seed{seed}-trace{int(trace)}"
    if trace:
        traced["recorder"].dump(f"{stem}.spans")
        record["spans"] = {"file": f"{stem.name}.spans",
                           "layers": traced["recorder"].names}
    with open(f"{stem}.json", "w") as f:
        json.dump(record, f, indent=1, sort_keys=True)
    return record


def print_record(record: dict) -> None:
    env = record["env"]
    print(f"{record['workload']} seed={record['seed']} "
          f"drain={env['drain']} python={env['python']} "
          f"nproc={env['nproc']} runs={record['runs']}")
    print(f"  error_rate = {record['error_rate']:.6g} "
          f"({record['failed']}/{record['attempted']} operations failed)")
    for key, metric in record["metrics"].items():
        print(f"  {key} = {metric['value']:.6g} {metric['unit']}")
    for line in record["failures"] + record["problems"]:
        print(f"  FAILED: {line}", file=sys.stderr)


def run_all(args) -> dict:
    """Each workload in its own process, one after the other."""
    from workloads import WORKLOADS
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        child = subprocess.run(
            [sys.executable, __file__, "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, timeout=900)
        lines = child.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if child.returncode != 0 or not lines:
            sys.exit(f"perfbench: {name} exited with {child.returncode}")
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for key, metric in result["metrics"].items():
            merged["metrics"][f"{name}.{key}"] = metric
    return merged


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    import_simulator()
    from workloads import WORKLOADS
    if args.workload == "all":
        result = run_all(args)
    elif args.workload in WORKLOADS:
        record = run_workload(args.workload, args.seed, args.seconds,
                              bool(args.trace))
        print_record(record)
        result = {"correct": record["failed"] == 0
                  and not record["problems"],
                  "attempted": record["attempted"],
                  "failed": record["failed"],
                  "metrics": record["metrics"]}
    else:
        parser.error(f"unknown workload {args.workload!r} "
                     f"(expected all or one of {', '.join(WORKLOADS)})")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
