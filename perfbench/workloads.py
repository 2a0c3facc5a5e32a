"""The benchmark's four workloads.

Each workload turns ``--seed`` into inputs, builds its prototype(s) from
them (``setup``, timed as ``setup_s``), and runs its operations on them
(``run``, timed as ``wall_s``).  It reaches the simulator only through
``Prototype``, ``Prototype.measure_pair_latency``, ``Observer``,
``MapleKernelBench.run`` and ``run_helloworld``.

``run`` returns ``{op_key: value}``; an operation that raises is recorded
as :class:`Failed` and the others still run.  ``band_failures`` checks
the results against the paper bands the repository's figure benchmarks
assert (``benchmarks/bench_fig7.py``, ``bench_fig11.py``,
``bench_verilator.py``); ``model_error_pct`` measures them against the
paper's figures.

``exercises`` lists the layers that must record calls in a traced run;
``bypasses`` lists the layers that must record none.  Why each workload
was chosen is recorded beside its name in ``BENCHMARK.json``.
"""

from __future__ import annotations

import random
import statistics
from typing import Dict, List, Set

from repro import Prototype, parse_config
from repro.obs import Observer
from repro.workloads import KERNELS, MapleKernelBench, run_helloworld

#: Fig. 11 execution modes, in the order the paper plots them.
MODES = ("1thread", "maple", "2thread")


class Failed:
    """Marks an operation that raised; compares unequal to any value."""

    def __init__(self, error: BaseException) -> None:
        self.error = f"{type(error).__name__}: {error}"


def attempt(results: dict, key: str, fn, *args) -> None:
    try:
        results[key] = fn(*args)
    except Exception as error:  # one failed operation must not stop the rest
        results[key] = Failed(error)


def _rel_err_pct(value: float, paper: float) -> float:
    return abs(value - paper) / paper * 100.0


class Fig7Matrix:
    """Fig. 7 round-trip latencies on one 4x1x12 prototype, obs off."""

    name = "fig7_matrix"
    label = "4x1x12"
    exercises = ("engine", "noc", "cache", "axi", "mem", "interconnect",
                 "core")
    bypasses = ("cpu", "accel", "obs")
    #: Paper Fig. 7: ~100-cycle intra-node, ~250-cycle inter-node trips.
    PAPER_INTRA, PAPER_INTER = 100.0, 250.0

    def inputs(self, seed: int) -> dict:
        config = parse_config(self.label)
        size = config.total_tiles
        rng = random.Random(seed)
        return {"config": config,
                "tiles_per_node": config.tiles_per_node,
                "senders": rng.sample(range(size), size),
                "receivers": list(range(size))}

    def setup(self, inputs: dict) -> Prototype:
        return Prototype(inputs["config"])

    def run(self, proto: Prototype, inputs: dict) -> dict:
        results: dict = {}
        probe = proto.measure_pair_latency
        for sender in inputs["senders"]:
            for receiver in inputs["receivers"]:
                attempt(results, f"{sender}->{receiver}", probe, sender,
                        receiver)
        return results

    def _means(self, results: dict, tiles_per_node: int):
        intra, inter = [], []
        for key, value in results.items():
            if "->" not in key or isinstance(value, Failed):
                continue
            sender, receiver = map(int, key.split("->"))
            if sender == receiver:
                continue
            same = sender // tiles_per_node == receiver // tiles_per_node
            (intra if same else inter).append(value)
        return (statistics.fmean(intra) if intra else 0.0,
                statistics.fmean(inter) if inter else 0.0)

    def band_failures(self, results: dict, inputs: dict) -> Set[str]:
        intra, inter = self._means(results, inputs["tiles_per_node"])
        if not (70 <= intra <= 140 and 220 <= inter <= 330
                and 2.0 <= inter / max(intra, 1e-9) <= 3.5):
            return {k for k in results if "->" in k}
        failed = set()
        for sender in inputs["senders"]:
            row = {k: v for k, v in results.items()
                   if k.startswith(f"{sender}->")}
            row_intra, row_inter = self._means(row, inputs["tiles_per_node"])
            if not 0 < row_intra < row_inter:
                failed |= set(row)
        return failed

    def model_error_pct(self, results: dict, inputs: dict) -> float:
        intra, inter = self._means(results, inputs["tiles_per_node"])
        return (_rel_err_pct(intra, self.PAPER_INTRA)
                + _rel_err_pct(inter, self.PAPER_INTER)) / 2


class Fig7Metrics(Fig7Matrix):
    """The Fig. 7 probes with a metrics-only observer, as archived runs
    pay for them; the exported registry is one more operation."""

    name = "fig7_metrics"
    exercises = Fig7Matrix.exercises + ("obs",)
    bypasses = ("cpu", "accel")

    def setup(self, inputs: dict) -> Prototype:
        return Prototype(inputs["config"], obs=Observer(tracing=False))

    def run(self, proto: Prototype, inputs: dict) -> dict:
        results = super().run(proto, inputs)
        attempt(results, "export_metrics",
                lambda: bool(proto.obs.export_metrics()))
        return results

    def band_failures(self, results: dict, inputs: dict) -> Set[str]:
        failed = super().band_failures(results, inputs)
        if results.get("export_metrics") is not True:
            failed.add("export_metrics")
        return failed


class MapleGather:
    """Fig. 11: every kernel in every mode on fresh 1x1x6 prototypes."""

    name = "maple_gather"
    label = "1x1x6"
    exercises = ("engine", "noc", "cache", "axi", "mem", "core", "cpu",
                 "accel")
    bypasses = ("interconnect", "obs")
    #: Paper Fig. 11 speedups over 1thread, per kernel.
    PAPER = {"maple": {"spmv": 2.4, "spmm": 1.0, "sdhp": 1.9, "bfs": 2.2},
             "2thread": {"spmv": 1.6, "spmm": 1.4, "sdhp": 1.2, "bfs": 1.8}}

    def inputs(self, seed: int) -> dict:
        return {"seed": seed, "config": parse_config(self.label)}

    def setup(self, inputs: dict) -> MapleKernelBench:
        # run() builds one 1x1x6 prototype per operation; building one
        # here times that per-operation set-up on its own.
        Prototype(inputs["config"])
        return MapleKernelBench(seed=inputs["seed"])

    def run(self, bench: MapleKernelBench, inputs: dict) -> dict:
        results: dict = {}
        for kernel in KERNELS:
            for mode in MODES:
                attempt(results, f"{kernel}/{mode}", bench.run, kernel, mode)
        return results

    def _speedups(self, results: dict) -> Dict[str, Dict[str, float]]:
        out: Dict[str, Dict[str, float]] = {}
        for kernel in KERNELS:
            runs = [results.get(f"{kernel}/{mode}") for mode in MODES]
            if any(not isinstance(r, dict) for r in runs):
                continue
            base = runs[0]["cycles"]
            out[kernel] = {mode: base / r["cycles"]
                           for mode, r in zip(MODES, runs)}
        return out

    def band_failures(self, results: dict, inputs: dict) -> Set[str]:
        failed = set()
        for kernel in KERNELS:
            keys = [f"{kernel}/{mode}" for mode in MODES]
            runs = [results.get(key) for key in keys]
            if (any(not isinstance(r, dict) or r["cycles"] <= 0 for r in runs)
                    or len({r["checksum"] for r in runs}) != 1):
                failed |= set(keys)
        speedups = self._speedups(results)
        # bench_fig11: MAPLE beats a second thread on the latency-bound
        # kernels but not on the compute-bound one.
        for kernel, maple_wins in (("spmv", True), ("bfs", True),
                                   ("spmm", False)):
            s = speedups.get(kernel)
            if s is None or (s["maple"] > s["2thread"]) != maple_wins:
                failed |= {f"{kernel}/{mode}" for mode in MODES}
        return failed

    def model_error_pct(self, results: dict, inputs: dict) -> float:
        speedups = self._speedups(results)
        errors = [_rel_err_pct(speedups[kernel][mode], paper)
                  for mode, per_kernel in self.PAPER.items()
                  for kernel, paper in per_kernel.items()
                  if kernel in speedups]
        return statistics.fmean(errors) if errors else 100.0


class Rv64Hello:
    """Sec. 4.5 HelloWorld on the RV64IMA core of seeded tiles of a
    single-node prototype, one fresh prototype per program."""

    name = "rv64_hello"
    label = "1x1x8"
    tiles = 6
    # The program polls the UART's LSR, so no interrupt is raised: irq
    # records calls only while a prototype is built.
    exercises = ("engine", "noc", "cache", "core", "cpu", "io")
    bypasses = ("interconnect", "obs")
    #: Paper Sec. 4.5: HelloWorld takes 4 ms on SMAPPIC.
    PAPER_SECONDS = 0.004

    def inputs(self, seed: int) -> dict:
        config = parse_config(self.label)
        rng = random.Random(seed)
        return {"config": config,
                "tiles": sorted(rng.sample(range(config.tiles_per_node),
                                           self.tiles))}

    def setup(self, inputs: dict) -> List[Prototype]:
        return [Prototype(inputs["config"]) for _ in inputs["tiles"]]

    def run(self, protos: List[Prototype], inputs: dict) -> dict:
        results: dict = {}
        for proto, tile in zip(protos, inputs["tiles"]):
            attempt(results, f"tile{tile}", self._hello, proto, tile)
        return results

    @staticmethod
    def _hello(proto: Prototype, tile: int) -> dict:
        result = run_helloworld(proto, node=0, tile=tile)
        return {"cycles": result.cycles, "console": result.console,
                "exit_code": result.exit_code,
                "seconds": proto.seconds(result.cycles)}

    def band_failures(self, results: dict, inputs: dict) -> Set[str]:
        return {key for key, r in results.items()
                if not (isinstance(r, dict)
                        and r["console"] == "Hello, world!\n"
                        and r["exit_code"] == 0
                        and 0.001 <= r["seconds"] <= 0.01)}

    def model_error_pct(self, results: dict, inputs: dict) -> float:
        errors = [_rel_err_pct(r["seconds"], self.PAPER_SECONDS)
                  for r in results.values() if isinstance(r, dict)]
        return statistics.fmean(errors) if errors else 100.0


WORKLOADS = {w.name: w for w in (Fig7Matrix(), Fig7Metrics(), MapleGather(),
                                 Rv64Hello())}
