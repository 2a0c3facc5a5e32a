"""Instrumentation planes: declarative specs, triggers, streamed tracks.

The load-bearing properties:

* a spec file (YAML or JSON) validates strictly — unknown keys, bad
  trigger kinds, and non-positive intervals are rejected offline — and
  round-trips through its canonical dict with a stable content hash;
* triggers gate the tracer exactly (events before ``start_at`` / after
  the ``stop_after`` close are suppressed and counted; arm triggers
  open the gate on their first cause) and a trigger-free plane never
  installs the gate at all;
* a raising probe source disables only itself (warning +
  ``obs.probes.failed``), never the run;
* ``stream_series`` keeps probe series out of memory; the JSONL
  counter track rebuilds them exactly;
* the recorded spec hash makes ``repro diff`` refuse cross-plane
  comparisons unless ``--ignore-instrumentation``;
* the farm spec's top-level ``instrumentation`` key reaches every job.
"""

import json

import pytest

from repro import Prototype, parse_config
from repro.cli import main
from repro.errors import FarmError, ReproError
from repro.obs import (GatedTracer, InstrumentationPlane, Observer,
                       ProbeSet, RunArchive, StreamingTracer, Tracer,
                       Trigger, as_plane, load_plane,
                       probe_series_from_jsonl)
from repro.obs.diff import instrumentation_hash_of

SPEC = {
    "metrics": ["node*", "*.utilization"],
    "sample_interval": 100,
    "sample_intervals": {"noc": 50},
    "sampling": "component",
    "trace": {"categories": ["noc", "cache", "probe"],
              "stream_series": True},
    "triggers": [{"kind": "start_at", "cycle": 200},
                 {"kind": "stop_after", "cycles": 2000}],
}


class FakeTracer:
    """Records every call; wants everything."""

    def __init__(self):
        self.events = []

    def wants(self, category):
        return True

    def complete(self, category, component, name, ts, dur, args=None):
        self.events.append(("complete", category, name, ts))

    def instant(self, category, component, name, ts, args=None):
        self.events.append(("instant", category, name, ts))

    def counter(self, category, component, name, ts, values):
        self.events.append(("counter", category, name, ts))


# ----------------------------------------------------------------------
# Spec parsing and validation
# ----------------------------------------------------------------------

class TestSpecValidation:
    def test_round_trip_and_stable_hash(self):
        plane = InstrumentationPlane.from_dict(SPEC)
        again = InstrumentationPlane.from_dict(plane.to_dict())
        assert again == plane
        assert again.spec_hash == plane.spec_hash
        assert plane.metrics == ("node*", "*.utilization")
        assert plane.sample_intervals == {"noc": 50}
        assert plane.sampling == "component"
        assert plane.stream_series
        assert [t.kind for t in plane.triggers] == ["start_at",
                                                    "stop_after"]

    def test_empty_spec_is_all_defaults(self):
        plane = InstrumentationPlane.from_dict({})
        assert plane == InstrumentationPlane()
        assert plane.to_dict() == {}
        assert plane.metric_filter() is None
        assert not plane.gated

    def test_unknown_keys_rejected(self):
        with pytest.raises(ReproError, match="unknown spec keys"):
            InstrumentationPlane.from_dict({"metrcs": ["*"]})
        with pytest.raises(ReproError, match="unknown trace keys"):
            InstrumentationPlane.from_dict({"trace": {"stream": True}})

    def test_bad_values_rejected(self):
        with pytest.raises(ReproError, match=">= 1"):
            InstrumentationPlane.from_dict({"sample_interval": 0})
        with pytest.raises(ReproError, match="sample_intervals"):
            InstrumentationPlane.from_dict(
                {"sample_intervals": {"noc": -5}})
        with pytest.raises(ReproError, match="sampling"):
            InstrumentationPlane.from_dict({"sampling": "per-tile"})
        with pytest.raises(ReproError, match="glob"):
            InstrumentationPlane.from_dict({"metrics": []})
        with pytest.raises(ReproError, match="unknown trace categories"):
            InstrumentationPlane.from_dict(
                {"trace": {"categories": ["noc", "nope"]}})

    def test_bad_triggers_rejected(self):
        with pytest.raises(ReproError, match="unknown trigger kind"):
            InstrumentationPlane.from_dict(
                {"triggers": [{"kind": "start"}]})
        with pytest.raises(ReproError, match="needs 'cycle'"):
            InstrumentationPlane.from_dict(
                {"triggers": [{"kind": "start_at"}]})
        with pytest.raises(ReproError, match="unknown keys"):
            InstrumentationPlane.from_dict(
                {"triggers": [{"kind": "stop_after", "cycle": 5}]})
        with pytest.raises(ReproError, match="category.name"):
            InstrumentationPlane.from_dict(
                {"triggers": [{"kind": "arm_on_event", "event": "miss"}]})
        with pytest.raises(ReproError, match="at most one start_at"):
            InstrumentationPlane.from_dict(
                {"triggers": [{"kind": "start_at", "cycle": 1},
                              {"kind": "start_at", "cycle": 2}]})
        with pytest.raises(ReproError, match="numeric 'above'"):
            InstrumentationPlane.from_dict(
                {"triggers": [{"kind": "arm_on_metric", "metric": "m",
                               "above": True}]})

    def test_metric_filter_compiles_globs(self):
        plane = InstrumentationPlane.from_dict({"metrics": ["node0.*"]})
        select = plane.metric_filter()
        assert select("node0.tile1.bpc.misses")
        assert not select("node1.tile0.bpc.misses")

    def test_as_plane_coerces(self):
        plane = InstrumentationPlane.from_dict(SPEC)
        assert as_plane(None) is None
        assert as_plane(plane) is plane
        assert as_plane(SPEC) == plane
        with pytest.raises(ReproError, match="spec mapping"):
            as_plane(["nope"])

    def test_load_yaml_and_json_agree(self, tmp_path):
        yaml = pytest.importorskip("yaml")
        yml = tmp_path / "p.yaml"
        yml.write_text(yaml.safe_dump(SPEC))
        jsn = tmp_path / "p.json"
        jsn.write_text(json.dumps(SPEC))
        assert load_plane(str(yml)) == load_plane(str(jsn))
        assert load_plane(str(yml)).spec_hash == \
            InstrumentationPlane.from_dict(SPEC).spec_hash

    def test_load_rejects_garbage(self, tmp_path):
        missing = tmp_path / "nope.json"
        with pytest.raises(ReproError, match="cannot read"):
            load_plane(str(missing))
        bad = tmp_path / "bad.json"
        bad.write_text("[1, 2]")
        with pytest.raises(ReproError, match="mapping"):
            load_plane(str(bad))
        syntax = tmp_path / "syntax.json"
        syntax.write_text("{nope")
        with pytest.raises(ReproError, match="not valid JSON"):
            load_plane(str(syntax))


# ----------------------------------------------------------------------
# The trigger gate
# ----------------------------------------------------------------------

class TestGatedTracer:
    def test_triggerless_plane_skips_the_gate(self):
        obs = Observer(plane={"trace": {"categories": ["noc"]}})
        assert not isinstance(obs.tracer, GatedTracer)

    def test_start_stop_window(self):
        raw = FakeTracer()
        plane = InstrumentationPlane.from_dict(
            {"triggers": [{"kind": "start_at", "cycle": 100},
                          {"kind": "stop_after", "cycles": 50}]})
        gate = GatedTracer(raw, plane)
        gate.instant("noc", "c", "hop", 10)        # before the window
        gate.instant("noc", "c", "hop", 100)       # opens (start fires)
        gate.instant("noc", "c", "hop", 149)       # still open
        gate.instant("noc", "c", "hop", 150)       # closed (stop fires)
        gate.instant("noc", "c", "hop", 500)
        assert [e[3] for e in raw.events] == [100, 149]
        assert gate.suppressed == 3
        assert gate.fired == 2
        assert gate.armed == 2
        assert gate.raw is raw

    def test_arm_on_event_opens_and_records_the_cause(self):
        raw = FakeTracer()
        plane = InstrumentationPlane.from_dict(
            {"triggers": [{"kind": "arm_on_event", "event": "cache.miss"},
                          {"kind": "stop_after", "cycles": 100}]})
        gate = GatedTracer(raw, plane)
        gate.instant("noc", "c", "hop", 10)
        assert raw.events == []
        gate.instant("cache", "c", "miss", 40)     # arms; itself recorded
        gate.instant("noc", "c", "hop", 139)       # inside 40+100
        gate.instant("noc", "c", "hop", 140)       # closed
        assert [e[3] for e in raw.events] == [40, 139]
        assert gate.fired == 2                     # arm + stop
        assert gate.suppressed == 2

    def test_metric_threshold_trigger_arms_at_probe_cadence(self):
        plane = InstrumentationPlane.from_dict(
            {"sample_interval": 10,
             "triggers": [{"kind": "arm_on_metric", "metric": "app.load",
                           "above": 2}]})
        obs = Observer(plane=plane)
        gate = obs.tracer
        assert isinstance(gate, GatedTracer)
        assert len(obs.probes) == 0            # no probe source needed
        gate.instant("noc", "c", "hop", 10)
        assert gate.fired == 0
        obs._nudge("c", 30)                    # below threshold: stays shut
        gate.instant("noc", "c", "hop", 35)
        assert gate.fired == 0
        obs.registry.inc("app.load", 3)
        obs._nudge("c", 39)                    # next check is due at 40
        assert gate.fired == 0
        obs._nudge("c", 40)                    # crosses: gate opens at 40
        gate.instant("noc", "c", "hop", 50)
        assert gate.fired == 1
        metrics = obs.export_metrics()
        assert metrics["obs.plane.triggers.armed"] == 1.0
        assert metrics["obs.plane.triggers.fired"] == 1.0
        assert metrics["obs.plane.trace.suppressed"] >= 2

    def test_metric_trigger_fires_without_selected_probe_gauges(self):
        # The globs keep one counter and no gauge, so no probe source
        # exists; the trigger check must still run on its own clock.
        plane = {"metrics": ["node0.tile0.bpc.misses"],
                 "sample_interval": 50,
                 "triggers": [{"kind": "arm_on_metric",
                               "metric": "node0.tile0.bpc.misses",
                               "above": 1}]}
        obs = Observer(plane=plane)
        proto = Prototype(parse_config("1x1x2"), obs=obs)
        for probe in range(40):
            proto.measure_pair_latency(0, 1, probe)
        assert len(obs.probes) == 0
        metrics = obs.export_metrics()
        assert metrics["node0.tile0.bpc.misses"] == 40
        assert metrics["obs.plane.triggers.fired"] == 1.0
        assert obs.tracer.event_count() > 0

    def test_end_to_end_window_on_a_real_run(self, tmp_path):
        out = tmp_path / "gated.jsonl"
        tracer = StreamingTracer(str(out))
        plane = InstrumentationPlane.from_dict(
            {"triggers": [{"kind": "start_at", "cycle": 200},
                          {"kind": "stop_after", "cycles": 300}]})
        obs = Observer(tracer=tracer, plane=plane)
        proto = Prototype(parse_config("2x1x2"), obs=obs)
        for receiver in range(1, proto.config.total_tiles):
            proto.measure_pair_latency(0, receiver)
        obs.close()
        from repro.obs.trace import iter_jsonl_events
        stamps = [event["ts"] for event in iter_jsonl_events(str(out))]
        assert stamps, "the window must capture something"
        assert min(stamps) >= 200
        assert max(stamps) < 500
        assert obs.tracer.suppressed > 0
        assert obs.tracer.fired == 2


# ----------------------------------------------------------------------
# Plane-shaped observers
# ----------------------------------------------------------------------

class TestObserverPlane:
    def test_plane_fills_defaults_explicit_wins(self):
        plane = {"sample_interval": 77, "sample_intervals": {"noc": 7},
                 "trace": {"categories": ["noc"]}}
        obs = Observer(plane=plane)
        assert obs.probes.interval == 77
        assert obs.probes.interval_of("noc") == 7
        assert not obs.tracer.wants("cache")
        explicit = Observer(sample_interval=55, plane=plane)
        assert explicit.probes.interval == 55

    def test_metric_selection_prunes_registration_and_export(self):
        obs = Observer(tracing=False, plane={"metrics": ["keep.*"]})
        obs.register_gauge("keep.depth", lambda: 1.0)
        obs.register_gauge("drop.depth", lambda: 2.0)
        assert len(obs.probes) == 1
        metrics = obs.export_metrics()
        assert "keep.depth" in metrics
        assert "drop.depth" not in metrics
        assert metrics["obs.probes.failed"] == 0

    def test_component_sampling_nudges_only_the_owner(self):
        probes = ProbeSet(interval=10, by_owner=True)
        probes.add("a.x", lambda: 1.0, category="noc", owner="a")
        probes.add("b.y", lambda: 2.0, category="noc", owner="b")
        probes.nudge("a", 10)
        assert probes.series("a.x") == [(10, 1.0)]
        assert probes.series("b.y") == []
        probes.nudge("b", 25)
        assert probes.series("b.y") == [(25, 2.0)]

    def test_raising_probe_degrades_gracefully(self):
        obs = Observer()    # the tracer consumes samples, so probes exist
        obs.register_gauge("good.depth", lambda: 1.0)
        obs.register_gauge("bad.depth",
                           lambda: (_ for _ in ()).throw(RuntimeError("x")))
        with pytest.warns(RuntimeWarning, match="disabling this probe"):
            obs.probes.sample(10)
        obs.probes.sample(20)   # no second warning; the rest keep going
        assert obs.probes.failed == 1
        assert obs.probes.series("good.depth") == [(10, 1.0), (20, 1.0)]
        assert obs.probes.series("bad.depth") == []
        # Export re-reads registry gauges: the broken one degrades there
        # too instead of killing the dump.
        with pytest.warns(RuntimeWarning, match="disabling this gauge"):
            metrics = obs.export_metrics()
        assert metrics["obs.probes.failed"] == 1
        assert metrics["obs.gauges.failed"] == 1
        assert metrics["good.depth"] == 1.0
        assert "bad.depth" not in metrics
        assert obs.export_metrics()["good.depth"] == 1.0  # quiet now

    def test_stream_series_skips_materialization(self):
        tracer = FakeTracer()
        probes = ProbeSet(tracer=tracer, interval=10, materialize=False)
        probes.add("g", lambda: 3.0)
        probes.sample(10)
        probes.sample(20)
        assert probes.series() == {}
        assert [e for e in tracer.events if e[0] == "counter"] == [
            ("counter", "probe", "g", 10), ("counter", "probe", "g", 20)]

    def test_probe_series_rebuild_from_jsonl(self, tmp_path):
        out = tmp_path / "t.jsonl"
        plane = {"trace": {"stream_series": True},
                 "sample_interval": 10}
        tracer = StreamingTracer(str(out))
        obs = Observer(tracer=tracer, plane=plane)
        obs.register_gauge("node0.q", lambda: 4.0)
        obs.probes.sample(10)
        obs.probes.sample(30)
        assert obs.probes.series() == {}
        obs.close()
        series = probe_series_from_jsonl(str(out))
        assert series == {"node0.q": [(10, 4.0), (30, 4.0)]}


# ----------------------------------------------------------------------
# Streamed output of a real multi-node prototype
# ----------------------------------------------------------------------

class TestStreamedIdentity:
    #: Node-local metrics, component sampling, and counter tracks
    #: spilled to the JSONL stream instead of memory.
    STREAM_PLANE = {
        "metrics": ["node*"],
        "sample_interval": 64,
        "sampling": "component",
        "trace": {"categories": ["noc", "cache", "axi", "pcie", "bridge",
                                 "mem", "link", "probe"],
                  "stream_series": True},
    }

    #: Inter-FPGA, inter-node and intra-node pairs on 4x1x2.
    PAIRS = ((0, 7), (2, 5), (0, 1))

    def _drive(self, obs):
        proto = Prototype(parse_config("4x1x2"), obs=obs)
        return [proto.measure_pair_latency(src, dst)
                for src, dst in self.PAIRS]

    @pytest.mark.parametrize("suffix", [".jsonl", ".jsonl.gz"])
    def test_stream_matches_in_memory_run(self, tmp_path, suffix):
        from repro.obs import chrome_from_jsonl
        path = tmp_path / ("stream" + suffix)
        plane = self.STREAM_PLANE
        obs = Observer(tracer=StreamingTracer(
            str(path), categories=plane["trace"]["categories"]),
            plane=plane)
        streamed_latencies = self._drive(obs)
        assert obs.probes.series() == {}       # streamed, never held
        obs.close()

        # The same run with series held in memory and a ring tracer.
        held = dict(plane, trace=dict(plane["trace"], stream_series=False))
        ring = Tracer(categories=held["trace"]["categories"],
                      ring_capacity=None)
        obs = Observer(tracer=ring, plane=held)
        assert self._drive(obs) == streamed_latencies
        # A source that never sampled has an empty in-memory series and
        # no trace in the stream at all.
        series = {name: points
                  for name, points in obs.probes.series().items() if points}
        assert series                          # the plane did sample
        assert ring.dropped == 0

        assert json.dumps(probe_series_from_jsonl(str(path)),
                          sort_keys=True) == \
            json.dumps(series, sort_keys=True)
        assert json.dumps(chrome_from_jsonl(str(path)), sort_keys=True) \
            == json.dumps(ring.to_chrome(), sort_keys=True)


# ----------------------------------------------------------------------
# CLI: validation, the obs subcommand, and the diff refusal
# ----------------------------------------------------------------------

class TestCli:
    @pytest.mark.parametrize("flags", [
        ["--sample-interval", "0"],
        ["--sample-interval", "x"],
        ["--sample-intervals", "noc"],
        ["--sample-intervals", "noc=-5"],
        ["--sample-intervals", "noc=ten"],
    ])
    def test_sampling_flags_validated_at_parse_time(self, flags, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["trace", "2x1x2"] + flags)
        assert excinfo.value.code == 2
        assert "--sample-interval" in capsys.readouterr().err

    def test_obs_validate(self, tmp_path, capsys):
        spec = tmp_path / "p.json"
        spec.write_text(json.dumps(SPEC))
        assert main(["obs", "validate", str(spec)]) == 0
        out = capsys.readouterr().out
        plane = InstrumentationPlane.from_dict(SPEC)
        assert plane.spec_hash in out
        assert "start tracing at cycle 200" in out
        assert main(["obs", "validate", str(spec), "--format",
                     "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["hash"] == plane.spec_hash
        assert payload["spec"] == plane.to_dict()

    def test_obs_validate_rejects_bad_spec(self, tmp_path, capsys):
        spec = tmp_path / "p.json"
        spec.write_text(json.dumps({"nope": 1}))
        assert main(["obs", "validate", str(spec)]) == 2
        assert "unknown spec keys" in capsys.readouterr().err

    def test_sweep_rejects_instrument(self, tmp_path, capsys):
        spec = tmp_path / "p.json"
        spec.write_text("{}")
        # sweep never simulates, so it does not take the flag at all.
        with pytest.raises(SystemExit) as exit_info:
            main(["sweep", "--instrument", str(spec)])
        assert exit_info.value.code == 2
        assert "--instrument" in capsys.readouterr().err

    def test_latency_instrument_requires_archive(self, tmp_path, capsys):
        spec = tmp_path / "p.json"
        spec.write_text("{}")
        assert main(["latency", "2x1x2", "--instrument", str(spec)]) == 2
        assert "--archive" in capsys.readouterr().err

    def test_trace_instrument_conflicts_with_categories(self, tmp_path,
                                                        capsys):
        spec = tmp_path / "p.json"
        spec.write_text("{}")
        assert main(["trace", "2x1x2", "--instrument", str(spec),
                     "--categories", "noc",
                     "--out", str(tmp_path / "t.json"),
                     "--metrics", str(tmp_path / "m.json")]) == 2
        assert "conflicts" in capsys.readouterr().err

    def test_instrumented_trace_records_spec_in_manifest(self, tmp_path,
                                                         capsys):
        spec = tmp_path / "p.json"
        spec.write_text(json.dumps(SPEC))
        run = tmp_path / "runs" / "a"
        assert main(["trace", "2x1x2", "--instrument", str(spec),
                     "--out", str(tmp_path / "t.jsonl"),
                     "--metrics", str(tmp_path / "m.json"),
                     "--archive", str(run)]) == 0
        capsys.readouterr()
        plane = InstrumentationPlane.from_dict(SPEC)
        archive = RunArchive.load(str(run))
        assert archive.manifest["instrumentation_hash"] == plane.spec_hash
        assert archive.manifest["instrumentation"] == plane.to_dict()
        assert archive.metrics["obs.plane.triggers.armed"] == 2.0
        assert archive.metrics["obs.plane.triggers.fired"] >= 1.0
        # stream_series: the bundle's series were rebuilt from the JSONL.
        bundle = json.loads((tmp_path / "m.json").read_text())
        assert bundle["series"]
        assert instrumentation_hash_of(str(run)) == plane.spec_hash

    def test_diff_refuses_cross_plane_comparisons(self, tmp_path, capsys):
        metrics = {"m": 1}
        plane = InstrumentationPlane.from_dict({"metrics": ["m*"]})
        a = tmp_path / "a"
        b = tmp_path / "b"
        c = tmp_path / "c"
        RunArchive.write(str(a), metrics, label="x",
                         instrumentation=plane.to_dict(),
                         instrumentation_hash=plane.spec_hash)
        RunArchive.write(str(b), metrics, label="x")
        RunArchive.write(str(c), metrics, label="x",
                         instrumentation=plane.to_dict())
        assert main(["diff", str(a), str(b)]) == 2
        assert "instrumented differently" in capsys.readouterr().err
        # The override compares anyway; identical metrics diff clean.
        assert main(["diff", str(a), str(b),
                     "--ignore-instrumentation"]) == 0
        # write() derives the hash from the spec when not given.
        assert instrumentation_hash_of(str(c)) == plane.spec_hash
        assert main(["diff", str(a), str(c)]) == 0


# ----------------------------------------------------------------------
# Farm spec threading
# ----------------------------------------------------------------------

class TestFarmInstrumentation:
    def _write_spec(self, tmp_path, instrumentation):
        spec = {
            "hosts": [{"name": "h0", "slots": 2}],
            "suites": [{"suite": "fig7", "config": "1x1x2"}],
            "instrumentation": instrumentation,
        }
        path = tmp_path / "farm.json"
        path.write_text(json.dumps(spec))
        return path

    def test_instrumentation_reaches_every_job(self, tmp_path):
        from repro.farm import load_spec_file
        plane_path = tmp_path / "plane.json"
        plane_path.write_text(json.dumps({"metrics": ["node*"]}))
        # A path resolves relative to the farm spec's own directory.
        path = self._write_spec(tmp_path, "plane.json")
        filespec = load_spec_file(str(path))
        expected = InstrumentationPlane.from_dict({"metrics": ["node*"]})
        assert filespec.instrumentation == expected.to_dict()
        assert filespec.suites[0].spec.obs_spec == \
            {"plane": expected.to_dict()}
        assert filespec.jobs and filespec.jobs == filespec.suites[0].jobs
        for job in filespec.jobs:
            assert job.instrumentation == expected.spec_hash
            assert job.describe()["instrumentation"] == expected.spec_hash

    def test_inline_mapping_and_suite_override(self, tmp_path):
        from repro.farm import load_spec_file
        spec = {
            "hosts": [{"name": "h0", "slots": 1}],
            "suites": [{"suite": "fig7", "config": "1x1x2",
                        "obs": {"sample_interval": 9}}],
            "instrumentation": {"metrics": ["node*"]},
        }
        path = tmp_path / "farm.json"
        path.write_text(json.dumps(spec))
        filespec = load_spec_file(str(path))
        # An explicit per-suite obs wins over the spec-wide plane.
        assert filespec.suites[0].spec.obs_spec == {"sample_interval": 9}
        assert filespec.jobs[0].instrumentation is None

    def test_bad_instrumentation_rejected(self, tmp_path):
        from repro.farm import load_spec_file
        path = self._write_spec(tmp_path, ["not", "a", "plane"])
        with pytest.raises(FarmError, match="instrumentation"):
            load_spec_file(str(path))
        path = self._write_spec(tmp_path, {"nope": 1})
        with pytest.raises(FarmError, match="bad instrumentation"):
            load_spec_file(str(path))
        path = self._write_spec(tmp_path, "missing.yaml")
        with pytest.raises(FarmError, match="bad instrumentation"):
            load_spec_file(str(path))
