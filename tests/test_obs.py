"""Observability subsystem tests: tracer semantics, Chrome export schema,
failure dumps, and the text timeline.

The contracts pinned here:

- the null tracer emits nothing and stores nothing (the zero-overhead path);
- the ring buffer bounds memory and *flags* truncation instead of growing;
- exported Chrome traces satisfy :func:`repro.obs.validate_chrome_trace`
  (required fields, known phases, balanced B/E slices when untruncated);
- a failing chaos / concurrency-chaos check dumps a schema-valid Chrome
  trace containing the aborting region's enter/abort pair;
- scheduler context-switch events mirror ``sched.trace`` one-for-one.
"""

import json

import pytest

from repro.faults import FaultPlan
from repro.harness import render_timeline, run_chaos, run_concurrency_chaos, run_workload
from repro.harness import chaos as chaos_mod
from repro.obs import (
    ALLOWED_PHASES,
    EVENT_KINDS,
    NULL_TRACER,
    TraceEvent,
    Tracer,
    dump_chrome_trace,
    to_chrome_trace,
    validate_chrome_trace,
)
from repro.runtime import SchedulePlan
from repro.vm import ATOMIC, TieredVM, VMOptions
from repro.workloads import HSQLDB_THREADED, get_workload

ATOMIC_INLINE = ATOMIC.with_aggressive_inlining()


@pytest.fixture(scope="module")
def traced_run():
    """One traced hsqldb execution shared by the read-only tests below."""
    tracer = Tracer()
    result = run_workload(get_workload("hsqldb"), ATOMIC, tracer=tracer)
    return tracer, result


def _threaded_traced(seed=0):
    """One traced deterministic multi-threaded run of HSQLDB_THREADED."""
    workload = HSQLDB_THREADED
    tracer = Tracer()
    vm = TieredVM(
        workload.build(),
        compiler_config=ATOMIC_INLINE,
        options=VMOptions(enable_timing=False, compile_threshold=3),
        tracer=tracer,
    )
    for args in workload.warm_args:
        shared = vm.run(workload.setup)
        vm.warm_up(workload.worker, [[shared] + list(args)])
    vm.compile_hot(min_invocations=1)
    shared = vm.run(workload.setup)
    vm.start_measurement()
    sched = vm.run_threads(
        [(workload.worker, [shared] + list(args), f"w{tid}")
         for tid, args in enumerate(workload.thread_args)],
        plan=SchedulePlan(seed=seed),
    )
    stats = vm.end_measurement()
    return tracer, sched, stats


class TestTracer:
    def test_null_tracer_emits_and_stores_nothing(self):
        for _ in range(2):
            NULL_TRACER.region_enter(1, 0, "m", 0, 4)
            NULL_TRACER.region_abort(2, 0, "m", 0, "assert", 4, 9, 1, 1)
            NULL_TRACER.ctx_switch(3, 1, from_tid=0)
            NULL_TRACER.interrupt(4)
        assert NULL_TRACER.enabled is False
        assert NULL_TRACER.events == ()
        assert NULL_TRACER.emitted == 0
        assert NULL_TRACER.truncated is False

    def test_events_are_typed_and_comparable(self):
        tracer = Tracer()
        tracer.region_enter(5, 1, method="M.f", region=0, pc=12)
        (event,) = tracer.events
        assert event == TraceEvent(
            ts=5, kind="region_enter", tid=1,
            args=(("method", "M.f"), ("pc", 12), ("region", 0)),
        )
        assert event.arg("pc") == 12
        assert event.arg("missing", "x") == "x"
        assert "region_enter" in event.describe()
        assert event.kind in EVENT_KINDS
        # frozen => hashable => streams compare with plain ==
        assert len({event, event}) == 1

    def test_ring_truncates_and_flags(self):
        tracer = Tracer(capacity=4)
        for ts in range(10):
            tracer.interrupt(ts)
        assert len(tracer) == 4
        assert tracer.emitted == 10
        assert tracer.truncated is True
        assert [e.ts for e in tracer.events] == [6, 7, 8, 9]  # oldest dropped
        tracer.clear()
        assert len(tracer) == 0 and tracer.emitted == 0
        assert tracer.truncated is False

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            Tracer(capacity=0)


class TestMachineEmission:
    def test_region_events_mirror_stats(self, traced_run):
        tracer, result = traced_run
        kinds = [event.kind for event in tracer.events]
        entered = sum(s.stats.regions_entered for s in result.samples)
        committed = sum(s.stats.regions_committed for s in result.samples)
        aborted = sum(s.stats.regions_aborted for s in result.samples)
        assert kinds.count("region_enter") == entered > 0
        assert kinds.count("region_commit") == committed
        assert kinds.count("region_abort") == aborted
        assert kinds.count("tier_compile") >= 1

    def test_commit_carries_footprint(self, traced_run):
        tracer, _result = traced_run
        commits = [e for e in tracer.events if e.kind == "region_commit"]
        assert commits
        for event in commits:
            assert event.arg("uops") > 0
            assert event.arg("lines_read") >= 0
            assert event.arg("lines_written") >= 0

    def test_fault_injection_events(self):
        workload = get_workload("hsqldb")
        sample = workload.samples[0]
        tracer = Tracer()
        vm = TieredVM(
            workload.build(),
            compiler_config=ATOMIC,
            options=VMOptions(enable_timing=False, compile_threshold=3),
            fault_plan=FaultPlan.storm("assert", offset=2),
            tracer=tracer,
        )
        vm.warm_up(workload.entry, [list(a) for a in sample.warm_args])
        vm.compile_hot(min_invocations=1)
        for args in sample.measure_args:
            vm.run(workload.entry, list(args))
        kinds = {event.kind for event in tracer.events}
        assert "fault_armed" in kinds
        aborts = [e for e in tracer.events if e.kind == "region_abort"]
        assert any(e.arg("reason") == "assert" for e in aborts)


class TestChromeExport:
    def test_real_trace_validates(self, traced_run):
        tracer, _result = traced_run
        document = to_chrome_trace(tracer.events, truncated=tracer.truncated)
        validate_chrome_trace(document)
        phases = {entry["ph"] for entry in document["traceEvents"]}
        assert phases <= set(ALLOWED_PHASES)
        ends = [e for e in document["traceEvents"] if e["ph"] == "E"]
        assert all(e["args"]["outcome"] in ("commit", "abort") for e in ends)

    def test_dump_roundtrip(self, traced_run, tmp_path):
        tracer, _result = traced_run
        path = dump_chrome_trace(
            tracer.events, str(tmp_path / "sub" / "run.trace.json"),
            truncated=tracer.truncated,
        )
        with open(path, encoding="utf-8") as handle:
            document = json.load(handle)
        validate_chrome_trace(document)
        assert document["otherData"]["clock"] == "retired-uops"

    def test_validator_rejects_malformed(self):
        with pytest.raises(ValueError):
            validate_chrome_trace([])
        with pytest.raises(ValueError):
            validate_chrome_trace({})
        good = to_chrome_trace(
            [TraceEvent(1, "interrupt", 0)], truncated=False
        )
        validate_chrome_trace(good)

        missing = json.loads(json.dumps(good))
        del missing["traceEvents"][0]["ts"]
        with pytest.raises(ValueError, match="missing"):
            validate_chrome_trace(missing)

        bad_phase = json.loads(json.dumps(good))
        bad_phase["traceEvents"][0]["ph"] = "X"
        with pytest.raises(ValueError, match="phase"):
            validate_chrome_trace(bad_phase)

        bad_cat = json.loads(json.dumps(good))
        bad_cat["traceEvents"][0]["cat"] = "mystery"
        with pytest.raises(ValueError, match="category"):
            validate_chrome_trace(bad_cat)

        negative_ts = json.loads(json.dumps(good))
        negative_ts["traceEvents"][0]["ts"] = -1
        with pytest.raises(ValueError, match="ts"):
            validate_chrome_trace(negative_ts)

    def test_balance_check_skipped_when_truncated(self):
        # An enter whose commit fell off the ring: unbalanced on purpose.
        lone_enter = [TraceEvent(
            1, "region_enter", 0,
            args=(("method", "M.f"), ("pc", 0), ("region", 0)),
        )]
        with pytest.raises(ValueError, match="unbalanced"):
            validate_chrome_trace(to_chrome_trace(lone_enter, truncated=False))
        validate_chrome_trace(to_chrome_trace(lone_enter, truncated=True))


class TestFailureDumps:
    def test_forced_chaos_failure_dumps_valid_trace(self, tmp_path, monkeypatch):
        monkeypatch.setattr(
            chaos_mod.ChaosCheck, "ok", property(lambda self: False)
        )
        report = run_chaos(
            get_workload("hsqldb"), ATOMIC, seeds=(0,), max_samples=1,
            plan_factory=lambda seed: FaultPlan.storm("assert", offset=2),
            trace_dir=str(tmp_path),
        )
        (check,) = report.checks
        assert check.trace_path is not None
        with open(check.trace_path, encoding="utf-8") as handle:
            document = json.load(handle)
        validate_chrome_trace(document)
        entries = document["traceEvents"]
        abort_ends = [
            (i, e) for i, e in enumerate(entries)
            if e["ph"] == "E" and e["args"].get("outcome") == "abort"
        ]
        assert abort_ends, "forced abort storm produced no abort slice"
        index, abort = abort_ends[0]
        assert any(
            e["ph"] == "B" and e["name"] == abort["name"]
            for e in entries[:index]
        ), "aborting region has no matching enter slice"
        assert check.trace_path in check.describe()

    def test_forced_concurrency_failure_dumps_trace(self, tmp_path, monkeypatch):
        monkeypatch.setattr(
            chaos_mod.ConcurrencyCheck, "ok", property(lambda self: False)
        )
        report = run_concurrency_chaos(
            HSQLDB_THREADED, ATOMIC_INLINE, seeds=(0,),
            trace_dir=str(tmp_path),
        )
        (check,) = report.checks
        assert check.trace_path is not None
        with open(check.trace_path, encoding="utf-8") as handle:
            validate_chrome_trace(json.load(handle))

    def test_trace_dir_resolution(self, monkeypatch, tmp_path):
        monkeypatch.delenv("CHAOS_TRACE_DIR", raising=False)
        assert chaos_mod._resolve_trace_dir(None) == "."
        monkeypatch.setenv("CHAOS_TRACE_DIR", str(tmp_path))
        assert chaos_mod._resolve_trace_dir(None) == str(tmp_path)
        assert chaos_mod._resolve_trace_dir("explicit") == "explicit"


class TestSchedulerEvents:
    def test_ctx_switch_mirrors_schedule_trace(self):
        tracer, sched, stats = _threaded_traced(seed=0)
        switches = [e for e in tracer.events if e.kind == "ctx_switch"]
        assert [(e.ts, e.tid) for e in switches] == sched.trace
        assert switches[0].arg("from_tid") == -1
        assert stats.context_switches == sched.context_switches

    def test_threaded_replay_is_bit_identical(self):
        first, _, _ = _threaded_traced(seed=3)
        second, _, _ = _threaded_traced(seed=3)
        assert first.events == second.events


class TestTimeline:
    def test_render_timeline(self):
        events = [
            TraceEvent(10, "region_enter", 0,
                       args=(("method", "M.f"), ("pc", 4), ("region", 0))),
            TraceEvent(42, "region_abort", 0,
                       args=(("method", "M.f"), ("reason", "assert"))),
        ]
        text = render_timeline(events)
        assert "region_enter" in text
        assert "reason=assert" in text
        assert "2 event(s)" in text

    def test_render_timeline_limit(self):
        events = [TraceEvent(ts, "interrupt", 0) for ts in range(20)]
        text = render_timeline(events, limit=5)
        assert "15 earlier events omitted" in text
        assert "20 event(s)" in text
        assert "\n        19    0" in text

    def test_timeline_of_real_trace(self, traced_run):
        tracer, _result = traced_run
        text = render_timeline(tracer.events, limit=50)
        assert "region_enter" in text
        assert f"{tracer.emitted} event(s)" in text or "event(s)" in text
