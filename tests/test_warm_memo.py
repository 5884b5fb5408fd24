"""The per-sample warm-up memo of :mod:`repro.harness.experiment`.

Each workload sample is warmed once per memo lifetime; every cell starts
from a private deep copy of that state.  Two properties make that safe:
sharing never changes a result (a cell computed as a later user of a
snapshot equals the same cell computed as its first user), and snapshots
are isolated (cells never write through to the stored state or to each
other).
"""

from dataclasses import replace

import pytest

from repro.faults import FaultPlan
from repro.harness import experiment
from repro.harness.experiment import clear_cache, run_workload, warmed
from repro.harness.figures import adaptive_window
from repro.lang.builder import ProgramBuilder
from repro.runtime.heap import GuestObject, Heap
from repro.service.protocol import payload_digest, result_payload
from repro.vm import ATOMIC_AGGRESSIVE, NO_ATOMIC, TieredVM, WarmState
from repro.workloads import ALL_WORKLOADS, get_workload


def digest(result) -> str:
    return payload_digest(result_payload(result))


def first_and_later(cells):
    """Each cell's digest as the first user of a fresh memo, and as a later
    user: one starting from entries another cell already ran from."""
    first, later = {}, {}
    clear_cache()
    for index, (label, run) in enumerate(cells):
        (later if index else first)[label] = digest(run())
    for label, run in cells[1:]:
        clear_cache()
        first[label] = digest(run())
    label, run = cells[0]
    later[label] = digest(run())
    clear_cache()
    return first, later


class TestMemoNeverChangesAResult:
    @pytest.mark.parametrize("name", sorted(ALL_WORKLOADS))
    def test_registered_workload(self, name):
        workload = get_workload(name)
        cells = [
            (f"{config.name}/timing={timing}",
             lambda c=config, t=timing: run_workload(
                 workload, c, timing=t, use_cache=False))
            for config in (NO_ATOMIC, ATOMIC_AGGRESSIVE)
            for timing in (True, False)
        ]
        first, later = first_and_later(cells)
        assert set(first) == set(later) == {label for label, _ in cells}
        assert first == later

    @pytest.mark.parametrize("special", ["seeded", "mono", "adaptive"])
    def test_special_cells(self, special):
        """Each special cell is paired with a plain cell of the same
        workload, so its later run follows another configuration."""
        if special == "seeded":
            workload = get_workload("hsqldb")
            flags = {"fault_plan": FaultPlan.seeded(3)}
        elif special == "mono":
            workload = get_workload("jython")
            flags = {"force_monomorphic": True}
        else:
            workload = adaptive_window("pmd")
            flags = {"adaptive": True}
        cells = [
            (special, lambda: run_workload(
                workload, ATOMIC_AGGRESSIVE, use_cache=False, **flags)),
            ("plain", lambda: run_workload(
                workload, NO_ATOMIC, use_cache=False)),
        ]
        first, later = first_and_later(cells)
        assert first == later


class TestSnapshotsAreIsolated:
    def setup_method(self):
        clear_cache()

    def teardown_method(self):
        clear_cache()

    def test_cells_never_write_through(self):
        workload = get_workload("hsqldb")
        run_workload(workload, NO_ATOMIC, use_cache=False)
        (stored,) = experiment._warm.values()
        heap = stored.heap.fingerprint()
        invocations = stored.profiles.snapshot_invocations()
        counters = (stored.bytecodes_executed, stored.safepoints_polled)
        for config in (ATOMIC_AGGRESSIVE, NO_ATOMIC):
            for timing in (True, False):
                run_workload(workload, config, timing=timing,
                             use_cache=False)
        run_workload(workload, ATOMIC_AGGRESSIVE,
                     fault_plan=FaultPlan.seeded(1), use_cache=False)
        assert list(experiment._warm.values()) == [stored]
        assert stored.heap.fingerprint() == heap
        assert stored.profiles.snapshot_invocations() == invocations
        assert (stored.bytecodes_executed,
                stored.safepoints_polled) == counters

    def test_vms_share_no_state(self):
        workload = get_workload("xalan")
        one = TieredVM(warmed(workload, 0), validate=False)
        two = TieredVM(warmed(workload, 0), validate=False)
        (stored,) = experiment._warm.values()
        for attr in ("heap", "profiles", "program"):
            objects = [getattr(one, attr), getattr(two, attr),
                       getattr(stored, attr)]
            assert len({id(o) for o in objects}) == 3, attr
        assert one.heap.fingerprint() == stored.heap.fingerprint()
        assert (one.interpreter.bytecodes_executed
                == stored.bytecodes_executed > 0)
        # a copy's heap objects use its own program's field layouts
        layouts = {id(layout) for layout in
                   one.program._layout_cache.values()}
        objects = [x for x in one.heap.allocations
                   if isinstance(x, GuestObject)]
        assert objects and all(id(x.field_index) in layouts
                               for x in objects)

    def test_reference_arrays_copy_through_the_memo(self):
        """Scalar arrays copy by slice; an array holding references
        points at the copy's objects, one per original object."""
        pb = ProgramBuilder()
        pb.cls("Node", fields=["v", "next"])
        m = pb.method("poke", params=("outer",))
        outer_reg = m.param(0)
        zero, two, three = m.const(0), m.const(2), m.const(3)
        k = m.const(99)
        m.astore(outer_reg, zero, k)
        m.putfield(m.aload(outer_reg, two), "v", k)
        m.astore(m.aload(outer_reg, three), zero, k)
        m.ret(k)
        program = pb.build()
        heap = Heap()
        node = heap.new_object("Node", program.field_layout("Node"))
        inner = heap.new_array(3)
        inner.values[:] = [7, None, 8]
        outer = heap.new_array(5)
        outer.values[:] = [1, None, node, inner, node]
        node.put("next", inner)
        state = WarmState(program, heap)
        image = heap.fingerprint()

        copied = state.copy()
        node_c, inner_c, outer_c = copied.heap.allocations
        assert node_c is not node and inner_c is not inner
        assert outer_c.values == [1, None, node_c, inner_c, node_c]
        assert outer_c.values[2] is outer_c.values[4] is node_c
        assert outer_c.values[3] is inner_c and node_c.get("next") is inner_c
        assert inner_c.values == [7, None, 8]
        assert inner_c.values is not inner.values
        assert node_c.field_index is copied.program.field_layout("Node")
        assert copied.heap.fingerprint() == image

        assert TieredVM(copied).run("poke", [outer_c]) == 99
        assert heap.fingerprint() == image
        assert (outer_c.values[0], node_c.get("v"), inner_c.values[0]) \
            == (99, 99, 99)
        assert (outer.values[0], node.get("v"), inner.values[0]) == (1, 0, 7)

    def test_clear_cache_empties_the_memo(self):
        run_workload(get_workload("hsqldb"), NO_ATOMIC, timing=False)
        assert experiment._warm
        clear_cache()
        assert not experiment._warm

    def test_key_is_the_warm_up_inputs_not_the_name(self):
        workload = get_workload("hsqldb")
        run_workload(workload, NO_ATOMIC, timing=False, use_cache=False)
        entries = len(experiment._warm)
        # renamed, same build and warm args: shares
        run_workload(replace(workload, name="hsqldb-renamed"), NO_ATOMIC,
                     timing=False, use_cache=False)
        assert len(experiment._warm) == entries
        # same name, other warm args: its own warm-up
        fewer = replace(workload, samples=[
            replace(s, warm_args=s.warm_args[:-1]) for s in workload.samples
        ])
        run_workload(fewer, NO_ATOMIC, timing=False, use_cache=False)
        assert len(experiment._warm) == entries + len(workload.samples)
        # same name, another build callable: its own warm-up
        rebuilt = replace(workload, build=lambda: workload.build())
        run_workload(rebuilt, NO_ATOMIC, timing=False, use_cache=False)
        assert len(experiment._warm) == entries + 2 * len(workload.samples)
