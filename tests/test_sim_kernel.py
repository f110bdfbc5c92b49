"""Tests for the cycle-driven simulation kernel."""

import pytest

from repro.sim.kernel import CycleSimulator, StagedFifo


class Counter:
    """Test component: counts its step/commit invocations."""

    def __init__(self):
        self.steps = 0
        self.commits = 0

    def step(self, cycle):
        self.steps += 1
        self.last_cycle = cycle

    def commit(self):
        self.commits += 1


class TestStagedFifo:
    def test_push_not_visible_until_commit(self):
        fifo = StagedFifo()
        fifo.push("a")
        assert len(fifo) == 0
        assert fifo.peek() is None
        fifo.commit()
        assert len(fifo) == 1
        assert fifo.peek() == "a"

    def test_fifo_order(self):
        fifo = StagedFifo()
        for item in ("a", "b", "c"):
            fifo.push(item)
        fifo.commit()
        assert [fifo.pop() for _ in range(3)] == ["a", "b", "c"]

    def test_capacity_counts_staged(self):
        fifo = StagedFifo(capacity=2)
        fifo.push(1)
        assert fifo.can_accept()
        fifo.push(2)
        assert not fifo.can_accept()
        with pytest.raises(OverflowError):
            fifo.push(3)

    def test_capacity_frees_on_pop(self):
        fifo = StagedFifo(capacity=1)
        fifo.push(1)
        fifo.commit()
        assert not fifo.can_accept()
        fifo.pop()
        assert fifo.can_accept()

    def test_pop_empty_raises(self):
        with pytest.raises(IndexError):
            StagedFifo().pop()

    def test_bad_capacity_rejected(self):
        with pytest.raises(ValueError):
            StagedFifo(capacity=0)

    def test_occupancy_tracks_both(self):
        fifo = StagedFifo()
        fifo.push(1)
        fifo.commit()
        fifo.push(2)
        assert len(fifo) == 1
        assert fifo.occupancy == 2

    def test_drain(self):
        fifo = StagedFifo()
        fifo.push(1)
        fifo.push(2)
        fifo.commit()
        assert fifo.drain() == [1, 2]
        assert len(fifo) == 0

    def test_drain_includes_staged(self):
        """Drain empties the staging buffer too — staged items must not
        silently commit on the next tick after a drain."""
        fifo = StagedFifo()
        fifo.push(1)
        fifo.commit()
        fifo.push(2)  # staged, not yet committed
        assert fifo.drain() == [1, 2]
        assert len(fifo) == 0
        assert fifo.occupancy == 0
        fifo.commit()
        assert len(fifo) == 0  # nothing reappears

    def test_drain_staged_frees_capacity(self):
        fifo = StagedFifo(capacity=1)
        fifo.push(1)
        assert not fifo.can_accept()
        fifo.drain()
        assert fifo.can_accept()


class TestCycleSimulator:
    def test_step_then_commit_each_cycle(self):
        sim = CycleSimulator()
        comp = Counter()
        sim.add(comp)
        sim.run(5)
        assert comp.steps == 5
        assert comp.commits == 5
        assert sim.cycle == 5

    def test_run_until(self):
        sim = CycleSimulator()
        comp = Counter()
        sim.add(comp)
        consumed = sim.run_until(lambda: comp.steps >= 3)
        assert consumed == 3

    def test_run_until_timeout(self):
        sim = CycleSimulator()
        with pytest.raises(TimeoutError):
            sim.run_until(lambda: False, max_cycles=10)

    def test_registered_fifo_commits(self):
        sim = CycleSimulator()
        fifo = sim.register_fifo(StagedFifo())

        class Producer:
            def step(self, cycle):
                fifo.push(cycle)

            def commit(self):
                pass

        sim.add(Producer())
        sim.run(3)
        # Cycle 2's push commits at end of cycle 2; all three visible.
        assert fifo.drain() == [0, 1, 2]

    def test_two_phase_isolation(self):
        """A consumer never sees a value pushed in the same cycle."""
        sim = CycleSimulator()
        fifo = StagedFifo()
        seen = []

        class Producer:
            def step(self, cycle):
                fifo.push(cycle)

            def commit(self):
                fifo.commit()

        class Observer:
            def step(self, cycle):
                if fifo.peek() is not None:
                    seen.append((cycle, fifo.pop()))

            def commit(self):
                pass

        sim.add(Producer())
        sim.add(Observer())
        sim.run(4)
        assert seen == [(1, 0), (2, 1), (3, 2)]

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError):
            CycleSimulator(mesh_backend="vapor")
        with pytest.raises(ValueError):
            CycleSimulator(tile_backend="vapor")


class SleepyConsumer:
    """Test component honouring the quiescence contract: drains a FIFO,
    idle while it is empty."""

    def __init__(self, fifo):
        self.fifo = fifo
        self.steps = 0
        self.drained = []

    def step(self, cycle):
        self.steps += 1
        while self.fifo.peek() is not None:
            self.drained.append((cycle, self.fifo.pop()))

    def commit(self):
        self.fifo.commit()

    def is_idle(self):
        return not self.fifo._items and not self.fifo._staged


class Alarm:
    """Test component that self-schedules: fires every ``period``."""

    def __init__(self, period):
        self.period = period
        self.fired = []
        self.steps = 0
        self._next = period

    def step(self, cycle):
        self.steps += 1
        if cycle >= self._next:
            self.fired.append(cycle)
            self._next = cycle + self.period

    def commit(self):
        pass

    def is_idle(self):
        return True

    def next_event_cycle(self):
        return self._next


class EarlyAlarm(Alarm):
    """An Alarm whose ``next_event_cycle`` names a cycle well before
    its real event — safe, just not skipped as far."""

    def next_event_cycle(self):
        return self._next - 7


class TestScheduledKernel:
    """The one rule: ``tick`` steps everything; ``run``/``run_until``
    skip only while every component is idle, landing on the earliest
    ``next_event_cycle``."""

    def test_idle_component_is_not_stepped(self):
        sim = CycleSimulator()
        consumer = SleepyConsumer(StagedFifo())
        sim.add(consumer)
        sim.run(100)
        # Idle from cycle 0 with nothing scheduled: one jump to the end.
        assert consumer.steps == 0
        assert sim.idle_cycles_skipped == 100

    def test_skip_only_when_all_idle(self):
        sim = CycleSimulator()
        consumer = SleepyConsumer(StagedFifo())
        busy = Counter()
        sim.add(consumer)
        sim.add(busy)
        sim.run(50)
        # ``busy`` has no contract, so the idle consumer is stepped too.
        assert consumer.steps == busy.steps == 50
        assert sim.idle_cycles_skipped == 0

    def test_fifo_push_wakes_consumer(self):
        sim = CycleSimulator()
        fifo = StagedFifo()
        consumer = SleepyConsumer(fifo)
        sim.add(consumer)
        sim.run(10)
        fifo.push("ping")  # external injection mid-quiescence
        sim.run(10)
        # Not idle any more: the push commits, the consumer drains it
        # next step, then the clock jumps again.
        assert consumer.drained == [(11, "ping")]
        assert consumer.steps == 2
        assert sim.cycle == 20

    def test_same_cycle_push_commits_on_schedule(self):
        """A producer's push is visible to the consumer exactly one
        cycle later, whether the run ticks or skips."""
        results = {}
        for drive in ("tick", "run"):
            sim = CycleSimulator()
            fifo = StagedFifo()
            consumer = SleepyConsumer(fifo)

            class Producer:
                def step(self, cycle):
                    if cycle == 5:
                        fifo.push("x")

                def commit(self):
                    pass

                def is_idle(self):
                    return True

                def next_event_cycle(self):
                    return 5

            sim.add(Producer())
            sim.add(consumer)
            if drive == "tick":
                for _ in range(20):
                    sim.tick()
            else:
                sim.run(20)
                assert sim.idle_cycles_skipped > 0
            results[drive] = consumer.drained
        assert results["tick"] == results["run"] == [(6, "x")]

    def test_skip_lands_on_next_event_cycle(self):
        sim = CycleSimulator()
        alarm = Alarm(period=25)
        sim.add(alarm)
        sim.run(100)
        assert alarm.fired == [25, 50, 75]
        # Stepped exactly at each event cycle, never in between.
        assert alarm.steps == 3
        assert sim.idle_cycles_skipped == 97

    def test_run_matches_tick_loop(self):
        ticked = CycleSimulator()
        a1 = Alarm(period=7)
        ticked.add(a1)
        for _ in range(60):
            ticked.tick()
        skipping = CycleSimulator()
        a2 = Alarm(period=7)
        skipping.add(a2)
        skipping.run(60)
        assert a1.fired == a2.fired
        assert a1.steps == 60 and a2.steps == len(a2.fired)

    def test_idle_skip_advances_clock_exactly(self):
        sim = CycleSimulator()
        sim.add(SleepyConsumer(StagedFifo()))
        sim.run(1000)
        assert sim.cycle == 1000

    def test_tick_steps_everything(self):
        sim = CycleSimulator()
        consumer = SleepyConsumer(StagedFifo())
        sim.add(consumer)
        for _ in range(50):
            sim.tick()
        assert consumer.steps == 50
        assert sim.idle_cycles_skipped == 0
        assert sim.component_steps == 50

    def test_component_without_contract_always_stepped(self):
        sim = CycleSimulator()
        comp = Counter()
        sim.add(comp)
        sim.run(50)
        assert comp.steps == 50
        assert sim.idle_cycles_skipped == 0

    def test_run_until_skips_and_still_times_out(self):
        sim = CycleSimulator()
        sim.add(SleepyConsumer(StagedFifo()))
        with pytest.raises(TimeoutError):
            sim.run_until(lambda: False, max_cycles=500)
        assert sim.cycle == 500

    def test_run_until_condition_met_via_timer(self):
        sim = CycleSimulator()
        alarm = Alarm(period=40)
        sim.add(alarm)
        consumed = sim.run_until(lambda: alarm.fired, max_cycles=1000)
        assert alarm.fired == [40]
        assert consumed == 41

    def test_wake_early_is_harmless(self):
        """A ``next_event_cycle`` earlier than the real event must not
        change behaviour — the jump stops short and the clock ticks."""
        sim = CycleSimulator()
        alarm = EarlyAlarm(period=30)
        sim.add(alarm)
        sim.run(100)
        assert alarm.fired == [30, 60, 90]
        assert sim.idle_cycles_skipped > 0


class TestRunUntilExactness:
    """run_until must observe the condition at the exact cycle it
    first becomes true, even when that cycle falls in the middle of an
    idle-skipped stretch."""

    def test_predicate_mid_idle_stretch_not_overshot(self):
        sim = CycleSimulator()
        sim.add(SleepyConsumer(StagedFifo()))
        # Fully quiescent design: without re-evaluation the skip would
        # jump straight to max_cycles and overshoot to 10_000.
        consumed = sim.run_until(lambda: sim.cycle >= 337,
                                 max_cycles=10_000)
        assert sim.cycle == 337
        assert consumed == 337

    def test_predicate_between_timer_wakes(self):
        sim = CycleSimulator()
        alarm = Alarm(period=100)
        sim.add(alarm)
        # 250 lies strictly inside the idle stretch (200, 300).
        sim.run_until(lambda: sim.cycle >= 250, max_cycles=1000)
        assert sim.cycle == 250
        assert alarm.fired == [100, 200]

    def test_predicate_at_stretch_start_consumes_nothing_extra(self):
        sim = CycleSimulator()
        sim.add(SleepyConsumer(StagedFifo()))
        sim.run(42)
        assert sim.run_until(lambda: sim.cycle >= 42) == 0
        assert sim.cycle == 42

    def test_contractless_design_steps_every_cycle(self):
        sim = CycleSimulator()
        comp = Counter()
        sim.add(comp)
        consumed = sim.run_until(lambda: sim.cycle >= 7)
        assert (sim.cycle, consumed) == (7, 7)
        assert comp.steps == 7

    def test_timeout_still_raised_when_never_true(self):
        sim = CycleSimulator()
        sim.add(SleepyConsumer(StagedFifo()))
        with pytest.raises(TimeoutError):
            sim.run_until(lambda: False, max_cycles=123)
        assert sim.cycle == 123


class TestSanitizedTick:
    """The sanitizer's entry point hands components to the observer
    exactly at the cycles ``run`` would skip."""

    class Recorder:
        def __init__(self):
            self.shadowed = []

        def shadow_step(self, component, cycle):
            self.shadowed.append(cycle)
            component.step(cycle)

    def test_shadow_steps_only_skippable_cycles(self):
        sim = CycleSimulator()
        alarm = Alarm(period=10)
        sim.add(alarm)
        observer = self.Recorder()
        for _ in range(25):
            sim.sanitized_tick(observer)
        assert observer.shadowed == [c for c in range(25)
                                     if c not in (10, 20)]
        assert alarm.fired == [10, 20]
        assert sim.cycle == 25

    def test_busy_design_never_shadowed(self):
        sim = CycleSimulator()
        sim.add(Counter())
        observer = self.Recorder()
        for _ in range(10):
            sim.sanitized_tick(observer)
        assert observer.shadowed == []
