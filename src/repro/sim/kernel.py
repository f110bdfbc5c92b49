"""Cycle-driven simulation kernel.

Models synchronous digital hardware with a two-phase clock:

1. *step*: every component reads the state committed at the end of the
   previous cycle and stages its outputs (e.g. pushes flits into
   downstream :class:`StagedFifo` objects).
2. *commit*: all staged writes become visible simultaneously.

Because no staged write is observable until every component has stepped,
the result is independent of component iteration order, which keeps the
simulator deterministic and faithful to clocked RTL.

Scheduling: one rule
--------------------

``tick()`` steps and commits every registered component and FIFO, in
registration order — the clock edge every tile and router of the RTL
sees.  ``run``/``run_until`` add one shortcut: when *every* component
reports ``is_idle()``, nothing can change before the earliest
``next_event_cycle()``, so the clock jumps straight there instead of
ticking no-op cycles.  The batch cores (:mod:`repro.noc.flatmesh`,
:mod:`repro.tiles.flatcore`) already skip their own idle routers and
tiles inside one step, so the kernel keeps no per-component activity
state of its own.

The quiescence contract — both optional, looked up with ``getattr``:

``is_idle() -> bool``
    True iff ``step(cycle)`` would make no externally visible state
    change at the current cycle and every later one, for as long as no
    other component steps, nothing outside the simulator mutates the
    component, and the cycle returned by ``next_event_cycle()`` has not
    arrived.  A component without ``is_idle`` is never idle: while it
    is registered, the clock never jumps.

``next_event_cycle() -> int | None``
    The absolute cycle of the component's next self-generated event (a
    paced injector's next send, a tile engine's emit deadline), or None
    if only external input can create work.  Consulted only when every
    component is idle.  Naming an early cycle is always safe (the jump
    stops short and the clock ticks); naming a late one is a bug, which
    the sanitizer's idle-truth pass (BHV401) reports.
"""

from __future__ import annotations

import time
from collections import deque
from collections.abc import Callable, Iterable
from typing import Protocol, runtime_checkable


class WallClockBudgetExceeded(TimeoutError):
    """``run_until`` exceeded its ``wall_clock_budget_s``.

    Distinct from the plain ``TimeoutError`` raised when ``max_cycles``
    is exhausted: a cycle budget bounds *simulated* time, the wall
    budget bounds *host* time — the guard chaos sweeps and CI use so a
    wedged design fails instead of hanging the job.
    """


@runtime_checkable
class ClockedComponent(Protocol):
    """Anything driven by the simulator clock.

    ``step(cycle)`` computes against last cycle's state; ``commit()``
    publishes this cycle's writes.  Components may additionally
    implement the quiescence contract (module docstring) so a run can
    jump over stretches where the whole design is idle.
    """

    def step(self, cycle: int) -> None: ...

    def commit(self) -> None: ...


class Wakeable:
    """Mixin giving a component an externally triggerable wake hook.

    A flat batch core (:mod:`repro.noc.flatmesh`,
    :mod:`repro.tiles.flatcore`) fills :attr:`_kernel_wake` when it
    adopts a port or tile; methods that mutate the member from outside
    its own ``step`` (frame injection, message send) call :meth:`_wake`
    so the core sets the member's busy bit.  Outside a core the slot
    stays None and ``_wake`` is a no-op.
    """

    _kernel_wake: Callable[[], None] | None = None

    def _wake(self) -> None:
        wake = self._kernel_wake
        if wake is not None:
            wake()


class StagedFifo:
    """A FIFO with staged writes, modelling a clocked queue.

    ``push`` stages an item that becomes poppable only after ``commit``.
    Capacity accounting is conservative: staged items count against
    capacity immediately, so a producer that checks :meth:`can_accept`
    during *step* can never overflow the queue.

    Wake hooks: callables registered through :meth:`add_waker` run on
    every ``push`` — the flat tile core uses them to set a consumer
    tile's busy bit, so idle tiles cost nothing inside its step.
    """

    __slots__ = ("capacity", "name", "high_water", "_items", "_staged",
                 "_wakers", "_visible")

    def __init__(self, capacity: int | None = None, name: str = "fifo"):
        if capacity is not None and capacity < 1:
            raise ValueError("capacity must be >= 1 (or None for unbounded)")
        self.capacity = capacity
        self.name = name
        #: Maximum end-of-cycle depth ever committed — the telemetry
        #: plane's per-queue high-water mark.  Updated at commit (the
        #: only point the occupancy is architecturally observable), so
        #: it costs nothing on cycles without staged pushes.
        self.high_water = 0
        self._items: deque = deque()
        self._staged: list = []
        self._wakers: list[Callable[[], None]] = []
        #: Committed occupancy as of the last commit boundary — the
        #: credit count a link-level producer sees.  Router-to-router
        #: links release credits with one cycle of lag (a pop becomes
        #: visible upstream only at the next cycle boundary, like a
        #: hardware credit return crossing the link), which is what
        #: gives every inter-router link a full cycle of lookahead and
        #: lets the sharded engine cut the mesh anywhere between
        #: routers (see repro.sim.shard).
        self._visible = 0

    def __len__(self) -> int:
        """Number of committed (visible) items."""
        return len(self._items)

    @property
    def occupancy(self) -> int:
        """Committed plus staged items — what counts against capacity."""
        return len(self._items) + len(self._staged)

    def can_accept(self, n: int = 1) -> bool:
        capacity = self.capacity
        if capacity is None:
            return True
        return len(self._items) + len(self._staged) + n <= capacity

    def add_waker(self, waker: Callable[[], None]) -> None:
        """Call ``waker`` on every push."""
        self._wakers.append(waker)

    def push(self, item) -> None:
        if not self.can_accept():
            raise OverflowError(f"push to full StagedFifo {self.name!r}")
        self._staged.append(item)
        for waker in self._wakers:
            waker()

    def push_unchecked(self, item) -> None:
        """``push`` minus the capacity re-check, for hot paths that
        have just tested :meth:`can_accept` themselves."""
        self._staged.append(item)
        for waker in self._wakers:
            waker()

    def peek(self):
        """The oldest committed item, or None if empty."""
        if not self._items:
            return None
        return self._items[0]

    def pop(self):
        if not self._items:
            raise IndexError(f"pop from empty StagedFifo {self.name!r}")
        return self._items.popleft()

    def commit(self) -> None:
        if self._staged:
            self._items.extend(self._staged)
            self._staged.clear()
            depth = len(self._items)
            if depth > self.high_water:
                self.high_water = depth
            self._visible = depth
        elif self._visible != len(self._items):
            self._visible = len(self._items)

    def drain(self) -> list:
        """Pop and return *everything*: committed items, then staged.

        Draining empties the FIFO completely — the staging buffer is
        cleared too, so nothing silently becomes visible on the next
        ``commit``.  Committed items come first (they are older); staged
        items follow in push order.  Mid-simulation use still breaks the
        two-phase abstraction (a drain observes writes from the current
        cycle), so this remains a between-runs/testing convenience.
        """
        out = list(self._items)
        out.extend(self._staged)
        self._items.clear()
        self._staged.clear()
        self._visible = 0
        return out


class CycleSimulator:
    """Drives a set of :class:`ClockedComponent` objects cycle by cycle.

    ``tracer`` is the observability event bus
    (:mod:`repro.telemetry.trace`); it defaults to the shared no-op
    tracer, so an untraced simulation pays a single attribute test per
    tick.  Use :func:`repro.telemetry.trace.attach_tracer` to wire a
    recording tracer into a whole design.
    """

    def __init__(self, tracer=None, mesh_backend: str = "object",
                 tile_backend: str = "object"):
        from repro.telemetry.trace import NULL_TRACER
        if mesh_backend not in ("object", "flat"):
            raise ValueError(f"unknown mesh backend {mesh_backend!r} "
                             "(choose 'object' or 'flat')")
        if tile_backend not in ("object", "flat"):
            raise ValueError(f"unknown tile backend {tile_backend!r} "
                             "(choose 'object' or 'flat')")
        self.cycle = 0
        # Advisory: design constructors thread their mesh and tile
        # backends through here so harnesses, telemetry, and bench
        # reports can consult them.
        self.mesh_backend = mesh_backend
        self.tile_backend = tile_backend
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self._components: list[ClockedComponent] = []
        self._fifos: list[StagedFifo] = []
        # The quiescence contract, resolved once at add time.
        self._idle_checks: list[Callable[[], bool]] = []
        self._event_checks: list[Callable[[], int | None]] = []
        self._never_idle = 0   # components without is_idle
        # Components deferring flit-level state (repro.noc.flatmesh's
        # express wormholes): their ``settle`` brings it up to date.
        self._settles: list[Callable[[], None]] = []
        self.idle_cycles_skipped = 0
        self.component_steps = 0

    def stats(self) -> dict:
        """Operational clock state, as the telemetry probe samples it.

        Plain ints only — the dict is JSON-able as-is and cheap enough
        to build every sampling interval.
        """
        return {
            "cycle": self.cycle,
            "components": len(self._components),
            "idle_cycles_skipped": self.idle_cycles_skipped,
            "component_steps": self.component_steps,
        }

    # -- registration -------------------------------------------------------

    def add(self, component: ClockedComponent) -> None:
        self._components.append(component)
        settle = getattr(component, "settle", None)
        if settle is not None:
            self._settles.append(settle)
        is_idle = getattr(component, "is_idle", None)
        if is_idle is None:
            self._never_idle += 1
            return
        self._idle_checks.append(is_idle)
        next_event = getattr(component, "next_event_cycle", None)
        if next_event is not None:
            self._event_checks.append(next_event)

    def add_all(self, components: Iterable[ClockedComponent]) -> None:
        for component in components:
            self.add(component)

    def register_fifo(self, fifo: StagedFifo) -> StagedFifo:
        """Track a free-standing FIFO so the simulator commits it.

        FIFOs owned by a component should be committed by that
        component's ``commit`` instead.
        """
        self._fifos.append(fifo)
        return fifo

    def settle(self) -> None:
        """Make deferred flit-level state exact now.

        A flat mesh core may advance a streaming wormhole message in
        bulk (an express train, see :mod:`repro.noc.flatmesh`): its
        frames, messages and timing are exact on every cycle, but flit
        counters and FIFO contents only after ``settle``.  ``run`` and
        ``run_until`` settle on return; a reader of flit-level state in
        the middle of a run (a ``run_until`` condition, a component's
        step) calls this first.
        """
        for settle in self._settles:
            settle()

    # -- the one rule ---------------------------------------------------------

    def _next_wake_cycle(self) -> int | None:
        """The next cycle that must be ticked.

        ``self.cycle`` unless every component is idle; then the
        earliest ``next_event_cycle()`` (never in the past), or None
        if nothing is scheduled at all.
        """
        cycle = self.cycle
        if self._never_idle:
            return cycle
        for is_idle in self._idle_checks:
            if not is_idle():
                return cycle
        wake = None
        for next_event in self._event_checks:
            deadline = next_event()
            if deadline is not None and (wake is None or deadline < wake):
                wake = deadline
        if wake is not None and wake < cycle:
            return cycle
        return wake

    def _skip_to(self, target: int) -> None:
        """Advance the clock over a stretch of provably idle cycles."""
        skipped = target - self.cycle
        if skipped <= 0:
            return
        self.idle_cycles_skipped += skipped
        if self.tracer.enabled:
            # A ticked run announces every cycle; announcing the last
            # skipped one keeps Tracer.last_cycle (and horizon)
            # identical without per-cycle cost.
            self.tracer.cycle_start(target - 1)
        self.cycle = target

    # -- the clock ----------------------------------------------------------

    def tick(self) -> None:
        """Advance the simulation by one clock cycle, stepping and
        committing every component."""
        cycle = self.cycle
        if self.tracer.enabled:
            self.tracer.cycle_start(cycle)
        components = self._components
        for component in components:
            component.step(cycle)
        for component in components:
            component.commit()
        for fifo in self._fifos:
            fifo.commit()
        self.component_steps += len(components)
        self.cycle = cycle + 1

    def sanitized_tick(self, observer) -> None:
        """One instrumented cycle for :mod:`repro.analysis.sanitize`.

        A plain :meth:`tick`, except at a cycle ``run`` would skip
        (every component idle, no event due): there each component is
        handed to ``observer.shadow_step(component, cycle)`` instead of
        being stepped directly, so the observer can fingerprint it
        around its own step.  A truthfully idle component's step is a
        no-op, so any observable change is an ``is_idle()`` lie
        (BHV401).  The normal ``tick``/``run`` paths never consult
        this.
        """
        if self._next_wake_cycle() == self.cycle:
            self.tick()
            return
        cycle = self.cycle
        if self.tracer.enabled:
            self.tracer.cycle_start(cycle)
        components = self._components
        for component in components:
            observer.shadow_step(component, cycle)
        for component in components:
            component.commit()
        for fifo in self._fifos:
            fifo.commit()
        self.component_steps += len(components)
        self.cycle = cycle + 1

    def run(self, cycles: int) -> None:
        end = self.cycle + cycles
        try:
            while self.cycle < end:
                wake = self._next_wake_cycle()
                if wake == self.cycle:
                    self.tick()
                else:
                    self._skip_to(end if wake is None else min(wake, end))
        finally:
            self.settle()

    def run_until(
        self,
        condition: Callable[[], bool],
        max_cycles: int = 1_000_000,
        wall_clock_budget_s: float | None = None,
    ) -> int:
        """Tick until ``condition()`` is true; returns cycles consumed.

        Raises TimeoutError if the condition does not hold within
        ``max_cycles`` — the standard way tests detect a hung (e.g.
        deadlocked) design.  ``wall_clock_budget_s`` additionally
        bounds *host* time: when set, the run raises
        :class:`WallClockBudgetExceeded` once the budget elapses (the
        check runs between ticks, so one pathological tick can overrun
        the budget, but a wedged loop cannot hang the caller).

        Fully idle stretches are skipped and the condition re-evaluated
        at each wake boundary.  During a stretch no simulated state
        changes except ``self.cycle``, so a condition that flips
        mid-stretch (e.g. ``sim.cycle >= N``) is located by bisection
        and observed at the exact cycle it first became true — never
        overshot.  (A condition that flips back and forth *within* one
        idle stretch as a function of the cycle number alone has no
        well-defined first-true cycle; bisection returns one of its
        true cycles.)
        """
        start = self.cycle
        limit = start + max_cycles
        deadline = (None if wall_clock_budget_s is None
                    else time.monotonic() + wall_clock_budget_s)
        try:
            while not condition():
                if self.cycle - start >= max_cycles:
                    raise TimeoutError(
                        f"condition not met within {max_cycles} cycles"
                    )
                if deadline is not None and time.monotonic() >= deadline:
                    raise WallClockBudgetExceeded(
                        f"condition not met within {wall_clock_budget_s}s "
                        f"of wall clock ({self.cycle - start} cycles run)"
                    )
                wake = self._next_wake_cycle()
                if wake == self.cycle:
                    self.tick()
                else:
                    self._skip_to_condition(
                        condition,
                        limit if wake is None else min(wake, limit))
        finally:
            self.settle()
        return self.cycle - start

    def _skip_to_condition(
        self,
        condition: Callable[[], bool],
        target: int,
    ) -> None:
        """Skip an idle stretch, stopping at the first cycle in
        ``(cycle, target]`` where ``condition`` holds (if any).

        Only the clock advances during an idle stretch, so probing the
        condition at a trial cycle is just a matter of setting
        ``self.cycle`` — no component state is touched.
        """
        here = self.cycle
        self.cycle = target
        fired = condition()
        self.cycle = here
        if not fired:
            self._skip_to(target)
            return
        lo, hi = here + 1, target
        while lo < hi:
            mid = (lo + hi) // 2
            self.cycle = mid
            if condition():
                hi = mid
            else:
                lo = mid + 1
        self.cycle = here
        self._skip_to(lo)
