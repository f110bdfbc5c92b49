"""Sharded execution engine: one design, K cooperating simulators.

:func:`make_simulator` is the factory design constructors thread their
``shards=`` setting through.  ``shards == 1`` returns the ordinary
:class:`~repro.sim.kernel.CycleSimulator` — the sharded machinery
costs nothing unless asked for.  ``shards > 1`` returns a
:class:`ShardedSimulator`: the design's mesh is partitioned into K
contiguous column bands (:mod:`repro.noc.shardmesh`), each band's
routers, ports and tiles live in their own full per-shard
``CycleSimulator``, and the shards synchronise *only* at the cut
links, once per cycle.

Why one barrier per cycle is enough — and exact
-----------------------------------------------

Every inter-router link carries one cycle of lookahead in both
directions (see :mod:`repro.noc.router`): a flit staged during cycle N
is observable downstream only from cycle N+1, and a credit released at
N is observable upstream only from N+1.  So during cycle N no shard
can observe anything the *other* side of a cut does at N — a
conservative barriered exchange of boundary flits and credits after
all shards have ticked cycle N reproduces, bit for bit, what a single
simulator's commit phase would have published.  There is no rollback,
no speculation, and no tolerance window: equality is exact, and
``tests/test_shard.py`` pins it (frames and cycle counts, per-design
counters, and the merged trace stream) against the single-process
reference across the mesh x tile matrix.

Transports
----------

``shard_transport="loopback"`` (default) runs the K inner simulators
in-process, round-robin, with the exchange as a function call — zero
parallelism, full determinism, and the mode the equivalence suite
proves.  ``shard_transport="mp"`` forks one worker process per shard
(lazily, at the first ``run``) and ships boundary flits over pipes;
neighbouring workers exchange directly, so the per-cycle
synchronisation is neighbour-to-neighbour, not a global barrier.

Components that need a design-wide view — the fault engine and the
telemetry probe, marked ``shard_scope = "global"`` — step at the
coordinator after the exchange each cycle.  Their mutations become
visible at cycle N+1, exactly as in the reference, where both register
last and step after every mesh/tile component.  They require the
loopback transport.
"""

from __future__ import annotations

import time
from collections.abc import Callable

from repro.noc.message import IdNamespace
from repro.sim.kernel import CycleSimulator


def make_simulator(tracer=None, mesh_backend: str = "object",
                   tile_backend: str = "object",
                   shards: int = 1,
                   shard_transport: str = "loopback"):
    """Build the simulator a design asked for.

    A plain :class:`CycleSimulator` for ``shards == 1`` (the common
    case pays nothing), a :class:`ShardedSimulator` otherwise.
    """
    if shards < 1:
        raise ValueError("shards must be >= 1")
    if shards == 1:
        return CycleSimulator(tracer=tracer, mesh_backend=mesh_backend,
                              tile_backend=tile_backend)
    return ShardedSimulator(
        tracer=tracer, mesh_backend=mesh_backend,
        tile_backend=tile_backend, shards=shards,
        transport=shard_transport)


class ShardedSimulator(CycleSimulator):
    """K per-shard simulators behind the single-simulator surface.

    Subclasses :class:`CycleSimulator` so ``run``/``run_until`` (and
    their idle-skip bisection) work unchanged — they drive the
    coordinator through ``tick``/``_next_wake_cycle``/``_skip_to``,
    all overridden here: the design is idle only when every shard and
    every global component is.  The coordinator itself owns no mesh or tile
    components; it routes ``add`` calls to the owning shard by
    coordinate, steps ``shard_scope == "global"`` components after the
    boundary exchange, and aggregates ``stats``.
    """

    is_sharded = True

    def __init__(self, tracer=None, mesh_backend: str = "object",
                 tile_backend: str = "object",
                 shards: int = 2, transport: str = "loopback"):
        if transport not in ("loopback", "mp"):
            raise ValueError(f"unknown shard transport {transport!r} "
                             "(choose 'loopback' or 'mp')")
        if shards < 2:
            raise ValueError("ShardedSimulator needs shards >= 2 "
                             "(use make_simulator for shards=1)")
        super().__init__(tracer=tracer, mesh_backend=mesh_backend,
                         tile_backend=tile_backend)
        self.shards = shards
        self.transport = transport
        self.sims = [
            CycleSimulator(mesh_backend=mesh_backend,
                           tile_backend=tile_backend)
            for _ in range(shards)
        ]
        for sim in self.sims:
            sim.tracer = self._tracer
        #: Per-shard id namespaces (repro.noc.message): installed
        #: around each shard's tick so id allocation is shard-local
        #: and deterministic.  Namespace 0 — whose id space is exactly
        #: the unsharded one — is installed at rest, so construction-
        #: and injection-time allocations match the reference.
        self.namespaces = [IdNamespace(k) for k in range(shards)]
        self.namespaces[0].install()
        self._mesh = None
        self._links: list = []
        self._globals: list = []
        #: Host-seconds each shard spent ticking / in the exchange —
        #: the critical-path accounting bench_shard_scaling reports.
        self.shard_busy_s = [0.0] * shards
        self.exchange_s = 0.0
        # Multiprocessing transport state (lazily started at run()).
        self._mp_started = False
        self._mp_workers: list = []
        self._mp_ctrl: list = []
        self._mp_stats: list | None = None
        self._harvest_fn: Callable | None = None
        self.harvest_results: list | None = None

    # -- tracer propagation -------------------------------------------------

    @property
    def tracer(self):
        return self._tracer

    @tracer.setter
    def tracer(self, value) -> None:
        # Parent __init__ assigns self.tracer before self.sims exists;
        # __init__ re-propagates to the freshly built inner sims.
        self._tracer = value
        for sim in getattr(self, "sims", ()):
            sim.tracer = value

    # -- wiring -------------------------------------------------------------

    def bind_mesh(self, mesh) -> None:
        """Called by :meth:`ShardedMesh.register`: adopt the partition
        map and the boundary links."""
        if self._mesh is not None:
            raise RuntimeError("a mesh is already bound to this "
                               "sharded simulator")
        self._mesh = mesh
        self._links = list(mesh.links)

    def shard_of(self, coord: tuple[int, int]) -> int:
        if self._mesh is None:
            raise RuntimeError(
                "no sharded mesh bound yet — build the design's mesh "
                "with the same shards= and register it before adding "
                "coordinate-anchored components")
        return self._mesh.shard_of(coord)

    def add(self, component) -> None:
        """Route a component to its owner.

        - ``shard_scope == "global"`` (fault engine, probe): stepped by
          the coordinator after the boundary exchange each cycle.
        - A ``coord`` attribute anchors the component to the shard
          owning that column band.
        - Anything else (frame sources, fault wires) runs in shard 0,
          alongside the design's ingress.
        """
        if getattr(component, "shard_scope", None) == "global":
            if self.transport != "loopback":
                raise RuntimeError(
                    f"{type(component).__name__} needs a design-wide "
                    "view each cycle; use shard_transport='loopback'")
            self._globals.append(component)
            return
        coord = getattr(component, "coord", None)
        shard = 0 if coord is None else self.shard_of(coord)
        self.sims[shard].add(component)

    def register_fifo(self, fifo):
        return self.sims[0].register_fifo(fifo)

    # -- the clock -----------------------------------------------------------

    def tick(self) -> None:
        if self.transport != "loopback":
            raise RuntimeError(
                "per-cycle tick() is a loopback-transport operation; "
                "the mp transport runs whole stretches (use run())")
        cycle = self.cycle
        sims = self.sims
        namespaces = self.namespaces
        busy = self.shard_busy_s
        perf = time.perf_counter
        for k in range(self.shards):
            namespaces[k].install()
            t0 = perf()
            sims[k].tick()
            busy[k] += perf() - t0
        namespaces[0].install()
        t0 = perf()
        # Links are pairwise independent, so the fused per-link
        # exchange equals the global two-phase collect/apply.
        for link in self._links:
            link.exchange()
        self.exchange_s += perf() - t0
        # Design-wide components step after the whole fabric, exactly
        # where the reference's registration order puts them; their
        # writes become visible next cycle either way.
        for component in self._globals:
            component.step(cycle)
        for component in self._globals:
            component.commit()
        self.cycle = cycle + 1

    def _skip_to(self, target: int) -> None:
        skipped = target - self.cycle
        if skipped <= 0:
            return
        # Inner sims handle their own tracer announcement (cycle_start
        # is idempotent, so K calls for the same cycle are one event).
        for sim in self.sims:
            sim._skip_to(target)
        self.idle_cycles_skipped += skipped
        self.cycle = target

    def _next_wake_cycle(self):
        wake = None
        cycle = self.cycle
        for sim in self.sims:
            w = sim._next_wake_cycle()
            if w is not None:
                if w <= cycle:
                    return cycle
                if wake is None or w < wake:
                    wake = w
        for component in self._globals:
            is_idle = getattr(component, "is_idle", None)
            if is_idle is None or not is_idle():
                return cycle
            next_event = getattr(component, "next_event_cycle", None)
            if next_event is not None:
                deadline = next_event()
                if deadline is not None:
                    deadline = max(deadline, cycle)
                    if wake is None or deadline < wake:
                        wake = deadline
        return wake

    def sanitized_tick(self, observer) -> None:
        raise NotImplementedError(
            "sanitizer passes run unsharded — build the design with "
            "shards=1 to sanitize it")

    # -- stats ---------------------------------------------------------------

    def stats(self) -> dict:
        if self._mp_stats is not None:
            inner = self._mp_stats
        else:
            inner = [sim.stats() for sim in self.sims]
        return {
            "cycle": self.cycle,
            "components": (sum(s["components"] for s in inner)
                           + len(self._globals)),
            "idle_cycles_skipped": self.idle_cycles_skipped,
            "component_steps": sum(s["component_steps"]
                                   for s in inner),
            "shards": self.shards,
        }

    # -- multiprocessing transport -------------------------------------------

    def set_harvest(self, fn: Callable[[], object]) -> None:
        """Register a closure each worker runs at :meth:`harvest`.

        Under the mp transport the design state lives in the forked
        workers; ``fn`` (typically closing over a sink or counter
        object) executes *inside* each worker and its picklable return
        value is shipped back, one entry per shard, into
        ``self.harvest_results``.  Must be registered before the first
        ``run`` (the fork ships it).
        """
        if self._mp_started:
            raise RuntimeError("set_harvest must run before the first "
                               "run() — workers fork there")
        self._harvest_fn = fn

    def run(self, cycles: int) -> None:
        if self.transport == "mp":
            self._run_mp(cycles)
            return
        super().run(cycles)

    def run_until(self, condition, max_cycles: int = 1_000_000,
                  wall_clock_budget_s: float | None = None) -> int:
        if self.transport == "mp":
            raise NotImplementedError(
                "run_until needs a per-cycle view of the whole design;"
                " use run() under the mp transport (or loopback)")
        return super().run_until(condition, max_cycles,
                                 wall_clock_budget_s)

    def _mp_start(self) -> None:
        import multiprocessing

        if self._globals:
            raise RuntimeError(
                "fault engine / probe (shard_scope='global') require "
                "shard_transport='loopback'")
        if getattr(self._tracer, "enabled", False):
            raise RuntimeError(
                "tracing records in worker memory and would be lost; "
                "use shard_transport='loopback' for traced runs")
        if "fork" not in multiprocessing.get_all_start_methods():
            raise RuntimeError(
                "shard_transport='mp' needs the fork start method "
                "(POSIX); use 'loopback' on this platform")
        ctx = multiprocessing.get_context("fork")
        shards = self.shards
        # One duplex pipe per adjacent shard pair, one control pipe
        # per worker.  Everything is created before the fork so each
        # worker inherits exactly the connections it needs.
        right_conns = [None] * shards  # worker k <-> worker k + 1
        left_conns = [None] * shards
        for k in range(shards - 1):
            a, b = ctx.Pipe(duplex=True)
            right_conns[k] = a
            left_conns[k + 1] = b
        self._mp_ctrl = []
        self._mp_workers = []
        for k in range(shards):
            parent_conn, child_conn = ctx.Pipe(duplex=True)
            worker = ctx.Process(
                target=_shard_worker_main,
                args=(self, k, child_conn, left_conns[k],
                      right_conns[k]),
                daemon=True,
                name=f"repro-shard-{k}",
            )
            worker.start()
            child_conn.close()
            self._mp_ctrl.append(parent_conn)
            self._mp_workers.append(worker)
        self._mp_started = True

    def _run_mp(self, cycles: int) -> None:
        if not self._mp_started:
            self._mp_start()
        for conn in self._mp_ctrl:
            conn.send(("run", cycles))
        stats = [None] * self.shards
        for k, conn in enumerate(self._mp_ctrl):
            kind, busy_s, shard_stats = conn.recv()
            if kind != "done":  # pragma: no cover - defensive
                raise RuntimeError(f"shard worker {k} answered {kind!r}")
            self.shard_busy_s[k] += busy_s
            stats[k] = shard_stats
        self._mp_stats = stats
        self.cycle += cycles

    def harvest(self) -> list:
        """Run the registered harvest closure in every worker."""
        if self._harvest_fn is None:
            raise RuntimeError("no harvest closure registered "
                               "(set_harvest)")
        if not self._mp_started:
            # Loopback (or never ran): everything is in-process, so
            # one in-place call sees the whole design.
            self.harvest_results = [self._harvest_fn()]
            return self.harvest_results
        for conn in self._mp_ctrl:
            conn.send(("harvest",))
        self.harvest_results = [conn.recv()[1]
                                for conn in self._mp_ctrl]
        return self.harvest_results

    def shutdown(self) -> None:
        """Stop mp workers (no-op under loopback)."""
        if not self._mp_started:
            return
        for conn in self._mp_ctrl:
            try:
                conn.send(("stop",))
            except (BrokenPipeError, OSError):
                pass
        for worker in self._mp_workers:
            worker.join(timeout=5)
            if worker.is_alive():  # pragma: no cover - defensive
                worker.terminate()
        self._mp_started = False


def _shard_worker_main(coordinator: ShardedSimulator, shard: int,
                       ctrl, left_conn, right_conn) -> None:
    """Worker-process loop for one shard (mp transport).

    The fork gave this process a full copy of the design; the worker
    drives only its own inner simulator and the boundary links it
    touches.  Per cycle it ticks, *sends* its boundary payload to both
    neighbours before receiving (pipes buffer one cycle's worth of
    flits, so neighbour pairs can't deadlock), then applies what the
    neighbours sent.
    """
    sim = coordinator.sims[shard]
    coordinator.namespaces[shard].install()
    links = coordinator._links
    # Links this worker exchanges per neighbour side, in the global
    # link order (both endpoint workers enumerate the same order, so
    # the payload lists line up without tagging).
    send_left = [ln for ln in links
                 if ln.sender == shard and ln.receiver == shard - 1]
    recv_left = [ln for ln in links
                 if ln.sender == shard - 1 and ln.receiver == shard]
    send_right = [ln for ln in links
                  if ln.sender == shard and ln.receiver == shard + 1]
    recv_right = [ln for ln in links
                  if ln.sender == shard + 1 and ln.receiver == shard]
    perf = time.perf_counter
    busy_s = 0.0

    def exchange() -> None:
        # Pops are measured before anything is applied (the committed
        # occupancy the senders' credits are derived from).
        if left_conn is not None:
            left_payload = (
                [ln.egress.drain() for ln in send_left],
                [ln.ingress.take_pops() for ln in recv_left],
            )
        if right_conn is not None:
            right_payload = (
                [ln.egress.drain() for ln in send_right],
                [ln.ingress.take_pops() for ln in recv_right],
            )
        if left_conn is not None:
            left_conn.send(left_payload)
        if right_conn is not None:
            right_conn.send(right_payload)
        if left_conn is not None:
            flits_in, credits = left_conn.recv()
            for ln, flits in zip(recv_left, flits_in):
                ln.ingress.apply(flits)
            for ln, pops in zip(send_left, credits):
                ln.egress.credit(pops)
        if right_conn is not None:
            flits_in, credits = right_conn.recv()
            for ln, flits in zip(recv_right, flits_in):
                ln.ingress.apply(flits)
            for ln, pops in zip(send_right, credits):
                ln.egress.credit(pops)

    while True:
        try:
            cmd = ctrl.recv()
        except EOFError:
            return
        if cmd[0] == "run":
            cycles = cmd[1]
            t0 = perf()
            for _ in range(cycles):
                sim.tick()
                exchange()
            busy_s += perf() - t0
            ctrl.send(("done", busy_s, sim.stats()))
            busy_s = 0.0
        elif cmd[0] == "harvest":
            fn = coordinator._harvest_fn
            ctrl.send(("harvested",
                       None if fn is None else fn()))
        elif cmd[0] == "stop":
            return
