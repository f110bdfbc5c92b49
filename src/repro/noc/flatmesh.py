"""Array-of-struct ("flat") mesh backend — the compiled fast path.

:class:`repro.noc.mesh.Mesh` builds one Python object per router and
five :class:`~repro.sim.kernel.StagedFifo` objects per router; stepping
a saturated mesh is then a cascade of method calls and attribute loads.
:class:`FlatMesh` keeps the same construction API and the same
*observable* behaviour but compiles the mesh into flat parallel arrays:

- the four *directional* input FIFOs of every router become ring
  buffers in preallocated lists (``q``/``head``/``count``/``staged``),
  indexed ``fid = router_index * 5 + port_index``;
- routing decisions come from a lazily built per-router
  ``dst -> out_port`` table instead of a route-function call per head
  flit per cycle;
- wormhole grants and round-robin pointers are flat integer lists;
- the whole mesh steps in one batch loop per cycle inside a single
  :class:`FlatMeshCore` component instead of one ``Router.step()``
  call per router.

The *adapter boundary* sits exactly at injection/ejection: every
router's LOCAL input FIFO and every attached port's ejection FIFO stay
real ``StagedFifo`` objects, and tiles talk to an unmodified
:class:`~repro.noc.mesh.LocalPort`.  That keeps tiles, the tracer, the
linter's FIFO checks, and ``design_counters`` working unchanged.

Bit-identity: the core replicates ``Router.step`` exactly — same port
order, same wants-resolution, same wormhole grant/round-robin updates,
same credit checks, and the same trace events in the same order
(routers row-major, then ports in attachment order, matching the object
backend's registration order) — and the differential suite in
``tests/test_kernel_equivalence.py`` pins it against the object
backend on every shipped design.

Scheduling: the core is one clocked component that skips idle routers
and ports inside its own step (busy bitmasks).  It reports
``kernel_substeps()`` (the attached ports) so the linter knows who
really steps inside it.  ``is_idle`` is true only when every ring,
LOCAL input, injection queue, and staged ejection is empty — the
conjunction of the object backend's per-component contracts.

Express wormholes
-----------------

A multi-flit message whose path is *streaming* — every stage from the
source port's LOCAL input through each directional ring to the
destination's ejection FIFO holds exactly one flit of it, and every
output on the path is granted to it — moves one flit per stage per
cycle until the source injects its tail, and nothing else can touch
the path meanwhile: each output grant is held, each ring is fed only by
the held output upstream of it, the port injects only this message, and
a head that wants a held output waits either way.  So when a head is
granted the ejection output into a fast-path tile
(:mod:`repro.tiles.flatcore`, which pops one flit per cycle), the core
checks the path at the cycle's commit and, if it streams, lifts the
in-flight flits out as a :class:`_Train`: the stages look empty to the
step loop (routers and tile skip them for free) and the source port
stops injecting.  The port is handed back the cycle it injects the
tail, and the net effect of the frozen cycles is applied in one bulk
step (:meth:`FlatMeshCore._thaw`) before the router phase of the first
cycle in which an output the tail released could be granted again.
From there the last flits finish per flit.

Message- and frame-level state stays exact on every cycle; flit-level
state (port and router flit counters, ring and FIFO contents, the
destination's ``_buffered_flits`` and assembler) is exact only after
:meth:`FlatMeshCore.settle`, which ``run``/``run_until`` call on return
and every flit-level reader (``design_counters``, the probe, the
sanitizer, fault toggles, ``attach_tracer``) calls first.  Trains never
form under a recording tracer, in a band core of a sharded mesh, on a
path through a router, port or tile with a fault hook armed, or into
an object-mode tile.
"""

from __future__ import annotations

from repro.noc.mesh import LocalPort
from repro.noc.message import FlitStream
from repro.noc.router import (
    _ALL_PORTS,
    _N_PORTS,
    _PORT_VALUES,
    misroute_index,
)
from repro.noc.routing import Port, xy_route, yx_route
from repro.params import ROUTER_INPUT_FIFO_FLITS
from repro.sim.kernel import CycleSimulator, StagedFifo
from repro.telemetry.trace import NULL_TRACER

# Port indices, identical to repro.noc.router's hot-path encoding.
_LOCAL = 0
_EAST = 1
_WEST = 2
_NORTH = 3
_SOUTH = 4

#: Fewest flits still to inject for which freezing a path pays: a
#: train saves one cycle of path work per pending flit but costs a
#: path walk to form and a bulk step to thaw.
_MIN_TRAIN_FLITS = 4
#: ``_train_due`` while no train is live (later than any cycle).
_NEVER = 1 << 62


class _RingView:
    """Read-only stand-in for a directional input FIFO.

    Exposes the slice of the ``StagedFifo`` surface the linter and
    telemetry read (``capacity``, ``name``, occupancy); pushes go
    through the core's arrays, never through this view.
    """

    __slots__ = ("_core", "_fid", "capacity", "name")

    def __init__(self, core: FlatMeshCore, fid: int, name: str):
        self._core = core
        self._fid = fid
        self.capacity = core.depth
        self.name = name

    def __len__(self) -> int:
        core = self._core
        core.settle()
        return core._counts[self._fid]

    @property
    def occupancy(self) -> int:
        core = self._core
        core.settle()
        return core._counts[self._fid] + core._stageds[self._fid]

    @property
    def high_water(self) -> int:
        return self._core._hw[self._fid]

    def peek(self):
        core = self._core
        core.settle()
        if not core._counts[self._fid]:
            return None
        return core._queues[self._fid][core._heads[self._fid]]

    def __repr__(self) -> str:
        return f"_RingView({self.name!r}, occ={self.occupancy})"


class FlatRouterView:
    """Per-router facade over :class:`FlatMeshCore`'s arrays.

    Quacks like :class:`repro.noc.router.Router` for everything outside
    the hot loop: ``coord``/``name``, the ``inputs`` dict (LOCAL is the
    real adapter FIFO, directions are :class:`_RingView`\\ s),
    ``connect_output`` for the LOCAL ejection hookup, the forwarding
    counters, and a ``tracer`` property that forwards to the core so
    ``attach_tracer`` works untouched.
    """

    __slots__ = ("_core", "_index", "coord", "name", "inputs")

    def __init__(self, core: FlatMeshCore, index: int,
                 coord: tuple[int, int]):
        self._core = core
        self._index = index
        self.coord = coord
        self.name = f"router{coord}"
        base = index * _N_PORTS
        self.inputs: dict[Port, object] = {Port.LOCAL: core._local_in[index]}
        for port_index, port in enumerate(_ALL_PORTS):
            if port is Port.LOCAL:
                continue
            self.inputs[port] = _RingView(
                core, base + port_index,
                f"{self.name}.in.{port.value}")

    @property
    def route_fn(self):
        return self._core.route_fn

    def fault_misroute(self, enabled: bool) -> None:
        """Enter/leave a misroute-one-hop window (see
        :meth:`repro.noc.router.Router.fault_misroute`)."""
        self._core.set_misroute(self._index, enabled)

    def fault_block_output(self, out_index: int, blocked: bool) -> None:
        """Stick/release this router's output ``out_index`` (see
        :meth:`repro.noc.router.Router.fault_block_output`)."""
        self._core.set_fault_block(self._index, out_index, blocked)

    def connect_output(self, port: Port, downstream: StagedFifo) -> None:
        if port is not Port.LOCAL:
            raise ValueError(
                "flat routers wire directional links internally; only "
                "the LOCAL ejection FIFO is connectable")
        self._core.set_eject(self._index, downstream)

    @property
    def flits_forwarded(self) -> int:
        self._core.settle()
        return self._core._fwd[self._index]

    @property
    def flits_per_output(self) -> dict[Port, int]:
        self._core.settle()
        base = self._index * _N_PORTS
        fwd_out = self._core._fwd_out
        return {port: fwd_out[base + port_index]
                for port_index, port in enumerate(_ALL_PORTS)}

    @property
    def tracer(self):
        return self._core.tracer

    @tracer.setter
    def tracer(self, value) -> None:
        self._core.tracer = value

    def __repr__(self) -> str:
        return f"FlatRouterView({self.coord})"


class _FlatEgress:
    """Sender-side stub for a cut output of a band core.

    Mirrors the downstream ring the output *would* have: ``staged``
    accumulates this cycle's pushes and ``visible`` tracks the credit
    count — last exchange's committed occupancy of the peer shard's
    ingress ring.  The shard boundary exchange drains ``staged`` and
    applies the peer's pops each cycle (see repro.noc.shardmesh), so
    the sender's room check ``visible + len(staged) < depth`` is
    bit-identical to the unsharded lagged-credit check.
    """

    __slots__ = ("staged", "visible")

    def __init__(self):
        self.staged: list = []
        self.visible = 0


class _Train:
    """One frozen streaming message (see "Express wormholes" above).

    The freeze empties the path's stages — the ejection FIFO, each ring
    from the destination back towards the source (``rings``), then the
    source's LOCAL input — and leaves the rest of the message in the
    source port's flit ``stream``, which rebuilds any flit the thaw
    needs: flit ``k`` of the train (0 = the ejection FIFO's at the
    freeze, ``last`` = the tail) is wire flit ``base + k``.  ``outs``
    are the held output fids, one per router on the path, from the
    destination back.  ``c0`` is the cycle whose commit froze the path
    and ``tail_at`` the cycle the source injects the tail; the train
    then detaches the port (``phase`` 1), re-arms its injection the
    cycle after (``phase`` 2) and thaws at ``end``, before the tail's
    first released output can be granted again.  ``buffered`` counts
    the destination's flit pops already charged to its
    ``_buffered_flits`` (see :meth:`sync_buffer`).
    """

    __slots__ = ("port", "source", "local", "lfid", "rbit", "rings",
                 "outs", "tcore", "index", "tile", "stream", "base",
                 "last", "c0", "tail_at", "end", "phase", "due",
                 "buffered")

    def __init__(self, port, source, local, lfid, rbit, rings, outs,
                 tcore, index, c0):
        self.port = port
        self.source = source
        self.local = local
        self.lfid = lfid
        self.rbit = rbit
        self.rings = rings
        self.outs = outs
        self.tcore = tcore
        self.index = index
        self.tile = tcore.tiles[index]
        stream = self.stream = port._pending_flits
        lifted = len(rings) + 2
        self.base = stream.next - len(stream) - lifted
        self.last = lifted + stream.remaining - 1
        self.c0 = c0
        self.tail_at = self.due = c0 + stream.remaining
        # One router: the destination pops the tail two cycles after
        # its injection, so the thaw must come first.
        self.end = self.tail_at + min(2, len(outs))
        self.phase = 0
        self.buffered = 0

    def sync_buffer(self, cycle: int) -> None:
        """Charge the destination's flit pops up to ``cycle`` to its
        ``_buffered_flits`` — its service completion at ``cycle``
        subtracts from (and clamps) the per-flit value."""
        pops = cycle - self.c0
        self.tile._buffered_flits += pops - self.buffered
        self.buffered = pops


class FlatMeshCore:
    """The entire mesh as one clocked component.

    ``step`` runs the exact ``Router.step`` algorithm for every router
    in row-major order over flat arrays, then steps the attached local
    ports in attachment order; ``commit`` publishes the cycle's ring
    writes through a dirty list plus the adapter FIFOs.  See the module
    docstring for the equivalence argument.
    """

    name = "flatmesh.core"
    tracer = NULL_TRACER
    #: Express wormholes on (see the module docstring).  Only the
    #: differential tests switch this off, for a per-flit reference.
    _express = True

    def __init__(self, width: int, height: int, depth: int, route_fn,
                 x_offset: int = 0, full_width: int | None = None):
        self.width = width
        self.height = height
        self.depth = depth
        self.route_fn = route_fn
        # Band geometry (repro.sim.shard): ``width`` columns of a
        # ``full_width``-wide design, starting at global column
        # ``x_offset``.  Coordinates are global; an unsharded core has
        # x_offset == 0 and full_width == width, and behaves exactly
        # as before.
        self.x_offset = x_offset
        self.full_width = width if full_width is None else full_width
        n = width * height
        self.n_routers = n
        n5 = n * _N_PORTS
        self.coords: list[tuple[int, int]] = [
            (x, y) for y in range(height)
            for x in range(x_offset, x_offset + width)
        ]
        # Adapter boundary: LOCAL inputs are real StagedFifos so
        # LocalPort (and the linter's FIFO checks) see ordinary queues.
        self._local_in: list[StagedFifo] = [
            StagedFifo(depth, name=f"router{coord}.in.local")
            for coord in self.coords
        ]
        # Directional input rings, fid = r * 5 + port_index.  LOCAL
        # slots exist but stay unused, keeping the indexing branchless.
        self._queues: list[list] = [[None] * depth for _ in range(n5)]
        self._heads: list[int] = [0] * n5
        self._counts: list[int] = [0] * n5      # committed items
        self._stageds: list[int] = [0] * n5     # staged (this cycle)
        self._dirty: list[int] = []             # fids staged this cycle
        # Committed occupancy as of the last cycle boundary — the
        # credit count the upstream router sees (StagedFifo._visible
        # flattened).  Refreshed at commit from the dirty and popped
        # lists, giving inter-router credit return its one cycle of
        # lag (see repro.noc.router's module docstring).
        self._vis: list[int] = [0] * n5
        self._popped: list[int] = []            # fids popped this cycle
        # Wormhole allocation state, mirroring Router._grant/_rr.
        self._grant: list[int] = [-1] * n5
        self._rr: list[int] = [0] * n5
        # Per-router bitmask of granted outputs (bit o set iff
        # grant[r*5+o] >= 0), so the arbitration loop visits only
        # outputs that are locked or freshly requested.
        self._gmask: list[int] = [0] * n
        # Output wiring: fid of the downstream ring per (router, out
        # port), -1 where the mesh edge leaves the output unconnected.
        # LOCAL outputs resolve through _ejects instead.
        self._down: list[int] = [-1] * n5
        for r in range(n):
            # Band-local column (coords are global, wiring is in-band).
            bx = r % width
            y = r // width
            base = r * _N_PORTS
            if bx + 1 < width:
                self._down[base + _EAST] = (r + 1) * _N_PORTS + _WEST
            if bx > 0:
                self._down[base + _WEST] = (r - 1) * _N_PORTS + _EAST
            if y > 0:
                self._down[base + _NORTH] = (r - width) * _N_PORTS + _SOUTH
            if y + 1 < height:
                self._down[base + _SOUTH] = (r + width) * _N_PORTS + _NORTH
        # Boundary egress stubs (repro.sim.shard): a cut east/west
        # output gets a _FlatEgress here instead of a downstream ring.
        # None for an unsharded core — the step loop then never looks
        # past the ``dfid < 0`` edge test, keeping the hot path intact.
        self._egress: list | None = None
        # Downstream router index per output fid (saves a division in
        # the per-flit push path).
        self._down_router: list[int] = [
            fid // _N_PORTS if fid >= 0 else -1 for fid in self._down
        ]
        # The inverse wiring: the output fid feeding each ring (-1 for
        # LOCAL slots and cut edges) — the express path walk's step
        # from a ring back to the router upstream of it.
        self._up: list[int] = [-1] * n5
        for ofid, fid in enumerate(self._down):
            if fid >= 0:
                self._up[fid] = ofid
        # Cached output request of each input's current head flit:
        # the out-port index for a head flit, -1 for a body flit, -2
        # for "recompute" (head changed or unknown).  fid base+LOCAL
        # caches the local input FIFO's head (the ring slot is unused).
        # A head flit is immutable and stays at the head until popped,
        # so the cache is invalidated only at pops and at commits into
        # an empty queue.
        self._req: list[int] = [-2] * n5
        self._ejects: list[StagedFifo | None] = [None] * n
        # Lazily built per-router routing tables: rt[r][dst_index] is
        # the output port index for a head flit at router r bound for
        # dst_index = dst_y * width + dst_x.
        self._route_rows: list[list[int] | None] = [None] * n
        # Occupancy: per-router ring total (committed + staged) for the
        # per-router skip, and the mesh-wide total for is_idle (which
        # keeps counting the flits an express train lifts off its
        # rings).
        self._ring_occ: list[int] = [0] * n
        self._ring_total = 0
        # Busy bitmasks: bit r set iff router r may have work (ring
        # occupancy or committed local flits); bit i of ``_inj_mask``
        # set iff port i (attachment order) may have injection work.
        # Iterating set bits LSB-first preserves the row-major router
        # order and attachment port order the trace contract requires.
        self._busy_mask = 0
        self._inj_mask = 0
        # Attached ports, in attachment order (= object-backend
        # registration order), batch-stepped after the router phase.
        self._ports_list: list[LocalPort] = []
        # Injection-phase companion: (port, local fid, local FIFO,
        # router busy bit) so the hot loops never re-derive the wiring.
        self._inj: list[tuple[LocalPort, int, StagedFifo, int]] = []
        # Each port's wake hook and, by coordinate, its attachment
        # index — where an express train's source is looked up.
        self._inj_hooks: list = []
        self._port_index: dict[tuple[int, int], int] = {}
        # Adapter FIFOs staged into this cycle; commit touches only
        # these instead of scanning every local/eject FIFO.  All
        # staging flows through the core (router pushes, inlined port
        # injection), which is what makes the dirty lists exhaustive.
        self._dirty_local: list[tuple[int, StagedFifo, int]] = []
        self._dirty_eject: list[StagedFifo] = []
        # Router-internal fault state: routers currently misrouting
        # (their _route_rows entry holds the *deflected* table), and a
        # router-index -> blocked-output bitmask dict (None when no
        # stuck-grant window is open, keeping the hot path one load).
        self._misrouted: set[int] = set()
        self._fault_blocked: dict[int, int] | None = None
        # Statistics (the object backend's Router counters, flattened).
        self._fwd: list[int] = [0] * n
        self._fwd_out: list[int] = [0] * n5
        # Ring high-water marks, mirroring StagedFifo.high_water: the
        # deepest committed depth per directional input, updated in the
        # commit dirty loop so only rings written this cycle pay.
        self._hw: list[int] = [0] * n5
        # Express wormholes (module docstring): live trains, the
        # earliest cycle one is due to thaw, and the (tile core, tile
        # index) destinations to check for a streaming path at the
        # next commit.  ``_stepped``/``_committed`` are the last cycle
        # stepped and the last committed, so a thaw knows how far into
        # the current cycle it must bring the path.  A band core of a
        # sharded mesh (or a mesh of 1-flit rings) never forms trains.
        self._trains: list[_Train] = []
        self._train_due = _NEVER
        self._candidates: list[tuple] = []
        # (tile core, tile index) of the fast-path tile behind each
        # router's ejection FIFO, None where trains cannot end.
        self._dests: list[tuple | None] = [None] * n
        self._stepped = -1
        self._committed = -1
        if self.full_width != width or depth < 2:
            # A ring must take a push while it holds a flit for a path
            # to stream one flit per cycle.
            self._express = False

    # -- wiring -----------------------------------------------------------

    def set_eject(self, index: int, downstream: StagedFifo) -> None:
        self._ejects[index] = downstream

    def add_port(self, port: LocalPort) -> None:
        self._ports_list.append(port)
        r = port.router._index
        index = len(self._inj)
        # The new port starts "possibly busy" so its first step is
        # never skipped; the injection loop prunes it if it idles.
        self._inj_mask |= 1 << index
        self._inj.append((port, r * _N_PORTS, port._local_in,
                          1 << r))
        # ``LocalPort.send`` calls ``_kernel_wake``; under the flat
        # backend that hook flags the port for the injection loop.
        bit = 1 << index

        def hook(core=self, bit=bit):
            core._inj_mask |= bit

        port._kernel_wake = hook
        self._inj_hooks.append(hook)
        self._port_index[port.coord] = index

    def add_express_dest(self, r: int, tcore, index: int) -> None:
        """Let messages ejected at router ``r`` stream express into
        tile ``index`` of the flat tile core ``tcore``."""
        if self._express:
            self._dests[r] = (tcore, index)

    def _route_row(self, r: int) -> list[int]:
        """Build (once) the dst -> out-port table for router ``r``.

        The table spans the *full* grid (``full_width`` columns), not
        just this band: a band core routes flits bound for other
        shards toward its cut edge, where the boundary egress takes
        over.
        """
        full_width = self.full_width
        route_fn = self.route_fn
        here = self.coords[r]
        row = [0] * (full_width * self.height)
        d = 0
        for y in range(self.height):
            for x in range(full_width):
                row[d] = _ALL_PORTS.index(route_fn(here, (x, y)))
                d += 1
        if r in self._misrouted:
            # Misroute-one-hop window: bake the deflection into the
            # table so the hot loop pays nothing extra.
            mask = self._fault_connected_mask(r)
            row = [misroute_index(p, mask) for p in row]
        self._route_rows[r] = row
        return row

    # -- router-internal faults (see repro.faults) ------------------------

    def _fault_connected_mask(self, r: int) -> int:
        """Connected-output bitmask for router ``r``, matching the
        object backend's ``Router._connected_mask``."""
        base = r * _N_PORTS
        mask = 1 if self._ejects[r] is not None else 0
        egress = self._egress
        for i in range(1, _N_PORTS):
            fid = base + i
            if self._down[fid] >= 0 or \
                    (egress is not None and egress[fid] is not None):
                mask |= 1 << i
        return mask

    def set_misroute(self, r: int, enabled: bool) -> None:
        self.settle()
        if enabled:
            if r in self._misrouted:
                return
            self._misrouted.add(r)
        else:
            if r not in self._misrouted:
                return
            self._misrouted.discard(r)
        # Rebuild the routing table lazily and re-resolve any cached
        # head requests: decisions made before the toggle stand (the
        # flit already claimed its output), decisions not yet made use
        # the new table — the same boundary the object backend gets
        # from swapping route_fn between steps.
        self._route_rows[r] = None
        base = r * _N_PORTS
        for fid in range(base, base + _N_PORTS):
            self._req[fid] = -2
        self._busy_mask |= 1 << r

    def set_fault_block(self, r: int, out_index: int,
                        blocked: bool) -> None:
        self.settle()
        masks = self._fault_blocked
        if blocked:
            if masks is None:
                masks = self._fault_blocked = {}
            masks[r] = masks.get(r, 0) | (1 << out_index)
        elif masks is not None:
            remaining = masks.get(r, 0) & ~(1 << out_index)
            if remaining:
                masks[r] = remaining
            else:
                masks.pop(r, None)
                if not masks:
                    self._fault_blocked = None
        self._busy_mask |= 1 << r

    # -- scheduling contract ----------------------------------------------

    def kernel_substeps(self):
        """Components batch-stepped inside this one (for the linter)."""
        return list(self._ports_list)

    def lint_consumed_fifos(self):
        """The FIFOs the router phase itself pops from."""
        return list(self._local_in)

    def is_idle(self) -> bool:
        """Idle iff every object-backend mesh component would be."""
        if self._ring_total or self._trains:
            return False
        for fifo in self._local_in:
            if fifo._items or fifo._staged:
                return False
        for port in self._ports_list:
            if (port._pending_flits or port._send_queue
                    or port.eject_fifo._staged):
                return False
        return True

    # -- per-cycle behaviour ----------------------------------------------

    def step(self, cycle: int) -> None:
        if cycle >= self._train_due:
            self._thaw_due(cycle)
        self._stepped = cycle
        if not self._busy_mask and not self._inj_mask:
            return  # no router or port may have work
        # Local aliases: this loop is the simulator's hottest path.
        queues = self._queues
        heads = self._heads
        counts = self._counts
        stageds = self._stageds
        vis = self._vis
        popped = self._popped
        dirty = self._dirty
        dirty_eject = self._dirty_eject
        grant = self._grant
        gmask = self._gmask
        rr = self._rr
        down = self._down
        down_router = self._down_router
        ejects = self._ejects
        local_in = self._local_in
        ring_occ = self._ring_occ
        route_rows = self._route_rows
        req = self._req
        coords = self.coords
        fwd = self._fwd
        fwd_out = self._fwd_out
        depth = self.depth
        # Routing bounds/stride use the FULL grid — a band core's
        # tables cover every global destination (see _route_row).
        width = self.full_width
        height = self.height
        egress = self._egress
        dests = self._dests
        tracer = self.tracer
        traced = tracer.enabled
        fblocked = self._fault_blocked
        misrouted = self._misrouted
        n_ports = _N_PORTS
        wants = [-1] * n_ports
        ring_total = self._ring_total

        # Busy routers only, LSB-first (= row-major, the trace order).
        busy = self._busy_mask
        m = busy
        while m:
            low = m & -m
            m ^= low
            r = low.bit_length() - 1
            local = local_in[r]
            local_items = local._items
            if not ring_occ[r] and not local_items:
                busy ^= low
                continue
            base = r * n_ports
            coord = coords[r]
            # wants[i]: output index input i's head flit requests, from
            # the per-head cache (-2 = head changed, resolve afresh).
            reqmask = 0
            for i in range(n_ports):
                fid = base + i
                if i:
                    if not counts[fid]:
                        wants[i] = -1
                        continue
                    want = req[fid]
                    if want != -2:
                        wants[i] = want
                        if want >= 0:
                            reqmask |= 1 << want
                        continue
                    flit = queues[fid][heads[fid]]
                elif local_items:
                    want = req[fid]
                    if want != -2:
                        wants[0] = want
                        if want >= 0:
                            reqmask |= 1 << want
                        continue
                    flit = local_items[0]
                else:
                    wants[0] = -1
                    continue
                if flit.is_head:
                    dx, dy = flit.dst
                    if 0 <= dx < width and 0 <= dy < height:
                        row = route_rows[r]
                        if row is None:
                            row = self._route_row(r)
                        want = row[dy * width + dx]
                    else:
                        want = _ALL_PORTS.index(
                            self.route_fn(coord, flit.dst))
                        if misrouted and r in misrouted:
                            want = misroute_index(
                                want, self._fault_connected_mask(r))
                    reqmask |= 1 << want
                else:
                    want = -1
                req[fid] = want
                wants[i] = want
            moved = 0
            rb = fblocked.get(r, 0) if fblocked is not None else 0
            # Visit only locked-or-requested outputs, ascending index
            # (LSB-first == the object backend's port iteration order).
            om = reqmask | gmask[r]
            while om:
                lowo = om & -om
                om ^= lowo
                out_index = lowo.bit_length() - 1
                ofid = base + out_index
                owner = grant[ofid]
                if out_index:
                    dfid = down[ofid]
                    if dfid < 0:
                        eg = None if egress is None else egress[ofid]
                        if eg is None:
                            continue
                        # Cut link (repro.sim.shard): credits live in
                        # the boundary egress — the same lagged
                        # contract, maintained by the shard exchange.
                        room = eg.visible + len(eg.staged) < depth
                    else:
                        # Lagged credit return: last cycle's committed
                        # occupancy plus this router's own staged
                        # pushes.
                        room = vis[dfid] + stageds[dfid] < depth
                else:
                    eject = ejects[r]
                    if eject is None:
                        continue
                    # eject.can_accept() inlined (hot at saturation).
                    cap = eject.capacity
                    room = (cap is None or
                            len(eject._items) + len(eject._staged) < cap)
                if rb and (rb >> out_index) & 1:
                    # Stuck-grant fault (see Router.fault_block_output).
                    room = False
                if owner >= 0:
                    # Locked wormhole: move the owner's next body flit.
                    if moved & (1 << owner):
                        continue
                    if owner:
                        sfid = base + owner
                        if not counts[sfid]:
                            continue
                    elif not local_items:
                        continue
                    if not room:
                        if traced:
                            tracer.link_stall(cycle, coord,
                                              _PORT_VALUES[out_index],
                                              "wormhole_stall")
                        continue
                    if owner:
                        head = heads[sfid]
                        flit = queues[sfid][head]
                        queues[sfid][head] = None
                        head += 1
                        heads[sfid] = 0 if head == depth else head
                        counts[sfid] -= 1
                        req[sfid] = -2
                        ring_occ[r] -= 1
                        ring_total -= 1
                        popped.append(sfid)
                    else:
                        flit = local_items.popleft()
                        req[base] = -2
                    if out_index:
                        if dfid < 0:
                            # Cut link: accumulate in the boundary
                            # egress; the shard exchange ships it.
                            eg.staged.append(flit)
                        else:
                            slot = (heads[dfid] + counts[dfid]
                                    + stageds[dfid])
                            if slot >= depth:
                                slot -= depth
                            queues[dfid][slot] = flit
                            if not stageds[dfid]:
                                dirty.append(dfid)
                            stageds[dfid] += 1
                            dr = down_router[ofid]
                            ring_occ[dr] += 1
                            busy |= 1 << dr
                            ring_total += 1
                    else:
                        # eject.push_unchecked(flit) inlined: stage the
                        # flit, then fire the consumer wake hooks.
                        staged = eject._staged
                        if not staged:
                            dirty_eject.append(eject)
                        staged.append(flit)
                        for waker in eject._wakers:
                            waker()
                    moved |= 1 << owner
                    fwd[r] += 1
                    fwd_out[ofid] += 1
                    if traced:
                        tracer.flit_forwarded(cycle, coord,
                                              _PORT_VALUES[out_index],
                                              flit)
                    if flit.is_tail:
                        grant[ofid] = -1
                        gmask[r] &= ~lowo
                    continue
                # Free output: round-robin among requesting heads.
                start = rr[ofid]
                for k in range(n_ports):
                    in_index = start + k
                    if in_index >= n_ports:
                        in_index -= n_ports
                    if wants[in_index] != out_index or \
                            moved & (1 << in_index):
                        continue
                    if not room:
                        if traced:
                            tracer.link_stall(cycle, coord,
                                              _PORT_VALUES[out_index],
                                              "credit_exhausted")
                        break
                    if in_index:
                        sfid = base + in_index
                        head = heads[sfid]
                        flit = queues[sfid][head]
                        queues[sfid][head] = None
                        head += 1
                        heads[sfid] = 0 if head == depth else head
                        counts[sfid] -= 1
                        req[sfid] = -2
                        ring_occ[r] -= 1
                        ring_total -= 1
                        popped.append(sfid)
                    else:
                        flit = local_items.popleft()
                        req[base] = -2
                    if out_index:
                        if dfid < 0:
                            # Cut link: accumulate in the boundary
                            # egress; the shard exchange ships it.
                            eg.staged.append(flit)
                        else:
                            slot = (heads[dfid] + counts[dfid]
                                    + stageds[dfid])
                            if slot >= depth:
                                slot -= depth
                            queues[dfid][slot] = flit
                            if not stageds[dfid]:
                                dirty.append(dfid)
                            stageds[dfid] += 1
                            dr = down_router[ofid]
                            ring_occ[dr] += 1
                            busy |= 1 << dr
                            ring_total += 1
                    else:
                        # eject.push_unchecked(flit) inlined: stage the
                        # flit, then fire the consumer wake hooks.
                        staged = eject._staged
                        if not staged:
                            dirty_eject.append(eject)
                        staged.append(flit)
                        for waker in eject._wakers:
                            waker()
                        dest = dests[r]
                        if dest is not None and not flit.is_tail:
                            # A head reached its destination: if its
                            # source still has flits to build, check at
                            # commit whether the path streams.
                            source = self._port_index.get(flit.src)
                            if source is not None:
                                pending = self._ports_list[
                                    source]._pending_flits
                                if pending.next < pending.end:
                                    self._candidates.append(dest)
                    moved |= 1 << in_index
                    fwd[r] += 1
                    fwd_out[ofid] += 1
                    if traced:
                        tracer.flit_forwarded(cycle, coord,
                                              _PORT_VALUES[out_index],
                                              flit)
                    if not flit.is_tail:
                        grant[ofid] = in_index
                        gmask[r] |= lowo
                    next_rr = in_index + 1
                    rr[ofid] = 0 if next_rr == n_ports else next_rr
                    break
        self._ring_total = ring_total
        self._busy_mask = busy
        # Injection phase: busy ports only, LSB-first (= attachment
        # order, exactly where the object backend's registration order
        # puts them).  The body is ``LocalPort.step`` inlined (same
        # observable effects: counters, trace events, one flit per
        # cycle into the local input) minus the local FIFO's waker fire
        # — a router input FIFO has no wakers.  ``send`` sets the
        # port's mask bit through its wake hook; the loop prunes idle
        # ports.
        m = self._inj_mask
        if m:
            inj = self._inj
            dirty_local = self._dirty_local
            while m:
                low = m & -m
                m ^= low
                port, lfid, fifo, rbit = inj[low.bit_length() - 1]
                pending = port._pending_flits
                if not pending:
                    send_queue = port._send_queue
                    if not send_queue:
                        self._inj_mask &= ~low
                        continue
                    message = send_queue.popleft()
                    pending = port._pending_flits = FlitStream(message)
                    port._injecting = message
                    port.messages_sent += 1
                    if port.tracer.enabled:
                        port.tracer.inject_start(cycle, port.coord,
                                                 message)
                staged = fifo._staged
                if len(fifo._items) + len(staged) < fifo.capacity:
                    if not staged:
                        dirty_local.append((lfid, fifo, rbit))
                    staged.append(pending.popleft())
                    port.flits_injected += 1
                    if not pending:
                        if pending.next < pending.end:
                            pending.refill()
                            continue
                        if port.tracer.enabled and \
                                port._injecting is not None:
                            port.tracer.inject_end(cycle, port.coord,
                                                   port._injecting)
                        port._injecting = None
                        if not port._send_queue:
                            self._inj_mask &= ~low

    def commit(self) -> None:
        counts = self._counts
        stageds = self._stageds
        vis = self._vis
        dirty = self._dirty
        req = self._req
        if dirty:
            hw = self._hw
            for fid in dirty:
                if not counts[fid]:
                    req[fid] = -2  # first committed flit becomes head
                depth = counts[fid] + stageds[fid]
                counts[fid] = depth
                stageds[fid] = 0
                vis[fid] = depth
                if depth > hw[fid]:
                    hw[fid] = depth
            dirty.clear()
        popped = self._popped
        if popped:
            # Publish this cycle's credit releases at the boundary; a
            # fid both popped and pushed was already refreshed above
            # (re-assigning the merged count is idempotent).
            for fid in popped:
                vis[fid] = counts[fid]
            popped.clear()
        dirty_local = self._dirty_local
        if dirty_local:
            busy = self._busy_mask
            for lfid, fifo, rbit in dirty_local:
                if not fifo._items:
                    req[lfid] = -2
                fifo._items.extend(fifo._staged)
                fifo._staged.clear()
                if len(fifo._items) > fifo.high_water:
                    fifo.high_water = len(fifo._items)
                busy |= rbit
            dirty_local.clear()
            self._busy_mask = busy
        # LocalPort.commit == eject_fifo.commit, inlined; only FIFOs
        # the router phase actually ejected into this cycle.
        dirty_eject = self._dirty_eject
        if dirty_eject:
            for eject in dirty_eject:
                eject._items.extend(eject._staged)
                eject._staged.clear()
                if len(eject._items) > eject.high_water:
                    eject.high_water = len(eject._items)
            dirty_eject.clear()
        self._committed = self._stepped
        if self._candidates:
            self._form_trains()

    # -- express wormholes (see the module docstring) ---------------------

    def settle(self) -> None:
        """Bring every live train's flit-level state up to date.

        Exact at any point of a cycle: between ticks, or inside the
        step phase after (or before) this core and the tile core have
        stepped.  The destinations are queued again, so a path that
        still streams re-forms its train at the next commit.
        """
        trains = self._trains
        if not trains:
            return
        candidates = self._candidates
        for train in trains:
            self._thaw(train)
            candidates.append((train.tcore, train.index))
        trains.clear()
        self._train_due = _NEVER

    def _thaw_due(self, cycle: int) -> None:
        """Advance the trains with an event at ``cycle`` (before this
        cycle's router phase): the source injects the tail (detach
        the port), may start its next message (re-arm it), or the
        path must go back to per-flit stepping (thaw)."""
        live = []
        due = _NEVER
        for train in self._trains:
            if train.due <= cycle:
                if not train.phase:
                    self._detach(train)
                elif train.phase == 1:
                    self._inj_mask |= 1 << train.source
                    train.phase = 2
                    train.due = train.end
                if train.end <= cycle:
                    self._thaw(train)
                    continue
            live.append(train)
            if train.due < due:
                due = train.due
        self._trains = live
        self._train_due = due

    def _detach(self, train: _Train) -> None:
        """The source injects the tail this cycle: hand the port back
        (its injection phase this cycle would have emptied it; it can
        start its next message from the next cycle)."""
        port = train.port
        stream = train.stream
        port.flits_injected += stream.remaining
        stream.clear()
        stream.next = stream.end
        port._injecting = None
        port._kernel_wake = self._inj_hooks[train.source]
        train.phase = 1
        train.due = train.tail_at + 1

    def _form_trains(self) -> None:
        """Freeze each queued destination's message if its path streams
        (called at the end of ``commit``, on committed state only)."""
        candidates = self._candidates
        self._candidates = []
        if not self._express or self.tracer.enabled:
            return
        for tcore, index in candidates:
            train = self._freeze(tcore, index)
            if train is not None:
                self._trains.append(train)
                if train.due < self._train_due:
                    self._train_due = train.due

    def _freeze(self, tcore, index: int) -> _Train | None:
        """Lift a streaming message off its path, or None if the path
        does not stream one flit per stage (or must stay per flit)."""
        tile = tcore.tiles[index]
        port = tile.port
        eject = port.eject_fifo
        items = eject._items
        # The tile core must be stepping (every cycle, like this core),
        # and the ejection FIFO must take a push while it holds a flit.
        if (len(items) != 1 or eject._staged
                or tcore._stepped != self._committed
                or eject.capacity is not None and eject.capacity < 2
                or tcore._inbound[index] is not None
                or tile._fault_frozen or port.fault_stalled
                or port._fault_eject is not None or tile.tracer.enabled):
            return None
        # The tile must pop this flit next cycle and one per cycle
        # after: mid-message it always does; a head only if the buffer
        # cap lets the message start.
        flit = items[0]
        assembler = port._assembler
        msg_id = flit.msg_id
        if flit.is_head:
            if assembler._active or tile._buffered_flits >= tile.buffer_flits:
                return None
        elif not assembler._active or assembler._msg_id != msg_id:
            return None
        # Short messages never pay: check the source's backlog first.
        source = self._port_index.get(flit.src)
        if source is None or self._inj[source][0]._pending_flits.remaining \
                < _MIN_TRAIN_FLITS:
            return None
        src_port, lfid, local, rbit = self._inj[source]
        # Walk the held grants from the ejection output back to the
        # source's LOCAL input; every ring on the way must hold exactly
        # one committed flit of the message.
        grant = self._grant
        counts = self._counts
        queues = self._queues
        heads = self._heads
        misrouted = self._misrouted
        fblocked = self._fault_blocked
        r = port.router._index
        ofid = r * _N_PORTS
        outs: list[int] = []
        rings: list[int] = []
        for _ in range(self.n_routers):
            if r in misrouted or (fblocked is not None and r in fblocked):
                return None
            owner = grant[ofid]
            if owner < 0:
                return None
            outs.append(ofid)
            if not owner:
                break
            sfid = r * _N_PORTS + owner
            if counts[sfid] != 1 or \
                    queues[sfid][heads[sfid]].msg_id != msg_id:
                return None
            rings.append(sfid)
            ofid = self._up[sfid]
            if ofid < 0:
                return None
            r = ofid // _N_PORTS
        else:
            return None
        if lfid != r * _N_PORTS:
            return None  # the grants lead to another router's port
        local_items = local._items
        if len(local_items) != 1 or local._staged or \
                local_items[0].msg_id != msg_id or local_items[0].is_tail \
                or src_port.tracer.enabled:
            return None
        # Freeze: empty the stages (the step loop then skips them) and
        # stop the source port until the thaw.  The lifted flits are
        # dropped: the source's flit stream rebuilds any of them.
        items.popleft()
        ring_occ = self._ring_occ
        for fid in rings:
            queues[fid][heads[fid]] = None
            counts[fid] = 0
            ring_occ[fid // _N_PORTS] -= 1
        local_items.popleft()
        src_port._kernel_wake = None
        self._inj_mask &= ~(1 << source)
        train = _Train(src_port, source, local, lfid, rbit, rings, outs,
                       tcore, index, self._committed)
        tcore._inbound[index] = train
        return train

    def _thaw(self, train: _Train) -> None:
        """Put a train's path back in the exact per-flit state.

        ``moved`` path steps have run since the freeze, the last one
        uncommitted when called inside a step phase (``staged``); the
        destination has popped once per tile-core step (``popped``).
        Stage ``i`` (0 = ejection FIFO, then the rings, then the LOCAL
        input) holds train flit ``i + full`` — or, inside a step phase,
        flit ``i + full + 1`` staged — unless that is past the tail
        (only the LOCAL input can be, by then).  Output ``k`` has
        forwarded ``min(moved, last - k)`` flits since the freeze and is
        released once the tail is through (only the source router's
        can be).
        """
        c0 = train.c0
        moved = self._stepped - c0
        full = self._committed - c0
        staged = moved - full
        popped = train.tcore._stepped - c0
        stream = train.stream
        flit = stream.flit
        base = train.base
        last = train.last
        port = train.port
        if not train.phase:
            # The source: ``moved`` more flits taken.
            port.flits_injected += moved
            built = len(stream)
            for _ in range(min(moved, built)):
                stream.popleft()
            if moved > built:
                stream.next += moved - built
            if not stream:
                stream.refill()  # the tail at least is still to come
            port._kernel_wake = self._inj_hooks[train.source]
        self._inj_mask |= 1 << train.source
        # The outputs.
        fwd = self._fwd
        fwd_out = self._fwd_out
        grant = self._grant
        gmask = self._gmask
        busy = self._busy_mask
        for k, ofid in enumerate(train.outs):
            r = ofid // _N_PORTS
            through = last - k
            if moved < through:
                fwd[r] += moved
                fwd_out[ofid] += moved
            else:
                fwd[r] += through
                fwd_out[ofid] += through
                grant[ofid] = -1
                gmask[r] &= ~(1 << (ofid - r * _N_PORTS))
            busy |= 1 << r
        self._busy_mask = busy
        # The rings: a thaw comes at the latest one cycle after the
        # tail leaves the LOCAL input, so every ring still holds a flit.
        queues = self._queues
        heads = self._heads
        req = self._req
        ring_occ = self._ring_occ
        for i, fid in enumerate(train.rings, base + full + staged + 1):
            queues[fid][heads[fid]] = flit(i)
            if staged:
                self._stageds[fid] = 1
                self._dirty.append(fid)
                self._popped.append(fid)
            else:
                self._counts[fid] = 1
            req[fid] = -2
            ring_occ[fid // _N_PORTS] += 1
        # The source's LOCAL input, empty once the tail has left it (the
        # source's next message may have entered it already).
        held = len(train.rings) + 1 + full + staged
        req[train.lfid] = -2
        if held <= last:
            if staged:
                train.local._staged.append(flit(base + held))
                self._dirty_local.append((train.lfid, train.local,
                                          train.rbit))
            else:
                train.local._items.append(flit(base + held))
        # The destination: its ejection FIFO, then the flits it popped.
        tile = train.tile
        tport = tile.port
        eject = tport.eject_fifo
        if popped <= full:
            eject._items.append(flit(base + full))
        if staged:
            eject._staged.append(flit(base + full + 1))
            self._dirty_eject.append(eject)
        for waker in eject._wakers:
            waker()
        tport.flits_ejected += popped
        tile._buffered_flits += popped - train.buffered
        stream.feed(tport._assembler, base, base + popped)
        train.tcore._inbound[train.index] = None

    # -- shard boundary hooks (repro.sim.shard) ---------------------------

    def set_boundary_egress(self, fid: int, eg: _FlatEgress) -> None:
        """Route the cut output ``fid`` into a boundary egress stub."""
        if self._egress is None:
            self._egress = [None] * (self.n_routers * _N_PORTS)
        self._egress[fid] = eg

    def boundary_ingest(self, fid: int, flits) -> None:
        """Apply boundary flits into ingress ring ``fid``.

        Called by the shard exchange after this core's tick; the body
        is ``commit``'s dirty-ring publication for a ring no in-band
        router pushes to — same head-cache invalidation, occupancy,
        high-water and busy-bit effects, so the receiving router sees the
        flits exactly as if an in-band upstream had staged them this
        cycle.
        """
        if not flits:
            return
        q = self._queues[fid]
        depth = self.depth
        count = self._counts[fid]
        if count == 0:
            self._req[fid] = -2  # first flit becomes the new head
        head = self._heads[fid]
        for flit in flits:
            slot = head + count
            if slot >= depth:
                slot -= depth
            q[slot] = flit
            count += 1
        n = count - self._counts[fid]
        self._counts[fid] = count
        self._vis[fid] = count
        if count > self._hw[fid]:
            self._hw[fid] = count
        r = fid // _N_PORTS
        self._ring_occ[r] += n
        self._ring_total += n
        self._busy_mask |= 1 << r

    # -- statistics -------------------------------------------------------

    @property
    def total_flits_forwarded(self) -> int:
        self.settle()
        return sum(self._fwd)

    @property
    def busy_routers(self) -> int:
        """Population of the busy-router bitmask — how many routers
        the next step will even look at (the probe's fabric-activity
        gauge)."""
        return self._busy_mask.bit_count()


class FlatMesh:
    """Drop-in :class:`~repro.noc.mesh.Mesh` replacement over a
    :class:`FlatMeshCore`.

    Construction, ``attach``, ``ports``, ``register``, ``routers`` and
    the counters all match the object mesh; ``register`` adds the
    single core component instead of per-router/per-port objects.
    """

    #: The core steps every attached port itself (they are kernel
    #: substeps, not simulator components) — designs that attach a
    #: port after ``register`` must NOT add it to the simulator.
    steps_ports = True

    def __init__(self, width: int, height: int,
                 fifo_depth: int = ROUTER_INPUT_FIFO_FLITS,
                 routing: str = "xy", x_offset: int = 0,
                 full_width: int | None = None):
        if width < 1 or height < 1:
            raise ValueError(f"bad mesh dimensions {width}x{height}")
        try:
            route_fn = {"xy": xy_route, "yx": yx_route}[routing]
        except KeyError:
            raise ValueError(f"unknown routing {routing!r} "
                             "(choose 'xy' or 'yx')") from None
        self.width = width
        self.height = height
        self.routing = routing
        self.x_offset = x_offset
        self.core = FlatMeshCore(width, height, fifo_depth, route_fn,
                                 x_offset=x_offset,
                                 full_width=full_width)
        self.routers: dict[tuple[int, int], FlatRouterView] = {
            coord: FlatRouterView(self.core, index, coord)
            for index, coord in enumerate(self.core.coords)
        }
        self._ports: dict[tuple[int, int], LocalPort] = {}

    def attach(self, coord: tuple[int, int],
               eject_depth: int = 4) -> LocalPort:
        """Create (or return) the local port at ``coord``."""
        if coord not in self.routers:
            raise KeyError(f"no router at {coord} in "
                           f"{self.width}x{self.height} mesh")
        if coord in self._ports:
            return self._ports[coord]
        port = LocalPort(self.routers[coord], eject_depth)
        self._ports[coord] = port
        self.core.add_port(port)
        return port

    @property
    def ports(self) -> dict[tuple[int, int], LocalPort]:
        """All attached local ports, keyed by coordinate."""
        return self._ports

    def register(self, simulator: CycleSimulator) -> None:
        """Add the mesh to a simulator as one batch-stepped component.

        Each port's ``_kernel_wake`` hook (installed at attach) flags
        the port for the core's injection loop.  The core steps every
        attached port, including ports attached *after* registration
        (the object backend leaves those unregistered, which the
        linter flags).
        """
        simulator.add(self.core)

    @property
    def total_flits_forwarded(self) -> int:
        return self.core.total_flits_forwarded


def build_mesh(width: int, height: int,
               fifo_depth: int = ROUTER_INPUT_FIFO_FLITS,
               routing: str = "xy", backend: str = "object",
               shards: int = 1,
               shard_bounds: list[int] | None = None):
    """Construct a mesh with the selected backend.

    ``backend="object"`` returns the classic per-object
    :class:`~repro.noc.mesh.Mesh`; ``backend="flat"`` returns a
    :class:`FlatMesh`.  Both expose the same construction/attachment
    API and are proven cycle- and trace-identical by the differential
    equivalence suite.

    ``shards > 1`` returns a :class:`~repro.noc.shardmesh.ShardedMesh`
    — ``shards`` contiguous column-band meshes of the requested
    backend stitched by boundary links — for use with a sharded
    simulator (:func:`repro.sim.shard.make_simulator`).
    ``shard_bounds`` optionally pins the per-shard band widths (they
    must sum to ``width``) instead of the default even split.
    """
    if shards > 1:
        from repro.noc.shardmesh import ShardedMesh
        return ShardedMesh(width, height, fifo_depth=fifo_depth,
                           routing=routing, backend=backend,
                           shards=shards, shard_bounds=shard_bounds)
    if backend == "flat":
        return FlatMesh(width, height, fifo_depth=fifo_depth,
                        routing=routing)
    if backend == "object":
        from repro.noc.mesh import Mesh
        return Mesh(width, height, fifo_depth=fifo_depth,
                    routing=routing)
    raise ValueError(f"unknown mesh backend {backend!r} "
                     "(choose 'object' or 'flat')")
