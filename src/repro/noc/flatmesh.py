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
"""

from __future__ import annotations

from repro.noc.mesh import LocalPort
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
        return self._core._counts[self._fid]

    @property
    def occupancy(self) -> int:
        core = self._core
        return core._counts[self._fid] + core._stageds[self._fid]

    @property
    def high_water(self) -> int:
        return self._core._hw[self._fid]

    def peek(self):
        core = self._core
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
        return self._core._fwd[self._index]

    @property
    def flits_per_output(self) -> dict[Port, int]:
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
        # per-router skip, and the mesh-wide total for is_idle.
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
        if self._ring_total:
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
                    pending.extend(message.to_flits())
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
