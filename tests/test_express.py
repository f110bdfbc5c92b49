"""Express wormholes must be invisible: bit-identical to hop by hop.

The flat mesh lifts a streaming message off its path as an express
train and applies the frozen cycles in one bulk step (see
``repro.noc.flatmesh``).  Trains never form under a recording tracer,
so the traced differential suite (``tests/test_kernel_equivalence.py``)
cannot see them; these tests run its scenarios untraced instead:

- every scenario reproduces its golden digest
  (``tests/data/golden_digests.json``, see ``tests/golden.py``);
- every scenario's untraced fingerprint — frames with emit cycles, the
  full ``design_counters``, every port's and link's flit counts — is
  identical with express trains on (``run`` and ``tick`` drives) and
  off (``express(False)``, the per-flit reference);
- flit-level state read in the middle of a train — between ticks at
  every cycle offset of one train, and inside the step phase at every
  cycle of a run — matches the per-flit reference exactly.
"""

from types import SimpleNamespace

import pytest

from repro.designs import FrameSink, FrameSource, UdpEchoDesign
from repro.designs.rs_design import RsDesign
from repro.noc.flatmesh import FlatMesh, FlatMeshCore
from repro.noc.message import reset_id_counters
from repro.sim.kernel import CycleSimulator
from repro.tiles.base import Tile
from repro.tiles.flatcore import register_tiles
from tests import golden
from tests.drives import driven, express
from tests.test_kernel_equivalence import (
    CLIENT_IP,
    CLIENT_MAC,
    SCENARIOS,
    echo_frame,
)


@pytest.fixture
def trains_formed(monkeypatch):
    """Counts the express trains formed while the test runs."""
    formed = []
    freeze = FlatMeshCore._freeze

    def counting(core, tcore, index):
        train = freeze(core, tcore, index)
        if train is not None:
            formed.append((train.c0, train.end))
        return train

    monkeypatch.setattr(FlatMeshCore, "_freeze", counting)
    return formed


def untraced(scenario, drive="run", enabled=True):
    reset_id_counters()
    with driven(drive), express(enabled):
        return scenario("flat", "flat", traced=False)


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_golden_digest(name):
    assert golden.scenario_digest(SCENARIOS[name]) == golden.load()[name]


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_express_matches_per_flit_reference(name):
    reference = untraced(SCENARIOS[name], enabled=False)
    for drive in ("run", "tick"):
        candidate = untraced(SCENARIOS[name], drive)
        for key in reference:
            assert candidate[key] == reference[key], (
                f"express trains changed {key!r} (drive={drive!r})")


@pytest.mark.parametrize("name", ["udp_mtu_saturating", "rs_encode"])
def test_long_messages_ride_trains(name, trains_formed):
    """The comparisons above are vacuous unless trains really form."""
    untraced(SCENARIOS[name])
    assert len(trains_formed) >= 50


def test_no_trains_under_a_tracer(trains_formed):
    reset_id_counters()
    SCENARIOS["udp_mtu_saturating"]("flat", "flat", traced=True)
    assert trains_formed == []


# -- flit-level state in the middle of a train ------------------------------


def flit_state(design):
    """Every piece of flit-level state a train defers: ring and FIFO
    contents (committed and staged), credits and grants, forwarding
    counters, port ledgers, tile buffers and reassembly."""
    core = design.mesh.core
    design.sim.settle()
    depth = core.depth
    rings = []
    for fid, queue in enumerate(core._queues):
        n = core._counts[fid] + core._stageds[fid]
        rings.append([queue[(core._heads[fid] + i) % depth]
                      for i in range(n)])
    ports = {}
    for coord, port in design.mesh.ports.items():
        assembler = port._assembler
        ports[coord] = (
            port.flits_injected, port.flits_ejected,
            port.messages_sent, port.messages_received,
            port._pending_flits[0] if port._pending_flits else None,
            port._pending_flits.remaining,
            list(port._local_in._items), list(port._local_in._staged),
            list(port.eject_fifo._items), list(port.eject_fifo._staged),
            port.eject_fifo.high_water, port._local_in.high_water,
            assembler._active, assembler._msg_id, assembler._meta_count,
            b"".join(assembler._chunks))
    return {
        "rings": rings,
        "counts": list(core._counts), "stageds": list(core._stageds),
        "vis": list(core._vis), "ring_occ": list(core._ring_occ),
        "ring_total": core._ring_total, "grant": list(core._grant),
        "hw": list(core._hw), "fwd": list(core._fwd),
        "fwd_out": list(core._fwd_out),
        "dirty": sorted(core._dirty), "popped": sorted(core._popped),
        "ports": ports,
        "buffered": [tile._buffered_flits for tile in design.tiles],
    }


def mtu_echo():
    design = UdpEchoDesign(udp_port=7, line_rate_bytes_per_cycle=None)
    design.add_client(CLIENT_IP, CLIENT_MAC)
    frame = echo_frame(design, bytes(range(256)) * 5 + b"m" * 178)
    design.sim.add(FrameSource(design.inject, lambda i: frame,
                               rate=None, count=12))
    design.sim.add(FrameSink(design.eth_tx))
    return design


def rs_design():
    design = RsDesign(instances=4, line_rate_bytes_per_cycle=50.0)
    design.add_client(CLIENT_IP, CLIENT_MAC)
    payload = bytes(range(256)) * 16
    for i in range(3):
        design.inject(echo_frame(design, payload, port=7000), i * 300)
    return design


def stop_at(design, cycle):
    sim = design.sim
    sim.run_until(lambda: sim.cycle >= cycle, max_cycles=cycle + 1)
    return flit_state(design)


def test_settle_at_every_offset_of_a_train(trains_formed):
    """Stop ``run_until`` at each cycle of one MTU message's train (and
    a few past its thaw); the settled state equals the per-flit run's
    at the same cycle."""
    reset_id_counters()
    stop_at(mtu_echo(), 800)
    c0, end = next((c0, end) for c0, end in trains_formed if c0 >= 300)
    offsets = range(c0, end + 6)
    reset_id_counters()
    with express(False):
        reference_design = mtu_echo()
        reference = {cycle: stop_at(reference_design, cycle)
                     for cycle in offsets}
    for cycle in offsets:
        reset_id_counters()
        design = mtu_echo()
        assert stop_at(design, cycle) == reference[cycle], (
            f"settled state differs at cycle {cycle} "
            f"(train froze at {c0}, tail due at {end})")


class _Snooper:
    """Reads the whole flit-level state inside every step phase, after
    the design's cores have stepped — where the probe and the fault
    engine settle."""

    def __init__(self, design):
        self.design = design
        self.states = []

    def step(self, cycle):
        self.states.append(flit_state(self.design))

    def commit(self):
        pass


@pytest.mark.parametrize("build", [mtu_echo, rs_design],
                         ids=["mtu_echo", "rs"])
def test_settle_inside_the_step_phase(build, trains_formed):
    """Settling between a core's step and its commit (staged flits in
    flight) is exact too, and the train re-forms at that commit."""
    runs = {}
    for enabled in (False, True):
        reset_id_counters()
        with express(enabled):
            design = build()
            snooper = _Snooper(design)
            design.sim.add(snooper)
            design.sim.run(1200)
        runs[enabled] = snooper.states
    assert trains_formed, "no train formed: nothing was tested"
    assert len(runs[True]) == len(runs[False]) == 1200
    for cycle, (ref, got) in enumerate(zip(runs[False], runs[True])):
        assert got == ref, f"mid-cycle state differs at cycle {cycle}"


def test_service_completion_under_a_train_sees_exact_buffer():
    """A tile finishing service while a train streams into it subtracts
    from (and clamps at zero) the per-flit ``_buffered_flits``.  Zero
    every tile's count mid-run, as a crash does, so the clamp binds
    while the following trains run."""
    runs = {}
    for enabled in (False, True):
        reset_id_counters()
        with express(enabled):
            design = mtu_echo()
            stop_at(design, 150)
            for tile in design.tiles:
                tile._buffered_flits = 0
            runs[enabled] = [stop_at(design, cycle)
                             for cycle in range(160, 800, 20)]
    assert runs[True] == runs[False]


class _Relay(Tile):
    """Sends every message it finishes on to ``target``, ``hops`` times
    in all — a long message on a fixed path, over and over."""

    def __init__(self, name, mesh, coord, target, hops):
        super().__init__(name, mesh, coord)
        self.target = target
        self.hops = hops

    def handle_message(self, message, cycle):
        if not self.hops:
            return []
        self.hops -= 1
        return [self.make_message(self.target, data=message.data)]


def relay_design(loopback, tiles_first):
    """Two relays on a 2x1 flat mesh: each bounces to itself (a
    one-router path) or to the other (two routers), with the tile core
    registered before or after the mesh."""
    mesh = FlatMesh(2, 1)
    coords = [(0, 0), (1, 0)]
    tiles = [_Relay(f"relay{i}", mesh, coord,
                    coord if loopback else coords[1 - i], hops=6)
             for i, coord in enumerate(coords)]
    sim = CycleSimulator(mesh_backend="flat", tile_backend="flat")
    if not tiles_first:
        mesh.register(sim)
    tile_core = register_tiles(sim, tiles, "flat")
    if tiles_first:
        mesh.register(sim)
    for tile in tiles:
        tile.send(tile.make_message(tile.target, data=bytes(range(256)) * 4))
    return SimpleNamespace(sim=sim, mesh=mesh, tiles=tiles,
                           tile_core=tile_core)


@pytest.mark.parametrize("loopback", [True, False],
                         ids=["one_router", "two_routers"])
@pytest.mark.parametrize("tiles_first", [False, True],
                         ids=["mesh_first", "tiles_first"])
def test_trains_in_any_registration_order(loopback, tiles_first,
                                          trains_formed, monkeypatch):
    """A one-router path thaws a cycle earlier (the tile pops the tail
    two cycles after its injection), and the tile core may step before
    the mesh core: the state matches the per-flit run both read inside
    every step phase and every 37 cycles between ticks (so trains run
    through their tail)."""
    detached = []
    detach = FlatMeshCore._detach

    def counting(core, train):
        detached.append(train.tail_at)
        detach(core, train)

    monkeypatch.setattr(FlatMeshCore, "_detach", counting)
    runs = {}
    for enabled in (False, True):
        reset_id_counters()
        with express(enabled):
            design = relay_design(loopback, tiles_first)
            sparse = [stop_at(design, cycle) for cycle in range(37, 600, 37)]
            reset_id_counters()
            design = relay_design(loopback, tiles_first)
            snooper = _Snooper(design)
            design.sim.add(snooper)
            design.sim.run(600)
        assert design.tiles[0].hops == 0
        runs[enabled] = (sparse, snooper.states)
    assert len(trains_formed) >= 8 and detached
    assert runs[True][0] == runs[False][0]
    assert runs[True][1] == runs[False][1]
